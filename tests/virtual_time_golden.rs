//! Golden virtual-time stamps.
//!
//! Simulator speed-ups (how the bus walks an idle wait, who owns the
//! platform) must not move virtual time by a single nanosecond. These tests
//! pin the exact virtual clock readings at the completion of camera captures
//! (driverlet replay at every resolution, and the native gold driver) and of
//! USB bulk transfers through a driverlet. The constants were recorded from
//! the step-by-step polling simulator; a change that moves any of them is a
//! model change, not a speed-up. The camera cases also pin the delivered
//! image bytes (FNV-1a 64), so a faster frame generator must reproduce the
//! frames exactly.

use dlt_core::{replay_cam, replay_usb, Replayer};
use dlt_dev_usb::UsbSubsystem;
use dlt_dev_vchiq::msg::CameraResolution;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_gold_drivers::kenv::BusIo;
use dlt_gold_drivers::vchiq::VchiqDriver;
use dlt_hw::{DmaRegion, Platform};
use dlt_recorder::campaign::{
    pattern_buf, record_camera_driverlet_subset, record_usb_driverlet_subset, DEV_KEY,
};
use dlt_tee::{SecureIo, TeeKernel};

/// Absolute virtual time after each one-frame `replay_cam` capture, in
/// order 720p, 1080p, 1440p, on one fresh TEE-owned VC4.
const CAM_REPLAY_STAMPS_NS: [u64; 3] = [2_330_893_468, 4_720_220_824, 7_191_326_132];
/// FNV-1a 64 of the image bytes each of those captures delivers.
const CAM_REPLAY_FRAME_FNV: [u64; 3] =
    [0xa7c7_93d5_0508_4758, 0xafee_2a18_05f9_1318, 0xa0da_fc58_a221_b851];
/// Absolute virtual time after one native 720p capture on a fresh platform.
const CAM_NATIVE_STAMP_NS: u64 = 2_099_515_896;
/// FNV-1a 64 of the image bytes that native capture delivers.
const CAM_NATIVE_FRAME_FNV: u64 = 0xa7c7_93d5_0508_4758;
/// Absolute virtual time after an 8-block USB bulk write, then after the
/// 8-block bulk read of the same blocks, through the USB driverlet.
const USB_REPLAY_STAMPS_NS: [u64; 2] = [876_440, 1_532_880];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn camera_replay_completion_stamps_are_pinned() {
    let driverlet = record_camera_driverlet_subset(&[1]).unwrap();
    let platform = Platform::new();
    VchiqSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["vchiq"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    let mut stamps = [0u64; 3];
    let mut hashes = [0u64; 3];
    for ((stamp, hash), res) in stamps.iter_mut().zip(&mut hashes).zip(CameraResolution::all()) {
        let mut buf = vec![0u8; 2 << 20];
        let img = replay_cam(&mut replayer, 1, res.code(), &mut buf).unwrap();
        assert_eq!(img, res.frame_bytes());
        *stamp = platform.now_ns();
        *hash = fnv1a64(&buf[..img as usize]);
    }
    assert_eq!(stamps, CAM_REPLAY_STAMPS_NS);
    assert_eq!(hashes, CAM_REPLAY_FRAME_FNV);
}

#[test]
fn native_camera_completion_stamp_is_pinned() {
    let platform = Platform::new();
    VchiqSubsystem::attach(&platform).unwrap();
    let io = BusIo::normal_world(platform.bus.clone(), DmaRegion::new(0x0200_0000, 0x0100_0000));
    let mut drv = VchiqDriver::new(io);
    let mut buf = vec![0u8; 2 << 20];
    let img = drv.capture(1, CameraResolution::R720p, &mut buf).unwrap();
    assert_eq!(img, CameraResolution::R720p.frame_bytes());
    assert_eq!(platform.now_ns(), CAM_NATIVE_STAMP_NS);
    assert_eq!(fnv1a64(&buf[..img as usize]), CAM_NATIVE_FRAME_FNV);
}

#[test]
fn usb_bulk_completion_stamps_are_pinned() {
    let driverlet = record_usb_driverlet_subset(&[8]).unwrap();
    let platform = Platform::new();
    UsbSubsystem::attach(&platform).unwrap();
    TeeKernel::install(&platform, &["dwc2"]).unwrap();
    let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
    replayer.load_driverlet(driverlet, DEV_KEY).unwrap();

    let payload = pattern_buf(8 * 512, 0x601d);
    let mut buf = payload.clone();
    replay_usb(&mut replayer, 0x10, 8, 2000, 0, &mut buf).unwrap();
    let written = platform.now_ns();
    let mut back = vec![0u8; 8 * 512];
    replay_usb(&mut replayer, 0x1, 8, 2000, 0, &mut back).unwrap();
    assert_eq!(back, payload);
    assert_eq!([written, platform.now_ns()], USB_REPLAY_STAMPS_NS);
}
