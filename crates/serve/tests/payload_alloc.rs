//! Proof that a payload's bytes move once through the serve layer.
//!
//! A counting global allocator wraps the system allocator, totals the bytes
//! requested and counts the requests of at least one 8-block payload's
//! size. On a warmed service whose client drops every payload once it has
//! looked at it, one round trip (submit, `drain_all`, `take_completions`)
//! must allocate:
//!
//! * for a 1440p capture, well under one frame: the lane recycles its
//!   capture buffer and hands the frame out without copying it;
//! * for an 8-block read, the one 4 KiB buffer the replay fills plus a
//!   fixed overhead smaller than a second copy;
//! * for 32 ring reads of one 8-block extent merged into one replay, one
//!   payload-sized buffer — the span every member shares — rather than one
//!   copy per member.
//!
//! The copies `drain_all` returns are reference-count bumps, never second
//! copies. This file holds a single `#[test]` so no sibling test thread can
//! disturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlt_dev_vchiq::msg::is_valid_jpeg;
use dlt_dev_vchiq::CameraResolution;
use dlt_recorder::campaign::{record_camera_driverlet_subset, record_mmc_driverlet_subset};
use dlt_serve::{
    Completion, Device, DriverletService, ObsConfig, Payload, Request, ServeConfig, SessionId,
    SubmitMode, BLOCK,
};

struct CountingAllocator;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static PAYLOAD_SIZED: AtomicU64 = AtomicU64::new(0);

/// One 8-block read payload.
const PAYLOAD: usize = 8 * BLOCK;

fn count(size: usize) {
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= PAYLOAD {
        PAYLOAD_SIZED.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Budget for one capture round trip: completion and bookkeeping vectors
/// fit in a few KiB; one 1440p frame is 1 MiB and the capture buffer 2 MiB.
const CAPTURE_ALLOC_BUDGET: u64 = 64 << 10;

/// Fixed overhead of one request's round trip outside its payload bytes:
/// completion vectors, the replay outcome's capture map, the shared-bytes
/// header (about 2 KiB). Below one 8-block payload, so a second copy of
/// the payload cannot hide in it.
const FIXED_OVERHEAD: u64 = 3 << 10;

/// Members of the merged ring read.
const MEMBERS: usize = 32;

/// Per-member overhead of the merged read: ring staging and the growth of
/// the completion vectors (about 0.8 KiB).
const MEMBER_OVERHEAD: u64 = 1536;

/// What a closure allocated: total bytes, and how many requests were at
/// least one 8-block payload in size.
struct Allocated {
    bytes: u64,
    payload_sized: u64,
}

fn allocated_by<T>(f: impl FnOnce() -> T) -> (Allocated, T) {
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let sized = PAYLOAD_SIZED.load(Ordering::Relaxed);
    let out = f();
    let allocated = Allocated {
        bytes: ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes,
        payload_sized: PAYLOAD_SIZED.load(Ordering::Relaxed) - sized,
    };
    (allocated, out)
}

/// Submit `reqs` into `session`, drain (which rings the doorbell in ring
/// mode) and reap: the client's whole round trip. `drain_all`'s return
/// value is dropped, as a client that reaps per session does.
fn round_trip(s: &mut DriverletService, session: SessionId, reqs: &[Request]) -> Vec<Completion> {
    for req in reqs {
        s.submit(session, req.clone()).expect("submit");
    }
    drop(s.drain_all());
    s.take_completions(session)
}

/// A one-lane service for `device`, with one open session, warmed by
/// three round trips of `reqs`.
fn warmed(
    device: Device,
    submit_mode: SubmitMode,
    reqs: &[Request],
) -> (DriverletService, SessionId) {
    let bundle = match device {
        Device::Vchiq => record_camera_driverlet_subset(&[1]).expect("record camera"),
        _ => record_mmc_driverlet_subset(&[1, 8]).expect("record mmc"),
    };
    let config = ServeConfig {
        submit_mode,
        block_granularities: vec![1, 8],
        obs: ObsConfig::Off,
        ..ServeConfig::default()
    };
    let mut s =
        DriverletService::with_driverlets(&[(device, bundle)], config).expect("build service");
    let session = s.open_session().unwrap();
    for _ in 0..3 {
        drop(round_trip(&mut s, session, reqs));
    }
    (s, session)
}

#[test]
fn payloads_move_once() {
    let capture = [Request::Capture { frames: 1, resolution: 1440 }];
    let (mut cam, session) = warmed(Device::Vchiq, SubmitMode::PerCall, &capture);
    let (allocated, done) = allocated_by(|| round_trip(&mut cam, session, &capture));
    let Ok(Payload::Image { data }) = &done[0].result else {
        panic!("capture failed: {:?}", done[0].result);
    };
    assert_eq!(data.len(), CameraResolution::R1440p.frame_bytes() as usize);
    assert!(is_valid_jpeg(data));
    assert!(
        allocated.bytes < CAPTURE_ALLOC_BUDGET,
        "a 1440p capture round trip allocated {} bytes (budget {CAPTURE_ALLOC_BUDGET})",
        allocated.bytes
    );

    let read = [Request::Read { device: Device::Mmc, blkid: 16, blkcnt: 8 }];
    let (mut mmc, session) = warmed(Device::Mmc, SubmitMode::PerCall, &read);
    let (allocated, done) = allocated_by(|| round_trip(&mut mmc, session, &read));
    assert!(matches!(&done[0].result, Ok(Payload::Read(b)) if b.len() == PAYLOAD));
    let budget = PAYLOAD as u64 + FIXED_OVERHEAD;
    assert!(
        allocated.bytes <= budget,
        "an 8-block read round trip allocated {} bytes (budget {budget})",
        allocated.bytes
    );
    assert_eq!(allocated.payload_sized, 1, "one payload buffer per read");

    let reads = vec![read[0].clone(); MEMBERS];
    let (mut ring, session) = warmed(Device::Mmc, SubmitMode::Ring, &reads);
    let (allocated, done) = allocated_by(|| round_trip(&mut ring, session, &reads));
    assert_eq!(done.len(), MEMBERS);
    let first = done[0].result.as_ref().expect("read ok");
    for c in &done {
        assert!(c.coalesced, "request {} was not merged", c.id);
        assert_eq!(c.result.as_ref().expect("read ok"), first);
    }
    assert_eq!(allocated.payload_sized, 1, "{MEMBERS} merged members share one span buffer");
    let budget = PAYLOAD as u64 + MEMBERS as u64 * MEMBER_OVERHEAD;
    assert!(
        allocated.bytes <= budget,
        "a {MEMBERS}-member merged read allocated {} bytes (budget {budget})",
        allocated.bytes
    );
}
