//! Peeled rigs: the layers under the service, timed on their own.
//!
//! * [`Peeled`] — a bare `Replayer` + `SecureIo` + `Platform` (no service,
//!   no lane) given the workload's own template invocations: host ns per
//!   replay call, plus the bus, clock, world-switch and replay counters
//!   per call.
//! * [`Native`] — the same block ops (or captures) on the native
//!   gold-driver stack: the floor for the bus plus the device models.
//! * [`TeeProbe`] — one register read through `SecureIo` against the
//!   same read straight on the bus: what the TEE's I/O wrapper adds per
//!   MMIO access.
//!
//! Each rig runs in short stretches interleaved with the workload's own,
//! so drift in the host's speed taxes the rigs and the workload alike.

use std::time::{Duration, Instant};

use dlt_core::{replay_cam, replay_mmc, Replayer};
use dlt_dev_mmc::MmcSubsystem;
use dlt_dev_vchiq::msg::CameraResolution;
use dlt_dev_vchiq::VchiqSubsystem;
use dlt_gold_drivers::kenv::BusIo;
use dlt_gold_drivers::vchiq::VchiqDriver;
use dlt_hw::bus::MmioAttr;
use dlt_hw::{DmaRegion, Platform, World};
use dlt_recorder::campaign::DEV_KEY;
use dlt_tee::{secure_core, SecureIo, TeeKernel};
use dlt_template::Driverlet;
use dlt_workloads::block::BlockDev;
use dlt_workloads::{NativeDev, StorageKind, StoragePath};

use crate::trace::{span, Layer};
use crate::work::Invocation;

/// Counters a rig accumulates over its stretches.
#[derive(Debug, Clone, Copy, Default)]
pub struct RigAcc {
    /// Calls timed.
    pub calls: u64,
    /// Host ns spent in timed calls.
    pub ns: u64,
    /// Bus accesses (`SystemBus::access_count`).
    pub mmio: u64,
    /// Clock advances (`VirtualClock::advance_count`).
    pub clock_advances: u64,
    /// `SecureIo` world switches.
    pub world_switches: u64,
    /// Template events executed.
    pub events: u64,
    /// Interrupt waits.
    pub irq_waits: u64,
    /// Payload bytes moved.
    pub payload_bytes: u64,
    /// Divergences.
    pub divergences: u64,
}

impl RigAcc {
    /// `count` per timed call.
    pub fn per_call(&self, count: u64) -> f64 {
        count as f64 / self.calls.max(1) as f64
    }

    /// Host ns per timed call.
    pub fn ns_per_call(&self) -> f64 {
        self.per_call(self.ns)
    }
}

/// Buffer large enough for a 1440p frame or any block request.
const RIG_BUF: usize = 2 << 20;

/// Calls run untimed before a rig's first stretch (caches, lazy set-up).
const WARM_CALLS: usize = 16;

/// Drive `call` over `invocations` round-robin from `*cursor` until
/// `budget` has passed (at least one call); returns (calls, host ns).
/// The first stretch of a rig starts with [`WARM_CALLS`] untimed calls.
fn stretch(
    invocations: &[Invocation],
    cursor: &mut usize,
    budget: Duration,
    call: &mut dyn FnMut(Invocation, u64) -> Result<(), String>,
) -> Result<(u64, u64), String> {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < budget {
        let inv = invocations[*cursor % invocations.len()];
        *cursor += 1;
        call(inv, *cursor as u64)?;
        calls += 1;
    }
    Ok((calls, start.elapsed().as_nanos() as u64))
}

fn warm(
    invocations: &[Invocation],
    cursor: usize,
    call: &mut dyn FnMut(Invocation, u64) -> Result<(), String>,
) -> Result<(), String> {
    if cursor == 0 {
        for inv in invocations.iter().take(WARM_CALLS) {
            call(*inv, 0)?;
        }
    }
    Ok(())
}

fn replay_one(r: &mut Replayer, buf: &mut [u8], inv: Invocation, op: u64) -> Result<(), String> {
    span(Layer::Core, "replay", op, || match inv {
        Invocation::Block { write, blkid, blkcnt } => {
            let rw = if write { 0x10 } else { 0x1 };
            let len = blkcnt as usize * dlt_serve::BLOCK;
            replay_mmc(r, rw, blkcnt, blkid, 0, &mut buf[..len]).map(|_| ())
        }
        Invocation::Capture { resolution } => replay_cam(r, 1, resolution, buf).map(|_| ()),
    })
    .map_err(|e| e.to_string())
}

/// A bare replayer on its own platform.
pub struct Peeled {
    platform: Platform,
    replayer: Replayer,
    buf: Vec<u8>,
    cursor: usize,
}

impl Peeled {
    /// Stand a replayer up for `bundle`'s device, as the paper's
    /// exclusive-ownership deployment does.
    pub fn new(camera: bool, bundle: &Driverlet) -> Result<Self, String> {
        let platform = Platform::new();
        let secure: &[&str] = if camera {
            VchiqSubsystem::attach(&platform).map_err(|e| e.to_string())?;
            &["vchiq"]
        } else {
            MmcSubsystem::attach(&platform).map_err(|e| e.to_string())?;
            &["sdhost", "dma"]
        };
        TeeKernel::install(&platform, secure).map_err(|e| e.to_string())?;
        let mut replayer = Replayer::new(SecureIo::new(platform.bus.clone()));
        replayer.load_driverlet(bundle.clone(), DEV_KEY).map_err(|e| e.to_string())?;
        Ok(Peeled { platform, replayer, buf: vec![0u8; RIG_BUF], cursor: 0 })
    }

    /// Replay `invocations` for about `budget`, adding to `acc`.
    pub fn run(
        &mut self,
        invocations: &[Invocation],
        budget: Duration,
        acc: &mut RigAcc,
    ) -> Result<(), String> {
        let (r, buf) = (&mut self.replayer, &mut self.buf);
        warm(invocations, self.cursor, &mut |inv, op| replay_one(r, buf, inv, op))?;
        let mmio0 = self.platform.bus.lock().access_count();
        let adv0 = self.platform.clock.lock().advance_count();
        let (ws0, st0) = (self.replayer.io_mut().world_switches(), self.replayer.stats());
        let (r, buf) = (&mut self.replayer, &mut self.buf);
        let (calls, ns) = stretch(invocations, &mut self.cursor, budget, &mut |inv, op| {
            replay_one(r, buf, inv, op)
        })?;
        let (ws1, st1) = (self.replayer.io_mut().world_switches(), self.replayer.stats());
        acc.calls += calls;
        acc.ns += ns;
        acc.mmio += self.platform.bus.lock().access_count() - mmio0;
        acc.clock_advances += self.platform.clock.lock().advance_count() - adv0;
        acc.world_switches += ws1 - ws0;
        acc.events += st1.events_executed - st0.events_executed;
        acc.irq_waits += st1.irq_waits - st0.irq_waits;
        acc.payload_bytes += st1.payload_bytes - st0.payload_bytes;
        acc.divergences += st1.divergences - st0.divergences;
        Ok(())
    }
}

enum NativeStack {
    Block(NativeDev),
    Camera(VchiqDriver<BusIo>),
}

/// The native gold-driver stack (`NativeSync` for block ops: no page
/// cache, every op reaches the device).
pub struct Native {
    stack: NativeStack,
    buf: Vec<u8>,
    cursor: usize,
}

impl Native {
    /// Bring the native MMC or camera stack up on a fresh platform.
    pub fn new(camera: bool) -> Result<Self, String> {
        let stack = if camera {
            let platform = Platform::new();
            VchiqSubsystem::attach(&platform).map_err(|e| e.to_string())?;
            let window = DmaRegion::new(0x0200_0000, 0x0100_0000);
            NativeStack::Camera(VchiqDriver::new(BusIo::normal_world(platform.bus.clone(), window)))
        } else {
            NativeStack::Block(NativeDev::new(StorageKind::Mmc, StoragePath::NativeSync))
        };
        Ok(Native { stack, buf: vec![0u8; RIG_BUF], cursor: 0 })
    }

    /// Run `invocations` natively for about `budget`, adding to `acc`.
    pub fn run(
        &mut self,
        invocations: &[Invocation],
        budget: Duration,
        acc: &mut RigAcc,
    ) -> Result<(), String> {
        let (stack, buf) = (&mut self.stack, &mut self.buf);
        let mut call = |inv: Invocation, op: u64| {
            span(Layer::Hw, "native_op", op, || match (&mut *stack, inv) {
                (NativeStack::Block(dev), Invocation::Block { write, blkid, blkcnt }) => {
                    let len = blkcnt as usize * dlt_serve::BLOCK;
                    if write {
                        dev.write_blocks(blkid, &buf[..len])
                    } else {
                        dev.read_blocks(blkid, blkcnt, &mut buf[..len])
                    }
                }
                (NativeStack::Camera(drv), Invocation::Capture { resolution }) => {
                    let res = CameraResolution::from_code(resolution).ok_or("bad resolution")?;
                    drv.capture(1, res, buf).map(|_| ()).map_err(|e| e.to_string())
                }
                _ => Err("invocation does not match the native stack".into()),
            })
        };
        warm(invocations, self.cursor, &mut call)?;
        let (calls, ns) = stretch(invocations, &mut self.cursor, budget, &mut call)?;
        acc.calls += calls;
        acc.ns += ns;
        Ok(())
    }
}

/// One register read through `SecureIo` against the same read issued
/// straight on the bus.
pub struct TeeProbe {
    platform: Platform,
    io: SecureIo,
    addr: u64,
    via_tee: Vec<f64>,
    direct: Vec<f64>,
}

impl TeeProbe {
    /// A secure MMC core to probe.
    pub fn new() -> Result<Self, String> {
        let platform = Platform::new();
        MmcSubsystem::attach(&platform).map_err(|e| e.to_string())?;
        let io = secure_core(&platform, &["sdhost", "dma"]).map_err(|e| e.to_string())?;
        let addr = platform.bus.lock().device_window("sdhost").map_err(|e| e.to_string())?.base
            + dlt_dev_mmc::regs::SDHCFG;
        Ok(TeeProbe { platform, io, addr, via_tee: Vec::new(), direct: Vec::new() })
    }

    /// One trial of each arm.
    pub fn run(&mut self) -> Result<(), String> {
        const N: u32 = 2048;
        let t = Instant::now();
        for _ in 0..N {
            std::hint::black_box(self.io.readl(self.addr).map_err(|e| e.to_string())?);
        }
        self.via_tee.push(t.elapsed().as_nanos() as f64 / f64::from(N));
        let t = Instant::now();
        for _ in 0..N {
            let v =
                self.platform.bus.lock().mmio_read32(self.addr, World::Secure, MmioAttr::Uncached);
            std::hint::black_box(v.map_err(|e| e.to_string())?);
        }
        self.direct.push(t.elapsed().as_nanos() as f64 / f64::from(N));
        Ok(())
    }

    /// Median extra host ns per MMIO access through `SecureIo` (never
    /// negative).
    pub fn ns_per_mmio(&self) -> f64 {
        (crate::median(&self.via_tee) - crate::median(&self.direct)).max(0.0)
    }
}
