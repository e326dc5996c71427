//! Set-up, the three workloads and `ring_fanin`'s threaded twin.
//!
//! Every workload drives a `DriverletService` through its public calls
//! (`submit`, `ring_doorbell`, `drain_all`, `take_completions`,
//! `client_think_ns`), wraps each call in a [`span`] for the traced run,
//! checks every output against ground truth, and feeds the host-time and
//! virtual-time accumulators in [`Tally`].

use std::time::Instant;

use dlt_dev_vchiq::msg::{is_valid_jpeg, CameraResolution};
use dlt_recorder::campaign::{record_camera_driverlet_subset, record_mmc_driverlet_subset};
use dlt_serve::{
    Device, DriverletService, ExecMode, ObsConfig, Payload, Request, ServeConfig, SessionId,
    SubmitMode,
};
use dlt_template::Driverlet;
use dlt_workloads::block::BlockDev;
use dlt_workloads::microdb::VALUE_BYTES;
use dlt_workloads::MicroDb;

use crate::trace::{span, Layer};
use crate::{stamp_hash, Reservoir, Rng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `MicroDb` get/put over per-call MMC submits (Figure 5 path).
    SqliteRw,
    /// 12 open-loop tenants reading one hot MMC extent through the rings.
    RingFanin,
    /// Single-frame captures at seeded resolutions (Figure 6 path).
    CamCapture,
    /// `RingFanin`'s schedule with the lane on its own thread: the
    /// handoff twin of `ring_fanin`'s traced run, not a workload of its
    /// own on the command line.
    FaninThreaded,
}

/// The command-line workloads, in reporting order.
pub const KINDS: [Kind; 3] = [Kind::SqliteRw, Kind::RingFanin, Kind::CamCapture];

/// Block granularities the MMC bundle records: the 8-block page/extent
/// size every MMC workload uses, plus single blocks.
const MMC_GRANULARITIES: [u32; 2] = [1, 8];
/// Keys in the `sqlite_rw` database.
pub const DB_KEYS: u64 = 4096;
/// Bucket pages in the `sqlite_rw` database (16 records per page on
/// average, far below the 71-slot page capacity).
const DB_BUCKETS: u32 = 256;
/// Tenants in the fan-in workloads.
pub const FANIN_TENANTS: usize = 12;
/// First block of the fan-in hot extent.
pub const HOT_BLKID: u32 = 4096;
/// Blocks in the fan-in hot extent (every read covers all of it).
pub const HOT_BLOCKS: u32 = 8;
/// Staged ring entries per doorbell.
pub const DOORBELL_EVERY: usize = 32;
/// Mean virtual gap between one tenant's reads.
const FANIN_MEAN_GAP_NS: f64 = 450_000.0;
/// Capture resolutions the camera tenant draws from.
const RESOLUTIONS: [u32; 3] = [720, 1080, 1440];

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// Workload name as used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SqliteRw => "sqlite_rw",
            Kind::RingFanin => "ring_fanin",
            Kind::CamCapture => "cam_capture",
            Kind::FaninThreaded => "fanin_threaded",
        }
    }

    /// The one device the workload serves.
    pub fn device(self) -> Device {
        match self {
            Kind::CamCapture => Device::Vchiq,
            _ => Device::Mmc,
        }
    }

    /// Whether the end-to-end host figures are scaled by the calibration
    /// loop's slowness. On the MMC workloads, whose host time is per-MMIO
    /// replay and serve work, the run's speed follows the loop's with an
    /// exponent near 1. `cam_capture`'s follows it with an exponent near
    /// 0.5, so scaling would add as much drift as it removes: its figures
    /// stay raw.
    pub fn calibrated(self) -> bool {
        self.device() == Device::Mmc
    }

    /// Sessions the workload opens.
    pub fn sessions(self) -> usize {
        match self {
            Kind::RingFanin | Kind::FaninThreaded => FANIN_TENANTS,
            _ => 1,
        }
    }

    /// Operations in the deterministic virtual-time window: the first this
    /// many operations of the measured phase feed every `vt_*` metric and
    /// the digest, whatever the host speed. Sized so the seed moves the
    /// `vt_*` figures by a few parts in a thousand while the window fills
    /// in a few host seconds.
    pub fn vt_window(self) -> u64 {
        match self {
            Kind::SqliteRw => 160_000,
            Kind::RingFanin | Kind::FaninThreaded => 524_288,
            Kind::CamCapture => 300,
        }
    }

    /// The service configuration, with every knob the workload depends on
    /// set explicitly — observability is forced `Off` so the `DLT_OBS`
    /// environment variable cannot switch the flight recorder on.
    pub fn config(self) -> ServeConfig {
        let base = ServeConfig {
            obs: ObsConfig::Off,
            block_granularities: MMC_GRANULARITIES.to_vec(),
            camera_bursts: vec![1],
            ..ServeConfig::default()
        };
        match self {
            Kind::SqliteRw => ServeConfig {
                submit_mode: SubmitMode::PerCall,
                exec_mode: ExecMode::Sequential,
                hold_budget_ns: 0,
                ..base
            },
            Kind::RingFanin | Kind::FaninThreaded => ServeConfig {
                submit_mode: SubmitMode::Ring,
                exec_mode: if self == Kind::FaninThreaded {
                    ExecMode::Threaded
                } else {
                    ExecMode::Sequential
                },
                sq_depth: 64,
                queue_capacity: 128,
                coalesce: true,
                coalesce_window: 256,
                ..base
            },
            Kind::CamCapture => ServeConfig {
                submit_mode: SubmitMode::PerCall,
                exec_mode: ExecMode::Sequential,
                ..base
            },
        }
    }
}

/// Host time of one set-up, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Recording the device's bundle from the gold driver.
    pub record_ms: f64,
    /// `Driverlet::from_binary`.
    pub decode_us: f64,
    /// `DriverletService::with_driverlets`.
    pub start_ms: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// A stood-up service plus what the peeled rigs need from set-up.
pub struct Built {
    /// The service under measurement.
    pub service: DriverletService,
    /// The workload's open sessions.
    pub sessions: Vec<SessionId>,
    /// The bundle the service was loaded with (decoded from its binary).
    pub bundle: Driverlet,
    /// Host time of each set-up phase.
    pub times: SetupTimes,
}

/// Record the bundle, round-trip it through the binary codec, stand the
/// service up and open the sessions.
pub fn setup(kind: Kind, config: ServeConfig) -> Result<Built, String> {
    let t0 = Instant::now();
    let recorded = match kind.device() {
        Device::Vchiq => record_camera_driverlet_subset(&[1]),
        _ => record_mmc_driverlet_subset(&MMC_GRANULARITIES),
    }
    .map_err(|e| format!("record: {e}"))?;
    let t1 = Instant::now();
    let bytes = recorded.to_binary();
    let t2 = Instant::now();
    let bundle = Driverlet::from_binary(&bytes).map_err(|e| format!("decode: {e}"))?;
    let t3 = Instant::now();
    let mut service = DriverletService::with_driverlets(&[(kind.device(), bundle.clone())], config)
        .map_err(|e| format!("start: {e}"))?;
    let t4 = Instant::now();
    let sessions = (0..kind.sessions())
        .map(|_| service.open_session())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open session: {e}"))?;
    let t5 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let times = SetupTimes {
        record_ms: ms(t0, t1),
        decode_us: ms(t2, t3) * 1e3,
        start_ms: ms(t3, t4),
        total_s: (t5 - t0).as_secs_f64(),
    };
    Ok(Built { service, sessions, bundle, times })
}

/// One template invocation the workload caused, replayed again on the
/// peeled rigs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invocation {
    /// A block read or write.
    Block {
        /// Write (`true`) or read.
        write: bool,
        /// First block.
        blkid: u32,
        /// Blocks.
        blkcnt: u32,
    },
    /// A single-frame capture.
    Capture {
        /// Resolution code.
        resolution: u32,
    },
}

/// Most invocations kept for the peeled rigs.
const INVOCATION_LOG: usize = 4096;

/// The virtual-time window: the first [`Kind::vt_window`] operations.
#[derive(Debug, Clone, Default)]
pub struct VtWindow {
    /// Operations the window holds when full.
    pub target: u64,
    /// Operations recorded so far.
    pub ops: u64,
    /// Virtual latency of each operation.
    pub lat_ns: Vec<u64>,
    /// Order-independent digest of every completion's stamps.
    pub digest: u64,
    /// Completions folded into the digest.
    pub completions: u64,
    /// Virtual time the window opened.
    pub start_ns: Option<u64>,
    /// Latest virtual time the window saw.
    pub end_ns: u64,
    /// Open-loop generator lateness summed over the window.
    pub late_ns: u64,
}

impl VtWindow {
    /// Whether the window holds all its operations.
    pub fn full(&self) -> bool {
        self.ops >= self.target
    }

    /// The window's figures: (ops per virtual second, mean, p50, p99
    /// latency in virtual microseconds).
    pub fn summary(&self) -> (f64, f64, f64, f64) {
        let mut lat: Vec<f64> = self.lat_ns.iter().map(|v| *v as f64 / 1e3).collect();
        let span_s = (self.end_ns - self.start_ns.unwrap_or(0)) as f64 / 1e9;
        let mean = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
        let p50 = crate::quantile(&mut lat, 0.5);
        let p99 = crate::quantile(&mut lat, 0.99);
        (self.ops as f64 / span_s, mean, p50, p99)
    }

    fn completion(&mut self, id: u64, submitted_ns: u64, completed_ns: u64) {
        if !self.full() {
            self.digest = self.digest.wrapping_add(stamp_hash(id, submitted_ns, completed_ns));
            self.completions += 1;
        }
    }

    fn op(&mut self, start_ns: u64, end_ns: u64, lat_ns: u64) {
        if !self.full() {
            self.start_ns.get_or_insert(start_ns);
            self.end_ns = self.end_ns.max(end_ns);
            self.lat_ns.push(lat_ns);
            self.ops += 1;
        }
    }
}

/// Per-run accounting shared by every workload.
pub struct Tally {
    /// Operations attempted (refused ones included).
    pub attempted: u64,
    /// Operations completed with a checked, correct result.
    pub ok: u64,
    /// Operations refused (`QueueFull`, `Throttled`) or failed.
    pub failed: u64,
    /// Completed operations whose result was wrong.
    pub mismatches: u64,
    /// The first failure or mismatch seen.
    pub first_error: Option<String>,
    /// Host latency from each submit call to its reaped completion (per
    /// block I/O for `sqlite_rw`, whose DB ops make one or two).
    pub host_lat_ns: Reservoir,
    /// The virtual-time window.
    pub vt: VtWindow,
    /// Template invocations, for the peeled rigs.
    pub invocations: Vec<Invocation>,
}

impl Tally {
    /// An empty tally for `kind`, host sample seeded from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Self::with_window(kind.vt_window(), seed)
    }

    /// An empty tally whose virtual-time window holds `window` operations.
    pub fn with_window(window: u64, seed: u64) -> Self {
        Tally {
            attempted: 0,
            ok: 0,
            failed: 0,
            mismatches: 0,
            first_error: None,
            host_lat_ns: Reservoir::new(100_000, seed),
            vt: VtWindow { target: window, ..VtWindow::default() },
            invocations: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_error.get_or_insert(what);
    }

    /// No operation has failed or returned a wrong result so far.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    /// Fold another workload instance's operation counts and first error
    /// into this tally (the traced run's twin and probe).
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        if self.first_error.is_none() {
            self.first_error = other.first_error.clone();
        }
    }

    fn log(&mut self, inv: Invocation) {
        if self.invocations.len() < INVOCATION_LOG {
            self.invocations.push(inv);
        }
    }
}

/// A workload, ready to run batches of operations.
pub trait Workload {
    /// Untimed warm-up: populate state the measured operations read.
    fn warmup(&mut self, tally: &mut Tally) -> Result<(), String>;
    /// Run one batch of operations; returns how many finished correctly.
    /// Each batch ends by draining the service's exec log, which otherwise
    /// keeps every executed request id for the life of the service.
    fn batch(&mut self, tally: &mut Tally) -> u64;
    /// The service under measurement.
    fn service(&self) -> &DriverletService;
    /// (page reads, page writes) of the database, for `sqlite_rw`.
    fn block_io(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Build the workload for `kind` over a set-up service.
pub fn workload(kind: Kind, built: Built, seed: u64) -> Box<dyn Workload> {
    let Built { service, sessions, .. } = built;
    match kind {
        Kind::SqliteRw => Box::new(SqliteRw::new(service, sessions[0], seed)),
        Kind::RingFanin | Kind::FaninThreaded => Box::new(Fanin::new(service, sessions, seed)),
        Kind::CamCapture => Box::new(Camera::new(service, sessions[0], seed)),
    }
}

// ---------------------------------------------------------------------------
// sqlite_rw
// ---------------------------------------------------------------------------

/// A block device over one session, making the same three public calls
/// per I/O as `dlt_serve::ServedBlockDev` (submit, drain, reap) so that
/// each can be timed on its own.
pub struct SessionDev {
    service: DriverletService,
    session: SessionId,
    /// The DB operation the next I/O serves (span op id).
    op: u64,
    stamps: Vec<(u64, u64, u64)>,
    /// Host ns of each I/O, submit call to reaped completion.
    lat_ns: Vec<u64>,
    ios: Vec<Invocation>,
}

impl SessionDev {
    fn roundtrip(&mut self, req: Request) -> Result<Payload, String> {
        let (service, session, op) = (&mut self.service, self.session, self.op);
        let start = Instant::now();
        let id = span(Layer::Serve, "submit", op, || service.submit(session, req))
            .map_err(|e| format!("submit refused: {e}"))?;
        span(Layer::Lane, "drain", op, || drop(service.drain_all()));
        let taken = span(Layer::Serve, "reap", op, || service.take_completions(session));
        self.lat_ns.push(start.elapsed().as_nanos() as u64);
        self.stamps.extend(taken.iter().map(|c| (c.id, c.submitted_ns, c.completed_ns)));
        let done = taken.into_iter().find(|c| c.id == id).ok_or("completion lost")?;
        done.result.map_err(|e| e.to_string())
    }
}

impl BlockDev for SessionDev {
    fn read_blocks(&mut self, blkid: u32, blkcnt: u32, buf: &mut [u8]) -> Result<(), String> {
        self.ios.push(Invocation::Block { write: false, blkid, blkcnt });
        match self.roundtrip(Request::Read { device: Device::Mmc, blkid, blkcnt })? {
            Payload::Read(bytes) if bytes.len() <= buf.len() => {
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(())
            }
            other => Err(format!("unexpected read payload {other:?}")),
        }
    }

    fn write_blocks(&mut self, blkid: u32, data: &[u8]) -> Result<(), String> {
        let blkcnt = (data.len() / dlt_serve::BLOCK) as u32;
        self.ios.push(Invocation::Block { write: true, blkid, blkcnt });
        match self.roundtrip(Request::Write { device: Device::Mmc, blkid, data: data.to_vec() })? {
            Payload::Written { blocks } if blocks == blkcnt => Ok(()),
            other => Err(format!("unexpected write payload {other:?}")),
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.service.now_ns()
    }
}

/// Closed-loop `MicroDb` client: seeded 50:50 get/put over [`DB_KEYS`]
/// keys, every get checked against a shadow map of the last value put.
pub struct SqliteRw {
    db: Option<MicroDb<SessionDev>>,
    dev: Option<SessionDev>,
    rng: Rng,
    shadow: Vec<[u8; VALUE_BYTES]>,
    next_op: u64,
}

/// Operations per `sqlite_rw` batch.
const DB_BATCH: u64 = 64;

impl SqliteRw {
    fn new(service: DriverletService, session: SessionId, seed: u64) -> Self {
        let dev = SessionDev {
            service,
            session,
            op: 0,
            stamps: Vec::new(),
            lat_ns: Vec::new(),
            ios: Vec::new(),
        };
        SqliteRw {
            db: None,
            dev: Some(dev),
            rng: Rng::new(seed, 1),
            shadow: vec![[0; VALUE_BYTES]; DB_KEYS as usize],
            next_op: 0,
        }
    }

    fn value(&mut self) -> [u8; VALUE_BYTES] {
        let mut v = [0u8; VALUE_BYTES];
        for chunk in v.chunks_mut(8) {
            chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        v
    }

    fn db(&mut self) -> &mut MicroDb<SessionDev> {
        self.db.as_mut().expect("warm-up formats the database")
    }
}

impl Workload for SqliteRw {
    fn warmup(&mut self, _tally: &mut Tally) -> Result<(), String> {
        let dev = self.dev.take().expect("warm-up runs once");
        let mut db = MicroDb::format(dev, 0, DB_BUCKETS).map_err(|e| format!("format: {e}"))?;
        for key in 0..DB_KEYS {
            let v = self.value();
            db.put(key, &v).map_err(|e| format!("populate: {e}"))?;
            self.shadow[key as usize] = v;
        }
        db.dev_mut().stamps.clear();
        db.dev_mut().lat_ns.clear();
        db.dev_mut().ios.clear();
        self.db = Some(db);
        Ok(())
    }

    fn batch(&mut self, tally: &mut Tally) -> u64 {
        let (first, ok0) = (self.next_op, tally.ok);
        span(Layer::Bench, "batch", first, || {
            for _ in 0..DB_BATCH {
                let op = self.next_op;
                self.next_op += 1;
                let key = self.rng.below(DB_KEYS);
                let put = if self.rng.below(2) == 0 { None } else { Some(self.value()) };
                let db = self.db.as_mut().expect("warm-up formats the database");
                db.dev_mut().op = op;
                let vt0 = db.dev().now_ns();
                let result = span(Layer::Workloads, "db_op", op, || match &put {
                    Some(v) => db.put(key, v).map(|_| None),
                    None => db.get(key),
                });
                let vt1 = db.dev().now_ns();
                tally.attempted += 1;
                let dev = db.dev_mut();
                for (id, s, c) in dev.stamps.drain(..) {
                    tally.vt.completion(id, s, c);
                }
                for inv in dev.ios.drain(..) {
                    tally.log(inv);
                }
                for ns in dev.lat_ns.drain(..) {
                    tally.host_lat_ns.push(ns);
                }
                match (result, put) {
                    (Err(e), _) => tally.fail(format!("db op {op} on key {key}: {e}")),
                    (Ok(_), Some(v)) => {
                        self.shadow[key as usize] = v;
                        tally.ok += 1;
                    }
                    (Ok(got), None) => {
                        if got.as_deref() == Some(&self.shadow[key as usize][..]) {
                            tally.ok += 1;
                        } else {
                            tally.mismatch(format!("get {key} returned {got:?}, not the last put"));
                        }
                    }
                }
                tally.vt.op(vt0, vt1, vt1 - vt0);
            }
        });
        drop(self.db().dev_mut().service.take_exec_log());
        tally.ok - ok0
    }

    fn service(&self) -> &DriverletService {
        &self.db.as_ref().expect("warm-up formats the database").dev().service
    }

    fn block_io(&self) -> Option<(u64, u64)> {
        self.db.as_ref().map(|db| db.io_counts())
    }
}

// ---------------------------------------------------------------------------
// ring_fanin / fanin_threaded
// ---------------------------------------------------------------------------

/// Open-loop fan-in: [`FANIN_TENANTS`] tenants, each a Poisson process in
/// virtual time, reading the whole hot extent through the rings with a
/// doorbell every [`DOORBELL_EVERY`] staged entries.
pub struct Fanin {
    service: DriverletService,
    sessions: Vec<SessionId>,
    rng: Rng,
    next_due: Vec<u64>,
    hot: Vec<u8>,
    submitted_at: Vec<Option<Instant>>,
    outstanding: Vec<u32>,
}

/// Submit-instant slots (indexed by request id); a batch never has more
/// than [`DOORBELL_EVERY`] requests in flight.
const SLOTS: usize = 4096;

impl Fanin {
    fn new(service: DriverletService, sessions: Vec<SessionId>, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 2);
        let hot = (0..HOT_BLOCKS as usize * dlt_serve::BLOCK / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        let next_due = (0..sessions.len()).map(|_| rng.exp(FANIN_MEAN_GAP_NS) as u64).collect();
        let outstanding = vec![0; sessions.len()];
        Fanin {
            service,
            sessions,
            rng,
            next_due,
            hot,
            submitted_at: vec![None; SLOTS],
            outstanding,
        }
    }

    fn check(&self, result: &Result<Payload, dlt_serve::ServeError>) -> Result<(), String> {
        match result {
            Ok(Payload::Read(bytes)) if *bytes == self.hot => Ok(()),
            Ok(Payload::Read(_)) => Err("hot-extent read returned the wrong bytes".into()),
            Ok(other) => Err(format!("unexpected payload {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Workload for Fanin {
    fn warmup(&mut self, _tally: &mut Tally) -> Result<(), String> {
        let s = self.sessions[0];
        let req = Request::Write { device: Device::Mmc, blkid: HOT_BLKID, data: self.hot.clone() };
        let id = self.service.submit(s, req).map_err(|e| format!("pre-write: {e}"))?;
        self.service.ring_doorbell().map_err(|e| format!("pre-write doorbell: {e}"))?;
        self.service.drain_all();
        let done = self.service.take_completions(s);
        match done.iter().find(|c| c.id == id).map(|c| &c.result) {
            Some(Ok(Payload::Written { .. })) => Ok(()),
            other => Err(format!("pre-write failed: {other:?}")),
        }
    }

    fn batch(&mut self, tally: &mut Tally) -> u64 {
        let first_due = self.next_due.iter().copied().min().unwrap_or(0);
        let done = span(Layer::Bench, "batch", first_due, || {
            let mut done = 0;
            for _ in 0..DOORBELL_EVERY {
                let (tenant, due) = self
                    .next_due
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|(_, d)| *d)
                    .expect("tenants exist");
                self.next_due[tenant] = due + self.rng.exp(FANIN_MEAN_GAP_NS) as u64;
                let service = &mut self.service;
                let ctl = service.control_now_ns();
                if due > ctl {
                    span(Layer::Serve, "think", due, || service.client_think_ns(due - ctl));
                } else if !tally.vt.full() {
                    tally.vt.late_ns += ctl - due;
                }
                let session = self.sessions[tenant];
                let req =
                    Request::Read { device: Device::Mmc, blkid: HOT_BLKID, blkcnt: HOT_BLOCKS };
                let at = Instant::now();
                tally.attempted += 1;
                match span(Layer::Serve, "submit", due, || service.submit(session, req)) {
                    Ok(id) => {
                        self.submitted_at[id as usize % SLOTS] = Some(at);
                        self.outstanding[tenant] += 1;
                    }
                    Err(e) => tally.fail(format!("submit refused: {e}")),
                }
            }
            let service = &mut self.service;
            if let Err(e) = span(Layer::Serve, "doorbell", first_due, || service.ring_doorbell()) {
                tally.fail(format!("doorbell: {e}"));
            }
            span(Layer::Lane, "drain", first_due, || drop(service.drain_all()));
            for tenant in 0..self.sessions.len() {
                if self.outstanding[tenant] == 0 {
                    continue;
                }
                let session = self.sessions[tenant];
                let service = &mut self.service;
                let taken =
                    span(Layer::Serve, "reap", first_due, || service.take_completions(session));
                let now = Instant::now();
                for c in taken {
                    self.outstanding[tenant] = self.outstanding[tenant].saturating_sub(1);
                    tally.vt.completion(c.id, c.submitted_ns, c.completed_ns);
                    match self.check(&c.result) {
                        Ok(()) => {
                            tally.ok += 1;
                            done += 1;
                            if let Some(at) = self.submitted_at[c.id as usize % SLOTS].take() {
                                tally.host_lat_ns.push((now - at).as_nanos() as u64);
                            }
                            tally.vt.op(c.submitted_ns, c.completed_ns, c.latency_ns());
                        }
                        Err(e) if c.result.is_err() => tally.fail(format!("request {}: {e}", c.id)),
                        Err(e) => tally.mismatch(format!("request {}: {e}", c.id)),
                    }
                }
            }
            let lost: u32 = self.outstanding.iter().sum();
            for _ in 0..lost {
                tally.fail(format!("{lost} requests had no completion after drain"));
            }
            self.outstanding.iter_mut().for_each(|o| *o = 0);
            done
        });
        drop(self.service.take_exec_log());
        done
    }

    fn service(&self) -> &DriverletService {
        &self.service
    }
}

// ---------------------------------------------------------------------------
// cam_capture
// ---------------------------------------------------------------------------

/// Closed-loop camera tenant: single-frame captures at seeded resolutions,
/// each checked for its resolution's frame length and JPEG framing.
pub struct Camera {
    service: DriverletService,
    session: SessionId,
    rng: Rng,
    next_op: u64,
}

impl Camera {
    fn new(service: DriverletService, session: SessionId, seed: u64) -> Self {
        Camera { service, session, rng: Rng::new(seed, 3), next_op: 0 }
    }
}

impl Workload for Camera {
    fn warmup(&mut self, _tally: &mut Tally) -> Result<(), String> {
        Ok(())
    }

    fn batch(&mut self, tally: &mut Tally) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        let resolution = RESOLUTIONS[self.rng.below(RESOLUTIONS.len() as u64) as usize];
        let done = span(Layer::Bench, "batch", op, || {
            let (service, session) = (&mut self.service, self.session);
            tally.attempted += 1;
            tally.log(Invocation::Capture { resolution });
            let h0 = Instant::now();
            let req = Request::Capture { frames: 1, resolution };
            let id = match span(Layer::Serve, "submit", op, || service.submit(session, req)) {
                Ok(id) => id,
                Err(e) => {
                    tally.fail(format!("capture {op} refused: {e}"));
                    return 0;
                }
            };
            span(Layer::Lane, "drain", op, || drop(service.drain_all()));
            let taken = span(Layer::Serve, "reap", op, || service.take_completions(session));
            let host_ns = h0.elapsed().as_nanos() as u64;
            let Some(c) = taken.into_iter().find(|c| c.id == id) else {
                tally.fail(format!("capture {op}: completion lost"));
                return 0;
            };
            tally.vt.completion(c.id, c.submitted_ns, c.completed_ns);
            let expected =
                CameraResolution::from_code(resolution).map(|r| r.frame_bytes() as usize);
            match &c.result {
                Ok(Payload::Image { data })
                    if Some(data.len()) == expected && is_valid_jpeg(data) =>
                {
                    tally.ok += 1;
                    tally.host_lat_ns.push(host_ns);
                    tally.vt.op(c.submitted_ns, c.completed_ns, c.latency_ns());
                    1
                }
                Ok(other) => {
                    let len = match other {
                        Payload::Image { data } => data.len(),
                        _ => 0,
                    };
                    tally.mismatch(format!(
                        "capture {op} at {resolution}: {len} bytes, expected {expected:?}"
                    ));
                    0
                }
                Err(e) => {
                    tally.fail(format!("capture {op}: {e}"));
                    0
                }
            }
        });
        drop(self.service.take_exec_log());
        done
    }

    fn service(&self) -> &DriverletService {
        &self.service
    }
}
