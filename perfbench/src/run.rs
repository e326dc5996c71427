//! Measurement loops and metric assembly.
//!
//! * [`end_to_end`] (`--trace 0`): set up, warm up, then run the workload
//!   untraced for the host-time budget — and at least until the
//!   virtual-time window is full — setting up again (median set-up time)
//!   and timing the calibration loop between intervals, and report every
//!   end-to-end metric, host-time ones scaled to the nominal host.
//! * [`traced`] (`--trace 1`): interleave untraced and traced stretches of
//!   the same workload (their throughput ratio is the tracing overhead),
//!   an in-situ probe of the same workload whose flight recorder stamps
//!   every replay, then the peeled rigs on the workload's own
//!   invocations, and split the traced op time into per-layer self times.
//!
//! Every loop stops at the first failed or wrong operation, so a broken
//! program ends the run with exit code 1 instead of spinning.

use std::path::Path;
use std::time::{Duration, Instant};

use dlt_obs::trace::{EventKind, TraceEvent};
use dlt_serve::{DriverletService, ObsConfig, ServeConfig};

use crate::calib::{self, Calibration};
use crate::rigs::{Native, Peeled, RigAcc, TeeProbe};
use crate::trace::{self, Layer, Ledger};
use crate::work::{
    setup, workload, Built, Invocation, Kind, SetupTimes, Tally, Workload, HOT_BLKID, HOT_BLOCKS,
};
use crate::{median, peak_rss_mb, Reservoir};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Host-time measurement budget.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut kind = None;
        let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(value).ok_or_else(|| {
                        let names: Vec<_> = crate::work::KINDS.iter().map(|k| k.name()).collect();
                        format!("unknown workload {value:?} (known: {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let kind = kind.ok_or("--workload is required")?;
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], not {seconds}"));
        }
        Ok(Args { kind, seed, seconds, trace })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, where it is a distribution statistic.
    pub samples: Option<u64>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, samples: None }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched its ground truth.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Metrics the JSON result carries (the `BENCHMARK.json` lists).
    pub metrics: Vec<Metric>,
    /// Metrics printed for people only: `vt_lat_p50_us` and `vt_lat_p99_us`
    /// are exact per-class values on the closed-loop workloads (flat
    /// across seeds, or jumping between classes), and `failed_frac` is the
    /// result's own `failed / attempted`.
    pub printed: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The longest a run may keep going to fill its virtual-time window.
const HARD_LIMIT: Duration = Duration::from_secs(150);

/// The end-to-end run sets up again after every this many intervals, so
/// that the set-up time is a median over the whole run, like the other
/// host figures, and not a snapshot of the host's speed in its first
/// tenth of a second. The camera's set-up takes about 0.1 s, the MMC's
/// about 1.5 ms.
fn setup_every(kind: Kind) -> usize {
    match kind.device() {
        dlt_serve::Device::Vchiq => 2,
        _ => 1,
    }
}

/// Set-ups the traced run makes up front for its set-up layer metrics.
fn setup_count(kind: Kind) -> usize {
    match kind.device() {
        dlt_serve::Device::Vchiq => 9,
        _ => 41,
    }
}

fn setups(kind: Kind) -> Result<(Built, Vec<SetupTimes>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setup_count(kind) {
        // Drop the previous service first: its lane threads must not
        // compete with the next set-up.
        drop(last.take());
        let built = setup(kind, kind.config())?;
        times.push(built.times);
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), times))
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

fn config_note(kind: Kind, service: &DriverletService) -> String {
    format!(
        "config {}: {:?} (effective obs: {:?})",
        kind.name(),
        kind.config(),
        service.obs_config()
    )
}

/// Run batches until `budget` has passed or an operation fails; returns
/// (operations, elapsed).
fn drive(w: &mut dyn Workload, tally: &mut Tally, budget: Duration) -> (u64, Duration) {
    let start = Instant::now();
    let mut ops = 0;
    while start.elapsed() < budget && tally.clean() {
        ops += w.batch(tally);
    }
    (ops, start.elapsed())
}

/// Host-time interval the end-to-end run takes medians over: a stretch
/// of interference from other processes moves a few intervals, not the
/// reported medians.
const INTERVAL: Duration = Duration::from_millis(500);
/// Fewest operations in one interval (slow workloads stretch theirs).
const INTERVAL_MIN_OPS: u64 = 48;

/// Per-interval host figures of the measured phase.
#[derive(Debug, Default)]
pub struct Intervals {
    /// Throughput of each interval (1/s).
    pub tput: Vec<f64>,
    /// Median host latency of each interval (us).
    pub p50: Vec<f64>,
    /// 90th-percentile host latency of each interval (us).
    pub p90: Vec<f64>,
    /// Operations completed over all intervals.
    pub ops: u64,
    /// Host time of the measured phase.
    pub wall: Duration,
}

/// Run `w` untraced in [`INTERVAL`]s until `budget` has passed and the
/// virtual-time window is full, calling `between` with each finished
/// interval's index. Stops early at the first failed or wrong operation
/// (the caller reports the run incorrect); errs if `between` does, or if
/// the window is still not full after [`HARD_LIMIT`].
pub fn measure(
    w: &mut dyn Workload,
    tally: &mut Tally,
    budget: Duration,
    seed: u64,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<Intervals, String> {
    let mut iv = Intervals::default();
    let start = Instant::now();
    while (start.elapsed() < budget || !tally.vt.full()) && tally.clean() {
        tally.host_lat_ns = Reservoir::new(20_000, seed ^ iv.tput.len() as u64);
        let ok0 = tally.ok;
        let t0 = Instant::now();
        while (t0.elapsed() < INTERVAL || tally.ok - ok0 < INTERVAL_MIN_OPS) && tally.clean() {
            if start.elapsed() >= HARD_LIMIT {
                return Err(format!("virtual-time window not full after {HARD_LIMIT:?}"));
            }
            w.batch(tally);
        }
        iv.ops += tally.ok - ok0;
        iv.tput.push((tally.ok - ok0) as f64 / t0.elapsed().as_secs_f64());
        iv.p50.push(tally.host_lat_ns.quantile(0.5) / 1e3);
        iv.p90.push(tally.host_lat_ns.quantile(0.9) / 1e3);
        between(iv.tput.len())?;
    }
    iv.wall = start.elapsed();
    Ok(iv)
}

/// The end-to-end run.
pub fn end_to_end(args: Args) -> Result<Outcome, String> {
    let kind = args.kind;
    let built = setup(kind, kind.config())?;
    let mut times = vec![built.times];
    let mut notes = vec![config_note(kind, &built.service)];
    let mut w = workload(kind, built, args.seed);
    let mut tally = Tally::new(kind, args.seed);
    w.warmup(&mut tally)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut calib = Calibration::default();
    let iv = measure(w.as_mut(), &mut tally, budget, args.seed, &mut |i| {
        if i % setup_every(kind) == 0 {
            times.push(setup(kind, kind.config())?.times);
        }
        calib.sample();
        Ok(())
    })?;

    // Host figures, raw and scaled to the nominal host (see `calib`).
    let slow = if kind.calibrated() { calib.slowness() } else { 1.0 };
    let (tput, p50, p90) = (median(&iv.tput), median(&iv.p50), median(&iv.p90));
    let setup_s = median_of(&times, |t| t.total_s);
    let vt = &tally.vt;
    let (vt_tput, vt_mean, vt_p50, vt_p99) = vt.summary();
    let with = |mut m: Metric, n: u64| {
        m.samples = Some(n);
        m
    };
    let metrics = vec![
        with(metric("throughput_ops_s", tput * slow, "1/s"), iv.ops),
        with(metric("lat_p50_us", p50 / slow, "us"), iv.ops),
        with(metric("lat_p90_us", p90 / slow, "us"), iv.ops),
        with(metric("vt_throughput_ops_s", vt_tput, "1/s"), vt.ops),
        with(metric("vt_lat_mean_us", vt_mean, "us"), vt.ops),
        with(metric("setup_s", setup_s / slow, "s"), times.len() as u64),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let printed = vec![
        with(metric("vt_lat_p50_us", vt_p50, "us"), vt.ops),
        with(metric("vt_lat_p99_us", vt_p99, "us"), vt.ops),
        with(
            metric("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio"),
            tally.attempted,
        ),
    ];
    notes.push(format!(
        "host: {} ops in {:.3} s over {} intervals; throughput and latency are medians of \
         per-interval values (interval throughput {:.1}..{:.1} 1/s)",
        iv.ops,
        iv.wall.as_secs_f64(),
        iv.tput.len(),
        iv.tput.iter().copied().fold(f64::INFINITY, f64::min),
        iv.tput.iter().copied().fold(0.0, f64::max),
    ));
    notes.push(format!(
        "virtual: window {} ops, {} completions, makespan {:.6} s, generator late {:.3} us/op, \
         digest {:016x}",
        vt.ops,
        vt.completions,
        vt.ops as f64 / vt_tput,
        vt.late_ns as f64 / 1e3 / vt.ops.max(1) as f64,
        vt.digest
    ));
    notes.push(format!(
        "calibration: host slowness {:.4} (median of {} loop samples over the nominal {:.0} \
         ns), {}; raw host figures: throughput {tput:.1} 1/s, p50 {p50:.4} us, p90 {p90:.4} \
         us, setup {setup_s:.6} s",
        calib.slowness(),
        calib.count(),
        calib::NOMINAL_NS,
        if kind.calibrated() { "applied" } else { "not applied to this workload" }
    ));
    finish(tally, metrics, printed, notes)
}

/// The virtual-time window of one seed, run on its own: the first
/// `window` operations after warm-up (the end-to-end run reports the same
/// window with `window` = [`Kind::vt_window`]). Errs at the first failed
/// or wrong operation.
pub fn vt_run(kind: Kind, seed: u64, window: u64) -> Result<crate::work::VtWindow, String> {
    let built = setup(kind, kind.config())?;
    let mut w = workload(kind, built, seed);
    let mut tally = Tally::with_window(window, seed);
    w.warmup(&mut tally)?;
    while !tally.vt.full() && tally.clean() {
        w.batch(&mut tally);
    }
    match tally.clean() {
        true => Ok(tally.vt),
        false => Err(tally.first_error.unwrap_or_default()),
    }
}

/// The outcome of a run: correct only if no operation failed, was refused
/// or returned a wrong result.
fn finish(
    tally: Tally,
    metrics: Vec<Metric>,
    printed: Vec<Metric>,
    mut notes: Vec<String>,
) -> Result<Outcome, String> {
    if let Some(e) = &tally.first_error {
        notes.push(format!("first error: {e}"));
    }
    notes.push(format!(
        "correctness: {} ok, {} failed, {} mismatched of {} attempted",
        tally.ok, tally.failed, tally.mismatches, tally.attempted
    ));
    Ok(Outcome {
        correct: tally.clean(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        printed,
        notes,
    })
}

/// One instance of the workload the traced run drives, with what its
/// stretches measured.
struct Arm {
    w: Box<dyn Workload>,
    tally: Tally,
    ledger: Ledger,
    /// Operations and host time of the traced stretches.
    ops: u64,
    wall: Duration,
    replays: u64,
    smc: u64,
    /// Host ns between the flight recorder's `ReplayStart` and `ReplayEnd`
    /// stamps, and the replays they bracket (the in-situ probe only).
    stamped_ns: u64,
    stamped: u64,
}

impl Arm {
    fn new(kind: Kind, built: Built, seed: u64) -> Result<Arm, String> {
        let mut w = workload(kind, built, seed);
        let mut tally = Tally::new(kind, seed);
        w.warmup(&mut tally)?;
        Ok(Arm {
            w,
            tally,
            ledger: Ledger::default(),
            ops: 0,
            wall: Duration::ZERO,
            replays: 0,
            smc: 0,
            stamped_ns: 0,
            stamped: 0,
        })
    }

    /// An untraced stretch; returns (operations, host time).
    fn plain(&mut self, len: Duration) -> (u64, Duration) {
        drive(self.w.as_mut(), &mut self.tally, len)
    }

    /// A traced stretch: spans around every public call.
    fn traced(&mut self, len: Duration) {
        let s0 = self.w.service().stats();
        let smc0 = self.w.service().smc_calls();
        trace::reset(trace::DEFAULT_RETAIN.saturating_sub(self.ledger.spans.len()));
        trace::set_enabled(true);
        let (ops, wall) = drive(self.w.as_mut(), &mut self.tally, len);
        trace::set_enabled(false);
        self.ledger.merge(trace::take(), trace::DEFAULT_RETAIN);
        self.ops += ops;
        self.wall += wall;
        self.replays += self.w.service().stats().replays - s0.replays;
        self.smc += self.w.service().smc_calls() - smc0;
    }

    /// A stretch of the in-situ probe: after every batch, time the
    /// replays from the flight recorder's stamps.
    fn stamped(&mut self, len: Duration) {
        let start = Instant::now();
        while start.elapsed() < len && self.tally.clean() {
            self.w.batch(&mut self.tally);
            let (ns, n) = replay_host_ns(&self.w.service().trace_events());
            self.stamped_ns += ns;
            self.stamped += n;
        }
    }
}

/// Host ns between each `ReplayStart` and the next `ReplayEnd` on the
/// same track (a lane replays one template at a time), and the replays
/// bracketed.
fn replay_host_ns(events: &[TraceEvent]) -> (u64, u64) {
    let mut open: Vec<(u16, u64)> = Vec::new();
    let (mut ns, mut n) = (0, 0);
    for e in events {
        match e.kind {
            EventKind::ReplayStart => {
                open.retain(|(track, _)| *track != e.track);
                open.push((e.track, e.host_ns));
            }
            EventKind::ReplayEnd => {
                if let Some(i) = open.iter().position(|(track, _)| *track == e.track) {
                    ns += e.host_ns - open.swap_remove(i).1;
                    n += 1;
                }
            }
            _ => {}
        }
    }
    (ns, n)
}

fn traced_rig<R>(f: impl FnOnce() -> Result<R, String>, spans: &mut Ledger) -> Result<R, String> {
    trace::reset(trace::DEFAULT_RETAIN.saturating_sub(spans.spans.len()));
    trace::set_enabled(true);
    let r = f();
    trace::set_enabled(false);
    spans.merge(trace::take(), trace::DEFAULT_RETAIN);
    r
}

/// Stretch length of the interleaved traced/untraced measurement.
const STRETCH: Duration = Duration::from_millis(250);

/// The traced run: per-layer metrics.
pub fn traced(args: Args) -> Result<Outcome, String> {
    let kind = args.kind;
    let total = Duration::from_secs_f64(args.seconds);
    let (built, times) = setups(kind)?;
    let mut notes = vec![config_note(kind, &built.service)];
    let bundle = built.bundle.clone();
    let mut main = Arm::new(kind, built, args.seed)?;
    let io0 = main.w.block_io();
    // The handoff twin: the fan-in schedule with the lane on its own
    // thread, so the drain-time difference is the lane-thread handoff.
    let mut twin = match kind {
        Kind::RingFanin => {
            let k = Kind::FaninThreaded;
            Some(Arm::new(k, setup(k, k.config())?, args.seed)?)
        }
        _ => None,
    };
    // The in-situ probe: the same workload with the flight recorder on,
    // whose host stamps time the replays inside the lane.
    let probe_config = ServeConfig { obs: ObsConfig::Full, ..kind.config() };
    let mut probe = Arm::new(kind, setup(kind, probe_config)?, args.seed)?;
    drop(probe.w.service().trace_events());
    let dropped0 = probe.w.service().recorder().dropped_events();

    let (mut plain_ops, mut plain_wall) = (0u64, Duration::ZERO);
    let camera = kind == Kind::CamCapture;
    let mut peeled = Peeled::new(camera, &bundle)?;
    let mut native = Native::new(camera)?;
    let mut tee = TeeProbe::new()?;
    let (mut peel, mut floor, mut rig_spans) =
        (RigAcc::default(), RigAcc::default(), Ledger::default());
    let clean = |main: &Arm, twin: &Option<Arm>, probe: &Arm| {
        main.tally.clean() && probe.tally.clean() && twin.as_ref().is_none_or(|t| t.tally.clean())
    };
    // Rounds of: untraced stretch, traced stretch (and the handoff
    // twin's), the in-situ probe, then the peeled rigs on the invocations
    // logged so far — interleaved, so drift in host speed taxes every arm
    // alike.
    let budget = total.mul_f64(0.9);
    let start = Instant::now();
    while (start.elapsed() < budget || main.ops == 0) && clean(&main, &twin, &probe) {
        let (ops, wall) = main.plain(STRETCH);
        plain_ops += ops;
        plain_wall += wall;
        main.traced(STRETCH);
        if let Some(t) = twin.as_mut() {
            t.traced(STRETCH);
        }
        probe.stamped(STRETCH);
        let invocations = if main.tally.invocations.is_empty() {
            // Fan-in replays are merged reads of the whole hot extent.
            vec![Invocation::Block { write: false, blkid: HOT_BLKID, blkcnt: HOT_BLOCKS }]
        } else {
            main.tally.invocations.clone()
        };
        let rig = STRETCH / 2;
        traced_rig(|| peeled.run(&invocations, rig, &mut peel), &mut rig_spans)?;
        traced_rig(|| native.run(&invocations, rig, &mut floor), &mut rig_spans)?;
        tee.run()?;
    }
    let io1 = main.w.block_io();
    let tee_ns_per_mmio = tee.ns_per_mmio();
    let dropped = probe.w.service().recorder().dropped_events() - dropped0;

    let service = main.w.service();
    let stats = service.stats();
    let lane = service.lane_status().into_iter().next().ok_or("the service has no lane")?;

    // The ledger: traced op time split into per-layer self times. The
    // peeled rigs give `core`, `tee` and `hw`; the lane's self time is
    // the drain minus the replays timed in situ, so the ledger adds up to
    // the op time only as far as the two measurements of a replay agree.
    let n = main.ops.max(1) as f64;
    let op_ns = main.wall.as_nanos() as f64 / n;
    let per_op = |ns: u64| ns as f64 / n;
    let replays_per_op = main.replays as f64 / n;
    let replay_ns = peel.ns_per_call();
    let insitu_ns = probe.stamped_ns as f64 / probe.stamped.max(1) as f64;
    let hw_per_replay = floor.ns_per_call().min(replay_ns);
    let tee_per_replay =
        (tee_ns_per_mmio * peel.per_call(peel.mmio)).min(replay_ns - hw_per_replay);
    let core_per_replay = replay_ns - hw_per_replay - tee_per_replay;
    let drain_per_op = per_op(main.ledger.name("drain"));
    let handoff = match &twin {
        Some(t) => t.ledger.name("drain") as f64 / t.ops.max(1) as f64 - drain_per_op,
        None => 0.0,
    };
    let lane_self = drain_per_op - replays_per_op * insitu_ns;
    let hw = replays_per_op * hw_per_replay;
    let tee = replays_per_op * tee_per_replay;
    let core = replays_per_op * core_per_replay;
    let serve = per_op(main.ledger.self_of(Layer::Serve));
    let wl = per_op(main.ledger.self_of(Layer::Workloads));
    let bench = per_op(main.ledger.self_of(Layer::Bench));
    let ledger_sum = bench + wl + serve + lane_self + core + tee + hw;
    let plain_tput = plain_ops as f64 / plain_wall.as_secs_f64().max(1e-9);
    let traced_tput = main.ops as f64 / main.wall.as_secs_f64().max(1e-9);
    let calls = |name: &str| main.ledger.name(name);
    let total_db_ops = (plain_ops + main.ops) as f64;
    let block_io_per_op = match (io0, io1) {
        (Some((r0, w0)), Some((r1, w1))) => ((r1 - r0) + (w1 - w0)) as f64 / total_db_ops.max(1.0),
        _ => 0.0,
    };
    let metrics = vec![
        metric("hw.native_op_ns", floor.ns_per_call(), "ns"),
        metric("hw.mmio_per_op", peel.per_call(peel.mmio) * replays_per_op, "count"),
        metric(
            "hw.clock_advances_per_op",
            peel.per_call(peel.clock_advances) * replays_per_op,
            "count",
        ),
        metric("hw.payload_bytes_per_op", peel.per_call(peel.payload_bytes) * replays_per_op, "B"),
        metric("hw.self_ns_per_op", hw, "ns"),
        metric(
            "tee.world_switches_per_op",
            peel.per_call(peel.world_switches) * replays_per_op,
            "count",
        ),
        metric("tee.smc_per_op", main.smc as f64 / n, "count"),
        metric("tee.self_ns_per_op", tee, "ns"),
        metric("core.replay_ns", replay_ns, "ns"),
        metric("core.insitu_replay_ns", insitu_ns, "ns"),
        metric("core.ns_per_event", replay_ns / peel.per_call(peel.events).max(1e-9), "ns"),
        metric("core.events_per_op", peel.per_call(peel.events) * replays_per_op, "count"),
        metric("core.irq_waits_per_op", peel.per_call(peel.irq_waits) * replays_per_op, "count"),
        metric("core.divergences", peel.divergences as f64, "count"),
        metric("core.overhead_over_native", replay_ns / floor.ns_per_call().max(1e-9), "ratio"),
        metric("core.self_ns_per_op", core, "ns"),
        metric("serve.submit_ns", per_op(calls("submit")), "ns"),
        metric("serve.doorbell_ns", per_op(calls("doorbell")), "ns"),
        metric("serve.reap_ns", per_op(calls("reap")), "ns"),
        metric("serve.doorbell_batch", stats.mean_doorbell_batch(), "count"),
        metric("serve.refused", (stats.rejected + stats.throttled) as f64, "count"),
        metric("serve.self_ns_per_op", serve, "ns"),
        metric("lane.drain_ns_per_op", drain_per_op, "ns"),
        metric("lane.self_ns_per_op", lane_self, "ns"),
        metric("lane.coalescing_ratio", stats.coalescing_ratio(), "ratio"),
        metric("lane.holds", stats.holds as f64 / stats.completed.max(1) as f64, "count/op"),
        metric(
            "lane.early_unplugs",
            stats.early_unplugs as f64 / stats.completed.max(1) as f64,
            "count/op",
        ),
        metric("lane.utilization", lane.utilization(), "ratio"),
        metric("lane.queue_high_water", lane.high_water as f64, "count"),
        metric("handoff.drain_ns_per_op", handoff, "ns"),
        metric("workloads.microdb_self_ns", wl, "ns"),
        metric("workloads.block_io_per_op", block_io_per_op, "count"),
        metric("recorder.record_ms", median_of(&times, |t| t.record_ms), "ms"),
        metric("template.decode_us", median_of(&times, |t| t.decode_us), "us"),
        metric("serve.start_ms", median_of(&times, |t| t.start_ms), "ms"),
        metric("bench.op_ns", op_ns, "ns"),
        metric("bench.self_ns_per_op", bench, "ns"),
        metric("bench.ledger_coverage", ledger_sum / op_ns, "ratio"),
        metric("bench.core_hw_share", (core + hw) / op_ns, "ratio"),
        metric("bench.trace_overhead", traced_tput / plain_tput.max(1e-9), "ratio"),
    ];
    notes.push(format!(
        "traced: {} ops in {:.3} s traced, {} ops in {:.3} s untraced; {:.3} replays/op; \
         peeled {} calls, native {} calls; tee probe {:.2} ns/mmio",
        main.ops,
        main.wall.as_secs_f64(),
        plain_ops,
        plain_wall.as_secs_f64(),
        replays_per_op,
        peel.calls,
        floor.calls,
        tee_ns_per_mmio
    ));
    notes.push(format!(
        "replay host ns: peeled rig {replay_ns:.0}, in situ {insitu_ns:.0} over {} stamped \
         replays (peeled / in situ {:.3}; {dropped} recorder events dropped); probe obs {:?}",
        probe.stamped,
        replay_ns / insitu_ns.max(1e-9),
        probe.w.service().obs_config()
    ));
    notes.push(format!(
        "ledger ns/op: bench {bench:.0} workloads {wl:.0} serve {serve:.0} lane {lane_self:.0} \
         core {core:.0} tee {tee:.0} hw {hw:.0} = {ledger_sum:.0} of {op_ns:.0}"
    ));
    let mut spans = std::mem::take(&mut main.ledger);
    if let Some(t) = twin.as_mut() {
        spans.merge(std::mem::take(&mut t.ledger), trace::DEFAULT_RETAIN);
        main.tally.absorb(&t.tally);
    }
    main.tally.absorb(&probe.tally);
    spans.merge(rig_spans, trace::DEFAULT_RETAIN);
    let path = Path::new(".perfbench-out").join(format!("spans-{}.csv", kind.name()));
    trace::write_csv(&path, &spans.spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!(
        "spans: {} written to {}, {} more counted but not kept",
        spans.spans.len(),
        path.display(),
        spans.unretained
    ));
    finish(main.tally, metrics, Vec::new(), notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A submission ring shallower than a doorbell batch refuses submits:
    /// the run stops at the first refusal and is reported incorrect,
    /// although every completed read returned the right bytes.
    #[test]
    fn a_refused_submit_stops_the_run_and_makes_it_incorrect() {
        let kind = Kind::RingFanin;
        let config = ServeConfig { sq_depth: 4, ..kind.config() };
        let mut w = workload(kind, setup(kind, config).expect("set-up"), 1);
        let mut tally = Tally::new(kind, 1);
        w.warmup(&mut tally).expect("warm-up");
        let start = Instant::now();
        measure(w.as_mut(), &mut tally, Duration::from_secs(60), 1, &mut |_| Ok(()))
            .expect("measure");
        assert!(start.elapsed() < Duration::from_secs(10), "the run must stop at the refusal");
        assert!(tally.failed > 0 && tally.mismatches == 0);
        let outcome = finish(tally, Vec::new(), Vec::new(), Vec::new()).expect("outcome");
        assert!(!outcome.correct);
        assert!(outcome.failed > 0);
    }

    #[test]
    fn the_handoff_twin_is_not_a_command_line_workload() {
        assert_eq!(Kind::parse("ring_fanin"), Some(Kind::RingFanin));
        assert_eq!(Kind::parse("fanin_threaded"), None);
    }
}
