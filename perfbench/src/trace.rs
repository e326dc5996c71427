//! In-memory span tracer for the traced run.
//!
//! Every public call the benchmark makes into the stack can be wrapped in
//! [`span`]. While tracing is off the wrapper is one relaxed atomic load
//! and a direct call; while it is on, the span (name, layer, start, end,
//! parent, op id) is kept in memory and its **self time** — its duration
//! minus the part of it that child spans cover — is charged to its layer
//! as the span closes. [`take`] hands back the ledger and the retained
//! spans; [`write_csv`] writes the spans out when the run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The layers the ledger splits host time across (module names of the
/// repository, plus `bench` for the benchmark's own client loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's client loop: generator, correctness checks, spans.
    Bench,
    /// `dlt-workloads`: `MicroDb` above the block-device calls.
    Workloads,
    /// `dlt-serve` front end: submit, doorbell, reap, admission.
    Serve,
    /// `dlt-serve` scheduler, coalescer and lane worker (the drain call).
    Lane,
    /// `dlt-core`: the replayer.
    Core,
    /// `dlt-tee`: `SecureIo` and the TEE kernel.
    Tee,
    /// `dlt-hw` and the device models.
    Hw,
}

/// Every layer, in ledger order.
pub const LAYERS: [Layer; 7] =
    [Layer::Bench, Layer::Workloads, Layer::Serve, Layer::Lane, Layer::Core, Layer::Tee, Layer::Hw];

impl Layer {
    /// Lower-case layer name, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Workloads => "workloads",
            Layer::Serve => "serve",
            Layer::Lane => "lane",
            Layer::Core => "core",
            Layer::Tee => "tee",
            Layer::Hw => "hw",
        }
    }

    fn index(self) -> usize {
        LAYERS.iter().position(|l| *l == self).expect("every layer is listed")
    }
}

/// One recorded span. `parent` is the index of the enclosing span in the
/// retained list (`u32::MAX` for a root or an unretained parent).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call name (`submit`, `drain`, `replay`, ...).
    pub name: &'static str,
    /// Layer the call belongs to.
    pub layer: Layer,
    /// Host nanoseconds since the tracer was reset.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was reset.
    pub end_ns: u64,
    /// Index of the parent span, or `u32::MAX`.
    pub parent: u32,
    /// Operation id the span serves (request id, DB op number, ...).
    pub op: u64,
}

/// What a traced stretch produced.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Self time per layer, indexed like [`LAYERS`].
    pub self_ns: [u64; 7],
    /// Summed span duration per span name.
    pub names: Vec<(&'static str, u64)>,
    /// Retained spans, in opening order.
    pub spans: Vec<Span>,
    /// Spans closed beyond the retention cap (still counted in the ledger).
    pub unretained: u64,
}

impl Ledger {
    /// Self time charged to `layer`.
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer.index()]
    }

    /// Summed duration of the spans called `name`.
    pub fn name(&self, name: &str) -> u64 {
        self.names.iter().find(|(n, _)| *n == name).map_or(0, |(_, t)| *t)
    }

    /// Fold `other` (a later stretch) into this ledger, keeping at most
    /// `retain` spans; `other`'s span indices are rebased.
    pub fn merge(&mut self, other: Ledger, retain: usize) {
        for (mine, theirs) in self.self_ns.iter_mut().zip(other.self_ns) {
            *mine += theirs;
        }
        for (name, t) in other.names {
            match self.names.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => *mine += t,
                None => self.names.push((name, t)),
            }
        }
        let base = self.spans.len() as u32;
        let room = retain.saturating_sub(self.spans.len());
        let kept = other.spans.len().min(room);
        self.spans.extend(other.spans[..kept].iter().map(|s| Span {
            parent: if s.parent == u32::MAX { u32::MAX } else { s.parent + base },
            ..*s
        }));
        self.unretained += other.unretained + (other.spans.len() - kept) as u64;
    }
}

struct Frame {
    start_ns: u64,
    child_ns: u64,
    retained: u32,
}

struct Tracer {
    epoch: Instant,
    stack: Vec<Frame>,
    ledger: Ledger,
    cap: usize,
}

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        stack: Vec::new(),
        ledger: Ledger::default(),
        cap: 0,
    });
}

/// Keep at most this many spans in memory; later spans still feed the
/// ledger's self times and name totals.
pub const DEFAULT_RETAIN: usize = 200_000;

/// Clear the ledger and set the retention cap (tracing stays off).
pub fn reset(retain: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.epoch = Instant::now();
        t.stack.clear();
        t.ledger = Ledger::default();
        t.cap = retain;
        t.ledger.spans.reserve(retain.min(DEFAULT_RETAIN));
    });
}

/// Switch span recording on or off (only between spans).
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Hand back everything recorded since [`reset`].
pub fn take() -> Ledger {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().ledger))
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Run `f` inside a span of `layer` named `name`, serving operation `op`.
#[inline]
pub fn span<R>(layer: Layer, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    open(layer, name, op);
    let r = f();
    close(layer, name);
    r
}

fn open(layer: Layer, name: &'static str, op: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().map(|f| f.retained).unwrap_or(u32::MAX);
        let start_ns = now_ns(t.epoch);
        let retained = if t.ledger.spans.len() < t.cap {
            t.ledger.spans.push(Span { name, layer, start_ns, end_ns: 0, parent, op });
            (t.ledger.spans.len() - 1) as u32
        } else {
            u32::MAX
        };
        t.stack.push(Frame { start_ns, child_ns: 0, retained });
    });
}

fn close(layer: Layer, name: &'static str) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = now_ns(t.epoch);
        let frame = t.stack.pop().expect("span close pairs with an open");
        let dur = end_ns.saturating_sub(frame.start_ns);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
        t.ledger.self_ns[layer.index()] += dur.saturating_sub(frame.child_ns);
        // Span names are literals: pointer equality finds them without a
        // string compare on the hot path.
        match t.ledger.names.iter_mut().find(|(n, _)| std::ptr::eq(*n, name) || *n == name) {
            Some((_, total)) => *total += dur,
            None => t.ledger.names.push((name, dur)),
        }
        if frame.retained == u32::MAX {
            t.ledger.unretained += 1;
        } else {
            t.ledger.spans[frame.retained as usize].end_ns = end_ns;
        }
    });
}

/// Write spans as CSV (`index,name,layer,start_ns,end_ns,parent,op`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index,name,layer,start_ns,end_ns,parent,op")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == u32::MAX { String::new() } else { s.parent.to_string() };
        writeln!(
            out,
            "{i},{},{},{},{},{parent},{}",
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        reset(16);
        set_enabled(true);
        span(Layer::Bench, "root", 1, || {
            span(Layer::Serve, "child", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        set_enabled(false);
        let l = take();
        assert_eq!(l.spans.len(), 2);
        assert_eq!(l.spans[1].parent, 0);
        let root = l.name("root");
        let child = l.name("child");
        assert!(child >= 2_000_000);
        assert_eq!(l.self_of(Layer::Bench) + l.self_of(Layer::Serve), root);
        assert_eq!(l.self_of(Layer::Serve), child);
    }
}
