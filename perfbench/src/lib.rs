//! # perfbench — the driverlet stack's end-to-end and per-layer benchmark
//!
//! One command runs one workload for a fixed host-time budget, checks
//! every output, and prints the end-to-end metrics (untraced run) or the
//! per-layer ledger (traced run) as a final JSON line. See `README.md`
//! beside this crate for the workloads, the metric definitions and the
//! map from per-layer metrics to the end-to-end metrics they move.
//!
//! * [`work`] — set-up (record, codec round trip, service start) and the
//!   workloads, each driving `dlt-serve` through its public calls.
//! * [`rigs`] — the peeled rigs the traced run times layer by layer: a
//!   bare replayer, the native gold-driver floor and a `SecureIo` probe.
//! * [`trace`] — the in-memory span tracer and self-time ledger.
//! * [`calib`] — the host-speed calibration loop the end-to-end host-time
//!   metrics are scaled by.
//! * [`run`] — the measurement loops and metric assembly.

#![forbid(unsafe_code)]

pub mod calib;
pub mod rigs;
pub mod run;
pub mod trace;
pub mod work;

/// Seeded splitmix64 generator: the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (independent streams for
    /// independent uses of one seed).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponential draw with the given mean (inverse CDF).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        -mean * u.ln()
    }
}

/// Fixed-size uniform sample of a stream (Algorithm R), so percentile
/// estimates cost constant memory however long the run is.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<u64>,
    rng: Rng,
}

impl Reservoir {
    /// A reservoir of `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir { cap, seen: 0, samples: Vec::with_capacity(cap), rng: Rng::new(seed, 0x5eed) }
    }

    /// Offer one value.
    pub fn push(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.rng.below(self.seen);
            if (j as usize) < self.cap {
                self.samples[j as usize] = v;
            }
        }
    }

    /// The `q`-quantile (0..=1) of the retained sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|x| *x as f64).collect();
        quantile(&mut v, q)
    }
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty slice). Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Order-independent digest of completion stamps: a wrapping sum of
/// per-completion FNV-1a hashes over `(id, submitted_ns, completed_ns)`.
pub fn stamp_hash(id: u64, submitted_ns: u64, completed_ns: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [id, submitted_ns, completed_ns] {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_sample() {
        let mut r = Reservoir::new(100, 7);
        for i in 0..10_000 {
            r.push(i);
        }
        assert_eq!(r.samples.len(), 100);
        let p50 = r.quantile(0.5);
        assert!((2_000.0..8_000.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn rng_streams_are_reproducible() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(9, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(9, 1).next_u64(), Rng::new(9, 2).next_u64());
    }
}
