//! Host-speed calibration.
//!
//! On a shared host the speed a process gets drifts by 20–40% over
//! minutes (other tenants on the same cores, caches and memory). A fixed
//! loop of the benchmark's own code — no call into the repository's
//! crates, no allocation — is timed between the measured intervals. It
//! has a part that stays in the first-level caches and a part that
//! streams through buffers larger than the second-level cache, because
//! the workloads lean on each to a different degree. The run's median
//! loop time over [`NOMINAL_NS`] is its slowness, and the end-to-end
//! host-time metrics are reported divided by it: figures for a host
//! running at the nominal speed. The program under measurement does not
//! run inside the loop, so a change to the program moves the calibrated
//! figures exactly as it moves the raw ones, which the run prints beside
//! them.

use std::time::Instant;

/// Loop time of the nominal host: about the loop's time on one core of a
/// shared 2-vCPU x86-64 VM when no other tenant competes for it.
pub const NOMINAL_NS: f64 = 1_200_000.0;

/// Bytes the cache-resident part fills, copies and hashes (two buffers of
/// this size stay in the first-level caches).
const SMALL: usize = 16 * 1024;
/// Passes over the small buffers in one timed sample.
const SMALL_PASSES: u32 = 64;
/// Bytes the streaming part copies and hashes (two buffers of this size
/// spill out of the second-level caches).
const BIG: usize = 1 << 20;
/// Passes over the big buffers in one timed sample.
const BIG_PASSES: u32 = 8;

/// The calibration loop and its samples.
#[derive(Debug, Clone)]
pub struct Calibration {
    a: Vec<u8>,
    b: Vec<u8>,
    big_a: Vec<u8>,
    big_b: Vec<u8>,
    state: u64,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            a: vec![1; SMALL],
            b: vec![0; SMALL],
            big_a: vec![1; BIG],
            big_b: vec![0; BIG],
            state: 0,
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// `small` passes of: fill `a` from a splitmix64 stream, copy it to
    /// `b`, hash every seventh byte of `b`; then `big` passes of: copy
    /// `big_a` to `big_b`, hash one byte per cache line of `big_b`.
    fn passes(&mut self, small: u32, big: u32) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..small {
            for chunk in self.a.chunks_mut(8) {
                self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                chunk.copy_from_slice(&z.to_le_bytes());
            }
            self.b.copy_from_slice(&self.a);
            for v in self.b.iter().step_by(7) {
                h ^= u64::from(*v);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        for pass in 0..big {
            self.big_a[pass as usize] = h as u8;
            self.big_b.copy_from_slice(&self.big_a);
            for v in self.big_b.iter().step_by(64) {
                h ^= u64::from(*v);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Time one sample of the loop. One untimed pass first brings the
    /// buffers back into the caches, whatever the workload left there.
    pub fn sample(&mut self) {
        std::hint::black_box(self.passes(1, 1));
        let start = Instant::now();
        std::hint::black_box(self.passes(SMALL_PASSES, BIG_PASSES));
        self.samples.push(start.elapsed().as_nanos() as f64);
    }

    /// Samples taken.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Median sample over [`NOMINAL_NS`]: above 1 when the host ran
    /// slower than nominal (1 before the first sample).
    pub fn slowness(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        crate::median(&self.samples) / NOMINAL_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_the_median_sample_over_nominal() {
        let mut c = Calibration::default();
        assert_eq!(c.slowness(), 1.0);
        c.samples = vec![3.0 * NOMINAL_NS, NOMINAL_NS, 2.0 * NOMINAL_NS];
        assert_eq!(c.slowness(), 2.0);
        c.sample();
        assert_eq!(c.count(), 4);
    }
}
