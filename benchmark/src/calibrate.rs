//! Host-speed calibration: a fixed, self-contained CPU kernel timed
//! between slices of the event loop.
//!
//! The host the benchmark runs on is shared: how fast it executes the same
//! instructions moves by ±30% over seconds and by more over minutes, as
//! neighbours come and go. Timing a reference kernel interleaved with the
//! run measures that speed at the same moments the run is measured, so
//! `event-loop seconds × NOMINAL / kernel seconds` is the event loop's
//! time on a host of one fixed speed. The kernel uses only its own
//! buffers, allocated once, and no code of the program. Right after a
//! slice of the event loop the caches hold the simulator's data, so a
//! call's time would depend on how the program uses memory; each sample
//! therefore first brings all of the kernel's buffers back into the
//! caches, untimed, and times a call after that. It measures the core's
//! speed alone, so a change to the program moves the event loop's time
//! and not the kernel's.
//!
//! The host also stalls the benchmark now and then (its vCPU descheduled
//! for milliseconds). The event loop pays for the stalls that fall into
//! it, and the mean kernel call pays for the same share of stalls, so the
//! mean is the right estimate. But a call lasts well under a millisecond
//! and covers well under 1% of the run: the rare call that a long stall
//! hits would swamp the mean, so each call counts as at most
//! [`CLIP`] times the median call.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What one timed kernel call takes on the reference host: the 2-vCPU
/// Xeon VM the benchmark was defined on, at its usual speed. It only sets
/// the scale of the normalized times, so they read as seconds on that
/// host.
pub const NOMINAL: Duration = Duration::from_micros(350);

/// A timed call counts as at most this many times the median call.
const CLIP: f64 = 10.0;

/// Entries of the random-access table (512 KiB: inside a core's L2, so
/// the untimed warm-up leaves all of it cached).
const TABLE: usize = 1 << 16;
/// Steps of one kernel call.
const STEPS: usize = 1 << 13;

/// The reference kernel's state and its timings so far.
pub struct Calibrator {
    table: Vec<u64>,
    map: HashMap<u64, u64>,
    buf: Vec<u64>,
    x: u64,
    /// Seconds of every timed call.
    samples: Vec<f64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Allocates and touches every buffer, so no call allocates.
    pub fn new() -> Calibrator {
        Calibrator {
            table: (0..TABLE as u64).collect(),
            map: HashMap::with_capacity(0x1000),
            buf: Vec::with_capacity(STEPS),
            x: 0x9e37_79b9_7f4a_7c15,
            samples: Vec::new(),
        }
    }

    /// Warms the caches, then times one kernel call.
    pub fn sample(&mut self) {
        self.warm();
        let started = Instant::now();
        self.kernel();
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// Reads the whole table, then runs the kernel once: every buffer and
    /// the kernel's code end up cached.
    fn warm(&mut self) {
        let sum = self.table.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        std::hint::black_box(sum);
        self.kernel();
    }

    /// Random reads and writes over the table, hash-map updates and a
    /// sort: the mix the event loop does.
    fn kernel(&mut self) {
        self.map.clear();
        self.buf.clear();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let slot = (self.x % TABLE as u64) as usize;
            acc = acc.wrapping_add(self.table[slot]);
            self.table[slot] ^= self.x;
            let e = self.map.entry(self.x & 0xfff).or_insert(0);
            *e = e.wrapping_add(acc);
            self.buf.push(self.x ^ acc);
        }
        self.buf.sort_unstable();
        std::hint::black_box((&self.buf, &self.map));
    }

    /// Mean seconds of a timed call so far, each call clipped to [`CLIP`]
    /// times the median call (`None` before the first).
    pub fn clipped_mean_s(&self) -> Option<f64> {
        let mut s = self.samples.clone();
        s.sort_by(f64::total_cmp);
        let cap = CLIP * *s.get(s.len() / 2)?;
        Some(s.iter().map(|&x| x.min(cap)).sum::<f64>() / s.len() as f64)
    }

    /// Samples taken so far.
    pub fn calls(&self) -> usize {
        self.samples.len()
    }

    /// `secs` of host time in seconds of the reference host, scaled by
    /// the kernel's clipped mean time over the same stretch.
    pub fn normalize(&self, secs: f64) -> f64 {
        let mean = self
            .clipped_mean_s()
            .expect("normalize needs a kernel sample");
        secs * NOMINAL.as_secs_f64() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_scales_with_the_wall_and_needs_a_sample() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.clipped_mean_s(), None);
        cal.sample();
        cal.sample();
        assert_eq!(cal.calls(), 2);
        let mean = cal.clipped_mean_s().expect("sampled");
        assert!(mean > 0.0);
        let one = cal.normalize(1.0);
        assert!((one - NOMINAL.as_secs_f64() / mean).abs() < 1e-12);
        assert!((cal.normalize(3.0) - 3.0 * one).abs() < 1e-9);
    }

    #[test]
    fn a_long_stall_counts_as_at_most_ten_median_calls() {
        let mut cal = Calibrator::new();
        cal.samples = vec![1e-3, 1e-3, 3e-3, 1e-3, 0.5];
        let mean = cal.clipped_mean_s().expect("sampled");
        assert!((mean - 16e-3 / 5.0).abs() < 1e-12, "{mean}");
        cal.samples = vec![2e-3];
        assert_eq!(cal.clipped_mean_s(), Some(2e-3));
    }
}
