//! The host-speed probe.
//!
//! On a shared virtual machine the host's effective speed wanders: on
//! the 2-vCPU reference box a fixed CPU loop took anywhere from 0.39 to
//! 0.72 s within one minute, and whole benchmark runs moved by 30%.
//! So the benchmark runs this fixed kernel, which calls none of the
//! program's code, once before the first timed interval and once after
//! each. An interval's wall time is then scaled by `NOMINAL_MS / p`,
//! where `p` is the median of the probes around the interval: the three
//! before it and the three after it. The result is the interval's time
//! at the reference host's nominal speed. On the reference box this
//! roughly halved the run-to-run spread of the cell times. Raw wall times
//! are printed beside the scaled ones.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Wall time of one probe on the reference host when it runs at full
/// speed, ms.
pub const NOMINAL_MS: f64 = 4.0;

/// The probe's working set: 2 MiB of words, larger than a core's
/// private caches.
const WORDS: usize = 1 << 18;
/// Iterations of one probe.
const STEPS: usize = 400_000;
/// Probes taken into account on each side of an interval.
const SIDE: usize = 3;

/// A fixed CPU and memory kernel, and every time it took.
#[derive(Debug)]
pub struct Probe {
    buf: Vec<u64>,
    times_ms: Vec<f64>,
}

impl Probe {
    /// Allocates the working set; no probe has run yet.
    pub fn new() -> Self {
        Probe {
            buf: vec![1; WORDS],
            times_ms: Vec::new(),
        }
    }

    /// Runs the kernel once, records its wall time, and returns the
    /// probe's index: the interval that just ended is the one before it.
    pub fn mark(&mut self) -> usize {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // One access in four is random, the rest stream.
            let j = if x & 3 == 0 {
                (x >> 20) as usize
            } else {
                i * 8
            } % WORDS;
            acc = acc.wrapping_add(self.buf[j]);
            if acc & 1 == 0 {
                self.buf[j] = self.buf[j].wrapping_add(x);
            }
        }
        black_box(acc);
        self.times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.times_ms.len() - 1
    }

    /// The factor that turns the wall time of the interval ending at
    /// probe `after` into time at nominal speed.
    pub fn scale(&self, after: usize) -> f64 {
        NOMINAL_MS / stats::median(&self.times_ms[window(after, self.times_ms.len())])
    }

    /// Median of every probe so far, ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.times_ms)
    }
}

/// The probes around the interval ending at probe `after`, of `len`.
fn window(after: usize, len: usize) -> std::ops::Range<usize> {
    after.saturating_sub(SIDE)..(after + SIDE).min(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_takes_three_probes_each_side_within_the_run() {
        assert_eq!(window(10, 20), 7..13);
        assert_eq!(window(0, 20), 0..3);
        assert_eq!(window(1, 2), 0..2);
    }

    #[test]
    fn scale_is_nominal_over_the_window_median() {
        let mut probe = Probe::new();
        assert_eq!(probe.mark(), 0);
        assert!(probe.times_ms[0] > 0.0);
        probe.times_ms = vec![1.0, 2.0, 8.0, 4.0];
        // The interval ending at probe 1 sees probes 0..4, median 3.
        assert_eq!(probe.scale(1), NOMINAL_MS / 3.0);
        assert_eq!(probe.median_ms(), 3.0);
    }
}
