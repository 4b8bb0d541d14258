//! Run plumbing: executing a workload under a policy on a machine, simple
//! parallel fan-out, and aggregation helpers.

use ladm_core::policies::Policy;
use ladm_sim::{GpuSystem, KernelStats, SimConfig};
use ladm_workloads::Workload;

// The labeled fork-join pool lives in `ladm_core::par`; re-exported here
// for compatibility with existing callers.
pub use ladm_core::par::{parallel_map, parallel_map_labeled};

/// Runs every kernel of `workload` back to back on a fresh machine built
/// from `cfg`, under `policy`. Returns the accumulated statistics.
pub fn run_workload(cfg: &SimConfig, workload: &Workload, policy: &dyn Policy) -> KernelStats {
    let mut sys = GpuSystem::new(cfg.clone());
    let mut total = KernelStats::default();
    for kernel in &workload.kernels {
        let stats = sys.run(&**kernel, policy);
        total.accumulate(&stats);
    }
    total
}

/// Wall-time summary returned by [`bench_function`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchSummary {
    /// Fastest timed sample, in seconds.
    pub min: f64,
    /// Arithmetic mean over the timed samples, in seconds.
    pub mean: f64,
    /// Number of timed samples (warm-up excluded).
    pub samples: usize,
}

/// Default sample count when `LADM_BENCH_SAMPLES` is unset.
const DEFAULT_SAMPLES: usize = 5;

/// Parses an `LADM_BENCH_SAMPLES` override. `Err` carries the warning to
/// print; the caller falls back to [`DEFAULT_SAMPLES`].
fn parse_bench_samples(raw: Option<&str>) -> Result<usize, String> {
    match raw {
        None => Ok(DEFAULT_SAMPLES),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "ignoring LADM_BENCH_SAMPLES={v:?} (needs a positive integer); \
                 using the default of {DEFAULT_SAMPLES}"
            )),
        },
    }
}

/// Times `f` and prints a one-line summary, standing in for the
/// criterion harness (the workspace builds with no registry
/// dependencies). One warm-up call, then `LADM_BENCH_SAMPLES` timed
/// samples (default 5; a value that is not a positive integer warns on
/// stderr instead of being silently ignored); reports min and mean wall
/// time and returns them so callers can serialize instead of re-timing.
pub fn bench_function<F: FnMut()>(name: &str, mut f: F) -> BenchSummary {
    let samples = match parse_bench_samples(std::env::var("LADM_BENCH_SAMPLES").ok().as_deref()) {
        Ok(n) => n,
        Err(warning) => {
            eprintln!("warning: {warning}");
            DEFAULT_SAMPLES
        }
    };
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut sum = 0.0;
    for _ in 0..samples {
        let t0 = std::time::Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        sum += dt;
    }
    let summary = BenchSummary {
        min: best,
        mean: sum / samples as f64,
        samples,
    };
    println!(
        "bench {name:<40} min {:>10.6}s  mean {:>10.6}s  ({samples} samples)",
        summary.min, summary.mean
    );
    summary
}

/// Geometric mean of strictly positive values; 0.0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::policies::Lasp;
    use ladm_workloads::{by_name, Scale};

    #[test]
    fn run_workload_accumulates_kernels() {
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let stats = run_workload(&cfg, &w, &Lasp::ladm());
        assert!(stats.cycles > 0.0);
        assert_eq!(stats.threadblocks, w.launched_tbs());
    }

    #[test]
    fn parallel_map_reexport_still_resolves() {
        // The implementation moved to `ladm_core::par`; the bench-crate
        // path must keep working for existing callers.
        let out = crate::harness::parallel_map(10, 4, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    fn bench_samples_parse_or_warn() {
        assert_eq!(parse_bench_samples(None), Ok(DEFAULT_SAMPLES));
        assert_eq!(parse_bench_samples(Some("12")), Ok(12));
        assert_eq!(parse_bench_samples(Some(" 3 ")), Ok(3));
        let err = parse_bench_samples(Some("0")).expect_err("zero must warn");
        assert!(err.contains("LADM_BENCH_SAMPLES=\"0\""), "{err}");
        let err = parse_bench_samples(Some("fast")).expect_err("typo must warn");
        assert!(err.contains("LADM_BENCH_SAMPLES=\"fast\""), "{err}");
        assert!(err.contains("default of 5"), "{err}");
        assert!(parse_bench_samples(Some("-3")).is_err());
    }

    #[test]
    fn bench_function_returns_sample_summary() {
        let mut calls = 0u32;
        let summary = bench_function("unit-test", || calls += 1);
        // One warm-up plus `samples` timed calls.
        assert_eq!(u64::from(calls), summary.samples as u64 + 1);
        assert!(summary.samples >= 1);
        assert!(summary.min >= 0.0);
        assert!(summary.mean >= summary.min);
    }

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
