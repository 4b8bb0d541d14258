//! Profiler non-interference and determinism suite.
//!
//! The self-profiler (`ladm::obs::prof`) measures where the *simulator*
//! spends wall time; it must never leak into the simulated machine. Two
//! invariants are pinned here:
//!
//! 1. **Stats invariance** — with profiling enabled, `KernelStats` stay
//!    bit-identical to an unprofiled run.
//! 2. **Shape determinism** — the merged span tree's *shape* (names and
//!    nesting, not times) is a function of the code path: identical
//!    across repeats.
//!
//! The profiler is process-global, so every test that enables it
//! serializes on one lock.

use ladm::core::policies::{Lasp, Policy};
use ladm::obs::prof;
use ladm::sim::{GpuSystem, KernelStats, SimConfig};
use ladm::workloads::{by_name, Scale};
use std::sync::Mutex;

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs VecAdd + PageRank and returns the stats digest (full `Debug`
/// rendering — any counter or cycle drift changes it).
fn digest() -> String {
    let cfg = SimConfig::paper_multi_gpu();
    let policy = Lasp::ladm();
    let mut lines = Vec::new();
    for name in ["VecAdd", "PageRank"] {
        let w = by_name(name, Scale::Test).expect("Table IV name");
        let mut sys = GpuSystem::new(cfg.clone());
        let mut total = KernelStats::default();
        for kernel in &w.kernels {
            total.accumulate(&sys.run(&**kernel, &policy as &dyn Policy));
        }
        lines.push(format!("{name} {total:?}"));
    }
    lines.join("\n")
}

/// As [`digest`], but with the profiler live around the runs; also
/// returns the merged profile for shape checks.
fn digest_profiled() -> (String, prof::Profile) {
    prof::reset();
    prof::enable();
    let d = digest();
    prof::disable();
    (d, prof::take())
}

#[test]
fn profiling_leaves_stats_bit_identical_at_every_thread_count() {
    let _t = locked();
    let plain = digest();
    let (profiled, profile) = digest_profiled();
    assert_eq!(plain, profiled, "profiling changed simulated stats");
    assert!(!profile.is_empty(), "profiler captured nothing");
}

#[test]
fn span_tree_shape_is_deterministic_across_repeats() {
    let _t = locked();
    let (_, first) = digest_profiled();
    let (_, second) = digest_profiled();
    assert_eq!(
        first.shape(),
        second.shape(),
        "serial span-tree shape must be run-to-run deterministic"
    );
}

#[test]
fn disabled_profiler_captures_nothing() {
    let _t = locked();
    prof::reset();
    assert!(!prof::profiling());
    let _ = digest();
    let p = prof::take();
    assert!(
        p.is_empty(),
        "disabled profiler must record no spans, got: {}",
        p.render_table()
    );
}
