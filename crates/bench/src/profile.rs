//! Self-profiled workload runs: capture a `ladm_obs::prof` span tree
//! around an engine run and fold it into the report/table/flamegraph
//! surfaces.
//!
//! The profiler observes the *simulator's* wall time (where the driver
//! spends its cycles), not simulated time — see `ladm_obs::prof`. A
//! profiled run wraps [`crate::harness::run_workload`] between
//! `prof::reset`/`enable` and `disable`/`take`, so everything the
//! engine records (plan, setup, drain, generation, stats merge, plus
//! the hot counters) lands in one deterministic-shape [`Profile`].

use crate::harness::run_workload;
use crate::report::{PhaseRow, ProfileSection};
use ladm_core::policies::Policy;
use ladm_obs::prof::{self, Profile};
use ladm_sim::{KernelStats, SimConfig};
use ladm_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// A completed profiled run: the merged span tree, the run's simulated
/// statistics and the measured wall time around the whole run.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Merged span tree + profiler counters.
    pub profile: Profile,
    /// The run's accumulated simulated statistics (bit-identical to an
    /// unprofiled run — pinned by `tests/prof_golden.rs`).
    pub stats: KernelStats,
    /// Wall nanoseconds measured around the run (the coverage
    /// denominator).
    pub wall_ns: u64,
}

/// Runs `workload` under `policy` with the self-profiler enabled, and
/// returns the captured profile.
///
/// Profiler state is process-global: concurrent profiled runs would
/// merge into each other, so callers (the bench binaries, tests)
/// profile one run at a time.
pub fn profile_workload(cfg: &SimConfig, workload: &Workload, policy: &dyn Policy) -> ProfiledRun {
    prof::reset();
    prof::enable();
    let t0 = Instant::now();
    let stats = run_workload(cfg, workload, policy);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    prof::disable();
    let profile = prof::take();
    ProfiledRun {
        profile,
        stats,
        wall_ns,
    }
}

/// Folds a profiled run into the additive BENCH.json `profile` section.
/// `attributed_ns` is the wall time the root spans account for.
pub fn section_from(workload: &str, run: &ProfiledRun) -> ProfileSection {
    let attributed_ns = run.profile.total_ns();
    let phases: Vec<PhaseRow> = run
        .profile
        .flatten()
        .into_iter()
        .map(|(path, node)| PhaseRow {
            path,
            total_ns: node.total_ns,
            self_ns: node.self_ns(),
            calls: node.count,
        })
        .collect();
    let counters: Vec<(String, u64)> = run
        .profile
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    ProfileSection {
        workload: workload.to_string(),
        wall_ns: run.wall_ns,
        attributed_ns,
        phases,
        counters,
    }
}

/// Renders the human-facing profile report: coverage line and the phase
/// attribution table.
pub fn render_profile_text(workload: &str, run: &ProfiledRun) -> String {
    let section = section_from(workload, run);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {workload} (wall {:.3} ms, coverage {:.1}%)",
        run.wall_ns as f64 / 1e6,
        section.coverage() * 100.0
    );
    let _ = writeln!(out);
    out.push_str(&run.profile.render_table());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::policies::Lasp;
    use ladm_workloads::{by_name, Scale};
    use std::sync::Mutex;

    /// The profiler is process-global; bench-crate tests that enable it
    /// serialize on this.
    static PROF_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        PROF_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn profiled_run_attributes_most_of_the_wall_time() {
        let _t = locked();
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let run = profile_workload(&cfg, &w, &Lasp::ladm());
        assert!(run.stats.cycles > 0.0);
        assert!(!run.profile.is_empty());
        let section = section_from("VecAdd", &run);
        // Acceptance criterion: the phase table accounts for >= 95% of
        // measured wall time (the uncovered slice is GpuSystem::new +
        // harness glue).
        assert!(
            section.coverage() >= 0.95,
            "coverage {:.3} too low:\n{}",
            section.coverage(),
            run.profile.render_table()
        );
        assert!(
            section.coverage() <= 1.02,
            "coverage {}",
            section.coverage()
        );
        // The serial engine's signature phases are present.
        assert!(run.profile.find("kernel;plan").is_some());
        assert!(run.profile.find("kernel;execute;drain_serial").is_some());
        assert!(run
            .profile
            .find("kernel;execute;drain_serial;gen_inline")
            .is_some());
        // Hot counters fired.
        assert!(section.counters.iter().any(|(k, _)| k == "engine.heap_pop"));
        assert!(section.counters.iter().any(|(k, _)| k == "shard.l1_probes"));
    }

    #[test]
    fn profiling_does_not_change_simulated_stats() {
        let _t = locked();
        let w = by_name("VecAdd", Scale::Test).expect("vecadd exists");
        let cfg = SimConfig::paper_multi_gpu();
        let plain = run_workload(&cfg, &w, &Lasp::ladm());
        let profiled = profile_workload(&cfg, &w, &Lasp::ladm());
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", profiled.stats),
            "profiling must be invisible to the simulation"
        );
    }
}
