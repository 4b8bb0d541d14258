//! Golden digests for two kinds of run `tests/stats_golden.rs`
//! does not cover: the swizzle-scheduler lineup over the full Table IV
//! suite, and attention decode steps through a [`SessionSim`]. Each
//! test renders one line per cell holding the full `Debug` form of the
//! stats, so any counter or cycle drift shows up as a byte diff against
//! its fixture.
//!
//! The test names keep their historical `across_thread_counts` suffix;
//! the engine has a single serial event loop, so every run is checked
//! on that one path.

use ladm::core::policies::{registry, Lasp};
use ladm::sim::{GpuSystem, KernelStats, SessionSim, SimConfig};
use ladm::workloads::{attn_decode, suite, Scale};

const SESSION_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/session_decode_digest.txt"
);

/// The swizzle-scheduler policies registered in
/// `ladm::core::policies::registry` — every policy whose `TbMap` is the
/// rank-table-backed `Swizzled` variant, so the dispatch order the
/// engine drains is a genuine permutation of row-major.
const SWIZZLE_POLICIES: &[&str] = &[
    "Swizzle-Blk",
    "Swizzle-Morton",
    "Swizzle-Hilbert",
    "Swizzle-Hilbert-2L",
    "Swizzle-Hilbert+RR",
    "LASP+Swizzle-Hilbert",
    "LASP+Swizzle-Blk",
];

const SWIZZLE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/swizzle_digest.txt"
);

/// One line per (workload, swizzle policy) cell over the full Table IV
/// suite.
fn swizzle_digest_lines() -> Vec<String> {
    let cfg = SimConfig::paper_multi_gpu();
    let mut lines = Vec::new();
    for name in SWIZZLE_POLICIES {
        let policy = registry::build(name).expect("registered swizzle policy");
        for w in suite(Scale::Test) {
            let mut sys = GpuSystem::new(cfg.clone());
            let mut total = KernelStats::default();
            for kernel in &w.kernels {
                total.accumulate(&sys.run(&**kernel, &*policy));
            }
            lines.push(format!("{} {} {:?}", w.name, policy.name(), total));
        }
    }
    lines
}

#[test]
fn swizzle_lineup_is_bit_identical_across_thread_counts() {
    let got = swizzle_digest_lines().join("\n") + "\n";
    if std::env::var_os("LADM_UPDATE_GOLDEN").is_some() {
        std::fs::write(SWIZZLE_FIXTURE, &got).expect("fixture written");
        return;
    }
    let want = std::fs::read_to_string(SWIZZLE_FIXTURE)
        .expect("fixture missing — run with LADM_UPDATE_GOLDEN=1 to create it");
    assert!(
        got == want,
        "swizzle digest no longer matches tests/fixtures/swizzle_digest.txt; \
         if the model change is intentional, regenerate with \
         LADM_UPDATE_GOLDEN=1 cargo test --test determinism"
    );
}

/// Session-mode digest: three attention decode steps through a
/// [`SessionSim`] (pinning on and off), one line per (mode, step,
/// kernel) holding the full `Debug` rendering of the
/// [`ladm::sim::SessionRunStats`] — page-home state carried across
/// launches, replaced-page movement and all.
fn session_digest_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for pinning in [true, false] {
        let w = attn_decode(Scale::Test);
        let mut sim = SessionSim::new(SimConfig::paper_multi_gpu(), Lasp::ladm(), pinning);
        let mode = if pinning { "pinned" } else { "replanned" };
        for step in 0..3 {
            for (kernel, run) in w.kernels.iter().zip(sim.run_step(&w.kernels)) {
                lines.push(format!(
                    "{mode} step{step} {} {run:?}",
                    kernel.launch().kernel.name
                ));
            }
        }
    }
    lines
}

#[test]
fn session_decode_is_bit_identical_across_thread_counts() {
    let got = session_digest_lines().join("\n") + "\n";
    if std::env::var_os("LADM_UPDATE_GOLDEN").is_some() {
        std::fs::write(SESSION_FIXTURE, &got).expect("fixture written");
        return;
    }
    let want = std::fs::read_to_string(SESSION_FIXTURE)
        .expect("fixture missing — run with LADM_UPDATE_GOLDEN=1 to create it");
    assert!(
        got == want,
        "session decode digest no longer matches \
         tests/fixtures/session_decode_digest.txt; if intentional, regenerate with \
         LADM_UPDATE_GOLDEN=1 cargo test --test determinism"
    );
}
