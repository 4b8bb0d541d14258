//! `ladm-bench` — times the simulation engine itself and writes a
//! machine-readable `BENCH.json`.
//!
//! ```text
//! ladm-bench [--quick] [--out FILE] [--samples N] [--scale test|bench] [--profile]
//! ladm-bench --validate FILE
//! ladm-bench --check BASELINE [--against FILE] [--tolerance PCT]
//! ```
//!
//! Each cell runs one `(workload, policy)` pair end to end through
//! [`ladm_bench::run_workload`] under [`ladm_bench::bench_function`]
//! (one warm-up, `--samples` timed runs) and records wall min/mean,
//! simulated cycles and sectors/s alongside the git revision — the
//! engine-performance companion to the paper-metric `repro` binary.
//! `--quick` drops to the test scale for the CI smoke job; `--validate`
//! re-parses an emitted file with the in-tree JSON parser and checks the
//! schema invariants.
//!
//! `--profile` additionally runs each workload once under the
//! [`ladm_obs::prof`] self-profiler and appends an additive `profiles`
//! section (phase attribution, hot counters) to the
//! report. `--check` compares a freshly generated (or `--against` FILE)
//! report to a checked-in baseline and exits non-zero when throughput
//! drops by more than `--tolerance` percent or a phase's share of
//! attributed time grows by more than that many percentage points.

use ladm_bench::profile::{profile_workload, render_profile_text, section_from};
use ladm_bench::report::{check, render, validate, BenchCell, BenchReport};
use ladm_bench::trace::policy_by_name;
use ladm_bench::{bench_function, run_workload};
use ladm_sim::SimConfig;
use ladm_workloads::{by_name, Scale};

/// Representative engine-speed cells: a streaming kernel, a tiled GEMM
/// and an irregular graph workload, each under the paper policy and the
/// baseline (the two extremes of remote-traffic volume).
const WORKLOADS: [&str; 3] = ["VecAdd", "SQ-GEMM", "PageRank"];
const POLICIES: [&str; 2] = ["ladm", "baseline-rr"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Bench;
    let mut out = "BENCH.json".to_string();
    let mut validate_path: Option<String> = None;
    let mut check_baseline: Option<String> = None;
    let mut check_against: Option<String> = None;
    let mut tolerance = 10.0f64;
    let mut profile = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Test,
            "--profile" => profile = true,
            "--check" => {
                check_baseline = Some(it.next().unwrap_or_else(|| usage("--check needs a path")));
            }
            "--against" => {
                check_against = Some(it.next().unwrap_or_else(|| usage("--against needs a path")));
            }
            "--tolerance" => {
                tolerance = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|t| *t >= 0.0)
                    .unwrap_or_else(|| usage("--tolerance needs a non-negative percentage"));
            }
            "--scale" => {
                scale = match it.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("bench") => Scale::Bench,
                    _ => usage("--scale needs 'test' or 'bench'"),
                };
            }
            "--out" => out = it.next().unwrap_or_else(|| usage("--out needs a path")),
            "--samples" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--samples needs a positive integer"));
                std::env::set_var("LADM_BENCH_SAMPLES", n.to_string());
            }
            "--validate" => {
                validate_path = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--validate needs a path")),
                );
            }
            "-h" | "--help" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }

    if let Some(path) = validate_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("{path}: cannot read: {e}");
            std::process::exit(1);
        });
        match validate(&text) {
            Ok(n) => println!("{path}: OK ({n} cells)"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // Pure file-vs-file regression check: no simulation, just compare a
    // previously emitted report against the baseline.
    if let (Some(baseline), Some(against)) = (check_baseline.as_deref(), check_against.as_deref()) {
        let base = read_or_die(baseline);
        let cur = read_or_die(against);
        run_check(&cur, &base, tolerance);
        return;
    }

    let scale_name = match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    };
    let cfg = SimConfig::paper_multi_gpu();
    let mut cells = Vec::new();
    let mut samples = 0;
    for workload in WORKLOADS {
        let w = by_name(workload, scale).expect("cell names come from the Table IV suite");
        for policy_name in POLICIES {
            let policy =
                policy_by_name(policy_name).expect("cell policies come from policy_by_name");
            let mut stats = None;
            let wall = bench_function(&format!("{workload}/{policy_name}/{scale_name}"), || {
                stats = Some(run_workload(&cfg, &w, &*policy));
            });
            samples = wall.samples;
            let stats = stats.expect("bench_function ran the closure at least once");
            cells.push(BenchCell::new(
                workload,
                policy_name,
                scale_name,
                wall,
                &stats,
            ));
        }
    }

    // One profiled run per workload under the paper policy: the timing
    // cells above stay unprofiled so `--profile` cannot perturb them.
    let mut profiles = Vec::new();
    if profile {
        for workload in WORKLOADS {
            let w = by_name(workload, scale).expect("cell names come from the Table IV suite");
            let policy = policy_by_name("ladm").expect("paper policy exists");
            let run = profile_workload(&cfg, &w, &*policy);
            println!("{}", render_profile_text(workload, &run));
            profiles.push(section_from(workload, &run));
        }
    }

    let report = BenchReport {
        git_rev: git_rev(),
        samples,
        cells,
        profiles,
    };
    let text = render(&report);
    // Re-validate our own output before writing: the emitter and the
    // checker must never drift apart.
    if let Err(e) = validate(&text) {
        eprintln!("internal error: generated report fails validation: {e}");
        std::process::exit(1);
    }
    std::fs::write(&out, &text).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    });
    println!(
        "benchmark report written to {out} ({} cells)",
        report.cells.len()
    );

    if let Some(baseline) = check_baseline {
        let base = read_or_die(&baseline);
        run_check(&text, &base, tolerance);
    }
}

/// Runs the regression comparison and exits non-zero on any regression.
fn run_check(current: &str, baseline: &str, tolerance_pct: f64) {
    match check(current, baseline, tolerance_pct) {
        Ok(report) => {
            for note in &report.notes {
                println!("note: {note}");
            }
            for r in &report.regressions {
                eprintln!("REGRESSION: {r}");
            }
            if report.passed() {
                println!(
                    "check: OK ({} comparisons within {tolerance_pct}% tolerance)",
                    report.compared
                );
            } else {
                eprintln!(
                    "check: FAILED ({} regression(s) over {} comparisons)",
                    report.regressions.len(),
                    report.compared
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("check: cannot compare reports: {e}");
            std::process::exit(2);
        }
    }
}

fn read_or_die(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: cannot read: {e}");
        std::process::exit(2);
    })
}

/// Short git revision of the working tree, or `"unknown"` when git is
/// unavailable (e.g. running from an unpacked source archive).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "ladm-bench: time the simulation engine and write BENCH.json\n\
         \n\
         usage:\n\
           ladm-bench [--quick] [--out FILE] [--samples N] [--scale test|bench] [--profile]\n\
           ladm-bench --validate FILE\n\
           ladm-bench --check BASELINE [--against FILE] [--tolerance PCT]\n\
         \n\
         options:\n\
           --quick          test-scale inputs (CI smoke job)\n\
           --scale SCALE    'test' or 'bench' (default: bench)\n\
           --out FILE       output path (default: BENCH.json)\n\
           --samples N      timed samples per cell (default: 5,\n\
                            or the LADM_BENCH_SAMPLES environment variable)\n\
           --profile        also self-profile one run per workload and\n\
                            append an additive 'profiles' report section\n\
           --validate FILE  check a previously emitted report and exit\n\
           --check BASELINE compare this run (or --against FILE) to a\n\
                            baseline report; exit 1 on regression\n\
           --against FILE   with --check: compare FILE instead of running\n\
           --tolerance PCT  allowed throughput drop / phase-share growth\n\
                            (percent, default 10)"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
