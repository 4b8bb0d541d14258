//! End-to-end test of the `ladm-bench --check` regression gate: the
//! compiled binary, fed two reports via `--against` (pure file-vs-file
//! comparison, no simulation), must exit zero when the current report is
//! within tolerance and non-zero when a synthetic regression is
//! injected. One more case pins the `--samples 0` usage error.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ladm-bench");

/// A minimal valid `ladm-bench-v1` report with one cell and one profile
/// section. `sectors_per_sec` and the drain share are the knobs the
/// tests twist.
fn report(sectors_per_sec: f64, drain_ns: u64) -> String {
    format!(
        r#"{{
  "schema": "ladm-bench-v1",
  "git_rev": "test",
  "samples": 2,
  "cells": [
    {{
      "workload": "VecAdd",
      "policy": "ladm",
      "scale": "test",
      "wall_min_s": 0.01,
      "wall_mean_s": 0.012,
      "sim_cycles": 1000.0,
      "sectors": 5000,
      "sectors_per_sec": {sectors_per_sec}
    }}
  ],
  "profiles": [
    {{
      "workload": "VecAdd",
      "wall_ns": 1000000,
      "attributed_ns": 980000,
      "coverage": 0.98,
      "phases": [
        {{"path": "kernel", "total_ns": 980000, "self_ns": 10000, "calls": 1}},
        {{"path": "kernel;execute", "total_ns": 970000, "self_ns": {}, "calls": 1}},
        {{"path": "kernel;execute;drain_serial", "total_ns": {drain_ns}, "self_ns": {drain_ns}, "calls": 1}}
      ],
      "counters": {{}}
    }}
  ]
}}
"#,
        970000 - drain_ns
    )
}

fn run_check(tag: &str, current: &str, baseline: &str, tolerance: &str) -> (bool, String) {
    let dir = std::env::temp_dir().join(format!("ladm-check-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cur_path = dir.join("current.json");
    let base_path = dir.join("baseline.json");
    std::fs::write(&cur_path, current).expect("write current");
    std::fs::write(&base_path, baseline).expect("write baseline");
    let out = Command::new(BIN)
        .arg("--check")
        .arg(&base_path)
        .arg("--against")
        .arg(&cur_path)
        .arg("--tolerance")
        .arg(tolerance)
        .output()
        .expect("ladm-bench runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.success(), text)
}

#[test]
fn identical_reports_pass() {
    let base = report(500_000.0, 600_000);
    let (ok, text) = run_check("identical", &base, &base, "10");
    assert!(ok, "identical reports must pass:\n{text}");
    assert!(text.contains("check: OK"), "{text}");
}

#[test]
fn throughput_regression_fails_with_nonzero_exit() {
    let base = report(500_000.0, 600_000);
    let cur = report(300_000.0, 600_000); // 40% slower
    let (ok, text) = run_check("throughput", &cur, &base, "10");
    assert!(!ok, "a 40% throughput drop must fail a 10% gate:\n{text}");
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("sectors_per_sec"), "{text}");
}

#[test]
fn regression_within_tolerance_passes() {
    let base = report(500_000.0, 600_000);
    let cur = report(480_000.0, 600_000); // 4% slower
    let (ok, text) = run_check("tolerated", &cur, &base, "10");
    assert!(ok, "a 4% drop is inside a 10% gate:\n{text}");
}

#[test]
fn phase_share_growth_fails() {
    let base = report(500_000.0, 400_000); // drain ≈ 41% of attributed
    let cur = report(500_000.0, 900_000); // drain ≈ 92% of attributed
    let (ok, text) = run_check("phase", &cur, &base, "10");
    assert!(!ok, "a 50-point phase-share jump must fail:\n{text}");
    assert!(text.contains("drain_serial"), "{text}");
}

#[test]
fn malformed_input_is_a_distinct_error() {
    let base = report(500_000.0, 600_000);
    let (ok, text) = run_check("malformed", "not json", &base, "10");
    assert!(!ok);
    assert!(text.contains("cannot compare"), "{text}");
}

#[test]
fn zero_samples_is_a_usage_error() {
    let out = Command::new(BIN)
        .args(["--samples", "0"])
        .output()
        .expect("spawn ladm-bench");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--samples needs a positive integer"),
        "{stderr}"
    );
}
