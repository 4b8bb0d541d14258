//! Machine-readable benchmark report (`BENCH.json`).
//!
//! [`render`] serializes a [`BenchReport`] with the same dependency-free
//! conventions as the Chrome-trace exporter (`ladm_obs::json::escape` /
//! `number`), and [`validate`] re-parses a file with the in-tree JSON
//! parser and checks the schema invariants — the CI smoke job runs both
//! halves against each other so an emitter regression cannot land
//! silently.

use crate::harness::BenchSummary;
use ladm_obs::json::{escape, number, Json};
use ladm_sim::KernelStats;

/// Schema tag written into every report; bump when fields change shape.
pub const SCHEMA: &str = "ladm-bench-v1";

/// One timed `(workload, policy, scale)` cell.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Table IV workload name.
    pub workload: String,
    /// Policy name as accepted by `policy_by_name`.
    pub policy: String,
    /// Input scale the cell ran at (`test` or `bench`).
    pub scale: String,
    /// Wall-time summary from [`crate::bench_function`].
    pub wall: BenchSummary,
    /// Simulated completion time in core cycles.
    pub sim_cycles: f64,
    /// Sectors routed through the memory hierarchy (L1 hits + misses).
    pub sectors: u64,
}

impl BenchCell {
    /// Builds a cell from a run's accumulated statistics.
    pub fn new(
        workload: &str,
        policy: &str,
        scale: &str,
        wall: BenchSummary,
        stats: &KernelStats,
    ) -> Self {
        BenchCell {
            workload: workload.to_string(),
            policy: policy.to_string(),
            scale: scale.to_string(),
            wall,
            sim_cycles: stats.cycles,
            sectors: stats.l1_hits + stats.l1_misses,
        }
    }

    /// Simulation throughput: sectors routed per wall-clock second of
    /// the fastest sample. The engine-speed headline number.
    pub fn sectors_per_sec(&self) -> f64 {
        if self.wall.min > 0.0 {
            self.sectors as f64 / self.wall.min
        } else {
            0.0
        }
    }
}

/// One row of the self-profile phase table: a span path with its
/// aggregate wall time, self time and call count.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// `;`-separated span path (e.g. `kernel;execute;drain`).
    pub path: String,
    /// Total wall nanoseconds attributed to the span (children
    /// included).
    pub total_ns: u64,
    /// Wall nanoseconds not attributed to any child span.
    pub self_ns: u64,
    /// Completed span-guard drops.
    pub calls: u64,
}

/// The additive `profile` section of a `ladm-bench-v1` report: one
/// profiled workload's phase attribution and profiler counters. Absent (and ignored by old readers) unless
/// `--profile` ran.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileSection {
    /// Workload the profile was captured on.
    pub workload: String,
    /// Measured wall nanoseconds of the whole profiled run.
    pub wall_ns: u64,
    /// Nanoseconds attributed by the root spans of the phase table.
    pub attributed_ns: u64,
    /// Phase rows, path-sorted (from `Profile::flatten`).
    pub phases: Vec<PhaseRow>,
    /// Merged profiler counters (heap ops, cache probes, bucket stalls).
    pub counters: Vec<(String, u64)>,
}

impl ProfileSection {
    /// Fraction of measured wall time the phase table accounts for.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.attributed_ns as f64 / self.wall_ns as f64
        }
    }
}

/// A full report: provenance plus one entry per timed cell.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `git rev-parse --short HEAD`, or `"unknown"` outside a checkout.
    pub git_rev: String,
    /// Timed samples per cell (`LADM_BENCH_SAMPLES`).
    pub samples: usize,
    /// Timed cells, in run order.
    pub cells: Vec<BenchCell>,
    /// Self-profile sections (one per profiled workload), present only
    /// when `--profile` ran. Additive `ladm-bench-v1` field.
    pub profiles: Vec<ProfileSection>,
}

/// Renders a report as pretty-printed JSON. Pure function of its input —
/// unit-testable without touching the filesystem or the clock.
pub fn render(report: &BenchReport) -> String {
    let mut out = String::with_capacity(256 + report.cells.len() * 256);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SCHEMA)));
    out.push_str(&format!(
        "  \"git_rev\": \"{}\",\n",
        escape(&report.git_rev)
    ));
    out.push_str(&format!("  \"samples\": {},\n", report.samples));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in report.cells.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"workload\": \"{}\", ", escape(&cell.workload)));
        out.push_str(&format!("\"policy\": \"{}\", ", escape(&cell.policy)));
        out.push_str(&format!("\"scale\": \"{}\", ", escape(&cell.scale)));
        out.push_str(&format!("\"wall_min_s\": {}, ", number(cell.wall.min)));
        out.push_str(&format!("\"wall_mean_s\": {}, ", number(cell.wall.mean)));
        out.push_str(&format!("\"sim_cycles\": {}, ", number(cell.sim_cycles)));
        out.push_str(&format!("\"sectors\": {}, ", cell.sectors));
        out.push_str(&format!(
            "\"sectors_per_sec\": {}",
            number(cell.sectors_per_sec())
        ));
        out.push_str(if i + 1 == report.cells.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    if report.profiles.is_empty() {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n");
    out.push_str("  \"profiles\": [\n");
    for (i, p) in report.profiles.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"workload\": \"{}\",\n",
            escape(&p.workload)
        ));
        out.push_str(&format!("      \"wall_ns\": {},\n", p.wall_ns));
        out.push_str(&format!("      \"attributed_ns\": {},\n", p.attributed_ns));
        out.push_str(&format!("      \"coverage\": {},\n", number(p.coverage())));
        out.push_str("      \"phases\": [\n");
        for (j, row) in p.phases.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"path\": \"{}\", \"total_ns\": {}, \"self_ns\": {}, \"calls\": {}}}{}\n",
                escape(&row.path),
                row.total_ns,
                row.self_ns,
                row.calls,
                if j + 1 == p.phases.len() { "" } else { "," }
            ));
        }
        out.push_str("      ],\n");
        out.push_str("      \"counters\": {");
        for (j, (name, v)) in p.counters.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", escape(name), v));
        }
        out.push_str("}\n");
        out.push_str(if i + 1 == report.profiles.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses `text` with the in-tree JSON parser and checks the
/// `ladm-bench-v1` invariants: schema tag, non-empty `git_rev`, positive
/// `samples`, and every cell carrying the full field set with
/// non-negative wall times and `wall_min_s <= wall_mean_s`. Returns the
/// cell count.
pub fn validate(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let rev = doc
        .get("git_rev")
        .and_then(Json::as_str)
        .ok_or("missing 'git_rev'")?;
    if rev.is_empty() {
        return Err("empty 'git_rev'".to_string());
    }
    let samples = doc
        .get("samples")
        .and_then(Json::as_f64)
        .ok_or("missing 'samples'")?;
    if samples < 1.0 {
        return Err(format!("samples {samples} < 1"));
    }
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing 'cells' array")?;
    for (i, cell) in cells.iter().enumerate() {
        for key in ["workload", "policy", "scale"] {
            cell.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cell {i}: missing string '{key}'"))?;
        }
        let num = |key: &str| {
            cell.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell {i}: missing number '{key}'"))
        };
        let min = num("wall_min_s")?;
        let mean = num("wall_mean_s")?;
        num("sim_cycles")?;
        num("sectors")?;
        num("sectors_per_sec")?;
        if min < 0.0 || mean < 0.0 {
            return Err(format!("cell {i}: negative wall time"));
        }
        if min > mean + 1e-12 {
            return Err(format!("cell {i}: wall_min_s {min} > wall_mean_s {mean}"));
        }
    }
    // Additive section: profiled reports carry phase attribution;
    // pre-profiler readers never see the key.
    if let Some(profiles) = doc.get("profiles") {
        let arr = profiles.as_array().ok_or("'profiles' must be an array")?;
        for (i, p) in arr.iter().enumerate() {
            p.get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("profile {i}: missing string 'workload'"))?;
            let num = |key: &str| {
                p.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("profile {i}: missing number '{key}'"))
            };
            let wall = num("wall_ns")?;
            let attributed = num("attributed_ns")?;
            let coverage = num("coverage")?;
            if wall < 0.0 || attributed < 0.0 {
                return Err(format!("profile {i}: negative time"));
            }
            if !(0.0..=1.5).contains(&coverage) {
                return Err(format!("profile {i}: implausible coverage {coverage}"));
            }
            let phases = p
                .get("phases")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("profile {i}: missing 'phases' array"))?;
            for (j, row) in phases.iter().enumerate() {
                row.get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("profile {i} phase {j}: missing 'path'"))?;
                for key in ["total_ns", "self_ns", "calls"] {
                    let v = row
                        .get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("profile {i} phase {j}: missing number '{key}'"))?;
                    if v < 0.0 {
                        return Err(format!("profile {i} phase {j}: negative '{key}'"));
                    }
                }
            }
        }
    }
    Ok(cells.len())
}

/// Outcome of a [`check`] run: what was compared and what regressed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Number of `(cell, metric)` comparisons performed.
    pub compared: usize,
    /// Human-readable regression descriptions; empty means pass.
    pub regressions: Vec<String>,
    /// Non-failing observations (cells only present on one side,
    /// improvements beyond tolerance).
    pub notes: Vec<String>,
}

impl CheckReport {
    /// Whether the current report is within tolerance of the baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Diffs a current report against a baseline: `sectors_per_sec` per
/// matching `(workload, policy, scale)` cell, and per-phase *fractions
/// of attributed time* for matching profile sections (fractions, not
/// absolute nanoseconds, so a baseline recorded on different hardware
/// still gates shape regressions). A cell regresses when its throughput
/// drops more than `tolerance_pct` percent below baseline; a phase
/// regresses when its share of total time grows more than
/// `tolerance_pct` percentage points.
///
/// One structural gate applies to the *current* report alone (so
/// `check(report, report, _)` enforces it without any baseline
/// sensitivity): every profile section must attribute at least 95% of
/// measured wall time.
///
/// # Errors
///
/// Returns an error when either document fails [`validate`].
pub fn check(current: &str, baseline: &str, tolerance_pct: f64) -> Result<CheckReport, String> {
    validate(current).map_err(|e| format!("current report invalid: {e}"))?;
    validate(baseline).map_err(|e| format!("baseline report invalid: {e}"))?;
    let cur = Json::parse(current).map_err(|e| e.to_string())?;
    let base = Json::parse(baseline).map_err(|e| e.to_string())?;
    let mut out = CheckReport::default();
    let tol = tolerance_pct / 100.0;

    let cell_key = |c: &Json| {
        Some(format!(
            "{}/{}/{}",
            c.get("workload")?.as_str()?,
            c.get("policy")?.as_str()?,
            c.get("scale")?.as_str()?
        ))
    };
    let index = |doc: &Json| -> Vec<(String, f64)> {
        doc.get("cells")
            .and_then(Json::as_array)
            .map(|cells| {
                cells
                    .iter()
                    .filter_map(|c| Some((cell_key(c)?, c.get("sectors_per_sec")?.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_cells = index(&base);
    let cur_cells = index(&cur);
    for (key, base_rate) in &base_cells {
        let Some((_, cur_rate)) = cur_cells.iter().find(|(k, _)| k == key) else {
            out.notes
                .push(format!("cell {key}: missing from current report"));
            continue;
        };
        out.compared += 1;
        let floor = base_rate * (1.0 - tol);
        if *cur_rate < floor {
            out.regressions.push(format!(
                "cell {key}: sectors_per_sec {cur_rate:.0} < baseline {base_rate:.0} - {tolerance_pct}% (floor {floor:.0})"
            ));
        } else if *cur_rate > base_rate * (1.0 + tol) {
            out.notes.push(format!(
                "cell {key}: improved {base_rate:.0} -> {cur_rate:.0}"
            ));
        }
    }

    // Phase-share comparison over matching (workload, path) pairs.
    let phase_fracs = |doc: &Json| -> Vec<(String, f64)> {
        let mut rows = Vec::new();
        if let Some(profiles) = doc.get("profiles").and_then(Json::as_array) {
            for p in profiles {
                let (Some(w), Some(attributed)) = (
                    p.get("workload").and_then(Json::as_str),
                    p.get("attributed_ns").and_then(Json::as_f64),
                ) else {
                    continue;
                };
                if attributed <= 0.0 {
                    continue;
                }
                if let Some(phases) = p.get("phases").and_then(Json::as_array) {
                    for row in phases {
                        if let (Some(path), Some(ns)) = (
                            row.get("path").and_then(Json::as_str),
                            row.get("total_ns").and_then(Json::as_f64),
                        ) {
                            rows.push((format!("{w}:{path}"), ns / attributed));
                        }
                    }
                }
            }
        }
        rows
    };
    let base_phases = phase_fracs(&base);
    let cur_phases = phase_fracs(&cur);
    for (key, base_frac) in &base_phases {
        let Some((_, cur_frac)) = cur_phases.iter().find(|(k, _)| k == key) else {
            out.notes
                .push(format!("phase {key}: missing from current report"));
            continue;
        };
        out.compared += 1;
        if cur_frac - base_frac > tol {
            out.regressions.push(format!(
                "phase {key}: share grew {:.1}% -> {:.1}% (tolerance {tolerance_pct} points)",
                base_frac * 100.0,
                cur_frac * 100.0
            ));
        }
    }

    // Structural gate on the current report (baseline-independent).
    if let Some(profiles) = cur.get("profiles").and_then(Json::as_array) {
        for p in profiles {
            let workload = p
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>");
            let coverage = p.get("coverage").and_then(Json::as_f64).unwrap_or(0.0);
            out.compared += 1;
            if coverage < 0.95 {
                out.regressions.push(format!(
                    "profile {workload}: phase table covers only {:.1}% of wall time (floor 95%)",
                    coverage * 100.0
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        let stats = KernelStats {
            cycles: 1234.5,
            l1_hits: 600,
            l1_misses: 400,
            ..Default::default()
        };
        BenchReport {
            git_rev: "abc1234".to_string(),
            samples: 5,
            cells: vec![
                BenchCell::new(
                    "VecAdd",
                    "ladm",
                    "test",
                    BenchSummary {
                        min: 0.002,
                        mean: 0.0025,
                        samples: 5,
                    },
                    &stats,
                ),
                BenchCell::new(
                    "SQ-GEMM",
                    "baseline-rr",
                    "bench",
                    BenchSummary {
                        min: 0.1,
                        mean: 0.11,
                        samples: 5,
                    },
                    &stats,
                ),
            ],
            profiles: Vec::new(),
        }
    }

    fn sample_profile() -> ProfileSection {
        ProfileSection {
            workload: "VecAdd".to_string(),
            wall_ns: 1_000_000,
            attributed_ns: 970_000,
            phases: vec![
                PhaseRow {
                    path: "kernel".to_string(),
                    total_ns: 970_000,
                    self_ns: 10_000,
                    calls: 1,
                },
                PhaseRow {
                    path: "kernel;execute".to_string(),
                    total_ns: 960_000,
                    self_ns: 960_000,
                    calls: 1,
                },
                PhaseRow {
                    path: "kernel;execute;drain_serial".to_string(),
                    total_ns: 500_000,
                    self_ns: 500_000,
                    calls: 3,
                },
            ],
            counters: vec![("bw.claims".to_string(), 123)],
        }
    }

    #[test]
    fn render_roundtrips_through_validate() {
        let text = render(&sample_report());
        assert_eq!(validate(&text), Ok(2));
        let doc = Json::parse(&text).expect("render emits parsable JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let cells = doc.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(
            cells[0].get("workload").and_then(Json::as_str),
            Some("VecAdd")
        );
        assert_eq!(cells[0].get("sectors").and_then(Json::as_f64), Some(1000.0));
    }

    #[test]
    fn sectors_per_sec_uses_fastest_sample() {
        let report = sample_report();
        let cell = &report.cells[0];
        assert!((cell.sectors_per_sec() - 1000.0 / 0.002).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").unwrap_err().contains("schema"));
        let wrong_schema = r#"{"schema": "other", "git_rev": "x", "samples": 1, "cells": []}"#;
        assert!(validate(wrong_schema).unwrap_err().contains("expected"));
        let missing_field = format!(
            r#"{{"schema": "{SCHEMA}", "git_rev": "x", "samples": 1,
                "cells": [{{"workload": "w", "policy": "p", "scale": "s"}}]}}"#
        );
        assert!(validate(&missing_field).unwrap_err().contains("wall_min_s"));
        let inverted = format!(
            r#"{{"schema": "{SCHEMA}", "git_rev": "x", "samples": 1,
                "cells": [{{"workload": "w", "policy": "p", "scale": "s",
                 "wall_min_s": 2.0, "wall_mean_s": 1.0, "sim_cycles": 1,
                 "sectors": 1, "sectors_per_sec": 1}}]}}"#
        );
        assert!(validate(&inverted).unwrap_err().contains("wall_min_s"));
    }

    #[test]
    fn profile_section_roundtrips_and_validates() {
        let mut report = sample_report();
        report.profiles.push(sample_profile());
        let text = render(&report);
        assert_eq!(validate(&text), Ok(2), "{text}");
        let doc = Json::parse(&text).unwrap();
        let profiles = doc.get("profiles").and_then(Json::as_array).unwrap();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.get("workload").and_then(Json::as_str), Some("VecAdd"));
        assert_eq!(
            p.get("attributed_ns").and_then(Json::as_f64),
            Some(970_000.0)
        );
        let cov = p.get("coverage").and_then(Json::as_f64).unwrap();
        assert!((cov - 0.97).abs() < 1e-9);
        let phases = p.get("phases").and_then(Json::as_array).unwrap();
        assert_eq!(
            phases[1].get("path").and_then(Json::as_str),
            Some("kernel;execute")
        );
        assert_eq!(
            p.get("counters")
                .and_then(|c| c.get("bw.claims"))
                .and_then(Json::as_f64),
            Some(123.0)
        );
        // Reports WITHOUT the section must not carry the key at all
        // (additive-field discipline).
        assert!(!render(&sample_report()).contains("profiles"));
    }

    #[test]
    fn validate_rejects_malformed_profile_sections() {
        let mut report = sample_report();
        report.profiles.push(sample_profile());
        let text = render(&report);
        let bad_cov = text.replacen("\"coverage\": 0.97", "\"coverage\": 9.7", 1);
        assert!(validate(&bad_cov).unwrap_err().contains("coverage"));
        let bad_phase = text.replacen("\"total_ns\": 960000", "\"total_ns\": \"x\"", 1);
        assert!(validate(&bad_phase).unwrap_err().contains("total_ns"));
    }

    #[test]
    fn check_passes_within_tolerance_and_flags_regressions() {
        let mut report = sample_report();
        report.profiles.push(sample_profile());
        let baseline = render(&report);
        // Identical reports pass.
        let same = check(&baseline, &baseline, 10.0).unwrap();
        assert!(same.passed(), "{:?}", same.regressions);
        assert!(same.compared >= 4, "cells + phases compared");

        // Injected synthetic throughput regression: halve one cell's
        // sectors_per_sec (500000 = 1000/0.002).
        let slower = baseline.replacen(
            "\"sectors_per_sec\": 500000",
            "\"sectors_per_sec\": 200000",
            1,
        );
        let flagged = check(&slower, &baseline, 10.0).unwrap();
        assert!(!flagged.passed());
        assert!(
            flagged.regressions[0].contains("sectors_per_sec"),
            "{:?}",
            flagged.regressions
        );
        // The same delta passes under a huge tolerance.
        assert!(check(&slower, &baseline, 80.0).unwrap().passed());

        // Phase-share regression: the execute phase balloons from 96%
        // to ~99% of attributed time... simulate by shrinking
        // attributed_ns in the baseline copy (share = total/attributed).
        let fatter = baseline.replacen("\"total_ns\": 960000", "\"total_ns\": 969999", 1);
        let phase_flagged = check(&fatter, &baseline, 0.5).unwrap();
        assert!(!phase_flagged.passed());
        assert!(
            phase_flagged.regressions[0].contains("share grew"),
            "{:?}",
            phase_flagged.regressions
        );

        // Improvements and one-sided cells are notes, not failures.
        let faster = baseline.replacen(
            "\"sectors_per_sec\": 500000",
            "\"sectors_per_sec\": 900000",
            1,
        );
        let improved = check(&faster, &baseline, 10.0).unwrap();
        assert!(improved.passed());
        assert!(improved.notes.iter().any(|n| n.contains("improved")));

        // Invalid inputs error out rather than passing silently.
        assert!(check("not json", &baseline, 10.0).is_err());
        assert!(check(&baseline, "{}", 10.0).is_err());
    }

    #[test]
    fn check_structural_gates_bind_on_the_current_report() {
        let mut report = sample_report();
        report.profiles.push(sample_profile());
        let good = render(&report);
        // Self-comparison isolates the baseline-independent gates.
        assert!(check(&good, &good, 10.0).unwrap().passed());

        // A phase table covering less than 95% of wall time fails.
        let low_cov = good.replacen("\"coverage\": 0.97", "\"coverage\": 0.8", 1);
        let flagged = check(&low_cov, &low_cov, 10.0).unwrap();
        assert!(!flagged.passed());
        assert!(
            flagged
                .regressions
                .iter()
                .any(|r| r.contains("covers only")),
            "{:?}",
            flagged.regressions
        );
    }

    #[test]
    fn render_escapes_strings() {
        let mut report = sample_report();
        report.git_rev = "a\"b".to_string();
        let text = render(&report);
        let doc = Json::parse(&text).expect("escaped output parses");
        assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn every_truncation_errors_and_never_panics() {
        // Chop the rendered report at every byte boundary: each strict
        // prefix must come back as a clean Err, not a panic and not a
        // silently-accepted partial report.
        let text = render(&sample_report());
        let full = text.trim_end();
        assert_eq!(validate(full), Ok(2));
        for cut in 0..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let prefix = &full[..cut];
            assert!(
                validate(prefix).is_err(),
                "truncation at byte {cut} validated: {prefix:?}"
            );
        }
    }

    #[test]
    fn future_schema_version_is_rejected() {
        let bumped = render(&sample_report()).replace(SCHEMA, "ladm-bench-v2");
        let err = validate(&bumped).unwrap_err();
        assert!(err.contains("ladm-bench-v2"), "err = {err}");
        assert!(err.contains(SCHEMA), "err = {err}");
    }

    #[test]
    fn unknown_fields_are_additive() {
        // Forward compatibility: readers of v1 must tolerate fields a
        // newer writer added, both at the top level and inside cells.
        let text = render(&sample_report());
        let with_top = text.replacen(
            "\"samples\":",
            "\"future_top_level\": {\"nested\": [1, 2]}, \"samples\":",
            1,
        );
        assert_eq!(validate(&with_top), Ok(2));
        let with_cell = text.replace(
            "\"workload\":",
            "\"future_cell_field\": true, \"workload\":",
        );
        assert_eq!(validate(&with_cell), Ok(2));
        // Profile sections tolerate them too: older reports carry a
        // per-profile worker `utilization` block that is no longer read.
        let mut report = sample_report();
        report.profiles.push(sample_profile());
        let legacy = render(&report).replacen(
            "\"wall_ns\":",
            "\"utilization\": {\"workers\": 4}, \"wall_ns\":",
            1,
        );
        assert_eq!(validate(&legacy), Ok(2));
    }

    #[test]
    fn wrong_field_types_are_rejected() {
        let text = render(&sample_report());
        // 'samples' as a string.
        let bad_samples = text.replacen("\"samples\": 5", "\"samples\": \"5\"", 1);
        assert!(validate(&bad_samples).unwrap_err().contains("samples"));
        // 'cells' as an object.
        let bad_cells =
            format!(r#"{{"schema": "{SCHEMA}", "git_rev": "x", "samples": 1, "cells": {{}}}}"#);
        assert!(validate(&bad_cells).unwrap_err().contains("cells"));
        // A cell's workload as a number.
        let bad_workload = text.replacen("\"workload\": \"VecAdd\"", "\"workload\": 7", 1);
        assert!(validate(&bad_workload).unwrap_err().contains("workload"));
    }
}
