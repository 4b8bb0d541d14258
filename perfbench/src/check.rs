//! The correctness check: every cell's full `Debug` rendering of its
//! statistics against a recorded digest, plus seed-independent
//! invariants, with panics and mismatches counted as failed cells.

use crate::cells::{Outcome, WorkloadId, DEFAULT_SEED};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// The repository's golden digest of the suite under Baseline-RR and
/// LADM. Read only.
pub const SUITE_FIXTURE: &str = "tests/fixtures/stats_digest.txt";

/// The benchmark's own digests, one file per workload.
pub fn own_digest_path(root: &Path, workload: WorkloadId) -> PathBuf {
    root.join("perfbench/digests")
        .join(format!("{}.txt", workload.name()))
}

/// The digest key of a line: everything before the statistics.
fn key_of(line: &str) -> Option<&str> {
    [" KernelStats {", " SessionRunStats {"]
        .iter()
        .filter_map(|marker| line.find(marker))
        .min()
        .map(|end| &line[..end])
}

/// Reference lines by digest key.
#[derive(Debug, Default)]
pub struct References {
    lines: HashMap<String, String>,
}

impl References {
    /// Adds every keyed line of `text`.
    pub fn add_text(&mut self, text: &str) {
        for line in text.lines() {
            if let Some(key) = key_of(line) {
                self.lines.insert(key.to_string(), line.to_string());
            }
        }
    }

    /// Whether `key` has a reference line.
    pub fn contains(&self, key: &str) -> bool {
        self.lines.contains_key(key)
    }

    /// Loads the references of `workload` under `root`, or `None` when
    /// `seed` generates inputs no digest was recorded for.
    ///
    /// # Errors
    ///
    /// A reference file that cannot be read.
    pub fn load(root: &Path, workload: WorkloadId, seed: u64) -> Result<Option<Self>, String> {
        if workload.seed_shapes_inputs() && seed != DEFAULT_SEED {
            return Ok(None);
        }
        let read = |path: PathBuf| {
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        let mut refs = References::default();
        if workload == WorkloadId::SuiteTest {
            refs.add_text(&read(root.join(SUITE_FIXTURE))?);
        }
        refs.add_text(&read(own_digest_path(root, workload))?);
        Ok(Some(refs))
    }
}

/// Checks one cell's outcome.
///
/// # Errors
///
/// The first broken invariant or digest mismatch, described.
pub fn check(out: &Outcome, refs: Option<&References>) -> Result<(), String> {
    let by_arg: u64 = out.stats.offnode_by_arg.iter().sum();
    if by_arg != out.stats.sectors_offnode {
        return Err(format!(
            "offnode_by_arg sums to {by_arg}, sectors_offnode is {}",
            out.stats.sectors_offnode
        ));
    }
    if out.stats.threadblocks != out.launched_tbs {
        return Err(format!(
            "{} threadblocks ran, {} were launched",
            out.stats.threadblocks, out.launched_tbs
        ));
    }
    let Some(refs) = refs else { return Ok(()) };
    for (key, line) in &out.lines {
        match refs.lines.get(key) {
            None => return Err(format!("no reference digest for {key}")),
            Some(want) if want != line => {
                return Err(format!("digest mismatch\n got: {line}\nwant: {want}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// Cells attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Cells run.
    pub attempted: u64,
    /// Cells that panicked or failed [`check`].
    pub failed: u64,
}

impl Tally {
    /// Runs one cell under `catch_unwind` and checks it; a panic or a
    /// failed check counts as one failed cell. Returns the outcome of a
    /// cell that passed.
    pub fn attempt(
        &mut self,
        label: &str,
        refs: Option<&References>,
        cell: impl FnOnce() -> Outcome,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let out = cell();
            check(&out, refs).map(|()| out)
        }));
        match result {
            Ok(Ok(out)) => Some(out),
            Ok(Err(why)) => {
                eprintln!("FAILED {label}: {why}");
                self.failed += 1;
                None
            }
            Err(_) => {
                eprintln!("FAILED {label}: panicked");
                self.failed += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_sim::KernelStats;

    fn outcome(cycles: f64) -> Outcome {
        let stats = KernelStats {
            cycles,
            threadblocks: 4,
            ..KernelStats::default()
        };
        Outcome {
            lines: vec![("W LADM".into(), format!("W LADM {stats:?}"))],
            stats,
            launched_tbs: 4,
            replaced_pages: 0,
        }
    }

    fn refs_for(out: &Outcome) -> References {
        let mut refs = References::default();
        refs.add_text(&out.lines[0].1);
        refs
    }

    #[test]
    fn matching_digest_passes() {
        let refs = refs_for(&outcome(10.0));
        let mut tally = Tally::default();
        assert!(tally.attempt("W", Some(&refs), || outcome(10.0)).is_some());
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
    }

    #[test]
    fn digest_mismatch_counts_as_a_failed_cell() {
        let refs = refs_for(&outcome(10.0));
        let mut tally = Tally::default();
        assert!(tally.attempt("W", Some(&refs), || outcome(10.5)).is_none());
        assert!(tally.attempt("W", Some(&refs), || outcome(10.0)).is_some());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn missing_reference_and_panic_count_as_failed_cells() {
        let mut tally = Tally::default();
        let empty = References::default();
        assert!(tally.attempt("W", Some(&empty), || outcome(1.0)).is_none());
        assert!(tally
            .attempt("W", None, || panic!("cell blew up"))
            .is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }

    #[test]
    fn broken_invariants_fail_without_references() {
        let mut tbs = outcome(1.0);
        tbs.launched_tbs = 5;
        assert!(check(&tbs, None).unwrap_err().contains("threadblocks"));
        let mut offnode = outcome(1.0);
        offnode.stats.offnode_by_arg = vec![3];
        assert!(check(&offnode, None)
            .unwrap_err()
            .contains("offnode_by_arg"));
        assert!(check(&outcome(1.0), None).is_ok());
    }

    #[test]
    fn keys_stop_before_the_statistics() {
        assert_eq!(
            key_of("VecAdd LADM KernelStats { cycles: 1.0 }"),
            Some("VecAdd LADM")
        );
        assert_eq!(
            key_of("pinned step0 kv_append SessionRunStats { stats: KernelStats { } }"),
            Some("pinned step0 kv_append")
        );
        assert_eq!(key_of("no statistics here"), None);
    }
}
