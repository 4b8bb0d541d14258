//! The evaluation suite: the 27 scalable workloads of Table IV with their
//! locality-group metadata.

use crate::expect::{SiteExpectation, Waiver};
use crate::spec::Scale;
use crate::{attention, irregular, regular};
use ladm_sim::KernelExec;
use std::fmt;

/// Table IV's workload grouping (the x-axis clusters of Figures 9/10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// No datablock-locality (stencils, streaming, strided kernels).
    NoLocality,
    /// Row/column locality (convolution, transforms, GEMM family).
    RowCol,
    /// Intra-thread locality (graphs, sparse, random streams).
    IntraThread,
    /// Unclassifiable index patterns.
    Unclassified,
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadKind::NoLocality => write!(f, "NL"),
            WorkloadKind::RowCol => write!(f, "RCL"),
            WorkloadKind::IntraThread => write!(f, "ITL"),
            WorkloadKind::Unclassified => write!(f, "Unclassified"),
        }
    }
}

/// A named benchmark: one or more kernels executed back to back.
pub struct Workload {
    /// Display name (Table IV spelling).
    pub name: &'static str,
    /// Locality group.
    pub kind: WorkloadKind,
    /// Kernels in execution order.
    pub kernels: Vec<Box<dyn KernelExec>>,
    /// Expected Table II row of every access site (linter ground truth).
    pub expectations: Vec<SiteExpectation>,
    /// Documented acknowledgements suppressing specific lint warnings.
    pub waivers: Vec<Waiver>,
}

impl Workload {
    /// Creates a workload.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn new(name: &'static str, kind: WorkloadKind, kernels: Vec<Box<dyn KernelExec>>) -> Self {
        assert!(!kernels.is_empty(), "a workload needs at least one kernel");
        Workload {
            name,
            kind,
            kernels,
            expectations: Vec::new(),
            waivers: Vec::new(),
        }
    }

    /// Declares the expected Table II row of every access site of
    /// `kernel`: one inner slice per argument, one row per access site,
    /// in declaration order.
    pub fn expect_rows(mut self, kernel: &'static str, rows: &[&[u8]]) -> Self {
        for (arg, sites) in rows.iter().enumerate() {
            for (site, &row) in sites.iter().enumerate() {
                assert!((1..=7).contains(&row), "Table II rows are 1-7");
                self.expectations.push(SiteExpectation {
                    kernel,
                    arg,
                    site,
                    row,
                    reason: None,
                });
            }
        }
        self
    }

    /// Documents why a site declared row 7 by [`expect_rows`]
    /// (Self::expect_rows) is expected to be unclassifiable. The linter
    /// requires a reason for every expected row-7 site.
    ///
    /// # Panics
    ///
    /// Panics if no row-7 expectation exists for the site.
    pub fn expect_unclassified(
        mut self,
        kernel: &'static str,
        arg: usize,
        site: usize,
        reason: &'static str,
    ) -> Self {
        let e = self
            .expectations
            .iter_mut()
            .find(|e| e.kernel == kernel && e.arg == arg && e.site == site)
            .unwrap_or_else(|| panic!("no expectation for {kernel} arg {arg} site {site}"));
        assert_eq!(e.row, 7, "expect_unclassified needs a row-7 expectation");
        e.reason = Some(reason);
        self
    }

    /// Acknowledges that `kernel`'s argument `arg` intentionally indexes
    /// past its allocation edge (stencil halo, lagged re-read).
    pub fn allow_halo(mut self, kernel: &'static str, arg: usize, reason: &'static str) -> Self {
        self.waivers.push(Waiver::Halo {
            kernel,
            arg,
            reason,
        });
        self
    }

    /// Acknowledges `kernel`'s equal-size scheduler-preference tie and
    /// documents why the order-dependent tie-break is acceptable.
    pub fn ack_tie(mut self, kernel: &'static str, reason: &'static str) -> Self {
        self.waivers.push(Waiver::TieBreak { kernel, reason });
        self
    }

    /// Looks up the declared expectation for one access site.
    pub fn expectation(&self, kernel: &str, arg: usize, site: usize) -> Option<&SiteExpectation> {
        self.expectations
            .iter()
            .find(|e| e.kernel == kernel && e.arg == arg && e.site == site)
    }

    /// The halo waiver for `(kernel, arg)`, if any.
    pub fn halo_waiver(&self, kernel: &str, arg: usize) -> Option<&'static str> {
        self.waivers.iter().find_map(|w| match w {
            Waiver::Halo {
                kernel: k,
                arg: a,
                reason,
            } if *k == kernel && *a == arg => Some(*reason),
            _ => None,
        })
    }

    /// The tie-break waiver for `kernel`, if any.
    pub fn tie_waiver(&self, kernel: &str) -> Option<&'static str> {
        self.waivers.iter().find_map(|w| match w {
            Waiver::TieBreak { kernel: k, reason } if *k == kernel => Some(*reason),
            _ => None,
        })
    }

    /// Total input footprint in bytes (sum of the first kernel's
    /// allocations — Table IV's "Input Size" column).
    pub fn input_bytes(&self) -> u64 {
        let launch = self.kernels[0].launch();
        (0..launch.kernel.args.len())
            .map(|i| launch.arg_bytes(i))
            .sum()
    }

    /// Threadblock dimensions of the dominant kernel.
    pub fn tb_dim(&self) -> (u32, u32) {
        self.kernels[0].launch().block
    }

    /// Launched threadblocks of the dominant kernel.
    pub fn launched_tbs(&self) -> u64 {
        self.kernels[0].launch().total_tbs()
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("kernels", &self.kernels.len())
            .finish()
    }
}

/// A named workload constructor.
type Entry = (&'static str, fn(Scale) -> Workload);

/// Every workload [`by_name`] can build, each once: the 27 Table IV
/// workloads in Table IV (Figure 9) order, then the attention/KV decode
/// family. [`suite`], [`crate::attention::attention`] and [`by_name`]
/// all read this table.
pub(crate) const TABLE: [Entry; SUITE_LEN + 5] = [
    ("VecAdd", regular::vecadd),
    ("SRAD", regular::srad),
    ("HS", regular::hs),
    ("ScalarProd", regular::scalarprod),
    ("BLK", regular::blk),
    ("Histo-final", regular::histo_final),
    ("Reduction-k6", regular::reduction),
    ("Hotspot3D", regular::hotspot3d),
    ("CONV", regular::conv),
    ("Histo-main", regular::histo_main),
    ("FWT-k2", regular::fwt_k2),
    ("SQ-GEMM", regular::sq_gemm),
    ("Alexnet-FC-2", regular::alexnet_fc2),
    ("VGGnet-FC-2", regular::vggnet_fc2),
    ("Resnet-50-FC", regular::resnet_fc),
    ("LSTM-1", regular::lstm1),
    ("LSTM-2", regular::lstm2),
    ("TRA", regular::tra),
    ("PageRank", irregular::pagerank),
    ("BFS-relax", irregular::bfs),
    ("SSSP", irregular::sssp),
    ("Random-loc", regular::random_loc),
    ("Kmeans-noTex", regular::kmeans),
    ("SpMV-jds", irregular::spmv_jds),
    ("B+tree", regular::btree),
    ("LBM", regular::lbm),
    ("StreamCluster", regular::streamcluster),
    ("KVAppend", attention::kv_append),
    ("AttnQK", attention::attn_qk),
    ("AttnSoftmax", attention::attn_softmax),
    ("AttnPV", attention::attn_pv),
    ("AttnDecode", attention::attn_decode),
];

/// Number of Table IV entries at the head of [`TABLE`].
pub(crate) const SUITE_LEN: usize = 27;

/// Builds the full 27-workload suite in Table IV order.
pub fn suite(scale: Scale) -> Vec<Workload> {
    TABLE[..SUITE_LEN].iter().map(|(_, f)| f(scale)).collect()
}

/// Looks a workload up by name (case-insensitive) — the Table IV suite
/// plus the attention/KV decode family ([`mod@crate::attention`]). Builds
/// only the workload it returns.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    TABLE
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, f)| f(scale))
}

/// The machine-learning GEMM subset used by the §IV-C DGX-1 validation.
pub fn dl_gemms(scale: Scale) -> Vec<Workload> {
    vec![
        regular::alexnet_fc2(scale),
        regular::vggnet_fc2(scale),
        regular::resnet_fc(scale),
        regular::lstm1(scale),
        regular::lstm2(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_27_workloads() {
        assert_eq!(suite(Scale::Test).len(), 27);
    }

    #[test]
    fn names_are_unique() {
        let s = suite(Scale::Test);
        let mut names: Vec<&str> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 27);
    }

    #[test]
    fn group_counts_match_table_iv() {
        let s = suite(Scale::Test);
        let count = |k: WorkloadKind| s.iter().filter(|w| w.kind == k).count();
        assert_eq!(count(WorkloadKind::NoLocality), 8);
        assert_eq!(count(WorkloadKind::RowCol), 10);
        assert_eq!(count(WorkloadKind::IntraThread), 6);
        assert_eq!(count(WorkloadKind::Unclassified), 3);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert!(by_name("sq-gemm", Scale::Test).is_some());
        assert!(by_name("VECADD", Scale::Test).is_some());
        assert!(by_name("nope", Scale::Test).is_none());
        assert!(by_name("", Scale::Test).is_none());
        for (name, _) in TABLE {
            for spelling in [name.to_ascii_lowercase(), name.to_ascii_uppercase()] {
                let w = by_name(&spelling, Scale::Test).unwrap();
                assert_eq!(w.name, name, "{spelling}");
            }
        }
    }

    /// The Figure 9 lineup and `tests/fixtures/stats_digest.txt` are
    /// keyed on this exact order.
    #[test]
    fn suite_order_is_table_iv_order() {
        let names: Vec<&str> = suite(Scale::Test).iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "VecAdd",
                "SRAD",
                "HS",
                "ScalarProd",
                "BLK",
                "Histo-final",
                "Reduction-k6",
                "Hotspot3D",
                "CONV",
                "Histo-main",
                "FWT-k2",
                "SQ-GEMM",
                "Alexnet-FC-2",
                "VGGnet-FC-2",
                "Resnet-50-FC",
                "LSTM-1",
                "LSTM-2",
                "TRA",
                "PageRank",
                "BFS-relax",
                "SSSP",
                "Random-loc",
                "Kmeans-noTex",
                "SpMV-jds",
                "B+tree",
                "LBM",
                "StreamCluster",
            ]
        );
        let names: Vec<&str> = crate::attention(Scale::Test)
            .iter()
            .map(|w| w.name)
            .collect();
        assert_eq!(
            names,
            ["KVAppend", "AttnQK", "AttnSoftmax", "AttnPV", "AttnDecode"]
        );
    }

    #[test]
    fn table_names_match_constructors() {
        for scale in [Scale::Test, Scale::Bench] {
            for (name, f) in TABLE {
                assert_eq!(f(scale).name, name, "{scale:?}");
            }
        }
    }

    /// `by_name` builds the same workload as the list entry of the same
    /// name: geometry, argument sizes, trip counts and the first warp's
    /// accesses of every kernel.
    #[test]
    fn by_name_matches_list_entries() {
        let bytes = |l: &ladm_core::launch::LaunchInfo| -> Vec<u64> {
            (0..l.kernel.args.len()).map(|i| l.arg_bytes(i)).collect()
        };
        for scale in [Scale::Test, Scale::Bench] {
            for listed in suite(scale).into_iter().chain(crate::attention(scale)) {
                let found = by_name(listed.name, scale).unwrap();
                assert_eq!(found.name, listed.name);
                assert_eq!(found.kernels.len(), listed.kernels.len(), "{}", listed.name);
                for (a, b) in found.kernels.iter().zip(&listed.kernels) {
                    let (la, lb) = (a.launch(), b.launch());
                    assert_eq!(la.grid, lb.grid, "{}", listed.name);
                    assert_eq!(la.block, lb.block, "{}", listed.name);
                    assert_eq!(bytes(la), bytes(lb), "{}", listed.name);
                    assert_eq!(a.trips(), b.trips(), "{}", listed.name);
                    let (mut wa, mut wb) = (Vec::new(), Vec::new());
                    a.warp_accesses((0, 0), 0, 0, &mut wa);
                    b.warp_accesses((0, 0), 0, 0, &mut wb);
                    assert!(!wa.is_empty(), "{}", listed.name);
                    assert_eq!(wa, wb, "{}", listed.name);
                }
            }
        }
    }

    #[test]
    fn metadata_accessors_are_sane() {
        for w in suite(Scale::Test) {
            assert!(w.input_bytes() > 0, "{}", w.name);
            assert!(w.launched_tbs() > 0, "{}", w.name);
            let (x, y) = w.tb_dim();
            assert!(x * y >= 32, "{} block too small", w.name);
            assert!(x * y <= 1024, "{} block too large", w.name);
        }
    }

    #[test]
    fn bench_scale_is_larger_than_test() {
        let t = by_name("VecAdd", Scale::Test).unwrap();
        let b = by_name("VecAdd", Scale::Bench).unwrap();
        assert!(b.launched_tbs() > t.launched_tbs());
        assert!(b.input_bytes() > t.input_bytes());
    }

    #[test]
    fn dl_subset_is_all_rcl() {
        let dl = dl_gemms(Scale::Test);
        assert_eq!(dl.len(), 5);
        assert!(dl.iter().all(|w| w.kind == WorkloadKind::RowCol));
    }
}
