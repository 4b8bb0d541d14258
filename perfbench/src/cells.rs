//! The four workloads: their cells, the inputs a seed generates for
//! them, and how one cell runs against the simulator's public API.
//!
//! A cell is one (workload, policy) pair: build the workload, build a
//! fresh machine, run every launch. It is the unit the closed loop
//! times and the unit the correctness check passes or fails.

use crate::trace::Tracer;
use ladm_core::policies::{registry, Lasp, Policy};
use ladm_core::rng::SplitMix64;
use ladm_core::{LaunchInfo, LaunchSequence, PlacementSession};
use ladm_sim::{GpuSystem, KernelExec, KernelStats, SimConfig};
use ladm_workloads::irregular::CsrKernel;
use ladm_workloads::{attn_decode, by_name, suite, Csr, Scale};

/// The seed whose graph inputs are the suite's own (seeds 11/22/33/44),
/// so that its cells can be checked against recorded digests.
pub const DEFAULT_SEED: u64 = 0;

/// Decode steps per session cell: 8 steps of 4 launches each.
pub const DECODE_STEPS: usize = 8;

/// Scale of the decode session's workload.
const DECODE_SCALE: Scale = Scale::Bench;

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// The 27 Table IV workloads at test scale under the Figure 9 lineup.
    SuiteTest,
    /// Bench-scale GEMM-family workloads (affine generator, L2 reuse).
    GemmBench,
    /// Bench-scale CSR graphs generated from the seed.
    GraphBench,
    /// Bench-scale attention decode through a placement session.
    DecodeSession,
}

impl WorkloadId {
    /// Every workload, in presentation order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::SuiteTest,
        WorkloadId::GemmBench,
        WorkloadId::GraphBench,
        WorkloadId::DecodeSession,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SuiteTest => "suite-test",
            WorkloadId::GemmBench => "gemm-bench",
            WorkloadId::GraphBench => "graph-bench",
            WorkloadId::DecodeSession => "decode-session",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the seed changes the simulated inputs (and not only the
    /// order cells run in).
    pub fn seed_shapes_inputs(self) -> bool {
        self == WorkloadId::GraphBench
    }
}

/// One graph shape of `graph-bench`, with the suite's parameters for it
/// (`ladm_workloads::irregular`).
#[derive(Debug, Clone, Copy)]
pub struct GraphShape {
    /// Workload name (Table IV spelling).
    pub name: &'static str,
    kernel: &'static str,
    full_nodes: u32,
    avg_degree: u32,
    bdx: u32,
    has_vals: bool,
    suite_seed: u64,
}

/// PageRank, BFS-relax, SSSP and SpMV-jds, as the suite builds them.
pub const GRAPHS: [GraphShape; 4] = [
    GraphShape {
        name: "PageRank",
        kernel: "pagerank",
        full_nodes: 98_304,
        avg_degree: 10,
        bdx: 128,
        has_vals: false,
        suite_seed: 11,
    },
    GraphShape {
        name: "BFS-relax",
        kernel: "bfs_relax",
        full_nodes: 131_072,
        avg_degree: 8,
        bdx: 256,
        has_vals: false,
        suite_seed: 22,
    },
    GraphShape {
        name: "SSSP",
        kernel: "sssp",
        full_nodes: 65_536,
        avg_degree: 12,
        bdx: 64,
        has_vals: true,
        suite_seed: 33,
    },
    GraphShape {
        name: "SpMV-jds",
        kernel: "spmv_jds",
        full_nodes: 65_536,
        avg_degree: 24,
        bdx: 32,
        has_vals: true,
        suite_seed: 44,
    },
];

impl GraphShape {
    /// The graph generator's seed for benchmark seed `seed`; the default
    /// seed gives the suite's own.
    pub fn csr_seed(&self, seed: u64) -> u64 {
        self.suite_seed
            .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Generates this shape's graph input at `scale` for seed `seed`.
    pub fn input(&self, scale: Scale, seed: u64) -> Csr {
        let nodes = (self.full_nodes / scale.divisor()).max(16_384);
        Csr::synthetic(nodes, self.avg_degree, 64, self.csr_seed(seed))
    }

    /// The one-kernel workload over `graph`.
    pub fn kernels(&self, graph: Csr) -> Vec<Box<dyn KernelExec>> {
        vec![Box::new(CsrKernel::new(
            self.kernel,
            graph,
            self.bdx,
            32,
            1,
            self.has_vals,
        ))]
    }
}

/// What a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A suite or attention workload, built by name.
    Named(&'static str, Scale),
    /// `GRAPHS[i]` over the seed's generated input.
    Graph(usize),
    /// `DECODE_STEPS` attention decode steps through one placement
    /// session, pinned or replanned every launch.
    Decode {
        /// Whether launches adopt committed placements.
        pinning: bool,
    },
}

/// One (workload, policy) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// What runs.
    pub subject: Subject,
    /// Registry name of the policy (`LADM` for decode sessions).
    pub policy: &'static str,
}

impl Cell {
    /// Display label, also the digest key of one-line cells.
    pub fn label(&self) -> String {
        match self.subject {
            Subject::Named(name, _) => format!("{name} {}", self.policy),
            Subject::Graph(i) => format!("{} {}", GRAPHS[i].name, self.policy),
            Subject::Decode { pinning } => mode_name(pinning).to_string(),
        }
    }

    /// Whether the cell counts towards the LADM simulated metrics. On a
    /// decode session that is the pinned session.
    pub fn is_ladm(&self) -> bool {
        match self.subject {
            Subject::Decode { pinning } => pinning,
            _ => self.policy == "LADM",
        }
    }
}

fn mode_name(pinning: bool) -> &'static str {
    if pinning {
        "pinned"
    } else {
        "replanned"
    }
}

fn grid(subjects: &[Subject], policies: &[&'static str]) -> Vec<Cell> {
    subjects
        .iter()
        .flat_map(|&subject| policies.iter().map(move |&policy| Cell { subject, policy }))
        .collect()
}

/// The workload's cells in canonical order.
pub fn cells(workload: WorkloadId) -> Vec<Cell> {
    match workload {
        WorkloadId::SuiteTest => {
            let names: Vec<Subject> = suite(Scale::Test)
                .iter()
                .map(|w| Subject::Named(w.name, Scale::Test))
                .collect();
            grid(&names, &["Baseline-RR", "Batch+FT", "H-CODA", "LADM"])
        }
        WorkloadId::GemmBench => grid(
            &["SQ-GEMM", "Resnet-50-FC", "LSTM-1"].map(|n| Subject::Named(n, Scale::Bench)),
            &["Baseline-RR", "H-CODA", "LADM"],
        ),
        WorkloadId::GraphBench => grid(
            &[0, 1, 2, 3].map(Subject::Graph),
            &["Batch+FT", "H-CODA", "LADM"],
        ),
        WorkloadId::DecodeSession => [true, false]
            .map(|pinning| Cell {
                subject: Subject::Decode { pinning },
                policy: "LADM",
            })
            .to_vec(),
    }
}

/// The cell whose access stream the traced run replays layer by layer:
/// one with both off-node traffic and link claims.
pub fn replay_cell(workload: WorkloadId) -> Cell {
    let named = |name, scale| Subject::Named(name, scale);
    match workload {
        WorkloadId::SuiteTest => Cell {
            subject: named("SQ-GEMM", Scale::Test),
            policy: "Baseline-RR",
        },
        WorkloadId::GemmBench => Cell {
            subject: named("Resnet-50-FC", Scale::Bench),
            policy: "Baseline-RR",
        },
        WorkloadId::GraphBench => Cell {
            subject: Subject::Graph(0),
            policy: "Batch+FT",
        },
        // One decode step's launches, planned by LADM and run statelessly.
        WorkloadId::DecodeSession => Cell {
            subject: named("AttnDecode", Scale::Bench),
            policy: "LADM",
        },
    }
}

/// Shuffles `cells` in place (Fisher–Yates) from `rng`.
pub fn shuffle(cells: &mut [Cell], rng: &mut SplitMix64) {
    for i in (1..cells.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        cells.swap(i, j);
    }
}

/// Everything a cell needs that set-up prepares once.
#[derive(Debug)]
pub struct Inputs {
    /// The simulated machine.
    pub cfg: SimConfig,
    /// `graph-bench` inputs, one per [`GRAPHS`] entry (empty elsewhere).
    graphs: Vec<Csr>,
    policies: Vec<(&'static str, Box<dyn Policy>)>,
}

impl Inputs {
    /// Builds the inputs of `workload` for `seed`.
    pub fn new(workload: WorkloadId, seed: u64) -> Self {
        let graphs = if workload == WorkloadId::GraphBench {
            GRAPHS.iter().map(|g| g.input(Scale::Bench, seed)).collect()
        } else {
            Vec::new()
        };
        let policies = ["Baseline-RR", "Batch+FT", "H-CODA", "LADM"]
            .map(|name| {
                let policy = registry::build(name)
                    .unwrap_or_else(|| panic!("policy {name} is not in the registry"));
                (name, policy)
            })
            .into_iter()
            .collect();
        Inputs {
            cfg: SimConfig::paper_multi_gpu(),
            graphs,
            policies,
        }
    }

    /// The policy registered as `name`.
    pub fn policy(&self, name: &str) -> &dyn Policy {
        let (_, p) = self
            .policies
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("policy {name} was not prepared"));
        &**p
    }

    /// Builds the kernels `subject` runs; for a decode session, the
    /// launches of one step.
    pub fn kernels(&self, subject: Subject) -> Vec<Box<dyn KernelExec>> {
        match subject {
            Subject::Named(name, scale) => {
                by_name(name, scale)
                    .unwrap_or_else(|| panic!("unknown workload {name}"))
                    .kernels
            }
            Subject::Graph(i) => GRAPHS[i].kernels(self.graphs[i].clone()),
            Subject::Decode { .. } => attn_decode(DECODE_SCALE).kernels,
        }
    }
}

/// What one cell produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Statistics accumulated over every launch of the cell.
    pub stats: KernelStats,
    /// `(digest key, full Debug line)` per checked result.
    pub lines: Vec<(String, String)>,
    /// Threadblocks the cell launched.
    pub launched_tbs: u64,
    /// Already-placed pages that session launches moved.
    pub replaced_pages: u64,
}

fn launched_tbs(kernels: &[Box<dyn KernelExec>]) -> u64 {
    kernels
        .iter()
        .map(|k| {
            let (x, y) = k.launch().grid;
            u64::from(x) * u64::from(y)
        })
        .sum()
}

/// Runs one cell. Spans go to `tr` when it is on; the traced run then
/// also times the calls the simulator makes internally (`Policy::plan`,
/// `GpuSystem::flush`) by making them once more from here.
pub fn run_cell(inputs: &Inputs, cell: Cell, tr: &mut Tracer) -> Outcome {
    if let Subject::Decode { pinning } = cell.subject {
        return run_decode(inputs, DECODE_SCALE, pinning, DECODE_STEPS, tr);
    }
    let kernels = tr.call("workloads.build", || inputs.kernels(cell.subject));
    let policy = inputs.policy(cell.policy);
    let mut sys = tr.call("sim.new", || GpuSystem::new(inputs.cfg.clone()));
    if tr.enabled() && cell.is_ladm() {
        // The placement session's cost over the same launches.
        let seq = LaunchSequence::new(kernels.iter().map(|k| k.launch().clone()).collect());
        let mut session = PlacementSession::new(inputs.cfg.topology, Lasp::ladm());
        tr.call("core.session_plan", || session.plan_sequence(&seq));
    }
    let mut stats = KernelStats::default();
    for kernel in &kernels {
        if tr.enabled() {
            tr.call("core.plan", || {
                policy.plan(kernel.launch(), &inputs.cfg.topology)
            });
        }
        let run = tr.call("sim.run", || sys.run(&**kernel, policy));
        if tr.enabled() {
            tr.call("sim.flush", || sys.flush());
        }
        stats.accumulate(&run);
    }
    let label = cell.label();
    Outcome {
        lines: vec![(label.clone(), format!("{label} {stats:?}"))],
        launched_tbs: launched_tbs(&kernels),
        stats,
        replaced_pages: 0,
    }
}

/// `steps` decode steps at `scale` through one [`PlacementSession`]
/// and one machine whose page homes persist across every launch.
pub fn run_decode(
    inputs: &Inputs,
    scale: Scale,
    pinning: bool,
    steps: usize,
    tr: &mut Tracer,
) -> Outcome {
    let kernels = tr.call("workloads.build", || attn_decode(scale).kernels);
    let mut sys = tr.call("sim.new", || GpuSystem::new(inputs.cfg.clone()));
    let mut session = PlacementSession::new(inputs.cfg.topology, Lasp::ladm());
    if !pinning {
        session = session.without_pinning();
    }
    let launches: Vec<LaunchInfo> = kernels.iter().map(|k| k.launch().clone()).collect();
    let mode = mode_name(pinning);
    let mut out = Outcome::default();
    let mut pool: Option<Vec<(u64, u32)>> = None;
    for step in 0..steps {
        let seq = LaunchSequence::new(launches.clone());
        let plans = tr.call("core.session_plan", || session.plan_sequence(&seq));
        let shape: Vec<(u64, u32)> = session
            .allocations()
            .iter()
            .map(|&(_, bytes, elem_bytes)| (bytes, elem_bytes))
            .collect();
        match &pool {
            None => {
                sys.begin_session(&shape);
                pool = Some(shape);
            }
            Some(seeded) => assert_eq!(
                seeded, &shape,
                "a decode step changed the session's allocation pool"
            ),
        }
        for (kernel, plan) in kernels.iter().zip(&plans) {
            if tr.enabled() {
                // What a stateless launch would pay to plan instead.
                let ladm = inputs.policy("LADM");
                tr.call("core.plan", || {
                    ladm.plan(kernel.launch(), &inputs.cfg.topology)
                });
            }
            let run = tr.call("sim.run", || sys.run_session(&**kernel, plan));
            if tr.enabled() {
                tr.call("sim.flush", || sys.flush());
            }
            let key = format!("{mode} step{step} {}", kernel.launch().kernel.name);
            out.lines.push((key.clone(), format!("{key} {run:?}")));
            out.stats.accumulate(&run.stats);
            out.replaced_pages += run.replaced_pages;
        }
    }
    out.launched_tbs = launched_tbs(&kernels) * steps as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_graph_inputs() {
        for shape in &GRAPHS {
            let a = shape.input(Scale::Test, 7);
            let b = shape.input(Scale::Test, 7);
            assert_eq!(a.row_ptr, b.row_ptr, "{}", shape.name);
            assert_eq!(a.col, b.col, "{}", shape.name);
            let other = shape.input(Scale::Test, 8);
            assert_ne!(
                a.col, other.col,
                "{}: another seed, another graph",
                shape.name
            );
        }
    }

    #[test]
    fn default_seed_reproduces_the_suite_graphs() {
        let inputs = Inputs::new(WorkloadId::SuiteTest, DEFAULT_SEED);
        let policy = inputs.policy("LADM");
        for shape in &GRAPHS {
            let ours = shape.kernels(shape.input(Scale::Test, DEFAULT_SEED));
            let suite = by_name(shape.name, Scale::Test).unwrap().kernels;
            let run = |k: &dyn KernelExec| GpuSystem::new(inputs.cfg.clone()).run(k, policy);
            assert_eq!(run(&*ours[0]), run(&*suite[0]), "{}", shape.name);
        }
    }

    #[test]
    fn decode_cell_matches_the_session_fixture() {
        // tests/fixtures/session_decode_digest.txt: three test-scale steps,
        // pinned then replanned, through `SessionSim`.
        let fixture = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../tests/fixtures/session_decode_digest.txt"
        ))
        .expect("session fixture is readable");
        let inputs = Inputs::new(WorkloadId::DecodeSession, DEFAULT_SEED);
        let mut got = Vec::new();
        for pinning in [true, false] {
            let out = run_decode(&inputs, Scale::Test, pinning, 3, &mut Tracer::off());
            got.extend(out.lines.into_iter().map(|(_, line)| line));
        }
        let want: Vec<&str> = fixture.lines().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let canonical = cells(WorkloadId::GemmBench);
        let mut a = canonical.clone();
        let mut b = canonical.clone();
        shuffle(&mut a, &mut SplitMix64::new(3));
        shuffle(&mut b, &mut SplitMix64::new(3));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_by_key(|c| c.label());
        let mut want = canonical;
        want.sort_by_key(|c| c.label());
        assert_eq!(sorted, want);
    }
}
