//! Lockstep differential execution of one trial plus its metamorphic
//! property checks.
//!
//! The ground truth is the bit-for-bit comparison of
//! [`ladm_sim::KernelStats`] debug renderings between the optimized
//! engine and the oracle — `cycles` is an `f64`, so string equality is
//! exact equality of every field including event-order-sensitive
//! floating-point sums.

use crate::gen::{SessionSpec, TrialSpec};
use ladm_analyzer::{predict, TrafficKnobs};
use ladm_core::analysis::classify;
use ladm_core::plan::PageMap;
use ladm_core::policies::{BaselineRr, BatchFt, Lasp, Policy};
use ladm_core::sequence::LaunchSequence;
use ladm_core::session::PlacementSession;
use ladm_sim::{
    replay_independent, GpuSystem, KernelExec, KernelStats, OracleSystem, SessionRunStats,
    SimConfig,
};
use ladm_workloads::AffineKernel;
use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a trial failed. The shrinker preserves the *kind* of failure
/// (enum discriminant) while minimizing the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Building or running the trial panicked.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The same engine configuration produced two different results.
    NonDeterministic {
        /// First run's stats rendering.
        first: String,
        /// Second run's stats rendering.
        second: String,
    },
    /// The optimized engine disagrees with the oracle simulator.
    OracleDivergence {
        /// Engine stats rendering.
        engine: String,
        /// Oracle stats rendering.
        oracle: String,
    },
    /// An accounting identity the stats must satisfy was violated.
    Conservation {
        /// Which identity broke and how.
        detail: String,
    },
    /// A single-node machine reported NUMA traffic.
    MonolithicLeak {
        /// The nonzero counter.
        detail: String,
    },
    /// An Equation-1 interleaving spread pages unevenly beyond its
    /// granule bound.
    InterleaveImbalance {
        /// Argument and observed per-node page counts.
        detail: String,
    },
    /// LASP sent far more off-node traffic than first-touch on a
    /// cleanly row/column-classified kernel (beyond the 2x + boundary
    /// allowance sanity bound).
    LaspRegression {
        /// LASP off-node sectors.
        lasp: u64,
        /// Batch+FT off-node sectors.
        first_touch: u64,
        /// Baseline round-robin interleave off-node sectors.
        baseline: u64,
    },
    /// The simulator measured more off-node sectors than the symbolic
    /// traffic analyzer's upper bound — the analyzer's footprint or
    /// page-home model has drifted from the engine.
    BoundViolation {
        /// Argument index, or `None` when the kernel-total bound broke.
        arg: Option<usize>,
        /// Off-node sectors the engine measured.
        measured: u64,
        /// The analyzer's symbolic upper bound.
        bound: u64,
    },
    /// A fully-adopting placement session attributed off-node traffic
    /// differently than an independent replay of the same plans —
    /// adopted (stateless) placements must make the carried page state
    /// indistinguishable from a fresh application of the maps.
    SessionDivergence {
        /// Index of the diverging launch within the session.
        launch: usize,
        /// Session-run attribution rendering.
        session: String,
        /// Independent-replay attribution rendering.
        replay: String,
    },
}

impl Failure {
    /// Short machine-readable failure kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Panic { .. } => "panic",
            Failure::NonDeterministic { .. } => "non-deterministic",
            Failure::OracleDivergence { .. } => "oracle-divergence",
            Failure::Conservation { .. } => "conservation",
            Failure::MonolithicLeak { .. } => "monolithic-leak",
            Failure::InterleaveImbalance { .. } => "interleave-imbalance",
            Failure::LaspRegression { .. } => "lasp-regression",
            Failure::BoundViolation { .. } => "traffic-bound",
            Failure::SessionDivergence { .. } => "session-divergence",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Panic { message } => write!(f, "panic: {message}"),
            Failure::NonDeterministic { first, second } => {
                write!(f, "non-deterministic replay:\n  {first}\n  {second}")
            }
            Failure::OracleDivergence { engine, oracle } => {
                write!(f, "engine/oracle divergence:\n  engine: {engine}\n  oracle: {oracle}")
            }
            Failure::Conservation { detail } => write!(f, "conservation violation: {detail}"),
            Failure::MonolithicLeak { detail } => {
                write!(f, "single-node machine reported NUMA traffic: {detail}")
            }
            Failure::InterleaveImbalance { detail } => {
                write!(f, "interleave balance bound violated: {detail}")
            }
            Failure::LaspRegression {
                lasp,
                first_touch,
                baseline,
            } => write!(
                f,
                "LASP off-node sectors ({lasp}) exceed both sanity bounds (first-touch {first_touch}, baseline interleave {baseline}) on a classified kernel"
            ),
            Failure::BoundViolation {
                arg,
                measured,
                bound,
            } => match arg {
                Some(i) => write!(
                    f,
                    "symbolic traffic bound violated on arg {i}: measured {measured} off-node sectors, bound {bound}"
                ),
                None => write!(
                    f,
                    "symbolic kernel-total traffic bound violated: measured {measured} off-node sectors, bound {bound}"
                ),
            },
            Failure::SessionDivergence {
                launch,
                session,
                replay,
            } => write!(
                f,
                "session/replay attribution divergence at launch {launch}:\n  session: {session}\n  replay:  {replay}"
            ),
        }
    }
}

/// Runs one trial end to end: engine vs. oracle plus every metamorphic
/// property. Panics anywhere in the trial are converted into
/// [`Failure::Panic`].
pub fn run_trial(spec: &TrialSpec) -> Result<KernelStats, Failure> {
    match catch_unwind(AssertUnwindSafe(|| run_trial_inner(spec))) {
        Ok(result) => result,
        Err(payload) => Err(Failure::Panic {
            message: panic_message(&payload),
        }),
    }
}

fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_engine(cfg: &SimConfig, kernel: &AffineKernel, policy: &dyn Policy) -> KernelStats {
    GpuSystem::new(cfg.clone()).run(kernel, policy)
}

fn run_trial_inner(spec: &TrialSpec) -> Result<KernelStats, Failure> {
    let kernel = spec.build_kernel();
    let cfg = spec.config.build();
    cfg.validate();
    let policy = spec.policy.build(kernel.launch(), &cfg.topology);

    let base = run_engine(&cfg, &kernel, &*policy);
    let base_dbg = format!("{base:?}");

    // A fresh engine must replay bit-identically.
    let again = format!("{:?}", run_engine(&cfg, &kernel, &*policy));
    if again != base_dbg {
        return Err(Failure::NonDeterministic {
            first: base_dbg,
            second: again,
        });
    }

    // The oracle simulator must agree on every stats field.
    let oracle = format!(
        "{:?}",
        OracleSystem::new(cfg.clone()).run(&kernel, &*policy)
    );
    if oracle != base_dbg {
        return Err(Failure::OracleDivergence {
            engine: base_dbg,
            oracle,
        });
    }

    check_conservation(spec, &cfg, &base)?;
    check_interleave_balance(&kernel, &cfg, &*policy)?;
    check_traffic_bound(spec, &kernel, &cfg, &*policy, &base)?;
    check_lasp_vs_first_touch(spec, &kernel, &cfg)?;
    Ok(base)
}

/// Runs one multi-launch session trial end to end: the session plans the
/// sequence once (pinning on, so every shared argument is pre-committed
/// and every launch adopts), executes on a machine whose page homes
/// carry across launches, and checks:
///
/// 1. a fresh session machine replays bit-identically, and
/// 2. **adoption transparency** — when no committed map is stateful
///    (no first-touch placements, migration off), the session's per-arg
///    off-node attribution is bit-identical to independently replaying
///    the same plans on fresh machines. Carried page state under
///    adopted stateless maps must be indistinguishable from applying
///    the maps anew.
///
/// Panics anywhere in the trial become [`Failure::Panic`].
pub fn run_session_trial(spec: &SessionSpec) -> Result<(), Failure> {
    match catch_unwind(AssertUnwindSafe(|| run_session_inner(spec))) {
        Ok(result) => result,
        Err(payload) => Err(Failure::Panic {
            message: panic_message(&payload),
        }),
    }
}

fn render_session_runs(runs: &[SessionRunStats]) -> String {
    let parts: Vec<String> = runs.iter().map(|r| format!("{r:?}")).collect();
    parts.join("\n  ")
}

fn run_session_inner(spec: &SessionSpec) -> Result<(), Failure> {
    let kernels = spec.build_kernels();
    let cfg = spec.config.build();
    cfg.validate();
    let seq = LaunchSequence::new(kernels.iter().map(|k| k.launch().clone()).collect());
    let mut session = PlacementSession::new(cfg.topology, Lasp::ladm());
    let plans = session.plan_sequence(&seq);
    let pool: Vec<(u64, u32)> = session
        .allocations()
        .iter()
        .map(|&(_, b, e)| (b, e))
        .collect();

    let run = || -> Vec<SessionRunStats> {
        let mut sys = GpuSystem::new(cfg.clone());
        sys.begin_session(&pool);
        kernels
            .iter()
            .zip(&plans)
            .map(|(k, p)| sys.run_session(k, p))
            .collect()
    };
    let base = run();
    let base_dbg = render_session_runs(&base);

    let again = render_session_runs(&run());
    if again != base_dbg {
        return Err(Failure::NonDeterministic {
            first: base_dbg,
            second: again,
        });
    }

    // Adoption transparency is only claimed for stateless maps: an
    // adopted first-touch placement carries pins an independent replay
    // cannot reproduce, and reactive migration moves pages mid-launch.
    if cfg.migration_threshold != 0 {
        return Ok(());
    }
    if plans.iter().any(|p| {
        p.plan
            .args
            .iter()
            .any(|a| matches!(a.pages, PageMap::FirstTouch))
    }) {
        return Ok(());
    }
    let refs: Vec<&dyn KernelExec> = kernels.iter().map(|k| k as &dyn KernelExec).collect();
    let replayed = replay_independent(&cfg, &pool, &refs, &plans);
    for (i, (s, r)) in base.iter().zip(&replayed).enumerate() {
        if s.stats.offnode_by_arg != r.stats.offnode_by_arg
            || s.stats.sectors_offnode != r.stats.sectors_offnode
            || s.stats.sectors_offgpu != r.stats.sectors_offgpu
        {
            return Err(Failure::SessionDivergence {
                launch: i,
                session: format!(
                    "offnode {} (by arg {:?}), offgpu {}",
                    s.stats.sectors_offnode, s.stats.offnode_by_arg, s.stats.sectors_offgpu
                ),
                replay: format!(
                    "offnode {} (by arg {:?}), offgpu {}",
                    r.stats.sectors_offnode, r.stats.offnode_by_arg, r.stats.sectors_offgpu
                ),
            });
        }
    }
    Ok(())
}

/// Metamorphic soundness property for the symbolic traffic analyzer:
/// on every classified, non-wrapping trial, the off-node sectors the
/// engine measures must fall within the analyzer's per-argument (and
/// kernel-total) symbolic upper bounds. Gated to trials where every
/// site is affine (no data-dependent gathers) and stays inside its
/// allocation — wrapping modulo the argument length is an executor
/// artifact the symbolic footprint deliberately over-approximates.
fn check_traffic_bound(
    spec: &TrialSpec,
    kernel: &AffineKernel,
    cfg: &SimConfig,
    policy: &dyn Policy,
    base: &KernelStats,
) -> Result<(), Failure> {
    for s in &spec.sites {
        if s.c_data != 0 {
            return Ok(());
        }
        let a = &spec.args[s.arg as usize];
        let (lo, hi) = s.index_bounds(spec.grid, spec.block, spec.trips);
        if lo < 0 || hi >= i128::from(a.len) {
            return Ok(());
        }
    }
    let launch = kernel.launch();
    let plan = policy.plan(launch, &cfg.topology);
    let knobs = TrafficKnobs::from_config(cfg);
    let traffic = predict(launch, kernel.trips(), &plan, &cfg.topology, &knobs);
    for (i, &bound) in traffic.arg_upper.iter().enumerate() {
        let measured = base.offnode_by_arg.get(i).copied().unwrap_or(0);
        if measured > bound {
            return Err(Failure::BoundViolation {
                arg: Some(i),
                measured,
                bound,
            });
        }
    }
    let total = traffic.total_upper();
    if base.sectors_offnode > total {
        return Err(Failure::BoundViolation {
            arg: None,
            measured: base.sectors_offnode,
            bound: total,
        });
    }
    Ok(())
}

/// Accounting identities every run must satisfy, whatever the input.
fn check_conservation(spec: &TrialSpec, cfg: &SimConfig, s: &KernelStats) -> Result<(), Failure> {
    let fail = |detail: String| Err(Failure::Conservation { detail });
    let total_tbs = u64::from(spec.grid.0) * u64::from(spec.grid.1);
    if s.threadblocks != total_tbs {
        return fail(format!(
            "threadblocks {} != grid size {total_tbs}",
            s.threadblocks
        ));
    }
    if s.warp_instructions < total_tbs {
        return fail(format!(
            "warp_instructions {} < threadblocks {total_tbs}",
            s.warp_instructions
        ));
    }
    if s.sectors_offgpu > s.sectors_offnode {
        return fail(format!(
            "sectors_offgpu {} > sectors_offnode {}",
            s.sectors_offgpu, s.sectors_offnode
        ));
    }
    let by_arg: u64 = s.offnode_by_arg.iter().sum();
    if by_arg != s.sectors_offnode {
        return fail(format!(
            "offnode_by_arg sums to {by_arg}, sectors_offnode is {}",
            s.sectors_offnode
        ));
    }
    if s.offnode_by_arg.len() > spec.args.len() {
        return fail(format!(
            "offnode_by_arg has {} entries for {} arguments",
            s.offnode_by_arg.len(),
            spec.args.len()
        ));
    }
    if cfg.migration_threshold == 0 && s.page_migrations != 0 {
        return fail(format!(
            "{} migrations with migration disabled",
            s.page_migrations
        ));
    }
    if spec.config.gpus == 1 && spec.config.chiplets == 1 {
        for (name, v) in [
            ("sectors_offnode", s.sectors_offnode),
            ("sectors_offgpu", s.sectors_offgpu),
            ("l2_local_remote", s.l2_local_remote.accesses),
            ("l2_remote_local", s.l2_remote_local.accesses),
            ("page_migrations", s.page_migrations),
        ] {
            if v != 0 {
                return Err(Failure::MonolithicLeak {
                    detail: format!("{name} = {v}"),
                });
            }
        }
        if s.inter_chiplet_bytes != 0 || s.inter_gpu_bytes != 0 {
            return Err(Failure::MonolithicLeak {
                detail: format!(
                    "inter_chiplet_bytes = {}, inter_gpu_bytes = {}",
                    s.inter_chiplet_bytes, s.inter_gpu_bytes
                ),
            });
        }
    }
    Ok(())
}

/// Equation-1 balance: an interleaved allocation's pages land on the
/// nodes within one granule of each other.
fn check_interleave_balance(
    kernel: &AffineKernel,
    cfg: &SimConfig,
    policy: &dyn Policy,
) -> Result<(), Failure> {
    let launch = kernel.launch();
    let plan = policy.plan(launch, &cfg.topology);
    if plan.args.len() != launch.kernel.args.len() {
        return Err(Failure::Conservation {
            detail: format!(
                "plan has {} arg entries for {} kernel arguments",
                plan.args.len(),
                launch.kernel.args.len()
            ),
        });
    }
    for (i, arg) in plan.args.iter().enumerate() {
        if let PageMap::Interleave { gran_pages, .. } = &arg.pages {
            let gran = (*gran_pages).max(1);
            let mut counts = vec![0u64; cfg.topology.num_nodes() as usize];
            for page in 0..launch.arg_pages(i) {
                let node = arg
                    .pages
                    .node_of_page(page, &cfg.topology)
                    .expect("interleave maps resolve at page granularity");
                counts[node.0 as usize] += 1;
            }
            let max = *counts.iter().max().expect("at least one node");
            let min = *counts.iter().min().expect("at least one node");
            if max - min > gran {
                return Err(Failure::InterleaveImbalance {
                    detail: format!("arg {i}: gran {gran}, per-node pages {counts:?}"),
                });
            }
        }
    }
    Ok(())
}

/// Policy sanity (paper §III-D): on a kernel whose every access site is
/// cleanly row/column-classified (Table II rows 2–5), LASP's proactive
/// placement must not send more off-node traffic than the reactive
/// first-touch baseline. Gated to launches where placement is the only
/// variable: no migration, no fault latency, and a real 2-D grid.
fn check_lasp_vs_first_touch(
    spec: &TrialSpec,
    kernel: &AffineKernel,
    cfg: &SimConfig,
) -> Result<(), Failure> {
    if !spec.two_d
        || spec.grid.0 < 2
        || spec.grid.1 < 2
        || spec.config.migration_threshold != 0
        || spec.config.page_fault_cycles != 0
    {
        return Ok(());
    }
    let launch = kernel.launch();
    if launch.threads_per_tb() < 32 {
        // Partial warps make the accessed footprint tiny; page-placement
        // granularity swamps the policy and the comparison is noise.
        return Ok(());
    }
    let shape = launch.kernel.grid_shape;
    let mut sites = 0usize;
    for arg in &launch.kernel.args {
        for poly in &arg.accesses {
            if !classify(poly, shape, 0).is_shared() {
                return Ok(());
            }
            sites += 1;
        }
    }
    if sites == 0 {
        return Ok(());
    }
    // Every site must actually touch enough pages for placement to
    // matter; below ~2 pages per node, page granularity swamps the
    // policy and the comparison is noise.
    let min_pages = 2 * u128::from(cfg.topology.num_nodes());
    for s in &spec.sites {
        if s.c_data != 0 {
            // Data-dependent gathers are unpredictable by any placement
            // policy; the paper's claim is about affine row/column
            // kernels.
            return Ok(());
        }
        let a = &spec.args[s.arg as usize];
        let (lo, hi) = s.index_bounds(spec.grid, spec.block, spec.trips);
        if lo < 0 || hi >= i128::from(a.len) {
            // The index wraps modulo the allocation — an executor
            // artifact no placement policy can classify.
            return Ok(());
        }
        let footprint = ((hi - lo + 1) as u128).saturating_mul(u128::from(a.elem_bytes));
        if footprint.div_ceil(u128::from(spec.config.page_bytes)) < min_pages {
            return Ok(());
        }
    }
    let lasp = run_engine(cfg, kernel, &Lasp::ladm()).sectors_offnode;
    let ft = run_engine(cfg, kernel, &BatchFt::new()).sectors_offnode;
    let rr = run_engine(cfg, kernel, &BaselineRr::new()).sectors_offnode;
    // Per-input strict dominance does not hold: when LASP's address
    // bands and the accessed footprint misalign (page-straddling
    // columns, partial-coverage strides), a lucky first-touch wins
    // outright. The paper's claim is aggregate, so the sanity property
    // only requires LASP to stay competitive with at least one
    // baseline: within 2x of batched first-touch, or no worse than the
    // round-robin interleave (plus a per-node boundary allowance). A
    // placement bug that sends pages to systematically wrong nodes
    // loses to both on the first sizable kernel.
    let allowance = 64 * u64::from(cfg.topology.num_nodes());
    if lasp > 2 * ft + allowance && lasp > rr + allowance {
        return Err(Failure::LaspRegression {
            lasp,
            first_touch: ft,
            baseline: rr,
        });
    }
    Ok(())
}
