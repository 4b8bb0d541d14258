//! Layer replay: one cell's stream driven through each layer's public
//! entry point in isolation, giving nanoseconds per operation.
//!
//! * addresses come from `KernelExec::warp_accesses`, coalesced to 32 B
//!   sectors per warp call and tagged with the chiplet the plan runs
//!   the threadblock on; they drive `SectoredCache::access` (one L2
//!   partition per chiplet) and `AddressSpace::resolve`;
//! * link claims and off-node routes come from the `Sector` and
//!   `LinkTransfer` events of a recorded run of the same cell; they
//!   drive `TokenBucket::claim` and `Fabric::route`.

use ladm_core::policies::Policy;
use ladm_core::{KernelPlan, NodeId};
use ladm_obs::{Event, LinkLevel, RecordingSink, TraceSink};
use ladm_sim::bw::TokenBucket;
use ladm_sim::cache::SectoredCache;
use ladm_sim::fabric::Fabric;
use ladm_sim::mem::AddressSpace;
use ladm_sim::{plan_tb_node, GpuSystem, KernelExec, SimConfig, ThreadAccess};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events of each kind kept from the recorded run.
const EVENT_CAP: usize = 200_000;
/// Thread accesses generated per kernel, at most.
const ACCESS_CAP: usize = 2_000_000;
/// Sectors replayed per kernel, at most.
const SECTOR_CAP: usize = 400_000;
/// Repetitions of each replay; the median is reported.
const REPS: usize = 5;

/// Nanoseconds per operation of each replayed layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerCosts {
    /// `KernelExec::warp_accesses`, per thread access produced.
    pub gen_ns_per_access: f64,
    /// `SectoredCache::access`, per sector.
    pub cache_access_ns: f64,
    /// `AddressSpace::resolve`, per sector.
    pub resolve_ns: f64,
    /// `TokenBucket::claim`, per claim.
    pub claim_ns: f64,
    /// `Fabric::route`, per off-node sector.
    pub route_ns: f64,
}

/// Keeps the first [`EVENT_CAP`] `Sector` and `LinkTransfer` events.
#[derive(Debug, Default)]
struct CappedSink {
    events: RecordingSink,
    sectors: AtomicUsize,
    links: AtomicUsize,
}

impl TraceSink for CappedSink {
    fn record(&self, event: Event) {
        let seen = match event {
            Event::Sector { .. } => &self.sectors,
            Event::LinkTransfer { .. } => &self.links,
            _ => return,
        };
        if seen.fetch_add(1, Ordering::Relaxed) < EVENT_CAP {
            self.events.record(event);
        }
    }
}

/// One kernel's coalesced sector stream.
struct Stream<'a> {
    kernel: &'a dyn KernelExec,
    plan: KernelPlan,
    sectors: Vec<(u64, NodeId)>,
}

/// The kernel's allocations, laid out and placed as `GpuSystem::run`
/// lays them out.
fn address_space(kernel: &dyn KernelExec, plan: &KernelPlan, cfg: &SimConfig) -> AddressSpace {
    let launch = kernel.launch();
    let mut mem = AddressSpace::new(cfg.page_bytes);
    for (i, arg) in launch.kernel.args.iter().enumerate() {
        mem.alloc(launch.arg_bytes(i).max(1), arg.elem_bytes);
    }
    mem.apply_plan(plan, &cfg.topology);
    mem
}

/// Calls `f` with every `(tb, warp, iter)` of the kernel until it
/// returns `false`.
fn for_each_warp_call(
    kernel: &dyn KernelExec,
    warp_size: u32,
    mut f: impl FnMut((u32, u32), u32, u32) -> bool,
) {
    let launch = kernel.launch();
    let warps = u32::try_from(launch.threads_per_tb().div_ceil(u64::from(warp_size)))
        .expect("warps per threadblock fit u32");
    for by in 0..launch.grid.1 {
        for bx in 0..launch.grid.0 {
            for warp in 0..warps {
                for iter in 0..kernel.trips() {
                    if !f((bx, by), warp, iter) {
                        return;
                    }
                }
            }
        }
    }
}

/// Times the generator alone: ns per thread access.
fn time_gen(kernel: &dyn KernelExec, warp_size: u32) -> f64 {
    let mut out: Vec<ThreadAccess> = Vec::with_capacity(256);
    let mut accesses = 0usize;
    let start = Instant::now();
    for_each_warp_call(kernel, warp_size, |tb, warp, iter| {
        out.clear();
        kernel.warp_accesses(tb, warp, iter, &mut out);
        accesses += black_box(&out).len();
        accesses < ACCESS_CAP
    });
    start.elapsed().as_nanos() as f64 / accesses.max(1) as f64
}

impl<'a> Stream<'a> {
    fn new(kernel: &'a dyn KernelExec, policy: &dyn Policy, cfg: &SimConfig) -> Self {
        let launch = kernel.launch();
        let plan = policy.plan(launch, &cfg.topology);
        let mem = address_space(kernel, &plan, cfg);
        let sector_mask = !(u64::from(cfg.l2.sector_bytes) - 1);
        let mut sectors = Vec::new();
        let mut out = Vec::with_capacity(256);
        let mut warp_sectors: Vec<u64> = Vec::with_capacity(256);
        for_each_warp_call(kernel, cfg.warp_size, |(bx, by), warp, iter| {
            out.clear();
            kernel.warp_accesses((bx, by), warp, iter, &mut out);
            let node = plan_tb_node(&plan, bx, by, launch.grid, &cfg.topology);
            warp_sectors.clear();
            for a in &out {
                let sector = mem.addr_of(usize::from(a.arg), a.idx) & sector_mask;
                if !warp_sectors.contains(&sector) {
                    warp_sectors.push(sector);
                }
            }
            sectors.extend(warp_sectors.iter().map(|&s| (s, node)));
            sectors.len() < SECTOR_CAP
        });
        Stream {
            kernel,
            plan,
            sectors,
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over [`REPS`] calls of `rep`, which returns `(ns, ops)`, of
/// the nanoseconds per operation.
fn per_op(mut rep: impl FnMut() -> (u128, usize)) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let (ns, ops) = rep();
                ns as f64 / ops.max(1) as f64
            })
            .collect(),
    )
}

fn link_rate(cfg: &SimConfig, level: LinkLevel) -> f64 {
    match level {
        LinkLevel::Xbar => cfg.intra_chiplet_bw,
        LinkLevel::Ring => cfg.ring_bw,
        LinkLevel::SwitchOut | LinkLevel::SwitchIn => cfg.switch_bw,
        LinkLevel::Dram => cfg.dram_bw,
    }
}

/// Replays `kernels` under `policy` layer by layer.
pub fn replay(kernels: &[Box<dyn KernelExec>], policy: &dyn Policy, cfg: &SimConfig) -> LayerCosts {
    // The recorded run: link claims and off-node sector routes.
    let sink = Arc::new(CappedSink::default());
    let mut sys = GpuSystem::new(cfg.clone());
    sys.set_sink(sink.clone());
    for kernel in kernels {
        sys.run(&**kernel, policy);
    }
    sys.clear_sink();
    let levels = LinkLevel::all();
    let mut claims = Vec::new();
    let mut routes = Vec::new();
    for event in sink.events.take_events() {
        match event {
            Event::LinkTransfer {
                time,
                level,
                index,
                bytes,
            } => {
                let slot = levels
                    .iter()
                    .position(|&l| l == level)
                    .expect("known level");
                claims.push((slot, usize::from(index), time, u64::from(bytes)));
            }
            Event::Sector {
                time,
                node,
                home,
                bytes,
                ..
            } if node != home => {
                routes.push((
                    time,
                    NodeId(u32::from(node)),
                    NodeId(u32::from(home)),
                    u64::from(bytes),
                ));
            }
            _ => {}
        }
    }
    let links_per_level = 1 + claims.iter().map(|c| c.1).max().unwrap_or(0);

    let streams: Vec<Stream> = kernels
        .iter()
        .map(|k| Stream::new(&**k, policy, cfg))
        .collect();
    let nodes = cfg.topology.num_nodes() as usize;

    let gen_ns_per_access = median(
        (0..REPS)
            .map(|_| {
                let per_kernel: Vec<f64> = streams
                    .iter()
                    .map(|s| time_gen(s.kernel, cfg.warp_size))
                    .collect();
                per_kernel.iter().sum::<f64>() / per_kernel.len() as f64
            })
            .collect(),
    );
    let cache_access_ns = per_op(|| {
        let (mut ns, mut ops) = (0, 0);
        for s in &streams {
            let mut l2: Vec<SectoredCache> =
                (0..nodes).map(|_| SectoredCache::new(&cfg.l2)).collect();
            let start = Instant::now();
            for &(addr, node) in &s.sectors {
                black_box(l2[node.0 as usize].access(addr));
            }
            ns += start.elapsed().as_nanos();
            ops += s.sectors.len();
        }
        (ns, ops)
    });
    let resolve_ns = per_op(|| {
        let (mut ns, mut ops) = (0, 0);
        for s in &streams {
            let mut mem = address_space(s.kernel, &s.plan, cfg);
            let start = Instant::now();
            for &(addr, node) in &s.sectors {
                black_box(mem.resolve(addr, node, &cfg.topology));
            }
            ns += start.elapsed().as_nanos();
            ops += s.sectors.len();
        }
        (ns, ops)
    });
    let claim_ns = per_op(|| {
        let mut buckets: Vec<TokenBucket> = levels
            .iter()
            .flat_map(|&l| (0..links_per_level).map(move |_| TokenBucket::new(link_rate(cfg, l))))
            .collect();
        let start = Instant::now();
        for &(level, index, time, bytes) in &claims {
            black_box(buckets[level * links_per_level + index].claim(time, bytes));
        }
        (start.elapsed().as_nanos(), claims.len())
    });
    let route_ns = per_op(|| {
        let mut fabric = Fabric::new(cfg);
        let start = Instant::now();
        for &(time, from, to, bytes) in &routes {
            black_box(fabric.route(time, from, to, bytes));
        }
        (start.elapsed().as_nanos(), routes.len())
    });
    LayerCosts {
        gen_ns_per_access,
        cache_access_ns,
        resolve_ns,
        claim_ns,
        route_ns,
    }
}
