//! The simulated machine and its event-driven execution engine.
//!
//! [`GpuSystem`] is a thin coordinator over one [`ChipletShard`] per
//! chiplet — each shard owns its SMs, L1s, L2 slice, HBM channel and
//! crossbar (`crate::shard`) — plus the two genuinely shared resources:
//! the inter-chiplet/inter-GPU fabric and the page-home table.
//!
//! The engine is event-driven at warp granularity: each resident warp is a
//! state machine stepping through its loop iterations; every memory
//! instruction is coalesced into 32 B sectors that traverse the hierarchy
//! claiming token-bucket bandwidth at every level, so queueing delay under
//! bandwidth pressure — the paper's central NUMA effect — emerges without
//! cycle-by-cycle iteration.
//!
//! ## Determinism
//!
//! Every transition (cache lookups, bucket claims, first-touch binding,
//! dispatch) happens in the canonical global `(time, seq)` event order
//! of one serial loop, so a run is a pure function of the kernel, the
//! plan and the configuration (pinned by `tests/stats_golden.rs`).
//! Parallelism lives one level up: independent (workload, policy) cells
//! fan out over `ladm_core::par::parallel_map`, one `GpuSystem` each.

use crate::config::SimConfig;
use crate::exec::{KernelExec, ThreadAccess};
use crate::fabric::Fabric;
use crate::mem::AddressSpace;
use crate::shard::{ChipletShard, RemoteRequest, SectorCtx};
use crate::stats::KernelStats;
use ladm_core::plan::KernelPlan;
use ladm_core::policies::Policy;
use ladm_core::session::SessionPlan;
use ladm_core::topology::NodeId;
use ladm_obs::{prof, Event as TraceEvent, SectorRoute, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Event-heap key with deterministic total order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    warp: u32,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[derive(Debug, Clone, Copy)]
struct WarpCtx {
    bx: u32,
    by: u32,
    warp: u32,
    iter: u32,
    sm: u32,
    tb: u32,
}

#[derive(Debug, Clone, Copy)]
struct TbCtx {
    live_warps: u32,
    node: u32,
}

/// A warp slot's cached generation result: the instruction count and
/// coalesced sector list of its last generated iteration. For
/// iteration-invariant kernels it is the replay cache later trips read
/// instead of regenerating; it is invalidated when the slot is
/// recycled, with the sector allocation retained.
#[derive(Debug, Default)]
struct SlotCache {
    valid: bool,
    instrs: u64,
    sectors: Vec<(u64, bool)>,
}

impl SlotCache {
    /// Whether this slot already holds the step's sector list: only an
    /// iteration-invariant kernel replays a previous trip's generation.
    fn ready_for(&self, iter_invariant: bool) -> bool {
        self.valid && iter_invariant
    }
}

/// Dynamic engine state for one `execute` call: warp/threadblock slot
/// tables, the event heap and the per-slot generation caches.
#[derive(Debug, Default)]
struct EngineState {
    warps: Vec<WarpCtx>,
    free_warp_slots: Vec<u32>,
    tbs: Vec<TbCtx>,
    free_tb_slots: Vec<u32>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    slots: Vec<SlotCache>,
    access_buf: Vec<ThreadAccess>,
}

/// Hoisted per-kernel constants — the engine loop never clones
/// `SimConfig` or chases `self.cfg` per event.
struct EngineConsts<'a> {
    warps_per_tb: u32,
    sms_per_chiplet: u32,
    trips: u32,
    compute_cycles: f64,
    issue_cost: f64,
    iter_invariant: bool,
    warp_size: u32,
    sector_mask: u64,
    /// Per-allocation `(base, elems, elem_bytes)` so coalescing resolves
    /// addresses from a local table instead of re-deriving the extent
    /// per thread access through `AddressSpace::addr_of`.
    addr_tab: &'a [(u64, u64, u64)],
}

/// Generates one warp iteration's accesses and coalesces them into
/// sorted, deduplicated sectors; returns the instruction count.
///
/// Pure with respect to the machine: reads only the (immutable) kernel
/// and the per-kernel constants.
fn gen_warp(
    kernel: &dyn KernelExec,
    k: &EngineConsts,
    ctx: WarpCtx,
    access_buf: &mut Vec<ThreadAccess>,
    sectors: &mut Vec<(u64, bool)>,
) -> u64 {
    access_buf.clear();
    kernel.warp_accesses((ctx.bx, ctx.by), ctx.warp, ctx.iter, access_buf);
    sectors.clear();
    // Adjacent-duplicate suppression: consecutive threads of a
    // coalesced site map to long runs of the same sector, and a
    // run collapses to one entry under sort + dedup anyway (the
    // write flag is constant within a site, so OR-merging is a
    // no-op). Skipping repeats up front shrinks the sort input
    // several-fold without changing its outcome.
    let mut last = (u64::MAX, false);
    for a in access_buf.iter() {
        let (base, elems, elem_bytes) = k.addr_tab[usize::from(a.arg)];
        // In-bounds indices (the overwhelmingly common case) skip
        // the u64 division of the wrap-around modulo.
        let idx = if a.idx < elems { a.idx } else { a.idx % elems };
        let addr = base + idx * elem_bytes;
        let entry = (addr & k.sector_mask, a.write);
        if entry != last {
            sectors.push(entry);
            last = entry;
        }
    }
    sectors.sort_unstable();
    sectors.dedup_by(|next, prev| {
        if next.0 == prev.0 {
            prev.1 |= next.1;
            true
        } else {
            false
        }
    });
    // Issue cost: one compute instruction plus one memory
    // instruction per (approximate) access site.
    let mem_instrs = (access_buf.len() as u64)
        .div_ceil(u64::from(k.warp_size))
        .max(u64::from(!access_buf.is_empty()));
    1 + mem_instrs
}

/// One session launch's results: the kernel statistics plus the
/// re-placement cost the launch paid *before* running — pages whose
/// committed home changed because the launch replanned (or planned
/// fresh over) an already-placed allocation. Kept outside
/// [`KernelStats`] so the per-kernel statistics stay bit-compatible
/// with the stateless path; re-placement is a session-level effect.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRunStats {
    /// The kernel's execution statistics (off-node attribution is per
    /// *session allocation*, in pool order, not per kernel argument).
    pub stats: KernelStats,
    /// Already-placed pages whose home the launch's plan moved.
    pub replaced_pages: u64,
    /// `replaced_pages` × page size: the migration traffic a real
    /// machine would pay to honour the replan.
    pub replaced_bytes: u64,
}

/// The simulated hierarchical multi-GPU machine: one shard per chiplet
/// plus the shared fabric and page-home table.
#[derive(Debug)]
pub struct GpuSystem {
    pub(crate) cfg: SimConfig,
    pub(crate) mem: AddressSpace,
    pub(crate) shards: Vec<ChipletShard>,
    fabric: Fabric,
    sink: Option<Arc<dyn TraceSink>>,
}

impl GpuSystem {
    /// Builds the machine for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        let nodes = cfg.topology.num_nodes();
        GpuSystem {
            mem: AddressSpace::new(cfg.page_bytes),
            shards: (0..nodes)
                .map(|n| ChipletShard::new(&cfg, NodeId(n)))
                .collect(),
            fabric: Fabric::new(&cfg),
            sink: None,
            cfg,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The per-chiplet engine shards, in chiplet-id order.
    pub fn shards(&self) -> &[ChipletShard] {
        &self.shards
    }

    /// Attaches a trace sink: subsequent [`GpuSystem::run`]s report the
    /// planning decision chain, TB dispatch/retire, per-sector routes,
    /// per-level link claims and first-touch resolutions to it. The
    /// disabled path (no sink, or `enabled() == false`) allocates
    /// nothing and leaves [`KernelStats`] bit-identical.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Detaches any attached trace sink.
    pub fn clear_sink(&mut self) {
        self.sink = None;
    }

    /// The attached sink, cloned into a local `Arc` and pre-filtered on
    /// `enabled()`. Callers deref the clone into `Option<&dyn TraceSink>`
    /// so the borrow is on the local, not on `self` (the engine needs
    /// `&mut self` while emitting), and the disabled path stays
    /// allocation-free.
    fn active_sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.sink.clone().filter(|s| s.enabled())
    }

    /// Allocates, plans and executes `kernel` under `policy`, returning
    /// the run's statistics. Allocations are created fresh for the kernel
    /// (one per argument) and all caches are flushed first — the paper's
    /// kernel-boundary L2 invalidation.
    pub fn run(&mut self, kernel: &dyn KernelExec, policy: &dyn Policy) -> KernelStats {
        let _prof_kernel = prof::span("kernel");
        let launch = kernel.launch();
        let sink_arc = self.active_sink();
        let sink = sink_arc.as_deref();
        let prof_plan = prof::span("plan");
        let plan = match sink {
            Some(s) => {
                let (plan, decisions) = policy.plan_explained(launch, &self.cfg.topology);
                s.record(TraceEvent::KernelBegin {
                    kernel: launch.kernel.name.to_string(),
                    policy: policy.name().to_string(),
                    grid: launch.grid,
                    schedule: plan.schedule.to_string(),
                });
                for d in decisions {
                    s.record(TraceEvent::ArgDecision {
                        kernel: launch.kernel.name.to_string(),
                        arg: d.arg,
                        name: d.name.to_string(),
                        class: d.class,
                        preference: d.preference.to_string(),
                        bytes: d.bytes,
                        winner: d.winner,
                        page_map: plan.args[d.arg].pages.to_string(),
                        remote_insert: plan.args[d.arg].remote_insert.to_string(),
                    });
                }
                plan
            }
            None => policy.plan(launch, &self.cfg.topology),
        };
        drop(prof_plan);
        {
            let _prof_setup = prof::span("setup_mem");
            self.mem = AddressSpace::new(self.cfg.page_bytes);
            for (i, arg) in launch.kernel.args.iter().enumerate() {
                self.mem.alloc(launch.arg_bytes(i).max(1), arg.elem_bytes);
            }
            self.mem.apply_plan(&plan, &self.cfg.topology);
            self.flush();
        }
        let stats = self.execute(kernel, &plan);
        if let Some(s) = sink {
            s.record(TraceEvent::KernelEnd {
                kernel: launch.kernel.name.to_string(),
                time: stats.cycles,
            });
        }
        stats
    }

    /// Seeds the address space with a session's allocation pool — one
    /// `(bytes, elem_bytes)` allocation per session slot, in slot order
    /// (the shape [`ladm_core::session::PlacementSession::allocations`]
    /// reports) — replacing whatever a previous kernel left. Unlike
    /// [`GpuSystem::run`], subsequent [`GpuSystem::run_session`] calls
    /// do *not* re-seed memory: page homes carry across launches, which
    /// is the whole point of a session.
    pub fn begin_session(&mut self, allocs: &[(u64, u32)]) {
        self.mem = AddressSpace::new(self.cfg.page_bytes);
        for &(bytes, elem_bytes) in allocs {
            self.mem.alloc(bytes.max(1), elem_bytes);
        }
    }

    /// Executes one session launch: applies the plan's page maps to the
    /// fresh/replanned arguments only (adopted arguments keep the page
    /// homes — including first-touch pins and migrations — that earlier
    /// launches established), flushes caches at the kernel boundary,
    /// and runs the kernel with its arguments bound to the session
    /// allocations named by `splan.binding`.
    ///
    /// # Panics
    ///
    /// Panics if [`GpuSystem::begin_session`] has not seeded enough
    /// allocations, or the plan/binding shapes disagree with the
    /// kernel's argument list.
    pub fn run_session(&mut self, kernel: &dyn KernelExec, splan: &SessionPlan) -> SessionRunStats {
        let _prof_kernel = prof::span("kernel");
        let launch = kernel.launch();
        let nargs = launch.kernel.args.len();
        assert_eq!(splan.binding.len(), nargs, "one binding per argument");
        assert_eq!(splan.plan.args.len(), nargs, "one arg plan per argument");
        assert!(
            splan
                .binding
                .iter()
                .all(|&b| b < self.mem.allocations().len()),
            "binding names an allocation the session never seeded"
        );

        let topo = self.cfg.topology;
        let mut replaced_pages = 0u64;
        {
            let _prof_setup = prof::span("setup_mem");
            for (i, prov) in splan.provenance.iter().enumerate() {
                if prov.needs_apply() {
                    replaced_pages +=
                        self.mem
                            .apply_arg_plan(splan.binding[i], &splan.plan.args[i], &topo);
                }
            }
            self.flush();
        }

        // Per-launch migration accounting: the session's table is never
        // rebuilt wholesale, so the space-wide counter is monotonic and
        // this launch's share is a delta.
        let migrations_before = self.mem.migrations();
        let addr_tab: Vec<(u64, u64, u64)> = splan
            .binding
            .iter()
            .map(|&b| {
                let a = &self.mem.allocations()[b];
                (a.base, a.elems, u64::from(a.elem_bytes))
            })
            .collect();
        let attr_args = self.mem.allocations().len();
        let mut stats = self.execute_bound(kernel, &splan.plan, &addr_tab, attr_args);
        stats.page_migrations -= migrations_before;
        SessionRunStats {
            replaced_bytes: replaced_pages * self.cfg.page_bytes,
            replaced_pages,
            stats,
        }
    }

    /// Flushes all caches, fabric queues and DRAM queues (kernel
    /// boundary).
    pub fn flush(&mut self) {
        for shard in &mut self.shards {
            shard.flush();
        }
        self.fabric.reset();
        self.mem.reset_faults();
    }

    /// Core engine: sets up shard queues and resident-warp state, then
    /// drains the event heap.
    fn execute(&mut self, kernel: &dyn KernelExec, plan: &KernelPlan) -> KernelStats {
        let addr_tab: Vec<(u64, u64, u64)> = self
            .mem
            .allocations()
            .iter()
            .map(|a| (a.base, a.elems, u64::from(a.elem_bytes)))
            .collect();
        let attr_args = addr_tab.len();
        self.execute_bound(kernel, plan, &addr_tab, attr_args)
    }

    /// [`GpuSystem::execute`] with an explicit argument→address binding:
    /// `addr_tab[i]` is the `(base, elems, elem_bytes)` the kernel's
    /// argument `i` generates addresses through, and `attr_args` sizes
    /// the off-node attribution (the allocation count — in session mode
    /// the pool can be larger than one kernel's argument list).
    fn execute_bound(
        &mut self,
        kernel: &dyn KernelExec,
        plan: &KernelPlan,
        addr_tab: &[(u64, u64, u64)],
        attr_args: usize,
    ) -> KernelStats {
        let _prof_execute = prof::span("execute");
        let prof_setup = prof::span("setup");
        let launch = kernel.launch();
        let sink_arc = self.active_sink();
        let sink = sink_arc.as_deref();
        let topo = self.cfg.topology;
        let warp_size = self.cfg.warp_size;
        let threads_per_tb = launch.threads_per_tb() as u32;
        let warps_per_tb = threads_per_tb.div_ceil(warp_size).max(1);
        let trips = kernel.trips().max(1);
        let k = EngineConsts {
            warps_per_tb,
            sms_per_chiplet: self.cfg.sms_per_chiplet,
            trips,
            compute_cycles: (self.cfg.base_compute_cycles
                * u64::from(kernel.compute_intensity().max(1))) as f64,
            issue_cost: 1.0 / self.cfg.issue_per_cycle,
            // When the kernel's access pattern does not depend on the
            // loop iteration, each warp's coalesced sector list is
            // generated once and replayed on later trips.
            iter_invariant: trips > 1 && kernel.iter_invariant(),
            warp_size,
            sector_mask: !(u64::from(self.cfg.l1.sector_bytes) - 1),
            addr_tab,
        };

        let tb_slots_per_sm = self
            .cfg
            .max_tbs_per_sm
            .min(self.cfg.warps_per_sm / warps_per_tb)
            .max(1);
        let warp_budget = self.cfg.warps_per_sm.max(warps_per_tb);
        for shard in &mut self.shards {
            shard.begin_kernel(attr_args, tb_slots_per_sm, warp_budget);
        }
        // Threadblock queues per shard, in dispatch order — row-major
        // for classic schedules, curve order for swizzled ones. Shared
        // with the oracle via `TbMap::dispatch_order` so the two
        // machines cannot disagree on dispatch.
        for (bx, by) in plan.schedule.dispatch_order(launch.grid) {
            let node = plan.schedule.node_of_tb(bx, by, launch.grid, &topo);
            self.shards[node.0 as usize].queue.push_back((bx, by));
        }

        let mut eng = EngineState::default();
        eng.access_buf.reserve(256);
        for node in 0..topo.num_nodes() {
            self.dispatch_node(&mut eng, node, 0.0, &k, sink);
        }
        drop(prof_setup);

        {
            let _prof_drain = prof::span("drain_serial");
            while self.step(&mut eng, kernel, &k, sink) {}
        }

        for shard in &self.shards {
            debug_assert!(shard.queue.is_empty(), "all threadblocks must have run");
        }

        // Whole-machine totals: merge shard slices in chiplet-id order
        // (every merge operator is order-independent — see
        // `KernelStats::merge_shard`), truncate the off-node attribution
        // to the highest watermark, and fold in the coordinator-owned
        // counters (fabric traffic, page faults, migrations).
        let _prof_merge = prof::span("stats_merge");
        let mut stats = KernelStats {
            offnode_by_arg: vec![0; attr_args],
            ..KernelStats::default()
        };
        let mut remote_args = 0usize;
        for shard in &self.shards {
            stats.merge_shard(shard.stats());
            remote_args = remote_args.max(shard.remote_args);
        }
        // Match the lazily-grown attribution vector of the reference
        // engine: report only up to the highest arg with off-node traffic.
        stats.offnode_by_arg.truncate(remote_args);
        stats.inter_chiplet_bytes = self.fabric.inter_chiplet_bytes();
        stats.inter_gpu_bytes = self.fabric.inter_gpu_bytes();
        stats.page_faults = self.mem.page_faults();
        stats.page_migrations = self.mem.migrations();
        stats
    }

    /// Dispatches threadblocks from shard `node`'s queue onto its SMs
    /// until no SM has room for a whole block.
    fn dispatch_node(
        &mut self,
        eng: &mut EngineState,
        node: u32,
        now: f64,
        k: &EngineConsts,
        sink: Option<&dyn TraceSink>,
    ) {
        let sm_base = node * k.sms_per_chiplet;
        let shard = &mut self.shards[node as usize];
        'outer: while !shard.queue.is_empty() {
            // First SM on the node with room for a whole block.
            let mut chosen = None;
            for i in 0..k.sms_per_chiplet {
                let s = &shard.sms[i as usize];
                if s.free_tb_slots > 0 && s.free_warps >= k.warps_per_tb {
                    chosen = Some(i);
                    break;
                }
            }
            let Some(local) = chosen else { break 'outer };
            let sm = sm_base + local;
            let (bx, by) = shard.queue.pop_front().expect("checked non-empty");
            let sm_state = &mut shard.sms[local as usize];
            sm_state.free_tb_slots -= 1;
            sm_state.free_warps -= k.warps_per_tb;
            let tb_idx = match eng.free_tb_slots.pop() {
                Some(i) => {
                    eng.tbs[i as usize] = TbCtx {
                        live_warps: k.warps_per_tb,
                        node,
                    };
                    i
                }
                None => {
                    eng.tbs.push(TbCtx {
                        live_warps: k.warps_per_tb,
                        node,
                    });
                    (eng.tbs.len() - 1) as u32
                }
            };
            shard.stats.threadblocks += 1;
            if let Some(s) = sink {
                s.record(TraceEvent::TbDispatch {
                    time: now,
                    bx,
                    by,
                    node: node as u16,
                    sm,
                });
            }
            for w in 0..k.warps_per_tb {
                let ctx = WarpCtx {
                    bx,
                    by,
                    warp: w,
                    iter: 0,
                    sm,
                    tb: tb_idx,
                };
                let warp_idx = match eng.free_warp_slots.pop() {
                    Some(i) => {
                        eng.warps[i as usize] = ctx;
                        eng.slots[i as usize].valid = false;
                        i
                    }
                    None => {
                        eng.warps.push(ctx);
                        eng.slots.push(SlotCache::default());
                        (eng.warps.len() - 1) as u32
                    }
                };
                eng.seq += 1;
                heap_push(eng, now, warp_idx);
            }
        }
    }

    /// Pops and resolves one event in canonical global order. Returns
    /// `false` when the heap is empty.
    fn step(
        &mut self,
        eng: &mut EngineState,
        kernel: &dyn KernelExec,
        k: &EngineConsts,
        sink: Option<&dyn TraceSink>,
    ) -> bool {
        let Some(Reverse(ev)) = eng.heap.pop() else {
            return false;
        };
        prof::count("engine.heap_pop", 1);
        let now = ev.time;
        let ctx = eng.warps[ev.warp as usize];
        let node = ctx.sm / k.sms_per_chiplet;
        let shard = &mut self.shards[node as usize];
        // Per-shard completion watermark; the merge takes the max.
        shard.stats.cycles = shard.stats.cycles.max(now);

        if ctx.iter >= k.trips {
            // Warp retired.
            eng.free_warp_slots.push(ev.warp);
            let tb = &mut eng.tbs[ctx.tb as usize];
            tb.live_warps -= 1;
            if tb.live_warps == 0 {
                let tb_node = tb.node;
                eng.free_tb_slots.push(ctx.tb);
                let sm_state = &mut shard.sms[(ctx.sm % k.sms_per_chiplet) as usize];
                sm_state.free_tb_slots += 1;
                sm_state.free_warps += k.warps_per_tb;
                if let Some(s) = sink {
                    s.record(TraceEvent::TbRetire {
                        time: now,
                        bx: ctx.bx,
                        by: ctx.by,
                        node: tb_node as u16,
                        sm: ctx.sm,
                    });
                }
                self.dispatch_node(eng, tb_node, now, k, sink);
            }
            return true;
        }

        // This iteration's accesses: replayed from the slot cache (an
        // iteration-invariant kernel's earlier trip), or generated inline.
        let EngineState {
            slots, access_buf, ..
        } = eng;
        let slot = &mut slots[ev.warp as usize];
        if !slot.ready_for(k.iter_invariant) {
            let _prof_gen = prof::span("gen_inline");
            slot.instrs = gen_warp(kernel, k, ctx, access_buf, &mut slot.sectors);
            slot.valid = true;
        }
        let instrs = slot.instrs;

        shard.stats.warp_instructions += instrs;
        let sm_state = &mut shard.sms[(ctx.sm % k.sms_per_chiplet) as usize];
        let issue = now.max(sm_state.next_issue);
        sm_state.next_issue = issue + k.issue_cost * instrs as f64;

        // Route every sector; the warp blocks on the slowest.
        let mut done = issue + k.compute_cycles;
        for &(sector, write) in slot.sectors.iter() {
            let t = self.route_sector(issue, ctx.sm, sector, write, sink);
            done = done.max(t);
        }

        eng.warps[ev.warp as usize].iter += 1;
        eng.seq += 1;
        heap_push(eng, done, ev.warp);
        true
    }

    /// Drives one 32 B sector through the hierarchy starting at `t`;
    /// returns its completion time.
    ///
    /// The requester shard handles the L1, crossbar and (when the home
    /// is local) the L2/DRAM service; the shared page-home table
    /// resolves ownership; remote-homed sectors cross the coordinator's
    /// fabric as a [`RemoteRequest`] answered by the home shard
    /// (`ChipletShard::serve_remote`). When `sink` is present, the
    /// terminal service point is reported as one
    /// [`ladm_obs::Event::Sector`] (plus first-touch and link claims
    /// along the way).
    fn route_sector(
        &mut self,
        t: f64,
        sm: u32,
        addr: u64,
        write: bool,
        sink: Option<&dyn TraceSink>,
    ) -> f64 {
        let topo = self.cfg.topology;
        let node = NodeId(sm / self.cfg.sms_per_chiplet);
        let sm_local = (sm % self.cfg.sms_per_chiplet) as usize;
        let nid = node.0 as usize;
        let l2_lat = self.cfg.l2.latency as f64;
        let ctx = SectorCtx {
            issue_t: t,
            requester: node,
            page: addr / self.cfg.page_bytes,
            bytes: self.cfg.l1.sector_bytes,
            write,
        };

        // L1 (write-through, no write-allocate) and the SM→L2 crossbar
        // hop, both on the requesting shard.
        let t = {
            let rs = &mut self.shards[nid];
            if rs.l1_access(sm_local, addr, write, sink, &ctx) {
                return t + rs.l1_latency();
            }
            rs.xbar_hop(t + rs.l1_latency(), sink)
        };

        // Single flat-table lookup in the shared page-home table: home
        // node, owning arg and insertion policy in one step.
        let home = self.mem.resolve(addr, node, &topo);
        let mut t = t;
        if home.faulted {
            t += self.cfg.page_fault_cycles as f64;
            if let Some(s) = sink {
                s.record(TraceEvent::FirstTouch {
                    time: ctx.issue_t,
                    page: ctx.page,
                    node: home.node.0 as u16,
                });
            }
        }

        if home.node == node {
            // LOCAL-LOCAL: entirely within the requester shard.
            return self.shards[nid].local_access(t, addr, write, sink, &ctx);
        }

        let offgpu = !topo.same_gpu(home.node, node);
        let arg = home.arg as usize;
        self.shards[nid].raise_arg_watermark(arg);
        // Reactive migration (opt-in): enough consecutive accesses
        // from this node pull the whole page across the fabric; the
        // triggering request stalls for the transfer and is then
        // served locally.
        if self.cfg.migration_threshold > 0
            && self
                .mem
                .record_remote_access(addr, node, self.cfg.migration_threshold)
        {
            ctx.emit(sink, SectorRoute::Migrated, home.node);
            let t =
                self.fabric
                    .route_traced(t + l2_lat, home.node, node, self.cfg.page_bytes, sink);
            return self.shards[nid].migrate_in(t, sm_local, addr, write, sink, &ctx);
        }

        if write {
            // Write data travels to the home shard; the local copy (if
            // any) is invalidated. Acks are free.
            let rs = &mut self.shards[nid];
            rs.note_offnode(arg, offgpu);
            rs.invalidate_l2(addr);
            let t =
                self.fabric
                    .route_traced(t + l2_lat, node, home.node, u64::from(ctx.bytes), sink);
            let req = RemoteRequest {
                addr,
                write: true,
                t,
                insert: home.remote_insert,
            };
            self.shards[home.node.0 as usize]
                .serve_remote(&req, sink, &ctx)
                .t
        } else {
            // LOCAL-REMOTE: the dynamically-shared L2 checks the local
            // partition before going remote (remote caching, [51]).
            if self.cfg.remote_caching {
                if let Some(done) =
                    self.shards[nid].probe_remote_cached(t, addr, home.node, sink, &ctx)
                {
                    return done;
                }
            }
            // The request really leaves the chiplet now: header to the
            // home shard, REMOTE-LOCAL service there, data reply back.
            self.shards[nid].note_offnode(arg, offgpu);
            let t = self
                .fabric
                .route_traced(t + l2_lat, node, home.node, 8, sink);
            let req = RemoteRequest {
                addr,
                write: false,
                t,
                insert: home.remote_insert,
            };
            let reply = self.shards[home.node.0 as usize].serve_remote(&req, sink, &ctx);
            let t = self
                .fabric
                .route_traced(reply.t, home.node, node, u64::from(ctx.bytes), sink);
            self.shards[nid].accept_reply(sm_local, addr, self.cfg.remote_caching);
            t
        }
    }
}

/// Pushes the next event for `warp` at `time` (assumes `eng.seq` was
/// already advanced by the caller).
fn heap_push(eng: &mut EngineState, time: f64, warp: u32) {
    prof::count("engine.heap_push", 1);
    let seq = eng.seq;
    eng.heap.push(Reverse(Event { time, seq, warp }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladm_core::analysis::GridShape;
    use ladm_core::expr::{Expr, Var};
    use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};
    use ladm_core::policies::{BaselineRr, KernelWide, Lasp};

    /// Minimal vecadd-style kernel: each thread reads a[i], b[i], writes
    /// c[i]; i = bx*bdx + tx.
    #[derive(Debug)]
    struct VecAdd {
        launch: LaunchInfo,
    }

    impl VecAdd {
        fn new(blocks: u32, bdx: u32) -> Self {
            let idx = (Expr::var(Var::Bx) * Expr::var(Var::Bdx) + Expr::var(Var::Tx)).to_poly();
            let n = u64::from(blocks) * u64::from(bdx);
            let kernel = KernelStatic {
                name: "vecadd",
                grid_shape: GridShape::OneD,
                args: vec![
                    ArgStatic::read("a", 4, idx.clone()),
                    ArgStatic::read("b", 4, idx.clone()),
                    ArgStatic::write("c", 4, idx),
                ],
            };
            VecAdd {
                launch: LaunchInfo::new(kernel, (blocks, 1), (bdx, 1), vec![n, n, n]),
            }
        }
    }

    impl KernelExec for VecAdd {
        fn launch(&self) -> &LaunchInfo {
            &self.launch
        }
        fn trips(&self) -> u32 {
            1
        }
        fn warp_accesses(
            &self,
            tb: (u32, u32),
            warp: u32,
            _iter: u32,
            out: &mut Vec<ThreadAccess>,
        ) {
            let bdx = self.launch.block.0;
            for lane in 0..32u32 {
                let t = warp * 32 + lane;
                if t >= bdx {
                    break;
                }
                let i = u64::from(tb.0) * u64::from(bdx) + u64::from(t);
                out.push(ThreadAccess::load(0, i));
                out.push(ThreadAccess::load(1, i));
                out.push(ThreadAccess::store(2, i));
            }
        }
    }

    #[test]
    fn vecadd_runs_to_completion() {
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let kernel = VecAdd::new(256, 128);
        let stats = sys.run(&kernel, &BaselineRr::new());
        assert_eq!(stats.threadblocks, 256);
        assert!(stats.cycles > 0.0);
        assert!(stats.warp_instructions > 0);
        // Every element read twice + written once; sectors flowed.
        assert!(stats.l1_misses > 0);
    }

    #[test]
    fn monolithic_has_no_offchip_traffic() {
        let mut sys = GpuSystem::new(SimConfig::monolithic());
        let kernel = VecAdd::new(128, 128);
        let stats = sys.run(&kernel, &KernelWide::new());
        assert_eq!(stats.sectors_offnode, 0);
        assert_eq!(stats.inter_gpu_bytes, 0);
        assert_eq!(stats.offchip_fraction(), 0.0);
    }

    #[test]
    fn ladm_vecadd_is_fully_local() {
        // LASP's aligned batches + interleaved pages keep every vecadd
        // access on-node (Table I page-alignment row).
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let kernel = VecAdd::new(512, 128);
        let stats = sys.run(&kernel, &Lasp::ladm());
        assert_eq!(
            stats.sectors_offnode,
            0,
            "off-chip fraction = {}",
            stats.offchip_fraction()
        );
    }

    #[test]
    fn baseline_rr_generates_offchip_traffic() {
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let kernel = VecAdd::new(512, 128);
        let stats = sys.run(&kernel, &BaselineRr::new());
        // One-page granularity placement vs one-block batches: most
        // accesses go off-node on a 16-node machine.
        assert!(
            stats.offchip_fraction() > 0.5,
            "off-chip fraction = {}",
            stats.offchip_fraction()
        );
    }

    #[test]
    fn ladm_is_faster_than_baseline_on_vecadd() {
        let kernel = VecAdd::new(512, 128);
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let base = sys.run(&kernel, &BaselineRr::new());
        let ladm = sys.run(&kernel, &Lasp::ladm());
        assert!(
            ladm.cycles < base.cycles,
            "LADM {} vs baseline {}",
            ladm.cycles,
            base.cycles
        );
    }

    #[test]
    fn stats_conservation_invariants() {
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let kernel = VecAdd::new(128, 128);
        let stats = sys.run(&kernel, &BaselineRr::new());
        // Off-node sectors are a subset of L2-level sectors.
        assert!(stats.sectors_offnode <= stats.l1_misses);
        assert!(stats.sectors_offgpu <= stats.sectors_offnode);
        // Each traffic class has hits <= accesses.
        assert!(stats.l2_local_local.hits <= stats.l2_local_local.accesses);
        assert!(stats.l2_local_remote.hits <= stats.l2_local_remote.accesses);
        assert!(stats.l2_remote_local.hits <= stats.l2_remote_local.accesses);
        // LOCAL-LOCAL + LOCAL-REMOTE lookups == L2-level read+write sectors.
        let lookups = stats.l2_local_local.accesses + stats.l2_local_remote.accesses;
        // Writes to remote homes skip the LOCAL-REMOTE lookup.
        assert!(lookups <= stats.l1_misses);
    }

    #[test]
    fn tracing_records_pipeline_events_without_changing_stats() {
        use ladm_obs::{Event, RecordingSink};

        let kernel = VecAdd::new(64, 128);
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let baseline = sys.run(&kernel, &Lasp::ladm());

        let sink = Arc::new(RecordingSink::new());
        sys.set_sink(sink.clone());
        let traced = sys.run(&kernel, &Lasp::ladm());
        assert_eq!(
            format!("{traced:?}"),
            format!("{baseline:?}"),
            "tracing must leave KernelStats bit-identical"
        );

        let events = sink.take_events();
        assert_eq!(events[0].name(), "kernel_begin");
        assert_eq!(events.last().unwrap().name(), "kernel_end");
        let count = |n: &str| events.iter().filter(|e| e.name() == n).count();
        assert_eq!(count("arg_decision"), 3, "one decision per argument");
        assert_eq!(count("tb_dispatch"), 64);
        assert_eq!(count("tb_retire"), 64);
        assert!(count("sector") > 0, "sector routes must be reported");
        assert!(count("link_transfer") > 0, "link claims must be reported");
        // Dispatch/retire pair up on the same (bx, node, sm).
        let dispatched: Vec<(u32, u16, u32)> = events
            .iter()
            .filter_map(|e| match e {
                Event::TbDispatch { bx, node, sm, .. } => Some((*bx, *node, *sm)),
                _ => None,
            })
            .collect();
        for e in &events {
            if let Event::TbRetire { bx, node, sm, .. } = e {
                assert!(dispatched.contains(&(*bx, *node, *sm)));
            }
        }

        sys.clear_sink();
        sys.run(&kernel, &Lasp::ladm());
        assert!(sink.is_empty(), "cleared sink must see nothing");
    }

    #[test]
    fn first_touch_faults_are_counted() {
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let kernel = VecAdd::new(128, 128);
        let stats = sys.run(&kernel, &ladm_core::policies::BatchFt::new());
        assert!(stats.page_faults > 0);
    }

    #[test]
    fn shards_expose_per_chiplet_stats() {
        let kernel = VecAdd::new(256, 128);
        let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
        let total = sys.run(&kernel, &Lasp::ladm());
        let shard_tbs: u64 = sys.shards().iter().map(|s| s.stats().threadblocks).sum();
        assert_eq!(shard_tbs, total.threadblocks);
        let busy = sys
            .shards()
            .iter()
            .filter(|s| s.stats().cycles > 0.0)
            .count();
        assert!(busy > 1, "work spread across chiplets, got {busy}");
        assert!(sys
            .shards()
            .iter()
            .all(|s| s.stats().cycles <= total.cycles));
    }
}
