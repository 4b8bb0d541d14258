//! The oracle simulator: a deliberately slow, obviously-correct serial
//! model of the same machine the fast engine simulates.
//!
//! Every component here is the naive textbook version of a fast-path
//! structure in the engine, with none of the memoization the hot path
//! relies on:
//!
//! * [`ReferenceResolver`] — HashMap first-touch/migration side tables
//!   plus a binary search over allocations, vs the flat page-home table
//!   of [`crate::mem::AddressSpace`] (promoted from the `mem` test
//!   module so the differential test and the fuzzer share one reference
//!   implementation);
//! * [`OracleCache`] — an unfused per-set vector-of-ways cache with a
//!   split probe/fill path, vs the packed-metadata single-scan
//!   [`crate::cache::SectoredCache`] with its MRU memo;
//! * [`OracleBucket`] — a bandwidth ledger that walks every bin one at a
//!   time, vs the skip-pointer/path-compressed
//!   [`crate::bw::TokenBucket`];
//! * [`OracleSystem`] — a single global event list scanned linearly for
//!   the minimum `(time, seq)` key, with per-warp sector lists
//!   regenerated from scratch on every iteration, vs the sharded
//!   heap-driven engine with slot caches and epoch prefetch.
//!
//! The oracle intentionally shares **no** stateful code with the engine
//! (only immutable inputs: `SimConfig`, plans, kernels), so a bug in any
//! fast-path optimization shows up as a [`crate::KernelStats`]
//! divergence under `ladm-fuzz`'s differential harness.

use crate::config::{CacheConfig, SimConfig};
use crate::exec::{KernelExec, ThreadAccess};
use crate::mem::{Allocation, HomeLookup, SectorHome};
use crate::stats::KernelStats;
use ladm_core::plan::{KernelPlan, PageMap, RemoteInsert, RrOrder};
use ladm_core::policies::Policy;
use ladm_core::rng::SplitMix64;
use ladm_core::topology::{NodeId, Topology};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// The pre-flat-table resolution path — `partition_point` binary search
/// over allocations plus `first_touch` / `migrated` side HashMaps — kept
/// verbatim as the oracle for the page-home differential test and the
/// fuzzer's oracle machine.
#[derive(Debug)]
pub struct ReferenceResolver {
    page_bytes: u64,
    allocs: Vec<Allocation>,
    first_touch: HashMap<u64, NodeId>,
    migrated: HashMap<u64, NodeId>,
    migration_state: HashMap<u64, (NodeId, u32)>,
    page_faults: u64,
    migrations: u64,
}

impl ReferenceResolver {
    /// Copies the allocation layout of `mem` with empty side tables and
    /// zeroed counters.
    pub fn mirror(mem: &crate::mem::AddressSpace) -> Self {
        ReferenceResolver {
            page_bytes: mem.page_bytes(),
            allocs: mem.allocations().to_vec(),
            first_touch: HashMap::new(),
            migrated: HashMap::new(),
            migration_state: HashMap::new(),
            page_faults: 0,
            migrations: 0,
        }
    }

    /// Applies a kernel plan: one page map + insertion policy per
    /// allocation, clearing first-touch pins and migrations (the fault
    /// counter persists, mirroring `AddressSpace::apply_plan`).
    pub fn apply_plan(&mut self, plan: &KernelPlan) {
        for (alloc, arg) in self.allocs.iter_mut().zip(&plan.args) {
            alloc.page_map = arg.pages.clone();
            alloc.remote_insert = arg.remote_insert;
        }
        self.first_touch.clear();
        self.migrated.clear();
        self.migration_state.clear();
        self.migrations = 0;
    }

    /// The allocation containing `addr`, by binary search.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every allocation.
    pub fn alloc_of_addr(&self, addr: u64) -> (usize, &Allocation) {
        let i = self
            .allocs
            .partition_point(|a| a.base + a.pages(self.page_bytes) * self.page_bytes <= addr);
        let alloc = self
            .allocs
            .get(i)
            .filter(|a| addr >= a.base)
            .unwrap_or_else(|| panic!("address {addr:#x} is not mapped"));
        (i, alloc)
    }

    /// Resolves the home chiplet of `addr` with `toucher` as the
    /// first-touch candidate, via the side HashMaps.
    pub fn home_of(&mut self, addr: u64, toucher: NodeId, topo: &Topology) -> HomeLookup {
        let page = addr / self.page_bytes;
        if let Some(&node) = self.migrated.get(&page) {
            return HomeLookup {
                node,
                faulted: false,
            };
        }
        let (_, alloc) = self.alloc_of_addr(addr);
        let rel_offset = addr - alloc.base;
        match crate::homes::static_home(&alloc.page_map, rel_offset, self.page_bytes, topo) {
            crate::homes::StaticHome::Node(node) => HomeLookup {
                node,
                faulted: false,
            },
            crate::homes::StaticHome::FirstTouch => match self.first_touch.get(&page) {
                Some(&node) => HomeLookup {
                    node,
                    faulted: false,
                },
                None => {
                    self.first_touch.insert(page, toucher);
                    self.page_faults += 1;
                    HomeLookup {
                        node: toucher,
                        faulted: true,
                    }
                }
            },
        }
    }

    /// Full per-sector resolution: the home node plus the owning
    /// allocation's attributes (the oracle engine's counterpart of
    /// `AddressSpace::resolve`).
    pub fn resolve(&mut self, addr: u64, toucher: NodeId, topo: &Topology) -> SectorHome {
        let look = self.home_of(addr, toucher, topo);
        let (arg, alloc) = self.alloc_of_addr(addr);
        SectorHome {
            node: look.node,
            faulted: look.faulted,
            arg: arg as u32,
            remote_insert: alloc.remote_insert,
        }
    }

    /// Records a remote access for the reactive-migration streak
    /// counter; `true` when the page just migrated to `requester`.
    pub fn record_remote_access(&mut self, addr: u64, requester: NodeId, threshold: u32) -> bool {
        if threshold == 0 {
            return false;
        }
        let page = addr / self.page_bytes;
        let state = self.migration_state.entry(page).or_insert((requester, 0));
        if state.0 == requester {
            state.1 += 1;
        } else {
            *state = (requester, 1);
        }
        if state.1 >= threshold {
            self.migrated.insert(page, requester);
            self.migration_state.remove(&page);
            self.migrations += 1;
            true
        } else {
            false
        }
    }

    /// First-touch page faults taken since construction.
    pub fn page_faults(&self) -> u64 {
        self.page_faults
    }

    /// Pages moved by reactive migration since construction or the last
    /// [`ReferenceResolver::apply_plan`].
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}

/// Draws a random [`PageMap`], covering every variant (fuzzer and
/// page-table differential test input).
pub fn random_map(rng: &mut SplitMix64, topo: &Topology, alloc_pages: u64) -> PageMap {
    let order = if rng.chance(1, 2) {
        RrOrder::Hierarchical
    } else {
        RrOrder::GpuMajor
    };
    match rng.below(6) {
        0 => PageMap::Fixed(NodeId(rng.range_u32(0, topo.num_nodes() - 1))),
        1 => PageMap::FirstTouch,
        2 => PageMap::Interleave {
            gran_pages: u64::from(rng.range_u32(0, 4)),
            order,
        },
        3 => PageMap::Chunk {
            pages_per_node: u64::from(rng.range_u32(1, 4)),
        },
        4 => PageMap::Spread {
            total_pages: alloc_pages.max(1),
        },
        _ => PageMap::SubPageInterleave {
            gran_bytes: 256 << rng.below(3),
            order,
        },
    }
}

/// Low 56 bits of a line number (mirrors the packed-cache tag width so
/// both models agree on aliasing, however theoretical).
const LINE_MASK: u64 = (1 << 56) - 1;

/// One way of the oracle cache; valid iff `sectors != 0` (a resident
/// line always holds at least the sector that allocated it).
#[derive(Debug, Clone, Copy, Default)]
struct OracleWay {
    line: u64,
    sectors: u64,
    lru: u64,
}

/// Naive sectored set-associative cache: a vector of ways per set,
/// explicit probe/fill split, no MRU memoization. Bit-identical clock,
/// LRU and victim behaviour to [`crate::cache::SectoredCache`].
#[derive(Debug, Clone)]
pub struct OracleCache {
    sets: Vec<Vec<OracleWay>>,
    set_mask: u64,
    line_shift: u32,
    sector_shift: u32,
    clock: u64,
}

impl OracleCache {
    /// Builds an empty cache with the given geometry.
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.num_sets() as usize;
        OracleCache {
            sets: vec![vec![OracleWay::default(); config.assoc as usize]; sets],
            set_mask: sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            sector_shift: config.sector_bytes.trailing_zeros(),
            clock: 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & LINE_MASK
    }

    fn sector_bit(&self, addr: u64) -> u64 {
        let sector_in_line =
            (addr >> self.sector_shift) & ((1 << (self.line_shift - self.sector_shift)) - 1);
        1u64 << sector_in_line
    }

    /// Probes for the sector containing `addr` without filling (LRU is
    /// stamped on hits).
    pub fn probe(&mut self, addr: u64) -> crate::cache::Lookup {
        self.clock += 1;
        let line = self.line_of(addr);
        let bit = self.sector_bit(addr);
        let set = &mut self.sets[(line & self.set_mask) as usize];
        for way in set.iter_mut() {
            if way.sectors != 0 && way.line == line {
                if way.sectors & bit != 0 {
                    way.lru = self.clock;
                    return crate::cache::Lookup::Hit;
                }
                return crate::cache::Lookup::SectorMiss;
            }
        }
        crate::cache::Lookup::LineMiss
    }

    /// Inserts the sector containing `addr`, evicting the invalid-first
    /// / oldest-LRU way when the line is absent (first strict minimum in
    /// way order wins, exactly like the fast cache).
    pub fn fill(&mut self, addr: u64) {
        self.clock += 1;
        let clock = self.clock;
        let line = self.line_of(addr);
        let bit = self.sector_bit(addr);
        let set = &mut self.sets[(line & self.set_mask) as usize];
        let mut victim = usize::MAX;
        let mut victim_key = (2u8, u64::MAX);
        for (i, way) in set.iter_mut().enumerate() {
            if way.sectors != 0 && way.line == line {
                way.sectors |= bit;
                way.lru = clock;
                return;
            }
            let key = if way.sectors != 0 {
                (1, way.lru)
            } else {
                (0, 0)
            };
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        set[victim] = OracleWay {
            line,
            sectors: bit,
            lru: clock,
        };
    }

    /// Read with allocate-on-miss: probe, then fill on any miss. The
    /// split path advances the clock once in the probe and once in the
    /// fill — exactly the fused path's accounting.
    pub fn access(&mut self, addr: u64) -> crate::cache::Lookup {
        let r = self.probe(addr);
        if r != crate::cache::Lookup::Hit {
            self.fill(addr);
        }
        r
    }

    /// Invalidates the line containing `addr` if present.
    pub fn invalidate(&mut self, addr: u64) {
        let line = self.line_of(addr);
        let set = &mut self.sets[(line & self.set_mask) as usize];
        for way in set.iter_mut() {
            if way.sectors != 0 && way.line == line {
                way.sectors = 0;
                return;
            }
        }
    }
}

/// Accounting-bin width in cycles (mirrors the fast bucket).
const BIN_CYCLES: f64 = 32.0;

/// Bins retained behind the newest referenced bin (mirrors the fast
/// bucket's pruning horizon).
const RETAIN_BINS: usize = 2048;

/// Naive binned bandwidth ledger: walks every bin one at a time with no
/// skip pointers, no drained-watermark and no path compression.
/// Bit-identical departure times to [`crate::bw::TokenBucket`].
#[derive(Debug, Clone)]
pub struct OracleBucket {
    bytes_per_cycle: f64,
    capacity_per_bin: f64,
    bins: VecDeque<f64>,
    first_bin: u64,
}

impl OracleBucket {
    /// Creates a bucket with the given service rate (bytes/cycle).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(
            bytes_per_cycle > 0.0 && bytes_per_cycle.is_finite(),
            "bandwidth must be positive and finite"
        );
        OracleBucket {
            bytes_per_cycle,
            capacity_per_bin: bytes_per_cycle * BIN_CYCLES,
            bins: VecDeque::new(),
            first_bin: 0,
        }
    }

    /// Claims the resource for a `bytes`-sized transfer arriving at
    /// `now`; returns the departure time.
    pub fn claim(&mut self, now: f64, bytes: u64) -> f64 {
        let now = now.max(0.0);
        let mut bin = ((now / BIN_CYCLES) as u64).max(self.first_bin);
        let mut remaining = bytes as f64;
        let served = loop {
            let idx = self.bin_idx(bin);
            let cap = self.bins[idx];
            if cap == 0.0 {
                bin += 1;
                continue;
            }
            if cap >= remaining {
                let left = cap - remaining;
                self.bins[idx] = left;
                let fill = 1.0 - left / self.capacity_per_bin;
                let depart_bin = (bin as f64 + fill) * BIN_CYCLES;
                break depart_bin.max(now + bytes as f64 / self.bytes_per_cycle);
            }
            remaining -= cap;
            self.bins[idx] = 0.0;
            bin += 1;
        };
        self.prune(bin);
        served
    }

    fn bin_idx(&mut self, bin: u64) -> usize {
        let idx = (bin - self.first_bin) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, self.capacity_per_bin);
        }
        idx
    }

    fn prune(&mut self, newest: u64) {
        let horizon = newest.saturating_sub(RETAIN_BINS as u64);
        while self.first_bin < horizon && !self.bins.is_empty() {
            self.bins.pop_front();
            self.first_bin += 1;
        }
    }
}

/// Naive shared interconnect: per-GPU ring / switch-egress /
/// switch-ingress [`OracleBucket`]s claimed in the same hop order as
/// [`crate::fabric::Fabric`].
#[derive(Debug)]
pub struct OracleFabric {
    topo: Topology,
    ring: Vec<OracleBucket>,
    switch_out: Vec<OracleBucket>,
    switch_in: Vec<OracleBucket>,
    ring_latency: f64,
    switch_latency: f64,
    inter_chiplet_bytes: u64,
    inter_gpu_bytes: u64,
}

impl OracleFabric {
    /// Builds the fabric for a configuration.
    pub fn new(cfg: &SimConfig) -> Self {
        let gpus = cfg.topology.num_gpus as usize;
        OracleFabric {
            topo: cfg.topology,
            ring: (0..gpus).map(|_| OracleBucket::new(cfg.ring_bw)).collect(),
            switch_out: (0..gpus)
                .map(|_| OracleBucket::new(cfg.switch_bw))
                .collect(),
            switch_in: (0..gpus)
                .map(|_| OracleBucket::new(cfg.switch_bw))
                .collect(),
            ring_latency: cfg.ring_latency as f64,
            switch_latency: cfg.switch_latency as f64,
            inter_chiplet_bytes: 0,
            inter_gpu_bytes: 0,
        }
    }

    /// Routes `bytes` from chiplet `from` to chiplet `to`; returns the
    /// arrival time.
    pub fn route(&mut self, now: f64, from: NodeId, to: NodeId, bytes: u64) -> f64 {
        if from == to {
            return now;
        }
        let fg = self.topo.gpu_of(from).0 as usize;
        let tg = self.topo.gpu_of(to).0 as usize;
        let mut t = now;
        if fg == tg {
            t = self.ring[fg].claim(t, bytes) + self.ring_latency;
            self.inter_chiplet_bytes += bytes;
        } else {
            if self.topo.chiplets_per_gpu > 1 {
                t = self.ring[fg].claim(t, bytes) + self.ring_latency;
            }
            t = self.switch_out[fg].claim(t, bytes) + self.switch_latency;
            t = self.switch_in[tg].claim(t, bytes);
            if self.topo.chiplets_per_gpu > 1 {
                t = self.ring[tg].claim(t, bytes) + self.ring_latency;
            }
            self.inter_gpu_bytes += bytes;
        }
        t
    }
}

#[derive(Debug, Clone, Copy)]
struct OWarp {
    bx: u32,
    by: u32,
    warp: u32,
    iter: u32,
    sm: u32,
    tb: u32,
}

#[derive(Debug, Clone, Copy)]
struct OTb {
    live_warps: u32,
    node: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct OSm {
    free_tb_slots: u32,
    free_warps: u32,
    next_issue: f64,
}

/// The oracle machine: runs any kernel/policy pair through the naive
/// component models in the same canonical `(time, seq)` event order as
/// the fast engine, producing [`KernelStats`] that must match the
/// engine's bit for bit.
#[derive(Debug)]
pub struct OracleSystem {
    cfg: SimConfig,
}

impl OracleSystem {
    /// Builds the oracle machine for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimConfig::validate`].
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate();
        OracleSystem { cfg }
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Allocates, plans and executes `kernel` under `policy`, returning
    /// statistics that must be bit-identical (under `{:?}` formatting)
    /// to [`crate::GpuSystem::run`] on the same inputs.
    pub fn run(&mut self, kernel: &dyn KernelExec, policy: &dyn Policy) -> KernelStats {
        let launch = kernel.launch();
        let topo = self.cfg.topology;
        let plan = policy.plan(launch, &topo);
        // Allocation layout only: the oracle resolves page homes through
        // the HashMap-based ReferenceResolver, never the flat table.
        let mut mem = crate::mem::AddressSpace::new(self.cfg.page_bytes);
        for (i, arg) in launch.kernel.args.iter().enumerate() {
            mem.alloc(launch.arg_bytes(i).max(1), arg.elem_bytes);
        }
        let mut resolver = ReferenceResolver::mirror(&mem);
        resolver.apply_plan(&plan);
        let addr_tab: Vec<(u64, u64, u64)> = mem
            .allocations()
            .iter()
            .map(|a| (a.base, a.elems, u64::from(a.elem_bytes)))
            .collect();

        let warp_size = self.cfg.warp_size;
        let threads_per_tb = launch.threads_per_tb() as u32;
        let warps_per_tb = threads_per_tb.div_ceil(warp_size).max(1);
        let trips = kernel.trips().max(1);
        let tb_slots_per_sm = self
            .cfg
            .max_tbs_per_sm
            .min(self.cfg.warps_per_sm / warps_per_tb)
            .max(1);
        let warp_budget = self.cfg.warps_per_sm.max(warps_per_tb);
        let nodes = topo.num_nodes() as usize;
        let sms_per_chiplet = self.cfg.sms_per_chiplet;

        let mut eng = OracleEngine {
            kernel,
            resolver,
            topo,
            sms_per_chiplet,
            warps_per_tb,
            trips,
            warp_size,
            compute_cycles: (self.cfg.base_compute_cycles
                * u64::from(kernel.compute_intensity().max(1))) as f64,
            issue_cost: 1.0 / self.cfg.issue_per_cycle,
            sector_mask: !(u64::from(self.cfg.l1.sector_bytes) - 1),
            sector_bytes: u64::from(self.cfg.l1.sector_bytes),
            l1_lat: self.cfg.l1.latency as f64,
            l2_lat: self.cfg.l2.latency as f64,
            dram_lat: self.cfg.dram_latency as f64,
            xbar_lat: self.cfg.intra_chiplet_latency as f64,
            page_fault_cycles: self.cfg.page_fault_cycles as f64,
            migration_threshold: self.cfg.migration_threshold,
            remote_caching: self.cfg.remote_caching,
            page_bytes: self.cfg.page_bytes,
            addr_tab,
            sms: vec![OSm::default(); nodes * sms_per_chiplet as usize],
            queues: vec![VecDeque::new(); nodes],
            l1: (0..nodes * sms_per_chiplet as usize)
                .map(|_| OracleCache::new(&self.cfg.l1))
                .collect(),
            l2: (0..nodes).map(|_| OracleCache::new(&self.cfg.l2)).collect(),
            dram: (0..nodes)
                .map(|_| OracleBucket::new(self.cfg.dram_bw))
                .collect(),
            xbar: (0..nodes)
                .map(|_| OracleBucket::new(self.cfg.intra_chiplet_bw))
                .collect(),
            fabric: OracleFabric::new(&self.cfg),
            warps: Vec::new(),
            free_warp_slots: Vec::new(),
            tbs: Vec::new(),
            free_tb_slots: Vec::new(),
            events: Vec::new(),
            seq: 0,
            stats: KernelStats {
                offnode_by_arg: vec![0; mem.allocations().len()],
                ..KernelStats::default()
            },
            remote_args: 0,
            access_buf: Vec::new(),
        };
        for s in &mut eng.sms {
            *s = OSm {
                free_tb_slots: tb_slots_per_sm,
                free_warps: warp_budget,
                next_issue: 0.0,
            };
        }
        // Same shared dispatch-order helper as the engine: swizzled
        // schedules reorder the walk, and the oracle must stay in
        // lockstep with it.
        for (bx, by) in plan.schedule.dispatch_order(launch.grid) {
            let node = plan.schedule.node_of_tb(bx, by, launch.grid, &topo);
            eng.queues[node.0 as usize].push_back((bx, by));
        }
        for node in 0..topo.num_nodes() {
            eng.dispatch_node(node, 0.0);
        }
        while eng.step() {}
        debug_assert!(eng.queues.iter().all(VecDeque::is_empty));

        let mut stats = eng.stats;
        stats.offnode_by_arg.truncate(eng.remote_args);
        stats.inter_chiplet_bytes = eng.fabric.inter_chiplet_bytes;
        stats.inter_gpu_bytes = eng.fabric.inter_gpu_bytes;
        stats.page_faults = eng.resolver.page_faults();
        stats.page_migrations = eng.resolver.migrations();
        stats
    }
}

/// All mutable state of one oracle execution.
struct OracleEngine<'a> {
    kernel: &'a dyn KernelExec,
    resolver: ReferenceResolver,
    topo: Topology,
    sms_per_chiplet: u32,
    warps_per_tb: u32,
    trips: u32,
    warp_size: u32,
    compute_cycles: f64,
    issue_cost: f64,
    sector_mask: u64,
    sector_bytes: u64,
    l1_lat: f64,
    l2_lat: f64,
    dram_lat: f64,
    xbar_lat: f64,
    page_fault_cycles: f64,
    migration_threshold: u32,
    remote_caching: bool,
    page_bytes: u64,
    addr_tab: Vec<(u64, u64, u64)>,
    sms: Vec<OSm>,
    queues: Vec<VecDeque<(u32, u32)>>,
    l1: Vec<OracleCache>,
    l2: Vec<OracleCache>,
    dram: Vec<OracleBucket>,
    xbar: Vec<OracleBucket>,
    fabric: OracleFabric,
    warps: Vec<OWarp>,
    free_warp_slots: Vec<u32>,
    tbs: Vec<OTb>,
    free_tb_slots: Vec<u32>,
    /// The pending events as a flat `(time, seq, warp)` list; the next
    /// event is found by a linear scan for the minimum key.
    events: Vec<(f64, u64, u32)>,
    seq: u64,
    stats: KernelStats,
    remote_args: usize,
    access_buf: Vec<ThreadAccess>,
}

impl OracleEngine<'_> {
    /// Dispatches threadblocks from node `node`'s queue onto its SMs
    /// until no SM has room for a whole block (same slot-recycling
    /// discipline as the engine, so warp indices match event for event).
    fn dispatch_node(&mut self, node: u32, now: f64) {
        let sm_base = node * self.sms_per_chiplet;
        'outer: while !self.queues[node as usize].is_empty() {
            let mut chosen = None;
            for i in 0..self.sms_per_chiplet {
                let s = &self.sms[(sm_base + i) as usize];
                if s.free_tb_slots > 0 && s.free_warps >= self.warps_per_tb {
                    chosen = Some(i);
                    break;
                }
            }
            let Some(local) = chosen else { break 'outer };
            let sm = sm_base + local;
            let (bx, by) = self.queues[node as usize]
                .pop_front()
                .expect("checked non-empty");
            let sm_state = &mut self.sms[sm as usize];
            sm_state.free_tb_slots -= 1;
            sm_state.free_warps -= self.warps_per_tb;
            let tb_idx = match self.free_tb_slots.pop() {
                Some(i) => {
                    self.tbs[i as usize] = OTb {
                        live_warps: self.warps_per_tb,
                        node,
                    };
                    i
                }
                None => {
                    self.tbs.push(OTb {
                        live_warps: self.warps_per_tb,
                        node,
                    });
                    (self.tbs.len() - 1) as u32
                }
            };
            self.stats.threadblocks += 1;
            for w in 0..self.warps_per_tb {
                let ctx = OWarp {
                    bx,
                    by,
                    warp: w,
                    iter: 0,
                    sm,
                    tb: tb_idx,
                };
                let warp_idx = match self.free_warp_slots.pop() {
                    Some(i) => {
                        self.warps[i as usize] = ctx;
                        i
                    }
                    None => {
                        self.warps.push(ctx);
                        (self.warps.len() - 1) as u32
                    }
                };
                self.seq += 1;
                self.events.push((now, self.seq, warp_idx));
            }
        }
    }

    /// Removes and returns the event with the smallest `(time, seq)` key
    /// by linear scan (`seq` is unique, so the order is strict and
    /// matches the engine's binary heap exactly).
    fn pop_event(&mut self) -> Option<(f64, u64, u32)> {
        if self.events.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.events.len() {
            let (t, s, _) = self.events[i];
            let (bt, bs, _) = self.events[best];
            if t.total_cmp(&bt).then(s.cmp(&bs)).is_lt() {
                best = i;
            }
        }
        Some(self.events.swap_remove(best))
    }

    /// Pops and resolves one event; `false` when the list is empty.
    fn step(&mut self) -> bool {
        let Some((now, _, warp)) = self.pop_event() else {
            return false;
        };
        let ctx = self.warps[warp as usize];
        self.stats.cycles = self.stats.cycles.max(now);

        if ctx.iter >= self.trips {
            // Warp retired.
            self.free_warp_slots.push(warp);
            let tb = &mut self.tbs[ctx.tb as usize];
            tb.live_warps -= 1;
            if tb.live_warps == 0 {
                let tb_node = tb.node;
                self.free_tb_slots.push(ctx.tb);
                let sm_state = &mut self.sms[ctx.sm as usize];
                sm_state.free_tb_slots += 1;
                sm_state.free_warps += self.warps_per_tb;
                self.dispatch_node(tb_node, now);
            }
            return true;
        }

        // Always regenerate: the oracle has no slot cache, no
        // iteration-invariant replay and no epoch prefetch.
        let (instrs, sectors) = self.gen_warp(ctx);
        self.stats.warp_instructions += instrs;
        let sm_state = &mut self.sms[ctx.sm as usize];
        let issue = now.max(sm_state.next_issue);
        sm_state.next_issue = issue + self.issue_cost * instrs as f64;

        let mut done = issue + self.compute_cycles;
        for (&sector, &write) in &sectors {
            let t = self.route_sector(issue, ctx.sm, sector, write);
            done = done.max(t);
        }

        self.warps[warp as usize].iter += 1;
        self.seq += 1;
        self.events.push((done, self.seq, warp));
        true
    }

    /// Generates one warp iteration's accesses and coalesces them into
    /// an ordered sector map (`BTreeMap` iteration is ascending by
    /// address, matching the engine's sorted-deduplicated vector; write
    /// flags OR-merge).
    fn gen_warp(&mut self, ctx: OWarp) -> (u64, BTreeMap<u64, bool>) {
        let kernel = self.kernel;
        self.access_buf.clear();
        kernel.warp_accesses((ctx.bx, ctx.by), ctx.warp, ctx.iter, &mut self.access_buf);
        let mut sectors: BTreeMap<u64, bool> = BTreeMap::new();
        for a in &self.access_buf {
            let (base, elems, elem_bytes) = self.addr_tab[usize::from(a.arg)];
            let addr = base + (a.idx % elems) * elem_bytes;
            let entry = sectors.entry(addr & self.sector_mask).or_insert(false);
            *entry |= a.write;
        }
        let mem_instrs = (self.access_buf.len() as u64)
            .div_ceil(u64::from(self.warp_size))
            .max(u64::from(!self.access_buf.is_empty()));
        (1 + mem_instrs, sectors)
    }

    /// Drives one sector through the naive hierarchy starting at `t`;
    /// returns its completion time. Mirrors `GpuSystem::route_sector`
    /// decision for decision.
    fn route_sector(&mut self, t: f64, sm: u32, addr: u64, write: bool) -> f64 {
        let node = NodeId(sm / self.sms_per_chiplet);
        let nid = node.0 as usize;
        let l2_lat = self.l2_lat;

        // L1 (write-through, no write-allocate) and the crossbar hop.
        let t = {
            if write {
                self.l1[sm as usize].invalidate(addr);
                self.stats.l1_misses += 1;
            } else {
                match self.l1[sm as usize].access(addr) {
                    crate::cache::Lookup::Hit => {
                        self.stats.l1_hits += 1;
                        return t + self.l1_lat;
                    }
                    _ => self.stats.l1_misses += 1,
                }
            }
            self.xbar[nid].claim(t + self.l1_lat, self.sector_bytes) + self.xbar_lat
        };

        let home = self.resolver.resolve(addr, node, &self.topo);
        let mut t = t;
        if home.faulted {
            t += self.page_fault_cycles;
        }

        if home.node == node {
            // LOCAL-LOCAL: L2 slice lookup, DRAM fill on miss.
            self.stats.l2_local_local.accesses += 1;
            return match self.l2[nid].access(addr) {
                crate::cache::Lookup::Hit => {
                    self.stats.l2_local_local.hits += 1;
                    t + l2_lat
                }
                _ => {
                    self.stats.dram_sectors += 1;
                    let dram_done = self.dram[nid].claim(t + l2_lat, self.sector_bytes);
                    if write {
                        t + l2_lat
                    } else {
                        dram_done + self.dram_lat
                    }
                }
            };
        }

        let offgpu = !self.topo.same_gpu(home.node, node);
        let arg = home.arg as usize;
        self.remote_args = self.remote_args.max(arg + 1);
        let hid = home.node.0 as usize;
        if self.migration_threshold > 0
            && self
                .resolver
                .record_remote_access(addr, node, self.migration_threshold)
        {
            // Reactive migration: the page crosses the fabric and the
            // triggering sector is served locally (not counted off-node).
            let t = self
                .fabric
                .route(t + l2_lat, home.node, node, self.page_bytes);
            let t = self.dram[nid].claim(t, self.sector_bytes) + self.dram_lat;
            self.l2[nid].fill(addr);
            if !write {
                self.l1[sm as usize].fill(addr);
            }
            return t;
        }

        if write {
            // Write data to the home shard; local copy invalidated.
            self.note_offnode(arg, offgpu);
            self.l2[nid].invalidate(addr);
            let t = self
                .fabric
                .route(t + l2_lat, node, home.node, self.sector_bytes);
            self.stats.l2_remote_local.accesses += 1;
            if self.l2[hid].probe(addr) == crate::cache::Lookup::Hit {
                self.stats.l2_remote_local.hits += 1;
                self.l2[hid].fill(addr);
                t + l2_lat
            } else {
                self.l2[hid].fill(addr);
                self.stats.dram_sectors += 1;
                // Posted write: bandwidth charged, latency hidden.
                self.dram[hid].claim(t + l2_lat, self.sector_bytes)
            }
        } else {
            // LOCAL-REMOTE probe of the requester's own L2 partition.
            if self.remote_caching {
                self.stats.l2_local_remote.accesses += 1;
                if self.l2[nid].probe(addr) == crate::cache::Lookup::Hit {
                    self.stats.l2_local_remote.hits += 1;
                    return t + l2_lat;
                }
            }
            // Header to the home, REMOTE-LOCAL service, data reply back.
            self.note_offnode(arg, offgpu);
            let t = self.fabric.route(t + l2_lat, node, home.node, 8);
            self.stats.l2_remote_local.accesses += 1;
            let reply_t = match self.l2[hid].probe(addr) {
                crate::cache::Lookup::Hit => {
                    self.stats.l2_remote_local.hits += 1;
                    t + l2_lat
                }
                _ => {
                    self.stats.dram_sectors += 1;
                    let t = self.dram[hid].claim(t + l2_lat, self.sector_bytes) + self.dram_lat;
                    if home.remote_insert == RemoteInsert::Twice {
                        self.l2[hid].fill(addr);
                    }
                    t
                }
            };
            let t = self
                .fabric
                .route(reply_t, home.node, node, self.sector_bytes);
            if self.remote_caching {
                self.l2[nid].fill(addr);
            }
            self.l1[sm as usize].fill(addr);
            t
        }
    }

    fn note_offnode(&mut self, arg: usize, offgpu: bool) {
        self.stats.sectors_offnode += 1;
        self.stats.offnode_by_arg[arg] += 1;
        if offgpu {
            self.stats.sectors_offgpu += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bw::TokenBucket;
    use crate::cache::SectoredCache;
    use crate::GpuSystem;
    use ladm_core::analysis::GridShape;
    use ladm_core::expr::{Expr, Var};
    use ladm_core::launch::{ArgStatic, KernelStatic, LaunchInfo};
    use ladm_core::policies::{BaselineRr, BatchFt, KernelWide, Lasp};

    #[test]
    fn oracle_bucket_matches_token_bucket() {
        let mut rng = SplitMix64::new(0xbbbb_0001);
        for trial in 0..50 {
            let rate = [0.5, 1.0, 32.0, 128.57, 1000.0][rng.below(5) as usize];
            let mut fast = TokenBucket::new(rate);
            let mut slow = OracleBucket::new(rate);
            for step in 0..400 {
                // Out-of-order arrivals over a wide window, including
                // claims far in the pruned past.
                let now = rng.next_f64() * 200_000.0 - 100.0;
                let bytes = 1 + rng.below(8192);
                let a = fast.claim(now, bytes);
                let b = slow.claim(now, bytes);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "trial {trial} step {step}: claim({now}, {bytes}) diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn oracle_cache_matches_sectored_cache() {
        let mut rng = SplitMix64::new(0xcccc_0002);
        let cfg = CacheConfig {
            bytes: 4096,
            assoc: 4,
            line_bytes: 128,
            sector_bytes: 32,
            latency: 1,
        };
        for trial in 0..50 {
            let mut fast = SectoredCache::new(&cfg);
            let mut slow = OracleCache::new(&cfg);
            for step in 0..2000 {
                // A small address range so sets, lines and sectors all
                // collide frequently.
                let addr = rng.below(512) * 32;
                match rng.below(4) {
                    0 => {
                        let a = fast.probe(addr);
                        let b = slow.probe(addr);
                        assert_eq!(a, b, "trial {trial} step {step}: probe({addr:#x})");
                    }
                    1 => {
                        fast.fill(addr);
                        slow.fill(addr);
                    }
                    2 => {
                        fast.invalidate(addr);
                        slow.invalidate(addr);
                    }
                    _ => {
                        let a = fast.access(addr);
                        let b = slow.access(addr);
                        assert_eq!(a, b, "trial {trial} step {step}: access({addr:#x})");
                    }
                }
            }
        }
    }

    /// Minimal vecadd-style kernel (mirrors the engine's own test
    /// kernel): each thread reads a[i], b[i], writes c[i]; i = bx*bdx+tx.
    #[derive(Debug)]
    struct VecAdd {
        launch: LaunchInfo,
        trips: u32,
    }

    impl VecAdd {
        fn new(blocks: u32, bdx: u32, trips: u32) -> Self {
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
                trips,
            }
        }
    }

    impl KernelExec for VecAdd {
        fn launch(&self) -> &LaunchInfo {
            &self.launch
        }
        fn trips(&self) -> u32 {
            self.trips
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
        fn iter_invariant(&self) -> bool {
            true
        }
    }

    fn assert_oracle_matches(cfg: SimConfig, kernel: &dyn KernelExec, policy: &dyn Policy) {
        let mut fast = GpuSystem::new(cfg.clone());
        let engine = fast.run(kernel, policy);
        let mut slow = OracleSystem::new(cfg);
        let oracle = slow.run(kernel, policy);
        assert_eq!(
            format!("{engine:?}"),
            format!("{oracle:?}"),
            "oracle diverged from engine under policy {}",
            policy.name()
        );
    }

    #[test]
    fn oracle_matches_engine_across_policies() {
        let kernel = VecAdd::new(96, 128, 1);
        for policy in [
            &BaselineRr::new() as &dyn Policy,
            &BatchFt::new(),
            &KernelWide::new(),
            &Lasp::ladm(),
        ] {
            assert_oracle_matches(SimConfig::paper_multi_gpu(), &kernel, policy);
        }
    }

    #[test]
    fn oracle_matches_engine_on_looped_kernels() {
        // trips > 1 exercises the engine's iteration-invariant replay
        // cache, which the oracle must reproduce by regenerating.
        let kernel = VecAdd::new(48, 96, 4);
        assert_oracle_matches(SimConfig::paper_multi_gpu(), &kernel, &BaselineRr::new());
        assert_oracle_matches(SimConfig::monolithic(), &kernel, &KernelWide::new());
    }

    #[test]
    fn oracle_matches_engine_with_migration_and_faults() {
        let kernel = VecAdd::new(64, 128, 2);
        let mut cfg = SimConfig::paper_multi_gpu();
        cfg.migration_threshold = 2;
        cfg.page_fault_cycles = 500;
        cfg.remote_caching = false;
        assert_oracle_matches(cfg, &kernel, &BatchFt::new());
    }

    #[test]
    fn oracle_matches_engine_on_small_topologies() {
        let kernel = VecAdd::new(32, 64, 1);
        assert_oracle_matches(SimConfig::fig4_ring(1400), &kernel, &BaselineRr::new());
        assert_oracle_matches(SimConfig::fig4_xbar(90), &kernel, &Lasp::ladm());
    }
}
