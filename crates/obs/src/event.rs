//! The trace-event taxonomy: everything the instrumented pipeline can
//! report, from policy decisions at launch down to per-sector routing.
//!
//! Events are plain data — no references into simulator state — so a
//! recorded trace outlives the run that produced it and can be exported
//! long after the `GpuSystem` is gone.

use std::fmt;

/// Where a memory sector request was ultimately served from.
///
/// Mirrors the branch structure of `GpuSystem::route_sector`: the route
/// names the *terminal* service point, so exactly one `Sector` event is
/// emitted per L1 miss (plus one per L1 hit when tracing is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SectorRoute {
    /// Served by the SM-local L1 (no fabric traffic at all).
    L1Hit,
    /// Home node is the requester's own chiplet and its L2 hit.
    L2LocalHit,
    /// Home node is local; filled from the chiplet's own DRAM stack.
    DramLocal,
    /// Remote-homed sector found in the *requester's* L2 (RTWICE/CRB
    /// remote-caching paid off).
    L2RemoteCachedHit,
    /// Crossed the fabric and hit in the *home* chiplet's L2.
    L2HomeHit,
    /// Crossed the fabric and filled from the home chiplet's DRAM.
    DramRemote,
    /// The access triggered (or was absorbed by) a reactive page
    /// migration to the requester's chiplet.
    Migrated,
}

impl SectorRoute {
    /// Stable lowercase identifier used in exports and counter labels.
    pub fn label(self) -> &'static str {
        match self {
            SectorRoute::L1Hit => "l1_hit",
            SectorRoute::L2LocalHit => "l2_local_hit",
            SectorRoute::DramLocal => "dram_local",
            SectorRoute::L2RemoteCachedHit => "l2_remote_cached_hit",
            SectorRoute::L2HomeHit => "l2_home_hit",
            SectorRoute::DramRemote => "dram_remote",
            SectorRoute::Migrated => "migrated",
        }
    }

    /// All routes, in severity order (cheapest service point first).
    pub fn all() -> [SectorRoute; 7] {
        [
            SectorRoute::L1Hit,
            SectorRoute::L2LocalHit,
            SectorRoute::DramLocal,
            SectorRoute::L2RemoteCachedHit,
            SectorRoute::L2HomeHit,
            SectorRoute::DramRemote,
            SectorRoute::Migrated,
        ]
    }
}

impl fmt::Display for SectorRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One level of the interconnect hierarchy a transfer can occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkLevel {
    /// Intra-chiplet SM↔L2 crossbar.
    Xbar,
    /// Inter-chiplet ring within one GPU.
    Ring,
    /// Inter-GPU switch, egress side of the source GPU.
    SwitchOut,
    /// Inter-GPU switch, ingress side of the destination GPU.
    SwitchIn,
    /// A chiplet's local HBM stack.
    Dram,
}

impl LinkLevel {
    /// Stable lowercase identifier used in exports and counter labels.
    pub fn label(self) -> &'static str {
        match self {
            LinkLevel::Xbar => "xbar",
            LinkLevel::Ring => "ring",
            LinkLevel::SwitchOut => "switch_out",
            LinkLevel::SwitchIn => "switch_in",
            LinkLevel::Dram => "dram",
        }
    }

    /// All levels, innermost first.
    pub fn all() -> [LinkLevel; 5] {
        [
            LinkLevel::Xbar,
            LinkLevel::Ring,
            LinkLevel::SwitchOut,
            LinkLevel::SwitchIn,
            LinkLevel::Dram,
        ]
    }
}

impl fmt::Display for LinkLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single observation from the instrumented pipeline.
///
/// Variants are ordered roughly by pipeline stage: launch-time policy
/// decisions first, then runtime dispatch, then per-sector memory
/// traffic, then kernel completion.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A kernel launch was planned: which policy ran and what schedule
    /// it chose.
    KernelBegin {
        /// Kernel name.
        kernel: String,
        /// Policy that produced the plan (e.g. `lasp-rtwice`).
        policy: String,
        /// Launch grid dimensions `(gdx, gdy)`.
        grid: (u32, u32),
        /// Display form of the chosen `TbMap` schedule.
        schedule: String,
    },
    /// One per kernel argument: the Table II classification and the
    /// per-structure decision chain that fed the scheduler tie-break.
    ArgDecision {
        /// Kernel name.
        kernel: String,
        /// Argument index in declaration order.
        arg: usize,
        /// Argument name from the kernel signature.
        name: String,
        /// Display form of the access classification (Table II).
        class: String,
        /// Scheduler preference this structure voted for
        /// (`row-binding`, `col-binding`, `rr-batch`, `kernel-wide`).
        preference: String,
        /// Allocation size in bytes (the tie-break weight).
        bytes: u64,
        /// Whether this structure won the input-size-aware tie-break
        /// and dictated the kernel-wide schedule.
        winner: bool,
        /// Display form of the chosen `PageMap` placement.
        page_map: String,
        /// Display form of the chosen remote-insertion cache policy.
        remote_insert: String,
    },
    /// A threadblock was issued to an SM.
    TbDispatch {
        /// Simulator cycle of the dispatch.
        time: f64,
        /// Block x-index.
        bx: u32,
        /// Block y-index.
        by: u32,
        /// Chiplet (NUMA node) owning the SM.
        node: u16,
        /// Global SM index.
        sm: u32,
    },
    /// A threadblock's last warp retired.
    TbRetire {
        /// Simulator cycle of retirement.
        time: f64,
        /// Block x-index.
        bx: u32,
        /// Block y-index.
        by: u32,
        /// Chiplet (NUMA node) owning the SM.
        node: u16,
        /// Global SM index.
        sm: u32,
    },
    /// A 32 B sector request was served (one per L1 probe).
    Sector {
        /// Simulator cycle of the access.
        time: f64,
        /// Requesting chiplet.
        node: u16,
        /// Home chiplet of the page (== `node` for local routes).
        home: u16,
        /// Terminal service point.
        route: SectorRoute,
        /// Whether the access was a store.
        write: bool,
        /// Page index (virtual address / page size).
        page: u64,
        /// Sector payload bytes.
        bytes: u32,
    },
    /// Bytes were claimed on one fabric or DRAM link.
    LinkTransfer {
        /// Simulator cycle the claim started.
        time: f64,
        /// Which level of the hierarchy.
        level: LinkLevel,
        /// Link index within the level (chiplet or GPU index).
        index: u16,
        /// Bytes claimed.
        bytes: u32,
    },
    /// First touch resolved a page's home node.
    FirstTouch {
        /// Simulator cycle of the faulting access.
        time: f64,
        /// Page index (virtual address / page size).
        page: u64,
        /// Node the page was bound to.
        node: u16,
    },
    /// A kernel finished executing.
    KernelEnd {
        /// Kernel name.
        kernel: String,
        /// Final simulator cycle of the kernel.
        time: f64,
    },
    /// A session launch adopted an argument's committed page-home
    /// layout instead of replanning it (cross-kernel placement memory).
    PlanAdopted {
        /// Kernel name of the adopting launch.
        kernel: String,
        /// Argument index in the adopting launch.
        arg: usize,
        /// Argument / allocation name.
        name: String,
        /// Kernel name of the launch that committed the placement.
        pinned_by: String,
        /// How many launches (including this one) have adopted it.
        reuse: u32,
    },
    /// A session launch replanned an argument that already had a
    /// committed placement (pinning disabled, or deliberate override);
    /// the previous layout is superseded.
    PlanReplanned {
        /// Kernel name of the replanning launch.
        kernel: String,
        /// Argument index in the replanning launch.
        arg: usize,
        /// Argument / allocation name.
        name: String,
        /// Display form of the newly committed `PageMap`.
        page_map: String,
    },
    /// A session allocation's committed placement was invalidated
    /// (e.g. the allocation was resized); the next launch plans fresh.
    PlanInvalidated {
        /// Session allocation index.
        alloc: usize,
        /// Allocation name.
        name: String,
        /// Why the commitment was dropped.
        reason: String,
    },
}

impl Event {
    /// Short stable name used for Chrome-trace events and golden tests.
    pub fn name(&self) -> &'static str {
        match self {
            Event::KernelBegin { .. } => "kernel_begin",
            Event::ArgDecision { .. } => "arg_decision",
            Event::TbDispatch { .. } => "tb_dispatch",
            Event::TbRetire { .. } => "tb_retire",
            Event::Sector { .. } => "sector",
            Event::LinkTransfer { .. } => "link_transfer",
            Event::FirstTouch { .. } => "first_touch",
            Event::KernelEnd { .. } => "kernel_end",
            Event::PlanAdopted { .. } => "plan_adopted",
            Event::PlanReplanned { .. } => "plan_replanned",
            Event::PlanInvalidated { .. } => "plan_invalidated",
        }
    }
}
