//! Device address space: allocations, the flat page-home table and
//! first-touch resolution.
//!
//! Each `cudaMallocManaged` becomes an [`Allocation`] with its own
//! [`PageMap`] (set from the active [`KernelPlan`] at launch time, exactly
//! as LASP re-reads the locality table on every launch). Resolution is a
//! single bounds-checked index into a **flat page-home table** with one
//! entry per device page, precomputed when the plan is applied: the entry
//! carries the resolved home node (or a first-touch / sub-page sentinel),
//! the owning allocation and its [`RemoteInsert`] policy. First-touch pins
//! and reactive migrations are written back into the same table, so the
//! per-sector hot path never touches a hash map or a binary search.

use ladm_core::plan::{ArgPlan, KernelPlan, PageHomeKind, PageMap, RemoteInsert};
use ladm_core::topology::{NodeId, Topology};

/// [`PageHome::home`] sentinel: placement deferred to the first toucher.
const HOME_FIRST_TOUCH: u32 = u32::MAX;
/// [`PageHome::home`] sentinel: the page is striped below page
/// granularity; resolve the exact address through the owning allocation's
/// [`PageMap::node_of`].
const HOME_SUB_PAGE: u32 = u32::MAX - 1;
/// [`PageHome::arg`] sentinel: the page belongs to no allocation.
const ARG_UNMAPPED: u32 = u32::MAX;

/// One entry of the flat page-home table.
#[derive(Debug, Clone, Copy)]
struct PageHome {
    /// Resolved home node, or one of the `HOME_*` sentinels.
    home: u32,
    /// Owning allocation (argument index), or [`ARG_UNMAPPED`].
    arg: u32,
    /// The owning allocation's home-L2 insertion policy.
    remote_insert: RemoteInsert,
}

const UNMAPPED: PageHome = PageHome {
    home: HOME_FIRST_TOUCH,
    arg: ARG_UNMAPPED,
    remote_insert: RemoteInsert::Twice,
};

/// Per-page reactive-migration bookkeeping (lazily sized: most runs never
/// migrate, so the streak table is only materialized on first use).
#[derive(Debug, Clone, Copy)]
struct MigrationState {
    /// Last remote node observed accessing the page.
    node: u32,
    /// Consecutive accesses from that node.
    streak: u32,
}

const NO_STREAK: MigrationState = MigrationState {
    node: u32::MAX,
    streak: 0,
};

/// One managed allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Base device address (page aligned).
    pub base: u64,
    /// Length in bytes.
    pub len_bytes: u64,
    /// Element size in bytes.
    pub elem_bytes: u32,
    /// Number of elements (`len_bytes / elem_bytes`, at least 1) —
    /// precomputed so address arithmetic never re-derives it per access.
    pub elems: u64,
    /// Active page→node policy.
    pub page_map: PageMap,
    /// Active home-L2 insertion policy.
    pub remote_insert: RemoteInsert,
}

impl Allocation {
    /// Number of pages (for `page_bytes`-sized pages).
    pub fn pages(&self, page_bytes: u64) -> u64 {
        self.len_bytes.div_ceil(page_bytes).max(1)
    }
}

/// The device address space and page table.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    page_bytes: u64,
    page_shift: u32,
    allocs: Vec<Allocation>,
    next_base: u64,
    /// One entry per device page (page 0 reserved/unmapped).
    page_homes: Vec<PageHome>,
    /// Parallel to `page_homes`; empty until migration tracking starts.
    migration_streaks: Vec<MigrationState>,
    page_faults: u64,
    migrations: u64,
}

/// Result of a home-node resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeLookup {
    /// The chiplet owning the page.
    pub node: NodeId,
    /// Whether this access triggered the first-touch fault that placed the
    /// page.
    pub faulted: bool,
}

/// Full per-sector resolution: the home node plus the owning-allocation
/// attributes the engine needs, all from one table lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorHome {
    /// The chiplet owning the page.
    pub node: NodeId,
    /// Whether this access triggered the first-touch fault that placed the
    /// page.
    pub faulted: bool,
    /// The owning allocation (argument index).
    pub arg: u32,
    /// The owning allocation's home-L2 insertion policy.
    pub remote_insert: RemoteInsert,
}

impl AddressSpace {
    /// Creates an empty address space with the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn new(page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        AddressSpace {
            page_bytes,
            page_shift: page_bytes.trailing_zeros(),
            allocs: Vec::new(),
            // Leave page 0 unused so a zero address is visibly bogus.
            next_base: page_bytes,
            page_homes: vec![UNMAPPED],
            migration_streaks: Vec::new(),
            page_faults: 0,
            migrations: 0,
        }
    }

    /// Allocates `len_bytes` and returns the allocation index (argument
    /// order). The initial placement is first-touch until a plan is
    /// applied.
    pub fn alloc(&mut self, len_bytes: u64, elem_bytes: u32) -> usize {
        let len = len_bytes.max(1);
        let arg = self.allocs.len() as u32;
        let alloc = Allocation {
            base: self.next_base,
            len_bytes: len,
            elem_bytes,
            elems: (len / u64::from(elem_bytes)).max(1),
            page_map: PageMap::FirstTouch,
            remote_insert: RemoteInsert::Twice,
        };
        let pages = len.div_ceil(self.page_bytes).max(1);
        debug_assert_eq!(
            self.page_homes.len() as u64,
            self.next_base >> self.page_shift,
            "the table covers exactly the pages below next_base"
        );
        self.page_homes.extend((0..pages).map(|_| PageHome {
            home: HOME_FIRST_TOUCH,
            arg,
            remote_insert: RemoteInsert::Twice,
        }));
        self.next_base += pages * self.page_bytes;
        self.allocs.push(alloc);
        self.allocs.len() - 1
    }

    /// Applies a kernel plan: one [`PageMap`] + [`RemoteInsert`] per
    /// allocation, in allocation order. The flat page-home table is
    /// rebuilt from the new maps, which also supersedes earlier
    /// first-touch pinning and reactive migrations.
    ///
    /// # Panics
    ///
    /// Panics if the plan's argument count differs from the number of
    /// allocations.
    pub fn apply_plan(&mut self, plan: &KernelPlan, topo: &Topology) {
        assert_eq!(
            plan.args.len(),
            self.allocs.len(),
            "plan must cover every allocation"
        );
        // Real node ids must stay clear of the table sentinels.
        debug_assert!(topo.num_nodes() < HOME_SUB_PAGE);
        for (alloc, arg) in self.allocs.iter_mut().zip(&plan.args) {
            alloc.page_map = arg.pages.clone();
            alloc.remote_insert = arg.remote_insert;
        }
        self.rebuild_table(topo);
        self.migration_streaks.clear();
        self.migrations = 0;
    }

    /// Applies one argument's plan to a single allocation, leaving every
    /// other allocation's state — first-touch pins, migrated homes,
    /// in-flight streaks — untouched. This is the session-mode
    /// counterpart of [`AddressSpace::apply_plan`]: a launch that
    /// *adopts* an allocation's committed layout never calls it, so the
    /// pages stay exactly where the previous kernels left them.
    ///
    /// Returns the number of already-placed pages whose home changed
    /// (the re-placement cost a replan pays on real hardware; pages
    /// that were still first-touch-unbound move for free).
    pub fn apply_arg_plan(&mut self, idx: usize, arg: &ArgPlan, topo: &Topology) -> u64 {
        debug_assert!(topo.num_nodes() < HOME_SUB_PAGE);
        let alloc = &mut self.allocs[idx];
        alloc.page_map = arg.pages.clone();
        alloc.remote_insert = arg.remote_insert;
        let first = (alloc.base >> self.page_shift) as usize;
        let pages = alloc.pages(self.page_bytes) as usize;
        let map = alloc.page_map.clone();
        let remote_insert = alloc.remote_insert;
        let mut moved = 0u64;
        for (p, entry) in self.page_homes[first..first + pages].iter_mut().enumerate() {
            let home = match map.page_home(p as u64, topo) {
                PageHomeKind::Node(n) => n.0,
                PageHomeKind::FirstTouch => HOME_FIRST_TOUCH,
                PageHomeKind::SubPage => HOME_SUB_PAGE,
            };
            if entry.home < HOME_SUB_PAGE && entry.home != home {
                moved += 1;
            }
            *entry = PageHome {
                home,
                arg: idx as u32,
                remote_insert,
            };
        }
        // Only this allocation's migration streaks reset; other
        // allocations keep their in-flight state.
        if !self.migration_streaks.is_empty() {
            for s in self.migration_streaks.iter_mut().skip(first).take(pages) {
                *s = NO_STREAK;
            }
        }
        moved
    }

    /// Recomputes every table entry from the allocations' current maps.
    fn rebuild_table(&mut self, topo: &Topology) {
        for (i, alloc) in self.allocs.iter().enumerate() {
            let first = (alloc.base >> self.page_shift) as usize;
            let pages = alloc.pages(self.page_bytes) as usize;
            for (p, entry) in self.page_homes[first..first + pages].iter_mut().enumerate() {
                let home = match alloc.page_map.page_home(p as u64, topo) {
                    PageHomeKind::Node(n) => n.0,
                    PageHomeKind::FirstTouch => HOME_FIRST_TOUCH,
                    PageHomeKind::SubPage => HOME_SUB_PAGE,
                };
                *entry = PageHome {
                    home,
                    arg: i as u32,
                    remote_insert: alloc.remote_insert,
                };
            }
        }
    }

    /// The device address of element `idx` of allocation `arg`.
    /// Out-of-range indices wrap within the allocation (workload
    /// generators use modular extents).
    pub fn addr_of(&self, arg: usize, idx: u64) -> u64 {
        let alloc = &self.allocs[arg];
        alloc.base + (idx % alloc.elems) * u64::from(alloc.elem_bytes)
    }

    /// The allocation containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every allocation.
    pub fn alloc_of_addr(&self, addr: u64) -> (usize, &Allocation) {
        let page = (addr >> self.page_shift) as usize;
        let arg = self.page_homes.get(page).map_or(ARG_UNMAPPED, |e| e.arg);
        if arg == ARG_UNMAPPED {
            panic!("address {addr:#x} is not mapped");
        }
        (arg as usize, &self.allocs[arg as usize])
    }

    /// Resolves the home chiplet of `addr` plus the owning allocation's
    /// attributes, with `toucher` as the first-touch candidate. This is
    /// the per-sector hot path: one bounds-checked table index; only the
    /// cold sentinels (first touch, sub-page striping) do more work.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside every allocation.
    #[inline]
    pub fn resolve(&mut self, addr: u64, toucher: NodeId, topo: &Topology) -> SectorHome {
        let page = (addr >> self.page_shift) as usize;
        let entry = match self.page_homes.get(page) {
            Some(e) if e.arg != ARG_UNMAPPED => *e,
            _ => panic!("address {addr:#x} is not mapped"),
        };
        match entry.home {
            HOME_FIRST_TOUCH => {
                self.page_homes[page].home = toucher.0;
                self.page_faults += 1;
                SectorHome {
                    node: toucher,
                    faulted: true,
                    arg: entry.arg,
                    remote_insert: entry.remote_insert,
                }
            }
            HOME_SUB_PAGE => {
                let alloc = &self.allocs[entry.arg as usize];
                let crate::homes::StaticHome::Node(node) = crate::homes::static_home(
                    &alloc.page_map,
                    addr - alloc.base,
                    self.page_bytes,
                    topo,
                ) else {
                    unreachable!("sub-page maps resolve at byte granularity")
                };
                SectorHome {
                    node,
                    faulted: false,
                    arg: entry.arg,
                    remote_insert: entry.remote_insert,
                }
            }
            home => SectorHome {
                node: NodeId(home),
                faulted: false,
                arg: entry.arg,
                remote_insert: entry.remote_insert,
            },
        }
    }

    /// Resolves the home chiplet of `addr`, with `toucher` as the
    /// first-touch candidate.
    pub fn home_of(&mut self, addr: u64, toucher: NodeId, topo: &Topology) -> HomeLookup {
        let r = self.resolve(addr, toucher, topo);
        HomeLookup {
            node: r.node,
            faulted: r.faulted,
        }
    }

    /// The home-L2 insertion policy governing `addr`.
    pub fn remote_insert_of(&self, addr: u64) -> RemoteInsert {
        self.alloc_of_addr(addr).1.remote_insert
    }

    /// Records a remote access to `addr`'s page from `requester` for the
    /// reactive-migration mechanism; when `threshold` consecutive accesses
    /// arrive from the same node, the page migrates there and `true` is
    /// returned (the caller charges the transfer). `threshold == 0`
    /// disables migration.
    pub fn record_remote_access(&mut self, addr: u64, requester: NodeId, threshold: u32) -> bool {
        if threshold == 0 {
            return false;
        }
        let page = (addr >> self.page_shift) as usize;
        if self.migration_streaks.len() < self.page_homes.len() {
            self.migration_streaks
                .resize(self.page_homes.len(), NO_STREAK);
        }
        let Some(state) = self.migration_streaks.get_mut(page) else {
            panic!("address {addr:#x} is not mapped");
        };
        if state.node == requester.0 {
            state.streak += 1;
        } else {
            *state = MigrationState {
                node: requester.0,
                streak: 1,
            };
        }
        if state.streak >= threshold {
            *state = NO_STREAK;
            // Re-pin the page in the table (overriding the plan's map,
            // like the old side `migrated` map did).
            self.page_homes[page].home = requester.0;
            self.migrations += 1;
            true
        } else {
            false
        }
    }

    /// Pages moved by reactive migration since construction or the last
    /// plan application.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total first-touch page faults since construction or the last
    /// [`AddressSpace::reset_faults`].
    pub fn page_faults(&self) -> u64 {
        self.page_faults
    }

    /// Clears the fault counter (per-kernel accounting).
    pub fn reset_faults(&mut self) {
        self.page_faults = 0;
    }

    /// The configured page size.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// All allocations in argument order.
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{random_map, ReferenceResolver};
    use ladm_core::plan::{ArgPlan, RrOrder, TbMap};
    use ladm_core::rng::SplitMix64;

    fn topo() -> Topology {
        Topology::paper_multi_gpu()
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut mem = AddressSpace::new(4096);
        let a = mem.alloc(5000, 4);
        let b = mem.alloc(100, 4);
        let alloc_a = &mem.allocations()[a];
        let alloc_b = &mem.allocations()[b];
        assert_eq!(alloc_a.base % 4096, 0);
        assert_eq!(alloc_b.base, alloc_a.base + 8192);
    }

    #[test]
    fn addr_of_wraps_out_of_range() {
        let mut mem = AddressSpace::new(4096);
        let a = mem.alloc(16, 4); // 4 elements
        assert_eq!(mem.addr_of(a, 5), mem.addr_of(a, 1));
    }

    #[test]
    fn home_follows_plan() {
        let mut mem = AddressSpace::new(4096);
        let a = mem.alloc(64 * 4096, 4);
        let plan = KernelPlan {
            args: vec![ArgPlan::new(PageMap::Interleave {
                gran_pages: 1,
                order: RrOrder::Hierarchical,
            })],
            schedule: TbMap::Chunk { per_node: 1 },
        };
        mem.apply_plan(&plan, &topo());
        let base = mem.allocations()[a].base;
        let h0 = mem.home_of(base, NodeId(9), &topo());
        let h1 = mem.home_of(base + 4096, NodeId(9), &topo());
        assert_eq!(h0.node, NodeId(0));
        assert!(!h0.faulted);
        assert_eq!(h1.node, NodeId(1));
    }

    #[test]
    fn first_touch_pins_to_toucher_once() {
        let mut mem = AddressSpace::new(4096);
        let a = mem.alloc(4096 * 4, 4);
        let base = mem.allocations()[a].base;
        let h = mem.home_of(base, NodeId(7), &topo());
        assert!(h.faulted);
        assert_eq!(h.node, NodeId(7));
        let h = mem.home_of(base + 8, NodeId(3), &topo());
        assert!(!h.faulted);
        assert_eq!(h.node, NodeId(7));
        assert_eq!(mem.page_faults(), 1);
    }

    #[test]
    fn apply_plan_resets_first_touch() {
        let mut mem = AddressSpace::new(4096);
        let a = mem.alloc(4096, 4);
        let base = mem.allocations()[a].base;
        mem.home_of(base, NodeId(7), &topo());
        let plan = KernelPlan {
            args: vec![ArgPlan::new(PageMap::FirstTouch)],
            schedule: TbMap::Chunk { per_node: 1 },
        };
        mem.apply_plan(&plan, &topo());
        let h = mem.home_of(base, NodeId(2), &topo());
        assert!(h.faulted);
        assert_eq!(h.node, NodeId(2));
    }

    #[test]
    fn migration_triggers_after_streak_and_repins() {
        let mut mem = AddressSpace::new(4096);
        let a = mem.alloc(16 * 4096, 4);
        let plan = KernelPlan {
            args: vec![ArgPlan::new(PageMap::Fixed(NodeId(0)))],
            schedule: TbMap::Chunk { per_node: 1 },
        };
        mem.apply_plan(&plan, &topo());
        let addr = mem.allocations()[a].base + 4096; // page 1
        assert_eq!(mem.home_of(addr, NodeId(5), &topo()).node, NodeId(0));
        // Two accesses from node 5: threshold 3 not reached.
        assert!(!mem.record_remote_access(addr, NodeId(5), 3));
        assert!(!mem.record_remote_access(addr, NodeId(5), 3));
        // A different node resets the streak.
        assert!(!mem.record_remote_access(addr, NodeId(7), 3));
        assert!(!mem.record_remote_access(addr, NodeId(7), 3));
        assert!(mem.record_remote_access(addr, NodeId(7), 3));
        assert_eq!(mem.migrations(), 1);
        // The page now lives on node 7; other pages are untouched.
        assert_eq!(mem.home_of(addr, NodeId(1), &topo()).node, NodeId(7));
        let other = mem.allocations()[a].base;
        assert_eq!(mem.home_of(other, NodeId(1), &topo()).node, NodeId(0));
    }

    #[test]
    fn migration_disabled_at_zero_threshold() {
        let mut mem = AddressSpace::new(4096);
        mem.alloc(4096, 4);
        let addr = mem.allocations()[0].base;
        for _ in 0..100 {
            assert!(!mem.record_remote_access(addr, NodeId(3), 0));
        }
        assert_eq!(mem.migrations(), 0);
    }

    #[test]
    fn resolve_reports_owning_arg_and_insert_policy() {
        let mut mem = AddressSpace::new(4096);
        mem.alloc(2 * 4096, 4);
        mem.alloc(4096, 4);
        let plan = KernelPlan {
            args: vec![
                ArgPlan::new(PageMap::Fixed(NodeId(2))),
                ArgPlan {
                    pages: PageMap::Fixed(NodeId(5)),
                    remote_insert: RemoteInsert::Once,
                },
            ],
            schedule: TbMap::Chunk { per_node: 1 },
        };
        mem.apply_plan(&plan, &topo());
        let a0 = mem.allocations()[0].base;
        let a1 = mem.allocations()[1].base;
        let h0 = mem.resolve(a0 + 4096, NodeId(0), &topo());
        assert_eq!(h0.node, NodeId(2));
        assert_eq!(h0.arg, 0);
        assert_eq!(h0.remote_insert, RemoteInsert::Twice);
        let h1 = mem.resolve(a1, NodeId(0), &topo());
        assert_eq!(h1.node, NodeId(5));
        assert_eq!(h1.arg, 1);
        assert_eq!(h1.remote_insert, RemoteInsert::Once);
        assert_eq!(mem.remote_insert_of(a1), RemoteInsert::Once);
        assert_eq!(mem.alloc_of_addr(a0 + 4096).0, 0);
        assert_eq!(mem.alloc_of_addr(a1).0, 1);
    }

    /// Differential oracle: the flat page-home table must agree with the
    /// removed HashMap + binary-search path on randomized plans covering
    /// every `PageMap` variant, first-touch orderings and migration
    /// streaks crossing the threshold — including interleaved re-plans.
    #[test]
    fn flat_table_matches_reference_resolver() {
        let t = topo();
        let mut rng = SplitMix64::new(0x1adb_00c5);
        for trial in 0..40 {
            let page_bytes = 4096u64;
            let mut mem = AddressSpace::new(page_bytes);
            let num_args = 1 + rng.below(4) as usize;
            for _ in 0..num_args {
                let elem_bytes = [1u32, 4, 8][rng.below(3) as usize];
                let len = u64::from(rng.range_u32(1, 20)) * 1024;
                mem.alloc(len, elem_bytes);
            }
            let mut reference = ReferenceResolver::mirror(&mem);
            let make_plan = |rng: &mut SplitMix64, mem: &AddressSpace| KernelPlan {
                args: mem
                    .allocations()
                    .iter()
                    .map(|a| ArgPlan {
                        pages: random_map(rng, &t, a.pages(page_bytes)),
                        remote_insert: if rng.chance(1, 2) {
                            RemoteInsert::Twice
                        } else {
                            RemoteInsert::Once
                        },
                    })
                    .collect(),
                schedule: TbMap::Chunk { per_node: 1 },
            };
            let plan = make_plan(&mut rng, &mem);
            mem.apply_plan(&plan, &t);
            reference.apply_plan(&plan);
            let lo = mem.allocations()[0].base;
            let hi = mem.allocations().last().unwrap().base
                + mem.allocations().last().unwrap().pages(page_bytes) * page_bytes;
            let threshold = rng.below(4) as u32; // 0 disables migration
            for step in 0..600 {
                let addr = rng.range_i64(lo as i64, hi as i64 - 1) as u64;
                let node = NodeId(rng.range_u32(0, t.num_nodes() - 1));
                let got = mem.resolve(addr, node, &t);
                let want = reference.home_of(addr, node, &t);
                assert_eq!(
                    (got.node, got.faulted),
                    (want.node, want.faulted),
                    "trial {trial} step {step}: resolve({addr:#x}) diverged"
                );
                let (want_arg, want_alloc) = reference.alloc_of_addr(addr);
                assert_eq!(got.arg as usize, want_arg);
                assert_eq!(got.remote_insert, want_alloc.remote_insert);
                // Hammer migration streaks on remote resolutions, exactly
                // like route_sector does.
                if got.node != node {
                    let migrated = mem.record_remote_access(addr, node, threshold);
                    let migrated_ref = reference.record_remote_access(addr, node, threshold);
                    assert_eq!(migrated, migrated_ref, "trial {trial} step {step}");
                }
                // Occasionally re-plan mid-stream: pins and migrations
                // must reset identically.
                if step % 200 == 199 && rng.chance(1, 2) {
                    let plan = make_plan(&mut rng, &mem);
                    mem.apply_plan(&plan, &t);
                    reference.apply_plan(&plan);
                }
            }
            assert_eq!(mem.page_faults(), reference.page_faults(), "trial {trial}");
            assert_eq!(mem.migrations(), reference.migrations(), "trial {trial}");
        }
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn unmapped_address_panics() {
        let mut mem = AddressSpace::new(4096);
        mem.alloc(4096, 4);
        mem.home_of(0, NodeId(0), &topo()); // page 0 reserved
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn address_past_last_allocation_panics() {
        let mut mem = AddressSpace::new(4096);
        mem.alloc(4096, 4);
        mem.home_of(1 << 40, NodeId(0), &topo());
    }

    #[test]
    #[should_panic(expected = "cover every allocation")]
    fn plan_arg_count_mismatch_panics() {
        let mut mem = AddressSpace::new(4096);
        mem.alloc(4096, 4);
        mem.alloc(4096, 4);
        let plan = KernelPlan {
            args: vec![ArgPlan::new(PageMap::FirstTouch)],
            schedule: TbMap::Chunk { per_node: 1 },
        };
        mem.apply_plan(&plan, &topo());
    }
}
