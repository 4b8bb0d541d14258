//! Per-kernel simulation statistics and the derived metrics the paper
//! reports (off-chip traffic %, L2 MPKI, traffic-class hit rates).

use std::fmt;
use std::ops::AddAssign;

/// Access/hit counters for one L2 traffic class (paper §V-B):
/// `LOCAL-LOCAL`, `LOCAL-REMOTE` (a local core's lookup for remote-homed
/// data) and `REMOTE-LOCAL` (a remote core's request arriving at the home
/// L2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Sector lookups in this class.
    pub accesses: u64,
    /// Sector hits in this class.
    pub hits: u64,
}

impl ClassStats {
    /// Hit rate in [0, 1]; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// The hit rate for summary tables: `n/a` when the class was never
    /// accessed, so a dead class cannot be mistaken for a 0 %-hit one.
    pub fn hit_rate_str(&self) -> String {
        if self.accesses == 0 {
            "n/a".to_string()
        } else {
            format!("{:.2}", self.hit_rate())
        }
    }
}

impl AddAssign for ClassStats {
    fn add_assign(&mut self, rhs: ClassStats) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
    }
}

/// Everything measured over one kernel execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Completion time in core cycles.
    pub cycles: f64,
    /// Warp instructions issued (memory + compute).
    pub warp_instructions: u64,
    /// Threadblocks executed.
    pub threadblocks: u64,
    /// L1 sector hits.
    pub l1_hits: u64,
    /// L1 sector misses (= sectors presented to the L2 level).
    pub l1_misses: u64,
    /// Sector requests whose home chiplet differed from the requester.
    pub sectors_offnode: u64,
    /// Sector requests whose home GPU differed from the requester's GPU.
    pub sectors_offgpu: u64,
    /// L2 lookups by a local core for locally-homed data.
    pub l2_local_local: ClassStats,
    /// L2 lookups by a local core for remote-homed data (remote caching).
    pub l2_local_remote: ClassStats,
    /// L2 lookups at the home node on behalf of a remote core.
    pub l2_remote_local: ClassStats,
    /// Sector fills served by DRAM.
    pub dram_sectors: u64,
    /// Bytes that crossed a chiplet boundary (within a GPU).
    pub inter_chiplet_bytes: u64,
    /// Bytes that crossed the inter-GPU switch.
    pub inter_gpu_bytes: u64,
    /// First-touch page faults taken.
    pub page_faults: u64,
    /// Pages moved by reactive migration (0 unless
    /// `SimConfig::migration_threshold > 0`).
    pub page_migrations: u64,
    /// Off-node sectors attributed to each kernel argument (allocation
    /// order) — the per-structure view of `sectors_offnode`.
    pub offnode_by_arg: Vec<u64>,
}

impl KernelStats {
    /// Total sector requests presented to the L2 level.
    pub fn l2_level_sectors(&self) -> u64 {
        self.l1_misses
    }

    /// Fraction of L2-level memory traffic that left the requesting
    /// chiplet (the paper's Figure 10 metric), in [0, 1].
    pub fn offchip_fraction(&self) -> f64 {
        if self.l1_misses == 0 {
            0.0
        } else {
            self.sectors_offnode as f64 / self.l1_misses as f64
        }
    }

    /// L2 sector misses per kilo warp instructions (Table IV's MPKI).
    pub fn l2_mpki(&self) -> f64 {
        if self.warp_instructions == 0 {
            0.0
        } else {
            self.dram_sectors as f64 * 1000.0 / self.warp_instructions as f64
        }
    }

    /// Aggregate L2 hit rate over all traffic classes, in [0, 1].
    pub fn l2_hit_rate(&self) -> f64 {
        let mut total = ClassStats::default();
        total += self.l2_local_local;
        total += self.l2_local_remote;
        total += self.l2_remote_local;
        total.hit_rate()
    }

    /// Warp instructions per cycle (whole machine).
    pub fn ipc(&self) -> f64 {
        if self.cycles <= 0.0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles
        }
    }

    /// Accumulates another kernel's stats (multi-kernel workloads);
    /// cycles add sequentially.
    pub fn accumulate(&mut self, other: &KernelStats) {
        self.cycles += other.cycles;
        self.warp_instructions += other.warp_instructions;
        self.threadblocks += other.threadblocks;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.sectors_offnode += other.sectors_offnode;
        self.sectors_offgpu += other.sectors_offgpu;
        self.l2_local_local += other.l2_local_local;
        self.l2_local_remote += other.l2_local_remote;
        self.l2_remote_local += other.l2_remote_local;
        self.dram_sectors += other.dram_sectors;
        self.inter_chiplet_bytes += other.inter_chiplet_bytes;
        self.inter_gpu_bytes += other.inter_gpu_bytes;
        self.page_faults += other.page_faults;
        self.page_migrations += other.page_migrations;
        if self.offnode_by_arg.len() < other.offnode_by_arg.len() {
            self.offnode_by_arg.resize(other.offnode_by_arg.len(), 0);
        }
        for (a, b) in self.offnode_by_arg.iter_mut().zip(&other.offnode_by_arg) {
            *a += b;
        }
    }

    /// Merges one chiplet shard's statistics into a whole-machine total
    /// for a *single* kernel. Unlike [`KernelStats::accumulate`]
    /// (sequential kernels), shards of one kernel run concurrently, so
    /// completion time merges by `max` rather than by sum.
    ///
    /// Every field's merge operator is commutative and associative —
    /// `u64` sums, `f64` max, element-wise vector sums — so the result
    /// is independent of the order shards are merged in: any partition
    /// of the work across shards folds to the same total.
    pub fn merge_shard(&mut self, other: &KernelStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.warp_instructions += other.warp_instructions;
        self.threadblocks += other.threadblocks;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.sectors_offnode += other.sectors_offnode;
        self.sectors_offgpu += other.sectors_offgpu;
        self.l2_local_local += other.l2_local_local;
        self.l2_local_remote += other.l2_local_remote;
        self.l2_remote_local += other.l2_remote_local;
        self.dram_sectors += other.dram_sectors;
        self.inter_chiplet_bytes += other.inter_chiplet_bytes;
        self.inter_gpu_bytes += other.inter_gpu_bytes;
        self.page_faults += other.page_faults;
        self.page_migrations += other.page_migrations;
        if self.offnode_by_arg.len() < other.offnode_by_arg.len() {
            self.offnode_by_arg.resize(other.offnode_by_arg.len(), 0);
        }
        for (a, b) in self.offnode_by_arg.iter_mut().zip(&other.offnode_by_arg) {
            *a += b;
        }
    }
}

impl fmt::Display for KernelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={:.0} ipc={:.2} tbs={} off-chip={:.1}% mpki={:.1}",
            self.cycles,
            self.ipc(),
            self.threadblocks,
            self.offchip_fraction() * 100.0,
            self.l2_mpki()
        )?;
        write!(
            f,
            "L2 hit: LL={} LR={} RL={} (acc {}/{}/{}); inter-gpu={}B inter-chiplet={}B faults={}",
            self.l2_local_local.hit_rate_str(),
            self.l2_local_remote.hit_rate_str(),
            self.l2_remote_local.hit_rate_str(),
            self.l2_local_local.accesses,
            self.l2_local_remote.accesses,
            self.l2_remote_local.accesses,
            self.inter_gpu_bytes,
            self.inter_chiplet_bytes,
            self.page_faults
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_hit_rate() {
        let c = ClassStats {
            accesses: 10,
            hits: 4,
        };
        assert!((c.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(ClassStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_str_distinguishes_dead_from_zero_hit() {
        let dead = ClassStats::default();
        let cold = ClassStats {
            accesses: 10,
            hits: 0,
        };
        assert_eq!(dead.hit_rate_str(), "n/a");
        assert_eq!(cold.hit_rate_str(), "0.00");
        assert_eq!(dead.hit_rate(), cold.hit_rate()); // the old ambiguity
    }

    #[test]
    fn display_renders_na_for_unaccessed_classes() {
        let s = KernelStats::default();
        let text = s.to_string();
        assert!(text.contains("LL=n/a"), "{text}");
        assert!(text.contains("(acc 0/0/0)"), "{text}");
        let hot = KernelStats {
            l2_local_local: ClassStats {
                accesses: 4,
                hits: 2,
            },
            ..KernelStats::default()
        };
        assert!(hot.to_string().contains("LL=0.50"), "{hot}");
    }

    #[test]
    fn derived_metrics() {
        let s = KernelStats {
            cycles: 1000.0,
            warp_instructions: 2000,
            l1_misses: 100,
            sectors_offnode: 25,
            dram_sectors: 50,
            ..KernelStats::default()
        };
        assert!((s.offchip_fraction() - 0.25).abs() < 1e-12);
        assert!((s.l2_mpki() - 25.0).abs() < 1e-12);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = KernelStats::default();
        assert_eq!(s.offchip_fraction(), 0.0);
        assert_eq!(s.l2_mpki(), 0.0);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l2_hit_rate(), 0.0);
    }

    #[test]
    fn accumulate_sums_everything() {
        let mut a = KernelStats {
            cycles: 10.0,
            warp_instructions: 5,
            ..KernelStats::default()
        };
        let b = KernelStats {
            cycles: 20.0,
            warp_instructions: 7,
            page_faults: 2,
            ..KernelStats::default()
        };
        a.accumulate(&b);
        assert_eq!(a.cycles, 30.0);
        assert_eq!(a.warp_instructions, 12);
        assert_eq!(a.page_faults, 2);
    }

    #[test]
    fn display_is_nonempty() {
        let s = KernelStats::default();
        assert!(!s.to_string().is_empty());
    }

    /// Builds a deterministic pseudo-random shard stat from a seed
    /// (simple LCG — no external dependencies).
    fn arbitrary_shard(seed: u64) -> KernelStats {
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let accesses = next() % 1000;
        KernelStats {
            cycles: (next() % 100_000) as f64,
            warp_instructions: next() % 10_000,
            threadblocks: next() % 64,
            l1_hits: next() % 5000,
            l1_misses: next() % 5000,
            sectors_offnode: next() % 3000,
            sectors_offgpu: next() % 1000,
            l2_local_local: ClassStats {
                accesses,
                hits: accesses / 2,
            },
            l2_local_remote: ClassStats {
                accesses: next() % 500,
                hits: 0,
            },
            l2_remote_local: ClassStats {
                accesses: next() % 500,
                hits: next() % 100,
            },
            dram_sectors: next() % 2000,
            offnode_by_arg: (0..(next() % 5) as usize).map(|_| next() % 50).collect(),
            ..KernelStats::default()
        }
    }

    #[test]
    fn merge_shard_takes_max_cycles_and_sums_counters() {
        let mut total = KernelStats::default();
        total.merge_shard(&KernelStats {
            cycles: 50.0,
            l1_hits: 3,
            ..KernelStats::default()
        });
        total.merge_shard(&KernelStats {
            cycles: 20.0,
            l1_hits: 4,
            ..KernelStats::default()
        });
        assert_eq!(
            total.cycles, 50.0,
            "concurrent shards: completion is the max"
        );
        assert_eq!(total.l1_hits, 7);
    }

    #[test]
    fn merge_shard_is_order_independent() {
        // Property over pseudo-random shard stats: folding any
        // permutation of shards yields the identical total.
        let shards: Vec<KernelStats> = (0..8).map(arbitrary_shard).collect();
        let fold = |order: &[usize]| {
            let mut total = KernelStats::default();
            for &i in order {
                total.merge_shard(&shards[i]);
            }
            total
        };
        let forward = fold(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let reverse = fold(&[7, 6, 5, 4, 3, 2, 1, 0]);
        let shuffled = fold(&[3, 0, 6, 1, 7, 4, 2, 5]);
        assert_eq!(format!("{forward:?}"), format!("{reverse:?}"));
        assert_eq!(format!("{forward:?}"), format!("{shuffled:?}"));
    }
}
