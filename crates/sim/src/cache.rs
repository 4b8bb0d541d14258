//! Sectored, set-associative cache model with true LRU.
//!
//! Lines are 128 B with four 32 B sectors (GPU-style sectored caches):
//! a lookup can hit the line but miss the sector, which costs a 32 B fill
//! without a full-line eviction — the behaviour behind the paper's
//! "L2 sector misses per kilo warp instruction" metric.
//!
//! Storage is struct-of-arrays, and each way's tag and sector-presence
//! bits are packed into a single `u64` (`sectors << 56 | line`), so the
//! associative scan of a 16-way set reads two host cache lines of metadata
//! total; LRU stamps live in a parallel vector touched only on hits and
//! victim selection. A way is *valid* iff its sector mask is non-zero (a
//! resident line always holds at least the sector that allocated it).

use crate::config::CacheConfig;

/// Low 56 bits of a packed way: the line number. The high 8 bits hold the
/// sector-presence mask.
const LINE_MASK: u64 = (1 << 56) - 1;

/// Bit position of the sector mask within a packed way.
const SECTOR_SHIFT: u32 = 56;

/// Result of a cache probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line and sector present.
    Hit,
    /// Line present, requested sector absent (32 B fill, no eviction).
    SectorMiss,
    /// Line absent (allocation + possible eviction).
    LineMiss,
}

/// A sectored set-associative cache.
///
/// # Examples
///
/// ```
/// use ladm_sim::cache::{Lookup, SectoredCache};
/// use ladm_sim::CacheConfig;
///
/// let mut l2 = SectoredCache::new(&CacheConfig {
///     bytes: 1 << 20, assoc: 16, line_bytes: 128, sector_bytes: 32, latency: 120,
/// });
/// assert_eq!(l2.access(0x1000), Lookup::LineMiss);
/// assert_eq!(l2.access(0x1000), Lookup::Hit);
/// assert_eq!(l2.access(0x1020), Lookup::SectorMiss); // same line, new sector
/// ```
#[derive(Debug, Clone)]
pub struct SectoredCache {
    /// Packed ways: `sector_mask << 56 | line`. Zero sector mask ⇔
    /// invalid way.
    meta: Vec<u64>,
    /// LRU stamps, parallel to `meta`.
    lru: Vec<u64>,
    assoc: usize,
    set_mask: u64,
    line_shift: u32,
    sector_shift: u32,
    clock: u64,
    hits: u64,
    sector_misses: u64,
    line_misses: u64,
    /// Way index of the most recently touched line. Streaming warps
    /// re-touch the same line sector after sector, so a single tag check
    /// here skips the associative scan most of the time. Pure
    /// memoization: every state transition (clock, LRU, counters) is
    /// identical to the scanning path.
    mru: usize,
}

impl SectoredCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if a line holds more than 8 sectors (the packed layout
    /// keeps the presence mask in 8 bits).
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.num_sets() as usize;
        let slots = sets * config.assoc as usize;
        assert!(
            config.line_bytes / config.sector_bytes <= 8,
            "packed way layout supports at most 8 sectors per line"
        );
        SectoredCache {
            meta: vec![0; slots],
            lru: vec![0; slots],
            assoc: config.assoc as usize,
            set_mask: sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            sector_shift: config.sector_bytes.trailing_zeros(),
            clock: 0,
            hits: 0,
            sector_misses: 0,
            line_misses: 0,
            mru: 0,
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        (addr >> self.line_shift) & LINE_MASK
    }

    /// The requested sector's presence bit, in packed (high-byte)
    /// position.
    fn sector_bit(&self, addr: u64) -> u64 {
        let sector_in_line =
            (addr >> self.sector_shift) & ((1 << (self.line_shift - self.sector_shift)) - 1);
        1u64 << (SECTOR_SHIFT + sector_in_line as u32)
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Whether way `idx` currently holds `line` (valid + tag match).
    #[inline]
    fn holds(&self, idx: usize, line: u64) -> bool {
        let m = self.meta[idx];
        m & LINE_MASK == line && m >> SECTOR_SHIFT != 0
    }

    /// Probes for the sector containing `addr` **without** modifying
    /// contents (LRU is updated on hits).
    pub fn probe(&mut self, addr: u64) -> Lookup {
        self.clock += 1;
        let line = self.line_of(addr);
        let bit = self.sector_bit(addr);
        // Fast path: tags are full line numbers, so an MRU tag match is
        // always the right way in the right set.
        let clock = self.clock;
        let mru = self.mru;
        if mru < self.meta.len() && self.holds(mru, line) {
            if self.meta[mru] & bit != 0 {
                self.lru[mru] = clock;
                return Lookup::Hit;
            }
            return Lookup::SectorMiss;
        }
        for i in self.set_range(line) {
            if self.holds(i, line) {
                self.mru = i;
                if self.meta[i] & bit != 0 {
                    self.lru[i] = clock;
                    return Lookup::Hit;
                }
                return Lookup::SectorMiss;
            }
        }
        Lookup::LineMiss
    }

    /// Accesses the sector containing `addr`: on a miss the sector is
    /// filled (allocating/evicting a line as needed). Statistics are
    /// updated. This models a read with allocate-on-miss.
    ///
    /// Fused single-scan equivalent of `probe` + `fill`: one pass finds
    /// the resident line *and* the eviction victim, instead of probing,
    /// re-scanning for the line, and scanning a third time for the
    /// victim. Every state transition (clock advance, LRU stamp, victim
    /// choice, MRU memo) is identical to the split path.
    pub fn access(&mut self, addr: u64) -> Lookup {
        let line = self.line_of(addr);
        let bit = self.sector_bit(addr);

        let mru = self.mru;
        if mru < self.meta.len() && self.holds(mru, line) {
            return self.touch(mru, bit);
        }
        let mut found = usize::MAX;
        // Victim key mirrors the fill path's selection: invalid ways
        // sort before valid ones, then oldest LRU, first minimum wins.
        let mut victim = usize::MAX;
        let mut victim_key = (2u8, u64::MAX);
        for i in self.set_range(line) {
            if self.holds(i, line) {
                found = i;
                break;
            }
            let key = if self.meta[i] >> SECTOR_SHIFT != 0 {
                (1, self.lru[i])
            } else {
                (0, 0)
            };
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        if found != usize::MAX {
            self.mru = found;
            return self.touch(found, bit);
        }
        // Line miss: the split path advanced the clock once in the probe
        // and once in the fill.
        self.clock += 2;
        self.line_misses += 1;
        self.meta[victim] = bit | line;
        self.lru[victim] = self.clock;
        self.mru = victim;
        Lookup::LineMiss
    }

    /// Hit-or-sector-miss completion for a resident line found by
    /// [`SectoredCache::access`]; replicates probe-then-fill clock and
    /// LRU updates exactly.
    fn touch(&mut self, idx: usize, bit: u64) -> Lookup {
        if self.meta[idx] & bit != 0 {
            self.clock += 1;
            self.lru[idx] = self.clock;
            self.hits += 1;
            Lookup::Hit
        } else {
            self.clock += 2;
            self.meta[idx] |= bit;
            self.lru[idx] = self.clock;
            self.sector_misses += 1;
            Lookup::SectorMiss
        }
    }

    /// Inserts the sector containing `addr` (fill path / write-allocate).
    /// Single scan: finds the resident line and tracks the eviction
    /// victim in one pass (same victim ordering as the access path).
    pub fn fill(&mut self, addr: u64) {
        self.clock += 1;
        let line = self.line_of(addr);
        let bit = self.sector_bit(addr);
        let clock = self.clock;

        // Fast path: the MRU way already holds the line.
        let mru = self.mru;
        if mru < self.meta.len() && self.holds(mru, line) {
            self.meta[mru] |= bit;
            self.lru[mru] = clock;
            return;
        }
        let mut victim = usize::MAX;
        let mut victim_key = (2u8, u64::MAX);
        for i in self.set_range(line) {
            // Existing line: set the sector bit.
            if self.holds(i, line) {
                self.meta[i] |= bit;
                self.lru[i] = clock;
                self.mru = i;
                return;
            }
            // Prefer an invalid way, else true-LRU; first minimum wins.
            let key = if self.meta[i] >> SECTOR_SHIFT != 0 {
                (1, self.lru[i])
            } else {
                (0, 0)
            };
            if key < victim_key {
                victim_key = key;
                victim = i;
            }
        }
        self.meta[victim] = bit | line;
        self.lru[victim] = clock;
        self.mru = victim;
    }

    /// Invalidates the line containing `addr` if present.
    pub fn invalidate(&mut self, addr: u64) {
        let line = self.line_of(addr);
        for i in self.set_range(line) {
            if self.holds(i, line) {
                self.meta[i] &= LINE_MASK;
                return;
            }
        }
    }

    /// Invalidates the entire cache (kernel-boundary coherence flush).
    /// Statistics are preserved.
    ///
    /// Clears only the packed tags: like [`SectoredCache::invalidate`],
    /// it leaves stale LRU stamps behind. No path reads the stamp of an
    /// invalid way: victim selection keys every invalid way `(0, 0)`,
    /// `holds` requires a non-zero sector mask, and a refill stamps the
    /// way afresh.
    pub fn flush(&mut self) {
        self.meta.fill(0);
    }

    /// Sector hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Sector misses (sector + line) since construction.
    pub fn misses(&self) -> u64 {
        self.sector_misses + self.line_misses
    }

    /// Total accesses through [`SectoredCache::access`].
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses()
    }

    /// Hit rate in [0, 1]; 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SectoredCache {
        // 2 sets x 2 ways x 128 B lines = 512 B.
        SectoredCache::new(&CacheConfig {
            bytes: 512,
            assoc: 2,
            line_bytes: 128,
            sector_bytes: 32,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0x1000), Lookup::LineMiss);
        assert_eq!(c.access(0x1000), Lookup::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn sector_miss_within_resident_line() {
        let mut c = tiny();
        c.access(0x1000); // sector 0 of line
        assert_eq!(c.access(0x1020), Lookup::SectorMiss); // sector 1
        assert_eq!(c.access(0x1020), Lookup::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with even line index (2 sets).
        c.access(0x0000); // line A -> set 0
        c.access(0x0100); // line B -> set 1? line 2 & 1 = 0 -> set 0
                          // line index = addr >> 7. 0x0000 -> 0, 0x0100 -> 2: both set 0.
        c.access(0x0000); // A most recent
        c.access(0x0200); // line 4 -> set 0: evicts B.
        assert_eq!(c.access(0x0000), Lookup::Hit);
        assert_eq!(c.access(0x0100), Lookup::LineMiss); // B evicted
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.access(0x1000);
        c.invalidate(0x1000);
        assert_eq!(c.access(0x1000), Lookup::LineMiss);
    }

    #[test]
    fn flush_clears_everything_but_keeps_stats() {
        let mut c = tiny();
        c.access(0x1000);
        c.access(0x1000);
        c.flush();
        assert_eq!(c.access(0x1000), Lookup::LineMiss);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert_eq!(c.probe(0x40), Lookup::LineMiss);
        assert_eq!(c.probe(0x40), Lookup::LineMiss);
        // probe after fill hits
        c.fill(0x40);
        assert_eq!(c.probe(0x40), Lookup::Hit);
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn mru_memo_survives_interleaving_and_invalidation() {
        let mut c = tiny();
        c.access(0x0000); // line 0 -> MRU
        c.access(0x0100); // line 2, same set -> MRU moves
        assert_eq!(c.access(0x0020), Lookup::SectorMiss); // line 0 via scan
        assert_eq!(c.access(0x0020), Lookup::Hit); // now via MRU fast path
        c.invalidate(0x0020); // invalidate the MRU line itself
        assert_eq!(c.access(0x0000), Lookup::LineMiss);
        assert_eq!(c.access(0x0100), Lookup::Hit);
        c.flush();
        assert_eq!(c.access(0x0100), Lookup::LineMiss);
    }

    #[test]
    fn distinct_tags_in_same_set_coexist_up_to_assoc() {
        let mut c = tiny();
        c.access(0x0000);
        c.access(0x0100);
        assert_eq!(c.access(0x0000), Lookup::Hit);
        assert_eq!(c.access(0x0100), Lookup::Hit);
    }

    /// A freshly built cache must not treat slot-0 tag garbage as a
    /// resident line 0 (validity is carried by the sector mask).
    #[test]
    fn zero_line_does_not_alias_empty_slots() {
        let mut c = tiny();
        assert_eq!(c.probe(0x0000), Lookup::LineMiss);
        assert_eq!(c.access(0x0000), Lookup::LineMiss);
        assert_eq!(c.access(0x0000), Lookup::Hit);
    }

    /// A flushed cache behaves exactly like a freshly built one: the
    /// stale LRU stamps `flush` leaves behind are never read.
    #[test]
    fn flushed_cache_replays_like_a_fresh_one() {
        use ladm_core::rng::SplitMix64;
        let config = CacheConfig {
            bytes: 4 * 4 * 128,
            assoc: 4,
            line_bytes: 128,
            sector_bytes: 32,
            latency: 1,
        };
        // Mixed traffic over 64 lines (4× the capacity), so sets evict.
        let run = |c: &mut SectoredCache, rng: &mut SplitMix64| -> Vec<Option<Lookup>> {
            (0..4000)
                .map(|_| {
                    let addr = rng.below(64 * 128);
                    match rng.below(8) {
                        0 => {
                            c.fill(addr);
                            None
                        }
                        1 => {
                            c.invalidate(addr);
                            None
                        }
                        2 | 3 => Some(c.probe(addr)),
                        _ => Some(c.access(addr)),
                    }
                })
                .collect()
        };
        for seed in 0..8u64 {
            let mut used = SectoredCache::new(&config);
            run(&mut used, &mut SplitMix64::new(seed));
            used.flush();
            let (hits0, misses0) = (used.hits(), used.misses());
            let mut fresh = SectoredCache::new(&config);
            let replay = SplitMix64::new(0xF1u64 << 32 | seed);
            let a = run(&mut used, &mut replay.clone());
            let b = run(&mut fresh, &mut replay.clone());
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(used.hits() - hits0, fresh.hits(), "seed {seed}");
            assert_eq!(used.misses() - misses0, fresh.misses(), "seed {seed}");
        }
    }

    /// An invalidated way remembers nothing: refilling a different line
    /// into it must not resurrect the stale tag.
    #[test]
    fn invalidated_way_is_reusable() {
        let mut c = tiny();
        c.access(0x0000);
        c.invalidate(0x0000);
        c.access(0x0100); // same set, different line; takes the freed way
        assert_eq!(c.access(0x0000), Lookup::LineMiss);
        assert_eq!(c.access(0x0100), Lookup::Hit);
    }
}
