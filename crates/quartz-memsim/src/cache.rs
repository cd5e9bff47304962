//! Set-associative, write-back, write-allocate cache with LRU replacement.
//!
//! The way metadata is laid out structure-of-arrays: one contiguous tag
//! array probed as a slice (the per-access hot path is a batched compare
//! over `ways` consecutive `u64`s), with dirty bits and recency stamps in
//! parallel arrays touched only on the slot that matched. An absent line
//! is encoded by the `INVALID_LINE` sentinel tag, so probing never
//! consults a separate validity array.

use crate::addr::Addr;
use crate::config::CacheGeometry;

/// Result of probing or filling a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent.
    Miss,
}

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Cache-line number of the victim.
    pub line: u64,
    /// Whether the victim was dirty (must be written back).
    pub dirty: bool,
}

/// Tag value marking an empty way. No real line can reach it: line
/// numbers are addresses divided by 64, so they top out at
/// `u64::MAX / 64`.
const INVALID_LINE: u64 = u64::MAX;

/// One cache instance (structure-of-arrays way metadata).
#[derive(Clone, Debug)]
pub struct Cache {
    /// `sets - 1`: the set count is a power of two, so a line's set is
    /// its low bits.
    set_mask: u64,
    ways: usize,
    /// Line tags, `sets * ways` long; `INVALID_LINE` = empty way.
    tags: Vec<u64>,
    /// Dirty bit per way slot, parallel to `tags`.
    dirty: Vec<bool>,
    /// Monotonic recency stamp per way slot; larger = more recent.
    lru: Vec<u64>,
    tick: u64,
}

impl Cache {
    /// Builds an empty cache of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a power of two. Sets are indexed
    /// by mask, so any other count would silently alias sets; the check
    /// is repeated here because `CacheGeometry`'s fields are public and
    /// a struct literal bypasses [`CacheGeometry::new`].
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count {sets} must be a power of two"
        );
        let slots = (sets as usize) * geom.ways;
        Cache {
            set_mask: sets - 1,
            ways: geom.ways,
            tags: vec![INVALID_LINE; slots],
            dirty: vec![false; slots],
            lru: vec![0; slots],
            tick: 0,
        }
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        ((line & self.set_mask) as usize) * self.ways
    }

    /// Probes the set for `line`; returns the absolute slot index on a
    /// hit. This is the batched line probe every lookup funnels through:
    /// one linear compare over the set's contiguous tag slice.
    #[inline]
    fn probe(&self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
            .map(|w| base + w)
    }

    /// Probes for a line without modifying replacement state.
    pub fn contains(&self, addr: Addr) -> bool {
        self.probe(addr.line()).is_some()
    }

    /// Accesses a line: on hit updates LRU and returns `Hit`; on miss
    /// returns `Miss` without filling.
    #[inline]
    pub fn touch(&mut self, addr: Addr) -> Lookup {
        self.tick += 1;
        match self.probe(addr.line()) {
            Some(slot) => {
                self.lru[slot] = self.tick;
                Lookup::Hit
            }
            None => Lookup::Miss,
        }
    }

    /// Like [`Cache::touch`] but also marks the line dirty on hit.
    #[inline]
    pub fn touch_dirty(&mut self, addr: Addr) -> Lookup {
        self.tick += 1;
        match self.probe(addr.line()) {
            Some(slot) => {
                self.lru[slot] = self.tick;
                self.dirty[slot] = true;
                Lookup::Hit
            }
            None => Lookup::Miss,
        }
    }

    /// Fills a line (after a miss), evicting the LRU way if the set is
    /// full. `dirty` marks the incoming line (store-allocate).
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        let line = addr.line();
        // Already present (e.g. racing prefetch): refresh.
        if let Some(slot) = self.probe(line) {
            self.lru[slot] = tick;
            self.dirty[slot] |= dirty;
            return None;
        }
        let base = self.set_base(line);
        // Free way, or failing that the LRU victim — one scan finds
        // both: an empty slot always wins (its stamp can never exceed a
        // valid line's, but prefer it explicitly so stamp resets are
        // safe).
        let mut victim = base;
        let mut victim_lru = u64::MAX;
        for slot in base..base + self.ways {
            if self.tags[slot] == INVALID_LINE {
                victim = slot;
                break;
            }
            if self.lru[slot] < victim_lru {
                victim = slot;
                victim_lru = self.lru[slot];
            }
        }
        let evicted = if self.tags[victim] == INVALID_LINE {
            None
        } else {
            Some(Evicted {
                line: self.tags[victim],
                dirty: self.dirty[victim],
            })
        };
        self.tags[victim] = line;
        self.dirty[victim] = dirty;
        self.lru[victim] = tick;
        evicted
    }

    /// Invalidates a line if present, returning whether it was dirty
    /// (`clflush` semantics).
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        match self.probe(addr.line()) {
            Some(slot) => {
                let dirty = self.dirty[slot];
                self.tags[slot] = INVALID_LINE;
                self.dirty[slot] = false;
                self.lru[slot] = 0;
                Some(dirty)
            }
            None => None,
        }
    }

    /// Invalidates everything (used between experiment trials, like the
    /// paper's "we invalidate caches between the runs", §4.7 footnote).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID_LINE);
        self.dirty.fill(false);
        self.lru.fill(0);
        self.tick = 0;
    }

    /// Number of valid lines (for tests).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_LINE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_platform::NodeId;

    fn addr(off: u64) -> Addr {
        Addr::on_node(NodeId(0), off)
    }

    fn small_cache() -> Cache {
        // 2 sets x 2 ways x 64B = 256 B.
        Cache::new(CacheGeometry::new(256, 2))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.touch(addr(0)), Lookup::Miss);
        assert_eq!(c.fill(addr(0), false), None);
        assert_eq!(c.touch(addr(0)), Lookup::Hit);
        assert_eq!(c.touch(addr(63)), Lookup::Hit, "same line");
        assert_eq!(c.touch(addr(64)), Lookup::Miss, "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_cache();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.fill(addr(0), false);
        c.fill(addr(256), false);
        // Touch line 0 so line 256 becomes LRU.
        c.touch(addr(0));
        let ev = c.fill(addr(512), false).expect("eviction");
        assert_eq!(ev.line, addr(256).line());
        assert!(!ev.dirty);
        assert!(c.contains(addr(0)));
        assert!(!c.contains(addr(256)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small_cache();
        c.fill(addr(0), true);
        c.fill(addr(256), false);
        c.touch(addr(256));
        let ev = c.fill(addr(512), false).expect("eviction");
        assert_eq!(ev.line, addr(0).line());
        assert!(ev.dirty);
    }

    #[test]
    fn touch_dirty_marks() {
        let mut c = small_cache();
        c.fill(addr(0), false);
        assert_eq!(c.touch_dirty(addr(0)), Lookup::Hit);
        assert_eq!(c.invalidate(addr(0)), Some(true));
    }

    #[test]
    fn invalidate_semantics() {
        let mut c = small_cache();
        assert_eq!(c.invalidate(addr(0)), None);
        c.fill(addr(0), false);
        assert_eq!(c.invalidate(addr(0)), Some(false));
        assert!(!c.contains(addr(0)));
    }

    #[test]
    fn refill_existing_line_is_not_eviction() {
        let mut c = small_cache();
        c.fill(addr(0), false);
        assert_eq!(c.fill(addr(0), true), None);
        // Dirty bit merged.
        assert_eq!(c.invalidate(addr(0)), Some(true));
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small_cache();
        for i in 0..4 {
            c.fill(addr(i * 64), false);
        }
        assert!(c.occupancy() > 0);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = small_cache();
        for i in 0..100 {
            c.touch(addr(i * 64));
            c.fill(addr(i * 64), false);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let mut c = small_cache();
        c.fill(addr(0), false);
        c.fill(addr(256), true);
        c.invalidate(addr(0));
        // The freed way absorbs the next fill: nothing is evicted even
        // though the set held a (dirty) line.
        assert_eq!(c.fill(addr(512), false), None);
        assert!(c.contains(addr(256)));
        assert!(c.contains(addr(512)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn struct_literal_geometry_with_non_power_of_two_sets_rejected() {
        // 3 sets of 5 ways: `CacheGeometry::new` would refuse this.
        let _ = Cache::new(CacheGeometry {
            size_bytes: 3 * 5 * 64,
            ways: 5,
        });
    }

    #[test]
    fn invalidated_dirty_bit_does_not_leak_to_next_tenant() {
        let mut c = small_cache();
        c.fill(addr(0), true);
        assert_eq!(c.invalidate(addr(0)), Some(true));
        c.fill(addr(0), false);
        // The slot's old dirty bit must not resurrect.
        assert_eq!(c.invalidate(addr(0)), Some(false));
    }
}
