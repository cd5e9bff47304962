//! Set-associative, write-back, write-allocate cache with LRU replacement.
//!
//! The way metadata is laid out structure-of-arrays: one contiguous tag
//! array probed as a slice (the per-access hot path is a batched compare
//! over `ways` consecutive `u64`s), with dirty bits in a parallel array
//! touched only on the slot that matched. An absent line is encoded by
//! the `INVALID_LINE` sentinel tag, so probing never consults the valid
//! masks below.
//!
//! Replacement state is one recency word and one valid mask per set, so
//! no fill scans the set for its victim. The recency word holds the
//! set's way indices as 4-bit fields in recency order (field 0 the most
//! recent); every hit and fill moves its way to the front. A fill takes
//! the lowest free way by index, or else the way in the last field.
//! That is exactly the victim of per-way LRU stamps: a free way always
//! won, and when the set is full every way has been filled since it was
//! last free, so the order of the fields is the order of the stamps.
//! Four bits per way cap a cache at [`MAX_WAYS`] ways.
//!
//! [`Cache::fill_after_miss`] fills a line the caller has just missed on
//! without probing for it again.

use crate::addr::Addr;
use crate::config::{CacheGeometry, MAX_WAYS};

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

/// A 1 in every 4-bit field of a recency word.
const FIELD_ONES: u64 = 0x1111_1111_1111_1111;

/// The top bit of every 4-bit field of a recency word.
const FIELD_HIGHS: u64 = 0x8888_8888_8888_8888;

/// The recency word of a fresh set: way `i` in field `i`.
const IDENTITY_ORDER: u64 = 0xFEDC_BA98_7654_3210;

/// One cache instance (structure-of-arrays way metadata).
#[derive(Clone, Debug)]
pub struct Cache {
    /// `sets - 1`: the set count is a power of two, so a line's set is
    /// its low bits.
    set_mask: u64,
    ways: usize,
    /// Valid mask of a full set: the low `ways` bits.
    full: u16,
    /// Bit offset of the least recent field of a recency word.
    lru_shift: u32,
    /// Line tags, `sets * ways` long; `INVALID_LINE` = empty way.
    tags: Vec<u64>,
    /// Dirty bit per way slot, parallel to `tags`.
    dirty: Vec<bool>,
    /// Recency word per set: way indices in 4-bit fields, most recent
    /// first. The low `ways` fields always hold each way exactly once.
    order: Vec<u64>,
    /// Valid mask per set: bit `w` is set iff way `w` holds a line.
    valid: Vec<u16>,
}

impl Cache {
    /// Builds an empty cache of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless the set count is a power of two and the cache has
    /// at most [`MAX_WAYS`] ways. Sets are indexed by mask, so any other
    /// count would silently alias sets, and a recency word has room for
    /// 16 ways; the checks are repeated here because `CacheGeometry`'s
    /// fields are public and a struct literal bypasses
    /// [`CacheGeometry::new`].
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count {sets} must be a power of two"
        );
        let ways = geom.ways;
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "cache needs 1 to {MAX_WAYS} ways, got {ways}"
        );
        let slots = (sets as usize) * ways;
        Cache {
            set_mask: sets - 1,
            ways,
            full: ((1u32 << ways) - 1) as u16,
            lru_shift: 4 * (ways as u32 - 1),
            tags: vec![INVALID_LINE; slots],
            dirty: vec![false; slots],
            order: vec![IDENTITY_ORDER; sets as usize],
            valid: vec![0; sets as usize],
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Probes `set` for `line`; returns the way on a hit. This is the
    /// batched line probe every lookup funnels through: one linear
    /// compare over the set's contiguous tag slice.
    #[inline]
    fn probe(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == line)
    }

    /// Moves `way` to the front of `set`'s recency word.
    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        let order = self.order[set];
        let way = way as u64;
        if order & 0xF == way {
            return;
        }
        // `way`'s field is the one that `order ^ way-in-every-field`
        // zeroes, and the lowest zero field is the lowest marked one (a
        // borrow out of a zero field marks only fields above it). The
        // fields from `ways` up never move and keep the indices
        // `ways..16`, so the match is unique.
        let x = order ^ (FIELD_ONES * way);
        let marks = x.wrapping_sub(FIELD_ONES) & !x & FIELD_HIGHS;
        // The top bit of `way`'s field, and every bit up to it: the
        // fields from the front through `way`'s, which shift back one
        // field while `way` takes the front.
        let top = marks & marks.wrapping_neg();
        let through = (top << 1).wrapping_sub(1);
        self.order[set] = ((order << 4) & through) | (order & !through) | way;
    }

    /// Probes for a line without modifying replacement state.
    pub fn contains(&self, addr: Addr) -> bool {
        let line = addr.line();
        self.probe(self.set_of(line), line).is_some()
    }

    /// Accesses a line: on hit updates LRU and returns `Hit`; on miss
    /// returns `Miss` without filling.
    #[inline]
    pub fn touch(&mut self, addr: Addr) -> Lookup {
        let line = addr.line();
        let set = self.set_of(line);
        match self.probe(set, line) {
            Some(way) => {
                self.promote(set, way);
                Lookup::Hit
            }
            None => Lookup::Miss,
        }
    }

    /// Like [`Cache::touch`] but also marks the line dirty on hit.
    #[inline]
    pub fn touch_dirty(&mut self, addr: Addr) -> Lookup {
        let line = addr.line();
        let set = self.set_of(line);
        match self.probe(set, line) {
            Some(way) => {
                self.promote(set, way);
                self.dirty[set * self.ways + way] = true;
                Lookup::Hit
            }
            None => Lookup::Miss,
        }
    }

    /// Fills a line, evicting the LRU way if the set is full. `dirty`
    /// marks the incoming line (store-allocate). A line already present
    /// (e.g. racing prefetch) is refreshed: it becomes the most recent
    /// and its dirty bit absorbs `dirty`.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        let line = addr.line();
        let set = self.set_of(line);
        if let Some(way) = self.probe(set, line) {
            self.promote(set, way);
            self.dirty[set * self.ways + way] |= dirty;
            return None;
        }
        self.fill_way(set, line, dirty)
    }

    /// Fills a line the caller has just missed on, with nothing in
    /// between that could have brought it in: [`Cache::fill`] without
    /// its probe. Debug builds assert that the line is absent.
    #[inline]
    pub fn fill_after_miss(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        let line = addr.line();
        let set = self.set_of(line);
        debug_assert!(
            self.probe(set, line).is_none(),
            "fill_after_miss of resident line {line}"
        );
        self.fill_way(set, line, dirty)
    }

    /// Puts an absent `line` into `set`: the lowest free way, or else
    /// the least recent one.
    #[inline]
    fn fill_way(&mut self, set: usize, line: u64, dirty: bool) -> Option<Evicted> {
        let valid = self.valid[set];
        let way = if valid == self.full {
            ((self.order[set] >> self.lru_shift) & 0xF) as usize
        } else {
            (!valid).trailing_zeros() as usize
        };
        let slot = set * self.ways + way;
        let evicted = if (valid & (1 << way)) != 0 {
            Some(Evicted {
                line: self.tags[slot],
                dirty: self.dirty[slot],
            })
        } else {
            None
        };
        self.tags[slot] = line;
        self.dirty[slot] = dirty;
        self.valid[set] = valid | (1 << way);
        self.promote(set, way);
        evicted
    }

    /// Invalidates a line if present, returning whether it was dirty
    /// (`clflush` semantics). The way keeps its place in the recency
    /// word: a free way is taken by index, and it moves to the front
    /// when it is filled again.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let line = addr.line();
        let set = self.set_of(line);
        let way = self.probe(set, line)?;
        let slot = set * self.ways + way;
        let dirty = self.dirty[slot];
        self.tags[slot] = INVALID_LINE;
        self.dirty[slot] = false;
        self.valid[set] &= !(1 << way);
        Some(dirty)
    }

    /// Invalidates everything (used between experiment trials, like the
    /// paper's "we invalidate caches between the runs", §4.7 footnote).
    /// Recency words are left as they are: no set is full until each of
    /// its ways has been filled, and so moved to the front, again.
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID_LINE);
        self.dirty.fill(false);
        self.valid.fill(0);
    }

    /// Number of valid lines (for tests).
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
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
    #[should_panic(expected = "1 to 16 ways, got 17")]
    fn struct_literal_geometry_with_seventeen_ways_rejected() {
        // One set of 17 ways: `CacheGeometry::new` would refuse this.
        let _ = Cache::new(CacheGeometry {
            size_bytes: 17 * 64,
            ways: 17,
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
