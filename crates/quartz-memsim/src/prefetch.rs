//! Hardware stride prefetcher.
//!
//! The paper lists hardware prefetching among the processor features that
//! break the naive "count every memory reference" latency model (§2.2):
//! prefetched lines are served from cache and never stall the core. This
//! stream-table prefetcher reproduces that effect for sequential and
//! strided access patterns (STREAM, array scans), while pointer chases
//! defeat it — which is exactly why MemLat is latency-bound.

use crate::config::{PrefetchConfig, MAX_STREAMS};

/// Per-core stride prefetcher.
///
/// The stream table is laid out structure-of-arrays, one entry per
/// stream in table order. The search for a matching stream reads
/// `last_lo` alone unless some stream may lie in the window. A doubly
/// linked recency list over the slots names the eviction victim, so a
/// miss that allocates a stream in a full table scans nothing.
#[derive(Clone, Debug)]
pub struct Prefetcher {
    config: PrefetchConfig,
    /// The last line each stream saw.
    last_line: Vec<u64>,
    /// The low 32 bits of each `last_line`, which the search's
    /// pre-filter reads.
    last_lo: Vec<u32>,
    /// Each stream's eviction key, `lru << 64 | id`: its recency stamp,
    /// then its stable allocation id as the tie-breaker. `swap_remove`
    /// reorders the table, so the victim must not depend on slot
    /// position. The recency list keeps the slots in key order, so only
    /// its oracle, [`Prefetcher::oldest`], compares keys.
    age: Vec<u128>,
    /// Each stream's `(stride, confidence)`.
    pattern: Vec<(i64, u32)>,
    /// Each slot's less recent neighbour in the recency list, or [`NIL`].
    prev: Vec<u8>,
    /// Each slot's more recent neighbour in the recency list, or [`NIL`].
    next: Vec<u8>,
    /// The least recent slot, the next victim ([`NIL`] while empty).
    head: u8,
    /// The most recent slot ([`NIL`] while empty).
    tail: u8,
    tick: u64,
    /// Next stream allocation id (monotonic, reset with the table).
    next_id: u64,
}

/// Maximum line distance for an access to match an existing stream.
const MATCH_WINDOW: u64 = 16;

/// Maximum |stride| (in lines) the prefetcher will follow.
const MAX_STRIDE: i64 = 4;

/// The end of the recency list: no slot.
const NIL: u8 = u8::MAX;

// Slots run from 0 to `MAX_STREAMS - 1`, so no slot is `NIL`.
const _: () = assert!(MAX_STREAMS <= NIL as usize);

/// The eviction key of a stream stamped `lru` with allocation id `id`.
fn age(lru: u64, id: u64) -> u128 {
    (u128::from(lru) << 64) | u128::from(id)
}

impl Prefetcher {
    /// Creates an idle prefetcher.
    ///
    /// # Panics
    ///
    /// Panics unless `config.streams` is 1 to [`MAX_STREAMS`]: the
    /// recency list links slots by `u8` index. The check is here because
    /// `PrefetchConfig`'s public fields let a struct literal set any
    /// count.
    pub fn new(config: PrefetchConfig) -> Self {
        assert!(
            (1..=MAX_STREAMS).contains(&config.streams),
            "prefetcher needs 1 to {MAX_STREAMS} streams, got {}",
            config.streams
        );
        Prefetcher {
            config,
            last_line: Vec::new(),
            last_lo: Vec::new(),
            age: Vec::new(),
            pattern: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            tick: 0,
            next_id: 0,
        }
    }

    /// Observes a demand access to cache line `line` (on L2 miss) and
    /// appends the lines that should be prefetched to `out`.
    pub fn observe(&mut self, line: u64, out: &mut Vec<u64>) {
        if !self.config.enabled {
            return;
        }
        self.tick += 1;
        let Some(best) = self.closest(line) else {
            self.allocate(line);
            return;
        };
        let id = self.age[best] as u64;
        self.age[best] = age(self.tick, id);
        self.move_to_tail(best);
        let stride = line as i64 - self.last_line[best] as i64;
        if stride == 0 {
            return;
        }
        let (last_stride, confidence) = &mut self.pattern[best];
        if stride == *last_stride {
            *confidence += 1;
        } else {
            *last_stride = stride;
            *confidence = 1;
        }
        self.last_line[best] = line;
        self.last_lo[best] = line as u32;
        if *confidence >= self.config.trigger && stride.abs() <= MAX_STRIDE {
            for k in 1..=self.config.depth as i64 {
                let target = line as i64 + stride * k;
                if target >= 0 {
                    out.push(target as u64);
                }
            }
        }
    }

    /// Whether some stream may lie within [`MATCH_WINDOW`] of `line`, from
    /// the low 32 bits alone: a branch-free pass over `last_lo`. A stream
    /// in the window is at most 16 lines either side, so the low bits'
    /// wrapping difference plus 16 is at most 32 and it always passes. A
    /// stream a multiple of 2^32 lines further off passes too; the exact
    /// pass rejects it.
    fn maybe_near(&self, line: u64) -> bool {
        let lo = line as u32;
        let window = MATCH_WINDOW as u32;
        self.last_lo.iter().fold(false, |near, &last| {
            near | (lo.wrapping_sub(last).wrapping_add(window) <= 2 * window)
        })
    }

    /// The closest stream within [`MATCH_WINDOW`] of `line`, the first in
    /// table order on ties. Only after the pre-filter passes does the
    /// exact search run: a branch-free pass over `last_line`.
    fn closest(&self, line: u64) -> Option<usize> {
        if !self.maybe_near(line) {
            return None;
        }
        let mut best = usize::MAX;
        let mut best_dist = MATCH_WINDOW + 1;
        for (i, &last) in self.last_line.iter().enumerate() {
            let dist = line.abs_diff(last);
            let closer = dist < best_dist;
            best = if closer { i } else { best };
            best_dist = if closer { dist } else { best_dist };
        }
        (best != usize::MAX).then_some(best)
    }

    /// Starts a stream at `line`. In a full table the new stream replaces
    /// the list's head, as `swap_remove` of the victim and then a push
    /// would: the last slot moves into the victim's place, and the new
    /// stream takes the last slot.
    fn allocate(&mut self, line: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let key = age(self.tick, id);
        let len = self.last_line.len();
        let slot = if len < self.config.streams {
            self.last_line.push(line);
            self.last_lo.push(line as u32);
            self.age.push(key);
            self.pattern.push((0, 0));
            self.prev.push(NIL);
            self.next.push(NIL);
            len
        } else {
            let victim = usize::from(self.head);
            debug_assert_eq!(
                victim,
                self.oldest(),
                "the list's head is the oldest stream"
            );
            self.unlink(victim);
            let last = len - 1;
            if victim != last {
                self.move_slot(last, victim);
            }
            self.last_line[last] = line;
            self.last_lo[last] = line as u32;
            self.age[last] = key;
            self.pattern[last] = (0, 0);
            last
        };
        self.push_tail(slot);
    }

    /// Moves the stream in slot `from` into the free slot `to`, taking
    /// over its place in the recency list.
    fn move_slot(&mut self, from: usize, to: usize) {
        self.last_line[to] = self.last_line[from];
        self.last_lo[to] = self.last_lo[from];
        self.age[to] = self.age[from];
        self.pattern[to] = self.pattern[from];
        let (prev, next) = (self.prev[from], self.next[from]);
        self.prev[to] = prev;
        self.next[to] = next;
        self.link_after(prev, to as u8);
        self.link_before(next, to as u8);
    }

    /// Makes `slot` the most recent stream.
    fn move_to_tail(&mut self, slot: usize) {
        if usize::from(self.tail) != slot {
            self.unlink(slot);
            self.push_tail(slot);
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.prev[slot], self.next[slot]);
        self.link_after(prev, next);
        self.link_before(next, prev);
    }

    /// Appends `slot`, which is not in the list, as the most recent.
    fn push_tail(&mut self, slot: usize) {
        let tail = self.tail;
        self.prev[slot] = tail;
        self.next[slot] = NIL;
        self.link_after(tail, slot as u8);
        self.tail = slot as u8;
    }

    /// Makes `slot` follow `prev` in the list: `prev`'s `next` link, or
    /// `head` when `prev` is [`NIL`].
    fn link_after(&mut self, prev: u8, slot: u8) {
        match prev {
            NIL => self.head = slot,
            p => self.next[usize::from(p)] = slot,
        }
    }

    /// Makes `slot` precede `next` in the list: `next`'s `prev` link, or
    /// `tail` when `next` is [`NIL`].
    fn link_before(&mut self, next: u8, slot: u8) {
        match next {
            NIL => self.tail = slot,
            n => self.prev[usize::from(n)] = slot,
        }
    }

    /// The stream with the smallest key, by a pass over `age`: the
    /// oracle for the recency list's head.
    fn oldest(&self) -> usize {
        let mut victim = 0;
        let mut oldest = u128::MAX;
        for (i, &key) in self.age.iter().enumerate() {
            let older = key < oldest;
            victim = if older { i } else { victim };
            oldest = if older { key } else { oldest };
        }
        victim
    }

    /// Forgets all streams (trial reset).
    pub fn reset(&mut self) {
        self.last_line.clear();
        self.last_lo.clear();
        self.age.clear();
        self.pattern.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
        self.tick = 0;
        self.next_id = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One stream table entry, gathered from the table's arrays.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Stream {
        last_line: u64,
        stride: i64,
        confidence: u32,
        lru: u64,
        id: u64,
    }

    /// The stream table in table order.
    fn table(p: &Prefetcher) -> Vec<Stream> {
        (0..p.last_line.len())
            .map(|i| Stream {
                last_line: p.last_line[i],
                stride: p.pattern[i].0,
                confidence: p.pattern[i].1,
                lru: (p.age[i] >> 64) as u64,
                id: p.age[i] as u64,
            })
            .collect()
    }

    /// Replaces the stream table, linking the recency list in key order.
    fn set_table(p: &mut Prefetcher, streams: &[Stream]) {
        p.last_line = streams.iter().map(|s| s.last_line).collect();
        p.last_lo = streams.iter().map(|s| s.last_line as u32).collect();
        p.age = streams.iter().map(|s| age(s.lru, s.id)).collect();
        p.pattern = streams.iter().map(|s| (s.stride, s.confidence)).collect();
        p.prev = vec![NIL; streams.len()];
        p.next = vec![NIL; streams.len()];
        (p.head, p.tail) = (NIL, NIL);
        let mut slots: Vec<usize> = (0..streams.len()).collect();
        slots.sort_by_key(|&i| p.age[i]);
        for i in slots {
            p.push_tail(i);
        }
    }

    /// The recency list's slots from head to tail, after checking that
    /// every `prev` link mirrors a `next` link and that `tail` ends it.
    fn recency(p: &Prefetcher) -> Vec<usize> {
        let mut slots = Vec::new();
        let (mut prev, mut slot) = (NIL, p.head);
        while slot != NIL {
            assert!(slots.len() < p.last_line.len(), "the list has a cycle");
            assert_eq!(p.prev[usize::from(slot)], prev, "prev link of slot {slot}");
            slots.push(usize::from(slot));
            (prev, slot) = (slot, p.next[usize::from(slot)]);
        }
        assert_eq!(p.tail, prev, "tail ends the list");
        slots
    }

    fn pf() -> Prefetcher {
        Prefetcher::new(PrefetchConfig {
            enabled: true,
            streams: 4,
            trigger: 2,
            depth: 2,
        })
    }

    #[test]
    fn sequential_scan_triggers_prefetch() {
        let mut p = pf();
        let mut out = Vec::new();
        p.observe(100, &mut out);
        assert!(out.is_empty(), "first access allocates a stream");
        p.observe(101, &mut out);
        assert!(out.is_empty(), "one observation of stride 1");
        p.observe(102, &mut out);
        assert_eq!(out, vec![103, 104], "trigger reached, depth 2");
    }

    #[test]
    fn backward_scan_also_works() {
        let mut p = pf();
        let mut out = Vec::new();
        for line in [200u64, 199, 198, 197] {
            out.clear();
            p.observe(line, &mut out);
        }
        assert_eq!(out, vec![196, 195]);
    }

    #[test]
    fn random_pattern_never_prefetches() {
        let mut p = pf();
        let mut out = Vec::new();
        for line in [5u64, 90_000, 777, 12_345_678, 42, 99_999] {
            p.observe(line, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn large_stride_not_followed() {
        let mut p = pf();
        let mut out = Vec::new();
        for line in [0u64, 10, 20, 30] {
            out.clear();
            p.observe(line, &mut out);
        }
        assert!(out.is_empty(), "stride 10 exceeds MAX_STRIDE");
    }

    #[test]
    fn disabled_prefetcher_is_silent() {
        let mut p = Prefetcher::new(PrefetchConfig {
            enabled: false,
            ..PrefetchConfig::default()
        });
        let mut out = Vec::new();
        for line in 0..10 {
            p.observe(line, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn multiple_interleaved_streams() {
        let mut p = pf();
        let mut out = Vec::new();
        // Two interleaved sequential streams far apart.
        for i in 0..4u64 {
            p.observe(1000 + i, &mut out);
            p.observe(500_000 + i, &mut out);
        }
        assert!(out.contains(&1004));
        assert!(out.contains(&500_004));
    }

    /// Forces an eviction tie: every resident stream carries the same
    /// `lru` stamp, and the table order is permuted the way repeated
    /// `swap_remove`s would leave it. The victim must be the stream with
    /// the smallest allocation id in every permutation — before the
    /// `(lru, id)` tie-break the slot at index 0 won, which depends on
    /// table order.
    #[test]
    fn eviction_tie_breaks_on_stream_id_regardless_of_table_order() {
        // 4 permutations of 4 streams; lines far apart so the new
        // access never matches an existing stream.
        let orders: [[u64; 4]; 4] = [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]];
        for order in orders {
            let mut p = pf();
            let mut out = Vec::new();
            // Allocate 4 streams (ids 0..4 in allocation order).
            for id in 0..4u64 {
                p.observe(10_000 * (id + 1), &mut out);
            }
            // Rearrange the table and flatten every stamp to a tie.
            let mut streams = table(&p);
            streams.sort_by_key(|s| {
                order
                    .iter()
                    .position(|&o| o == s.id)
                    .expect("id in permutation")
            });
            for s in &mut streams {
                s.lru = 7;
            }
            set_table(&mut p, &streams);
            // A 5th far-away stream forces an eviction.
            p.observe(90_000, &mut out);
            let ids: Vec<u64> = table(&p).iter().map(|s| s.id).collect();
            assert!(
                !ids.contains(&0),
                "victim must be id 0, table order {order:?}: {ids:?}"
            );
            for id in 1..4u64 {
                assert!(
                    ids.contains(&id),
                    "id {id} must survive, table order {order:?}"
                );
            }
            assert!(out.is_empty(), "no stream reached trigger confidence");
        }
    }

    /// The prefetcher as it was before its stream table became arrays:
    /// a vector of stream structs, the closest stream by `min_by_key`
    /// over the ones in the window (the first in table order on ties),
    /// then the `(lru, id)` victim by a second `min_by_key`.
    struct RefPrefetcher {
        config: PrefetchConfig,
        streams: Vec<Stream>,
        tick: u64,
        next_id: u64,
    }

    impl RefPrefetcher {
        fn observe(&mut self, line: u64, out: &mut Vec<u64>) {
            self.tick += 1;
            let tick = self.tick;
            let best = self
                .streams
                .iter_mut()
                .filter(|s| (line as i64 - s.last_line as i64).abs() <= MATCH_WINDOW as i64)
                .min_by_key(|s| (line as i64 - s.last_line as i64).unsigned_abs());
            match best {
                Some(s) => {
                    let stride = line as i64 - s.last_line as i64;
                    if stride == 0 {
                        s.lru = tick;
                        return;
                    }
                    if stride == s.stride {
                        s.confidence += 1;
                    } else {
                        s.stride = stride;
                        s.confidence = 1;
                    }
                    s.last_line = line;
                    s.lru = tick;
                    if s.confidence >= self.config.trigger && s.stride.abs() <= MAX_STRIDE {
                        for k in 1..=self.config.depth as i64 {
                            let target = line as i64 + s.stride * k;
                            if target >= 0 {
                                out.push(target as u64);
                            }
                        }
                    }
                }
                None => {
                    if self.streams.len() >= self.config.streams {
                        let lru = self.victim().expect("non-empty");
                        self.streams.swap_remove(lru);
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    self.streams.push(Stream {
                        last_line: line,
                        stride: 0,
                        confidence: 0,
                        lru: tick,
                        id,
                    });
                }
            }
        }

        /// The stream a new one would evict.
        fn victim(&self) -> Option<usize> {
            self.streams
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| (s.lru, s.id))
                .map(|(i, _)| i)
        }

        fn reset(&mut self) {
            self.streams.clear();
            self.tick = 0;
            self.next_id = 0;
        }
    }

    proptest! {
        /// `observe` emits the same lines and leaves the same stream
        /// table, in the same order, as the reference, and the recency
        /// list runs from the reference's `(lru, id)` victim through every
        /// slot in key order. Lines cluster around anchors 20 apart, so an
        /// access is often equally far from two streams (the tie goes
        /// to the first in table order), and tables of 1 to 16 streams
        /// evict, the small ones often; one anchor sits far from the rest,
        /// another 2^32 lines from the first, where the search's 32-bit
        /// pre-filter passes streams the exact pass must reject, and an
        /// occasional reset restarts the stamps and ids.
        #[test]
        fn observe_matches_reference_prefetcher(
            streams in 1usize..17,
            trigger in 1u32..4,
            depth in 1u32..5,
            steps in proptest::collection::vec((0u64..6, 0u64..40), 1..300),
        ) {
            let config = PrefetchConfig {
                enabled: true,
                streams,
                trigger,
                depth,
            };
            let mut p = Prefetcher::new(config);
            let mut reference = RefPrefetcher {
                config,
                streams: Vec::new(),
                tick: 0,
                next_id: 0,
            };
            let (mut out, mut out_ref) = (Vec::new(), Vec::new());
            for (anchor, offset) in steps {
                if anchor == 4 && offset == 0 {
                    p.reset();
                    reference.reset();
                    continue;
                }
                let line = match anchor {
                    4 => 1 << 20,
                    5 => 1 << 32,
                    _ => anchor * 20,
                } + offset;
                p.observe(line, &mut out);
                reference.observe(line, &mut out_ref);
                prop_assert_eq!(&out, &out_ref, "emitted lines at line {}", line);
                prop_assert_eq!(&table(&p), &reference.streams, "stream table at line {}", line);
                prop_assert_eq!((p.tick, p.next_id), (reference.tick, reference.next_id));
                let mut by_key: Vec<usize> = (0..reference.streams.len()).collect();
                by_key.sort_by_key(|&i| (reference.streams[i].lru, reference.streams[i].id));
                prop_assert_eq!(recency(&p).first(), reference.victim().as_ref(), "victim at line {}", line);
                prop_assert_eq!(recency(&p), by_key, "recency list at line {}", line);
            }
        }
    }

    /// Streams a multiple of 2^32 lines away whose low 32 bits lie within
    /// the window pass the pre-filter, and the exact pass rejects them; a
    /// stream 16 lines away matches, one 17 lines away does not, also
    /// across a 2^32 boundary.
    #[test]
    fn pre_filter_passes_are_checked_exactly() {
        let line = (3u64 << 32) + 5;
        let stream_at = |last_line| Stream {
            last_line,
            stride: 0,
            confidence: 0,
            lru: 1,
            id: 0,
        };
        let mut p = pf();
        for k in [-3i64, -2, -1, 1, 2] {
            for d in [-16i64, -9, -1, 0, 1, 9, 16] {
                let far = (line as i64 + (k << 32) + d) as u64;
                set_table(&mut p, &[stream_at(far)]);
                assert!(p.maybe_near(line), "pre-filter passes {far:#x}");
                assert_eq!(p.closest(line), None, "{far:#x} is out of the window");
            }
        }
        for d in [-17i64, -16, 16, 17] {
            let near = (line as i64 + d) as u64;
            set_table(&mut p, &[stream_at(near)]);
            let within = d.unsigned_abs() <= MATCH_WINDOW;
            assert_eq!(p.maybe_near(line), within, "pre-filter at distance {d}");
            assert_eq!(
                p.closest(line),
                within.then_some(0),
                "match at distance {d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "1 to 255 streams, got 0")]
    fn zero_streams_rejected() {
        let _ = Prefetcher::new(PrefetchConfig {
            streams: 0,
            ..PrefetchConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "1 to 255 streams, got 256")]
    fn more_streams_than_the_list_links_reach_rejected() {
        let _ = Prefetcher::new(PrefetchConfig {
            streams: MAX_STREAMS + 1,
            ..PrefetchConfig::default()
        });
    }

    /// A table of [`MAX_STREAMS`] streams uses every slot index below
    /// `NIL`. Lines 64 apart never share a stream; 300 of them, drawn by
    /// a multiplicative hash of the step, fill the table, hit streams and
    /// evict, and the table and the list follow the reference throughout.
    #[test]
    fn a_table_of_max_streams_matches_the_reference() {
        let config = PrefetchConfig {
            enabled: true,
            streams: MAX_STREAMS,
            trigger: 2,
            depth: 2,
        };
        let mut p = Prefetcher::new(config);
        let mut reference = RefPrefetcher {
            config,
            streams: Vec::new(),
            tick: 0,
            next_id: 0,
        };
        let (mut out, mut out_ref) = (Vec::new(), Vec::new());
        for k in 0..1200u64 {
            let line = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 300 * 64;
            p.observe(line, &mut out);
            reference.observe(line, &mut out_ref);
            assert_eq!(table(&p), reference.streams, "stream table at step {k}");
            assert_eq!(
                recency(&p).first(),
                reference.victim().as_ref(),
                "victim at step {k}"
            );
        }
        assert_eq!(p.last_line.len(), MAX_STREAMS);
        assert_eq!(recency(&p).len(), MAX_STREAMS);
        assert!(out.is_empty() && out_ref.is_empty());
    }

    #[test]
    fn reset_forgets_streams() {
        let mut p = pf();
        let mut out = Vec::new();
        for line in [0u64, 1, 2] {
            p.observe(line, &mut out);
        }
        p.reset();
        out.clear();
        p.observe(3, &mut out);
        assert!(out.is_empty());
    }
}
