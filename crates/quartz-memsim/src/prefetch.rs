//! Hardware stride prefetcher.
//!
//! The paper lists hardware prefetching among the processor features that
//! break the naive "count every memory reference" latency model (§2.2):
//! prefetched lines are served from cache and never stall the core. This
//! stream-table prefetcher reproduces that effect for sequential and
//! strided access patterns (STREAM, array scans), while pointer chases
//! defeat it — which is exactly why MemLat is latency-bound.

use crate::config::PrefetchConfig;

/// Per-core stride prefetcher.
///
/// The stream table is laid out structure-of-arrays, one entry per
/// stream in table order, so the search for a matching stream reads
/// only `last_line`, and the search for a victim only `age`.
#[derive(Clone, Debug)]
pub struct Prefetcher {
    config: PrefetchConfig,
    /// The last line each stream saw.
    last_line: Vec<u64>,
    /// Each stream's eviction key, `lru << 64 | id`: its recency stamp,
    /// then its stable allocation id as the tie-breaker. `swap_remove`
    /// reorders the table, so the victim must not depend on slot
    /// position.
    age: Vec<u128>,
    /// Each stream's `(stride, confidence)`.
    pattern: Vec<(i64, u32)>,
    tick: u64,
    /// Next stream allocation id (monotonic, reset with the table).
    next_id: u64,
}

/// Maximum line distance for an access to match an existing stream.
const MATCH_WINDOW: u64 = 16;

/// Maximum |stride| (in lines) the prefetcher will follow.
const MAX_STRIDE: i64 = 4;

/// The eviction key of a stream stamped `lru` with allocation id `id`.
fn age(lru: u64, id: u64) -> u128 {
    (u128::from(lru) << 64) | u128::from(id)
}

impl Prefetcher {
    /// Creates an idle prefetcher.
    pub fn new(config: PrefetchConfig) -> Self {
        Prefetcher {
            config,
            last_line: Vec::new(),
            age: Vec::new(),
            pattern: Vec::new(),
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
        let tick = self.tick;
        // The closest stream within the window, the first in table order
        // on ties: a branch-free pass over `last_line` alone.
        let mut best = usize::MAX;
        let mut best_dist = MATCH_WINDOW + 1;
        for (i, &last) in self.last_line.iter().enumerate() {
            let dist = line.abs_diff(last);
            let closer = dist < best_dist;
            best = if closer { i } else { best };
            best_dist = if closer { dist } else { best_dist };
        }
        if best == usize::MAX {
            if self.last_line.len() >= self.config.streams {
                let victim = self.oldest();
                self.last_line.swap_remove(victim);
                self.age.swap_remove(victim);
                self.pattern.swap_remove(victim);
            }
            let id = self.next_id;
            self.next_id += 1;
            self.last_line.push(line);
            self.age.push(age(tick, id));
            self.pattern.push((0, 0));
            return;
        }
        let id = self.age[best] as u64;
        self.age[best] = age(tick, id);
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
        if *confidence >= self.config.trigger && stride.abs() <= MAX_STRIDE {
            for k in 1..=self.config.depth as i64 {
                let target = line as i64 + stride * k;
                if target >= 0 {
                    out.push(target as u64);
                }
            }
        }
    }

    /// The eviction victim, the stream with the smallest key: a
    /// branch-free pass over `age` alone, run only when a new stream
    /// finds the table full.
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
        self.age.clear();
        self.pattern.clear();
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

    /// Replaces the stream table.
    fn set_table(p: &mut Prefetcher, streams: &[Stream]) {
        p.last_line = streams.iter().map(|s| s.last_line).collect();
        p.age = streams.iter().map(|s| age(s.lru, s.id)).collect();
        p.pattern = streams.iter().map(|s| (s.stride, s.confidence)).collect();
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
                        let lru = self
                            .streams
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| (s.lru, s.id))
                            .map(|(i, _)| i)
                            .expect("non-empty");
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

        fn reset(&mut self) {
            self.streams.clear();
            self.tick = 0;
            self.next_id = 0;
        }
    }

    proptest! {
        /// `observe` emits the same lines and leaves the same stream
        /// table, in the same order, as the reference. Lines cluster
        /// around anchors 20 apart, so an
        /// access is often equally far from two streams (the tie goes
        /// to the first in table order), and tables of 1 to 5 streams
        /// evict often; one anchor sits far from the rest, and an
        /// occasional reset restarts the stamps and ids.
        #[test]
        fn observe_matches_reference_prefetcher(
            streams in 1usize..6,
            trigger in 1u32..4,
            depth in 1u32..5,
            steps in proptest::collection::vec((0u64..5, 0u64..40), 1..300),
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
                let line = if anchor == 4 { 1 << 20 } else { anchor * 20 } + offset;
                p.observe(line, &mut out);
                reference.observe(line, &mut out_ref);
                prop_assert_eq!(&out, &out_ref, "emitted lines at line {}", line);
                prop_assert_eq!(&table(&p), &reference.streams, "stream table at line {}", line);
                prop_assert_eq!((p.tick, p.next_id), (reference.tick, reference.next_id));
            }
        }
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
