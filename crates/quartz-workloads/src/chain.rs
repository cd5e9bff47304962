//! Pointer-chain construction shared by the latency benchmarks.
//!
//! "The benchmark creates a pointer chain as an array of 64-bit integer
//! elements. The contents of each element dictate which one is read next;
//! and each element is read exactly once." (§4.4) We shuffle the chain's
//! lines with Sattolo's algorithm, one element per cache line so every
//! step is a fresh line, and a traversal of `n` steps visits every
//! element exactly once.
//!
//! Simulated memory holds addresses, not data, so the chain's contents
//! live on the host. A chain keeps the shuffled array itself as its
//! visit order, plus a position in it: a step loads the current entry's
//! line and moves to the next entry, wrapping at the end. Memsim still
//! sees a dependent chase, one load per step, each issued after the
//! previous one completes; the host reads its array in order instead of
//! chasing a successor table through it.
//!
//! This is the walk the successor table made. That table set
//! `next[perm[k]] = perm[(k + 1) % n]` and started at `perm[0]`, so its
//! step `k` visited `perm[k % n]`, which is `order[k % n]` here. The
//! tests keep the table as a reference and compare the two walks.

use quartz_memsim::Addr;
use quartz_threadsim::ThreadCtx;

/// The seeded stream chains are shuffled with.
pub use quartz_platform::seed::Rng;

/// A pointer chain over simulated memory: a random cyclic permutation of
/// `len` cache lines, held as its visit order and the position of the
/// element the chain is at.
#[derive(Clone, Debug)]
pub struct Chain {
    base: Addr,
    /// Line indices from `base`, in visit order.
    order: Vec<u32>,
    /// Index into `order` of the current element.
    pos: usize,
}

impl Chain {
    /// Builds a chain of `len` lines in a fresh allocation on the chosen
    /// node, shuffled with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `len < 2`, `len` exceeds `u32` range, or allocation
    /// fails.
    pub fn build(ctx: &mut ThreadCtx, node: quartz_platform::NodeId, len: u64, seed: u64) -> Self {
        assert!(len >= 2, "chain needs at least two elements");
        assert!(len <= u32::MAX as u64, "chain too long");
        let base = ctx.alloc_on(node, len * 64);
        // Sattolo's shuffle. Its draws from `seed` fix every chain's
        // order, and with it every output that walks one.
        let mut order: Vec<u32> = (0..len as u32).collect();
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            let j = rng.below(i as u64) as usize;
            order.swap(i, j);
        }
        Chain {
            base,
            order,
            pos: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.order.len() as u64
    }

    /// Chains are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The address of the element the cursor currently points at.
    pub fn current_addr(&self) -> Addr {
        self.base.offset_by(u64::from(self.order[self.pos]) * 64)
    }

    /// Performs one dependent chase step through simulated memory.
    pub fn step(&mut self, ctx: &mut ThreadCtx) {
        ctx.load(self.current_addr());
        self.advance_cursor();
    }

    /// Advances the cursor without touching simulated memory (used by
    /// batched multi-chain stepping, where the load was already issued).
    pub fn advance_cursor(&mut self) {
        self.pos += 1;
        if self.pos == self.order.len() {
            self.pos = 0;
        }
    }

    /// Releases the backing allocation.
    pub fn free(self, ctx: &mut ThreadCtx) {
        ctx.free(self.base).expect("chain allocation");
    }

    /// Verifies the visit order names every element exactly once, so a
    /// walk is a single cycle covering the chain (test/diagnostic
    /// helper).
    pub fn is_full_cycle(&self) -> bool {
        let mut seen = vec![false; self.order.len()];
        self.order.iter().all(|&line| {
            seen.get_mut(line as usize)
                .is_some_and(|s| !std::mem::replace(s, true))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use quartz_memsim::{MemSimConfig, MemorySystem};
    use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig};
    use quartz_threadsim::Engine;

    fn engine() -> Engine {
        let platform =
            Platform::new(PlatformConfig::new(Architecture::IvyBridge).with_perfect_counters());
        Engine::new(Arc::new(MemorySystem::new(
            platform,
            MemSimConfig::default().without_jitter(),
        )))
    }

    /// The construction `Chain` replaced: the same shuffle, turned into
    /// a successor table (`next[perm[k]] = perm[k + 1]`) and chased from
    /// `perm[0]`. Returns the first `steps` line indices it visits.
    fn successor_table_walk(len: u64, seed: u64, steps: usize) -> Vec<u64> {
        let mut perm: Vec<u32> = (0..len as u32).collect();
        let mut rng = Rng::new(seed);
        let mut i = len as usize - 1;
        while i > 0 {
            let j = rng.below(i as u64) as usize;
            perm.swap(i, j);
            i -= 1;
        }
        let mut next = vec![0u32; len as usize];
        for k in 0..len as usize {
            next[perm[k] as usize] = perm[(k + 1) % len as usize];
        }
        let mut cur = perm[0];
        (0..steps)
            .map(|_| {
                let line = cur;
                cur = next[cur as usize];
                u64::from(line)
            })
            .collect()
    }

    /// The line index `chain` is at.
    fn line(chain: &Chain) -> u64 {
        (chain.current_addr().0 - chain.base.0) / 64
    }

    #[test]
    fn chain_is_a_full_cycle() {
        engine().run(|ctx| {
            for len in [2u64, 3, 17, 1024] {
                let chain = Chain::build(ctx, NodeId(0), len, 42);
                assert!(chain.is_full_cycle(), "len {len}");
            }
        });
    }

    #[test]
    fn an_order_that_repeats_a_line_is_not_a_full_cycle() {
        engine().run(|ctx| {
            let mut chain = Chain::build(ctx, NodeId(0), 4, 3);
            chain.order = vec![0, 2, 2, 3];
            assert!(!chain.is_full_cycle());
            chain.order = vec![1, 2, 3, 4];
            assert!(!chain.is_full_cycle(), "a line past the end");
            chain.order = vec![3, 1, 0, 2];
            assert!(chain.is_full_cycle());
        });
    }

    #[test]
    fn visit_order_matches_the_successor_table_walk() {
        engine().run(|ctx| {
            let l3_lines = 8 * ctx.mem().config().l3.size_bytes / 64;
            for len in [2u64, 3, 17, 1024, l3_lines] {
                for seed in [1u64, 42, 0x4D4C] {
                    let steps = 2 * len as usize + 1;
                    let want = successor_table_walk(len, seed, steps);
                    let mut stepped = Chain::build(ctx, NodeId(0), len, seed);
                    let mut advanced = stepped.clone();
                    let via_step: Vec<u64> = (0..steps)
                        .map(|_| {
                            let l = line(&stepped);
                            stepped.step(ctx);
                            l
                        })
                        .collect();
                    let via_cursor: Vec<u64> = (0..steps)
                        .map(|_| {
                            let l = line(&advanced);
                            advanced.advance_cursor();
                            l
                        })
                        .collect();
                    assert!(via_step == want, "step: len {len}, seed {seed}");
                    assert!(via_cursor == want, "cursor: len {len}, seed {seed}");
                    stepped.free(ctx);
                }
            }
        });
    }

    #[test]
    fn chase_visits_every_element_once() {
        engine().run(|ctx| {
            let mut chain = Chain::build(ctx, NodeId(0), 256, 7);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..256 {
                assert!(
                    seen.insert(chain.current_addr()),
                    "revisit before cycle end"
                );
                chain.step(ctx);
            }
            // Back at the start.
            assert!(seen.contains(&chain.current_addr()));
        });
    }

    #[test]
    fn different_seeds_differ() {
        engine().run(|ctx| {
            let walk = |chain: &mut Chain| -> Vec<u64> {
                (0..64)
                    .map(|_| {
                        let l = line(chain);
                        chain.advance_cursor();
                        l
                    })
                    .collect()
            };
            let mut a = Chain::build(ctx, NodeId(0), 64, 1);
            let mut b = Chain::build(ctx, NodeId(0), 64, 2);
            assert_ne!(walk(&mut a), walk(&mut b));
        });
    }

    #[test]
    fn rng_below_is_in_range() {
        let mut rng = Rng::new(9);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
