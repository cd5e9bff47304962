//! Pointer-chain construction shared by the latency benchmarks.
//!
//! "The benchmark creates a pointer chain as an array of 64-bit integer
//! elements. The contents of each element dictate which one is read next;
//! and each element is read exactly once." (§4.4) We build a random
//! cyclic permutation with Sattolo's algorithm so a traversal of `n`
//! steps visits every element exactly once, with one element per cache
//! line so every step is a fresh line.

use quartz_memsim::Addr;
use quartz_threadsim::ThreadCtx;

/// The seeded stream chains are shuffled with.
pub use quartz_platform::seed::Rng;

/// A pointer chain over simulated memory: a random cyclic permutation of
/// `len` cache lines.
#[derive(Clone, Debug)]
pub struct Chain {
    base: Addr,
    next: Vec<u32>,
    cursor: u32,
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
        // Sattolo's algorithm: a uniform random cyclic permutation.
        let mut perm: Vec<u32> = (0..len as u32).collect();
        let mut rng = Rng::new(seed);
        let mut i = len as usize - 1;
        while i > 0 {
            let j = rng.below(i as u64) as usize;
            perm.swap(i, j);
            i -= 1;
        }
        // next[perm[k]] = perm[k+1] turns the permutation order into
        // chase order.
        let mut next = vec![0u32; len as usize];
        for k in 0..len as usize {
            let from = perm[k] as usize;
            let to = perm[(k + 1) % len as usize];
            next[from] = to;
        }
        Chain {
            base,
            next,
            cursor: perm[0],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.next.len() as u64
    }

    /// Chains are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The address of the element the cursor currently points at.
    pub fn current_addr(&self) -> Addr {
        self.base.offset_by(self.cursor as u64 * 64)
    }

    /// Performs one dependent chase step through simulated memory.
    pub fn step(&mut self, ctx: &mut ThreadCtx) {
        ctx.load(self.current_addr());
        self.cursor = self.next[self.cursor as usize];
    }

    /// Advances the cursor without touching simulated memory (used by
    /// batched multi-chain stepping, where the load was already issued).
    pub fn advance_cursor(&mut self) {
        self.cursor = self.next[self.cursor as usize];
    }

    /// Releases the backing allocation.
    pub fn free(self, ctx: &mut ThreadCtx) {
        ctx.free(self.base).expect("chain allocation");
    }

    /// Verifies the chain is a single cycle covering every element
    /// (test/diagnostic helper).
    pub fn is_full_cycle(&self) -> bool {
        let n = self.next.len();
        let mut seen = vec![false; n];
        let mut cur = self.cursor as usize;
        for _ in 0..n {
            if seen[cur] {
                return false;
            }
            seen[cur] = true;
            cur = self.next[cur] as usize;
        }
        cur == self.cursor as usize && seen.iter().all(|&b| b)
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
            let a = Chain::build(ctx, NodeId(0), 64, 1);
            let b = Chain::build(ctx, NodeId(0), 64, 2);
            assert_ne!(a.next, b.next);
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
