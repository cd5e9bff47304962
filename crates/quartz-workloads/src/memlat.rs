//! **MemLat** — the memory-latency-bound pointer-chasing benchmark
//! (paper §4.4).
//!
//! MemLat is latency-sensitive because "the next element to be accessed
//! is determined only after the current access completes". With multiple
//! independent chains it issues that many parallel memory requests per
//! iteration, which is how the paper validates the model's handling of
//! memory-level parallelism (Fig. 11). With one chain it doubles as a
//! memory-latency measurement tool (Fig. 12; "Memory Latency Checker
//! exploits a similar idea").

use quartz_memsim::Addr;
use quartz_platform::time::Duration;
use quartz_platform::NodeId;
use quartz_threadsim::ThreadCtx;

use crate::chain::Chain;

/// MemLat parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemLatConfig {
    /// Number of independent chains (the degree of memory access
    /// parallelism; the paper sweeps 1, 2, 3, 4, 5, 8).
    pub chains: usize,
    /// Lines per chain. The total array size should be much larger than
    /// the LLC so every access misses.
    pub lines_per_chain: u64,
    /// Chase iterations (each iteration accesses the current element of
    /// *every* chain).
    pub iterations: u64,
    /// NUMA node the chains live on.
    pub node: NodeId,
    /// Shuffle seed.
    pub seed: u64,
}

impl MemLatConfig {
    /// A single-chain latency-measurement configuration sized to defeat
    /// an LLC of `l3_bytes`.
    pub fn latency_probe(node: NodeId, l3_bytes: u64, iterations: u64) -> Self {
        MemLatConfig {
            chains: 1,
            lines_per_chain: 8 * l3_bytes / 64,
            iterations,
            node,
            seed: 0x4D4C,
        }
    }
}

/// MemLat output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemLatResult {
    /// Total virtual time for the measured iterations.
    pub elapsed: Duration,
    /// Iterations executed.
    pub iterations: u64,
}

impl MemLatResult {
    /// Average latency per *iteration* in nanoseconds — with one chain
    /// this is the measured memory latency `Lat_meas` of Fig. 12; with
    /// `k` chains, perfectly overlapped requests keep this near one
    /// latency even though `k` loads are in flight.
    pub fn latency_per_iteration_ns(&self) -> f64 {
        self.elapsed.as_ns_f64() / self.iterations as f64
    }
}

/// Runs MemLat on the calling simulated thread.
///
/// # Panics
///
/// Panics if `chains` is zero or allocation fails.
pub fn run_memlat(ctx: &mut ThreadCtx, config: &MemLatConfig) -> MemLatResult {
    assert!(config.chains >= 1, "need at least one chain");
    let mut chains: Vec<Chain> = (0..config.chains)
        .map(|k| {
            Chain::build(
                ctx,
                config.node,
                config.lines_per_chain,
                config.seed.wrapping_add(k as u64 * 0x9E37),
            )
        })
        .collect();

    // Warm-up: touch each chain a little so TLB entries and the first
    // prefetch-stream allocations fall outside the measurement.
    for chain in &mut chains {
        for _ in 0..32 {
            chain.step(ctx);
        }
    }

    let t0 = ctx.now();
    let mut batch: Vec<Addr> = Vec::with_capacity(config.chains);
    if config.chains == 1 {
        let chain = &mut chains[0];
        for _ in 0..config.iterations {
            chain.step(ctx);
        }
    } else {
        for _ in 0..config.iterations {
            batch.clear();
            for chain in &chains {
                batch.push(chain.current_addr());
            }
            ctx.load_batch(&batch);
            for chain in &mut chains {
                chain.advance_cursor();
            }
        }
    }
    let elapsed = ctx.now().saturating_duration_since(t0);
    for chain in chains {
        chain.free(ctx);
    }
    MemLatResult {
        elapsed,
        iterations: config.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use quartz_memsim::{MemSimConfig, MemorySystem};
    use quartz_platform::{Architecture, Platform, PlatformConfig};
    use quartz_threadsim::Engine;

    fn engine(arch: Architecture) -> Engine {
        let platform = Platform::new(PlatformConfig::new(arch).with_perfect_counters());
        Engine::new(Arc::new(MemorySystem::new(
            platform,
            MemSimConfig::default().without_jitter(),
        )))
    }

    #[test]
    fn single_chain_measures_local_latency() {
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine(Architecture::IvyBridge).run(move |ctx| {
            let l3 = ctx.mem().config().l3.size_bytes;
            let cfg = MemLatConfig::latency_probe(NodeId(0), l3, 20_000);
            *o.lock() = run_memlat(ctx, &cfg).latency_per_iteration_ns();
        });
        let lat = *out.lock();
        assert!((lat - 87.0).abs() < 3.0, "measured local latency {lat}");
    }

    #[test]
    fn single_chain_measures_remote_latency() {
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine(Architecture::Haswell).run(move |ctx| {
            let l3 = ctx.mem().config().l3.size_bytes;
            let cfg = MemLatConfig::latency_probe(NodeId(1), l3, 20_000);
            *o.lock() = run_memlat(ctx, &cfg).latency_per_iteration_ns();
        });
        let lat = *out.lock();
        assert!((lat - 175.0).abs() < 4.0, "measured remote latency {lat}");
    }

    #[test]
    fn parallel_chains_overlap() {
        // 4 chains: 4 loads per iteration but ~1 latency of stall.
        let out = Arc::new(parking_lot::Mutex::new((0.0, 0.0)));
        let o = Arc::clone(&out);
        engine(Architecture::IvyBridge).run(move |ctx| {
            let l3 = ctx.mem().config().l3.size_bytes;
            let mut cfg = MemLatConfig::latency_probe(NodeId(0), l3, 10_000);
            let one = run_memlat(ctx, &cfg);
            cfg.chains = 4;
            cfg.lines_per_chain /= 4;
            let four = run_memlat(ctx, &cfg);
            *o.lock() = (
                one.latency_per_iteration_ns(),
                four.latency_per_iteration_ns(),
            );
        });
        let (one, four) = *out.lock();
        // An iteration with 4 parallel chains costs well under 4x a
        // single-chain iteration (MLP), though queueing adds a little.
        assert!(four < 2.0 * one, "one {one}, four {four}");
        assert!(four > 0.9 * one);
    }

    #[test]
    fn result_accounting() {
        let out = Arc::new(parking_lot::Mutex::new(None));
        let o = Arc::clone(&out);
        engine(Architecture::IvyBridge).run(move |ctx| {
            let cfg = MemLatConfig {
                chains: 2,
                lines_per_chain: 4096,
                iterations: 100,
                node: NodeId(0),
                seed: 1,
            };
            *o.lock() = Some(run_memlat(ctx, &cfg));
        });
        let r = out.lock().unwrap();
        assert_eq!(r.iterations, 100);
        assert!(r.elapsed > Duration::ZERO);
    }
}
