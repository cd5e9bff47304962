//! One module per reproduced table/figure. See DESIGN.md for the
//! experiment index and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Every module exposes a unit struct implementing
//! [`crate::exp::Experiment`]; the inventory lives in
//! [`crate::registry`]. Experiments declare their `arch × config ×
//! trial` sweeps as [`Pt`] grid points — the shared MemLat
//! configurations below are the grid-point factories most validation
//! experiments build on.

pub mod ablations;
pub mod asymmetry;
pub mod crash;
pub mod extensions;
pub mod failure_modes;
pub mod faults;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig8;
pub mod lockfree_sweep;
pub mod overhead;
pub mod overload;
pub mod pagerank_validation;
pub mod table1;
pub mod table2;

use std::sync::Arc;

use quartz::{NvmTarget, QuartzConfig, QuartzStats};
use quartz_memsim::MemorySystem;
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, NodeId};
use quartz_workloads::{run_memlat, MemLatConfig, MemLatResult};

use crate::grid::Pt;
use crate::{run_workload, MachineSpec};

/// MemLat sized for the scaled-down LLC: total footprint 8x the L3.
pub fn memlat_config(
    mem: &MemorySystem,
    chains: usize,
    iterations: u64,
    node: NodeId,
    seed: u64,
) -> MemLatConfig {
    let l3 = mem.config().l3.size_bytes;
    MemLatConfig {
        chains,
        lines_per_chain: (8 * l3 / 64) / chains as u64,
        iterations,
        node,
        seed,
    }
}

/// One MemLat run, fully specified: the payload carried by the MemLat
/// grid points. Build one with [`conf1_memlat`] / [`conf2_memlat`] and
/// evaluate it with [`MemLatSpec::eval`] inside a grid closure.
#[derive(Clone, Debug)]
pub struct MemLatSpec {
    /// Processor family.
    pub arch: Architecture,
    /// Concurrency degree (independent pointer chains).
    pub chains: usize,
    /// Chase iterations.
    pub iterations: u64,
    /// Node the chains live on.
    pub node: NodeId,
    /// Machine seed (DRAM jitter, counter fidelity).
    pub machine_seed: u64,
    /// Workload seed (chain permutation).
    pub workload_seed: u64,
    /// Quartz configuration; `None` runs without the emulator.
    pub quartz: Option<QuartzConfig>,
    /// Disable DRAM jitter (exact A/B ablations).
    pub no_jitter: bool,
}

impl MemLatSpec {
    /// Runs the spec and returns the MemLat measurement.
    pub fn eval(&self) -> MemLatResult {
        self.eval_with_stats().0
    }

    /// Runs the spec and additionally returns the emulator statistics
    /// when Quartz was attached.
    pub fn eval_with_stats(&self) -> (MemLatResult, Option<QuartzStats>) {
        let mut spec = MachineSpec::new(self.arch).with_seed(self.machine_seed);
        if self.no_jitter {
            spec = spec.with_no_jitter();
        }
        let mem = spec.build();
        let m2 = Arc::clone(&mem);
        let (chains, iterations, node, wseed) =
            (self.chains, self.iterations, self.node, self.workload_seed);
        let (r, q) = run_workload(mem, self.quartz.clone(), move |ctx, _| {
            let cfg = memlat_config(&m2, chains, iterations, node, wseed);
            run_memlat(ctx, &cfg)
        });
        (r, q.map(|q| q.stats()))
    }
}

/// Grid-point factory for Conf_2: MemLat on physically remote DRAM, no
/// emulator.
pub fn conf2_memlat(
    arch: Architecture,
    chains: usize,
    iterations: u64,
    seed: u64,
) -> Pt<MemLatSpec> {
    Pt::new(
        format!("conf2/{arch}/c{chains}/s{seed}"),
        seed,
        MemLatSpec {
            arch,
            chains,
            iterations,
            node: NodeId(1),
            machine_seed: seed,
            workload_seed: seed,
            quartz: None,
            no_jitter: false,
        },
    )
}

/// Grid-point factory for Conf_1: MemLat on local DRAM under Quartz
/// emulating `target_ns`.
pub fn conf1_memlat(
    arch: Architecture,
    chains: usize,
    iterations: u64,
    seed: u64,
    target_ns: f64,
    max_epoch: Duration,
) -> Pt<MemLatSpec> {
    Pt::new(
        format!("conf1/{arch}/c{chains}/t{target_ns:.0}/s{seed}"),
        seed,
        MemLatSpec {
            arch,
            chains,
            iterations,
            node: NodeId(0),
            machine_seed: seed,
            workload_seed: seed,
            quartz: Some(QuartzConfig::new(NvmTarget::new(target_ns)).with_max_epoch(max_epoch)),
            no_jitter: false,
        },
    )
}

/// The standard epoch used across the validation experiments (the paper
/// settles on 10 ms on real hardware; our runs are orders of magnitude
/// shorter in virtual time, so the epoch scales down with them while
/// keeping epochs ≪ run length — the final epoch's delay lands after a
/// workload stops its internal timer, so accuracy requires many epochs
/// per measured window).
pub fn validation_epoch() -> Duration {
    Duration::from_us(20)
}

/// A Quartz handle for PM-only emulation of remote-DRAM latency — the
/// Conf_1 arrangement used by most validation experiments.
pub fn emulate_remote_config(arch: Architecture) -> QuartzConfig {
    let remote = arch.params().remote_dram_ns.avg_ns as f64;
    QuartzConfig::new(NvmTarget::new(remote)).with_max_epoch(validation_epoch())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memlat_factories_fill_labels_and_seeds() {
        let p = conf2_memlat(Architecture::IvyBridge, 2, 100, 9);
        assert_eq!(p.seed, 9);
        assert!(p.label.starts_with("conf2/"));
        assert!(p.data.quartz.is_none());
        assert_eq!(p.data.node, NodeId(1));

        let p = conf1_memlat(
            Architecture::IvyBridge,
            1,
            100,
            3,
            400.0,
            validation_epoch(),
        );
        assert!(p.label.contains("t400"));
        assert!(p.data.quartz.is_some());
        assert_eq!(p.data.node, NodeId(0));
    }

    #[test]
    fn memlat_spec_eval_is_seed_deterministic() {
        let p = conf2_memlat(Architecture::IvyBridge, 1, 500, 5);
        let a = p.data.eval();
        let b = p.data.eval();
        assert_eq!(a.latency_per_iteration_ns(), b.latency_per_iteration_ns());
    }
}
