//! Shared harness for the reproduction experiments.
//!
//! Every experiment follows the paper's validation methodology (§4.3):
//!
//! * **Conf_1** — the workload runs on socket-0-local memory under
//!   Quartz, which emulates a slower NVM;
//! * **Conf_2** — the same workload binary runs on physically slower
//!   (remote-socket) memory with no emulator.
//!
//! [`run_workload`] wraps the engine plumbing so experiments read as
//! plain functions from configuration to measurement.
//!
//! The harness proper is layered on top (see DESIGN.md §10):
//!
//! * [`exp`] — the [`exp::Experiment`] trait and execution context;
//! * [`registry`] — the experiment inventory behind `repro --list`;
//! * [`grid`] — the deterministic parallel grid runner (`--jobs`);
//! * [`report`] / [`manifest`] — console tables, CSV, per-experiment
//!   JSON rows (written with [`quartz::json`]), and
//!   `results/manifest.json`;
//! * [`harness`] — the driver gluing the layers together;
//! * [`experiments`] — the reproduced tables/figures/studies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use parking_lot::Mutex;
use quartz::{Quartz, QuartzConfig};
use quartz_memsim::{MemSimConfig, MemorySystem};
use quartz_platform::{Architecture, Platform, PlatformConfig};
use quartz_threadsim::{Engine, ThreadCtx};

pub mod exp;
pub mod experiments;
pub mod grid;
pub mod harness;
pub mod manifest;
pub mod registry;
pub mod report;

/// How a machine should be built for an experiment.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Processor family.
    pub arch: Architecture,
    /// Per-trial seed (drives DRAM jitter and counter fidelity).
    pub seed: u64,
    /// Use perfectly accurate counters (ablations only).
    pub perfect_counters: bool,
    /// Disable DRAM latency jitter (unit-test style determinism).
    pub no_jitter: bool,
}

impl MachineSpec {
    /// A realistic machine of the given family.
    pub fn new(arch: Architecture) -> Self {
        MachineSpec {
            arch,
            seed: 1,
            perfect_counters: false,
            no_jitter: false,
        }
    }

    /// Sets the trial seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses exact counters.
    pub fn with_perfect_counters(mut self) -> Self {
        self.perfect_counters = true;
        self
    }

    /// Disables DRAM latency jitter — every access sees the band's
    /// average latency, making A/B comparisons (ablations, golden
    /// determinism tests) exact instead of statistical.
    pub fn with_no_jitter(mut self) -> Self {
        self.no_jitter = true;
        self
    }

    /// Builds the memory system.
    pub fn build(&self) -> Arc<MemorySystem> {
        let mut pc = PlatformConfig::new(self.arch).with_fidelity_seed(self.seed);
        if self.perfect_counters {
            pc = pc.with_perfect_counters();
        }
        let mut mc = MemSimConfig::default().with_seed(self.seed ^ 0xA5A5);
        if self.no_jitter {
            mc = mc.without_jitter();
        }
        Arc::new(MemorySystem::new(Platform::new(pc), mc))
    }
}

/// Builds a fresh engine over `mem`, optionally attaching a Quartz
/// instance built from `config`.
///
/// Most experiments go through [`run_workload`]; use this directly when
/// the workload needs the [`Engine`] *before* the root thread runs —
/// e.g. to install channels or open-loop event sources (the
/// `overload_matrix` experiment's KV service).
///
/// # Panics
///
/// Panics if the Quartz configuration is invalid for the machine.
pub fn build_engine(
    mem: &Arc<MemorySystem>,
    quartz_config: Option<QuartzConfig>,
) -> (Engine, Option<Arc<Quartz>>) {
    let engine = Engine::new(Arc::clone(mem));
    let quartz = quartz_config.map(|cfg| {
        let q = Quartz::new(cfg, Arc::clone(mem)).expect("valid quartz config");
        q.attach(&engine).expect("attach");
        q
    });
    (engine, quartz)
}

/// Runs `body` as the root simulated thread of a fresh engine over
/// `mem`, optionally attaching a Quartz instance built from `config`,
/// and returns the closure's result.
///
/// # Panics
///
/// Panics if the Quartz configuration is invalid for the machine or the
/// simulation fails.
pub fn run_workload<T, F>(
    mem: Arc<MemorySystem>,
    quartz_config: Option<QuartzConfig>,
    body: F,
) -> (T, Option<Arc<Quartz>>)
where
    T: Send + 'static,
    F: FnOnce(&mut ThreadCtx, Option<Arc<Quartz>>) -> T + Send + 'static,
{
    let (engine, quartz) = build_engine(&mem, quartz_config);
    let out: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    let q2 = quartz.clone();
    engine.run(move |ctx| {
        let r = body(ctx, q2);
        *o.lock() = Some(r);
    });
    let result = out.lock().take().expect("workload returned");
    (result, quartz)
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of a sample.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Relative error of `measured` against `expected`, in percent.
pub fn error_pct(measured: f64, expected: f64) -> f64 {
    if expected == 0.0 {
        return 0.0;
    }
    (measured - expected).abs() / expected * 100.0
}

/// Signed relative difference of `measured` against `expected`, percent.
pub fn signed_error_pct(measured: f64, expected: f64) -> f64 {
    if expected == 0.0 {
        return 0.0;
    }
    (measured - expected) / expected * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz::NvmTarget;
    use quartz_platform::NodeId;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(stddev(&[5.0]) == 0.0);
        assert!((stddev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(error_pct(110.0, 100.0), 10.0);
        assert_eq!(signed_error_pct(90.0, 100.0), -10.0);
        assert_eq!(error_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn no_jitter_builder_sets_flag() {
        let spec = MachineSpec::new(Architecture::Haswell).with_no_jitter();
        assert!(spec.no_jitter);
        assert!(!MachineSpec::new(Architecture::Haswell).no_jitter);
        // Builds a working machine.
        let _ = spec.build();
    }

    #[test]
    fn run_workload_returns_closure_result() {
        let mem = MachineSpec::new(Architecture::IvyBridge)
            .with_perfect_counters()
            .build();
        let (val, quartz) = run_workload(mem, None, |ctx, _| {
            let a = ctx.alloc_on(NodeId(0), 4096);
            ctx.load(a);
            42usize
        });
        assert_eq!(val, 42);
        assert!(quartz.is_none());
    }

    #[test]
    fn run_workload_attaches_quartz() {
        let mem = MachineSpec::new(Architecture::IvyBridge)
            .with_perfect_counters()
            .build();
        let cfg = QuartzConfig::new(NvmTarget::new(300.0));
        let (_, quartz) = run_workload(mem, Some(cfg), |ctx, q| {
            assert!(q.is_some());
            ctx.compute_ns(10.0);
        });
        assert!(quartz.is_some());
    }
}
