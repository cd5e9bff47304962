//! Conformance battery for the fault plans: the empty plan is
//! invisible, every canonical class runs the full stack without
//! panicking and within its declared drift bound, wraps are absorbed
//! end-to-end, and the storm soak exercises every seam at once.

use std::sync::Arc;

use parking_lot::Mutex;
use quartz::{NvmTarget, Quartz, QuartzConfig, QuartzStats};
use quartz_memsim::{MemSimConfig, MemorySystem};
use quartz_platform::time::Duration;
use quartz_platform::{
    Architecture, CoreId, FaultInjector, NodeId, Platform, PlatformConfig, SocketId,
};
use quartz_threadsim::Engine;
use quartz_workloads::{run_memlat, MemLatConfig};

use crate::plan::park_offset;
use crate::{install, FaultClass, FaultPlan, FaultyPlatform, PlanInjector};

// ---------------------------------------------------------------------
// Injector unit tests.
// ---------------------------------------------------------------------

/// Drains `n` timer decisions from an injector.
fn timer_stream(inj: &PlanInjector, n: usize) -> Vec<quartz_platform::TimerFault> {
    (0..n).map(|_| inj.timer_fault()).collect()
}

#[test]
fn empty_plan_decisions_match_benign_defaults() {
    let inj = PlanInjector::new(FaultPlan::none());
    for i in 0..64 {
        assert!(!inj.pmu_read_error(CoreId(i % 4), i % 4));
        assert_eq!(inj.pmu_counter_offset(CoreId(0), i), 0);
        assert_eq!(inj.tsc_skew_cycles(SocketId(i % 2)), 0);
        assert_eq!(inj.observed_num_cores(8), 8);
        assert_eq!(inj.timer_fault(), quartz_platform::TimerFault::None);
        assert_eq!(
            inj.thermal_write_fault(SocketId(0), 0, 0x800),
            quartz_platform::ThermalWriteFault::None
        );
    }
}

#[test]
fn same_seed_same_decisions_different_seed_differs() {
    let mk = |seed| PlanInjector::new(FaultClass::Storm.plan(seed));
    let a = timer_stream(&mk(7), 256);
    let b = timer_stream(&mk(7), 256);
    assert_eq!(a, b, "same seed must replay the same decision stream");
    let c = timer_stream(&mk(8), 256);
    assert_ne!(a, c, "different seeds must diverge");
    // The stream actually contains faults at these rates.
    assert!(a.iter().any(|f| *f != quartz_platform::TimerFault::None));
    assert!(a.contains(&quartz_platform::TimerFault::None));
}

#[test]
fn park_offset_places_counter_below_wrap() {
    use quartz_platform::pmu::COUNTER_MASK;
    let off = park_offset(50_000);
    assert_eq!(off & COUNTER_MASK, off);
    assert_eq!(off.wrapping_add(50_000) & COUNTER_MASK, COUNTER_MASK);
    // After `park + 1` more counts the counter has wrapped to zero.
    assert_eq!(off.wrapping_add(50_001) & COUNTER_MASK, 0);
}

#[test]
fn class_plans_enable_exactly_their_seams() {
    assert!(FaultClass::None.plan(1).is_empty());
    for class in FaultClass::ALL {
        let plan = class.plan(1);
        assert_eq!(plan.is_empty(), class == FaultClass::None, "{class:?}");
        assert!(class.error_bound_pct() >= 0.0);
        assert!(!class.name().is_empty());
    }
    // Names are unique (they key JSON rows).
    let mut names: Vec<_> = FaultClass::ALL.iter().map(|c| c.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), FaultClass::ALL.len());
}

#[test]
fn faulty_platform_installs_and_detaches() {
    let pc = PlatformConfig::new(Architecture::Haswell);
    let platform = Platform::new(pc);
    assert!(platform.fault_injector().is_none());
    let faulty = FaultyPlatform::install(platform, FaultClass::TscSkew.plan(3));
    assert!(faulty.fault_injector().is_some(), "deref reaches Platform");
    assert_eq!(faulty.injector().plan().tsc_skew_cycles, 1_000_000);
    let platform = faulty.detach();
    assert!(platform.fault_injector().is_none());
}

// ---------------------------------------------------------------------
// End-to-end: full stack under each fault class.
// ---------------------------------------------------------------------

/// A deterministic machine (perfect counters, no DRAM jitter) so that
/// baseline-vs-faulted comparisons are exact, not statistical.
fn machine(seed: u64) -> Arc<MemorySystem> {
    let pc = PlatformConfig::new(Architecture::Haswell)
        .with_fidelity_seed(seed)
        .with_perfect_counters();
    let mc = MemSimConfig::default()
        .with_seed(seed ^ 0xA5A5)
        .without_jitter();
    Arc::new(MemorySystem::new(Platform::new(pc), mc))
}

/// Runs the memlat pointer chase under emulation with an optional fault
/// plan installed, returning the virtual latency per iteration and the
/// emulator statistics.
fn run_emulated(plan: Option<FaultPlan>) -> (f64, QuartzStats) {
    let mem = machine(11);
    if let Some(p) = plan {
        install(mem.platform(), p);
    }
    let engine = Engine::new(Arc::clone(&mem));
    let qc = QuartzConfig::new(NvmTarget::new(400.0).with_bandwidth_gbps(20.0))
        .with_max_epoch(Duration::from_us(20));
    let quartz = Quartz::new(qc, Arc::clone(&mem)).expect("valid config");
    quartz.attach(&engine).expect("attach");
    let out = Arc::new(Mutex::new(0.0f64));
    let o = Arc::clone(&out);
    engine.run(move |ctx| {
        let r = run_memlat(
            ctx,
            &MemLatConfig {
                chains: 1,
                lines_per_chain: 4096,
                iterations: 20_000,
                node: NodeId(0),
                seed: 0xFA17,
            },
        );
        *o.lock() = r.latency_per_iteration_ns();
    });
    let lat = *out.lock();
    (lat, quartz.stats())
}

#[test]
fn empty_plan_is_invisible_end_to_end() {
    let (base, base_stats) = run_emulated(None);
    let (none, none_stats) = run_emulated(Some(FaultClass::None.plan(5)));
    assert_eq!(base, none, "the empty plan must not perturb the timeline");
    assert_eq!(base_stats.totals.injected, none_stats.totals.injected);
    assert_eq!(
        none_stats.degradation,
        Default::default(),
        "no degradation events without faults"
    );
}

#[test]
fn every_class_holds_its_declared_bound() {
    let (base, _) = run_emulated(None);
    assert!(base > 0.0);
    for class in FaultClass::ALL {
        let (lat, stats) = run_emulated(Some(class.plan(17)));
        let err = (lat - base).abs() / base * 100.0;
        assert!(
            err <= class.error_bound_pct() + 1e-9,
            "{}: drift {err:.3}% exceeds bound {}% (base {base}, faulted {lat})",
            class.name(),
            class.error_bound_pct()
        );
        // The targeted degradation paths actually fired.
        let d = stats.degradation;
        match class {
            FaultClass::None => assert_eq!(d, Default::default()),
            FaultClass::CounterWrap => assert!(d.counter_wraps > 0, "{d:?}"),
            FaultClass::PmuTransient => {
                assert!(d.pmu_read_faults > 0 && d.pmu_read_retries > 0, "{d:?}")
            }
            FaultClass::ThermalFlaky => assert!(d.thermal_write_faults > 0, "{d:?}"),
            // Skew is absorbed silently (same-socket deltas cancel);
            // nothing to count.
            FaultClass::TscSkew => {}
            FaultClass::TimerFlaky => {
                assert!(d.timer_drops + d.timer_deferrals > 0, "{d:?}")
            }
            FaultClass::StaleTopology => {
                assert!(
                    d.topology_stale_reads > 0 && d.topology_refreshes > 0,
                    "{d:?}"
                )
            }
            FaultClass::Storm => assert!(d.total_faults() > 0, "{d:?}"),
        }
    }
}

#[test]
fn counter_wrap_is_absorbed_exactly() {
    let (base, _) = run_emulated(None);
    let (wrapped, stats) = run_emulated(Some(FaultClass::CounterWrap.plan(23)));
    // Wrap-aware delta math: a constant park offset cancels in every
    // delta, so the timeline is *identical*, not merely close.
    assert_eq!(base, wrapped, "wrap must be invisible to the delta math");
    assert!(stats.degradation.counter_wraps > 0);
}

#[test]
fn storm_soak_never_panics_and_reports_faults() {
    // Three seeds of the everything-at-once plan.
    for seed in [1u64, 2, 3] {
        let (lat, stats) = run_emulated(Some(FaultClass::Storm.plan(seed)));
        assert!(lat.is_finite() && lat > 0.0);
        let d = stats.degradation;
        assert!(d.total_faults() > 0, "storm must trip the seams: {d:?}");
        // The stats block serializes the degradation section.
        let json = stats.to_json().render();
        assert!(json.contains("\"degradation\""), "{json}");
        assert!(json.contains("\"total_faults\""), "{json}");
    }
}
