//! The seeded injector that turns a [`FaultPlan`] into per-seam
//! decisions, and the [`FaultyPlatform`] decorator that installs it.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use quartz_platform::seed::{splitmix64, unit_f64};
use quartz_platform::thermal::THROTTLE_MAX;
use quartz_platform::{CoreId, FaultInjector, Platform, SocketId, ThermalWriteFault, TimerFault};

use crate::plan::{park_offset, FaultPlan};

/// Distinct site tags so the decision streams of different seams never
/// alias even under identical sequence numbers.
mod site {
    pub const PMU_READ: u64 = 0x01;
    pub const THERMAL: u64 = 0x02;
    pub const TIMER: u64 = 0x03;
}

/// A [`FaultInjector`] driven by a [`FaultPlan`].
///
/// Each seam keeps its own atomic sequence number; a decision is a pure
/// hash of `(plan.seed, site, sequence)`, so the stream of decisions is
/// a deterministic function of the plan and the order of consultations —
/// which the threadsim engine, running one simulated thread at a time,
/// makes deterministic in turn, independent of `--jobs` or OS scheduling.
pub struct PlanInjector {
    plan: FaultPlan,
    pmu_seq: AtomicU64,
    thermal_seq: AtomicU64,
    timer_seq: AtomicU64,
    topology_reads: AtomicU32,
}

impl PlanInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> Self {
        PlanInjector {
            plan,
            pmu_seq: AtomicU64::new(0),
            thermal_seq: AtomicU64::new(0),
            timer_seq: AtomicU64::new(0),
            topology_reads: AtomicU32::new(0),
        }
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Seeded Bernoulli draw for consultation `seq` of seam `site`.
    fn roll(&self, site: u64, seq: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.plan.seed ^ splitmix64(site) ^ splitmix64(seq.wrapping_add(1)));
        unit_f64(h) < rate
    }
}

impl FaultInjector for PlanInjector {
    fn pmu_read_error(&self, _core: CoreId, _slot: usize) -> bool {
        let seq = self.pmu_seq.fetch_add(1, Ordering::Relaxed);
        self.roll(site::PMU_READ, seq, self.plan.pmu_read_error_rate)
    }

    fn pmu_counter_offset(&self, _core: CoreId, _slot: usize) -> u64 {
        self.plan.pmu_counter_park_below.map_or(0, park_offset)
    }

    fn thermal_write_fault(
        &self,
        _socket: SocketId,
        channel: u16,
        value: u32,
    ) -> ThermalWriteFault {
        let seq = self.thermal_seq.fetch_add(1, Ordering::Relaxed);
        if self.roll(site::THERMAL, seq, self.plan.thermal_drop_rate) {
            return ThermalWriteFault::Drop;
        }
        if self.roll(
            site::THERMAL,
            seq.wrapping_add(1 << 32),
            self.plan.thermal_perturb_rate,
        ) {
            // Flip a seeded handful of low bits; hardware masks to the
            // 12-bit register width.
            let flips = (splitmix64(self.plan.seed ^ seq ^ u64::from(channel)) as u32) & 0x3F | 1;
            return ThermalWriteFault::Perturb((value ^ flips) & THROTTLE_MAX);
        }
        ThermalWriteFault::None
    }

    fn tsc_skew_cycles(&self, socket: SocketId) -> i64 {
        self.plan.tsc_skew_cycles.saturating_mul(socket.0 as i64)
    }

    fn observed_num_cores(&self, true_cores: usize) -> usize {
        if self.plan.stale_topology_reports == 0 {
            return true_cores;
        }
        let n = self.topology_reads.fetch_add(1, Ordering::Relaxed);
        if n < self.plan.stale_topology_reports {
            // An empty boot-time mask: the snapshot predates every core
            // coming online, so any core looks invalid until a refresh.
            0
        } else {
            true_cores
        }
    }

    fn timer_fault(&self) -> TimerFault {
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        if self.roll(site::TIMER, seq, self.plan.timer_drop_rate) {
            return TimerFault::Drop;
        }
        if self.roll(
            site::TIMER,
            seq.wrapping_add(1 << 32),
            self.plan.timer_late_rate,
        ) {
            return TimerFault::Late(self.plan.timer_late_extra);
        }
        TimerFault::None
    }
}

impl std::fmt::Debug for PlanInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanInjector")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// A [`Platform`] decorated with an installed fault plan.
///
/// Construction installs a fresh [`PlanInjector`] into the platform's
/// fault cell (one cell reaches every seam: PMU, thermal, TSC,
/// topology, timer); [`detach`](FaultyPlatform::detach) removes it,
/// restoring faithful behaviour. The decorator dereferences to the
/// underlying [`Platform`], so it drops into any API taking one.
pub struct FaultyPlatform {
    platform: Platform,
    injector: Arc<PlanInjector>,
}

impl FaultyPlatform {
    /// Installs `plan` on `platform`.
    pub fn install(platform: Platform, plan: FaultPlan) -> Self {
        let injector = Arc::new(PlanInjector::new(plan));
        platform.install_fault_injector(injector.clone() as Arc<dyn FaultInjector>);
        FaultyPlatform { platform, injector }
    }

    /// The decorated platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The installed injector (e.g. to inspect the plan).
    pub fn injector(&self) -> &Arc<PlanInjector> {
        &self.injector
    }

    /// Uninstalls the injector and returns the now-faithful platform.
    pub fn detach(self) -> Platform {
        self.platform.clear_fault_injector();
        self.platform
    }
}

impl std::ops::Deref for FaultyPlatform {
    type Target = Platform;

    fn deref(&self) -> &Platform {
        &self.platform
    }
}

impl std::fmt::Debug for FaultyPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyPlatform")
            .field("plan", self.injector.plan())
            .finish_non_exhaustive()
    }
}

/// Convenience: builds an injector from `plan` and installs it on
/// `platform` directly (no decorator wrapper). Returns the injector.
pub fn install(platform: &Platform, plan: FaultPlan) -> Arc<PlanInjector> {
    let injector = Arc::new(PlanInjector::new(plan));
    platform.install_fault_injector(injector.clone() as Arc<dyn FaultInjector>);
    injector
}
