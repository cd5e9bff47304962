//! Seeded fault plans for the KV *service* seam.
//!
//! The platform classes ([`FaultClass`](crate::FaultClass)) perturb the
//! emulator's own instrumentation; these classes perturb the
//! application above it — the places a real service degrades in
//! production: a persistently slow worker, a worker that wedges
//! mid-run, responses lost on the wire. They are delivered through
//! `quartz-workloads`' [`ServiceFaultInjector`] seam, so the service
//! code never learns *why* it is slow — it only sees its deadlines,
//! window, retries, and breakers doing their jobs (or not).
//!
//! Like the platform classes, every decision is a pure splitmix64
//! function of `(seed, worker, sequence number)` — byte-identical
//! across repeats and `--jobs` counts — and every class declares the
//! worst protected-goodput degradation (relative to the fault-free
//! protected cell at the same offered load) the `overload_matrix`
//! experiment is allowed to observe.

use quartz_platform::seed::{splitmix64, unit_f64};
use quartz_platform::time::Duration;
use quartz_workloads::kvstore::ServiceFaultInjector;

/// A declarative description of how the service seam misbehaves.
///
/// The default plan — also [`ServiceFaultPlan::none`] — perturbs
/// nothing and is indistinguishable from `NoServiceFaults`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceFaultPlan {
    /// Seed for every probabilistic decision in this plan.
    pub seed: u64,
    /// One worker runs slow for the whole run…
    pub slow_worker: Option<usize>,
    /// …charged this much extra virtual time per request.
    pub slow_extra: Duration,
    /// One worker wedges once…
    pub stuck_worker: Option<usize>,
    /// …just before its `stuck_at_seq`-th processed request…
    pub stuck_at_seq: u64,
    /// …for this long, during which its fan-in queue backs up.
    pub stuck_for: Duration,
    /// Probability that any worker's response is lost after execution
    /// (the retry trigger).
    pub drop_response_rate: f64,
}

impl ServiceFaultPlan {
    /// The empty plan: installs cleanly, perturbs nothing.
    pub fn none() -> Self {
        ServiceFaultPlan {
            seed: 0,
            slow_worker: None,
            slow_extra: Duration::ZERO,
            stuck_worker: None,
            stuck_at_seq: 0,
            stuck_for: Duration::ZERO,
            drop_response_rate: 0.0,
        }
    }

    /// Whether this plan can perturb anything at all.
    pub fn is_empty(&self) -> bool {
        (self.slow_worker.is_none() || self.slow_extra.is_zero())
            && (self.stuck_worker.is_none() || self.stuck_for.is_zero())
            && self.drop_response_rate <= 0.0
    }

    /// Sets the decision seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ServiceFaultPlan {
    fn default() -> Self {
        ServiceFaultPlan::none()
    }
}

/// The canonical single-fault service scenarios the `overload_matrix`
/// experiment sweeps, mirroring the platform-side
/// [`FaultClass`](crate::FaultClass) taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServiceFaultClass {
    /// No fault — the matrix control.
    None,
    /// Worker 0 is persistently slow: every request it processes is
    /// charged ~4x the nominal service time. The protected service
    /// must route around it via its breaker; the unprotected one
    /// queues behind it.
    SlowWorker,
    /// Worker 0 wedges once mid-run and stops draining its fan-in
    /// queue while its backlog grows, then resumes.
    StuckWorker,
    /// Two percent of responses are lost after execution, triggering
    /// seeded-backoff retries (or failures once the budget runs out).
    DroppedResponse,
}

impl ServiceFaultClass {
    /// Every class, control first — iteration order of the matrix.
    pub const ALL: [ServiceFaultClass; 4] = [
        ServiceFaultClass::None,
        ServiceFaultClass::SlowWorker,
        ServiceFaultClass::StuckWorker,
        ServiceFaultClass::DroppedResponse,
    ];

    /// Stable snake_case name used in reports and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ServiceFaultClass::None => "none",
            ServiceFaultClass::SlowWorker => "slow_worker",
            ServiceFaultClass::StuckWorker => "stuck_worker",
            ServiceFaultClass::DroppedResponse => "dropped_response",
        }
    }

    /// Declared worst-case *protected-goodput* degradation under this
    /// fault, in percent relative to the fault-free protected cell at
    /// the same offered load. The `overload_matrix` experiment asserts
    /// these bounds hold; the generous stuck/slow budgets reflect that
    /// losing 1-of-M workers for part of the run legitimately costs up
    /// to ~1/M of capacity plus breaker collateral.
    pub fn goodput_bound_pct(self) -> f64 {
        match self {
            ServiceFaultClass::None => 0.5,
            ServiceFaultClass::SlowWorker => 60.0,
            ServiceFaultClass::StuckWorker => 60.0,
            ServiceFaultClass::DroppedResponse => 30.0,
        }
    }

    /// The canonical plan for this class.
    pub fn plan(self, seed: u64) -> ServiceFaultPlan {
        let base = ServiceFaultPlan::none().with_seed(seed);
        match self {
            ServiceFaultClass::None => base,
            ServiceFaultClass::SlowWorker => ServiceFaultPlan {
                slow_worker: Some(0),
                slow_extra: Duration::from_us(3),
                ..base
            },
            ServiceFaultClass::StuckWorker => ServiceFaultPlan {
                stuck_worker: Some(0),
                stuck_at_seq: 100,
                stuck_for: Duration::from_ms(1),
                ..base
            },
            ServiceFaultClass::DroppedResponse => ServiceFaultPlan {
                drop_response_rate: 0.02,
                ..base
            },
        }
    }
}

/// Site tag for response-drop decisions (disjoint from the platform
/// injector's site space by construction — different injector,
/// different seed stream).
const SITE_DROP: u64 = 0x51;

/// Executes a [`ServiceFaultPlan`] at the service seam.
///
/// Stateless: every answer is a pure function of
/// `(plan.seed, worker, seq)`, so the injector can be shared across
/// workers without any synchronization and replays identically.
pub struct ServicePlanInjector {
    plan: ServiceFaultPlan,
}

impl ServicePlanInjector {
    /// Wraps a plan for installation via
    /// `KvService::try_install_with_faults`.
    pub fn new(plan: ServiceFaultPlan) -> Self {
        ServicePlanInjector { plan }
    }

    /// The installed plan.
    pub fn plan(&self) -> &ServiceFaultPlan {
        &self.plan
    }

    fn roll(&self, site: u64, worker: usize, seq: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let mix = self.plan.seed
            ^ splitmix64(site)
            ^ splitmix64((worker as u64) << 32 | 0xA5A5)
            ^ splitmix64(seq.wrapping_add(1));
        unit_f64(splitmix64(mix)) < rate
    }
}

impl ServiceFaultInjector for ServicePlanInjector {
    fn worker_delay(&self, worker: usize, _seq: u64) -> Duration {
        if self.plan.slow_worker == Some(worker) {
            self.plan.slow_extra
        } else {
            Duration::ZERO
        }
    }

    fn worker_stall(&self, worker: usize, seq: u64) -> Duration {
        if self.plan.stuck_worker == Some(worker) && seq == self.plan.stuck_at_seq {
            self.plan.stuck_for
        } else {
            Duration::ZERO
        }
    }

    fn drop_response(&self, worker: usize, seq: u64) -> bool {
        self.roll(SITE_DROP, worker, seq, self.plan.drop_response_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_perturbs_nothing() {
        let inj = ServicePlanInjector::new(ServiceFaultPlan::none());
        assert!(ServiceFaultPlan::none().is_empty());
        for w in 0..4 {
            for s in 0..256 {
                assert!(inj.worker_delay(w, s).is_zero());
                assert!(inj.worker_stall(w, s).is_zero());
                assert!(!inj.drop_response(w, s));
            }
        }
    }

    #[test]
    fn canonical_plans_match_their_class() {
        assert!(ServiceFaultClass::None.plan(7).is_empty());
        let slow = ServiceFaultClass::SlowWorker.plan(7);
        assert_eq!(slow.slow_worker, Some(0));
        assert!(!slow.slow_extra.is_zero());
        assert!(!slow.is_empty());
        let stuck = ServiceFaultClass::StuckWorker.plan(7);
        assert_eq!(stuck.stuck_worker, Some(0));
        assert!(!stuck.stuck_for.is_zero());
        let drop = ServiceFaultClass::DroppedResponse.plan(7);
        assert!(drop.drop_response_rate > 0.0);
        // Control first, every class present exactly once.
        assert_eq!(ServiceFaultClass::ALL[0], ServiceFaultClass::None);
        let mut names: Vec<_> = ServiceFaultClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ServiceFaultClass::ALL.len());
    }

    #[test]
    fn drop_decisions_are_seeded_and_deterministic() {
        let a = ServicePlanInjector::new(ServiceFaultClass::DroppedResponse.plan(21));
        let b = ServicePlanInjector::new(ServiceFaultClass::DroppedResponse.plan(21));
        let c = ServicePlanInjector::new(ServiceFaultClass::DroppedResponse.plan(22));
        let stream = |inj: &ServicePlanInjector| -> Vec<bool> {
            (0..4096).map(|s| inj.drop_response(1, s)).collect()
        };
        assert_eq!(stream(&a), stream(&b), "same seed, same stream");
        assert_ne!(stream(&a), stream(&c), "different seed, different stream");
        let hits = stream(&a).iter().filter(|&&d| d).count() as f64 / 4096.0;
        // 2% nominal; allow generous sampling noise on 4096 trials.
        assert!((0.005..0.05).contains(&hits), "drop rate {hits}");
    }

    #[test]
    fn every_class_declares_a_bound() {
        for c in ServiceFaultClass::ALL {
            assert!(c.goodput_bound_pct() >= 0.0);
            assert!(c.goodput_bound_pct() <= 100.0);
        }
        assert!(ServiceFaultClass::None.goodput_bound_pct() < 1.0);
    }
}
