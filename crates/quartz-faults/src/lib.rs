//! Deterministic, seeded fault plans for the Quartz platform seam.
//!
//! `quartz-platform` exposes a [`FaultInjector`] contract at every point
//! where real hardware misbehaves in practice — PMU reads, thermal
//! (`THRT_PWR_DIMM`) writes, the TSC, topology snapshots, the epoch
//! timer — but deliberately knows nothing about fault *scheduling*.
//! This crate is the policy half: a declarative [`FaultPlan`] describes
//! how often and how hard each seam misbehaves, [`FaultClass`] names the
//! canonical single-fault scenarios the `fault_matrix` experiment sweeps
//! (each with a declared error bound the emulator must hold under that
//! fault), and [`FaultyPlatform`] decorates a [`Platform`] with an
//! installed plan.
//!
//! Every decision is a pure function of `(seed, seam, sequence number)`
//! via [`quartz_platform::seed::splitmix64`] — no OS entropy, no wall
//! clock — so a faulted run is byte-identical across repeats and
//! `--jobs` counts: the threadsim engine runs one simulated thread at a
//! time, which makes the per-seam sequence numbers themselves
//! deterministic.
//!
//! ```
//! use quartz_faults::{FaultClass, FaultPlan};
//!
//! // The canonical counter-wrap scenario: counters parked just below
//! // 2^48 so they wrap mid-run.
//! let plan = FaultClass::CounterWrap.plan(42);
//! assert!(plan.pmu_counter_park_below.is_some());
//! // The empty plan perturbs nothing.
//! assert!(FaultPlan::none().is_empty());
//! ```
//!
//! [`FaultInjector`]: quartz_platform::FaultInjector
//! [`Platform`]: quartz_platform::Platform

mod injector;
mod plan;
mod service;

pub use injector::{install, FaultyPlatform, PlanInjector};
pub use plan::{FaultClass, FaultPlan};
pub use service::{ServiceFaultClass, ServiceFaultPlan, ServicePlanInjector};

#[cfg(test)]
mod tests;
