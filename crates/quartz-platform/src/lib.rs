//! Simulated commodity-hardware platform for the Quartz reproduction.
//!
//! This crate models the *architectural interface* that the original Quartz
//! emulator programmed on real Intel Xeon machines:
//!
//! * the processor families it supported ([`Architecture`]: Sandy Bridge,
//!   Ivy Bridge, Haswell) with their nominal frequencies and the measured
//!   local/remote DRAM latencies of the paper's Table 2,
//! * the hardware performance-monitoring unit ([`pmu`]) with the exact
//!   per-family event set of the paper's Table 1, including the fact that
//!   Sandy Bridge lacks the local/remote LLC-miss split,
//! * the PCI configuration space and the `THRT_PWR_DIMM_[0:2]` thermal
//!   control registers used for DRAM bandwidth throttling ([`pci`],
//!   [`thermal`]),
//! * a [`kmod::KernelModule`] that gates privileged operations (programming
//!   counters, enabling user-mode `rdpmc`, writing thermal registers), and
//! * virtual time ([`time`]), the timestamp counter ([`tsc`]) and a DVFS
//!   model ([`dvfs`]).
//!
//! Everything here is deterministic. The memory-system simulator
//! (`quartz-memsim`) *feeds* raw PMU event counts into [`PmuState`]; the
//! emulator (`quartz`) *reads* them back through counter banks exactly the
//! way the real library read them with `rdpmc` — including per-family
//! counter fidelity skew (the paper notes Sandy Bridge counters are "less
//! reliable", which is the dominant source of its larger emulation errors).
//!
//! # Example
//!
//! ```
//! use quartz_platform::{Architecture, Platform, PlatformConfig};
//! use quartz_platform::pmu::RawEvent;
//!
//! let platform = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
//! // The memory simulator would bump raw events; here we do it by hand.
//! platform.pmu().add(0, RawEvent::L3HitLoads, 10);
//! let kmod = platform.kernel_module();
//! let counters = kmod.program_standard_counters(0);
//! assert!(counters.l3_hit.is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod dvfs;
pub mod error;
pub mod faults;
pub mod kmod;
pub mod pci;
pub mod pmu;
pub mod seed;
pub mod thermal;
pub mod time;
pub mod topology;
pub mod tsc;

mod platform;

pub use arch::{ArchParams, Architecture};
pub use error::PlatformError;
pub use faults::{FaultCell, FaultInjector, ThermalWriteFault, TimerFault};
pub use platform::{OpCosts, Platform, PlatformConfig};
pub use pmu::PmuState;
pub use time::{Duration, SimTime};
pub use topology::{CoreId, NodeId, SocketId, Topology};
