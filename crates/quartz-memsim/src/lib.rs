//! Deterministic memory-hierarchy simulator for the Quartz reproduction.
//!
//! This crate is the "silicon" the reproduced emulator runs on: a
//! two-socket NUMA machine with private L1/L2 caches, a shared per-socket
//! L3, MSHR-limited miss overlap (memory-level parallelism), a stride
//! prefetcher, a TLB, posted write-back stores, and per-node DRAM channels
//! whose service bandwidth obeys the thermal throttle registers of
//! [`quartz_platform`].
//!
//! Every access feeds the raw PMU events of the paper's Table 1
//! (`STALLS_L2_PENDING`, LLC hit/miss-local/miss-remote) so the emulator
//! library observes exactly what it would observe on real hardware — and
//! *only* that: the emulator never sees simulator ground truth.
//!
//! # Example
//!
//! ```
//! use quartz_platform::{Architecture, Platform, PlatformConfig};
//! use quartz_memsim::{MemSimConfig, MemorySystem};
//! use quartz_platform::time::SimTime;
//! use quartz_platform::NodeId;
//!
//! let platform = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
//! let mem = MemorySystem::new(platform, MemSimConfig::default());
//! let a = mem.alloc(NodeId(0), 4096).unwrap();
//! // First touch goes all the way to local DRAM (~87 ns on Ivy Bridge).
//! let r = mem.load(0, a, SimTime::ZERO);
//! assert!(r.stall.as_ns_f64() > 50.0);
//! // Second touch hits L1.
//! let r2 = mem.load(0, a, SimTime::ZERO + r.stall);
//! assert!(r2.stall.as_ns_f64() < 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod alloc;
pub mod cache;
pub mod config;
pub mod dram;
pub mod error;
pub mod persist;
pub mod prefetch;
pub mod stats;
pub mod system;
pub mod tlb;

pub use addr::Addr;
pub use alloc::NumaAllocator;
pub use config::{CacheGeometry, MemSimConfig, PrefetchConfig, TlbConfig};
pub use error::MemSimError;
pub use persist::{NoopObserver, PersistObserver, WritebackCause};
pub use stats::MemStats;
pub use system::{AccessResult, MemorySystem, ServiceLevel};
