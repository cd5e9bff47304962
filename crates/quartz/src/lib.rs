//! **Quartz** — a lightweight performance emulator for persistent memory
//! software.
//!
//! This crate reproduces the emulator of Volos et al., *"Quartz: A
//! Lightweight Performance Emulator for Persistent Memory Software"*
//! (Middleware 2015), on top of the simulated commodity hardware of
//! [`quartz_platform`] / [`quartz_memsim`] and the deterministic thread
//! engine of [`quartz_threadsim`].
//!
//! Quartz emulates the two performance characteristics of future
//! byte-addressable NVM that dominate end-to-end application performance:
//!
//! * **Bandwidth** — by programming the DRAM thermal-control registers to
//!   throttle channel bandwidth (hardware feature, linear in the 12-bit
//!   register value; paper §2.1 and Fig. 8), and
//! * **Latency** — by *epoch-based delay injection*: at epoch boundaries
//!   the library reads hardware performance counters, estimates the
//!   processor stall time attributable to memory via
//!   [`model::stalls_from_counters`] (Eq. 3), converts it into the number
//!   of serialized memory accesses (capturing memory-level parallelism),
//!   and spins for `Δ = LDM_STALL / DRAM_lat × (NVM_lat − DRAM_lat)`
//!   (Eq. 2; paper §2.2).
//!
//! Epochs close when the monitor signals a thread whose epoch exceeded
//! the **maximum epoch length**, and at inter-thread communication points
//! (mutex release, condvar notify) so that delay accumulated inside a
//! critical section is injected *before* the lock is released and
//! propagates to waiters (paper §2.3, Fig. 4). A **minimum epoch length**
//! bounds the overhead of very frequent synchronization (paper §3.1).
//!
//! The [`Quartz`] runtime also implements the paper's §3.3 extension for
//! systems with *two* memory types (fast volatile DRAM + slower NVM) by
//! mapping virtual NVM onto the sibling socket's DRAM and splitting the
//! measured stall cycles between local and remote accesses with the
//! latency-weighted heuristic, and the persistence API: `pmalloc`/`pfree`
//! ([`Quartz::pmalloc`]), `pflush` (clflush + configurable write delay),
//! and the §6 `clflushopt`/`pcommit` accumulate-and-drain write model.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use quartz::{NvmTarget, Quartz, QuartzConfig};
//! use quartz_memsim::{MemSimConfig, MemorySystem};
//! use quartz_platform::{Architecture, Platform, PlatformConfig};
//! use quartz_threadsim::Engine;
//!
//! # fn main() -> Result<(), quartz::QuartzError> {
//! let platform = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
//! let mem = Arc::new(MemorySystem::new(platform, MemSimConfig::default()));
//! let engine = Engine::new(Arc::clone(&mem));
//!
//! // Emulate a 400 ns / 10 GB/s NVM.
//! let config = QuartzConfig::new(NvmTarget::new(400.0).with_bandwidth_gbps(10.0));
//! let quartz = Quartz::new(config, mem)?;
//! quartz.attach(&engine)?;
//!
//! let q = Arc::clone(&quartz);
//! let report = engine.run(move |ctx| {
//!     let buf = q.pmalloc(ctx, 1 << 16).unwrap();
//!     for i in 0..64 {
//!         ctx.load(buf.offset_by(i * 64));
//!     }
//! });
//! assert!(report.end_time.as_ns_f64() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibrate;
pub mod config;
pub mod error;
pub mod hist;
pub mod json;
pub mod model;
pub mod pmem;
pub(crate) mod registry;
pub mod runtime;
pub mod stats;

pub use config::{CounterAccess, LatencyModelKind, MemoryMode, NvmTarget, QuartzConfig};
pub use error::QuartzError;
pub use hist::LatencyHist;
pub use runtime::Quartz;
pub use stats::QuartzStats;

#[cfg(test)]
mod tests;
