//! Deterministic discrete-event thread simulation for the Quartz
//! reproduction.
//!
//! Workloads are ordinary Rust closures that receive a [`ThreadCtx`] and
//! issue memory operations, compute, and synchronization through it. Each
//! simulated thread runs as a stackful coroutine on the OS thread that
//! calls [`Engine::try_run`], and **exactly one runs at a time**: at every
//! operation boundary the scheduler hands control to the runnable thread
//! with the smallest virtual clock (with a configurable lookahead quantum
//! to amortize hand-offs), so every run is bit-for-bit deterministic
//! regardless of host scheduling. A hand-off is a user-space switch to the
//! scheduler loop and on to the next thread's stack; the switch lives in
//! the crate's only unsafe module, `coro` (DESIGN.md §19).
//!
//! The engine provides the interposition points the real Quartz obtains
//! with `LD_PRELOAD` (paper §3.1):
//!
//! * [`Hooks::on_thread_start`] — `pthread_create` interposition
//!   (thread registration with the monitor),
//! * [`Hooks::before_mutex_unlock`] — `pthread_mutex_unlock`
//!   interposition (epoch close + delay injection *before* the lock is
//!   released, so the delay propagates to waiters, Fig. 4 (b)),
//! * [`Hooks::on_signal`] — the POSIX signal the monitor thread sends
//!   when a thread's epoch exceeds the maximum epoch length,
//! * periodic [`Engine::add_timer`] callbacks — the monitor thread
//!   itself, including its wake-up drift relative to epoch boundaries.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use quartz_platform::{Architecture, Platform, PlatformConfig};
//! use quartz_memsim::{MemSimConfig, MemorySystem};
//! use quartz_threadsim::Engine;
//!
//! let platform = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
//! let mem = Arc::new(MemorySystem::new(platform, MemSimConfig::default()));
//! let engine = Engine::new(mem);
//! let report = engine.run(|ctx| {
//!     let a = ctx.alloc_local(4096);
//!     ctx.load(a);
//!     ctx.compute_ns(100.0);
//! });
//! assert!(report.end_time.as_ns_f64() > 100.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod atomics;
pub mod channel;
#[allow(unsafe_code)]
mod coro;
pub mod ctx;
pub mod engine;
pub mod failure;
pub mod hooks;
pub mod timer;

pub use atomics::{AtomicEvent, AtomicOp, AtomicPhase, CasOutcome, SimAtomicPtr, SimAtomicU64};
pub use channel::{RecvTimeoutError, SendTimeoutError, SimChannel, TryRecvError, TrySendError};
pub use ctx::ThreadCtx;
pub use engine::{Engine, RunReport, ThreadId};
pub use failure::{
    CycleEdge, DeadlockReport, EdgeVia, SimFailure, ThreadState, WaitTarget, WaitingThread,
};
pub use hooks::{FanoutHooks, Hooks, NoHooks};
pub use timer::TimerApi;

/// Identifies a simulated atomic cell (the backing id of
/// [`SimAtomicU64`] / [`SimAtomicPtr`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomicId(pub(crate) usize);

/// Identifies a simulated mutex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MutexId(pub(crate) usize);

/// Identifies a simulated condition variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(pub(crate) usize);

/// Identifies a simulated barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BarrierId(pub(crate) usize);

/// Identifies a simulated MPSC channel (the `chN` label in deadlock
/// diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) usize);

#[cfg(test)]
mod tests;
