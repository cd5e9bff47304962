//! Simulated atomics — the interposition seams for lock-free code.
//!
//! The paper's Quartz only propagates epoch delay across *lock*
//! hand-offs (§2.3, Fig. 4 b) and names atomics-based synchronization
//! as an open limitation (§6). This module closes the mechanical half
//! of that gap: [`SimAtomicU64`] / [`SimAtomicPtr`] route every atomic
//! operation through the deterministic scheduler, so
//!
//! * each operation is an operation boundary (timers fire, signals are
//!   delivered, the thread yields when past its lookahead deadline);
//! * observing a value written by another thread floors the observer's
//!   clock to the write's publication instant plus the hand-off cost —
//!   a successful CAS is a cross-thread edge exactly like a mutex
//!   release → acquire;
//! * every operation raises [`Hooks::on_atomic`](crate::Hooks::on_atomic)
//!   so an attached emulator can settle epoch state *before* a value is
//!   published (the `Before` phase) and account the hand-off stall it
//!   observes (the `After` phase).
//!
//! The handles are plain `Copy` ids (like [`MutexId`](crate::MutexId));
//! the cell state lives in the scheduler, mutated only under the
//! scheduler lock, which is what makes runs bit-for-bit deterministic.
//!
//! `compare_exchange_weak` supports a deterministic spurious-failure
//! model ([`Engine::set_cas_weak_spurious`](crate::Engine::set_cas_weak_spurious)):
//! whether attempt *n* of thread *t* fails spuriously is a pure hash of
//! `(seed, thread, attempt)`, so the failure stream is byte-identical
//! on any host at any worker count.

use quartz_memsim::Addr;
use quartz_platform::seed::splitmix64;
use quartz_platform::time::Duration;

use crate::ctx::ThreadCtx;
use crate::engine::{ThreadId, ATOMIC_PLAIN_NS, ATOMIC_RMW_NS, FENCE_NS};
use crate::AtomicId;

/// Which atomic operation an [`AtomicEvent`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicOp {
    /// `load` — observes, never publishes.
    Load,
    /// `store` — unconditionally publishes.
    Store,
    /// `swap` — reads and publishes.
    Swap,
    /// `fetch_add` — reads and publishes.
    FetchAdd,
    /// `compare_exchange` (strong).
    CasStrong,
    /// `compare_exchange_weak` (may fail spuriously).
    CasWeak,
    /// `sim_fence` — publishes prior stores, touches no cell.
    Fence,
}

impl AtomicOp {
    /// Whether the operation can make a write visible to other threads
    /// (and therefore gets a `Before`-phase hook, where an emulator
    /// settles epoch delay pre-publication).
    pub fn publishes(self) -> bool {
        !matches!(self, AtomicOp::Load)
    }

    /// Modeled cost of the instruction itself.
    pub(crate) fn cost(self) -> Duration {
        Duration::from_ns(match self {
            AtomicOp::Load | AtomicOp::Store => ATOMIC_PLAIN_NS,
            AtomicOp::Swap | AtomicOp::FetchAdd | AtomicOp::CasStrong | AtomicOp::CasWeak => {
                ATOMIC_RMW_NS
            }
            AtomicOp::Fence => FENCE_NS,
        })
    }

    /// Short lowercase name (diagnostics, crash-point labels).
    pub fn name(self) -> &'static str {
        match self {
            AtomicOp::Load => "load",
            AtomicOp::Store => "store",
            AtomicOp::Swap => "swap",
            AtomicOp::FetchAdd => "fetch_add",
            AtomicOp::CasStrong => "cas",
            AtomicOp::CasWeak => "cas_weak",
            AtomicOp::Fence => "fence",
        }
    }
}

/// When in an operation's lifetime an [`AtomicEvent`] fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomicPhase {
    /// Before a publishing operation touches the cell. The emulator
    /// settles its epoch here so accumulated NVM delay lands *before*
    /// the value becomes visible — the CAS analog of the delay injected
    /// before `pthread_mutex_unlock` releases the lock.
    Before,
    /// After the operation completed; the event carries the outcome and
    /// any cross-thread hand-off the operation observed.
    After,
}

/// How a compare-exchange resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CasOutcome {
    /// The event's operation is not a compare-exchange (or is the
    /// `Before` phase, where the outcome is not yet known).
    NotCas,
    /// The exchange succeeded: this thread published the new value.
    Success,
    /// The expected value did not match (a genuine race loss).
    Failure,
    /// The deterministic spurious-failure model failed a
    /// `compare_exchange_weak` whose comparison would have succeeded.
    Spurious,
}

/// One interposed atomic operation, as seen by
/// [`Hooks::on_atomic`](crate::Hooks::on_atomic).
#[derive(Clone, Copy, Debug)]
pub struct AtomicEvent {
    /// `Before` (publishing ops only) or `After` (every op).
    pub phase: AtomicPhase,
    /// The cell operated on; `None` for [`AtomicOp::Fence`].
    pub id: Option<AtomicId>,
    /// The operation.
    pub op: AtomicOp,
    /// CAS resolution (`NotCas` for everything else and in `Before`).
    pub outcome: CasOutcome,
    /// The thread whose prior write this operation observed, when that
    /// writer is another thread — the cross-thread hand-off edge.
    pub handoff_from: Option<ThreadId>,
    /// How far the hand-off floor actually advanced this thread's
    /// clock (zero when the observer was already past the publication
    /// instant).
    pub handoff_wait: Duration,
}

/// A simulated `AtomicU64`: a `Copy` handle to a scheduler-owned cell.
///
/// Create one with [`ThreadCtx::atomic_u64`] (inside a run) or
/// [`Engine::atomic_u64`](crate::Engine::atomic_u64) (before the run,
/// so the root closure and spawned threads can capture copies).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimAtomicU64 {
    pub(crate) id: AtomicId,
}

impl SimAtomicU64 {
    /// Atomic load.
    pub fn load(self, ctx: &mut ThreadCtx) -> u64 {
        ctx.atomic_access(self.id, AtomicOp::Load, 0, 0).0
    }

    /// Atomic store.
    pub fn store(self, ctx: &mut ThreadCtx, value: u64) {
        ctx.atomic_access(self.id, AtomicOp::Store, value, 0);
    }

    /// Atomic exchange; returns the previous value.
    pub fn swap(self, ctx: &mut ThreadCtx, value: u64) -> u64 {
        ctx.atomic_access(self.id, AtomicOp::Swap, value, 0).0
    }

    /// Atomic wrapping add; returns the previous value.
    pub fn fetch_add(self, ctx: &mut ThreadCtx, value: u64) -> u64 {
        ctx.atomic_access(self.id, AtomicOp::FetchAdd, value, 0).0
    }

    /// Strong compare-exchange: stores `new` if the cell holds
    /// `current`.
    ///
    /// # Errors
    ///
    /// Returns the actual value when it differs from `current`.
    pub fn compare_exchange(self, ctx: &mut ThreadCtx, current: u64, new: u64) -> Result<u64, u64> {
        let (observed, outcome) = ctx.atomic_access(self.id, AtomicOp::CasStrong, new, current);
        match outcome {
            CasOutcome::Success => Ok(observed),
            _ => Err(observed),
        }
    }

    /// Weak compare-exchange: like [`SimAtomicU64::compare_exchange`]
    /// but may also fail spuriously under the engine's deterministic
    /// spurious-failure model.
    ///
    /// # Errors
    ///
    /// Returns the actual value on a genuine mismatch, or the (equal)
    /// current value on a spurious failure.
    pub fn compare_exchange_weak(
        self,
        ctx: &mut ThreadCtx,
        current: u64,
        new: u64,
    ) -> Result<u64, u64> {
        let (observed, outcome) = ctx.atomic_access(self.id, AtomicOp::CasWeak, new, current);
        match outcome {
            CasOutcome::Success => Ok(observed),
            _ => Err(observed),
        }
    }
}

/// Sentinel encoding of a null [`SimAtomicPtr`]. Real [`Addr`] values
/// never reach it (the node field caps far below), and `Addr(0)` stays
/// usable as a genuine address.
const NULL_PTR: u64 = u64::MAX;

fn encode(ptr: Option<Addr>) -> u64 {
    match ptr {
        Some(a) => {
            debug_assert_ne!(a.0, NULL_PTR, "Addr collides with the null sentinel");
            a.0
        }
        None => NULL_PTR,
    }
}

fn decode(raw: u64) -> Option<Addr> {
    (raw != NULL_PTR).then_some(Addr(raw))
}

/// A simulated atomic pointer (`Option<Addr>`): the head/tail word of a
/// lock-free structure. Null is `None`, so `Addr(0)` remains a valid
/// target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimAtomicPtr {
    pub(crate) id: AtomicId,
}

impl SimAtomicPtr {
    /// Atomic load.
    pub fn load(self, ctx: &mut ThreadCtx) -> Option<Addr> {
        decode(ctx.atomic_access(self.id, AtomicOp::Load, 0, 0).0)
    }

    /// Atomic store.
    pub fn store(self, ctx: &mut ThreadCtx, ptr: Option<Addr>) {
        ctx.atomic_access(self.id, AtomicOp::Store, encode(ptr), 0);
    }

    /// Atomic exchange; returns the previous pointer.
    pub fn swap(self, ctx: &mut ThreadCtx, ptr: Option<Addr>) -> Option<Addr> {
        decode(ctx.atomic_access(self.id, AtomicOp::Swap, encode(ptr), 0).0)
    }

    /// Strong compare-exchange.
    ///
    /// # Errors
    ///
    /// Returns the actual pointer when it differs from `current`.
    pub fn compare_exchange(
        self,
        ctx: &mut ThreadCtx,
        current: Option<Addr>,
        new: Option<Addr>,
    ) -> Result<Option<Addr>, Option<Addr>> {
        let (observed, outcome) =
            ctx.atomic_access(self.id, AtomicOp::CasStrong, encode(new), encode(current));
        match outcome {
            CasOutcome::Success => Ok(decode(observed)),
            _ => Err(decode(observed)),
        }
    }

    /// Weak compare-exchange (see
    /// [`SimAtomicU64::compare_exchange_weak`]).
    ///
    /// # Errors
    ///
    /// Returns the actual pointer on a genuine mismatch, or the (equal)
    /// current pointer on a spurious failure.
    pub fn compare_exchange_weak(
        self,
        ctx: &mut ThreadCtx,
        current: Option<Addr>,
        new: Option<Addr>,
    ) -> Result<Option<Addr>, Option<Addr>> {
        let (observed, outcome) =
            ctx.atomic_access(self.id, AtomicOp::CasWeak, encode(new), encode(current));
        match outcome {
            CasOutcome::Success => Ok(decode(observed)),
            _ => Err(decode(observed)),
        }
    }
}

/// The deterministic spurious-failure roll for `compare_exchange_weak`
/// attempt `seq` of thread `thread` under `seed`: a pure splitmix64 of
/// the triple, so the stream is identical on any host at any `--jobs`.
pub(crate) fn spurious_roll(seed: u64, thread: usize, seq: u64, one_in: u64) -> bool {
    if one_in == 0 {
        return false;
    }
    let x = seed
        ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(x).is_multiple_of(one_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptr_encoding_round_trips_and_keeps_addr_zero() {
        assert_eq!(decode(encode(None)), None);
        assert_eq!(decode(encode(Some(Addr(0)))), Some(Addr(0)));
        assert_eq!(decode(encode(Some(Addr(12345)))), Some(Addr(12345)));
    }

    #[test]
    fn spurious_roll_is_a_pure_function() {
        let a: Vec<bool> = (0..256).map(|s| spurious_roll(7, 3, s, 8)).collect();
        let b: Vec<bool> = (0..256).map(|s| spurious_roll(7, 3, s, 8)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "one-in-8 must hit within 256 rolls");
        assert!(!a.iter().all(|&x| x));
        // Disabled model never fires.
        assert!((0..256).all(|s| !spurious_roll(7, 3, s, 0)));
    }

    #[test]
    fn op_costs_and_publish_flags() {
        assert!(!AtomicOp::Load.publishes());
        for op in [
            AtomicOp::Store,
            AtomicOp::Swap,
            AtomicOp::FetchAdd,
            AtomicOp::CasStrong,
            AtomicOp::CasWeak,
            AtomicOp::Fence,
        ] {
            assert!(op.publishes(), "{} publishes", op.name());
        }
        assert!(AtomicOp::CasStrong.cost() > AtomicOp::Load.cost());
    }
}
