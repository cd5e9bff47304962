//! Interposition hooks — the simulation's `LD_PRELOAD`.

use crate::atomics::AtomicEvent;
use crate::ctx::ThreadCtx;
use crate::failure::SimFailure;

/// Callbacks invoked at the interposition points the real Quartz library
/// obtains by overriding weak pthread symbols (paper §3.1).
///
/// Hooks receive the full [`ThreadCtx`] of the thread at the
/// interposition point, so an implementation can read performance
/// counters, spin to inject delays, and keep per-thread state keyed by
/// [`ThreadCtx::thread_id`]. Hook invocations are not re-entrant: an
/// operation performed *inside* a hook does not trigger further hooks.
pub trait Hooks: Send + Sync {
    /// A new application thread started (interposed `pthread_create`
    /// callback: the thread registers itself with the monitor).
    fn on_thread_start(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// The thread is about to exit.
    fn on_thread_exit(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// The thread is about to acquire a mutex (interposed
    /// `pthread_mutex_lock`). Closing the epoch here injects the delay
    /// accumulated *outside* the critical section before the lock is
    /// taken, so it overlaps with other threads' critical sections
    /// instead of serializing inside the next one (paper §2.3: epochs
    /// close "when the thread enters and/or exits a critical section").
    fn before_mutex_lock(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// The thread is about to release a mutex (interposed
    /// `pthread_mutex_unlock`). Delay injected here lands *before* the
    /// release and therefore propagates to threads waiting on the lock —
    /// the correct multithreaded emulation of Fig. 4 (b).
    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// The thread is about to notify a condition variable.
    fn before_cond_notify(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// The thread is about to wait at a barrier (OpenMP-style
    /// synchronization, one of the paper's §7 extension targets). Delay
    /// injected here lands before the barrier and therefore delays the
    /// whole barrier generation — the correct propagation for
    /// bulk-synchronous code.
    fn before_barrier(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// An interposed atomic operation (the CAS/fence seams of lock-free
    /// code, closing the paper's §6 atomics gap). Publishing operations
    /// fire once with [`AtomicPhase::Before`](crate::AtomicPhase)
    /// *before* the cell is touched — the emulator settles its epoch
    /// there so accumulated delay lands before the value becomes
    /// visible, exactly as [`Hooks::before_mutex_unlock`] injects delay
    /// before the release — and every operation fires once with
    /// [`AtomicPhase::After`](crate::AtomicPhase) carrying the outcome
    /// and any cross-thread hand-off edge the operation observed.
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
        let _ = (ctx, ev);
    }

    /// The monitor signalled this thread (its epoch exceeded the maximum
    /// epoch length). Delivered at the thread's next operation boundary.
    fn on_signal(&self, ctx: &mut ThreadCtx) {
        let _ = ctx;
    }

    /// The run failed ([`Engine::try_run`](crate::Engine::try_run)
    /// returned `Err`). Invoked on the OS thread that called `try_run`,
    /// outside every simulated thread, after each suspended simulated
    /// thread has unwound and with no engine lock held — an emulator
    /// uses this to reap orphaned per-thread state so the shared runtime
    /// stays healthy for subsequent runs in the same process. When the
    /// hang watchdog detaches the helper OS thread of a body stuck in a
    /// pure-host loop, that body and the threads suspended beside it
    /// have not unwound when this fires; reapers must tolerate that
    /// (skip state they cannot safely claim).
    fn on_sim_failure(&self, failure: &SimFailure) {
        let _ = failure;
    }
}

/// A no-op hook set (running "without the emulator").
#[derive(Clone, Copy, Debug, Default)]
pub struct NoHooks;

impl Hooks for NoHooks {}

/// Fans every hook callback out to several hook sets, in order.
///
/// The engine holds exactly one `Arc<dyn Hooks>`; when two observers
/// need the interposition stream — the emulator *and* a
/// crash-consistency recorder, say — wrap them in a `FanoutHooks`.
/// Order matters and is preserved: the first set's callback runs to
/// completion (including any epoch close and delay injection it
/// performs) before the second set sees the event, so downstream
/// recorders observe the post-emulation virtual time.
pub struct FanoutHooks {
    hooks: Vec<std::sync::Arc<dyn Hooks>>,
}

impl FanoutHooks {
    /// A fan-out over `hooks`, invoked in the given order.
    pub fn new(hooks: Vec<std::sync::Arc<dyn Hooks>>) -> Self {
        FanoutHooks { hooks }
    }
}

impl Hooks for FanoutHooks {
    fn on_thread_start(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.on_thread_start(ctx);
        }
    }
    fn on_thread_exit(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.on_thread_exit(ctx);
        }
    }
    fn before_mutex_lock(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.before_mutex_lock(ctx);
        }
    }
    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.before_mutex_unlock(ctx);
        }
    }
    fn before_cond_notify(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.before_cond_notify(ctx);
        }
    }
    fn before_barrier(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.before_barrier(ctx);
        }
    }
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
        for h in &self.hooks {
            h.on_atomic(ctx, ev);
        }
    }
    fn on_signal(&self, ctx: &mut ThreadCtx) {
        for h in &self.hooks {
            h.on_signal(ctx);
        }
    }
    fn on_sim_failure(&self, failure: &SimFailure) {
        for h in &self.hooks {
            h.on_sim_failure(failure);
        }
    }
}
