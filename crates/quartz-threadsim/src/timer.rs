//! Periodic virtual-time timers — the monitor thread — and open-loop
//! event sources.
//!
//! The real Quartz monitor is an OS thread that "periodically wakes up
//! and sends POSIX signals to interrupt each application thread whose
//! current epoch time length exceeds a configurable maximum" (paper
//! §3.1). We model it as a periodic callback in virtual time, evaluated
//! lazily at the running thread's operation boundaries — which reproduces
//! the paper's observation that "wake-up events and thread epoch
//! completion times may slightly drift apart".
//!
//! The same seam also drives **open-loop event sources**
//! ([`crate::Engine::add_open_loop_source`]): callbacks that inject
//! payloads into [`SimChannel`]s via [`TimerApi::send`] and reschedule
//! themselves with variable gaps via [`TimerApi::reschedule_in`]. When
//! every simulated thread is blocked, the scheduler fires the earliest
//! source directly (instead of declaring a deadlock), so arrival
//! injection never depends on a runnable thread.

use quartz_platform::time::{Duration, SimTime};

use crate::channel::SimChannel;
use crate::engine::ThreadId;
use crate::ChannelId;

/// What a timer callback may do: inspect live threads, mark them as
/// signalled, inject channel payloads, and control its own schedule.
/// Signal flags are consumed at each target thread's next operation
/// boundary, where [`crate::Hooks::on_signal`] runs; channel injections
/// wake parked receivers immediately at the firing instant.
pub struct TimerApi<'a> {
    pub(crate) fire_time: SimTime,
    pub(crate) live: &'a [ThreadId],
    pub(crate) signalled: Vec<ThreadId>,
    pub(crate) defer: Duration,
    /// One entry per payload pushed into a channel buffer this firing.
    pub(crate) injected: Vec<ChannelId>,
    /// Overrides the gap to the next firing (else the period is used).
    pub(crate) next_gap: Option<Duration>,
    /// The callback declared itself exhausted; deregister the timer.
    pub(crate) stopped: bool,
}

impl TimerApi<'_> {
    /// The virtual instant this firing represents.
    pub fn fire_time(&self) -> SimTime {
        self.fire_time
    }

    /// Threads currently alive (running, runnable or blocked).
    pub fn live_threads(&self) -> &[ThreadId] {
        self.live
    }

    /// Sends a signal to `thread`, delivered at its next operation
    /// boundary.
    pub fn signal_thread(&mut self, thread: ThreadId) {
        self.signalled.push(thread);
    }

    /// Pushes the *next* firing of this timer late by `extra` beyond its
    /// normal period — a slipped/late timer, e.g. under injected
    /// scheduling faults. Cumulative if called more than once.
    pub fn defer_next(&mut self, extra: Duration) {
        self.defer += extra;
    }

    /// Injects `value` into `ch` at the firing instant: the payload's
    /// arrival time *is* [`TimerApi::fire_time`], and a receiver parked
    /// in [`chan_recv`](crate::ThreadCtx::chan_recv) wakes at that
    /// instant plus the hand-off cost. This is how an open-loop source
    /// delivers arrivals without any sim thread running.
    pub fn send<T: Send>(&mut self, ch: &SimChannel<T>, value: T) {
        ch.push(value);
        self.injected.push(ch.id());
    }

    /// Schedules the *next* firing `gap` after this one instead of the
    /// registered period — variable inter-arrival gaps for open-loop
    /// sources. Applies to this firing only.
    pub fn reschedule_in(&mut self, gap: Duration) {
        assert!(!gap.is_zero(), "timer gap must be non-zero");
        self.next_gap = Some(gap);
    }

    /// Deregisters this timer: it never fires again. For an open-loop
    /// source this also releases its feed on the channels named at
    /// registration, closing any channel left with no live producer.
    pub fn stop(&mut self) {
        self.stopped = true;
    }
}

/// A periodic callback run by the engine.
pub(crate) struct TimerRec {
    pub period: Duration,
    pub next_fire: SimTime,
    pub callback: Box<dyn FnMut(&mut TimerApi<'_>) + Send>,
    /// Whether the scheduler may fire this timer when no thread is
    /// runnable (open-loop event sources).
    pub wake: bool,
    /// Channels this timer feeds (indices into `SchedState::channels`),
    /// released when the callback stops itself.
    pub feeds: Vec<usize>,
}
