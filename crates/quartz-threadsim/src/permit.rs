//! The run permit: how the scheduler token passes between host threads.
//!
//! Every simulated thread runs on its own OS thread and waits on its
//! [`Permit`] while another thread holds the token. A hand-off is a
//! [`Permit::grant`] under the scheduler lock followed by the granter
//! waiting on its own permit. A parked waiter costs each hand-off a
//! futex wake-up (≈8 µs of host latency on `kv_service`, against
//! under 1 µs for a spinning one; DESIGN.md §19), so a waiter first
//! spins on the grant flag for a bounded budget, then parks.
//!
//! Spinning only pays while it has a CPU to itself. A waiter may spin
//! only while the process has a CPU that no running engine and no other
//! spinner is using: `available_parallelism()` minus the engines inside
//! [`Engine::try_run`](crate::Engine::try_run) minus the current
//! spinners. Parallel harness workers, parallel tests and one-CPU hosts
//! therefore fall back to plain parking instead of stealing the CPU the
//! token holder needs. Scheduling decisions never depend on how a
//! waiter waits, so outputs are identical either way.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Longest a waiter spins before parking. Above the gap between most
/// `kv_service` hand-offs (≈20 µs), and short enough that a waiter with
/// a long wait (a root thread in `join`) gives its CPU back quickly.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Spins between `sched_yield`s (and budget checks). A yield lets an
/// oversubscribed host run the token holder on the spinner's CPU.
const SPINS_PER_YIELD: u32 = 256;

/// Polls of a full spinner count before a waiter gives up and parks:
/// enough for a just-granted spinner to free its slot.
const SLOT_POLLS: u32 = 64;

/// Engines currently inside `try_run`: each keeps one CPU busy with the
/// thread that holds its token.
static RUNNING_ENGINES: AtomicUsize = AtomicUsize::new(0);

/// Waiters currently spinning, process-wide.
static SPINNERS: AtomicUsize = AtomicUsize::new(0);

fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// One simulated thread's run permit: a grant flag plus the waiting OS
/// thread to unpark.
pub(crate) struct Permit {
    granted: AtomicBool,
    waiter: OnceLock<Thread>,
}

impl Permit {
    pub(crate) fn new() -> Self {
        Permit {
            granted: AtomicBool::new(false),
            waiter: OnceLock::new(),
        }
    }

    /// Names the OS thread that waits on this permit. Set once, by the
    /// spawner, before the scheduler lock that guards every grant is
    /// released.
    pub(crate) fn set_waiter(&self, thread: Thread) {
        self.waiter
            .set(thread)
            .expect("a permit's waiter is registered once, at spawn");
    }

    /// Hands the token to the waiter. Grants collapse: a second grant
    /// before the wait returns is a no-op, which only the shutdown path
    /// (abort, then `try_run`'s final sweep) does.
    pub(crate) fn grant(&self) {
        // Release pairs with the Acquire in `take`: everything the
        // granter wrote happens-before the waiter's resume.
        self.granted.store(true, Ordering::Release);
        self.waiter
            .get()
            .expect("waiter registered at spawn, under the scheduler lock")
            .unpark();
    }

    fn take(&self) -> bool {
        self.granted.swap(false, Ordering::Acquire)
    }

    /// Blocks the calling (waiter) thread until the permit is granted:
    /// spins while a spare CPU exists and the budget lasts, then parks.
    pub(crate) fn wait(&self) {
        if let Some(_slot) = SpinSlot::acquire() {
            let start = Instant::now();
            let mut spins = 0u32;
            loop {
                if self.granted.load(Ordering::Relaxed) && self.take() {
                    return;
                }
                spins += 1;
                if spins.is_multiple_of(SPINS_PER_YIELD) {
                    if start.elapsed() >= SPIN_BUDGET {
                        break;
                    }
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        // `park` may return spuriously or on a stale unpark token left
        // by a grant the spin loop consumed; the flag decides.
        while !self.take() {
            std::thread::park();
        }
    }
}

/// A claim on one spare CPU for spinning, released on drop.
struct SpinSlot;

impl SpinSlot {
    fn acquire() -> Option<SpinSlot> {
        let cpus = host_cpus();
        let mut polls = 0u32;
        // Relaxed throughout: the counters gate an optimisation and
        // publish no other data.
        loop {
            let busy = RUNNING_ENGINES.load(Ordering::Relaxed);
            let spinners = SPINNERS.load(Ordering::Relaxed);
            if busy >= cpus {
                return None;
            }
            if busy + spinners < cpus {
                if SPINNERS
                    .compare_exchange_weak(
                        spinners,
                        spinners + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return Some(SpinSlot);
                }
                continue;
            }
            // The spare CPUs are all claimed, usually by the waiter we
            // just granted, which frees its slot within a few hundred
            // nanoseconds. Without this wait the two threads of a
            // ping-pong alternate between spinning and parking.
            polls += 1;
            if polls > SLOT_POLLS {
                return None;
            }
            std::hint::spin_loop();
        }
    }
}

impl Drop for SpinSlot {
    fn drop(&mut self) {
        SPINNERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Counts one engine inside `try_run` for as long as it lives.
pub(crate) struct RunningEngine;

impl RunningEngine {
    pub(crate) fn enter() -> Self {
        RUNNING_ENGINES.fetch_add(1, Ordering::Relaxed);
        RunningEngine
    }
}

impl Drop for RunningEngine {
    fn drop(&mut self) {
        RUNNING_ENGINES.fetch_sub(1, Ordering::Relaxed);
    }
}
