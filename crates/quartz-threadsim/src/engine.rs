//! The discrete-event scheduler.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use quartz_memsim::MemorySystem;
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::Platform;

use crate::channel::SimChannel;
use crate::coro::Coroutine;
use crate::ctx::ThreadCtx;
use crate::failure::{deadlock_report, SimFailure};
use crate::hooks::{Hooks, NoHooks};
use crate::timer::{TimerApi, TimerRec};
use crate::{ChannelId, CondId, MutexId};

/// Identifies a simulated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub usize);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Extra time a mutex/join hand-off costs the woken thread.
pub(crate) const HANDOFF_NS: u64 = 50;

/// Cost of an uncontended lock/unlock operation.
pub(crate) const LOCK_OP_NS: u64 = 18;

/// Cost of a lock-prefixed read-modify-write (CAS, swap, fetch_add).
pub(crate) const ATOMIC_RMW_NS: u64 = 18;

/// Cost of a plain atomic load/store.
pub(crate) const ATOMIC_PLAIN_NS: u64 = 4;

/// Cost of a full fence (`sim_fence`).
pub(crate) const FENCE_NS: u64 = 10;

/// Default consecutive-CAS-failure streak that classifies a run as a
/// [`SimFailure::Livelock`]. High enough that any legitimate retry loop
/// (every failure means *another* thread modified the cell, which costs
/// that thread virtual time) finishes first.
pub(crate) const DEFAULT_LIVELOCK_THRESHOLD: u64 = 1_000_000;

/// Cost `pthread_create` charges the parent.
pub(crate) const SPAWN_NS: u64 = 2_000;

/// Sentinel "never fires again" instant for stopped timers. Far enough
/// in the future that no virtual clock reaches it, yet small enough
/// that adding a period to it cannot overflow.
pub(crate) const TIMER_NEVER: SimTime = SimTime::from_ps(u64::MAX / 4);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Blocked,
    Finished,
}

/// An in-progress timed channel wait (`chan_recv_timeout` /
/// `chan_send_timeout`): the parked thread self-wakes at `deadline`
/// unless a send/recv/close releases it first. The scheduler treats the
/// deadline as a pending virtual-time event, so a run where every
/// thread sits in a timed wait is *progress*, never a deadlock or hang.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimedWait {
    /// Virtual instant the wait gives up.
    pub deadline: SimTime,
    /// The channel the thread is parked on (receiver or blocked-sender
    /// queue), so expiry can unlink it.
    pub channel: usize,
    /// Set when the wake *was* the deadline: the parked operation
    /// observes this and returns its typed Timeout.
    pub expired: bool,
}

/// A simulated thread's body, boxed until its first run.
pub(crate) type Body = Box<dyn FnOnce(&mut ThreadCtx) + Send>;

pub(crate) struct ThreadRec {
    pub clock: SimTime,
    pub status: Status,
    /// The core the thread is bound to.
    pub core: usize,
    /// The body, until the thread first holds the token.
    pub body: Option<Body>,
    pub pending_signal: Arc<AtomicBool>,
    pub joiners: Vec<usize>,
    pub finish_time: SimTime,
    /// Deadline of an in-progress timed channel wait, `None` otherwise.
    pub timed_wait: Option<TimedWait>,
    /// Consecutive failed (genuine or spurious) compare-exchanges with
    /// no successful atomic modification in between — the livelock
    /// detector's per-thread progress meter. Reset by any successful
    /// store/swap/fetch_add/CAS; deliberately *not* reset by loads or
    /// parking, so a classic load+CAS retry storm still trips it.
    pub cas_fail_streak: u64,
}

#[derive(Default)]
pub(crate) struct MutexRec {
    pub owner: Option<usize>,
    pub waiters: VecDeque<usize>,
}

#[derive(Default)]
pub(crate) struct CondRec {
    /// (thread, mutex it must re-acquire).
    pub waiters: VecDeque<(usize, usize)>,
}

pub(crate) struct BarrierRec {
    /// Parties required per generation.
    pub parties: usize,
    /// Threads parked at the barrier this generation.
    pub waiting: Vec<usize>,
}

/// Control-plane state of one [`SimChannel`]: queue depth, parked
/// receivers, and the sender registry used for deadlock edges. The
/// payloads themselves live in the handle's host-side buffer; both are
/// only mutated under the scheduler lock, so `queued` always equals the
/// buffer length.
pub(crate) struct ChannelRec {
    /// Payloads currently buffered (send minus recv).
    pub queued: usize,
    /// Bounded capacity; `None` is unbounded (sends never block) and
    /// `Some(0)` is a rendezvous (a send pairs with a parked receiver).
    /// Open-loop source injections ignore the bound — admission control
    /// at the network edge is the workload's job, not the channel's.
    pub capacity: Option<usize>,
    /// No further sends will happen; `recv` drains then returns `None`.
    pub closed: bool,
    /// Threads parked in `chan_recv`, FIFO.
    pub receivers: VecDeque<usize>,
    /// Threads parked in a blocking `chan_send` on a full queue, FIFO.
    pub blocked_senders: VecDeque<usize>,
    /// Threads registered as producers (explicitly or by sending),
    /// ascending — the wait-for edges of a channel deadlock.
    pub senders: Vec<usize>,
    /// Threads registered as consumers (explicitly or by receiving),
    /// ascending — the wait-for edges of a *full*-channel deadlock: a
    /// blocked sender transitively waits on the smallest live drainer.
    pub consumers: Vec<usize>,
    /// Open-loop event sources currently feeding this channel; the
    /// channel auto-closes when this reaches zero with no live
    /// registered sender thread.
    pub sources: usize,
}

impl ChannelRec {
    /// Whether a thread-side send can complete right now: below the
    /// bound, or (rendezvous) a receiver is parked and ready to pair.
    pub fn has_room(&self) -> bool {
        match self.capacity {
            None => true,
            Some(0) => !self.receivers.is_empty(),
            Some(c) => self.queued < c,
        }
    }
}

/// Scheduler-owned state of one simulated atomic cell. Only ever
/// mutated under the scheduler lock; the publication instant is what
/// floors a later observer's clock (the cross-thread hand-off edge).
pub(crate) struct AtomicRec {
    /// Current value (pointers are encoded, see `atomics`).
    pub value: u64,
    /// Thread whose write produced `value`; `None` until first written.
    pub last_writer: Option<usize>,
    /// Virtual instant that write was published.
    pub last_write_time: SimTime,
}

/// Deterministic spurious-failure model for `compare_exchange_weak`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpuriousCas {
    /// Stream seed.
    pub seed: u64,
    /// Roughly one in this many otherwise-successful weak exchanges
    /// fails spuriously.
    pub one_in: u64,
}

pub(crate) struct SchedState {
    pub threads: Vec<ThreadRec>,
    pub mutexes: Vec<MutexRec>,
    pub conds: Vec<CondRec>,
    pub barriers: Vec<BarrierRec>,
    pub channels: Vec<ChannelRec>,
    pub atomics: Vec<AtomicRec>,
    pub timers: Vec<TimerRec>,
    pub live: usize,
    pub rr_core: usize,
    pub shutdown: bool,
    pub failure: Option<SimFailure>,
    /// The thread the last hand-off granted the token to, which the
    /// scheduler loop resumes next; `None` when the run is done or
    /// aborted.
    pub granted: Option<usize>,
    pub cas_spurious: Option<SpuriousCas>,
    pub livelock_threshold: u64,
    /// Buffers [`fire_timer`] lends each firing, kept to avoid two
    /// allocations per source firing: the live-thread list and the
    /// injected-channel list.
    pub timer_live: Vec<ThreadId>,
    pub timer_injected: Vec<ChannelId>,
}

pub(crate) struct EngineShared {
    pub mem: Arc<MemorySystem>,
    pub state: Mutex<SchedState>,
    pub hooks: RwLock<Arc<dyn Hooks>>,
    pub quantum: Duration,
    /// Cores used for round-robin placement of spawned threads.
    pub default_cores: Vec<usize>,
    /// Lock-free mirror of [`SchedState::shutdown`], checked at every
    /// operation boundary so a thread spinning in a *virtual* loop
    /// (which never parks) still unwinds promptly on abort without
    /// taking the scheduler lock per operation.
    pub shutdown_flag: AtomicBool,
    /// Index of the thread currently holding the scheduler token; read
    /// by the hang watchdog to name the monopolizing thread.
    pub running: AtomicUsize,
    /// Monotonic count of scheduler hand-offs (thread resumes and
    /// finishes). The watchdog declares a hang when a full host-time
    /// budget elapses with this counter unchanged.
    pub progress: AtomicU64,
    /// Host-time budget for the hang watchdog; `None` disables it.
    pub watchdog: Mutex<Option<std::time::Duration>>,
}

/// Marker payload used to unwind simulated threads at shutdown.
pub(crate) struct ShutdownSignal;

/// Installs (once per process) a panic-hook filter that silences the
/// default hook for [`ShutdownSignal`] payloads. Those panics are pure
/// control flow — the engine throws them to unwind parked sim threads
/// during shutdown and [`runner`] catches every one — so the stock
/// `thread panicked at ... Box<dyn Any>` stderr spam would only bury
/// the *real* diagnostic (the [`SimFailure`] the run returns). Every
/// other payload falls through to the previously installed hook.
fn install_shutdown_hook_filter() {
    use std::sync::Once;
    static FILTER: Once = Once::new();
    FILTER.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ShutdownSignal>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Result of a completed simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual instant the root thread finished.
    pub root_finish: SimTime,
    /// Virtual instant the last thread finished.
    pub end_time: SimTime,
}

/// A deterministic discrete-event thread engine over one
/// [`MemorySystem`].
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl Engine {
    /// Creates an engine. Spawned threads are placed round-robin on the
    /// cores of socket 0 (the paper's virtual topology binds application
    /// threads to the first socket of each sibling set, §3.3).
    pub fn new(mem: Arc<MemorySystem>) -> Self {
        let topo = mem.platform().topology();
        let default_cores: Vec<usize> = topo
            .cores_of(quartz_platform::SocketId(0))
            .map(|c| c.0)
            .collect();
        Engine {
            shared: Arc::new(EngineShared {
                mem,
                state: Mutex::new(SchedState {
                    threads: Vec::new(),
                    mutexes: Vec::new(),
                    conds: Vec::new(),
                    barriers: Vec::new(),
                    channels: Vec::new(),
                    atomics: Vec::new(),
                    timers: Vec::new(),
                    live: 0,
                    rr_core: 0,
                    shutdown: false,
                    failure: None,
                    granted: None,
                    cas_spurious: None,
                    livelock_threshold: DEFAULT_LIVELOCK_THRESHOLD,
                    timer_live: Vec::new(),
                    timer_injected: Vec::new(),
                }),
                hooks: RwLock::new(Arc::new(NoHooks)),
                quantum: Duration::from_us(2),
                default_cores,
                shutdown_flag: AtomicBool::new(false),
                running: AtomicUsize::new(0),
                progress: AtomicU64::new(0),
                watchdog: Mutex::new(None),
            }),
        }
    }

    /// Arms (or disarms, with `None`) the host-side hang watchdog.
    ///
    /// When armed, [`Engine::try_run`] runs the simulated threads on a
    /// helper OS thread and polls for completion with the given
    /// host-time budget: if a full budget elapses with **zero scheduler
    /// hand-offs**, the run fails with [`SimFailure::Hang`] naming the
    /// thread that holds the scheduler token. Detection latency is at
    /// most two budgets.
    ///
    /// The budget bounds *scheduler-quiescent host time*, not total run
    /// time: any mutex/join/barrier hand-off or thread finish resets
    /// it. A legitimate **single-threaded** workload hands the token
    /// off rarely, so arm the watchdog with a budget comfortably above
    /// the longest expected host-side stretch between hand-offs.
    /// Disarmed by default (and in tests).
    pub fn set_watchdog(&self, budget: Option<std::time::Duration>) {
        *self.shared.watchdog.lock() = budget;
    }

    /// Installs the interposition hooks (the emulator library).
    pub fn set_hooks(&self, hooks: Arc<dyn Hooks>) {
        *self.shared.hooks.write() = hooks;
    }

    /// Registers a periodic virtual-time timer (the monitor thread).
    /// The first firing happens at `period` after time zero.
    pub fn add_timer(
        &self,
        period: Duration,
        callback: impl FnMut(&mut TimerApi<'_>) + Send + 'static,
    ) {
        assert!(!period.is_zero(), "timer period must be non-zero");
        self.shared.state.lock().timers.push(TimerRec {
            period,
            next_fire: SimTime::ZERO + period,
            callback: Box::new(callback),
            wake: false,
            feeds: Vec::new(),
        });
    }

    /// Creates a simulated-time MPSC channel before the run starts, so
    /// event sources and the root closure can capture clones of the
    /// handle. Inside a simulated thread, use
    /// [`ThreadCtx::chan_new`](crate::ThreadCtx::chan_new) instead.
    pub fn channel<T: Send>(&self) -> SimChannel<T> {
        SimChannel::new(new_channel(&self.shared, None))
    }

    /// Creates a **bounded** simulated-time MPSC channel before the run
    /// starts: a thread-side `chan_send` parks (in virtual time) while
    /// `capacity` payloads are queued, and `capacity == 0` is a
    /// rendezvous channel. Open-loop source injections are exempt from
    /// the bound (the source is the network edge; shedding is the
    /// workload's admission-control decision). Inside a simulated
    /// thread, use
    /// [`ThreadCtx::chan_new_bounded`](crate::ThreadCtx::chan_new_bounded).
    pub fn bounded_channel<T: Send>(&self, capacity: usize) -> SimChannel<T> {
        SimChannel::new(new_channel(&self.shared, Some(capacity)))
    }

    /// Creates a simulated atomic u64 before the run starts, so the
    /// root closure and spawned threads can capture copies. Inside a
    /// simulated thread, use
    /// [`ThreadCtx::atomic_u64`](crate::ThreadCtx::atomic_u64).
    pub fn atomic_u64(&self, init: u64) -> crate::SimAtomicU64 {
        crate::SimAtomicU64 {
            id: new_atomic(&self.shared, init),
        }
    }

    /// Creates a simulated atomic pointer before the run starts (see
    /// [`Engine::atomic_u64`]).
    pub fn atomic_ptr(&self, init: Option<quartz_memsim::Addr>) -> crate::SimAtomicPtr {
        let raw = match init {
            Some(a) => a.0,
            None => u64::MAX,
        };
        crate::SimAtomicPtr {
            id: new_atomic(&self.shared, raw),
        }
    }

    /// Installs (or, with `None`, removes) the deterministic
    /// spurious-failure model for `compare_exchange_weak`:
    /// `Some((seed, one_in))` makes roughly one in `one_in`
    /// otherwise-successful weak exchanges fail spuriously, decided by
    /// a pure hash of `(seed, thread, attempt)` — byte-identical on any
    /// host at any worker count.
    pub fn set_cas_weak_spurious(&self, spec: Option<(u64, u64)>) {
        self.shared.state.lock().cas_spurious =
            spec.map(|(seed, one_in)| SpuriousCas { seed, one_in });
    }

    /// Sets the consecutive-CAS-failure streak at which the scheduler
    /// classifies the run as a [`SimFailure::Livelock`] (a no-progress
    /// CAS spin storm, named distinctly from a host-side
    /// [`SimFailure::Hang`]).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn set_livelock_threshold(&self, threshold: u64) {
        assert!(threshold >= 1, "livelock threshold must be non-zero");
        self.shared.state.lock().livelock_threshold = threshold;
    }

    /// Registers an **open-loop event source**: a self-rescheduling
    /// virtual-time callback that injects payloads into channels via
    /// [`TimerApi::send`] independently of any simulated thread. The
    /// first firing happens at `first` after time zero; each firing
    /// reschedules by `first` again unless the callback calls
    /// [`TimerApi::reschedule_in`] (variable inter-arrival gaps) or
    /// [`TimerApi::stop`] (source exhausted).
    ///
    /// Unlike plain [`Engine::add_timer`] monitors, a source keeps
    /// firing even when **no simulated thread is runnable**: the
    /// scheduler advances virtual time to the source's next firing
    /// instead of declaring a deadlock, so open-loop arrival injection
    /// never depends on a runnable thread. `feeds` names the channels
    /// this source produces into; when every source feeding a channel
    /// has stopped (and no live sender thread is registered), the
    /// channel closes and blocked receivers drain out.
    pub fn add_open_loop_source(
        &self,
        first: Duration,
        feeds: &[ChannelId],
        callback: impl FnMut(&mut TimerApi<'_>) + Send + 'static,
    ) {
        assert!(!first.is_zero(), "source offset must be non-zero");
        let mut st = self.shared.state.lock();
        for f in feeds {
            st.channels[f.0].sources += 1;
        }
        st.timers.push(TimerRec {
            period: first,
            next_fire: SimTime::ZERO + first,
            callback: Box::new(callback),
            wake: true,
            feeds: feeds.iter().map(|c| c.0).collect(),
        });
    }

    /// The memory system threads operate on.
    pub fn mem(&self) -> &Arc<MemorySystem> {
        &self.shared.mem
    }

    /// The underlying platform.
    pub fn platform(&self) -> Platform {
        self.shared.mem.platform().clone()
    }

    /// Runs `root` as the first simulated thread and drives the
    /// simulation until every thread has finished.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails ([`Engine::try_run`]'s error,
    /// rendered into the panic message). Prefer `try_run` in harnesses
    /// that must contain failures.
    pub fn run<F>(self, root: F) -> RunReport
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        self.try_run(root)
            .unwrap_or_else(|f| panic!("simulation failed: {f}"))
    }

    /// Runs `root` as the first simulated thread and drives the
    /// simulation until every thread has finished, containing every
    /// failure mode as a typed [`SimFailure`] instead of panicking.
    ///
    /// The simulated threads run as coroutines on the calling OS thread
    /// (DESIGN.md §19); with the watchdog armed they run on one helper
    /// OS thread instead, which the caller watches.
    ///
    /// On failure the engine aborts the run, unwinds every simulated
    /// thread it suspended (with the watchdog armed, a thread hung in a
    /// pure-host loop keeps its helper OS thread, which is detached; see
    /// [`SimFailure::Hang`]), and invokes [`Hooks::on_sim_failure`] so
    /// an attached emulator can reap its per-thread state — the shared
    /// runtime stays usable for subsequent runs in the same process.
    ///
    /// # Errors
    ///
    /// [`SimFailure::Deadlock`] when no thread is runnable but live
    /// threads remain, [`SimFailure::ThreadPanic`] when a simulated
    /// thread's body panics, [`SimFailure::Hang`] when the armed
    /// watchdog sees a full host-time budget without a scheduler
    /// hand-off, and [`SimFailure::SchedulerLost`] for host-side engine
    /// faults.
    pub fn try_run<F>(self, root: F) -> Result<RunReport, SimFailure>
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        install_shutdown_hook_filter();
        let root_id = spawn_thread(&self.shared, None, SimTime::ZERO, root);
        debug_assert_eq!(root_id.0, 0);
        // Grant the root the token.
        {
            let mut st = self.shared.state.lock();
            schedule_next(&self.shared, &mut st);
        }
        let watchdog = *self.shared.watchdog.lock();
        match watchdog {
            None => drive(&self.shared),
            Some(budget) => self.drive_watched(budget),
        }

        let failure = self.shared.state.lock().failure.take();
        if let Some(f) = failure {
            // Notify the interposition layer *after* dropping the
            // scheduler lock (the emulator's reaper takes its own
            // registry locks; see DESIGN.md §13 lock ordering).
            let hooks = self.shared.hooks.read().clone();
            hooks.on_sim_failure(&f);
            return Err(f);
        }
        let st = self.shared.state.lock();
        let root_finish = st.threads[0].finish_time;
        let end_time = st
            .threads
            .iter()
            .map(|t| t.finish_time)
            .max()
            .unwrap_or(SimTime::ZERO);
        Ok(RunReport {
            root_finish,
            end_time,
        })
    }

    /// Runs [`drive`] on a helper OS thread while this one runs the hang
    /// watchdog. On a hang the abort reaches a thread spinning in virtual
    /// time at its next operation boundary, and the loop then unwinds
    /// the rest; a thread in a pure-host loop never gets there, so after
    /// one more budget the helper is detached (DESIGN.md §13).
    fn drive_watched(&self, budget: std::time::Duration) {
        // Never poll at zero: a degenerate budget would fire before the
        // root thread is even scheduled.
        let budget = budget.max(std::time::Duration::from_millis(1));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let shared = Arc::clone(&self.shared);
        // INVARIANT: OS thread creation is a host-fatal resource failure
        // (the process is out of threads/memory); there is no simulated
        // state to report against yet, so panicking here is deliberate.
        let helper = std::thread::Builder::new()
            .name("sim-engine".into())
            .spawn(move || {
                drive(&shared);
                let _ = done_tx.send(());
            })
            .expect("spawn the engine's helper thread");
        if self.wait_done(&done_rx, budget) && done_rx.recv_timeout(budget).is_err() {
            drop(helper); // detached: it may never finish
            return;
        }
        // The loop has returned (or its thread died, which `wait_done`
        // reported as `SchedulerLost`), so this join does not block.
        let _ = helper.join();
    }

    /// Blocks until the helper's loop returns, running the hang watchdog
    /// with `budget`. Returns `true` when it declared a hang.
    fn wait_done(&self, done_rx: &Receiver<()>, budget: std::time::Duration) -> bool {
        let mut last = self.shared.progress.load(Ordering::Acquire);
        loop {
            match done_rx.recv_timeout(budget) {
                Ok(()) => return false,
                Err(RecvTimeoutError::Disconnected) => {
                    // The helper died without finishing its loop — a
                    // host-side engine fault. Report it as a structured
                    // failure instead of a second panic that would
                    // shadow the root cause.
                    let mut st = self.shared.state.lock();
                    fail(
                        &self.shared,
                        &mut st,
                        SimFailure::SchedulerLost {
                            detail: "the engine's helper thread exited without finishing the run"
                                .into(),
                        },
                    );
                    return false;
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = self.shared.progress.load(Ordering::Acquire);
                    if now != last {
                        last = now;
                        continue;
                    }
                    // A full budget elapsed with zero hand-offs. The
                    // completion signal may still have raced the
                    // timeout — drain it before declaring a hang.
                    if done_rx.try_recv().is_ok() {
                        return false;
                    }
                    let holder = self.shared.running.load(Ordering::Acquire);
                    let mut st = self.shared.state.lock();
                    let sim_time = st
                        .threads
                        .get(holder)
                        .map(|t| t.clock)
                        .unwrap_or(SimTime::ZERO);
                    fail(
                        &self.shared,
                        &mut st,
                        SimFailure::Hang {
                            thread: ThreadId(holder),
                            budget,
                            sim_time,
                        },
                    );
                    return true;
                }
            }
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").finish_non_exhaustive()
    }
}

/// The scheduler loop: runs the engine's simulated threads as coroutines
/// on the calling OS thread, resuming whichever thread the last hand-off
/// granted the token to, until none is granted. Then it unwinds every
/// thread still suspended and drops the bodies of threads never started.
fn drive(shared: &Arc<EngineShared>) {
    let mut coros: Vec<Option<Coroutine>> = Vec::new();
    loop {
        let granted = {
            let mut st = shared.state.lock();
            if st.shutdown {
                None
            } else {
                st.granted.take()
            }
        };
        let Some(id) = granted else {
            break;
        };
        if coros.len() <= id {
            coros.resize_with(id + 1, || None);
        }
        let co = coros[id].get_or_insert_with(|| start(shared, id));
        if co.resume() {
            coros[id] = None;
        }
    }
    // Shut down any thread still suspended (failure paths).
    {
        let mut st = shared.state.lock();
        if st.failure.is_none() && st.live > 0 {
            let live = st.live;
            fail(
                shared,
                &mut st,
                SimFailure::SchedulerLost {
                    detail: format!("no thread holds the token, yet {live} threads are live"),
                },
            );
        }
        st.shutdown = true;
        shared.shutdown_flag.store(true, Ordering::Release);
    }
    for co in coros.iter_mut().flatten() {
        // Each resume unwinds `ShutdownSignal` from the thread's
        // suspension point; only a body that catches it and blocks
        // again needs another.
        while !co.resume() {}
    }
    let unstarted: Vec<Body> = {
        let mut st = shared.state.lock();
        st.threads
            .iter_mut()
            .filter_map(|t| t.body.take())
            .collect()
    };
    drop(unstarted);
}

/// The coroutine of thread `id`, created when it first holds the token.
fn start(shared: &Arc<EngineShared>, id: usize) -> Coroutine {
    let (body, core, pending) = {
        let mut st = shared.state.lock();
        let t = &mut st.threads[id];
        let body = t.body.take().expect("a thread's body starts once");
        (body, t.core, Arc::clone(&t.pending_signal))
    };
    let shared = Arc::clone(shared);
    Coroutine::new(Box::new(move || runner(shared, id, core, pending, body)))
}

/// Creates the bookkeeping for a new simulated thread; its coroutine
/// starts when the scheduler first grants it the token.
pub(crate) fn spawn_thread<F>(
    shared: &Arc<EngineShared>,
    core: Option<usize>,
    start_clock: SimTime,
    body: F,
) -> ThreadId
where
    F: FnOnce(&mut ThreadCtx) + Send + 'static,
{
    let body: Body = Box::new(body);
    let mut st = shared.state.lock();
    let id = st.threads.len();
    let core = core.unwrap_or_else(|| {
        let c = shared.default_cores[st.rr_core % shared.default_cores.len()];
        st.rr_core += 1;
        c
    });
    st.threads.push(ThreadRec {
        clock: start_clock,
        status: Status::Runnable,
        core,
        body: Some(body),
        pending_signal: Arc::new(AtomicBool::new(false)),
        joiners: Vec::new(),
        finish_time: SimTime::ZERO,
        timed_wait: None,
        cas_fail_streak: 0,
    });
    st.live += 1;
    ThreadId(id)
}

fn runner(shared: Arc<EngineShared>, id: usize, core: usize, pending: Arc<AtomicBool>, body: Body) {
    let mut ctx = ThreadCtx::new(Arc::clone(&shared), ThreadId(id), core, pending);
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        ctx.resume_bookkeeping();
        ctx.dispatch_thread_start();
        body(&mut ctx);
        ctx.dispatch_thread_exit();
    }));
    match result {
        Ok(()) => {
            finish_thread(&shared, id, ctx.now());
        }
        Err(payload) => {
            if payload.downcast_ref::<ShutdownSignal>().is_some() {
                return; // orderly shutdown
            }
            let msg = panic_message(&*payload);
            let sim_time = ctx.now();
            let mut st = shared.state.lock();
            fail(
                &shared,
                &mut st,
                SimFailure::ThreadPanic {
                    thread: ThreadId(id),
                    message: msg,
                    sim_time,
                },
            );
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// Marks a thread finished, wakes joiners, and schedules the next thread.
pub(crate) fn finish_thread(shared: &Arc<EngineShared>, id: usize, clock: SimTime) {
    shared.progress.fetch_add(1, Ordering::AcqRel);
    let mut st = shared.state.lock();
    st.threads[id].status = Status::Finished;
    st.threads[id].clock = clock;
    st.threads[id].finish_time = clock;
    st.live -= 1;
    let joiners = std::mem::take(&mut st.threads[id].joiners);
    for j in joiners {
        let floor = clock + Duration::from_ns(HANDOFF_NS);
        let t = &mut st.threads[j];
        t.clock = t.clock.max(floor);
        t.status = Status::Runnable;
    }
    schedule_next(shared, &mut st);
}

/// Picks and wakes the runnable thread with the minimum clock. Detects
/// completion and deadlock.
pub(crate) fn schedule_next(shared: &Arc<EngineShared>, st: &mut SchedState) {
    if st.shutdown {
        return;
    }
    let next = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Runnable)
        .min_by_key(|(i, t)| (t.clock, *i))
        .map(|(i, _)| i);
    match next {
        Some(i) => st.granted = Some(i),
        None if st.live == 0 => {} // done: the loop finds nothing granted
        None => {
            // Event-driven advance: with every thread blocked, an
            // open-loop source may still inject arrivals that wake a
            // channel receiver, and a timed channel wait self-wakes at
            // its deadline. Only if neither can make progress is this a
            // genuine deadlock.
            if advance_sources(st) {
                schedule_next(shared, st);
            } else {
                let report = deadlock_report(st);
                fail(shared, st, SimFailure::Deadlock(report));
            }
        }
    }
}

/// The earliest unexpired timed-wait deadline among blocked threads,
/// with its thread (smallest id on ties, deterministic).
pub(crate) fn next_timed_wait(st: &SchedState) -> Option<(SimTime, usize)> {
    st.threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Blocked)
        .filter_map(|(i, t)| t.timed_wait.filter(|w| !w.expired).map(|w| (w.deadline, i)))
        .min()
}

/// Expires thread `i`'s timed channel wait: unlinks it from the
/// channel's parked queues, marks the wait expired (the parked
/// operation returns its typed Timeout), and wakes the thread at
/// exactly its deadline — no hand-off cost, nobody handed anything off.
pub(crate) fn expire_timed_wait(st: &mut SchedState, i: usize, min_wake: &mut Option<SimTime>) {
    let Some(w) = st.threads[i].timed_wait else {
        return;
    };
    let ch = &mut st.channels[w.channel];
    ch.receivers.retain(|&t| t != i);
    ch.blocked_senders.retain(|&t| t != i);
    let t = &mut st.threads[i];
    t.timed_wait = Some(TimedWait { expired: true, ..w });
    t.clock = t.clock.max(w.deadline);
    t.status = Status::Runnable;
    let c = t.clock;
    *min_wake = Some(match *min_wake {
        Some(m) => m.min(c),
        None => c,
    });
}

/// With no thread runnable, processes pending virtual-time events —
/// wake-capable event sources and timed-wait deadlines — in
/// virtual-time order until one of them wakes a thread. Returns `true`
/// when some thread became runnable, `false` when nothing can help.
///
/// A misbehaving source that keeps firing without ever injecting would
/// advance virtual time forever; after a generous budget of consecutive
/// barren firings the advance gives up and the run is reported as a
/// deadlock (listing the blocked channel waits).
fn advance_sources(st: &mut SchedState) -> bool {
    let mut barren = 0u32;
    loop {
        let due_src = st
            .timers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.wake && t.next_fire < TIMER_NEVER)
            .min_by_key(|(i, t)| (t.next_fire, *i))
            .map(|(i, t)| (t.next_fire, i));
        let due_wait = next_timed_wait(st);
        match (due_wait, due_src) {
            // A deadline due no later than the next injection expires
            // first (a payload landing at exactly the deadline instant
            // is too late — POSIX timed-wait semantics).
            (Some((dl, thread)), src) if src.is_none_or(|(at, _)| dl <= at) => {
                let mut min_wake = None;
                expire_timed_wait(st, thread, &mut min_wake);
                return true;
            }
            (_, Some((_, idx))) => {
                fire_timer(st, idx);
                if st.threads.iter().any(|t| t.status == Status::Runnable) {
                    return true;
                }
                barren += 1;
                if barren > 4096 {
                    return false;
                }
            }
            // `(Some(_), None)` always passes the first arm's guard,
            // so only `(None, None)` reaches here.
            _ => return false,
        }
    }
}

/// Fires timer `idx` at its scheduled instant: runs the callback,
/// applies its effects (signals, channel injections, stop, reschedule),
/// and advances `next_fire`. Returns the minimum clock of any thread it
/// woke, so a running thread can trim its lookahead deadline. Must be
/// called with the scheduler lock held.
pub(crate) fn fire_timer(st: &mut SchedState, idx: usize) -> Option<SimTime> {
    let fire_time = st.timers[idx].next_fire;
    let period = st.timers[idx].period;
    let mut live = std::mem::take(&mut st.timer_live);
    live.extend(
        st.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status != Status::Finished)
            .map(|(i, _)| ThreadId(i)),
    );
    // Take the callback out so it can borrow the state view.
    let mut cb = std::mem::replace(&mut st.timers[idx].callback, Box::new(|_| {}));
    let mut api = TimerApi {
        fire_time,
        live: &live,
        signalled: Vec::new(),
        defer: Duration::ZERO,
        injected: std::mem::take(&mut st.timer_injected),
        next_gap: None,
        stopped: false,
    };
    cb(&mut api);
    let TimerApi {
        signalled,
        defer,
        mut injected,
        next_gap,
        stopped,
        ..
    } = api;
    st.timers[idx].callback = cb;
    live.clear();
    st.timer_live = live;
    for t in signalled {
        if let Some(rec) = st.threads.get(t.0) {
            rec.pending_signal.store(true, Ordering::Relaxed);
        }
    }
    // Injections are applied before the stop/reschedule decision, so a
    // source's *final* firing may both deliver a payload and stop.
    let mut min_wake = None;
    for ch in injected.drain(..) {
        st.channels[ch.0].queued += 1;
        wake_one_receiver(st, ch.0, fire_time, &mut min_wake);
    }
    st.timer_injected = injected;
    if stopped {
        st.timers[idx].next_fire = TIMER_NEVER;
        let feeds = std::mem::take(&mut st.timers[idx].feeds);
        for ch in feeds {
            st.channels[ch].sources -= 1;
            let live_sender = st.channels[ch]
                .senders
                .iter()
                .any(|&s| st.threads[s].status != Status::Finished);
            if st.channels[ch].sources == 0 && !live_sender {
                close_channel(st, ch, fire_time, &mut min_wake);
            }
        }
    } else {
        // A callback may defer its own next firing (late-timer fault
        // injection) or pick a variable gap (open-loop inter-arrivals);
        // the period itself is unchanged.
        st.timers[idx].next_fire = fire_time + next_gap.unwrap_or(period) + defer;
    }
    min_wake
}

/// Marks `thread` runnable no earlier than `at` plus the hand-off cost,
/// folding its resume clock into `min_wake`.
pub(crate) fn wake_thread(
    st: &mut SchedState,
    thread: usize,
    at: SimTime,
    min_wake: &mut Option<SimTime>,
) {
    let floor = at + Duration::from_ns(HANDOFF_NS);
    let t = &mut st.threads[thread];
    t.clock = t.clock.max(floor);
    t.status = Status::Runnable;
    let c = t.clock;
    *min_wake = Some(match *min_wake {
        Some(m) => m.min(c),
        None => c,
    });
}

/// Wakes the first parked receiver of `ch` that can still accept a
/// payload arriving at `at`. Parked receivers whose timed-wait deadline
/// already passed are expired instead (woken at their own deadline with
/// the timeout flag — the payload stays queued for the next taker), so
/// a late send never resurrects a wait that should have timed out.
pub(crate) fn wake_one_receiver(
    st: &mut SchedState,
    ch: usize,
    at: SimTime,
    min_wake: &mut Option<SimTime>,
) {
    loop {
        let Some(&r) = st.channels[ch].receivers.front() else {
            return;
        };
        let stale = st.threads[r]
            .timed_wait
            .is_some_and(|w| !w.expired && w.deadline <= at);
        if stale {
            expire_timed_wait(st, r, min_wake);
            continue; // unlinked itself; try the next receiver
        }
        st.channels[ch].receivers.pop_front();
        wake_thread(st, r, at, min_wake);
        return;
    }
}

/// Wakes the first blocked sender of `ch` that is still waiting at
/// instant `at` (a queue slot freed, or a rendezvous receiver parked).
/// Senders whose timed-wait deadline already passed are expired
/// instead.
pub(crate) fn wake_one_blocked_sender(
    st: &mut SchedState,
    ch: usize,
    at: SimTime,
    min_wake: &mut Option<SimTime>,
) {
    loop {
        let Some(&s) = st.channels[ch].blocked_senders.front() else {
            return;
        };
        let stale = st.threads[s]
            .timed_wait
            .is_some_and(|w| !w.expired && w.deadline <= at);
        if stale {
            expire_timed_wait(st, s, min_wake);
            continue;
        }
        st.channels[ch].blocked_senders.pop_front();
        wake_thread(st, s, at, min_wake);
        return;
    }
}

/// Closes channel `ch` at instant `at` and wakes every parked receiver
/// and blocked sender (receivers observe `closed` and drain out;
/// senders observe it and report their typed Closed error).
pub(crate) fn close_channel(
    st: &mut SchedState,
    ch: usize,
    at: SimTime,
    min_wake: &mut Option<SimTime>,
) {
    st.channels[ch].closed = true;
    let receivers = std::mem::take(&mut st.channels[ch].receivers);
    for r in receivers {
        wake_thread(st, r, at, min_wake);
    }
    let senders = std::mem::take(&mut st.channels[ch].blocked_senders);
    for s in senders {
        wake_thread(st, s, at, min_wake);
    }
}

/// Records `failure` (first failure wins — later ones would be
/// shutdown echoes of the root cause) and aborts the run. Must be
/// called with the scheduler lock held.
pub(crate) fn fail(shared: &EngineShared, st: &mut SchedState, failure: SimFailure) {
    if st.failure.is_none() {
        st.failure = Some(failure);
    }
    abort_all(shared, st);
}

/// Stops the run: the scheduler loop resumes no granted thread, a
/// running thread unwinds at its next operation boundary, and the loop
/// then unwinds every suspended one.
pub(crate) fn abort_all(shared: &EngineShared, st: &mut SchedState) {
    st.shutdown = true;
    st.granted = None;
    shared.shutdown_flag.store(true, Ordering::Release);
}

/// Allocates a new mutex.
pub(crate) fn new_mutex(shared: &EngineShared) -> MutexId {
    let mut st = shared.state.lock();
    st.mutexes.push(MutexRec::default());
    MutexId(st.mutexes.len() - 1)
}

/// Allocates a new simulated atomic cell.
pub(crate) fn new_atomic(shared: &EngineShared, init: u64) -> crate::AtomicId {
    let mut st = shared.state.lock();
    st.atomics.push(AtomicRec {
        value: init,
        last_writer: None,
        last_write_time: SimTime::ZERO,
    });
    crate::AtomicId(st.atomics.len() - 1)
}

/// Allocates a new condition variable.
pub(crate) fn new_cond(shared: &EngineShared) -> CondId {
    let mut st = shared.state.lock();
    st.conds.push(CondRec::default());
    CondId(st.conds.len() - 1)
}

/// Allocates the scheduler-side record of a new channel.
pub(crate) fn new_channel(shared: &EngineShared, capacity: Option<usize>) -> ChannelId {
    let mut st = shared.state.lock();
    st.channels.push(ChannelRec {
        queued: 0,
        capacity,
        closed: false,
        receivers: VecDeque::new(),
        blocked_senders: VecDeque::new(),
        senders: Vec::new(),
        consumers: Vec::new(),
        sources: 0,
    });
    ChannelId(st.channels.len() - 1)
}

/// Registers `thread` as a producer of channel `ch` (idempotent; kept
/// sorted so deadlock diagnosis picks the smallest-id live sender
/// deterministically). Must be called with the scheduler lock held.
pub(crate) fn register_sender(st: &mut SchedState, ch: usize, thread: usize) {
    let senders = &mut st.channels[ch].senders;
    if let Err(pos) = senders.binary_search(&thread) {
        senders.insert(pos, thread);
    }
}

/// Registers `thread` as a consumer of channel `ch` (idempotent, kept
/// sorted) — the drainer a blocked sender transitively waits on in a
/// full-channel deadlock. Must be called with the scheduler lock held.
pub(crate) fn register_receiver(st: &mut SchedState, ch: usize, thread: usize) {
    let consumers = &mut st.channels[ch].consumers;
    if let Err(pos) = consumers.binary_search(&thread) {
        consumers.insert(pos, thread);
    }
}

/// Allocates a new barrier for `parties` threads.
pub(crate) fn new_barrier(shared: &EngineShared, parties: usize) -> crate::BarrierId {
    assert!(parties >= 1, "barrier needs at least one party");
    let mut st = shared.state.lock();
    st.barriers.push(BarrierRec {
        parties,
        waiting: Vec::new(),
    });
    crate::BarrierId(st.barriers.len() - 1)
}
