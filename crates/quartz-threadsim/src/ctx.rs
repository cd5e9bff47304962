//! The per-thread operation context.

use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::MutexGuard;
use quartz_memsim::{AccessResult, Addr, MemSimError, MemorySystem};
use quartz_platform::error::PlatformError;
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{CoreId, NodeId, Platform};

use crate::atomics::{spurious_roll, AtomicEvent, AtomicOp, AtomicPhase, CasOutcome};
use crate::channel::{RecvTimeoutError, SendTimeoutError, SimChannel, TryRecvError, TrySendError};
use crate::engine::{
    close_channel, expire_timed_wait, new_atomic, new_barrier, new_channel, new_cond, new_mutex,
    next_timed_wait, register_receiver, register_sender, schedule_next, spawn_thread,
    wake_one_blocked_sender, wake_one_receiver, EngineShared, SchedState, ShutdownSignal, Status,
    ThreadId, TimedWait, HANDOFF_NS, LOCK_OP_NS, SPAWN_NS,
};
use crate::failure::SimFailure;
use crate::{AtomicId, BarrierId, CondId, MutexId, SimAtomicPtr, SimAtomicU64};

/// "Infinitely" far in the future (no yield deadline).
const FAR_FUTURE: SimTime = SimTime::from_ps(u64::MAX / 4);

/// Handle through which a simulated thread performs every operation.
///
/// All methods advance the thread's virtual clock by the operation's
/// modeled cost. Methods that can block (locks, joins, condition waits)
/// hand control to the scheduler.
pub struct ThreadCtx {
    shared: Arc<EngineShared>,
    id: ThreadId,
    core: usize,
    clock: SimTime,
    deadline: SimTime,
    next_timer: SimTime,
    pending: Arc<AtomicBool>,
    in_hook: bool,
    /// Wait time that absorbs spin delay: a POSIX signal interrupts a
    /// blocked `pthread_mutex_lock`, so a delay injected by the signal
    /// handler runs *during* the wait and only its excess over the wait
    /// extends the thread's timeline.
    spin_credit: Duration,
    /// Monotonic `compare_exchange_weak` attempt counter — the `seq`
    /// input of the deterministic spurious-failure hash. Counts every
    /// attempt (even genuine mismatches) so the stream depends only on
    /// program order, never on race resolution.
    cas_weak_seq: u64,
}

impl ThreadCtx {
    pub(crate) fn new(
        shared: Arc<EngineShared>,
        id: ThreadId,
        core: usize,
        pending: Arc<AtomicBool>,
    ) -> Self {
        ThreadCtx {
            shared,
            id,
            core,
            clock: SimTime::ZERO,
            deadline: FAR_FUTURE,
            next_timer: FAR_FUTURE,
            pending,
            in_hook: false,
            spin_credit: Duration::ZERO,
            cas_weak_seq: 0,
        }
    }

    // ------------------------------------------------------------------
    // Identity and environment.
    // ------------------------------------------------------------------

    /// This thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.id
    }

    /// The core this thread is bound to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The NUMA node local to this thread's core.
    pub fn local_node(&self) -> NodeId {
        self.platform().topology().local_node_of(CoreId(self.core))
    }

    /// The memory system.
    pub fn mem(&self) -> &Arc<MemorySystem> {
        &self.shared.mem
    }

    /// The platform.
    pub fn platform(&self) -> Platform {
        self.shared.mem.platform().clone()
    }

    /// Current virtual time of this thread.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    // ------------------------------------------------------------------
    // Scheduling internals.
    // ------------------------------------------------------------------

    /// Refreshes clock/deadline/timer caches after being scheduled.
    pub(crate) fn resume_bookkeeping(&mut self) {
        let shared = Arc::clone(&self.shared);
        let st = shared.state.lock();
        if st.shutdown {
            drop(st);
            panic_any(ShutdownSignal);
        }
        // Publish token ownership and the hand-off for the hang
        // watchdog: `running` names the monopolizing thread, `progress`
        // proves the scheduler is not quiescent.
        shared.running.store(self.id.0, Ordering::Release);
        shared.progress.fetch_add(1, Ordering::AcqRel);
        self.clock = st.threads[self.id.0].clock;
        let (deadline, next_timer) = compute_caches(&st, self.id.0, self.shared.quantum);
        self.deadline = deadline;
        self.next_timer = next_timer;
    }

    /// Suspends this thread's coroutine until the scheduler loop
    /// resumes it with the token. The caller has already granted the
    /// token to the next thread (or aborted the run).
    fn park(&mut self, st: MutexGuard<'_, SchedState>) {
        drop(st);
        crate::coro::suspend();
        self.resume_bookkeeping();
    }

    /// The per-operation boundary: fire due timers, deliver signals,
    /// yield if past the lookahead deadline.
    fn op_boundary(&mut self) {
        // Abort check without the scheduler lock: a thread spinning in
        // a virtual loop never parks (its deadline can be FAR_FUTURE),
        // so this flag is the only way it learns the run was aborted.
        if self.shared.shutdown_flag.load(Ordering::Relaxed) {
            panic_any(ShutdownSignal);
        }
        if self.next_timer <= self.clock {
            self.fire_due_timers();
        }
        if self.pending.load(Ordering::Relaxed) && !self.in_hook {
            self.pending.store(false, Ordering::Relaxed);
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.on_signal(self);
            self.in_hook = false;
        }
        if self.clock > self.deadline {
            self.yield_handoff();
        }
    }

    fn fire_due_timers(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        loop {
            // Causality bound: fire events due up to our clock, but
            // never past the lookahead deadline. Once a fire wakes a
            // thread whose clock trails ours (trimming `deadline`),
            // later events must wait — the woken thread may change the
            // state those events observe (e.g. an admission gauge), so
            // it has to run first. The remaining dues fire either at
            // its op boundaries or when we resume.
            let horizon = self.clock.min(self.deadline);
            let due_timer = st
                .timers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.next_fire <= horizon)
                .min_by_key(|(i, t)| (t.next_fire, *i))
                .map(|(i, t)| (t.next_fire, i));
            let due_wait = next_timed_wait(&st).filter(|(dl, _)| *dl <= horizon);
            // Interleave timer fires and timed-wait expiries in virtual
            // time, deadline-first on ties: a payload landing exactly at
            // a receiver's deadline arrives too late (POSIX timed-wait
            // semantics), so the expiry must be processed first.
            match (due_wait, due_timer) {
                (Some((dl, thread)), timer) if timer.is_none_or(|(at, _)| dl <= at) => {
                    let mut min_wake = None;
                    expire_timed_wait(&mut st, thread, &mut min_wake);
                    if let Some(w) = min_wake {
                        self.deadline = self.deadline.min(w + shared.quantum);
                    }
                }
                (_, Some((_, idx))) => {
                    if let Some(woken) = crate::engine::fire_timer(&mut st, idx) {
                        // An injection woke a parked channel receiver
                        // (possibly at a clock below ours): bound our
                        // lookahead so we yield to it promptly.
                        self.deadline = self.deadline.min(woken + shared.quantum);
                    }
                }
                // `(Some(_), None)` always passes the first arm's
                // guard, so only `(None, None)` reaches here.
                _ => break,
            }
        }
        self.next_timer = next_event_cache(&st);
    }

    fn yield_handoff(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        st.threads[self.id.0].clock = self.clock;
        let min_other = st
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != self.id.0 && t.status == Status::Runnable)
            .min_by_key(|(i, t)| (t.clock, *i))
            .map(|(i, t)| (i, t.clock));
        match min_other {
            None => {
                let (deadline, next_timer) = compute_caches(&st, self.id.0, shared.quantum);
                self.deadline = deadline;
                self.next_timer = next_timer;
            }
            Some((_, c)) if c >= self.clock => {
                // We are (still) the minimum; extend the lookahead.
                self.deadline = c + shared.quantum;
            }
            Some((i, _)) => {
                st.granted = Some(i);
                self.park(st);
            }
        }
    }

    /// Explicitly yields to the scheduler (sched_yield).
    pub fn yield_now(&mut self) {
        self.op_boundary();
        self.yield_handoff();
    }

    pub(crate) fn dispatch_thread_start(&mut self) {
        let hooks = self.shared.hooks.read().clone();
        self.in_hook = true;
        hooks.on_thread_start(self);
        self.in_hook = false;
    }

    pub(crate) fn dispatch_thread_exit(&mut self) {
        let hooks = self.shared.hooks.read().clone();
        self.in_hook = true;
        hooks.on_thread_exit(self);
        self.in_hook = false;
    }

    // ------------------------------------------------------------------
    // Time and instructions.
    // ------------------------------------------------------------------

    /// Advances the clock by `ns` of computation, subject to the DVFS
    /// frequency multiplier (faster clock ⇒ less wall time).
    pub fn compute_ns(&mut self, ns: f64) {
        self.op_boundary();
        let mult = self.platform().dvfs().multiplier(self.clock);
        self.clock += Duration::from_ns_f64(ns / mult);
    }

    /// Advances the clock by `cycles` of computation at the current
    /// effective frequency.
    pub fn compute_cycles(&mut self, cycles: u64) {
        self.op_boundary();
        let p = self.platform();
        let mult = p.dvfs().multiplier(self.clock);
        let nominal = p.frequency().cycles_to_duration(cycles);
        self.clock += Duration::from_ns_f64(nominal.as_ns_f64() / mult);
    }

    /// Spins for exactly `d` of wall time — the TSC-based delay-injection
    /// loop of the emulator (paper §3.1). The invariant TSC makes this
    /// exact regardless of DVFS.
    pub fn spin(&mut self, d: Duration) {
        self.op_boundary();
        let absorbed = d.min(self.spin_credit);
        self.spin_credit -= absorbed;
        self.clock += d - absorbed;
    }

    /// Executes `rdtscp`, returning the timestamp counter as observed on
    /// this thread's core (including any injected per-socket TSC skew).
    pub fn rdtscp(&mut self) -> u64 {
        self.op_boundary();
        let p = self.platform();
        let cost = p.op_costs().rdtscp_cycles;
        let mult = p.dvfs().multiplier(self.clock);
        self.clock += Duration::from_ns_f64(p.cycles(cost).as_ns_f64() / mult);
        p.read_tsc(CoreId(self.core), self.clock)
    }

    /// Executes `rdpmc` for counter slot `slot` on this core.
    ///
    /// # Errors
    ///
    /// Fails if user-mode counter access is not enabled or the slot is
    /// not programmed (see [`quartz_platform::PmuState::rdpmc`]).
    pub fn rdpmc(&mut self, slot: usize) -> Result<u64, PlatformError> {
        self.op_boundary();
        let p = self.platform();
        let cost = p.op_costs().rdpmc_cycles;
        let mult = p.dvfs().multiplier(self.clock);
        self.clock += Duration::from_ns_f64(p.cycles(cost).as_ns_f64() / mult);
        p.pmu().rdpmc(CoreId(self.core), slot)
    }

    /// Reads a counter through a PAPI-like virtualized framework: same
    /// value, ~8x the cost (paper §3.2 ablation).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThreadCtx::rdpmc`].
    pub fn rdpmc_papi(&mut self, slot: usize) -> Result<u64, PlatformError> {
        self.op_boundary();
        let p = self.platform();
        let cost = p.op_costs().papi_read_cycles;
        let mult = p.dvfs().multiplier(self.clock);
        self.clock += Duration::from_ns_f64(p.cycles(cost).as_ns_f64() / mult);
        p.pmu().rdpmc(CoreId(self.core), slot)
    }

    /// `clock_gettime(CLOCK_MONOTONIC)`.
    pub fn clock_gettime(&mut self) -> SimTime {
        self.op_boundary();
        let p = self.platform();
        self.clock += p.cycles(p.op_costs().clock_gettime_cycles);
        self.clock
    }

    /// Advances the clock by a raw duration without any boundary
    /// processing. Intended for hook implementations charging their own
    /// bookkeeping costs.
    pub fn charge(&mut self, d: Duration) {
        self.clock += d;
    }

    // ------------------------------------------------------------------
    // Memory operations.
    // ------------------------------------------------------------------

    /// Allocates on this thread's local node (`malloc`).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of memory.
    pub fn alloc_local(&mut self, bytes: u64) -> Addr {
        // INVARIANT: a workload-visible panic by design (malloc
        // semantics); it unwinds through `catch_unwind` in the runner
        // and surfaces as `SimFailure::ThreadPanic`, not a process
        // abort. Use `try_alloc_on` for fallible allocation.
        self.try_alloc_on(self.local_node(), bytes)
            .expect("local allocation failed")
    }

    /// Allocates on an explicit node (`numa_alloc_onnode`).
    ///
    /// # Panics
    ///
    /// Panics if the node is out of memory or absent.
    pub fn alloc_on(&mut self, node: NodeId, bytes: u64) -> Addr {
        // INVARIANT: see `alloc_local` — contained as ThreadPanic.
        self.try_alloc_on(node, bytes)
            .expect("node allocation failed")
    }

    /// Fallible allocation on an explicit node.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn try_alloc_on(&mut self, node: NodeId, bytes: u64) -> Result<Addr, MemSimError> {
        self.op_boundary();
        self.clock += Duration::from_ns(120); // allocator bookkeeping
        self.shared.mem.alloc(node, bytes)
    }

    /// Frees an allocation.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures.
    pub fn free(&mut self, addr: Addr) -> Result<(), MemSimError> {
        self.op_boundary();
        self.clock += Duration::from_ns(80);
        self.shared.mem.free(addr)
    }

    /// A dependent load.
    pub fn load(&mut self, addr: Addr) -> AccessResult {
        self.op_boundary();
        let r = self.shared.mem.load(self.core, addr, self.clock);
        self.clock += r.stall;
        r
    }

    /// A batch of independent loads issued together (memory-level
    /// parallelism). Returns the total exposed stall.
    pub fn load_batch(&mut self, addrs: &[Addr]) -> Duration {
        self.op_boundary();
        let stall = self.shared.mem.load_batch(self.core, addrs, self.clock);
        self.clock += stall;
        stall
    }

    /// A regular (posted, write-back) store.
    pub fn store(&mut self, addr: Addr) -> Duration {
        self.op_boundary();
        let cost = self.shared.mem.store(self.core, addr, self.clock);
        self.clock += cost;
        cost
    }

    /// A non-temporal streaming store.
    pub fn store_stream(&mut self, addr: Addr) -> Duration {
        self.op_boundary();
        let cost = self.shared.mem.store_stream(self.core, addr, self.clock);
        self.clock += cost;
        cost
    }

    /// `clflush`: synchronous write-back + invalidate.
    pub fn flush(&mut self, addr: Addr) -> Duration {
        self.op_boundary();
        let cost = self.shared.mem.flush(self.core, addr, self.clock);
        self.clock += cost;
        cost
    }

    /// `clflushopt`: asynchronous write-back + invalidate; returns the
    /// completion instant for `pcommit`-style draining.
    pub fn flush_opt(&mut self, addr: Addr) -> SimTime {
        self.op_boundary();
        let (cost, done) = self.shared.mem.flush_opt(self.core, addr, self.clock);
        self.clock += cost;
        done
    }

    // ------------------------------------------------------------------
    // Threads.
    // ------------------------------------------------------------------

    /// Spawns a simulated thread on an automatically chosen core.
    pub fn spawn<F>(&mut self, body: F) -> ThreadId
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        self.op_boundary();
        self.clock += Duration::from_ns(SPAWN_NS);
        let id = spawn_thread(&self.shared, None, self.clock, body);
        // The child is runnable at our clock: bound our lookahead so we
        // do not race past its first operations.
        self.deadline = self.deadline.min(self.clock + self.shared.quantum);
        id
    }

    /// Spawns a simulated thread pinned to `core`.
    pub fn spawn_on<F>(&mut self, core: usize, body: F) -> ThreadId
    where
        F: FnOnce(&mut ThreadCtx) + Send + 'static,
    {
        self.op_boundary();
        self.clock += Duration::from_ns(SPAWN_NS);
        let id = spawn_thread(&self.shared, Some(core), self.clock, body);
        self.deadline = self.deadline.min(self.clock + self.shared.quantum);
        id
    }

    /// Waits for `thread` to finish. When `join` returns, the joined
    /// thread's body has returned, its locals have been dropped, and its
    /// coroutine stack has been freed (DESIGN.md §19).
    pub fn join(&mut self, thread: ThreadId) {
        self.op_boundary();
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        if st.threads[thread.0].status == Status::Finished {
            let floor = st.threads[thread.0].finish_time + Duration::from_ns(HANDOFF_NS);
            self.clock = self.clock.max(floor);
        } else {
            st.threads[thread.0].joiners.push(self.id.0);
            st.threads[self.id.0].status = Status::Blocked;
            st.threads[self.id.0].clock = self.clock;
            schedule_next(&shared, &mut st);
            self.park(st);
        }
    }

    // ------------------------------------------------------------------
    // Synchronization.
    // ------------------------------------------------------------------

    /// Creates a mutex.
    pub fn mutex_new(&mut self) -> MutexId {
        new_mutex(&self.shared)
    }

    /// Creates a condition variable.
    pub fn cond_new(&mut self) -> CondId {
        new_cond(&self.shared)
    }

    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn barrier_new(&mut self, parties: usize) -> BarrierId {
        new_barrier(&self.shared, parties)
    }

    /// Waits at a barrier until `parties` threads have arrived. Invokes
    /// the [`before_barrier`](crate::Hooks::before_barrier) hook first,
    /// so injected delay lands before the rendezvous. Returns `true` on
    /// the thread that released the generation (the "leader").
    pub fn barrier_wait(&mut self, b: BarrierId) -> bool {
        self.op_boundary();
        if !self.in_hook {
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.before_barrier(self);
            self.in_hook = false;
        }
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        let rec = &mut st.barriers[b.0];
        assert!(
            !rec.waiting.contains(&self.id.0),
            "barrier re-entered while already waiting"
        );
        if rec.waiting.len() + 1 < rec.parties {
            rec.waiting.push(self.id.0);
            st.threads[self.id.0].status = Status::Blocked;
            st.threads[self.id.0].clock = self.clock;
            schedule_next(&shared, &mut st);
            self.park(st);
            false
        } else {
            // Last arriver releases the generation: every waiter resumes
            // no earlier than the latest arrival.
            let waiters = std::mem::take(&mut st.barriers[b.0].waiting);
            let floor = self.clock + Duration::from_ns(HANDOFF_NS);
            for t in waiters {
                let rec = &mut st.threads[t];
                rec.clock = rec.clock.max(floor);
                rec.status = Status::Runnable;
            }
            self.deadline = self.deadline.min(floor + shared.quantum);
            true
        }
    }

    /// Acquires a mutex, blocking in virtual time if contended.
    ///
    /// # Panics
    ///
    /// Panics if this thread already owns the mutex.
    pub fn mutex_lock(&mut self, m: MutexId) {
        self.op_boundary();
        if !self.in_hook {
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.before_mutex_lock(self);
            self.in_hook = false;
        }
        // The hook may have spun (injected delay): let lower-clock
        // threads catch up before we contend for the lock.
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        loop {
            let shared = Arc::clone(&self.shared);
            let mut st = shared.state.lock();
            let rec = &mut st.mutexes[m.0];
            assert_ne!(rec.owner, Some(self.id.0), "relock of owned mutex");
            if rec.owner.is_none() {
                rec.owner = Some(self.id.0);
                return;
            }
            rec.waiters.push_back(self.id.0);
            st.threads[self.id.0].status = Status::Blocked;
            st.threads[self.id.0].clock = self.clock;
            let wait_start = self.clock;
            schedule_next(&shared, &mut st);
            self.park(st);
            // On resume the releasing thread transferred ownership to us.
            if self.pending.load(Ordering::Relaxed) && !self.in_hook {
                // A POSIX signal interrupts a blocked pthread_mutex_lock:
                // its handler runs *without* the lock, concurrently with
                // the wait, and the thread re-queues afterwards. Pass the
                // lock on, deliver the signal with the wait as spin
                // credit, and contend again.
                {
                    let mut st = shared.state.lock();
                    self.release_mutex_locked(&mut st, m);
                }
                self.deliver_signal_after_wait(wait_start);
                continue;
            }
            return;
        }
    }

    /// Delivers a pending signal whose handler logically ran during a
    /// wait that began at `wait_start`.
    fn deliver_signal_after_wait(&mut self, wait_start: SimTime) {
        if self.pending.load(Ordering::Relaxed) && !self.in_hook {
            self.pending.store(false, Ordering::Relaxed);
            self.spin_credit = self.clock.saturating_duration_since(wait_start);
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.on_signal(self);
            self.in_hook = false;
            self.spin_credit = Duration::ZERO;
        }
    }

    /// Releases a mutex. Invokes the
    /// [`before_mutex_unlock`](crate::Hooks::before_mutex_unlock) hook
    /// *before* the release, so injected delay propagates to waiters.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not own the mutex.
    pub fn mutex_unlock(&mut self, m: MutexId) {
        self.op_boundary();
        if !self.in_hook {
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.before_mutex_unlock(self);
            self.in_hook = false;
        }
        // The hook may have spun far ahead (injected delay): give lower-
        // clock threads the chance to reach the lock queue before the
        // release, preserving virtual-time causality.
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        self.release_mutex_locked(&mut st, m);
    }

    fn release_mutex_locked(&mut self, st: &mut SchedState, m: MutexId) {
        let rec = &mut st.mutexes[m.0];
        assert_eq!(rec.owner, Some(self.id.0), "unlock of unowned mutex");
        if let Some(next) = rec.waiters.pop_front() {
            rec.owner = Some(next);
            let floor = self.clock + Duration::from_ns(HANDOFF_NS);
            let t = &mut st.threads[next];
            t.clock = t.clock.max(floor);
            t.status = Status::Runnable;
            self.deadline = self.deadline.min(t.clock + self.shared.quantum);
        } else {
            rec.owner = None;
        }
    }

    /// Atomically releases `m` and waits on `c`; re-acquires `m` before
    /// returning.
    ///
    /// # Panics
    ///
    /// Panics if this thread does not own the mutex.
    pub fn cond_wait(&mut self, c: CondId, m: MutexId) {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        // The glibc-internal unlock inside cond_wait is not the
        // interposed symbol, so no hook fires here (paper interposes
        // pthread_mutex_unlock only).
        self.release_mutex_locked(&mut st, m);
        st.conds[c.0].waiters.push_back((self.id.0, m.0));
        st.threads[self.id.0].status = Status::Blocked;
        st.threads[self.id.0].clock = self.clock;
        let wait_start = self.clock;
        schedule_next(&shared, &mut st);
        self.park(st);
        // On resume we own the mutex again. Signals delivered during the
        // wait ran concurrently with it (see mutex_lock).
        self.deliver_signal_after_wait(wait_start);
    }

    /// Wakes one waiter of `c`. Invokes the
    /// [`before_cond_notify`](crate::Hooks::before_cond_notify) hook
    /// first.
    pub fn cond_notify_one(&mut self, c: CondId) {
        self.notify(c, false);
    }

    /// Wakes all waiters of `c`.
    pub fn cond_notify_all(&mut self, c: CondId) {
        self.notify(c, true);
    }

    fn notify(&mut self, c: CondId, all: bool) {
        self.op_boundary();
        if !self.in_hook {
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.before_cond_notify(self);
            self.in_hook = false;
        }
        // Same causality consideration as mutex_unlock.
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        while let Some((t, m)) = st.conds[c.0].waiters.pop_front() {
            let floor = self.clock + Duration::from_ns(HANDOFF_NS);
            let rec = &mut st.threads[t];
            rec.clock = rec.clock.max(floor);
            if st.mutexes[m].owner.is_none() {
                st.mutexes[m].owner = Some(t);
                st.threads[t].status = Status::Runnable;
                let woken_clock = st.threads[t].clock;
                self.deadline = self.deadline.min(woken_clock + self.shared.quantum);
            } else {
                st.mutexes[m].waiters.push_back(t);
                // Stays blocked until the mutex is handed over.
            }
            if !all {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Atomics.
    // ------------------------------------------------------------------

    /// Creates a simulated atomic u64 from inside a thread.
    pub fn atomic_u64(&mut self, init: u64) -> SimAtomicU64 {
        SimAtomicU64 {
            id: new_atomic(&self.shared, init),
        }
    }

    /// Creates a simulated atomic pointer from inside a thread (null is
    /// `None`; see [`SimAtomicPtr`]).
    pub fn atomic_ptr(&mut self, init: Option<Addr>) -> SimAtomicPtr {
        let raw = match init {
            Some(a) => a.0,
            None => u64::MAX,
        };
        SimAtomicPtr {
            id: new_atomic(&self.shared, raw),
        }
    }

    /// A full memory fence. Publishing seam only — it touches no cell,
    /// but raises the `Before`/`After` atomic hooks so an emulator
    /// settles epoch delay before prior stores become visible (the
    /// flush-then-fence seam of persistent lock-free code).
    pub fn sim_fence(&mut self) {
        self.op_boundary();
        self.dispatch_atomic(&AtomicEvent {
            phase: AtomicPhase::Before,
            id: None,
            op: AtomicOp::Fence,
            outcome: CasOutcome::NotCas,
            handoff_from: None,
            handoff_wait: Duration::ZERO,
        });
        // The hook may have spun (injected delay): let lower-clock
        // threads catch up before the fence completes.
        self.op_boundary();
        self.clock += AtomicOp::Fence.cost();
        self.dispatch_atomic(&AtomicEvent {
            phase: AtomicPhase::After,
            id: None,
            op: AtomicOp::Fence,
            outcome: CasOutcome::NotCas,
            handoff_from: None,
            handoff_wait: Duration::ZERO,
        });
    }

    /// Raises [`Hooks::on_atomic`](crate::Hooks::on_atomic) unless
    /// already inside a hook (hook operations do not re-enter hooks).
    fn dispatch_atomic(&mut self, ev: &AtomicEvent) {
        if !self.in_hook {
            let hooks = self.shared.hooks.read().clone();
            self.in_hook = true;
            hooks.on_atomic(self, ev);
            self.in_hook = false;
        }
    }

    /// The one interposed path every [`SimAtomicU64`]/[`SimAtomicPtr`]
    /// operation takes. Returns `(observed value, CAS outcome)` — the
    /// observed value is the cell content *before* any modification
    /// (what `load`/`swap`/`fetch_add`/failed-CAS return).
    ///
    /// Operation order is the seam contract (mirrors `mutex_unlock`):
    /// boundary → `Before` hook (publishing ops; the emulator settles
    /// its epoch *before* the value becomes visible) → boundary again
    /// (the hook may have spun far ahead) → instruction cost → cell
    /// access under the scheduler lock, flooring this thread's clock to
    /// the previous writer's publication instant plus the hand-off cost
    /// → `After` hook carrying outcome and hand-off edge.
    pub(crate) fn atomic_access(
        &mut self,
        a: AtomicId,
        op: AtomicOp,
        operand: u64,
        expect: u64,
    ) -> (u64, CasOutcome) {
        self.op_boundary();
        if op.publishes() {
            self.dispatch_atomic(&AtomicEvent {
                phase: AtomicPhase::Before,
                id: Some(a),
                op,
                outcome: CasOutcome::NotCas,
                handoff_from: None,
                handoff_wait: Duration::ZERO,
            });
            self.op_boundary();
        }
        self.clock += op.cost();
        // The spurious-failure seq counts *every* weak attempt, before
        // the outcome is known, so the stream is pure program order.
        let weak_seq = (op == AtomicOp::CasWeak).then(|| {
            self.cas_weak_seq += 1;
            self.cas_weak_seq
        });

        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        let spurious = match (weak_seq, st.cas_spurious) {
            (Some(seq), Some(model)) => spurious_roll(model.seed, self.id.0, seq, model.one_in),
            _ => false,
        };
        let rec = &mut st.atomics[a.0];
        let observed = rec.value;
        // Cross-thread hand-off edge: touching a cell last written by
        // another thread transfers the line — the observer cannot
        // proceed before the write's publication instant (+ hand-off),
        // exactly like a mutex release → acquire.
        let mut handoff_from = None;
        let mut handoff_wait = Duration::ZERO;
        if let Some(w) = rec.last_writer.filter(|&w| w != self.id.0) {
            let floor = rec.last_write_time + Duration::from_ns(HANDOFF_NS);
            handoff_wait = floor.saturating_duration_since(self.clock);
            self.clock = self.clock.max(floor);
            handoff_from = Some(ThreadId(w));
        }
        let (outcome, modified) = match op {
            AtomicOp::Load => (CasOutcome::NotCas, false),
            AtomicOp::Store => {
                rec.value = operand;
                (CasOutcome::NotCas, true)
            }
            AtomicOp::Swap => {
                rec.value = operand;
                (CasOutcome::NotCas, true)
            }
            AtomicOp::FetchAdd => {
                rec.value = observed.wrapping_add(operand);
                (CasOutcome::NotCas, true)
            }
            AtomicOp::CasStrong | AtomicOp::CasWeak => {
                if observed != expect {
                    (CasOutcome::Failure, false)
                } else if spurious {
                    (CasOutcome::Spurious, false)
                } else {
                    rec.value = operand;
                    (CasOutcome::Success, true)
                }
            }
            AtomicOp::Fence => unreachable!("fence takes the sim_fence path"),
        };
        if modified {
            rec.last_writer = Some(self.id.0);
            rec.last_write_time = self.clock;
        }
        // Livelock detection: a failed CAS means no progress; any
        // successful modification is progress and resets the streak.
        match outcome {
            CasOutcome::Failure | CasOutcome::Spurious => {
                st.threads[self.id.0].cas_fail_streak += 1;
                if st.threads[self.id.0].cas_fail_streak >= st.livelock_threshold {
                    let threshold = st.livelock_threshold;
                    let threads: Vec<ThreadId> = st
                        .threads
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.status != Status::Finished && t.cas_fail_streak > 0)
                        .map(|(i, _)| ThreadId(i))
                        .collect();
                    let sim_time = self.clock;
                    crate::engine::fail(
                        &shared,
                        &mut st,
                        SimFailure::Livelock {
                            threads,
                            threshold,
                            sim_time,
                        },
                    );
                    drop(st);
                    panic_any(ShutdownSignal);
                }
            }
            _ if modified => st.threads[self.id.0].cas_fail_streak = 0,
            _ => {}
        }
        drop(st);
        self.dispatch_atomic(&AtomicEvent {
            phase: AtomicPhase::After,
            id: Some(a),
            op,
            outcome,
            handoff_from,
            handoff_wait,
        });
        (observed, outcome)
    }

    // ------------------------------------------------------------------
    // Channels.
    // ------------------------------------------------------------------

    /// Creates a simulated-time MPSC channel from inside a thread.
    pub fn chan_new<T: Send>(&mut self) -> SimChannel<T> {
        SimChannel::new(new_channel(&self.shared, None))
    }

    /// Creates a bounded simulated-time channel from inside a thread.
    /// `capacity` 0 is a rendezvous; see
    /// [`Engine::bounded_channel`](crate::Engine::bounded_channel).
    pub fn chan_new_bounded<T: Send>(&mut self, capacity: usize) -> SimChannel<T> {
        SimChannel::new(new_channel(&self.shared, Some(capacity)))
    }

    /// Declares this thread a producer of `ch` without sending yet —
    /// needed so a receiver that blocks before our first send can name
    /// us in deadlock diagnosis (and so the channel is not considered
    /// producer-less). `chan_send` registers implicitly.
    pub fn chan_register_sender<T: Send>(&mut self, ch: &SimChannel<T>) {
        let mut st = self.shared.state.lock();
        register_sender(&mut st, ch.id().0, self.id.0);
    }

    /// Declares this thread a consumer of `ch` without receiving yet —
    /// the dual of [`chan_register_sender`](Self::chan_register_sender):
    /// a sender that blocks on a full queue before our first receive can
    /// name us as the drainer in deadlock diagnosis. `chan_recv` and
    /// friends register implicitly.
    pub fn chan_register_receiver<T: Send>(&mut self, ch: &SimChannel<T>) {
        let mut st = self.shared.state.lock();
        register_receiver(&mut st, ch.id().0, self.id.0);
    }

    /// Completes a send under the scheduler lock: payload into the
    /// host-side buffer, depth bump, one parked receiver woken at this
    /// instant plus the hand-off cost. Caller has verified room.
    fn complete_send_locked<T: Send>(&mut self, st: &mut SchedState, ch: &SimChannel<T>, value: T) {
        // Data and control plane move together under the scheduler
        // lock: INVARIANT queued == buf.len().
        ch.push(value);
        st.channels[ch.id().0].queued += 1;
        let mut min_wake = None;
        wake_one_receiver(st, ch.id().0, self.clock, &mut min_wake);
        if let Some(w) = min_wake {
            self.deadline = self.deadline.min(w + self.shared.quantum);
        }
    }

    /// Wakes one blocked sender after this receiver drained a slot (or
    /// parked, for a rendezvous pairing), trimming our lookahead so the
    /// freed producer runs promptly.
    fn wake_sender_after_pop(&mut self, st: &mut SchedState, ch: usize) {
        let mut min_wake = None;
        wake_one_blocked_sender(st, ch, self.clock, &mut min_wake);
        if let Some(w) = min_wake {
            self.deadline = self.deadline.min(w + self.shared.quantum);
        }
    }

    /// Sends `value` on `ch`, waking one parked receiver at this instant
    /// plus the hand-off cost. On an unbounded channel this never
    /// blocks; on a bounded channel a send against a full queue parks
    /// the sender off the runnable set — consuming zero simulated time
    /// beyond the wait itself — until a receiver frees a slot (or, for a
    /// rendezvous, parks to pair with us).
    ///
    /// # Panics
    ///
    /// Panics if the channel is closed (contained as
    /// [`SimFailure::ThreadPanic`](crate::SimFailure)).
    pub fn chan_send<T: Send>(&mut self, ch: &SimChannel<T>, value: T) {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let mut value = Some(value);
        loop {
            let shared = Arc::clone(&self.shared);
            let mut st = shared.state.lock();
            register_sender(&mut st, ch.id().0, self.id.0);
            let rec = &mut st.channels[ch.id().0];
            assert!(!rec.closed, "send on closed channel");
            if rec.has_room() {
                let v = value.take().expect("send payload consumed twice");
                self.complete_send_locked(&mut st, ch, v);
                return;
            }
            rec.blocked_senders.push_back(self.id.0);
            st.threads[self.id.0].status = Status::Blocked;
            st.threads[self.id.0].clock = self.clock;
            schedule_next(&shared, &mut st);
            self.park(st);
            // Woken by a drained slot, a newly parked rendezvous
            // receiver, or a close. Re-check: with multiple producers
            // another sender may have claimed the slot first.
        }
    }

    /// Non-blocking send.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] if the bounded queue is at capacity (or no
    /// receiver is parked on a rendezvous channel) right now,
    /// [`TrySendError::Closed`] if the channel is closed. The payload
    /// rides back in the error.
    pub fn chan_try_send<T: Send>(
        &mut self,
        ch: &SimChannel<T>,
        value: T,
    ) -> Result<(), TrySendError<T>> {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        register_sender(&mut st, ch.id().0, self.id.0);
        let rec = &st.channels[ch.id().0];
        if rec.closed {
            return Err(TrySendError::Closed(value));
        }
        if !rec.has_room() {
            return Err(TrySendError::Full(value));
        }
        self.complete_send_locked(&mut st, ch, value);
        Ok(())
    }

    /// Sends with a virtual-time deadline: like
    /// [`chan_send`](Self::chan_send) but a sender still blocked when
    /// `timeout` elapses wakes at exactly the deadline and gets its
    /// payload back. The timed wait is a scheduled virtual-time event —
    /// never a deadlock or hang candidate.
    ///
    /// # Errors
    ///
    /// [`SendTimeoutError::Timeout`] if the deadline expired with the
    /// queue still full, [`SendTimeoutError::Closed`] if the channel
    /// closed before the payload was accepted.
    pub fn chan_send_timeout<T: Send>(
        &mut self,
        ch: &SimChannel<T>,
        value: T,
        timeout: Duration,
    ) -> Result<(), SendTimeoutError<T>> {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let deadline = self.clock + timeout;
        let mut value = Some(value);
        loop {
            let shared = Arc::clone(&self.shared);
            let mut st = shared.state.lock();
            let me = self.id.0;
            register_sender(&mut st, ch.id().0, me);
            if st.threads[me].timed_wait.is_some_and(|w| w.expired) {
                st.threads[me].timed_wait = None;
                let v = value.take().expect("send payload consumed twice");
                return Err(SendTimeoutError::Timeout(v));
            }
            let closed = st.channels[ch.id().0].closed;
            if closed {
                st.threads[me].timed_wait = None;
                let v = value.take().expect("send payload consumed twice");
                return Err(SendTimeoutError::Closed(v));
            }
            if st.channels[ch.id().0].has_room() {
                st.threads[me].timed_wait = None;
                let v = value.take().expect("send payload consumed twice");
                self.complete_send_locked(&mut st, ch, v);
                return Ok(());
            }
            if self.clock >= deadline {
                // Zero/elapsed budget and no room: give up without
                // parking (covers `timeout == 0` as a try_send).
                st.threads[me].timed_wait = None;
                let v = value.take().expect("send payload consumed twice");
                return Err(SendTimeoutError::Timeout(v));
            }
            st.channels[ch.id().0].blocked_senders.push_back(me);
            st.threads[me].timed_wait = Some(TimedWait {
                deadline,
                channel: ch.id().0,
                expired: false,
            });
            st.threads[me].status = Status::Blocked;
            st.threads[me].clock = self.clock;
            schedule_next(&shared, &mut st);
            self.park(st);
        }
    }

    /// Receives the oldest payload from `ch`, parking off the runnable
    /// set (in virtual time, never spinning) while the channel is empty.
    /// Returns `None` once the channel is closed and drained.
    pub fn chan_recv<T: Send>(&mut self, ch: &SimChannel<T>) -> Option<T> {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        loop {
            let shared = Arc::clone(&self.shared);
            let mut st = shared.state.lock();
            register_receiver(&mut st, ch.id().0, self.id.0);
            let rec = &mut st.channels[ch.id().0];
            if rec.queued > 0 {
                rec.queued -= 1;
                let v = ch.pop().expect("channel buffer behind queued count");
                self.wake_sender_after_pop(&mut st, ch.id().0);
                return Some(v);
            }
            if rec.closed {
                return None;
            }
            rec.receivers.push_back(self.id.0);
            st.threads[self.id.0].status = Status::Blocked;
            st.threads[self.id.0].clock = self.clock;
            // Rendezvous pairing: our parking is the event a capacity-0
            // blocked sender waits for.
            self.wake_sender_after_pop(&mut st, ch.id().0);
            schedule_next(&shared, &mut st);
            self.park(st);
            // Woken by a send, an injection, or a close. Re-check: with
            // multiple consumers another receiver may have drained the
            // payload first, in which case we re-park.
        }
    }

    /// Receives with a virtual-time deadline: like
    /// [`chan_recv`](Self::chan_recv) but a receiver still empty-handed
    /// when `timeout` elapses wakes at exactly the deadline. The timed
    /// wait is a scheduled virtual-time event — never a deadlock or
    /// hang candidate, and the watchdog does not misclassify it.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if the deadline expired with the
    /// channel still empty, [`RecvTimeoutError::Closed`] once the
    /// channel is closed and drained.
    pub fn chan_recv_timeout<T: Send>(
        &mut self,
        ch: &SimChannel<T>,
        timeout: Duration,
    ) -> Result<T, RecvTimeoutError> {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let deadline = self.clock + timeout;
        loop {
            let shared = Arc::clone(&self.shared);
            let mut st = shared.state.lock();
            let me = self.id.0;
            register_receiver(&mut st, ch.id().0, me);
            if st.threads[me].timed_wait.is_some_and(|w| w.expired) {
                st.threads[me].timed_wait = None;
                return Err(RecvTimeoutError::Timeout);
            }
            let rec = &mut st.channels[ch.id().0];
            if rec.queued > 0 {
                rec.queued -= 1;
                st.threads[me].timed_wait = None;
                let v = ch.pop().expect("channel buffer behind queued count");
                self.wake_sender_after_pop(&mut st, ch.id().0);
                return Ok(v);
            }
            if rec.closed {
                st.threads[me].timed_wait = None;
                return Err(RecvTimeoutError::Closed);
            }
            if self.clock >= deadline {
                // Zero/elapsed budget and nothing queued: give up
                // without parking (covers `timeout == 0` as a
                // try_recv).
                st.threads[me].timed_wait = None;
                return Err(RecvTimeoutError::Timeout);
            }
            rec.receivers.push_back(me);
            st.threads[me].timed_wait = Some(TimedWait {
                deadline,
                channel: ch.id().0,
                expired: false,
            });
            st.threads[me].status = Status::Blocked;
            st.threads[me].clock = self.clock;
            self.wake_sender_after_pop(&mut st, ch.id().0);
            schedule_next(&shared, &mut st);
            self.park(st);
        }
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] if no payload is queued right now,
    /// [`TryRecvError::Closed`] once the channel is closed and drained.
    pub fn chan_try_recv<T: Send>(&mut self, ch: &SimChannel<T>) -> Result<T, TryRecvError> {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        register_receiver(&mut st, ch.id().0, self.id.0);
        let rec = &mut st.channels[ch.id().0];
        if rec.queued > 0 {
            rec.queued -= 1;
            let v = ch.pop().expect("channel buffer behind queued count");
            self.wake_sender_after_pop(&mut st, ch.id().0);
            return Ok(v);
        }
        if rec.closed {
            Err(TryRecvError::Closed)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Closes `ch`: parked receivers wake and drain; once the buffer
    /// empties, `chan_recv` returns `None`. Idempotent.
    pub fn chan_close<T: Send>(&mut self, ch: &SimChannel<T>) {
        self.op_boundary();
        self.clock += Duration::from_ns(LOCK_OP_NS);
        let shared = Arc::clone(&self.shared);
        let mut st = shared.state.lock();
        let mut min_wake = None;
        close_channel(&mut st, ch.id().0, self.clock, &mut min_wake);
        if let Some(w) = min_wake {
            self.deadline = self.deadline.min(w + shared.quantum);
        }
    }
}

/// Computes (yield deadline, next timer fire) for thread `id`.
fn compute_caches(st: &SchedState, id: usize, quantum: Duration) -> (SimTime, SimTime) {
    let min_other = st
        .threads
        .iter()
        .enumerate()
        .filter(|(i, t)| *i != id && t.status == Status::Runnable)
        .map(|(_, t)| t.clock)
        .min();
    let deadline = match min_other {
        Some(c) => c + quantum,
        None => FAR_FUTURE,
    };
    (deadline, next_event_cache(st))
}

/// The earliest pending virtual-time event a running thread must stop
/// for at an op boundary: a timer fire or a blocked thread's timed-wait
/// deadline. Both are scheduled events, so neither may slide past a
/// running thread's clock unobserved.
fn next_event_cache(st: &SchedState) -> SimTime {
    let timer = st.timers.iter().map(|t| t.next_fire).min();
    let wait = next_timed_wait(st).map(|(dl, _)| dl);
    match (timer, wait) {
        (Some(a), Some(b)) => a.min(b),
        (Some(a), None) | (None, Some(a)) => a,
        (None, None) => FAR_FUTURE,
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("id", &self.id)
            .field("core", &self.core)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}
