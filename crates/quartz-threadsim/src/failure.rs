//! Typed simulation-failure diagnostics.
//!
//! A misbehaving workload must not take the host process down with it:
//! [`Engine::try_run`](crate::Engine::try_run) returns one of these
//! instead of panicking, carrying enough structure for a harness to
//! *name* the fault — the lock cycle of a deadlock, the sim-thread that
//! panicked, the scheduler-token holder of a hang — and quarantine the
//! experiment while the rest of the fleet keeps running.
//!
//! All diagnostics are built from a single consistent snapshot of the
//! scheduler state (taken under the scheduler lock) and are ordered by
//! ascending thread id, so a failing run reports the *same* diagnostic
//! on every host at every `--jobs` count.

use quartz_platform::time::SimTime;

use crate::engine::{SchedState, Status, ThreadId};

/// Why a simulation run could not complete.
///
/// Returned by [`Engine::try_run`](crate::Engine::try_run);
/// [`Engine::run`](crate::Engine::run) converts it into a panic whose
/// message is this type's [`Display`](std::fmt::Display) output.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimFailure {
    /// No thread is runnable but live threads remain. The report names
    /// every non-finished thread, what it waits on, what it holds, and
    /// the actual wait-for cycle when one exists.
    Deadlock(DeadlockReport),
    /// A simulated thread's body panicked.
    ThreadPanic {
        /// The simulated thread whose body unwound.
        thread: ThreadId,
        /// The panic payload, rendered as text.
        message: String,
        /// The thread's virtual clock when the panic surfaced.
        sim_time: SimTime,
    },
    /// The host-side watchdog saw no scheduler hand-off for at least the
    /// configured budget of *host* time: the named thread holds the
    /// scheduler token and never reached an operation boundary (e.g. a
    /// pure-host infinite loop inside a workload body).
    Hang {
        /// The thread holding the scheduler token when the watchdog
        /// fired.
        thread: ThreadId,
        /// The configured host-time budget that elapsed without
        /// progress.
        budget: std::time::Duration,
        /// The hung thread's last published virtual clock.
        sim_time: SimTime,
    },
    /// The host-side scheduler machinery itself failed: the scheduler
    /// loop found no thread to resume while threads were still live, or
    /// the watchdog's helper OS thread died without finishing the run.
    /// This indicates an engine bug, not a workload bug, but is still
    /// reported as a typed failure so the root cause is not shadowed by
    /// a second panic.
    SchedulerLost {
        /// What was observed.
        detail: String,
    },
    /// A no-progress CAS spin storm: some thread accumulated the
    /// configured number of consecutive failed compare-exchanges with
    /// no successful atomic modification in between. Distinct from
    /// [`SimFailure::Hang`] — the threads *are* reaching operation
    /// boundaries (virtual time advances), they just never win.
    Livelock {
        /// Every live thread with a non-zero failure streak when the
        /// detector fired, ascending by id (the spinning thread set).
        threads: Vec<ThreadId>,
        /// The configured consecutive-failure threshold that was hit.
        threshold: u64,
        /// Virtual clock of the thread that hit the threshold.
        sim_time: SimTime,
    },
}

impl SimFailure {
    /// A short machine-checkable class name: `deadlock`, `panic`,
    /// `hang`, `scheduler_lost` or `livelock`.
    pub fn kind(&self) -> &'static str {
        match self {
            SimFailure::Deadlock(_) => "deadlock",
            SimFailure::ThreadPanic { .. } => "panic",
            SimFailure::Hang { .. } => "hang",
            SimFailure::SchedulerLost { .. } => "scheduler_lost",
            SimFailure::Livelock { .. } => "livelock",
        }
    }
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimFailure::Deadlock(report) => write!(f, "{report}"),
            SimFailure::ThreadPanic {
                thread,
                message,
                sim_time,
            } => {
                write!(f, "thread {thread} panicked at {sim_time}: {message}")
            }
            SimFailure::Hang {
                thread,
                budget,
                sim_time,
            } => write!(
                f,
                "hang: thread {thread} held the scheduler token past the \
                 {budget:?} watchdog budget without reaching an operation \
                 boundary (last virtual clock {sim_time})"
            ),
            SimFailure::SchedulerLost { detail } => {
                write!(f, "scheduler lost: {detail}")
            }
            SimFailure::Livelock {
                threads,
                threshold,
                sim_time,
            } => {
                let names: Vec<String> = threads.iter().map(|t| t.to_string()).collect();
                write!(
                    f,
                    "livelock: CAS spin storm — {} failed {threshold} consecutive \
                     compare-exchanges without an atomic modification succeeding \
                     (virtual clock {sim_time})",
                    names.join("+")
                )
            }
        }
    }
}

/// The scheduler state of a non-finished thread at failure time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable (should be impossible in a genuine deadlock — listed so
    /// an inconsistent snapshot is visible rather than hidden).
    Runnable,
    /// Blocked on a mutex, join, condition variable or barrier.
    Blocked,
}

impl std::fmt::Display for ThreadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadState::Runnable => write!(f, "runnable"),
            ThreadState::Blocked => write!(f, "blocked"),
        }
    }
}

/// What a blocked thread is waiting for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitTarget {
    /// Queued on a mutex, held by `owner` (None only if the snapshot is
    /// inconsistent — an unowned mutex never keeps waiters queued).
    Mutex {
        /// The mutex id.
        mutex: usize,
        /// Its current owner.
        owner: Option<ThreadId>,
    },
    /// Waiting in `join(target)`.
    Join {
        /// The joined thread.
        target: ThreadId,
    },
    /// Parked in `cond_wait` on this condition variable.
    Cond {
        /// The condition variable id.
        cond: usize,
    },
    /// Parked at a barrier that never filled.
    Barrier {
        /// The barrier id.
        barrier: usize,
        /// Threads that arrived so far.
        arrived: usize,
        /// Threads required to release the generation.
        parties: usize,
    },
    /// Parked in `chan_recv` on an empty channel.
    Channel {
        /// The channel id.
        channel: usize,
        /// The smallest-id live registered sender thread, if any — the
        /// thread this receiver transitively waits on.
        feeder: Option<ThreadId>,
        /// Open-loop event sources still feeding the channel. A
        /// receiver with `sources > 0` is waiting on virtual time, not
        /// on another thread.
        sources: usize,
    },
    /// Parked in a blocking `chan_send` on a *full* bounded channel.
    ChannelFull {
        /// The channel id.
        channel: usize,
        /// The smallest-id live registered consumer thread, if any —
        /// the drainer this sender transitively waits on to free a
        /// slot.
        drainer: Option<ThreadId>,
    },
}

impl std::fmt::Display for WaitTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitTarget::Mutex { mutex, owner } => match owner {
                Some(o) => write!(f, "mutex m{mutex} (held by {o})"),
                None => write!(f, "mutex m{mutex} (unowned?)"),
            },
            WaitTarget::Join { target } => write!(f, "join({target})"),
            WaitTarget::Cond { cond } => write!(f, "cond c{cond}"),
            WaitTarget::Barrier {
                barrier,
                arrived,
                parties,
            } => write!(f, "barrier b{barrier} ({arrived}/{parties} arrived)"),
            WaitTarget::Channel {
                channel,
                feeder,
                sources,
            } => {
                if *sources > 0 {
                    write!(f, "channel ch{channel} (source-fed)")
                } else {
                    match feeder {
                        Some(t) => write!(f, "channel ch{channel} (fed by {t})"),
                        None => write!(f, "channel ch{channel} (no live sender)"),
                    }
                }
            }
            WaitTarget::ChannelFull { channel, drainer } => match drainer {
                Some(t) => write!(f, "full channel ch{channel} (drained by {t})"),
                None => write!(f, "full channel ch{channel} (no live consumer)"),
            },
        }
    }
}

/// One non-finished thread in a [`DeadlockReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitingThread {
    /// The thread.
    pub thread: ThreadId,
    /// Its virtual clock at failure time.
    pub sim_time: SimTime,
    /// Its scheduler status.
    pub state: ThreadState,
    /// What it waits on, if anything is recorded.
    pub waits_on: Option<WaitTarget>,
    /// Mutex ids this thread currently owns, ascending.
    pub holds: Vec<usize>,
}

impl std::fmt::Display for WaitingThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}] @ {}", self.thread, self.state, self.sim_time)?;
        match &self.waits_on {
            Some(w) => write!(f, " waits on {w}")?,
            None => write!(f, " waits on <unknown>")?,
        }
        if !self.holds.is_empty() {
            let held: Vec<String> = self.holds.iter().map(|m| format!("m{m}")).collect();
            write!(f, ", holds {}", held.join("+"))?;
        }
        Ok(())
    }
}

/// The resource a wait-for cycle edge runs through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeVia {
    /// A lock-order edge: the waiter is queued on this mutex.
    Mutex(usize),
    /// A `join` edge.
    Join,
    /// A channel edge: the waiter is parked in `chan_recv` on this
    /// channel and the holder is its only hope of a payload.
    Channel(usize),
    /// A full-channel edge: the waiter is parked in a blocking
    /// `chan_send` on this bounded channel and the holder is the
    /// registered consumer that would free a slot.
    ChannelFull(usize),
}

/// One edge of the wait-for cycle: `thread` waits for `holder` through
/// the resource named by `via`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleEdge {
    /// The waiting thread.
    pub thread: ThreadId,
    /// The resource the wait runs through.
    pub via: EdgeVia,
    /// The thread it transitively waits on.
    pub holder: ThreadId,
}

impl CycleEdge {
    /// The mutex this edge waits through, if it is a lock-order edge.
    pub fn mutex(&self) -> Option<usize> {
        match self.via {
            EdgeVia::Mutex(m) => Some(m),
            _ => None,
        }
    }
}

impl std::fmt::Display for CycleEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.via {
            EdgeVia::Mutex(m) => write!(f, "{} -(m{m})-> {}", self.thread, self.holder),
            EdgeVia::Join => write!(f, "{} -(join)-> {}", self.thread, self.holder),
            EdgeVia::Channel(c) => write!(f, "{} -(ch{c})-> {}", self.thread, self.holder),
            EdgeVia::ChannelFull(c) => {
                write!(f, "{} -(ch{c} full)-> {}", self.thread, self.holder)
            }
        }
    }
}

/// A full deadlock diagnostic: every non-finished thread with its wait
/// target and held locks, plus the named wait-for cycle when one exists
/// (cond/barrier waits have no holder edge, so a deadlock made purely
/// of those reports an empty cycle but still lists every waiter).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// Every non-finished thread, ascending by id.
    pub threads: Vec<WaitingThread>,
    /// The wait-for cycle, rotated to start at the smallest thread id
    /// in it; empty when no mutex/join/channel cycle exists.
    pub cycle: Vec<CycleEdge>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadlock: {} non-finished thread(s)", self.threads.len())?;
        if self.cycle.is_empty() {
            write!(
                f,
                "; no mutex/join/channel cycle (condition/barrier/source wait)"
            )?;
        } else {
            let edges: Vec<String> = self.cycle.iter().map(|e| e.to_string()).collect();
            write!(f, "; cycle: {}", edges.join(", "))?;
        }
        for t in &self.threads {
            write!(f, "\n  {t}")?;
        }
        Ok(())
    }
}

/// Builds the full deadlock diagnostic from the scheduler state. Must be
/// called under the scheduler lock (takes `&SchedState`), so the
/// snapshot is consistent; the output is ordered by ascending thread id
/// and therefore deterministic.
pub(crate) fn deadlock_report(st: &SchedState) -> DeadlockReport {
    let n = st.threads.len();
    // waits_on[i]: recorded wait target of thread i.
    let mut waits_on: Vec<Option<WaitTarget>> = vec![None; n];
    // holds[i]: mutexes owned by thread i, ascending because we scan
    // mutex ids in order.
    let mut holds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (mid, m) in st.mutexes.iter().enumerate() {
        if let Some(owner) = m.owner {
            if owner < n {
                holds[owner].push(mid);
            }
        }
        for &w in &m.waiters {
            if w < n {
                waits_on[w] = Some(WaitTarget::Mutex {
                    mutex: mid,
                    owner: m.owner.map(ThreadId),
                });
            }
        }
    }
    for (cid, c) in st.conds.iter().enumerate() {
        for &(w, _) in &c.waiters {
            if w < n && waits_on[w].is_none() {
                waits_on[w] = Some(WaitTarget::Cond { cond: cid });
            }
        }
    }
    for (bid, b) in st.barriers.iter().enumerate() {
        for &w in &b.waiting {
            if w < n && waits_on[w].is_none() {
                waits_on[w] = Some(WaitTarget::Barrier {
                    barrier: bid,
                    arrived: b.waiting.len(),
                    parties: b.parties,
                });
            }
        }
    }
    // Join edges: `joiners` lives on the join *target*.
    for (target, t) in st.threads.iter().enumerate() {
        for &j in &t.joiners {
            if j < n && waits_on[j].is_none() {
                waits_on[j] = Some(WaitTarget::Join {
                    target: ThreadId(target),
                });
            }
        }
    }
    // Channel edges: a parked receiver transitively waits on the
    // smallest-id live registered sender (deterministic pick; `senders`
    // is kept sorted). With open-loop sources still attached the wait is
    // on virtual time, not a thread, and carries no holder edge.
    for (cid, c) in st.channels.iter().enumerate() {
        let feeder = c
            .senders
            .iter()
            .copied()
            .find(|&s| s < n && st.threads[s].status != Status::Finished)
            .map(ThreadId);
        for &w in &c.receivers {
            if w < n && waits_on[w].is_none() {
                waits_on[w] = Some(WaitTarget::Channel {
                    channel: cid,
                    feeder,
                    sources: c.sources,
                });
            }
        }
        // A blocked sender on a full bounded channel transitively waits
        // on the smallest-id live registered consumer (`consumers` is
        // kept sorted). Timed waits never reach this report — the
        // scheduler expires them as pending virtual-time events before
        // declaring a deadlock.
        let drainer = c
            .consumers
            .iter()
            .copied()
            .find(|&r| r < n && st.threads[r].status != Status::Finished)
            .map(ThreadId);
        for &w in &c.blocked_senders {
            if w < n && waits_on[w].is_none() {
                waits_on[w] = Some(WaitTarget::ChannelFull {
                    channel: cid,
                    drainer,
                });
            }
        }
    }

    let threads: Vec<WaitingThread> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status != Status::Finished)
        .map(|(i, t)| WaitingThread {
            thread: ThreadId(i),
            sim_time: t.clock,
            state: match t.status {
                Status::Runnable => ThreadState::Runnable,
                _ => ThreadState::Blocked,
            },
            waits_on: waits_on[i],
            holds: holds[i].clone(),
        })
        .collect();

    // Wait-for successor for cycle detection: mutex edges point at the
    // owner, join edges at the join target, channel edges at the
    // feeder (only once no open-loop source can still deliver).
    // Cond/barrier waits have no single holder and terminate a walk.
    let succ = |i: usize| -> Option<(EdgeVia, usize)> {
        match waits_on[i] {
            Some(WaitTarget::Mutex {
                mutex,
                owner: Some(o),
            }) => Some((EdgeVia::Mutex(mutex), o.0)),
            Some(WaitTarget::Join { target }) => Some((EdgeVia::Join, target.0)),
            Some(WaitTarget::Channel {
                channel,
                feeder: Some(t),
                sources: 0,
            }) => Some((EdgeVia::Channel(channel), t.0)),
            Some(WaitTarget::ChannelFull {
                channel,
                drainer: Some(t),
            }) => Some((EdgeVia::ChannelFull(channel), t.0)),
            _ => None,
        }
    };
    let mut cycle: Vec<CycleEdge> = Vec::new();
    'outer: for start in 0..n {
        if st.threads[start].status == Status::Finished {
            continue;
        }
        let mut path: Vec<(usize, EdgeVia)> = Vec::new(); // (thread, via)
        let mut cur = start;
        loop {
            if let Some(pos) = path.iter().position(|&(t, _)| t == cur) {
                // path[pos..] closes a cycle back to `cur`. Each stored
                // entry is (thread, mutex-it-waits-through).
                let nodes = &path[pos..];
                let mut edges = Vec::with_capacity(nodes.len());
                for (k, &(t, via)) in nodes.iter().enumerate() {
                    let holder = nodes.get(k + 1).map(|&(h, _)| h).unwrap_or(cur);
                    edges.push(CycleEdge {
                        thread: ThreadId(t),
                        via,
                        holder: ThreadId(holder),
                    });
                }
                // Rotate to start at the smallest thread id for
                // deterministic reporting.
                if let Some(min_pos) = edges
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.thread.0)
                    .map(|(k, _)| k)
                {
                    edges.rotate_left(min_pos);
                }
                cycle = edges;
                break 'outer;
            }
            match succ(cur) {
                Some((via, next)) => {
                    path.push((cur, via));
                    cur = next;
                }
                None => continue 'outer,
            }
        }
    }

    DeadlockReport { threads, cycle }
}
