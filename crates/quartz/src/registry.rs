//! Sharded per-thread emulator state.
//!
//! The seed kept every thread's epoch state in one global
//! `Mutex<HashMap<usize, PerThread>>`, acquired two to four times per
//! interposition event and held by the monitor while it scanned all
//! live threads — the exact serialization the paper's minimum-epoch
//! knob exists to avoid (§3.2: per-lock-release work must stay cheap).
//! Worse, `end_epoch` was check-then-act across two acquisitions, so a
//! concurrent close in the window between them could charge the same
//! counter delta twice.
//!
//! This module replaces it with a slot-per-thread registry:
//!
//! * **Registration** hands each thread a fixed slot from an atomic
//!   counter; slots live in a `Vec` indexed by the engine's dense
//!   [`ThreadId`](quartz_threadsim::ThreadId) values behind a `RwLock`
//!   taken for writing only at registration, retirement and reaping.
//! * **Owner-only state** (`snap`, stats, pending flushes, the slot
//!   lock's own telemetry) sits behind each slot's own fine-grained
//!   mutex, acquired **once** per event.
//! * **Monitor-readable state** (`epoch_start`) is an atomic timestamp:
//!   the monitor's age scan takes no per-thread lock at all.
//! * **Steady-state lookup** takes no lock at all: each OS thread caches
//!   the slot handle it last used (see [`SlotRegistry::with_slot`]).
//!   An engine runs its simulated threads as coroutines on one OS thread,
//!   so they share that entry. Its key includes the simulated thread id,
//!   so the first lookup after a hand-off to another thread misses and
//!   refills it (one read lock and one `Arc` clone), and a lookup never
//!   returns another thread's slot. Between hand-offs every lookup hits.
//!   Any registration, retirement or reap also invalidates the entry, so
//!   each thread spawn costs one locked refill at the next lookup.
//! * **Run boundary.** [`Quartz::attach`](crate::Quartz::attach) starts a
//!   run: it retires the previous run's live slots, which leave lookups
//!   and the failure reaper's reach but keep counting in the aggregates.
//!
//! Lock-ordering rules (see DESIGN.md "Sharded per-thread state"):
//!
//! 1. the registry's `RwLock` is always taken before any slot lock and
//!    released before blocking operations;
//! 2. at most one slot lock is held at a time (aggregation iterates
//!    slots one by one);
//! 3. slot locks are never taken from monitor/timer callbacks — those
//!    read only the atomic fields;
//! 4. nothing borrows the per-OS-thread slot cache across a call out:
//!    a lookup moves the handle out of the cache and back afterwards,
//!    so a lookup nested inside [`SlotRegistry::with_slot`]'s closure
//!    finds the cache empty and falls back to the registry's read lock.
//!    Only a closure that calls into `ThreadCtx` could nest one, and
//!    today that is `end_epoch_on`'s, which runs inside a hook, where
//!    the engine fires no nested hook; the pmem primitives' closures
//!    return before their `ctx.spin`. So that fallback never runs with
//!    a slot lock held (rule 1).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, MutexGuard, RwLock};
use quartz_platform::pmu::bank::StandardCounters;
use quartz_platform::time::SimTime;

use crate::runtime::Snap;
use crate::stats::ThreadStats;

/// State only ever mutated by the owning thread (under the slot lock).
pub(crate) struct SlotOwner {
    /// The performance-counter bank programmed at registration.
    pub counters: StandardCounters,
    /// Counter snapshot at the current epoch's start.
    pub snap: Snap,
    /// Per-thread accounting, including the slot lock's acquisitions
    /// and wait time, which [`ThreadSlot::lock_owner`] counts here.
    pub stats: ThreadStats,
    /// Pending `clflushopt` NVM completions, drained by `pcommit`:
    /// `(cache line, expected NVM completion time)`. Keyed by line so a
    /// repeated `pflush_opt` of the same line within one window updates
    /// in place instead of growing the vec unboundedly; `pcommit` keeps
    /// the max completion time either way.
    pub pending_flushes: Vec<(u64, SimTime)>,
    /// Instant this thread's NVM write-pending queue next has a free
    /// drain slot, for `pflush` pacing at the target's write bandwidth.
    /// Stays at `ZERO` (and the pacing path never runs) unless
    /// `write_bandwidth_gbps` is configured.
    pub wpq_next_free: SimTime,
}

/// One thread's emulator state: atomics the monitor may read without
/// synchronization, plus the owner-only interior behind a per-slot lock.
pub(crate) struct ThreadSlot {
    /// Slot index handed out by the registration counter.
    pub slot: u64,
    /// Epoch start as picoseconds since time zero. Written by the owner
    /// at each epoch boundary (`Release`), read by the monitor's age
    /// scan (`Acquire`) with no lock.
    epoch_start_ps: AtomicU64,
    owner: Mutex<SlotOwner>,
}

impl ThreadSlot {
    /// The current epoch's start instant (lock-free).
    pub fn epoch_start(&self) -> SimTime {
        SimTime::from_ps(self.epoch_start_ps.load(Ordering::Acquire))
    }

    /// Opens a new epoch at `at` (lock-free for readers).
    pub fn set_epoch_start(&self, at: SimTime) {
        self.epoch_start_ps.store(at.as_ps(), Ordering::Release);
    }

    /// Acquires the owner-state lock, counting the acquisition and any
    /// host-side wait under the lock itself. This is the **only** way
    /// hot-path code touches shared per-thread state, which keeps it to
    /// one acquisition per event.
    pub fn lock_owner(&self) -> MutexGuard<'_, SlotOwner> {
        let mut g = match self.owner.try_lock() {
            Some(g) => g,
            None => {
                let t0 = Instant::now();
                let mut g = self.owner.lock();
                g.stats.lock_wait_ns += t0.elapsed().as_nanos() as u64;
                g
            }
        };
        g.stats.lock_acquisitions += 1;
        g
    }

    /// Non-blocking owner-state acquisition, not counted. Used by the
    /// failure reaper (a slot whose owner lock is still held belongs to
    /// a detached hung thread and must not be blocked on) and by tests
    /// (the race-regression midpoint probe); hot-path code always goes
    /// through [`ThreadSlot::lock_owner`] for the accounting.
    pub fn try_lock_owner(&self) -> Option<MutexGuard<'_, SlotOwner>> {
        self.owner.try_lock()
    }
}

/// Source of the process-unique [`SlotRegistry`] ids.
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(0);

/// One OS thread's cached slot handle, valid while the registry it came
/// from still has the same id, generation and thread id.
struct CachedSlot {
    registry: u64,
    generation: u64,
    tid: usize,
    slot: Arc<ThreadSlot>,
}

thread_local! {
    /// The handle this OS thread last looked up (rule 4: moved out for
    /// each use, never borrowed).
    static SLOT_CACHE: Cell<Option<CachedSlot>> = const { Cell::new(None) };
}

/// The slot table behind the registry's lock.
struct Slots {
    /// Live slots, indexed by thread id.
    live: Vec<Option<Arc<ThreadSlot>>>,
    /// Slots of earlier runs, moved here by [`SlotRegistry::retire_all`]
    /// when a `Quartz` is attached to another engine, whose threads
    /// register from id 0 again. A finished run's stats still count in
    /// the aggregates.
    retired: Vec<Arc<ThreadSlot>>,
}

/// The registry of per-thread slots.
///
/// Indexed by the engine's dense thread ids; the `RwLock` is write-held
/// only at registration, retirement and reaping. Steady-state lookups
/// go through [`SlotRegistry::with_slot`] and take no lock.
pub(crate) struct SlotRegistry {
    /// Process-unique: a cached handle is only ever used with the
    /// registry it came from.
    id: u64,
    /// Bumped under the write lock by every `register`, `retire_all` and
    /// `reap_all`, which are the only changes to the table; a cached
    /// handle from an older generation may name a replaced, retired or
    /// reaped slot. The bump's Release pairs with `with_slot`'s Acquire
    /// load, so a thread that sees the new generation also sees the
    /// changed table.
    generation: AtomicU64,
    slots: RwLock<Slots>,
    next_slot: AtomicU64,
}

impl SlotRegistry {
    /// An empty registry pre-sized for `capacity` threads.
    pub fn with_capacity(capacity: usize) -> Self {
        SlotRegistry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            slots: RwLock::new(Slots {
                live: Vec::with_capacity(capacity),
                retired: Vec::new(),
            }),
            next_slot: AtomicU64::new(0),
        }
    }

    /// Registers thread `tid`, claiming the next slot index.
    pub fn register(
        &self,
        tid: usize,
        counters: StandardCounters,
        snap: Snap,
        epoch_start: SimTime,
    ) -> Arc<ThreadSlot> {
        let slot_index = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ThreadSlot {
            slot: slot_index,
            epoch_start_ps: AtomicU64::new(epoch_start.as_ps()),
            owner: Mutex::new(SlotOwner {
                counters,
                snap,
                stats: ThreadStats::default(),
                pending_flushes: Vec::new(),
                wpq_next_free: SimTime::ZERO,
            }),
        });
        let mut slots = self.slots.write();
        if slots.live.len() <= tid {
            slots.live.resize_with(tid + 1, || None);
        }
        slots.live[tid] = Some(Arc::clone(&slot));
        self.generation.fetch_add(1, Ordering::Release);
        slot
    }

    /// Starts a new run: every live slot retires. Retired slots leave
    /// lookups and [`SlotRegistry::reap_all`]'s reach, but keep counting
    /// in [`SlotRegistry::snapshot`], so a finished run's accounting
    /// survives a later run that reuses its thread ids, or fails.
    pub fn retire_all(&self) {
        let mut slots = self.slots.write();
        let Slots { live, retired } = &mut *slots;
        retired.extend(live.drain(..).flatten());
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Runs `f` on thread `tid`'s slot; `None` if `tid` is not
    /// registered.
    ///
    /// The calling OS thread's cached handle serves the lookup when it
    /// came from this registry, at the current generation, for `tid`:
    /// then no lock is taken and no reference count changes. Otherwise
    /// the slot is read under the lock and becomes the cached handle.
    /// The handle is moved out of the cache while `f` runs (rule 4), so
    /// a lookup nested inside `f` reads the table instead of aliasing
    /// the cache.
    pub fn with_slot<R>(&self, tid: usize, f: impl FnOnce(&ThreadSlot) -> R) -> Option<R> {
        let generation = self.generation.load(Ordering::Acquire);
        let cached = SLOT_CACHE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .filter(|c| c.registry == self.id && c.generation == generation && c.tid == tid);
        let entry = match cached {
            Some(entry) => entry,
            None => {
                let slots = self.slots.read();
                CachedSlot {
                    registry: self.id,
                    // Stable while the read lock is held: writers bump
                    // it under the write lock.
                    generation: self.generation.load(Ordering::Relaxed),
                    tid,
                    slot: slots.live.get(tid).and_then(Clone::clone)?,
                }
            }
        };
        let r = f(&entry.slot);
        // Fails only while the thread's locals are being destroyed; the
        // handle is then simply dropped.
        let _ = SLOT_CACHE.try_with(|c| c.set(Some(entry)));
        Some(r)
    }

    /// Threads registered so far (the atomic registration counter).
    pub fn registered(&self) -> u64 {
        self.next_slot.load(Ordering::Relaxed)
    }

    /// Snapshot of every slot whose stats count: the live ones and the
    /// retired ones of earlier runs. The read guard is dropped before the
    /// caller touches any slot lock (ordering rule 1).
    pub fn snapshot(&self) -> Vec<Arc<ThreadSlot>> {
        let slots = self.slots.read();
        slots
            .live
            .iter()
            .flatten()
            .chain(&slots.retired)
            .cloned()
            .collect()
    }

    /// Drains **every** live slot, returning the reaped handles for
    /// post-mortem inspection. Called by the failure reaper after a
    /// contained [`SimFailure`](quartz_threadsim::SimFailure): the
    /// failed run's per-thread state must not leak into the aggregates
    /// of subsequent runs sharing this runtime. Retired slots of earlier
    /// runs stay. The registration counter is *not* reset — slot
    /// indices stay process-unique.
    ///
    /// Lock ordering: takes only the registry write lock and releases
    /// it before the caller touches any slot lock (rule 1); callers
    /// must use [`ThreadSlot::try_lock_owner`] on the returned handles
    /// because a detached hung thread may still hold one.
    pub fn reap_all(&self) -> Vec<Arc<ThreadSlot>> {
        let mut slots = self.slots.write();
        self.generation.fetch_add(1, Ordering::Release);
        slots.live.drain(..).flatten().collect()
    }

    /// Epoch starts of the given thread ids, read without any per-thread
    /// lock. Missing/unregistered ids yield `None`.
    pub fn epoch_starts(&self, tids: &[usize]) -> Vec<Option<SimTime>> {
        let slots = self.slots.read();
        tids.iter()
            .map(|&tid| {
                slots
                    .live
                    .get(tid)
                    .and_then(|s| s.as_ref())
                    .map(|s| s.epoch_start())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_platform::time::Duration;

    fn dummy_counters() -> StandardCounters {
        // The counter bank layout is opaque here; registry tests only
        // need *a* value to store. Use the platform to mint one.
        use quartz_platform::{Architecture, CoreId, Platform, PlatformConfig};
        let p = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
        p.kernel_module().program_standard_counters(CoreId(0).0)
    }

    fn registered(reg: &SlotRegistry, tid: usize) -> Option<u64> {
        reg.with_slot(tid, |s| s.slot)
    }

    #[test]
    fn register_and_lookup() {
        let reg = SlotRegistry::with_capacity(4);
        assert!(registered(&reg, 0).is_none());
        let s = reg.register(2, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(s.slot, 0);
        assert_eq!(reg.registered(), 1);
        assert_eq!(registered(&reg, 2), Some(0));
        assert!(registered(&reg, 1).is_none());
        let s2 = reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(s2.slot, 1);
        assert_eq!(reg.snapshot().len(), 2);
    }

    #[test]
    fn reap_all_drains_slots_but_keeps_counter() {
        let reg = SlotRegistry::with_capacity(4);
        reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        reg.register(1, dummy_counters(), Snap::default(), SimTime::ZERO);
        // Prime this thread's cache with slot 0: the reap must retire it.
        assert_eq!(registered(&reg, 0), Some(0));
        let reaped = reg.reap_all();
        assert_eq!(reaped.len(), 2);
        assert!(registered(&reg, 0).is_none() && registered(&reg, 1).is_none());
        assert!(reg.snapshot().is_empty());
        // Slot indices stay process-unique across the reap.
        assert_eq!(reg.registered(), 2);
        let s = reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(s.slot, 2);
        assert_eq!(registered(&reg, 0), Some(2));
    }

    #[test]
    fn retired_slots_leave_lookups_but_keep_counting() {
        let reg = SlotRegistry::with_capacity(2);
        reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        reg.register(1, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(registered(&reg, 0), Some(0)); // cached
        reg.retire_all();
        // The cached handle is stale: the retired slot left lookups.
        assert!(registered(&reg, 0).is_none() && registered(&reg, 1).is_none());
        reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(registered(&reg, 0), Some(2));
        // All three slots count; reaping removes only the live one.
        let mut all: Vec<u64> = reg.snapshot().iter().map(|s| s.slot).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
        assert_eq!(reg.reap_all().len(), 1);
        assert_eq!(reg.snapshot().len(), 2);
    }

    #[test]
    fn re_registration_replaces_a_cached_slot() {
        // No engine registers a thread id twice in one run, but if one
        // did, the lookup must follow the table, not the cached handle.
        let reg = SlotRegistry::with_capacity(1);
        reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(registered(&reg, 0), Some(0)); // cached
        reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        assert_eq!(registered(&reg, 0), Some(1));
    }

    #[test]
    fn cached_handles_are_per_registry_and_per_thread_id() {
        let a = SlotRegistry::with_capacity(2);
        let b = SlotRegistry::with_capacity(2);
        a.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        a.register(1, dummy_counters(), Snap::default(), SimTime::ZERO);
        b.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        b.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        for _ in 0..2 {
            assert_eq!(registered(&a, 0), Some(0));
            assert_eq!(registered(&b, 0), Some(1));
            assert_eq!(registered(&a, 1), Some(1));
            assert!(registered(&b, 1).is_none());
        }
    }

    #[test]
    fn with_slot_reenters_without_panicking() {
        let reg = SlotRegistry::with_capacity(1);
        reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        // A nested lookup (a hook firing inside the closure) finds the
        // cache empty, reads the registry, and sees the same slot.
        let nested = reg.with_slot(0, |outer| {
            drop(outer.lock_owner());
            reg.with_slot(0, |inner| {
                drop(inner.lock_owner());
                std::ptr::eq(outer, inner)
            })
        });
        assert_eq!(nested, Some(Some(true)));
        let counted = reg.with_slot(0, |s| s.try_lock_owner().unwrap().stats.lock_acquisitions);
        assert_eq!(counted, Some(2), "each acquisition counted once");
    }

    #[test]
    fn epoch_start_is_lock_free_readable_while_owner_held() {
        let reg = SlotRegistry::with_capacity(1);
        let s = reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        let guard = s.lock_owner();
        // Owner lock held: the monitor-style read still proceeds.
        s.set_epoch_start(SimTime::ZERO + Duration::from_ns(123));
        assert_eq!(
            reg.epoch_starts(&[0]),
            vec![Some(SimTime::ZERO + Duration::from_ns(123))]
        );
        drop(guard);
    }

    #[test]
    fn lock_wait_accounting_counts_contention() {
        let reg = SlotRegistry::with_capacity(1);
        let s = reg.register(0, dummy_counters(), Snap::default(), SimTime::ZERO);
        let telemetry = |s: &ThreadSlot| {
            let g = s.try_lock_owner().expect("uncontended");
            (g.stats.lock_acquisitions, g.stats.lock_wait_ns)
        };
        assert_eq!(telemetry(&s), (0, 0));
        drop(s.lock_owner());
        // Uncontended fast path records no wait.
        assert_eq!(telemetry(&s), (1, 0));

        let s2 = Arc::clone(&s);
        let g = s.lock_owner();
        let h = std::thread::spawn(move || {
            drop(s2.lock_owner()); // must wait for `g`
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(g);
        h.join().unwrap();
        let (acquisitions, waited) = telemetry(&s);
        assert_eq!(acquisitions, 3);
        assert!(waited > 0, "contended acquisition records wait time");
    }
}
