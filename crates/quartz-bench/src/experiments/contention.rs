//! Interposition hot-path contention microbenchmark.
//!
//! Two views of the cost the sharded per-thread registry removes:
//!
//! 1. **Emulated unlock storm** — N simulated threads hammer
//!    lock/unlock with and without monitor pressure, and the emulator's
//!    own host-side telemetry reports slot-lock acquisitions and the
//!    host nanoseconds spent *waiting* on them. With the sharded design
//!    the monitor's age scan takes no per-thread lock, so monitor
//!    pressure must not add measurable wait.
//! 2. **Locking-discipline A/B on real OS threads** — the seed kept all
//!    per-thread state in one global `Mutex<HashMap>` acquired three
//!    times per interposition event (age check, snapshot read, stats
//!    write-back), with the monitor scanning the whole map under the
//!    same lock. The replacement gives each thread its own slot: one
//!    atomic age read, one fine-grained lock acquisition per event, and
//!    a lock-free monitor scan. Both disciplines are reproduced here
//!    verbatim and driven by ≥8 genuinely parallel OS threads.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use quartz::{NvmTarget, QuartzConfig};
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, NodeId};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::report::{f, Table};
use crate::{run_workload, MachineSpec};

/// Part 1: a lock/unlock storm under the real emulator. Returns
/// `(host_ns_per_event, events, lock_wait_ns, epochs)` where an "event"
/// is one slot-lock acquisition (interposition touching shared state).
fn emulated_storm(threads: u64, rounds: u64, monitor_pressure: bool) -> (f64, u64, u64, u64) {
    let mem = MachineSpec::new(Architecture::IvyBridge)
        .with_seed(7)
        .build();
    let max_epoch = if monitor_pressure {
        Duration::from_us(20)
    } else {
        Duration::from_ms(10)
    };
    let cfg = QuartzConfig::new(NvmTarget::new(400.0))
        .with_max_epoch(max_epoch)
        .with_min_epoch(Duration::ZERO); // every unlock closes an epoch
    let host_t0 = Instant::now();
    let (_, quartz) = run_workload(mem, Some(cfg), move |ctx, _| {
        let m = ctx.mutex_new();
        let lines = ctx.mem().config().l3.size_bytes / 64;
        let mut kids = Vec::new();
        for k in 0..threads {
            kids.push(ctx.spawn(move |c| {
                let buf = c.alloc_on(NodeId(0), lines * 64);
                let mut idx = 17 * k + 1;
                for _ in 0..rounds {
                    c.mutex_lock(m);
                    for _ in 0..4 {
                        idx = (idx.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % lines;
                        c.load(buf.offset_by(idx * 64));
                    }
                    c.mutex_unlock(m);
                }
            }));
        }
        for kid in kids {
            ctx.join(kid);
        }
    });
    let host_ns = host_t0.elapsed().as_nanos() as f64;
    let stats = quartz.expect("quartz attached").stats();
    let events = stats.totals.lock_acquisitions.max(1);
    (
        host_ns / events as f64,
        events,
        stats.totals.lock_wait_ns,
        stats.totals.epochs(),
    )
}

/// Seed-style per-thread state: everything behind one global map lock.
#[derive(Default)]
struct SeedPerThread {
    epoch_start: u64,
    snap: u64,
    stats: u64,
}

/// Part 2a: the seed discipline. Each event performs the seed's three
/// acquisitions of the single global `Mutex<HashMap>` — age check,
/// snapshot read, stats write-back — while an optional monitor thread
/// scans every entry under the same lock. Returns host ns/event.
fn seed_discipline(nthreads: usize, events: u64, monitor: bool) -> f64 {
    let map: Arc<Mutex<HashMap<usize, SeedPerThread>>> = Arc::new(Mutex::new(HashMap::new()));
    for t in 0..nthreads {
        map.lock().insert(t, SeedPerThread::default());
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mon = monitor.then(|| {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut acc = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // The seed's monitor: lock the map, scan all threads.
                for pt in map.lock().values() {
                    acc = acc.wrapping_add(pt.epoch_start);
                }
                black_box(acc);
                thread::yield_now();
            }
        })
    });
    let barrier = Arc::new(Barrier::new(nthreads + 1));
    let workers: Vec<_> = (0..nthreads)
        .map(|t| {
            let map = Arc::clone(&map);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for e in 0..events {
                    // Acquisition 1: minimum-epoch age check.
                    let age = map.lock().get(&t).map(|pt| pt.epoch_start).unwrap_or(0);
                    // Acquisition 2: read the counter snapshot.
                    let snap = map.lock().get(&t).map(|pt| pt.snap).unwrap_or(0);
                    let delta = black_box(e.wrapping_sub(snap).wrapping_add(age));
                    // Acquisition 3: write back snap + stats.
                    let mut g = map.lock();
                    if let Some(pt) = g.get_mut(&t) {
                        pt.snap = e;
                        pt.stats = pt.stats.wrapping_add(delta);
                        pt.epoch_start = e;
                    }
                }
            })
        })
        .collect();
    // Start the clock before the barrier releases the workers: read
    // after it, a worker could finish before the clock started.
    let t0 = Instant::now();
    barrier.wait();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    stop.store(true, Ordering::Relaxed);
    if let Some(m) = mon {
        m.join().unwrap();
    }
    elapsed / (nthreads as u64 * events) as f64
}

/// Sharded per-thread slot, as in `quartz::registry`: monitor-readable
/// atomics plus an owner-only interior behind a fine-grained lock.
struct BenchSlot {
    epoch_start: AtomicU64,
    owner: Mutex<(u64, u64)>, // (snap, stats)
}

/// Part 2b: the sharded discipline. One atomic age read plus one
/// slot-lock acquisition per event; the monitor scans atomics only.
fn sharded_discipline(nthreads: usize, events: u64, monitor: bool) -> f64 {
    let slots: Arc<RwLock<Vec<Arc<BenchSlot>>>> = Arc::new(RwLock::new(
        (0..nthreads)
            .map(|_| {
                Arc::new(BenchSlot {
                    epoch_start: AtomicU64::new(0),
                    owner: Mutex::new((0, 0)),
                })
            })
            .collect(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let mon = monitor.then(|| {
        let slots = Arc::clone(&slots);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut acc = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Lock-free age scan: atomics only, no slot lock.
                for s in slots.read().iter() {
                    acc = acc.wrapping_add(s.epoch_start.load(Ordering::Acquire));
                }
                black_box(acc);
                thread::yield_now();
            }
        })
    });
    let barrier = Arc::new(Barrier::new(nthreads + 1));
    let workers: Vec<_> = (0..nthreads)
        .map(|t| {
            let slot = Arc::clone(&slots.read()[t]);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                for e in 0..events {
                    // Lock-free age check.
                    let age = slot.epoch_start.load(Ordering::Acquire);
                    // The one-and-only lock acquisition for this event.
                    let mut owner = slot.owner.lock();
                    let delta = black_box(e.wrapping_sub(owner.0).wrapping_add(age));
                    owner.0 = e;
                    owner.1 = owner.1.wrapping_add(delta);
                    drop(owner);
                    slot.epoch_start.store(e, Ordering::Release);
                }
            })
        })
        .collect();
    // Start the clock before the barrier releases the workers: read
    // after it, a worker could finish before the clock started.
    let t0 = Instant::now();
    barrier.wait();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    stop.store(true, Ordering::Relaxed);
    if let Some(m) = mon {
        m.join().unwrap();
    }
    elapsed / (nthreads as u64 * events) as f64
}

/// Runs the contention study. Host-timed (wall-clock `Instant` around
/// real OS threads), so it is the one experiment excluded from the
/// byte-identical determinism contract; it always evaluates serially.
pub struct Contention;

impl Experiment for Contention {
    fn name(&self) -> &'static str {
        "contention"
    }

    fn description(&self) -> &'static str {
        "interposition hot-path contention: emulated storm + locking-discipline A/B"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.2 (extension)"
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        // Part 1: the real emulator under a synchronization storm.
        let rounds = if ctx.quick() { 150 } else { 600 };
        let mut storm = Table::new(
            "Contention (1) — emulated unlock storm, host-side slot-lock telemetry",
            &[
                "sim threads",
                "monitor",
                "events",
                "host ns/event",
                "lock wait ns",
                "epochs",
            ],
        );
        for threads in [1u64, 2, 4, 8] {
            for pressure in [false, true] {
                let (ns_per_event, events, wait_ns, epochs) =
                    emulated_storm(threads, rounds, pressure);
                storm.row(&[
                    threads.to_string(),
                    if pressure {
                        "20 µs epochs"
                    } else {
                        "10 ms epochs"
                    }
                    .into(),
                    events.to_string(),
                    f(ns_per_event, 1),
                    wait_ns.to_string(),
                    epochs.to_string(),
                ]);
            }
        }
        // Part 2: seed vs sharded locking discipline on real OS threads.
        let events = if ctx.quick() { 40_000 } else { 200_000 };
        let mut ab = Table::new(
            "Contention (2) — per-event host ns, global Mutex<HashMap> (seed) vs sharded slots",
            &[
                "os threads",
                "monitor",
                "seed ns/event",
                "sharded ns/event",
                "speedup",
            ],
        );
        let mut speedup_at_8 = 0.0;
        for nthreads in [1usize, 2, 4, 8, 16] {
            for monitor in [false, true] {
                let seed = seed_discipline(nthreads, events, monitor);
                let sharded = sharded_discipline(nthreads, events, monitor);
                let speedup = seed / sharded.max(f64::MIN_POSITIVE);
                if nthreads == 8 && monitor {
                    speedup_at_8 = speedup;
                }
                ab.row(&[
                    nthreads.to_string(),
                    if monitor { "yes" } else { "no" }.into(),
                    f(seed, 1),
                    f(sharded, 1),
                    f(speedup, 2),
                ]);
            }
        }
        let mut report = ExpReport::default();
        report.table(storm).table(ab);
        report
        .note("(the monitor's age scan is lock-free: monitor pressure multiplies epochs")
        .note(" but must not grow per-event cost or slot-lock wait)")
        .note(format!(
            "(sharding pays off where it matters: {speedup_at_8:.1}x per-event at 8 threads under monitor pressure)"
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock starts before the workers are released, so even a
    /// short A/B cell times every event.
    #[test]
    fn discipline_clocks_cover_the_workers() {
        assert!(sharded_discipline(16, 2_000, true) >= 1.0);
        assert!(seed_discipline(16, 2_000, true) >= 1.0);
    }
}
