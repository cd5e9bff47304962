//! Engine behaviour tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use quartz_memsim::{MemSimConfig, MemorySystem};
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{Architecture, Platform, PlatformConfig};

use crate::{Engine, Hooks, SimFailure, ThreadCtx, ThreadId, ThreadState, WaitTarget};

fn engine(arch: Architecture) -> Engine {
    let platform = Platform::new(PlatformConfig::new(arch).with_perfect_counters());
    let mem = Arc::new(MemorySystem::new(
        platform,
        MemSimConfig::default().without_jitter(),
    ));
    Engine::new(mem)
}

#[test]
fn single_thread_advances_time() {
    let report = engine(Architecture::IvyBridge).run(|ctx| {
        ctx.compute_ns(1_000.0);
        let a = ctx.alloc_local(4096);
        ctx.load(a);
    });
    assert!(report.root_finish.as_ns_f64() > 1_000.0);
    assert_eq!(report.root_finish, report.end_time);
}

#[test]
fn spawn_and_join_ordering() {
    let report = engine(Architecture::IvyBridge).run(|ctx| {
        let t = ctx.spawn(|c| c.compute_ns(10_000.0));
        ctx.compute_ns(100.0);
        ctx.join(t);
        // Joiner resumed after the child's 10 us of work.
        assert!(ctx.now().as_ns_f64() >= 10_000.0);
    });
    assert!(report.end_time.as_ns_f64() >= 10_000.0);
}

#[test]
fn threads_run_concurrently_in_virtual_time() {
    // Two threads each computing 1 ms finish at ~1 ms, not 2 ms.
    let report = engine(Architecture::IvyBridge).run(|ctx| {
        let a = ctx.spawn(|c| c.compute_ns(1_000_000.0));
        let b = ctx.spawn(|c| c.compute_ns(1_000_000.0));
        ctx.join(a);
        ctx.join(b);
    });
    let ns = report.end_time.as_ns_f64();
    assert!(ns < 1_100_000.0, "parallel threads overlapped: {ns}");
    assert!(ns >= 1_000_000.0);
}

#[test]
fn mutex_provides_mutual_exclusion_in_virtual_time() {
    // Two threads each hold the lock for 1 ms: total ≥ 2 ms.
    let report = engine(Architecture::IvyBridge).run(|ctx| {
        let m = ctx.mutex_new();
        let mut kids = Vec::new();
        for _ in 0..2 {
            kids.push(ctx.spawn(move |c| {
                c.mutex_lock(m);
                c.compute_ns(1_000_000.0);
                c.mutex_unlock(m);
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    assert!(
        report.end_time.as_ns_f64() >= 2_000_000.0,
        "critical sections serialized: {}",
        report.end_time
    );
}

#[test]
fn delay_injected_before_unlock_propagates_to_waiter() {
    // A hook that spins 1 ms before every unlock; with two threads taking
    // the lock back-to-back, the second thread's acquisition is pushed
    // past the first thread's injected delay (paper Fig. 4 (b)).
    struct SpinOnUnlock;
    impl Hooks for SpinOnUnlock {
        fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
            ctx.spin(Duration::from_ms(1));
        }
    }
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::new(SpinOnUnlock));
    let acquired_at = Arc::new(AtomicU64::new(0));
    let acq = Arc::clone(&acquired_at);
    let report = e.run(move |ctx| {
        let m = ctx.mutex_new();
        ctx.mutex_lock(m);
        let child = ctx.spawn(move |c| {
            c.mutex_lock(m);
            acq.store(c.now().as_ps(), Ordering::Relaxed);
            c.mutex_unlock(m);
        });
        ctx.compute_ns(100.0);
        ctx.mutex_unlock(m); // hook spins 1 ms first
        ctx.join(child);
    });
    let t_acq = SimTime::from_ps(acquired_at.load(Ordering::Relaxed));
    assert!(
        t_acq.as_ns_f64() >= 1_000_100.0,
        "waiter saw the injected delay: acquired at {t_acq}"
    );
    assert!(
        report.end_time.as_ns_f64() >= 2_000_000.0,
        "both unlocks spun"
    );
}

#[test]
fn runs_are_deterministic() {
    let run_once = || {
        let e = engine(Architecture::Haswell);
        e.run(|ctx| {
            let m = ctx.mutex_new();
            let mut kids = Vec::new();
            for i in 0..4u64 {
                kids.push(ctx.spawn(move |c| {
                    let a = c.alloc_local(1 << 16);
                    for k in 0..200u64 {
                        c.mutex_lock(m);
                        c.load(a.offset_by(((k * 7 + i) % 1000) * 64));
                        c.compute_ns(35.0);
                        c.mutex_unlock(m);
                        c.compute_ns(10.0);
                    }
                }));
            }
            for k in kids {
                ctx.join(k);
            }
        })
        .end_time
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "identical runs produce identical virtual end times");
}

#[test]
fn condvar_wait_notify() {
    let report = engine(Architecture::IvyBridge).run(|ctx| {
        let m = ctx.mutex_new();
        let cv = ctx.cond_new();
        let child = ctx.spawn(move |c| {
            c.mutex_lock(m);
            c.cond_wait(cv, m);
            // Resumed with the mutex held, after notifier's 500 us.
            assert!(c.now().as_ns_f64() >= 500_000.0, "woke at {}", c.now());
            c.mutex_unlock(m);
        });
        ctx.compute_ns(500_000.0);
        ctx.mutex_lock(m);
        ctx.cond_notify_one(cv);
        ctx.mutex_unlock(m);
        ctx.join(child);
    });
    assert!(report.end_time.as_ns_f64() >= 500_000.0);
}

#[test]
fn notify_all_wakes_everyone() {
    let woken = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&woken);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let m = ctx.mutex_new();
        let cv = ctx.cond_new();
        let mut kids = Vec::new();
        for _ in 0..3 {
            let w = Arc::clone(&w);
            kids.push(ctx.spawn(move |c| {
                c.mutex_lock(m);
                c.cond_wait(cv, m);
                w.fetch_add(1, Ordering::Relaxed);
                c.mutex_unlock(m);
            }));
        }
        // Let all three block first.
        ctx.compute_ns(100_000.0);
        ctx.mutex_lock(m);
        ctx.cond_notify_all(cv);
        ctx.mutex_unlock(m);
        for k in kids {
            ctx.join(k);
        }
    });
    assert_eq!(woken.load(Ordering::Relaxed), 3);
}

#[test]
fn monitor_timer_fires_and_signals() {
    struct CountSignals(Arc<AtomicU64>);
    impl Hooks for CountSignals {
        fn on_signal(&self, ctx: &mut ThreadCtx) {
            self.0.fetch_add(1, Ordering::Relaxed);
            let _ = ctx;
        }
    }
    let count = Arc::new(AtomicU64::new(0));
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::new(CountSignals(Arc::clone(&count))));
    // Signal every live thread every 100 us.
    e.add_timer(Duration::from_us(100), |api| {
        for t in api.live_threads().to_vec() {
            api.signal_thread(t);
        }
    });
    e.run(|ctx| {
        for _ in 0..100 {
            ctx.compute_ns(10_000.0); // 10 us per op, 1 ms total
        }
    });
    let n = count.load(Ordering::Relaxed);
    // ~10 firings over 1 ms; lazy delivery may skip boundaries.
    assert!((5..=12).contains(&n), "signals delivered: {n}");
}

#[test]
fn deferred_timer_fires_late() {
    // A callback that defers its next firing slips by exactly the extra
    // delay: over 1 ms, a 100 us timer deferring 100 us each firing
    // lands ~half as many times.
    let fires = Arc::new(AtomicU64::new(0));
    let e = engine(Architecture::IvyBridge);
    let f = Arc::clone(&fires);
    e.add_timer(Duration::from_us(100), move |api| {
        f.fetch_add(1, Ordering::Relaxed);
        api.defer_next(Duration::from_us(100));
    });
    e.run(|ctx| {
        for _ in 0..100 {
            ctx.compute_ns(10_000.0); // 1 ms total
        }
    });
    let n = fires.load(Ordering::Relaxed);
    assert!((3..=6).contains(&n), "deferred firings over 1 ms: {n}");
}

#[test]
fn signal_delivery_drifts_to_op_boundary() {
    struct StampSignal(Arc<AtomicU64>);
    impl Hooks for StampSignal {
        fn on_signal(&self, ctx: &mut ThreadCtx) {
            self.0.store(ctx.now().as_ps(), Ordering::Relaxed);
        }
    }
    let stamp = Arc::new(AtomicU64::new(0));
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::new(StampSignal(Arc::clone(&stamp))));
    e.add_timer(Duration::from_us(100), |api| {
        for t in api.live_threads().to_vec() {
            api.signal_thread(t);
        }
    });
    e.run(|ctx| {
        // One long op crossing the 100 us firing: delivery lands after.
        ctx.compute_ns(250_000.0);
        ctx.compute_ns(1.0);
    });
    let t = stamp.load(Ordering::Relaxed) as f64 / 1000.0;
    assert!(t >= 250_000.0, "signal delivered at boundary: {t} ns");
}

#[test]
#[should_panic(expected = "deadlock")]
fn deadlock_is_detected() {
    engine(Architecture::IvyBridge).run(|ctx| {
        let m = ctx.mutex_new();
        ctx.mutex_lock(m);
        let child = ctx.spawn(move |c| {
            c.mutex_lock(m); // never released by parent
        });
        ctx.join(child); // parent waits for child; child waits for mutex
    });
}

#[test]
#[should_panic(expected = "boom")]
fn thread_panic_propagates() {
    engine(Architecture::IvyBridge).run(|ctx| {
        let child = ctx.spawn(|_| panic!("boom"));
        ctx.join(child);
    });
}

#[test]
fn try_run_reports_deadlock_with_named_cycle() {
    // Classic ABBA inversion between two children.
    let failure = engine(Architecture::IvyBridge)
        .try_run(|ctx| {
            let a = ctx.mutex_new();
            let b = ctx.mutex_new();
            let k1 = ctx.spawn(move |c| {
                c.mutex_lock(a);
                c.compute_ns(10_000.0);
                c.mutex_lock(b); // waits for k2
                c.mutex_unlock(b);
                c.mutex_unlock(a);
            });
            let k2 = ctx.spawn(move |c| {
                c.mutex_lock(b);
                c.compute_ns(10_000.0);
                c.mutex_lock(a); // waits for k1
                c.mutex_unlock(a);
                c.mutex_unlock(b);
            });
            ctx.join(k1);
            ctx.join(k2);
        })
        .unwrap_err();
    let SimFailure::Deadlock(report) = failure else {
        panic!("expected Deadlock, got {failure}");
    };
    // All three non-finished threads listed, ascending, each blocked.
    let ids: Vec<_> = report.threads.iter().map(|t| t.thread.0).collect();
    assert_eq!(ids, vec![0, 1, 2], "every non-finished thread reported");
    assert!(report
        .threads
        .iter()
        .all(|t| t.state == ThreadState::Blocked));
    // Root waits in join, children on each other's mutexes.
    assert!(matches!(
        report.threads[0].waits_on,
        Some(WaitTarget::Join { .. })
    ));
    assert!(matches!(
        report.threads[1].waits_on,
        Some(WaitTarget::Mutex { .. })
    ));
    assert_eq!(report.threads[1].holds, vec![0]);
    assert_eq!(report.threads[2].holds, vec![1]);
    // The mutex cycle is named: t1 -(m1)-> t2 -(m0)-> t1, rotated to
    // start at the smallest thread id.
    assert_eq!(report.cycle.len(), 2, "two-edge cycle: {report}");
    assert_eq!(report.cycle[0].thread, ThreadId(1));
    assert_eq!(report.cycle[0].mutex(), Some(1));
    assert_eq!(report.cycle[0].holder, ThreadId(2));
    assert_eq!(report.cycle[1].thread, ThreadId(2));
    assert_eq!(report.cycle[1].mutex(), Some(0));
    assert_eq!(report.cycle[1].holder, ThreadId(1));
    // The rendered message names every thread and the cycle.
    let msg = report.to_string();
    assert!(
        msg.starts_with("deadlock: 3 non-finished thread(s)"),
        "{msg}"
    );
    assert!(msg.contains("t1 -(m1)-> t2"), "{msg}");
    assert!(msg.contains("t2 -(m0)-> t1"), "{msg}");
    assert!(msg.contains("t0 [blocked]"), "{msg}");
}

#[test]
fn try_run_deadlock_report_is_deterministic() {
    let run_once = || {
        engine(Architecture::IvyBridge)
            .try_run(|ctx| {
                let a = ctx.mutex_new();
                let b = ctx.mutex_new();
                let k1 = ctx.spawn(move |c| {
                    c.mutex_lock(a);
                    c.compute_ns(5_000.0);
                    c.mutex_lock(b);
                });
                let k2 = ctx.spawn(move |c| {
                    c.mutex_lock(b);
                    c.compute_ns(5_000.0);
                    c.mutex_lock(a);
                });
                ctx.join(k1);
                ctx.join(k2);
            })
            .unwrap_err()
            .to_string()
    };
    assert_eq!(run_once(), run_once(), "byte-identical diagnostic");
}

#[test]
fn try_run_reports_thread_panic_with_origin() {
    let failure = engine(Architecture::IvyBridge)
        .try_run(|ctx| {
            let child = ctx.spawn(|c| {
                c.compute_ns(1_234.0);
                panic!("injected fault");
            });
            ctx.join(child);
        })
        .unwrap_err();
    let SimFailure::ThreadPanic {
        thread,
        message,
        sim_time,
    } = failure
    else {
        panic!("expected ThreadPanic, got {failure}");
    };
    assert_eq!(thread, ThreadId(1), "originating sim thread named");
    assert_eq!(message, "injected fault");
    assert!(sim_time.as_ns_f64() >= 1_234.0, "panicked at {sim_time}");
}

#[test]
fn try_run_watchdog_detects_virtual_loop_hang_and_names_holder() {
    let e = engine(Architecture::IvyBridge);
    e.set_watchdog(Some(std::time::Duration::from_millis(30)));
    let failure = e
        .try_run(|ctx| {
            // An infinite *virtual* loop: op boundaries fire, but being
            // the only runnable thread it never hands the token off.
            loop {
                ctx.compute_ns(10.0);
            }
        })
        .unwrap_err();
    let SimFailure::Hang { thread, budget, .. } = failure else {
        panic!("expected Hang, got {failure}");
    };
    assert_eq!(thread, ThreadId(0), "token holder named");
    assert_eq!(budget, std::time::Duration::from_millis(30));
    // The engine returned: the hung thread unwound on the shutdown flag
    // rather than wedging the host.
}

#[test]
fn try_run_watchdog_spares_healthy_multithreaded_run() {
    let e = engine(Architecture::IvyBridge);
    e.set_watchdog(Some(std::time::Duration::from_millis(200)));
    let report = e
        .try_run(|ctx| {
            let m = ctx.mutex_new();
            let kids: Vec<_> = (0..3)
                .map(|_| {
                    ctx.spawn(move |c| {
                        for _ in 0..50 {
                            c.mutex_lock(m);
                            c.compute_ns(100.0);
                            c.mutex_unlock(m);
                        }
                    })
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        })
        .expect("healthy run completes under an armed watchdog");
    assert!(report.end_time.as_ns_f64() > 0.0);
}

#[test]
fn try_run_failure_invokes_on_sim_failure_hook() {
    struct Recorder(Arc<parking_lot::Mutex<Vec<String>>>);
    impl Hooks for Recorder {
        fn on_sim_failure(&self, failure: &SimFailure) {
            self.0.lock().push(failure.kind().to_owned());
        }
    }
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::new(Recorder(Arc::clone(&seen))));
    let err = e.try_run(|_| panic!("kaboom")).unwrap_err();
    assert_eq!(err.kind(), "panic");
    assert_eq!(*seen.lock(), vec!["panic".to_owned()]);
}

#[test]
fn try_run_clean_run_matches_run() {
    let report = engine(Architecture::IvyBridge)
        .try_run(|ctx| ctx.compute_ns(1_000.0))
        .expect("clean run");
    assert!(report.root_finish.as_ns_f64() >= 1_000.0);
}

#[test]
fn thread_start_hook_runs_per_thread() {
    struct CountStarts(Arc<AtomicU64>);
    impl Hooks for CountStarts {
        fn on_thread_start(&self, ctx: &mut ThreadCtx) {
            self.0.fetch_add(1, Ordering::Relaxed);
            // Registration cost (paper: 300k cycles).
            let p = ctx.platform();
            ctx.charge(p.cycles(p.op_costs().thread_register_cycles));
        }
    }
    let count = Arc::new(AtomicU64::new(0));
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::new(CountStarts(Arc::clone(&count))));
    e.run(|ctx| {
        let kids: Vec<_> = (0..3).map(|_| ctx.spawn(|c| c.compute_ns(10.0))).collect();
        for k in kids {
            ctx.join(k);
        }
    });
    assert_eq!(count.load(Ordering::Relaxed), 4, "root + 3 children");
}

#[test]
fn rdtscp_tracks_virtual_time() {
    engine(Architecture::IvyBridge).run(|ctx| {
        let t0 = ctx.rdtscp();
        ctx.compute_ns(1_000.0);
        let t1 = ctx.rdtscp();
        // 1 us at 2.2 GHz = 2200 cycles (plus small instruction costs).
        let delta = t1 - t0;
        assert!((2_200..2_400).contains(&delta), "tsc delta {delta}");
    });
}

/// A fault injector installed and cleared in the middle of a run sees
/// exactly the `rdpmc` and `rdtscp` reads in between: with none
/// installed the fault cell answers from its flag, without its lock,
/// yet a read ordered after an install always reaches the injector.
#[test]
fn fault_injector_installed_mid_run_sees_exactly_the_reads_in_between() {
    use quartz_platform::{CoreId, FaultInjector, SocketId};

    #[derive(Default)]
    struct CountingInjector {
        pmu_reads: AtomicU64,
        tsc_reads: AtomicU64,
    }
    impl FaultInjector for CountingInjector {
        fn pmu_read_error(&self, _core: CoreId, _slot: usize) -> bool {
            self.pmu_reads.fetch_add(1, Ordering::Relaxed);
            false
        }
        fn tsc_skew_cycles(&self, _socket: SocketId) -> i64 {
            self.tsc_reads.fetch_add(1, Ordering::Relaxed);
            0
        }
    }

    let inj = Arc::new(CountingInjector::default());
    let seen = Arc::clone(&inj);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let platform = ctx.platform();
        let slot = platform
            .kernel_module()
            .program_standard_counters(ctx.core())
            .stalls_l2_pending
            .slot;
        let reads = |ctx: &mut ThreadCtx, n: usize| {
            for _ in 0..n {
                ctx.rdpmc(slot).expect("programmed counter");
                ctx.rdtscp();
            }
        };
        reads(ctx, 3);
        platform.install_fault_injector(seen);
        reads(ctx, 5);
        platform.clear_fault_injector();
        assert!(platform.fault_injector().is_none());
        reads(ctx, 2);
    });
    assert_eq!(inj.pmu_reads.load(Ordering::Relaxed), 5);
    assert_eq!(inj.tsc_reads.load(Ordering::Relaxed), 5);
}

#[test]
fn threads_place_on_distinct_socket0_cores() {
    engine(Architecture::IvyBridge).run(|ctx| {
        assert_eq!(ctx.core(), 0);
        let k1 = ctx.spawn(|c| assert_eq!(c.core(), 1));
        let k2 = ctx.spawn(|c| assert_eq!(c.core(), 2));
        let k3 = ctx.spawn_on(7, |c| assert_eq!(c.core(), 7));
        ctx.join(k1);
        ctx.join(k2);
        ctx.join(k3);
    });
}

#[test]
fn contended_lock_fifo_fairness() {
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let m = ctx.mutex_new();
        ctx.mutex_lock(m);
        let mut kids = Vec::new();
        for i in 0..3u64 {
            let o = Arc::clone(&o);
            // Children start at slightly increasing clocks, so they
            // block on the mutex in spawn order.
            ctx.compute_ns(1_000.0);
            kids.push(ctx.spawn(move |c| {
                c.mutex_lock(m);
                o.lock().push(i);
                c.mutex_unlock(m);
            }));
        }
        ctx.compute_ns(100_000.0);
        ctx.mutex_unlock(m);
        for k in kids {
            ctx.join(k);
        }
    });
    assert_eq!(*order.lock(), vec![0, 1, 2]);
}

#[test]
fn barrier_synchronizes_generations() {
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let b = ctx.barrier_new(3);
        let mut kids = Vec::new();
        for i in 0..3u64 {
            let o = Arc::clone(&o);
            kids.push(ctx.spawn(move |c| {
                // Uneven work before the barrier.
                c.compute_ns(1_000.0 * (i + 1) as f64);
                o.lock().push(("before", i, c.now().as_ps()));
                c.barrier_wait(b);
                o.lock().push(("after", i, c.now().as_ps()));
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    let events = order.lock();
    let max_before = events
        .iter()
        .filter(|e| e.0 == "before")
        .map(|e| e.2)
        .max()
        .unwrap();
    for e in events.iter().filter(|e| e.0 == "after") {
        assert!(
            e.2 >= max_before,
            "no thread passes before the slowest arrives"
        );
    }
}

#[test]
fn barrier_reports_one_leader_per_generation() {
    let leaders = Arc::new(AtomicU64::new(0));
    let l = Arc::clone(&leaders);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let b = ctx.barrier_new(4);
        let mut kids = Vec::new();
        for i in 0..4u64 {
            let l = Arc::clone(&l);
            kids.push(ctx.spawn(move |c| {
                for _ in 0..5 {
                    c.compute_ns(100.0 * (i + 1) as f64);
                    if c.barrier_wait(b) {
                        l.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for k in kids {
            ctx.join(k);
        }
    });
    assert_eq!(
        leaders.load(Ordering::Relaxed),
        5,
        "one leader per generation"
    );
}

#[test]
fn barrier_hook_delay_propagates_to_all() {
    struct SpinAtBarrier;
    impl Hooks for SpinAtBarrier {
        fn before_barrier(&self, ctx: &mut ThreadCtx) {
            ctx.spin(Duration::from_ms(1));
        }
    }
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::new(SpinAtBarrier));
    let report = e.run(|ctx| {
        let b = ctx.barrier_new(2);
        let k1 = ctx.spawn(move |c| {
            c.barrier_wait(b);
        });
        let k2 = ctx.spawn(move |c| {
            c.barrier_wait(b);
            // Both threads' injected delays land before the rendezvous.
            assert!(c.now().as_ns_f64() >= 1_000_000.0, "at {}", c.now());
        });
        ctx.join(k1);
        ctx.join(k2);
    });
    assert!(report.end_time.as_ns_f64() >= 1_000_000.0);
}

// ----------------------------------------------------------------------
// Channels and open-loop event sources.
// ----------------------------------------------------------------------

#[test]
fn channel_delivers_in_fifo_order_and_drains_after_close() {
    let report = engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new::<u64>();
        let tx = ch.clone();
        let producer = ctx.spawn(move |c| {
            for i in 0..10u64 {
                c.compute_ns(1_000.0);
                c.chan_send(&tx, i);
            }
            c.chan_close(&tx);
        });
        let mut got = Vec::new();
        while let Some(v) = ctx.chan_recv(&ch) {
            got.push(v);
        }
        assert_eq!(got, (0..10).collect::<Vec<u64>>(), "FIFO order");
        assert_eq!(ctx.chan_recv(&ch), None, "stays closed");
        ctx.join(producer);
    });
    assert!(report.end_time.as_ns_f64() >= 10_000.0);
}

#[test]
fn blocked_recv_wakes_at_send_instant_without_spinning_sim_time() {
    engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new::<u64>();
        let tx = ch.clone();
        let consumer = ctx.spawn(move |c| {
            // Blocks immediately; the producer sends at ~5 ms.
            let v = c.chan_recv(&tx).expect("one payload");
            assert_eq!(v, 7);
            let ns = c.now().as_ns_f64();
            // Woken at the send instant plus the hand-off cost — a
            // busy-spinning wait would have burned far more virtual
            // time than the 5 ms the producer computed.
            assert!(ns >= 5_000_000.0, "not before the send: {ns}");
            assert!(ns < 5_010_000.0, "recv never spins virtual time: {ns}");
        });
        ctx.compute_ns(5_000_000.0);
        ctx.chan_send(&ch, 7);
        ctx.join(consumer);
    });
}

#[test]
fn channel_wait_cycle_reports_deadlock_with_named_channel_edges() {
    let failure = engine(Architecture::IvyBridge)
        .try_run(|ctx| {
            let a = ctx.chan_new::<u64>();
            let b = ctx.chan_new::<u64>();
            let (a1, b1) = (a.clone(), b.clone());
            let k1 = ctx.spawn(move |c| {
                // Produces into a only after hearing from b — while t2
                // does the mirror image: a classic request cycle.
                c.chan_register_sender(&a1);
                let v = c.chan_recv(&b1);
                assert!(v.is_none(), "unreachable in the deadlock run");
            });
            let (a2, b2) = (a, b);
            let k2 = ctx.spawn(move |c| {
                c.chan_register_sender(&b2);
                let v = c.chan_recv(&a2);
                assert!(v.is_none(), "unreachable in the deadlock run");
            });
            ctx.join(k1);
            ctx.join(k2);
        })
        .unwrap_err();
    let SimFailure::Deadlock(report) = failure else {
        panic!("expected Deadlock, got {failure}");
    };
    assert!(report
        .threads
        .iter()
        .filter(|t| t.thread.0 > 0)
        .all(|t| matches!(t.waits_on, Some(WaitTarget::Channel { .. }))));
    assert_eq!(report.cycle.len(), 2, "two-edge channel cycle: {report}");
    let msg = report.to_string();
    assert!(msg.contains("t1 -(ch1)-> t2"), "{msg}");
    assert!(msg.contains("t2 -(ch0)-> t1"), "{msg}");
    assert!(msg.contains("channel ch"), "{msg}");
}

#[test]
fn open_loop_source_injects_while_every_thread_is_blocked() {
    let e = engine(Architecture::IvyBridge);
    let ch = e.channel::<u64>();
    let feed = ch.clone();
    let mut count = 0u64;
    e.add_open_loop_source(Duration::from_ms(1), &[ch.id()], move |api| {
        api.send(&feed, count);
        count += 1;
        if count == 5 {
            api.stop();
        }
    });
    let report = e.run(move |ctx| {
        // The root blocks immediately: every arrival is injected with no
        // runnable thread, purely by the scheduler advancing to the
        // source's next firing.
        let mut got = Vec::new();
        while let Some(v) = ctx.chan_recv(&ch) {
            got.push(v);
            let ns = ctx.now().as_ns_f64();
            let expect = 1_000_000.0 * (v + 1) as f64;
            assert!(ns >= expect, "arrival {v} at {ns}, expected ≥ {expect}");
            assert!(ns < expect + 10_000.0, "arrival {v} late: {ns}");
        }
        // Source stopped after 5 sends: with no live producer left the
        // channel auto-closed and the loop drained out.
        assert_eq!(got, (0..5).collect::<Vec<u64>>());
    });
    assert!(report.end_time.as_ns_f64() >= 5_000_000.0);
}

#[test]
fn far_ahead_thread_does_not_batch_fire_sources_past_woken_receivers() {
    // Regression: a thread whose clock jumps far ahead (a wedged worker
    // charging a long stall) reaches its next op boundary with many
    // source firings due. It must NOT fire them all in one batch — the
    // first injection wakes a receiver whose clock trails by
    // milliseconds, and that receiver's execution (here: releasing an
    // admission-gauge slot) changes the state later firings observe.
    // The firing loop has to stop at the lookahead bound and yield, so
    // gauge-gated admission interleaves causally with the drain.
    let e = engine(Architecture::IvyBridge);
    let ch = e.channel::<u64>();
    let feed = ch.clone();
    let gauge = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let (g_src, s_src) = (Arc::clone(&gauge), Arc::clone(&shed));
    let mut n = 0u64;
    e.add_open_loop_source(Duration::from_us(10), &[ch.id()], move |api| {
        // Admission window of 4: shed when the consumer has not yet
        // released earlier arrivals.
        if g_src.load(Ordering::Relaxed) < 4 {
            g_src.fetch_add(1, Ordering::Relaxed);
            api.send(&feed, n);
        } else {
            s_src.fetch_add(1, Ordering::Relaxed);
        }
        n += 1;
        if n == 100 {
            api.stop();
        }
    });
    let g_con = Arc::clone(&gauge);
    let got = Arc::new(AtomicU64::new(0));
    let got_con = Arc::clone(&got);
    e.run(move |ctx| {
        let consumer = ctx.spawn(move |c| {
            while c.chan_recv(&ch).is_some() {
                c.compute_ns(1_000.0);
                g_con.fetch_sub(1, Ordering::Relaxed);
                got_con.fetch_add(1, Ordering::Relaxed);
            }
        });
        let staller = ctx.spawn(|c| {
            // Jump 2 ms ahead (past all 100 firings), then hit another
            // op boundary with every firing due at once.
            c.compute_ns(2_000_000.0);
            c.compute_ns(1_000.0);
        });
        ctx.join(consumer);
        ctx.join(staller);
    });
    // The consumer keeps up with the offered rate (1 us of service per
    // 10 us gap), so causal interleaving admits everything.
    assert_eq!(
        got.load(Ordering::Relaxed),
        100,
        "every arrival admitted and drained"
    );
    assert_eq!(shed.load(Ordering::Relaxed), 0, "no arrival shed");
    assert_eq!(gauge.load(Ordering::Relaxed), 0, "gauge fully released");
}

#[test]
fn open_loop_source_varies_gaps_with_reschedule_in() {
    let e = engine(Architecture::IvyBridge);
    let ch = e.channel::<SimTime>();
    let feed = ch.clone();
    let mut n = 0u32;
    e.add_open_loop_source(Duration::from_us(10), &[ch.id()], move |api| {
        api.send(&feed, api.fire_time());
        n += 1;
        if n == 3 {
            api.stop();
        } else {
            // 10 us, then 50 us, then 90 us gaps.
            api.reschedule_in(Duration::from_us(10 + 40 * n as u64));
        }
    });
    e.run(move |ctx| {
        let mut arrivals = Vec::new();
        while let Some(t) = ctx.chan_recv(&ch) {
            arrivals.push(t.as_ns_f64());
        }
        assert_eq!(arrivals, vec![10_000.0, 60_000.0, 150_000.0]);
    });
}

#[test]
fn try_recv_reports_empty_then_drains_then_closed() {
    use crate::TryRecvError;
    engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new::<u64>();
        assert_eq!(ctx.chan_try_recv(&ch), Err(TryRecvError::Empty));
        ctx.chan_send(&ch, 1);
        ctx.chan_send(&ch, 2);
        ctx.chan_close(&ch);
        // Close never loses queued payloads: drain first, then Closed.
        assert_eq!(ctx.chan_try_recv(&ch), Ok(1));
        assert_eq!(ctx.chan_try_recv(&ch), Ok(2));
        assert_eq!(ctx.chan_try_recv(&ch), Err(TryRecvError::Closed));
        assert_eq!(ctx.chan_recv(&ch), None);
    });
}

// ----------------------------------------------------------------------
// Bounded channels and virtual-time timeouts.
// ----------------------------------------------------------------------

#[test]
fn bounded_send_blocks_until_receiver_drains_without_spinning_sim_time() {
    engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new_bounded::<u64>(1);
        let tx = ch.clone();
        let producer = ctx.spawn(move |c| {
            c.chan_send(&tx, 1); // fills the single slot at ~0
            c.chan_send(&tx, 2); // blocks until the drain at 2 ms
            let ns = c.now().as_ns_f64();
            assert!(ns >= 2_000_000.0, "woke before the drain: {ns}");
            // A blocked send consumes zero simulated time beyond the
            // wait itself: wake at the drain instant plus hand-off, not
            // a spin-inflated clock.
            assert!(ns < 2_010_000.0, "blocked send spun virtual time: {ns}");
        });
        ctx.compute_ns(2_000_000.0);
        assert_eq!(ctx.chan_recv(&ch), Some(1));
        assert_eq!(ctx.chan_recv(&ch), Some(2));
        ctx.join(producer);
    });
}

#[test]
fn rendezvous_channel_pairs_send_with_parked_receiver() {
    use crate::TrySendError;
    engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new_bounded::<u64>(0);
        // No receiver parked: a capacity-0 channel has no room.
        assert_eq!(ctx.chan_try_send(&ch, 9), Err(TrySendError::Full(9)));
        let rx = ch.clone();
        let consumer = ctx.spawn(move |c| {
            c.compute_ns(1_000_000.0);
            let v = c.chan_recv(&rx).expect("paired payload");
            assert_eq!(v, 42);
        });
        // Blocks until the consumer parks at ~1 ms, then pairs.
        ctx.chan_send(&ch, 42);
        let ns = ctx.now().as_ns_f64();
        assert!(ns >= 1_000_000.0, "send completed with nobody parked: {ns}");
        assert!(ns < 1_010_000.0, "rendezvous send spun virtual time: {ns}");
        ctx.join(consumer);
    });
}

#[test]
fn try_send_reports_full_then_room_then_closed() {
    use crate::TrySendError;
    engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new_bounded::<u64>(1);
        assert_eq!(ctx.chan_try_send(&ch, 1), Ok(()));
        assert_eq!(ctx.chan_try_send(&ch, 2), Err(TrySendError::Full(2)));
        assert_eq!(ctx.chan_try_recv(&ch), Ok(1));
        assert_eq!(ctx.chan_try_send(&ch, 3), Ok(()));
        ctx.chan_close(&ch);
        assert_eq!(ctx.chan_try_send(&ch, 4), Err(TrySendError::Closed(4)));
        assert_eq!(TrySendError::Closed(4).into_inner(), 4);
    });
}

#[test]
fn send_timeout_expires_at_exact_deadline_and_returns_payload() {
    use crate::SendTimeoutError;
    engine(Architecture::IvyBridge).run(|ctx| {
        let ch = ctx.chan_new_bounded::<u64>(1);
        ctx.chan_send(&ch, 1); // fills the slot
        let before = ctx.now().as_ns_f64();
        // Nobody will ever drain: the timed wait is the only pending
        // virtual-time event, so the scheduler advances to the deadline
        // and wakes us there — not a deadlock, not a hang.
        let err = ctx
            .chan_send_timeout(&ch, 2, Duration::from_us(10))
            .unwrap_err();
        assert_eq!(err, SendTimeoutError::Timeout(2));
        assert_eq!(err.into_inner(), 2);
        let waited = ctx.now().as_ns_f64() - before;
        assert!(waited >= 10_000.0, "woke before the deadline: {waited}");
        assert!(waited < 10_100.0, "woke late or spun: {waited}");
        // The slot is still occupied by the first payload.
        assert_eq!(ctx.chan_recv(&ch), Some(1));
    });
}

#[test]
fn recv_timeout_distinguishes_expiry_from_late_arrival() {
    use crate::RecvTimeoutError;
    let e = engine(Architecture::IvyBridge);
    let ch = e.channel::<u64>();
    let feed = ch.clone();
    // One arrival at 1 ms — far past the 10 us timed wait below.
    let mut fired = false;
    e.add_open_loop_source(Duration::from_ms(1), &[ch.id()], move |api| {
        if !fired {
            api.send(&feed, 5);
            fired = true;
        }
        api.stop();
    });
    e.run(move |ctx| {
        let before = ctx.now().as_ns_f64();
        let err = ctx
            .chan_recv_timeout(&ch, Duration::from_us(10))
            .unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
        let waited = ctx.now().as_ns_f64() - before;
        assert!(waited >= 10_000.0, "woke before the deadline: {waited}");
        assert!(waited < 10_100.0, "woke late or spun: {waited}");
        // The payload was never consumed by the expired wait: a second,
        // longer wait picks it up at the 1 ms arrival.
        let v = ctx
            .chan_recv_timeout(&ch, Duration::from_ms(5))
            .expect("arrival");
        assert_eq!(v, 5);
        assert!(ctx.now().as_ns_f64() >= 1_000_000.0);
    });
}

#[test]
fn timed_wait_is_not_misclassified_by_watchdog_or_deadlock_detector() {
    use crate::RecvTimeoutError;
    // Every thread sits in a timed wait on a never-fed channel while
    // the hang watchdog is armed: the run must complete cleanly — a
    // timed wait is a scheduled virtual-time event, not a hang and not
    // a deadlock.
    let e = engine(Architecture::IvyBridge);
    e.set_watchdog(Some(std::time::Duration::from_millis(250)));
    let result = e.try_run(|ctx| {
        let ch = ctx.chan_new::<u64>();
        let rx = ch.clone();
        let t = ctx.spawn(move |c| {
            assert_eq!(
                c.chan_recv_timeout(&rx, Duration::from_ms(3)),
                Err(RecvTimeoutError::Timeout)
            );
        });
        assert_eq!(
            ctx.chan_recv_timeout(&ch, Duration::from_ms(7)),
            Err(RecvTimeoutError::Timeout)
        );
        ctx.join(t);
        assert!(ctx.now().as_ns_f64() >= 7_000_000.0);
    });
    result.unwrap_or_else(|f| panic!("timed wait misclassified as {f}"));
}

#[test]
fn full_channel_cycle_reports_deadlock_with_named_full_edges() {
    let failure = engine(Architecture::IvyBridge)
        .try_run(|ctx| {
            let a = ctx.chan_new_bounded::<u64>(1);
            let b = ctx.chan_new_bounded::<u64>(1);
            // Root fills both queues, then two workers each try to
            // produce into one full queue before draining the other —
            // the backpressure mirror of the classic request cycle.
            ctx.chan_send(&a, 0);
            ctx.chan_send(&b, 0);
            let (a1, b1) = (a.clone(), b.clone());
            let k1 = ctx.spawn(move |c| {
                c.chan_register_receiver(&b1);
                c.chan_send(&a1, 1); // blocks: a is full, t2 never drains
                let _ = c.chan_recv(&b1);
            });
            let (a2, b2) = (a, b);
            let k2 = ctx.spawn(move |c| {
                c.chan_register_receiver(&a2);
                c.chan_send(&b2, 2); // blocks: b is full, t1 never drains
                let _ = c.chan_recv(&a2);
            });
            ctx.join(k1);
            ctx.join(k2);
        })
        .unwrap_err();
    let SimFailure::Deadlock(report) = failure else {
        panic!("expected Deadlock, got {failure}");
    };
    assert!(report
        .threads
        .iter()
        .filter(|t| t.thread.0 > 0)
        .all(|t| matches!(t.waits_on, Some(WaitTarget::ChannelFull { .. }))));
    assert_eq!(
        report.cycle.len(),
        2,
        "two-edge full-channel cycle: {report}"
    );
    let msg = report.to_string();
    assert!(msg.contains("t1 -(ch0 full)-> t2"), "{msg}");
    assert!(msg.contains("t2 -(ch1 full)-> t1"), "{msg}");
    assert!(msg.contains("full channel ch"), "{msg}");
}

// ----------------------------------------------------------------------
// Simulated atomics.
// ----------------------------------------------------------------------

#[test]
fn atomic_ops_have_host_atomic_semantics() {
    engine(Architecture::IvyBridge).run(|ctx| {
        let a = ctx.atomic_u64(5);
        assert_eq!(a.load(ctx), 5);
        a.store(ctx, 9);
        assert_eq!(a.swap(ctx, 11), 9);
        assert_eq!(a.fetch_add(ctx, 3), 11);
        assert_eq!(a.load(ctx), 14);
        assert_eq!(a.compare_exchange(ctx, 14, 20), Ok(14));
        assert_eq!(a.compare_exchange(ctx, 14, 30), Err(20));
        assert_eq!(a.load(ctx), 20);

        let p = ctx.atomic_ptr(None);
        assert_eq!(p.load(ctx), None);
        use quartz_memsim::Addr;
        p.store(ctx, Some(Addr(0)));
        assert_eq!(p.load(ctx), Some(Addr(0)), "Addr(0) is not null");
        assert_eq!(
            p.compare_exchange(ctx, Some(Addr(0)), Some(Addr(64))),
            Ok(Some(Addr(0)))
        );
        assert_eq!(p.swap(ctx, None), Some(Addr(64)));
        ctx.sim_fence();
    });
}

#[test]
fn fetch_add_from_many_threads_is_exact() {
    let e = engine(Architecture::IvyBridge);
    let a = e.atomic_u64(0);
    e.run(move |ctx| {
        let kids: Vec<_> = (0..4)
            .map(|_| {
                ctx.spawn(move |c| {
                    for _ in 0..100 {
                        a.fetch_add(c, 1);
                        c.compute_ns(20.0);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
        assert_eq!(a.load(ctx), 400);
    });
}

#[test]
fn observing_another_threads_write_floors_the_clock() {
    // Writer publishes at ≥ 1 ms; the polling reader may run ahead of it
    // only within the lookahead quantum, so without the hand-off floor
    // it could observe the value *below* the publication instant. The
    // floor pushes the observation to publish + HANDOFF_NS.
    let e = engine(Architecture::IvyBridge);
    let a = e.atomic_u64(0);
    let seen_at = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&seen_at);
    let publish_at = Arc::new(AtomicU64::new(0));
    let publish = Arc::clone(&publish_at);
    e.run(move |ctx| {
        let w = ctx.spawn(move |c| {
            c.compute_ns(1_000_000.0);
            publish.store(c.now().as_ps(), Ordering::Relaxed);
            a.store(c, 7);
        });
        let r = ctx.spawn(move |c| {
            while a.load(c) != 7 {
                c.compute_ns(50.0);
            }
            seen.store(c.now().as_ps(), Ordering::Relaxed);
        });
        ctx.join(w);
        ctx.join(r);
    });
    let published = SimTime::from_ps(publish_at.load(Ordering::Relaxed));
    let seen = SimTime::from_ps(seen_at.load(Ordering::Relaxed));
    assert!(published.as_ns_f64() >= 1_000_000.0);
    assert!(
        seen >= published + Duration::from_ns(50),
        "observer floored past the publication instant: saw at {seen}, published at {published}"
    );
}

#[test]
fn atomic_hook_reports_cas_handoff_edge() {
    use crate::{AtomicEvent, AtomicOp, AtomicPhase, CasOutcome};
    use parking_lot::Mutex as PlMutex;
    type Recorded = (
        usize,
        AtomicOp,
        AtomicPhase,
        CasOutcome,
        Option<ThreadId>,
        u64,
    );
    #[derive(Default)]
    struct Recorder {
        events: PlMutex<Vec<Recorded>>,
    }
    impl Hooks for Recorder {
        fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
            self.events.lock().push((
                ctx.thread_id().0,
                ev.op,
                ev.phase,
                ev.outcome,
                ev.handoff_from,
                ev.handoff_wait.as_ps(),
            ));
        }
    }
    let rec = Arc::new(Recorder::default());
    let e = engine(Architecture::IvyBridge);
    e.set_hooks(Arc::clone(&rec) as Arc<dyn Hooks>);
    let a = e.atomic_u64(0);
    let b = e.atomic_u64(0);
    e.run(move |ctx| {
        let w = ctx.spawn(move |c| {
            c.compute_ns(500_000.0);
            assert_eq!(a.compare_exchange(c, 0, 1), Ok(0));
        });
        let r = ctx.spawn(move |c| {
            while a.compare_exchange(c, 1, 2).is_err() {
                c.compute_ns(40.0);
            }
        });
        ctx.join(w);
        ctx.join(r);
        // Two threads hammering the same cell overlap in virtual time, so
        // whichever is behind observes the other's write and is floored.
        let p1 = ctx.spawn(move |c| {
            for _ in 0..1000 {
                b.fetch_add(c, 1);
            }
        });
        let p2 = ctx.spawn(move |c| {
            for _ in 0..1000 {
                b.fetch_add(c, 1);
            }
        });
        ctx.join(p1);
        ctx.join(p2);
    });
    let events = rec.events.lock();
    // The winner's CAS fired Before then After with Success and no
    // hand-off (it published first).
    assert!(events
        .iter()
        .any(|e| e.1 == AtomicOp::CasStrong && e.2 == AtomicPhase::Before));
    let success: Vec<_> = events
        .iter()
        .filter(|e| e.3 == CasOutcome::Success)
        .collect();
    assert_eq!(success.len(), 2, "one winning CAS per thread");
    // The reader's winning CAS observed the writer's publication: the
    // hand-off edge names the writer thread.
    let reader_win = success.iter().find(|e| e.0 == 2).expect("reader won once");
    assert_eq!(reader_win.4, Some(ThreadId(1)), "edge from the writer");
    // And at least one op in the contended fetch_add phase was actually
    // floored: a non-zero hand-off wait was charged.
    assert!(
        events.iter().any(|e| e.1 == AtomicOp::FetchAdd && e.5 > 0),
        "some contended fetch_add paid a non-zero hand-off wait"
    );
}

#[test]
fn cas_weak_spurious_stream_is_deterministic_and_pinned() {
    let pattern = |engine: Engine| -> String {
        let a = engine.atomic_u64(0);
        let out = Arc::new(PlString::default());
        let out2 = Arc::clone(&out);
        engine.run(move |ctx| {
            let mut s = String::new();
            for i in 0..64 {
                // The comparison always matches, so every failure is a
                // spurious one.
                match a.compare_exchange_weak(ctx, i, i + 1) {
                    Ok(_) => s.push('S'),
                    Err(v) => {
                        assert_eq!(v, i, "spurious failure returns the equal value");
                        s.push('F');
                        a.store(ctx, i + 1);
                    }
                }
            }
            *out2.0.lock() = s;
        });
        let s = out.0.lock().clone();
        s
    };
    #[derive(Default)]
    struct PlString(parking_lot::Mutex<String>);

    let e1 = engine(Architecture::IvyBridge);
    e1.set_cas_weak_spurious(Some((0xCA5, 8)));
    let p1 = pattern(e1);
    let e2 = engine(Architecture::IvyBridge);
    e2.set_cas_weak_spurious(Some((0xCA5, 8)));
    let p2 = pattern(e2);
    assert_eq!(p1, p2, "stream is a pure function of (seed, thread, seq)");
    assert!(p1.contains('F') && p1.contains('S'));
    // The reference stream: attempt n of thread 0 under seed 0xCA5.
    let expected: String = (1..=64)
        .map(|seq| {
            if crate::atomics::spurious_roll(0xCA5, 0, seq, 8) {
                'F'
            } else {
                'S'
            }
        })
        .collect();
    assert_eq!(p1, expected);
    // Disabled model: all successes.
    let e3 = engine(Architecture::IvyBridge);
    e3.set_cas_weak_spurious(None);
    assert_eq!(pattern(e3), "S".repeat(64));
}

#[test]
fn cas_spin_storm_is_classified_as_livelock() {
    let e = engine(Architecture::IvyBridge);
    e.set_livelock_threshold(200);
    let a = e.atomic_u64(0);
    let failure = e
        .try_run(move |ctx| {
            let kids: Vec<_> = (0..2)
                .map(|_| {
                    ctx.spawn(move |c| loop {
                        // The expected value never appears: nobody ever
                        // makes progress — the definitional livelock.
                        c.compute_ns(25.0);
                        let _ = a.compare_exchange(c, 99, 100);
                    })
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        })
        .expect_err("CAS storm must not complete");
    assert_eq!(failure.kind(), "livelock");
    let SimFailure::Livelock {
        threads, threshold, ..
    } = &failure
    else {
        panic!("expected Livelock, got {failure}");
    };
    assert_eq!(*threshold, 200);
    assert_eq!(
        threads,
        &vec![ThreadId(1), ThreadId(2)],
        "spinning thread set named in ascending id order"
    );
    let rendered = failure.to_string();
    assert!(rendered.contains("livelock"), "{rendered}");
    assert!(rendered.contains("t1+t2"), "{rendered}");
}

#[test]
fn successful_modification_resets_the_livelock_streak() {
    // Alternating fail/succeed keeps the streak at ≤ 1 and the run
    // completes even with a tiny threshold.
    let e = engine(Architecture::IvyBridge);
    e.set_livelock_threshold(3);
    let a = e.atomic_u64(0);
    let report = e.try_run(move |ctx| {
        for i in 0..50u64 {
            let _ = a.compare_exchange(ctx, 999, 1); // always fails
            assert_eq!(a.fetch_add(ctx, 1), i); // progress resets
        }
    });
    assert!(report.is_ok(), "progress prevented the livelock verdict");
}

/// Counts its own drop: a local of a simulated thread's body, dropped
/// when the body returns or unwinds.
struct LocalDrop(Arc<AtomicU64>);

impl Drop for LocalDrop {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn join_reaps_the_host_thread() {
    // No OS thread is left to reap: when `join` returns, the joined body
    // has returned, its locals have dropped, and its stack is freed.
    let drops = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&drops);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let child_drops = Arc::clone(&seen);
        let t = ctx.spawn(move |c| {
            let _guard = LocalDrop(child_drops);
            assert_eq!(crate::coro::live_stacks(), 2, "the root's and ours");
            c.compute_ns(1_000.0);
        });
        ctx.join(t);
        assert_eq!(
            seen.load(Ordering::SeqCst),
            1,
            "join returned before the joined thread's locals dropped"
        );
        assert_eq!(
            crate::coro::live_stacks(),
            1,
            "join returned before the joined thread's stack was freed"
        );
    });
}

/// One producer and three consumers hand work through a channel, a
/// mutex and `yield_now`; returns the run's report and its event log.
fn handoff_run(seed: u64) -> (crate::RunReport, Vec<(usize, SimTime, u64)>) {
    let e = engine(Architecture::IvyBridge);
    let ch = e.channel::<u64>();
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let root_log = Arc::clone(&log);
    let report = e
        .try_run(move |ctx| {
            let m = ctx.mutex_new();
            let mut kids = Vec::new();
            for w in 0..3u64 {
                let (ch, log) = (ch.clone(), Arc::clone(&root_log));
                kids.push(ctx.spawn(move |c| {
                    while let Some(v) = c.chan_recv(&ch) {
                        c.mutex_lock(m);
                        c.compute_ns(((v * 7 + w) % 50) as f64 * 10.0 + 40.0);
                        log.lock().push((c.thread_id().0, c.now(), v));
                        c.mutex_unlock(m);
                        c.yield_now();
                    }
                }));
            }
            ctx.chan_register_sender(&ch);
            for v in 0..300 {
                ctx.chan_send(&ch, seed * 1_000 + v);
                ctx.compute_ns(((v * 13 + seed) % 9) as f64 * 30.0);
                if v % 3 == 0 {
                    ctx.yield_now();
                }
            }
            ctx.chan_close(&ch);
            for k in kids {
                ctx.join(k);
            }
        })
        .expect("hand-off workload completes");
    let log = std::mem::take(&mut *log.lock());
    (report, log)
}

#[test]
fn engines_beyond_cpu_count_match_sequential_runs() {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seeds: Vec<u64> = (0..cpus as u64 + 2).collect();
    let sequential: Vec<_> = seeds.iter().map(|&s| handoff_run(s)).collect();
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&s| scope.spawn(move || handoff_run(s)))
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("engine host thread"))
            .collect()
    });
    for (s, (seq, conc)) in sequential.iter().zip(&concurrent).enumerate() {
        assert_eq!(seq.1.len(), 300, "seed {s}: every item consumed once");
        assert_eq!(seq, conc, "seed {s}: concurrent run diverged");
    }
}

#[test]
fn panic_while_peers_wait_is_contained() {
    let drops = Arc::new(AtomicU64::new(0));
    let root_drops = Arc::clone(&drops);
    let failure = engine(Architecture::IvyBridge)
        .try_run(move |ctx| {
            let _guard = LocalDrop(Arc::clone(&root_drops));
            let mut kids = Vec::new();
            // Two peers that stay runnable: between slices they are
            // suspended while another thread holds the token.
            for _ in 0..2 {
                let drops = Arc::clone(&root_drops);
                kids.push(ctx.spawn(move |c| {
                    let _guard = LocalDrop(drops);
                    loop {
                        c.compute_ns(100.0);
                        c.yield_now();
                    }
                }));
            }
            let drops = Arc::clone(&root_drops);
            kids.push(ctx.spawn(move |c| {
                let _guard = LocalDrop(drops);
                c.compute_ns(5_000.0);
                panic!("worker failed");
            }));
            for k in kids {
                ctx.join(k);
            }
        })
        .unwrap_err();
    assert!(
        matches!(&failure, SimFailure::ThreadPanic { thread: ThreadId(3), message, .. } if message == "worker failed"),
        "expected t3's ThreadPanic, got {failure}"
    );
    assert_eq!(
        drops.load(Ordering::SeqCst),
        4,
        "try_run returned before every simulated thread's locals dropped"
    );
}

#[test]
fn panic_unwinds_every_parked_peer_before_try_run_returns() {
    let drops = Arc::new(AtomicU64::new(0));
    let started = Arc::new(AtomicU64::new(0));
    let (d, s) = (Arc::clone(&drops), Arc::clone(&started));
    let failure = engine(Architecture::IvyBridge)
        .try_run(move |ctx| {
            let ch = ctx.chan_new::<u64>();
            let m = ctx.mutex_new();
            let b = ctx.barrier_new(2);
            ctx.mutex_lock(m);
            // Three peers that park: on an empty channel, on the mutex
            // the root holds, and at a barrier nobody else reaches.
            let (d1, s1, rx) = (Arc::clone(&d), Arc::clone(&s), ch.clone());
            ctx.spawn(move |c| {
                let _guard = LocalDrop(d1);
                s1.fetch_add(1, Ordering::SeqCst);
                c.chan_recv(&rx);
            });
            let (d2, s2) = (Arc::clone(&d), Arc::clone(&s));
            ctx.spawn(move |c| {
                let _guard = LocalDrop(d2);
                s2.fetch_add(1, Ordering::SeqCst);
                c.mutex_lock(m);
            });
            let (d3, s3) = (Arc::clone(&d), Arc::clone(&s));
            ctx.spawn(move |c| {
                let _guard = LocalDrop(d3);
                s3.fetch_add(1, Ordering::SeqCst);
                c.barrier_wait(b);
            });
            // Let all three park before failing.
            ctx.compute_ns(10_000.0);
            ctx.yield_now();
            panic!("root failed");
        })
        .unwrap_err();
    assert!(
        matches!(&failure, SimFailure::ThreadPanic { thread: ThreadId(0), message, .. } if message == "root failed"),
        "expected t0's ThreadPanic, got {failure}"
    );
    assert_eq!(started.load(Ordering::SeqCst), 3, "all three peers ran");
    assert_eq!(
        drops.load(Ordering::SeqCst),
        3,
        "try_run returned before every parked peer unwound"
    );
}

#[test]
fn watchdog_returns_hang_for_a_pure_host_loop() {
    // The body never reaches an operation boundary, so the abort cannot
    // reach it: the engine's helper OS thread is detached, and exits
    // once the test releases the loop.
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    let e = engine(Architecture::IvyBridge);
    e.set_watchdog(Some(std::time::Duration::from_millis(30)));
    let failure = e
        .try_run(move |ctx| {
            ctx.compute_ns(10.0);
            while !r.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
        .unwrap_err();
    release.store(true, Ordering::SeqCst);
    assert!(
        matches!(
            failure,
            SimFailure::Hang {
                thread: ThreadId(0),
                ..
            }
        ),
        "expected t0's Hang, got {failure}"
    );
}

#[test]
fn simulated_threads_run_on_the_callers_os_thread() {
    let host = std::thread::current().id();
    engine(Architecture::IvyBridge).run(move |ctx| {
        let kids: Vec<_> = (0..3)
            .map(|_| {
                ctx.spawn(move |c| {
                    c.compute_ns(100.0);
                    c.yield_now();
                    assert_eq!(std::thread::current().id(), host);
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
        assert_eq!(std::thread::current().id(), host);
    });
}

#[test]
fn an_engine_runs_inside_a_simulated_thread() {
    // The inner engine's loop runs on the outer thread's stack; its
    // threads suspend to it, not to the outer loop.
    let inner_end = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&inner_end);
    let outer = engine(Architecture::IvyBridge).run(move |ctx| {
        let peer = ctx.spawn(|c| {
            for _ in 0..20 {
                c.compute_ns(100.0);
                c.yield_now();
            }
        });
        ctx.compute_ns(50.0);
        let report = engine(Architecture::IvyBridge).run(|c| {
            let m = c.mutex_new();
            let kids: Vec<_> = (0..2)
                .map(|_| {
                    c.spawn(move |k| {
                        for _ in 0..10 {
                            k.mutex_lock(m);
                            k.compute_ns(100.0);
                            k.mutex_unlock(m);
                        }
                    })
                })
                .collect();
            for k in kids {
                c.join(k);
            }
        });
        seen.store(report.end_time.as_ps(), Ordering::SeqCst);
        ctx.join(peer);
    });
    let inner = SimTime::from_ps(inner_end.load(Ordering::SeqCst));
    assert!(
        inner.as_ns_f64() >= 2_000.0,
        "20 serialized critical sections: {inner}"
    );
    assert!(
        outer.end_time.as_ns_f64() >= 2_000.0,
        "the peer's 20 slices: {}",
        outer.end_time
    );
}

#[test]
fn a_simulated_thread_can_use_a_mebibyte_of_stack() {
    // Stacks are 2 MiB, the size an OS thread got by default.
    let sum = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&sum);
    engine(Architecture::IvyBridge).run(move |ctx| {
        let big = std::hint::black_box([1u8; 1 << 20]);
        ctx.compute_ns(10.0);
        let total: u64 = big.iter().map(|&b| u64::from(b)).sum();
        s.store(total, Ordering::SeqCst);
    });
    assert_eq!(sum.load(Ordering::SeqCst), 1 << 20);
}

/// Captures and renders a backtrace from its own (never inlined) frame.
#[inline(never)]
fn render_backtrace_here() -> String {
    let bt = std::backtrace::Backtrace::force_capture();
    assert_eq!(bt.status(), std::backtrace::BacktraceStatus::Captured);
    std::hint::black_box(bt.to_string())
}

#[test]
fn backtraces_render_inside_a_simulated_thread() {
    let rendered = Arc::new(parking_lot::Mutex::new(String::new()));
    let r = Arc::clone(&rendered);
    engine(Architecture::IvyBridge).run(move |ctx| {
        ctx.compute_ns(10.0);
        *r.lock() = render_backtrace_here();
    });
    let text = rendered.lock();
    // The walk runs from the capturing frame out to the trampoline, where
    // the coroutine's stack begins, and stops there.
    assert!(
        text.contains("render_backtrace_here"),
        "backtrace names the capturing frame:\n{text}"
    );
    let last_frame = text.lines().rfind(|l| {
        l.trim_start()
            .split_once(": ")
            .is_some_and(|(n, _)| n.parse::<usize>().is_ok())
    });
    assert!(
        last_frame.is_some_and(|l| l.ends_with(": quartz_threadsim_coro_trampoline")),
        "backtrace ends at the trampoline:\n{text}"
    );
}

/// Recurses until the stack runs out; every frame keeps 1 KiB live.
#[inline(never)]
#[allow(unconditional_recursion)]
fn recurse_without_bound(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth as u8; 1024]);
    recurse_without_bound(depth + 1).wrapping_add(u64::from(frame[0]))
}

#[test]
#[ignore = "overflows its stack on purpose; run by stack_overflow_hits_the_guard_page"]
fn overflow_a_simulated_threads_stack() {
    engine(Architecture::IvyBridge).run(|ctx| {
        ctx.compute_ns(10.0);
        std::hint::black_box(recurse_without_bound(0));
    });
}

#[test]
fn stack_overflow_hits_the_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    // Re-run this test binary on the ignored test above, with core dumps
    // off. A write below the stack must fault on the guard page
    // (SIGSEGV), never land in other memory.
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new("sh")
        .arg("-c")
        .arg("ulimit -c 0; exec \"$0\" \"$@\"")
        .arg(exe)
        .args([
            "--ignored",
            "--exact",
            "tests::overflow_a_simulated_threads_stack",
            "--test-threads=1",
        ])
        .output()
        .expect("re-run the test binary");
    assert_eq!(
        out.status.signal(),
        Some(11),
        "child should die by SIGSEGV; status {:?}, stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
