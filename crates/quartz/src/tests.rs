//! End-to-end emulator tests (the validation methodology of paper §4.3
//! in miniature: Conf_1 = local memory + Quartz vs Conf_2 = physically
//! remote memory, same workload).

use std::sync::Arc;

use quartz_memsim::{MemSimConfig, MemorySystem};
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig};
use quartz_threadsim::{Engine, ThreadCtx};

use crate::config::{LatencyModelKind, NvmTarget, QuartzConfig};
use crate::runtime::Quartz;
use crate::QuartzError;

fn machine(arch: Architecture, perfect: bool) -> Arc<MemorySystem> {
    let mut pc = PlatformConfig::new(arch);
    if perfect {
        pc = pc.with_perfect_counters();
    }
    Arc::new(MemorySystem::new(
        Platform::new(pc),
        MemSimConfig::default().without_jitter(),
    ))
}

/// Pointer-chases `accesses` lines on `node`; returns elapsed virtual ns.
fn chase(ctx: &mut ThreadCtx, node: NodeId, accesses: u64) -> f64 {
    let l3 = ctx.mem().config().l3.size_bytes;
    let lines = 8 * l3 / 64;
    let buf = ctx.alloc_on(node, lines * 64);
    let mut idx = 1u64;
    let mut next = || {
        idx = (idx.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % lines;
        idx
    };
    for _ in 0..128 {
        let i = next();
        ctx.load(buf.offset_by(i * 64));
    }
    let t0 = ctx.now();
    for _ in 0..accesses {
        let i = next();
        ctx.load(buf.offset_by(i * 64));
    }
    ctx.now().saturating_duration_since(t0).as_ns_f64()
}

#[test]
fn emulated_local_matches_physical_remote() {
    let arch = Architecture::IvyBridge;
    let params = arch.params();

    // Conf_2: run on remote memory, no emulator.
    let conf2 = Engine::new(machine(arch, true));
    let remote = Arc::new(parking_lot::Mutex::new(0.0));
    let r = Arc::clone(&remote);
    conf2.run(move |ctx| {
        *r.lock() = chase(ctx, NodeId(1), 50_000);
    });

    // Conf_1: run on local memory under Quartz emulating remote latency.
    let mem = machine(arch, true);
    let conf1 = Engine::new(Arc::clone(&mem));
    let target = NvmTarget::new(params.remote_dram_ns.avg_ns as f64);
    let quartz = Quartz::new(
        QuartzConfig::new(target).with_max_epoch(Duration::from_us(100)),
        mem,
    )
    .unwrap();
    quartz.attach(&conf1).unwrap();
    let emulated = Arc::new(parking_lot::Mutex::new(0.0));
    let e = Arc::clone(&emulated);
    conf1.run(move |ctx| {
        *e.lock() = chase(ctx, NodeId(0), 50_000);
    });

    let remote = *remote.lock();
    let emulated = *emulated.lock();
    let err = (emulated - remote).abs() / remote;
    assert!(
        err < 0.03,
        "emulation error {:.2}% (emulated {emulated} vs remote {remote})",
        err * 100.0
    );
}

#[test]
fn emulated_latency_tracks_target() {
    // Fig. 12 in miniature: measured latency under emulation ≈ target.
    let arch = Architecture::IvyBridge;
    for target_ns in [200.0, 500.0, 1000.0] {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let quartz = Quartz::new(
            QuartzConfig::new(NvmTarget::new(target_ns)).with_max_epoch(Duration::from_us(100)),
            mem,
        )
        .unwrap();
        quartz.attach(&engine).unwrap();
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine.run(move |ctx| {
            let accesses = 50_000;
            *o.lock() = chase(ctx, NodeId(0), accesses) / accesses as f64;
        });
        let measured = *out.lock();
        let err = (measured - target_ns).abs() / target_ns;
        assert!(
            err < 0.05,
            "target {target_ns} ns, measured {measured:.1} ns, err {:.2}%",
            err * 100.0
        );
    }
}

#[test]
fn switched_off_injection_has_low_overhead() {
    // §3.2: emulation with injection off ≈ no emulation at all.
    let arch = Architecture::Haswell;
    let base = {
        let engine = Engine::new(machine(arch, true));
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine.run(move |ctx| {
            *o.lock() = chase(ctx, NodeId(0), 20_000);
        });
        let v = *out.lock();
        v
    };
    let off = {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let quartz = Quartz::new(
            QuartzConfig::new(NvmTarget::new(500.0)).without_delay_injection(),
            mem,
        )
        .unwrap();
        quartz.attach(&engine).unwrap();
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine.run(move |ctx| {
            *o.lock() = chase(ctx, NodeId(0), 20_000);
        });
        let v = *out.lock();
        v
    };
    let overhead = (off - base) / base;
    assert!(
        overhead < 0.04,
        "switched-off emulation overhead {:.2}% exceeds the paper's 4%",
        overhead * 100.0
    );
}

#[test]
fn simple_model_overinjects_under_mlp() {
    // Fig. 2 / ablation: with 8 parallel chains, Eq. 1 injects ~8x too
    // much; Eq. 2 stays accurate.
    let arch = Architecture::IvyBridge;
    let run = |model: LatencyModelKind| -> f64 {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let quartz = Quartz::new(
            QuartzConfig::new(NvmTarget::new(400.0))
                .with_model(model)
                .with_max_epoch(Duration::from_us(100)),
            mem,
        )
        .unwrap();
        quartz.attach(&engine).unwrap();
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine.run(move |ctx| {
            // 8 independent chains accessed as batches (MLP = 8).
            let l3 = ctx.mem().config().l3.size_bytes;
            let lines = 8 * l3 / 64;
            let buf = ctx.alloc_on(NodeId(0), lines * 64);
            let mut idxs = [0u64; 8];
            for (k, v) in idxs.iter_mut().enumerate() {
                *v = 1 + k as u64 * 7919;
            }
            let t0 = ctx.now();
            let mut batch = [quartz_memsim::Addr(0); 8];
            for _ in 0..20_000 {
                for (k, v) in idxs.iter_mut().enumerate() {
                    *v = (v
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1 + k as u64))
                        % lines;
                    batch[k] = buf.offset_by(*v * 64);
                }
                ctx.load_batch(&batch);
            }
            *o.lock() = ctx.now().saturating_duration_since(t0).as_ns_f64();
        });
        let v = *out.lock();
        v
    };
    let stall = run(LatencyModelKind::StallBased);
    let simple = run(LatencyModelKind::Simple);
    assert!(
        simple > 2.0 * stall,
        "simple model should grossly over-inject under MLP: simple {simple}, stall {stall}"
    );
}

#[test]
fn two_memory_mode_rejects_sandy_bridge() {
    let mem = machine(Architecture::SandyBridge, true);
    let err = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0)).with_two_memory_mode(),
        mem,
    )
    .unwrap_err();
    assert!(matches!(err, QuartzError::TwoMemoryUnsupported { .. }));
}

#[test]
fn target_below_substrate_rejected() {
    let mem = machine(Architecture::Haswell, true);
    let err = Quartz::new(QuartzConfig::new(NvmTarget::new(50.0)), mem).unwrap_err();
    assert!(matches!(err, QuartzError::TargetFasterThanSubstrate { .. }));
}

#[test]
fn two_memory_leaves_dram_untouched_and_slows_nvm() {
    let arch = Architecture::Haswell;
    let params = arch.params();
    let mem = machine(arch, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(600.0))
            .with_two_memory_mode()
            .with_max_epoch(Duration::from_us(100)),
        Arc::clone(&mem),
    )
    .unwrap();
    assert_eq!(quartz.nvm_node(), NodeId(1));
    quartz.attach(&engine).unwrap();
    let out = Arc::new(parking_lot::Mutex::new((0.0, 0.0)));
    let o = Arc::clone(&out);
    let q = Arc::clone(&quartz);
    engine.run(move |ctx| {
        // Phase 1: DRAM-only chase.
        let n = 50_000u64;
        let dram_ns = chase(ctx, NodeId(0), n) / n as f64;
        // Phase 2: NVM-only chase (pmalloc side).
        let _ = &q;
        let nvm_ns = chase(ctx, NodeId(1), n) / n as f64;
        *o.lock() = (dram_ns, nvm_ns);
    });
    let (dram_ns, nvm_ns) = *out.lock();
    // Local accesses keep (roughly) local latency. The epoch model may
    // smear a small share of NVM delay over the boundary epochs.
    assert!(
        (dram_ns - params.local_dram_ns.avg_ns as f64).abs() < 25.0,
        "local DRAM latency ~unchanged: {dram_ns}"
    );
    let err = (nvm_ns - 600.0).abs() / 600.0;
    assert!(err < 0.08, "virtual NVM at ~600 ns: {nvm_ns} (err {err})");
}

#[test]
fn bandwidth_target_programs_registers() {
    let mem = machine(Architecture::SandyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(200.0).with_bandwidth_gbps(9.6)),
        Arc::clone(&mem),
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let thermal = mem.platform().thermal_view();
    let frac = thermal.throttle_fraction(quartz_platform::SocketId(0), 0);
    let peak = mem.config().node_peak_bw_gbps();
    assert!(((frac * peak) - 9.6).abs() < 0.1, "throttled to ~9.6 GB/s");
    engine.run(|_| {});
}

#[test]
fn pflush_injects_write_delay() {
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let out = Arc::new(parking_lot::Mutex::new(0.0));
    let o = Arc::clone(&out);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 1 << 16).unwrap();
        let t0 = ctx.now();
        for i in 0..100u64 {
            ctx.store(buf.offset_by(i * 64));
            q.pflush(ctx, buf.offset_by(i * 64));
        }
        *o.lock() = ctx.now().saturating_duration_since(t0).as_ns_f64();
    });
    let elapsed = *out.lock();
    // 100 serialized flushes at >= 450 ns each.
    assert!(elapsed >= 100.0 * 450.0, "pflush serialized: {elapsed}");
    let stats = quartz.stats();
    assert_eq!(stats.totals.pflushes, 100);
    assert!(stats.totals.pflush_delay >= Duration::from_ns(45_000));
}

#[test]
fn sim_failure_reaps_slots_and_runtime_survives_for_next_run() {
    use quartz_threadsim::SimFailure;

    let mem = machine(Architecture::IvyBridge, true);
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
            .with_max_epoch(Duration::from_us(50)),
        Arc::clone(&mem),
    )
    .unwrap();

    // Run 1: a deadlocking workload with undrained pending flushes.
    let engine = Engine::new(Arc::clone(&mem));
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let failure = engine
        .try_run(move |ctx| {
            let buf = q.pmalloc(ctx, 4096).unwrap();
            ctx.store(buf);
            q.pflush_opt(ctx, buf); // left pending: never pcommit'ed
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
        .unwrap_err();
    assert!(matches!(failure, SimFailure::Deadlock(_)), "{failure}");

    // The reaper drained every slot and flagged the undrained flush.
    let stats = quartz.stats();
    assert_eq!(
        stats.degradation.orphan_slots_reaped, 3,
        "root + two children reaped: {stats}"
    );
    assert!(
        stats.degradation.epoch_state_anomalies >= 1,
        "undrained pending flush flagged: {stats}"
    );
    // Totals no longer include the failed run's per-thread state.
    assert_eq!(stats.totals.pflushes, 0);

    // Run 2: the same Quartz on a fresh engine works, and its stats are
    // not contaminated by the failed run.
    let engine2 = Engine::new(Arc::clone(&mem));
    quartz.attach(&engine2).unwrap();
    let q = Arc::clone(&quartz);
    engine2.run(move |ctx| {
        let buf = q.pmalloc(ctx, 4096).unwrap();
        for i in 0..10u64 {
            ctx.store(buf.offset_by(i * 64));
            q.pflush(ctx, buf.offset_by(i * 64));
        }
    });
    let stats2 = quartz.stats();
    assert_eq!(stats2.totals.pflushes, 10, "only the healthy run counted");
    assert!(stats2.totals.epochs() >= 1, "epochs close normally again");
    // Run 2's pmem calls landed in run 2's own slot, registered after
    // the reap: one thread, with its 10 flushes and none of run 1's.
    let per = quartz.per_thread_stats();
    assert_eq!(per.len(), 1, "only the healthy run's root thread");
    assert_eq!(per[0].pflushes, 10);
    assert_eq!(stats2.threads, 4, "three reaped registrations plus one");
}

/// A `Quartz` reused on a second engine keeps the first run's
/// per-thread stats: the second attach retires the first run's slots
/// before the second run registers its root thread under the same
/// thread id.
#[test]
fn reused_quartz_keeps_each_runs_per_thread_stats() {
    let mem = machine(Architecture::IvyBridge, true);
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        Arc::clone(&mem),
    )
    .unwrap();
    for flushes in [10u64, 5] {
        let engine = Engine::new(Arc::clone(&mem));
        quartz.attach(&engine).unwrap();
        let q = Arc::clone(&quartz);
        engine.run(move |ctx| {
            let buf = q.pmalloc(ctx, 4096).unwrap();
            for i in 0..flushes {
                ctx.store(buf.offset_by(i * 64));
                q.pflush_opt(ctx, buf.offset_by(i * 64));
            }
            q.pcommit(ctx);
        });
    }
    let stats = quartz.stats();
    assert_eq!(stats.threads, 2);
    assert_eq!(stats.totals.pflushes, 15, "{stats}");
    assert_eq!(stats.totals.epochs_exit, 2);
    let per: Vec<u64> = quartz
        .per_thread_stats()
        .iter()
        .map(|t| t.pflushes)
        .collect();
    assert_eq!(per, vec![10, 5], "registration order");
}

/// A failed run reaps only its own slots. Run A's four threads finish;
/// run B, on a fresh engine, registers one thread, which reuses run A's
/// root thread id, and then fails. The reaper drains B's slot alone:
/// A's per-thread stats survive, and A's undrained pending flushes are
/// not taken for B's.
#[test]
fn failed_run_reaps_only_its_own_slots() {
    let mem = machine(Architecture::IvyBridge, true);
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        Arc::clone(&mem),
    )
    .unwrap();

    // Run A: the root and three children, each flushing i + 1 lines with
    // `pflush_opt` and leaving them pending.
    let engine = Engine::new(Arc::clone(&mem));
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 4 * 4096).unwrap();
        let flush = move |c: &mut ThreadCtx, q: &Quartz, i: u64| {
            for l in 0..=i {
                let a = buf.offset_by(i * 4096 + l * 64);
                c.store(a);
                q.pflush_opt(c, a);
            }
        };
        let kids: Vec<_> = (1..4u64)
            .map(|i| {
                let q = Arc::clone(&q);
                ctx.spawn(move |c| flush(c, &q, i))
            })
            .collect();
        flush(ctx, &q, 0);
        for k in kids {
            ctx.join(k);
        }
    });
    let mut run_a: Vec<u64> = quartz
        .per_thread_stats()
        .iter()
        .map(|t| t.pflushes)
        .collect();
    run_a.sort_unstable();
    assert_eq!(run_a, vec![1, 2, 3, 4]);

    // Run B: one thread that flushes once and then panics.
    let engine = Engine::new(Arc::clone(&mem));
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let failure = engine
        .try_run(move |ctx| {
            let buf = q.pmalloc(ctx, 4096).unwrap();
            ctx.store(buf);
            q.pflush(ctx, buf);
            panic!("run B fails");
        })
        .unwrap_err();
    assert!(
        matches!(failure, quartz_threadsim::SimFailure::ThreadPanic { .. }),
        "{failure}"
    );

    let stats = quartz.stats();
    assert_eq!(stats.degradation.orphan_slots_reaped, 1, "{stats}");
    assert_eq!(stats.degradation.epoch_state_anomalies, 0, "{stats}");
    assert_eq!(stats.threads, 5);
    assert_eq!(stats.totals.pflushes, 10, "run A's flushes only: {stats}");
    let mut per: Vec<u64> = quartz
        .per_thread_stats()
        .iter()
        .map(|t| t.pflushes)
        .collect();
    per.sort_unstable();
    assert_eq!(per, run_a, "run A's four per-thread entries survive");
}

/// A persistence observer installed and removed while a run is under
/// way sees exactly the `pflush`/`pflush_opt`/`pcommit` events issued
/// between the two calls: the observer check that answers "none"
/// without the memory system's lock must not miss an install, nor keep
/// reporting after a removal.
#[test]
fn persist_observer_sees_exactly_the_pmem_events_while_installed() {
    use quartz_memsim::PersistObserver;
    use quartz_platform::time::SimTime;

    #[derive(Default)]
    struct Rec(parking_lot::Mutex<Vec<String>>);
    impl PersistObserver for Rec {
        fn nvm_flush(&self, line: u64, _initiated: SimTime, _durable_at: SimTime) {
            self.0.lock().push(format!("flush l{line}"));
        }
        fn nvm_flush_opt(&self, line: u64, _now: SimTime, _nvm_done: SimTime) {
            self.0.lock().push(format!("flush_opt l{line}"));
        }
        fn nvm_commit(&self, _now: SimTime, _done_at: SimTime) {
            self.0.lock().push("commit".into());
        }
    }

    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let rec = Arc::new(Rec::default());
    let (q, r) = (Arc::clone(&quartz), Arc::clone(&rec));
    let lines = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let l = Arc::clone(&lines);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 1 << 12).unwrap();
        let mut next = 0u64;
        let mut phase = |ctx: &mut ThreadCtx| {
            let a = buf.offset_by(next * 64);
            let b = buf.offset_by((next + 1) * 64);
            next += 2;
            ctx.store(a);
            q.pflush(ctx, a);
            ctx.store(b);
            q.pflush_opt(ctx, b);
            q.pcommit(ctx);
            (a.line(), b.line())
        };
        phase(ctx);
        ctx.mem().set_persist_observer(Some(r.clone()));
        *l.lock() = vec![phase(ctx), phase(ctx)];
        ctx.mem().set_persist_observer(None);
        phase(ctx);
    });
    let mut expected = Vec::new();
    for (a, b) in lines.lock().iter() {
        expected.extend([
            format!("flush l{a}"),
            format!("flush_opt l{b}"),
            "commit".into(),
        ]);
    }
    assert_eq!(*rec.0.lock(), expected);
}

/// A monitor signal that lands inside `pflush`'s delay spin runs the
/// signal hook's slot lookup while `pflush` is still on the stack. It
/// must neither panic nor charge anything twice: every signal is
/// counted exactly once, and the flush accounting is exact.
#[test]
fn signal_inside_pflush_spin_neither_panics_nor_double_counts() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use quartz_threadsim::{FanoutHooks, Hooks};

    /// Counts signals, and those delivered at `pflush`'s spin: the only
    /// op boundary inside `pflush` past its entry instant (the flush
    /// itself takes virtual time before the spin).
    #[derive(Default)]
    struct Probe {
        in_pflush: AtomicBool,
        entry_ps: AtomicU64,
        signals: AtomicU64,
        in_spin: AtomicU64,
    }
    impl Hooks for Probe {
        fn on_signal(&self, ctx: &mut ThreadCtx) {
            self.signals.fetch_add(1, Ordering::Relaxed);
            if self.in_pflush.load(Ordering::Relaxed)
                && ctx.now().as_ps() > self.entry_ps.load(Ordering::Relaxed)
            {
                self.in_spin.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    const FLUSHES: u64 = 200;
    const DELAY_NS: u64 = 20_000;
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    // A 5 ns monitor period puts a timer firing inside every flush's
    // virtual cost, so the spin's op boundary fires it; the minimum
    // epoch keeps every signalled epoch open, so the 1 µs maximum is
    // exceeded at every firing and each one signals.
    let mut cfg = QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(DELAY_NS as f64))
        .with_max_epoch(Duration::from_us(1));
    cfg.monitor_period = Duration::from_ns(5);
    cfg.min_epoch = Duration::from_ms(1_000);
    let quartz = Quartz::new(cfg, Arc::clone(&mem)).unwrap();
    quartz.attach(&engine).unwrap();
    let probe = Arc::new(Probe::default());
    engine.set_hooks(Arc::new(FanoutHooks::new(vec![
        Arc::clone(&probe) as Arc<dyn Hooks>,
        Arc::clone(&quartz) as Arc<dyn Hooks>,
    ])));
    let (q, p) = (Arc::clone(&quartz), Arc::clone(&probe));
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, FLUSHES * 64).unwrap();
        for i in 0..FLUSHES {
            let a = buf.offset_by(i * 64);
            ctx.store(a);
            p.entry_ps.store(ctx.now().as_ps(), Ordering::Relaxed);
            p.in_pflush.store(true, Ordering::Relaxed);
            q.pflush(ctx, a);
            p.in_pflush.store(false, Ordering::Relaxed);
        }
    });
    let stats = quartz.stats();
    let signals = probe.signals.load(Ordering::Relaxed);
    assert!(
        probe.in_spin.load(Ordering::Relaxed) >= FLUSHES / 2,
        "signals inside the spin: {} of {signals}",
        probe.in_spin.load(Ordering::Relaxed)
    );
    assert_eq!(
        stats.totals.skipped_min_epoch, signals,
        "one skip per signal"
    );
    assert_eq!(stats.totals.epochs(), 1, "only the exit closes: {stats}");
    assert_eq!(stats.totals.pflushes, FLUSHES);
    assert_eq!(
        stats.totals.pflush_delay,
        Duration::from_ns(FLUSHES * DELAY_NS)
    );
    // One slot-lock acquisition per flush, per signal, for the exit
    // close and for this `stats()` read.
    assert_eq!(stats.totals.lock_acquisitions, FLUSHES + signals + 2);
}

#[test]
fn pcommit_overlaps_independent_writes() {
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let out = Arc::new(parking_lot::Mutex::new(0.0));
    let o = Arc::clone(&out);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 1 << 16).unwrap();
        let t0 = ctx.now();
        for batch in 0..10u64 {
            for i in 0..10u64 {
                let a = buf.offset_by((batch * 10 + i) * 64);
                ctx.store(a);
                q.pflush_opt(ctx, a);
            }
            assert_eq!(q.pending_flushes(ctx), 10);
            q.pcommit(ctx);
            assert_eq!(q.pending_flushes(ctx), 0);
        }
        *o.lock() = ctx.now().saturating_duration_since(t0).as_ns_f64();
    });
    let elapsed = *out.lock();
    // 100 writes, but only 10 barriers are serialized: way below the
    // 100 * 450 ns of the pessimistic pflush path.
    assert!(
        elapsed < 100.0 * 450.0 * 0.5,
        "pcommit batches overlap independent writes: {elapsed}"
    );
    assert!(
        elapsed >= 10.0 * 450.0,
        "each barrier still waits: {elapsed}"
    );
}

#[test]
fn repeated_pflush_opt_of_one_line_does_not_grow_pending_set() {
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 4096).unwrap();
        // Hammer the same line: the pending set must stay at one entry
        // (the seed grew it by one per call within a commit window).
        for _ in 0..1_000 {
            ctx.store(buf);
            q.pflush_opt(ctx, buf);
        }
        assert_eq!(q.pending_flushes(ctx), 1, "per-line dedupe");
        // A second line makes two.
        ctx.store(buf.offset_by(64));
        q.pflush_opt(ctx, buf.offset_by(64));
        assert_eq!(q.pending_flushes(ctx), 2);
        let before = ctx.now();
        q.pcommit(ctx);
        // Max-completion semantics survive: the barrier still waits for
        // the most recent flush's NVM completion.
        assert!(
            ctx.now().saturating_duration_since(before) >= Duration::from_ns(400),
            "pcommit still waits for the latest completion"
        );
        assert_eq!(q.pending_flushes(ctx), 0);
    });
}

#[test]
fn interleaved_flushes_on_one_os_thread_stay_in_their_own_slots() {
    // An engine runs its simulated threads on the OS thread that calls
    // `run`, so they share the registry's per-OS-thread slot cache. Two
    // threads hand off between every `pflush_opt` and check that each
    // lookup still reaches the caller's own pending set and stats.
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let host = std::thread::current().id();
    let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log = Arc::clone(&order);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 1 << 16).unwrap();
        let start = ctx.barrier_new(2);
        let kids: Vec<_> = [3u64, 5]
            .into_iter()
            .enumerate()
            .map(|(k, lines)| {
                let (q, log) = (Arc::clone(&q), Arc::clone(&log));
                ctx.spawn(move |c| {
                    assert_eq!(std::thread::current().id(), host);
                    c.barrier_wait(start);
                    for round in 0..4u64 {
                        for i in 0..lines {
                            let a = buf.offset_by((k as u64 * 64 + round * 8 + i) * 64);
                            c.store(a);
                            q.pflush_opt(c, a);
                            log.lock().push((k, i + 1 < lines));
                            c.yield_now();
                            assert_eq!(q.pending_flushes(c), i as usize + 1);
                        }
                        q.pcommit(c);
                        assert_eq!(q.pending_flushes(c), 0);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    // (thread, window still open) per flush: count hand-offs that left
    // a thread's flushes pending.
    let order = order.lock();
    let open_switches = order
        .windows(2)
        .filter(|w| w[0].0 != w[1].0 && w[0].1)
        .count();
    assert!(open_switches >= 2, "hand-offs inside a window: {order:?}");
    let mut pflushes: Vec<u64> = quartz
        .per_thread_stats()
        .iter()
        .map(|s| s.pflushes)
        .collect();
    pflushes.sort_unstable();
    assert_eq!(pflushes, vec![0, 12, 20], "root, 3 lines x 4, 5 lines x 4");
}

#[test]
fn stats_report_amortization() {
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(400.0)).with_max_epoch(Duration::from_us(200)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    engine.run(move |ctx| {
        chase(ctx, NodeId(0), 50_000);
    });
    let stats = quartz.stats();
    assert!(stats.threads >= 1);
    assert!(
        stats.totals.epochs() > 5,
        "epochs closed: {}",
        stats.totals.epochs()
    );
    assert!(stats.totals.injected > Duration::ZERO);
    assert!(
        stats.overhead_fully_amortized(),
        "memory-bound run amortizes overhead: {stats}"
    );
    assert!(stats.init_time > Duration::ZERO);
}

#[test]
fn counter_fidelity_produces_family_error_ordering() {
    // With real (skewed) counters, Sandy Bridge errors exceed Ivy Bridge
    // errors — the paper's Fig. 12 family ordering.
    let measure = |arch: Architecture| -> f64 {
        let mut worst: f64 = 0.0;
        for seed in 0..3u64 {
            let platform = Platform::new(PlatformConfig::new(arch).with_fidelity_seed(seed));
            let mem = Arc::new(MemorySystem::new(
                platform,
                MemSimConfig::default().without_jitter(),
            ));
            let engine = Engine::new(Arc::clone(&mem));
            let target = 1000.0;
            let quartz = Quartz::new(
                QuartzConfig::new(NvmTarget::new(target)).with_max_epoch(Duration::from_us(20)),
                mem,
            )
            .unwrap();
            quartz.attach(&engine).unwrap();
            let out = Arc::new(parking_lot::Mutex::new(0.0));
            let o = Arc::clone(&out);
            engine.run(move |ctx| {
                let n = 30_000u64;
                *o.lock() = chase(ctx, NodeId(0), n) / n as f64;
            });
            let measured = *out.lock();
            worst = worst.max((measured - target).abs() / target);
        }
        worst
    };
    let snb = measure(Architecture::SandyBridge);
    let ivb = measure(Architecture::IvyBridge);
    assert!(snb > ivb, "SNB worst error {snb} should exceed IVB {ivb}");
    assert!(snb < 0.10, "SNB error stays in the paper's band: {snb}");
    assert!(ivb < 0.025, "IVB error stays in the paper's band: {ivb}");
}

#[test]
fn delay_propagates_through_locks() {
    // Fig. 4/13 in miniature: two threads, critical sections only. With
    // proper propagation the emulated completion time matches running on
    // remote memory.
    let arch = Architecture::IvyBridge;
    let params = arch.params();
    let cs_work = |ctx: &mut ThreadCtx, buf: quartz_memsim::Addr, idx: &mut u64, lines: u64| {
        for _ in 0..50 {
            *idx = (idx.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % lines;
            ctx.load(buf.offset_by(*idx * 64));
        }
    };
    let run = |emulate: bool| -> f64 {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let node = if emulate { NodeId(0) } else { NodeId(1) };
        if emulate {
            let quartz = Quartz::new(
                QuartzConfig::new(NvmTarget::new(params.remote_dram_ns.avg_ns as f64))
                    .with_max_epoch(Duration::from_ms(10))
                    .with_min_epoch(Duration::from_us(10)),
                Arc::clone(&mem),
            )
            .unwrap();
            quartz.attach(&engine).unwrap();
        }
        let report = engine.run(move |ctx| {
            let m = ctx.mutex_new();
            let lines = 8 * ctx.mem().config().l3.size_bytes / 64;
            let mut kids = Vec::new();
            for k in 0..2u64 {
                kids.push(ctx.spawn(move |c| {
                    let buf = c.alloc_on(node, lines * 64);
                    let mut idx = k * 13 + 1;
                    for _ in 0..200 {
                        c.mutex_lock(m);
                        cs_work(c, buf, &mut idx, lines);
                        c.mutex_unlock(m);
                    }
                }));
            }
            for k in kids {
                ctx.join(k);
            }
        });
        report.end_time.as_ns_f64()
    };
    let actual = run(false);
    let emulated = run(true);
    let err = (emulated - actual).abs() / actual;
    assert!(
        err < 0.05,
        "multithreaded emulation error {:.2}% (emulated {emulated} vs actual {actual})",
        err * 100.0
    );
}

#[test]
fn contended_atomics_charge_visibility_stalls() {
    // Two threads hammering one cell overlap in virtual time, so the
    // thread running behind observes the other's publication and is
    // floored past it — the engine charges a hand-off wait, and the
    // emulator accounts it as a visibility stall on the CAS path.
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(QuartzConfig::new(NvmTarget::new(300.0)), mem).unwrap();
    quartz.attach(&engine).unwrap();
    let a = engine.atomic_u64(0);
    engine.run(move |ctx| {
        let kids: Vec<_> = (0..2)
            .map(|_| {
                ctx.spawn(move |c| {
                    for _ in 0..1000 {
                        a.fetch_add(c, 1);
                    }
                })
            })
            .collect();
        for k in kids {
            ctx.join(k);
        }
    });
    let stats = quartz.stats();
    assert_eq!(stats.totals.atomic_ops, 2000);
    assert!(
        !stats.totals.cas_handoff_wait.is_zero(),
        "visibility stalls charged under contention"
    );
}

#[test]
fn delay_propagates_through_cas_handoffs() {
    // The §6 gap, closed: the same serialized workload as
    // `delay_propagates_through_locks` but synchronized by a CAS
    // spinlock instead of a mutex. With atomic interposition the epoch
    // settles before each publishing CAS/store, so NVM delay lands
    // before the release becomes visible and the emulated completion
    // time matches physically remote memory. With the naive-host-atomics
    // baseline (`without_atomic_interposition`) delays are only injected
    // at thread exit, overlap instead of serializing, and the emulation
    // underestimates.
    let arch = Architecture::IvyBridge;
    let params = arch.params();
    let cs_work = |ctx: &mut ThreadCtx, buf: quartz_memsim::Addr, idx: &mut u64, lines: u64| {
        for _ in 0..150 {
            *idx = (idx.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % lines;
            ctx.load(buf.offset_by(*idx * 64));
        }
    };
    // emulate: None = run on physically remote DRAM without the
    // emulator; Some(seams) = emulate NVM on local DRAM, with or
    // without the atomics interposition seams.
    let run = |emulate: Option<bool>| -> (f64, Option<crate::stats::QuartzStats>) {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let node = if emulate.is_some() {
            NodeId(0)
        } else {
            NodeId(1)
        };
        let quartz = emulate.map(|seams| {
            let mut config = QuartzConfig::new(NvmTarget::new(params.remote_dram_ns.avg_ns as f64))
                .with_max_epoch(Duration::from_ms(10))
                .with_min_epoch(Duration::from_us(10));
            if !seams {
                config = config.without_atomic_interposition();
            }
            let quartz = Quartz::new(config, Arc::clone(&mem)).unwrap();
            quartz.attach(&engine).unwrap();
            quartz
        });
        let lock = engine.atomic_u64(0);
        let report = engine.run(move |ctx| {
            let lines = 8 * ctx.mem().config().l3.size_bytes / 64;
            let mut kids = Vec::new();
            for k in 0..2u64 {
                kids.push(ctx.spawn(move |c| {
                    let buf = c.alloc_on(node, lines * 64);
                    let mut idx = k * 13 + 1;
                    for _ in 0..100 {
                        while lock.compare_exchange(c, 0, 1).is_err() {
                            c.compute_ns(30.0);
                        }
                        cs_work(c, buf, &mut idx, lines);
                        lock.store(c, 0);
                    }
                }));
            }
            for k in kids {
                ctx.join(k);
            }
        });
        (report.end_time.as_ns_f64(), quartz.map(|q| q.stats()))
    };
    let (actual, _) = run(None);
    let (emulated, stats) = run(Some(true));
    let (naive, naive_stats) = run(Some(false));
    // The spin-wait epochs carry unamortizable close overhead (the
    // waiter's wait is hidden time in the physical run), so the CAS path
    // is held to a looser bound than the mutex path above — the point is
    // the gap to the naive baseline, asserted next.
    let err = (emulated - actual).abs() / actual;
    assert!(
        err < 0.10,
        "CAS-synchronized emulation error {:.2}% (emulated {emulated} vs actual {actual})",
        err * 100.0
    );
    // The baseline reproduces the paper's limitation: measurably under,
    // and worse than the interposed emulation.
    assert!(
        naive < emulated,
        "naive host atomics should underestimate (naive {naive} vs seams {emulated})"
    );
    let naive_err = (actual - naive) / actual;
    assert!(
        naive_err > err + 0.02,
        "naive baseline should be measurably worse: naive err {:.2}% vs seams err {:.2}%",
        naive_err * 100.0,
        err * 100.0
    );
    // Stall attribution lands on the CAS path.
    let stats = stats.unwrap();
    assert!(stats.totals.epochs_atomic > 0, "epochs closed at CAS seams");
    assert!(stats.totals.atomic_ops > 0);
    assert!(stats.totals.cas_handoffs > 0, "release→acquire edges seen");
    // The gate really is a no-op: no atomics accounting at all.
    let naive_stats = naive_stats.unwrap();
    assert_eq!(naive_stats.totals.epochs_atomic, 0);
    assert_eq!(naive_stats.totals.atomic_ops, 0);
    assert_eq!(naive_stats.totals.cas_handoffs, 0);
}

#[test]
fn epoch_trace_records_each_epoch() {
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(400.0)).with_max_epoch(Duration::from_us(50)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    quartz.set_epoch_trace(true);
    engine.run(move |ctx| {
        chase(ctx, NodeId(0), 10_000);
    });
    let trace = quartz.epoch_trace();
    let stats = quartz.stats();
    assert_eq!(
        trace.len() as u64,
        stats.totals.epochs(),
        "one record per epoch"
    );
    assert!(trace.len() > 5);
    // Records are causally ordered per thread and consistent with totals.
    let injected: Duration = trace.iter().map(|r| r.injected).sum();
    assert_eq!(injected, stats.totals.injected);
    for w in trace.windows(2) {
        if w[0].thread == w[1].thread {
            assert!(w[0].closed_at <= w[1].closed_at);
        }
    }
    assert!(trace.iter().all(|r| r.computed_delay >= r.injected));
    assert!(trace.iter().any(|r| r.misses > 0));
    // Disabling clears.
    quartz.set_epoch_trace(false);
    assert!(quartz.epoch_trace().is_empty());
}

/// Regression test for the seed's epoch-close race.
///
/// The seed's `end_epoch` was check-then-act across two lock
/// acquisitions: it read the counters and computed the delta under one
/// acquisition, dropped the state lock, then re-acquired it to overwrite
/// `snap` and charge the stats. A monitor-signalled close slipping into
/// that window would compute its delta against the *same* stale `snap`
/// and charge the epoch's counters twice. The rewritten
/// `end_epoch_on` holds the slot's owner lock across the whole
/// read-compute-update sequence, and its `midpoint` probe runs exactly
/// where the seed dropped the lock — so this test fails on the old
/// double-acquisition logic (the probe could lock) and passes on the new.
#[test]
fn end_epoch_holds_slot_lock_across_read_and_update() {
    use std::sync::atomic::{AtomicU32, Ordering};

    use crate::stats::EpochReason;

    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(400.0)).with_max_epoch(Duration::from_us(100)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let probes = Arc::new(AtomicU32::new(0));
    let p = Arc::clone(&probes);
    engine.run(move |ctx| {
        chase(ctx, NodeId(0), 2_000);
        q.registry
            .with_slot(ctx.thread_id().0, |slot| {
                for _ in 0..3 {
                    chase(ctx, NodeId(0), 500);
                    q.end_epoch_on(slot, ctx, EpochReason::MutexUnlock, |s| {
                        // A concurrent close (the seed's race partner) would
                        // have to acquire the owner lock right here — it must
                        // fail.
                        assert!(
                            s.try_lock_owner().is_none(),
                            "owner lock must be held across the counter-read/state-update window"
                        );
                        p.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
            .expect("thread registered at start");
    });
    assert_eq!(
        probes.load(Ordering::SeqCst),
        3,
        "probe ran inside each close"
    );
}

/// Under a synchronization storm with monitor pressure, every epoch is
/// charged exactly once: the per-thread stats tile the aggregate totals
/// and the trace tiles the injected-delay accounting.
#[test]
fn storm_accounting_has_no_double_charges() {
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::new(500.0))
            .with_max_epoch(Duration::from_us(20)) // heavy monitor pressure
            .with_min_epoch(Duration::from_us(2)),
        mem,
    )
    .unwrap();
    quartz.attach(&engine).unwrap();
    quartz.set_epoch_trace(true);
    engine.run(move |ctx| {
        let m = ctx.mutex_new();
        let lines = 8 * ctx.mem().config().l3.size_bytes / 64;
        let mut kids = Vec::new();
        for k in 0..4u64 {
            kids.push(ctx.spawn(move |c| {
                let buf = c.alloc_on(NodeId(0), lines * 64);
                let mut idx = k * 31 + 1;
                for _ in 0..100 {
                    c.mutex_lock(m);
                    for _ in 0..20 {
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
    let stats = quartz.stats();
    let per = quartz.per_thread_stats();
    let trace = quartz.epoch_trace();

    // 1 main + 4 workers registered; one stats entry each.
    assert_eq!(stats.threads, 5);
    assert_eq!(per.len(), 5);
    // Per-thread stats sum exactly to the aggregate: an epoch charged
    // twice (the seed's race) would break this tiling.
    let injected: Duration = per.iter().map(|t| t.injected).sum();
    assert_eq!(injected, stats.totals.injected);
    let epochs: u64 = per.iter().map(|t| t.epochs()).sum();
    assert_eq!(epochs, stats.totals.epochs());
    let skipped: u64 = per.iter().map(|t| t.skipped_min_epoch).sum();
    assert_eq!(skipped, stats.totals.skipped_min_epoch);
    // The trace is one record per close, and its injected sum matches.
    assert_eq!(trace.len() as u64, stats.totals.epochs());
    let traced: Duration = trace.iter().map(|r| r.injected).sum();
    assert_eq!(traced, stats.totals.injected);
    // The storm did exercise both monitor and unlock closes.
    assert!(stats.totals.epochs_unlock > 0, "{stats}");
    assert!(stats.totals.epochs_monitor > 0, "{stats}");
    // Host-side slot-lock telemetry: one acquisition per charged event,
    // never zero once epochs closed.
    assert!(stats.totals.lock_acquisitions >= stats.totals.epochs());
    assert!(per.iter().all(|t| t.lock_acquisitions > 0));
}

/// Streams regular (RFO-path) stores over a buffer far larger than L3,
/// touching one line per page stride so the store buffer backs up;
/// returns elapsed virtual ns.
fn store_burst(ctx: &mut ThreadCtx, node: NodeId, stores: u64) -> f64 {
    let buf = ctx.alloc_on(node, 1 << 24);
    let t0 = ctx.now();
    for i in 0..stores {
        ctx.store(buf.offset_by((i * 4096 + (i % 7) * 64) % ((1 << 24) - 64)));
    }
    ctx.now().saturating_duration_since(t0).as_ns_f64()
}

#[test]
fn asymmetric_model_charges_write_heavy_runs() {
    // The tentpole's point: a write-heavy run under the symmetric model
    // pays almost nothing (posted stores are invisible to the load-side
    // counters), while the asymmetric model prices the store-buffer
    // back-pressure at the NVM write latency.
    let arch = Architecture::IvyBridge;
    let run = |target: NvmTarget| {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let quartz = Quartz::new(
            QuartzConfig::new(target).with_max_epoch(Duration::from_us(100)),
            mem,
        )
        .unwrap();
        quartz.attach(&engine).unwrap();
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine.run(move |ctx| {
            *o.lock() = store_burst(ctx, NodeId(0), 30_000);
        });
        let v = *out.lock();
        (v, quartz.stats())
    };
    let sym = NvmTarget::new(300.0);
    let asym = NvmTarget::new(300.0).with_write_latency_ns(900.0);
    let (t_sym, s_sym) = run(sym);
    let (t_asym, s_asym) = run(asym);
    assert!(s_sym.totals.write_term.is_zero());
    assert!(!s_asym.totals.write_term.is_zero());
    assert!(
        t_asym > 1.1 * t_sym,
        "asymmetric run must be visibly slower on write-heavy code: {t_asym} vs {t_sym}"
    );
    // Schema: the symmetric run exports a zero write term.
    assert!(s_sym.to_json().render().contains(",\"write_term_ps\":0}"));
    let asym = s_asym.to_json().render();
    assert!(asym.contains(",\"write_term_ps\":") && !asym.contains(",\"write_term_ps\":0}"));
}

#[test]
fn asymmetric_model_leaves_read_heavy_runs_alone() {
    // Control cell: a pointer chase has no store traffic, so turning the
    // asymmetric model on must not change the injected read-side delay
    // beyond the (amortized) extra counter-read overhead.
    let arch = Architecture::Haswell;
    let run = |target: NvmTarget| {
        let mem = machine(arch, true);
        let engine = Engine::new(Arc::clone(&mem));
        let quartz = Quartz::new(
            QuartzConfig::new(target).with_max_epoch(Duration::from_us(100)),
            mem,
        )
        .unwrap();
        quartz.attach(&engine).unwrap();
        let out = Arc::new(parking_lot::Mutex::new(0.0));
        let o = Arc::clone(&out);
        engine.run(move |ctx| {
            *o.lock() = chase(ctx, NodeId(0), 30_000);
        });
        let v = *out.lock();
        (v, quartz.stats())
    };
    let (t_sym, _) = run(NvmTarget::new(500.0));
    let (t_asym, s_asym) = run(NvmTarget::new(500.0).with_write_latency_ns(900.0));
    // No stores -> no SB stalls -> zero write term, even with the model on.
    assert!(s_asym.totals.write_term.is_zero(), "{s_asym}");
    let drift = (t_asym - t_sym).abs() / t_sym;
    assert!(drift < 0.02, "read-heavy drift {:.3}%", drift * 100.0);
}

#[test]
fn pflush_does_not_double_charge_stores_under_asymmetric_model() {
    // Satellite check for the two write knobs: a store that is promptly
    // pflushed is charged once by pflush (write_delay_ns); the asymmetric
    // term must not price the flush writeback again. With flushes keeping
    // the store buffer drained there is no RFO back-pressure, so the
    // write term stays zero and total write charging is exactly
    // pflushes x write_delay.
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let target = NvmTarget::new(300.0)
        .with_write_delay_ns(450.0)
        .with_write_latency_ns(900.0);
    let quartz = Quartz::new(QuartzConfig::new(target), mem).unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 1 << 16).unwrap();
        for i in 0..200u64 {
            ctx.store(buf.offset_by((i % 1024) * 64));
            q.pflush(ctx, buf.offset_by((i % 1024) * 64));
        }
    });
    let stats = quartz.stats();
    assert_eq!(stats.totals.pflushes, 200);
    assert_eq!(stats.totals.pflush_delay, Duration::from_ns(200 * 450));
    // Each flush spins 450 ns, so the at-most-one in-flight RFO always
    // completes before the next store: zero SB stalls, zero write term.
    assert!(
        stats.totals.write_term.is_zero(),
        "flushed stores double-charged: {stats}"
    );
}

#[test]
fn wpq_pacing_throttles_flush_bursts() {
    // write_bandwidth_gbps paces pflush at the NVM drain rate: 1 GB/s
    // means 64 ns per line, dominating a 1 ns fixed write delay.
    let mem = machine(Architecture::IvyBridge, true);
    let engine = Engine::new(Arc::clone(&mem));
    let target = NvmTarget::new(300.0)
        .with_write_delay_ns(1.0)
        .with_write_bandwidth_gbps(1.0);
    let quartz = Quartz::new(QuartzConfig::new(target), mem).unwrap();
    quartz.attach(&engine).unwrap();
    let q = Arc::clone(&quartz);
    let out = Arc::new(parking_lot::Mutex::new(0.0));
    let o = Arc::clone(&out);
    engine.run(move |ctx| {
        let buf = q.pmalloc(ctx, 1 << 16).unwrap();
        let t0 = ctx.now();
        for i in 0..50u64 {
            ctx.store(buf.offset_by(i * 64));
            q.pflush(ctx, buf.offset_by(i * 64));
        }
        *o.lock() = ctx.now().saturating_duration_since(t0).as_ns_f64();
    });
    // 50 lines at 64 ns/line of drain = 3200 ns minimum.
    assert!(*out.lock() >= 50.0 * 64.0, "WPQ pacing: {}", out.lock());
    let stats = quartz.stats();
    assert!(stats.totals.pflush_delay >= Duration::from_ns(3200));
}

mod snap_properties {
    //! Property tests for the counter-snapshot arithmetic the epoch
    //! accounting is built on.

    use proptest::prelude::*;

    use crate::runtime::Snap;

    /// Builds cumulative (monotone) snapshots from per-interval
    /// increments, in either counter family: `split` architectures
    /// expose local/remote miss counters, the others one `miss_all`.
    fn cumulative(incs: &[(u64, u64, u64, u64)], split: bool) -> Vec<Snap> {
        let mut snaps = vec![Snap::default()];
        let mut acc = Snap::default();
        for &(stalls, hits, m1, m2) in incs {
            acc.stalls += stalls;
            acc.hits += hits;
            if split {
                acc.miss_local += m1;
                acc.miss_remote += m2;
            } else {
                acc.miss_all += m1 + m2;
            }
            snaps.push(acc);
        }
        snaps
    }

    proptest! {
        /// However the closes interleave (any partition of the counter
        /// timeline into epochs), the per-epoch deltas tile the total:
        /// nothing is charged twice, nothing is lost, and `misses()` is
        /// additive in both counter families.
        #[test]
        fn snap_deltas_tile_under_interleaved_closes(
            incs in proptest::collection::vec(
                (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
                1..24,
            ),
            cuts in proptest::collection::vec(proptest::bool::ANY, 0..24),
            split in proptest::bool::ANY,
        ) {
            let snaps = cumulative(&incs, split);
            let total = snaps[snaps.len() - 1].delta(snaps[0]);

            // Walk the timeline, closing an epoch wherever `cuts` says
            // so (and always at the end), exactly as `end_epoch_on`
            // advances `snap = cur` at each close.
            let mut snap = snaps[0];
            let mut charged = Snap::default();
            let mut charged_misses = 0u64;
            for (i, cur) in snaps.iter().enumerate().skip(1) {
                let close_here =
                    i == snaps.len() - 1 || cuts.get(i - 1).copied().unwrap_or(false);
                if close_here {
                    let d = cur.delta(snap);
                    // Monotone counters: deltas never go negative
                    // (saturating_sub must never actually saturate).
                    prop_assert!(cur.stalls >= snap.stalls);
                    prop_assert_eq!(d.stalls, cur.stalls - snap.stalls);
                    charged.stalls += d.stalls;
                    charged.hits += d.hits;
                    charged.miss_local += d.miss_local;
                    charged.miss_remote += d.miss_remote;
                    charged.miss_all += d.miss_all;
                    charged_misses += d.misses();
                    snap = *cur; // epoch boundary: cur becomes the base
                }
            }
            prop_assert_eq!(charged, total, "epoch deltas must tile the counter timeline");
            prop_assert_eq!(charged_misses, total.misses(), "misses() additive per family");
        }

        /// 48-bit wrap regression (the seed's `saturating_sub` delta
        /// silently zeroed the epoch that spanned a wrap): for a counter
        /// parked anywhere, including just below 2^48, the delta across
        /// the wrap recovers the true increment mod 2^48.
        #[test]
        fn snap_delta_survives_48_bit_wrap(
            park_below in 0u64..1_000_000,
            inc in 0u64..10_000_000,
        ) {
            use quartz_platform::pmu::COUNTER_MASK;
            let start = COUNTER_MASK - park_below; // just below 2^48
            let before = Snap { stalls: start, ..Snap::default() };
            let after = Snap {
                stalls: start.wrapping_add(inc) & COUNTER_MASK,
                ..Snap::default()
            };
            let d = after.delta(before);
            prop_assert_eq!(d.stalls, inc, "delta must be the true increment mod 2^48");
            let wraps = after.wraps_since(before);
            prop_assert_eq!(wraps, u64::from(inc > park_below), "wrap detection");
        }

        /// `misses()` prefers the unified counter when the architecture
        /// provides one and falls back to the local/remote split.
        #[test]
        fn misses_prefers_unified_counter(
            all in 1u64..10_000,
            local in 0u64..10_000,
            remote in 0u64..10_000,
        ) {
            let unified = Snap { miss_all: all, miss_local: local, miss_remote: remote, ..Snap::default() };
            prop_assert_eq!(unified.misses(), all);
            let split = Snap { miss_local: local, miss_remote: remote, ..Snap::default() };
            prop_assert_eq!(split.misses(), local + remote);
        }
    }
}
