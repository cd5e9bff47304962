//! The **failure taxonomy self-test** — deliberately failing
//! micro-workloads asserting that every [`SimFailure`] class is
//! contained, classified, and diagnosed by name.
//!
//! Each scenario drives [`Engine::try_run`] into one failure mode and
//! checks the returned classification:
//!
//! * `deadlock/*` must come back as [`SimFailure::Deadlock`] with the
//!   actual lock cycle named (`t1 -(m1)-> t2, t2 -(m0)-> t1`);
//! * `panic/child` must come back as [`SimFailure::ThreadPanic`]
//!   carrying the sim-thread id and the original payload;
//! * `hang/virtual_spin` must trip the host-side watchdog and come back
//!   as [`SimFailure::Hang`] naming the scheduler-token holder;
//! * `livelock/cas_storm` must trip the consecutive-failed-CAS streak
//!   detector and come back as [`SimFailure::Livelock`] naming the
//!   spinning thread set (progress in virtual time, none in the data);
//! * `timeout/recv_expiry` must come back `ok`: a legitimate
//!   `recv_timeout`/`send_timeout` expiry is a pending virtual-time
//!   event, and neither the armed watchdog nor the deadlock detector
//!   may misread the timed wait as lost progress;
//! * `deadlock/quartz_reap` additionally checks the emulator-side
//!   containment: the attached Quartz instance reaps every orphaned
//!   per-thread slot and flags the undrained flush as an epoch-state
//!   anomaly, so the runtime stays usable for the next run.
//!
//! A misclassification panics the grid point, which quarantines this
//! experiment and makes `repro` exit non-zero; a diagnostic that does
//! not name what its scenario must name fails that scenario's claim.
//! The table prints only deterministic diagnostics (thread
//! ids, cycles, configured budgets — never host-dependent sim-times of
//! the hang path), so the experiment participates in the byte-identical
//! `--jobs` guarantee.
//!
//! [`Engine::try_run`]: quartz_threadsim::Engine::try_run
//! [`SimFailure`]: quartz_threadsim::SimFailure

use std::sync::Arc;

use quartz::{NvmTarget, Quartz, QuartzConfig};
use quartz_memsim::MemorySystem;
use quartz_platform::time::Duration;
use quartz_platform::Architecture;
use quartz_threadsim::{Engine, SimFailure};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::Table;
use crate::MachineSpec;

/// The watchdog budget used by the hang scenario. Host time, but a
/// configured constant, so it may appear in deterministic output.
const HANG_BUDGET_MS: u64 = 25;

/// The consecutive-failed-CAS threshold for the livelock scenario.
/// Low enough to fire quickly, far above any legitimate retry streak
/// in these micro-workloads.
const LIVELOCK_THRESHOLD: u64 = 400;

/// One deliberately failing (or deliberately healthy) micro-workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scenario {
    /// Control: a healthy multi-threaded run must classify as `ok`.
    Clean,
    /// Classic ABBA lock inversion between two children.
    DeadlockAbba,
    /// A child thread panics with a known payload.
    PanicChild,
    /// The root spins in virtual time forever; the watchdog must name it.
    HangVirtualSpin,
    /// A no-progress CAS storm between two children; the streak
    /// detector must name the spinning thread set.
    LivelockCasStorm,
    /// ABBA deadlock with Quartz attached: slots must be reaped.
    DeadlockQuartzReap,
    /// A legitimate `recv_timeout` expiry on a never-fed channel, with
    /// the watchdog armed: a *timed* wait is a pending virtual-time
    /// event, not a hang or deadlock, and must classify as `ok`.
    TimeoutRecvExpiry,
}

impl Scenario {
    const ALL: [Scenario; 7] = [
        Scenario::Clean,
        Scenario::DeadlockAbba,
        Scenario::PanicChild,
        Scenario::HangVirtualSpin,
        Scenario::LivelockCasStorm,
        Scenario::DeadlockQuartzReap,
        Scenario::TimeoutRecvExpiry,
    ];

    fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean/control",
            Scenario::DeadlockAbba => "deadlock/abba",
            Scenario::PanicChild => "panic/child",
            Scenario::HangVirtualSpin => "hang/virtual_spin",
            Scenario::LivelockCasStorm => "livelock/cas_storm",
            Scenario::DeadlockQuartzReap => "deadlock/quartz_reap",
            Scenario::TimeoutRecvExpiry => "timeout/recv_expiry",
        }
    }

    /// The [`SimFailure::kind`] (or `"ok"`) the scenario must produce.
    fn expected(self) -> &'static str {
        match self {
            Scenario::Clean | Scenario::TimeoutRecvExpiry => "ok",
            Scenario::DeadlockAbba | Scenario::DeadlockQuartzReap => "deadlock",
            Scenario::PanicChild => "panic",
            Scenario::HangVirtualSpin => "hang",
            Scenario::LivelockCasStorm => "livelock",
        }
    }

    /// What the diagnostic must name: the cycle edges, the panic
    /// payload, the token holder and budget, the spinning set and
    /// threshold, the reap counts, or the clean expiry.
    fn names(self) -> &'static str {
        match self {
            Scenario::Clean => "completed at",
            Scenario::DeadlockAbba => "t1 -(m1)-> t2, t2 -(m0)-> t1",
            Scenario::PanicChild => "t1 \"injected fault\"",
            Scenario::HangVirtualSpin => "t0 exceeded 25ms watchdog budget",
            Scenario::LivelockCasStorm => "t1+t2 failed 400 consecutive CAS without progress",
            Scenario::DeadlockQuartzReap => "reaped=3 anomalies=1",
            Scenario::TimeoutRecvExpiry => "expired cleanly",
        }
    }
}

/// One evaluated scenario, ready for the table.
struct Row {
    label: String,
    scenario: Scenario,
    observed: String,
    diagnostic: String,
}

/// A fully deterministic machine: classification diagnostics must be
/// byte-identical run to run.
fn taxonomy_machine(seed: u64) -> Arc<MemorySystem> {
    MachineSpec::new(Architecture::IvyBridge)
        .with_seed(seed)
        .with_no_jitter()
        .with_perfect_counters()
        .build()
}

/// Renders a deadlock cycle as `t1 -(m1)-> t2, t2 -(m0)-> t1`.
fn render_cycle(failure: &SimFailure) -> String {
    match failure {
        SimFailure::Deadlock(report) => report
            .cycle
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        _ => String::new(),
    }
}

/// The ABBA child pair used by both deadlock scenarios.
fn spawn_abba(ctx: &mut quartz_threadsim::ThreadCtx) {
    let a = ctx.mutex_new();
    let b = ctx.mutex_new();
    let k1 = ctx.spawn(move |c| {
        c.mutex_lock(a);
        c.compute_ns(5_000.0);
        c.mutex_lock(b); // waits for k2 forever
    });
    let k2 = ctx.spawn(move |c| {
        c.mutex_lock(b);
        c.compute_ns(5_000.0);
        c.mutex_lock(a); // waits for k1 forever
    });
    ctx.join(k1);
    ctx.join(k2);
}

fn eval(pt: &Pt<Scenario>) -> Row {
    let scenario = pt.data;
    let label = pt.label.clone();
    let mem = taxonomy_machine(pt.seed);
    let engine = Engine::new(Arc::clone(&mem));
    let (observed, diagnostic) = match scenario {
        Scenario::Clean => {
            let report = engine
                .try_run(|ctx| {
                    let m = ctx.mutex_new();
                    let kids: Vec<_> = (0..2)
                        .map(|_| {
                            ctx.spawn(move |c| {
                                c.mutex_lock(m);
                                c.compute_ns(10_000.0);
                                c.mutex_unlock(m);
                            })
                        })
                        .collect();
                    for k in kids {
                        ctx.join(k);
                    }
                })
                .unwrap_or_else(|f| panic!("{label}: healthy run misclassified as {f}"));
            (
                "ok".to_string(),
                format!("completed at {}", report.end_time),
            )
        }
        Scenario::DeadlockAbba => {
            let failure = engine
                .try_run(spawn_abba)
                .expect_err("ABBA inversion must not complete");
            let SimFailure::Deadlock(report) = &failure else {
                panic!("{label}: expected Deadlock, got {failure}");
            };
            assert_eq!(
                report.cycle.len(),
                2,
                "{label}: two-edge mutex cycle named: {report}"
            );
            (failure.kind().to_string(), render_cycle(&failure))
        }
        Scenario::PanicChild => {
            let failure = engine
                .try_run(|ctx| {
                    let k = ctx.spawn(|c| {
                        c.compute_ns(2_000.0);
                        panic!("injected fault");
                    });
                    ctx.join(k);
                })
                .expect_err("panicking child must not complete");
            let SimFailure::ThreadPanic {
                thread, message, ..
            } = &failure
            else {
                panic!("{label}: expected ThreadPanic, got {failure}");
            };
            assert_eq!(
                message, "injected fault",
                "{label}: original payload carried"
            );
            (
                failure.kind().to_string(),
                format!("t{} \"{}\"", thread.0, message),
            )
        }
        Scenario::HangVirtualSpin => {
            engine.set_watchdog(Some(std::time::Duration::from_millis(HANG_BUDGET_MS)));
            let failure = engine
                .try_run(|ctx| loop {
                    ctx.compute_ns(10.0);
                })
                .expect_err("virtual spin must trip the watchdog");
            let SimFailure::Hang { thread, budget, .. } = &failure else {
                panic!("{label}: expected Hang, got {failure}");
            };
            assert_eq!(thread.0, 0, "{label}: the spinning root named as holder");
            (
                failure.kind().to_string(),
                format!("t{} exceeded {:?} watchdog budget", thread.0, budget),
            )
        }
        Scenario::LivelockCasStorm => {
            engine.set_livelock_threshold(LIVELOCK_THRESHOLD);
            let a = engine.atomic_u64(0);
            let failure = engine
                .try_run(move |ctx| {
                    let kids: Vec<_> = (0..2)
                        .map(|_| {
                            ctx.spawn(move |c| loop {
                                c.compute_ns(25.0);
                                // The expected value never appears, so
                                // nobody ever makes progress — the
                                // definitional livelock.
                                let _ = a.compare_exchange(c, 99, 100);
                            })
                        })
                        .collect();
                    for k in kids {
                        ctx.join(k);
                    }
                })
                .expect_err("CAS storm must trip the streak detector");
            let SimFailure::Livelock {
                threads, threshold, ..
            } = &failure
            else {
                panic!("{label}: expected Livelock, got {failure}");
            };
            assert_eq!(
                *threshold, LIVELOCK_THRESHOLD,
                "{label}: configured threshold reported"
            );
            let spinners = threads
                .iter()
                .map(|t| format!("t{}", t.0))
                .collect::<Vec<_>>()
                .join("+");
            assert_eq!(spinners, "t1+t2", "{label}: spinning set named");
            (
                failure.kind().to_string(),
                format!("{spinners} failed {threshold} consecutive CAS without progress"),
            )
        }
        Scenario::DeadlockQuartzReap => {
            let quartz = Quartz::new(
                QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
                    .with_max_epoch(Duration::from_us(50)),
                Arc::clone(&mem),
            )
            .expect("valid quartz config");
            quartz.attach(&engine).expect("attach");
            let q = Arc::clone(&quartz);
            let failure = engine
                .try_run(move |ctx| {
                    let buf = q.pmalloc(ctx, 4096).expect("pmalloc");
                    ctx.store(buf);
                    q.pflush_opt(ctx, buf); // left pending on purpose
                    spawn_abba(ctx);
                })
                .expect_err("ABBA inversion must not complete");
            assert!(
                matches!(failure, SimFailure::Deadlock(_)),
                "{label}: expected Deadlock, got {failure}"
            );
            let stats = quartz.stats();
            assert_eq!(
                stats.degradation.orphan_slots_reaped, 3,
                "{label}: root + two children reaped"
            );
            assert_eq!(
                stats.degradation.epoch_state_anomalies, 1,
                "{label}: the undrained pflush_opt flagged"
            );
            (
                failure.kind().to_string(),
                format!(
                    "{}; reaped={} anomalies={}",
                    render_cycle(&failure),
                    stats.degradation.orphan_slots_reaped,
                    stats.degradation.epoch_state_anomalies
                ),
            )
        }
        Scenario::TimeoutRecvExpiry => {
            // Same watchdog the hang scenario uses: if timed waits were
            // misread as lost progress, this budget would trip.
            engine.set_watchdog(Some(std::time::Duration::from_millis(HANG_BUDGET_MS)));
            let never_fed = engine.channel::<u64>();
            let slot = engine.bounded_channel::<u64>(1);
            let report = engine
                .try_run(move |ctx| {
                    use quartz_threadsim::{RecvTimeoutError, SendTimeoutError};
                    let r = ctx.chan_recv_timeout(&never_fed, Duration::from_us(500));
                    assert!(
                        matches!(r, Err(RecvTimeoutError::Timeout)),
                        "never-fed channel must expire, got {r:?}"
                    );
                    // Same discipline on the send side: a full bounded
                    // slot with no drainer expires instead of wedging.
                    ctx.chan_send(&slot, 1);
                    let s = ctx.chan_send_timeout(&slot, 2, Duration::from_us(500));
                    assert!(
                        matches!(s, Err(SendTimeoutError::Timeout(2))),
                        "full slot must expire the timed send"
                    );
                })
                .unwrap_or_else(|f| panic!("{label}: timed expiry misclassified as {f}"));
            (
                "ok".to_string(),
                format!(
                    "recv_timeout + send_timeout expired cleanly at {} \
                     (watchdog armed, no hang/deadlock)",
                    report.end_time
                ),
            )
        }
    };
    assert_eq!(
        observed,
        scenario.expected(),
        "{label}: classification mismatch"
    );
    Row {
        label,
        scenario,
        observed,
        diagnostic,
    }
}

/// The failure-containment self-test experiment.
pub struct FailureModes;

impl Experiment for FailureModes {
    fn name(&self) -> &'static str {
        "failure_modes"
    }

    fn description(&self) -> &'static str {
        "failure containment: deadlock/panic/hang classified with named diagnostics"
    }

    fn paper_ref(&self) -> &'static str {
        "robustness (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let points: Vec<Pt<Scenario>> = Scenario::ALL
            .into_iter()
            .map(|s| Pt::new(s.name(), 0xFA11, s))
            .collect();
        let rows = ctx.grid(points, eval);

        let mut table = Table::new(
            "Failure taxonomy self-test — deliberate failures, expected classifications",
            &["scenario", "expected", "observed", "diagnostic"],
        );
        for r in &rows {
            table.row(&[
                r.label.clone(),
                r.scenario.expected().to_string(),
                r.observed.clone(),
                r.diagnostic.clone(),
            ]);
        }
        let mut report = ExpReport::with_table(table);
        report.note(format!(
            "(hang detection is host-timed — watchdog budget {HANG_BUDGET_MS} ms — but the \
             classification and named token holder are deterministic; host-dependent \
             sim-times are omitted from the table)"
        ));
        report.note(
            "(deadlock/quartz_reap also checks emulator containment: all 3 orphaned \
             per-thread slots reaped and the undrained flush counted as an epoch-state \
             anomaly, leaving the runtime clean for subsequent runs)",
        );
        for r in &rows {
            let (expected, names) = (r.scenario.expected(), r.scenario.names());
            report.claim(
                r.observed == expected && r.diagnostic.contains(names),
                format!(
                    "{}: {} == {expected}, diagnostic names {names}",
                    r.label, r.observed
                ),
            );
        }
        report
    }
}
