//! The crash-consistency checking loop: run → crash → recover → verify.
//!
//! [`CrashPlan::run`] executes a workload once under full persistence
//! tracking and derives a deterministic set of crash points from the
//! trace: every labelled candidate the primitives produced (flush
//! edges, `pflush_opt`…`pcommit` windows, lock hand-offs) plus a seeded
//! grid of random instants. Because the injector works on the recorded
//! event log, *every* crash point is evaluated from one execution — the
//! workload never re-runs, so the sweep is trivially deterministic and
//! cheap.
//!
//! [`CrashRun::check`] then replays the loop body: for each crash point
//! it materializes the durable image, runs the caller's recovery
//! verifier against it, and combines the verdict with the
//! torn/reordered-line oracle ([`PersistTrace::violated_claims_at`]).

use std::sync::Arc;

use parking_lot::Mutex;
use quartz::{Quartz, QuartzConfig, QuartzError};
use quartz_memsim::MemorySystem;
use quartz_platform::seed::splitmix64;
use quartz_platform::time::SimTime;
use quartz_threadsim::{Engine, FanoutHooks, Hooks, ThreadCtx};

use crate::pmem::Pmem;
use crate::tracker::{DurableImage, PersistCounters, PersistTrace, PersistTracker, ViolatedClaim};

/// Records lock hand-off boundaries as crash candidates: a mutex
/// release is exactly where another thread may start observing state
/// the releaser believes persisted.
struct LockHandoffRecorder {
    tracker: Arc<PersistTracker>,
}

impl Hooks for LockHandoffRecorder {
    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        self.tracker.candidate(ctx.now(), "lock_handoff");
    }
}

/// Records successful compare-exchanges as crash candidates: a winning
/// CAS is the lock-free publication point — the exact instant another
/// thread may start acting on state the winner believes persisted
/// (detectable-CAS checkpoints, pushed nodes, swung tails).
struct CasSeamRecorder {
    tracker: Arc<PersistTracker>,
}

impl Hooks for CasSeamRecorder {
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &quartz_threadsim::AtomicEvent) {
        if ev.phase == quartz_threadsim::AtomicPhase::After
            && ev.outcome == quartz_threadsim::CasOutcome::Success
        {
            self.tracker.candidate(ctx.now(), "cas_seam");
        }
    }
}

/// One evaluated crash point.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// Candidate label (`post_flush`, `random`, `lock_handoff`, …).
    pub label: String,
    /// The crash instant.
    pub at: SimTime,
    /// `Ok(())` when recovery reconstructed a consistent state, else
    /// the verifier's explanation.
    pub verdict: Result<(), String>,
    /// Claims the durable image contradicted at this instant.
    pub violated_claims: Vec<ViolatedClaim>,
    /// Line-state counts at the crash instant.
    pub counters: PersistCounters,
    /// Deterministic fingerprint of the durable word set.
    pub fingerprint: u64,
}

impl CrashOutcome {
    /// Recovery succeeded *and* no claim was contradicted.
    pub fn recovered(&self) -> bool {
        self.verdict.is_ok() && self.violated_claims.is_empty()
    }
}

/// A deterministic crash-injection plan: how many seeded random points
/// to add on top of the trace's own labelled candidates.
#[derive(Clone, Debug)]
pub struct CrashPlan {
    seed: u64,
    random_points: usize,
}

impl CrashPlan {
    /// A plan with the given seed and 32 random crash points.
    pub fn new(seed: u64) -> Self {
        CrashPlan {
            seed,
            random_points: 32,
        }
    }

    /// Sets the number of seeded random crash instants.
    pub fn with_random_points(mut self, n: usize) -> Self {
        self.random_points = n;
        self
    }

    /// Runs `workload` once under full persistence tracking on `mem`
    /// with a fresh emulator configured by `config`, returning the
    /// checkable run plus the workload's own result.
    ///
    /// The workload receives the thread context, the attached emulator,
    /// and the tracked [`Pmem`] façade. The persist observer is
    /// uninstalled from `mem` before returning.
    ///
    /// # Errors
    ///
    /// Propagates emulator construction/attachment failures.
    pub fn run<T, W>(
        &self,
        mem: Arc<MemorySystem>,
        config: QuartzConfig,
        workload: W,
    ) -> Result<(CrashRun, T), QuartzError>
    where
        T: Send + 'static,
        W: FnOnce(&mut ThreadCtx, &Arc<Quartz>, &Pmem) -> T + Send + 'static,
    {
        let tracker = PersistTracker::new();
        mem.set_persist_observer(Some(tracker.clone()));
        let engine = Engine::new(Arc::clone(&mem));
        let quartz = Quartz::new(config, Arc::clone(&mem))?;
        quartz.attach(&engine)?;
        // attach() installed the emulator as the engine's hook set;
        // fan the interposition stream out to the hand-off recorder as
        // well (emulator first: recorders see post-emulation time).
        engine.set_hooks(Arc::new(FanoutHooks::new(vec![
            Arc::clone(&quartz) as Arc<dyn Hooks>,
            Arc::new(LockHandoffRecorder {
                tracker: Arc::clone(&tracker),
            }),
            Arc::new(CasSeamRecorder {
                tracker: Arc::clone(&tracker),
            }),
        ])));

        let out: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let out2 = Arc::clone(&out);
        let q2 = Arc::clone(&quartz);
        let pmem = Pmem::new(Arc::clone(&tracker), Arc::clone(&quartz));
        let report = engine.run(move |ctx| {
            let r = workload(ctx, &q2, &pmem);
            *out2.lock() = Some(r);
        });
        mem.set_persist_observer(None);
        let trace = tracker.finish(report.end_time);

        let mut points: Vec<(String, SimTime)> = trace
            .candidates()
            .iter()
            .map(|c| (c.label.to_string(), c.at))
            .collect();
        let span = report.end_time.as_ps().max(1);
        let mut x = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for i in 0..self.random_points {
            x = splitmix64(x.wrapping_add(i as u64));
            points.push((format!("random_{i}"), SimTime::from_ps(x % span)));
        }

        let result = out.lock().take().expect("workload ran to completion");
        Ok((
            CrashRun {
                trace,
                points,
                quartz,
            },
            result,
        ))
    }
}

/// One tracked execution plus its crash-point set.
pub struct CrashRun {
    trace: PersistTrace,
    points: Vec<(String, SimTime)>,
    quartz: Arc<Quartz>,
}

impl CrashRun {
    /// The recorded trace.
    pub fn trace(&self) -> &PersistTrace {
        &self.trace
    }

    /// The emulator instance the run used (for statistics export).
    pub fn quartz(&self) -> &Arc<Quartz> {
        &self.quartz
    }

    /// The crash points that [`CrashRun::check`] will evaluate, in
    /// order: labelled candidates first (sorted by time), then the
    /// seeded random grid.
    pub fn points(&self) -> &[(String, SimTime)] {
        &self.points
    }

    /// Evaluates every crash point: materialize the durable image,
    /// run `verify` (the recovery procedure plus invariant checks),
    /// and consult the claim oracle.
    pub fn check<F>(&self, verify: F) -> Vec<CrashOutcome>
    where
        F: Fn(&DurableImage) -> Result<(), String>,
    {
        self.points
            .iter()
            .map(|(label, at)| {
                let at = *at;
                let image = self.trace.image_at(at);
                CrashOutcome {
                    label: label.clone(),
                    at,
                    verdict: verify(&image),
                    violated_claims: self.trace.violated_claims_at(at),
                    counters: image.counters(),
                    fingerprint: image.fingerprint(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz::NvmTarget;
    use quartz_memsim::{Addr, MemSimConfig};
    use quartz_platform::{Architecture, Platform, PlatformConfig};

    fn machine() -> Arc<MemorySystem> {
        let p = Platform::new(PlatformConfig::new(Architecture::IvyBridge).with_perfect_counters());
        Arc::new(MemorySystem::new(
            p,
            MemSimConfig::default().without_jitter(),
        ))
    }

    fn cfg() -> QuartzConfig {
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
    }

    fn flush_two_words(ctx: &mut ThreadCtx, q: &Arc<Quartz>, pm: &Pmem) -> Addr {
        let buf = q.pmalloc(ctx, 4096).unwrap();
        pm.write_u64(ctx, buf, 11);
        pm.flush(ctx, buf);
        pm.claim_persisted(ctx, &[(buf, 11)]);
        pm.write_u64(ctx, buf.offset_by(64), 22);
        // Not flushed: claiming it durable is a lie the oracle catches.
        pm.claim_persisted(ctx, &[(buf.offset_by(64), 22)]);
        buf
    }

    #[test]
    fn end_to_end_flush_is_durable_and_lie_is_caught() {
        let plan = CrashPlan::new(42).with_random_points(8);
        let (run, buf) = plan.run(machine(), cfg(), flush_two_words).unwrap();
        assert!(
            run.points().len() > 8,
            "candidates + random points: {:?}",
            run.points()
        );
        // At the end of the run: flushed word durable, other word not.
        let image = run.trace().image_at(run.trace().end());
        assert_eq!(image.read_u64(buf), 11);
        assert_eq!(image.read_u64(buf.offset_by(64)), 0);
        let violated = run.trace().violated_claims_at(run.trace().end());
        assert_eq!(violated.len(), 1, "the unflushed claim is flagged");
        assert_eq!(violated[0].claimed, 22);

        // check() wires verdicts and the oracle together.
        let outcomes = run.check(|img| {
            if img.read_u64(buf) == 11 || img.read_u64(buf) == 0 {
                Ok(())
            } else {
                Err(format!("torn value {}", img.read_u64(buf)))
            }
        });
        assert_eq!(outcomes.len(), run.points().len());
        assert!(
            outcomes.iter().any(|o| !o.recovered()),
            "some post-claim crash point must flag the lie"
        );
        // post_flush candidate exists and the flushed word is durable there.
        let pf = outcomes
            .iter()
            .find(|o| o.label == "post_flush")
            .expect("post_flush candidate");
        assert!(pf.counters.durable >= 1);
    }

    #[test]
    fn same_seed_same_fingerprints() {
        let go = || {
            let plan = CrashPlan::new(7).with_random_points(16);
            let (run, _) = plan.run(machine(), cfg(), flush_two_words).unwrap();
            run.check(|_| Ok(()))
                .iter()
                .map(|o| (o.label.clone(), o.at.as_ps(), o.fingerprint))
                .collect::<Vec<_>>()
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn cas_seam_candidates_are_recorded() {
        let plan = CrashPlan::new(3).with_random_points(0);
        let (run, ()) = plan
            .run(machine(), cfg(), |ctx, q, pm| {
                let buf = q.pmalloc(ctx, 4096).unwrap();
                let flag = ctx.atomic_u64(0);
                pm.write_u64(ctx, buf, 9);
                pm.flush(ctx, buf);
                // Publication: one successful CAS, one failed retry.
                assert_eq!(flag.compare_exchange(ctx, 0, 1), Ok(0));
                assert_eq!(flag.compare_exchange(ctx, 0, 2), Err(1));
            })
            .unwrap();
        let seams = run.points().iter().filter(|(l, _)| l == "cas_seam").count();
        assert_eq!(
            seams,
            1,
            "only the winning CAS is a seam: {:?}",
            run.points()
        );
    }

    #[test]
    fn lock_handoff_candidates_are_recorded() {
        let plan = CrashPlan::new(1).with_random_points(0);
        let (run, ()) = plan
            .run(machine(), cfg(), |ctx, q, pm| {
                let buf = q.pmalloc(ctx, 4096).unwrap();
                let m = ctx.mutex_new();
                ctx.mutex_lock(m);
                pm.write_u64(ctx, buf, 5);
                pm.flush(ctx, buf);
                ctx.mutex_unlock(m);
            })
            .unwrap();
        assert!(
            run.points().iter().any(|(l, _)| l == "lock_handoff"),
            "points: {:?}",
            run.points()
        );
    }
}
