//! Random thread-crash stress: a seeded subset of worker threads die
//! mid-operation at their atomic seams, and the recovery invariants
//! must still hold at every machine-crash point.
//!
//! [`run_sweep`](crate::run_sweep) shakes the structures with
//! whole-machine crashes over a *well-behaved* execution: every thread
//! runs to completion, so the only in-flight operations at any crash
//! instant are the ones the scheduler happened to interrupt. Real PM
//! code also has to survive *thread* death — `pthread_kill`, OOM, a
//! segfault in unrelated code — where a thread stops forever between
//! its publication CAS and its completion record, and nobody ever
//! finishes its bookkeeping. Detectable structures advertise exactly
//! this tolerance (each thread has at most one in-flight operation,
//! recoverable from its per-thread log), so this module tests it:
//!
//! 1. derive per-thread **fates** from a seed: each thread either
//!    survives (runs all its pushes, then helps drain) or is killed
//!    after a random number of completed operations, dying either
//!    *before* its next publication CAS or right *after* winning it
//!    ([`DetectableStack::push_abandoned`] /
//!    [`DetectableQueue::enqueue_abandoned`]);
//! 2. survivors drain whatever is reachable — including values the
//!    dead threads published but never logged, and (for the queue)
//!    links the dead threads never persisted, which the helping rule
//!    must repair on their behalf;
//! 3. the whole run executes under [`CrashPlan`] tracking, so every
//!    winning CAS (the dead threads' final seams included) is a crash
//!    candidate; [`verify_image`] must hold at **every** point and on
//!    the final image.
//!
//! Everything is a pure function of the seed, so each proptest case is
//! reproducible from its printed seed alone.

use std::sync::Arc;

use parking_lot::Mutex;
use quartz_crash::CrashPlan;
use quartz_platform::seed::splitmix64;

use crate::detect::LfVariant;
use crate::harness::{machine, nvm_config};
use crate::layout::{planned_value, Region};
use crate::queue::DetectableQueue;
use crate::stack::DetectableStack;
use crate::verify::{verify_image, Structure};

/// What one worker thread does before (possibly) dying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadFate {
    /// Operations the thread completes in full.
    pub completed: usize,
    /// `Some(publish)`: the thread then dies mid-operation — after its
    /// winning CAS when `publish`, just before it otherwise. `None`:
    /// the thread survives, completes every push, and helps drain.
    pub killed: Option<bool>,
}

impl ThreadFate {
    /// Whether this thread dies.
    pub fn is_killed(&self) -> bool {
        self.killed.is_some()
    }
}

/// Stress parameters.
#[derive(Clone, Copy, Debug)]
pub struct StressSpec {
    /// Structure under test.
    pub structure: Structure,
    /// Worker threads.
    pub threads: usize,
    /// Planned pushes per thread.
    pub pushes: usize,
    /// Seed for fates and the random crash instants.
    pub seed: u64,
    /// Random crash instants on top of the labelled candidates.
    pub random_points: usize,
}

impl StressSpec {
    /// Default shake: 3 threads × 4 pushes, 8 random crash instants.
    pub fn new(structure: Structure, seed: u64) -> Self {
        StressSpec {
            structure,
            threads: 3,
            pushes: 4,
            seed,
            random_points: 8,
        }
    }
}

/// The evaluated stress run.
#[derive(Clone, Debug)]
pub struct StressOutcome {
    /// Per-thread fates (pure function of the seed).
    pub fates: Vec<ThreadFate>,
    /// Values drained by the survivors.
    pub popped: usize,
    /// Crash points evaluated (every one must verify).
    pub points: usize,
    /// Points where recovery failed or a claim was contradicted.
    pub failing: usize,
    /// `cas_seam` candidates among the points (the dead threads' final
    /// seams are in here).
    pub cas_seams: usize,
    /// Verdict on the final durable image — the post-mortem state a
    /// real recovery would start from.
    pub final_verdict: Result<(), String>,
    /// First failing point, if any: `(label, explanation)`.
    pub first_failure: Option<(String, String)>,
    /// Per-point durable fingerprints, in point order (determinism
    /// witness: same seed ⇒ same vector).
    pub fingerprints: Vec<u64>,
}

/// Derives per-thread fates from the seed: each thread is killed with
/// probability 1/2, after a uniform number of completed operations,
/// dying before or after its publication CAS with probability 1/2.
pub fn derive_fates(seed: u64, threads: usize, pushes: usize) -> Vec<ThreadFate> {
    (0..threads)
        .map(|t| {
            let r = splitmix64(seed ^ (t as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            if r & 1 == 0 {
                ThreadFate {
                    completed: pushes,
                    killed: None,
                }
            } else {
                ThreadFate {
                    completed: ((r >> 1) % pushes as u64) as usize,
                    killed: Some((r >> 33) & 1 == 1),
                }
            }
        })
        .collect()
}

/// Runs one thread-crash stress: execute the workload (killed threads
/// die at their seams), then verify every crash point plus the final
/// image.
///
/// # Panics
///
/// Panics if the emulator fails to attach on the reference machine.
pub fn run_thread_crash_stress(spec: &StressSpec) -> StressOutcome {
    let StressSpec {
        structure,
        threads,
        pushes,
        seed,
        random_points,
    } = *spec;
    let fates = derive_fates(seed, threads, pushes);
    let plan = CrashPlan::new(seed).with_random_points(random_points);
    let fates2 = fates.clone();
    let (run, (region, popped)) = plan
        .run(machine(), nvm_config(), move |ctx, q, pm| {
            let probe = match structure {
                Structure::Stack => Region::stack(quartz_memsim::Addr(0), threads, pushes),
                Structure::Queue => Region::queue(quartz_memsim::Addr(0), threads, pushes),
            };
            let base = q.pmalloc(ctx, probe.bytes()).expect("pmalloc region");
            let popped = Arc::new(Mutex::new(0usize));
            let region = match structure {
                Structure::Stack => {
                    let region = Region::stack(base, threads, pushes);
                    let stack = DetectableStack::create(ctx, pm, region, LfVariant::Correct);
                    let workers: Vec<_> = (0..threads)
                        .map(|t| {
                            let pm = pm.clone();
                            let fate = fates2[t];
                            ctx.spawn(move |c| {
                                for i in 0..fate.completed {
                                    let seq = i as u64 + 1;
                                    stack.push(
                                        c,
                                        &pm,
                                        t,
                                        seq,
                                        t * pushes + i,
                                        planned_value(t, seq),
                                    );
                                }
                                if let Some(publish) = fate.killed {
                                    // Dies mid-operation at its seam.
                                    let i = fate.completed;
                                    stack.push_abandoned(
                                        c,
                                        &pm,
                                        t * pushes + i,
                                        planned_value(t, i as u64 + 1),
                                        publish,
                                    );
                                }
                            })
                        })
                        .collect();
                    for h in workers {
                        ctx.join(h);
                    }
                    let drainers: Vec<_> = (0..threads)
                        .filter(|&t| !fates2[t].is_killed())
                        .map(|t| {
                            let pm = pm.clone();
                            let popped = Arc::clone(&popped);
                            ctx.spawn(move |c| {
                                let mut seq = pushes as u64;
                                loop {
                                    seq += 1;
                                    if stack.pop(c, &pm, t, seq).is_none() {
                                        break;
                                    }
                                    *popped.lock() += 1;
                                }
                            })
                        })
                        .collect();
                    for h in drainers {
                        ctx.join(h);
                    }
                    region
                }
                Structure::Queue => {
                    let region = Region::queue(base, threads, pushes);
                    let queue = DetectableQueue::create(ctx, pm, region, LfVariant::Correct);
                    let workers: Vec<_> = (0..threads)
                        .map(|t| {
                            let pm = pm.clone();
                            let queue = queue.clone();
                            let fate = fates2[t];
                            ctx.spawn(move |c| {
                                for i in 0..fate.completed {
                                    let seq = i as u64 + 1;
                                    queue.enqueue(
                                        c,
                                        &pm,
                                        t,
                                        seq,
                                        1 + t * pushes + i,
                                        planned_value(t, seq),
                                    );
                                }
                                if let Some(publish) = fate.killed {
                                    let i = fate.completed;
                                    queue.enqueue_abandoned(
                                        c,
                                        &pm,
                                        1 + t * pushes + i,
                                        planned_value(t, i as u64 + 1),
                                        publish,
                                    );
                                }
                            })
                        })
                        .collect();
                    for h in workers {
                        ctx.join(h);
                    }
                    let drainers: Vec<_> = (0..threads)
                        .filter(|&t| !fates2[t].is_killed())
                        .map(|t| {
                            let pm = pm.clone();
                            let queue = queue.clone();
                            let popped = Arc::clone(&popped);
                            ctx.spawn(move |c| {
                                let mut seq = pushes as u64;
                                loop {
                                    seq += 1;
                                    if queue.dequeue(c, &pm, t, seq).is_none() {
                                        break;
                                    }
                                    *popped.lock() += 1;
                                }
                            })
                        })
                        .collect();
                    for h in drainers {
                        ctx.join(h);
                    }
                    region
                }
            };
            let popped = *popped.lock();
            (region, popped)
        })
        .expect("emulator attaches on the reference machine");

    let outcomes = run.check(move |image| verify_image(image, &region, structure));
    let failing = outcomes.iter().filter(|o| !o.recovered()).count();
    let cas_seams = outcomes.iter().filter(|o| o.label == "cas_seam").count();
    let first_failure = outcomes.iter().find(|o| !o.recovered()).map(|o| {
        let why = match &o.verdict {
            Err(e) => e.clone(),
            Ok(()) => format!("{} durability claims contradicted", o.violated_claims.len()),
        };
        (o.label.clone(), why)
    });
    let final_image = run.trace().image_at(run.trace().end());
    let final_verdict = verify_image(&final_image, &region, structure);
    StressOutcome {
        fates,
        popped,
        points: outcomes.len(),
        failing,
        cas_seams,
        final_verdict,
        first_failure,
        fingerprints: outcomes.iter().map(|o| o.fingerprint).collect(),
    }
}
