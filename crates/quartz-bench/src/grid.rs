//! Deterministic parallel execution of experiment sweeps.
//!
//! Experiments declare their `arch × config × trial` sweep as a vector
//! of [`Pt`] grid points; [`run_grid_checked`] evaluates them on a
//! scoped worker pool and hands the results back **in declaration
//! order**.
//! Parallelism is safe because every point builds its own
//! `MachineSpec`/`MemorySystem` (no shared simulator state) and the
//! simulator is seed-deterministic, so the assembled output is
//! byte-identical at any `--jobs` count — only the wall-clock changes.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use parking_lot::Mutex;

/// One point of an experiment's sweep: a human-readable label (used by
/// the run manifest for per-point wall times), the trial seed driving
/// it, and the experiment-specific payload.
#[derive(Clone, Debug)]
pub struct Pt<T> {
    /// Label identifying the point in `results/manifest.json`.
    pub label: String,
    /// The seed this point runs with (0 when seeding is not meaningful).
    pub seed: u64,
    /// Experiment-specific payload consumed by the evaluation closure.
    pub data: T,
}

impl<T> Pt<T> {
    /// Creates a grid point.
    pub fn new(label: impl Into<String>, seed: u64, data: T) -> Self {
        Pt {
            label: label.into(),
            seed,
            data,
        }
    }
}

/// Wall-clock timing of one evaluated grid point, recorded for the run
/// manifest.
#[derive(Clone, Debug)]
pub struct PointTiming {
    /// The point's label.
    pub label: String,
    /// The point's seed.
    pub seed: u64,
    /// Host milliseconds spent evaluating the point.
    pub wall_ms: f64,
}

/// A grid point whose evaluation closure panicked, captured by
/// [`run_grid_checked`] instead of tearing down the worker pool.
#[derive(Clone, Debug)]
pub struct PointFailure {
    /// The failing point's label.
    pub label: String,
    /// The failing point's declaration index in the sweep.
    pub index: usize,
    /// The rendered panic payload (`&str`/`String` payloads verbatim,
    /// anything else a placeholder).
    pub message: String,
}

/// Renders a `catch_unwind` payload the way the panic hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Evaluates `f` over `points` with up to `jobs` worker threads and
/// returns `(results, timings)` — both **in declaration order**,
/// regardless of which worker finished first.
///
/// A panicking point is quarantined instead of propagated: each result
/// slot is `Ok(R)` or `Err(PointFailure)`. A panicking point records a
/// timing like any other, and the remaining points still run. This is
/// what lets the bench harness quarantine one failing experiment point
/// without aborting the sweep or perturbing the output of healthy
/// points.
///
/// With `jobs <= 1` (or a single point) everything runs inline on the
/// caller's thread; the output is identical either way.
pub fn run_grid_checked<T, R, F>(
    jobs: usize,
    points: Vec<Pt<T>>,
    f: F,
) -> (Vec<Result<R, PointFailure>>, Vec<PointTiming>)
where
    T: Send + Sync,
    R: Send,
    F: Fn(&Pt<T>) -> R + Sync,
{
    let n = points.len();
    let workers = jobs.max(1).min(n.max(1));
    let eval = |i: usize, p: &Pt<T>| -> Result<R, PointFailure> {
        panic::catch_unwind(AssertUnwindSafe(|| f(p))).map_err(|payload| PointFailure {
            label: p.label.clone(),
            index: i,
            message: panic_message(payload.as_ref()),
        })
    };
    if workers <= 1 {
        let mut results = Vec::with_capacity(n);
        let mut timings = Vec::with_capacity(n);
        for (i, p) in points.iter().enumerate() {
            let t0 = Instant::now();
            results.push(eval(i, p));
            timings.push(PointTiming {
                label: p.label.clone(),
                seed: p.seed,
                wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            });
        }
        return (results, timings);
    }

    // Each slot is written exactly once by whichever worker claims its
    // index; collection happens after the scope joins every worker.
    type Slot<R> = Mutex<Option<(Result<R, PointFailure>, f64)>>;
    let slots: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                let r = eval(i, &points[i]);
                *slots[i].lock() = Some((r, t0.elapsed().as_secs_f64() * 1e3));
            });
        }
    });

    let mut results = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (slot, p) in slots.into_iter().zip(&points) {
        let (r, wall_ms) = slot
            .into_inner()
            .expect("every grid slot filled after scope join");
        results.push(r);
        timings.push(PointTiming {
            label: p.label.clone(),
            seed: p.seed,
            wall_ms,
        });
    }
    (results, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: u64) -> Vec<Pt<u64>> {
        (0..n).map(|i| Pt::new(format!("p{i}"), i, i)).collect()
    }

    /// Unwraps every point's result of a grid expected not to fail.
    fn ok<R: std::fmt::Debug>(results: Vec<Result<R, PointFailure>>) -> Vec<R> {
        results.into_iter().map(Result::unwrap).collect()
    }

    #[test]
    fn results_come_back_in_declaration_order() {
        for jobs in [1usize, 2, 8, 64] {
            let (out, timings) = run_grid_checked(jobs, points(37), |p| p.data * 3);
            assert_eq!(
                ok(out),
                (0..37).map(|i| i * 3).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
            assert_eq!(timings.len(), 37);
            assert_eq!(timings[5].label, "p5");
            assert_eq!(timings[5].seed, 5);
        }
    }

    #[test]
    fn serial_and_parallel_agree_byte_for_byte() {
        let render = |jobs| {
            let (out, _) = run_grid_checked(jobs, points(16), |p| {
                // A seed-dependent "simulation".
                let mut x = p
                    .seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                x ^= x >> 33;
                format!("{x}")
            });
            ok(out).join(",")
        };
        assert_eq!(render(1), render(8));
    }

    #[test]
    fn empty_and_singleton_grids() {
        let (out, t) = run_grid_checked::<u64, u64, _>(8, Vec::new(), |p| p.data);
        assert!(out.is_empty() && t.is_empty());
        let (out, t) = run_grid_checked(8, points(1), |p| p.data + 1);
        assert_eq!(ok(out), vec![1]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn more_jobs_than_points_is_fine() {
        let (out, _) = run_grid_checked(64, points(3), |p| p.data);
        assert_eq!(ok(out), vec![0, 1, 2]);
    }

    #[test]
    fn checked_grid_quarantines_panicking_points() {
        for jobs in [1usize, 4] {
            let (out, timings) = run_grid_checked(jobs, points(8), |p| {
                if p.data == 3 || p.data == 6 {
                    panic!("point {} blew up", p.data);
                }
                p.data * 2
            });
            assert_eq!(out.len(), 8, "jobs={jobs}");
            assert_eq!(timings.len(), 8, "jobs={jobs}");
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) if i != 3 && i != 6 => assert_eq!(*v, i as u64 * 2),
                    Err(fail) if i == 3 || i == 6 => {
                        assert_eq!(fail.index, i);
                        assert_eq!(fail.label, format!("p{i}"));
                        assert_eq!(fail.message, format!("point {i} blew up"));
                    }
                    other => panic!("slot {i} misclassified: {other:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "PointFailure { label: \"p2\", index: 2, message: \"kaboom\" }")]
    fn unchecked_grid_reports_first_declaration_order_failure() {
        // Two failing points; unwrapping the results in order must stop
        // at the declaration-order first one regardless of worker
        // scheduling.
        let (out, _) = run_grid_checked(8, points(10), |p| {
            if p.data == 2 || p.data == 7 {
                panic!("kaboom");
            }
            p.data
        });
        ok(out);
    }
}
