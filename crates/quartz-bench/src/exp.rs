//! The `Experiment` trait — the contract between the registry, the
//! grid runner, and the reporting layer.
//!
//! An experiment is a named, self-describing unit that maps an
//! execution context ([`ExpCtx`]: quick flag, worker budget) to an
//! [`ExpReport`] (tables, free-form notes, claims, exported emulator
//! statistics). Experiments never print or touch the filesystem —
//! the harness renders, saves, and indexes their reports, which is what
//! makes `repro` output byte-identical at any `--jobs` count.

use std::panic::panic_any;

use parking_lot::Mutex;
use quartz::json::Json;

use crate::grid::{run_grid_checked, PointFailure, PointTiming, Pt};
use crate::report::Table;

/// Structured panic payload thrown by [`ExpCtx::grid`] when a sweep
/// point fails, and caught by the harness to quarantine the experiment
/// (record `status: failed` in the manifest, keep running the rest).
///
/// Carrying a typed payload rather than a bare string lets the harness
/// distinguish "a simulation inside this experiment failed" (named
/// point, classified message) from an arbitrary assertion in
/// experiment code, while both still quarantine the same way.
#[derive(Clone, Debug)]
pub struct ExpFailure {
    /// Human-readable failure description (e.g. a
    /// `SimFailure` rendering with the deadlock cycle named).
    pub message: String,
    /// The failing grid point's label, when the failure came from a
    /// sweep point.
    pub point: Option<String>,
}

impl std::fmt::Display for ExpFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.point {
            Some(p) => write!(f, "point '{p}': {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

/// A reproduced table/figure/study from the paper (or beyond it).
pub trait Experiment: Sync {
    /// Unique CLI name (`repro <name>`).
    fn name(&self) -> &'static str;

    /// One-line summary shown by `repro --list`.
    fn description(&self) -> &'static str;

    /// Which part of the paper the experiment reproduces (e.g.
    /// `"§4.4 Fig. 11"`), or `"beyond the paper"` study references.
    fn paper_ref(&self) -> &'static str;

    /// Whether the experiment's tables contain only virtual-time (and
    /// therefore seed-deterministic) quantities. Host-timing studies
    /// (e.g. `contention`) return `false`: their numbers vary run to
    /// run, so they are excluded from the byte-identical guarantee and
    /// always evaluated serially.
    fn deterministic(&self) -> bool {
        true
    }

    /// Runs the experiment and returns its report.
    fn run(&self, ctx: &ExpCtx) -> ExpReport;
}

/// Execution context handed to [`Experiment::run`].
pub struct ExpCtx {
    quick: bool,
    jobs: usize,
    timings: Mutex<Vec<PointTiming>>,
}

impl ExpCtx {
    /// Creates a context with the given quick flag and worker budget.
    pub fn new(quick: bool, jobs: usize) -> Self {
        ExpCtx {
            quick,
            jobs: jobs.max(1),
            timings: Mutex::new(Vec::new()),
        }
    }

    /// Whether the scaled-down quick parameters should be used.
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// The worker budget (`--jobs`).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `f` over the experiment's declared sweep on the worker
    /// pool and returns the results in declaration order (see
    /// [`crate::grid::run_grid`]). Per-point wall times are recorded
    /// for the run manifest.
    ///
    /// # Panics
    ///
    /// If any point panics, throws an [`ExpFailure`] naming the
    /// **declaration-order first** failing point (so the observable
    /// failure is byte-identical at any `--jobs`); the harness catches
    /// it and quarantines the experiment.
    pub fn grid<T, R, F>(&self, points: Vec<Pt<T>>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(&Pt<T>) -> R + Sync,
    {
        self.run_checked(self.jobs, points, f)
    }

    /// Like [`ExpCtx::grid`] but always serial, for host-timing
    /// measurements that concurrency would perturb.
    pub fn grid_serial<T, R, F>(&self, points: Vec<Pt<T>>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(&Pt<T>) -> R + Sync,
    {
        self.run_checked(1, points, f)
    }

    fn run_checked<T, R, F>(&self, jobs: usize, points: Vec<Pt<T>>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(&Pt<T>) -> R + Sync,
    {
        let (results, timings) = run_grid_checked(jobs, points, f);
        self.timings.lock().extend(timings);
        let mut out = Vec::with_capacity(results.len());
        let mut first_failure: Option<PointFailure> = None;
        for r in results {
            match r {
                Ok(v) => out.push(v),
                // `run_grid_checked` yields declaration order, so the
                // first `Err` seen here is the declaration-order first
                // failure regardless of worker scheduling.
                Err(fail) => {
                    first_failure.get_or_insert(fail);
                }
            }
        }
        if let Some(fail) = first_failure {
            panic_any(ExpFailure {
                message: fail.message,
                point: Some(fail.label),
            });
        }
        out
    }

    /// Drains the per-point wall times recorded so far (harness use).
    pub fn take_timings(&self) -> Vec<PointTiming> {
        std::mem::take(&mut self.timings.lock())
    }
}

/// One checked statement about an experiment's result (see
/// [`ExpReport::claim`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// Whether the measured result satisfies the statement.
    pub holds: bool,
    /// The statement with its measured value, e.g.
    /// `"false negatives 0 == 0"`.
    pub what: String,
}

/// What an experiment produced: rendered by the harness to the console,
/// CSV files, and the per-experiment JSON row file.
#[derive(Default)]
pub struct ExpReport {
    /// Result tables, printed and saved in order.
    pub tables: Vec<Table>,
    /// Free-form commentary lines printed after the tables (paper
    /// comparisons, findings).
    pub notes: Vec<String>,
    /// Checked statements about the result, printed after the notes.
    /// A false one marks the run `claim_failed` (outputs still saved).
    pub claims: Vec<Claim>,
    /// Labelled emulator statistics (`QuartzStats::to_json` output),
    /// embedded in the experiment's JSON row file.
    pub stats: Vec<(String, Json)>,
    /// Benchmark files to write verbatim under the output directory:
    /// `(file name, contents)`. The `BENCH_*.json` throughput-trajectory
    /// channel — unlike tables, these are free-schema documents tracked
    /// PR-over-PR by tooling (file names are recorded in the manifest).
    pub benches: Vec<(String, String)>,
}

impl ExpReport {
    /// Report with a single table.
    pub fn with_table(table: Table) -> Self {
        ExpReport {
            tables: vec![table],
            ..ExpReport::default()
        }
    }

    /// Adds a table.
    pub fn table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Adds a commentary line.
    pub fn note(&mut self, line: impl Into<String>) -> &mut Self {
        self.notes.push(line.into());
        self
    }

    /// States a claim about the result: `holds` is computed from the
    /// typed rows inside `run`, and `what` says what was checked with
    /// the measured value, so a failure explains itself.
    pub fn claim(&mut self, holds: bool, what: impl Into<String>) -> &mut Self {
        self.claims.push(Claim {
            holds,
            what: what.into(),
        });
        self
    }

    /// Adds labelled emulator statistics.
    pub fn stat(&mut self, label: impl Into<String>, json: Json) -> &mut Self {
        self.stats.push((label.into(), json));
        self
    }

    /// Adds a benchmark file (e.g. `BENCH_memsim.json`) the harness
    /// writes verbatim under the output directory.
    pub fn bench_file(&mut self, name: impl Into<String>, contents: String) -> &mut Self {
        self.benches.push((name.into(), contents));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_records_grid_timings() {
        let ctx = ExpCtx::new(true, 4);
        assert!(ctx.quick());
        assert_eq!(ctx.jobs(), 4);
        let pts = vec![Pt::new("a", 1, 10u64), Pt::new("b", 2, 20u64)];
        let out = ctx.grid(pts, |p| p.data + p.seed);
        assert_eq!(out, vec![11, 22]);
        let timings = ctx.take_timings();
        assert_eq!(timings.len(), 2);
        assert_eq!(timings[0].label, "a");
        assert!(ctx.take_timings().is_empty());
    }

    #[test]
    fn grid_failure_throws_first_declaration_order_exp_failure() {
        for jobs in [1usize, 8] {
            let ctx = ExpCtx::new(true, jobs);
            let pts: Vec<Pt<u64>> = (0..12).map(|i| Pt::new(format!("p{i}"), i, i)).collect();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.grid(pts, |p| {
                    if p.data == 4 || p.data == 9 {
                        panic!("sim failed on {}", p.data);
                    }
                    p.data
                })
            }))
            .expect_err("failing grid must unwind");
            let fail = err
                .downcast_ref::<ExpFailure>()
                .expect("payload is a structured ExpFailure");
            assert_eq!(fail.point.as_deref(), Some("p4"), "jobs={jobs}");
            assert_eq!(fail.message, "sim failed on 4");
            assert_eq!(fail.to_string(), "point 'p4': sim failed on 4");
            // Timings for the whole sweep were still recorded.
            assert_eq!(ctx.take_timings().len(), 12);
        }
    }

    #[test]
    fn jobs_floor_is_one() {
        assert_eq!(ExpCtx::new(false, 0).jobs(), 1);
    }

    #[test]
    fn report_builders() {
        let mut r = ExpReport::with_table(Table::new("T", &["a"]));
        r.note("n").claim(true, "c").stat("s", Json::obj(vec![]));
        assert_eq!(r.tables.len(), 1);
        assert_eq!(r.notes, vec!["n".to_string()]);
        assert_eq!(
            r.claims,
            vec![Claim {
                holds: true,
                what: "c".into()
            }]
        );
        assert_eq!(r.stats[0].0, "s");
    }
}
