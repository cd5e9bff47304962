//! The run driver: registry → grid runner → reporting.
//!
//! [`run_experiments`] executes a resolved experiment selection
//! sequentially (each experiment parallelizes its own sweep through
//! [`crate::exp::ExpCtx::grid`]), renders every report to the given
//! writer, saves CSV plus per-experiment JSON rows under the output
//! directory, and finishes with `manifest.json` and a slowest-first
//! wall-time summary.
//!
//! Output determinism contract: everything written to the console,
//! the CSVs, the `<name>.json` row files and the bench files depends
//! only on seeds and experiment parameters — never on `--jobs` or the
//! host. Experiments report virtual time only; the one host-timed
//! output is the wall-time figures, confined to the manifest, the
//! `[name took …]` lines and the summary table.

use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use quartz::json::Json;

use crate::exp::{ExpCtx, ExpFailure, ExpReport, Experiment};
use crate::manifest::{ExperimentRecord, Manifest, RunStatus};

/// How a `repro` run should execute.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Use scaled-down quick parameters.
    pub quick: bool,
    /// Directory for CSV, JSON rows, and the manifest.
    pub out_dir: PathBuf,
    /// Worker budget per experiment grid (defaults to the host's
    /// available parallelism).
    pub jobs: usize,
    /// Stop at the first quarantined or claim-failed experiment instead
    /// of running the remainder of the selection (`--fail-fast`; the
    /// default is keep-going).
    pub fail_fast: bool,
    /// Quarantine the named experiment with a deterministic injected
    /// failure instead of running it (`--inject-fail NAME`; the CLI
    /// tests use this to exercise the quarantine path end to end).
    pub inject_fail: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            out_dir: PathBuf::from("results"),
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            fail_fast: false,
            inject_fail: None,
        }
    }
}

/// Installs (once per process) a panic-hook filter that silences the
/// default hook for [`ExpFailure`] payloads: they are thrown by
/// `ExpCtx::grid` purely to carry a structured failure up to
/// [`run_experiments`], which always catches them and renders a
/// quarantine line — the stock `Box<dyn Any>` stderr noise would only
/// obscure it. Every other payload falls through to the previous hook.
fn install_exp_failure_hook_filter() {
    use std::sync::Once;
    static FILTER: Once = Once::new();
    FILTER.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ExpFailure>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Runs one experiment, converting any unwind into a quarantine
/// status. A structured [`ExpFailure`] (thrown by `ExpCtx::grid` for a
/// failing sweep point) keeps its point label; any other payload is
/// rendered as a plain message.
fn run_quarantined(exp: &dyn Experiment, ctx: &ExpCtx) -> Result<ExpReport, RunStatus> {
    match panic::catch_unwind(AssertUnwindSafe(|| exp.run(ctx))) {
        Ok(report) => Ok(report),
        Err(payload) => Err(if let Some(f) = payload.downcast_ref::<ExpFailure>() {
            RunStatus::Failed {
                message: f.message.clone(),
                point: f.point.clone(),
            }
        } else if let Some(s) = payload.downcast_ref::<&'static str>() {
            RunStatus::Failed {
                message: (*s).to_string(),
                point: None,
            }
        } else if let Some(s) = payload.downcast_ref::<String>() {
            RunStatus::Failed {
                message: s.clone(),
                point: None,
            }
        } else {
            RunStatus::Failed {
                message: "non-string panic payload".to_string(),
                point: None,
            }
        }),
    }
}

/// Runs `selection` under `opts`, streaming human output to `out`.
/// Returns the manifest (already saved to `out_dir/manifest.json`).
///
/// An experiment that unwinds (simulation failure, assertion, injected
/// fault) is **quarantined**: its failure is recorded in the manifest
/// (`status: failed`), nothing is saved for it, and — unless
/// `fail_fast` — the remaining experiments still run with their
/// console/CSV/JSON output untouched. An experiment that completes but
/// states a false claim keeps all its outputs and is recorded as
/// `status: claim_failed`, which stops `fail_fast` the same way.
/// Callers decide the process exit code from [`Manifest::any_failed`].
///
/// # Errors
///
/// Propagates I/O failures from the writer or the output directory.
pub fn run_experiments(
    selection: &[&dyn Experiment],
    opts: &RunOptions,
    out: &mut dyn Write,
) -> io::Result<Manifest> {
    install_exp_failure_hook_filter();
    let mut manifest = Manifest::new(opts.quick, opts.jobs);
    for &exp in selection {
        let mut record = ExperimentRecord::begin(exp);
        writeln!(out, "=== {} — {} ===", exp.name(), exp.paper_ref())?;
        let ctx = ExpCtx::new(opts.quick, opts.jobs);
        let t0 = Instant::now();
        let outcome = if opts.inject_fail.as_deref() == Some(exp.name()) {
            Err(RunStatus::Failed {
                message: "injected failure (--inject-fail)".to_string(),
                point: None,
            })
        } else {
            run_quarantined(exp, &ctx)
        };
        record.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        record.points = ctx.take_timings();
        record.status = match outcome {
            Ok(report) => save_report(exp, report, opts, out, &mut record)?,
            Err(status) => {
                if let RunStatus::Failed { message, point } = &status {
                    match point {
                        Some(p) => writeln!(
                            out,
                            "!!! {} QUARANTINED at point '{}': {}",
                            exp.name(),
                            p,
                            message
                        )?,
                        None => writeln!(out, "!!! {} QUARANTINED: {}", exp.name(), message)?,
                    }
                }
                status
            }
        };
        writeln!(out, "[{} took {:.1}s]\n", exp.name(), record.wall_ms / 1e3)?;
        let failed = record.status.is_failed();
        manifest.experiments.push(record);
        if failed && opts.fail_fast {
            writeln!(out, "fail-fast: stopping after first failed experiment")?;
            break;
        }
    }

    if selection.len() > 1 {
        write!(out, "{}", manifest.summary_table().render())?;
    }
    for (status, label) in [("failed", "quarantined"), ("claim_failed", "claims failed")] {
        let names: Vec<&str> = manifest
            .experiments
            .iter()
            .filter(|e| e.status.name() == status)
            .map(|e| e.name.as_str())
            .collect();
        if !names.is_empty() {
            writeln!(out, "{label}: {}", names.join(", "))?;
        }
    }
    let path = manifest.save(&opts.out_dir)?;
    writeln!(out, "manifest: {}", path.display())?;
    Ok(manifest)
}

/// Renders a completed experiment's report to `out` (tables, notes,
/// then claims) and saves its CSVs, JSON row file and bench files,
/// recording their names. Returns `ClaimFailed` listing every false
/// claim, or `Ok`.
fn save_report(
    exp: &dyn Experiment,
    mut report: ExpReport,
    opts: &RunOptions,
    out: &mut dyn Write,
    record: &mut ExperimentRecord,
) -> io::Result<RunStatus> {
    for table in &report.tables {
        write!(out, "{}", table.render())?;
        table.save_csv(&opts.out_dir)?;
        record.tables.push(table.slug());
    }
    for note in &report.notes {
        writeln!(out, "{note}")?;
    }
    for claim in &report.claims {
        let verdict = if claim.holds {
            "claim ok"
        } else {
            "CLAIM FAILED"
        };
        writeln!(out, "{verdict}: {}", claim.what)?;
    }

    // Per-experiment JSON rows: the machine-readable twin of the
    // console tables plus exported emulator statistics. No wall
    // times and no job count — byte-identical across runs.
    let mut row = Json::obj(vec![
        ("experiment", Json::str(exp.name())),
        ("paper_ref", Json::str(exp.paper_ref())),
        ("description", Json::str(exp.description())),
        ("quick", Json::Bool(opts.quick)),
        (
            "tables",
            Json::Arr(report.tables.iter().map(|t| t.to_json()).collect()),
        ),
        (
            "notes",
            Json::Arr(report.notes.iter().map(|n| Json::str(n.clone())).collect()),
        ),
    ]);
    if !report.claims.is_empty() {
        let claims = report.claims.iter().map(|c| {
            Json::obj(vec![
                ("holds", Json::Bool(c.holds)),
                ("what", Json::str(c.what.clone())),
            ])
        });
        row.push("claims", Json::Arr(claims.collect()));
    }
    if !report.stats.is_empty() {
        row.push("quartz_stats", Json::Obj(std::mem::take(&mut report.stats)));
    }
    std::fs::create_dir_all(&opts.out_dir)?;
    std::fs::write(
        opts.out_dir.join(format!("{}.json", exp.name())),
        row.render() + "\n",
    )?;
    for (fname, contents) in &report.benches {
        std::fs::write(opts.out_dir.join(fname), contents)?;
        record.benches.push(fname.clone());
    }

    let failed: Vec<String> = report
        .claims
        .into_iter()
        .filter(|c| !c.holds)
        .map(|c| c.what)
        .collect();
    Ok(if failed.is_empty() {
        RunStatus::Ok
    } else {
        RunStatus::ClaimFailed { claims: failed }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    struct Demo;
    impl Experiment for Demo {
        fn name(&self) -> &'static str {
            "demo"
        }
        fn description(&self) -> &'static str {
            "a test-only experiment"
        }
        fn paper_ref(&self) -> &'static str {
            "§0"
        }
        fn run(&self, ctx: &ExpCtx) -> ExpReport {
            use crate::grid::Pt;
            let pts = vec![Pt::new("p0", 1, 2u64), Pt::new("p1", 2, 3u64)];
            let vals = ctx.grid(pts, |p| p.data * p.seed);
            let mut t = Table::new("Demo harness table", &["v"]);
            for v in vals {
                t.row(&[v.to_string()]);
            }
            let mut r = ExpReport::with_table(t);
            r.note("a note")
                .stat("run", Json::obj(vec![("k", Json::Int(1))]));
            r
        }
    }

    #[test]
    fn harness_renders_saves_and_records() {
        let dir = std::env::temp_dir().join("quartz_bench_harness_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            quick: true,
            out_dir: dir.clone(),
            jobs: 2,
            ..RunOptions::default()
        };
        let mut buf = Vec::new();
        let m = run_experiments(&[&Demo], &opts, &mut buf).unwrap();
        let console = String::from_utf8(buf).unwrap();
        assert!(console.contains("=== demo — §0 ==="));
        assert!(console.contains("Demo harness table"));
        assert!(console.contains("a note"));
        assert!(console.contains("manifest:"));
        // Single experiment: no summary table.
        assert!(!console.contains("Run summary"));

        assert_eq!(m.experiments.len(), 1);
        assert_eq!(m.experiments[0].points.len(), 2);
        assert_eq!(m.experiments[0].seeds(), vec![1, 2]);
        assert_eq!(m.experiments[0].tables, vec!["demo_harness_table"]);

        let rows = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        assert!(rows.contains("\"experiment\":\"demo\""));
        assert!(rows.contains("\"rows\":[{\"v\":\"2\"},{\"v\":\"6\"}]"));
        assert!(rows.contains("\"quartz_stats\":{\"run\":{\"k\":1}}"));
        assert!(!rows.contains("wall_ms"), "row files carry no wall times");
        assert!(dir.join("demo_harness_table.csv").exists());
        assert!(dir.join("manifest.json").exists());
        assert_eq!(m.experiments[0].status, RunStatus::Ok);
        assert!(!m.any_failed());
    }

    struct Exploder;
    impl Experiment for Exploder {
        fn name(&self) -> &'static str {
            "exploder"
        }
        fn description(&self) -> &'static str {
            "a test-only experiment whose sweep point fails"
        }
        fn paper_ref(&self) -> &'static str {
            "§0"
        }
        fn run(&self, ctx: &ExpCtx) -> ExpReport {
            use crate::grid::Pt;
            let pts = vec![Pt::new("ok", 1, 1u64), Pt::new("bad", 2, 2u64)];
            let _ = ctx.grid(pts, |p| {
                if p.data == 2 {
                    panic!("simulated deadlock");
                }
                p.data
            });
            ExpReport::default()
        }
    }

    #[test]
    fn failing_experiment_is_quarantined_and_rest_still_run() {
        let dir = std::env::temp_dir().join("quartz_bench_harness_quarantine_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            quick: true,
            out_dir: dir.clone(),
            jobs: 2,
            ..RunOptions::default()
        };
        let mut buf = Vec::new();
        let m = run_experiments(&[&Exploder, &Demo], &opts, &mut buf).unwrap();
        let console = String::from_utf8(buf).unwrap();
        assert!(console.contains("!!! exploder QUARANTINED at point 'bad': simulated deadlock"));
        assert!(console.contains("quarantined: exploder"));
        // The healthy experiment still ran and saved its outputs.
        assert!(console.contains("Demo harness table"));
        assert!(dir.join("demo.json").exists());
        // The quarantined experiment saved nothing.
        assert!(!dir.join("exploder.json").exists());

        assert!(m.any_failed());
        assert_eq!(
            m.experiments[0].status,
            RunStatus::Failed {
                message: "simulated deadlock".into(),
                point: Some("bad".into()),
            }
        );
        assert_eq!(m.experiments[1].status, RunStatus::Ok);
        // Timings of the whole sweep (healthy + failed point) were kept.
        assert_eq!(m.experiments[0].points.len(), 2);

        let manifest_body = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest_body.contains("\"status\":\"failed\""));
        assert!(manifest_body.contains("\"point\":\"bad\""));
    }

    #[test]
    fn fail_fast_stops_after_first_quarantine() {
        // A quarantined experiment and a failed claim both stop the run.
        for (first, banner) in [
            (&Exploder as &dyn Experiment, "QUARANTINED"),
            (&Claimer, "CLAIM FAILED"),
        ] {
            let dir = std::env::temp_dir().join("quartz_bench_harness_failfast_test");
            let _ = std::fs::remove_dir_all(&dir);
            let opts = RunOptions {
                quick: true,
                out_dir: dir.clone(),
                jobs: 1,
                fail_fast: true,
                ..RunOptions::default()
            };
            let mut buf = Vec::new();
            let m = run_experiments(&[first, &Demo], &opts, &mut buf).unwrap();
            let console = String::from_utf8(buf).unwrap();
            assert!(console.contains(banner), "{console}");
            assert!(console.contains("fail-fast: stopping"), "{console}");
            assert!(!console.contains("=== demo"), "{console}");
            assert_eq!(m.experiments.len(), 1);
            assert!(m.any_failed());
        }
    }

    struct Claimer;
    impl Experiment for Claimer {
        fn name(&self) -> &'static str {
            "claimer"
        }
        fn description(&self) -> &'static str {
            "a test-only experiment stating one true and one false claim"
        }
        fn paper_ref(&self) -> &'static str {
            "§0"
        }
        fn run(&self, _ctx: &ExpCtx) -> ExpReport {
            let mut t = Table::new("Claimer table", &["v"]);
            t.row(&["1".into()]);
            let mut r = ExpReport::with_table(t);
            r.note("a note")
                .claim(true, "rows 1 == 1")
                .claim(false, "errors 7 == 0")
                .bench_file("BENCH_claimer.json", "{}\n".into());
            r
        }
    }

    #[test]
    fn false_claim_saves_outputs_and_marks_claim_failed() {
        let dir = std::env::temp_dir().join("quartz_bench_harness_claim_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            quick: true,
            out_dir: dir.clone(),
            jobs: 1,
            ..RunOptions::default()
        };
        let mut buf = Vec::new();
        let m = run_experiments(&[&Claimer, &Demo], &opts, &mut buf).unwrap();
        let console = String::from_utf8(buf).unwrap();
        assert!(
            console.contains("a note\nclaim ok: rows 1 == 1\nCLAIM FAILED: errors 7 == 0\n"),
            "claims print after the notes: {console}"
        );
        assert!(console.contains("claims failed: claimer\n"), "{console}");
        assert!(!console.contains("quarantined:"), "{console}");
        // The rest of the selection still ran.
        assert!(console.contains("=== demo"), "{console}");

        // Every output is saved, and the row file carries the claims.
        assert!(dir.join("claimer_table.csv").exists());
        assert!(dir.join("BENCH_claimer.json").exists());
        let rows = std::fs::read_to_string(dir.join("claimer.json")).unwrap();
        assert!(
            rows.contains(
                "\"notes\":[\"a note\"],\"claims\":[{\"holds\":true,\"what\":\"rows 1 == 1\"},\
                 {\"holds\":false,\"what\":\"errors 7 == 0\"}]"
            ),
            "{rows}"
        );

        assert!(m.any_failed());
        assert_eq!(
            m.experiments[0].status,
            RunStatus::ClaimFailed {
                claims: vec!["errors 7 == 0".into()],
            }
        );
        assert_eq!(m.experiments[0].benches, vec!["BENCH_claimer.json"]);
        assert_eq!(m.experiments[1].status, RunStatus::Ok);
        let manifest_body = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(
            manifest_body
                .contains("\"status\":\"claim_failed\",\"failed_claims\":[\"errors 7 == 0\"]"),
            "{manifest_body}"
        );
    }

    #[test]
    fn inject_fail_quarantines_without_running() {
        let dir = std::env::temp_dir().join("quartz_bench_harness_inject_test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            quick: true,
            out_dir: dir.clone(),
            jobs: 1,
            inject_fail: Some("demo".into()),
            ..RunOptions::default()
        };
        let mut buf = Vec::new();
        let m = run_experiments(&[&Demo], &opts, &mut buf).unwrap();
        assert_eq!(
            m.experiments[0].status,
            RunStatus::Failed {
                message: "injected failure (--inject-fail)".into(),
                point: None,
            }
        );
        // The injected experiment never ran: no points, no outputs.
        assert!(m.experiments[0].points.is_empty());
        assert!(!dir.join("demo.json").exists());
    }
}
