//! The crash-consistency experiment built on the `quartz-crash`
//! subsystem: [`CrashSweep`], the checker's acceptance study. The
//! undo-log KV store's correct protocol must recover at *every* crash
//! point (no false positives), both seeded-bug variants must be
//! flagged at one or more points (no false negatives), and persistence
//! tracking must cost nothing in virtual time. Pure virtual-time
//! quantities, fully deterministic.

use std::sync::Arc;

use quartz::{NvmTarget, QuartzConfig, QuartzStats};
use quartz_crash::{CrashPlan, PersistCounters};
use quartz_memsim::MemorySystem;
use quartz_platform::time::SimTime;
use quartz_platform::Architecture;
use quartz_workloads::kvstore::{check_undo_log, run_undo_log, UndoLogSpec, UndoVariant};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::Table;
use crate::{run_workload, MachineSpec};

/// The emulated NVM every crash experiment targets: 300 ns reads,
/// 450 ns write-queue drain (the paper's §6 software-visible knob).
fn crash_target() -> QuartzConfig {
    QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
}

/// A deterministic machine for crash runs: jitter and counter noise
/// would not break the checker (every run is internally consistent),
/// but exact counters keep the sweep's virtual times seed-stable.
fn crash_machine(seed: u64) -> Arc<MemorySystem> {
    MachineSpec::new(Architecture::IvyBridge)
        .with_seed(seed)
        .with_no_jitter()
        .with_perfect_counters()
        .build()
}

/// One sweep configuration: which protocol variant, how many simulated
/// worker threads, and whether the checker is expected to pass it.
#[derive(Clone, Copy, Debug)]
struct SweepSpec {
    variant: UndoVariant,
    threads: usize,
    expect_recover: bool,
}

/// The per-point evaluation result carried back to the report.
struct SweepRow {
    label: String,
    spec: SweepSpec,
    points: usize,
    recovered: usize,
    detected: usize,
    violated_claims: usize,
    first_detection: String,
    lock_handoffs: usize,
    end_counters: PersistCounters,
    end_fingerprint: u64,
    stats: QuartzStats,
}

fn eval_sweep_point(pt: &Pt<SweepSpec>, ops: u64, random_points: usize) -> SweepRow {
    let uspec = UndoLogSpec {
        slots: 8,
        ops,
        seed: pt.seed,
        variant: pt.data.variant,
        threads: pt.data.threads,
    };
    let (run, kv) = run_undo_log(
        &uspec,
        crash_machine(pt.seed),
        crash_target(),
        random_points,
    )
    .expect("crash run");
    let outcomes = check_undo_log(&run, kv, &uspec);
    let recovered = outcomes.iter().filter(|o| o.recovered()).count();
    let detected = outcomes.len() - recovered;
    let violated_claims = outcomes.iter().map(|o| o.violated_claims.len()).sum();
    let first_detection = outcomes
        .iter()
        .find(|o| !o.recovered())
        .map(|o| format!("{} @{}", o.label, o.at))
        .unwrap_or_else(|| "-".to_string());
    let end = run.trace().end();
    // Export the emulator statistics with the persistence-state counts
    // at the end-of-run instant folded in (stats satellite: the
    // `lines_*` fields are filled by crash-consistency runs).
    let mut stats = run.quartz().stats();
    let end_counters = run.trace().counters_at(end);
    stats.totals.lines_dirty = end_counters.dirty;
    stats.totals.lines_in_wpq = end_counters.in_wpq;
    stats.totals.lines_durable = end_counters.durable;
    SweepRow {
        label: pt.label.clone(),
        spec: pt.data,
        points: outcomes.len(),
        recovered,
        detected,
        violated_claims,
        first_detection,
        lock_handoffs: run
            .points()
            .iter()
            .filter(|(l, _)| l == "lock_handoff")
            .count(),
        end_counters,
        end_fingerprint: run.trace().image_at(end).fingerprint(),
        stats,
    }
}

/// Crash-point sweep over the undo-log KV store: correct protocol and
/// two seeded ordering bugs, single- and multi-threaded.
pub struct CrashSweep;

impl Experiment for CrashSweep {
    fn name(&self) -> &'static str {
        "crash_sweep"
    }

    fn description(&self) -> &'static str {
        "crash-consistency sweep: undo-log KV recovery at every derived crash point"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1/§6 (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let (ops, random_points) = if ctx.quick() { (24, 40) } else { (96, 160) };
        let correct = |threads| SweepSpec {
            variant: UndoVariant::Correct,
            threads,
            expect_recover: true,
        };
        let buggy = |variant| SweepSpec {
            variant,
            threads: 1,
            expect_recover: false,
        };
        let points = vec![
            Pt::new("correct/t1/s1", 1, correct(1)),
            Pt::new("correct/t1/s2", 2, correct(1)),
            Pt::new("correct/t2/s3", 3, correct(2)),
            Pt::new(
                "missing_flush/t1/s4",
                4,
                buggy(UndoVariant::MissingDataFlush),
            ),
            Pt::new(
                "misordered_commit/t1/s5",
                5,
                buggy(UndoVariant::MisorderedCommit),
            ),
        ];
        let rows = ctx.grid(points, |pt| eval_sweep_point(pt, ops, random_points));
        let op_counts: &[u64] = if ctx.quick() {
            &[400, 1200]
        } else {
            &[2000, 8000]
        };
        let cost_points = op_counts
            .iter()
            .map(|&ops| Pt::new(format!("cost/ops{ops}"), 11, ops))
            .collect();
        let costs = ctx.grid(cost_points, |pt| eval_cost_point(pt.data, pt.seed));

        let mut table = Table::new(
            "Crash sweep — undo-log KV store, recovery checked at every crash point",
            &[
                "configuration",
                "expect",
                "points",
                "recovered",
                "detected",
                "claims violated",
                "first detection",
                "durable fp",
            ],
        );
        let mut false_positives = 0usize;
        let mut false_negatives = 0usize;
        let mut total_points = 0usize;
        let mut report = ExpReport::default();
        for r in &rows {
            total_points += r.points;
            if r.spec.expect_recover {
                false_positives += r.detected;
            } else if r.detected == 0 {
                false_negatives += 1;
            }
            table.row(&[
                r.label.clone(),
                if r.spec.expect_recover {
                    "recover"
                } else {
                    "detect"
                }
                .into(),
                r.points.to_string(),
                r.recovered.to_string(),
                r.detected.to_string(),
                r.violated_claims.to_string(),
                r.first_detection.clone(),
                format!("{:016x}", r.end_fingerprint),
            ]);
            report.stat(r.label.clone(), r.stats.to_json());
        }
        let mt = rows.iter().find(|r| r.spec.threads > 1);
        let end_states: String = rows
            .iter()
            .map(|r| {
                format!(
                    "{}: {}d/{}w/{}p",
                    r.spec.variant.label(),
                    r.end_counters.dirty,
                    r.end_counters.in_wpq,
                    r.end_counters.durable
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
            // Labels repeat across seeds; keep the note line bounded.
            .chars()
            .take(160)
            .collect();
        report.table(table);
        if let Some(mt) = mt {
            report.note(format!(
                "(multithreaded run derived {} lock-hand-off crash candidates)",
                mt.lock_handoffs
            ));
        }
        report.note(format!(
            "(end-of-run line states dirty/wpq/durable — {end_states})"
        ));
        report.note(
            "(every point is evaluated offline from one recorded execution: \
             same seed => same durable images at any --jobs)",
        );
        let fewest = rows.iter().map(|r| r.points).min().unwrap_or(0);
        report
            .claim(
                rows.len() >= 5 && fewest > 0,
                format!(
                    "all {} configurations (>= 5) derive crash points: {total_points} from \
                     {ops}-op runs, fewest {fewest} > 0",
                    rows.len()
                ),
            )
            .claim(
                false_positives == 0,
                format!(
                    "false positives {false_positives} == 0: the correct protocol recovers at \
                     every point"
                ),
            )
            .claim(
                false_negatives == 0,
                format!("false negatives {false_negatives} == 0: every seeded bug is detected"),
            );
        let matching = costs.iter().filter(|c| c.free_in_virtual_time()).count();
        report.claim(
            matching == costs.len(),
            format!(
                "tracking is free in virtual time: tracked and untracked runs end at \
                 the same simulated instant at {matching} of {} op counts",
                costs.len()
            ),
        );
        report
    }
}

/// One tracked/untracked pair of the same store+flush sequence.
struct CostPoint {
    untracked_end: SimTime,
    tracked_end: SimTime,
    /// Persistence events the tracked run recorded.
    events: u64,
}

impl CostPoint {
    /// Tracking recorded the ops and did not move the run's end.
    fn free_in_virtual_time(&self) -> bool {
        self.events > 0 && self.untracked_end == self.tracked_end
    }
}

fn eval_cost_point(ops: u64, seed: u64) -> CostPoint {
    let lines = 64u64;
    let cfg = crash_target();
    // Baseline: the identical store+flush sequence against the raw
    // emulator, no observer installed, no shadow bookkeeping.
    let (untracked_end, _) = run_workload(crash_machine(seed), Some(cfg.clone()), move |ctx, q| {
        let q = q.expect("quartz attached");
        let buf = q.pmalloc(ctx, lines * 64).expect("pmalloc");
        for i in 0..ops {
            let a = buf.offset_by((i % lines) * 64);
            ctx.store(a);
            q.pflush(ctx, a);
        }
        ctx.now()
    });

    // Tracked: same machine seed, same op sequence, full persistence
    // tracking through the `Pmem` façade.
    let (run, tracked_end) = CrashPlan::new(seed)
        .with_random_points(0)
        .run(crash_machine(seed), cfg, move |ctx, q, pm| {
            let buf = q.pmalloc(ctx, lines * 64).expect("pmalloc");
            for i in 0..ops {
                let a = buf.offset_by((i % lines) * 64);
                pm.write_u64(ctx, a, i);
                pm.flush(ctx, a);
            }
            ctx.now()
        })
        .expect("crash run");

    CostPoint {
        untracked_end,
        tracked_end,
        events: run.trace().events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_flags_bug_and_passes_correct() {
        let ok = eval_sweep_point(
            &Pt::new(
                "correct/t1/s1",
                1,
                SweepSpec {
                    variant: UndoVariant::Correct,
                    threads: 1,
                    expect_recover: true,
                },
            ),
            12,
            16,
        );
        assert!(ok.points > 16);
        assert_eq!(ok.detected, 0, "first: {}", ok.first_detection);
        assert_eq!(ok.recovered, ok.points);

        let bad = eval_sweep_point(
            &Pt::new(
                "missing_flush/t1/s4",
                4,
                SweepSpec {
                    variant: UndoVariant::MissingDataFlush,
                    threads: 1,
                    expect_recover: false,
                },
            ),
            12,
            16,
        );
        assert!(bad.detected > 0);
        assert!(bad.first_detection != "-");
        assert!(bad.violated_claims > 0, "oracle must flag the lie");
        // The stats satellite: exported JSON carries the line states.
        assert!(bad.stats.to_json().render().contains("\"lines_durable\":"));
    }

    #[test]
    fn cost_point_keeps_virtual_time_identical() {
        let r = eval_cost_point(64, 5);
        assert_eq!(r.untracked_end, r.tracked_end);
        assert!(r.events > 0);
        assert!(r.free_in_virtual_time());
    }
}
