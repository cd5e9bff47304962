//! The lock-free crash sweep: detectable stack/queue recovery at every
//! CAS-seam crash point.
//!
//! [`LockfreeSweep`] is the acceptance study for the atomics seam
//! (epoch settlement before a winning CAS publishes) and the
//! `quartz-lockfree` detectability layer. Each grid point runs a
//! two-phase workload (every thread pushes its planned values, then
//! the threads drain the structure) on the Treiber stack or the
//! Michael–Scott queue, derives the crash-point set (winning CASes,
//! flush edges, and a seeded random grid), and verifies the durable
//! image at every point. The correct variant must survive every point
//! (no false positives); the seeded `missing_flush` and
//! `lost_checkpoint` variants must be flagged at one or more points
//! (no false negatives). Pure virtual-time quantities, fully
//! deterministic — the sweep is part of the byte-identity contract.

use quartz::json::Json;
use quartz_lockfree::{run_sweep, LfVariant, Structure, SweepOutcome, SweepSpec};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::Table;

/// One grid point: which structure, which durability variant.
#[derive(Clone, Copy, Debug)]
struct PointSpec {
    structure: Structure,
    variant: LfVariant,
}

/// The evaluated point carried back to the report.
struct SweepRow {
    label: String,
    spec: PointSpec,
    out: SweepOutcome,
}

fn eval_point(pt: &Pt<PointSpec>, threads: usize, pushes: usize, random_points: usize) -> SweepRow {
    let spec = SweepSpec::new(pt.data.structure, pt.data.variant)
        .with_threads(threads)
        .with_pushes(pushes)
        .with_seed(pt.seed)
        .with_random_points(random_points);
    SweepRow {
        label: pt.label.clone(),
        spec: pt.data,
        out: run_sweep(&spec),
    }
}

/// Crash-point sweep over the detectable lock-free structures: correct
/// protocol plus two seeded durability bugs, on both the stack and the
/// queue.
pub struct LockfreeSweep;

impl Experiment for LockfreeSweep {
    fn name(&self) -> &'static str {
        "lockfree_sweep"
    }

    fn description(&self) -> &'static str {
        "lock-free sweep: detectable stack/queue recovery at every CAS-seam crash point"
    }

    fn paper_ref(&self) -> &'static str {
        "§6 (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let (threads, pushes, random_points) = if ctx.quick() { (3, 6, 24) } else { (4, 10, 64) };
        let structures = [Structure::Stack, Structure::Queue];
        let variants = [
            LfVariant::Correct,
            LfVariant::MissingFlush,
            LfVariant::LostCheckpoint,
        ];
        let mut seed = 0u64;
        let points: Vec<Pt<PointSpec>> = structures
            .iter()
            .flat_map(|&structure| {
                variants
                    .iter()
                    .map(move |&variant| PointSpec { structure, variant })
            })
            .map(|spec| {
                seed += 1;
                Pt::new(
                    format!(
                        "{}/{}/s{seed}",
                        spec.structure.label(),
                        spec.variant.label()
                    ),
                    seed,
                    spec,
                )
            })
            .collect();
        let rows = ctx.grid(points, |pt| eval_point(pt, threads, pushes, random_points));

        let mut table = Table::new(
            "Lock-free sweep — detectable stack & queue, recovery checked at every crash point",
            &[
                "configuration",
                "expect",
                "points",
                "cas seams",
                "failing",
                "popped",
                "first failure",
            ],
        );
        let mut false_positives = 0usize;
        let mut false_negatives = 0usize;
        let mut total_points = 0usize;
        let mut total_seams = 0usize;
        let mut report = ExpReport::default();
        let mut bench_rows = Vec::new();
        for r in &rows {
            let expect_recover = !r.spec.variant.is_buggy();
            total_points += r.out.points;
            total_seams += r.out.cas_seams;
            if expect_recover {
                false_positives += r.out.failing;
            } else if !r.out.caught() {
                false_negatives += 1;
            }
            table.row(&[
                r.label.clone(),
                if expect_recover { "recover" } else { "detect" }.into(),
                r.out.points.to_string(),
                r.out.cas_seams.to_string(),
                r.out.failing.to_string(),
                r.out.popped.to_string(),
                r.out
                    .first_failure
                    .as_ref()
                    .map(|(label, why)| format!("{label}: {why}"))
                    .unwrap_or_else(|| "-".to_string()),
            ]);
            report.stat(r.label.clone(), r.out.stats.to_json());
            bench_rows.push(Json::obj(vec![
                ("structure", Json::str(r.spec.structure.label())),
                ("variant", Json::str(r.spec.variant.label())),
                (
                    "expect",
                    Json::str(if expect_recover { "recover" } else { "detect" }),
                ),
                ("points", Json::Int(r.out.points as u64)),
                ("cas_seams", Json::Int(r.out.cas_seams as u64)),
                ("failing", Json::Int(r.out.failing as u64)),
                ("popped", Json::Int(r.out.popped as u64)),
                ("caught", Json::Bool(r.out.caught())),
            ]));
        }
        report.table(table);
        report.note(format!(
            "(verdict: false_negatives={false_negatives} false_positives={false_positives} \
             across {total_points} crash points from {threads}x{pushes}-op runs)"
        ));
        report.note(format!(
            "(winning CASes contributed {total_seams} cas_seam crash candidates; \
             epoch state settles before each publication)"
        ));
        report.note(
            "(every point is evaluated offline from one recorded execution: \
             same seed => same durable images at any --jobs)",
        );
        let bench = Json::obj(vec![
            ("schema", Json::Int(1)),
            ("bench", Json::str("lockfree_sweep")),
            ("quick", Json::Bool(ctx.quick())),
            ("threads", Json::Int(threads as u64)),
            ("pushes", Json::Int(pushes as u64)),
            ("rows", Json::Arr(bench_rows)),
            (
                "verdict",
                Json::obj(vec![
                    ("false_negatives", Json::Int(false_negatives as u64)),
                    ("false_positives", Json::Int(false_positives as u64)),
                    ("points", Json::Int(total_points as u64)),
                    ("cas_seams", Json::Int(total_seams as u64)),
                ]),
            ),
        ]);
        report.bench_file("BENCH_lockfree.json", bench.render() + "\n");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_flags_bug_and_passes_correct() {
        let ok = eval_point(
            &Pt::new(
                "treiber_stack/correct/s1",
                1,
                PointSpec {
                    structure: Structure::Stack,
                    variant: LfVariant::Correct,
                },
            ),
            3,
            6,
            16,
        );
        assert!(ok.out.points > 16);
        assert!(ok.out.cas_seams > 0, "winning CASes become candidates");
        assert_eq!(ok.out.failing, 0, "first: {:?}", ok.out.first_failure);

        let bad = eval_point(
            &Pt::new(
                "ms_queue/lost_checkpoint/s6",
                6,
                PointSpec {
                    structure: Structure::Queue,
                    variant: LfVariant::LostCheckpoint,
                },
            ),
            3,
            6,
            16,
        );
        assert!(bad.out.caught(), "seeded bug must be flagged");
        // The stats satellite: exported JSON carries the atomics seams.
        assert!(bad
            .out
            .stats
            .to_json()
            .render()
            .contains("\"cas_handoffs\":"));
    }
}
