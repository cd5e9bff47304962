//! Fig. 12 — MemLat-reported latency under Quartz for target NVM
//! latencies 200–1000 ns, with error bars over trials, plus the
//! emulation error per family.
//!
//! Paper result: errors < 9% on Sandy Bridge, < 2% on Ivy Bridge,
//! < 6% on Haswell; the spread is attributed to counter reliability.

use quartz_platform::Architecture;

use super::{conf1_memlat, validation_epoch};
use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::report::{f, Table};
use crate::{error_pct, mean, stddev};

/// Runs the target-latency sweep.
pub struct Fig12;

impl Experiment for Fig12 {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn description(&self) -> &'static str {
        "MemLat measured latency vs emulated NVM target latency"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.4 Fig. 12"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let trials = if ctx.quick() { 3 } else { 8 };
        let iterations = if ctx.quick() { 15_000 } else { 40_000 };
        let targets: &[f64] = if ctx.quick() {
            &[200.0, 500.0, 1000.0]
        } else {
            &[
                200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0,
            ]
        };

        // Sweep: arch × target × trial (Conf_1 only).
        let mut points = Vec::new();
        for arch in Architecture::ALL {
            for &target in targets {
                for t in 0..trials {
                    let seed = 31 * t + 5;
                    points.push(conf1_memlat(
                        arch,
                        1,
                        iterations,
                        seed,
                        target,
                        validation_epoch(),
                    ));
                }
            }
        }
        let lats = ctx.grid(points, |p| p.data.eval().latency_per_iteration_ns());

        let mut table = Table::new(
            "Fig 12 - MemLat measured latency vs emulated NVM target",
            &["family", "target ns", "measured ns", "stddev", "error %"],
        );
        let mut report = ExpReport::default();
        let mut it = lats.chunks(trials as usize);
        for arch in Architecture::ALL {
            let mut worst_err = 0.0f64;
            for &target in targets {
                let measured = it.next().expect("group per (arch, target)");
                let m = mean(measured);
                let err = error_pct(m, target);
                worst_err = worst_err.max(err);
                table.row(&[
                    arch.to_string(),
                    f(target, 0),
                    f(m, 1),
                    f(stddev(measured), 2),
                    f(err, 2),
                ]);
            }
            let band = match arch {
                Architecture::SandyBridge => 9.0,
                Architecture::IvyBridge => 2.0,
                Architecture::Haswell => 6.0,
            };
            report.claim(
                worst_err < band,
                format!("worst error on {arch} {worst_err:.2}% < {band}%"),
            );
        }
        report.tables.push(table);
        report.note("(paper: <9% Sandy Bridge, <2% Ivy Bridge, <6% Haswell)");
        report
    }
}
