//! Fig. 11 — MemLat emulation error vs. concurrency degree (number of
//! independent chains), for all three families: Conf_1 (local + Quartz
//! emulating remote latency) against Conf_2 (physically remote).
//!
//! Paper result: 0.2% – 4% across chains ∈ {1, 2, 3, 4, 5, 8}.

use quartz_platform::Architecture;

use super::{conf1_memlat, conf2_memlat, validation_epoch};
use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::report::{f, Table};
use crate::{error_pct, mean};

/// Runs the MLP validation sweep.
pub struct Fig11;

impl Experiment for Fig11 {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn description(&self) -> &'static str {
        "MemLat emulation error vs concurrency degree"
    }

    fn paper_ref(&self) -> &'static str {
        "§4.4 Fig. 11"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let trials = if ctx.quick() { 2 } else { 5 };
        let iterations = if ctx.quick() { 15_000 } else { 40_000 };
        let chains_sweep = [1usize, 2, 3, 4, 5, 8];

        // Sweep: arch × chains × trial × {conf2, conf1}.
        let mut points = Vec::new();
        for arch in Architecture::ALL {
            let remote = arch.params().remote_dram_ns.avg_ns as f64;
            for &chains in &chains_sweep {
                for t in 0..trials {
                    let seed = 1_000 * t + 7;
                    points.push(conf2_memlat(arch, chains, iterations, seed));
                    points.push(conf1_memlat(
                        arch,
                        chains,
                        iterations,
                        seed,
                        remote,
                        validation_epoch(),
                    ));
                }
            }
        }
        let lats = ctx.grid(points, |p| p.data.eval().latency_per_iteration_ns());

        let mut table = Table::new(
            "Fig 11 - MemLat emulation error vs concurrency degree",
            &[
                "family",
                "chains",
                "conf2 ns/iter",
                "conf1 ns/iter",
                "error %",
            ],
        );
        let mut it = lats.chunks(2 * trials as usize);
        let (mut worst, mut worst_cell) = (0.0f64, String::new());
        for arch in Architecture::ALL {
            for &chains in &chains_sweep {
                let group = it.next().expect("group per (arch, chains)");
                let conf2: Vec<f64> = group.iter().step_by(2).copied().collect();
                let conf1: Vec<f64> = group.iter().skip(1).step_by(2).copied().collect();
                let c2 = mean(&conf2);
                let c1 = mean(&conf1);
                let err = error_pct(c1, c2);
                if err > worst {
                    (worst, worst_cell) = (err, format!("{arch}, {chains} chains"));
                }
                table.row(&[
                    arch.to_string(),
                    chains.to_string(),
                    f(c2, 1),
                    f(c1, 1),
                    f(err, 2),
                ]);
            }
        }
        let mut report = ExpReport::with_table(table);
        report.note("(paper: 0.2%-4% across all chain counts and families)");
        report.claim(
            worst <= 4.0,
            format!("every cell's error within 4%: worst {worst:.2}% ({worst_cell})"),
        );
        report
    }
}
