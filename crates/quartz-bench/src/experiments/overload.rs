//! `overload_matrix` — the robustness headline: goodput and tail
//! latency of the open-loop KV service across offered loads straddling
//! the saturation knee, at DRAM and at emulated NVM, with and without
//! the protection layer, under injected service faults.
//!
//! The paper's KV results (Fig. 15/16) are closed-loop: each thread
//! issues its next operation only after the previous one completes, so
//! queueing never accumulates and slow media shows up as a mean shift.
//! Real services face *open-loop* arrivals — requests land on their own
//! schedule whether or not the server keeps up — and there NVM latency
//! is amplified by queueing into the tail percentiles before the mean
//! moves. The unprotected, fault-free cells are those curves: the
//! [`KvService`] scenario (open-loop connection sources fanning into
//! batching workers) at DRAM and at the calibrated asymmetric Optane DC
//! PMM target ([`NvmTarget::optane_dcpmm`]: ~169 ns reads, ~90 ns
//! write-to-WPQ, 39.4/13.9 GB/s read/write bandwidth, per
//! arXiv:2002.06018), with coordinated-omission-free latency
//! distributions, mean latency and batch factor per cell.
//!
//! Past the knee an unprotected open-loop service is unstable —
//! queues (and therefore sojourn times) grow with the run length, so
//! the goodput measured against a fixed deadline budget collapses while
//! raw completions stay flat. The protected configuration (deadline
//! enforcement, bounded admission window, seeded-backoff retries,
//! per-worker circuit breakers — see `quartz-workloads::kvstore::service`)
//! sheds the excess instead of queueing it, holding goodput near
//! capacity and the admitted tail within budget.
//!
//! The fault dimension injects the `quartz-faults` service-seam
//! classes ([`ServiceFaultClass`]): a persistently slow worker, a
//! worker that wedges mid-run, or nothing (the control). Each class
//! declares the worst protected-goodput degradation it may cause
//! relative to the fault-free protected cell at the same load
//! ([`ServiceFaultClass::goodput_bound_pct`]); the experiment claims
//! every bound and per-cell conservation (`offered == served + shed +
//! expired + failed`), and the emitted JSON carries both.
//!
//! Emits `BENCH_overload.json`; every cell is pure virtual-time
//! measurement with seeded fault decisions, so the file is
//! byte-identical at any `--jobs`.

use quartz::json::Json;
use quartz::{NvmTarget, QuartzConfig};
use quartz_faults::{ServiceFaultClass, ServicePlanInjector};
use quartz_platform::Architecture;
use quartz_workloads::kvstore::{KvService, ServiceConfig, ServiceResult};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::{f, Table};
use crate::{build_engine, MachineSpec};

/// Machine seed for every matrix cell (distinct from fig15/16's 16/17).
const SEED: u64 = 23;

/// The per-request completion budget every cell measures goodput
/// against (and the protected cells enforce). ~25x the below-knee
/// p999, so it only bites once queueing dominates.
const DEADLINE_US: u64 = 100;

/// The 4-worker service's saturation knee in offered load: the sweep's
/// loads below it are pre-knee.
const KNEE_RPS: f64 = 9.0e6;

/// The fault classes the matrix sweeps (control first).
const FAULTS: [ServiceFaultClass; 3] = [
    ServiceFaultClass::None,
    ServiceFaultClass::SlowWorker,
    ServiceFaultClass::StuckWorker,
];

/// One matrix cell: memory x protection x offered load x fault.
#[derive(Clone)]
struct CellSpec {
    /// `"dram"` or `"optane"`.
    memory: &'static str,
    /// Emulated NVM target; `None` is the DRAM baseline.
    target: Option<NvmTarget>,
    /// `"unprotected"` or `"protected"`.
    mode: &'static str,
    protected: bool,
    fault: ServiceFaultClass,
    offered_rps: f64,
    requests: u64,
}

/// One measured cell, ready for the table and JSON.
#[derive(Clone)]
struct CellRow {
    memory: &'static str,
    mode: &'static str,
    fault: &'static str,
    offered_rps: f64,
    result: ServiceResult,
}

impl CellSpec {
    fn eval(&self, arch: Architecture) -> CellRow {
        let mem = MachineSpec::new(arch).with_seed(SEED).build();
        let qc = self.target.map(|t| {
            QuartzConfig::new(t).with_max_epoch(quartz_platform::time::Duration::from_us(100))
        });
        let (engine, quartz) = build_engine(&mem, qc);
        let mut cfg = ServiceConfig {
            requests: self.requests,
            offered_rps: self.offered_rps,
            deadline: Some(quartz_platform::time::Duration::from_us(DEADLINE_US)),
            ..ServiceConfig::default()
        };
        if self.protected {
            cfg = cfg.protected();
        }
        let faults = std::sync::Arc::new(ServicePlanInjector::new(self.fault.plan(SEED)));
        let svc = KvService::try_install_with_faults(&engine, quartz, cfg, faults)
            .expect("valid service config");
        let slot = svc.result_slot();
        engine.run(svc.into_root());
        let result = slot.lock().take().expect("service deposited a result");
        CellRow {
            memory: self.memory,
            mode: self.mode,
            fault: self.fault.name(),
            offered_rps: self.offered_rps,
            result,
        }
    }
}

/// Runs the overload robustness matrix.
pub struct OverloadMatrix;

impl Experiment for OverloadMatrix {
    fn name(&self) -> &'static str {
        "overload_matrix"
    }

    fn description(&self) -> &'static str {
        "overload robustness: goodput/shed/tail across the knee, protected vs not, under service faults"
    }

    fn paper_ref(&self) -> &'static str {
        "robustness (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let arch = Architecture::SandyBridge;
        let requests: u64 = if ctx.quick() { 20_000 } else { 1_000_000 };
        // Loads straddle the 4-worker service's `KNEE_RPS`: one
        // comfortably below, one near it, the rest well past it, where
        // an unprotected open-loop service goes unstable.
        let loads: &[f64] = if ctx.quick() {
            &[2.0e6, 10.0e6, 20.0e6]
        } else {
            &[2.0e6, 6.0e6, 10.0e6, 20.0e6]
        };
        let mut points: Vec<Pt<CellSpec>> = Vec::new();
        for (memory, target) in [("dram", None), ("optane", Some(NvmTarget::optane_dcpmm()))] {
            for (mode, protected) in [("unprotected", false), ("protected", true)] {
                for fault in FAULTS {
                    for &offered_rps in loads {
                        points.push(Pt::new(
                            format!(
                                "{memory}/{mode}/{}/load{:.0}M",
                                fault.name(),
                                offered_rps / 1e6
                            ),
                            SEED,
                            CellSpec {
                                memory,
                                target,
                                mode,
                                protected,
                                fault,
                                offered_rps,
                                requests,
                            },
                        ));
                    }
                }
            }
        }
        let rows = ctx.grid(points, |p| p.data.eval(arch));

        let mut table = Table::new(
            "Overload matrix: goodput, shedding, and tails across the knee",
            &[
                "memory",
                "mode",
                "fault",
                "offered Mrps",
                "goodput Mrps",
                "served",
                "shed",
                "expired",
                "failed",
                "p999 us",
            ],
        );
        for r in &rows {
            table.row(&[
                r.memory.into(),
                r.mode.into(),
                r.fault.into(),
                f(r.offered_rps / 1e6, 2),
                f(r.result.goodput_rps() / 1e6, 2),
                r.result.completed.to_string(),
                r.result.shed.to_string(),
                r.result.expired.to_string(),
                r.result.failed.to_string(),
                f(r.result.latency.p999() as f64 / 1e3, 2),
            ]);
        }

        let mut report = ExpReport::default();
        report.table(table);
        // The headline: past the knee, unprotected goodput collapses
        // (everything completes, late) while protected goodput holds
        // near capacity by shedding the excess.
        let cell = |memory, mode, fault: &str, load: f64| {
            rows.iter()
                .find(|r| {
                    r.memory == memory
                        && r.mode == mode
                        && r.fault == fault
                        && r.offered_rps == load
                })
                .expect("matrix cell present")
        };
        let lo = loads[0];
        let hi = *loads.last().expect("nonempty loads");
        for memory in ["dram", "optane"] {
            let u_lo = cell(memory, "unprotected", "none", lo);
            let u_hi = cell(memory, "unprotected", "none", hi);
            let p_hi = cell(memory, "protected", "none", hi);
            report.note(format!(
                "({memory}: unprotected goodput {:.2} -> {:.2} Mrps from {:.0}M to \
                 {:.0}M offered (p999 {:.0} -> {:.0} us); protected holds {:.2} Mrps \
                 shedding {} of {} past the knee)",
                u_lo.result.goodput_rps() / 1e6,
                u_hi.result.goodput_rps() / 1e6,
                lo / 1e6,
                hi / 1e6,
                u_lo.result.latency.p999() as f64 / 1e3,
                u_hi.result.latency.p999() as f64 / 1e3,
                p_hi.result.goodput_rps() / 1e6,
                p_hi.result.shed,
                p_hi.result.offered,
            ));
        }
        // The open-loop story on the unprotected fault-free cells: below
        // the knee NVM degrades the p999 tail before it moves the mean
        // (the closed-loop kernels can't see this); past the knee
        // queueing dominates both.
        let nvm_over_dram = |load: f64| {
            let d = &cell("dram", "unprotected", "none", load).result.latency;
            let n = &cell("optane", "unprotected", "none", load).result.latency;
            (
                load,
                n.mean_ns() / d.mean_ns().max(f64::MIN_POSITIVE),
                n.p999() as f64 / (d.p999() as f64).max(1.0),
            )
        };
        // Among the pre-knee loads, the one where the tail has departed
        // the most while the mean has barely moved.
        let (load, mean_x, tail_x) = loads
            .iter()
            .filter(|&&load| load < KNEE_RPS)
            .map(|&load| nvm_over_dram(load))
            .max_by(|a, b| (a.2 / a.1).total_cmp(&(b.2 / b.1)))
            .expect("at least one pre-knee load");
        let (_, knee_mean_x, knee_tail_x) = nvm_over_dram(hi);
        let svc = ServiceConfig::default();
        report.note(format!(
            "(below the knee NVM's penalty lands in the tail, not the mean — \
             widest at {:.2} Mrps: NVM/DRAM p999 {tail_x:.2}x vs mean {mean_x:.2}x; \
             past the knee at {:.2} Mrps queueing dominates both: p999 \
             {knee_tail_x:.2}x, mean {knee_mean_x:.2}x; unprotected fault-free cells, \
             {} connections -> {} workers, batch <= {})",
            load / 1e6,
            hi / 1e6,
            svc.connections,
            svc.workers,
            svc.batch,
        ));
        report.note(format!(
            "({} requests per cell, {DEADLINE_US} us deadline budget in every cell; \
             fault plans seeded from {SEED})",
            requests
        ));
        claim_matrix(&mut report, &rows);
        report.bench_file("BENCH_overload.json", bench_json(ctx, &rows));
        report
    }
}

/// Mean requests served per worker wake-up.
fn batch_factor(res: &ServiceResult) -> f64 {
    res.completed as f64 / res.wakeups.max(1) as f64
}

/// States the matrix's claims: per-cell conservation and ordering,
/// and per memory the open-loop curve shape, the protection story past
/// the knee, and each fault class's declared goodput bound.
fn claim_matrix(report: &mut ExpReport, rows: &[CellRow]) {
    let conserving = rows
        .iter()
        .filter(|r| r.result.conservation_holds())
        .count();
    report.claim(
        conserving == rows.len() && rows.len() >= 36,
        format!(
            "offered == served + shed + expired + failed in {conserving} of {} cells (>= 36)",
            rows.len()
        ),
    );
    let ordered = rows
        .iter()
        .filter(|r| {
            let (res, lat) = (&r.result, &r.result.latency);
            res.served_in_deadline <= res.completed
                && lat.p50() <= lat.p99()
                && lat.p99() <= lat.p999()
        })
        .count();
    report.claim(
        ordered == rows.len(),
        format!(
            "served_in_deadline <= served and p50 <= p99 <= p999 in {ordered} of {} cells",
            rows.len()
        ),
    );
    for memory in ["dram", "optane"] {
        // Rows run in ascending load order within each curve.
        let curve = |mode: &str, fault: &str| -> Vec<&CellRow> {
            rows.iter()
                .filter(|r| r.memory == memory && r.mode == mode && r.fault == fault)
                .collect()
        };
        let prot = curve("protected", "none");
        let unprot = curve("unprotected", "none");
        let sane = unprot.iter().all(|c| {
            let res = &c.result;
            res.achieved_rps() > 0.0
                && res.achieved_rps() <= c.offered_rps * 1.05
                && res.latency.mean_ns() > 0.0
                && batch_factor(res) >= 1.0
        });
        report.claim(
            sane && prot.len() >= 3 && unprot.len() >= 3,
            format!(
                "{memory}: all {} unprotected fault-free loads (>= 3) complete at \
                 0 < achieved <= 1.05x offered, mean > 0, batch factor >= 1",
                unprot.len()
            ),
        );
        // Graceful: never below 0.8x the best goodput seen so far.
        let mut best = 0.0f64;
        let mut lowest = f64::INFINITY;
        for c in &prot {
            let g = c.result.goodput_rps();
            if best > 0.0 {
                lowest = lowest.min(g / best);
            }
            best = best.max(g);
        }
        report.claim(
            lowest >= 0.8,
            format!(
                "{memory}: protected goodput never drops below 0.8x the best load so far \
                 (lowest {lowest:.2}x)"
            ),
        );
        let (u_lo, u_hi, p_hi) = (unprot[0], unprot[unprot.len() - 1], prot[prot.len() - 1]);
        let p999 = |c: &CellRow| c.result.latency.p999();
        report.claim(
            p999(u_hi) > 3 * p999(u_lo) && p999(u_hi) > 2 * p999(p_hi),
            format!(
                "{memory}: past the knee unprotected p999 {:.1} us > 3x its {:.1} us at \
                 the lowest load and > 2x protected {:.1} us",
                p999(u_hi) as f64 / 1e3,
                p999(u_lo) as f64 / 1e3,
                p999(p_hi) as f64 / 1e3
            ),
        );
        report.claim(
            p_hi.result.shed > 0 && p_hi.result.goodput_rps() > u_hi.result.goodput_rps(),
            format!(
                "{memory}: past the knee protected sheds {} > 0 and holds goodput \
                 {:.2} Mrps > unprotected {:.2} Mrps",
                p_hi.result.shed,
                p_hi.result.goodput_rps() / 1e6,
                u_hi.result.goodput_rps() / 1e6
            ),
        );
        // Fault cells against the fault-free protected cell at the
        // same load.
        for fault in &FAULTS[1..] {
            let mut worst = 0.0f64;
            for (c, clean) in curve("protected", fault.name()).iter().zip(&prot) {
                let base = clean.result.goodput_rps();
                if base > 0.0 {
                    worst = worst.max((1.0 - c.result.goodput_rps() / base).max(0.0) * 100.0);
                }
            }
            let bound = fault.goodput_bound_pct();
            report.claim(
                worst <= bound + 1e-9,
                format!(
                    "{memory}/{}: worst protected goodput drop {worst:.1}% <= {bound}%",
                    fault.name()
                ),
            );
        }
    }
}

/// Renders `BENCH_overload.json`: one object per matrix cell in
/// deterministic sweep order, plus the declared per-fault goodput
/// bounds. Pure virtual-time measurement — byte-identical across hosts
/// and `--jobs`. Schema 2: `nvm_target`/`nvm_read_ns`, and each cell's
/// `mean_ns`/`batch_factor`.
fn bench_json(ctx: &ExpCtx, rows: &[CellRow]) -> String {
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            let res = &r.result;
            Json::obj(vec![
                ("memory", Json::str(r.memory)),
                ("mode", Json::str(r.mode)),
                ("fault", Json::str(r.fault)),
                ("offered_rps", Json::Num(r.offered_rps.round())),
                ("offered", Json::Int(res.offered)),
                ("served", Json::Int(res.completed)),
                ("served_in_deadline", Json::Int(res.served_in_deadline)),
                ("shed", Json::Int(res.shed)),
                ("expired", Json::Int(res.expired)),
                ("failed", Json::Int(res.failed)),
                ("retries", Json::Int(res.retries)),
                ("breaker_trips", Json::Int(res.breaker_trips)),
                ("goodput_rps", Json::num3(res.goodput_rps())),
                ("achieved_rps", Json::num3(res.achieved_rps())),
                ("mean_ns", Json::num3(res.latency.mean_ns())),
                ("p50_ns", Json::Int(res.latency.p50())),
                ("p99_ns", Json::Int(res.latency.p99())),
                ("p999_ns", Json::Int(res.latency.p999())),
                ("batch_factor", Json::num3(batch_factor(res))),
                ("conservation_ok", Json::Bool(res.conservation_holds())),
            ])
        })
        .collect();
    let bounds: Vec<Json> = FAULTS
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("fault", Json::str(c.name())),
                ("goodput_bound_pct", Json::Num(c.goodput_bound_pct())),
            ])
        })
        .collect();
    let obj = Json::obj(vec![
        ("schema", Json::Int(2)),
        ("bench", Json::str("overload_matrix")),
        ("quick", Json::Bool(ctx.quick())),
        ("nvm_target", Json::str("optane_dcpmm")),
        (
            "nvm_read_ns",
            Json::Num(NvmTarget::optane_dcpmm().read_latency_ns),
        ),
        ("deadline_us", Json::Int(DEADLINE_US)),
        ("fault_bounds", Json::Arr(bounds)),
        ("cells", Json::Arr(cells)),
    ]);
    obj.render() + "\n"
}
