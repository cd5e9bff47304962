//! Read/write asymmetry ablation: what the symmetric latency model
//! misses on write-heavy code.
//!
//! Quartz's published model injects delay from *load-side* stalls only
//! (Eq. 2 over `LDM_STALL`), which is exact for read-dominated code but
//! blind to store-path cost on NVM whose writes are slower than its
//! reads (Optane DC PMM reads ~169 ns but sustains ~3x lower write
//! bandwidth). This experiment runs a 2x2-style grid — read-dominated
//! workloads (a dependent pointer chase, B+-tree point lookups) against
//! write-dominated ones (STREAM triad with regular RFO stores, an
//! undo-log-style batched KV put) — once under the symmetric model and
//! once with the asymmetric write term enabled
//! ([`NvmTarget::with_write_latency_ns`]), holding everything else
//! fixed (same seed, jitter off, perfect counters).
//!
//! Expected shape, stated as the experiment's claims:
//!
//! * the read-only control cell accrues **exactly zero** write term
//!   (no stores → no `RESOURCE_STALLS:SB` → nothing to price), so the
//!   asymmetric run tracks the symmetric one to within epoch-overhead
//!   noise;
//! * the write-heavy cells accrue a nonzero write term — i.e. the
//!   symmetric model *underpredicts* their NVM runtime, which is the
//!   gap the asymmetric model exists to close.

use std::sync::Arc;

use quartz::json::Json;
use quartz::{NvmTarget, Quartz, QuartzConfig};
use quartz_platform::seed::Rng;
use quartz_platform::{Architecture, NodeId};
use quartz_threadsim::ThreadCtx;
use quartz_workloads::kvstore::{KvConfig, KvStore};
use quartz_workloads::stream::{run_stream_triad, StreamConfig};

use super::validation_epoch;
use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::{f, Table};
use crate::{run_workload, signed_error_pct, MachineSpec};

/// Emulated NVM read latency (both configs).
const READ_NS: f64 = 300.0;
/// Emulated NVM write latency (asymmetric config only) — well above the
/// substrate DRAM latency so the write term is strictly positive on
/// store traffic.
const WRITE_NS: f64 = 900.0;
/// One machine seed for the whole grid: with jitter off and perfect
/// counters the symmetric-vs-asymmetric comparison is exact, not
/// statistical.
const SEED: u64 = 0xA5;

/// One grid cell: a workload under one model.
#[derive(Clone, Copy)]
struct CellSpec {
    workload: &'static str,
    asymmetric: bool,
    quick: bool,
}

/// What one cell measured: virtual time of the timed phase and the
/// write term the emulator accrued over the whole run.
struct CellResult {
    elapsed_ns: f64,
    write_term_ns: f64,
}

fn quartz_config(asymmetric: bool) -> QuartzConfig {
    let mut target = NvmTarget::new(READ_NS);
    if asymmetric {
        target = target.with_write_latency_ns(WRITE_NS);
    }
    QuartzConfig::new(target).with_max_epoch(validation_epoch())
}

/// Read-only control: a dependent pointer chase over an 8 MiB region
/// (4x the scaled L3), zero simulated stores by construction.
fn run_chase(ctx: &mut ThreadCtx, ops: u64) -> f64 {
    let lines: u64 = 1 << 17;
    let region = ctx.alloc_on(NodeId(0), lines * 64);
    // Host-side Sattolo cycle: one permutation, every line visited.
    let mut next: Vec<u64> = (0..lines).collect();
    let mut rng = Rng::new(SEED);
    for i in (1..lines as usize).rev() {
        let j = rng.below(i as u64) as usize;
        next.swap(i, j);
    }
    let t0 = ctx.now();
    let mut cur = 0u64;
    for _ in 0..ops {
        cur = next[cur as usize];
        ctx.load(region.offset_by(cur * 64));
    }
    let ns = ctx.now().saturating_duration_since(t0).as_ns_f64();
    ctx.free(region).expect("chase region");
    ns
}

/// Read-heavy: B+-tree point lookups (untimed preload, timed gets).
fn run_btree_get(ctx: &mut ThreadCtx, keys: u64, gets: u64) -> f64 {
    let store = KvStore::create(ctx, KvConfig::new(NodeId(0)));
    for k in 0..keys {
        store.put(ctx, None, k.wrapping_mul(7), k);
    }
    let mut rng = Rng::new(SEED ^ 0x6E77);
    let t0 = ctx.now();
    for _ in 0..gets {
        let k = rng.below(keys).wrapping_mul(7);
        store.get(ctx, k);
    }
    ctx.now().saturating_duration_since(t0).as_ns_f64()
}

/// Write-heavy: undo-log-style batched KV put. Each op appends a log
/// record and stores a (mostly missing) table slot; persistence uses
/// the §6 `flush_opt`/`pcommit` pair per batch, so the RFO store bursts
/// inside a batch back up the 16-entry store buffer instead of being
/// drained by serialized flush spins.
fn run_kv_put(ctx: &mut ThreadCtx, q: &Arc<Quartz>, ops: u64) -> f64 {
    const BATCH: u64 = 64;
    const LOG_LINES: u64 = 64;
    let slot_lines: u64 = 1 << 16; // 4 MiB table: slot stores miss.
    let base = q
        .pmalloc(ctx, (LOG_LINES + slot_lines) * 64)
        .expect("pmalloc");
    let slots = base.offset_by(LOG_LINES * 64);
    let mut rng = Rng::new(SEED ^ 0x9121);
    let t0 = ctx.now();
    let mut seq = 0u64;
    while seq < ops {
        let batch = BATCH.min(ops - seq);
        for i in 0..batch {
            let rec = base.offset_by(((seq + i) % LOG_LINES) * 64);
            let slot = slots.offset_by(rng.below(slot_lines) * 64);
            ctx.store(rec);
            ctx.store(slot);
            q.pflush_opt(ctx, rec);
            q.pflush_opt(ctx, slot);
        }
        q.pcommit(ctx);
        seq += batch;
    }
    let ns = ctx.now().saturating_duration_since(t0).as_ns_f64();
    q.pfree(ctx, base).expect("pfree");
    ns
}

fn run_cell(spec: &CellSpec) -> CellResult {
    let mem = MachineSpec::new(Architecture::IvyBridge)
        .with_seed(SEED)
        .with_no_jitter()
        .with_perfect_counters()
        .build();
    let qc = quartz_config(spec.asymmetric);
    let s = *spec;
    let (elapsed_ns, quartz) = run_workload(mem, Some(qc), move |ctx, q| match s.workload {
        "chase" => run_chase(ctx, if s.quick { 40_000 } else { 120_000 }),
        "btree_get" => {
            let (keys, gets) = if s.quick {
                (4_000, 20_000)
            } else {
                (12_000, 60_000)
            };
            run_btree_get(ctx, keys, gets)
        }
        "stream_triad" => {
            let cfg = StreamConfig {
                threads: 2,
                lines_per_thread: if s.quick { 20_000 } else { 60_000 },
                node: NodeId(0),
            };
            run_stream_triad(ctx, &cfg).elapsed.as_ns_f64()
        }
        "kv_put" => {
            let q = q.expect("quartz attached");
            run_kv_put(ctx, &q, if s.quick { 4_000 } else { 12_000 })
        }
        other => unreachable!("unknown workload {other}"),
    });
    let write_term_ns = quartz
        .map(|q| q.stats().totals.write_term.as_ns_f64())
        .unwrap_or(0.0);
    CellResult {
        elapsed_ns,
        write_term_ns,
    }
}

/// The four workloads in table order, with the kinds their claims use.
const WORKLOADS: [(&str, &str); 4] = [
    ("chase", "read_only"),
    ("btree_get", "read_heavy"),
    ("stream_triad", "write_heavy"),
    ("kv_put", "write_heavy"),
];

/// Symmetric vs asymmetric NVM model on read-heavy vs write-heavy code.
pub struct AsymmetryAblation;

impl Experiment for AsymmetryAblation {
    fn name(&self) -> &'static str {
        "asymmetry_ablation"
    }

    fn description(&self) -> &'static str {
        "symmetric vs asymmetric read/write NVM model on read- vs write-heavy workloads"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1/§6 (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let mut points = Vec::new();
        for &(workload, _) in &WORKLOADS {
            for asymmetric in [false, true] {
                points.push(Pt::new(
                    format!("{workload}/{}", if asymmetric { "asym" } else { "sym" }),
                    SEED,
                    CellSpec {
                        workload,
                        asymmetric,
                        quick: ctx.quick(),
                    },
                ));
            }
        }
        let results = ctx.grid(points, |p| run_cell(&p.data));

        let mut table = Table::new(
            "Asymmetry ablation - symmetric vs asymmetric NVM model (read 300 ns, write 900 ns)",
            &[
                "workload",
                "kind",
                "sym ms",
                "asym ms",
                "delta %",
                "write term ms",
            ],
        );
        let mut cells = Vec::new();
        let mut report = ExpReport::default();
        let mut symmetric_clean = 0;
        for (i, &(workload, kind)) in WORKLOADS.iter().enumerate() {
            let sym = &results[2 * i];
            let asym = &results[2 * i + 1];
            let delta_pct = signed_error_pct(asym.elapsed_ns, sym.elapsed_ns);
            let asym_term_ns = asym.write_term_ns.round();
            if sym.elapsed_ns > 0.0 && asym.elapsed_ns > 0.0 && sym.write_term_ns.round() == 0.0 {
                symmetric_clean += 1;
            }
            if kind == "read_only" {
                // No stores, nothing to price: the control accrues no
                // write term and tracks the symmetric run.
                report.claim(
                    asym_term_ns == 0.0 && delta_pct.abs() < 2.0,
                    format!(
                        "{workload} (control): asymmetric write term {asym_term_ns:.0} ns == 0, \
                         delta {delta_pct:+.2}% within +-2%"
                    ),
                );
            } else if kind == "write_heavy" {
                // The gap the asymmetric model exists to close.
                report.claim(
                    asym_term_ns > 0.0 && delta_pct > 20.0,
                    format!(
                        "{workload}: asymmetric write term {asym_term_ns:.0} ns > 0 and \
                         delta {delta_pct:+.2}% > +20%: the symmetric model underpredicts"
                    ),
                );
            }
            table.row(&[
                workload.into(),
                kind.into(),
                f(sym.elapsed_ns / 1e6, 3),
                f(asym.elapsed_ns / 1e6, 3),
                f(delta_pct, 2),
                f(asym.write_term_ns / 1e6, 3),
            ]);
            cells.push(Json::obj(vec![
                ("workload", Json::str(workload)),
                ("kind", Json::str(kind)),
                ("sym_ns", Json::Num(sym.elapsed_ns.round())),
                ("asym_ns", Json::Num(asym.elapsed_ns.round())),
                ("delta_pct", Json::num3(delta_pct)),
                ("write_term_ns_sym", Json::Num(sym.write_term_ns.round())),
                ("write_term_ns_asym", Json::Num(asym.write_term_ns.round())),
            ]));
        }

        report.table(table);
        report.claim(
            symmetric_clean == WORKLOADS.len(),
            format!(
                "{symmetric_clean} of {} workloads run under both models (> 0 ms) with a \
                 0 ns symmetric write term",
                WORKLOADS.len()
            ),
        );
        report.bench_file(
            "BENCH_asymmetry.json",
            Json::obj(vec![
                ("schema", Json::Int(1)),
                ("bench", Json::str("asymmetry_ablation")),
                ("quick", Json::Bool(ctx.quick())),
                ("read_ns", Json::Num(READ_NS)),
                ("write_ns", Json::Num(WRITE_NS)),
                ("cells", Json::Arr(cells)),
            ])
            .render()
                + "\n",
        );
        report
    }
}
