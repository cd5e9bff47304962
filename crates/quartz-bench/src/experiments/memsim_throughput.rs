//! Memsim hot-path throughput and trace record/replay economics.
//!
//! Two host-timed studies of the per-access simulation cost that bounds
//! every experiment in this repo:
//!
//! 1. **Raw mix throughput** — accesses/second straight against
//!    [`MemorySystem`] (no engine) for an L1-hit mix, an L3-miss mix,
//!    and a STREAM-style load/store-stream mix. This is the memsim
//!    core's ceiling; the inlined L1 fast path is what moved it.
//! 2. **Trace replay config sweep** — a KV-store workload (host-side
//!    `BTreeMap` index driving the simulated access stream, the way
//!    Quartz workloads run application code natively) is executed once
//!    under the engine with recording on. The sweep then evaluates four
//!    cache/TLB/prefetch configurations two ways: *live* (re-run the
//!    full application + engine per config) and *replayed* (feed the
//!    recorded trace to a fresh memsim per config — trace-driven, as in
//!    Ramulator). Replay elides the application compute and engine
//!    scheduling, which is where the sweep speedup honestly comes from;
//!    same-config replay must reproduce the live [`MemStats`]
//!    byte-identically.
//!
//! Besides the usual tables, the experiment emits `BENCH_memsim.json`
//! — the machine-readable throughput-trajectory file validated by CI
//! and tracked PR-over-PR.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use quartz::json::Json;
use quartz_memsim::{CacheGeometry, MemSimConfig, MemStats, MemorySystem, Trace};
use quartz_platform::time::SimTime;
use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::{f, Table};
use crate::run_workload;

const LCG_MUL: u64 = 6_364_136_223_846_793_005;
const LCG_INC: u64 = 1_442_695_040_888_963_407;
const LINE: u64 = 64;

/// Fidelity seed for every machine in this experiment; jitter is off so
/// the same access stream yields the same `MemStats` on every config.
const SEED: u64 = 0x51;

fn machine(cfg: MemSimConfig) -> Arc<MemorySystem> {
    let pc = PlatformConfig::new(Architecture::IvyBridge).with_fidelity_seed(SEED);
    Arc::new(MemorySystem::new(Platform::new(pc), cfg))
}

fn base_config() -> MemSimConfig {
    MemSimConfig::default().without_jitter().with_seed(SEED)
}

/// The sweep's configurations. Each differs from `base` in a way the
/// recorded access stream actually exercises, so replayed `MemStats`
/// diverge per config (and match live byte-for-byte).
fn sweep_configs() -> Vec<(&'static str, MemSimConfig)> {
    let mut small_l1 = base_config();
    small_l1.l1 = CacheGeometry::new(8 * 1024, 8);
    let mut tlb_4k = base_config();
    tlb_4k.tlb.hugepages = false;
    vec![
        ("base", base_config()),
        ("small_l1", small_l1),
        ("no_prefetch", base_config().without_prefetch()),
        ("tlb_4k", tlb_4k),
    ]
}

// ---------------------------------------------------------------------
// Part 1: raw mix throughput (no engine).
// ---------------------------------------------------------------------

struct MixSpec {
    name: &'static str,
    /// Bytes of simulated memory the mix walks.
    footprint: u64,
    /// Memory accesses issued in the timed section.
    accesses: u64,
}

struct MixRow {
    name: &'static str,
    accesses: u64,
    wall_ms: f64,
    per_sec: f64,
}

/// Times `accesses` operations of one mix directly against the memory
/// system, self-timed: simulated `now` advances by each access's own
/// stall, modelling a dependent access chain.
fn run_mix(spec: &MixSpec) -> MixRow {
    let mem = machine(base_config());
    let base = mem.alloc(NodeId(0), spec.footprint).expect("mix alloc");
    let lines = spec.footprint / LINE;
    let mut now = SimTime::ZERO;
    let mut rng = SEED | 1;
    let mut next = |modulus: u64| {
        rng = rng.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
        (rng >> 33) % modulus
    };
    // Warm pass (untimed): touch every line once so the timed section
    // measures steady state, not compulsory misses.
    for i in 0..lines {
        now += mem.load(0, base.offset_by(i * LINE), now).stall;
    }
    let t0 = Instant::now();
    match spec.name {
        // Random loads: over an L1-resident footprint this is the
        // inlined fast path; over a 16 MiB footprint it is mostly
        // DRAM-bound L3 misses.
        "l1_hit" | "l3_miss" => {
            for _ in 0..spec.accesses {
                now += mem.load(0, base.offset_by(next(lines) * LINE), now).stall;
            }
        }
        "stream" => {
            // STREAM-style copy: sequential load from the first half,
            // store_stream to the second half.
            let half = lines / 2;
            for i in 0..spec.accesses / 2 {
                let off = i % half;
                now += mem.load(0, base.offset_by(off * LINE), now).stall;
                now += mem.store_stream(0, base.offset_by((half + off) * LINE), now);
            }
        }
        other => unreachable!("unknown mix {other}"),
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    MixRow {
        name: spec.name,
        accesses: spec.accesses,
        wall_ms,
        per_sec: spec.accesses as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE),
    }
}

// ---------------------------------------------------------------------
// Part 2: KV workload, record once, sweep live vs replayed.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct KvSpec {
    keys: u64,
    ops: u64,
    region_bytes: u64,
}

/// The KV application: builds a host-side string-keyed `BTreeMap`
/// index (the application compute a trace-driven replay elides), then
/// issues point lookups, updates with persist barriers, and occasional
/// range scans whose sequential line walks feed the stream prefetcher.
fn kv_workload(ctx: &mut quartz_threadsim::ThreadCtx, spec: &KvSpec) {
    let region = ctx.alloc_on(NodeId(0), spec.region_bytes);
    let lines = spec.region_bytes / LINE;
    let mut index: BTreeMap<String, u64> = BTreeMap::new();
    let mut k = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..spec.keys {
        k = k.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
        index.insert(format!("user:{k:016x}"), i);
    }
    let keyvec: Vec<String> = index.keys().cloned().collect();
    let line_of = |v: u64| (v.wrapping_mul(0x2545_F491_4F6C_DD1D)) % lines;
    let mut r = 7u64;
    for op in 0..spec.ops {
        r = r.wrapping_mul(LCG_MUL).wrapping_add(1);
        let key = &keyvec[((r >> 33) as usize) % keyvec.len()];
        match op % 32 {
            31 => {
                // Range scan: 8 index steps on the host, 8 sequential
                // simulated lines (prefetcher food).
                let mut h = 0u64;
                for (kk, vv) in index.range(key.clone()..).take(8) {
                    h ^= (kk.len() as u64).wrapping_add(*vv);
                }
                let start = h % (lines - 8);
                for j in 0..8 {
                    ctx.load(region.offset_by((start + j) * LINE));
                }
            }
            30 => {
                // Update: store the value's line, persist it.
                let v = *index.get(key.as_str()).unwrap_or(&0);
                let addr = region.offset_by(line_of(v) * LINE);
                ctx.store(addr);
                ctx.flush_opt(addr);
            }
            _ => {
                // Point lookup: host index probe, one simulated load.
                let v = *index.get(key.as_str()).unwrap_or(&0);
                ctx.load(region.offset_by(line_of(v) * LINE));
            }
        }
    }
}

/// One full live execution (application + engine + memsim) of the KV
/// workload on `cfg`. Returns wall milliseconds and the final stats.
fn live_run(cfg: MemSimConfig, spec: &KvSpec) -> (f64, MemStats) {
    let mem = machine(cfg);
    let t0 = Instant::now();
    let m = Arc::clone(&mem);
    let s = *spec;
    run_workload(m, None, move |ctx, _| kv_workload(ctx, &s));
    (t0.elapsed().as_secs_f64() * 1e3, mem.stats())
}

/// One trace-driven replay of `trace` into a fresh machine on `cfg`.
fn replay_run(cfg: MemSimConfig, spec: &KvSpec, trace: &Trace) -> (f64, MemStats) {
    let mem = machine(cfg);
    mem.alloc(NodeId(0), spec.region_bytes)
        .expect("replay alloc");
    let t0 = Instant::now();
    trace.replay(&mem);
    (t0.elapsed().as_secs_f64() * 1e3, mem.stats())
}

struct SweepRow {
    name: &'static str,
    live_ms: f64,
    replay_ms: f64,
    loads: u64,
    equal: bool,
}

/// Runs the memsim throughput and replay-economics study. Host-timed
/// (`Instant` around real work), so it opts out of the byte-identical
/// determinism contract and always evaluates serially — but the
/// non-timing fields of its `BENCH_memsim.json` (access counts, trace
/// event counts, equivalence flag) are deterministic and golden-tested.
pub struct MemsimThroughput;

impl Experiment for MemsimThroughput {
    fn name(&self) -> &'static str {
        "memsim_throughput"
    }

    fn description(&self) -> &'static str {
        "memsim hot-path accesses/sec by mix + trace record/replay config-sweep economics"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1 (extension)"
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        // Part 1: raw mix throughput.
        let scale = if ctx.quick() { 1 } else { 8 };
        let mixes = vec![
            Pt::new(
                "l1_hit",
                SEED,
                MixSpec {
                    name: "l1_hit",
                    footprint: 16 * 1024,
                    accesses: 250_000 * scale,
                },
            ),
            Pt::new(
                "l3_miss",
                SEED,
                MixSpec {
                    name: "l3_miss",
                    footprint: 16 << 20,
                    accesses: 50_000 * scale,
                },
            ),
            Pt::new(
                "stream",
                SEED,
                MixSpec {
                    name: "stream",
                    footprint: 4 << 20,
                    accesses: 100_000 * scale,
                },
            ),
        ];
        let mix_rows = ctx.grid_serial(mixes, |p| run_mix(&p.data));
        let mut mix_table = Table::new(
            "Memsim raw throughput by mix (no engine, dependent-chain timing)",
            &["mix", "accesses", "wall ms", "Maccess/s"],
        );
        for r in &mix_rows {
            mix_table.row(&[
                r.name.into(),
                r.accesses.to_string(),
                f(r.wall_ms, 1),
                f(r.per_sec / 1e6, 2),
            ]);
        }

        // Part 2: record the KV workload once, then sweep configs live
        // vs replayed.
        // The KV working set is L1-sized: the replay side rides the
        // inlined L1 fast path while the live side still pays the full
        // application + engine cost per op — the gap a trace-driven
        // config sweep exists to exploit.
        let spec = if ctx.quick() {
            KvSpec {
                keys: 50_000,
                ops: 120_000,
                region_bytes: 32 * 1024,
            }
        } else {
            KvSpec {
                keys: 200_000,
                ops: 600_000,
                region_bytes: 32 * 1024,
            }
        };
        let recorder = machine(base_config());
        recorder.start_recording();
        let m = Arc::clone(&recorder);
        let s = spec;
        run_workload(m, None, move |ctx, _| kv_workload(ctx, &s));
        let trace = recorder.stop_recording();
        let recorded_stats = recorder.stats();
        let encoded_bytes = trace.encode().len();

        let points: Vec<Pt<(&'static str, MemSimConfig)>> = sweep_configs()
            .into_iter()
            .map(|(name, cfg)| Pt::new(name, SEED, (name, cfg)))
            .collect();
        let sweep_rows: Vec<SweepRow> = ctx.grid_serial(points, |p| {
            let (name, cfg) = &p.data;
            let (live_ms, live_stats) = live_run(cfg.clone(), &spec);
            let (replay_ms, replay_stats) = replay_run(cfg.clone(), &spec, &trace);
            SweepRow {
                name,
                live_ms,
                replay_ms,
                loads: replay_stats.total_loads(),
                equal: replay_stats == live_stats,
            }
        });
        let live_total: f64 = sweep_rows.iter().map(|r| r.live_ms).sum();
        let replay_total: f64 = sweep_rows.iter().map(|r| r.replay_ms).sum();
        let speedup = live_total / replay_total.max(f64::MIN_POSITIVE);
        // Byte-identical MemStats is required on the recorded config;
        // on the others, live-vs-replay equality additionally shows the
        // trace is a faithful stand-in for re-executing the app.
        let equivalent = sweep_rows
            .iter()
            .find(|r| r.name == "base")
            .map(|r| r.equal)
            .unwrap_or(false)
            && recorded_stats.total_loads() > 0;

        let mut sweep_table = Table::new(
            "Trace replay config sweep — live re-execution vs trace-driven replay",
            &[
                "config",
                "live ms",
                "replay ms",
                "speedup",
                "loads",
                "stats equal",
            ],
        );
        for r in &sweep_rows {
            sweep_table.row(&[
                r.name.into(),
                f(r.live_ms, 1),
                f(r.replay_ms, 1),
                f(r.live_ms / r.replay_ms.max(f64::MIN_POSITIVE), 2),
                r.loads.to_string(),
                if r.equal { "yes" } else { "no" }.into(),
            ]);
        }

        let mut report = ExpReport::default();
        report.table(mix_table).table(sweep_table);
        report
            .note(format!(
                "(trace: {} events, {} bytes encoded, {:.2} bytes/event)",
                trace.len(),
                encoded_bytes,
                encoded_bytes as f64 / trace.len().max(1) as f64
            ))
            .note(format!(
                "(config sweep: {} configs live {:.0} ms vs replayed {:.0} ms — {:.1}x; \
                 replay elides the app's BTreeMap index + engine scheduling, as in \
                 trace-driven simulators)",
                sweep_rows.len(),
                live_total,
                replay_total,
                speedup
            ))
            .note(format!(
                "(same-config replay reproduces live MemStats byte-identically: {})",
                if equivalent { "yes" } else { "NO" }
            ));
        report.bench_file(
            "BENCH_memsim.json",
            bench_json(
                ctx,
                &mix_rows,
                &sweep_rows,
                trace.len(),
                speedup,
                equivalent,
            ),
        );
        report
    }
}

/// Renders `BENCH_memsim.json`: the stable, CI-validated throughput
/// document. Timing fields vary run to run; `accesses`, `configs`,
/// `trace_events`, and `equivalent` are deterministic.
fn bench_json(
    ctx: &ExpCtx,
    mixes: &[MixRow],
    sweep: &[SweepRow],
    trace_events: usize,
    speedup: f64,
    equivalent: bool,
) -> String {
    let live_total: f64 = sweep.iter().map(|r| r.live_ms).sum();
    let replay_total: f64 = sweep.iter().map(|r| r.replay_ms).sum();
    let obj = Json::obj(vec![
        ("schema", Json::Int(1)),
        ("bench", Json::str("memsim_throughput")),
        ("quick", Json::Bool(ctx.quick())),
        (
            "mixes",
            Json::Arr(
                mixes
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("mix", Json::str(r.name)),
                            ("accesses", Json::Int(r.accesses)),
                            ("wall_ms", Json::num3(r.wall_ms)),
                            ("accesses_per_sec", Json::Num(r.per_sec.round())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "replay",
            Json::obj(vec![
                (
                    "configs",
                    Json::Arr(sweep.iter().map(|r| Json::str(r.name)).collect()),
                ),
                ("trace_events", Json::Int(trace_events as u64)),
                ("live_ms", Json::num3(live_total)),
                ("replay_ms", Json::num3(replay_total)),
                ("speedup", Json::num3(speedup)),
                ("equivalent", Json::Bool(equivalent)),
            ]),
        ),
    ]);
    obj.render() + "\n"
}
