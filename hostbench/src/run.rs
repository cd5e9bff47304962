//! One benchmark run: repeated rounds of one workload for a host-time
//! budget, the output checks, and the metrics they yield.

use std::sync::Arc;
use std::time::Instant;

use quartz::NvmTarget;

use crate::metrics::{self, median, Cpu};
use crate::trace::{Clock, Kind, Tracer};
use crate::workloads::{memlat_probe, run_round, Round, Sizes, Workload, DEFAULT_SEED};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds of timed rounds.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Fingerprints of [`Sizes::FULL`] rounds at [`DEFAULT_SEED`]. A change
/// that only makes the host faster must leave them unchanged.
pub fn pinned(workload: Workload) -> u64 {
    match workload {
        Workload::Chase => 0x80c0_e945_349b_2dde,
        Workload::PersistLog => 0xb023_073b_cd2a_0542,
        Workload::KvService => 0x16c8_920e_8a9a_3849,
    }
}

/// Extra set-up-only rounds per run, so `setup_s` is a median of many.
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Chase | Workload::PersistLog => 200,
        Workload::KvService => 10,
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Ops the timed rounds issued.
    pub attempted: u64,
    /// Ops counted as failed.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// The span file, in traced runs.
    pub spans: Option<String>,
}

/// The output checks over a run's rounds: every round succeeded, every
/// round's fingerprint equals the first's, and equals `pin` when given.
/// Returns `(failed ops, problems)`; any problem fails every op, and on
/// `kv_service` a request not served within its deadline fails too.
pub fn check(rounds: &[Round], pin: Option<u64>) -> (u64, Vec<String>) {
    let attempted: u64 = rounds.iter().map(|r| r.ops).sum();
    let mut problems = Vec::new();
    let mut first = None;
    for (i, r) in rounds.iter().enumerate() {
        match &r.outcome {
            Err(e) => problems.push(format!("round {i}: {e}")),
            Ok(out) => {
                let fp = out.fingerprint();
                let want = *first.get_or_insert(fp);
                if fp != want {
                    problems.push(format!(
                        "round {i}: fingerprint {fp:016x} != round 0's {want:016x}"
                    ));
                }
            }
        }
    }
    if let (Some(fp), Some(pin)) = (first, pin) {
        if fp != pin {
            problems.push(format!("fingerprint {fp:016x} != pinned {pin:016x}"));
        }
    }
    if !problems.is_empty() {
        return (attempted, problems);
    }
    let late: u64 = rounds
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok()?.service.as_ref())
        .map(|s| s.offered - s.served_in_deadline)
        .sum();
    (late, problems)
}

/// Runs `opts` to completion.
pub fn run(opts: &Options) -> Report {
    let (w, sizes) = (opts.workload, Sizes::FULL);
    let pin = (opts.seed == DEFAULT_SEED).then(|| pinned(w));
    let mut problems = Vec::new();

    // Set-up-only rounds: a median over many set-ups.
    let mut setups = Vec::new();
    if !opts.trace {
        for _ in 0..setup_reps(w) {
            let r = run_round(w, sizes.setup_only(), opts.seed, None);
            if let Err(e) = &r.outcome {
                problems.push(format!("set-up round: {e}"));
            }
            setups.push(r.setup);
        }
    }

    // Timed rounds. A traced run alternates plain and traced rounds, so
    // the two rates it compares see the same host conditions.
    let tracer = opts.trace.then(|| {
        Arc::new(Tracer::new(match w {
            Workload::KvService => Clock::ThreadCpu,
            _ => Clock::Wall,
        }))
    });
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut peak_rss_mb = None;
    loop {
        plain.push(run_round(w, sizes, opts.seed, None));
        // Read once, after the set-up rounds and the first timed round:
        // `kv_service`'s peak kept growing with the number of rounds (8.3
        // MB median in 10 s runs, 11.2 MB in 30 s runs), so a read at the
        // end would move with host speed.
        peak_rss_mb.get_or_insert_with(metrics::peak_rss_mb);
        if let Some(t) = &tracer {
            traced.push(run_round(w, sizes, opts.seed, Some(Arc::clone(t))));
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let rates: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.0}", r.ops as f64 / r.timed.as_secs_f64()))
        .collect();
    eprintln!("round rates (ops/s): {}", rates.join(" "));
    let all: Vec<Round> = plain.iter().chain(&traced).cloned().collect();
    let (mut failed, round_problems) = check(&all, pin);
    problems.extend(round_problems);

    // Ops over the summed timed regions. The median of per-round rates
    // spread more across runs, and the best round is min-of-k, which the
    // README's noise notes rule out.
    let rate = |rs: &[Round]| {
        let ops: u64 = rs.iter().map(|r| r.ops).sum();
        ops as f64 / rs.iter().map(|r| r.timed.as_secs_f64()).sum::<f64>()
    };
    let first_out = all.iter().find_map(|r| r.outcome.as_ref().ok()).cloned();
    let metrics = if let Some(tracer) = &tracer {
        layer_metrics(
            w,
            &traced,
            tracer,
            rate(&plain),
            rate(&traced),
            first_out.as_ref(),
        )
    } else {
        setups.extend(plain.iter().map(|r| r.setup));
        let setup_s = median(
            &setups
                .iter()
                .map(|s| s.total().as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let ns_per_step = match (w, first_out.as_ref().and_then(|o| o.ns_per_step)) {
            (Workload::Chase, Some(ns)) => Ok(ns),
            _ => memlat_probe(w.arch(), sizes, opts.seed),
        };
        let emu = match ns_per_step {
            Ok(ns) => metrics::emu_error_pct(ns, NvmTarget::optane_dcpmm().read_latency_ns),
            Err(e) => {
                problems.push(format!("memlat probe: {e}"));
                f64::NAN
            }
        };
        vec![
            ("host_ops_per_s", rate(&plain), "1/s"),
            ("setup_s", setup_s, "s"),
            (
                "peak_rss_mb",
                peak_rss_mb.expect("at least one round ran"),
                "MB",
            ),
            ("emu_error_pct", emu, "%"),
        ]
    };
    let attempted: u64 = all.iter().map(|r| r.ops).sum();
    if !problems.is_empty() {
        failed = attempted;
    }
    Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        metrics,
        spans: tracer.map(|t| t.to_chrome_json()),
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    w: Workload,
    traced: &[Round],
    tracer: &Tracer,
    plain_rate: f64,
    traced_rate: f64,
    out: Option<&crate::workloads::Output>,
) -> Vec<Metric> {
    let ms = |f: fn(&crate::workloads::Setup) -> std::time::Duration| {
        median(
            &traced
                .iter()
                .map(|r| f(&r.setup).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let cpu = traced
        .iter()
        .filter_map(|r| r.cpu)
        .fold(Cpu::default(), Cpu::plus);
    let wall_ns: u64 = traced.iter().map(|r| r.timed.as_nanos() as u64).sum();
    let executed: u64 = traced.iter().map(|r| r.executed).sum();
    let offered: u64 = match w {
        Workload::KvService => traced.iter().map(|r| r.ops).sum(),
        _ => 0,
    };
    let request_ns = tracer.aggregate(Kind::KvRequest).mean_ns();

    let mem = out
        .map(|o| o.mem.clone())
        .unwrap_or_else(|| quartz_memsim::MemStats::new(0));
    let q = out.map(|o| o.quartz.totals.clone()).unwrap_or_default();
    let svc = out.and_then(|o| o.service.as_ref());
    let kv = |f: fn(&quartz_workloads::kvstore::ServiceResult) -> f64| svc.map_or(0.0, f);

    vec![
        ("quartz-bench.setup_machine_ms", ms(|s| s.machine), "ms"),
        ("quartz-bench.setup_emulator_ms", ms(|s| s.emulator), "ms"),
        ("quartz-bench.setup_data_ms", ms(|s| s.data), "ms"),
        (
            "quartz-memsim.load_ns",
            tracer.aggregate(Kind::Load).mean_ns(),
            "ns",
        ),
        (
            "quartz-memsim.store_ns",
            tracer.aggregate(Kind::Store).mean_ns(),
            "ns",
        ),
        ("quartz-memsim.l1_hits", mem.l1_hits as f64, "count"),
        ("quartz-memsim.l2_hits", mem.l2_hits as f64, "count"),
        ("quartz-memsim.l3_hits", mem.l3_hits as f64, "count"),
        ("quartz-memsim.dram_loads", mem.dram_loads() as f64, "count"),
        ("quartz-memsim.tlb_misses", mem.tlb_misses as f64, "count"),
        ("quartz-memsim.rfos", mem.rfos as f64, "count"),
        ("quartz-memsim.writebacks", mem.writebacks as f64, "count"),
        ("quartz-memsim.flushes", mem.flushes as f64, "count"),
        (
            "quartz.pflush_opt_ns",
            tracer.aggregate(Kind::PflushOpt).mean_ns(),
            "ns",
        ),
        (
            "quartz.pcommit_ns",
            tracer.aggregate(Kind::Pcommit).mean_ns(),
            "ns",
        ),
        (
            "quartz.hook_ns",
            tracer.aggregate(Kind::Hook).mean_ns(),
            "ns",
        ),
        ("quartz.epochs_monitor", q.epochs_monitor as f64, "count"),
        ("quartz.epochs_lock", q.epochs_lock as f64, "count"),
        ("quartz.epochs_unlock", q.epochs_unlock as f64, "count"),
        ("quartz.epochs_exit", q.epochs_exit as f64, "count"),
        (
            "quartz.skipped_min_epoch",
            q.skipped_min_epoch as f64,
            "count",
        ),
        ("quartz.pflushes", q.pflushes as f64, "count"),
        ("quartz.injected_ns", q.injected.as_ns_f64(), "ns"),
        ("quartz.overhead_ns", q.overhead.as_ns_f64(), "ns"),
        (
            "quartz-threadsim.sys_share",
            metrics::sys_share(cpu.user_ticks, cpu.sys_ticks),
            "fraction",
        ),
        (
            "quartz-threadsim.idle_share",
            metrics::idle_share(cpu.process_ns, wall_ns),
            "fraction",
        ),
        (
            "quartz-threadsim.dispatch_ns_per_req",
            metrics::dispatch_ns_per_req(cpu.process_ns, request_ns, executed, offered),
            "ns",
        ),
        ("quartz-workloads.kv_request_ns", request_ns, "ns"),
        (
            "quartz-workloads.kv_served_in_deadline",
            kv(|r| r.served_in_deadline as f64),
            "count",
        ),
        ("quartz-workloads.kv_shed", kv(|r| r.shed as f64), "count"),
        (
            "quartz-workloads.kv_expired",
            kv(|r| r.expired as f64),
            "count",
        ),
        (
            "quartz-workloads.kv_failed",
            kv(|r| r.failed as f64),
            "count",
        ),
        (
            "quartz-workloads.kv_retries",
            kv(|r| r.retries as f64),
            "count",
        ),
        (
            "quartz-workloads.kv_wakeups",
            kv(|r| r.wakeups as f64),
            "count",
        ),
        (
            "quartz-workloads.kv_batch_factor",
            kv(|r| r.completed as f64 / r.wakeups.max(1) as f64),
            "ratio",
        ),
        (
            "quartz-workloads.kv_goodput_ratio",
            kv(|r| r.served_in_deadline as f64 / r.offered as f64),
            "ratio",
        ),
        (
            "quartz-workloads.kv_p50_ns",
            kv(|r| r.latency.p50() as f64),
            "ns",
        ),
        (
            "quartz-workloads.kv_p999_ns",
            kv(|r| r.latency.p999() as f64),
            "ns",
        ),
        (
            "trace_overhead_pct",
            (plain_rate - traced_rate) / plain_rate * 100.0,
            "%",
        ),
    ]
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit Rust prints; `null` for non-finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_round_with_body;

    fn tiny_rounds(w: Workload) -> Vec<Round> {
        (0..2).map(|_| run_round(w, Sizes::TINY, 7, None)).collect()
    }

    #[test]
    fn same_inputs_give_the_same_fingerprint_traced_or_not() {
        for w in Workload::ALL {
            let rounds = tiny_rounds(w);
            let tracer = Arc::new(Tracer::new(Clock::Wall));
            let traced = run_round(w, Sizes::TINY, 7, Some(tracer));
            let fps: Vec<u64> = rounds
                .iter()
                .chain([&traced])
                .map(|r| r.outcome.as_ref().expect("round succeeds").fingerprint())
                .collect();
            assert!(fps.iter().all(|&f| f == fps[0]), "{}: {fps:x?}", w.name());
            let (failed, problems) = check(&rounds, Some(fps[0]));
            assert_eq!(
                (failed, problems.len()),
                (0, 0),
                "{}: {problems:?}",
                w.name()
            );
        }
    }

    #[test]
    fn other_seeds_change_the_fingerprint() {
        for w in Workload::ALL {
            let a = run_round(w, Sizes::TINY, 7, None)
                .outcome
                .expect("round succeeds");
            let b = run_round(w, Sizes::TINY, 8, None)
                .outcome
                .expect("round succeeds");
            assert_ne!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn a_wrong_pin_fails_every_op() {
        let rounds = tiny_rounds(Workload::PersistLog);
        let right = rounds[0]
            .outcome
            .as_ref()
            .expect("round succeeds")
            .fingerprint();
        let (failed, problems) = check(&rounds, Some(right ^ 1));
        assert_eq!(failed, 2 * Sizes::TINY.log_appends);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("pinned"));
    }

    #[test]
    fn a_panicking_workload_is_a_counted_sim_failure() {
        let mut rounds = tiny_rounds(Workload::Chase);
        rounds.push(run_round_with_body(
            Workload::Chase,
            Sizes::TINY,
            Box::new(|_ctx| panic!("workload bug")),
        ));
        let err = rounds[2]
            .outcome
            .as_ref()
            .expect_err("the panic is contained");
        assert!(
            err.contains("simulation failure") && err.contains("workload bug"),
            "{err}"
        );
        let (failed, problems) = check(&rounds, None);
        assert_eq!(failed, 3 * Sizes::TINY.chase_steps);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn kv_requests_missing_their_deadline_count_as_failed() {
        let mut rounds = tiny_rounds(Workload::KvService);
        for r in &mut rounds {
            let out = r.outcome.as_mut().expect("round succeeds");
            let svc = out
                .service
                .as_mut()
                .expect("kv rounds carry the service tally");
            assert!(svc.conservation_holds());
            // Five requests served, but past their deadline.
            svc.served_in_deadline = svc.offered - 5;
        }
        let (failed, problems) = check(&rounds, None);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(failed, 2 * 5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![("setup_s", 0.25, "s"), ("emu_error_pct", f64::NAN, "%")],
            spans: None,
        };
        assert_eq!(
            result_json(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"emu_error_pct\": {\"value\": null, \"unit\": \"%\"}}}"
        );
    }
}
