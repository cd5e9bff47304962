//! The three workloads. A round builds a fresh machine, engine and
//! emulator, builds the workload's data, runs a fixed amount of simulated
//! work through `Engine::try_run`, and returns its host timings with the
//! exact simulated output.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration as HostDuration, Instant};

use quartz::{NvmTarget, Quartz, QuartzConfig, QuartzStats};
use quartz_faults::{ServiceFaultClass, ServicePlanInjector};
use quartz_memsim::{Addr, MemSimConfig, MemStats, MemorySystem};
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{Architecture, Platform, PlatformConfig};
use quartz_threadsim::{Engine, RunReport, SimFailure, ThreadCtx};
use quartz_workloads::chain::{Chain, Rng};
use quartz_workloads::kvstore::{KvService, ServiceConfig, ServiceResult};

use crate::metrics::Cpu;
use crate::trace::{BenchHooks, Kind, TimedFaults, Tracer};

/// The seed used when none is given; its fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// MemLat's dependent chase over a chain 8× the simulated L3.
    Chase,
    /// A write-ahead log appended with `pflush_opt` + `pcommit`.
    PersistLog,
    /// The open-loop KV service under dropped responses.
    KvService,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Chase, Workload::PersistLog, Workload::KvService];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chase => "chase",
            Workload::PersistLog => "persist_log",
            Workload::KvService => "kv_service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated machine family.
    pub fn arch(self) -> Architecture {
        match self {
            Workload::Chase | Workload::PersistLog => Architecture::IvyBridge,
            Workload::KvService => Architecture::SandyBridge,
        }
    }
}

/// Simulated work in one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Chase steps per round.
    pub chase_steps: u64,
    /// Log appends per round.
    pub log_appends: u64,
    /// Offered KV requests per round.
    pub kv_requests: u64,
    /// KV keys preloaded before the arrival gate opens.
    pub kv_keys: u64,
}

impl Sizes {
    /// The benchmark's sizes: about a second of host time per round.
    pub const FULL: Sizes = Sizes {
        chase_steps: 2_000_000,
        log_appends: 150_000,
        kv_requests: 300_000,
        kv_keys: 20_000,
    };

    /// Sizes for tests of the benchmark's own code.
    pub const TINY: Sizes = Sizes {
        chase_steps: 20_000,
        log_appends: 2_000,
        kv_requests: 4_000,
        kv_keys: 2_000,
    };

    /// Set-up only: no timed work (one KV request, which the service
    /// needs to run at all).
    pub fn setup_only(self) -> Sizes {
        Sizes {
            chase_steps: 0,
            log_appends: 0,
            kv_requests: 1,
            ..self
        }
    }

    fn ops(self, w: Workload) -> u64 {
        match w {
            Workload::Chase => self.chase_steps,
            Workload::PersistLog => self.log_appends,
            Workload::KvService => self.kv_requests,
        }
    }
}

/// Payload lines per log record; each record also has one header line.
const PAYLOAD_LINES: u64 = 4;
/// Lines per log record.
const RECORD_LINES: u64 = PAYLOAD_LINES + 1;

/// The KV service scenario: 8 Poisson connections into 2 workers at
/// ≈4 Mrps offered, protected with a 100 µs deadline. Retries back off
/// from 2 µs, and five are allowed, so a request whose responses are
/// dropped (2% each) still meets its deadline: no request of any seed is
/// expected to fail.
pub fn kv_config(sizes: Sizes, seed: u64) -> ServiceConfig {
    let protected = ServiceConfig {
        connections: 8,
        workers: 2,
        requests: sizes.kv_requests,
        offered_rps: 4.0e6,
        preload_keys: sizes.kv_keys,
        get_fraction: 0.9,
        zipf_theta: 0.9,
        seed,
        deadline: Some(Duration::from_us(100)),
        backoff_base: Duration::from_us(2),
        ..ServiceConfig::default()
    }
    .protected();
    ServiceConfig {
        max_retries: 5,
        ..protected
    }
}

/// Host seconds of one round's phases.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Platform and memory system.
    pub machine: HostDuration,
    /// Engine, emulator and attach.
    pub emulator: HostDuration,
    /// The workload's data, up to the first timed op.
    pub data: HostDuration,
}

impl Setup {
    /// Host time before the first timed op.
    pub fn total(&self) -> HostDuration {
        self.machine + self.emulator + self.data
    }
}

/// The simulated output of one round: the values a host-speed change
/// must leave identical.
#[derive(Clone, Debug)]
pub struct Output {
    /// Virtual instant the last simulated thread finished.
    pub end_time: SimTime,
    /// Memory-system counters at the end of the run.
    pub mem: MemStats,
    /// Emulator statistics at the end of the run.
    pub quartz: QuartzStats,
    /// The service tally (`kv_service` only).
    pub service: Option<ServiceResult>,
    /// Virtual ns per chase step (`chase` only).
    pub ns_per_step: Option<f64>,
}

impl Output {
    /// Canonical text of every simulated value, host-side lock telemetry
    /// (`lock_wait_ns`, `lock_acquisitions`) left out.
    pub fn canonical(&self) -> String {
        let m = &self.mem;
        let t = &self.quartz.totals;
        let d = &self.quartz.degradation;
        let mut s = String::new();
        let _ = write!(
            s,
            "end_ps={} mem[l1={} l2={} l3={} pf_inflight={} hitm={} dram_local={} \
             dram_remote={} prefetches={} tlb_misses={} writebacks={} rfos={} \
             store_miss_local={} store_miss_remote={} stream_stores={} flushes={} \
             node_bytes={:?} load_stall_ps={} store_stall_ps={}]",
            self.end_time.as_ps(),
            m.l1_hits,
            m.l2_hits,
            m.l3_hits,
            m.prefetch_inflight_hits,
            m.snoop_hitm,
            m.dram_local,
            m.dram_remote,
            m.prefetches_issued,
            m.tlb_misses,
            m.writebacks,
            m.rfos,
            m.store_miss_local,
            m.store_miss_remote,
            m.stream_stores,
            m.flushes,
            m.node_bytes,
            m.load_stall.as_ps(),
            m.store_stall.as_ps(),
        );
        let _ = write!(
            s,
            " quartz[threads={} init_ps={} monitor={} lock={} unlock={} notify={} barrier={} \
             atomic={} exit={} skipped={} injected_ps={} overhead_ps={} carried_ps={} \
             pflush_delay_ps={} pflushes={} dirty={} in_wpq={} durable={} atomic_ops={} \
             cas_handoffs={} cas_wait_ps={} write_term_ps={}]",
            self.quartz.threads,
            self.quartz.init_time.as_ps(),
            t.epochs_monitor,
            t.epochs_lock,
            t.epochs_unlock,
            t.epochs_notify,
            t.epochs_barrier,
            t.epochs_atomic,
            t.epochs_exit,
            t.skipped_min_epoch,
            t.injected.as_ps(),
            t.overhead.as_ps(),
            t.carried_overhead.as_ps(),
            t.pflush_delay.as_ps(),
            t.pflushes,
            t.lines_dirty,
            t.lines_in_wpq,
            t.lines_durable,
            t.atomic_ops,
            t.cas_handoffs,
            t.cas_handoff_wait.as_ps(),
            t.write_term.as_ps(),
        );
        let _ = write!(
            s,
            " degradation[{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}]",
            d.pmu_read_faults,
            d.pmu_read_retries,
            d.pmu_reads_abandoned,
            d.counter_wraps,
            d.stall_clamps,
            d.delay_clamps,
            d.recalibrations,
            d.thermal_write_faults,
            d.thermal_retries,
            d.thermal_gave_up,
            d.timer_drops,
            d.timer_deferrals,
            d.topology_stale_reads,
            d.topology_refreshes,
            d.orphan_slots_reaped,
            d.epoch_state_anomalies,
        );
        if let Some(r) = &self.service {
            let _ = write!(
                s,
                " service[offered={} completed={} in_deadline={} shed={} expired={} failed={} \
                 retries={} breaker_trips={} elapsed_ps={} wakeups={} p50_ns={} p999_ns={}]",
                r.offered,
                r.completed,
                r.served_in_deadline,
                r.shed,
                r.expired,
                r.failed,
                r.retries,
                r.breaker_trips,
                r.elapsed.as_ps(),
                r.wakeups,
                r.latency.p50(),
                r.latency.p999(),
            );
        }
        s
    }

    /// 64-bit FNV-1a of [`Output::canonical`].
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// One round's result.
#[derive(Clone, Debug)]
pub struct Round {
    /// Set-up phases.
    pub setup: Setup,
    /// Host wall time of the timed region.
    pub timed: HostDuration,
    /// Ops in the timed region.
    pub ops: u64,
    /// Process CPU over the timed region (traced rounds only).
    pub cpu: Option<Cpu>,
    /// KV requests the workers executed, retries included.
    pub executed: u64,
    /// The simulated output, or why the round failed: a `SimFailure` or a
    /// broken invariant.
    pub outcome: Result<Output, String>,
}

/// Seed of the simulated machine's own noise (counter fidelity, DRAM
/// jitter). It is fixed: the machine is part of the system under test,
/// and `--seed` varies only the workload's inputs.
const MACHINE_SEED: u64 = 1;

/// Builds the realistic simulated machine of `arch`.
fn machine(arch: Architecture) -> Arc<MemorySystem> {
    let platform = Platform::new(PlatformConfig::new(arch).with_fidelity_seed(MACHINE_SEED));
    Arc::new(MemorySystem::new(
        platform,
        MemSimConfig::default().with_seed(MACHINE_SEED ^ 0xA5A5),
    ))
}

/// Host-side marks the simulated root thread leaves for the round.
#[derive(Default)]
struct Marks {
    setup_end: Option<Instant>,
    timed_end: Option<Instant>,
    cpu_start: Option<Cpu>,
    cpu: Option<Cpu>,
    ns_per_step: Option<f64>,
    violation: Option<String>,
}

impl Marks {
    fn start(&mut self, traced: bool) {
        self.cpu_start = traced.then(Cpu::now);
        self.setup_end = Some(Instant::now());
    }

    fn stop(&mut self) {
        self.timed_end = Some(Instant::now());
        self.cpu = self.cpu_start.map(|c0| Cpu::now().since(c0));
    }
}

/// A simulated-thread body: gets the emulator and the round's marks.
type Body = Box<dyn FnOnce(&mut ThreadCtx, &Quartz, &Mutex<Marks>) + Send>;

fn chase_body(steps: u64, seed: u64, tracer: Option<Arc<Tracer>>) -> Body {
    Box::new(move |ctx, q, marks| {
        let lines = 8 * ctx.mem().config().l3.size_bytes / 64;
        let mut chain = Chain::build(ctx, q.nvm_node(), lines, seed);
        // The chain's visit order as line offsets, so the timed loop
        // reads it sequentially: the simulated accesses are the chain's
        // dependent chase, but the host does not also take a cache miss
        // on the chain's own random permutation at every step. Each walk
        // goes once round the cycle: the first finds the lowest line, the
        // second records the offsets.
        let mut base = chain.current_addr();
        for _ in 0..lines {
            chain.advance_cursor();
            base = base.min(chain.current_addr());
        }
        let order: Vec<u32> = (0..lines)
            .map(|_| {
                let line = (chain.current_addr().0 - base.0) / 64;
                chain.advance_cursor();
                line as u32
            })
            .collect();
        drop(chain);
        marks.lock().expect("marks").start(tracer.is_some());
        let v0 = ctx.now();
        for &line in order.iter().cycle().take(steps as usize) {
            let addr = base.offset_by(u64::from(line) * 64);
            match &tracer {
                Some(t) => t.span(Kind::Load, || ctx.load(addr)),
                None => ctx.load(addr),
            };
        }
        let elapsed = ctx.now().saturating_duration_since(v0);
        let mut m = marks.lock().expect("marks");
        m.stop();
        if steps > 0 {
            m.ns_per_step = Some(elapsed.as_ns_f64() / steps as f64);
        }
    })
}

fn persist_log_body(appends: u64, seed: u64, tracer: Option<Arc<Tracer>>) -> Body {
    Box::new(move |ctx, q, marks| {
        // A ring 5× the simulated L3, in whole records. The seed picks the
        // head, the record the first append writes, as a recovered log
        // resumes wherever its previous run stopped.
        let records = 5 * ctx.mem().config().l3.size_bytes / (RECORD_LINES * 64);
        let head = Rng::new(seed).below(records);
        let base = q
            .pmalloc(ctx, records * RECORD_LINES * 64)
            .expect("pmalloc log ring");
        let line = |rec: u64, l: u64| -> Addr { base.offset_by((rec * RECORD_LINES + l) * 64) };
        marks.lock().expect("marks").start(tracer.is_some());
        let mut violation = None;
        for i in 0..appends {
            let rec = (head + i) % records;
            let persist = |ctx: &mut ThreadCtx, addr: Addr| match &tracer {
                Some(t) => {
                    t.span(Kind::Store, || ctx.store(addr));
                    t.span(Kind::PflushOpt, || q.pflush_opt(ctx, addr));
                }
                None => {
                    ctx.store(addr);
                    q.pflush_opt(ctx, addr);
                }
            };
            let commit = |ctx: &mut ThreadCtx| match &tracer {
                Some(t) => t.span(Kind::Pcommit, || q.pcommit(ctx)),
                None => q.pcommit(ctx),
            };
            for l in 1..RECORD_LINES {
                persist(ctx, line(rec, l));
            }
            commit(ctx);
            persist(ctx, line(rec, 0));
            commit(ctx);
            if violation.is_none() && q.pending_flushes(ctx) != 0 {
                violation = Some(format!("append {i} left flushes pending"));
            }
        }
        let mut m = marks.lock().expect("marks");
        m.stop();
        m.violation = violation;
    })
}

/// Runs one round of `workload`.
pub fn run_round(
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
) -> Round {
    let body = match workload {
        Workload::Chase => Some(chase_body(sizes.chase_steps, seed, tracer.clone())),
        Workload::PersistLog => Some(persist_log_body(sizes.log_appends, seed, tracer.clone())),
        Workload::KvService => None,
    };
    run_round_with(workload, workload.arch(), sizes, seed, tracer, body)
}

/// The round driver; `body` replaces the single-threaded workload body
/// (tests pass one that panics). `None` runs the KV service.
fn run_round_with(
    workload: Workload,
    arch: Architecture,
    sizes: Sizes,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    body: Option<Body>,
) -> Round {
    let t0 = Instant::now();
    let mem = machine(arch);
    let t1 = Instant::now();
    let engine = Engine::new(Arc::clone(&mem));
    let quartz = Quartz::new(
        QuartzConfig::new(NvmTarget::optane_dcpmm()),
        Arc::clone(&mem),
    )
    .expect("optane_dcpmm is slower than the substrate DRAM");
    quartz.attach(&engine).expect("attach emulator");
    let hooks = Arc::new(BenchHooks::new(Arc::clone(&quartz), tracer.clone()));
    engine.set_hooks(Arc::clone(&hooks) as _);
    let t2 = Instant::now();

    let marks = Arc::new(Mutex::new(Marks::default()));
    let mut faults = None;
    let mut service_slot = None;
    let result: Result<RunReport, SimFailure> = match body {
        Some(body) => {
            let (q, m) = (Arc::clone(&quartz), Arc::clone(&marks));
            engine.try_run(move |ctx| body(ctx, &q, &m))
        }
        None => {
            let injector = ServicePlanInjector::new(ServiceFaultClass::DroppedResponse.plan(seed));
            let timed = Arc::new(TimedFaults::new(Arc::new(injector), tracer.clone()));
            faults = Some(Arc::clone(&timed));
            let svc = KvService::try_install_with_faults(
                &engine,
                Some(Arc::clone(&quartz)),
                kv_config(sizes, seed),
                timed,
            )
            .expect("valid service config");
            service_slot = Some(svc.result_slot());
            let report = engine.try_run(svc.into_root());
            // Set-up ends at the first worker's start, after the preload.
            let mut m = marks.lock().expect("marks");
            if let Some((start, cpu)) = hooks.first_worker_start() {
                m.setup_end = Some(start);
                m.cpu_start = cpu;
            }
            m.stop();
            report
        }
    };
    let end = Instant::now();

    let mut m = std::mem::take(&mut *marks.lock().expect("marks"));
    let setup_end = m.setup_end.unwrap_or(end);
    let timed_end = m.timed_end.unwrap_or(end);
    let setup = Setup {
        machine: t1 - t0,
        emulator: t2 - t1,
        data: setup_end.saturating_duration_since(t2),
    };
    let ops = sizes.ops(workload);
    let outcome = match result {
        Err(f) => Err(format!("simulation failure: {f}")),
        Ok(report) => {
            let service = service_slot.map(|s| s.lock().take().expect("service result"));
            let out = Output {
                end_time: report.end_time,
                mem: mem.stats(),
                quartz: quartz.stats(),
                service,
                ns_per_step: m.ns_per_step,
            };
            match m
                .violation
                .take()
                .or_else(|| invariant(workload, sizes, &out))
            {
                Some(v) => Err(v),
                None => Ok(out),
            }
        }
    };
    Round {
        setup,
        timed: timed_end.saturating_duration_since(setup_end),
        ops,
        cpu: m.cpu,
        executed: faults.map_or(0, |f| f.processed()),
        outcome,
    }
}

/// The invariants every seed must satisfy; `Some` names the broken one.
fn invariant(workload: Workload, sizes: Sizes, out: &Output) -> Option<String> {
    match workload {
        Workload::Chase => (out.mem.total_loads() != sizes.chase_steps).then(|| {
            format!(
                "memsim counted {} loads for {} chase steps",
                out.mem.total_loads(),
                sizes.chase_steps
            )
        }),
        Workload::PersistLog => {
            let want = RECORD_LINES * sizes.log_appends;
            (out.quartz.totals.pflushes != want).then(|| {
                format!(
                    "{} pflushes for {want} persisted lines",
                    out.quartz.totals.pflushes
                )
            })
        }
        Workload::KvService => {
            let r = out.service.as_ref()?;
            (!r.conservation_holds() || r.offered != sizes.kv_requests).then(|| {
                format!(
                    "conservation broken: offered {} != served {} + shed {} + expired {} + failed {}",
                    r.offered, r.completed, r.shed, r.expired, r.failed
                )
            })
        }
    }
}

/// The Fig. 12 MemLat probe on `arch`: one chase round's virtual ns per
/// step, with no host timing of interest.
pub fn memlat_probe(arch: Architecture, sizes: Sizes, seed: u64) -> Result<f64, String> {
    let body = chase_body(sizes.chase_steps, seed, None);
    let round = run_round_with(Workload::Chase, arch, sizes, seed, None, Some(body));
    round.outcome.and_then(|o| {
        o.ns_per_step
            .ok_or_else(|| "probe ran no steps".to_string())
    })
}

#[cfg(test)]
pub(crate) fn run_round_with_body(
    workload: Workload,
    sizes: Sizes,
    body: Box<dyn FnOnce(&mut ThreadCtx) + Send>,
) -> Round {
    let body: Body = Box::new(move |ctx, _q, _m| body(ctx));
    run_round_with(
        workload,
        workload.arch(),
        sizes,
        DEFAULT_SEED,
        None,
        Some(body),
    )
}
