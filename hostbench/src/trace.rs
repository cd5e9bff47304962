//! Traced mode: sampled spans around the benchmark's own calls into each
//! layer, kept in memory and written once at exit.
//!
//! Single-threaded workloads (`chase`, `persist_log`) time spans on the
//! wall clock: their one simulated thread never parks mid-call. On
//! `kv_service` any `ThreadCtx` call may park at its operation boundary
//! while the other worker runs, so spans there read the calling thread's
//! CPU clock instead.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use quartz::Quartz;
use quartz_platform::time::Duration;
use quartz_threadsim::{AtomicEvent, Hooks, SimFailure, ThreadCtx};
use quartz_workloads::kvstore::ServiceFaultInjector;

use crate::metrics::{thread_cpu_ns, Cpu};

/// The calls the benchmark times, one per layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `ThreadCtx::load`: the memsim access plus the threadsim op boundary.
    Load,
    /// `ThreadCtx::store`.
    Store,
    /// `Quartz::pflush_opt`.
    PflushOpt,
    /// `Quartz::pcommit`.
    Pcommit,
    /// One interposition callback into the attached `Quartz`.
    Hook,
    /// One KV request, from the fault seam's `worker_stall` to its
    /// `drop_response`.
    KvRequest,
}

impl Kind {
    const ALL: [Kind; 6] = [
        Kind::Load,
        Kind::Store,
        Kind::PflushOpt,
        Kind::Pcommit,
        Kind::Hook,
        Kind::KvRequest,
    ];

    /// Span name in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Load => "load",
            Kind::Store => "store",
            Kind::PflushOpt => "pflush_opt",
            Kind::Pcommit => "pcommit",
            Kind::Hook => "hook",
            Kind::KvRequest => "kv_request",
        }
    }

    /// One call in this many is timed. A clock read costs ~32 ns on the
    /// wall clock and more on the thread CPU clock, a large share of a
    /// ~0.4 µs chase step, so the frequent calls are sampled sparsely.
    fn period(self) -> u64 {
        match self {
            Kind::Load => 64,
            Kind::Store | Kind::PflushOpt | Kind::Pcommit | Kind::Hook => 16,
            Kind::KvRequest => 8,
        }
    }
}

/// Which clock spans read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time.
    Wall,
    /// On-CPU time of the calling host thread.
    ThreadCpu,
}

/// One recorded span.
#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    id: u64,
    /// Id of the enclosing span on the same thread; 0 for none.
    parent: u64,
    /// KV request id (`worker << 40 | seq`), when the span belongs to one.
    req: Option<u64>,
    /// The recording host thread, numbered in order of first span.
    thread: u32,
    /// Wall-clock start, in ns since the tracer was created.
    start_ns: u64,
    /// Duration on the tracer's clock.
    dur_ns: u64,
}

/// Spans kept for the span file; aggregates keep counting past this.
const MAX_KEPT_SPANS: usize = 50_000;

/// Next host-thread number for span files.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// This host thread's number in span files.
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);

    /// The KV request span open on this host thread: `(id, req, start
    /// wall ns, start clock ns)`.
    static OPEN_REQUEST: Cell<Option<(u64, u64, u64, u64)>> = const { Cell::new(None) };
}

/// Per-kind sums of sampled span durations.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Sampled spans.
    pub count: u64,
    /// Sum of their durations in ns.
    pub total_ns: u64,
}

impl Aggregate {
    /// Mean sampled duration in ns; 0 when nothing was sampled.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// The in-memory span recorder of one traced run.
pub struct Tracer {
    clock: Clock,
    epoch: Instant,
    calls: [AtomicU64; 6],
    next_id: AtomicU64,
    inner: Mutex<TraceState>,
}

struct TraceState {
    aggregates: [Aggregate; 6],
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder reading `clock`.
    pub fn new(clock: Clock) -> Self {
        Tracer {
            clock,
            epoch: Instant::now(),
            calls: Default::default(),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(TraceState {
                aggregates: [Aggregate::default(); 6],
                spans: Vec::new(),
            }),
        }
    }

    fn wall_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn clock_ns(&self) -> u64 {
        match self.clock {
            Clock::Wall => self.wall_ns(),
            Clock::ThreadCpu => thread_cpu_ns(),
        }
    }

    /// Counts one call of `kind`; true when this call is to be timed.
    fn sampled(&self, kind: Kind) -> bool {
        self.calls[kind as usize]
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(kind.period())
    }

    /// Sampled-span totals of `kind`.
    pub fn aggregate(&self, kind: Kind) -> Aggregate {
        self.inner.lock().expect("tracer lock poisoned").aggregates[kind as usize]
    }

    fn record(&self, kind: Kind, start_wall: u64, dur_ns: u64, req: Option<u64>, id: u64) {
        let parent = match kind {
            Kind::KvRequest => 0,
            _ => OPEN_REQUEST.with(|o| o.get()).map_or(0, |(id, ..)| id),
        };
        let req = req.or_else(|| OPEN_REQUEST.with(|o| o.get()).map(|(_, r, ..)| r));
        let mut st = self.inner.lock().expect("tracer lock poisoned");
        let agg = &mut st.aggregates[kind as usize];
        agg.count += 1;
        agg.total_ns += dur_ns;
        if st.spans.len() < MAX_KEPT_SPANS {
            st.spans.push(Span {
                kind,
                id,
                parent,
                req,
                thread: THREAD.with(|t| *t),
                start_ns: start_wall,
                dur_ns,
            });
        }
    }

    /// Runs `f`, timing it as a span of `kind` when this call is sampled.
    pub fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.sampled(kind) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let wall = self.wall_ns();
        let t0 = self.clock_ns();
        let r = f();
        let dur = self.clock_ns().saturating_sub(t0);
        self.record(kind, wall, dur, None, id);
        r
    }

    /// Opens the KV request span of `(worker, seq)` on this thread when
    /// the request is sampled.
    fn open_request(&self, worker: usize, seq: u64) {
        if !self.sampled(Kind::KvRequest) {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = (worker as u64) << 40 | seq;
        let open = (id, req, self.wall_ns(), self.clock_ns());
        OPEN_REQUEST.with(|o| o.set(Some(open)));
    }

    /// Closes this thread's open KV request span, if any.
    fn close_request(&self) {
        if let Some((id, req, wall, t0)) = OPEN_REQUEST.with(|o| o.take()) {
            let dur = self.clock_ns().saturating_sub(t0);
            self.record(Kind::KvRequest, wall, dur, Some(req), id);
        }
    }

    /// The kept spans as a Chrome trace-event document (open it in
    /// Perfetto). `ts` is the wall-clock start in µs; `dur` is measured
    /// on the tracer's clock, which is on-CPU time on `kv_service`.
    pub fn to_chrome_json(&self) -> String {
        let st = self.inner.lock().expect("tracer lock poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.kind.name(),
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                req,
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":\"{}\",\"kept\":{},\"sampled\":{{",
            match self.clock {
                Clock::Wall => "wall",
                Clock::ThreadCpu => "thread_cpu",
            },
            st.spans.len()
        );
        for (i, k) in Kind::ALL.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{}\":{}", k.name(), st.aggregates[i].count);
        }
        out.push_str("}}}\n");
        out
    }
}

/// The attached emulator behind a delegating [`Hooks`] wrapper. It marks
/// the end of `kv_service` set-up at the first worker's start and, in
/// traced runs, times every interposition callback.
pub struct BenchHooks {
    inner: Arc<Quartz>,
    tracer: Option<Arc<Tracer>>,
    first_worker: Mutex<Option<(Instant, Option<Cpu>)>>,
}

impl BenchHooks {
    /// Wraps `inner`.
    pub fn new(inner: Arc<Quartz>, tracer: Option<Arc<Tracer>>) -> Self {
        BenchHooks {
            inner,
            tracer,
            first_worker: Mutex::new(None),
        }
    }

    /// Host instant at which the first thread after the root started,
    /// with the process CPU read there in traced runs.
    pub fn first_worker_start(&self) -> Option<(Instant, Option<Cpu>)> {
        *self.first_worker.lock().expect("hooks lock poisoned")
    }

    fn call(&self, f: impl FnOnce()) {
        match &self.tracer {
            Some(t) => t.span(Kind::Hook, f),
            None => f(),
        }
    }
}

impl Hooks for BenchHooks {
    fn on_thread_start(&self, ctx: &mut ThreadCtx) {
        if ctx.thread_id().0 != 0 {
            self.first_worker
                .lock()
                .expect("hooks lock poisoned")
                .get_or_insert_with(|| (Instant::now(), self.tracer.as_ref().map(|_| Cpu::now())));
        }
        self.call(|| self.inner.on_thread_start(ctx));
    }
    fn on_thread_exit(&self, ctx: &mut ThreadCtx) {
        self.call(|| self.inner.on_thread_exit(ctx));
    }
    fn before_mutex_lock(&self, ctx: &mut ThreadCtx) {
        self.call(|| self.inner.before_mutex_lock(ctx));
    }
    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        self.call(|| self.inner.before_mutex_unlock(ctx));
    }
    fn before_cond_notify(&self, ctx: &mut ThreadCtx) {
        self.call(|| self.inner.before_cond_notify(ctx));
    }
    fn before_barrier(&self, ctx: &mut ThreadCtx) {
        self.call(|| self.inner.before_barrier(ctx));
    }
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
        self.call(|| self.inner.on_atomic(ctx, ev));
    }
    fn on_signal(&self, ctx: &mut ThreadCtx) {
        self.call(|| self.inner.on_signal(ctx));
    }
    fn on_sim_failure(&self, failure: &SimFailure) {
        self.inner.on_sim_failure(failure);
    }
}

/// A delegating [`ServiceFaultInjector`]: counts processed requests and,
/// in traced runs, opens a request span at `worker_stall` and closes it
/// at `drop_response`, the first and last seam calls of one request.
pub struct TimedFaults {
    inner: Arc<dyn ServiceFaultInjector>,
    tracer: Option<Arc<Tracer>>,
    processed: AtomicU64,
}

impl TimedFaults {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ServiceFaultInjector>, tracer: Option<Arc<Tracer>>) -> Self {
        TimedFaults {
            inner,
            tracer,
            processed: AtomicU64::new(0),
        }
    }

    /// Requests the workers executed, retries included.
    pub fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }
}

impl ServiceFaultInjector for TimedFaults {
    fn worker_delay(&self, worker: usize, seq: u64) -> Duration {
        self.inner.worker_delay(worker, seq)
    }

    fn worker_stall(&self, worker: usize, seq: u64) -> Duration {
        self.processed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.tracer {
            t.open_request(worker, seq);
        }
        self.inner.worker_stall(worker, seq)
    }

    fn drop_response(&self, worker: usize, seq: u64) -> bool {
        let dropped = self.inner.drop_response(worker, seq);
        if let Some(t) = &self.tracer {
            t.close_request();
        }
        dropped
    }
}
