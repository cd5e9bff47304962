//! Open-loop PM-backed KV *service* — the "heavy traffic" scenario.
//!
//! The paper's closed-loop kernels (Fig. 15/16) measure service rates,
//! but NVM latency reshapes *application* performance most visibly
//! under open-loop load, where queueing amplifies slow requests into
//! tail latency. This module marries the deterministic scheduler with a
//! discrete-event request layer, in the style of Shadow's
//! real-app-on-simulated-network architecture:
//!
//! * **N connections**, each an [`open-loop event
//!   source`](quartz_threadsim::Engine::add_open_loop_source) with
//!   seeded-exponential inter-arrival gaps and its own zipfian key
//!   stream (deterministic per `(seed, connection)`), fan in to
//! * **M server workers**, each draining its own [`SimChannel`]
//!   fan-in queue (connection *c* feeds worker *c mod M*) in
//!   configurable batches over the lock-striped [`KvStore`].
//!
//! Every request is timestamped **at arrival** — the source's firing
//! instant, independent of any queue state — so the recorded latencies
//! are coordinated-omission-free: a request that sat behind a slow NVM
//! write is charged its full sojourn time.
//!
//! # Overload robustness
//!
//! Past the knee of the throughput curve an unprotected open-loop
//! service is unstable by construction: queues grow without bound and
//! p999 diverges. [`ServiceConfig`] therefore carries an optional
//! protection layer, off by default so the unprotected baseline stays
//! measurable:
//!
//! * **Deadline propagation** — every request is stamped
//!   `arrival + deadline` at admission; with
//!   [`drop_expired`](ServiceConfig::drop_expired) a worker drops
//!   expired requests *before* executing them (and a response finished
//!   past its deadline counts as expired, not served), so the latency
//!   histogram of served requests stays bounded.
//! * **Admission control / load shedding** — a bounded per-worker
//!   [`inflight_window`](ServiceConfig::inflight_window) at the
//!   connection fan-in: arrivals bound for a worker whose window is
//!   full are shed at the source (counted separately from
//!   served/failed), absorbing the excess offered load instead of
//!   queueing it. The window is per fan-in queue, so one wedged
//!   worker sheds only its own share and cannot starve admission for
//!   the healthy workers.
//! * **Seeded retry with backoff** — a response dropped by the fault
//!   seam is retried up to [`max_retries`](ServiceConfig::max_retries)
//!   times after an exponential backoff with deterministic jitter: a
//!   pure splitmix64 hash of `(seed, request, attempt)` (see
//!   [`backoff_delay`]), the same discipline as
//!   `quartz-faults::PlanInjector`, so results are byte-identical at
//!   any `--jobs`.
//! * **Per-worker circuit breaker** — trips open after
//!   [`breaker_threshold`](ServiceConfig::breaker_threshold)
//!   consecutive deadline misses, sheds incoming work for a
//!   virtual-time cooldown, then half-opens on a single probe request.
//!
//! The accounting is conservative by construction: every offered
//! request lands in exactly one of served / shed / expired / failed
//! (`offered == served + shed + expired + failed`, see
//! [`ServiceResult::conservation_holds`]).
//!
//! Service-seam faults (a slow worker, a stuck worker, dropped
//! responses) are delivered through the [`ServiceFaultInjector`] seam —
//! `quartz-faults` provides the seeded plan-driven implementation.
//!
//! Host-lock discipline: per-worker tallies live in thread-local
//! `Tally`s and merge once into a single `parking_lot` leaf mutex at
//! worker exit; the admission gauge and gate are lock-free atomics
//! touched only at source firings (serialized under the scheduler
//! lock), so nothing host-side is contended on the request path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quartz::{LatencyHist, Quartz};
use quartz_platform::seed::{splitmix64, unit_f64, Rng};
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::NodeId;
use quartz_threadsim::{Engine, RecvTimeoutError, SimChannel, ThreadCtx};

use crate::error::WorkloadError;
use crate::kvstore::btree::{KvConfig, KvStore};
use crate::kvstore::driver::preload;
use crate::zipf::Zipf;

/// One in-flight request.
#[derive(Clone, Copy, Debug)]
struct Request {
    /// Injection instant (the open-loop arrival, *not* the dequeue).
    arrival: SimTime,
    /// Admission-stamped completion deadline, when the service runs
    /// with a deadline budget.
    deadline: Option<SimTime>,
    /// Globally unique request id (connection-major); the retry
    /// backoff hash key.
    id: u64,
    /// Retry attempt number; 0 for the first execution.
    attempt: u32,
    key: u64,
    is_get: bool,
    value: u64,
}

/// The deterministic retry backoff: attempt `attempt` of request
/// `request` waits `base·2^attempt` plus a seeded jitter of up to
/// `jitter` times that, i.e. the result always lies in
/// `[base·2^attempt, base·2^attempt·(1 + jitter))`.
///
/// A pure function of `(seed, request, attempt)` — no RNG state, no
/// wall clock — so the retry schedule is byte-identical across repeats
/// and `--jobs` counts, exactly like `quartz-faults::PlanInjector`
/// decisions.
pub fn backoff_delay(
    seed: u64,
    request: u64,
    attempt: u32,
    base: Duration,
    jitter: f64,
) -> Duration {
    let exp = base.as_ns_f64() * (1u64 << attempt.min(20)) as f64;
    let h = splitmix64(seed ^ splitmix64(request) ^ splitmix64(u64::from(attempt).wrapping_add(1)));
    Duration::from_ns_f64(exp * (1.0 + jitter.max(0.0) * unit_f64(h)))
}

/// Virtual-time budget left before `deadline` at instant `now`.
/// Saturates to zero at and past expiry — deadline arithmetic never
/// underflows, even exactly at the boundary.
pub fn deadline_remaining(deadline: SimTime, now: SimTime) -> Duration {
    deadline.saturating_duration_since(now)
}

/// The service-seam fault contract: where a real service misbehaves —
/// a worker slows down, wedges, or loses a response — without the
/// service knowing *why*. `quartz-faults` provides the seeded
/// plan-driven implementation; the defaults are benign, so
/// [`NoServiceFaults`] is indistinguishable from no seam at all.
///
/// All methods are pure functions of `(worker, seq)` — `seq` is the
/// worker's own processed-request counter, deterministic because the
/// engine runs one simulated thread at a time — so a faulted run is
/// byte-identical across repeats and `--jobs` counts.
pub trait ServiceFaultInjector: Send + Sync {
    /// Extra virtual-time compute charged before executing worker
    /// `worker`'s `seq`-th request (a persistently slow worker).
    fn worker_delay(&self, worker: usize, seq: u64) -> Duration {
        let _ = (worker, seq);
        Duration::ZERO
    }

    /// One-shot stall before worker `worker`'s `seq`-th request: the
    /// worker stops draining for this long (a wedged worker whose
    /// queue backs up), then resumes.
    fn worker_stall(&self, worker: usize, seq: u64) -> Duration {
        let _ = (worker, seq);
        Duration::ZERO
    }

    /// Whether the response to worker `worker`'s `seq`-th request is
    /// lost after execution (the work was done, the reply never made
    /// it — the canonical retry trigger).
    fn drop_response(&self, worker: usize, seq: u64) -> bool {
        let _ = (worker, seq);
        false
    }
}

/// The benign injector: no delays, no stalls, no drops.
pub struct NoServiceFaults;

impl ServiceFaultInjector for NoServiceFaults {}

/// Service scenario parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Open-loop client connections (N). The offered load splits evenly
    /// across them.
    pub connections: usize,
    /// Server worker threads (M). Connection `c` feeds worker `c % M`.
    pub workers: usize,
    /// Total requests injected across all connections.
    pub requests: u64,
    /// Total offered load in requests/second of virtual time.
    pub offered_rps: f64,
    /// Maximum requests a worker drains per wake-up; the per-wake-up
    /// dispatch cost amortizes over the batch.
    pub batch: usize,
    /// Per-wake-up dispatch cost in ns (scheduling, epoll-style readying).
    pub dispatch_ns: f64,
    /// Keys preloaded before the gate opens.
    pub preload_keys: u64,
    /// Fraction of requests that are gets.
    pub get_fraction: f64,
    /// Zipfian skew of the key distribution.
    pub zipf_theta: f64,
    /// Host CPU work per get, in ns.
    pub get_compute_ns: f64,
    /// Host CPU work per put, in ns.
    pub put_compute_ns: f64,
    /// Master seed; each connection derives its own streams.
    pub seed: u64,
    /// Per-request completion budget, stamped at admission. `Some`
    /// enables deadline *measurement* (goodput = served within the
    /// budget) in every mode; enforcement additionally needs
    /// [`drop_expired`](Self::drop_expired).
    pub deadline: Option<Duration>,
    /// Enforce the deadline: drop expired requests before executing
    /// them, and count a response finished past its deadline as
    /// expired rather than served.
    pub drop_expired: bool,
    /// Per-worker admission window: maximum requests admitted to one
    /// worker's fan-in queue but not yet resolved. Arrivals bound for
    /// a full window are shed at the source. `None` admits everything
    /// (the unprotected baseline).
    pub inflight_window: Option<usize>,
    /// Retries for a dropped response before the request counts as
    /// failed. 0 fails immediately.
    pub max_retries: u32,
    /// First-attempt retry backoff; attempt `a` waits `base·2^a` plus
    /// seeded jitter (see [`backoff_delay`]).
    pub backoff_base: Duration,
    /// Jitter fraction on the backoff, in `[0, 1]`.
    pub backoff_jitter: f64,
    /// Consecutive deadline misses that trip a worker's circuit
    /// breaker. 0 disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds before half-opening on a probe.
    pub breaker_cooldown: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            connections: 8,
            workers: 4,
            requests: 100_000,
            offered_rps: 1.0e6,
            batch: 8,
            dispatch_ns: 150.0,
            preload_keys: 20_000,
            get_fraction: 0.9,
            zipf_theta: 0.9,
            get_compute_ns: 300.0,
            put_compute_ns: 400.0,
            seed: 0x5EB5,
            deadline: None,
            drop_expired: false,
            inflight_window: None,
            max_retries: 0,
            backoff_base: Duration::from_us(50),
            backoff_jitter: 0.5,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_us(200),
        }
    }
}

impl ServiceConfig {
    /// The canonical protected profile: deadline enforcement, a
    /// batch-scaled admission window, three retries, and an armed
    /// breaker. Keeps an already-set deadline budget.
    pub fn protected(mut self) -> Self {
        self.deadline = Some(self.deadline.unwrap_or(Duration::from_ms(1)));
        self.drop_expired = true;
        self.inflight_window = Some(self.batch * 16);
        self.max_retries = 3;
        self.breaker_threshold = 32;
        self
    }
}

/// Validates a [`ServiceConfig`].
///
/// # Errors
///
/// Typed errors for zero connections/workers/requests/batch, an empty
/// key space, a rate/fraction/skew outside range, or an inconsistent
/// protection layer (enforcement without a deadline, zero-width
/// admission window, out-of-range jitter, breaker without a cooldown).
pub fn validate_service_config(config: &ServiceConfig) -> Result<(), WorkloadError> {
    validated_keys(config).map(drop)
}

/// Validates `config` and builds the key sampler its connections reseed
/// ([`Zipf::reseeded`]), so one install sums the zipf normaliser once.
fn validated_keys(config: &ServiceConfig) -> Result<Zipf, WorkloadError> {
    if config.connections == 0 {
        return Err(WorkloadError::ZeroWorkers {
            what: "service connections",
        });
    }
    if config.workers == 0 {
        return Err(WorkloadError::ZeroWorkers {
            what: "service workers",
        });
    }
    if config.workers > config.connections {
        // A worker whose fan-in queue no connection feeds would never
        // see its channel close and would park forever.
        return Err(WorkloadError::OutOfRange {
            what: "service workers",
            value: config.workers as f64,
            bounds: "[1, connections]",
        });
    }
    if config.requests == 0 {
        return Err(WorkloadError::EmptyDomain {
            what: "service request stream",
        });
    }
    if config.batch == 0 {
        return Err(WorkloadError::ZeroWorkers {
            what: "service batch size",
        });
    }
    if config.preload_keys == 0 {
        return Err(WorkloadError::EmptyDomain {
            what: "service key space",
        });
    }
    if !config.offered_rps.is_finite() || config.offered_rps <= 0.0 {
        return Err(WorkloadError::OutOfRange {
            what: "service offered load",
            value: config.offered_rps,
            bounds: "(0, inf)",
        });
    }
    if !config.get_fraction.is_finite() || !(0.0..=1.0).contains(&config.get_fraction) {
        return Err(WorkloadError::OutOfRange {
            what: "service get fraction",
            value: config.get_fraction,
            bounds: "[0, 1]",
        });
    }
    if let Some(d) = config.deadline {
        if d.is_zero() {
            return Err(WorkloadError::OutOfRange {
                what: "service deadline",
                value: 0.0,
                bounds: "(0, inf) ns",
            });
        }
    }
    if config.drop_expired && config.deadline.is_none() {
        return Err(WorkloadError::OutOfRange {
            what: "service drop_expired",
            value: 1.0,
            bounds: "requires a deadline budget",
        });
    }
    if config.inflight_window == Some(0) {
        return Err(WorkloadError::OutOfRange {
            what: "service inflight window",
            value: 0.0,
            bounds: "[1, inf)",
        });
    }
    if !config.backoff_jitter.is_finite() || !(0.0..=1.0).contains(&config.backoff_jitter) {
        return Err(WorkloadError::OutOfRange {
            what: "service backoff jitter",
            value: config.backoff_jitter,
            bounds: "[0, 1]",
        });
    }
    if config.breaker_threshold > 0 && config.breaker_cooldown.is_zero() {
        return Err(WorkloadError::OutOfRange {
            what: "service breaker cooldown",
            value: 0.0,
            bounds: "(0, inf) ns",
        });
    }
    Zipf::try_new(config.preload_keys, config.zipf_theta, config.seed)
}

/// What the service measured.
#[derive(Clone, Debug)]
pub struct ServiceResult {
    /// Requests the sources generated (admitted or shed) — always the
    /// configured total.
    pub offered: u64,
    /// Requests completed with a response (equals `offered` on an
    /// unprotected fault-free run).
    pub completed: u64,
    /// Served responses that met their deadline budget — the goodput
    /// numerator. Equals `completed` when no budget is configured.
    pub served_in_deadline: u64,
    /// Requests refused without execution: admission-window sheds at
    /// the connection fan-in plus breaker sheds at the worker.
    pub shed: u64,
    /// Requests dropped for an expired deadline (before execution) or
    /// completed too late to count (after execution).
    pub expired: u64,
    /// Requests whose response was lost and whose retry budget ran
    /// out.
    pub failed: u64,
    /// Retry attempts scheduled (each is a re-execution, not a new
    /// offered request).
    pub retries: u64,
    /// Circuit-breaker trips across all workers (closed/half-open →
    /// open transitions).
    pub breaker_trips: u64,
    /// Virtual time from gate-open to the last completion.
    pub elapsed: Duration,
    /// Coordinated-omission-free latencies of *served* requests,
    /// merged across workers.
    pub latency: LatencyHist,
    /// Wake-ups across all workers (each one drains ≥ 1 request), so
    /// `completed / wakeups` is the achieved batching factor.
    pub wakeups: u64,
}

impl ServiceResult {
    /// Achieved throughput (all served responses) in requests per
    /// second of virtual time.
    pub fn achieved_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.completed as f64 / (self.elapsed.as_ns_f64() * 1e-9)
    }

    /// Goodput: served-within-deadline responses per second of virtual
    /// time.
    pub fn goodput_rps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.served_in_deadline as f64 / (self.elapsed.as_ns_f64() * 1e-9)
    }

    /// The conservation invariant: every offered request resolved
    /// exactly one way.
    pub fn conservation_holds(&self) -> bool {
        self.offered == self.completed + self.shed + self.expired + self.failed
    }
}

/// Per-worker circuit breaker: consecutive deadline misses trip it
/// open; after a virtual-time cooldown it half-opens and the next
/// request is the probe.
enum Breaker {
    /// Passing traffic; `misses` consecutive deadline misses so far.
    Closed { misses: u32 },
    /// Shedding everything until `until`.
    Open { until: SimTime },
    /// Cooldown elapsed; the next processed request is the probe.
    HalfOpen,
}

/// Worker-local accounting, merged once at exit.
struct Tally {
    hist: LatencyHist,
    served: u64,
    in_deadline: u64,
    shed: u64,
    expired: u64,
    failed: u64,
    retries: u64,
    breaker_trips: u64,
    wakeups: u64,
    last: SimTime,
}

impl Tally {
    fn new() -> Self {
        Tally {
            hist: LatencyHist::new(),
            served: 0,
            in_deadline: 0,
            shed: 0,
            expired: 0,
            failed: 0,
            retries: 0,
            breaker_trips: 0,
            wakeups: 0,
            last: SimTime::ZERO,
        }
    }

    fn merge_into(self, total: &mut Tally) {
        total.hist.merge(&self.hist);
        total.served += self.served;
        total.in_deadline += self.in_deadline;
        total.shed += self.shed;
        total.expired += self.expired;
        total.failed += self.failed;
        total.retries += self.retries;
        total.breaker_trips += self.breaker_trips;
        total.wakeups += self.wakeups;
        total.last = total.last.max(self.last);
    }
}

/// One server worker: drains its fan-in queue, enforces the protection
/// layer, and executes requests against the store.
struct Worker {
    cfg: ServiceConfig,
    idx: usize,
    store: Arc<KvStore>,
    quartz: Option<Arc<Quartz>>,
    faults: Arc<dyn ServiceFaultInjector>,
    /// This worker's fan-in admission gauge; decremented once per
    /// resolved request (retries keep their slot).
    inflight: Arc<AtomicU64>,
    breaker: Breaker,
    /// Pending retries as `(due, request)`; processed in ascending
    /// `(due, id)` order for determinism. Bounded by the admission
    /// window, so a linear scan is fine.
    retries: Vec<(SimTime, Request)>,
    /// Processed-request counter — the fault seam's sequence number.
    seq: u64,
    tally: Tally,
}

impl Worker {
    /// Index of the next-due retry, by ascending `(due, id)`.
    fn next_retry(&self) -> Option<usize> {
        (0..self.retries.len()).min_by_key(|&i| (self.retries[i].0, self.retries[i].1.id))
    }

    /// A request leaves the system: free its admission slot.
    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a deadline miss against the breaker.
    fn breaker_miss(&mut self, now: SimTime) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        match &mut self.breaker {
            Breaker::Closed { misses } => {
                *misses += 1;
                if *misses >= self.cfg.breaker_threshold {
                    self.breaker = Breaker::Open {
                        until: now + self.cfg.breaker_cooldown,
                    };
                    self.tally.breaker_trips += 1;
                }
            }
            // The half-open probe missed: re-open for another cooldown.
            Breaker::HalfOpen => {
                self.breaker = Breaker::Open {
                    until: now + self.cfg.breaker_cooldown,
                };
                self.tally.breaker_trips += 1;
            }
            Breaker::Open { .. } => {}
        }
    }

    /// Records an in-deadline success: the breaker (re)closes.
    fn breaker_ok(&mut self) {
        self.breaker = Breaker::Closed { misses: 0 };
    }

    /// Resolves one request end-to-end: breaker gate, deadline
    /// pre-check, fault-seam stall/delay, execution, response
    /// accounting (drop → retry/failed, completion → served/expired).
    fn process(&mut self, c: &mut ThreadCtx, req: Request) {
        // Breaker gate: an open breaker sheds without executing; once
        // the cooldown elapses, this request is the half-open probe.
        if self.cfg.breaker_threshold > 0 {
            match self.breaker {
                Breaker::Open { until } if c.now() < until => {
                    self.tally.shed += 1;
                    self.release();
                    self.tally.last = c.now();
                    return;
                }
                Breaker::Open { .. } => self.breaker = Breaker::HalfOpen,
                _ => {}
            }
        }
        // Drop-expired-before-execute: the budget check at the worker.
        if self.cfg.drop_expired {
            if let Some(dl) = req.deadline {
                if c.now() > dl {
                    debug_assert!(deadline_remaining(dl, c.now()).is_zero());
                    self.tally.expired += 1;
                    self.release();
                    self.breaker_miss(c.now());
                    self.tally.last = c.now();
                    return;
                }
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let stall = self.faults.worker_stall(self.idx, seq);
        if !stall.is_zero() {
            c.compute_ns(stall.as_ns_f64());
        }
        let delay = self.faults.worker_delay(self.idx, seq);
        if !delay.is_zero() {
            c.compute_ns(delay.as_ns_f64());
        }
        if req.is_get {
            c.compute_ns(self.cfg.get_compute_ns);
            self.store.get(c, req.key);
        } else {
            c.compute_ns(self.cfg.put_compute_ns);
            self.store
                .put(c, self.quartz.as_deref(), req.key, req.value);
        }
        if self.faults.drop_response(self.idx, seq) {
            // The work happened but the reply was lost. Retry after a
            // deterministic backoff, or fail once the budget runs out.
            if req.attempt < self.cfg.max_retries {
                let wait = backoff_delay(
                    self.cfg.seed,
                    req.id,
                    req.attempt,
                    self.cfg.backoff_base,
                    self.cfg.backoff_jitter,
                );
                self.tally.retries += 1;
                self.retries.push((
                    c.now() + wait,
                    Request {
                        attempt: req.attempt + 1,
                        ..req
                    },
                ));
            } else {
                self.tally.failed += 1;
                self.release();
            }
            self.tally.last = c.now();
            return;
        }
        let now = c.now();
        let in_deadline = req.deadline.is_none_or(|dl| now <= dl);
        if self.cfg.drop_expired && !in_deadline {
            // Completed, but too late to count as a response.
            self.tally.expired += 1;
            self.release();
            self.breaker_miss(now);
        } else {
            self.tally.served += 1;
            if in_deadline {
                self.tally.in_deadline += 1;
                self.breaker_ok();
            } else {
                self.breaker_miss(now);
            }
            self.tally
                .hist
                .record(now.saturating_duration_since(req.arrival));
            self.release();
        }
        self.tally.last = now;
    }

    /// The worker main loop: batch-drain the fan-in queue, interleaving
    /// due retries via `chan_recv_timeout` bounded by the next retry's
    /// due instant; after the queue closes, wait out and resolve the
    /// retry backlog.
    fn run(mut self, c: &mut ThreadCtx, queue: &SimChannel<Request>) -> Tally {
        let mut batch = Vec::with_capacity(self.cfg.batch);
        loop {
            let first = match self.next_retry() {
                Some(i) if self.retries[i].0 <= c.now() => {
                    let (_, req) = self.retries.swap_remove(i);
                    self.process(c, req);
                    continue;
                }
                Some(i) => {
                    let due = self.retries[i].0;
                    match c.chan_recv_timeout(queue, due.saturating_duration_since(c.now())) {
                        Ok(r) => Some(r),
                        // The retry is due now; the loop top takes it.
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Closed) => None,
                    }
                }
                None => c.chan_recv(queue),
            };
            let Some(first) = first else { break };
            self.tally.wakeups += 1;
            batch.push(first);
            while batch.len() < self.cfg.batch {
                match c.chan_try_recv(queue) {
                    Ok(r) => batch.push(r),
                    Err(_) => break,
                }
            }
            // Per-wake-up dispatch cost, amortized over the batch.
            c.compute_ns(self.cfg.dispatch_ns);
            for req in batch.drain(..) {
                self.process(c, req);
            }
        }
        // Queue closed: wait out the remaining retry backlog in due
        // order and resolve it.
        while let Some(i) = self.next_retry() {
            let (due, req) = self.retries.swap_remove(i);
            let wait = due.saturating_duration_since(c.now());
            if !wait.is_zero() {
                c.compute_ns(wait.as_ns_f64());
            }
            self.process(c, req);
        }
        self.tally
    }
}

/// A fully wired service scenario: channels and open-loop sources are
/// registered on the engine at construction; [`KvService::into_root`]
/// yields the root closure that preloads the store, opens the arrival
/// gate, runs the workers, and deposits a [`ServiceResult`].
pub struct KvService {
    config: ServiceConfig,
    quartz: Option<Arc<Quartz>>,
    faults: Arc<dyn ServiceFaultInjector>,
    queues: Vec<SimChannel<Request>>,
    /// Virtual instant (ps) from which sources inject; `u64::MAX` keeps
    /// the gate shut while the root preloads the store.
    gate_ps: Arc<AtomicU64>,
    /// Admitted-but-unresolved requests, one gauge per worker fan-in.
    inflight: Vec<Arc<AtomicU64>>,
    /// Requests shed at the connection fan-in by the admission window.
    shed_at_gate: Arc<AtomicU64>,
    result: Arc<Mutex<Option<ServiceResult>>>,
}

/// Poll gap while the gate is shut. Preload time is deterministic
/// virtual time, so the first post-open firing is too.
const GATE_POLL: Duration = Duration::from_us(100);

impl KvService {
    /// Wires `config` onto `engine` with no service faults. See
    /// [`KvService::try_install_with_faults`].
    ///
    /// # Errors
    ///
    /// See [`validate_service_config`].
    pub fn try_install(
        engine: &Engine,
        quartz: Option<Arc<Quartz>>,
        config: ServiceConfig,
    ) -> Result<Self, WorkloadError> {
        Self::try_install_with_faults(engine, quartz, config, Arc::new(NoServiceFaults))
    }

    /// Wires `config` onto `engine`: M fan-in queues, N open-loop
    /// connection sources, with `faults` installed at the service seam.
    /// Must be called before `engine.run`.
    ///
    /// # Errors
    ///
    /// See [`validate_service_config`].
    pub fn try_install_with_faults(
        engine: &Engine,
        quartz: Option<Arc<Quartz>>,
        config: ServiceConfig,
        faults: Arc<dyn ServiceFaultInjector>,
    ) -> Result<Self, WorkloadError> {
        let keys = validated_keys(&config)?;
        let queues: Vec<SimChannel<Request>> =
            (0..config.workers).map(|_| engine.channel()).collect();
        let gate_ps = Arc::new(AtomicU64::new(u64::MAX));
        let inflight: Vec<Arc<AtomicU64>> = (0..config.workers)
            .map(|_| Arc::new(AtomicU64::new(0)))
            .collect();
        let shed_at_gate = Arc::new(AtomicU64::new(0));
        let per_conn_rps = config.offered_rps / config.connections as f64;
        let mean_gap_ns = 1.0e9 / per_conn_rps;
        let base = config.requests / config.connections as u64;
        let extra = (config.requests % config.connections as u64) as usize;
        let window = config.inflight_window.map(|w| w as u64);
        for conn in 0..config.connections {
            let queue = queues[conn % config.workers].clone();
            let gate = Arc::clone(&gate_ps);
            let gauge = Arc::clone(&inflight[conn % config.workers]);
            let shed = Arc::clone(&shed_at_gate);
            let conn_seed = config
                .seed
                .wrapping_add((conn as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut zipf = keys.reseeded(conn_seed);
            let mut rng = Rng::new(conn_seed ^ 0xC0FF_EE00_D15E_A5E5);
            let mut remaining = base + u64::from(conn < extra);
            let get_fraction = config.get_fraction;
            let deadline = config.deadline;
            let mut sent = 0u64;
            engine.add_open_loop_source(GATE_POLL, &[queue.id()], move |api| {
                let open_ps = gate.load(Ordering::Acquire);
                if api.fire_time().as_ps() < open_ps {
                    // Gate shut (or not yet reached): poll again without
                    // consuming any sampling stream.
                    return;
                }
                if remaining == 0 {
                    api.stop();
                    return;
                }
                let key = zipf.sample();
                let coin = rng.next_f64();
                let arrival = api.fire_time();
                let req = Request {
                    arrival,
                    deadline: deadline.map(|d| arrival + d),
                    id: ((conn as u64) << 40) | sent,
                    attempt: 0,
                    key,
                    is_get: coin < get_fraction,
                    value: sent,
                };
                // Admission control at the fan-in: an arrival bound
                // for a worker whose inflight window is full is shed
                // at the source, before it can queue. Source firings
                // are serialized under the scheduler lock, so the
                // gauge reads deterministically.
                match window {
                    Some(w) if gauge.load(Ordering::Relaxed) >= w => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        gauge.fetch_add(1, Ordering::Relaxed);
                        api.send(&queue, req);
                    }
                }
                sent += 1;
                remaining -= 1;
                if remaining == 0 {
                    api.stop();
                    return;
                }
                // Seeded-exponential inter-arrival gap (Poisson arrivals).
                let u = rng.next_f64();
                let gap_ns = (-(1.0 - u).ln() * mean_gap_ns).max(1.0);
                api.reschedule_in(Duration::from_ns_f64(gap_ns));
            });
        }
        Ok(KvService {
            config,
            quartz,
            faults,
            queues,
            gate_ps,
            inflight,
            shed_at_gate,
            result: Arc::new(Mutex::new(None)),
        })
    }

    /// The slot [`KvService::into_root`]'s closure deposits the result
    /// into when the run completes.
    pub fn result_slot(&self) -> Arc<Mutex<Option<ServiceResult>>> {
        Arc::clone(&self.result)
    }

    /// Consumes the handle into the root closure for
    /// [`Engine::run`](quartz_threadsim::Engine::run): create + preload
    /// the store, open the arrival gate, spawn the M workers, join
    /// them, and merge their tallies.
    pub fn into_root(self) -> impl FnOnce(&mut ThreadCtx) + Send + 'static {
        let KvService {
            config,
            quartz,
            faults,
            queues,
            gate_ps,
            inflight,
            shed_at_gate,
            result,
        } = self;
        move |ctx: &mut ThreadCtx| {
            let store = Arc::new(KvStore::create(ctx, KvConfig::new(NodeId(0))));
            preload(ctx, &store, quartz.as_deref(), config.preload_keys);
            // Open the gate: sources begin injecting at their next poll.
            gate_ps.store(ctx.now().as_ps(), Ordering::Release);
            let t_open = ctx.now();
            let tallies: Arc<Mutex<Tally>> = Arc::new(Mutex::new(Tally::new()));
            let mut kids = Vec::with_capacity(config.workers);
            for (idx, queue) in queues.into_iter().enumerate() {
                let worker = Worker {
                    cfg: config,
                    idx,
                    store: Arc::clone(&store),
                    quartz: quartz.clone(),
                    faults: Arc::clone(&faults),
                    inflight: Arc::clone(&inflight[idx]),
                    breaker: Breaker::Closed { misses: 0 },
                    retries: Vec::new(),
                    seq: 0,
                    tally: Tally::new(),
                };
                let tallies = Arc::clone(&tallies);
                kids.push(ctx.spawn(move |c| {
                    let local = worker.run(c, &queue);
                    local.merge_into(&mut tallies.lock());
                }));
            }
            for k in kids {
                ctx.join(k);
            }
            let total = {
                let mut tl = tallies.lock();
                std::mem::replace(&mut *tl, Tally::new())
            };
            *result.lock() = Some(ServiceResult {
                offered: config.requests,
                completed: total.served,
                served_in_deadline: total.in_deadline,
                shed: total.shed + shed_at_gate.load(Ordering::Relaxed),
                expired: total.expired,
                failed: total.failed,
                retries: total.retries,
                breaker_trips: total.breaker_trips,
                elapsed: total.last.saturating_duration_since(t_open),
                latency: total.hist,
                wakeups: total.wakeups,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use quartz_memsim::{MemSimConfig, MemorySystem};
    use quartz_platform::{Architecture, Platform, PlatformConfig};

    fn run_with(config: ServiceConfig, faults: Arc<dyn ServiceFaultInjector>) -> ServiceResult {
        let platform =
            Platform::new(PlatformConfig::new(Architecture::SandyBridge).with_perfect_counters());
        let mem = Arc::new(MemorySystem::new(
            platform,
            MemSimConfig::default().without_jitter(),
        ));
        let engine = Engine::new(mem);
        let svc = KvService::try_install_with_faults(&engine, None, config, faults)
            .expect("valid config");
        let slot = svc.result_slot();
        engine.run(svc.into_root());
        let r = slot.lock().take().expect("service deposited a result");
        r
    }

    fn run(config: ServiceConfig) -> ServiceResult {
        run_with(config, Arc::new(NoServiceFaults))
    }

    fn quick() -> ServiceConfig {
        ServiceConfig {
            connections: 4,
            workers: 2,
            requests: 4_000,
            offered_rps: 2.0e6,
            preload_keys: 2_000,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn completes_every_request_exactly_once() {
        let r = run(quick());
        assert_eq!(r.completed, 4_000);
        assert_eq!(r.latency.count(), 4_000);
        assert!(r.conservation_holds());
        assert_eq!((r.shed, r.expired, r.failed), (0, 0, 0));
        assert!(r.wakeups > 0 && r.wakeups <= r.completed);
        assert!(r.achieved_rps() > 0.0);
        assert!(r.latency.p50() <= r.latency.p99());
        assert!(r.latency.p99() <= r.latency.p999());
    }

    #[test]
    fn run_is_deterministic() {
        let a = run(quick());
        let b = run(quick());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.wakeups, b.wakeups);
    }

    #[test]
    fn overload_inflates_tail_latency() {
        // Same work at 20x the offered load: queues build up, and the
        // open-loop arrival stamps charge the queueing to the tail.
        let light = run(ServiceConfig {
            offered_rps: 0.5e6,
            ..quick()
        });
        let heavy = run(ServiceConfig {
            offered_rps: 10.0e6,
            ..quick()
        });
        assert!(
            heavy.latency.p999() > 2 * light.latency.p999(),
            "overload must show up in the tail: light p999 {} heavy p999 {}",
            light.latency.p999(),
            heavy.latency.p999()
        );
    }

    #[test]
    fn protected_overload_sheds_and_bounds_admitted_tail() {
        // Long enough past the knee that the unprotected backlog
        // dominates: with ~2e6 rps of capacity, 10e6 rps offered for
        // 16k requests leaves most of the run in deep queueing, where
        // goodput collapses unless the window sheds the excess.
        let overload = ServiceConfig {
            offered_rps: 10.0e6,
            requests: 16_000,
            ..quick()
        };
        let unprotected = run(ServiceConfig {
            deadline: Some(Duration::from_ms(1)),
            ..overload
        });
        let protected = run(overload.protected());
        assert!(protected.conservation_holds(), "{protected:?}");
        assert!(unprotected.conservation_holds(), "{unprotected:?}");
        assert!(
            protected.shed > 0,
            "admission window must shed past the knee: {protected:?}"
        );
        // The admitted tail stays bounded while the unprotected tail
        // diverges with queue depth.
        assert!(
            protected.latency.p999() < unprotected.latency.p999() / 2,
            "protected p999 {} vs unprotected {}",
            protected.latency.p999(),
            unprotected.latency.p999()
        );
        // Goodput: protection trades raw completions for responses
        // that still matter.
        assert!(protected.goodput_rps() > unprotected.goodput_rps());
    }

    #[test]
    fn protected_run_is_deterministic() {
        let cfg = ServiceConfig {
            offered_rps: 8.0e6,
            ..quick()
        }
        .protected();
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.expired, b.expired);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.breaker_trips, b.breaker_trips);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.latency, b.latency);
    }

    /// Drops every response on every worker.
    struct DropEverything;
    impl ServiceFaultInjector for DropEverything {
        fn drop_response(&self, _worker: usize, _seq: u64) -> bool {
            true
        }
    }

    #[test]
    fn dropped_responses_retry_then_fail_with_conservation() {
        let cfg = ServiceConfig {
            requests: 500,
            max_retries: 2,
            ..quick()
        };
        let r = run_with(cfg, Arc::new(DropEverything));
        assert_eq!(r.completed, 0, "no response ever survives");
        assert_eq!(r.failed, 500);
        // Every request burned its full retry budget.
        assert_eq!(r.retries, 2 * 500);
        assert!(r.conservation_holds(), "{r:?}");
    }

    /// Inflates every op on worker 0 far past any deadline.
    struct WedgeWorkerZero;
    impl ServiceFaultInjector for WedgeWorkerZero {
        fn worker_delay(&self, worker: usize, _seq: u64) -> Duration {
            if worker == 0 {
                Duration::from_ms(2)
            } else {
                Duration::ZERO
            }
        }
    }

    #[test]
    fn breaker_trips_on_consecutive_misses_and_sheds() {
        let cfg = ServiceConfig {
            breaker_threshold: 4,
            ..quick().protected()
        };
        let r = run_with(cfg, Arc::new(WedgeWorkerZero));
        assert!(
            r.breaker_trips > 0,
            "slow worker must trip its breaker: {r:?}"
        );
        assert!(r.shed > 0);
        assert!(r.conservation_holds(), "{r:?}");
        // The healthy worker keeps serving.
        assert!(r.completed > 0);
    }

    #[test]
    fn backoff_schedule_is_pure_and_bounded() {
        let base = Duration::from_us(50);
        for attempt in 0..4 {
            let a = backoff_delay(7, 99, attempt, base, 0.5);
            let b = backoff_delay(7, 99, attempt, base, 0.5);
            assert_eq!(a, b, "pure function of (seed, request, attempt)");
            let lo = base.as_ns_f64() * (1 << attempt) as f64;
            let hi = lo * 1.5;
            let got = a.as_ns_f64();
            assert!(
                got >= lo && got < hi,
                "attempt {attempt}: {got} not in [{lo}, {hi})"
            );
        }
        assert_ne!(
            backoff_delay(7, 99, 1, base, 0.5),
            backoff_delay(8, 99, 1, base, 0.5),
            "seed must decorrelate the jitter"
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        for (cfg, what) in [
            (
                ServiceConfig {
                    connections: 0,
                    ..ServiceConfig::default()
                },
                "service connections",
            ),
            (
                ServiceConfig {
                    workers: 0,
                    ..ServiceConfig::default()
                },
                "service workers",
            ),
            (
                ServiceConfig {
                    batch: 0,
                    ..ServiceConfig::default()
                },
                "service batch size",
            ),
        ] {
            match validate_service_config(&cfg) {
                Err(WorkloadError::ZeroWorkers { what: w }) => assert_eq!(w, what),
                other => panic!("{what}: expected ZeroWorkers, got {other:?}"),
            }
        }
        assert!(matches!(
            validate_service_config(&ServiceConfig {
                requests: 0,
                ..ServiceConfig::default()
            }),
            Err(WorkloadError::EmptyDomain { .. })
        ));
        for cfg in [
            ServiceConfig {
                offered_rps: 0.0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                drop_expired: true,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                inflight_window: Some(0),
                ..ServiceConfig::default()
            },
            ServiceConfig {
                backoff_jitter: 1.5,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                deadline: Some(Duration::ZERO),
                ..ServiceConfig::default()
            },
            ServiceConfig {
                breaker_threshold: 3,
                breaker_cooldown: Duration::ZERO,
                ..ServiceConfig::default()
            },
        ] {
            assert!(
                matches!(
                    validate_service_config(&cfg),
                    Err(WorkloadError::OutOfRange { .. })
                ),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn install_rejects_an_empty_key_space_and_bad_skew_with_typed_errors() {
        let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        let mem = Arc::new(MemorySystem::new(platform, MemSimConfig::default()));
        let engine = Engine::new(mem);
        let empty = ServiceConfig {
            preload_keys: 0,
            ..ServiceConfig::default()
        };
        for err in [
            validate_service_config(&empty).unwrap_err(),
            KvService::try_install(&engine, None, empty).err().unwrap(),
        ] {
            assert!(
                matches!(
                    err,
                    WorkloadError::EmptyDomain {
                        what: "service key space"
                    }
                ),
                "{err:?}"
            );
        }
        for theta in [-0.1, 1.0, 1.5, f64::NAN] {
            let skewed = ServiceConfig {
                zipf_theta: theta,
                ..ServiceConfig::default()
            };
            for err in [
                validate_service_config(&skewed).unwrap_err(),
                KvService::try_install(&engine, None, skewed).err().unwrap(),
            ] {
                assert!(
                    matches!(
                        err,
                        WorkloadError::OutOfRange {
                            what: "zipf theta",
                            bounds: "[0, 1)",
                            ..
                        }
                    ),
                    "theta {theta}: {err:?}"
                );
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn backoff_is_deterministic_and_within_declared_bounds(
                seed in 0u64..1 << 48,
                request in 0u64..1 << 40,
                attempt in 0u32..8,
                base_us in 1u64..1_000,
                jitter_pct in 0u32..101,
            ) {
                let base = Duration::from_us(base_us);
                let jitter = f64::from(jitter_pct) / 100.0;
                let a = backoff_delay(seed, request, attempt, base, jitter);
                let b = backoff_delay(seed, request, attempt, base, jitter);
                prop_assert_eq!(a, b);
                let lo = base.as_ns_f64() * (1u64 << attempt) as f64;
                let hi = lo * (1.0 + jitter);
                let got = a.as_ns_f64();
                prop_assert!(
                    got >= lo && (got < hi || jitter == 0.0 && got == lo),
                    "attempt {}: {} outside [{}, {})",
                    attempt, got, lo, hi
                );
            }

            #[test]
            fn deadline_arithmetic_never_underflows(
                arrival_ns in 0u64..1 << 40,
                budget_ns in 1u64..1 << 30,
                elapsed_ns in 0u64..1 << 41,
            ) {
                let arrival = SimTime::ZERO + Duration::from_ns(arrival_ns);
                let deadline = arrival + Duration::from_ns(budget_ns);
                let now = SimTime::ZERO + Duration::from_ns(elapsed_ns);
                let left = deadline_remaining(deadline, now);
                // Saturating at the expiry boundary: zero at and past
                // the deadline, the exact budget remainder before it.
                if elapsed_ns >= arrival_ns + budget_ns {
                    prop_assert!(left.is_zero());
                } else {
                    prop_assert_eq!(
                        left,
                        Duration::from_ns(arrival_ns + budget_ns - elapsed_ns)
                    );
                }
            }

            #[test]
            fn conservation_holds_across_random_configs(
                case in 0u64..1 << 32,
            ) {
                // Derive a small random scenario from the case seed —
                // load straddling the knee, protection knobs toggled
                // independently.
                let h = |k: u64| splitmix64(case ^ splitmix64(k));
                let connections = 2 + (h(1) % 3) as usize; // 2..=4
                let workers = 1 + (h(2) as usize % connections.min(3));
                let cfg = ServiceConfig {
                    connections,
                    workers,
                    requests: 400 + h(3) % 400,
                    offered_rps: 1.0e6 + (h(4) % 9) as f64 * 1.0e6,
                    preload_keys: 1_000,
                    seed: h(5),
                    deadline: Some(Duration::from_us(200 + h(6) % 1_000)),
                    drop_expired: h(7) % 2 == 0,
                    inflight_window: match h(8) % 3 {
                        0 => None,
                        m => Some(16 * m as usize),
                    },
                    max_retries: (h(9) % 3) as u32,
                    breaker_threshold: (h(10) % 2) as u32 * 8,
                    ..ServiceConfig::default()
                };
                let r = run(cfg);
                prop_assert!(
                    r.conservation_holds(),
                    "offered {} != served {} + shed {} + expired {} + failed {} ({:?})",
                    r.offered, r.completed, r.shed, r.expired, r.failed, cfg
                );
                prop_assert!(r.served_in_deadline <= r.completed);
            }
        }
    }
}
