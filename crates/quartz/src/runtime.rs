//! The emulator runtime: epoch management, monitor, hooks.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;
use quartz_memsim::MemorySystem;
use quartz_platform::kmod::KernelModule;
use quartz_platform::pmu::bank::StandardCounters;
use quartz_platform::pmu::COUNTER_MASK;
use quartz_platform::time::Duration;
use quartz_platform::{NodeId, Platform, PlatformError, SocketId, TimerFault};
use quartz_threadsim::{
    AtomicEvent, AtomicPhase, CasOutcome, Engine, Hooks, SimFailure, ThreadCtx,
};

use crate::config::{CounterAccess, LatencyModelKind, MemoryMode, QuartzConfig};
use crate::error::QuartzError;
use crate::model;
use crate::registry::{SlotRegistry, ThreadSlot};
use crate::stats::{DegradationCounters, EpochReason, EpochRecord, QuartzStats, ThreadStats};

/// Retry budget for transient `rdpmc` failures before an epoch gives up
/// and falls back to its previous counter snapshot.
const PMU_READ_RETRIES: u32 = 3;

/// Re-program budget for the thermal readback-verify loop before a
/// throttle target is accepted degraded.
const THERMAL_RETRIES: u32 = 4;

/// Topology re-reads attempted when a stale snapshot excludes the
/// registering core, before the hardware is trusted over the snapshot.
const TOPOLOGY_REFRESHES: u32 = 3;

/// A counter snapshot at an epoch boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Snap {
    pub stalls: u64,
    pub hits: u64,
    pub miss_local: u64,
    pub miss_remote: u64,
    pub miss_all: u64,
    /// Store-buffer stall cycles (`RESOURCE_STALLS:SB`). Read — and
    /// therefore nonzero — only when the asymmetric write model is on.
    pub sb_stalls: u64,
    pub store_miss_local: u64,
    pub store_miss_remote: u64,
    pub store_miss_all: u64,
}

impl Snap {
    /// Per-field counter delta, wrap-aware: hardware counters are 48
    /// bits wide, so a later read below an earlier one means the counter
    /// wrapped and the true delta is `(now - then) mod 2^48`.
    ///
    /// The seed used `saturating_sub`, which silently reported a *zero*
    /// delta across a wrap — an epoch spanning the wrap lost its entire
    /// stall accounting and injected no delay.
    pub(crate) fn delta(self, earlier: Snap) -> Snap {
        let d = |now: u64, then: u64| now.wrapping_sub(then) & COUNTER_MASK;
        Snap {
            stalls: d(self.stalls, earlier.stalls),
            hits: d(self.hits, earlier.hits),
            miss_local: d(self.miss_local, earlier.miss_local),
            miss_remote: d(self.miss_remote, earlier.miss_remote),
            miss_all: d(self.miss_all, earlier.miss_all),
            sb_stalls: d(self.sb_stalls, earlier.sb_stalls),
            store_miss_local: d(self.store_miss_local, earlier.store_miss_local),
            store_miss_remote: d(self.store_miss_remote, earlier.store_miss_remote),
            store_miss_all: d(self.store_miss_all, earlier.store_miss_all),
        }
    }

    /// How many fields went backwards relative to `earlier` — each one
    /// is a 48-bit wrap (assuming reads are otherwise monotonic).
    pub(crate) fn wraps_since(self, earlier: Snap) -> u64 {
        [
            (self.stalls, earlier.stalls),
            (self.hits, earlier.hits),
            (self.miss_local, earlier.miss_local),
            (self.miss_remote, earlier.miss_remote),
            (self.miss_all, earlier.miss_all),
            (self.sb_stalls, earlier.sb_stalls),
            (self.store_miss_local, earlier.store_miss_local),
            (self.store_miss_remote, earlier.store_miss_remote),
            (self.store_miss_all, earlier.store_miss_all),
        ]
        .iter()
        .filter(|(now, then)| now < then)
        .count() as u64
    }

    /// Total LLC misses, regardless of which counters the family exposes.
    pub(crate) fn misses(self) -> u64 {
        if self.miss_all > 0 {
            self.miss_all
        } else {
            self.miss_local + self.miss_remote
        }
    }

    /// Total store misses, regardless of which counters the family
    /// exposes (the store-side analogue of [`Snap::misses`]).
    pub(crate) fn store_misses(self) -> u64 {
        if self.store_miss_all > 0 {
            self.store_miss_all
        } else {
            self.store_miss_local + self.store_miss_remote
        }
    }
}

/// The Quartz emulator (user-mode library + kernel module).
///
/// Construct with [`Quartz::new`], install into an engine with
/// [`Quartz::attach`], and use the persistent-memory API
/// ([`Quartz::pmalloc`], [`Quartz::pflush`], …) from workload code. See
/// the [crate-level documentation](crate) for a complete example.
pub struct Quartz {
    pub(crate) config: QuartzConfig,
    pub(crate) mem: Arc<MemorySystem>,
    pub(crate) platform: Platform,
    pub(crate) kmod: KernelModule,
    /// Node hosting virtual NVM (`pmalloc` target).
    pub(crate) nvm_node: NodeId,
    /// Measured average local-DRAM latency (ns).
    pub(crate) dram_local_ns: f64,
    /// Measured average remote-DRAM latency (ns).
    pub(crate) dram_remote_ns: f64,
    /// `W` of Eq. 3 (DRAM / L3 latency ratio).
    pub(crate) w_ratio: f64,
    /// Sharded per-thread emulator state (see [`crate::registry`]).
    pub(crate) registry: SlotRegistry,
    /// Lock-free graceful-degradation accounting (see
    /// [`crate::stats::DegradationStats`]).
    pub(crate) degradation: Arc<DegradationCounters>,
    pub(crate) init_time: Mutex<Duration>,
    /// Per-epoch trace, populated when enabled (diagnostics; the paper's
    /// statistics "provide useful feedback to the user" for epoch-size
    /// tuning, and the trace is the finest-grained form of it).
    pub(crate) trace: Mutex<Option<Vec<EpochRecord>>>,
}

impl Quartz {
    /// Validates the configuration against the machine and builds the
    /// emulator.
    ///
    /// # Errors
    ///
    /// * [`QuartzError::TwoMemoryUnsupported`] on Sandy Bridge in
    ///   two-memory mode (no local/remote miss split, paper §3.3),
    /// * [`QuartzError::NoSiblingSocket`] without a second socket in
    ///   two-memory mode,
    /// * [`QuartzError::TargetFasterThanSubstrate`] if the requested NVM
    ///   latency is below the DRAM the emulation runs on.
    pub fn new(config: QuartzConfig, mem: Arc<MemorySystem>) -> Result<Arc<Self>, QuartzError> {
        let platform = mem.platform().clone();
        let params = platform.arch_params();
        let dram_local_ns = params.local_dram_ns.avg_ns as f64;
        let dram_remote_ns = params.remote_dram_ns.avg_ns as f64;
        let nvm_node = match config.memory_mode {
            MemoryMode::PmOnly => platform.topology().node_of_socket(SocketId(0)),
            MemoryMode::TwoMemory => {
                if !params.has_local_remote_miss_split() {
                    return Err(QuartzError::TwoMemoryUnsupported { arch: params.arch });
                }
                let sibling = platform
                    .topology()
                    .sibling_socket(SocketId(0))
                    .ok_or(QuartzError::NoSiblingSocket)?;
                platform.topology().node_of_socket(sibling)
            }
        };
        let substrate_ns = match config.memory_mode {
            MemoryMode::PmOnly => dram_local_ns,
            MemoryMode::TwoMemory => dram_remote_ns,
        };
        if config.target.read_latency_ns < substrate_ns {
            return Err(QuartzError::TargetFasterThanSubstrate {
                requested_ns: config.target.read_latency_ns,
                substrate_ns,
            });
        }
        let kmod = platform.kernel_module();
        let num_cores = platform.topology().num_cores();
        Ok(Arc::new(Quartz {
            w_ratio: params.w_ratio(),
            config,
            platform,
            kmod,
            nvm_node,
            dram_local_ns,
            dram_remote_ns,
            mem,
            registry: SlotRegistry::with_capacity(num_cores),
            degradation: Arc::new(DegradationCounters::default()),
            init_time: Mutex::new(Duration::ZERO),
            trace: Mutex::new(None),
        }))
    }

    /// The configuration in effect.
    pub fn config(&self) -> &QuartzConfig {
        &self.config
    }

    /// The node `pmalloc` allocates from.
    pub fn nvm_node(&self) -> NodeId {
        self.nvm_node
    }

    /// Installs the emulator into an engine: hooks, the monitor timer,
    /// and DRAM bandwidth throttling. The equivalent of `LD_PRELOAD`ing
    /// the library and loading the kernel module.
    ///
    /// Each attach starts a run. The previous run's per-thread slots
    /// retire: they keep counting in [`Quartz::stats`] and
    /// [`Quartz::per_thread_stats`], while the new engine's threads,
    /// which reuse their thread ids, register fresh slots that the
    /// failure reaper alone may drain.
    ///
    /// # Errors
    ///
    /// Propagates thermal-register programming failures.
    pub fn attach(self: &Arc<Self>, engine: &Engine) -> Result<(), QuartzError> {
        self.registry.retire_all();
        engine.set_hooks(Arc::clone(self) as Arc<dyn Hooks>);

        // Monitor thread: periodically signal threads whose epoch
        // exceeded the maximum epoch length (paper §3.1, Fig. 5 step 2).
        // The age scan reads each slot's atomic `epoch_start` — no
        // per-thread lock — and signalling happens after the registry
        // read guard is dropped, so the monitor never serializes the
        // interposition hot path.
        let q = Arc::clone(self);
        engine.add_timer(self.config.monitor_period, move |api| {
            // The platform may drop or defer this firing (injected
            // scheduling faults). A dropped firing only postpones the
            // age check to the next period — epochs are then closed
            // late, never lost, because interposition points still fire.
            if let Some(inj) = q.platform.fault_injector() {
                match inj.timer_fault() {
                    TimerFault::None => {}
                    TimerFault::Drop => {
                        q.degradation.timer_drops.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    TimerFault::Late(extra) => {
                        q.degradation
                            .timer_deferrals
                            .fetch_add(1, Ordering::Relaxed);
                        api.defer_next(extra);
                    }
                }
            }
            let live = api.live_threads().to_vec();
            let tids: Vec<usize> = live.iter().map(|t| t.0).collect();
            let starts = q.registry.epoch_starts(&tids); // guard dropped inside
            for (tid, start) in live.into_iter().zip(starts) {
                let Some(start) = start else { continue };
                let age = api.fire_time().saturating_duration_since(start);
                if age > q.config.max_epoch {
                    api.signal_thread(tid);
                }
            }
        });

        // Bandwidth emulation: program the thermal registers (§2.1).
        if let Some(bw) = self.config.target.bandwidth_gbps {
            let peak = self.mem.config().node_peak_bw_gbps();
            let register = model::throttle_register_for(bw, peak);
            match self.config.memory_mode {
                MemoryMode::PmOnly => {
                    for s in 0..self.platform.topology().num_sockets() {
                        self.program_throttle_verified(SocketId(s), register)?;
                    }
                }
                MemoryMode::TwoMemory => {
                    // Only virtual NVM is throttled; local DRAM keeps
                    // full bandwidth.
                    self.program_throttle_verified(SocketId(self.nvm_node.0), register)?;
                }
            }
        }

        // Library initialization goes to the init clock, never to
        // workload time.
        *self.init_time.lock() = self
            .platform
            .cycles(self.platform.op_costs().lib_init_cycles);
        Ok(())
    }

    /// Programs a throttle target on every channel of `socket` with a
    /// readback-verify + re-program loop: `THRT_PWR_DIMM` writes on a
    /// hostile platform can be silently dropped or apply perturbed
    /// values, and the register is the only ground truth. After
    /// [`THERMAL_RETRIES`] failed verifies the target is accepted
    /// *degraded* (bandwidth will be off by the perturbation, which the
    /// linear throttle model bounds) rather than failing the attach.
    fn program_throttle_verified(
        &self,
        socket: SocketId,
        register: u32,
    ) -> Result<(), QuartzError> {
        let mut attempts = 0;
        loop {
            self.kmod.set_dimm_throttle(socket, register)?;
            let thermal = self.kmod.thermal();
            let verified = (0..thermal.channels_per_socket())
                .all(|ch| thermal.throttle_value(socket, ch) == register);
            if verified {
                return Ok(());
            }
            self.degradation
                .thermal_write_faults
                .fetch_add(1, Ordering::Relaxed);
            if attempts >= THERMAL_RETRIES {
                self.degradation
                    .thermal_gave_up
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            attempts += 1;
            self.degradation
                .thermal_retries
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Enables or disables per-epoch tracing. Enabling clears any
    /// previous trace.
    pub fn set_epoch_trace(&self, enabled: bool) {
        *self.trace.lock() = enabled.then(Vec::new);
    }

    /// The epoch trace collected so far (empty if tracing is disabled).
    pub fn epoch_trace(&self) -> Vec<EpochRecord> {
        self.trace.lock().clone().unwrap_or_default()
    }

    /// A snapshot of aggregate emulator statistics over every thread
    /// registered, including threads of earlier runs on other engines.
    ///
    /// Slot locks are taken one at a time (never while holding the
    /// registry guard), so aggregation can run concurrently with the
    /// workload without stalling more than one thread's hot path.
    pub fn stats(&self) -> QuartzStats {
        let mut totals = ThreadStats::default();
        for slot in self.registry.snapshot() {
            let s = {
                let owner = slot.lock_owner();
                owner.stats.clone()
            };
            totals.epochs_monitor += s.epochs_monitor;
            totals.epochs_lock += s.epochs_lock;
            totals.epochs_unlock += s.epochs_unlock;
            totals.epochs_notify += s.epochs_notify;
            totals.epochs_barrier += s.epochs_barrier;
            totals.epochs_atomic += s.epochs_atomic;
            totals.epochs_exit += s.epochs_exit;
            totals.skipped_min_epoch += s.skipped_min_epoch;
            totals.injected += s.injected;
            totals.overhead += s.overhead;
            totals.carried_overhead += s.carried_overhead;
            totals.pflush_delay += s.pflush_delay;
            totals.pflushes += s.pflushes;
            totals.lines_dirty += s.lines_dirty;
            totals.lines_in_wpq += s.lines_in_wpq;
            totals.lines_durable += s.lines_durable;
            totals.atomic_ops += s.atomic_ops;
            totals.cas_handoffs += s.cas_handoffs;
            totals.cas_handoff_wait += s.cas_handoff_wait;
            totals.write_term += s.write_term;
            totals.lock_wait_ns += s.lock_wait_ns;
            totals.lock_acquisitions += s.lock_acquisitions;
        }
        QuartzStats {
            threads: self.registry.registered(),
            init_time: *self.init_time.lock(),
            totals,
            degradation: self.degradation.snapshot(),
        }
    }

    /// Per-thread statistics of every thread registered, in
    /// registration order (feedback for epoch-size tuning and contention
    /// diagnosis).
    pub fn per_thread_stats(&self) -> Vec<ThreadStats> {
        let mut slots = self.registry.snapshot();
        slots.sort_by_key(|s| s.slot);
        slots
            .iter()
            .map(|slot| slot.lock_owner().stats.clone())
            .collect()
    }

    /// Reads the epoch counters, retrying transient `rdpmc` failures
    /// with exponential backoff (each retry is charged at a doubled
    /// `rdpmc` cost, modeling the pipeline-drain the retry pays for).
    /// After [`PMU_READ_RETRIES`] failures a slot falls back to its
    /// value in `prev` — the previous epoch-boundary snapshot — which
    /// makes the failing counter contribute a *zero* delta for this
    /// epoch (under-injection, the safe direction) instead of a
    /// garbage one. Non-transient errors still panic: they mean the
    /// counters were never programmed, which is a setup bug.
    fn read_counters(
        &self,
        ctx: &mut ThreadCtx,
        counters: StandardCounters,
        prev: Option<Snap>,
    ) -> Snap {
        let read = |ctx: &mut ThreadCtx, slot: usize, fallback: u64| -> u64 {
            let mut attempt = 0u32;
            loop {
                let r = match self.config.counter_access {
                    CounterAccess::Rdpmc => ctx.rdpmc(slot),
                    CounterAccess::Papi => ctx.rdpmc_papi(slot),
                };
                match r {
                    Ok(v) => {
                        if attempt > 0 {
                            self.degradation
                                .pmu_read_retries
                                .fetch_add(u64::from(attempt), Ordering::Relaxed);
                        }
                        return v;
                    }
                    Err(PlatformError::TransientPmuRead { .. }) => {
                        self.degradation
                            .pmu_read_faults
                            .fetch_add(1, Ordering::Relaxed);
                        if attempt >= PMU_READ_RETRIES {
                            self.degradation
                                .pmu_reads_abandoned
                                .fetch_add(1, Ordering::Relaxed);
                            return fallback;
                        }
                        // Exponential backoff, charged as emulator
                        // overhead (and thus amortized into the delay).
                        ctx.charge(
                            self.platform
                                .cycles(self.platform.op_costs().rdpmc_cycles << attempt),
                        );
                        attempt += 1;
                    }
                    // INVARIANT: non-transient read errors mean the
                    // counters were never programmed — a setup bug in
                    // *this* crate, not a workload or platform fault.
                    // The panic unwinds through the engine's per-thread
                    // catch_unwind and surfaces as a contained
                    // `SimFailure::ThreadPanic`, not a process abort.
                    Err(e) => panic!("counters programmed at registration: {e}"),
                }
            }
        };
        let fb = prev.unwrap_or_default();
        let stalls = read(ctx, counters.stalls_l2_pending.slot, fb.stalls);
        let hits = read(ctx, counters.l3_hit.slot, fb.hits);
        let miss_local = counters
            .l3_miss_local
            .map(|c| read(ctx, c.slot, fb.miss_local))
            .unwrap_or(0);
        let miss_remote = counters
            .l3_miss_remote
            .map(|c| read(ctx, c.slot, fb.miss_remote))
            .unwrap_or(0);
        let miss_all = counters
            .l3_miss_all
            .map(|c| read(ctx, c.slot, fb.miss_all))
            .unwrap_or(0);
        // Store-side slots exist only under asymmetric programming, so
        // these reads — and the virtual time `rdpmc` charges — happen
        // exactly when the asymmetric model is on. A symmetric config
        // performs the same four reads as always, byte for byte.
        let sb_stalls = counters
            .store_stalls
            .map(|c| read(ctx, c.slot, fb.sb_stalls))
            .unwrap_or(0);
        let store_miss_local = counters
            .store_miss_local
            .map(|c| read(ctx, c.slot, fb.store_miss_local))
            .unwrap_or(0);
        let store_miss_remote = counters
            .store_miss_remote
            .map(|c| read(ctx, c.slot, fb.store_miss_remote))
            .unwrap_or(0);
        let store_miss_all = counters
            .store_miss_all
            .map(|c| read(ctx, c.slot, fb.store_miss_all))
            .unwrap_or(0);
        Snap {
            stalls,
            hits,
            miss_local,
            miss_remote,
            miss_all,
            sb_stalls,
            store_miss_local,
            store_miss_remote,
            store_miss_all,
        }
    }

    /// Computes the *read-side* injected delay (ns) for one epoch's
    /// counter deltas (Eq. 1 or Eq. 2; the asymmetric write term is
    /// computed separately by
    /// [`compute_write_delay_ns`](Self::compute_write_delay_ns)).
    pub(crate) fn compute_delay_ns(&self, d: Snap) -> f64 {
        let nvm = self.config.target.read_latency_ns;
        match (self.config.model, self.config.memory_mode) {
            (LatencyModelKind::Simple, MemoryMode::PmOnly) => {
                model::delay_simple_ns(d.misses(), self.dram_local_ns, nvm)
            }
            (LatencyModelKind::Simple, MemoryMode::TwoMemory) => {
                model::delay_simple_ns(d.miss_remote, self.dram_remote_ns, nvm)
            }
            (LatencyModelKind::StallBased, mode) => {
                let ldm_stall_cycles = model::stalls_from_counters(
                    d.stalls as f64,
                    d.hits as f64,
                    d.misses() as f64,
                    self.w_ratio,
                );
                let stall_ns = self
                    .platform
                    .frequency()
                    .cycles_to_duration(ldm_stall_cycles.round() as u64)
                    .as_ns_f64();
                match mode {
                    MemoryMode::PmOnly => {
                        model::delay_stall_based_ns(stall_ns, self.dram_local_ns, nvm)
                    }
                    MemoryMode::TwoMemory => {
                        let rem_ns = model::split_remote_stall_ns(
                            stall_ns,
                            d.miss_local,
                            d.miss_remote,
                            self.dram_local_ns,
                            self.dram_remote_ns,
                        );
                        model::delay_stall_based_ns(rem_ns, self.dram_remote_ns, nvm)
                    }
                }
            }
        }
    }

    /// Computes the asymmetric *write-side* delay (ns) for one epoch's
    /// deltas — the store-path Eq. 2 analogue over `RESOURCE_STALLS:SB`
    /// (or, under the simple model, store-miss counts). Zero whenever
    /// the asymmetric model is off: symmetric configs never program the
    /// store counters, so the deltas are structurally zero and the
    /// whole term short-circuits.
    ///
    /// Unlike the read side, the store-buffer stall count needs no
    /// Eq. 3-style hit/miss weighting: `RESOURCE_STALLS:SB` only fires
    /// on buffer-full back-pressure, which is already purely the DRAM-
    /// bound share of store traffic.
    pub(crate) fn compute_write_delay_ns(&self, d: Snap) -> f64 {
        let Some(wlat) = self.config.target.write_latency_ns else {
            return 0.0;
        };
        match (self.config.model, self.config.memory_mode) {
            (LatencyModelKind::Simple, MemoryMode::PmOnly) => {
                model::write_delay_simple_ns(d.store_misses(), self.dram_local_ns, wlat)
            }
            (LatencyModelKind::Simple, MemoryMode::TwoMemory) => {
                model::write_delay_simple_ns(d.store_miss_remote, self.dram_remote_ns, wlat)
            }
            (LatencyModelKind::StallBased, mode) => {
                let sb_ns = self
                    .platform
                    .frequency()
                    .cycles_to_duration(d.sb_stalls)
                    .as_ns_f64();
                match mode {
                    MemoryMode::PmOnly => {
                        model::delay_stall_based_ns(sb_ns, self.dram_local_ns, wlat)
                    }
                    MemoryMode::TwoMemory => {
                        // §3.3 transplanted onto the store path: weight
                        // the SB stall time by latency-weighted store-
                        // miss locality, inflate only the remote share.
                        let rem_ns = model::split_remote_stall_ns(
                            sb_ns,
                            d.store_miss_local,
                            d.store_miss_remote,
                            self.dram_local_ns,
                            self.dram_remote_ns,
                        );
                        model::delay_stall_based_ns(rem_ns, self.dram_remote_ns, wlat)
                    }
                }
            }
        }
    }

    /// [`compute_write_delay_ns`](Self::compute_write_delay_ns) with the
    /// same sanity bounds as the read side: SB stall cycles clamp to the
    /// epoch budget, the resulting delay to the budget-implied maximum
    /// at the *write* latency. The simple model is exempt for the same
    /// ablation reason.
    pub(crate) fn compute_write_delay_ns_bounded(
        &self,
        d: Snap,
        budget_cycles: u64,
    ) -> (f64, bool) {
        let Some(wlat) = self.config.target.write_latency_ns else {
            return (0.0, false);
        };
        match (self.config.model, self.config.memory_mode) {
            (LatencyModelKind::Simple, _) => (self.compute_write_delay_ns(d), false),
            (LatencyModelKind::StallBased, mode) => {
                let (sb_cycles, stall_clamped) =
                    model::clamp_stall_cycles(d.sb_stalls as f64, budget_cycles);
                if stall_clamped {
                    self.degradation
                        .stall_clamps
                        .fetch_add(1, Ordering::Relaxed);
                }
                let freq = self.platform.frequency();
                let sb_ns = freq
                    .cycles_to_duration(sb_cycles.round() as u64)
                    .as_ns_f64();
                let (delay, substrate) = match mode {
                    MemoryMode::PmOnly => (
                        model::delay_stall_based_ns(sb_ns, self.dram_local_ns, wlat),
                        self.dram_local_ns,
                    ),
                    MemoryMode::TwoMemory => {
                        let rem_ns = model::split_remote_stall_ns(
                            sb_ns,
                            d.store_miss_local,
                            d.store_miss_remote,
                            self.dram_local_ns,
                            self.dram_remote_ns,
                        );
                        (
                            model::delay_stall_based_ns(rem_ns, self.dram_remote_ns, wlat),
                            self.dram_remote_ns,
                        )
                    }
                };
                let budget_ns = freq.cycles_to_duration(budget_cycles).as_ns_f64();
                let (delay, delay_clamped) =
                    model::clamp_delay_ns(delay, budget_ns, substrate, wlat);
                if delay_clamped {
                    self.degradation
                        .delay_clamps
                        .fetch_add(1, Ordering::Relaxed);
                }
                (delay, stall_clamped || delay_clamped)
            }
        }
    }

    /// [`compute_delay_ns`](Self::compute_delay_ns) with the §3-model
    /// sanity bounds applied: the derived `LDM_STALL` is clamped to the
    /// epoch's cycle budget (a core cannot stall longer than the epoch
    /// lasted — beyond it the counters are corrupt) and the resulting
    /// delay to the budget-implied maximum. Returns the bounded delay
    /// and whether any clamp fired (the caller treats that as a signal
    /// to re-calibrate the counter baseline).
    ///
    /// The *simple* model is exempt from the budget: Eq. 1 assumes every
    /// miss serialized and legitimately over-injects under MLP (Fig. 2)
    /// — that over-injection is the entire point of the ablation, so
    /// clamping it would erase the effect being studied.
    pub(crate) fn compute_delay_ns_bounded(&self, d: Snap, budget_cycles: u64) -> (f64, bool) {
        let nvm = self.config.target.read_latency_ns;
        match (self.config.model, self.config.memory_mode) {
            (LatencyModelKind::Simple, _) => (self.compute_delay_ns(d), false),
            (LatencyModelKind::StallBased, mode) => {
                let ldm_stall_cycles = model::stalls_from_counters(
                    d.stalls as f64,
                    d.hits as f64,
                    d.misses() as f64,
                    self.w_ratio,
                );
                let (ldm_stall_cycles, stall_clamped) =
                    model::clamp_stall_cycles(ldm_stall_cycles, budget_cycles);
                if stall_clamped {
                    self.degradation
                        .stall_clamps
                        .fetch_add(1, Ordering::Relaxed);
                }
                let freq = self.platform.frequency();
                let stall_ns = freq
                    .cycles_to_duration(ldm_stall_cycles.round() as u64)
                    .as_ns_f64();
                let (delay, substrate) = match mode {
                    MemoryMode::PmOnly => (
                        model::delay_stall_based_ns(stall_ns, self.dram_local_ns, nvm),
                        self.dram_local_ns,
                    ),
                    MemoryMode::TwoMemory => {
                        let rem_ns = model::split_remote_stall_ns(
                            stall_ns,
                            d.miss_local,
                            d.miss_remote,
                            self.dram_local_ns,
                            self.dram_remote_ns,
                        );
                        (
                            model::delay_stall_based_ns(rem_ns, self.dram_remote_ns, nvm),
                            self.dram_remote_ns,
                        )
                    }
                };
                let budget_ns = freq.cycles_to_duration(budget_cycles).as_ns_f64();
                let (delay, delay_clamped) =
                    model::clamp_delay_ns(delay, budget_ns, substrate, nvm);
                if delay_clamped {
                    self.degradation
                        .delay_clamps
                        .fetch_add(1, Ordering::Relaxed);
                }
                (delay, stall_clamped || delay_clamped)
            }
        }
    }

    /// Closes the current epoch: reads counters, evaluates the model,
    /// amortizes overhead, injects the delay, and opens a new epoch
    /// (paper Fig. 5 steps 3–6). A thread that never registered (hooks
    /// disabled mid-run) has no epoch to close.
    pub(crate) fn end_epoch(&self, ctx: &mut ThreadCtx, reason: EpochReason) {
        self.registry.with_slot(ctx.thread_id().0, |slot| {
            self.end_epoch_on(slot, ctx, reason, |_| {});
        });
    }

    /// The epoch-close critical section, parameterized over a midpoint
    /// probe invoked between the counter read and the state update.
    ///
    /// The probe exists so tests can prove the section is a **single
    /// acquisition**: the seed's implementation dropped the state lock
    /// at exactly this point (check-then-act), letting a concurrent
    /// close charge the same counter delta twice. Here `owner` is held
    /// across the whole read-compute-update sequence, so the window is
    /// structurally gone. Production callers pass a no-op that inlines
    /// away.
    pub(crate) fn end_epoch_on(
        &self,
        slot: &ThreadSlot,
        ctx: &mut ThreadCtx,
        reason: EpochReason,
        midpoint: impl FnOnce(&ThreadSlot),
    ) {
        // The one-and-only shared-state acquisition for this event.
        let mut owner = slot.lock_owner();
        let epoch_opened = slot.epoch_start();

        let t0 = ctx.now();
        let prev = owner.snap;
        let cur = self.read_counters(ctx, owner.counters, Some(prev));
        ctx.charge(
            self.platform
                .cycles(self.platform.op_costs().epoch_compute_cycles),
        );
        // Counters are 48 bits: a read below the previous boundary is a
        // wrap, which the delta math below absorbs (mod 2^48) but the
        // degradation block still reports.
        let wraps = cur.wraps_since(prev);
        if wraps > 0 {
            self.degradation
                .counter_wraps
                .fetch_add(wraps, Ordering::Relaxed);
        }
        // Compute the delta exactly once; it feeds both the delay model
        // and the trace record below (the seed recomputed it against an
        // already-overwritten `snap`, so the trace could log a different
        // delta than the one charged).
        let d = cur.delta(prev);
        midpoint(slot);
        // The epoch's cycle budget: the wall span since the epoch opened
        // plus this close's own bookkeeping, widened by the counter-
        // fidelity margin. A derived stall time above it is physically
        // impossible and marks the counters as corrupt.
        let costs = self.platform.op_costs();
        let span_cycles = self
            .platform
            .frequency()
            .duration_to_cycles(t0.saturating_duration_since(epoch_opened));
        // The asymmetric model really performs extra rdpmc reads per
        // boundary, so they join the budget; store_len() is 0 in the
        // symmetric configuration, where the budget must stay the
        // historical 4-read value byte for byte.
        let n_reads = 4 + owner.counters.store_len() as u64;
        let budget = model::epoch_budget_cycles_for(
            span_cycles,
            costs.epoch_compute_cycles,
            costs.rdpmc_cycles,
            n_reads,
        );
        let (read_ns, read_clamped) = self.compute_delay_ns_bounded(d, budget);
        let (write_ns, write_clamped) = self.compute_write_delay_ns_bounded(d, budget);
        let clamped = read_clamped || write_clamped;
        let write_term = Duration::from_ns_f64(write_ns);
        let delay = Duration::from_ns_f64(read_ns) + write_term;

        // Amortize emulator overhead into the injected delay (§3.2):
        // overhead already slowed the thread down, so it is deducted
        // from the delay; any excess is carried into upcoming epochs.
        if clamped {
            // The counters this epoch closed on are corrupt — a clamp
            // fired. Force a re-calibration: take a fresh baseline so the
            // next epoch deltas against a trusted read rather than the
            // corrupt one. The extra read's time folds into `overhead`
            // below and is amortized like any other bookkeeping.
            self.degradation
                .recalibrations
                .fetch_add(1, Ordering::Relaxed);
            owner.snap = self.read_counters(ctx, owner.counters, Some(cur));
        } else {
            owner.snap = cur;
        }
        let overhead = ctx.now().saturating_duration_since(t0);
        // The new epoch starts at the counter-read point, so the
        // injected spin below counts toward the next epoch's age:
        // the minimum-epoch check then gauges *emulated* time, and
        // with phases longer than the minimum epoch both the
        // lock-entry and lock-exit interpositions fire, keeping
        // outside-the-lock delay outside the lock (§2.3).
        slot.set_epoch_start(ctx.now());
        owner.stats.overhead += overhead;
        owner.stats.write_term += write_term;
        let carried = owner.stats.carried_overhead + overhead;
        let inject = delay.saturating_sub(carried);
        owner.stats.carried_overhead = carried.saturating_sub(delay);
        match reason {
            EpochReason::MonitorSignal => owner.stats.epochs_monitor += 1,
            EpochReason::MutexLock => owner.stats.epochs_lock += 1,
            EpochReason::MutexUnlock => owner.stats.epochs_unlock += 1,
            EpochReason::CondNotify => owner.stats.epochs_notify += 1,
            EpochReason::Barrier => owner.stats.epochs_barrier += 1,
            EpochReason::Atomic => owner.stats.epochs_atomic += 1,
            EpochReason::ThreadExit => owner.stats.epochs_exit += 1,
        }
        let injected = if self.config.inject_delays && !inject.is_zero() {
            owner.stats.injected += inject;
            inject
        } else {
            Duration::ZERO
        };
        drop(owner); // critical section ends before tracing and spinning

        if let Some(trace) = self.trace.lock().as_mut() {
            trace.push(EpochRecord {
                thread: ctx.thread_id().0,
                reason,
                closed_at: t0,
                stall_cycles: d.stalls,
                misses: d.misses(),
                computed_delay: delay,
                injected,
            });
        }

        if !injected.is_zero() {
            ctx.spin(injected);
        }
    }

    /// Interposition helper shared by unlock/notify: close the epoch only
    /// if it is older than the minimum epoch length (§3.1).
    ///
    /// The age check reads the slot's atomic `epoch_start` — no lock —
    /// and the close (or the skip accounting) then acquires the slot
    /// lock exactly once. The seed's separate `epoch_age` lock +
    /// `end_epoch` relock (and its re-check race) are gone.
    fn maybe_end_epoch(&self, ctx: &mut ThreadCtx, reason: EpochReason) {
        self.registry.with_slot(ctx.thread_id().0, |slot| {
            let age = ctx.now().saturating_duration_since(slot.epoch_start());
            if age >= self.config.min_epoch {
                self.end_epoch_on(slot, ctx, reason, |_| {});
            } else {
                slot.lock_owner().stats.skipped_min_epoch += 1;
            }
        });
    }
}

impl Hooks for Quartz {
    fn on_thread_start(&self, ctx: &mut ThreadCtx) {
        // Registration with the monitor: 300k cycles (paper §3.2).
        ctx.charge(
            self.platform
                .cycles(self.platform.op_costs().thread_register_cycles),
        );
        // A stale topology snapshot can claim the registering core does
        // not exist (hotplug races, cached sysfs reads). Re-read a few
        // times — each refresh charged like a clock read — and past the
        // budget trust the hardware over the snapshot: the core is
        // demonstrably alive, it is running this registration.
        let asymmetric = self.config.target.is_asymmetric();
        let mut counters = None;
        for _ in 0..TOPOLOGY_REFRESHES {
            let attempt = if asymmetric {
                self.kmod.try_program_asymmetric_counters(ctx.core())
            } else {
                self.kmod.try_program_standard_counters(ctx.core())
            };
            match attempt {
                Ok(c) => {
                    counters = Some(c);
                    break;
                }
                Err(PlatformError::StaleTopology { .. }) => {
                    self.degradation
                        .topology_stale_reads
                        .fetch_add(1, Ordering::Relaxed);
                    ctx.charge(
                        self.platform
                            .cycles(self.platform.op_costs().clock_gettime_cycles),
                    );
                    self.degradation
                        .topology_refreshes
                        .fetch_add(1, Ordering::Relaxed);
                }
                // INVARIANT: any error other than StaleTopology is a
                // mis-built platform (setup bug); contained by the
                // engine's catch_unwind as `SimFailure::ThreadPanic`.
                Err(e) => panic!("counter programming failed at registration: {e}"),
            }
        }
        let counters = counters.unwrap_or_else(|| {
            if asymmetric {
                self.kmod.program_asymmetric_counters(ctx.core())
            } else {
                self.kmod.program_standard_counters(ctx.core())
            }
        });
        let snap = self.read_counters(ctx, counters, None);
        self.registry
            .register(ctx.thread_id().0, counters, snap, ctx.now());
    }

    fn on_thread_exit(&self, ctx: &mut ThreadCtx) {
        self.end_epoch(ctx, EpochReason::ThreadExit);
    }

    fn before_mutex_lock(&self, ctx: &mut ThreadCtx) {
        if self.config.sync_interposition {
            self.maybe_end_epoch(ctx, EpochReason::MutexLock);
        }
    }

    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        if self.config.sync_interposition {
            self.maybe_end_epoch(ctx, EpochReason::MutexUnlock);
        }
    }

    fn before_cond_notify(&self, ctx: &mut ThreadCtx) {
        if self.config.sync_interposition {
            self.maybe_end_epoch(ctx, EpochReason::CondNotify);
        }
    }

    fn before_barrier(&self, ctx: &mut ThreadCtx) {
        if self.config.sync_interposition {
            self.maybe_end_epoch(ctx, EpochReason::Barrier);
        }
    }

    /// The CAS/fence seams of lock-free code (the paper's §6 gap).
    ///
    /// `Before` fires ahead of a publishing operation: the epoch settles
    /// *there*, so delay accumulated since the last boundary lands
    /// before the value becomes visible and therefore propagates to
    /// whichever thread observes the publication — exactly the
    /// mutex-release rule of Fig. 4 (b), transplanted onto atomics.
    /// `After` carries the outcome and any cross-thread hand-off edge:
    /// a successful CAS that observed another thread's publication is
    /// the lock-free release→acquire pair, and the visibility stall the
    /// engine charged for it is accounted here.
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
        if !self.config.sync_interposition || !self.config.atomic_interposition {
            return;
        }
        match ev.phase {
            AtomicPhase::Before => self.maybe_end_epoch(ctx, EpochReason::Atomic),
            AtomicPhase::After => {
                self.registry.with_slot(ctx.thread_id().0, |slot| {
                    let mut owner = slot.lock_owner();
                    owner.stats.atomic_ops += 1;
                    if !ev.handoff_wait.is_zero() {
                        owner.stats.cas_handoff_wait += ev.handoff_wait;
                    }
                    if ev.outcome == CasOutcome::Success && ev.handoff_from.is_some() {
                        owner.stats.cas_handoffs += 1;
                    }
                });
            }
        }
    }

    fn on_signal(&self, ctx: &mut ThreadCtx) {
        self.maybe_end_epoch(ctx, EpochReason::MonitorSignal);
    }

    /// The failure reaper: a contained [`SimFailure`] leaves dead
    /// threads' slots in the registry mid-epoch — possibly with
    /// undrained pending flushes, possibly with the owner lock still
    /// held by a thread the engine had to detach. Drain them all so
    /// the shared runtime's aggregates are not poisoned for subsequent
    /// runs in this process, and record an epoch-state sanity check in
    /// [`DegradationStats`](crate::stats::DegradationStats).
    ///
    /// Runs on the host thread with no engine lock held; takes the
    /// registry write lock (released before any slot lock) and then at
    /// most one slot lock at a time — the same ordering as aggregation
    /// (rules 1–2 in the `registry` module docs).
    fn on_sim_failure(&self, failure: &SimFailure) {
        let reaped = self.registry.reap_all();
        for slot in &reaped {
            self.degradation
                .orphan_slots_reaped
                .fetch_add(1, Ordering::Relaxed);
            match slot.try_lock_owner() {
                None => {
                    // Owner lock held by an unreachable (detached hung)
                    // thread: the slot's epoch state is unknowable.
                    self.degradation
                        .epoch_state_anomalies
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some(mut owner) => {
                    // A dead thread that never reached `pcommit` leaves
                    // queued flush completions behind; crossing them
                    // into a later run would corrupt its durability
                    // accounting.
                    if !owner.pending_flushes.is_empty() {
                        owner.pending_flushes.clear();
                        self.degradation
                            .epoch_state_anomalies
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        let _ = failure;
    }
}

impl std::fmt::Debug for Quartz {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Quartz")
            .field("config", &self.config)
            .field("nvm_node", &self.nvm_node)
            .finish_non_exhaustive()
    }
}
