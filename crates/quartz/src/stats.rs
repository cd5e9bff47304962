//! Emulator statistics and tuning feedback.
//!
//! The paper augments Quartz with "specially designed statistics" that
//! report whether the epoch-processing overhead was amortized entirely
//! and whether adjusting the epoch size may improve accuracy (§3.2).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use quartz_platform::time::Duration;

use crate::json::Json;

/// Why an epoch was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EpochReason {
    /// The monitor signalled the thread (max epoch exceeded).
    MonitorSignal,
    /// A mutex acquire interposition.
    MutexLock,
    /// A mutex release interposition.
    MutexUnlock,
    /// A condition-variable notify interposition.
    CondNotify,
    /// A barrier-entry interposition (OpenMP-style synchronization).
    Barrier,
    /// A publishing atomic-operation interposition (the CAS/fence seams
    /// of lock-free code — the paper's §6 atomics gap). The epoch
    /// settles *before* the store/CAS/fence publishes, so accumulated
    /// NVM delay lands before the value becomes visible to other
    /// threads, mirroring the mutex-release rule of Fig. 4 (b).
    Atomic,
    /// The thread exited.
    ThreadExit,
}

/// Per-thread accounting, aggregated into [`QuartzStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Epochs closed by the monitor.
    pub epochs_monitor: u64,
    /// Epochs closed at mutex acquires.
    pub epochs_lock: u64,
    /// Epochs closed at mutex releases.
    pub epochs_unlock: u64,
    /// Epochs closed at condvar notifies.
    pub epochs_notify: u64,
    /// Epochs closed at barrier entries.
    pub epochs_barrier: u64,
    /// Epochs closed at publishing atomic operations (CAS/store/fence
    /// seams; 0 unless the workload uses simulated atomics).
    pub epochs_atomic: u64,
    /// Epochs closed at thread exit.
    pub epochs_exit: u64,
    /// Interposition points skipped because the epoch was younger than
    /// the minimum epoch length.
    pub skipped_min_epoch: u64,
    /// Total delay injected.
    pub injected: Duration,
    /// Total epoch-processing overhead (counter reads + model).
    pub overhead: Duration,
    /// Overhead not yet amortized against injected delays.
    pub carried_overhead: Duration,
    /// Delay injected through `pflush` write emulation.
    pub pflush_delay: Duration,
    /// Number of `pflush` calls.
    pub pflushes: u64,
    /// Host-side nanoseconds spent *waiting* to acquire this thread's
    /// slot lock (contention with aggregation/diagnostics). Pure
    /// emulator-implementation telemetry — not virtual time.
    pub lock_wait_ns: u64,
    /// Slot-lock acquisitions (one per interposition event that touched
    /// shared per-thread state).
    pub lock_acquisitions: u64,
    /// Cache lines still dirty in the cache domain at the reporting
    /// instant (filled by crash-consistency runs; 0 otherwise).
    pub lines_dirty: u64,
    /// Cache lines with a write-back in the write-pending queue at the
    /// reporting instant.
    pub lines_in_wpq: u64,
    /// Cache lines durable (write-back completed) at the reporting
    /// instant.
    pub lines_durable: u64,
    /// Interposed atomic operations observed (After-phase events; 0
    /// unless the workload uses simulated atomics).
    pub atomic_ops: u64,
    /// Successful compare-exchanges that observed another thread's
    /// publication — the lock-free analogue of a mutex release→acquire
    /// hand-off edge.
    pub cas_handoffs: u64,
    /// Virtual time this thread spent floored behind other threads'
    /// atomic publications (the visibility stall charged at hand-off
    /// edges).
    pub cas_handoff_wait: Duration,
    /// Share of the computed epoch delay contributed by the asymmetric
    /// write term (store-side Eq. 2 over `RESOURCE_STALLS:SB`). Zero
    /// unless the target sets `write_latency_ns`.
    pub write_term: Duration,
}

impl ThreadStats {
    /// Total epochs closed.
    pub fn epochs(&self) -> u64 {
        self.epochs_monitor
            + self.epochs_lock
            + self.epochs_unlock
            + self.epochs_notify
            + self.epochs_barrier
            + self.epochs_atomic
            + self.epochs_exit
    }

    /// The per-thread accounting as a JSON object.
    ///
    /// Every field is a JSON number, always present, in a fixed key
    /// order; virtual durations are exported as exact integer
    /// picoseconds (`*_ps` keys), so structured runs can be
    /// byte-compared across hosts and job counts.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("epochs", Json::Int(self.epochs())),
            ("epochs_monitor", Json::Int(self.epochs_monitor)),
            ("epochs_lock", Json::Int(self.epochs_lock)),
            ("epochs_unlock", Json::Int(self.epochs_unlock)),
            ("epochs_notify", Json::Int(self.epochs_notify)),
            ("epochs_barrier", Json::Int(self.epochs_barrier)),
            ("epochs_exit", Json::Int(self.epochs_exit)),
            ("skipped_min_epoch", Json::Int(self.skipped_min_epoch)),
            ("injected_ps", Json::Int(self.injected.as_ps())),
            ("overhead_ps", Json::Int(self.overhead.as_ps())),
            (
                "carried_overhead_ps",
                Json::Int(self.carried_overhead.as_ps()),
            ),
            ("pflush_delay_ps", Json::Int(self.pflush_delay.as_ps())),
            ("pflushes", Json::Int(self.pflushes)),
            ("lock_wait_ns", Json::Int(self.lock_wait_ns)),
            ("lock_acquisitions", Json::Int(self.lock_acquisitions)),
            ("lines_dirty", Json::Int(self.lines_dirty)),
            ("lines_in_wpq", Json::Int(self.lines_in_wpq)),
            ("lines_durable", Json::Int(self.lines_durable)),
            ("epochs_atomic", Json::Int(self.epochs_atomic)),
            ("atomic_ops", Json::Int(self.atomic_ops)),
            ("cas_handoffs", Json::Int(self.cas_handoffs)),
            (
                "cas_handoff_wait_ps",
                Json::Int(self.cas_handoff_wait.as_ps()),
            ),
            ("write_term_ps", Json::Int(self.write_term.as_ps())),
        ])
    }
}

/// Accounting of every graceful-degradation action the emulator took in
/// response to platform misbehaviour (injected or real): transient
/// counter-read failures, counter wraps, model-output clamps, forced
/// re-calibrations, thermal readback-verify retries, and monitor-timer
/// perturbations. All zero on a healthy platform.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Transient `rdpmc` failures observed (each triggers a retry).
    pub pmu_read_faults: u64,
    /// Successful retries after a transient failure.
    pub pmu_read_retries: u64,
    /// Counter reads abandoned after the retry budget; the epoch reused
    /// its previous snapshot (zero delta) instead of panicking.
    pub pmu_reads_abandoned: u64,
    /// 48-bit counter wraps detected by the wrap-aware delta math.
    pub counter_wraps: u64,
    /// Derived `LDM_STALL` values clamped to the epoch cycle budget.
    pub stall_clamps: u64,
    /// Injected delays clamped to the epoch's maximum meaningful delay.
    pub delay_clamps: u64,
    /// Forced counter re-calibrations (snapshot re-reads) after a clamp.
    pub recalibrations: u64,
    /// Thermal writes whose readback-verify found a wrong value.
    pub thermal_write_faults: u64,
    /// Thermal re-program attempts issued by the verify loop.
    pub thermal_retries: u64,
    /// Thermal targets accepted degraded after the retry budget.
    pub thermal_gave_up: u64,
    /// Monitor-timer firings dropped by the platform.
    pub timer_drops: u64,
    /// Monitor-timer firings deferred (late) by the platform.
    pub timer_deferrals: u64,
    /// Stale topology reads that excluded a live core at registration.
    pub topology_stale_reads: u64,
    /// Topology refreshes performed before registration succeeded.
    pub topology_refreshes: u64,
    /// Per-thread slots reaped after a contained simulation failure
    /// (deadlock/panic/hang): the orphaned state was cleared so the
    /// shared runtime stays healthy for subsequent runs in-process.
    pub orphan_slots_reaped: u64,
    /// Epoch-state inconsistencies found by the reaper's sanity check: a
    /// dead thread's slot left mid-epoch with undrained pending flushes,
    /// or a slot lock still held by an unreachable (detached) thread.
    pub epoch_state_anomalies: u64,
}

impl DegradationStats {
    /// Total faults *observed* (not the degradation actions taken).
    pub fn total_faults(&self) -> u64 {
        self.pmu_read_faults
            + self.counter_wraps
            + self.stall_clamps
            + self.delay_clamps
            + self.thermal_write_faults
            + self.timer_drops
            + self.timer_deferrals
            + self.topology_stale_reads
            + self.epoch_state_anomalies
    }

    /// The block as a JSON object (every field, in declaration order —
    /// see [`ThreadStats::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("total_faults", Json::Int(self.total_faults())),
            ("pmu_read_faults", Json::Int(self.pmu_read_faults)),
            ("pmu_read_retries", Json::Int(self.pmu_read_retries)),
            ("pmu_reads_abandoned", Json::Int(self.pmu_reads_abandoned)),
            ("counter_wraps", Json::Int(self.counter_wraps)),
            ("stall_clamps", Json::Int(self.stall_clamps)),
            ("delay_clamps", Json::Int(self.delay_clamps)),
            ("recalibrations", Json::Int(self.recalibrations)),
            ("thermal_write_faults", Json::Int(self.thermal_write_faults)),
            ("thermal_retries", Json::Int(self.thermal_retries)),
            ("thermal_gave_up", Json::Int(self.thermal_gave_up)),
            ("timer_drops", Json::Int(self.timer_drops)),
            ("timer_deferrals", Json::Int(self.timer_deferrals)),
            ("topology_stale_reads", Json::Int(self.topology_stale_reads)),
            ("topology_refreshes", Json::Int(self.topology_refreshes)),
            ("orphan_slots_reaped", Json::Int(self.orphan_slots_reaped)),
            (
                "epoch_state_anomalies",
                Json::Int(self.epoch_state_anomalies),
            ),
        ])
    }
}

/// Lock-free accumulator behind [`DegradationStats`]: degradation events
/// are recorded from the interposition hot path and the monitor timer,
/// so they must not reintroduce the global-lock contention the sharded
/// registry removed.
#[derive(Debug, Default)]
pub(crate) struct DegradationCounters {
    pub pmu_read_faults: AtomicU64,
    pub pmu_read_retries: AtomicU64,
    pub pmu_reads_abandoned: AtomicU64,
    pub counter_wraps: AtomicU64,
    pub stall_clamps: AtomicU64,
    pub delay_clamps: AtomicU64,
    pub recalibrations: AtomicU64,
    pub thermal_write_faults: AtomicU64,
    pub thermal_retries: AtomicU64,
    pub thermal_gave_up: AtomicU64,
    pub timer_drops: AtomicU64,
    pub timer_deferrals: AtomicU64,
    pub topology_stale_reads: AtomicU64,
    pub topology_refreshes: AtomicU64,
    pub orphan_slots_reaped: AtomicU64,
    pub epoch_state_anomalies: AtomicU64,
}

impl DegradationCounters {
    pub(crate) fn snapshot(&self) -> DegradationStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        DegradationStats {
            pmu_read_faults: ld(&self.pmu_read_faults),
            pmu_read_retries: ld(&self.pmu_read_retries),
            pmu_reads_abandoned: ld(&self.pmu_reads_abandoned),
            counter_wraps: ld(&self.counter_wraps),
            stall_clamps: ld(&self.stall_clamps),
            delay_clamps: ld(&self.delay_clamps),
            recalibrations: ld(&self.recalibrations),
            thermal_write_faults: ld(&self.thermal_write_faults),
            thermal_retries: ld(&self.thermal_retries),
            thermal_gave_up: ld(&self.thermal_gave_up),
            timer_drops: ld(&self.timer_drops),
            timer_deferrals: ld(&self.timer_deferrals),
            topology_stale_reads: ld(&self.topology_stale_reads),
            topology_refreshes: ld(&self.topology_refreshes),
            orphan_slots_reaped: ld(&self.orphan_slots_reaped),
            epoch_state_anomalies: ld(&self.epoch_state_anomalies),
        }
    }
}

/// One closed epoch, as recorded when tracing is enabled
/// ([`crate::Quartz::set_epoch_trace`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRecord {
    /// Thread the epoch belonged to.
    pub thread: usize,
    /// Why it closed.
    pub reason: EpochReason,
    /// Virtual instant the epoch closed (counter-read point).
    pub closed_at: quartz_platform::time::SimTime,
    /// Stall-cycle delta observed over the epoch.
    pub stall_cycles: u64,
    /// LLC-miss delta observed over the epoch.
    pub misses: u64,
    /// Delay the model computed.
    pub computed_delay: Duration,
    /// Delay actually injected after overhead amortization.
    pub injected: Duration,
}

/// Aggregated emulator statistics for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuartzStats {
    /// Threads registered with the monitor.
    pub threads: u64,
    /// Library initialization time (virtual; not charged to workload).
    pub init_time: Duration,
    /// Sum over threads.
    pub totals: ThreadStats,
    /// Graceful-degradation accounting (all zero on a healthy platform).
    pub degradation: DegradationStats,
}

impl QuartzStats {
    /// Whether every cycle of emulator overhead was hidden inside
    /// injected delays. When `false`, the workload ran slower than the
    /// model intended — the paper's feedback suggests increasing the
    /// epoch size or reducing synchronization frequency.
    pub fn overhead_fully_amortized(&self) -> bool {
        self.totals.carried_overhead.is_zero()
    }

    /// Overhead as a fraction of injected delay (0 when nothing was
    /// injected).
    pub fn overhead_ratio(&self) -> f64 {
        let injected = self.totals.injected.as_ns_f64();
        if injected <= 0.0 {
            return 0.0;
        }
        self.totals.overhead.as_ns_f64() / injected
    }

    /// The aggregated statistics as a JSON object: the run-level
    /// fields, the `totals` aggregate and the `degradation` block (see
    /// [`ThreadStats::to_json`] for the encoding rules).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("threads", Json::Int(self.threads)),
            ("init_time_ps", Json::Int(self.init_time.as_ps())),
            (
                "overhead_fully_amortized",
                Json::Bool(self.overhead_fully_amortized()),
            ),
            ("totals", self.totals.to_json()),
            ("degradation", self.degradation.to_json()),
        ])
    }
}

impl fmt::Display for QuartzStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "quartz statistics:")?;
        writeln!(f, "  threads registered : {}", self.threads)?;
        writeln!(f, "  init time          : {}", self.init_time)?;
        // The `atomic` bucket appears only when the workload used
        // simulated atomics, keeping mutex-only output byte-identical.
        let atomic_part = if self.totals.epochs_atomic > 0 {
            format!("atomic {}, ", self.totals.epochs_atomic)
        } else {
            String::new()
        };
        writeln!(
            f,
            "  epochs             : {} (monitor {}, lock {}, unlock {}, notify {}, barrier {}, {}exit {})",
            self.totals.epochs(),
            self.totals.epochs_monitor,
            self.totals.epochs_lock,
            self.totals.epochs_unlock,
            self.totals.epochs_notify,
            self.totals.epochs_barrier,
            atomic_part,
            self.totals.epochs_exit,
        )?;
        writeln!(
            f,
            "  skipped (min epoch): {}",
            self.totals.skipped_min_epoch
        )?;
        writeln!(f, "  injected delay     : {}", self.totals.injected)?;
        if !self.totals.write_term.is_zero() {
            writeln!(f, "  write term (asym)  : {}", self.totals.write_term)?;
        }
        writeln!(f, "  epoch overhead     : {}", self.totals.overhead)?;
        writeln!(
            f,
            "  pflush delay       : {} ({} flushes)",
            self.totals.pflush_delay, self.totals.pflushes
        )?;
        writeln!(
            f,
            "  state lock (host)  : {} acquisitions, {} ns waited",
            self.totals.lock_acquisitions, self.totals.lock_wait_ns
        )?;
        if self.totals.atomic_ops > 0 {
            writeln!(
                f,
                "  atomics            : {} ops, {} CAS hand-offs, {} visibility stall",
                self.totals.atomic_ops, self.totals.cas_handoffs, self.totals.cas_handoff_wait
            )?;
        }
        if self.degradation != DegradationStats::default() {
            let d = &self.degradation;
            writeln!(
                f,
                "  degradation        : {} faults (pmu {}, wraps {}, clamps {}+{}, thermal {}, timer {}+{}, topology {}), {} recalibrations",
                d.total_faults(),
                d.pmu_read_faults,
                d.counter_wraps,
                d.stall_clamps,
                d.delay_clamps,
                d.thermal_write_faults,
                d.timer_drops,
                d.timer_deferrals,
                d.topology_stale_reads,
                d.recalibrations,
            )?;
            if d.orphan_slots_reaped > 0 || d.epoch_state_anomalies > 0 {
                writeln!(
                    f,
                    "  failure reaping    : {} orphan slot(s) reaped, {} epoch-state anomalies",
                    d.orphan_slots_reaped, d.epoch_state_anomalies,
                )?;
            }
        }
        if self.overhead_fully_amortized() {
            writeln!(f, "  overhead fully amortized into injected delays")?;
        } else {
            writeln!(
                f,
                "  WARNING: {} of overhead not amortized — consider a larger epoch",
                self.totals.carried_overhead
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_totals() {
        let t = ThreadStats {
            epochs_monitor: 2,
            epochs_lock: 2,
            epochs_unlock: 3,
            epochs_notify: 1,
            epochs_exit: 1,
            ..ThreadStats::default()
        };
        assert_eq!(t.epochs(), 9);
    }

    #[test]
    fn amortization_flag() {
        let mut s = QuartzStats::default();
        assert!(s.overhead_fully_amortized());
        s.totals.carried_overhead = Duration::from_ns(5);
        assert!(!s.overhead_fully_amortized());
    }

    #[test]
    fn overhead_ratio() {
        let mut s = QuartzStats::default();
        assert_eq!(s.overhead_ratio(), 0.0);
        s.totals.injected = Duration::from_ns(1000);
        s.totals.overhead = Duration::from_ns(40);
        assert!((s.overhead_ratio() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn thread_stats_json_exports_every_field() {
        let t = ThreadStats {
            epochs_monitor: 1,
            epochs_lock: 2,
            injected: Duration::from_ns(3),
            pflushes: 4,
            lock_acquisitions: 5,
            ..ThreadStats::default()
        };
        let j = t.to_json().render();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"epochs\":3"));
        assert!(j.contains("\"epochs_monitor\":1"));
        assert!(j.contains("\"injected_ps\":3000"));
        assert!(j.contains("\"pflushes\":4"));
        assert!(j.contains("\"lock_acquisitions\":5"));
        // Deterministic encoding: same value, same bytes.
        assert_eq!(j, t.clone().to_json().render());
    }

    #[test]
    fn quartz_stats_json_nests_totals_and_threads() {
        let mut s = QuartzStats {
            threads: 2,
            ..QuartzStats::default()
        };
        s.totals.epochs_exit = 2;
        let j = s.to_json().render();
        assert!(j.contains("\"threads\":2"));
        assert!(j.contains("\"totals\":{\"epochs\":2,"));
        assert!(j.contains("\"epochs_exit\":2"));
        assert!(j.contains("\"overhead_fully_amortized\":true"));
    }

    #[test]
    fn degradation_block_appears_only_under_faults() {
        let mut s = QuartzStats::default();
        // Healthy run: the JSON block is present with every field 0; the
        // Display text leaves it out.
        let Json::Obj(fields) = s.degradation.to_json() else {
            unreachable!("the block is an object")
        };
        assert_eq!(fields.len(), 17);
        assert!(fields.iter().all(|(_, v)| *v == Json::Int(0)), "{fields:?}");
        let Json::Obj(top) = s.to_json() else {
            unreachable!("the stats are an object")
        };
        let block = ("degradation".to_string(), s.degradation.to_json());
        assert_eq!(top.last(), Some(&block));
        assert!(!s.to_string().contains("degradation"));
        s.degradation.pmu_read_faults = 2;
        s.degradation.pmu_read_retries = 2;
        s.degradation.counter_wraps = 1;
        s.degradation.stall_clamps = 1;
        s.degradation.recalibrations = 1;
        let j = s.to_json().render();
        assert!(j.contains("\"degradation\":{\"total_faults\":4,"));
        assert!(j.contains("\"pmu_read_retries\":2"));
        assert!(j.contains("\"counter_wraps\":1"));
        assert!(j.contains("\"recalibrations\":1"));
        assert!(s.to_string().contains("degradation"));
        // Pure-action degradation (retry bookkeeping with no observed
        // fault) still surfaces the block.
        let mut s2 = QuartzStats::default();
        s2.degradation.thermal_retries = 3;
        assert_eq!(s2.degradation.total_faults(), 0);
        assert!(s2.to_json().render().contains("\"thermal_retries\":3"));
    }

    #[test]
    fn reaper_fields_surface_in_json_display_and_totals() {
        let mut s = QuartzStats::default();
        s.degradation.orphan_slots_reaped = 2;
        s.degradation.epoch_state_anomalies = 1;
        // Anomalies are observed faults; reaped slots are actions.
        assert_eq!(s.degradation.total_faults(), 1);
        let j = s.to_json().render();
        assert!(j.contains("\"orphan_slots_reaped\":2"), "{j}");
        assert!(j.contains("\"epoch_state_anomalies\":1"), "{j}");
        let out = s.to_string();
        assert!(out.contains("2 orphan slot(s) reaped"), "{out}");
    }

    #[test]
    fn degradation_counters_snapshot_roundtrip() {
        let c = DegradationCounters::default();
        c.pmu_read_faults.store(7, Ordering::Relaxed);
        c.timer_drops.store(3, Ordering::Relaxed);
        c.topology_refreshes.store(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.pmu_read_faults, 7);
        assert_eq!(s.timer_drops, 3);
        assert_eq!(s.topology_refreshes, 2);
        assert_eq!(s.total_faults(), 10);
    }

    #[test]
    fn atomics_fields_appear_only_when_used() {
        // Mutex-only runs export the atomics fields as 0; the Display
        // text leaves them out.
        let idle = ThreadStats::default().to_json().render();
        assert!(
            idle.contains(concat!(
                ",\"epochs_atomic\":0,\"atomic_ops\":0,",
                "\"cas_handoffs\":0,\"cas_handoff_wait_ps\":0,"
            )),
            "{idle}"
        );
        assert!(!QuartzStats::default().to_string().contains("atomics"));
        let mut s = QuartzStats::default();
        s.totals.epochs_atomic = 2;
        s.totals.atomic_ops = 9;
        s.totals.cas_handoffs = 3;
        s.totals.cas_handoff_wait = Duration::from_ns(70);
        let j = s.totals.to_json().render();
        assert!(j.contains("\"epochs\":2"), "{j}");
        assert!(j.contains("\"epochs_atomic\":2"), "{j}");
        assert!(j.contains("\"atomic_ops\":9"), "{j}");
        assert!(j.contains("\"cas_handoffs\":3"), "{j}");
        assert!(j.contains("\"cas_handoff_wait_ps\":70000"), "{j}");
        let out = s.to_string();
        assert!(out.contains("barrier 0, atomic 2, exit 0"), "{out}");
        assert!(out.contains("9 ops, 3 CAS hand-offs"), "{out}");
    }

    #[test]
    fn write_term_appears_only_when_asymmetric() {
        // Symmetric runs export a zero write term; the Display text
        // leaves it out.
        assert!(ThreadStats::default()
            .to_json()
            .render()
            .ends_with(",\"write_term_ps\":0}"));
        assert!(!QuartzStats::default().to_string().contains("write term"));
        let mut s = QuartzStats::default();
        s.totals.write_term = Duration::from_ns(42);
        assert!(s
            .totals
            .to_json()
            .render()
            .ends_with(",\"write_term_ps\":42000}"));
        assert!(s.to_string().contains("write term (asym)"));
    }

    #[test]
    fn display_mentions_amortization() {
        let s = QuartzStats::default();
        let out = s.to_string();
        assert!(out.contains("amortized"));
        let mut s2 = s;
        s2.totals.carried_overhead = Duration::from_ns(7);
        assert!(s2.to_string().contains("WARNING"));
    }
}
