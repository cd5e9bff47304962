//! Emulator configuration.

use quartz_platform::time::Duration;

/// The NVM performance characteristics to emulate.
///
/// # The two write knobs
///
/// `write_delay_ns` and `write_latency_ns` are *different* knobs and
/// deliberately not coupled:
///
/// * `write_delay_ns` is the paper's §3.1 slow-write emulation: an extra
///   delay charged by **`pflush`** per cache line explicitly written back
///   to NVM. It models the synchronous cost of forcing a line out of the
///   cache, and only persistence code that flushes pays it.
/// * `write_latency_ns` activates the **asymmetric write model**: an
///   epoch-level Eq. 2-style term derived from store-side counters
///   (`RESOURCE_STALLS:SB` and the RFO/streaming-store misses), charging
///   ordinary posted stores whose buffer back-pressure the load-side
///   `STALLS_L2_PENDING` model cannot see. `None` (the default) keeps
///   the original symmetric model, byte for byte.
///
/// Flushed lines are charged once, by `pflush`, never again by the
/// asymmetric term: flush writebacks do not feed the store-miss counters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NvmTarget {
    /// Average NVM read latency in nanoseconds (`NVM_lat` in Eq. 1/2).
    pub read_latency_ns: f64,
    /// NVM bandwidth in GB/s; `None` leaves DRAM bandwidth unthrottled.
    pub bandwidth_gbps: Option<f64>,
    /// Extra delay injected by `pflush` per cache-line write to NVM, in
    /// nanoseconds (the paper's configurable slow-write emulation, §3.1).
    pub write_delay_ns: f64,
    /// Average NVM *write* latency in nanoseconds for the asymmetric
    /// write model (the store-side `NVM_lat` of the Eq. 2-style write
    /// term). `None` disables the asymmetric model entirely — no store
    /// counters are programmed or read, keeping symmetric runs
    /// byte-identical to the pre-asymmetry emulator.
    pub write_latency_ns: Option<f64>,
    /// NVM *write* bandwidth in GB/s, used to pace `pflush` WPQ drain
    /// when set; `None` leaves writes paced by `write_delay_ns` alone.
    /// Real NVMs are bandwidth-asymmetric (Optane DC: ~39 GB/s read vs
    /// ~14 GB/s write).
    pub write_bandwidth_gbps: Option<f64>,
}

impl NvmTarget {
    /// A target with the given read latency, full bandwidth, and a write
    /// delay equal to the read latency (a common PCM-like assumption).
    /// The asymmetric write model stays off: symmetric PCM-like targets
    /// charge writes only at `pflush`, exactly as the paper does.
    ///
    /// # Panics
    ///
    /// Panics if the latency is not positive.
    pub fn new(read_latency_ns: f64) -> Self {
        assert!(read_latency_ns > 0.0, "NVM latency must be positive");
        NvmTarget {
            read_latency_ns,
            bandwidth_gbps: None,
            write_delay_ns: read_latency_ns,
            write_latency_ns: None,
            write_bandwidth_gbps: None,
        }
    }

    /// An Optane DC persistent-memory target, calibrated from the
    /// measurements of Hirofuchi & Takano (arXiv 2002.06018): ~169 ns
    /// loaded read latency, ~90 ns write-to-WPQ latency, and strongly
    /// asymmetric bandwidth (~39.4 GB/s read, ~13.9 GB/s write).
    /// Activates the asymmetric write model; note the write latency is
    /// *below* typical remote-DRAM latency — writes land in the WPQ, not
    /// the media — which the model clamps to a zero write term on
    /// substrates whose DRAM is already slower.
    pub fn optane_dcpmm() -> Self {
        NvmTarget {
            read_latency_ns: 169.0,
            bandwidth_gbps: Some(39.4),
            write_delay_ns: 90.0,
            write_latency_ns: Some(90.0),
            write_bandwidth_gbps: Some(13.9),
        }
    }

    /// Sets the bandwidth target.
    pub fn with_bandwidth_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "bandwidth must be positive");
        self.bandwidth_gbps = Some(gbps);
        self
    }

    /// Sets the per-`pflush` write delay.
    pub fn with_write_delay_ns(mut self, ns: f64) -> Self {
        assert!(ns >= 0.0, "write delay must be non-negative");
        self.write_delay_ns = ns;
        self
    }

    /// Activates the asymmetric write model with the given NVM write
    /// latency (see the type-level docs for how this differs from
    /// [`NvmTarget::with_write_delay_ns`]).
    pub fn with_write_latency_ns(mut self, ns: f64) -> Self {
        assert!(ns > 0.0, "write latency must be positive");
        self.write_latency_ns = Some(ns);
        self
    }

    /// Sets the NVM write-bandwidth target for `pflush` pacing.
    pub fn with_write_bandwidth_gbps(mut self, gbps: f64) -> Self {
        assert!(gbps > 0.0, "write bandwidth must be positive");
        self.write_bandwidth_gbps = Some(gbps);
        self
    }

    /// Whether the asymmetric write model is active.
    pub fn is_asymmetric(&self) -> bool {
        self.write_latency_ns.is_some()
    }
}

/// Which analytic latency model computes the injected delay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LatencyModelKind {
    /// Eq. 1: count LLC misses and multiply by the latency difference.
    /// Ignores memory-level parallelism — over-injects for parallel
    /// misses (the Fig. 2 discussion). Kept for the ablation study.
    Simple,
    /// Eq. 2 + Eq. 3: derive serialized memory time from
    /// `STALLS_L2_PENDING`, which naturally captures MLP. The paper's
    /// model.
    #[default]
    StallBased,
}

/// How the library reads performance counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CounterAccess {
    /// Direct user-mode `rdpmc` (the paper's choice; ≈500 cycles/read).
    #[default]
    Rdpmc,
    /// A PAPI-like virtualized framework that traps into the kernel:
    /// ≈8× more expensive (paper §3.2) — kept for the overhead ablation.
    Papi,
}

/// Whether the machine emulates one memory type or two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// All application memory is persistent memory: DRAM bandwidth is
    /// throttled machine-wide and every LLC miss contributes to the
    /// injected delay (paper §3.1).
    #[default]
    PmOnly,
    /// DRAM + NVM (paper §3.3): threads run on socket 0 with unmodified
    /// local DRAM; `pmalloc` maps virtual NVM onto the sibling socket's
    /// DRAM; only the remote share of the stall cycles is inflated.
    /// Requires the local/remote LLC-miss counter split (Ivy Bridge /
    /// Haswell).
    TwoMemory,
}

/// Full emulator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct QuartzConfig {
    /// The NVM being emulated.
    pub target: NvmTarget,
    /// Maximum epoch length: the monitor signals any thread whose current
    /// epoch is older than this (default 10 ms — the value the paper
    /// settles on to minimize overhead at good accuracy, §4.4 fn. 4).
    pub max_epoch: Duration,
    /// Minimum epoch length: interposition points skip epoch creation if
    /// the current epoch is younger than this (default 0.1 ms; Fig. 13).
    pub min_epoch: Duration,
    /// Monitor thread wake-up period (default `max_epoch / 2`, so epochs
    /// close within 1.5x the maximum; wake-ups and epoch completions may
    /// drift apart, as in the paper).
    pub monitor_period: Duration,
    /// Which delay model to use.
    pub model: LatencyModelKind,
    /// How counters are read.
    pub counter_access: CounterAccess,
    /// When `false`, all epoch bookkeeping runs but no delay is injected —
    /// the paper's "switched-off delay injection" mode for measuring the
    /// emulator's own overhead (§3.2).
    pub inject_delays: bool,
    /// When `false`, synchronization interpositions (mutex lock/unlock,
    /// condvar notify) never close epochs — only the monitor's static
    /// epochs inject delays. This is the paper's Fig. 3 "independent
    /// threads" emulation, kept as the ablation baseline that Fig. 13
    /// shows failing for dependent threads.
    pub sync_interposition: bool,
    /// When `false`, simulated-atomic operations (CAS/store/fence seams)
    /// never close epochs and pay no hand-off accounting — the lock-free
    /// analogue of `sync_interposition`, i.e. the "naive host atomics"
    /// baseline that reproduces the paper's §6 limitation: delay
    /// accumulated before a CAS publication is *not* settled before the
    /// value becomes visible. Requires `sync_interposition` to have any
    /// effect (both gates must be open).
    pub atomic_interposition: bool,
    /// One or two memory types.
    pub memory_mode: MemoryMode,
}

impl QuartzConfig {
    /// A configuration with the paper's defaults for the given target.
    pub fn new(target: NvmTarget) -> Self {
        QuartzConfig {
            target,
            max_epoch: Duration::from_ms(10),
            min_epoch: Duration::from_us(100),
            monitor_period: Duration::from_ms(5),
            model: LatencyModelKind::default(),
            counter_access: CounterAccess::default(),
            inject_delays: true,
            sync_interposition: true,
            atomic_interposition: true,
            memory_mode: MemoryMode::default(),
        }
    }

    /// Sets the maximum epoch; the monitor period follows at half of it,
    /// and the minimum epoch is clamped to stay below the maximum.
    pub fn with_max_epoch(mut self, d: Duration) -> Self {
        assert!(!d.is_zero(), "max epoch must be non-zero");
        self.max_epoch = d;
        self.monitor_period = Duration::from_ps((d.as_ps() / 2).max(1));
        self.min_epoch = self.min_epoch.min(Duration::from_ps(d.as_ps() / 2));
        self
    }

    /// Sets the minimum epoch.
    pub fn with_min_epoch(mut self, d: Duration) -> Self {
        self.min_epoch = d;
        self
    }

    /// Selects the latency model.
    pub fn with_model(mut self, model: LatencyModelKind) -> Self {
        self.model = model;
        self
    }

    /// Selects the counter access method.
    pub fn with_counter_access(mut self, access: CounterAccess) -> Self {
        self.counter_access = access;
        self
    }

    /// Switches off delay injection (overhead-measurement mode).
    pub fn without_delay_injection(mut self) -> Self {
        self.inject_delays = false;
        self
    }

    /// Disables epoch creation at synchronization primitives (the
    /// no-delay-propagation ablation of Fig. 13).
    pub fn without_sync_interposition(mut self) -> Self {
        self.sync_interposition = false;
        self
    }

    /// Disables epoch creation and hand-off accounting at simulated
    /// atomics (the naive-host-atomics baseline of the paper's §6
    /// limitation, kept as the A side of the atomics ablation).
    pub fn without_atomic_interposition(mut self) -> Self {
        self.atomic_interposition = false;
        self
    }

    /// Enables the DRAM+NVM two-memory mode.
    pub fn with_two_memory_mode(mut self) -> Self {
        self.memory_mode = MemoryMode::TwoMemory;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_builder() {
        let t = NvmTarget::new(500.0)
            .with_bandwidth_gbps(5.0)
            .with_write_delay_ns(700.0);
        assert_eq!(t.read_latency_ns, 500.0);
        assert_eq!(t.bandwidth_gbps, Some(5.0));
        assert_eq!(t.write_delay_ns, 700.0);
    }

    #[test]
    fn default_write_delay_matches_read() {
        let t = NvmTarget::new(300.0);
        assert_eq!(t.write_delay_ns, 300.0);
        // The PCM-like default is symmetric: pflush charges writes, the
        // epoch model does not — write_latency_ns (the asymmetric-model
        // knob) stays off so stores are never double-charged.
        assert_eq!(t.write_latency_ns, None);
        assert!(!t.is_asymmetric());
    }

    #[test]
    fn optane_preset_is_asymmetric() {
        let t = NvmTarget::optane_dcpmm();
        assert_eq!(t.read_latency_ns, 169.0);
        assert_eq!(t.write_latency_ns, Some(90.0));
        assert_eq!(t.bandwidth_gbps, Some(39.4));
        assert_eq!(t.write_bandwidth_gbps, Some(13.9));
        assert!(t.is_asymmetric());
        // Write-to-WPQ is *faster* than the read path — the asymmetry
        // can go either way and the preset records the measured numbers,
        // not an assumption.
        assert!(t.write_latency_ns.unwrap() < t.read_latency_ns);
    }

    #[test]
    fn write_knobs_are_independent() {
        let t = NvmTarget::new(500.0)
            .with_write_delay_ns(700.0)
            .with_write_latency_ns(900.0)
            .with_write_bandwidth_gbps(2.0);
        assert_eq!(t.write_delay_ns, 700.0);
        assert_eq!(t.write_latency_ns, Some(900.0));
        assert_eq!(t.write_bandwidth_gbps, Some(2.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_latency_rejected() {
        let _ = NvmTarget::new(0.0);
    }

    #[test]
    fn config_defaults_match_paper() {
        let c = QuartzConfig::new(NvmTarget::new(200.0));
        assert_eq!(c.max_epoch, Duration::from_ms(10));
        assert_eq!(c.model, LatencyModelKind::StallBased);
        assert_eq!(c.counter_access, CounterAccess::Rdpmc);
        assert!(c.inject_delays);
        assert_eq!(c.memory_mode, MemoryMode::PmOnly);
    }

    #[test]
    fn with_max_epoch_also_sets_monitor() {
        let c = QuartzConfig::new(NvmTarget::new(200.0)).with_max_epoch(Duration::from_ms(1));
        assert_eq!(c.monitor_period, Duration::from_us(500));
    }
}
