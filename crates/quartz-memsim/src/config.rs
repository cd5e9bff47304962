//! Memory-simulator configuration.

use crate::addr::LINE_SIZE;

/// Most ways a cache may have: a set's recency word holds one 4-bit way
/// index per way (see [`crate::cache`]).
pub const MAX_WAYS: usize = 16;

/// Geometry of one set-associative cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is 1 to [`MAX_WAYS`], `size_bytes` is a
    /// multiple of `ways * 64` and the resulting set count is a power of
    /// two.
    pub fn new(size_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            ways <= MAX_WAYS,
            "cache needs 1 to {MAX_WAYS} ways, got {ways}"
        );
        assert_eq!(
            size_bytes % (ways as u64 * LINE_SIZE),
            0,
            "size must divide into ways of 64-byte lines"
        );
        let sets = size_bytes / (ways as u64 * LINE_SIZE);
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        CacheGeometry { size_bytes, ways }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * LINE_SIZE)
    }

    /// Number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_SIZE
    }
}

/// Stride-prefetcher configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Whether the prefetcher is active.
    pub enabled: bool,
    /// Number of concurrently tracked streams per core.
    pub streams: usize,
    /// Consecutive same-stride line accesses before prefetching starts.
    pub trigger: u32,
    /// Lines prefetched ahead once a stream is established.
    pub depth: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            streams: 16,
            trigger: 2,
            // Intel's L2 streamer runs up to 20 lines ahead of demand;
            // 16 keeps vector-unrolled sequential sweeps bandwidth-bound
            // rather than latency-bound.
            depth: 16,
        }
    }
}

/// TLB configuration.
///
/// The paper's microbenchmarks use 2 MiB hugepages "to minimize memory
/// accesses due to TLB misses" (§4.4); with hugepages the TLB is
/// effectively invisible, without them pointer-chasing over large arrays
/// pays page-walk latency on top of DRAM latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TlbConfig {
    /// Whether the TLB is modeled at all.
    pub enabled: bool,
    /// Entries covering 4 KiB pages.
    pub entries_4k: usize,
    /// Entries covering 2 MiB pages.
    pub entries_2m: usize,
    /// Page-walk cost in nanoseconds on a TLB miss.
    pub walk_ns: f64,
    /// Whether allocations are backed by 2 MiB hugepages.
    pub hugepages: bool,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            enabled: true,
            entries_4k: 64,
            entries_2m: 32,
            walk_ns: 30.0,
            hugepages: true,
        }
    }
}

/// Full memory-system configuration.
///
/// The default geometry is a deliberately scaled-down Xeon (2 MiB L3
/// instead of 20 MiB) so experiments that must defeat the LLC can use
/// arrays tens of megabytes small instead of gigabytes — the relative
/// relationships the models depend on (hit/miss mix, MLP, bandwidth
/// saturation) are preserved. See DESIGN.md.
#[derive(Clone, Debug, PartialEq)]
pub struct MemSimConfig {
    /// Per-core L1-D geometry.
    pub l1: CacheGeometry,
    /// Per-core L2 geometry.
    pub l2: CacheGeometry,
    /// Per-socket shared L3 geometry.
    pub l3: CacheGeometry,
    /// Miss-status-holding registers per core: the maximum number of
    /// outstanding misses that can overlap (bounds MLP).
    pub mshrs: usize,
    /// Outstanding store-miss (RFO) budget before stores stall the core.
    pub store_buffer: usize,
    /// Prefetcher settings.
    pub prefetch: PrefetchConfig,
    /// TLB settings.
    pub tlb: TlbConfig,
    /// DRAM channels per node (matches the three `THRT_PWR_DIMM`
    /// registers).
    pub channels_per_node: usize,
    /// Peak bandwidth per channel, bytes per nanosecond (= GB/s).
    pub channel_bw_gbps: f64,
    /// Bytes of DRAM per node.
    pub node_capacity: u64,
    /// Charged channel-queue waits forgive this much backlog, matching
    /// the thread scheduler's clock-skew quantum (see
    /// [`crate::dram::DramChannels`]).
    pub queue_skew_tolerance_ns: u64,
    /// Apply per-access latency jitter within the measured min/max band.
    pub jitter: bool,
    /// Seed for deterministic jitter.
    pub seed: u64,
}

impl Default for MemSimConfig {
    fn default() -> Self {
        MemSimConfig {
            l1: CacheGeometry::new(32 * 1024, 8),
            l2: CacheGeometry::new(256 * 1024, 8),
            l3: CacheGeometry::new(2 * 1024 * 1024, 16),
            mshrs: 10,
            store_buffer: 16,
            prefetch: PrefetchConfig::default(),
            tlb: TlbConfig::default(),
            channels_per_node: 3,
            channel_bw_gbps: 12.8,
            node_capacity: 1 << 33, // 8 GiB
            queue_skew_tolerance_ns: 2_000,
            jitter: true,
            seed: 0xC0FFEE,
        }
    }
}

impl MemSimConfig {
    /// Peak bandwidth of one node in GB/s (before throttling).
    pub fn node_peak_bw_gbps(&self) -> f64 {
        self.channels_per_node as f64 * self.channel_bw_gbps
    }

    /// Returns a copy with the prefetcher disabled (ablations).
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch.enabled = false;
        self
    }

    /// Returns a copy with jitter disabled (unit tests that need exact
    /// latencies).
    pub fn without_jitter(mut self) -> Self {
        self.jitter = false;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_sane() {
        let c = MemSimConfig::default();
        assert_eq!(c.l1.sets(), 64);
        assert_eq!(c.l1.lines(), 512);
        assert_eq!(c.l3.lines(), 32 * 1024);
        assert!((c.node_peak_bw_gbps() - 38.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheGeometry::new(3 * 64 * 5, 5);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheGeometry::new(1024, 0);
    }

    #[test]
    #[should_panic(expected = "1 to 16 ways, got 17")]
    fn seventeen_ways_rejected() {
        // One set of 17 ways: a power-of-two set count, so only the way
        // cap can refuse it.
        let _ = CacheGeometry::new(17 * 64, 17);
    }

    #[test]
    fn builder_helpers() {
        let c = MemSimConfig::default()
            .without_prefetch()
            .without_jitter()
            .with_seed(9);
        assert!(!c.prefetch.enabled);
        assert!(!c.jitter);
        assert_eq!(c.seed, 9);
    }
}
