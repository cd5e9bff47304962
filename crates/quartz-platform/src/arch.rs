//! Processor architectures supported by Quartz and their measured
//! parameters.
//!
//! The original emulator ran on three Intel Xeon families (paper §4.1);
//! the latencies below are the paper's Table 2 measurements, which our
//! memory simulator adopts as its DRAM timing ground truth.

use std::fmt;

use crate::time::Frequency;

/// The Intel Xeon processor families the Quartz prototype supports
/// (paper §3.1).
///
/// ```
/// use quartz_platform::Architecture;
/// assert!(Architecture::IvyBridge.params().has_local_remote_miss_split());
/// assert!(!Architecture::SandyBridge.params().has_local_remote_miss_split());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Architecture {
    /// Intel Xeon E5-2450 (2.1 GHz, local 97 ns / remote 163 ns).
    SandyBridge,
    /// Intel Xeon E5-2660 v2 (2.2 GHz, local 87 ns / remote 176 ns).
    IvyBridge,
    /// Intel Xeon E5-2650 v3 (2.3 GHz, local 120 ns / remote 175 ns).
    Haswell,
}

impl Architecture {
    /// All supported architectures, in paper order.
    pub const ALL: [Architecture; 3] = [
        Architecture::SandyBridge,
        Architecture::IvyBridge,
        Architecture::Haswell,
    ];

    /// The measured/nominal parameters for this family.
    pub fn params(self) -> ArchParams {
        match self {
            Architecture::SandyBridge => ArchParams {
                arch: self,
                frequency: Frequency::from_mhz(2_100),
                cores_per_socket: 16,
                local_dram_ns: LatencyBand::new(97, 97, 98),
                remote_dram_ns: LatencyBand::new(158, 163, 165),
                l1_ns: 1.9,
                l2_ns: 5.7,
                l3_ns: 14.3,
                // The paper (§4.4, footnote 6) reports Sandy Bridge's stall
                // counters as the least reliable of the three families;
                // these amplitudes reproduce its larger emulation errors.
                stall_counter_skew: 0.09,
                miss_counter_skew: 0.02,
            },
            Architecture::IvyBridge => ArchParams {
                arch: self,
                frequency: Frequency::from_mhz(2_200),
                cores_per_socket: 20,
                local_dram_ns: LatencyBand::new(87, 87, 87),
                remote_dram_ns: LatencyBand::new(172, 176, 185),
                l1_ns: 1.8,
                l2_ns: 5.5,
                l3_ns: 13.6,
                stall_counter_skew: 0.012,
                miss_counter_skew: 0.005,
            },
            Architecture::Haswell => ArchParams {
                arch: self,
                frequency: Frequency::from_mhz(2_300),
                cores_per_socket: 20,
                local_dram_ns: LatencyBand::new(120, 120, 120),
                remote_dram_ns: LatencyBand::new(174, 175, 175),
                l1_ns: 1.7,
                l2_ns: 5.2,
                l3_ns: 14.8,
                stall_counter_skew: 0.055,
                miss_counter_skew: 0.012,
            },
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Architecture::SandyBridge => "Sandy Bridge",
            Architecture::IvyBridge => "Ivy Bridge",
            Architecture::Haswell => "Haswell",
        };
        f.write_str(name)
    }
}

/// Min/average/max of a measured latency, in nanoseconds (paper Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LatencyBand {
    /// Minimum observed latency (ns).
    pub min_ns: u64,
    /// Average observed latency (ns).
    pub avg_ns: u64,
    /// Maximum observed latency (ns).
    pub max_ns: u64,
}

impl LatencyBand {
    /// Creates a band; `min <= avg <= max` is required.
    ///
    /// # Panics
    ///
    /// Panics if the ordering does not hold.
    pub fn new(min_ns: u64, avg_ns: u64, max_ns: u64) -> Self {
        assert!(
            min_ns <= avg_ns && avg_ns <= max_ns,
            "latency band must be ordered: {min_ns} <= {avg_ns} <= {max_ns}"
        );
        LatencyBand {
            min_ns,
            avg_ns,
            max_ns,
        }
    }

    /// Half-width of the band around the average, in ns — the amplitude of
    /// per-access jitter the DRAM model applies.
    pub fn jitter_ns(self) -> f64 {
        ((self.max_ns - self.min_ns) as f64 / 2.0).max(0.5)
    }
}

/// Nominal and measured per-family parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ArchParams {
    /// Which family these parameters describe.
    pub arch: Architecture,
    /// Nominal (DVFS-disabled) core frequency.
    pub frequency: Frequency,
    /// Logical CPUs per socket (the paper's testbeds are two-way
    /// hyper-threaded: 16 on Sandy Bridge, 20 on Ivy Bridge/Haswell).
    /// Each simulated thread is pinned to its own logical CPU, which is
    /// what keeps per-core performance counters per-thread — two
    /// registered threads sharing a CPU would read each other's events,
    /// exactly as on real hardware.
    pub cores_per_socket: usize,
    /// Measured local-DRAM load latency (Table 2).
    pub local_dram_ns: LatencyBand,
    /// Measured remote-DRAM load latency (Table 2).
    pub remote_dram_ns: LatencyBand,
    /// L1-D hit latency (ns).
    pub l1_ns: f64,
    /// L2 hit latency (ns).
    pub l2_ns: f64,
    /// Shared L3 hit latency (ns).
    pub l3_ns: f64,
    /// Relative amplitude of the deterministic skew applied when software
    /// reads the `STALLS_L2_PENDING` counter on this family.
    pub stall_counter_skew: f64,
    /// Relative skew amplitude for the `MEM_LOAD_UOPS_*` hit/miss counters.
    pub miss_counter_skew: f64,
}

impl ArchParams {
    /// `W` in the paper's Eq. 3: the ratio of average local DRAM latency to
    /// L3 latency.
    pub fn w_ratio(&self) -> f64 {
        self.local_dram_ns.avg_ns as f64 / self.l3_ns
    }

    /// Whether the PMU can attribute LLC misses to local vs. remote DRAM.
    ///
    /// True on Ivy Bridge and Haswell; Sandy Bridge only exposes a combined
    /// `LLC_MISS` count (paper Table 1), which is why the two-memory-type
    /// mode of §3.3 "requires at most four hardware performance counters
    /// available in Ivy Bridge and Haswell processors".
    pub fn has_local_remote_miss_split(&self) -> bool {
        !matches!(self.arch, Architecture::SandyBridge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_latencies_match_paper() {
        let snb = Architecture::SandyBridge.params();
        assert_eq!(snb.local_dram_ns.avg_ns, 97);
        assert_eq!(snb.remote_dram_ns.avg_ns, 163);
        let ivb = Architecture::IvyBridge.params();
        assert_eq!(ivb.local_dram_ns.avg_ns, 87);
        assert_eq!(ivb.remote_dram_ns.avg_ns, 176);
        let hsw = Architecture::Haswell.params();
        assert_eq!(hsw.local_dram_ns.avg_ns, 120);
        assert_eq!(hsw.remote_dram_ns.avg_ns, 175);
    }

    #[test]
    fn frequencies_match_paper() {
        assert_eq!(Architecture::SandyBridge.params().frequency.mhz(), 2_100);
        assert_eq!(Architecture::IvyBridge.params().frequency.mhz(), 2_200);
        assert_eq!(Architecture::Haswell.params().frequency.mhz(), 2_300);
    }

    #[test]
    fn w_ratio_is_dram_over_l3() {
        let p = Architecture::IvyBridge.params();
        assert!((p.w_ratio() - 87.0 / 13.6).abs() < 1e-9);
        assert!(p.w_ratio() > 1.0);
    }

    #[test]
    fn miss_split_only_on_ivb_hsw() {
        assert!(!Architecture::SandyBridge
            .params()
            .has_local_remote_miss_split());
        assert!(Architecture::IvyBridge
            .params()
            .has_local_remote_miss_split());
        assert!(Architecture::Haswell.params().has_local_remote_miss_split());
    }

    #[test]
    fn ivy_bridge_counters_are_most_reliable() {
        let skews: Vec<f64> = Architecture::ALL
            .iter()
            .map(|a| a.params().stall_counter_skew)
            .collect();
        // SNB > HSW > IVB, matching the paper's error ordering (9%, 6%, 2%).
        assert!(skews[0] > skews[2] && skews[2] > skews[1]);
    }

    #[test]
    fn latency_band_jitter() {
        let band = LatencyBand::new(158, 163, 165);
        assert!((band.jitter_ns() - 3.5).abs() < 1e-9);
        // Degenerate band still reports a small positive jitter.
        assert!(LatencyBand::new(87, 87, 87).jitter_ns() > 0.0);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn latency_band_rejects_unordered() {
        let _ = LatencyBand::new(100, 90, 120);
    }

    #[test]
    fn display_names() {
        assert_eq!(Architecture::SandyBridge.to_string(), "Sandy Bridge");
        assert_eq!(Architecture::IvyBridge.to_string(), "Ivy Bridge");
        assert_eq!(Architecture::Haswell.to_string(), "Haswell");
    }
}
