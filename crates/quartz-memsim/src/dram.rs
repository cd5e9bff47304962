//! DRAM node timing: service latency, per-access jitter, and channel
//! bandwidth with thermal throttling.
//!
//! Each node has a small number of channels (matching the
//! `THRT_PWR_DIMM_[0:2]` registers). A line transfer occupies one channel
//! for `64 bytes / (peak_bw * throttle_fraction)`; when demand exceeds the
//! throttled service rate the channel queue backs up and accesses wait,
//! which is how throttling reduces measured STREAM bandwidth linearly
//! (paper Fig. 8) and how saturation inflates loaded latency.

use quartz_platform::thermal::ThermalControl;
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{NodeId, SocketId};

use crate::addr::LINE_SIZE;

/// Channel scheduling state for every node.
///
/// Channel occupancy is strict FCFS (`next_free` per channel), so
/// capacity is conserved exactly; but the *charged* queue wait forgives
/// up to `skew_tolerance`, because simulated threads run within a
/// scheduling quantum of each other and a thread that ran slightly ahead
/// must not make logically-concurrent accesses of its peers look
/// serialized behind it. Under genuine saturation the backlog grows far
/// past the tolerance and real waits are charged.
#[derive(Debug)]
pub struct DramChannels {
    /// `next_free[node][channel]`.
    next_free: Vec<Vec<SimTime>>,
    /// `transfer[node][channel]`: the throttle-register value the
    /// channel's line transfer time was last computed for, and that
    /// time. The time is a pure function of the value, so reusing it
    /// until the register reads differently is exact.
    transfer: Vec<Vec<(u32, Duration)>>,
    channel_bw_gbps: f64,
    skew_tolerance: Duration,
    thermal: ThermalControl,
}

/// Outcome of reserving a channel slot for one line transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Time spent waiting for the channel to become free.
    pub queue_wait: Duration,
    /// Time the line occupies the channel.
    pub transfer_time: Duration,
    /// Instant the transfer completes.
    pub completes_at: SimTime,
}

impl DramChannels {
    /// Creates channel state for `nodes` nodes of `channels` channels
    /// each.
    pub fn new(
        nodes: usize,
        channels: usize,
        channel_bw_gbps: f64,
        skew_tolerance: Duration,
        thermal: ThermalControl,
    ) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(channel_bw_gbps > 0.0, "bandwidth must be positive");
        let transfer = (0..nodes)
            .map(|node| {
                (0..channels)
                    .map(|ch| {
                        let reg = thermal.throttle_value(SocketId(node), ch);
                        (reg, transfer_time(channel_bw_gbps, reg))
                    })
                    .collect()
            })
            .collect();
        DramChannels {
            next_free: vec![vec![SimTime::ZERO; channels]; nodes],
            transfer,
            channel_bw_gbps,
            skew_tolerance,
            thermal,
        }
    }

    /// Number of channels per node.
    pub fn channels(&self) -> usize {
        self.next_free[0].len()
    }

    /// The channel a cache line maps to (line interleaving).
    pub fn channel_of(&self, line: u64) -> usize {
        (line as usize) % self.channels()
    }

    /// Time one line transfer occupies a channel of `node` right now,
    /// given the current throttle setting.
    pub fn line_transfer_time(&self, node: NodeId, channel: usize) -> Duration {
        // Throttle registers live on the IMC of the socket that owns the
        // node (socket k owns node k on our machines).
        let reg = self.thermal.throttle_value(SocketId(node.0), channel);
        transfer_time(self.channel_bw_gbps, reg)
    }

    /// Reserves the line's channel for one transfer starting no earlier
    /// than `now`; advances the channel's free time.
    ///
    /// The transfer time is [`line_transfer_time`](Self::line_transfer_time)
    /// at this instant's register value, recomputed only when that value
    /// differs from the one the cached time was computed for.
    pub fn reserve(&mut self, node: NodeId, line: u64, now: SimTime) -> Transfer {
        let ch = self.channel_of(line);
        let reg = self.thermal.throttle_value(SocketId(node.0), ch);
        let cached = &mut self.transfer[node.0][ch];
        if cached.0 != reg {
            *cached = (reg, transfer_time(self.channel_bw_gbps, reg));
        }
        let transfer_time = cached.1;
        let slot = &mut self.next_free[node.0][ch];
        let fcfs_start = (*slot).max(now);
        // Forgive waits within the scheduler's clock-skew tolerance.
        let queue_wait = fcfs_start
            .saturating_duration_since(now)
            .saturating_sub(self.skew_tolerance);
        *slot = fcfs_start + transfer_time;
        let completes_at = now + queue_wait + transfer_time;
        Transfer {
            queue_wait,
            transfer_time,
            completes_at,
        }
    }

    /// Clears all queue state (trial reset).
    pub fn reset(&mut self) {
        for node in &mut self.next_free {
            node.fill(SimTime::ZERO);
        }
    }
}

/// Time one line transfer occupies a channel of `channel_bw_gbps` peak
/// bandwidth whose throttle register reads `reg`.
fn transfer_time(channel_bw_gbps: f64, reg: u32) -> Duration {
    let frac = ThermalControl::fraction_of(reg).max(1.0 / 4095.0);
    Duration::from_ns_f64(LINE_SIZE as f64 / (channel_bw_gbps * frac))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_platform::kmod::KernelModule;
    use quartz_platform::{Architecture, Platform, PlatformConfig};

    fn channels() -> (DramChannels, KernelModule) {
        let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        let kmod = platform.kernel_module();
        (
            DramChannels::new(2, 3, 12.8, Duration::ZERO, platform.thermal_view()),
            kmod,
        )
    }

    #[test]
    fn unloaded_transfer_has_no_wait() {
        let (mut c, _) = channels();
        let t = c.reserve(NodeId(0), 0, SimTime::from_ns(100));
        assert_eq!(t.queue_wait, Duration::ZERO);
        // 64 B at 12.8 GB/s = 5 ns.
        assert_eq!(t.transfer_time, Duration::from_ns(5));
        assert_eq!(t.completes_at, SimTime::from_ns(105));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let (mut c, _) = channels();
        let now = SimTime::from_ns(0);
        let t1 = c.reserve(NodeId(0), 3, now); // all line 3 -> channel 0
        let t2 = c.reserve(NodeId(0), 3, now);
        assert_eq!(t1.queue_wait, Duration::ZERO);
        assert_eq!(t2.queue_wait, Duration::from_ns(5));
        assert_eq!(t2.completes_at, SimTime::from_ns(10));
    }

    #[test]
    fn different_channels_do_not_interfere() {
        let (mut c, _) = channels();
        let now = SimTime::ZERO;
        c.reserve(NodeId(0), 0, now);
        let t = c.reserve(NodeId(0), 1, now);
        assert_eq!(t.queue_wait, Duration::ZERO);
    }

    #[test]
    fn different_nodes_do_not_interfere() {
        let (mut c, _) = channels();
        let now = SimTime::ZERO;
        c.reserve(NodeId(0), 0, now);
        let t = c.reserve(NodeId(1), 0, now);
        assert_eq!(t.queue_wait, Duration::ZERO);
    }

    #[test]
    fn throttle_halving_doubles_transfer_time() {
        let (mut c, kmod) = channels();
        // Throttle node 1's channels to ~half.
        kmod.set_dimm_throttle(SocketId(1), 0xFFF / 2).unwrap();
        let t = c.reserve(NodeId(1), 0, SimTime::ZERO);
        let full = c.reserve(NodeId(0), 0, SimTime::ZERO);
        let ratio = t.transfer_time.as_ns_f64() / full.transfer_time.as_ns_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    /// The transfer time `reserve` reuses follows a throttle write made
    /// after traffic started (reserve, throttle, reserve), including a
    /// write the fault injector perturbs, which only the register value
    /// reveals. `line_transfer_time` is the uncached reference.
    #[test]
    fn transfer_time_follows_throttle_writes_after_traffic() {
        use quartz_platform::faults::{FaultInjector, ThermalWriteFault};
        use quartz_platform::CoreId;

        /// Channel 1's writes stick with the top register bit set.
        struct Perturb;
        impl FaultInjector for Perturb {
            fn thermal_write_fault(
                &self,
                _socket: SocketId,
                channel: u16,
                value: u32,
            ) -> ThermalWriteFault {
                if channel == 1 {
                    ThermalWriteFault::Perturb(value | 0x800)
                } else {
                    ThermalWriteFault::None
                }
            }
            fn pmu_read_error(&self, _core: CoreId, _slot: usize) -> bool {
                false
            }
        }

        let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        let kmod = platform.kernel_module();
        let mut c = DramChannels::new(2, 3, 12.8, Duration::ZERO, platform.thermal_view());
        let mut now = SimTime::ZERO;
        // Lines 0, 1 and 2 map to channels 0, 1 and 2.
        let mut reserve_all = |c: &mut DramChannels, node: usize| -> Vec<Duration> {
            (0..3u64)
                .map(|line| {
                    now += Duration::from_ns(100);
                    let t = c.reserve(NodeId(node), line, now);
                    let reference = c.line_transfer_time(NodeId(node), c.channel_of(line));
                    assert_eq!(t.transfer_time, reference, "node {node} line {line}");
                    t.transfer_time
                })
                .collect()
        };
        assert_eq!(reserve_all(&mut c, 1), vec![Duration::from_ns(5); 3]);

        kmod.set_dimm_throttle(SocketId(1), 0x400).unwrap();
        let quarter = reserve_all(&mut c, 1);
        assert_eq!(
            quarter,
            vec![Duration::from_ns_f64(5.0 * 4095.0 / 1024.0); 3]
        );
        // The other node's registers did not change.
        assert_eq!(reserve_all(&mut c, 0), vec![Duration::from_ns(5); 3]);

        platform.install_fault_injector(std::sync::Arc::new(Perturb));
        kmod.set_dimm_throttle(SocketId(1), 0x200).unwrap();
        assert_eq!(kmod.thermal().throttle_value(SocketId(1), 1), 0xA00);
        let perturbed = reserve_all(&mut c, 1);
        assert_eq!(perturbed[0], Duration::from_ns_f64(5.0 * 4095.0 / 512.0));
        assert_eq!(perturbed[1], Duration::from_ns_f64(5.0 * 4095.0 / 2560.0));
        assert_eq!(perturbed[2], perturbed[0]);

        platform.clear_fault_injector();
        kmod.set_dimm_throttle(SocketId(1), 0xFFF).unwrap();
        assert_eq!(reserve_all(&mut c, 1), vec![Duration::from_ns(5); 3]);
    }

    #[test]
    fn reset_clears_queues() {
        let (mut c, _) = channels();
        c.reserve(NodeId(0), 0, SimTime::ZERO);
        c.reset();
        let t = c.reserve(NodeId(0), 0, SimTime::ZERO);
        assert_eq!(t.queue_wait, Duration::ZERO);
    }
}
