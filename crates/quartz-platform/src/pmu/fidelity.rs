//! Counter fidelity: deterministic per-family read skew.
//!
//! The paper attributes the spread in emulation accuracy across families
//! ("less than 9% on Sandy Bridge, less than 2% on Ivy Bridge, less than
//! 6% on Haswell", §4.4) primarily to "a difference in hardware performance
//! counters available for accounting the stall cycles" and notes that the
//! Sandy Bridge counters "are less reliable" (footnote 6).
//!
//! We model that as a deterministic *multiplicative bias* applied when
//! software reads a counter: real counters consistently over- or
//! under-count the events of a given workload, so the dominant share of
//! the bias is fixed per (family, event) with a smaller run-dependent
//! component. The skew is strictly proportional to the count — software
//! that differences two reads (as the epoch code does) sees the same
//! relative bias on the delta, exactly like hardware that miscounts
//! per-event. (An earlier revision added value-dependent noise, but that
//! gives *epoch deltas* noise proportional to the absolute counter value,
//! which diverges over long runs and matches no hardware behaviour.)

use crate::arch::ArchParams;
use crate::pmu::events::EventKind;
use crate::seed::{splitmix64, unit_f64};

/// Per-architecture counter read-skew model.
///
/// ```
/// use quartz_platform::pmu::{EventKind, FidelityModel};
/// use quartz_platform::Architecture;
/// let m = FidelityModel::new(Architecture::SandyBridge.params(), 42);
/// let read = m.distort(EventKind::StallsL2Pending, 1_000_000);
/// // Skew is bounded by the family's amplitude.
/// assert!((read as f64 - 1_000_000.0).abs() <= 0.08 * 1_000_000.0 + 1.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FidelityModel {
    stall_amp: f64,
    miss_amp: f64,
    /// Distinguishes families so the fixed bias differs between them.
    arch_salt: u64,
    seed: u64,
}

impl FidelityModel {
    /// Creates a fidelity model for one family and one run seed.
    pub fn new(params: ArchParams, seed: u64) -> Self {
        FidelityModel {
            stall_amp: params.stall_counter_skew,
            miss_amp: params.miss_counter_skew,
            arch_salt: match params.arch {
                crate::arch::Architecture::SandyBridge => 0x5AB0,
                crate::arch::Architecture::IvyBridge => 0x1BB0,
                crate::arch::Architecture::Haswell => 0x4A50,
            },
            seed,
        }
    }

    /// A model that reads counters exactly (for ablations and unit tests).
    pub fn perfect() -> Self {
        FidelityModel {
            stall_amp: 0.0,
            miss_amp: 0.0,
            arch_salt: 0,
            seed: 0,
        }
    }

    fn amplitude(&self, event: EventKind) -> f64 {
        match event {
            // Stall-cycle counters (load- and store-side) share the
            // family's stall skew; every miss-count event shares the
            // (usually smaller) miss skew.
            EventKind::StallsL2Pending | EventKind::StallsStoreBuffer => self.stall_amp,
            _ => self.miss_amp,
        }
    }

    /// Systematic relative bias for an event, in `[-amp, amp]`.
    ///
    /// Real counter unreliability is mostly a property of the silicon —
    /// a given machine consistently over- or under-counts a given event —
    /// so the dominant share of the bias is fixed per (family, event),
    /// with a smaller run-dependent component on top (run conditions,
    /// thermal state, co-runners).
    pub fn bias(&self, event: EventKind) -> f64 {
        let amp = self.amplitude(event);
        if amp == 0.0 {
            return 0.0;
        }
        // Fixed hardware component (≈70% of the amplitude).
        let h_fixed = splitmix64(self.arch_salt ^ splitmix64(event_tag(event)));
        let u_fixed = 2.0 * unit_f64(h_fixed) - 1.0;
        let sign = if u_fixed < 0.0 { -1.0 } else { 1.0 };
        let fixed = sign * amp * 0.7 * (0.7 + 0.3 * u_fixed.abs());
        // Run-dependent component (≈30%).
        let h_run = splitmix64(self.seed ^ splitmix64(event_tag(event).wrapping_add(0x77)));
        let run = amp * 0.3 * (2.0 * unit_f64(h_run) - 1.0);
        fixed + run
    }

    /// The value software observes when reading a counter whose true raw
    /// count is `raw`.
    pub fn distort(&self, event: EventKind, raw: u64) -> u64 {
        let amp = self.amplitude(event);
        if amp == 0.0 || raw == 0 {
            return raw;
        }
        let out = (raw as f64 * (1.0 + self.bias(event))).round();
        if out <= 0.0 {
            0
        } else {
            out as u64
        }
    }
}

fn event_tag(event: EventKind) -> u64 {
    match event {
        EventKind::StallsL2Pending => 1,
        EventKind::L3Hit => 2,
        EventKind::L3MissLocal => 3,
        EventKind::L3MissRemote => 4,
        EventKind::L3MissAll => 5,
        EventKind::StallsStoreBuffer => 6,
        EventKind::StoreMissLocal => 7,
        EventKind::StoreMissRemote => 8,
        EventKind::StoreMissAll => 9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    #[test]
    fn perfect_model_is_identity() {
        let m = FidelityModel::perfect();
        for raw in [0u64, 1, 1_000, u64::MAX / 4] {
            assert_eq!(m.distort(EventKind::StallsL2Pending, raw), raw);
        }
    }

    #[test]
    fn distortion_is_bounded_by_amplitude() {
        let params = Architecture::Haswell.params();
        let m = FidelityModel::new(params, 7);
        let amp = params.stall_counter_skew;
        for raw in [10_000u64, 123_456, 9_999_999] {
            let read = m.distort(EventKind::StallsL2Pending, raw) as f64;
            let rel = (read - raw as f64).abs() / raw as f64;
            assert!(rel <= 1.2 * amp, "rel skew {rel} exceeds {amp}");
        }
    }

    #[test]
    fn distortion_is_deterministic() {
        let m = FidelityModel::new(Architecture::SandyBridge.params(), 99);
        let a = m.distort(EventKind::L3Hit, 42_000);
        let b = m.distort(EventKind::L3Hit, 42_000);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let p = Architecture::SandyBridge.params();
        let a = FidelityModel::new(p, 1).distort(EventKind::StallsL2Pending, 1_000_000);
        let b = FidelityModel::new(p, 2).distort(EventKind::StallsL2Pending, 1_000_000);
        assert_ne!(a, b);
    }

    #[test]
    fn bias_is_meaningfully_nonzero() {
        let p = Architecture::SandyBridge.params();
        for seed in 0..20 {
            let m = FidelityModel::new(p, seed);
            let b = m.bias(EventKind::StallsL2Pending).abs();
            // Fixed component dominates: |fixed| >= 0.49 amp, run part
            // perturbs by at most 0.3 amp.
            assert!(
                b >= 0.15 * p.stall_counter_skew,
                "seed {seed}: bias {b} too small"
            );
            assert!(b <= p.stall_counter_skew);
        }
    }

    #[test]
    fn bias_is_mostly_systematic_across_seeds() {
        // The fixed hardware component keeps the sign stable over runs.
        let p = Architecture::SandyBridge.params();
        let signs: Vec<bool> = (0..20)
            .map(|seed| FidelityModel::new(p, seed).bias(EventKind::StallsL2Pending) > 0.0)
            .collect();
        let positives = signs.iter().filter(|&&b| b).count();
        assert!(
            positives == 0 || positives == 20,
            "sign flips: {positives}/20"
        );
    }

    #[test]
    fn deltas_scale_exactly_with_bias() {
        // Reading at two points and differencing (what the epoch code
        // does) must see (1 + bias) * true_delta — a delta's error must
        // never scale with the absolute counter value, or long runs
        // accumulate spurious injection.
        let p = Architecture::IvyBridge.params();
        let m = FidelityModel::new(p, 5);
        for (r1, r2) in [
            (10_000_000u64, 30_000_000u64),
            (4_000_000_000, 4_000_001_000),
        ] {
            let d = m.distort(EventKind::StallsL2Pending, r2) as f64
                - m.distort(EventKind::StallsL2Pending, r1) as f64;
            let expect = (1.0 + m.bias(EventKind::StallsL2Pending)) * (r2 - r1) as f64;
            assert!(
                (d - expect).abs() <= 2.0,
                "delta {d} vs expected {expect} for ({r1},{r2})"
            );
        }
    }

    #[test]
    fn store_events_use_the_right_amplitudes() {
        let p = Architecture::SandyBridge.params();
        let m = FidelityModel::new(p, 3);
        // Store-buffer stalls ride the stall amplitude, store misses the
        // miss amplitude — same rule as their load-side counterparts.
        assert!(m.bias(EventKind::StallsStoreBuffer).abs() <= p.stall_counter_skew);
        assert!(m.bias(EventKind::StoreMissAll).abs() <= p.miss_counter_skew);
        // Distinct tags: the store-side bias is not a copy of the
        // load-side one.
        assert_ne!(
            m.bias(EventKind::StallsStoreBuffer),
            m.bias(EventKind::StallsL2Pending)
        );
        assert_ne!(
            m.bias(EventKind::StoreMissLocal),
            m.bias(EventKind::L3MissLocal)
        );
    }
}
