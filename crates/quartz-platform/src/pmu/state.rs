//! Shared PMU state: raw event accumulation and counter reads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::arch::ArchParams;
use crate::error::PlatformError;
use crate::faults::FaultCell;
use crate::pmu::bank::CounterBank;
use crate::pmu::events::{EventKind, RawEvent, NUM_RAW_EVENTS};
use crate::pmu::fidelity::FidelityModel;
use crate::topology::CoreId;

/// Hardware PMU counters are 48 bits wide on every modeled
/// micro-architecture: values wrap modulo `2^48`, and correct delta math
/// must mask to this width rather than assume monotonicity.
pub const COUNTER_WIDTH_BITS: u32 = 48;

/// Mask selecting the valid bits of a hardware counter value.
pub const COUNTER_MASK: u64 = (1 << COUNTER_WIDTH_BITS) - 1;

/// The machine's PMU: per-core raw event accumulators, programmable
/// counter banks, and the per-family fidelity model applied on reads.
///
/// The memory simulator increments raw events with [`PmuState::add`];
/// emulator software reads them back with [`PmuState::rdpmc`] after the
/// kernel module has programmed a bank and enabled user-mode access.
#[derive(Debug)]
pub struct PmuState {
    arch: ArchParams,
    /// `raw[core][RawEvent::index()]`.
    raw: Vec<[AtomicU64; NUM_RAW_EVENTS]>,
    banks: Vec<Mutex<CounterBank>>,
    user_rdpmc: Vec<AtomicBool>,
    fidelity: FidelityModel,
    faults: FaultCell,
}

impl PmuState {
    /// Creates PMU state for `num_cores` cores with the given fidelity
    /// model.
    pub fn new(arch: ArchParams, num_cores: usize, fidelity: FidelityModel) -> Self {
        PmuState {
            arch,
            raw: (0..num_cores).map(|_| Default::default()).collect(),
            banks: (0..num_cores)
                .map(|_| Mutex::new(CounterBank::default()))
                .collect(),
            user_rdpmc: (0..num_cores).map(|_| AtomicBool::new(false)).collect(),
            fidelity,
            faults: FaultCell::new(),
        }
    }

    /// The fault-injection cell consulted on every counter read.
    pub fn fault_cell(&self) -> &FaultCell {
        &self.faults
    }

    /// Number of cores covered.
    pub fn num_cores(&self) -> usize {
        self.raw.len()
    }

    /// Accumulates `n` occurrences of a raw event on a core. Called by the
    /// memory simulator; not a privileged operation because it models the
    /// hardware itself.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn add(&self, core: usize, event: RawEvent, n: u64) {
        self.raw[core][event.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Ground-truth raw count (no fidelity skew). For validation and tests
    /// only — emulator code must go through [`PmuState::rdpmc`].
    pub fn raw(&self, core: usize, event: RawEvent) -> u64 {
        self.raw[core][event.index()].load(Ordering::Relaxed)
    }

    /// The true (unskewed) value of a selectable event.
    pub fn true_value(&self, core: usize, event: EventKind) -> u64 {
        match event {
            EventKind::StallsL2Pending => self.raw(core, RawEvent::StallCyclesL2Pending),
            EventKind::L3Hit => self.raw(core, RawEvent::L3HitLoads),
            EventKind::L3MissLocal => self.raw(core, RawEvent::L3MissLocalLoads),
            EventKind::L3MissRemote => self.raw(core, RawEvent::L3MissRemoteLoads),
            EventKind::L3MissAll => {
                self.raw(core, RawEvent::L3MissLocalLoads)
                    + self.raw(core, RawEvent::L3MissRemoteLoads)
            }
            EventKind::StallsStoreBuffer => self.raw(core, RawEvent::StallCyclesStoreBuffer),
            EventKind::StoreMissLocal => self.raw(core, RawEvent::StoreMissLocal),
            EventKind::StoreMissRemote => self.raw(core, RawEvent::StoreMissRemote),
            EventKind::StoreMissAll => {
                self.raw(core, RawEvent::StoreMissLocal) + self.raw(core, RawEvent::StoreMissRemote)
            }
        }
    }

    /// Zeroes every raw count (between experiment trials).
    pub fn reset(&self) {
        for core in &self.raw {
            for cell in core {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn program_bank(
        &self,
        core: CoreId,
        events: &[EventKind],
    ) -> Result<(), PlatformError> {
        for &ev in events {
            if !ev.available_on(self.arch.arch) {
                return Err(PlatformError::EventUnavailable { event: ev });
            }
        }
        self.banks[core.0].lock().program(events);
        Ok(())
    }

    pub(crate) fn set_user_rdpmc(&self, core: CoreId, enabled: bool) {
        self.user_rdpmc[core.0].store(enabled, Ordering::Relaxed);
    }

    /// Executes `rdpmc` for counter slot `index` on `core`, returning the
    /// (fidelity-skewed) value masked to the 48-bit hardware counter
    /// width — values wrap modulo `2^48` exactly like real silicon.
    ///
    /// # Errors
    ///
    /// Fails if user-mode access was not enabled on the core, the slot
    /// is not programmed, or an installed fault injector declares this
    /// read transiently broken ([`PlatformError::TransientPmuRead`]).
    pub fn rdpmc(&self, core: CoreId, index: usize) -> Result<u64, PlatformError> {
        if !self.user_rdpmc[core.0].load(Ordering::Relaxed) {
            return Err(PlatformError::UserRdpmcDisabled { core });
        }
        let event = self.banks[core.0]
            .lock()
            .event_at(index)
            .ok_or(PlatformError::CounterNotProgrammed { core, index })?;
        let true_val = self.true_value(core.0, event);
        let mut val = self.fidelity.distort(event, true_val);
        if let Some(inj) = self.faults.get() {
            if inj.pmu_read_error(core, index) {
                return Err(PlatformError::TransientPmuRead { core, index });
            }
            val = val.wrapping_add(inj.pmu_counter_offset(core, index));
        }
        Ok(val & COUNTER_MASK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;

    fn pmu() -> PmuState {
        PmuState::new(
            Architecture::IvyBridge.params(),
            2,
            FidelityModel::perfect(),
        )
    }

    #[test]
    fn add_and_read_raw() {
        let p = pmu();
        p.add(0, RawEvent::L3HitLoads, 5);
        p.add(0, RawEvent::L3HitLoads, 2);
        p.add(1, RawEvent::L3HitLoads, 9);
        assert_eq!(p.raw(0, RawEvent::L3HitLoads), 7);
        assert_eq!(p.raw(1, RawEvent::L3HitLoads), 9);
    }

    #[test]
    fn l3miss_all_sums_local_and_remote() {
        let p = pmu();
        p.add(0, RawEvent::L3MissLocalLoads, 3);
        p.add(0, RawEvent::L3MissRemoteLoads, 4);
        assert_eq!(p.true_value(0, EventKind::L3MissAll), 7);
    }

    #[test]
    fn store_events_accumulate_independently_of_load_events() {
        let p = pmu();
        p.add(0, RawEvent::StoreMissLocal, 5);
        p.add(0, RawEvent::StoreMissRemote, 2);
        p.add(0, RawEvent::StallCyclesStoreBuffer, 900);
        assert_eq!(p.true_value(0, EventKind::StoreMissLocal), 5);
        assert_eq!(p.true_value(0, EventKind::StoreMissRemote), 2);
        assert_eq!(p.true_value(0, EventKind::StoreMissAll), 7);
        assert_eq!(p.true_value(0, EventKind::StallsStoreBuffer), 900);
        // The load-side quantities are untouched.
        assert_eq!(p.true_value(0, EventKind::L3MissAll), 0);
        assert_eq!(p.true_value(0, EventKind::StallsL2Pending), 0);
    }

    #[test]
    fn rdpmc_requires_user_enable() {
        let p = pmu();
        p.program_bank(CoreId(0), &[EventKind::L3Hit]).unwrap();
        assert!(matches!(
            p.rdpmc(CoreId(0), 0),
            Err(PlatformError::UserRdpmcDisabled { .. })
        ));
        p.set_user_rdpmc(CoreId(0), true);
        assert_eq!(p.rdpmc(CoreId(0), 0).unwrap(), 0);
    }

    #[test]
    fn rdpmc_unprogrammed_slot_errors() {
        let p = pmu();
        p.set_user_rdpmc(CoreId(0), true);
        assert!(matches!(
            p.rdpmc(CoreId(0), 3),
            Err(PlatformError::CounterNotProgrammed { index: 3, .. })
        ));
    }

    #[test]
    fn programming_unavailable_event_fails() {
        let p = PmuState::new(
            Architecture::SandyBridge.params(),
            1,
            FidelityModel::perfect(),
        );
        let err = p
            .program_bank(CoreId(0), &[EventKind::L3MissLocal])
            .unwrap_err();
        assert!(matches!(err, PlatformError::EventUnavailable { .. }));
    }

    #[test]
    fn reset_zeroes_counts() {
        let p = pmu();
        p.add(0, RawEvent::StallCyclesL2Pending, 100);
        p.reset();
        assert_eq!(p.raw(0, RawEvent::StallCyclesL2Pending), 0);
    }

    #[test]
    fn rdpmc_masks_to_48_bits() {
        // A counter parked just below 2^48 wraps after a small
        // increment: the read must come back masked, never >= 2^48.
        let p = pmu();
        p.program_bank(CoreId(0), &[EventKind::L3Hit]).unwrap();
        p.set_user_rdpmc(CoreId(0), true);
        p.add(0, RawEvent::L3HitLoads, COUNTER_MASK - 9);
        assert_eq!(p.rdpmc(CoreId(0), 0).unwrap(), COUNTER_MASK - 9);
        p.add(0, RawEvent::L3HitLoads, 30);
        // (2^48 - 10) + 30 wraps to 20.
        assert_eq!(p.rdpmc(CoreId(0), 0).unwrap(), 20);
    }

    #[test]
    fn injector_offset_and_transient_errors() {
        use crate::faults::FaultInjector;
        use std::sync::atomic::AtomicU64;

        struct Inj {
            calls: AtomicU64,
        }
        impl FaultInjector for Inj {
            fn pmu_read_error(&self, _core: CoreId, _slot: usize) -> bool {
                // First read fails, later reads succeed.
                self.calls.fetch_add(1, Ordering::Relaxed) == 0
            }
            fn pmu_counter_offset(&self, _core: CoreId, _slot: usize) -> u64 {
                COUNTER_MASK - 4
            }
        }

        let p = pmu();
        p.program_bank(CoreId(0), &[EventKind::L3Hit]).unwrap();
        p.set_user_rdpmc(CoreId(0), true);
        p.add(0, RawEvent::L3HitLoads, 10);
        p.fault_cell().install(std::sync::Arc::new(Inj {
            calls: AtomicU64::new(0),
        }));
        assert!(matches!(
            p.rdpmc(CoreId(0), 0),
            Err(PlatformError::TransientPmuRead { index: 0, .. })
        ));
        // 10 + (2^48 - 5) wraps to 5.
        assert_eq!(p.rdpmc(CoreId(0), 0).unwrap(), 5);
        p.fault_cell().clear();
        assert_eq!(p.rdpmc(CoreId(0), 0).unwrap(), 10);
    }

    #[test]
    fn rdpmc_applies_fidelity() {
        let p = PmuState::new(
            Architecture::SandyBridge.params(),
            1,
            FidelityModel::new(Architecture::SandyBridge.params(), 1234),
        );
        p.program_bank(CoreId(0), &[EventKind::StallsL2Pending])
            .unwrap();
        p.set_user_rdpmc(CoreId(0), true);
        p.add(0, RawEvent::StallCyclesL2Pending, 1_000_000);
        let read = p.rdpmc(CoreId(0), 0).unwrap();
        assert_ne!(read, 1_000_000, "SNB stall counter should be skewed");
        let rel = (read as f64 - 1e6).abs() / 1e6;
        assert!(rel < 0.1);
    }
}
