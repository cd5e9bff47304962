//! The fault-injection seam: a trait the emulated platform consults at
//! every point where real hardware can misbehave, plus the shared cell
//! that carries an installed injector across the platform's components.
//!
//! The platform itself never *decides* to fault — it only asks an
//! injector (if one is installed) whether this particular operation
//! should be perturbed, and how. The deterministic plans live in the
//! `quartz-faults` crate; this module only defines the contract so that
//! `quartz-platform` keeps zero knowledge of fault scheduling policy.
//!
//! Every method has a benign default, so an injector only overrides the
//! seams it cares about, and an *empty* injector is indistinguishable
//! from no injector at all (the no-regression property the conformance
//! battery checks).

use std::sync::{Arc, RwLock};

use crate::time::Duration;
use crate::topology::{CoreId, SocketId};

/// What should happen to a thermal-register (`THRT_PWR_DIMM`) write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThermalWriteFault {
    /// The write applies exactly as requested.
    None,
    /// The write is silently dropped: the register keeps its old value.
    /// A readback-verify loop is the only way to notice.
    Drop,
    /// The write "sticks", but with a perturbed value (hardware masks it
    /// to the 12-bit register width).
    Perturb(u32),
}

/// What should happen to the next epoch-timer firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerFault {
    /// The timer fires on time and runs normally.
    None,
    /// The firing is lost entirely (the callback does not run); the
    /// period still elapses, so monitoring resumes at the next tick.
    Drop,
    /// The firing runs, but the *next* one is pushed late by the given
    /// extra delay (a late/slipped timer).
    Late(Duration),
}

/// The fault-injection contract.
///
/// Implementations must be deterministic functions of their own internal
/// state: the platform guarantees it consults each seam in a
/// deterministic order under the threadsim engine (it runs one
/// simulated thread at a time), so a seeded injector yields
/// byte-identical runs at any `--jobs` count.
pub trait FaultInjector: Send + Sync {
    /// Should this `rdpmc` read fail transiently? The reader is expected
    /// to retry with backoff; persistent `true` simulates a dead counter.
    fn pmu_read_error(&self, _core: CoreId, _slot: usize) -> bool {
        false
    }

    /// Additive offset applied to the (already distorted) counter value
    /// before masking to the 48-bit counter width. Parking a counter
    /// just below `2^48` with this makes it wrap mid-run.
    fn pmu_counter_offset(&self, _core: CoreId, _slot: usize) -> u64 {
        0
    }

    /// Consulted on every `THRT_PWR_DIMM` write after validation.
    fn thermal_write_fault(
        &self,
        _socket: SocketId,
        _channel: u16,
        _value: u32,
    ) -> ThermalWriteFault {
        ThermalWriteFault::None
    }

    /// Constant TSC skew (in cycles, may be negative) applied to every
    /// timestamp read on the given socket — cross-socket clock
    /// disagreement as seen on multi-socket parts.
    fn tsc_skew_cycles(&self, _socket: SocketId) -> i64 {
        0
    }

    /// The core count a stale topology read reports (e.g. a cached
    /// sysfs snapshot from before a core came online). Registration
    /// paths that trust this may reject valid cores.
    fn observed_num_cores(&self, true_cores: usize) -> usize {
        true_cores
    }

    /// Consulted once per epoch-timer firing.
    fn timer_fault(&self) -> TimerFault {
        TimerFault::None
    }
}

/// A shared, swappable injector slot.
///
/// One cell is created per [`Platform`](crate::Platform) and cloned into
/// the PMU state, the PCI config space, and the kernel module, so a
/// single `install` reaches every seam. `Default` is the empty cell.
#[derive(Clone, Default)]
pub struct FaultCell {
    inner: Arc<RwLock<Option<Arc<dyn FaultInjector>>>>,
}

impl FaultCell {
    /// A cell with no injector installed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the injector.
    pub fn install(&self, injector: Arc<dyn FaultInjector>) {
        *self.inner.write().unwrap() = Some(injector);
    }

    /// Removes any installed injector, restoring faithful behaviour.
    pub fn clear(&self) {
        *self.inner.write().unwrap() = None;
    }

    /// The currently installed injector, if any. Cheap when empty.
    pub fn get(&self) -> Option<Arc<dyn FaultInjector>> {
        self.inner.read().unwrap().clone()
    }
}

impl std::fmt::Debug for FaultCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.inner.read().unwrap().is_some();
        f.debug_struct("FaultCell")
            .field("installed", &installed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl FaultInjector for Nop {}

    #[test]
    fn defaults_are_benign() {
        let n = Nop;
        assert!(!n.pmu_read_error(CoreId(0), 0));
        assert_eq!(n.pmu_counter_offset(CoreId(3), 7), 0);
        assert_eq!(
            n.thermal_write_fault(SocketId(1), 2, 0x123),
            ThermalWriteFault::None
        );
        assert_eq!(n.tsc_skew_cycles(SocketId(0)), 0);
        assert_eq!(n.observed_num_cores(16), 16);
        assert_eq!(n.timer_fault(), TimerFault::None);
    }

    #[test]
    fn cell_install_get_clear() {
        let cell = FaultCell::new();
        assert!(cell.get().is_none());
        cell.install(Arc::new(Nop));
        assert!(cell.get().is_some());
        let clone = cell.clone();
        assert!(clone.get().is_some(), "clones share the slot");
        cell.clear();
        assert!(clone.get().is_none());
        assert_eq!(format!("{cell:?}"), "FaultCell { installed: false }");
    }
}
