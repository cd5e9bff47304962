//! The simulated kernel module.
//!
//! The real Quartz ships "a simple kernel module" that (1) programs the
//! thermal-control registers through PCI config space and (2) programs
//! the performance counters and enables direct user-mode `rdpmc` access
//! (paper §3.1). This type is the only way to mint the
//! [`crate::pci::PrivilegeToken`] those operations need,
//! reproducing the user/kernel privilege boundary.

use std::sync::Arc;

use crate::arch::Architecture;
use crate::error::PlatformError;
use crate::faults::FaultCell;
use crate::pci::{PciConfigSpace, PrivilegeToken};
use crate::pmu::bank::{CounterSelection, StandardCounters};
use crate::pmu::events::{standard_event_set, store_event_set, EventKind};
use crate::pmu::PmuState;
use crate::thermal::ThermalControl;
use crate::topology::{CoreId, SocketId, Topology};

/// Handle to the loaded kernel module.
#[derive(Clone, Debug)]
pub struct KernelModule {
    arch: Architecture,
    pmu: Arc<PmuState>,
    thermal: ThermalControl,
    topology: Topology,
    faults: FaultCell,
}

impl KernelModule {
    pub(crate) fn new(
        arch: Architecture,
        pmu: Arc<PmuState>,
        pci: Arc<PciConfigSpace>,
        topology: Topology,
        faults: FaultCell,
    ) -> Self {
        KernelModule {
            arch,
            pmu,
            thermal: ThermalControl::new(pci),
            topology,
            faults,
        }
    }

    /// The core count a topology read observes right now — equal to the
    /// true count unless an installed injector serves a stale snapshot.
    pub fn observed_num_cores(&self) -> usize {
        let true_cores = self.topology.num_cores();
        match self.faults.get() {
            Some(inj) => inj.observed_num_cores(true_cores),
            None => true_cores,
        }
    }

    fn token(&self) -> PrivilegeToken {
        PrivilegeToken(())
    }

    /// Programs the paper's Table 1 event set on `core` and enables
    /// user-mode `rdpmc` there, returning the slot assignments.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the machine.
    pub fn program_standard_counters(&self, core: usize) -> StandardCounters {
        self.program_event_sets(core, false)
    }

    /// Programs the Table 1 event set *plus* the store-side events the
    /// asymmetric write model reads (`RESOURCE_STALLS:SB` and the
    /// RFO/streaming-store miss counters) in one bank write, and enables
    /// user-mode `rdpmc`. A single programming call matters: reprogramming
    /// a bank clears unlisted slots, so programming standard and store
    /// sets separately would lose whichever went first.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the machine.
    pub fn program_asymmetric_counters(&self, core: usize) -> StandardCounters {
        self.program_event_sets(core, true)
    }

    fn program_event_sets(&self, core: usize, with_stores: bool) -> StandardCounters {
        let core = CoreId(core);
        assert!(core.0 < self.topology.num_cores(), "{core} out of range");
        let mut events = standard_event_set(self.arch);
        if with_stores {
            events.extend(store_event_set(self.arch));
        }
        self.pmu
            .program_bank(core, &events)
            .expect("standard event set must be programmable");
        self.pmu.set_user_rdpmc(core, true);
        let sel = |ev: EventKind| -> Option<CounterSelection> {
            events
                .iter()
                .position(|e| *e == ev)
                .map(|slot| CounterSelection { slot, event: ev })
        };
        StandardCounters {
            stalls_l2_pending: sel(EventKind::StallsL2Pending).expect("always programmed"),
            l3_hit: sel(EventKind::L3Hit).expect("always programmed"),
            l3_miss_local: sel(EventKind::L3MissLocal),
            l3_miss_remote: sel(EventKind::L3MissRemote),
            l3_miss_all: sel(EventKind::L3MissAll),
            store_stalls: sel(EventKind::StallsStoreBuffer),
            store_miss_local: sel(EventKind::StoreMissLocal),
            store_miss_remote: sel(EventKind::StoreMissRemote),
            store_miss_all: sel(EventKind::StoreMissAll),
        }
    }

    /// Fallible variant of [`KernelModule::program_standard_counters`]
    /// that trusts the (possibly stale) topology snapshot instead of the
    /// hardware: registration on a core the snapshot excludes fails with
    /// [`PlatformError::StaleTopology`]. Callers retry after a refresh,
    /// or fall back to the panicking variant once they decide to trust
    /// the hardware over the snapshot.
    ///
    /// # Errors
    ///
    /// Fails if a stale topology read excludes `core`, or if `core` is
    /// genuinely out of range.
    pub fn try_program_standard_counters(
        &self,
        core: usize,
    ) -> Result<StandardCounters, PlatformError> {
        let observed = self.observed_num_cores();
        if core >= observed {
            return Err(PlatformError::StaleTopology {
                observed_cores: observed,
                core: CoreId(core),
            });
        }
        Ok(self.program_standard_counters(core))
    }

    /// Fallible variant of [`KernelModule::program_asymmetric_counters`]
    /// with the same stale-topology semantics as
    /// [`KernelModule::try_program_standard_counters`].
    ///
    /// # Errors
    ///
    /// Fails if a stale topology read excludes `core`, or if `core` is
    /// genuinely out of range.
    pub fn try_program_asymmetric_counters(
        &self,
        core: usize,
    ) -> Result<StandardCounters, PlatformError> {
        let observed = self.observed_num_cores();
        if core >= observed {
            return Err(PlatformError::StaleTopology {
                observed_cores: observed,
                core: CoreId(core),
            });
        }
        Ok(self.program_asymmetric_counters(core))
    }

    /// Enables or disables user-mode `rdpmc` on a core.
    pub fn set_user_rdpmc(&self, core: usize, enabled: bool) {
        self.pmu.set_user_rdpmc(CoreId(core), enabled);
    }

    /// Sets the 12-bit DIMM throttle value on every channel of `socket`.
    ///
    /// # Errors
    ///
    /// Fails if the value exceeds 12 bits or the socket does not exist.
    pub fn set_dimm_throttle(&self, socket: SocketId, value: u32) -> Result<(), PlatformError> {
        self.thermal
            .set_throttle_socket(&self.token(), socket, value)
    }

    /// Typed view of the thermal registers.
    pub fn thermal(&self) -> &ThermalControl {
        &self.thermal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, PlatformConfig};
    use crate::Architecture;

    #[test]
    fn standard_counters_snb_vs_ivb() {
        let snb = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        let sel = snb.kernel_module().program_standard_counters(0);
        assert!(sel.l3_miss_all.is_some());
        assert!(sel.l3_miss_local.is_none());
        assert_eq!(sel.len(), 3);

        let ivb = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
        let sel = ivb.kernel_module().program_standard_counters(0);
        assert!(sel.l3_miss_all.is_none());
        assert!(sel.l3_miss_local.is_some());
        assert!(sel.l3_miss_remote.is_some());
        assert_eq!(sel.len(), 4);
    }

    #[test]
    fn asymmetric_counters_extend_the_standard_layout() {
        let ivb = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
        let std_sel = ivb.kernel_module().program_standard_counters(0);
        assert_eq!(std_sel.store_len(), 0);
        let sel = ivb.kernel_module().program_asymmetric_counters(0);
        // The standard slots keep their positions: the asymmetric set is
        // a pure extension, which is what keeps symmetric epoch math
        // byte-identical when the store slots go unread.
        assert_eq!(sel.stalls_l2_pending, std_sel.stalls_l2_pending);
        assert_eq!(sel.l3_hit, std_sel.l3_hit);
        assert_eq!(sel.l3_miss_local, std_sel.l3_miss_local);
        assert_eq!(sel.l3_miss_remote, std_sel.l3_miss_remote);
        assert_eq!(sel.store_len(), 3);
        assert_eq!(sel.len(), 7);
        assert!(sel.store_stalls.is_some());
        assert!(sel.store_miss_local.is_some());
        assert!(sel.store_miss_remote.is_some());
        assert!(sel.store_miss_all.is_none());

        let snb = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        let sel = snb.kernel_module().program_asymmetric_counters(0);
        assert_eq!(sel.store_len(), 2);
        assert_eq!(sel.len(), 5);
        assert!(sel.store_miss_all.is_some());
        assert!(sel.store_miss_local.is_none());
        // All programmed slots are readable.
        assert_eq!(
            snb.pmu()
                .rdpmc(CoreId(0), sel.store_stalls.unwrap().slot)
                .unwrap(),
            0
        );
    }

    #[test]
    fn try_program_asymmetric_respects_stale_topology() {
        use crate::faults::FaultInjector;

        struct Stale;
        impl FaultInjector for Stale {
            fn observed_num_cores(&self, _true_cores: usize) -> usize {
                1
            }
        }

        let p = Platform::new(PlatformConfig::new(Architecture::Haswell));
        let kmod = p.kernel_module();
        assert!(kmod.try_program_asymmetric_counters(2).is_ok());
        p.install_fault_injector(std::sync::Arc::new(Stale));
        assert!(matches!(
            kmod.try_program_asymmetric_counters(2),
            Err(PlatformError::StaleTopology { .. })
        ));
        p.clear_fault_injector();
    }

    #[test]
    fn programming_enables_rdpmc() {
        let p = Platform::new(PlatformConfig::new(Architecture::Haswell));
        let sel = p.kernel_module().program_standard_counters(2);
        // Counter reads now succeed (value zero, nothing accumulated).
        assert_eq!(
            p.pmu()
                .rdpmc(CoreId(2), sel.stalls_l2_pending.slot)
                .unwrap(),
            0
        );
    }

    #[test]
    fn stale_topology_rejects_live_cores() {
        use crate::faults::FaultInjector;

        struct Stale;
        impl FaultInjector for Stale {
            fn observed_num_cores(&self, _true_cores: usize) -> usize {
                2
            }
        }

        let p = Platform::new(PlatformConfig::new(Architecture::Haswell).with_cores_per_socket(2));
        let kmod = p.kernel_module();
        assert_eq!(kmod.observed_num_cores(), 4);
        assert!(kmod.try_program_standard_counters(3).is_ok());

        p.install_fault_injector(std::sync::Arc::new(Stale));
        assert_eq!(kmod.observed_num_cores(), 2);
        let err = kmod.try_program_standard_counters(3).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::StaleTopology {
                observed_cores: 2,
                core: CoreId(3)
            }
        ));
        // Cores inside the stale snapshot still register fine.
        assert!(kmod.try_program_standard_counters(1).is_ok());
        p.clear_fault_injector();
        assert!(kmod.try_program_standard_counters(3).is_ok());
    }

    #[test]
    fn throttle_via_kmod() {
        let p = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
        let kmod = p.kernel_module();
        kmod.set_dimm_throttle(SocketId(1), 0x400).unwrap();
        assert_eq!(kmod.thermal().throttle_value(SocketId(1), 2), 0x400);
    }
}
