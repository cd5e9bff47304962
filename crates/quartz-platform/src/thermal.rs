//! Typed access to the DRAM thermal-control (bandwidth throttle)
//! registers.
//!
//! The 12-bit `THRT_PWR_DIMM_[0:2]` registers limit per-channel DRAM
//! bandwidth; the paper confirms "the throttling degree is linear in the
//! space of the register size (12 bits)" (§3.1, validated in Fig. 8).

use std::sync::Arc;

use crate::error::PlatformError;
use crate::faults::ThermalWriteFault;
use crate::pci::{PciConfigSpace, PrivilegeToken, DIMM_CHANNELS, THRT_PWR_DIMM_BASE};
use crate::topology::SocketId;

/// Maximum value of the 12-bit throttle register (fully open).
pub const THROTTLE_MAX: u32 = 0xFFF;

/// Typed wrapper over the thermal registers in PCI config space.
#[derive(Clone, Debug)]
pub struct ThermalControl {
    pci: Arc<PciConfigSpace>,
}

impl ThermalControl {
    /// Wraps a config space.
    pub fn new(pci: Arc<PciConfigSpace>) -> Self {
        ThermalControl { pci }
    }

    /// Number of throttleable channels per socket.
    pub fn channels_per_socket(&self) -> usize {
        DIMM_CHANNELS
    }

    /// Privileged write of one channel's 12-bit throttle value.
    ///
    /// # Errors
    ///
    /// Fails if the value exceeds 12 bits or the target does not exist.
    pub fn set_throttle(
        &self,
        token: &PrivilegeToken,
        socket: SocketId,
        channel: usize,
        value: u32,
    ) -> Result<(), PlatformError> {
        if value > THROTTLE_MAX {
            return Err(PlatformError::ThrottleValueOutOfRange { value });
        }
        if channel >= DIMM_CHANNELS || socket.0 >= self.pci.num_sockets() {
            return Err(PlatformError::BadThermalTarget { socket, channel });
        }
        let offset = THRT_PWR_DIMM_BASE + (channel * 4) as u16;
        // Consult the fault seam after validation: real hardware
        // accepts the transaction and *then* misapplies it.
        let effective = match self.pci.fault_cell().get() {
            Some(inj) => match inj.thermal_write_fault(socket, channel as u16, value) {
                ThermalWriteFault::None => value,
                ThermalWriteFault::Drop => return Ok(()),
                // Perturbed values stick masked to the 12-bit width.
                ThermalWriteFault::Perturb(v) => v & THROTTLE_MAX,
            },
            None => value,
        };
        self.pci.write32(token, socket, offset, effective)
    }

    /// Privileged write of all channels of a socket to the same value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ThermalControl::set_throttle`].
    pub fn set_throttle_socket(
        &self,
        token: &PrivilegeToken,
        socket: SocketId,
        value: u32,
    ) -> Result<(), PlatformError> {
        for ch in 0..DIMM_CHANNELS {
            self.set_throttle(token, socket, ch, value)?;
        }
        Ok(())
    }

    /// The raw register value currently programmed (unprivileged read,
    /// used by the hardware-side bandwidth model).
    #[inline]
    pub fn throttle_value(&self, socket: SocketId, channel: usize) -> u32 {
        self.pci
            .throttle_value(socket, channel)
            .unwrap_or(THROTTLE_MAX)
    }

    /// Fraction of peak channel bandwidth currently permitted, linear in
    /// the register value: `value / 0xFFF`.
    #[inline]
    pub fn throttle_fraction(&self, socket: SocketId, channel: usize) -> f64 {
        self.throttle_value(socket, channel) as f64 / THROTTLE_MAX as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pci::PrivilegeToken;

    fn setup() -> (ThermalControl, PrivilegeToken) {
        let pci = Arc::new(PciConfigSpace::new(2));
        (ThermalControl::new(pci), PrivilegeToken(()))
    }

    #[test]
    fn default_is_fully_open() {
        let (tc, _) = setup();
        assert_eq!(tc.throttle_fraction(SocketId(0), 0), 1.0);
    }

    #[test]
    fn throttle_fraction_is_linear() {
        let (tc, t) = setup();
        tc.set_throttle(&t, SocketId(1), 2, 0x800).unwrap();
        let f = tc.throttle_fraction(SocketId(1), 2);
        assert!((f - 0x800 as f64 / 0xFFF as f64).abs() < 1e-12);
        // Other channels unaffected.
        assert_eq!(tc.throttle_fraction(SocketId(1), 0), 1.0);
    }

    #[test]
    fn socket_wide_set() {
        let (tc, t) = setup();
        tc.set_throttle_socket(&t, SocketId(0), 100).unwrap();
        for ch in 0..DIMM_CHANNELS {
            assert_eq!(tc.throttle_value(SocketId(0), ch), 100);
        }
    }

    #[test]
    fn faulted_writes_drop_or_perturb() {
        use crate::faults::{FaultCell, FaultInjector, ThermalWriteFault};
        use crate::topology::CoreId;

        struct Inj;
        impl FaultInjector for Inj {
            fn thermal_write_fault(
                &self,
                _socket: SocketId,
                channel: u16,
                value: u32,
            ) -> ThermalWriteFault {
                match channel {
                    0 => ThermalWriteFault::Drop,
                    1 => ThermalWriteFault::Perturb(value | 0xF000_0800),
                    _ => ThermalWriteFault::None,
                }
            }
            fn pmu_read_error(&self, _core: CoreId, _slot: usize) -> bool {
                false
            }
        }

        let mut pci = PciConfigSpace::new(1);
        let cell = FaultCell::new();
        pci.set_fault_cell(cell.clone());
        let tc = ThermalControl::new(Arc::new(pci));
        let t = PrivilegeToken(());
        cell.install(std::sync::Arc::new(Inj));

        // Channel 0: the write reports success but the register keeps
        // its reset value — only a readback can notice.
        tc.set_throttle(&t, SocketId(0), 0, 0x200).unwrap();
        assert_eq!(tc.throttle_value(SocketId(0), 0), THROTTLE_MAX);
        // Channel 1: a perturbed value sticks, masked to 12 bits.
        tc.set_throttle(&t, SocketId(0), 1, 0x200).unwrap();
        assert_eq!(tc.throttle_value(SocketId(0), 1), 0xA00);
        // Channel 2: unaffected.
        tc.set_throttle(&t, SocketId(0), 2, 0x200).unwrap();
        assert_eq!(tc.throttle_value(SocketId(0), 2), 0x200);
        // Clearing the injector restores faithful writes.
        cell.clear();
        tc.set_throttle(&t, SocketId(0), 0, 0x300).unwrap();
        assert_eq!(tc.throttle_value(SocketId(0), 0), 0x300);
    }

    #[test]
    fn rejects_out_of_range() {
        let (tc, t) = setup();
        assert!(matches!(
            tc.set_throttle(&t, SocketId(0), 0, 0x1000),
            Err(PlatformError::ThrottleValueOutOfRange { value: 0x1000 })
        ));
        assert!(matches!(
            tc.set_throttle(&t, SocketId(0), DIMM_CHANNELS, 1),
            Err(PlatformError::BadThermalTarget { .. })
        ));
        assert!(matches!(
            tc.set_throttle(&t, SocketId(9), 0, 1),
            Err(PlatformError::BadThermalTarget { .. })
        ));
    }
}
