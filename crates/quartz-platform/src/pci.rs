//! PCI configuration space of the integrated memory controller.
//!
//! The real thermal-control registers (`THRT_PWR_DIMM_[0:2]`) live in the
//! PCI configuration space of the Xeon E5 integrated memory controller and
//! require privileged access (paper §3.1); Quartz's kernel module programs
//! them on behalf of the user-mode library. We model one IMC device per
//! socket with word-addressed registers.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::error::PlatformError;
use crate::faults::FaultCell;
use crate::topology::SocketId;

/// Config-space offset of `THRT_PWR_DIMM_0`; channels 1 and 2 follow at
/// 4-byte strides.
pub const THRT_PWR_DIMM_BASE: u16 = 0x190;

/// Config-space offset of the (documented but non-functional) separate
/// *read*-bandwidth throttle register.
///
/// The paper's footnote 2 reports that Intel manuals describe separate
/// read/write throttling registers, but "these registers are not yet
/// broadly available in many latest processors" — writes to them take
/// effect in config space but have **no effect on bandwidth** in our
/// model, mirroring that finding.
pub const THRT_PWR_DIMM_READ_BASE: u16 = 0x1a0;

/// Config-space offset of the non-functional *write*-bandwidth throttle
/// register (see [`THRT_PWR_DIMM_READ_BASE`]).
pub const THRT_PWR_DIMM_WRITE_BASE: u16 = 0x1b0;

/// Number of DIMM throttle channels per socket (`THRT_PWR_DIMM_[0:2]`).
pub const DIMM_CHANNELS: usize = 3;

/// Base offsets of the register banks, in register-file order: the
/// combined throttle first, so channel `ch` of a socket is at index `ch`.
const BANKS: [u16; 3] = [
    THRT_PWR_DIMM_BASE,
    THRT_PWR_DIMM_READ_BASE,
    THRT_PWR_DIMM_WRITE_BASE,
];

/// Registers per socket in the register file.
const REGS_PER_SOCKET: usize = BANKS.len() * DIMM_CHANNELS;

/// Decodes a config-space offset to its index within one socket's
/// registers, or `None` if no register lives there (including offsets
/// inside a bank that are not 4-byte aligned).
fn decode(offset: u16) -> Option<usize> {
    BANKS.iter().enumerate().find_map(|(bank, &base)| {
        let rel = usize::from(offset.checked_sub(base)?);
        (rel % 4 == 0 && rel / 4 < DIMM_CHANNELS).then_some(bank * DIMM_CHANNELS + rel / 4)
    })
}

/// Capability token proving the caller went through the kernel module.
///
/// Only [`crate::kmod::KernelModule`] can mint one, so user-mode code
/// cannot write config space directly — the same privilege boundary the
/// real emulator has.
#[derive(Debug)]
pub struct PrivilegeToken(pub(crate) ());

/// The PCI configuration space of every socket's IMC device.
///
/// The registers are a fixed file of atomics, `REGS_PER_SOCKET` per
/// socket, so the memory model reads a throttle value on every DRAM
/// transfer without a lock. Each register is an independent word that
/// publishes no other data, so relaxed ordering is enough.
#[derive(Debug)]
pub struct PciConfigSpace {
    sockets: usize,
    regs: Box<[AtomicU32]>,
    faults: FaultCell,
}

impl PciConfigSpace {
    /// Creates config space for `sockets` IMC devices with registers at
    /// their reset values (throttle fully open: `0xFFF`).
    pub fn new(sockets: usize) -> Self {
        PciConfigSpace {
            sockets,
            regs: (0..sockets * REGS_PER_SOCKET)
                .map(|_| AtomicU32::new(0xFFF))
                .collect(),
            faults: FaultCell::new(),
        }
    }

    /// Shares the platform-wide fault cell (called once at build time,
    /// before the space is published behind an `Arc`).
    pub(crate) fn set_fault_cell(&mut self, cell: FaultCell) {
        self.faults = cell;
    }

    /// The fault cell consulted by the thermal-register path.
    pub(crate) fn fault_cell(&self) -> &FaultCell {
        &self.faults
    }

    /// Number of sockets (IMC devices).
    pub fn num_sockets(&self) -> usize {
        self.sockets
    }

    /// The register at `(socket, offset)`.
    fn reg(&self, socket: SocketId, offset: u16) -> Result<&AtomicU32, PlatformError> {
        match decode(offset) {
            Some(r) if socket.0 < self.sockets => Ok(&self.regs[socket.0 * REGS_PER_SOCKET + r]),
            _ => Err(PlatformError::BadPciAddress { offset }),
        }
    }

    /// Privileged 32-bit config read.
    ///
    /// # Errors
    ///
    /// Fails if the socket does not exist or the offset does not decode
    /// to a register.
    pub fn read32(
        &self,
        _token: &PrivilegeToken,
        socket: SocketId,
        offset: u16,
    ) -> Result<u32, PlatformError> {
        Ok(self.reg(socket, offset)?.load(Ordering::Relaxed))
    }

    /// Privileged 32-bit config write.
    ///
    /// # Errors
    ///
    /// Fails if the socket does not exist or the offset does not decode
    /// to a register.
    pub fn write32(
        &self,
        _token: &PrivilegeToken,
        socket: SocketId,
        offset: u16,
        value: u32,
    ) -> Result<(), PlatformError> {
        self.reg(socket, offset)?.store(value, Ordering::Relaxed);
        Ok(())
    }

    /// Unprivileged snapshot of a throttle register, used by the memory
    /// model (the hardware side) to apply throttling.
    #[inline]
    pub(crate) fn throttle_value(&self, socket: SocketId, channel: usize) -> Option<u32> {
        if socket.0 >= self.sockets || channel >= DIMM_CHANNELS {
            return None;
        }
        Some(self.regs[socket.0 * REGS_PER_SOCKET + channel].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token() -> PrivilegeToken {
        PrivilegeToken(())
    }

    #[test]
    fn reset_values_are_fully_open() {
        let pci = PciConfigSpace::new(2);
        for s in 0..2 {
            for ch in 0..DIMM_CHANNELS {
                assert_eq!(pci.throttle_value(SocketId(s), ch), Some(0xFFF));
            }
        }
    }

    #[test]
    fn write_then_read() {
        let pci = PciConfigSpace::new(1);
        let t = token();
        pci.write32(&t, SocketId(0), THRT_PWR_DIMM_BASE, 0x200)
            .unwrap();
        assert_eq!(
            pci.read32(&t, SocketId(0), THRT_PWR_DIMM_BASE).unwrap(),
            0x200
        );
        assert_eq!(pci.throttle_value(SocketId(0), 0), Some(0x200));
    }

    #[test]
    fn bad_offset_rejected() {
        let pci = PciConfigSpace::new(1);
        let t = token();
        let bad = [
            0x42,
            // Misaligned inside each bank.
            THRT_PWR_DIMM_BASE + 1,
            THRT_PWR_DIMM_BASE + 6,
            THRT_PWR_DIMM_READ_BASE + 3,
            THRT_PWR_DIMM_WRITE_BASE + 2,
            // One word before and one past each bank.
            THRT_PWR_DIMM_BASE - 4,
            THRT_PWR_DIMM_BASE + 4 * DIMM_CHANNELS as u16,
            THRT_PWR_DIMM_READ_BASE + 4 * DIMM_CHANNELS as u16,
            THRT_PWR_DIMM_WRITE_BASE + 4 * DIMM_CHANNELS as u16,
            0,
            u16::MAX,
        ];
        for offset in bad {
            assert!(
                matches!(
                    pci.read32(&t, SocketId(0), offset),
                    Err(PlatformError::BadPciAddress { offset: o }) if o == offset
                ),
                "read {offset:#x}"
            );
            assert!(
                matches!(
                    pci.write32(&t, SocketId(0), offset, 1),
                    Err(PlatformError::BadPciAddress { offset: o }) if o == offset
                ),
                "write {offset:#x}"
            );
        }
        // Every real register still holds its reset value.
        for base in BANKS {
            for ch in 0..DIMM_CHANNELS as u16 {
                assert_eq!(pci.read32(&t, SocketId(0), base + 4 * ch).unwrap(), 0xFFF);
            }
        }
    }

    #[test]
    fn missing_socket_or_channel_rejected() {
        let pci = PciConfigSpace::new(2);
        let t = token();
        for socket in [SocketId(2), SocketId(usize::MAX)] {
            assert!(matches!(
                pci.read32(&t, socket, THRT_PWR_DIMM_BASE),
                Err(PlatformError::BadPciAddress {
                    offset: THRT_PWR_DIMM_BASE
                })
            ));
            assert!(matches!(
                pci.write32(&t, socket, THRT_PWR_DIMM_BASE, 1),
                Err(PlatformError::BadPciAddress { .. })
            ));
            assert_eq!(pci.throttle_value(socket, 0), None);
        }
        // The failed writes landed nowhere.
        assert_eq!(pci.throttle_value(SocketId(1), 0), Some(0xFFF));
        assert_eq!(pci.throttle_value(SocketId(0), DIMM_CHANNELS), None);
        assert_eq!(pci.throttle_value(SocketId(0), usize::MAX), None);
    }

    #[test]
    fn every_register_is_distinct() {
        let pci = PciConfigSpace::new(2);
        let t = token();
        let mut v = 0;
        for s in 0..2 {
            for base in BANKS {
                for ch in 0..DIMM_CHANNELS as u16 {
                    v += 1;
                    pci.write32(&t, SocketId(s), base + 4 * ch, v).unwrap();
                }
            }
        }
        let mut v = 0;
        for s in 0..2 {
            for base in BANKS {
                for ch in 0..DIMM_CHANNELS as u16 {
                    v += 1;
                    assert_eq!(pci.read32(&t, SocketId(s), base + 4 * ch).unwrap(), v);
                }
            }
            // The combined bank is what the memory model reads.
            for ch in 0..DIMM_CHANNELS {
                let expect = 1 + (s * REGS_PER_SOCKET + ch) as u32;
                assert_eq!(pci.throttle_value(SocketId(s), ch), Some(expect));
            }
        }
    }

    #[test]
    fn read_write_registers_exist_but_are_separate() {
        let pci = PciConfigSpace::new(1);
        let t = token();
        pci.write32(&t, SocketId(0), THRT_PWR_DIMM_READ_BASE, 0x100)
            .unwrap();
        // The combined register is untouched: writes to the read/write
        // registers exist but do not throttle (paper footnote 2).
        assert_eq!(pci.throttle_value(SocketId(0), 0), Some(0xFFF));
    }
}
