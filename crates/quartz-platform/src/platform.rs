//! The assembled platform: architecture, topology, PMU, PCI, DVFS, TSC.

use std::sync::Arc;

use crate::arch::{ArchParams, Architecture};
use crate::dvfs::DvfsModel;
use crate::faults::{FaultCell, FaultInjector};
use crate::kmod::KernelModule;
use crate::pci::PciConfigSpace;
use crate::pmu::{FidelityModel, PmuState};
use crate::time::{Duration, Frequency, SimTime};
use crate::topology::{CoreId, Topology};
use crate::tsc::Tsc;

/// Cycle costs of the software operations the paper quantifies in §3.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCosts {
    /// One `rdpmc` read incl. serialization (≈500 cycles; the paper says
    /// counter reads make up "roughly half" of the ≈4000-cycle epoch).
    pub rdpmc_cycles: u64,
    /// One `rdtscp` read (used inside spin loops).
    pub rdtscp_cycles: u64,
    /// One `clock_gettime` call (monitor thread epoch-age checks).
    pub clock_gettime_cycles: u64,
    /// Model evaluation + bookkeeping per epoch (the other ≈2000 cycles).
    pub epoch_compute_cycles: u64,
    /// Reading one counter through a PAPI-like virtualized framework
    /// (30000 cycles for the full set — "about 8 times higher" than
    /// rdpmc, §3.2).
    pub papi_read_cycles: u64,
    /// Registering one application thread with the monitor. The paper
    /// §3.2 quotes "300,000 cycles" but also "10 microseconds on a
    /// 2.2 GHz CPU" (= 22,000 cycles); the two are inconsistent, and we
    /// adopt the wall-clock figure.
    pub thread_register_cycles: u64,
    /// Library initialization (≈5.5 billion cycles ≈ 2.5 s at 2.2 GHz,
    /// §3.2). Charged to a separate init clock, not the workload.
    pub lib_init_cycles: u64,
}

impl Default for OpCosts {
    fn default() -> Self {
        OpCosts {
            rdpmc_cycles: 500,
            rdtscp_cycles: 32,
            clock_gettime_cycles: 120,
            epoch_compute_cycles: 2_000,
            papi_read_cycles: 7_500,
            thread_register_cycles: 22_000,
            lib_init_cycles: 5_500_000_000,
        }
    }
}

/// Configuration for building a [`Platform`].
#[derive(Clone, Debug)]
pub struct PlatformConfig {
    /// Processor family to model.
    pub arch: Architecture,
    /// Number of sockets (the paper's testbeds are all two-socket).
    pub sockets: usize,
    /// Cores per socket; defaults to the family's physical core count.
    pub cores_per_socket: Option<usize>,
    /// Run-seed for the counter fidelity model.
    pub fidelity_seed: u64,
    /// Use perfectly accurate counters (ablation).
    pub perfect_counters: bool,
    /// Software operation costs.
    pub op_costs: OpCosts,
}

impl PlatformConfig {
    /// A two-socket machine of the given family with default costs.
    pub fn new(arch: Architecture) -> Self {
        PlatformConfig {
            arch,
            sockets: 2,
            cores_per_socket: None,
            fidelity_seed: 0x5EED,
            perfect_counters: false,
            op_costs: OpCosts::default(),
        }
    }

    /// Overrides the fidelity seed.
    pub fn with_fidelity_seed(mut self, seed: u64) -> Self {
        self.fidelity_seed = seed;
        self
    }

    /// Uses perfectly accurate counters (ablation).
    pub fn with_perfect_counters(mut self) -> Self {
        self.perfect_counters = true;
        self
    }

    /// Overrides cores per socket (to keep small tests cheap).
    pub fn with_cores_per_socket(mut self, cores: usize) -> Self {
        self.cores_per_socket = Some(cores);
        self
    }
}

#[derive(Debug)]
struct PlatformInner {
    params: ArchParams,
    topology: Topology,
    pmu: Arc<PmuState>,
    pci: Arc<PciConfigSpace>,
    dvfs: DvfsModel,
    tsc: Tsc,
    op_costs: OpCosts,
    faults: FaultCell,
}

/// A cheaply-cloneable handle to the simulated machine.
///
/// ```
/// use quartz_platform::{Architecture, Platform, PlatformConfig};
/// let p = Platform::new(PlatformConfig::new(Architecture::Haswell));
/// assert_eq!(p.topology().num_sockets(), 2);
/// assert_eq!(p.frequency().mhz(), 2_300);
/// ```
#[derive(Clone, Debug)]
pub struct Platform {
    inner: Arc<PlatformInner>,
}

impl Platform {
    /// Builds the machine.
    pub fn new(config: PlatformConfig) -> Self {
        let params = config.arch.params();
        let cores = config.cores_per_socket.unwrap_or(params.cores_per_socket);
        let topology = Topology::new(config.sockets, cores);
        let fidelity = if config.perfect_counters {
            FidelityModel::perfect()
        } else {
            FidelityModel::new(params, config.fidelity_seed)
        };
        let pmu = Arc::new(PmuState::new(params, topology.num_cores(), fidelity));
        // One logical injector slot for the whole machine: the PMU and
        // PCI spaces share clones of the same cell so a single install
        // reaches every seam.
        let faults = pmu.fault_cell().clone();
        let mut pci = PciConfigSpace::new(config.sockets);
        pci.set_fault_cell(faults.clone());
        let pci = Arc::new(pci);
        Platform {
            inner: Arc::new(PlatformInner {
                params,
                topology,
                pmu,
                pci,
                dvfs: DvfsModel::new(),
                tsc: Tsc::new(params.frequency),
                op_costs: config.op_costs,
                faults,
            }),
        }
    }

    /// Installs a fault injector at every platform seam (PMU reads,
    /// thermal writes, TSC reads, topology reads, epoch timers).
    pub fn install_fault_injector(&self, injector: Arc<dyn FaultInjector>) {
        self.inner.faults.install(injector);
    }

    /// Removes any installed fault injector.
    pub fn clear_fault_injector(&self) {
        self.inner.faults.clear();
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<dyn FaultInjector>> {
        self.inner.faults.get()
    }

    /// The family's measured parameters.
    pub fn arch_params(&self) -> ArchParams {
        self.inner.params
    }

    /// The processor family.
    pub fn arch(&self) -> Architecture {
        self.inner.params.arch
    }

    /// Nominal core frequency.
    pub fn frequency(&self) -> Frequency {
        self.inner.params.frequency
    }

    /// Socket/core layout.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The PMU.
    pub fn pmu(&self) -> &PmuState {
        &self.inner.pmu
    }

    /// The DVFS model.
    pub fn dvfs(&self) -> &DvfsModel {
        &self.inner.dvfs
    }

    /// The timestamp counter.
    pub fn tsc(&self) -> Tsc {
        self.inner.tsc
    }

    /// Reads the TSC as observed on `core` at simulated instant `now`,
    /// applying any injected per-socket skew. With no injector this is
    /// exactly [`Tsc::read`].
    pub fn read_tsc(&self, core: CoreId, now: SimTime) -> u64 {
        match self.inner.faults.get() {
            None => self.inner.tsc.read(now),
            Some(inj) => {
                let socket = self.inner.topology.socket_of(core);
                self.inner.tsc.read_skewed(now, inj.tsc_skew_cycles(socket))
            }
        }
    }

    /// Software operation cycle costs.
    pub fn op_costs(&self) -> OpCosts {
        self.inner.op_costs
    }

    /// Loads the kernel module, granting privileged access.
    pub fn kernel_module(&self) -> KernelModule {
        KernelModule::new(
            self.arch(),
            Arc::clone(&self.inner.pmu),
            Arc::clone(&self.inner.pci),
            self.inner.topology.clone(),
            self.inner.faults.clone(),
        )
    }

    /// Unprivileged typed view of the thermal registers (hardware side,
    /// for the memory model).
    pub fn thermal_view(&self) -> crate::thermal::ThermalControl {
        crate::thermal::ThermalControl::new(Arc::clone(&self.inner.pci))
    }

    /// Converts cycles to a duration at the nominal frequency.
    pub fn cycles(&self, cycles: u64) -> Duration {
        self.frequency().cycles_to_duration(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmu::{EventKind, RawEvent};
    use crate::CoreId;

    #[test]
    fn builds_with_family_core_counts() {
        // Two sockets of two-way hyper-threaded logical CPUs.
        let p = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        assert_eq!(p.topology().num_cores(), 32);
        let p = Platform::new(PlatformConfig::new(Architecture::IvyBridge));
        assert_eq!(p.topology().num_cores(), 40);
    }

    #[test]
    fn perfect_counters_read_exact() {
        let p =
            Platform::new(PlatformConfig::new(Architecture::SandyBridge).with_perfect_counters());
        let sel = p.kernel_module().program_standard_counters(0);
        p.pmu().add(0, RawEvent::StallCyclesL2Pending, 777);
        assert_eq!(
            p.pmu()
                .rdpmc(CoreId(0), sel.stalls_l2_pending.slot)
                .unwrap(),
            777
        );
    }

    #[test]
    fn clone_shares_state() {
        let p = Platform::new(PlatformConfig::new(Architecture::Haswell));
        let p2 = p.clone();
        p.pmu().add(0, RawEvent::L3HitLoads, 3);
        assert_eq!(p2.pmu().true_value(0, EventKind::L3Hit), 3);
    }

    #[test]
    fn op_costs_default_matches_paper_ratios() {
        let c = OpCosts::default();
        // Epoch cost ≈ 4 rdpmc + compute ≈ 4000 cycles (paper §3.2).
        let epoch = 4 * c.rdpmc_cycles + c.epoch_compute_cycles;
        assert!((3_500..=4_500).contains(&epoch));
        // PAPI full-set read ≈ 30000 cycles, ≈8x the rdpmc path.
        assert_eq!(4 * c.papi_read_cycles, 30_000);
        // Thread registration: the paper's 10 us at 2.2 GHz.
        assert_eq!(c.thread_register_cycles, 22_000);
    }
}
