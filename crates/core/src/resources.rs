//! Server-side resource capacities and admission control.
//!
//! S-CORE "adheres to server-side resource capacity boundaries" (§I): a VM
//! migrates only when Theorem 1 holds *and* "the target host has sufficient
//! system resources (e.g., residual CPU, memory and host bandwidth)
//! available" (§VI). The capacity probe of §V-B5 reports "how many more VMs
//! it is able to host and the amount of RAM it has available (to account
//! for VMs with heterogeneous RAM requirements)".

use serde::{Deserialize, Serialize};
use std::fmt;

/// Resource demand of one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// RAM demand in MiB.
    pub ram_mb: u32,
    /// CPU demand in (possibly fractional) cores.
    pub cpu_cores: f64,
}

impl VmSpec {
    /// The paper's testbed VM: 196 MB RAM, light CPU.
    pub fn paper_default() -> Self {
        VmSpec {
            ram_mb: 196,
            cpu_cores: 0.25,
        }
    }
}

impl Default for VmSpec {
    fn default() -> Self {
        VmSpec::paper_default()
    }
}

/// Capacity of one physical server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Maximum number of VMs the hypervisor will host — "each host can
    /// accommodate up to 16 VMs to model a typical DC server's capacity"
    /// (§VI).
    pub vm_slots: u32,
    /// Total RAM in MiB.
    pub ram_mb: u32,
    /// Total CPU cores.
    pub cpu_cores: f64,
    /// NIC capacity in bits per second.
    pub nic_bps: f64,
}

impl ServerSpec {
    /// The paper's simulated server: 16 VM slots, enough RAM for them, a
    /// 1 GbE NIC.
    pub fn paper_default() -> Self {
        ServerSpec {
            vm_slots: 16,
            ram_mb: 16 * 256,
            cpu_cores: 8.0,
            nic_bps: 1e9,
        }
    }
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec::paper_default()
    }
}

/// Why a server refused to admit a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionError {
    /// All VM slots are occupied.
    NoSlot,
    /// Not enough residual RAM.
    Ram,
    /// Not enough residual CPU.
    Cpu,
    /// Admitting the VM would push NIC load over the bandwidth threshold
    /// (§V-C: "if the target host does not have sufficient bandwidth to
    /// accommodate the requesting VM, the next best choice with adequate
    /// bandwidth will be considered").
    Bandwidth,
    /// The host is marked down (crashed) — it admits nothing until the
    /// cluster is rebuilt; evacuations only ever move VMs *off* it.
    HostDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::NoSlot => write!(f, "no free VM slot"),
            AdmissionError::Ram => write!(f, "insufficient residual RAM"),
            AdmissionError::Cpu => write!(f, "insufficient residual CPU"),
            AdmissionError::Bandwidth => write!(f, "insufficient residual host bandwidth"),
            AdmissionError::HostDown => write!(f, "host is down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Running resource usage of one server.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerUsage {
    /// Occupied VM slots.
    pub slots: u32,
    /// Committed RAM in MiB.
    pub ram_mb: u32,
    /// Committed CPU cores.
    pub cpu_cores: f64,
}

impl ServerUsage {
    /// Checks whether a VM with demand `vm` fits under `spec` — slots, RAM
    /// and CPU. Host bandwidth depends on where the VM's peers run, so
    /// [`crate::Cluster::can_host`] checks it against the allocation.
    ///
    /// # Errors
    ///
    /// Returns the first violated resource as an [`AdmissionError`].
    pub fn admission_check(&self, spec: &ServerSpec, vm: &VmSpec) -> Result<(), AdmissionError> {
        if self.slots + 1 > spec.vm_slots {
            return Err(AdmissionError::NoSlot);
        }
        if self.ram_mb + vm.ram_mb > spec.ram_mb {
            return Err(AdmissionError::Ram);
        }
        if self.cpu_cores + vm.cpu_cores > spec.cpu_cores + 1e-9 {
            return Err(AdmissionError::Cpu);
        }
        Ok(())
    }

    /// Adds a VM's demand.
    pub fn admit(&mut self, vm: &VmSpec) {
        self.slots += 1;
        self.ram_mb += vm.ram_mb;
        self.cpu_cores += vm.cpu_cores;
    }

    /// Removes a VM's demand.
    ///
    /// # Panics
    ///
    /// Panics if the usage would go negative (eviction without admission).
    pub fn evict(&mut self, vm: &VmSpec) {
        assert!(self.slots >= 1, "evicting from an empty server");
        assert!(self.ram_mb >= vm.ram_mb, "RAM usage underflow");
        self.slots -= 1;
        self.ram_mb -= vm.ram_mb;
        self.cpu_cores = (self.cpu_cores - vm.cpu_cores).max(0.0);
    }
}

/// The §V-B5 capacity response: "how many more VMs it is able to host and
/// the amount of RAM it has available".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityReport {
    /// Free VM slots.
    pub free_slots: u32,
    /// Free RAM in MiB.
    pub free_ram_mb: u32,
}

impl CapacityReport {
    /// Builds the report from a server's spec and current usage.
    pub fn from_usage(spec: &ServerSpec, usage: &ServerUsage) -> Self {
        CapacityReport {
            free_slots: spec.vm_slots.saturating_sub(usage.slots),
            free_ram_mb: spec.ram_mb.saturating_sub(usage.ram_mb),
        }
    }

    /// Whether a VM of the given spec could be hosted (slot + RAM only —
    /// the coarse filter a capacity response enables before the detailed
    /// admission check).
    pub fn can_host(&self, vm: &VmSpec) -> bool {
        self.free_slots >= 1 && self.free_ram_mb >= vm.ram_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let s = ServerSpec::paper_default();
        assert_eq!(s.vm_slots, 16);
        let v = VmSpec::paper_default();
        assert_eq!(v.ram_mb, 196);
        assert_eq!(ServerSpec::default(), s);
        assert_eq!(VmSpec::default(), v);
    }

    #[test]
    fn admission_slot_limit() {
        let spec = ServerSpec {
            vm_slots: 2,
            ram_mb: 10_000,
            cpu_cores: 32.0,
            nic_bps: 1e9,
        };
        let vm = VmSpec::paper_default();
        let mut usage = ServerUsage::default();
        assert!(usage.admission_check(&spec, &vm).is_ok());
        usage.admit(&vm);
        usage.admit(&vm);
        assert_eq!(
            usage.admission_check(&spec, &vm),
            Err(AdmissionError::NoSlot)
        );
    }

    #[test]
    fn admission_ram_limit() {
        let spec = ServerSpec {
            vm_slots: 16,
            ram_mb: 300,
            cpu_cores: 32.0,
            nic_bps: 1e9,
        };
        let vm = VmSpec {
            ram_mb: 196,
            cpu_cores: 0.1,
        };
        let mut usage = ServerUsage::default();
        usage.admit(&vm);
        assert_eq!(usage.admission_check(&spec, &vm), Err(AdmissionError::Ram));
    }

    #[test]
    fn admission_cpu_limit() {
        let spec = ServerSpec {
            vm_slots: 16,
            ram_mb: 10_000,
            cpu_cores: 1.0,
            nic_bps: 1e9,
        };
        let vm = VmSpec {
            ram_mb: 10,
            cpu_cores: 0.6,
        };
        let mut usage = ServerUsage::default();
        usage.admit(&vm);
        assert_eq!(usage.admission_check(&spec, &vm), Err(AdmissionError::Cpu));
    }

    #[test]
    fn admit_evict_roundtrip() {
        let vm = VmSpec {
            ram_mb: 100,
            cpu_cores: 0.5,
        };
        let mut usage = ServerUsage::default();
        usage.admit(&vm);
        usage.admit(&vm);
        usage.evict(&vm);
        assert_eq!(usage.slots, 1);
        assert_eq!(usage.ram_mb, 100);
        usage.evict(&vm);
        assert_eq!(usage, ServerUsage::default());
    }

    #[test]
    #[should_panic(expected = "empty server")]
    fn evict_from_empty_panics() {
        let mut usage = ServerUsage::default();
        usage.evict(&VmSpec::paper_default());
    }

    #[test]
    fn capacity_report() {
        let spec = ServerSpec::paper_default();
        let mut usage = ServerUsage::default();
        let vm = VmSpec::paper_default();
        for _ in 0..15 {
            usage.admit(&vm);
        }
        let report = CapacityReport::from_usage(&spec, &usage);
        assert_eq!(report.free_slots, 1);
        assert_eq!(report.free_ram_mb, 16 * 256 - 15 * 196);
        assert!(report.can_host(&vm));
        usage.admit(&vm);
        let report = CapacityReport::from_usage(&spec, &usage);
        assert!(!report.can_host(&vm));
    }

    #[test]
    fn admission_error_display() {
        assert_eq!(AdmissionError::NoSlot.to_string(), "no free VM slot");
        assert!(AdmissionError::Bandwidth.to_string().contains("bandwidth"));
    }
}
