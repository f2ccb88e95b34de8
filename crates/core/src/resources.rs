//! Server-side resource capacities and admission control.
//!
//! S-CORE "adheres to server-side resource capacity boundaries" (§I): a VM
//! migrates only when Theorem 1 holds *and* "the target host has sufficient
//! system resources (e.g., residual CPU, memory and host bandwidth)
//! available" (§VI). The capacity probe of §V-B5 reports "how many more VMs
//! it is able to host and the amount of RAM it has available (to account
//! for VMs with heterogeneous RAM requirements)".
//!
//! Every VM of a cluster here has the same demand, so the RAM half of that
//! answer adds nothing to the count: a server hosts
//! [`ServerSpec::vm_capacity`] VMs, the largest count whose slots, RAM and
//! CPU all fit, derived once per cluster. Admission is then one free-slot
//! count per server against that number; host bandwidth depends on where
//! a VM's peers run, so [`crate::Cluster::can_host`] checks it apart.

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

    /// How many VMs of demand `vm` one server hosts, and the resource
    /// that refuses the next one: the first of slot, RAM and CPU, in that
    /// order, that runs out at this count. CPU is summed one VM at a time
    /// and admits a sum up to `cpu_cores + 1e-9`, so a demand no binary
    /// fraction holds (0.3 cores, say) counts as repeated admissions did.
    pub fn vm_capacity(&self, vm: &VmSpec) -> (u32, AdmissionError) {
        let ram = self.ram_mb.checked_div(vm.ram_mb).unwrap_or(u32::MAX);
        let mut cpu = 0.0;
        for hosted in 0..self.vm_slots.min(ram) {
            let next = cpu + vm.cpu_cores;
            if next > self.cpu_cores + 1e-9 {
                return (hosted, AdmissionError::Cpu);
            }
            if next <= cpu {
                break; // a demand that does not grow the sum never binds
            }
            cpu = next;
        }
        if self.vm_slots <= ram {
            (self.vm_slots, AdmissionError::NoSlot)
        } else {
            (ram, AdmissionError::Ram)
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

    fn server(vm_slots: u32, ram_mb: u32, cpu_cores: f64) -> ServerSpec {
        ServerSpec {
            vm_slots,
            ram_mb,
            cpu_cores,
            nic_bps: 1e9,
        }
    }

    #[test]
    fn admission_slot_limit() {
        let vm = VmSpec::paper_default();
        assert_eq!(
            ServerSpec::paper_default().vm_capacity(&vm),
            (16, AdmissionError::NoSlot)
        );
        assert_eq!(
            server(2, 10_000, 32.0).vm_capacity(&vm),
            (2, AdmissionError::NoSlot)
        );
        // When slots and RAM run out at the same count, the slot is
        // checked first.
        assert_eq!(
            server(2, 2 * 196, 32.0).vm_capacity(&vm),
            (2, AdmissionError::NoSlot)
        );
        // A VM that demands nothing is bounded by slots alone.
        let free = VmSpec {
            ram_mb: 0,
            cpu_cores: 0.0,
        };
        assert_eq!(
            server(7, 0, 0.0).vm_capacity(&free),
            (7, AdmissionError::NoSlot)
        );
    }

    #[test]
    fn admission_ram_limit() {
        let vm = VmSpec {
            ram_mb: 196,
            cpu_cores: 0.1,
        };
        assert_eq!(
            server(16, 300, 32.0).vm_capacity(&vm),
            (1, AdmissionError::Ram)
        );
        assert_eq!(
            server(16, 3 * 196 + 195, 32.0).vm_capacity(&vm),
            (3, AdmissionError::Ram)
        );
        assert_eq!(
            server(16, 100, 32.0).vm_capacity(&vm),
            (0, AdmissionError::Ram)
        );
        // RAM before CPU when both run out at the same count.
        assert_eq!(
            server(16, 2 * 196, 0.2).vm_capacity(&vm),
            (2, AdmissionError::Ram)
        );
    }

    #[test]
    fn admission_cpu_limit() {
        let vm = |cpu_cores| VmSpec {
            ram_mb: 10,
            cpu_cores,
        };
        assert_eq!(
            server(16, 10_000, 1.0).vm_capacity(&vm(0.6)),
            (1, AdmissionError::Cpu)
        );
        // The count is where a sum of one VM at a time first passes the
        // cores, whatever the demand rounds to: 0.3, 0.1 and 0.7 are no
        // binary fractions, and 0.1 + 0.1 + 0.1 lands above 0.3, inside
        // the 1e-9 slack.
        for (demand, cores, fits) in [(0.3, 2.4, 8), (0.3, 0.9, 3), (0.1, 0.3, 3), (0.7, 2.1, 3)] {
            let sum = |n: u32| (0..n).map(|_| demand).sum::<f64>();
            assert!(sum(fits) <= cores + 1e-9 && sum(fits + 1) > cores + 1e-9);
            assert_eq!(
                server(16, 10_000, cores).vm_capacity(&vm(demand)),
                (fits, AdmissionError::Cpu),
                "{demand} cores against {cores}"
            );
        }
    }

    #[test]
    fn admission_error_display() {
        assert_eq!(AdmissionError::NoSlot.to_string(), "no free VM slot");
        assert!(AdmissionError::Bandwidth.to_string().contains("bandwidth"));
    }
}
