//! End-of-run reports.

use crate::ids::VmId;
use crate::workload::WorkloadMetrics;

/// Results for one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmReport {
    /// The VM's identifier.
    pub vm: VmId,
    /// The VM's name (from its spec).
    pub name: String,
    /// CPU time per vCPU slot (ns).
    pub vcpu_cpu_ns: Vec<u64>,
    /// Pool migrations per vCPU slot.
    pub vcpu_pool_migrations: Vec<u64>,
    /// Application metrics from the VM's workload.
    pub metrics: WorkloadMetrics,
}

impl VmReport {
    /// Total CPU time across the VM's vCPUs (ns).
    pub fn cpu_ns(&self) -> u64 {
        self.vcpu_cpu_ns.iter().sum()
    }
}

/// Results of a whole simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Simulated duration (ns).
    pub sim_ns: u64,
    /// Name of the scheduling policy that ran.
    pub policy: String,
    /// Per-VM results, id-ordered.
    pub vms: Vec<VmReport>,
    /// Per-pCPU busy time (ns).
    pub pcpu_busy_ns: Vec<u64>,
}

impl RunReport {
    /// Looks a VM up by name (first match).
    pub fn vm_by_name(&self, name: &str) -> Option<&VmReport> {
        self.vms.iter().find(|v| v.name == name)
    }

    /// Total CPU time consumed by all vCPUs (ns).
    pub fn total_cpu_ns(&self) -> u64 {
        self.vms.iter().map(|v| v.cpu_ns()).sum()
    }

    /// Machine utilisation in `[0, 1]`: busy time over capacity.
    pub fn utilisation(&self) -> f64 {
        let pcpus = self.pcpu_busy_ns.len();
        if self.sim_ns == 0 || pcpus == 0 {
            return 0.0;
        }
        let cap = self.sim_ns as f64 * pcpus as f64;
        self.pcpu_busy_ns.iter().sum::<u64>() as f64 / cap
    }

    /// Jain's fairness index over per-vCPU CPU time:
    /// `(Σx)² / (n · Σx²)`, 1.0 when perfectly equal.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .vms
            .iter()
            .flat_map(|v| v.vcpu_cpu_ns.iter().map(|&x| x as f64))
            .collect();
        jain_index(&xs)
    }

    /// CPU share of one VM relative to all consumed CPU, in `[0, 1]`.
    pub fn vm_cpu_share(&self, name: &str) -> Option<f64> {
        let total = self.total_cpu_ns() as f64;
        if total <= 0.0 {
            return None;
        }
        self.vm_by_name(name).map(|v| v.cpu_ns() as f64 / total)
    }
}

/// Jain's fairness index of a sample; 1.0 = perfectly fair, `1/n` =
/// maximally unfair. Empty or all-zero input yields 1.0 (vacuously
/// fair).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{LatencySummary, WorkloadMetrics};

    fn report() -> RunReport {
        RunReport {
            sim_ns: 1_000,
            policy: "test".to_string(),
            vms: vec![
                VmReport {
                    vm: VmId(0),
                    name: "a".to_string(),
                    vcpu_cpu_ns: vec![400, 400],
                    vcpu_pool_migrations: vec![0, 0],
                    metrics: WorkloadMetrics::Mem { instructions: 1e6 },
                },
                VmReport {
                    vm: VmId(1),
                    name: "b".to_string(),
                    vcpu_cpu_ns: vec![800],
                    vcpu_pool_migrations: vec![2],
                    metrics: WorkloadMetrics::Io {
                        latency: LatencySummary {
                            count: 5,
                            mean_ns: 100.0,
                            ..Default::default()
                        },
                        completed: 5,
                        offered: 5,
                    },
                },
            ],
            pcpu_busy_ns: vec![800, 800],
        }
    }

    #[test]
    fn lookup_and_totals() {
        let r = report();
        assert_eq!(r.vm_by_name("a").unwrap().cpu_ns(), 800);
        assert!(r.vm_by_name("zzz").is_none());
        assert_eq!(r.total_cpu_ns(), 1600);
    }

    #[test]
    fn utilisation_is_busy_over_capacity() {
        let r = report();
        assert!((r.utilisation() - 0.8).abs() < 1e-12);
        // No capacity to divide by: zero, not NaN.
        let no_pcpus = RunReport {
            pcpu_busy_ns: Vec::new(),
            ..report()
        };
        assert_eq!(no_pcpus.utilisation(), 0.0);
        let unmeasured = RunReport {
            sim_ns: 0,
            ..report()
        };
        assert_eq!(unmeasured.utilisation(), 0.0);
    }

    #[test]
    fn cpu_share_sums_to_one() {
        let r = report();
        let a = r.vm_cpu_share("a").unwrap();
        let b = r.vm_cpu_share("b").unwrap();
        assert!((a + b - 1.0).abs() < 1e-12);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jain_index_properties() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One hog out of four: index = 1/4.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let r = report();
        // 400, 400, 800 → (1600²)/(3·960000) ≈ 0.888.
        assert!((r.jain_fairness() - 1600.0 * 1600.0 / (3.0 * 960_000.0)).abs() < 1e-9);
    }
}
