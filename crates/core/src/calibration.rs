//! Quantum-length calibration (§3.4).
//!
//! AQL_Sched needs to know the best quantum per application type. The
//! paper finds it offline by sweeping quantum lengths over
//! representative micro-benchmarks. AQL_Sched here runs the published
//! result, [`QuantumTable::paper_defaults`]; the `repro fig2*`
//! experiments re-run the sweep behind it.

use aql_hv::apptype::VcpuType;
use aql_sim::time::MS;

/// The calibrated best quantum per type. `None` marks a
/// quantum-agnostic type (used as cluster filler, §3.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantumTable {
    best: [Option<u64>; 5],
    /// The platform default quantum (Xen: 30 ms), used for the mixed
    /// leftover cluster.
    pub default_quantum_ns: u64,
}

impl QuantumTable {
    /// The paper's §3.4.2 result: `IOInt` → 1 ms, `ConSpin` → 1 ms,
    /// `LLCF` → 90 ms, `LoLCF` and `LLCO` agnostic.
    pub fn paper_defaults() -> Self {
        let mut t = QuantumTable {
            best: [None; 5],
            default_quantum_ns: 30 * MS,
        };
        t.set(VcpuType::IoInt, Some(MS));
        t.set(VcpuType::ConSpin, Some(MS));
        t.set(VcpuType::Llcf, Some(90 * MS));
        t.set(VcpuType::Lolcf, None);
        t.set(VcpuType::Llco, None);
        t
    }

    fn idx(t: VcpuType) -> usize {
        VcpuType::ALL.iter().position(|&x| x == t).expect("in ALL")
    }

    /// Sets the best quantum for a type (`None` = agnostic).
    pub fn set(&mut self, t: VcpuType, q: Option<u64>) {
        self.best[Self::idx(t)] = q;
    }

    /// The best quantum for a type, `None` when agnostic.
    pub fn best_for(&self, t: VcpuType) -> Option<u64> {
        self.best[Self::idx(t)]
    }

    /// The quantum a vCPU of type `t` should be scheduled with: its
    /// best quantum, or the platform default when agnostic.
    pub fn quantum_or_default(&self, t: VcpuType) -> u64 {
        self.best_for(t).unwrap_or(self.default_quantum_ns)
    }

    /// The distinct calibrated quanta, ascending (the cluster set of
    /// Algorithm 2).
    pub fn distinct_quanta(&self) -> Vec<u64> {
        let mut qs: Vec<u64> = self.best.iter().flatten().copied().collect();
        qs.sort_unstable();
        qs.dedup();
        qs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_342() {
        let t = QuantumTable::paper_defaults();
        assert_eq!(t.best_for(VcpuType::IoInt), Some(MS));
        assert_eq!(t.best_for(VcpuType::ConSpin), Some(MS));
        assert_eq!(t.best_for(VcpuType::Llcf), Some(90 * MS));
        assert_eq!(t.best_for(VcpuType::Lolcf), None);
        assert_eq!(t.best_for(VcpuType::Llco), None);
        assert_eq!(t.default_quantum_ns, 30 * MS);
    }

    #[test]
    fn agnostic_types_fall_back_to_default() {
        let t = QuantumTable::paper_defaults();
        assert_eq!(t.quantum_or_default(VcpuType::Llco), 30 * MS);
        assert_eq!(t.quantum_or_default(VcpuType::IoInt), MS);
    }

    #[test]
    fn distinct_quanta_sorted_unique() {
        let t = QuantumTable::paper_defaults();
        assert_eq!(t.distinct_quanta(), vec![MS, 90 * MS]);
    }
}
