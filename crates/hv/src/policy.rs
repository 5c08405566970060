//! The scheduling-policy hook.
//!
//! A [`SchedPolicy`] configures the hypervisor's CPU pools and vCPU
//! placement: once at boot ([`SchedPolicy::init`]) and on every 30 ms
//! monitoring period ([`SchedPolicy::on_monitor`]), right after PMU
//! snapshots are taken. The native Xen configuration, the paper's
//! AQL_Sched and the comparator systems (vTurbo, vSlicer, Microsliced)
//! are all implementations of this trait over the same substrate, so
//! measured differences are attributable to policy alone.

use std::any::Any;

use aql_sim::time::SimTime;

use crate::engine::{DispatchDecision, Hypervisor};
use crate::ids::PoolId;
use crate::pool::PoolSpec;
use crate::DEFAULT_QUANTUM_NS;

/// A scheduler-configuration policy.
pub trait SchedPolicy {
    /// Short policy name, used in reports.
    fn name(&self) -> &str;

    /// Called once after all VMs are admitted; typically builds pools.
    fn init(&mut self, hv: &mut Hypervisor);

    /// Called every monitoring period (30 ms) after per-vCPU PMU
    /// snapshots are refreshed in `Vcpu::last_sample`.
    fn on_monitor(&mut self, _hv: &mut Hypervisor, _now: SimTime) {}

    /// Called after every [`DispatchDecision`] has been applied — the
    /// single context-switch path every policy shares. Policies
    /// influence decisions only through configuration (pool quanta,
    /// overrides, kick periods); this hook exists to *observe* the
    /// unified dispatch stream (tracing, per-slice accounting) and is
    /// a no-op by default.
    fn on_dispatch(&mut self, _hv: &Hypervisor, _decision: &DispatchDecision, _now: SimTime) {}

    /// Downcast support so experiment harnesses can pull
    /// policy-internal traces (e.g. vTRS cursor histories).
    fn as_any(&self) -> &dyn Any;
}

/// A single machine-wide pool with a fixed quantum.
///
/// With the default 30 ms quantum this is the native Xen Credit
/// configuration the paper normalises everything against; with 1 ms it
/// is the Microsliced \[6\] configuration.
#[derive(Debug, Clone)]
pub struct FixedQuantumPolicy {
    quantum_ns: u64,
    label: String,
}

impl FixedQuantumPolicy {
    /// A fixed machine-wide quantum.
    pub fn new(quantum_ns: u64) -> Self {
        FixedQuantumPolicy {
            quantum_ns,
            label: format!("fixed-{}", aql_sim::time::fmt_dur(quantum_ns)),
        }
    }

    /// Native Xen: 30 ms.
    pub fn xen_default() -> Self {
        let mut p = FixedQuantumPolicy::new(DEFAULT_QUANTUM_NS);
        p.label = "xen-credit-30ms".to_string();
        p
    }

    /// The configured quantum (ns).
    pub fn quantum_ns(&self) -> u64 {
        self.quantum_ns
    }
}

impl SchedPolicy for FixedQuantumPolicy {
    fn name(&self) -> &str {
        &self.label
    }

    fn init(&mut self, hv: &mut Hypervisor) {
        let all = (0..hv.machine.total_pcpus())
            .map(crate::ids::PcpuId)
            .collect();
        let assignment = vec![PoolId(0); hv.vcpus.len()];
        hv.apply_plan(vec![PoolSpec::new(all, self.quantum_ns)], assignment)
            .expect("single machine-wide pool is always valid");
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A fixed-quantum credit scheduler restricted to a subset of the
/// sockets (dom0-style reservation): guest vCPUs run only on the
/// given sockets' pool; the remaining cores form a separate, empty
/// pool. With the default 30 ms quantum this is "native Xen minus the
/// dom0 socket", the baseline of the paper's 4-socket case (Fig. 3).
#[derive(Debug, Clone)]
pub struct RestrictedCredit {
    quantum_ns: u64,
    sockets: Vec<crate::ids::SocketId>,
}

impl RestrictedCredit {
    /// 30 ms quantum over the given sockets.
    pub fn new(sockets: Vec<crate::ids::SocketId>) -> Self {
        RestrictedCredit {
            quantum_ns: DEFAULT_QUANTUM_NS,
            sockets,
        }
    }

    /// The guest-usable sockets.
    pub fn sockets(&self) -> &[crate::ids::SocketId] {
        &self.sockets
    }
}

impl SchedPolicy for RestrictedCredit {
    fn name(&self) -> &str {
        "xen-credit-restricted"
    }

    fn init(&mut self, hv: &mut Hypervisor) {
        let mut guest: Vec<crate::ids::PcpuId> = Vec::new();
        let mut reserved: Vec<crate::ids::PcpuId> = Vec::new();
        for s in 0..hv.machine.sockets {
            let socket = crate::ids::SocketId(s);
            let pcpus = hv.machine.pcpus_of_socket(socket);
            if self.sockets.contains(&socket) {
                guest.extend(pcpus);
            } else {
                reserved.extend(pcpus);
            }
        }
        let mut pools = vec![PoolSpec::new(guest, self.quantum_ns)];
        if !reserved.is_empty() {
            pools.push(PoolSpec::new(reserved, self.quantum_ns));
        }
        let assignment = vec![PoolId(0); hv.vcpus.len()];
        hv.apply_plan(pools, assignment)
            .expect("socket split is always valid");
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_names() {
        assert_eq!(FixedQuantumPolicy::xen_default().name(), "xen-credit-30ms");
        assert_eq!(
            FixedQuantumPolicy::new(aql_sim::time::MS).name(),
            "fixed-1ms"
        );
    }

    #[test]
    fn quantum_accessor() {
        assert_eq!(
            FixedQuantumPolicy::xen_default().quantum_ns(),
            DEFAULT_QUANTUM_NS
        );
    }
}
