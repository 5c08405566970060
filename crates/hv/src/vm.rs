//! Virtual machines and virtual CPUs.

use aql_mem::{PmuCounters, PmuSample};
use aql_sim::time::SimTime;

use crate::ids::{PcpuId, PoolId, VcpuId, VmId};

/// Static configuration of a VM (a Xen domain).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmSpec {
    /// Human-readable name (also used to look up results in reports).
    pub name: String,
    /// Credit-scheduler weight; CPU is shared in proportion to weight
    /// (Xen default 256).
    pub weight: u32,
    /// Optional cap, in percent of one pCPU, limiting the VM's total
    /// CPU consumption (Xen `cap`); `None` = uncapped.
    pub cap_pct: Option<u32>,
    /// Number of vCPUs.
    pub vcpus: usize,
    /// Hard pCPU affinity: all of the VM's vCPUs run *only* on this
    /// pCPU (Xen `vcpu-pin`). Pinned vCPUs are never stolen or
    /// rebalanced, and the pin overrides pool placement. `None` =
    /// free placement (the default).
    pub pin: Option<usize>,
}

impl VmSpec {
    /// A single-vCPU VM with default weight and no cap.
    pub fn single(name: &str) -> Self {
        VmSpec {
            name: name.to_string(),
            weight: 256,
            cap_pct: None,
            vcpus: 1,
            pin: None,
        }
    }

    /// A `n`-vCPU VM with default weight and no cap.
    pub fn smp(name: &str, n: usize) -> Self {
        VmSpec {
            vcpus: n,
            ..VmSpec::single(name)
        }
    }
}

/// Scheduler run state of a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcpuState {
    /// Parked, waiting for an event.
    Blocked,
    /// On a run queue.
    Runnable,
    /// Currently on a pCPU.
    Running,
}

/// Credit-scheduler priority classes, ordered best-first.
///
/// `BOOST` is the transient priority Xen gives a vCPU that wakes for IO
/// without having exhausted its previous quantum (§2.1, \[13\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prio {
    /// Boosted after an IO wake; preempts `Under` and `Over` vCPUs.
    Boost,
    /// Credits remaining.
    Under,
    /// Credits exhausted; runs only when nothing better exists.
    Over,
}

/// Runtime metadata of a VM.
#[derive(Debug, Clone)]
pub struct VmMeta {
    /// The VM's identifier.
    pub id: VmId,
    /// Static configuration.
    pub spec: VmSpec,
    /// Global indices of the VM's vCPUs, slot-ordered.
    pub vcpus: Vec<VcpuId>,
}

/// Runtime state of a vCPU.
#[derive(Debug, Clone)]
pub struct Vcpu {
    /// Identifier (dense across VMs).
    pub id: VcpuId,
    /// Owning VM.
    pub vm: VmId,
    /// Slot index within the VM.
    pub slot: usize,
    /// Scheduler state.
    pub state: VcpuState,
    /// Priority class.
    pub prio: Prio,
    /// Remaining credits; negative means `Over`.
    pub credit: f64,
    /// CPU time consumed since the last tick accounting.
    pub unbilled_ns: u64,
    /// The pool this vCPU must be scheduled in.
    pub pool: PoolId,
    /// Preferred pCPU (last queue position); must be in `pool`.
    pub affine_pcpu: PcpuId,
    /// Hard affinity from [`VmSpec::pin`]: when set, the vCPU only
    /// ever queues and runs on this pCPU (never stolen, never
    /// rebalanced, pin beats pool placement).
    pub pinned: Option<PcpuId>,
    /// Per-vCPU quantum override (vSlicer-style); `None` uses the
    /// pool quantum.
    pub quantum_override: Option<u64>,
    /// vSlicer-style differentiated frequency: when queued for this
    /// long, the vCPU preempts the running one (latency-sensitive VMs
    /// are scheduled with smaller slices at higher frequency).
    pub kick_period_ns: Option<u64>,
    /// When the vCPU last left a pCPU (for `kick_period_ns`).
    pub last_desched: SimTime,
    /// Whether the previous slice ended by quantum expiry (disables
    /// BOOST on the next wake, as in Xen).
    pub last_slice_exhausted: bool,
    /// Parked by the cap enforcement (Xen's `CSCHED_FLAG_VCPU_PARKED`):
    /// off the run queues until credits recover.
    pub parked: bool,
    /// Remaining slice to resume after an involuntary preemption
    /// (BOOST or kick): the victim continues its slice instead of
    /// being granted a fresh quantum, so it cannot starve queue-mates
    /// by cycling at the head forever.
    pub resume_slice_ns: Option<u64>,
    /// End of the current slice while running.
    pub slice_end: SimTime,
    /// PMU counters for the current monitoring period.
    pub pmu: PmuCounters,
    /// Latest monitoring-period snapshot.
    pub last_sample: PmuSample,
    /// Private-L2 warmth in `[0, 1]`.
    pub l2_warmth: f64,
    /// Total CPU time consumed over the whole run.
    pub cpu_ns: u64,
    /// Timer generation, bumped on each re-arm to invalidate stale
    /// queue entries.
    pub timer_gen: u64,
    /// Number of times this vCPU was migrated across pools.
    pub pool_migrations: u64,
}

impl Vcpu {
    /// Creates a fresh vCPU in the given pool with zero history.
    pub fn new(id: VcpuId, vm: VmId, slot: usize, pool: PoolId, affine: PcpuId) -> Self {
        Vcpu {
            id,
            vm,
            slot,
            state: VcpuState::Blocked,
            prio: Prio::Under,
            credit: 0.0,
            unbilled_ns: 0,
            pool,
            affine_pcpu: affine,
            pinned: None,
            quantum_override: None,
            kick_period_ns: None,
            last_desched: SimTime::ZERO,
            last_slice_exhausted: false,
            parked: false,
            resume_slice_ns: None,
            slice_end: SimTime::ZERO,
            pmu: PmuCounters::new(),
            last_sample: PmuSample::default(),
            l2_warmth: 0.0,
            cpu_ns: 0,
            timer_gen: 0,
            pool_migrations: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prio_orders_best_first() {
        assert!(Prio::Boost < Prio::Under);
        assert!(Prio::Under < Prio::Over);
    }

    #[test]
    fn vm_spec_builders() {
        let s = VmSpec::single("web");
        assert_eq!(s.vcpus, 1);
        assert_eq!(s.weight, 256);
        assert_eq!(s.cap_pct, None);
        let m = VmSpec::smp("par", 4);
        assert_eq!(m.vcpus, 4);
        assert_eq!(m.name, "par");
    }

    #[test]
    fn new_vcpu_starts_blocked_under() {
        let v = Vcpu::new(VcpuId(0), VmId(0), 0, PoolId(0), PcpuId(0));
        assert_eq!(v.state, VcpuState::Blocked);
        assert_eq!(v.prio, Prio::Under);
        assert_eq!(v.cpu_ns, 0);
        assert!(!v.last_slice_exhausted);
    }
}
