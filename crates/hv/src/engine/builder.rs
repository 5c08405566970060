//! [`SimulationBuilder`]: assembles a [`Simulation`] from a machine
//! shape, VMs with their workloads, and a scheduling policy.

use aql_sim::queue::EventQueue;
use aql_sim::time::SimTime;
use aql_sim::trace::TraceLog;

use super::{Event, Hypervisor, Scratch, Simulation, TimeMode, DEFAULT_SUBSTEP_NS};
use crate::ids::VcpuId;
use crate::policy::SchedPolicy;
use crate::sched::refill_credits;
use crate::topology::MachineSpec;
use crate::vm::VmSpec;
use crate::workload::GuestWorkload;
use crate::{MONITOR_PERIOD_NS, TICK_NS};

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    machine: MachineSpec,
    substep_ns: u64,
    time_mode: TimeMode,
    coalesce: bool,
    trace_capacity: usize,
    vms: Vec<(VmSpec, Box<dyn GuestWorkload>)>,
    policy: Option<Box<dyn SchedPolicy>>,
}

impl SimulationBuilder {
    /// Starts a build for the given machine.
    pub fn new(machine: MachineSpec) -> Self {
        SimulationBuilder {
            machine,
            substep_ns: DEFAULT_SUBSTEP_NS,
            time_mode: TimeMode::default(),
            coalesce: true,
            trace_capacity: 0,
            vms: Vec::new(),
            policy: None,
        }
    }

    /// Sets the execution sub-step (default 100 µs). Smaller values
    /// sharpen cross-pCPU interactions (spin-lock handoffs) at the
    /// cost of simulation speed.
    pub fn substep_ns(mut self, ns: u64) -> Self {
        assert!(ns > 0, "substep must be positive");
        self.substep_ns = ns;
        self
    }

    /// Selects the time-advance mode (default [`TimeMode::Adaptive`]).
    /// [`TimeMode::Dense`] is the original exhaustive loop, kept as the
    /// conformance oracle; both modes produce byte-identical results.
    pub fn time_mode(mut self, mode: TimeMode) -> Self {
        self.time_mode = mode;
        self
    }

    /// Enables or disables chunk coalescing inside the adaptive
    /// time-advance (default on). Off, `TimeMode::Adaptive` replays
    /// the dense sub-step grid bit-for-bit, kept for conformance
    /// bisection and as the bitwise oracle's flat mode.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Enables the trace log with the given line capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Adds a VM with its workload. The workload must drive exactly
    /// `spec.vcpus` slots.
    pub fn vm(mut self, spec: VmSpec, workload: Box<dyn GuestWorkload>) -> Self {
        assert_eq!(
            workload.vcpu_slots(),
            spec.vcpus,
            "workload '{}' drives {} slots but VM '{}' has {} vCPUs",
            workload.name(),
            workload.vcpu_slots(),
            spec.name,
            spec.vcpus
        );
        self.vms.push((spec, workload));
        self
    }

    /// Adds a batch of VMs in iteration order; equivalent to chaining
    /// [`SimulationBuilder::vm`] per element. This is the entry point
    /// the scenario layer uses after expanding a declarative spec.
    pub fn vms<I>(mut self, vms: I) -> Self
    where
        I: IntoIterator<Item = (VmSpec, Box<dyn GuestWorkload>)>,
    {
        for (spec, wl) in vms {
            self = self.vm(spec, wl);
        }
        self
    }

    /// Sets the scheduling policy (defaults to native Xen 30 ms).
    pub fn policy(mut self, policy: Box<dyn SchedPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Builds the simulation: admits VMs, initialises the policy, arms
    /// recurring events and performs initial wake-ups.
    pub fn build(self) -> Simulation {
        let mut hv = Hypervisor::new(self.machine);
        let mut workloads = Vec::with_capacity(self.vms.len());
        let mut vm_running = Vec::with_capacity(self.vms.len());
        for (spec, wl) in self.vms {
            let slots = spec.vcpus;
            hv.add_vm(spec);
            vm_running.push(vec![false; slots]);
            workloads.push(wl);
        }
        let mut policy = self
            .policy
            .unwrap_or_else(|| Box::new(crate::policy::FixedQuantumPolicy::xen_default()));
        policy.init(&mut hv);
        let trace = if self.trace_capacity > 0 {
            TraceLog::enabled(self.trace_capacity)
        } else {
            TraceLog::disabled()
        };
        // Fresh VMs start with a full accounting period of credits so
        // the first 30 ms are not artificially BOOST-starved.
        refill_credits(&mut hv.vcpus, &hv.vms, &hv.pools);
        let vcpu_count = hv.vcpus.len();
        let mut sim = Simulation {
            hv,
            workloads,
            vm_running,
            policy,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            substep_ns: self.substep_ns,
            time_mode: self.time_mode,
            coalesce: self.coalesce,
            rate_cache: aql_mem::RateCache::new(vcpu_count),
            budget: None,
            contract_breaks: 0,
            horizon_breaks: 0,
            trace,
            tick_count: 0,
            measure_start: SimTime::ZERO,
            scratch: Scratch::default(),
        };
        sim.queue.push(SimTime(TICK_NS), Event::Tick);
        sim.queue.push(SimTime(MONITOR_PERIOD_NS), Event::Monitor);
        // Initial admission: wake runnable slots, arm timers.
        for vi in 0..sim.hv.vcpus.len() {
            let (vm, slot) = {
                let v = &sim.hv.vcpus[vi];
                (v.vm.index(), v.slot)
            };
            if sim.workloads[vm].runnable(slot) {
                sim.hv.wake(VcpuId(vi));
            }
            sim.arm_timer(vi);
        }
        sim
    }
}
