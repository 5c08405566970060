//! The CPU-burn memory walker.
//!
//! [`MemWalk`] models the linked-list parser of the paper's
//! calibration \[27\]: a single-threaded loop re-referencing a working
//! set of configurable size. Its class follows from the WSS alone:
//! `LoLCF` (WSS ≤ L2), `LLCF` (WSS ≤ LLC) or `LLCO` (WSS > LLC). The
//! workload never blocks or yields: it is a pure CPU burner whose
//! performance metric is retired instructions.
//!
//! The paper argues a vCPU's type is not fixed: "several different
//! thread types can be scheduled by the guest OS on the same vCPU"
//! (§1). A walker is therefore a cycle of [`Phase`]s, each holding a
//! memory profile for some CPU time, so vTRS must re-classify a
//! [`MemWalk::phased`] walker online; the recognition tests and the
//! `vtrs_live` example use one. A plain walker is one phase that never
//! ends.

use aql_hv::workload::{
    CoalesceHint, CoalesceProbe, ExecContext, GuestWorkload, Horizon, RunOutcome, TimerFire,
    WorkloadMetrics,
};
use aql_mem::{CacheSpec, MemProfile};
use aql_sim::time::SimTime;

/// One phase: a memory profile held for a CPU-time duration.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// CPU time the phase lasts (ns).
    pub duration_ns: u64,
    /// Memory behaviour during the phase.
    pub profile: MemProfile,
}

/// A single-vCPU memory-walking workload cycling through phases.
///
/// # Examples
///
/// ```
/// use aql_workloads::MemWalk;
/// use aql_mem::CacheSpec;
///
/// let spec = CacheSpec::i7_3770();
/// let w = MemWalk::llcf("bzip2-model", &spec);
/// assert_eq!(w.profile().wss_bytes, spec.llc_bytes / 2);
/// ```
#[derive(Debug, Clone)]
pub struct MemWalk {
    name: String,
    phases: Vec<Phase>,
    current: usize,
    left_in_phase: u64,
    instructions: f64,
    switches: u64,
}

impl MemWalk {
    /// A walker holding one memory profile for good: a single phase of
    /// `u64::MAX` ns (some 584 years of CPU time), longer than any run.
    pub fn new(name: &str, profile: MemProfile) -> Self {
        let forever = Phase {
            duration_ns: u64::MAX,
            profile,
        };
        MemWalk::phased(name, vec![forever])
    }

    /// A walker cycling through `phases` as it consumes CPU; `phases`
    /// must be non-empty.
    pub fn phased(name: &str, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| p.duration_ns > 0),
            "phases must have positive duration"
        );
        let left = phases[0].duration_ns;
        MemWalk {
            name: name.to_string(),
            phases,
            current: 0,
            left_in_phase: left,
            instructions: 0.0,
            switches: 0,
        }
    }

    /// An LLC-friendly walker (WSS = LLC/2, the paper's calibration).
    pub fn llcf(name: &str, spec: &CacheSpec) -> Self {
        MemWalk::new(name, MemProfile::llcf(spec))
    }

    /// A low-level-cache walker (WSS = 90% of L2).
    pub fn lolcf(name: &str, spec: &CacheSpec) -> Self {
        MemWalk::new(name, MemProfile::lolcf(spec))
    }

    /// A trashing walker (WSS = 4× LLC).
    pub fn llco(name: &str, spec: &CacheSpec) -> Self {
        MemWalk::new(name, MemProfile::llco(spec))
    }

    /// The memory profile of the phase currently executing.
    pub fn profile(&self) -> &MemProfile {
        &self.phases[self.current].profile
    }

    /// Index of the phase currently executing.
    pub fn current_phase(&self) -> usize {
        self.current
    }

    /// Number of phase switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

impl GuestWorkload for MemWalk {
    fn name(&self) -> &str {
        &self.name
    }

    fn vcpu_slots(&self) -> usize {
        1
    }

    fn run(&mut self, slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        debug_assert_eq!(slot, 0);
        let mut used = 0;
        while used < budget_ns {
            let dt = (budget_ns - used).min(self.left_in_phase);
            let profile = self.phases[self.current].profile;
            let out = ctx.exec_mem(&profile, dt);
            self.instructions += out.instructions;
            used += dt;
            self.left_in_phase -= dt;
            if self.left_in_phase == 0 {
                self.current = (self.current + 1) % self.phases.len();
                self.left_in_phase = self.phases[self.current].duration_ns;
                self.switches += 1;
            }
        }
        RunOutcome::ran_all(budget_ns)
    }

    fn runnable(&self, _slot: usize) -> bool {
        true
    }

    fn horizon(&self, _slot: usize, _now: SimTime) -> Horizon {
        // A pure CPU burner: phase shifts happen inside `run` and never
        // release the pCPU, so the engine may fast-forward across it
        // without limit.
        Horizon::Never
    }

    fn coalesce(&self, _slot: usize, probe: &mut CoalesceProbe<'_>) -> CoalesceHint {
        // Pure-rate whenever the current phase's working set is
        // resident and the L2 is warm: no misses, no shared-state
        // mutation, no RNG. The next phase has a different profile (a
        // different rate, possibly cold), so the window ends at the
        // phase boundary — the engine coalesces up to it and replays
        // the grid across the shift, which also re-keys the rate cache
        // on the new profile bits.
        if probe.linear_rate(self.profile()) {
            CoalesceHint::LinearFor(self.left_in_phase)
        } else {
            CoalesceHint::No
        }
    }

    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        None
    }

    fn on_timer(&mut self, _slot: usize, _now: SimTime) -> TimerFire {
        TimerFire::default()
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::Mem {
            instructions: self.instructions,
        }
    }

    fn reset_metrics(&mut self) {
        self.instructions = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_hv::{FixedQuantumPolicy, MachineSpec, SimulationBuilder, VmSpec};
    use aql_sim::time::{MS, SEC};

    fn one_core_machine() -> MachineSpec {
        MachineSpec::custom("1core", 1, 1, CacheSpec::i7_3770())
    }

    #[test]
    fn walker_retires_instructions_alone() {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(one_core_machine())
            .policy(Box::new(FixedQuantumPolicy::xen_default()))
            .vm(
                VmSpec::single("walker"),
                Box::new(MemWalk::llcf("walker", &spec)),
            )
            .build();
        sim.run_for(SEC);
        let report = sim.report();
        let m = &report.vms[0].metrics;
        let WorkloadMetrics::Mem { instructions } = m else {
            panic!("expected Mem metrics, got {m:?}");
        };
        // Alone on a core, an LLCF walker should retire hundreds of
        // millions of instructions per second once warm.
        assert!(
            *instructions > 1e8,
            "too slow for a warm solo walker: {instructions}"
        );
        // And the core should be ~100% busy.
        assert!(report.utilisation() > 0.99);
    }

    #[test]
    fn two_walkers_share_a_core_fairly() {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(one_core_machine())
            .policy(Box::new(FixedQuantumPolicy::xen_default()))
            .vm(VmSpec::single("a"), Box::new(MemWalk::lolcf("a", &spec)))
            .vm(VmSpec::single("b"), Box::new(MemWalk::lolcf("b", &spec)))
            .build();
        sim.run_for(3 * SEC);
        let report = sim.report();
        let a = report.vm_by_name("a").unwrap().cpu_ns() as f64;
        let b = report.vm_by_name("b").unwrap().cpu_ns() as f64;
        let ratio = a / b;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "equal-weight VMs should split the core evenly, ratio {ratio}"
        );
        assert!(report.jain_fairness() > 0.99);
    }

    #[test]
    fn llcf_with_trasher_prefers_long_quanta() {
        // The core claim of Fig. 2(d): an LLCF walker co-scheduled with
        // trashers performs better under a 90 ms quantum than 1 ms.
        let spec = CacheSpec::i7_3770();
        let run = |quantum: u64| -> f64 {
            let mut sim = SimulationBuilder::new(one_core_machine())
                .policy(Box::new(FixedQuantumPolicy::new(quantum)))
                .vm(
                    VmSpec::single("victim"),
                    Box::new(MemWalk::llcf("victim", &spec)),
                )
                .vm(VmSpec::single("t1"), Box::new(MemWalk::llco("t1", &spec)))
                .vm(VmSpec::single("t2"), Box::new(MemWalk::llco("t2", &spec)))
                .vm(VmSpec::single("t3"), Box::new(MemWalk::llco("t3", &spec)))
                .build();
            sim.run_for(4 * SEC);
            let report = sim.report();
            let WorkloadMetrics::Mem { instructions } =
                report.vm_by_name("victim").unwrap().metrics
            else {
                panic!("expected Mem metrics");
            };
            instructions
        };
        let short = run(MS);
        let long = run(90 * MS);
        assert!(
            long > 1.15 * short,
            "a long quantum should help the LLCF victim: 90ms={long}, 1ms={short}"
        );
    }

    #[test]
    fn phases_cycle_with_cpu_time() {
        let spec = CacheSpec::i7_3770();
        let w = MemWalk::phased(
            "p",
            vec![
                Phase {
                    duration_ns: 100 * MS,
                    profile: MemProfile::lolcf(&spec),
                },
                Phase {
                    duration_ns: 100 * MS,
                    profile: MemProfile::llco(&spec),
                },
            ],
        );
        let mut sim =
            SimulationBuilder::new(MachineSpec::custom("1core", 1, 1, CacheSpec::i7_3770()))
                .vm(VmSpec::single("p"), Box::new(w))
                .build();
        sim.run_for(SEC);
        // 1 s of CPU over 200 ms cycles → about 5 switches per cycle
        // boundary pair, i.e. ~5 cycles → ~9-10 switches.
        let report = sim.report();
        assert!(report.vms[0].cpu_ns() > 900 * MS);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = MemWalk::phased("bad", vec![]);
    }

    #[test]
    fn switch_counter_advances() {
        let spec = CacheSpec::i7_3770();
        let phases = vec![
            Phase {
                duration_ns: 10 * MS,
                profile: MemProfile::lolcf(&spec),
            },
            Phase {
                duration_ns: 10 * MS,
                profile: MemProfile::llcf(&spec),
            },
        ];
        let mut w = MemWalk::phased("p", phases);
        assert_eq!(w.current_phase(), 0);
        // Drive it directly through a fake context.
        let mut llc = aql_mem::LlcState::new(spec.llc_bytes as f64, 1);
        let mut pmu = aql_mem::PmuCounters::new();
        let mut warmth = 0.0;
        let mut rng = aql_sim::rng::SimRng::seed_from(1);
        let running = vec![true];
        let mut ctx = aql_hv::workload::ExecContext {
            now: SimTime::ZERO,
            spec: &spec,
            llc: &mut llc,
            pmu: &mut pmu,
            l2_warmth: &mut warmth,
            rng: &mut rng,
            owner: 0,
            running_slots: &running,
            integrator: aql_hv::workload::Integrator::Dense,
        };
        let out = w.run(0, 25 * MS, &mut ctx);
        assert_eq!(out.used_ns, 25 * MS);
        assert_eq!(w.switches(), 2);
        assert_eq!(w.current_phase(), 0);
    }
}
