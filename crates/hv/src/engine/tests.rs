//! Engine unit tests: dispatch, BOOST, caps, pools, timers and the
//! unified [`DispatchDecision`] path.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use super::*;
use crate::ids::{PcpuId, PoolId, VcpuId};
use crate::pool::PoolSpec;
use crate::topology::MachineSpec;
use crate::vm::{Prio, VmSpec};
use crate::workload::{
    ExecContext, GuestWorkload, RunOutcome, StopReason, TimerFire, WorkloadMetrics,
};
use aql_mem::CacheSpec;
use aql_sim::time::{MS, SEC};

/// A minimal CPU hog for engine tests.
struct Hog;

impl GuestWorkload for Hog {
    fn name(&self) -> &str {
        "hog"
    }
    fn vcpu_slots(&self) -> usize {
        1
    }
    fn run(&mut self, _slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        let _ = ctx.exec_mem(&aql_mem::MemProfile::light(), budget_ns);
        RunOutcome::ran_all(budget_ns)
    }
    fn runnable(&self, _slot: usize) -> bool {
        true
    }
    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        None
    }
    fn on_timer(&mut self, _slot: usize, _now: SimTime) -> TimerFire {
        TimerFire::default()
    }
    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::None
    }
}

/// A periodic blocker: runs `burst` then blocks until the next
/// timer `period` later. Exercises wake/BOOST paths.
struct Blinker {
    burst_ns: u64,
    period_ns: u64,
    next: SimTime,
    pending: bool,
    left: u64,
}

impl Blinker {
    fn new(burst_ns: u64, period_ns: u64) -> Self {
        Blinker {
            burst_ns,
            period_ns,
            next: SimTime(period_ns),
            pending: false,
            left: 0,
        }
    }
}

impl GuestWorkload for Blinker {
    fn name(&self) -> &str {
        "blinker"
    }
    fn vcpu_slots(&self) -> usize {
        1
    }
    fn run(&mut self, _slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        if self.pending && self.left == 0 {
            self.left = self.burst_ns;
            self.pending = false;
        }
        if self.left == 0 {
            return RunOutcome {
                used_ns: 0,
                stop: StopReason::Blocked,
            };
        }
        let dt = self.left.min(budget_ns);
        let _ = ctx.exec_mem(&aql_mem::MemProfile::light(), dt);
        self.left -= dt;
        if self.left == 0 && !self.pending {
            RunOutcome {
                used_ns: dt,
                stop: StopReason::Blocked,
            }
        } else {
            RunOutcome {
                used_ns: dt,
                stop: StopReason::BudgetExhausted,
            }
        }
    }
    fn runnable(&self, _slot: usize) -> bool {
        self.pending || self.left > 0
    }
    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        Some(self.next)
    }
    fn on_timer(&mut self, _slot: usize, now: SimTime) -> TimerFire {
        if now < self.next {
            return TimerFire::default();
        }
        self.pending = true;
        self.next = SimTime(self.next.as_ns() + self.period_ns);
        TimerFire {
            io_events: 1,
            wake: true,
        }
    }
    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::None
    }
}

fn machine(cores: usize) -> MachineSpec {
    MachineSpec::custom("engine-test", 1, cores, CacheSpec::i7_3770())
}

#[test]
fn single_hog_saturates_the_core() {
    let mut sim = SimulationBuilder::new(machine(1))
        .vm(VmSpec::single("h"), Box::new(Hog))
        .build();
    sim.run_for(SEC);
    let r = sim.report();
    assert_eq!(r.vms[0].cpu_ns(), SEC);
    assert!(r.utilisation() > 0.999);
}

#[test]
fn blocked_vm_wakes_with_boost_and_preempts() {
    // A blinker with tiny bursts next to a hog: with BOOST its
    // bursts run almost immediately, so it accumulates close to
    // its demanded CPU (1ms every 10ms = 10%).
    let mut sim = SimulationBuilder::new(machine(1))
        .vm(
            VmSpec::single("blinker"),
            Box::new(Blinker::new(MS, 10 * MS)),
        )
        .vm(VmSpec::single("hog"), Box::new(Hog))
        .build();
    sim.run_for(SEC);
    let r = sim.report();
    let blinker = r.vm_by_name("blinker").unwrap().cpu_ns() as f64;
    assert!(
        blinker > 0.08 * SEC as f64,
        "boosted blinker starved: {blinker}"
    );
}

#[test]
fn parked_capped_vm_frees_the_cpu() {
    let mut sim = SimulationBuilder::new(machine(1))
        .vm(
            VmSpec {
                cap_pct: Some(20),
                ..VmSpec::single("capped")
            },
            Box::new(Hog),
        )
        .vm(VmSpec::single("free"), Box::new(Hog))
        .build();
    sim.run_for(SEC);
    sim.reset_measurements();
    sim.run_for(4 * SEC);
    let r = sim.report();
    let capped = r.vm_by_name("capped").unwrap().cpu_ns() as f64 / (4.0 * SEC as f64);
    let free = r.vm_by_name("free").unwrap().cpu_ns() as f64 / (4.0 * SEC as f64);
    assert!(capped < 0.3, "cap must bind: {capped}");
    assert!(free > 0.65, "uncapped VM should soak the slack: {free}");
}

#[test]
fn apply_plan_rejects_bad_inputs() {
    let mut sim = SimulationBuilder::new(machine(2))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .build();
    // Wrong assignment length.
    let err = sim
        .hv
        .apply_plan(vec![PoolSpec::new(vec![PcpuId(0), PcpuId(1)], MS)], vec![]);
    assert!(err.is_err());
    // Unknown pool in assignment.
    let err = sim.hv.apply_plan(
        vec![PoolSpec::new(vec![PcpuId(0), PcpuId(1)], MS)],
        vec![PoolId(7)],
    );
    assert!(err.is_err());
    // Valid plan applies.
    sim.hv
        .apply_plan(
            vec![
                PoolSpec::new(vec![PcpuId(0)], MS),
                PoolSpec::new(vec![PcpuId(1)], 90 * MS),
            ],
            vec![PoolId(1)],
        )
        .expect("valid plan");
    assert_eq!(sim.hv.vcpus[0].pool, PoolId(1));
    assert_eq!(sim.hv.vcpus[0].pool_migrations, 1);
}

#[test]
fn pool_migration_moves_execution() {
    let mut sim = SimulationBuilder::new(machine(2))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .vm(VmSpec::single("b"), Box::new(Hog))
        .build();
    sim.run_for(300 * MS);
    // Confine both hogs to pCPU 1.
    sim.hv
        .apply_plan(
            vec![
                PoolSpec::new(vec![PcpuId(0)], 30 * MS),
                PoolSpec::new(vec![PcpuId(1)], 30 * MS),
            ],
            vec![PoolId(1), PoolId(1)],
        )
        .expect("valid plan");
    sim.reset_measurements();
    sim.run_for(SEC);
    let r = sim.report();
    assert_eq!(r.pcpu_busy_ns[0], 0, "pool 0 must fall idle");
    assert!(r.pcpu_busy_ns[1] as f64 > 0.99 * SEC as f64);
    // Fairness preserved inside the shared pool.
    assert!(r.jain_fairness() > 0.95);
}

#[test]
fn kick_period_grants_frequent_slices() {
    let mut sim = SimulationBuilder::new(machine(1))
        .vm(VmSpec::single("ls"), Box::new(Hog))
        .vm(VmSpec::single("batch"), Box::new(Hog))
        .build();
    sim.hv.set_vcpu_quantum_override(VcpuId(0), Some(MS));
    sim.hv.set_vcpu_kick_period(VcpuId(0), Some(3 * MS));
    sim.run_for(SEC);
    // The kick grants scheduling *frequency* (1 ms slices every
    // few ms); the credit system still enforces the fair 50%
    // share. Latency effects are asserted in the vSlicer baseline
    // tests; here only share preservation is checked.
    let r = sim.report();
    let ls = r.vm_by_name("ls").unwrap().cpu_ns() as f64 / SEC as f64;
    assert!(
        (0.40..=0.60).contains(&ls),
        "kick must not distort the fair share: {ls}"
    );
}

#[test]
fn rebalance_fixes_queue_imbalance() {
    // Start 6 hogs confined to pCPU 0's pool, then widen the pool:
    // the periodic rebalance must spread them over both pCPUs.
    let mut sim = SimulationBuilder::new(machine(2))
        .vm(VmSpec::single("h0"), Box::new(Hog))
        .vm(VmSpec::single("h1"), Box::new(Hog))
        .vm(VmSpec::single("h2"), Box::new(Hog))
        .vm(VmSpec::single("h3"), Box::new(Hog))
        .vm(VmSpec::single("h4"), Box::new(Hog))
        .vm(VmSpec::single("h5"), Box::new(Hog))
        .build();
    sim.run_for(200 * MS);
    sim.reset_measurements();
    sim.run_for(2 * SEC);
    let r = sim.report();
    assert!(r.utilisation() > 0.99, "both cores busy");
    assert!(r.jain_fairness() > 0.9, "hogs share evenly");
}

#[test]
fn timers_fire_in_order_for_blocked_vms() {
    let mut sim = SimulationBuilder::new(machine(1))
        .vm(VmSpec::single("b"), Box::new(Blinker::new(100_000, 5 * MS)))
        .build();
    sim.run_for(SEC);
    // 200 periods of 0.1ms bursts = ~20ms CPU.
    let r = sim.report();
    let got = r.vms[0].cpu_ns();
    assert!(
        (15 * MS..25 * MS).contains(&got),
        "expected ~20ms of burst CPU, got {got}"
    );
}

// ----------------------------------------------------------------
// DispatchDecision path
// ----------------------------------------------------------------

/// Records every dispatch decision the engine applies while running
/// a fixed-quantum configuration, via the `on_dispatch` hook.
struct RecordingPolicy {
    inner: crate::policy::FixedQuantumPolicy,
    decisions: Rc<RefCell<Vec<DispatchDecision>>>,
}

impl crate::policy::SchedPolicy for RecordingPolicy {
    fn name(&self) -> &str {
        "recording"
    }

    fn init(&mut self, hv: &mut Hypervisor) {
        self.inner.init(hv);
    }

    fn on_dispatch(&mut self, _hv: &Hypervisor, decision: &DispatchDecision, _now: SimTime) {
        self.decisions.borrow_mut().push(*decision);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn every_context_switch_is_an_explicit_decision() {
    // Two hogs on one core with a 30 ms quantum for 1 s: the engine
    // must alternate them, and every dispatch must surface through
    // the decision hook with the configured slice.
    let decisions = Rc::new(RefCell::new(Vec::new()));
    let policy = RecordingPolicy {
        inner: crate::policy::FixedQuantumPolicy::xen_default(),
        decisions: Rc::clone(&decisions),
    };
    let mut sim = SimulationBuilder::new(machine(1))
        .policy(Box::new(policy))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .vm(VmSpec::single("b"), Box::new(Hog))
        .build();
    sim.run_for(SEC);
    let decisions = decisions.borrow();
    // 1 s / 30 ms quantum with two alternating hogs ≈ 33 switches.
    assert!(
        (25..=45).contains(&decisions.len()),
        "expected ~33 dispatches, saw {}",
        decisions.len()
    );
    for d in decisions.iter() {
        assert_eq!(d.pcpu, PcpuId(0), "single-core machine");
        assert!(d.slice_ns <= crate::DEFAULT_QUANTUM_NS);
        assert!(!d.resumed, "hogs never resume a preempted slice");
        assert_eq!(d.source, DispatchSource::LocalQueue);
    }
    // Both vCPUs were dispatched, in alternation.
    assert!(decisions.iter().any(|d| d.vcpu == VcpuId(0)));
    assert!(decisions.iter().any(|d| d.vcpu == VcpuId(1)));
}

#[test]
fn quantum_override_resolves_in_the_decision() {
    let decisions = Rc::new(RefCell::new(Vec::new()));
    let policy = RecordingPolicy {
        inner: crate::policy::FixedQuantumPolicy::xen_default(),
        decisions: Rc::clone(&decisions),
    };
    let mut sim = SimulationBuilder::new(machine(1))
        .policy(Box::new(policy))
        .vm(VmSpec::single("micro"), Box::new(Hog))
        .vm(VmSpec::single("batch"), Box::new(Hog))
        .build();
    sim.hv.set_vcpu_quantum_override(VcpuId(0), Some(MS));
    sim.run_for(SEC);
    let decisions = decisions.borrow();
    let micro_slices: Vec<u64> = decisions
        .iter()
        .filter(|d| d.vcpu == VcpuId(0) && !d.resumed)
        .map(|d| d.slice_ns)
        .collect();
    assert!(!micro_slices.is_empty());
    assert!(
        micro_slices.iter().all(|&s| s == MS),
        "override must resolve to 1 ms slices: {micro_slices:?}"
    );
    let batch_slices: Vec<u64> = decisions
        .iter()
        .filter(|d| d.vcpu == VcpuId(1) && !d.resumed)
        .map(|d| d.slice_ns)
        .collect();
    assert!(
        batch_slices.iter().all(|&s| s == crate::DEFAULT_QUANTUM_NS),
        "untouched vCPU keeps the pool quantum"
    );
}

#[test]
fn idle_stealing_reports_its_victim() {
    // pCPU 1's only local work is a blinker that keeps blocking; the
    // two hogs share pCPU 0's queue. Whenever the blinker blocks,
    // pCPU 1 goes idle with an empty queue and must steal a hog from
    // its loaded peer — visible in the decisions.
    let decisions = Rc::new(RefCell::new(Vec::new()));
    let policy = RecordingPolicy {
        inner: crate::policy::FixedQuantumPolicy::xen_default(),
        decisions: Rc::clone(&decisions),
    };
    let mut sim = SimulationBuilder::new(machine(2))
        .policy(Box::new(policy))
        .vm(VmSpec::single("h0"), Box::new(Hog))
        .vm(VmSpec::single("blink"), Box::new(Blinker::new(MS, 7 * MS)))
        .vm(VmSpec::single("h1"), Box::new(Hog))
        .build();
    sim.run_for(SEC);
    let decisions = decisions.borrow();
    assert!(
        decisions
            .iter()
            .any(|d| matches!(d.source, DispatchSource::Stolen { .. })),
        "a blocking vCPU next to a loaded peer must trigger idle stealing"
    );
    for d in decisions.iter() {
        if let DispatchSource::Stolen { victim } = d.source {
            assert_ne!(victim, d.pcpu, "a pCPU cannot steal from itself");
        }
    }
}

/// Empties every run queue and idles every pCPU, then queues `entries`
/// as `(pcpu, class, vcpu)` through the counted queue path, so the
/// per-pool movable sums stay exact.
fn set_queues(sim: &mut Simulation, entries: &[(usize, Prio, usize)]) {
    for p in 0..sim.hv.pcpus.len() {
        sim.hv.with_queue(p, |q| while q.pop_best().is_some() {});
        sim.hv.pcpus[p].running = None;
    }
    for &(p, prio, v) in entries {
        sim.hv
            .with_queue(p, |q| q.push_tail(prio, VcpuId(v), false));
    }
}

#[test]
fn steal_skips_boost_only_peers() {
    // Work conservation: a peer whose queue holds only BOOST vCPUs
    // (never stealable) must not be chosen as the steal victim when
    // another peer has stealable work — even if the BOOST queue is
    // longer.
    let mut sim = SimulationBuilder::new(machine(3))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .vm(VmSpec::single("b"), Box::new(Hog))
        .vm(VmSpec::single("c"), Box::new(Hog))
        .build();
    // pCPU 1: two BOOST entries (longer queue); pCPU 2: one UNDER.
    set_queues(
        &mut sim,
        &[
            (1, Prio::Boost, 0),
            (1, Prio::Boost, 1),
            (2, Prio::Under, 2),
        ],
    );
    let got = sim.steal_from_peer(0);
    assert_eq!(
        got,
        Some(((VcpuId(2), Prio::Under), PcpuId(2))),
        "the UNDER work on pcpu2 must be stolen, not the BOOST-only pcpu1"
    );
}

#[test]
fn rebalance_skips_boost_only_donors() {
    // Same work-conservation rule for the periodic rebalance: a
    // BOOST-only queue must not win the donor pick (its tail can
    // never be stolen) while a peer with movable work exists.
    let mut sim = SimulationBuilder::new(machine(3))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .vm(VmSpec::single("b"), Box::new(Hog))
        .vm(VmSpec::single("c"), Box::new(Hog))
        .build();
    // pCPU 0: three BOOST entries; pCPU 1: empty; pCPU 2: three UNDER.
    let boost = [0, 1, 2].map(|v| (0, Prio::Boost, v));
    let under = [0, 1, 2].map(|v| (2, Prio::Under, v));
    set_queues(&mut sim, &[boost, under].concat());
    sim.rebalance_pools();
    assert!(
        !sim.hv.pcpus[1].queue().is_empty(),
        "the idle pCPU must receive movable work from pcpu2"
    );
    assert_eq!(
        sim.hv.pcpus[0].queue().len(),
        3,
        "the BOOST-only queue is left alone"
    );
}

#[test]
fn rebalance_prefers_the_loaded_donor_on_stealable_ties() {
    // pCPU 0 and pCPU 1 tie on stealable work (2 UNDER each) but
    // pCPU 1 also carries 4 BOOST entries: the donor pick must go by
    // total load among stealable peers, so pCPU 1 donates to the
    // near-idle pCPU 2 rather than the round breaking on pCPU 0.
    let mut sim = SimulationBuilder::new(machine(3))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .vm(VmSpec::single("b"), Box::new(Hog))
        .vm(VmSpec::single("c"), Box::new(Hog))
        .build();
    let mut entries = vec![(0, Prio::Under, 0), (0, Prio::Under, 1)];
    entries.extend([0, 1, 2, 0].map(|v| (1, Prio::Boost, v)));
    entries.extend([1, 2].map(|v| (1, Prio::Under, v)));
    set_queues(&mut sim, &entries);
    sim.rebalance_pools();
    assert!(
        !sim.hv.pcpus[2].queue().is_empty(),
        "the overloaded stealable donor (pcpu1) must shed work to pcpu2"
    );
    assert_eq!(
        sim.hv.pcpus[0].queue().len(),
        2,
        "the lightly-loaded tied peer donates nothing"
    );
}

#[test]
fn trace_log_records_dispatches() {
    let mut sim = SimulationBuilder::new(machine(1))
        .trace(64)
        .vm(VmSpec::single("a"), Box::new(Hog))
        .vm(VmSpec::single("b"), Box::new(Hog))
        .build();
    sim.run_for(200 * MS);
    let lines = sim.trace.lines();
    assert!(!lines.is_empty(), "trace must capture dispatch decisions");
    assert!(
        lines.iter().any(|l| l.contains("pcpu0 <- vcpu")),
        "dispatch lines name the pCPU and vCPU: {lines:?}"
    );
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let run = || {
        let mut sim = SimulationBuilder::new(machine(2))
            .seed(7)
            .vm(VmSpec::single("a"), Box::new(Hog))
            .vm(VmSpec::single("b"), Box::new(Blinker::new(MS, 7 * MS)))
            .vm(VmSpec::single("c"), Box::new(Hog))
            .build();
        sim.run_for(SEC);
        let r = sim.report();
        (
            r.pcpu_busy_ns.clone(),
            r.vms.iter().map(|v| v.cpu_ns()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run(), "identical seeds must replay bit-identically");
}

/// A degenerate workload: always runnable, never makes progress.
struct Stuck;

impl GuestWorkload for Stuck {
    fn name(&self) -> &str {
        "stuck"
    }
    fn vcpu_slots(&self) -> usize {
        1
    }
    fn run(&mut self, _slot: usize, _budget_ns: u64, _ctx: &mut ExecContext<'_>) -> RunOutcome {
        RunOutcome {
            used_ns: 0,
            stop: StopReason::BudgetExhausted,
        }
    }
    fn runnable(&self, _slot: usize) -> bool {
        true
    }
    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        None
    }
    fn on_timer(&mut self, _slot: usize, _now: SimTime) -> TimerFire {
        TimerFire::default()
    }
    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::None
    }
}

#[test]
fn starved_pcpu_emits_a_trace_line() {
    // A workload that never makes progress used to idle the pCPU for
    // the rest of the step silently; now the bail-out is traced.
    let mut sim = SimulationBuilder::new(machine(1))
        .trace(512)
        .vm(VmSpec::single("zombie"), Box::new(Stuck))
        .build();
    sim.run_for(MS);
    assert!(
        sim.trace.lines().iter().any(|l| l.contains("starved")),
        "zero-progress bail-outs must be diagnosable: {:?}",
        sim.trace.lines()
    );
    assert_eq!(sim.now(), SimTime(MS), "the clock still reaches the end");
}

#[test]
fn time_mode_defaults_to_adaptive_and_is_selectable() {
    let sim = SimulationBuilder::new(machine(1))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .build();
    assert_eq!(sim.time_mode(), TimeMode::Adaptive);
    let dense = SimulationBuilder::new(machine(1))
        .time_mode(TimeMode::Dense)
        .vm(VmSpec::single("a"), Box::new(Hog))
        .build();
    assert_eq!(dense.time_mode(), TimeMode::Dense);
}

#[test]
fn dense_and_adaptive_agree_bit_for_bit_on_engine_mixes() {
    // The engine-level conformance check: hogs (horizon-less custom
    // workloads default to Unknown) plus blockers, on both modes.
    let run = |mode: TimeMode| {
        let mut sim = SimulationBuilder::new(machine(2))
            .seed(11)
            .time_mode(mode)
            .vm(VmSpec::single("a"), Box::new(Hog))
            .vm(VmSpec::single("b"), Box::new(Blinker::new(MS, 7 * MS)))
            .vm(VmSpec::single("c"), Box::new(Hog))
            .build();
        sim.run_for(SEC);
        format!("{:?}", sim.report())
    };
    assert_eq!(
        run(TimeMode::Dense),
        run(TimeMode::Adaptive),
        "time modes must be observationally identical"
    );
}

#[test]
fn run_until_never_moves_the_clock_backwards() {
    let mut sim = SimulationBuilder::new(machine(1))
        .vm(VmSpec::single("a"), Box::new(Hog))
        .build();
    sim.run_until(SimTime(50 * MS));
    assert_eq!(sim.now(), SimTime(50 * MS));
    // An earlier (or equal) target is a no-op, not a rewind.
    sim.run_until(SimTime(10 * MS));
    assert_eq!(sim.now(), SimTime(50 * MS));
    sim.run_until(SimTime(50 * MS));
    assert_eq!(sim.now(), SimTime(50 * MS));
}

#[test]
fn pinned_vms_share_their_pcpu_and_others_idle() {
    // Two hogs pinned to pCPU 0 of a 4-core machine: they split that
    // core, and no other core ever runs them (hard affinity survives
    // idle stealing and the periodic rebalance).
    let mut sim = SimulationBuilder::new(machine(4))
        .vm(
            VmSpec {
                pin: Some(0),
                ..VmSpec::single("a")
            },
            Box::new(Hog),
        )
        .vm(
            VmSpec {
                pin: Some(0),
                ..VmSpec::single("b")
            },
            Box::new(Hog),
        )
        .build();
    sim.run_for(SEC);
    let r = sim.report();
    let a = r.vms[0].vcpu_cpu_ns[0];
    let b = r.vms[1].vcpu_cpu_ns[0];
    // Both ran, their sum is one core's worth, and the split is fair.
    assert!(a > 0 && b > 0, "both pinned hogs must run ({a}, {b})");
    let total = a + b;
    assert!(
        total as f64 > 0.98 * SEC as f64 && total <= SEC,
        "two pinned hogs saturate exactly one core, got {total}"
    );
    // The other cores stayed idle: no stolen work.
    for p in 1..4 {
        assert_eq!(
            sim.hv.pcpus[p].busy_ns, 0,
            "pCPU {p} must never run a pinned vCPU"
        );
    }
}

#[test]
fn pinned_vcpus_survive_pool_reconfiguration() {
    // A plan that puts every vCPU in a pool over pCPUs {1, 2, 3} must
    // not move a pinned vCPU off its pin: the pin beats the pool.
    let mut sim = SimulationBuilder::new(machine(4))
        .vm(
            VmSpec {
                pin: Some(0),
                ..VmSpec::single("pinned")
            },
            Box::new(Hog),
        )
        .vm(VmSpec::single("free"), Box::new(Hog))
        .build();
    let pools = vec![
        PoolSpec::new(vec![PcpuId(1), PcpuId(2), PcpuId(3)], 30 * MS),
        PoolSpec::new(vec![PcpuId(0)], 30 * MS),
    ];
    let assignment = vec![PoolId(0); sim.hv.vcpus.len()];
    sim.hv.apply_plan(pools, assignment).unwrap();
    sim.run_for(SEC);
    // The pinned hog ran on pCPU 0 only; the free hog elsewhere.
    assert!(sim.hv.pcpus[0].busy_ns > 0, "pin target must run the VM");
    let r = sim.report();
    assert!(r.vms[0].vcpu_cpu_ns[0] > 0, "pinned vCPU starved");
    assert!(r.vms[1].vcpu_cpu_ns[0] > 0, "free vCPU starved");
}

#[test]
#[should_panic(expected = "pin target pcpu7 outside the machine")]
fn pins_outside_the_machine_are_rejected() {
    let _ = SimulationBuilder::new(machine(2))
        .vm(
            VmSpec {
                pin: Some(7),
                ..VmSpec::single("bad")
            },
            Box::new(Hog),
        )
        .build();
}
