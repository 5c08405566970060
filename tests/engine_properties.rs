//! Property-based integration tests of the simulation engine over
//! random VM populations: conservation, fairness bounds and
//! reproducibility must hold for every population and policy.

use aql_sched::baselines::xen_credit;
use aql_sched::core::AqlSched;
use aql_sched::hv::workload::GuestWorkload;
use aql_sched::hv::{MachineSpec, SchedPolicy, SimulationBuilder, TimeMode, VmSpec};
use aql_sched::mem::CacheSpec;
use aql_sched::scenarios::{
    expand, machine, policy_applicable, policy_for, ScenarioSpec, POLICY_NAMES,
};
use aql_sched::sim::time::{MS, SEC};
use aql_sched::workloads::{IoServer, IoServerCfg, MemWalk, SpinJob, SpinJobCfg};
use proptest::prelude::*;

/// Workload kinds the generator can draw.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Io,
    Het,
    Spin,
    Llcf,
    Lolcf,
    Llco,
}

fn arb_kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        Just(Kind::Io),
        Just(Kind::Het),
        Just(Kind::Spin),
        Just(Kind::Llcf),
        Just(Kind::Lolcf),
        Just(Kind::Llco),
    ]
}

fn build_vm(kind: Kind, i: usize, cache: &CacheSpec) -> (VmSpec, Box<dyn GuestWorkload>) {
    let name = format!("vm-{i}");
    match kind {
        Kind::Io => (
            VmSpec::single(&name),
            Box::new(IoServer::new(
                &name,
                IoServerCfg::exclusive(120.0),
                i as u64,
            )),
        ),
        Kind::Het => (
            VmSpec::single(&name),
            Box::new(IoServer::new(
                &name,
                IoServerCfg::heterogeneous(100.0),
                i as u64,
            )),
        ),
        Kind::Spin => (
            VmSpec {
                weight: 512,
                ..VmSpec::smp(&name, 2)
            },
            Box::new(SpinJob::new(&name, SpinJobCfg::kernbench(2), i as u64)),
        ),
        Kind::Llcf => (VmSpec::single(&name), Box::new(MemWalk::llcf(&name, cache))),
        Kind::Lolcf => (
            VmSpec::single(&name),
            Box::new(MemWalk::lolcf(&name, cache)),
        ),
        Kind::Llco => (VmSpec::single(&name), Box::new(MemWalk::llco(&name, cache))),
    }
}

fn run_population(
    kinds: &[Kind],
    cores: usize,
    policy: Box<dyn SchedPolicy>,
) -> aql_sched::hv::RunReport {
    let cache = CacheSpec::i7_3770();
    let machine = MachineSpec::custom("prop", 1, cores, cache);
    let mut b = SimulationBuilder::new(machine).policy(policy);
    for (i, k) in kinds.iter().enumerate() {
        let (spec, wl) = build_vm(*k, i, &cache);
        b = b.vm(spec, wl);
    }
    let mut sim = b.build();
    sim.run_for(300 * MS);
    sim.reset_measurements();
    sim.run_for(SEC);
    sim.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// CPU time is conserved and bounded: the sum of per-vCPU CPU time
    /// equals the sum of per-pCPU busy time, and neither exceeds the
    /// machine's capacity over the measured window.
    #[test]
    fn cpu_time_is_conserved(
        kinds in prop::collection::vec(arb_kind(), 1..10),
        cores in 1usize..4,
    ) {
        let report = run_population(&kinds, cores, Box::new(xen_credit()));
        let vcpu_total: u64 = report.vms.iter().map(|v| v.cpu_ns()).sum();
        let pcpu_total: u64 = report.pcpu_busy_ns.iter().sum();
        prop_assert_eq!(vcpu_total, pcpu_total, "vCPU and pCPU accounting disagree");
        let capacity = report.sim_ns * cores as u64;
        prop_assert!(pcpu_total <= capacity, "busy time exceeds capacity");
        prop_assert!(report.utilisation() <= 1.0 + 1e-9);
    }

    /// The adaptive policy never breaks accounting either, and no VM
    /// is starved outright on a saturated machine of CPU-hungry VMs.
    #[test]
    fn aql_conserves_and_does_not_starve(
        kinds in prop::collection::vec(arb_kind(), 2..8),
    ) {
        let report = run_population(&kinds, 2, Box::new(AqlSched::paper_defaults()));
        let vcpu_total: u64 = report.vms.iter().map(|v| v.cpu_ns()).sum();
        let pcpu_total: u64 = report.pcpu_busy_ns.iter().sum();
        prop_assert_eq!(vcpu_total, pcpu_total);
        // Every always-runnable (CPU-burn or spin) VM must have run.
        for (i, k) in kinds.iter().enumerate() {
            if matches!(k, Kind::Llcf | Kind::Lolcf | Kind::Llco | Kind::Spin | Kind::Het) {
                let vm = &report.vms[i];
                prop_assert!(
                    vm.cpu_ns() > 0,
                    "vm-{i} ({k:?}) starved under AQL"
                );
            }
        }
    }

    /// Bit-for-bit determinism holds for arbitrary populations under
    /// both a fixed policy and the adaptive one.
    #[test]
    fn runs_are_reproducible(
        kinds in prop::collection::vec(arb_kind(), 1..6),
    ) {
        let a = run_population(&kinds, 2, Box::new(xen_credit()));
        let b = run_population(&kinds, 2, Box::new(xen_credit()));
        prop_assert_eq!(a.total_cpu_ns(), b.total_cpu_ns());
        prop_assert_eq!(&a.pcpu_busy_ns, &b.pcpu_busy_ns);
        let c = run_population(&kinds, 2, Box::new(AqlSched::paper_defaults()));
        let d = run_population(&kinds, 2, Box::new(AqlSched::paper_defaults()));
        prop_assert_eq!(c.total_cpu_ns(), d.total_cpu_ns());
        prop_assert_eq!(&c.pcpu_busy_ns, &d.pcpu_busy_ns);
    }
}

/// A random 1–4-socket machine: an IO server (the VM vSlicer and vTurbo
/// tag), unpinned walkers and a four-thread spin job, plus one walker
/// hard-pinned to each pCPU in `pins`.
fn pinned_spec(sockets: usize, cores: usize, pins: &[usize], seed: u64) -> ScenarioSpec {
    let mut text = format!(
        "scenario = pins-and-caps\n\
         machine = sockets={sockets} cores={cores} cache=i7-3770\n\
         seed = {seed}\n\
         warmup_ms = 100\n\
         measure_ms = 250\n\
         vm web workload=io/heterogeneous/150\n\
         vm hog workload=walk/llcf\n\
         vm walk-%i count=3 workload=walk/lolcf|walk/llco\n\
         vm spin workload=spin/kernbench/4\n"
    );
    for (i, p) in pins.iter().enumerate() {
        text += &format!(
            "vm pinned-{i} workload=walk/llco pin={}\n",
            p % (sockets * cores)
        );
    }
    ScenarioSpec::parse(&text).expect("generated scenario parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hard pins, a capped spin job (its four vCPUs are often queued when
    /// the cap parks them) and every policy move queued vCPUs through
    /// each run-queue mutation site (AQL_Sched's `apply_plan`, cap
    /// parking, vSlicer kick requeues, idle steals, the periodic
    /// rebalance) while debug builds recount each pool's movable work
    /// at every idle-pCPU check. Dense and the uncoalesced adaptive path
    /// share those checks and must agree bit for bit.
    #[test]
    fn run_queue_counts_survive_pins_caps_and_every_policy(
        sockets in 1usize..5,
        cores in 1usize..4,
        pins in prop::collection::vec(0usize..12, 1..4),
        cap_pct in 5u32..40,
        seed in 1u64..10_000,
    ) {
        let spec = pinned_spec(sockets, cores, &pins, seed);
        for policy in POLICY_NAMES {
            if !policy_applicable(&spec, policy) {
                continue;
            }
            let run = |mode: TimeMode| {
                let mut vms = expand(&spec);
                let spin = vms.iter().position(|(v, _)| v.name == "spin").expect("spin VM");
                vms[spin].0.cap_pct = Some(cap_pct);
                let mut sim = SimulationBuilder::new(machine(&spec))
                    .time_mode(mode)
                    .coalesce(false)
                    .policy(policy_for(&spec, policy).expect("known policy"))
                    .vms(vms)
                    .build();
                format!("{:?}", sim.run_measured(spec.warmup_ns, spec.measure_ns))
            };
            prop_assert_eq!(
                run(TimeMode::Dense),
                run(TimeMode::Adaptive),
                "{} socket(s) x {} core(s), pins {:?}, {}",
                sockets, cores, &pins, policy
            );
        }
    }
}
