//! Cross-crate integration tests: the paper's headline claims,
//! checked end-to-end through the public umbrella API.

use aql_sched::baselines::xen_credit;
use aql_sched::core::AqlSched;
use aql_sched::hv::policy::FixedQuantumPolicy;
use aql_sched::hv::workload::WorkloadMetrics;
use aql_sched::hv::{MachineSpec, SimulationBuilder, VmSpec};
use aql_sched::mem::CacheSpec;
use aql_sched::sim::time::{MS, SEC};
use aql_sched::workloads::{IoServer, IoServerCfg, MemWalk, SpinJob, SpinJobCfg};

fn one_core() -> MachineSpec {
    MachineSpec::custom("e2e-1core", 1, 1, CacheSpec::i7_3770())
}

fn four_core() -> MachineSpec {
    MachineSpec::custom("e2e-4core", 1, 4, CacheSpec::i7_3770())
}

fn io_latency_ms(report: &aql_sched::hv::RunReport, name: &str) -> f64 {
    let WorkloadMetrics::Io { latency, .. } = &report.vm_by_name(name).unwrap().metrics else {
        panic!("expected Io metrics for {name}");
    };
    latency.mean_ns / MS as f64
}

/// §2: "we can improve the performance of a high traffic web site ...
/// if a [lower] quantum length ... is used" — heterogeneous IO latency
/// grows with the quantum.
#[test]
fn heterogeneous_io_prefers_small_quanta() {
    let run = |quantum: u64| {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(one_core())
            .policy(Box::new(FixedQuantumPolicy::new(quantum)))
            .vm(
                VmSpec::single("web"),
                Box::new(IoServer::new("web", IoServerCfg::heterogeneous(120.0), 7)),
            )
            .vm(VmSpec::single("b1"), Box::new(MemWalk::lolcf("b1", &spec)))
            .vm(VmSpec::single("b2"), Box::new(MemWalk::lolcf("b2", &spec)))
            .vm(VmSpec::single("b3"), Box::new(MemWalk::lolcf("b3", &spec)))
            .build();
        sim.run_for(SEC);
        sim.reset_measurements();
        sim.run_for(4 * SEC);
        io_latency_ms(&sim.report(), "web")
    };
    let small = run(MS);
    let large = run(90 * MS);
    assert!(
        large > 3.0 * small,
        "latency must grow with quantum: 1ms={small}ms 90ms={large}ms"
    );
}

/// §3.4.2: LLCF performs best with long quanta when colocated with
/// trashers, and the effect reverses nowhere in the sweep.
#[test]
fn llcf_cost_decreases_monotonically_with_quantum() {
    let run = |quantum: u64| {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(one_core())
            .policy(Box::new(FixedQuantumPolicy::new(quantum)))
            .vm(
                VmSpec::single("victim"),
                Box::new(MemWalk::llcf("victim", &spec)),
            )
            .vm(VmSpec::single("t1"), Box::new(MemWalk::llco("t1", &spec)))
            .vm(VmSpec::single("t2"), Box::new(MemWalk::llco("t2", &spec)))
            .vm(VmSpec::single("t3"), Box::new(MemWalk::llco("t3", &spec)))
            .build();
        sim.run_for(SEC);
        sim.reset_measurements();
        sim.run_for(4 * SEC);
        let WorkloadMetrics::Mem { instructions } =
            sim.report().vm_by_name("victim").unwrap().metrics
        else {
            panic!("expected Mem metrics");
        };
        instructions
    };
    let i1 = run(MS);
    let i30 = run(30 * MS);
    let i90 = run(90 * MS);
    assert!(i30 > i1, "30ms must beat 1ms for LLCF: {i30} vs {i1}");
    assert!(i90 > i1, "90ms must beat 1ms for LLCF: {i90} vs {i1}");
}

/// §4.2: AQL_Sched improves latency-critical and concurrent VMs on a
/// mixed machine without harming the CPU-burn VMs beyond tolerance.
#[test]
fn aql_beats_xen_on_a_mixed_machine() {
    let build = |policy: Box<dyn aql_sched::hv::SchedPolicy>| {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(four_core())
            .policy(policy)
            .vm(
                VmSpec::single("web0"),
                Box::new(IoServer::new("web0", IoServerCfg::heterogeneous(120.0), 11)),
            )
            .vm(
                VmSpec::single("web1"),
                Box::new(IoServer::new("web1", IoServerCfg::heterogeneous(120.0), 12)),
            )
            .vm(
                VmSpec {
                    weight: 1024,
                    ..VmSpec::smp("job", 4)
                },
                Box::new(SpinJob::new("job", SpinJobCfg::kernbench(4), 13)),
            )
            .vm(
                VmSpec::single("llcf0"),
                Box::new(MemWalk::llcf("llcf0", &spec)),
            )
            .vm(
                VmSpec::single("llcf1"),
                Box::new(MemWalk::llcf("llcf1", &spec)),
            )
            .vm(
                VmSpec::single("llco0"),
                Box::new(MemWalk::llco("llco0", &spec)),
            )
            .vm(
                VmSpec::single("llco1"),
                Box::new(MemWalk::llco("llco1", &spec)),
            )
            .vm(
                VmSpec::single("lolcf0"),
                Box::new(MemWalk::lolcf("lolcf0", &spec)),
            )
            .vm(
                VmSpec::single("lolcf1"),
                Box::new(MemWalk::lolcf("lolcf1", &spec)),
            )
            .vm(
                VmSpec::single("lolcf2"),
                Box::new(MemWalk::lolcf("lolcf2", &spec)),
            )
            .vm(
                VmSpec::single("web2"),
                Box::new(IoServer::new("web2", IoServerCfg::heterogeneous(120.0), 14)),
            )
            .vm(
                VmSpec::single("llcf2"),
                Box::new(MemWalk::llcf("llcf2", &spec)),
            )
            .vm(
                VmSpec::single("lolcf3"),
                Box::new(MemWalk::lolcf("lolcf3", &spec)),
            )
            .build();
        sim.run_for(SEC);
        sim.reset_measurements();
        sim.run_for(5 * SEC);
        sim.report()
    };
    let xen = build(Box::new(xen_credit()));
    let aql = build(Box::new(AqlSched::paper_defaults()));
    // IO latency must improve clearly.
    let xen_lat = (io_latency_ms(&xen, "web0") + io_latency_ms(&xen, "web1")) / 2.0;
    let aql_lat = (io_latency_ms(&aql, "web0") + io_latency_ms(&aql, "web1")) / 2.0;
    assert!(
        aql_lat < 0.7 * xen_lat,
        "AQL must cut IO latency: xen={xen_lat}ms aql={aql_lat}ms"
    );
    // Spin throughput must not regress materially.
    let items = |r: &aql_sched::hv::RunReport| -> u64 {
        let WorkloadMetrics::Spin { work_items, .. } = r.vm_by_name("job").unwrap().metrics else {
            panic!("expected Spin metrics");
        };
        work_items
    };
    assert!(
        items(&aql) as f64 > 0.8 * items(&xen) as f64,
        "AQL must not sink ConSpin throughput: xen={} aql={}",
        items(&xen),
        items(&aql)
    );
}

/// The engine is deterministic: identical builds produce identical
/// results, including under the adaptive policy.
#[test]
fn simulations_are_deterministic() {
    let run = || {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(four_core())
            .policy(Box::new(AqlSched::paper_defaults()))
            .vm(
                VmSpec::single("web"),
                Box::new(IoServer::new("web", IoServerCfg::heterogeneous(150.0), 3)),
            )
            .vm(
                VmSpec::single("llcf"),
                Box::new(MemWalk::llcf("llcf", &spec)),
            )
            .vm(
                VmSpec::single("llco"),
                Box::new(MemWalk::llco("llco", &spec)),
            )
            .vm(
                VmSpec {
                    weight: 512,
                    ..VmSpec::smp("job", 2)
                },
                Box::new(SpinJob::new("job", SpinJobCfg::kernbench(2), 5)),
            )
            .build();
        sim.run_for(3 * SEC);
        let r = sim.report();
        (
            r.total_cpu_ns(),
            io_latency_ms(&r, "web").to_bits(),
            r.pcpu_busy_ns.clone(),
        )
    };
    assert_eq!(run(), run(), "two identical runs diverged");
}

/// Workload conservation: the engine neither loses nor fabricates IO
/// requests under any policy.
#[test]
fn io_requests_are_conserved() {
    for policy in [
        Box::new(xen_credit()) as Box<dyn aql_sched::hv::SchedPolicy>,
        Box::new(AqlSched::paper_defaults()),
    ] {
        let spec = CacheSpec::i7_3770();
        let mut sim = SimulationBuilder::new(one_core())
            .policy(policy)
            .vm(
                VmSpec::single("web"),
                Box::new(IoServer::new("web", IoServerCfg::exclusive(400.0), 17)),
            )
            .vm(VmSpec::single("b"), Box::new(MemWalk::lolcf("b", &spec)))
            .build();
        sim.run_for(5 * SEC);
        let WorkloadMetrics::Io {
            completed, offered, ..
        } = sim.report().vm_by_name("web").unwrap().metrics
        else {
            panic!("expected Io metrics");
        };
        assert!(completed <= offered);
        // A lightly-loaded server keeps up with its arrivals.
        assert!(
            completed as f64 > 0.95 * offered as f64,
            "requests lost: {completed}/{offered}"
        );
    }
}
