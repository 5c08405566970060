//! Integration tests for the vCPU Type Recognition System across the
//! application catalog (Table 3 at test scale) and under type changes.

use aql_sched::core::{AqlSched, AqlSchedConfig};
use aql_sched::hv::apptype::VcpuType;
use aql_sched::hv::{MachineSpec, SimulationBuilder, VmSpec};
use aql_sched::mem::{CacheSpec, MemProfile};
use aql_sched::sim::time::{MS, SEC};
use aql_sched::workloads::{build_app_vm, find_app, MemWalk, Phase};

/// Runs one catalog app consolidated (its vCPUs plus three co-runner
/// walkers per pCPU) under AQL and returns the detected type of the
/// app's vCPU 0.
fn detect(app: &str) -> VcpuType {
    let entry = find_app(app).expect("catalog app");
    let cache = CacheSpec::i7_3770();
    let machine = MachineSpec::custom("rec", 1, entry.vcpus, cache);
    let mut b = SimulationBuilder::new(machine)
        .seed(7)
        .policy(Box::new(AqlSched::paper_defaults()));
    let (spec, wl) = build_app_vm(app, &cache, 7).expect("catalog app");
    b = b.vm(spec, wl);
    for i in 0..entry.vcpus {
        b = b
            .vm(
                VmSpec::single(&format!("co-llco-{i}")),
                Box::new(MemWalk::llco(&format!("co-llco-{i}"), &cache)),
            )
            .vm(
                VmSpec::single(&format!("co-llcf-{i}")),
                Box::new(MemWalk::llcf(&format!("co-llcf-{i}"), &cache)),
            )
            .vm(
                VmSpec::single(&format!("co-lolcf-{i}")),
                Box::new(MemWalk::lolcf(&format!("co-lolcf-{i}"), &cache)),
            );
    }
    let mut sim = b.build();
    sim.run_for(4 * SEC);
    let policy = sim
        .policy()
        .as_any()
        .downcast_ref::<AqlSched>()
        .expect("AqlSched");
    policy.vtrs().expect("vTRS ran").type_of(0)
}

#[test]
fn io_applications_are_recognised() {
    assert_eq!(detect("SPECweb2009"), VcpuType::IoInt);
    assert_eq!(detect("SPECmail2009"), VcpuType::IoInt);
}

#[test]
fn spin_applications_are_recognised() {
    assert_eq!(detect("fluidanimate"), VcpuType::ConSpin);
    assert_eq!(detect("kernbench"), VcpuType::ConSpin);
}

#[test]
fn cache_classes_are_recognised() {
    assert_eq!(detect("bzip2"), VcpuType::Llcf);
    assert_eq!(detect("hmmer"), VcpuType::Lolcf);
    assert_eq!(detect("libquantum"), VcpuType::Llco);
}

/// §1: "several different thread types can be scheduled by the guest
/// OS on the same vCPU" — the recogniser must follow a workload whose
/// class changes mid-run.
#[test]
fn type_changes_are_followed_online() {
    let cache = CacheSpec::i7_3770();
    let machine = MachineSpec::custom("dyn", 1, 1, cache);
    let phased = MemWalk::phased(
        "shape-shifter",
        vec![
            Phase {
                duration_ns: 2 * SEC,
                profile: MemProfile::lolcf(&cache),
            },
            Phase {
                duration_ns: 2 * SEC,
                profile: MemProfile::llco(&cache),
            },
        ],
    );
    let mut sim = SimulationBuilder::new(machine)
        .policy(Box::new(AqlSched::new(AqlSchedConfig::default())))
        .vm(VmSpec::single("shape-shifter"), Box::new(phased))
        .build();
    // During the first phase: LoLCF.
    sim.run_for(1500 * MS);
    {
        let policy = sim.policy().as_any().downcast_ref::<AqlSched>().unwrap();
        assert_eq!(
            policy.vtrs().unwrap().type_of(0),
            VcpuType::Lolcf,
            "first phase must read LoLCF"
        );
    }
    // Deep into the second phase: LLCO.
    sim.run_for(2 * SEC);
    {
        let policy = sim.policy().as_any().downcast_ref::<AqlSched>().unwrap();
        assert_eq!(
            policy.vtrs().unwrap().type_of(0),
            VcpuType::Llco,
            "second phase must read LLCO"
        );
    }
}
