//! End-to-end tests of the declarative scenario layer: catalog
//! entries must reproduce the hand-built setups they replaced, and
//! the sweep aggregate must be independent of thread count.

use aql_sched::baselines::xen_credit;
use aql_sched::experiments::{run_sweep, ExecOpts, SweepConfig};
use aql_sched::hv::{MachineSpec, SimulationBuilder, VmSpec};
use aql_sched::mem::CacheSpec;
use aql_sched::scenarios::{build_sim, catalog};
use aql_sched::sim::time::MS;
use aql_sched::workloads::{IoServer, IoServerCfg, MemWalk, SpinJob, SpinJobCfg};

/// The quickstart population exactly as `examples/quickstart.rs`
/// built it by hand before the catalog existed.
fn hand_built_quickstart() -> aql_sched::hv::Simulation {
    let cache = CacheSpec::i7_3770();
    let machine = MachineSpec::custom("quickstart", 1, 4, cache);
    let mut b = SimulationBuilder::new(machine).policy(Box::new(xen_credit()));
    for i in 0..4 {
        let name = format!("web-{i}");
        b = b.vm(
            VmSpec::single(&name),
            Box::new(IoServer::new(
                &name,
                IoServerCfg::heterogeneous(120.0),
                10 + i,
            )),
        );
    }
    b = b.vm(
        VmSpec {
            weight: 1024,
            ..VmSpec::smp("parsec", 4)
        },
        Box::new(SpinJob::new("parsec", SpinJobCfg::kernbench(4), 20)),
    );
    for i in 0..4 {
        let name = format!("llcf-{i}");
        b = b.vm(
            VmSpec::single(&name),
            Box::new(MemWalk::llcf(&name, &cache)),
        );
    }
    for i in 0..2 {
        let name = format!("llco-{i}");
        b = b.vm(
            VmSpec::single(&name),
            Box::new(MemWalk::llco(&name, &cache)),
        );
    }
    for i in 0..2 {
        let name = format!("lolcf-{i}");
        b = b.vm(
            VmSpec::single(&name),
            Box::new(MemWalk::lolcf(&name, &cache)),
        );
    }
    b.build()
}

#[test]
fn catalog_quickstart_replays_the_hand_built_setup_exactly() {
    let spec = catalog::load("quickstart").expect("catalog entry");
    let mut declarative = build_sim(&spec, Box::new(xen_credit()));
    let mut hand_built = hand_built_quickstart();
    // A shortened window is enough: if construction diverged at all
    // (ordering, seeds, weights, profiles), the traces split within
    // milliseconds of simulated time.
    let report_of = |sim: &mut aql_sched::hv::Simulation| sim.run_measured(300 * MS, 1000 * MS);
    let a = report_of(&mut declarative);
    let b = report_of(&mut hand_built);
    assert_eq!(a.vms.len(), b.vms.len());
    assert_eq!(a.total_cpu_ns(), b.total_cpu_ns());
    for (va, vb) in a.vms.iter().zip(&b.vms) {
        assert_eq!(va.name, vb.name);
        assert_eq!(va.vcpu_cpu_ns, vb.vcpu_cpu_ns, "VM {}", va.name);
        assert_eq!(
            va.metrics.time_cost(),
            vb.metrics.time_cost(),
            "VM {}",
            va.name
        );
    }
    assert_eq!(a.pcpu_busy_ns, b.pcpu_busy_ns);
}

#[test]
fn sweep_aggregate_is_thread_count_independent_on_catalog_entries() {
    let names = vec!["vtrs-live".to_string(), "quickstart".to_string()];
    let cfg = |threads: usize| SweepConfig {
        policies: vec!["xen-credit".into(), "aql-sched".into()],
        seeds: 1,
        quick: true,
        exec: ExecOpts {
            threads,
            ..ExecOpts::default()
        },
    };
    let serial = run_sweep(&names, &cfg(1)).expect("serial sweep");
    let parallel = run_sweep(&names, &cfg(4)).expect("parallel sweep");
    assert_eq!(serial.table.render(), parallel.table.render());
}
