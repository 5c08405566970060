//! Shared helpers for the conformance suites: the tolerance oracle
//! comparing an adaptive (chunk-coalesced) run against the dense
//! oracle.
//!
//! The contract (see `aql_hv::engine::horizon`): everything discrete —
//! per-vCPU `cpu_ns`, pool migrations, pCPU busy time, event and timer
//! delivery, completion counts — is **bit-exact**; f64 metrics may
//! drift by at most [`REL_TOL`] relative (coalesced summation order
//! plus snapped sub-epsilon cache traffic).

use aql_sched::hv::workload::WorkloadMetrics;
use aql_sched::hv::RunReport;

/// The tolerance the conformance oracle grants f64 metrics.
pub const REL_TOL: f64 = 1e-6;

/// Asserts `|a - b| <= tol * max(|a|, |b|)` (with an absolute floor so
/// exact zeros compare equal).
pub fn assert_close(a: f64, b: f64, tol: f64, what: &str) {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        return;
    }
    let rel = (a - b).abs() / denom;
    assert!(
        rel <= tol,
        "{what}: relative error {rel:e} exceeds {tol:e} (dense {a} vs adaptive {b})"
    );
}

/// Asserts that an adaptive run conforms to the dense oracle: all
/// integer accounting bit-exact, all f64 metrics within `tol`.
pub fn assert_reports_conform(dense: &RunReport, adaptive: &RunReport, tol: f64, ctx: &str) {
    assert_eq!(dense.sim_ns, adaptive.sim_ns, "{ctx}: sim_ns");
    assert_eq!(dense.policy, adaptive.policy, "{ctx}: policy");
    assert_eq!(
        dense.pcpu_busy_ns, adaptive.pcpu_busy_ns,
        "{ctx}: pCPU busy accounting must be exact"
    );
    assert_eq!(dense.vms.len(), adaptive.vms.len(), "{ctx}: VM count");
    for (d, a) in dense.vms.iter().zip(&adaptive.vms) {
        let vm = format!("{ctx}/{}", d.name);
        assert_eq!(d.vm, a.vm, "{vm}: id");
        assert_eq!(d.name, a.name, "{vm}: name");
        assert_eq!(
            d.vcpu_cpu_ns, a.vcpu_cpu_ns,
            "{vm}: per-vCPU cpu_ns must be exact"
        );
        assert_eq!(
            d.vcpu_pool_migrations, a.vcpu_pool_migrations,
            "{vm}: pool migrations must be exact"
        );
        assert_metrics_conform(&d.metrics, &a.metrics, tol, &vm);
    }
}

/// The per-metric arm of [`assert_reports_conform`].
pub fn assert_metrics_conform(d: &WorkloadMetrics, a: &WorkloadMetrics, tol: f64, vm: &str) {
    match (d, a) {
        (
            WorkloadMetrics::Io {
                latency: dl,
                completed: dc,
                offered: dof,
            },
            WorkloadMetrics::Io {
                latency: al,
                completed: ac,
                offered: aof,
            },
        ) => {
            assert_eq!(dc, ac, "{vm}: completed requests must be exact");
            assert_eq!(dof, aof, "{vm}: offered requests must be exact");
            assert_eq!(dl.count, al.count, "{vm}: latency sample count");
            assert_close(dl.mean_ns, al.mean_ns, tol, &format!("{vm}: mean latency"));
            assert_close(dl.p95_ns, al.p95_ns, tol, &format!("{vm}: p95 latency"));
            assert_close(dl.p99_ns, al.p99_ns, tol, &format!("{vm}: p99 latency"));
            assert_close(dl.max_ns, al.max_ns, tol, &format!("{vm}: max latency"));
        }
        (
            WorkloadMetrics::Spin {
                work_items: dw,
                lock_hold_mean_ns: dh,
                lock_hold_max_ns: dhm,
                lock_wait_mean_ns: dwm,
                spin_ns: ds,
            },
            WorkloadMetrics::Spin {
                work_items: aw,
                lock_hold_mean_ns: ah,
                lock_hold_max_ns: ahm,
                lock_wait_mean_ns: awm,
                spin_ns: as_,
            },
        ) => {
            assert_eq!(dw, aw, "{vm}: work items must be exact");
            assert_eq!(ds, as_, "{vm}: spin time must be exact");
            assert_close(*dh, *ah, tol, &format!("{vm}: lock hold mean"));
            assert_close(*dhm, *ahm, tol, &format!("{vm}: lock hold max"));
            assert_close(*dwm, *awm, tol, &format!("{vm}: lock wait mean"));
        }
        (WorkloadMetrics::Mem { instructions: di }, WorkloadMetrics::Mem { instructions: ai }) => {
            assert_close(*di, *ai, tol, &format!("{vm}: instructions"));
        }
        (WorkloadMetrics::None, WorkloadMetrics::None) => {}
        (d, a) => panic!("{vm}: metric variants diverged: {d:?} vs {a:?}"),
    }
}
