//! Fault-isolation properties of the experiment executor: every
//! injected degradation path is contained to its own cell, classified
//! correctly, and leaves every sibling cell's report bitwise identical
//! to a fault-free run — across worker-thread counts.
//!
//! The fault vocabulary under test (`fault=` scenario attribute, see
//! `aql_workloads::fault`):
//!
//! * `panic@<t>`  → [`FailureKind::Panic`] (caught at the cell's
//!   unwind boundary);
//! * `hang`       → [`FailureKind::Livelock`] (the zero-progress bail
//!   watchdog);
//! * `nan-rate`   → [`FailureKind::Invariant`] (metric-finiteness
//!   check on the finished report);
//! * `horizon-lie` → absorbed: the broken-promise dense recovery makes
//!   the lie harmless, bitwise;
//! * `coalesce-break` → absorbed: the chunk contract violation is
//!   counted, recovered densely, and stays within the conformance
//!   tolerance of the dense oracle.

mod common;

use std::sync::OnceLock;

use aql_sched::experiments::{execute, ExecOpts, FailureKind, PlanCell};
use aql_sched::hv::{RunReport, TimeMode};
use aql_sched::scenarios::{build_sim_seeded_tuned, parse_policy, ScenarioSpec};
use common::{assert_reports_conform, REL_TOL};
use proptest::prelude::*;

/// A small mixed scenario; `fault` lands on the IO VM.
fn scenario(name: &str, fault: Option<&str>) -> ScenarioSpec {
    let fault_attr = fault.map(|f| format!(" fault={f}")).unwrap_or_default();
    ScenarioSpec::parse(&format!(
        "scenario = {name}\n\
         machine = sockets=1 cores=2 cache=i7-3770\n\
         warmup_ms = 100\n\
         measure_ms = 250\n\
         vm web workload=io/heterogeneous/150 seed=42{fault_attr}\n\
         vm walk-%i count=2 workload=walk/llcf|walk/llco\n"
    ))
    .unwrap()
}

/// The `vm` lines `vms` on a `cores`-core machine. Solo walkers, at
/// most one per core, are the shape the engine reliably span-coalesces
/// (see `tests/coalesce_conformance.rs`), so a coalesce-break fault is
/// guaranteed a chunk contract to violate.
fn walker_scenario(name: &str, cores: usize, vms: &str) -> ScenarioSpec {
    ScenarioSpec::parse(&format!(
        "scenario = {name}\n\
         machine = sockets=1 cores={cores} cache=i7-3770\n\
         warmup_ms = 100\n\
         measure_ms = 250\n\
         {vms}",
    ))
    .unwrap()
}

/// The three-cell matrix every isolation case perturbs.
fn clean_cells() -> Vec<PlanCell> {
    vec![
        PlanCell::new(scenario("fi-a", None), "xen-credit"),
        PlanCell::new(scenario("fi-b", None), "fixed/10ms"),
        PlanCell::new(scenario("fi-c", None), "aql-sched"),
    ]
}

/// Fault-free reports of [`clean_cells`], computed once.
fn baseline() -> &'static Vec<Option<RunReport>> {
    static BASELINE: OnceLock<Vec<Option<RunReport>>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        execute(&clean_cells(), &ExecOpts::serial())
            .unwrap()
            .into_iter()
            .map(|r| r.report)
            .collect()
    })
}

#[test]
fn every_fault_token_degrades_as_classified() {
    for (token, expected) in [
        ("panic@30ms", FailureKind::Panic),
        ("hang", FailureKind::Livelock),
        ("nan-rate", FailureKind::Invariant),
    ] {
        let out = execute(
            &[PlanCell::new(scenario("fi-x", Some(token)), "xen-credit")],
            &ExecOpts::serial(),
        )
        .unwrap();
        let failure = out[0]
            .failure
            .as_ref()
            .unwrap_or_else(|| panic!("fault '{token}' must fail the cell"));
        assert_eq!(failure.kind, expected, "fault '{token}'");
        assert_eq!(failure.attempts, 1, "deterministic faults never retry");
        assert!(out[0].report.is_none());
    }
}

/// An IO server that blocks whenever its request queue drains, with
/// `fault` on it, in two placements: next to two walkers on 2 cores,
/// and pinned to pCPU 0 beside a walker pinned to pCPU 1, so a broken
/// promise on pCPU 0 leaves pCPU 1's sub-step for the recovery to
/// finish. ([`scenario`]'s server has CGI background work, so it never
/// blocks and a `Horizon::Never` lie would be true.)
fn blocking_server_scenarios(fault: Option<&str>) -> [ScenarioSpec; 2] {
    let fault_attr = fault.map(|f| format!(" fault={f}")).unwrap_or_default();
    let web = format!("vm web workload=io/exclusive/150 seed=42{fault_attr}");
    [
        walker_scenario(
            "fi-hs",
            2,
            &format!("{web}\nvm walk-%i count=2 workload=walk/llcf|walk/llco\n"),
        ),
        walker_scenario(
            "fi-hp",
            2,
            &format!("{web} pin=0\nvm walk workload=walk/llcf pin=1\n"),
        ),
    ]
}

/// `spec` under `xen-credit` in `mode`; returns the report and how
/// many grid windows a broken horizon promise cut short.
fn run_xen(spec: &ScenarioSpec, mode: TimeMode, coalesce: bool) -> (RunReport, u64) {
    let policy = parse_policy("xen-credit").unwrap();
    let mut sim = build_sim_seeded_tuned(spec, policy.build(spec), spec.seed, mode, coalesce);
    let report = sim.run_measured(spec.warmup_ns, spec.measure_ns);
    (report, sim.horizon_break_count())
}

#[test]
fn horizon_lie_is_absorbed_bitwise_on_the_grid_path() {
    // With coalescing off, the adaptive grid replay is bit-identical
    // to dense — and the broken-promise recovery must keep it so even
    // when a server that blocks lies that it never needs service again.
    let honest = blocking_server_scenarios(None);
    for (lied, honest) in blocking_server_scenarios(Some("horizon-lie"))
        .iter()
        .zip(&honest)
    {
        let (flat, breaks) = run_xen(lied, TimeMode::Adaptive, false);
        let (honest_flat, honest_breaks) = run_xen(honest, TimeMode::Adaptive, false);
        assert!(
            breaks > 0,
            "{}: the lie must actually break a grid window's horizon",
            lied.name
        );
        assert_eq!(
            honest_breaks, 0,
            "{}: an honest server keeps its horizon promise",
            honest.name
        );
        let flat = format!("{flat:?}");
        assert_eq!(
            flat,
            format!("{honest_flat:?}"),
            "{}: a lying horizon must not change a single result bit",
            lied.name
        );
        assert_eq!(
            flat,
            format!("{:?}", run_xen(lied, TimeMode::Dense, false).0),
            "{}: the recovered grid path must replay the dense oracle",
            lied.name
        );
    }
}

#[test]
fn horizon_lie_stays_within_tolerance_when_coalescing() {
    let honest = blocking_server_scenarios(None);
    for (lied, honest) in blocking_server_scenarios(Some("horizon-lie"))
        .iter()
        .zip(&honest)
    {
        let (coalesced, breaks) = run_xen(lied, TimeMode::Adaptive, true);
        assert!(
            breaks > 0,
            "{}: the lie must actually break a grid window's horizon",
            lied.name
        );
        assert_reports_conform(
            &run_xen(honest, TimeMode::Adaptive, true).0,
            &coalesced,
            REL_TOL,
            &format!("{}: horizon-lie vs honest (coalesced)", lied.name),
        );
    }
}

/// Runs `spec` under `fixed/10ms` in `mode`; returns the report and
/// how many coalesced chunks broke their contract.
fn run_fixed(spec: &ScenarioSpec, mode: TimeMode) -> (RunReport, u64) {
    let policy = parse_policy("fixed/10ms").unwrap();
    let mut sim = build_sim_seeded_tuned(spec, policy.build(spec), spec.seed, mode, true);
    let report = sim.run_measured(spec.warmup_ns, spec.measure_ns);
    (report, sim.coalesce_break_count())
}

#[test]
fn coalesce_break_recovers_densely_within_tolerance() {
    // On two cores the breaker runs on pCPU 0, so the recovery must
    // also finish the window densely on pCPU 1, after the breaking slot.
    for (cores, vms) in [
        (1, "vm mark workload=walk/llcf fault=coalesce-break\n"),
        (
            2,
            "vm mark workload=walk/llcf fault=coalesce-break pin=0\n\
             vm peer workload=walk/llcf pin=1\n",
        ),
    ] {
        let spec = walker_scenario(&format!("fi-cb{cores}"), cores, vms);
        let (adaptive, breaks) = run_fixed(&spec, TimeMode::Adaptive);
        assert!(
            breaks > 0,
            "{cores} core(s): the fault must actually break a chunk contract"
        );
        let (dense, _) = run_fixed(&spec, TimeMode::Dense);
        assert_reports_conform(
            &dense,
            &adaptive,
            REL_TOL,
            &format!("{cores} core(s): coalesce-break recovery vs dense oracle"),
        );
    }
}

/// In debug builds `run_measured` checks the report invariants, so a
/// caller that drives the engine directly, outside a budgeted plan
/// cell, cannot take a poisoned report for a result.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "instruction count is non-finite")]
fn run_measured_checks_report_invariants_in_debug_builds() {
    let spec = walker_scenario("fi-nan", 1, "vm walk workload=walk/llcf fault=nan-rate\n");
    run_fixed(&spec, TimeMode::Adaptive);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One fault-injected cell in a three-cell matrix fails with its
    /// classified kind while both siblings stay bitwise identical to
    /// the fault-free matrix — for every fault kind and worker-thread
    /// count.
    #[test]
    fn faulty_cell_is_contained_and_siblings_are_bitwise_identical(
        fault in prop_oneof![
            Just(("panic@10ms", FailureKind::Panic)),
            Just(("panic@150ms", FailureKind::Panic)),
            Just(("hang", FailureKind::Livelock)),
            Just(("nan-rate", FailureKind::Invariant)),
        ],
        position in 0usize..3,
        threads in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let (token, expected) = fault;
        let mut cells = clean_cells();
        let name = cells[position].spec.name.clone();
        let policy = cells[position].policy.clone();
        cells[position] = PlanCell::new(
            scenario(&name, Some(token)),
            &policy,
        );
        let opts = ExecOpts { threads, ..ExecOpts::default() };
        let out = execute(&cells, &opts).unwrap();
        let failure = out[position]
            .failure
            .as_ref()
            .expect("the injected fault must fail its cell");
        prop_assert_eq!(failure.kind, expected);
        prop_assert_eq!(&failure.scenario, &name);
        prop_assert!(out[position].report.is_none());
        for (i, result) in out.iter().enumerate() {
            if i == position {
                continue;
            }
            prop_assert!(result.failure.is_none());
            prop_assert_eq!(
                &result.report,
                &baseline()[i],
                "sibling {} drifted under fault '{}' at position {} (threads {})",
                i, token, position, threads
            );
        }
    }
}
