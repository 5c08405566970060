//! Fig. 5 — validation of vTRS and calibration robustness.
//!
//! Every application of the catalog runs consolidated (4 vCPUs per
//! pCPU, as the paper observes is the common cloud case) under each
//! quantum length; the reported value is the cost normalised over the
//! default 30 ms run. The paper's claim: each application reaches its
//! best performance at the quantum its vTRS-detected type calibrates
//! to.
//!
//! The per-application consolidation environment is a generated
//! [`ScenarioSpec`] ([`catalog_spec`]); the quantum axis is the
//! `fixed/<dur>` policy token, all applications fanned through one
//! plan.

use aql_scenarios::ScenarioSpec;
use aql_sim::time::fmt_dur;
use aql_workloads::find_app;

use crate::emit::{fmt_ratio, Table};
use crate::fig2::{fold_quanta, quantum_cells, QUANTA};
use crate::plan::{execute, ExecOpts, PlanCell};

/// Builds the consolidated environment for one named application:
/// one pCPU per application vCPU, with three co-runner vCPUs per pCPU
/// (one trasher, one LLC-friendly, one low-level-cache walker per
/// application vCPU — "various workload types").
pub fn catalog_spec(app: &str) -> ScenarioSpec {
    let entry = find_app(app).unwrap_or_else(|| panic!("unknown catalog app '{app}'"));
    let cores = entry.vcpus;
    let mut doc = format!(
        "scenario   = fig5-{app}\n\
         machine    = name=fig5-{cores}core sockets=1 cores={cores} cache=i7-3770\n\
         vm {app} workload=app/{app} seed=42\n"
    );
    for i in 0..cores {
        doc.push_str(&format!("vm co-llco-{i} workload=walk/llco\n"));
        doc.push_str(&format!("vm co-llcf-{i} workload=walk/llcf\n"));
        doc.push_str(&format!("vm co-lolcf-{i} workload=walk/lolcf\n"));
    }
    ScenarioSpec::parse(&doc).expect("generated fig5 spec is well-formed")
}

/// The cells of one application's sweep: one shared
/// [`crate::fig2::quantum_cells`] span over the consolidation spec.
fn app_cells(app: &str, quick: bool) -> Vec<PlanCell> {
    let mut spec = catalog_spec(app);
    if quick {
        spec = spec.quick();
    }
    quantum_cells(&spec)
}

/// Runs the whole figure over `apps` (or the full catalog when empty)
/// as a single plan.
pub fn run(apps: &[&str], quick: bool, opts: &ExecOpts) -> Table {
    let names: Vec<&str> = if apps.is_empty() {
        aql_workloads::all_apps().iter().map(|a| a.name).collect()
    } else {
        apps.to_vec()
    };
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for app in &names {
        let c = app_cells(app, quick);
        spans.push(c.len());
        cells.extend(c);
    }
    let results = execute(&cells, opts).expect("fig5 plan is well-formed");
    let mut headers: Vec<String> = vec!["application".into(), "class".into()];
    headers.extend(QUANTA.iter().map(|q| fmt_dur(*q)));
    let mut table = Table::new(
        "Fig5 validation sweep (normalised cost, lower is better)",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    let mut offset = 0;
    for (app, span) in names.iter().zip(spans) {
        let entry = find_app(app).expect("catalog app");
        let cols = fold_quanta(&results[offset..offset + span]);
        offset += span;
        let mut row = vec![app.to_string(), entry.class.to_string()];
        row.extend(cols.iter().map(|c| fmt_ratio(*c)));
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_fully_consolidated() {
        for app in ["bzip2", "fluidanimate", "SPECweb2009"] {
            let s = catalog_spec(app);
            let pcpus = s.machine.sockets * s.machine.cores_per_socket;
            assert_eq!(s.total_vcpus(), 4 * pcpus, "{app}: 4 vCPUs per pCPU");
        }
    }

    #[test]
    #[should_panic(expected = "unknown catalog app")]
    fn unknown_app_panics() {
        let _ = catalog_spec("doom");
    }
}
