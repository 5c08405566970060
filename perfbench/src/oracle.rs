//! The output check: every cell's [`RunReport`] against a reference,
//! under the repository's tolerance oracle — integers and text exact,
//! f64 within [`REL_TOL`] relative.
//!
//! References are plain text, one line per plan cell in plan order:
//! `scenario<TAB>policy<TAB>na` for a cell the policy cannot run on,
//! otherwise `scenario<TAB>policy` followed by one `label=kind:value`
//! field per report value (`i:` integer, `f:` f64 in round-trip
//! notation, `s:` text).

use aql_experiments::{execute, CellResult, ExecOpts, PlanCell};
use aql_hv::workload::WorkloadMetrics;
use aql_hv::RunReport;
use aql_scenarios::ScenarioSpec;

/// Relative tolerance granted to f64 report values.
pub const REL_TOL: f64 = 1e-6;

/// One report value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(u64),
    Real(f64),
    Text(String),
}

/// A report flattened to labelled values in a fixed order.
pub type Fields = Vec<(String, Value)>;

/// The expected outcome of one plan cell.
#[derive(Debug)]
pub struct CellRef {
    pub scenario: String,
    pub policy: String,
    /// `None`: the policy is inapplicable, so the cell yields no report.
    pub fields: Option<Fields>,
}

/// Flattens every value of a report that the oracle compares.
pub fn flatten(r: &RunReport) -> Fields {
    let mut f: Fields = vec![
        ("sim_ns".into(), Value::Int(r.sim_ns)),
        ("policy".into(), Value::Text(r.policy.clone())),
    ];
    for (i, b) in r.pcpu_busy_ns.iter().enumerate() {
        f.push((format!("busy{i}"), Value::Int(*b)));
    }
    for (i, vm) in r.vms.iter().enumerate() {
        let p = format!("vm{i}.");
        f.push((format!("{p}name"), Value::Text(vm.name.clone())));
        for (j, c) in vm.vcpu_cpu_ns.iter().enumerate() {
            f.push((format!("{p}cpu{j}"), Value::Int(*c)));
        }
        for (j, m) in vm.vcpu_pool_migrations.iter().enumerate() {
            f.push((format!("{p}mig{j}"), Value::Int(*m)));
        }
        let int = |f: &mut Fields, k: &str, v: u64| f.push((format!("{p}{k}"), Value::Int(v)));
        let real = |f: &mut Fields, k: &str, v: f64| f.push((format!("{p}{k}"), Value::Real(v)));
        match &vm.metrics {
            WorkloadMetrics::Io {
                latency,
                completed,
                offered,
            } => {
                int(&mut f, "io.completed", *completed);
                int(&mut f, "io.offered", *offered);
                int(&mut f, "io.count", latency.count);
                int(&mut f, "io.nan", latency.nan_samples);
                real(&mut f, "io.mean", latency.mean_ns);
                real(&mut f, "io.p95", latency.p95_ns);
                real(&mut f, "io.p99", latency.p99_ns);
                real(&mut f, "io.max", latency.max_ns);
            }
            WorkloadMetrics::Spin {
                work_items,
                lock_hold_mean_ns,
                lock_hold_max_ns,
                lock_wait_mean_ns,
                spin_ns,
            } => {
                int(&mut f, "spin.items", *work_items);
                int(&mut f, "spin.ns", *spin_ns);
                real(&mut f, "spin.hold_mean", *lock_hold_mean_ns);
                real(&mut f, "spin.hold_max", *lock_hold_max_ns);
                real(&mut f, "spin.wait_mean", *lock_wait_mean_ns);
            }
            WorkloadMetrics::Mem { instructions } => {
                real(&mut f, "mem.instructions", *instructions)
            }
            WorkloadMetrics::None => f.push((format!("{p}none"), Value::Int(0))),
        }
    }
    f
}

/// Checks `got` against `want`: same labels in the same order,
/// integers and text exact, reals within [`REL_TOL`] relative.
pub fn conforms(want: &Fields, got: &Fields) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{} values vs {} expected", got.len(), want.len()));
    }
    for ((wl, wv), (gl, gv)) in want.iter().zip(got) {
        if wl != gl {
            return Err(format!("value '{gl}' where '{wl}' was expected"));
        }
        let ok = match (wv, gv) {
            (Value::Real(a), Value::Real(b)) => {
                let denom = a.abs().max(b.abs());
                a == b || (denom.is_finite() && (a - b).abs() <= REL_TOL * denom)
            }
            (a, b) => a == b,
        };
        if !ok {
            return Err(format!("{wl}: got {gv:?}, expected {wv:?}"));
        }
    }
    Ok(())
}

/// Whether a finished cell matches its reference. A contained failure
/// (panic, sentinel) never matches.
pub fn check_cell(want: &CellRef, got: &CellResult) -> Result<(), String> {
    if let Some(failure) = &got.failure {
        return Err(format!("cell failed: {failure}"));
    }
    check_report(want, got.report.as_ref())
}

/// [`check_cell`] for a bare report (`None` = cell did not run).
pub fn check_report(want: &CellRef, got: Option<&RunReport>) -> Result<(), String> {
    let ctx = format!("{} x {}", want.scenario, want.policy);
    match (&want.fields, got) {
        (None, None) => Ok(()),
        (Some(w), Some(g)) => conforms(w, &flatten(g)).map_err(|e| format!("{ctx}: {e}")),
        (None, Some(_)) => Err(format!("{ctx}: ran, but the reference says inapplicable")),
        (Some(_), None) => Err(format!("{ctx}: produced no report")),
    }
}

/// The reference for a set of executed cells.
pub fn reference_of(cells: &[PlanCell], results: &[CellResult]) -> Result<Vec<CellRef>, String> {
    cells
        .iter()
        .zip(results)
        .map(|(c, r)| {
            if let Some(failure) = &r.failure {
                return Err(format!("reference cell failed: {failure}"));
            }
            Ok(CellRef {
                scenario: c.spec.name.clone(),
                policy: c.policy.clone(),
                fields: r.report.as_ref().map(flatten),
            })
        })
        .collect()
}

/// Serialises a reference (see the module docs for the format).
pub fn encode(refs: &[CellRef]) -> String {
    let mut out = String::new();
    for r in refs {
        out.push_str(&r.scenario);
        out.push('\t');
        out.push_str(&r.policy);
        match &r.fields {
            None => out.push_str("\tna"),
            Some(fields) => {
                for (label, v) in fields {
                    let v = match v {
                        Value::Int(i) => format!("i:{i}"),
                        Value::Real(x) => format!("f:{x:?}"),
                        Value::Text(s) => format!("s:{s}"),
                    };
                    out.push_str(&format!("\t{label}={v}"));
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses [`encode`]'s output.
pub fn decode(text: &str) -> Result<Vec<CellRef>, String> {
    let mut refs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let bad = |what: &str| format!("reference line {}: {what}", n + 1);
        let mut cols = line.split('\t');
        let scenario = cols.next().ok_or_else(|| bad("no scenario"))?.to_string();
        let policy = cols.next().ok_or_else(|| bad("no policy"))?.to_string();
        let rest: Vec<&str> = cols.collect();
        let fields = if rest == ["na"] {
            None
        } else {
            let mut fields = Fields::new();
            for col in rest {
                let (label, v) = col
                    .split_once('=')
                    .ok_or_else(|| bad("field without '='"))?;
                let v = match v.split_once(':') {
                    Some(("i", x)) => Value::Int(x.parse().map_err(|_| bad("bad integer"))?),
                    Some(("f", x)) => Value::Real(x.parse().map_err(|_| bad("bad real"))?),
                    Some(("s", x)) => Value::Text(x.to_string()),
                    _ => return Err(bad("unknown value kind")),
                };
                fields.push((label.to_string(), v));
            }
            Some(fields)
        };
        refs.push(CellRef {
            scenario,
            policy,
            fields,
        });
    }
    Ok(refs)
}

/// Checks that `refs` describes exactly `cells`, in order.
pub fn matches_plan(refs: &[CellRef], cells: &[PlanCell]) -> Result<(), String> {
    if refs.len() != cells.len() {
        return Err(format!(
            "reference has {} cells, plan has {}",
            refs.len(),
            cells.len()
        ));
    }
    for (r, c) in refs.iter().zip(cells) {
        if r.scenario != c.spec.name || r.policy != c.policy {
            return Err(format!(
                "reference cell {} x {} where the plan has {} x {}",
                r.scenario, r.policy, c.spec.name, c.policy
            ));
        }
    }
    Ok(())
}

/// Self-tests of the check itself, run before every measurement:
///
/// * a real report with every f64 scaled by `1 + 1e-5` must fail the
///   oracle, and one scaled by `1 + 1e-7` must pass it;
/// * a cell carrying `fault=panic@30ms` must come back from
///   [`execute`] as a contained failure that [`check_cell`] counts,
///   not as a crash of the benchmark.
pub fn self_test() -> Result<(), String> {
    let text = |fault: &str| {
        format!(
            "scenario = oracle-self-test\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             warmup_ms = 100\n\
             measure_ms = 250\n\
             vm web workload=io/heterogeneous/150 seed=42{fault}\n\
             vm walk-%i count=2 workload=walk/llcf|walk/llco\n"
        )
    };
    let healthy = ScenarioSpec::parse(&text("")).map_err(|e| e.to_string())?;
    let faulty = ScenarioSpec::parse(&text(" fault=panic@30ms")).map_err(|e| e.to_string())?;
    let cells = [
        PlanCell::new(healthy, "xen-credit"),
        PlanCell::new(faulty, "xen-credit"),
    ];
    // The injected panic is expected: keep its message off stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = execute(&cells, &ExecOpts::serial());
    std::panic::set_hook(hook);
    let results = results?;

    let report = results[0]
        .report
        .as_ref()
        .ok_or("self-test: the healthy cell produced no report")?;
    let base = flatten(report);
    let scaled = |eps: f64| -> Fields {
        base.iter()
            .map(|(l, v)| match v {
                Value::Real(x) => (l.clone(), Value::Real(x * (1.0 + eps))),
                v => (l.clone(), v.clone()),
            })
            .collect()
    };
    if !base
        .iter()
        .any(|(_, v)| matches!(v, Value::Real(x) if *x != 0.0))
    {
        return Err("self-test: the healthy report has no non-zero f64 value".into());
    }
    if conforms(&base, &scaled(1e-5)).is_ok() {
        return Err("self-test: a 1e-5 relative perturbation passed the oracle".into());
    }
    conforms(&base, &scaled(1e-7))
        .map_err(|e| format!("self-test: a 1e-7 relative perturbation failed: {e}"))?;

    let want = CellRef {
        scenario: cells[1].spec.name.clone(),
        policy: cells[1].policy.clone(),
        fields: Some(base),
    };
    if results[1].failure.is_none() || check_cell(&want, &results[1]).is_ok() {
        return Err("self-test: the panicking cell was not counted as failed".into());
    }
    Ok(())
}
