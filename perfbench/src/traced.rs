//! The traced run: per-layer spans and counts, measured from outside
//! through the public calls each layer exposes.
//!
//! For a sweep workload the same cells run four times:
//!
//! 1. `horizon.dense_s` — every cell under `TimeMode::Dense` (the
//!    conformance oracle; at a seed without a committed reference its
//!    reports become the reference);
//! 2. `horizon.flat_s` — adaptive with coalescing off, which must equal
//!    the dense reports exactly;
//! 3. the untraced plan through one `plan::execute` call (`plan.*`);
//! 4. the traced plan: the calls `plan::execute` makes for each cell
//!    (`parse_policy`, `PolicySpec::build`, `build_sim_seeded_tuned`,
//!    `Simulation::run_for` per phase, `Simulation::report`), each
//!    wrapped in a span, with `TraceLog::enabled(0)` counting every
//!    dispatch emit. Its reports must equal the untraced run's.
//!
//! Every pass runs serially. The `mem` and `core` kernels are timed
//! the same way on every workload.

use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use aql_core::{cluster_machine, QuantumTable, VcpuDesc, Vtrs, VtrsConfig};
use aql_experiments::{execute, ExecOpts, PlanCell, Table};
use aql_hv::apptype::VcpuType;
use aql_hv::workload::WorkloadMetrics;
use aql_hv::{MachineSpec, RunReport, SocketId, TimeMode, VcpuId, VmId};
use aql_mem::{
    exec_step, exec_step_cached, exec_step_lean, CacheSpec, LlcState, MemProfile, PmuSample,
    RateCache,
};
use aql_scenarios::{build_sim_seeded_tuned, parse_policy, POLICY_NAMES};
use aql_sim::trace::TraceLog;

use crate::oracle::{self, CellRef};
use crate::workload::{self, Sweep, ARTIFACTS};
use crate::{median, Tally};

/// Per-layer metric values by name; names absent here report 0 (the
/// layer is not reachable from outside on that workload).
pub type Layers = HashMap<String, f64>;

/// Every per-layer metric with its unit, in report order.
pub fn catalog() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 33] = [
        ("scenarios.build_ms", "ms"),
        ("engine.warmup_s", "s"),
        ("engine.measure_s", "s"),
        ("engine.host_us_per_sim_ms", "us/ms"),
        ("engine.report_ms", "ms"),
        ("dispatch.count", "count"),
        ("dispatch.per_sim_ms", "1/ms"),
        ("horizon.flat_s", "s"),
        ("horizon.dense_s", "s"),
        ("horizon.coalesce_gain", "x"),
        ("horizon.adaptive_gain", "x"),
        ("horizon.coalesce_breaks", "count"),
        ("mem.rate_cache.hits", "count"),
        ("mem.rate_cache.recomputes", "count"),
        ("mem.rate_cache.hit_ratio", "ratio"),
        ("mem.exec_step_lean.ns.llcf", "ns"),
        ("mem.exec_step_lean.ns.lolcf", "ns"),
        ("mem.exec_step_lean.ns.llco", "ns"),
        ("mem.exec_step_lean.ns.contended", "ns"),
        ("mem.exec_step_cached.ns.llcf", "ns"),
        ("mem.exec_step_cached.ns.lolcf", "ns"),
        ("mem.exec_step_cached.ns.llco", "ns"),
        ("workloads.io.completed", "count"),
        ("workloads.io.offered", "count"),
        ("workloads.spin.work_items", "count"),
        ("core.vtrs_observe_us", "us"),
        ("core.cluster_machine_us", "us"),
        ("plan.cell_sum_s", "s"),
        ("plan.makespan_s", "s"),
        ("plan.occupancy", "ratio"),
        ("plan.longest_cell_s", "s"),
        ("emit.render_ms", "ms"),
        ("trace.overhead", "s"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for p in POLICY_NAMES {
        out.push((format!("policy.{p}.cell_s"), "s"));
    }
    for w in workload::NAMES {
        if let Ok(workload::Workload::Sweep(s)) = workload::by_name(w) {
            for name in s.scenarios {
                out.push((format!("scenario.{name}.cell_s"), "s"));
            }
        }
    }
    for a in &ARTIFACTS {
        out.push((format!("artifact.{}.s", a.name), "s"));
    }
    out
}

/// Spans and counts of one cell.
#[derive(Default)]
struct CellTrace {
    build_ns: u64,
    warmup_ns: u64,
    measure_ns: u64,
    report_ns: u64,
    dispatches: u64,
    hits: u64,
    recomputes: u64,
    breaks: u64,
    report: Option<RunReport>,
}

impl CellTrace {
    fn engine_ns(&self) -> u64 {
        self.warmup_ns + self.measure_ns
    }

    fn cell_ns(&self) -> u64 {
        self.build_ns + self.warmup_ns + self.measure_ns + self.report_ns
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs one cell through the public calls `plan::execute` makes.
fn run_cell(cell: &PlanCell, mode: TimeMode, coalesce: bool) -> Result<CellTrace, String> {
    let mut tr = CellTrace::default();
    let t = Instant::now();
    let policy = parse_policy(&cell.policy)?;
    if !policy.applicable(&cell.spec) {
        return Ok(tr);
    }
    let mut sim = build_sim_seeded_tuned(
        &cell.spec,
        policy.build(&cell.spec),
        cell.base_seed,
        mode,
        coalesce,
    );
    // A zero-capacity log formats nothing and counts every emit.
    sim.trace = TraceLog::enabled(0);
    tr.build_ns = ns_since(t);
    let t = Instant::now();
    sim.run_for(cell.spec.warmup_ns);
    tr.warmup_ns = ns_since(t);
    sim.reset_measurements();
    let t = Instant::now();
    sim.run_for(cell.spec.measure_ns);
    tr.measure_ns = ns_since(t);
    let t = Instant::now();
    let report = sim.report();
    tr.report_ns = ns_since(t);
    tr.dispatches = sim.trace.dropped();
    (tr.hits, tr.recomputes) = sim.rate_cache_stats();
    tr.breaks = sim.coalesce_break_count();
    tr.report = Some(report);
    Ok(tr)
}

/// Runs every cell in one mode; a panicking cell becomes an `Err`.
fn pass(cells: &[PlanCell], mode: TimeMode, coalesce: bool) -> Vec<Result<CellTrace, String>> {
    cells
        .iter()
        .map(|c| {
            catch_unwind(AssertUnwindSafe(|| run_cell(c, mode, coalesce)))
                .unwrap_or_else(|_| Err(format!("{} x {} panicked", c.spec.name, c.policy)))
        })
        .collect()
}

/// The cells of a pass that finished.
fn ok(p: &[Result<CellTrace, String>]) -> Vec<&CellTrace> {
    p.iter().filter_map(|r| r.as_ref().ok()).collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The traced run of a sweep workload. `committed` is the seed's
/// committed reference, if any; otherwise the dense pass provides it.
pub fn sweep(
    w: &Sweep,
    seed: u64,
    committed: Option<Vec<CellRef>>,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let cells = w.cells(seed)?;
    let dense = pass(&cells, TimeMode::Dense, false);
    let flat = pass(&cells, TimeMode::Adaptive, false);
    let reference = match committed {
        Some(r) => r,
        None => cells
            .iter()
            .zip(&dense)
            .map(|(c, d)| {
                let d = d.as_ref().map_err(|e| format!("dense reference: {e}"))?;
                Ok(CellRef {
                    scenario: c.spec.name.clone(),
                    policy: c.policy.clone(),
                    fields: d.report.as_ref().map(oracle::flatten),
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    oracle::matches_plan(&reference, &cells)?;

    // Dense must meet the reference; flat must equal dense exactly.
    for ((want, d), f) in reference.iter().zip(&dense).zip(&flat) {
        tally.check(
            d.as_ref()
                .map_err(Clone::clone)
                .and_then(|d| oracle::check_report(want, d.report.as_ref())),
        );
        tally.check(match (d, f) {
            (Ok(d), Ok(f)) if d.report == f.report => Ok(()),
            (_, Err(e)) => Err(e.clone()),
            _ => Err(format!(
                "{} x {}: flat adaptive differs from dense",
                want.scenario, want.policy
            )),
        });
    }

    let t = Instant::now();
    let results = execute(&cells, &ExecOpts::serial())?;
    let untraced_ns = ns_since(t);
    for (want, got) in reference.iter().zip(&results) {
        tally.check(oracle::check_cell(want, got));
    }

    let t = Instant::now();
    let traced = pass(&cells, TimeMode::Adaptive, true);
    let traced_ns = ns_since(t);
    for ((c, got), untraced) in cells.iter().zip(&traced).zip(&results) {
        tally.check(match got {
            Ok(got) if got.report == untraced.report => Ok(()),
            Ok(_) => Err(format!(
                "{} x {}: traced report differs from the untraced run",
                c.spec.name, c.policy
            )),
            Err(e) => Err(e.clone()),
        });
    }

    let (traced, flat, dense) = (ok(&traced), ok(&flat), ok(&dense));
    let sum = |p: &[&CellTrace], f: fn(&CellTrace) -> u64| -> u64 { p.iter().map(|c| f(c)).sum() };
    let sim_ms: f64 = cells
        .iter()
        .zip(&reference)
        .filter(|(_, r)| r.fields.is_some())
        .map(|(c, _)| (c.spec.warmup_ns + c.spec.measure_ns) as f64 / 1e6)
        .sum();
    let engine_s = secs(sum(&traced, CellTrace::engine_ns));
    let flat_s = secs(sum(&flat, CellTrace::engine_ns));
    let dense_s = secs(sum(&dense, CellTrace::engine_ns));
    let hits = sum(&traced, |c| c.hits);
    let recomputes = sum(&traced, |c| c.recomputes);
    let dispatches = sum(&traced, |c| c.dispatches);
    let mut set = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    set(
        "scenarios.build_ms",
        sum(&traced, |c| c.build_ns) as f64 / 1e6,
    );
    set("engine.warmup_s", secs(sum(&traced, |c| c.warmup_ns)));
    set("engine.measure_s", secs(sum(&traced, |c| c.measure_ns)));
    set("engine.host_us_per_sim_ms", engine_s * 1e6 / sim_ms);
    set(
        "engine.report_ms",
        sum(&traced, |c| c.report_ns) as f64 / 1e6,
    );
    set("dispatch.count", dispatches as f64);
    set("dispatch.per_sim_ms", dispatches as f64 / sim_ms);
    set("horizon.flat_s", flat_s);
    set("horizon.dense_s", dense_s);
    set("horizon.coalesce_gain", flat_s / engine_s);
    set("horizon.adaptive_gain", dense_s / flat_s);
    set("horizon.coalesce_breaks", sum(&traced, |c| c.breaks) as f64);
    set("mem.rate_cache.hits", hits as f64);
    set("mem.rate_cache.recomputes", recomputes as f64);
    set(
        "mem.rate_cache.hit_ratio",
        hits as f64 / ((hits + recomputes).max(1)) as f64,
    );

    let (mut completed, mut offered, mut items) = (0u64, 0u64, 0u64);
    for r in traced.iter().filter_map(|c| c.report.as_ref()) {
        for vm in &r.vms {
            match &vm.metrics {
                WorkloadMetrics::Io {
                    completed: c,
                    offered: o,
                    ..
                } => {
                    completed += c;
                    offered += o;
                }
                WorkloadMetrics::Spin { work_items, .. } => items += work_items,
                _ => {}
            }
        }
    }
    set("workloads.io.completed", completed as f64);
    set("workloads.io.offered", offered as f64);
    set("workloads.spin.work_items", items as f64);

    let cell_sum: u64 = results.iter().map(|r| r.wall_ns).sum();
    let longest = results.iter().map(|r| r.wall_ns).max().unwrap_or(0);
    set("plan.cell_sum_s", secs(cell_sum));
    set("plan.makespan_s", secs(untraced_ns));
    set("plan.occupancy", cell_sum as f64 / untraced_ns as f64);
    set("plan.longest_cell_s", secs(longest));
    set("trace.overhead", secs(traced_ns) - secs(untraced_ns));

    for (c, tr) in cells.iter().zip(&traced) {
        for key in [
            format!("policy.{}.cell_s", c.policy),
            format!("scenario.{}.cell_s", c.spec.name),
        ] {
            *layers.entry(key).or_insert(0.0) += secs(tr.cell_ns());
        }
    }
    Ok(())
}

/// The traced run of the paper-artifacts workload: one span per
/// artifact function and one over rendering every table.
pub fn artifacts(goldens: &[String], layers: &mut Layers, tally: &mut Tally) {
    let opts = ExecOpts::serial();
    let t = Instant::now();
    let untraced: Vec<Option<String>> = ARTIFACTS.iter().map(crate::run_artifact).collect();
    let untraced_ns = ns_since(t);
    crate::check_artifacts(&untraced, goldens, tally);

    let mut tables: Vec<Option<Vec<Table>>> = Vec::new();
    let mut traced_ns = 0;
    for a in &ARTIFACTS {
        let t = Instant::now();
        tables.push(catch_unwind(|| (a.run)(&opts)).ok());
        let ns = ns_since(t);
        traced_ns += ns;
        layers.insert(format!("artifact.{}.s", a.name), secs(ns));
    }
    let t = Instant::now();
    let texts: Vec<Option<String>> = tables
        .iter()
        .map(|t| t.as_deref().map(workload::golden_text))
        .collect();
    let render_ns = ns_since(t);
    traced_ns += render_ns;
    crate::check_artifacts(&texts, goldens, tally);
    layers.insert("emit.render_ms".into(), render_ns as f64 / 1e6);
    layers.insert("trace.overhead".into(), secs(traced_ns) - secs(untraced_ns));
}

/// Median ns per call of `f` over `batches` batches of `batch` calls.
fn ns_per_call(batch: usize, batches: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0.0;
            for _ in 0..batch {
                acc += f();
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&mut samples)
}

/// The engine's sub-step: kernels are timed per 100 µs chunk.
const CHUNK_NS: u64 = 100_000;

/// A warm (fixpoint) state for `profile`, as `benches/exec_step.rs`
/// builds it: footprint filled, L2 saturated.
fn warm_state(profile: &MemProfile, spec: &CacheSpec) -> (LlcState, f64) {
    let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
    let mut warmth = 0.0;
    for _ in 0..300 {
        let _ = exec_step(profile, spec, &mut llc, 0, &mut warmth, 1_000_000);
    }
    (llc, warmth)
}

/// Times the `mem` integrator kernels per 100 µs chunk.
pub fn mem_kernels(layers: &mut Layers) {
    let spec = CacheSpec::i7_3770();
    let cases = [
        ("llcf", MemProfile::llcf(&spec)),
        ("lolcf", MemProfile::lolcf(&spec)),
        ("llco", MemProfile::llco(&spec)),
    ];
    for (name, profile) in &cases {
        let (llc0, w0) = warm_state(profile, &spec);
        let (mut llc, mut w) = (llc0.clone(), w0);
        let lean = ns_per_call(2000, 9, || {
            exec_step_lean(profile, &spec, &mut llc, 0, &mut w, CHUNK_NS).instructions
        });
        let (mut llc, mut w) = (llc0, w0);
        let mut cache = RateCache::new(1);
        let cached = ns_per_call(2000, 9, || {
            exec_step_cached(profile, &spec, &mut llc, 0, &mut w, CHUNK_NS, &mut cache).instructions
        });
        layers.insert(format!("mem.exec_step_lean.ns.{name}"), lean);
        layers.insert(format!("mem.exec_step_cached.ns.{name}"), cached);
    }

    // One victim sharing a warm LLC with three cache trashers: the
    // multi-owner state the contended scenarios integrate.
    let profiles = [
        MemProfile::llcf(&spec),
        MemProfile::llco(&spec),
        MemProfile::llco(&spec),
        MemProfile::llco(&spec),
    ];
    let mut llc = LlcState::new(spec.llc_bytes as f64, profiles.len());
    let mut warmth = [0.0; 4];
    for _ in 0..300 {
        for (o, p) in profiles.iter().enumerate() {
            let _ = exec_step(p, &spec, &mut llc, o, &mut warmth[o], 1_000_000);
        }
    }
    let mut owner = 0;
    let contended = ns_per_call(2000, 9, || {
        owner = (owner + 1) % profiles.len();
        exec_step_lean(
            &profiles[owner],
            &spec,
            &mut llc,
            owner,
            &mut warmth[owner],
            CHUNK_NS,
        )
        .instructions
    });
    layers.insert("mem.exec_step_lean.ns.contended".into(), contended);
}

/// Times vTRS observation and two-level clustering at the 48-vCPU
/// Fig. 3 shape, as `tables::overhead` does.
pub fn core_kernels(layers: &mut Layers) {
    let vcpus = 48;
    let mut vtrs = Vtrs::new(vcpus, VtrsConfig::default());
    let samples: Vec<PmuSample> = (0..vcpus)
        .map(|i| PmuSample {
            instructions: 1e7 + i as f64,
            llc_refs: 5e5,
            llc_misses: 2e5,
            io_events: (i % 3) as u64,
            ple_exits: (i % 7) as u64,
            ran_ns: 7_500_000,
            period_ns: 30_000_000,
        })
        .collect();
    let observe = ns_per_call(200, 9, || vtrs.observe(black_box(&samples)).len() as f64);

    let machine = MachineSpec::xeon_e5_4603();
    let sockets = [SocketId(1), SocketId(2), SocketId(3)];
    let table = QuantumTable::paper_defaults();
    let descs: Vec<VcpuDesc> = (0..vcpus)
        .map(|i| VcpuDesc {
            vcpu: VcpuId(i),
            vm: VmId(i),
            vtype: VcpuType::ALL[i % 5],
            trashing: i % 5 == 4,
        })
        .collect();
    let cluster = ns_per_call(200, 9, || {
        cluster_machine(&machine, &sockets, black_box(&descs), &table)
            .clusters
            .len() as f64
    });
    layers.insert("core.vtrs_observe_us".into(), observe / 1e3);
    layers.insert("core.cluster_machine_us".into(), cluster / 1e3);
}
