//! The parallel sweep runner.
//!
//! Fans a scenario × policy × seed matrix across OS threads and
//! aggregates every [`RunReport`] into one comparison table. This is
//! the open-ended counterpart to the fixed figure modules: any
//! catalog entry (or hand-written [`ScenarioSpec`]) joins the matrix
//! without new code.
//!
//! # Determinism
//!
//! The emitted table is **byte-identical** across repeated runs and
//! across thread counts:
//!
//! * every job's base seed is [`derive_seed`]`(scenario_name,
//!   seed_index)` — a pure function of the matrix, never of time,
//!   thread id or host;
//! * workers claim jobs from an atomic cursor but store each result
//!   at the job's *matrix index*; aggregation then reads the results
//!   in matrix order, so floating-point reduction order is fixed;
//! * the table contains no wall-clock, host or thread-count
//!   information.
//!
//! # Fault containment
//!
//! Each cell is its own failure domain (see [`crate::plan`]): a
//! panicking, livelocked or invariant-breaking cell becomes a
//! [`CellFailure`] rendered as an explicit `FAIL` in the table, and
//! every surviving row is byte-identical to a sweep that never
//! contained the broken cell. [`ExecOpts::journal`] and
//! [`ExecOpts::resume`] (through [`SweepConfig::exec`]) make an
//! interrupted sweep restartable without re-running finished cells.
//!
//! The `sweep` binary (`cargo run --release -p aql_experiments --bin
//! sweep`) is the CLI over this module.

use aql_hv::apptype::VcpuType;
use aql_hv::RunReport;
use aql_scenarios::{catalog, classes, parse_policy, ScenarioSpec};
use aql_sim::rng::derive_seed;

use crate::emit::{fmt_ratio, Table};
use crate::plan::{class_mean_norm, execute, seed_mean, CellFailure, ExecOpts, PlanCell};

/// What to sweep and how to run it.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Policy names (see [`aql_scenarios::POLICY_NAMES`]). The first
    /// occurrence of `xen-credit` is the normalisation baseline.
    pub policies: Vec<String>,
    /// Replicates per scenario; replicate `k` runs at base seed
    /// `derive_seed(scenario_name, k)`.
    pub seeds: usize,
    /// Shorten warm-up/measurement (smoke tests, CI).
    pub quick: bool,
    /// How the matrix cells execute: threads, time mode, coalescing,
    /// budgets, journal and failure handling (see [`ExecOpts`]).
    pub exec: ExecOpts,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            policies: aql_scenarios::POLICY_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            seeds: 1,
            quick: false,
            exec: ExecOpts::default(),
        }
    }
}

/// One cell of the matrix: a scenario replicate under one policy.
#[derive(Debug)]
pub struct SweepJob {
    /// Index of the scenario in the swept spec list.
    pub scenario_index: usize,
    /// Policy name.
    pub policy: String,
    /// Replicate index.
    pub seed_index: usize,
    /// Derived base seed for this replicate.
    pub base_seed: u64,
}

/// A completed job with its measured report.
#[derive(Debug)]
pub struct SweepResult {
    /// The matrix cell that produced this report.
    pub job: SweepJob,
    /// The steady-state report; `None` when the policy cannot run on
    /// the scenario's machine (e.g. vTurbo on a single-core host) —
    /// the table renders such cells as `-` — or when the cell failed
    /// (rendered `FAIL`; see `failure`).
    pub report: Option<RunReport>,
    /// The contained failure, when the cell ran but did not finish
    /// (panic, livelock, wall budget, invariant violation).
    pub failure: Option<CellFailure>,
    /// Wall-clock time this cell took to simulate, in nanoseconds
    /// (zero for inapplicable cells). Wall time never enters the
    /// aggregated table — it would break byte-stability — but perf
    /// tooling (`sweep --time-mode both`, `BENCH_sweep.json`) sums it
    /// per scenario to track the engine's speed.
    pub wall_ns: u64,
}

/// The full outcome: per-job reports (matrix order) plus the
/// aggregated comparison table.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Every job's result, in matrix order (scenario-major, then
    /// seed, then policy).
    pub results: Vec<SweepResult>,
    /// The aggregated comparison table.
    pub table: Table,
}

impl SweepOutcome {
    /// Total simulation wall time across all cells, in nanoseconds.
    /// (Not elapsed time: cells running on parallel workers overlap.)
    pub fn total_wall_ns(&self) -> u64 {
        self.results.iter().map(|r| r.wall_ns).sum()
    }

    /// Per-scenario simulation wall time in matrix (scenario) order:
    /// element `i` is scenario `i`'s wall-time sum over its seeds and
    /// policies.
    pub fn wall_ns_by_scenario(&self) -> Vec<u64> {
        let n = self
            .results
            .iter()
            .map(|r| r.job.scenario_index + 1)
            .max()
            .unwrap_or(0);
        let mut acc = vec![0u64; n];
        for r in &self.results {
            acc[r.job.scenario_index] += r.wall_ns;
        }
        acc
    }

    /// Every contained cell failure, in matrix order.
    pub fn failures(&self) -> Vec<&CellFailure> {
        self.results
            .iter()
            .filter_map(|r| r.failure.as_ref())
            .collect()
    }
}

/// Expands the matrix for a spec list: scenario-major, then seed,
/// then policy — the fixed order aggregation relies on.
pub fn plan(specs: &[ScenarioSpec], cfg: &SweepConfig) -> Vec<SweepJob> {
    let mut jobs = Vec::with_capacity(specs.len() * cfg.seeds * cfg.policies.len());
    for (scenario_index, spec) in specs.iter().enumerate() {
        for seed_index in 0..cfg.seeds {
            let base_seed = derive_seed(&spec.name, seed_index as u64);
            for policy in &cfg.policies {
                jobs.push(SweepJob {
                    scenario_index,
                    policy: policy.clone(),
                    seed_index,
                    base_seed,
                });
            }
        }
    }
    jobs
}

/// Runs the matrix over the given specs — by expanding it into
/// [`PlanCell`]s and fanning them through the shared plan executor
/// ([`crate::plan::execute`]). Fails fast (before spawning any
/// thread) on an unknown policy token.
pub fn run_sweep_on(specs: &[ScenarioSpec], cfg: &SweepConfig) -> Result<SweepOutcome, String> {
    let specs: Vec<ScenarioSpec> = specs
        .iter()
        .cloned()
        .map(|s| if cfg.quick { s.quick() } else { s })
        .collect();
    for p in &cfg.policies {
        parse_policy(p)?;
    }
    if specs.is_empty() || cfg.seeds == 0 || cfg.policies.is_empty() {
        return Err("empty sweep matrix".to_string());
    }
    let jobs = plan(&specs, cfg);
    let cells: Vec<PlanCell> = jobs
        .iter()
        .map(|job| {
            PlanCell::new(specs[job.scenario_index].clone(), &job.policy).with_seed(job.base_seed)
        })
        .collect();
    let results: Vec<SweepResult> = jobs
        .into_iter()
        .zip(execute(&cells, &cfg.exec)?)
        .map(|(job, cell)| SweepResult {
            job,
            report: cell.report,
            failure: cell.failure,
            wall_ns: cell.wall_ns,
        })
        .collect();
    let table = aggregate(&specs, cfg, &results);
    Ok(SweepOutcome { results, table })
}

/// Resolves catalog names and runs the matrix over them.
pub fn run_sweep(names: &[String], cfg: &SweepConfig) -> Result<SweepOutcome, String> {
    let mut specs = Vec::with_capacity(names.len());
    for name in names {
        let spec = catalog::load(name).ok_or_else(|| {
            format!(
                "unknown scenario '{name}' (known: {})",
                catalog::names().join(", ")
            )
        })?;
        specs.push(spec);
    }
    run_sweep_on(&specs, cfg)
}

/// Builds the aggregated comparison table: one row per scenario ×
/// policy, normalised over that scenario's `xen-credit` replicate of
/// the same seed (the paper's normalisation), averaged across seeds.
fn aggregate(specs: &[ScenarioSpec], cfg: &SweepConfig, results: &[SweepResult]) -> Table {
    let n_pol = cfg.policies.len();
    let baseline_col = cfg.policies.iter().position(|p| p == "xen-credit");
    let mut table = Table::new(
        &format!(
            "Sweep {} scenarios x {} policies ({} seed{})",
            specs.len(),
            n_pol,
            cfg.seeds,
            if cfg.seeds == 1 { "" } else { "s" }
        ),
        &[
            "scenario", "policy", "norm", "IOInt", "ConSpin", "LLCF", "LoLCF", "LLCO", "util",
            "jain",
        ],
    );
    // results is matrix-ordered: scenario-major, then seed, then
    // policy; index arithmetic recovers any cell.
    let cell = |s: usize, k: usize, p: usize| &results[(s * cfg.seeds + k) * n_pol + p];
    for (s, spec) in specs.iter().enumerate() {
        let vm_classes = classes(spec);
        for (p, policy) in cfg.policies.iter().enumerate() {
            let per_seed = |class: Option<VcpuType>| -> Option<f64> {
                let baseline_col = baseline_col?;
                let vals: Vec<Option<f64>> = (0..cfg.seeds)
                    .map(|k| {
                        class_mean_norm(
                            cell(s, k, p).report.as_ref()?,
                            cell(s, k, baseline_col).report.as_ref()?,
                            &vm_classes,
                            class,
                        )
                    })
                    .collect();
                seed_mean(&vals)
            };
            // A failed replicate is rendered explicitly, not folded
            // into a silent `-`: a partial table must say which cells
            // are missing because something *broke*.
            let any_failed = (0..cfg.seeds).any(|k| cell(s, k, p).failure.is_some());
            let norm = if any_failed {
                "FAIL".to_string()
            } else {
                fmt_ratio(per_seed(None))
            };
            let mut row = vec![spec.name.clone(), policy.clone(), norm];
            for class in VcpuType::ALL {
                // Only normalise classes the scenario populates.
                let present = vm_classes.contains(&class);
                row.push(if present {
                    fmt_ratio(per_seed(Some(class)))
                } else {
                    "-".to_string()
                });
            }
            let stat = |f: &dyn Fn(&RunReport) -> f64| -> Option<f64> {
                seed_mean(
                    &(0..cfg.seeds)
                        .map(|k| cell(s, k, p).report.as_ref().map(f))
                        .collect::<Vec<_>>(),
                )
            };
            let fmt3 = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{x:.3}"));
            row.push(fmt3(stat(&RunReport::utilisation)));
            row.push(fmt3(stat(&RunReport::jain_fairness)));
            table.row(row);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> ScenarioSpec {
        ScenarioSpec::parse(&format!(
            "scenario = {name}\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             warmup_ms = 100\n\
             measure_ms = 250\n\
             vm web workload=io/heterogeneous/150\n\
             vm walk-%i count=3 workload=walk/llcf|walk/llco|walk/lolcf\n"
        ))
        .unwrap()
    }

    fn tiny_cfg(threads: usize) -> SweepConfig {
        SweepConfig {
            policies: vec!["xen-credit".into(), "aql-sched".into()],
            seeds: 2,
            exec: ExecOpts {
                threads,
                ..ExecOpts::default()
            },
            ..SweepConfig::default()
        }
    }

    #[test]
    fn matrix_order_is_scenario_seed_policy() {
        let specs = [tiny("a"), tiny("b")];
        let jobs = plan(&specs, &tiny_cfg(1));
        assert_eq!(jobs.len(), 2 * 2 * 2);
        assert_eq!(jobs[0].scenario_index, 0);
        assert_eq!(jobs[0].policy, "xen-credit");
        assert_eq!(jobs[1].policy, "aql-sched");
        assert_eq!(jobs[2].seed_index, 1);
        assert_eq!(jobs[4].scenario_index, 1);
        // Seeds derive from the scenario name alone.
        assert_eq!(jobs[0].base_seed, derive_seed("a", 0));
        assert_eq!(jobs[4].base_seed, derive_seed("b", 0));
        assert_ne!(jobs[0].base_seed, jobs[2].base_seed);
    }

    #[test]
    fn sweep_is_byte_identical_across_thread_counts() {
        let specs = [tiny("det-a"), tiny("det-b")];
        let serial = run_sweep_on(&specs, &tiny_cfg(1)).unwrap();
        let parallel = run_sweep_on(&specs, &tiny_cfg(4)).unwrap();
        let auto = run_sweep_on(&specs, &tiny_cfg(0)).unwrap();
        assert_eq!(serial.table.render(), parallel.table.render());
        assert_eq!(serial.table.render(), auto.table.render());
        // And across repeated runs at the same thread count.
        let again = run_sweep_on(&specs, &tiny_cfg(4)).unwrap();
        assert_eq!(parallel.table.render(), again.table.render());
    }

    #[test]
    fn baseline_normalisation_is_exactly_one() {
        let specs = [tiny("norm")];
        let out = run_sweep_on(&specs, &tiny_cfg(2)).unwrap();
        let xen_row = &out.table.rows[0];
        assert_eq!(xen_row[1], "xen-credit");
        assert_eq!(xen_row[2], "1.00", "self-normalisation");
        // Classes absent from the scenario stay unpopulated.
        assert_eq!(xen_row[4], "-", "no ConSpin VM in the tiny scenario");
    }

    #[test]
    fn unknown_names_fail_fast() {
        assert!(run_sweep(&["doom".to_string()], &SweepConfig::default()).is_err());
        let bad = SweepConfig {
            policies: vec!["cfs".into()],
            ..SweepConfig::default()
        };
        assert!(run_sweep_on(&[tiny("x")], &bad).is_err());
        let empty = SweepConfig {
            seeds: 0,
            ..SweepConfig::default()
        };
        assert!(run_sweep_on(&[tiny("x")], &empty).is_err());
    }

    #[test]
    fn failed_cells_render_fail_and_spare_siblings() {
        let faulty = ScenarioSpec::parse(
            "scenario = boom\n\
             machine = sockets=1 cores=2 cache=i7-3770\n\
             warmup_ms = 100\n\
             measure_ms = 250\n\
             vm web workload=io/heterogeneous/150 fault=panic@30ms\n\
             vm walk workload=walk/llcf\n",
        )
        .unwrap();
        let specs = [tiny("ok"), faulty];
        let out = run_sweep_on(&specs, &tiny_cfg(2)).unwrap();
        assert!(!out.failures().is_empty());
        assert!(
            out.table.render().contains("FAIL"),
            "{}",
            out.table.render()
        );
        // Rows of the healthy scenario are byte-identical to a sweep
        // that never contained the broken one.
        let clean = run_sweep_on(&[tiny("ok")], &tiny_cfg(1)).unwrap();
        let ok_rows: Vec<_> = out.table.rows.iter().filter(|r| r[0] == "ok").collect();
        assert_eq!(ok_rows.len(), clean.table.rows.len());
        for (a, b) in ok_rows.iter().zip(&clean.table.rows) {
            assert_eq!(**a, *b);
        }
    }

    #[test]
    fn quick_mode_shortens_runs() {
        let specs = [tiny("q")];
        let cfg = SweepConfig {
            policies: vec!["xen-credit".into()],
            seeds: 1,
            quick: true,
            exec: ExecOpts::serial(),
        };
        let out = run_sweep_on(&specs, &cfg).unwrap();
        // quick() pins the window to 300 ms warm-up + 1 s measured;
        // the report must reflect the overridden window.
        let report = out.results[0].report.as_ref().unwrap();
        assert_eq!(report.sim_ns, 1000 * aql_sim::time::MS);
    }
}
