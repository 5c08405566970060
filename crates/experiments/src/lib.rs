//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! Each module corresponds to one artifact of the paper; the
//! `repro` binary exposes them as subcommands and writes CSV series
//! under `results/` next to a human-readable table on stdout:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2 — quantum-length calibration, panels (a)–(f) plus the lock-duration inset |
//! | [`fig4`] | Fig. 4 — vTRS cursor traces for five representative applications |
//! | [`fig5`] | Fig. 5 — validation sweep over the full benchmark catalog |
//! | [`fig6`] | Fig. 6 — AQL_Sched effectiveness: scenarios S1–S5 (left) and the 4-socket case (right) |
//! | [`fig7`] | Fig. 7 — benefit of quantum-length customization |
//! | [`fig8`] | Fig. 8 — comparison with vTurbo, vSlicer and Microsliced |
//! | [`tables`] | Tables 3 (recognition), 5 (clustering per scenario) and 6 (feature matrix) |
//!
//! Beyond the paper, [`ablations`] isolates the design choices
//! DESIGN.md calls out (lock fabric, PLE yield, vTRS window, BOOST,
//! engine sub-step) and measures §4.3 scalability, and [`sweep`] fans
//! an open-ended scenario × policy × seed matrix (from
//! `aql_scenarios`' declarative catalog) across OS threads — the
//! `sweep` binary is its CLI.
//!
//! Every artifact runs on one shared substrate, the experiment-plan
//! layer ([`plan`]): a figure is a matrix of [`plan::PlanCell`]s —
//! declarative scenario × policy-token × seed, with optional
//! in-worker probes for policy-internal state — executed by
//! [`plan::execute`]'s atomic-job-cursor thread pool and folded into
//! [`Table`]s ([`emit`]) through shared, named normalisation
//! reducers. Figure output is byte-identical across thread counts and
//! time-advance modes; `tests/figure_goldens.rs` pins every table
//! against committed goldens. Both binaries share one execution-flag
//! parser ([`ExecOpts::parse_flag`]) and one JSON codec ([`json`]),
//! which writes the resume [`journal`].

#![warn(missing_docs)]

pub mod ablations;
pub mod emit;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod journal;
pub mod json;
pub mod plan;
pub mod sweep;
pub mod tables;

pub use emit::Table;
pub use plan::{
    execute, CellFailure, CellResult, ExecOpts, FailureKind, PlanCell, Probe, ProbeOut,
};
pub use sweep::{run_sweep, run_sweep_on, SweepConfig, SweepOutcome};
