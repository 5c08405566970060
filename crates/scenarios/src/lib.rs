//! Declarative scenarios for the AQL_Sched evaluation.
//!
//! The paper's claims live or die on scenario diversity: per-type
//! quanta only show their worth once IO-, memory- and CPU-bound VMs
//! are consolidated in enough different mixes. This crate turns the
//! repository's hand-coded experiment setups into *data*:
//!
//! * [`spec`] — a small hand-rolled text format ([`ScenarioSpec`])
//!   describing topology, cache preset, VM placement, workload mix,
//!   seeds and durations; parse ↔ serialise round-trips exactly.
//! * [`catalog`] — named, ready-made scenario documents: the four
//!   long-standing examples re-expressed declaratively plus new
//!   mixes (oversubscribed webfarm, memory-thrash colocation, phased
//!   tenants, spin farms, the 4-socket case).
//! * [`build`] — spec → [`aql_hv::Simulation`] construction, the
//!   seed-derivation determinism contract, and the policy registry
//!   ([`build::POLICY_NAMES`]) used by sweep matrices.
//!
//! The multi-threaded sweep runner that fans a scenario × policy ×
//! seed matrix across cores lives in `aql_experiments::sweep` (it
//! needs the table machinery); this crate stays below it so examples,
//! tests and the benchmark can all load scenarios without pulling the
//! experiment harness in.

#![warn(missing_docs)]

pub mod build;
pub mod catalog;
pub mod spec;

pub use aql_hv::TimeMode;
pub use build::{
    build_sim, build_sim_seeded_tuned, classes, expand, machine, parse_policy, policy_applicable,
    policy_for, run, run_seeded_in, run_seeded_tuned, tagged_io_vms, vcpu_classes, PolicySpec,
    POLICY_NAMES,
};
pub use spec::{CachePreset, MachineDecl, ScenarioSpec, SpecError, VmDecl, VmSeed};
