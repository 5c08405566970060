//! Cache-hierarchy and PMU model for the AQL_Sched reproduction.
//!
//! The paper's mechanisms are cache-driven: LLC-friendly applications
//! (`LLCF`) suffer when short quanta force them to refill the shared
//! last-level cache after every context switch; trashing applications
//! (`LLCO`) erode co-runners' footprints; low-level-cache applications
//! (`LoLCF`) only care about their private L2 and are quantum-agnostic.
//!
//! This crate models exactly that and nothing more:
//!
//! * [`spec::CacheSpec`] — cache sizes and access latencies, with the
//!   paper's two machines as presets (Table 2; §4.2).
//! * [`profile::MemProfile`] — a workload phase's memory behaviour:
//!   working-set size and deep-reference rate.
//! * [`llc::LlcState`] — the shared per-socket LLC: per-owner resident
//!   footprints with proportional eviction under pressure.
//! * [`exec`] — the execution-speed law: given a profile, the current
//!   LLC/L2 state and a time budget, how many instructions retire and
//!   how many LLC references/misses the PMU counts.
//! * [`pmu::PmuCounters`] — the per-vCPU counters vTRS samples every
//!   monitoring period.

#![warn(missing_docs)]

pub mod exec;
pub mod llc;
pub mod pmu;
pub mod profile;
pub mod rate;
pub mod spec;

pub use exec::{exec_step, exec_step_cached, exec_step_lean, ExecOutcome};
pub use llc::LlcState;
pub use pmu::{PmuCounters, PmuSample};
pub use profile::MemProfile;
pub use rate::{steady_rate, RateCache, SteadyRate};
pub use spec::CacheSpec;
