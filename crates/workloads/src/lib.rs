//! Synthetic guest workloads.
//!
//! One workload model per application class the paper identifies
//! (§3.2), each reproducing the mechanism that makes its class
//! quantum-sensitive (or agnostic):
//!
//! * [`memwalk`] — CPU-burn workloads parameterised by working-set
//!   size: `LLCF` (fits LLC), `LoLCF` (fits L2), `LLCO` (overflows),
//!   standing in for the linked-list walker of \[27\] and the SPEC
//!   CPU2006 programs; a phased walker changes class over time,
//!   exercising the dynamic part of vTRS.
//! * [`ioserver`] — an open-loop request server (SPECweb2009 /
//!   SPECmail2009 / Wordpress): Poisson arrivals, per-request service
//!   bursts, optional CGI-style heavy bursts that defeat Xen's BOOST.
//! * [`spinjob`] — a multi-threaded job synchronising over a ticket
//!   spin-lock (kernbench / PARSEC), exhibiting lock-holder and
//!   lock-waiter preemption.
//! * [`idle`] — a permanently blocked VM, for padding scenarios.
//! * [`catalog`] — named SPEC CPU2006 / PARSEC / SPECweb / SPECmail
//!   models with the ground-truth types of the paper's Table 3.
//! * [`spec`] — declarative [`WorkloadSpec`] tokens
//!   (`io/heterogeneous/120`, `walk/llcf`, `app/mcf`, …): the
//!   vocabulary scenario files use to name any of the above.
//! * [`fault`] — [`FaultyWorkload`], a wrapper injecting one
//!   deterministic failure mode (`panic@<t>`, `hang`, `nan-rate`,
//!   `horizon-lie`, `coalesce-break`) to prove the harness's
//!   degradation paths end to end.

#![warn(missing_docs)]

pub mod catalog;
pub mod fault;
pub mod idle;
pub mod ioserver;
pub mod memwalk;
pub mod spec;
pub mod spinjob;

pub use catalog::{all_apps, build_app_vm, find_app, AppEntry};
pub use fault::{FaultSpec, FaultyWorkload};
pub use idle::IdleWorkload;
pub use ioserver::{IoServer, IoServerCfg};
pub use memwalk::{MemWalk, Phase};
pub use spec::{IoRegime, WorkloadSpec};
pub use spinjob::{SpinJob, SpinJobCfg};
