//! AQL_Sched — the paper's contribution.
//!
//! An Adaptable Quantum Length scheduler (EuroSys 2016): instead of
//! Xen Credit's fixed 30 ms quantum, each application type gets the
//! quantum it performs best with. Four pieces compose the system:
//!
//! * [`cursors`] — equations (1)–(5) of §3.3.1: per-monitoring-period
//!   metrics are normalised into five percentage *cursors*, one per
//!   application type.
//! * [`vtrs`] — the online vCPU Type Recognition System: a sliding
//!   window of `n = 4` cursor rows per vCPU; the type is the cursor
//!   with the highest window average.
//! * [`calibration`] — the result of the offline quantum-length
//!   calibration (§3.4): AQL runs the published best-quantum table
//!   (`IOInt` → 1 ms, `ConSpin` → 1 ms, `LLCF` → 90 ms, `LoLCF`/`LLCO`
//!   agnostic); `repro fig2*` re-runs the sweep behind it.
//! * [`clustering`] — the two-level clustering of §3.5: Algorithm 1
//!   spreads trashing and non-trashing vCPUs across sockets,
//!   Algorithm 2 groups quantum-length-compatible vCPUs into per-pCPU
//!   pools and configures each pool's quantum.
//! * [`aql`] — the [`aql::AqlSched`] scheduling policy tying it all to
//!   the hypervisor's CPU pools.

#![warn(missing_docs)]

pub mod aql;
pub mod calibration;
pub mod clustering;
pub mod cursors;
pub mod vtrs;

pub use aql::{AqlSched, AqlSchedConfig};
pub use calibration::QuantumTable;
pub use clustering::{cluster_machine, ClusterInfo, ClusterPlan, VcpuDesc};
pub use cursors::{CursorLimits, Cursors};
pub use vtrs::{Vtrs, VtrsConfig};
