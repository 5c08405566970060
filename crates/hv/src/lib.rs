//! A simulated virtualized multi-core platform.
//!
//! This crate is the substrate the AQL_Sched reproduction runs on: a
//! deterministic discrete-event model of a multi-socket machine managed
//! by a Xen-style hypervisor. It provides:
//!
//! * [`topology`] — machine shapes ([`MachineSpec`]), including the
//!   paper's two hosts (Table 2 and §4.2).
//! * [`vm`] — VMs and vCPUs with Credit-scheduler state (credits,
//!   `UNDER`/`OVER`/`BOOST` priorities).
//! * [`pool`] — CPU pools: disjoint pCPU sets, each with its own
//!   quantum length. Pools are the mechanism AQL_Sched's clustering
//!   configures (§3.5).
//! * [`sched`] — the Credit scheduler: per-pCPU run queues, 10 ms tick
//!   accounting, 30 ms credit refill, BOOST on IO wake, work stealing
//!   within a pool.
//! * [`workload`] — the [`GuestWorkload`] trait workloads implement,
//!   plus [`ExecContext`] giving them metered access to the cache and
//!   PMU models.
//! * [`engine`] — the simulation loop ([`Simulation`]) advancing
//!   running vCPUs in bounded sub-steps and dispatching timer events;
//!   [`TimeMode`] selects between the dense oracle and the
//!   event-horizon fast-forward, which replays the dense grid byte for
//!   byte with chunk coalescing off and stays within the tolerance
//!   oracle with it on (the default).
//! * [`policy`] — the [`SchedPolicy`] hook AQL_Sched and the baseline
//!   schedulers implement.
//! * [`spinlock`] — a guest-visible ticket spin-lock whose
//!   holder/waiter preemption pathologies the paper's §3.2 describes.
//! * [`report`] — per-run results: CPU accounting, fairness indices and
//!   workload metrics.

#![warn(missing_docs)]

pub mod apptype;
pub mod engine;
pub mod ids;
pub mod policy;
pub mod pool;
pub mod report;
pub mod sched;
pub mod spinlock;
pub mod topology;
pub mod vm;
pub mod workload;

pub use apptype::VcpuType;
pub use engine::{EngineError, Simulation, SimulationBuilder, TimeMode};
pub use ids::{PcpuId, PoolId, SocketId, VcpuId, VmId};
pub use policy::{FixedQuantumPolicy, SchedPolicy};
pub use pool::{CpuPool, PoolSpec};
pub use report::{RunReport, VmReport};
pub use topology::MachineSpec;
pub use vm::{Prio, Vcpu, VcpuState, VmSpec};
pub use workload::{
    ExecContext, GuestWorkload, Horizon, Integrator, LatencySummary, RunOutcome, StopReason,
    TimerFire, WorkloadMetrics,
};

/// The Xen Credit scheduler's accounting tick (10 ms).
pub const TICK_NS: u64 = 10 * aql_sim::time::MS;
/// Credit refill period: one accounting period is three ticks (30 ms).
pub const ACCT_TICKS: u64 = 3;
/// The paper's monitoring period for vTRS sampling (30 ms).
pub const MONITOR_PERIOD_NS: u64 = 30 * aql_sim::time::MS;
/// Xen's default quantum length (30 ms).
pub const DEFAULT_QUANTUM_NS: u64 = 30 * aql_sim::time::MS;
