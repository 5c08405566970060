//! Run budgets and structured failure sentinels.
//!
//! [`Simulation::run_measured_budgeted`] is the measurement protocol
//! the experiment harness uses for fault isolation: it arms the
//! sentinels and returns `Err(`[`EngineError`]`)` the moment one
//! trips, instead of a silently-wrong report.
//! [`Simulation::run_measured`] runs the same protocol without a wall
//! budget and panics with the error, for callers that drive the engine
//! directly.
//!
//! Three sentinels cover the failure modes a cell can hit:
//!
//! * **Livelock** — the sub-step executor's zero-progress bail (see
//!   `engine::exec`) fires for the same vCPU over and over. One bail is
//!   a trace line (transient starvation is legal); an unbroken streak
//!   means the guest will never run again, so the budget promotes it to
//!   a structured error.
//! * **Wall budget** — real time, not simulated time: a deadline for
//!   the whole measured run, checked from inside both run loops so even
//!   a slow-but-live cell is cut off.
//! * **Invariant violation** — post-run checks on the report itself:
//!   the engine's conservation law (every vCPU nanosecond is billed to
//!   exactly one pCPU), the busy-time bound, and metric finiteness
//!   (a NaN latency summary marks the run corrupted rather than
//!   propagating into normalised tables).
//!
//! The distinction [`EngineError::is_environmental`] draws is what the
//! harness's retry classifier keys on: the simulation is a pure
//! function of its seed, so a livelock or invariant break will recur on
//! every retry — only the wall deadline depends on the machine the
//! harness happens to be running on.

use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

use aql_sim::time::SimTime;

use super::Simulation;
use crate::ids::VcpuId;
use crate::report::RunReport;
use crate::workload::WorkloadMetrics;

/// How many `budget_stop` polls elapse between `Instant::now` reads.
/// The run loops poll once per outer iteration (at most one sub-step,
/// 100 µs simulated), so the wall deadline is enforced with generous
/// slack while the hot loop almost never touches the clock syscall.
const WALL_CHECK_EVERY: u32 = 256;

/// Livelock threshold: zero-progress bails charged to one vCPU, summed
/// over the run, before the run is declared dead. A bail fires at most
/// once per sub-step (100 µs) of *dispatched* time, so this is ~26 ms
/// of the guest holding a pCPU while consuming nothing — orders of
/// magnitude beyond any legal starvation the in-tree scenarios produce
/// (their bail count is exactly zero), yet low enough to trip well
/// inside even a quick smoke run's window.
const DEFAULT_LIVELOCK_BAILS: u32 = 256;

/// A budgeted run's structured failure cause.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A vCPU accumulated `bails` zero-progress dispatch bails: the
    /// guest demands CPU but consumes none, and the seeded simulation
    /// guarantees it never will.
    Livelock {
        /// The starved vCPU.
        vcpu: VcpuId,
        /// Zero-progress bails charged to it.
        bails: u32,
        /// Simulated time when the watchdog tripped.
        sim_at: SimTime,
    },
    /// The run exceeded its wall-clock deadline. The only
    /// *environmental* failure: it depends on host load, not the seed.
    WallBudgetExceeded {
        /// The configured deadline.
        limit: Duration,
        /// Simulated time reached when the deadline passed.
        sim_at: SimTime,
    },
    /// The finished run's report violates an engine invariant
    /// (accounting conservation, busy-time bound, metric finiteness).
    InvariantViolation {
        /// Human-readable description naming the violated invariant.
        what: String,
    },
}

impl EngineError {
    /// Whether the failure is environmental — caused by the host the
    /// run happened to execute on, not by the (deterministic) run
    /// itself. Environmental failures are worth retrying; deterministic
    /// ones recur on every retry by construction.
    pub fn is_environmental(&self) -> bool {
        matches!(self, EngineError::WallBudgetExceeded { .. })
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Livelock {
                vcpu,
                bails,
                sim_at,
            } => write!(
                f,
                "livelock: {vcpu} made no progress over {bails} dispatch bails \
                 (sim time {sim_at})"
            ),
            EngineError::WallBudgetExceeded { limit, sim_at } => write!(
                f,
                "wall budget exceeded: {limit:?} elapsed with the run at sim time {sim_at}"
            ),
            EngineError::InvariantViolation { what } => {
                write!(f, "invariant violation: {what}")
            }
        }
    }
}

impl Error for EngineError {}

/// Live watchdog state while a budgeted run is in flight.
#[derive(Debug)]
pub(super) struct ArmedBudget {
    /// Wall-clock deadline for the whole run; `None` never times out.
    max_wall: Option<Duration>,
    started: Instant,
    /// Countdown to the next `Instant::now` read.
    wall_check_in: u32,
    /// Zero-progress bail count per vCPU (indexed by vCPU, grown
    /// lazily). Per-vCPU — not a last-bailer streak — so several hung
    /// vCPUs alternating bails in pCPU order still each accumulate.
    starve_bails: Vec<u32>,
    tripped: Option<EngineError>,
}

impl ArmedBudget {
    fn new(max_wall: Option<Duration>) -> Self {
        ArmedBudget {
            max_wall,
            started: Instant::now(),
            // First poll reads the clock: a heavily-coalesced run can
            // finish in fewer than WALL_CHECK_EVERY loop iterations,
            // and a deadline that is never even consulted cannot trip.
            wall_check_in: 1,
            starve_bails: Vec::new(),
            tripped: None,
        }
    }
}

impl Simulation {
    /// Runs the standard measurement protocol with the sentinels armed:
    /// `warmup_ns` of execution, a measurement reset, `measure_ns` of
    /// measured execution and the report, except that a livelock, a run
    /// past `max_wall` (`None` never times out) or a report that breaks
    /// an invariant surfaces as a structured [`EngineError`]. The
    /// watchdogs are passive observers of state the engine maintains
    /// anyway, so they never change the report's bits.
    pub fn run_measured_budgeted(
        &mut self,
        warmup_ns: u64,
        measure_ns: u64,
        max_wall: Option<Duration>,
    ) -> Result<RunReport, EngineError> {
        self.budget = Some(ArmedBudget::new(max_wall));
        self.run_for(warmup_ns);
        if let Some(err) = self.budget.as_ref().and_then(|b| b.tripped.clone()) {
            self.budget = None;
            return Err(err);
        }
        self.reset_measurements();
        self.run_for(measure_ns);
        let tripped = self.budget.take().and_then(|b| b.tripped);
        if let Some(err) = tripped {
            return Err(err);
        }
        let report = self.report();
        self.check_report_invariants(&report)?;
        Ok(report)
    }

    /// Polled at the top of both run loops: `true` aborts the loop
    /// (leaving `self.now` where the run actually stopped). Reads the
    /// wall clock once every [`WALL_CHECK_EVERY`] polls.
    pub(super) fn budget_stop(&mut self) -> bool {
        let now = self.now;
        let Some(b) = self.budget.as_mut() else {
            return false;
        };
        if b.tripped.is_some() {
            return true;
        }
        if let Some(limit) = b.max_wall {
            b.wall_check_in = b.wall_check_in.saturating_sub(1);
            if b.wall_check_in == 0 {
                b.wall_check_in = WALL_CHECK_EVERY;
                if b.started.elapsed() >= limit {
                    b.tripped = Some(EngineError::WallBudgetExceeded { limit, sim_at: now });
                    return true;
                }
            }
        }
        false
    }

    /// Notes one zero-progress dispatch bail (see `engine::exec`),
    /// charged to the starved vCPU's cumulative count.
    pub(super) fn note_starve_bail(&mut self, vid: VcpuId) {
        let now = self.now;
        let Some(b) = self.budget.as_mut() else {
            return;
        };
        if b.tripped.is_some() {
            return;
        }
        if b.starve_bails.len() <= vid.index() {
            b.starve_bails.resize(vid.index() + 1, 0);
        }
        let n = b.starve_bails[vid.index()].saturating_add(1);
        b.starve_bails[vid.index()] = n;
        if n >= DEFAULT_LIVELOCK_BAILS {
            b.tripped = Some(EngineError::Livelock {
                vcpu: vid,
                bails: n,
                sim_at: now,
            });
        }
    }

    /// The post-run report checks: conservation of CPU accounting
    /// (every vCPU nanosecond lands on exactly one pCPU), the per-pCPU
    /// busy-time bound, and finiteness of every f64 metric.
    pub(super) fn check_report_invariants(&self, r: &RunReport) -> Result<(), EngineError> {
        let violation = |what: String| Err(EngineError::InvariantViolation { what });
        let vcpu_total: u64 = r
            .vms
            .iter()
            .map(|vm| vm.vcpu_cpu_ns.iter().sum::<u64>())
            .sum();
        let pcpu_total: u64 = r.pcpu_busy_ns.iter().sum();
        if vcpu_total != pcpu_total {
            return violation(format!(
                "accounting drift: vCPU cpu_ns sums to {vcpu_total} but pCPU busy_ns \
                 sums to {pcpu_total}"
            ));
        }
        for (pi, &busy) in r.pcpu_busy_ns.iter().enumerate() {
            if busy > r.sim_ns {
                return violation(format!(
                    "pCPU {pi} busy for {busy} ns of a {} ns measured window",
                    r.sim_ns
                ));
            }
        }
        for vm in &r.vms {
            match &vm.metrics {
                WorkloadMetrics::Io { latency, .. } => {
                    if !latency.is_finite() {
                        return violation(format!(
                            "vm '{}' latency summary corrupted ({} NaN samples; \
                             mean {} ns)",
                            vm.name, latency.nan_samples, latency.mean_ns
                        ));
                    }
                }
                WorkloadMetrics::Spin {
                    lock_hold_mean_ns,
                    lock_hold_max_ns,
                    lock_wait_mean_ns,
                    ..
                } => {
                    if !lock_hold_mean_ns.is_finite()
                        || !lock_hold_max_ns.is_finite()
                        || !lock_wait_mean_ns.is_finite()
                    {
                        return violation(format!("vm '{}' spin metrics are non-finite", vm.name));
                    }
                }
                WorkloadMetrics::Mem { instructions } => {
                    if !instructions.is_finite() {
                        return violation(format!(
                            "vm '{}' instruction count is non-finite",
                            vm.name
                        ));
                    }
                }
                WorkloadMetrics::None => {}
            }
        }
        Ok(())
    }
}
