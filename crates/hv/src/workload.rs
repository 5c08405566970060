//! The guest-workload interface.
//!
//! A VM's application behaviour is a [`GuestWorkload`]: one object per
//! VM driving all of the VM's vCPU *slots*. The engine hands the
//! workload CPU time ([`GuestWorkload::run`]) and timer deliveries
//! ([`GuestWorkload::on_timer`]); the workload reports why it stopped
//! ([`StopReason`]) and, at the end of a run, its application-level
//! metrics ([`WorkloadMetrics`]).
//!
//! During `run` the workload executes through an [`ExecContext`], which
//! meters instruction progress against the cache model and accumulates
//! PMU counters — the same counters the paper's vTRS samples.

use aql_mem::{
    exec_step, exec_step_cached, exec_step_lean, CacheSpec, ExecOutcome, LlcState, MemProfile,
    PmuCounters, RateCache,
};
use aql_sim::rng::SimRng;
use aql_sim::time::SimTime;

/// A workload slot's promise about its next scheduling-visible act.
///
/// The engine's adaptive time-advance (`TimeMode::Adaptive`) asks every
/// *running* slot for its horizon when planning how far it can
/// fast-forward without consulting the scheduler. The contract is:
/// **assuming the slot runs continuously from `now`, any
/// [`GuestWorkload::run`] call that ends strictly before the horizon
/// returns [`StopReason::BudgetExhausted`]** — the slot neither blocks
/// nor yields inside the promised window. Phase changes, lock handoffs
/// and cache-state evolution are fine: they happen *inside* `run` and
/// do not require the scheduler.
///
/// An unsound (too-late) horizon cannot corrupt a run — the engine
/// detects the broken promise and falls back to the dense path for the
/// affected sub-step — but it wastes the fast path, so report
/// [`Horizon::Unknown`] when in doubt (it is the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The slot may block or yield at any moment (e.g. an IO server
    /// with an empty request queue). The engine stays on the dense
    /// path while such a slot runs.
    Unknown,
    /// The slot will not block or yield before the given instant.
    At(SimTime),
    /// The slot never blocks or yields of its own accord (pure CPU
    /// burners, spin workloads without directed yield).
    Never,
}

/// A running slot's answer to "may the engine hand you one coalesced
/// execution chunk covering a whole quiescent span?".
///
/// The adaptive time-advance normally replays the dense sub-step grid
/// — one `run` call per grid point — so results stay bit-identical to
/// the dense oracle. When **every** running slot declares itself
/// linear, the engine instead issues a *single* `run` call per slot
/// for the whole proven-quiescent span. The contract a linear slot
/// signs (for the next `cpu_ns` nanoseconds of its own CPU time):
///
/// * every `run` call consumes its entire budget and returns
///   [`StopReason::BudgetExhausted`] (no block, no yield);
/// * execution is **pure-rate**: the slot's memory profile is at the
///   zero-traffic fixpoint ([`CoalesceProbe::linear_rate`]), so it
///   mutates no shared LLC state, and the slot draws nothing from the
///   shared [`ExecContext::rng`] and advances no state read by another
///   *running* slot;
/// * behaviour is therefore chunk-size invariant: one call over the
///   span differs from the dense chunk sequence only in the f64
///   summation order of accumulated metrics (the tolerance oracle's
///   1e-6 budget), never in any `u64` accounting or event.
///
/// Integer state machines driven by consumed CPU time (phase budgets,
/// work segments, PLE windows) are fine: they advance identically for
/// any chunking of the same budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoalesceHint {
    /// Chunk-size sensitive (the default): the engine keeps the dense
    /// grid for the span.
    No,
    /// Pure-rate for at least this much more CPU time (use `u64::MAX`
    /// for "until further notice"); the engine may coalesce any span
    /// not exceeding it. A phase boundary inside the window would
    /// change the rate, so phased workloads bound the window by the
    /// CPU time left in the current phase.
    LinearFor(u64),
}

/// Read-only state probe handed to [`GuestWorkload::coalesce`], giving
/// the workload what it needs to check the fixpoint conditions for its
/// current memory profile without touching engine state.
pub struct CoalesceProbe<'a> {
    /// Cache geometry of the machine.
    pub spec: &'a CacheSpec,
    /// The LLC of the socket the running slot sits on.
    pub llc: &'a LlcState,
    /// The slot's current private-L2 warmth.
    pub l2_warmth: f64,
    /// LLC owner index (global vCPU index).
    pub owner: usize,
    /// Which of this VM's slots are currently on a pCPU. A slot whose
    /// siblings are also running usually cannot be linear: coalescing
    /// would reorder cross-slot interactions (locks, barriers, shared
    /// RNG draws) by whole spans.
    pub running_slots: &'a [bool],
    /// The engine's steady-rate cache (see [`RateCache`]).
    pub rate_cache: &'a mut RateCache,
}

impl CoalesceProbe<'_> {
    /// Whether `profile` is at the zero-traffic fixpoint for this slot
    /// right now (memoized in the engine's [`RateCache`]).
    pub fn linear_rate(&mut self, profile: &MemProfile) -> bool {
        self.rate_cache
            .linear_rate(profile, self.spec, self.llc, self.owner, self.l2_warmth)
            .is_some()
    }

    /// How many of this VM's slots are currently running.
    pub fn running_sibling_count(&self) -> usize {
        self.running_slots.iter().filter(|r| **r).count()
    }
}

/// Why a workload stopped before using its whole budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The time budget was fully consumed; the vCPU stays runnable.
    BudgetExhausted,
    /// The vCPU has no work until an external event (IO arrival); it
    /// blocks and releases the pCPU.
    Blocked,
    /// The vCPU voluntarily yields the pCPU but remains runnable
    /// (e.g. Pause-Loop-Exiting directed yield while spinning).
    Yielded,
}

/// The result of one [`GuestWorkload::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Nanoseconds of CPU actually consumed (at most the budget).
    pub used_ns: u64,
    /// Why the call returned.
    pub stop: StopReason,
}

impl RunOutcome {
    /// Convenience constructor for a full-budget run.
    pub fn ran_all(budget_ns: u64) -> Self {
        RunOutcome {
            used_ns: budget_ns,
            stop: StopReason::BudgetExhausted,
        }
    }
}

/// The result of delivering a timer to a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerFire {
    /// IO events materialised by this delivery (counted by the
    /// hypervisor's event-channel monitor, §3.3.2).
    pub io_events: u64,
    /// Whether the slot should wake if it was blocked.
    pub wake: bool,
}

/// Metered execution environment handed to [`GuestWorkload::run`].
///
/// Borrowing rules: the context holds exclusive access to the socket's
/// LLC state and the vCPU's PMU counters for the duration of the call.
pub struct ExecContext<'a> {
    /// Current simulated time at the start of the run slice.
    pub now: SimTime,
    /// Cache geometry of the machine.
    pub spec: &'a CacheSpec,
    /// Shared LLC of the socket the vCPU is running on.
    pub llc: &'a mut LlcState,
    /// The vCPU's PMU counters.
    pub pmu: &'a mut PmuCounters,
    /// The vCPU's private-L2 warmth (fraction resident), updated in
    /// place by [`ExecContext::exec_mem`].
    pub l2_warmth: &'a mut f64,
    /// Deterministic randomness.
    pub rng: &'a mut SimRng,
    /// LLC owner index (global vCPU index).
    pub owner: usize,
    /// Which of this VM's slots are currently on a pCPU; lets
    /// spin-lock models observe holder preemption.
    pub running_slots: &'a [bool],
    /// The integrator [`ExecContext::exec_mem`] runs.
    pub integrator: Integrator<'a>,
}

/// Which entry point of the shared execution-speed integrator
/// ([`aql_mem::exec`]) [`ExecContext::exec_mem`] calls.
pub enum Integrator<'a> {
    /// [`aql_mem::exec_step`], evicting through the reference LLC
    /// kernel: the dense conformance oracle.
    Dense,
    /// [`aql_mem::exec_step_lean`], bit-identical to `Dense`: the
    /// adaptive time-advance's grid path.
    Lean,
    /// [`aql_mem::exec_step_cached`]: the lean integrator with the
    /// steady-rate cache, which answers a whole budget at the
    /// zero-traffic fixpoint in O(1). Only coalesced spans use it.
    Cached(&'a mut RateCache),
}

impl ExecContext<'_> {
    /// Executes `dt_ns` of CPU under `profile`, updating the LLC, the
    /// L2 warmth and the PMU. Returns the retirement outcome.
    pub fn exec_mem(&mut self, profile: &MemProfile, dt_ns: u64) -> ExecOutcome {
        let (spec, owner, dt) = (self.spec, self.owner, dt_ns);
        let out = match &mut self.integrator {
            Integrator::Dense => exec_step(profile, spec, self.llc, owner, self.l2_warmth, dt),
            Integrator::Lean => exec_step_lean(profile, spec, self.llc, owner, self.l2_warmth, dt),
            Integrator::Cached(cache) => {
                exec_step_cached(profile, spec, self.llc, owner, self.l2_warmth, dt, cache)
            }
        };
        self.pmu.add_exec(&out);
        out
    }

    /// Records `n` Pause-Loop-Exiting traps (spin detection, §3.3.2).
    pub fn ple_exits(&mut self, n: u64) {
        self.pmu.add_ple_exits(n);
    }
}

/// Latency distribution summary for IO-like workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Completed requests.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: f64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: f64,
    /// Maximum observed latency in nanoseconds.
    pub max_ns: f64,
    /// NaN latency samples recorded. Zero on every healthy run; a
    /// non-zero count marks the summary as corrupted (the percentile
    /// fields may themselves be NaN) and is what the engine's
    /// invariant sentinel reports instead of letting a NaN propagate
    /// silently into normalised tables.
    pub nan_samples: u64,
}

impl LatencySummary {
    /// Whether every field of the summary is finite and no NaN sample
    /// was recorded.
    pub fn is_finite(&self) -> bool {
        self.nan_samples == 0
            && self.mean_ns.is_finite()
            && self.p95_ns.is_finite()
            && self.p99_ns.is_finite()
            && self.max_ns.is_finite()
    }
}

/// End-of-run application metrics, per workload kind.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadMetrics {
    /// Request/response workload: the paper scores these by latency.
    Io {
        /// Latency summary over completed requests.
        latency: LatencySummary,
        /// Requests completed.
        completed: u64,
        /// Requests that arrived (offered load).
        offered: u64,
    },
    /// Spin-lock synchronised parallel job: scored by throughput.
    Spin {
        /// Work items completed across all threads.
        work_items: u64,
        /// Mean observed lock-ownership duration, ns.
        lock_hold_mean_ns: f64,
        /// Longest observed lock-ownership duration, ns.
        lock_hold_max_ns: f64,
        /// Mean lock acquisition wait, ns.
        lock_wait_mean_ns: f64,
        /// Total CPU burnt spinning, ns.
        spin_ns: u64,
    },
    /// CPU/memory workload: scored by retired instructions.
    Mem {
        /// Instructions retired over the run.
        instructions: f64,
    },
    /// A workload with no meaningful application metric.
    None,
}

impl WorkloadMetrics {
    /// A scalar "time-like cost" (lower is better) used to normalise
    /// performance across runs, as the paper normalises every figure:
    /// mean latency for IO, inverse throughput for spin jobs, inverse
    /// instruction rate for memory workloads.
    pub fn time_cost(&self) -> Option<f64> {
        match self {
            WorkloadMetrics::Io { latency, .. } => (latency.count > 0).then_some(latency.mean_ns),
            WorkloadMetrics::Spin { work_items, .. } => {
                (*work_items > 0).then_some(1.0 / *work_items as f64)
            }
            WorkloadMetrics::Mem { instructions } => {
                (*instructions > 0.0).then_some(1.0 / *instructions)
            }
            WorkloadMetrics::None => None,
        }
    }
}

/// A VM's application behaviour.
///
/// One object drives all the VM's vCPU slots; slot indices are local
/// to the VM (`0..vcpu_slots()`).
pub trait GuestWorkload {
    /// Short human-readable name (e.g. `"SPECweb2009"`).
    fn name(&self) -> &str;

    /// Number of vCPU slots this workload drives; must equal the VM's
    /// vCPU count.
    fn vcpu_slots(&self) -> usize;

    /// Gives `slot` at most `budget_ns` of CPU starting at `ctx.now`.
    ///
    /// Must return `used_ns <= budget_ns`. Returning
    /// [`StopReason::Blocked`] parks the vCPU until a timer fires for
    /// the slot; [`StopReason::Yielded`] requeues it immediately.
    fn run(&mut self, slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome;

    /// Whether the slot has runnable work right now (used at admission
    /// and after pool reconfigurations).
    fn runnable(&self, slot: usize) -> bool;

    /// The next instant the *running* slot could block or yield (see
    /// [`Horizon`] for the exact contract). The default is
    /// [`Horizon::Unknown`], which is always sound: the engine then
    /// advances the slot on the dense sub-step path.
    fn horizon(&self, _slot: usize, _now: SimTime) -> Horizon {
        Horizon::Unknown
    }

    /// Whether the *running* slot's execution may be coalesced into a
    /// single chunk across a proven-quiescent span, and for how much
    /// CPU time (see [`CoalesceHint`] for the exact contract). The
    /// default is [`CoalesceHint::No`], which is always sound: the
    /// engine then replays the dense sub-step grid for the span.
    fn coalesce(&self, _slot: usize, _probe: &mut CoalesceProbe<'_>) -> CoalesceHint {
        CoalesceHint::No
    }

    /// The next instant at which the slot needs a timer delivery
    /// (request arrival, sleep expiry), if any.
    fn next_timer(&self, slot: usize) -> Option<SimTime>;

    /// Delivers a due timer to the slot.
    fn on_timer(&mut self, slot: usize, now: SimTime) -> TimerFire;

    /// Application metrics accumulated so far.
    fn metrics(&self) -> WorkloadMetrics;

    /// Clears accumulated metrics without disturbing execution state.
    ///
    /// Experiment harnesses call this after a warm-up phase so reported
    /// metrics reflect steady state (standard measurement practice; the
    /// paper's runs similarly exclude benchmark ramp-up).
    fn reset_metrics(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_outcome_full_budget() {
        let o = RunOutcome::ran_all(500);
        assert_eq!(o.used_ns, 500);
        assert_eq!(o.stop, StopReason::BudgetExhausted);
    }

    #[test]
    fn io_time_cost_is_latency() {
        let m = WorkloadMetrics::Io {
            latency: LatencySummary {
                count: 10,
                mean_ns: 5000.0,
                ..Default::default()
            },
            completed: 10,
            offered: 12,
        };
        assert_eq!(m.time_cost(), Some(5000.0));
    }

    #[test]
    fn spin_time_cost_is_inverse_throughput() {
        let m = WorkloadMetrics::Spin {
            work_items: 200,
            lock_hold_mean_ns: 0.0,
            lock_hold_max_ns: 0.0,
            lock_wait_mean_ns: 0.0,
            spin_ns: 0,
        };
        assert_eq!(m.time_cost(), Some(1.0 / 200.0));
    }

    #[test]
    fn empty_metrics_have_no_cost() {
        assert_eq!(WorkloadMetrics::None.time_cost(), None);
        let io = WorkloadMetrics::Io {
            latency: LatencySummary::default(),
            completed: 0,
            offered: 0,
        };
        assert_eq!(io.time_cost(), None);
        let mem = WorkloadMetrics::Mem { instructions: 0.0 };
        assert_eq!(mem.time_cost(), None);
    }

    #[test]
    fn mem_cost_decreases_with_more_instructions() {
        let a = WorkloadMetrics::Mem { instructions: 1e6 };
        let b = WorkloadMetrics::Mem { instructions: 2e6 };
        assert!(a.time_cost().unwrap() > b.time_cost().unwrap());
    }
}
