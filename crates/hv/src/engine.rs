//! The simulation engine.
//!
//! [`Hypervisor`] holds the machine state (vCPUs, pools, run queues,
//! LLCs); [`Simulation`] owns the hypervisor plus the guest workloads,
//! the scheduling policy and the event queue, and advances simulated
//! time.
//!
//! Time advances in two interleaved ways:
//!
//! 1. **Events** (ticks, monitoring periods, guest timers) are popped
//!    from a stable [`EventQueue`].
//! 2. **Execution** between events proceeds in bounded sub-steps:
//!    every running vCPU's workload is advanced by at most
//!    `substep_ns`, so concurrently running vCPUs observe each other's
//!    LLC pressure and lock state with bounded staleness.
//!
//! Quantum boundaries are enforced inside the sub-step loop at
//! nanosecond precision: a slice never runs past `Vcpu::slice_end`.
//!
//! [`Simulation::run_until`] is the one run loop, and [`TimeMode`]
//! changes one step of it. [`TimeMode::Dense`] visits every grid point
//! and re-derives the scheduler state at each one (the conformance
//! oracle). [`TimeMode::Adaptive`] — the default — additionally tries,
//! at each grid point, to compute an *event horizon* (the earliest
//! instant anything scheduler-visible can happen: next event, slice
//! expiry, kick deadline or workload
//! [`Horizon`](crate::workload::Horizon)) and fast-forward whole
//! sub-steps up to it on a lean path, **coalescing the span into one
//! execution chunk per slot** whenever every running slot is provably
//! linear (see [`CoalesceHint`](crate::workload::CoalesceHint)). With
//! coalescing off the adaptive mode replays the dense grid byte for
//! byte. With it on, the adaptive mode reproduces the dense oracle
//! under a quantified tolerance: all `u64` accounting, events and
//! dispatch decisions are bit-exact, and f64 metrics drift by at most
//! 1e-6 relative (coalesced summation order plus snapped sub-epsilon
//! cache traffic); see the `horizon` module docs for the argument.
//!
//! The engine is layered into focused modules behind this facade:
//!
//! * `machine` — [`Hypervisor`] + [`PcpuState`]: the machine state
//!   policies reconfigure.
//! * `dispatch` — the context-switch layer. Every context switch, for
//!   every policy, is described by an explicit [`DispatchDecision`] so
//!   measured policy deltas are attributable to configuration, never
//!   to divergent code paths.
//! * `exec` — the bounded sub-step execution loop.
//! * `horizon` — the adaptive time-advance core: the run loop's
//!   adaptive-only step, quiescent-span planning and the fast-forward
//!   loop.
//! * `monitor` — event handling: credit ticks, PMU sampling and the
//!   [`SchedPolicy::on_monitor`] plumbing, guest timers.
//! * `balance` — idle stealing and periodic run-queue balancing
//!   within pools.
//! * `builder` — [`SimulationBuilder`].

mod balance;
mod budget;
mod builder;
mod dispatch;
mod exec;
mod horizon;
mod machine;
mod monitor;

#[cfg(test)]
mod tests;

pub use budget::EngineError;
pub use builder::SimulationBuilder;
pub use dispatch::{DispatchDecision, DispatchSource};
pub use machine::{Hypervisor, PcpuState};

/// How [`Simulation::run_until`] advances simulated time between
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeMode {
    /// The run loop without its fast-forward step: every sub-step
    /// visits the event queue, the rescheduler and every pCPU. Kept as
    /// the conformance oracle for [`TimeMode::Adaptive`] and for
    /// bisecting suspected fast-path bugs.
    Dense,
    /// Event-horizon execution (the default): between events the
    /// engine proves a span quiescent — no slice expiry, no kick
    /// deadline, every running workload's
    /// [`Horizon`](crate::workload::Horizon) beyond it — and
    /// fast-forwards the span's sub-steps on a lean path that skips
    /// the event queue, the rescheduler and idle pCPUs entirely,
    /// executing the whole span as one coalesced chunk per slot when
    /// every running slot is linear. Reproduces [`TimeMode::Dense`]
    /// within the tolerance oracle: bit-exact integer accounting and
    /// events, ≤1e-6 relative drift on f64 metrics (none at all with
    /// coalescing disabled via `SimulationBuilder::coalesce(false)`).
    #[default]
    Adaptive,
}

use aql_sim::queue::EventQueue;
use aql_sim::rng::SimRng;
use aql_sim::time::SimTime;
use aql_sim::trace::TraceLog;

use aql_mem::RateCache;

use crate::policy::SchedPolicy;
use crate::report::{RunReport, VmReport};
use crate::workload::GuestWorkload;

/// Default execution sub-step: 100 µs bounds cross-pCPU staleness.
pub const DEFAULT_SUBSTEP_NS: u64 = 100 * aql_sim::time::US;

/// Engine events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// 10 ms credit tick.
    Tick,
    /// 30 ms monitoring period boundary.
    Monitor,
    /// A guest timer for vCPU `vcpu`; stale if `gen` mismatches.
    GuestTimer { vcpu: usize, gen: u64 },
}

/// Reusable scratch storage for the engine's periodic passes, so the
/// steady-state run loop performs no heap allocation.
#[derive(Debug, Default)]
struct Scratch {
    /// pCPU indices of the pool currently being rebalanced.
    pool_pcpus: Vec<usize>,
    /// Busy-pCPU execution slots of the adaptive fast-forward loop.
    fast_slots: Vec<horizon::FastSlot>,
}

/// A complete simulation run: hypervisor + workloads + policy + clock.
pub struct Simulation {
    /// The simulated hypervisor (public for policies and tests).
    pub hv: Hypervisor,
    workloads: Vec<Box<dyn GuestWorkload>>,
    vm_running: Vec<Vec<bool>>,
    policy: Box<dyn SchedPolicy>,
    queue: EventQueue<Event>,
    now: SimTime,
    rng: SimRng,
    substep_ns: u64,
    time_mode: TimeMode,
    /// Whether the adaptive mode may coalesce a proven-quiescent span
    /// into one execution chunk per slot when every running slot
    /// declares itself linear (see `engine::horizon`). Off, the
    /// adaptive mode replays the dense sub-step grid bit-for-bit.
    coalesce: bool,
    /// Steady-rate memo for the coalesce probes and coalesced chunks
    /// (see [`aql_mem::RateCache`]), one for the whole machine. Entries
    /// are per owner (vCPU) and keyed on the exact input bits — profile,
    /// L2 warmth and the owner's occupancy of the LLC it runs on — so a
    /// vCPU that changes socket simply misses and recomputes the bits a
    /// hit would have served.
    rate_cache: RateCache,
    /// Armed sentinels of a budgeted run in flight (see
    /// [`Simulation::run_measured_budgeted`]); `None` outside one.
    budget: Option<budget::ArmedBudget>,
    /// How many coalesced chunks broke the
    /// [`CoalesceHint`](crate::workload::CoalesceHint) contract and
    /// were recovered through the dense continuation. Zero for every
    /// in-tree workload; fault injection (`coalesce-break`) drives it
    /// up to prove the recovery path, and tests assert on it.
    contract_breaks: u64,
    /// How many grid windows (one fast-forwarded sub-step) a slot's
    /// broken [`Horizon`](crate::workload::Horizon) promise cut short,
    /// each finished through the dense continuation. Zero for every
    /// in-tree workload; fault injection (`horizon-lie`) drives it up,
    /// and tests assert on it.
    horizon_breaks: u64,
    /// Trace log (enable via [`SimulationBuilder::trace`]).
    pub trace: TraceLog,
    tick_count: u64,
    measure_start: SimTime,
    scratch: Scratch,
}

impl Simulation {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The active policy, for downcasting to extract internal traces.
    pub fn policy(&self) -> &dyn SchedPolicy {
        self.policy.as_ref()
    }

    /// The time-advance mode this simulation runs with.
    pub fn time_mode(&self) -> TimeMode {
        self.time_mode
    }

    /// `(hits, recomputes)` of the steady-rate cache — recomputes count
    /// every invalidation-by-key-mismatch (contention insertions,
    /// migration warmth resets, phase shifts).
    pub fn rate_cache_stats(&self) -> (u64, u64) {
        self.rate_cache.stats()
    }

    /// How many coalesced chunks broke the linear contract and were
    /// completed through the dense recovery path. Zero for conforming
    /// workloads; the fault-injection tests assert it moves under a
    /// `coalesce-break` fault, proving the recovery is exercised.
    pub fn coalesce_break_count(&self) -> u64 {
        self.contract_breaks
    }

    /// How many fast-forwarded grid sub-steps a broken horizon promise
    /// cut short, each finished through the dense recovery path. Zero
    /// for honest workloads; the fault-injection tests assert it moves
    /// under a `horizon-lie` fault, proving the recovery is exercised.
    pub fn horizon_break_count(&self) -> u64 {
        self.horizon_breaks
    }

    /// Runs until `end` (absolute simulated time). A no-op when `end`
    /// is not after the current time: the clock never moves backwards.
    ///
    /// The one run loop of both time modes. [`TimeMode::Dense`] is
    /// this loop without step 5, so the two modes differ in nothing
    /// but the fast-forward itself.
    pub fn run_until(&mut self, end: SimTime) {
        if end <= self.now {
            return;
        }
        while self.now < end {
            // 1. A tripped run budget aborts mid-run: return, never
            // `break` — the epilogue below would claim the clock
            // reached `end` when it did not.
            if self.budget_stop() {
                return;
            }
            // 2. Process all events due now.
            while self
                .queue
                .peek_time()
                .is_some_and(|t| t <= self.now && t <= end)
            {
                let (t, ev) = self.queue.pop().expect("peeked");
                debug_assert!(t <= self.now);
                self.handle_event(ev);
            }
            // 3. Repair scheduling decisions.
            self.resched_all();
            let t_next = self.queue.peek_time().map_or(end, |t| t.min(end));
            if t_next <= self.now {
                // An event scheduled exactly at `now` appeared during
                // resched; loop around to process it.
                if self.queue.peek_time().is_some_and(|t| t <= self.now) {
                    continue;
                }
                break;
            }
            // 4. A fully idle machine leaps to the next event.
            if !self.hv.pcpus.iter().any(|p| p.running.is_some()) {
                self.now = t_next;
                continue;
            }
            // 5. Adaptive only: fast-forward a quiescent span, then
            // re-derive everything at the grid point it stops at.
            if self.time_mode == TimeMode::Adaptive && self.fast_forward_to(t_next) {
                continue;
            }
            // 6. One generic sub-step.
            let dt = (t_next - self.now).min(self.substep_ns);
            self.advance_all(dt);
            self.now += dt;
        }
        self.now = end;
    }

    /// Runs for `dur` nanoseconds from the current time.
    pub fn run_for(&mut self, dur: u64) {
        self.run_until(self.now + dur);
    }

    /// Runs the standard measurement protocol: `warmup_ns` of
    /// execution, a measurement reset, `measure_ns` of measured
    /// execution, and the steady-state report. Every example, scenario
    /// and figure uses this exact sequence, so reports are comparable
    /// across all of them.
    ///
    /// # Panics
    ///
    /// In debug builds, when the report breaks an engine invariant
    /// (time conservation, busy time within the window, finite
    /// metrics): the checks [`Simulation::run_measured_budgeted`]
    /// returns as an error.
    pub fn run_measured(&mut self, warmup_ns: u64, measure_ns: u64) -> crate::RunReport {
        self.run_for(warmup_ns);
        self.reset_measurements();
        self.run_for(measure_ns);
        let report = self.report();
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_report_invariants(&report) {
            panic!("{e}");
        }
        report
    }

    /// Clears all measurement state (workload metrics, CPU accounting,
    /// pCPU busy time) without disturbing execution state. Call after a
    /// warm-up phase so reports reflect steady state.
    pub fn reset_measurements(&mut self) {
        for wl in &mut self.workloads {
            wl.reset_metrics();
        }
        for v in &mut self.hv.vcpus {
            v.cpu_ns = 0;
            v.pool_migrations = 0;
        }
        for p in &mut self.hv.pcpus {
            p.busy_ns = 0;
        }
        self.measure_start = self.now;
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> RunReport {
        let vms = self
            .hv
            .vms
            .iter()
            .map(|vm| VmReport {
                vm: vm.id,
                name: vm.spec.name.clone(),
                vcpu_cpu_ns: vm
                    .vcpus
                    .iter()
                    .map(|v| self.hv.vcpus[v.index()].cpu_ns)
                    .collect(),
                vcpu_pool_migrations: vm
                    .vcpus
                    .iter()
                    .map(|v| self.hv.vcpus[v.index()].pool_migrations)
                    .collect(),
                metrics: self.workloads[vm.id.index()].metrics(),
            })
            .collect();
        RunReport {
            sim_ns: self.now.saturating_since(self.measure_start),
            policy: self.policy.name().to_string(),
            vms,
            pcpu_busy_ns: self.hv.pcpus.iter().map(|p| p.busy_ns).collect(),
        }
    }
}
