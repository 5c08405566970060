//! Fault injection: a wrapper that makes any workload misbehave on
//! purpose.
//!
//! [`FaultyWorkload`] wraps a [`GuestWorkload`] and drives exactly one
//! failure mode, selected by a [`FaultSpec`] token (the scenario
//! layer's `fault=` attribute):
//!
//! | Token | Injected behaviour | Degradation path it proves |
//! |---|---|---|
//! | `panic@<dur>` | panics after consuming `<dur>` of CPU | per-cell `catch_unwind` isolation |
//! | `hang[@<dur>]` | demands CPU forever but consumes none (after `<dur>`) | zero-progress bails → livelock sentinel |
//! | `nan-rate` | reports NaN-poisoned metrics | invariant sentinel / NaN-tolerant stats |
//! | `horizon-lie` | claims [`Horizon::Never`], then blocks anyway | broken-promise dense recovery (exact) |
//! | `coalesce-break` | signs the linear contract, then underruns coalesced chunks | contract-break dense recovery (tolerance) |
//!
//! The faults are deterministic: they key on *consumed CPU time*, a
//! pure function of the seeded simulation, never on wall time. A
//! directed test per row proves the path end to end; sibling cells of
//! a faulty cell must stay bitwise identical to a fault-free run —
//! that is the whole point of the isolation layer this vocabulary
//! exists to exercise.

use core::fmt;

use aql_hv::workload::{
    CoalesceHint, CoalesceProbe, ExecContext, GuestWorkload, Horizon, Integrator, LatencySummary,
    RunOutcome, StopReason, TimerFire, WorkloadMetrics,
};
use aql_sim::time::{fmt_dur, parse_dur, SimTime};

/// One injected failure mode (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic once the workload has consumed this much CPU time.
    Panic {
        /// Total consumed CPU (ns, summed over the VM's slots) at
        /// which the next `run` call panics.
        at_cpu_ns: u64,
    },
    /// After consuming this much CPU, demand CPU forever while
    /// consuming none: every dispatch makes zero progress.
    Hang {
        /// Consumed CPU (ns) at which the hang sets in; 0 hangs from
        /// the first dispatch.
        after_cpu_ns: u64,
    },
    /// Execute normally but poison the reported metrics with NaN.
    NanRate,
    /// Claim [`Horizon::Never`] while delegating execution — a lie for
    /// any workload that blocks or yields.
    HorizonLie,
    /// Sign the linear coalesce contract unconditionally, then consume
    /// only half of any coalesced chunk.
    CoalesceBreak,
}

impl FaultSpec {
    /// Parses a fault token (`panic@30ms`, `hang`, `hang@10ms`,
    /// `nan-rate`, `horizon-lie`, `coalesce-break`). Returns a
    /// human-readable error for malformed input.
    pub fn parse(token: &str) -> Result<Self, String> {
        if let Some(dur) = token.strip_prefix("panic@") {
            let at_cpu_ns = parse_dur(dur)
                .ok_or_else(|| format!("malformed duration in fault token '{token}'"))?;
            return Ok(FaultSpec::Panic { at_cpu_ns });
        }
        if token == "hang" {
            return Ok(FaultSpec::Hang { after_cpu_ns: 0 });
        }
        if let Some(dur) = token.strip_prefix("hang@") {
            let after_cpu_ns = parse_dur(dur)
                .ok_or_else(|| format!("malformed duration in fault token '{token}'"))?;
            return Ok(FaultSpec::Hang { after_cpu_ns });
        }
        match token {
            "nan-rate" => Ok(FaultSpec::NanRate),
            "horizon-lie" => Ok(FaultSpec::HorizonLie),
            "coalesce-break" => Ok(FaultSpec::CoalesceBreak),
            _ => Err(format!("unknown fault token '{token}'")),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpec::Panic { at_cpu_ns } => write!(f, "panic@{}", fmt_dur(*at_cpu_ns)),
            FaultSpec::Hang { after_cpu_ns: 0 } => f.write_str("hang"),
            FaultSpec::Hang { after_cpu_ns } => write!(f, "hang@{}", fmt_dur(*after_cpu_ns)),
            FaultSpec::NanRate => f.write_str("nan-rate"),
            FaultSpec::HorizonLie => f.write_str("horizon-lie"),
            FaultSpec::CoalesceBreak => f.write_str("coalesce-break"),
        }
    }
}

/// A [`GuestWorkload`] wrapper injecting one [`FaultSpec`].
///
/// Delegates everything it does not deliberately corrupt, so a
/// `FaultyWorkload` with a fault that never triggers behaves exactly
/// like its inner workload (modulo the conservative
/// [`Horizon::Unknown`]/[`CoalesceHint::No`] answers the pre-trigger
/// faults give, which are always sound).
pub struct FaultyWorkload {
    inner: Box<dyn GuestWorkload>,
    fault: FaultSpec,
    /// Total CPU consumed across all slots, the deterministic clock
    /// the CPU-keyed faults trigger on. Not reset by `reset_metrics` —
    /// fault onsets are positions in the whole run, not the measured
    /// window.
    consumed_ns: u64,
}

impl FaultyWorkload {
    /// Wraps `inner` with the given fault.
    pub fn new(inner: Box<dyn GuestWorkload>, fault: FaultSpec) -> Self {
        FaultyWorkload {
            inner,
            fault,
            consumed_ns: 0,
        }
    }
}

impl GuestWorkload for FaultyWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn vcpu_slots(&self) -> usize {
        self.inner.vcpu_slots()
    }

    fn run(&mut self, slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        match self.fault {
            FaultSpec::Panic { at_cpu_ns } => {
                let left = at_cpu_ns.saturating_sub(self.consumed_ns);
                if left == 0 {
                    panic!(
                        "injected fault: panic@{} in workload '{}'",
                        fmt_dur(at_cpu_ns),
                        self.inner.name()
                    );
                }
                let out = self.inner.run(slot, budget_ns.min(left), ctx);
                self.consumed_ns += out.used_ns;
                out
            }
            FaultSpec::Hang { after_cpu_ns } => {
                let left = after_cpu_ns.saturating_sub(self.consumed_ns);
                if left == 0 {
                    // Infinite demand, zero progress: the engine's
                    // zero-progress bail fires every dispatch, which
                    // an armed budget promotes to a livelock sentinel.
                    return RunOutcome {
                        used_ns: 0,
                        stop: StopReason::BudgetExhausted,
                    };
                }
                let out = self.inner.run(slot, budget_ns.min(left), ctx);
                self.consumed_ns += out.used_ns;
                out
            }
            FaultSpec::CoalesceBreak => {
                // A coalesced chunk is recognisable from inside `run`:
                // only those route through the steady-rate cache.
                // Underrunning one is precisely a broken linear
                // contract, which the engine must recover from
                // densely.
                let coalesced = matches!(ctx.integrator, Integrator::Cached(_));
                let budget = if coalesced { budget_ns / 2 } else { budget_ns };
                let out = self.inner.run(slot, budget, ctx);
                self.consumed_ns += out.used_ns;
                out
            }
            FaultSpec::NanRate | FaultSpec::HorizonLie => {
                let out = self.inner.run(slot, budget_ns, ctx);
                self.consumed_ns += out.used_ns;
                out
            }
        }
    }

    fn runnable(&self, slot: usize) -> bool {
        match self.fault {
            // A hung slot always demands the CPU.
            FaultSpec::Hang { after_cpu_ns } if self.consumed_ns >= after_cpu_ns => true,
            _ => self.inner.runnable(slot),
        }
    }

    fn horizon(&self, slot: usize, now: SimTime) -> Horizon {
        match self.fault {
            // The lie: promise the scheduler this slot never blocks.
            FaultSpec::HorizonLie => Horizon::Never,
            // Sound but pessimistic: keep the CPU-keyed faults on the
            // dense path so the trigger instant is grid-exact.
            FaultSpec::Panic { .. } | FaultSpec::Hang { .. } => Horizon::Unknown,
            FaultSpec::NanRate | FaultSpec::CoalesceBreak => self.inner.horizon(slot, now),
        }
    }

    fn coalesce(&self, slot: usize, probe: &mut CoalesceProbe<'_>) -> CoalesceHint {
        match self.fault {
            // The lie: sign the linear contract unconditionally.
            FaultSpec::CoalesceBreak => CoalesceHint::LinearFor(u64::MAX),
            // Keep the horizon-lie on the grid path so the broken
            // promise exercises the per-chunk recovery, not the
            // coalesced one.
            FaultSpec::HorizonLie | FaultSpec::Panic { .. } | FaultSpec::Hang { .. } => {
                CoalesceHint::No
            }
            FaultSpec::NanRate => self.inner.coalesce(slot, probe),
        }
    }

    fn next_timer(&self, slot: usize) -> Option<SimTime> {
        self.inner.next_timer(slot)
    }

    fn on_timer(&mut self, slot: usize, now: SimTime) -> TimerFire {
        self.inner.on_timer(slot, now)
    }

    fn metrics(&self) -> WorkloadMetrics {
        let m = self.inner.metrics();
        if self.fault != FaultSpec::NanRate {
            return m;
        }
        // Poison whatever summary the inner workload reports: a NaN
        // must surface as a flagged, classified failure downstream,
        // never as a panic or a silent NaN in a normalised table.
        match m {
            WorkloadMetrics::Io {
                latency,
                completed,
                offered,
            } => WorkloadMetrics::Io {
                latency: LatencySummary {
                    mean_ns: f64::NAN,
                    nan_samples: latency.nan_samples + 1,
                    ..latency
                },
                completed,
                offered,
            },
            WorkloadMetrics::Spin {
                work_items,
                lock_hold_max_ns,
                lock_wait_mean_ns,
                spin_ns,
                ..
            } => WorkloadMetrics::Spin {
                work_items,
                lock_hold_mean_ns: f64::NAN,
                lock_hold_max_ns,
                lock_wait_mean_ns,
                spin_ns,
            },
            WorkloadMetrics::Mem { .. } | WorkloadMetrics::None => WorkloadMetrics::Mem {
                instructions: f64::NAN,
            },
        }
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memwalk::MemWalk;
    use aql_mem::CacheSpec;
    use aql_sim::time::MS;

    #[test]
    fn fault_tokens_round_trip() {
        for spec in [
            FaultSpec::Panic { at_cpu_ns: 30 * MS },
            FaultSpec::Hang { after_cpu_ns: 0 },
            FaultSpec::Hang {
                after_cpu_ns: 10 * MS,
            },
            FaultSpec::NanRate,
            FaultSpec::HorizonLie,
            FaultSpec::CoalesceBreak,
        ] {
            let token = spec.to_string();
            assert_eq!(FaultSpec::parse(&token).unwrap(), spec, "token '{token}'");
        }
    }

    #[test]
    fn malformed_fault_tokens_are_rejected() {
        for bad in ["", "panic", "panic@", "panic@abc", "hang@", "crash", "nan"] {
            assert!(FaultSpec::parse(bad).is_err(), "'{bad}' must fail");
        }
    }

    #[test]
    fn hang_demands_cpu_without_progress() {
        let cache = CacheSpec::i7_3770();
        let inner = Box::new(MemWalk::llcf("t", &cache));
        let wl = FaultyWorkload::new(inner, FaultSpec::Hang { after_cpu_ns: 0 });
        assert!(wl.runnable(0));
        assert_eq!(wl.horizon(0, SimTime::ZERO), Horizon::Unknown);
    }

    #[test]
    fn nan_rate_poisons_metrics() {
        let cache = CacheSpec::i7_3770();
        let inner = Box::new(MemWalk::llcf("t", &cache));
        let wl = FaultyWorkload::new(inner, FaultSpec::NanRate);
        match wl.metrics() {
            WorkloadMetrics::Mem { instructions } => assert!(instructions.is_nan()),
            other => panic!("unexpected metrics {other:?}"),
        }
    }

    #[test]
    fn horizon_lie_always_promises_never() {
        let cache = CacheSpec::i7_3770();
        let inner = Box::new(MemWalk::llcf("t", &cache));
        let wl = FaultyWorkload::new(inner, FaultSpec::HorizonLie);
        assert_eq!(wl.horizon(0, SimTime::ZERO), Horizon::Never);
    }
}
