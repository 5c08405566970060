//! The bounded sub-step execution loop.
//!
//! Between events, every pCPU is advanced by at most `substep_ns` of
//! wall time; within a sub-step a pCPU may run several vCPUs back to
//! back as slices expire, workloads block or yield. This loop is the
//! engine's hot path: it performs no heap allocation in steady state.
//!
//! The adaptive time-advance (`engine::horizon`) re-enters this loop
//! mid-chunk through [`Simulation::advance_pcpu_from`] when a workload
//! deviates from its promised horizon, so both time modes share one
//! implementation of quantum enforcement and stop-reason handling.

use aql_sim::time::SimTime;

use super::{Simulation, TimeMode};
use crate::ids::{PcpuId, VcpuId};
use crate::workload::{ExecContext, Integrator, StopReason};

impl Simulation {
    /// Advances every pCPU by `dt` nanoseconds of wall time: the one
    /// generic sub-step of both time modes. An idle pCPU that cannot
    /// dispatch (`Hypervisor::idle_can_dispatch`) is skipped in O(1),
    /// since its dispatch attempt would fail without a state change.
    /// The counts it reads are exact at every pCPU, so a block or
    /// yield earlier in the same sub-step is seen.
    pub(super) fn advance_all(&mut self, dt: u64) {
        for pi in 0..self.hv.pcpus.len() {
            if self.hv.pcpus[pi].running.is_some() || self.hv.idle_can_dispatch(pi) {
                self.advance_pcpu_from(pi, 0, dt, 0);
            }
        }
    }

    /// Advances one pCPU across `off..dt`, running (possibly several)
    /// vCPUs and enforcing quantum boundaries at nanosecond precision,
    /// with `spins` zero-progress dispatches already observed.
    /// `advance_all` enters at `(off = 0, spins = 0)`; the adaptive fast
    /// path re-enters here to finish a sub-step after a workload
    /// returned early.
    pub(super) fn advance_pcpu_from(&mut self, pcpu: usize, mut off: u64, dt: u64, spins: u32) {
        // Defensive bound: a pCPU cannot context-switch more often than
        // once per zero-progress dispatch more than a few times.
        let mut spins_without_progress = spins;
        while off < dt {
            let Some(vid) = self.hv.pcpus[pcpu].running else {
                if !self.try_dispatch(pcpu, self.now + off) {
                    return; // Idle for the rest of the step.
                }
                continue;
            };
            let t0 = self.now + off;
            let slice_left = self.hv.vcpus[vid.index()].slice_end.saturating_since(t0);
            if slice_left == 0 {
                self.preempt(pcpu, vid, true);
                continue;
            }
            let budget = (dt - off).min(slice_left);
            let used = self.run_workload(pcpu, vid, budget, t0);
            off += used.used_ns;
            if used.used_ns == 0 {
                spins_without_progress += 1;
                if spins_without_progress > 8 {
                    // Degenerate workload; stay idle this step — but
                    // say so, or the starvation is undiagnosable.
                    self.trace.emit(t0, || {
                        format!(
                            "{} starved: {} made no progress over {spins_without_progress} \
                             dispatches, idling for the rest of the step",
                            PcpuId(pcpu),
                            vid
                        )
                    });
                    // An armed run budget counts the streak: enough
                    // consecutive bails by one vCPU promote this trace
                    // line to a structured livelock sentinel.
                    self.note_starve_bail(vid);
                    return;
                }
            } else {
                spins_without_progress = 0;
            }
            match used.stop {
                StopReason::BudgetExhausted => {
                    // Quantum boundary handled at the top of the loop.
                }
                StopReason::Blocked => {
                    self.block(pcpu, vid);
                }
                StopReason::Yielded => {
                    self.yield_requeue(pcpu, vid);
                }
            }
        }
    }

    /// Runs `vid`'s workload for `budget` ns and accounts the usage.
    fn run_workload(
        &mut self,
        pcpu: usize,
        vid: VcpuId,
        budget: u64,
        t0: SimTime,
    ) -> crate::workload::RunOutcome {
        let (vm, slot, socket) = {
            let v = &self.hv.vcpus[vid.index()];
            let socket = self.hv.machine.socket_of(PcpuId(pcpu)).index();
            (v.vm.index(), v.slot, socket)
        };
        let out = self.run_chunk(vid, vm, slot, socket, budget, t0, false);
        let v = &mut self.hv.vcpus[vid.index()];
        v.cpu_ns += out.used_ns;
        v.unbilled_ns += out.used_ns;
        v.pmu.add_ran_ns(out.used_ns);
        self.hv.pcpus[pcpu].busy_ns += out.used_ns;
        out
    }

    /// The execution chunk shared by both time modes: hands the slot
    /// `budget` ns through an [`ExecContext`] and clamps the reported
    /// usage. CPU-time accounting is left to the caller (the dense
    /// path accounts per chunk, the fast path per span — u64 sums, so
    /// the split cannot change any result).
    ///
    /// `coalesced` marks a whole-span chunk issued under the
    /// [`CoalesceHint`](crate::workload::CoalesceHint) contract: only
    /// those route `exec_mem` through the steady-rate cache (the probe
    /// just verified and memoized the rate, so every lookup hits).
    /// Grid-sized chunks keep the plain lean integrator — under
    /// contention the memo key churns every chunk, so probing it there
    /// would be pure overhead.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_chunk(
        &mut self,
        vid: VcpuId,
        vm: usize,
        slot: usize,
        socket: usize,
        budget: u64,
        t0: SimTime,
        coalesced: bool,
    ) -> crate::workload::RunOutcome {
        let super::Hypervisor {
            vcpus,
            llcs,
            machine,
            ..
        } = &mut self.hv;
        let v = &mut vcpus[vid.index()];
        let integrator = match (self.time_mode, coalesced) {
            (TimeMode::Dense, _) => Integrator::Dense,
            (TimeMode::Adaptive, false) => Integrator::Lean,
            (TimeMode::Adaptive, true) => Integrator::Cached(&mut self.rate_cache),
        };
        let mut ctx = ExecContext {
            now: t0,
            spec: &machine.cache,
            llc: &mut llcs[socket],
            pmu: &mut v.pmu,
            l2_warmth: &mut v.l2_warmth,
            owner: vid.index(),
            running_slots: &self.vm_running[vm],
            integrator,
        };
        let mut out = self.workloads[vm].run(slot, budget, &mut ctx);
        debug_assert!(
            out.used_ns <= budget,
            "workload '{}' overran its budget",
            self.workloads[vm].name()
        );
        out.used_ns = out.used_ns.min(budget);
        out
    }
}
