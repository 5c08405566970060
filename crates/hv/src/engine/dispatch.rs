//! The context-switch layer: preemption, quantum enforcement, and the
//! unified [`DispatchDecision`] path.
//!
//! Every context switch in the simulator — under native Xen, the
//! baselines and AQL_Sched alike — flows through
//! [`Simulation::try_dispatch`]: a decision is *formed* by
//! `next_decision` (which vCPU, from where, for how long) and then
//! *applied* by `apply_decision`. Policies influence decisions only
//! through configuration (pool quanta, per-vCPU overrides, kick
//! periods), never through private dispatch paths, so measured
//! differences between policies are attributable to policy alone.

use aql_sim::time::SimTime;

use super::Simulation;
use crate::ids::{PcpuId, VcpuId};
use crate::vm::{Prio, VcpuState};

/// Where a dispatched vCPU was taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchSource {
    /// The pCPU's own run queue.
    LocalQueue,
    /// Stolen from a pool peer's run queue (idle stealing).
    Stolen {
        /// The pCPU the vCPU was stolen from.
        victim: PcpuId,
    },
}

/// One scheduling decision of the dispatch layer.
///
/// The slice length is resolved here — per-vCPU override, else the
/// pool quantum, else the remainder of an involuntarily-preempted
/// slice — so the quantum a vCPU actually receives is decided in
/// exactly one place for every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchDecision {
    /// The pCPU being filled.
    pub pcpu: PcpuId,
    /// The vCPU chosen to run.
    pub vcpu: VcpuId,
    /// The priority class the vCPU was queued with.
    pub prio: Prio,
    /// The slice granted, in nanoseconds.
    pub slice_ns: u64,
    /// Whether the slice resumes an involuntarily-preempted one
    /// (rather than granting a fresh quantum).
    pub resumed: bool,
    /// Where the vCPU came from.
    pub source: DispatchSource,
}

impl Simulation {
    /// Applies pending preemptions and fills idle pCPUs that can
    /// dispatch (a failed attempt changes no state, so the others are
    /// skipped in O(1)).
    pub(super) fn resched_all(&mut self) {
        for pi in 0..self.hv.pcpus.len() {
            if self.hv.pcpus[pi].force_resched {
                self.hv.pcpus[pi].force_resched = false;
                if let Some(rv) = self.hv.pcpus[pi].running {
                    let wrong_pool = self.hv.vcpus[rv.index()].pool != self.hv.pcpus[pi].pool;
                    let parked = self.hv.vcpus[rv.index()].parked;
                    let better_waiter = self.hv.pcpus[pi]
                        .queue()
                        .best_class()
                        .is_some_and(|c| c < self.hv.vcpus[rv.index()].prio);
                    if wrong_pool || parked || better_waiter {
                        self.preempt(pi, rv, false);
                    }
                }
            }
            // vSlicer differentiated frequency: a queued vCPU whose
            // kick period elapsed preempts the running vCPU and runs
            // next (its own slice is the short override).
            if let Some(rv) = self.hv.pcpus[pi].running {
                let due = self.hv.pcpus[pi].queue().iter().find(|v| {
                    let vc = &self.hv.vcpus[v.index()];
                    vc.kick_period_ns
                        .is_some_and(|p| self.now.saturating_since(vc.last_desched) >= p)
                });
                if let Some(due) = due {
                    if due != rv && self.hv.vcpus[rv.index()].kick_period_ns.is_none() {
                        // Preempt first (the victim head-requeues), then
                        // put the due vCPU in front so it runs next.
                        self.preempt(pi, rv, false);
                        let v = &self.hv.vcpus[due.index()];
                        let (prio, pinned) = (v.prio, v.pinned.is_some());
                        self.hv.with_queue(pi, |q| {
                            q.remove(due);
                            q.push_head(prio, due, pinned);
                        });
                    }
                }
            }
            if self.hv.pcpus[pi].running.is_none() && self.hv.idle_can_dispatch(pi) {
                self.try_dispatch(pi, self.now);
            }
        }
    }

    /// Takes the running `vcpu` off `pcpu`, the state updates every
    /// deschedule shares: the vCPU moves to `state`, records whether
    /// its slice was `exhausted` (BOOST eligibility on the next wake)
    /// and the slice to resume, and a BOOSTed vCPU drops to UNDER.
    /// Returns the vCPU's priority after that drop.
    fn deschedule(
        &mut self,
        pcpu: usize,
        vcpu: VcpuId,
        state: VcpuState,
        exhausted: bool,
        resume_slice_ns: Option<u64>,
    ) -> Prio {
        debug_assert_eq!(self.hv.pcpus[pcpu].running, Some(vcpu));
        self.hv.pcpus[pcpu].running = None;
        let v = &mut self.hv.vcpus[vcpu.index()];
        v.state = state;
        v.last_slice_exhausted = exhausted;
        v.last_desched = self.now;
        v.resume_slice_ns = resume_slice_ns;
        if v.prio == Prio::Boost {
            v.prio = Prio::Under;
        }
        self.vm_running[v.vm.index()][v.slot] = false;
        v.prio
    }

    /// Preempts the running vCPU. `exhausted` marks quantum expiry
    /// (affecting BOOST eligibility on the next wake).
    pub(super) fn preempt(&mut self, pcpu: usize, vcpu: VcpuId, exhausted: bool) {
        // An involuntarily preempted vCPU resumes its remaining slice
        // later; granting a fresh quantum every time would let a
        // head-requeued victim monopolise the queue.
        let resume = (!exhausted).then(|| {
            let slice_end = self.hv.vcpus[vcpu.index()].slice_end;
            slice_end.saturating_since(self.now).max(100_000)
        });
        let prio = self.deschedule(pcpu, vcpu, VcpuState::Runnable, exhausted, resume);
        // Parked vCPUs (capped VM out of credit) stay off the queues
        // until the next refill unparks them.
        if self.hv.vcpus[vcpu.index()].parked {
            return;
        }
        // Expired slices requeue at the tail; involuntary preemptions
        // resume at the head of their class.
        self.hv.enqueue(vcpu, prio, !exhausted, false);
    }

    /// Blocks the running vCPU (no runnable work).
    pub(super) fn block(&mut self, pcpu: usize, vcpu: VcpuId) {
        self.deschedule(pcpu, vcpu, VcpuState::Blocked, false, None);
        // Re-arm the timer: the workload's next wake-up may have moved.
        self.arm_timer(vcpu.index());
    }

    /// Voluntary yield: requeue at the tail, stay runnable.
    pub(super) fn yield_requeue(&mut self, pcpu: usize, vcpu: VcpuId) {
        let prio = self.deschedule(pcpu, vcpu, VcpuState::Runnable, false, None);
        self.hv.enqueue(vcpu, prio, false, false);
    }

    /// Dispatches the best available vCPU onto an idle pCPU, stealing
    /// from pool peers when the local queue is empty. Returns whether
    /// something ran.
    pub(super) fn try_dispatch(&mut self, pcpu: usize, t: SimTime) -> bool {
        let Some(decision) = self.next_decision(pcpu) else {
            return false;
        };
        self.apply_decision(decision, t);
        true
    }

    /// Forms the next dispatch decision for an idle pCPU: picks the
    /// best local vCPU (falling back to idle stealing) and resolves
    /// the slice it will receive. Returns `None` when no runnable work
    /// exists anywhere in the pool.
    ///
    /// The picked vCPU is popped from its queue, so a returned
    /// decision must be passed to `apply_decision`.
    fn next_decision(&mut self, pcpu: usize) -> Option<DispatchDecision> {
        debug_assert!(self.hv.pcpus[pcpu].running.is_none());
        let ((vid, prio), source) = match self.hv.with_queue(pcpu, |q| q.pop_best()) {
            Some(entry) => (entry, DispatchSource::LocalQueue),
            None => {
                let (entry, victim) = self.steal_from_peer(pcpu)?;
                (entry, DispatchSource::Stolen { victim })
            }
        };
        let quantum = self.hv.quantum_for(vid);
        let v = &mut self.hv.vcpus[vid.index()];
        let resumed = v.resume_slice_ns.is_some();
        let slice_ns = v.resume_slice_ns.take().unwrap_or(quantum);
        Some(DispatchDecision {
            pcpu: PcpuId(pcpu),
            vcpu: vid,
            prio,
            slice_ns,
            resumed,
            source,
        })
    }

    /// Applies a dispatch decision: puts the vCPU on the pCPU for a
    /// slice starting at `t`, then notifies the trace log and the
    /// policy's [`on_dispatch`](crate::policy::SchedPolicy::on_dispatch)
    /// hook.
    fn apply_decision(&mut self, decision: DispatchDecision, t: SimTime) {
        let pcpu = decision.pcpu.index();
        let vid = decision.vcpu;
        let (vm, slot) = {
            let v = &mut self.hv.vcpus[vid.index()];
            debug_assert_eq!(v.state, VcpuState::Runnable);
            v.state = VcpuState::Running;
            v.slice_end = t + decision.slice_ns;
            v.affine_pcpu = decision.pcpu;
            (v.vm.index(), v.slot)
        };
        // Private-cache cooling: a different vCPU ran here in between.
        if self.hv.pcpus[pcpu].last_vcpu != Some(vid) {
            self.hv.vcpus[vid.index()].l2_warmth = 0.0;
        }
        self.hv.pcpus[pcpu].last_vcpu = Some(vid);
        self.hv.pcpus[pcpu].running = Some(vid);
        self.vm_running[vm][slot] = true;
        self.trace.emit(t, || {
            let src = match decision.source {
                DispatchSource::LocalQueue => String::new(),
                DispatchSource::Stolen { victim } => format!(", stolen from {victim}"),
            };
            let kind = if decision.resumed { "resume" } else { "slice" };
            format!(
                "{} <- {} ({:?}, {kind} {}ns{src})",
                decision.pcpu, decision.vcpu, decision.prio, decision.slice_ns
            )
        });
        self.policy.on_dispatch(&self.hv, &decision, t);
    }
}
