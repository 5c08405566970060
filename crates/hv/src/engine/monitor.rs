//! Periodic event handling: credit ticks, PMU monitoring periods and
//! guest timers.
//!
//! The monitoring period is the paper's 30 ms sampling boundary: every
//! vCPU's PMU counters are snapshot into `Vcpu::last_sample` and the
//! policy's [`on_monitor`](crate::policy::SchedPolicy::on_monitor)
//! hook runs — for every policy, through this single path.

use aql_sim::time::SimTime;

use super::{Event, Simulation};
use crate::ids::VcpuId;
use crate::sched::{burn_credits, refill_credits};
use crate::vm::{Prio, VcpuState};
use crate::{ACCT_TICKS, MONITOR_PERIOD_NS, TICK_NS};

impl Simulation {
    /// Dispatches one engine event.
    pub(super) fn handle_event(&mut self, ev: Event) {
        self.sched_gen += 1;
        match ev {
            Event::Tick => self.handle_tick(),
            Event::Monitor => self.handle_monitor(),
            Event::GuestTimer { vcpu, gen } => self.handle_guest_timer(vcpu, gen),
        }
    }

    /// The 10 ms credit tick: burn credits, demote running BOOST
    /// vCPUs, and every [`ACCT_TICKS`] ticks run the accounting pass
    /// (credit refill + cap parking).
    fn handle_tick(&mut self) {
        self.tick_count += 1;
        for v in &mut self.hv.vcpus {
            burn_credits(v);
        }
        // Xen demotes a running BOOST vCPU at the tick.
        for pi in 0..self.hv.pcpus.len() {
            if let Some(rv) = self.hv.pcpus[pi].running {
                let v = &mut self.hv.vcpus[rv.index()];
                if v.prio == Prio::Boost {
                    v.prio = Prio::Under;
                }
            }
        }
        if self.tick_count.is_multiple_of(ACCT_TICKS) {
            refill_credits(&mut self.hv.vcpus, &self.hv.vms, &self.hv.pools);
            self.update_parking();
        }
        self.queue.push(self.now + TICK_NS, Event::Tick);
    }

    /// The 30 ms monitoring period: snapshot every vCPU's PMU counters
    /// into `Vcpu::last_sample`, run the policy's `on_monitor` hook,
    /// then rebalance run queues within each pool.
    fn handle_monitor(&mut self) {
        for v in &mut self.hv.vcpus {
            v.last_sample = v.pmu.snapshot_and_reset(MONITOR_PERIOD_NS);
        }
        self.policy.on_monitor(&mut self.hv, self.now);
        self.rebalance_pools();
        self.queue
            .push(self.now + MONITOR_PERIOD_NS, Event::Monitor);
    }

    /// A guest timer fired (unless stale): deliver it to the workload,
    /// account IO events, wake the vCPU if requested and re-arm.
    fn handle_guest_timer(&mut self, vcpu: usize, gen: u64) {
        if self.hv.vcpus[vcpu].timer_gen != gen {
            return; // Stale timer.
        }
        let (vm, slot) = {
            let v = &self.hv.vcpus[vcpu];
            (v.vm.index(), v.slot)
        };
        let fire = self.workloads[vm].on_timer(slot, self.now);
        if fire.io_events > 0 {
            self.hv.vcpus[vcpu].pmu.add_io_events(fire.io_events);
        }
        if fire.wake {
            self.hv.wake(VcpuId(vcpu));
        }
        self.arm_timer(vcpu);
    }

    /// Re-arms the guest timer for a vCPU from its workload's
    /// `next_timer`, invalidating any previously queued timer.
    pub(super) fn arm_timer(&mut self, vcpu: usize) {
        let (vm, slot) = {
            let v = &self.hv.vcpus[vcpu];
            (v.vm.index(), v.slot)
        };
        let v = &mut self.hv.vcpus[vcpu];
        v.timer_gen += 1;
        if let Some(t) = self.workloads[vm].next_timer(slot) {
            let gen = v.timer_gen;
            let when = if t <= self.now {
                SimTime(self.now.as_ns() + 1)
            } else {
                t
            };
            self.queue.push(when, Event::GuestTimer { vcpu, gen });
        }
    }

    /// Parks and unparks capped VMs' vCPUs, as Xen's `csched_acct`
    /// does: a capped VM whose credits are exhausted is taken off the
    /// run queues until the next refill brings it back above zero —
    /// this is what makes `cap` bind even on an idle machine.
    fn update_parking(&mut self) {
        for vi in 0..self.hv.vcpus.len() {
            let vm = self.hv.vcpus[vi].vm;
            if self.hv.vms[vm.index()].spec.cap_pct.is_none() {
                continue;
            }
            let (parked, credit, state) = {
                let v = &self.hv.vcpus[vi];
                (v.parked, v.credit, v.state)
            };
            if !parked && credit <= 0.0 {
                self.hv.vcpus[vi].parked = true;
                // Remove from any queue; preempt if running.
                let vid = VcpuId(vi);
                for p in 0..self.hv.pcpus.len() {
                    self.hv.with_queue(p, |q| q.remove(vid));
                    if self.hv.pcpus[p].running == Some(vid) {
                        self.hv.pcpus[p].force_resched = true;
                    }
                }
            } else if parked && credit > 0.0 {
                self.hv.vcpus[vi].parked = false;
                if state == VcpuState::Runnable {
                    let prio = self.hv.vcpus[vi].prio;
                    self.hv.enqueue(VcpuId(vi), prio, false, false);
                }
            }
        }
    }
}
