//! The adaptive time-advance core: step 5 of
//! [`Simulation::run_until`], taken in `TimeMode::Adaptive` only.
//!
//! Between events the run loop's generic sub-step visits every grid
//! point and re-derives the full scheduler state — event-queue peeks,
//! pending preemptions, kick deadlines, idle-pCPU dispatch checks —
//! even across long spans where provably none of it can matter.
//! `fast_forward_to` plans such a span and leaps over the dead work;
//! when no span of [`MIN_FAST_STEPS`] sub-steps fits it changes
//! nothing and the loop takes its generic sub-step. The dense oracle
//! is the same loop without this step.
//!
//! # The quiescent-span argument
//!
//! After the event drain and [`Simulation::resched_all`] have run at
//! the current instant, nothing scheduler-visible can happen strictly
//! before
//!
//! ```text
//! span_end = min( next queued event,
//!                 running vCPUs' slice_end,
//!                 queued kick deadlines (vSlicer differentiated frequency),
//!                 running workloads' horizons )
//! ```
//!
//! because every state change the dense loop can perform between grid
//! points originates from one of those four sources: events are the
//! only wake/parking/accounting triggers; a dispatch needs an expired
//! slice, a kick, or a workload that blocked or yielded; and the
//! workload [`Horizon`] contract promises no block/yield before its
//! instant. Nothing enqueues inside the span, but work queued before it
//! (a vCPU a later pCPU preempted in `resched_all`) lets an idle pCPU
//! steal at dense's next grid point, so a span is planned only when no
//! idle pCPU can dispatch: none has local work or movable work in its
//! pool (`Hypervisor::idle_can_dispatch`, an O(1) read of exact
//! run-queue counts). Such a pCPU's dispatch attempt fails without a
//! state change, so skipping it is exact; both time modes skip it the
//! same way in `resched_all` and `advance_all`.
//!
//! # The conformance contract against the dense oracle
//!
//! On the *grid path* the fast-forward loop advances the same sub-step
//! grid the dense loop would walk and hands every running workload the
//! same sequence of execution chunks (`run` calls with the same
//! budgets at the same instants, in the same pCPU order), so
//! floating-point state follows the exact same trajectory. CPU-time
//! accounting is batched per span, but those accumulators are `u64`s:
//! integer addition is associative, so batching cannot change a single
//! bit. The grid path executes through [`aql_mem::exec_step_lean`],
//! the dense oracle through [`aql_mem::exec_step`]: one integrator
//! loop that differs only in its LLC eviction kernel, and the two
//! kernels are bit-identical by property test.
//!
//! **Chunk coalescing** deliberately relaxes bitwise equality to a
//! quantified tolerance. When every running slot signs the linear
//! contract ([`CoalesceHint`]) — pure-rate execution at the snapped
//! memory fixpoint ([`aql_mem::steady_rate`]), no scheduler-visible
//! act, no shared-state mutation, no shared-RNG draw — the engine
//! issues one `run` call per slot for the remaining span instead of
//! one per grid point. Everything discrete stays exact: `u64` CPU
//! accounting, event and timer delivery, dispatch order, PLE counts,
//! latency stamps. What moves are the low-order bits of f64
//! *accumulators* (workload metric sums, PMU counters, saturating
//! freshness touches): one whole-span sum instead of per-grid-point
//! sums, plus the snapped sub-epsilon cache traffic the fixpoint
//! omits. The conformance suite (`tests/coalesce_conformance.rs`)
//! bounds the drift at 1e-6 relative per VM metric against the dense
//! oracle, and the committed rendered goldens must stay byte-identical
//! — the rounding in every rendered artifact absorbs the drift.
//!
//! A workload that breaks its horizon promise (returns early, blocks,
//! yields) is detected on the spot: the engine finishes that sub-step
//! through the dense [`Simulation::advance_pcpu_from`] continuation —
//! the exact code the dense loop would have run — and abandons the
//! span, so even a lying horizon cannot cause divergence, only lost
//! speed. Each such grid window is counted
//! ([`Simulation::horizon_break_count`]). A broken *coalesce* contract
//! — unreachable for the in-tree workloads, reachable on purpose
//! through fault injection — is counted
//! ([`Simulation::coalesce_break_count`]), traced, and likewise
//! completed through the dense continuation at span scale.

use aql_sim::time::{whole_steps, SimTime};

use super::Simulation;
use crate::ids::PcpuId;
use crate::vm::VcpuState;
use crate::workload::{CoalesceHint, CoalesceProbe, Horizon, StopReason};

/// Smallest quiescent span (in sub-steps) worth fast-forwarding.
/// Below this, planning a span (slot hoisting, accounting flush) costs
/// more than the skipped scheduler work, so the engine just takes
/// generic dense sub-steps — which mode is chosen per sub-step is
/// invisible in the results, so this is purely a tuning knob.
const MIN_FAST_STEPS: u64 = 3;

/// Per-busy-pCPU execution state hoisted once per quiescent span, so
/// the per-sub-step fast path re-derives nothing.
#[derive(Debug, Clone, Copy)]
pub(super) struct FastSlot {
    pcpu: usize,
    vid: crate::ids::VcpuId,
    vm: usize,
    slot: usize,
    socket: usize,
    /// CPU time accumulated by this slot during the span (flushed into
    /// the u64 accounting fields at span exit).
    acc_ns: u64,
}

impl Simulation {
    /// Fast-forwards the quiescent span that starts now and ends before
    /// `t_next` (the next queued event, or the run's end) when at least
    /// [`MIN_FAST_STEPS`] whole sub-steps fit; otherwise returns `false`
    /// without changing anything, and the run loop takes its generic
    /// sub-step. Called right after the event drain, `resched_all` and
    /// the idle leap, which is what makes the plan sound.
    pub(super) fn fast_forward_to(&mut self, t_next: SimTime) -> bool {
        let span_end = self.quiescent_until(t_next);
        if whole_steps(self.now, span_end, self.substep_ns) < MIN_FAST_STEPS {
            return false;
        }
        self.fast_forward(span_end);
        true
    }

    /// The earliest instant anything scheduler-visible can happen, at
    /// most `t_next` (the next queued event). Called immediately after
    /// the event drain and `resched_all`, which is what makes the
    /// bound sound — see the module docs.
    ///
    /// Bails to `self.now` ("not worth it") as soon as the bound drops
    /// below [`MIN_FAST_STEPS`] sub-steps, so short-quantum regimes
    /// (microsliced slices, dense vSlicer kick deadlines) pay a scan of
    /// at most a few pCPUs per sub-step, not a full machine scan. Also
    /// bails on an idle pCPU that can dispatch (dense's next grid point).
    fn quiescent_until(&mut self, t_next: SimTime) -> SimTime {
        let floor = self.now + MIN_FAST_STEPS * self.substep_ns;
        if t_next < floor {
            return self.now;
        }
        let mut span_end = t_next;
        for pi in 0..self.hv.pcpus.len() {
            let Some(rv) = self.hv.pcpus[pi].running else {
                if self.hv.idle_can_dispatch(pi) {
                    return self.now;
                }
                continue;
            };
            let v = &self.hv.vcpus[rv.index()];
            // Slice expiry is a dispatch point.
            span_end = span_end.min(v.slice_end);
            if span_end < floor {
                return self.now;
            }
            // The workload's own promise.
            match self.workloads[v.vm.index()].horizon(v.slot, self.now) {
                Horizon::Unknown => return self.now,
                Horizon::At(t) => span_end = span_end.min(t),
                Horizon::Never => {}
            }
            if span_end < floor {
                return self.now;
            }
            // vSlicer differentiated frequency: a queued vCPU whose
            // kick period elapses preempts a kickless runner.
            if v.kick_period_ns.is_none() {
                for w in self.hv.pcpus[pi].queue().iter() {
                    let wc = &self.hv.vcpus[w.index()];
                    if let Some(p) = wc.kick_period_ns {
                        span_end = span_end.min(wc.last_desched + p);
                    }
                }
                if span_end < floor {
                    return self.now;
                }
            }
        }
        span_end
    }

    /// Fast-forwards whole sub-steps across a proven-quiescent span:
    /// per grid point, one execution chunk per busy pCPU (in pCPU
    /// order, exactly like `advance_all`) and nothing else, or one
    /// coalesced chunk per busy pCPU for many grid points at once.
    /// Exits at the last grid point before `span_end`, or after the
    /// first window in which a workload deviated from its promise
    /// (that window is completed densely before returning).
    fn fast_forward(&mut self, span_end: SimTime) {
        let dt = self.substep_ns;
        let mut slots = std::mem::take(&mut self.scratch.fast_slots);
        slots.clear();
        for pi in 0..self.hv.pcpus.len() {
            if let Some(vid) = self.hv.pcpus[pi].running {
                let v = &self.hv.vcpus[vid.index()];
                debug_assert_eq!(v.state, VcpuState::Running);
                slots.push(FastSlot {
                    pcpu: pi,
                    vid,
                    vm: v.vm.index(),
                    slot: v.slot,
                    socket: self.hv.machine.socket_of(PcpuId(pi)).index(),
                    acc_ns: 0,
                });
            }
        }
        let mut steps = whole_steps(self.now, span_end, dt);
        debug_assert!(steps > 0, "caller checked the span fits a sub-step");
        // Chunk-coalescing probe cadence. A failed probe (some slot not
        // linear yet — typically rewarming its private L2 after a
        // dispatch) is retried with exponential backoff instead of
        // never: warm-up completes *inside* long spans, and the probe
        // then coalesces the warm tail. The backoff saturates at 64
        // steps, so a span that never turns linear pays O(log steps)
        // probes up front and then at most one per 64 grid steps
        // (~1.5 % overhead) — the cap bounds how much of a late warm
        // tail can be missed, which matters more than shaving the last
        // probes off hopeless spans.
        let mut probe_in: u64 = 0;
        let mut probe_backoff: u64 = 1;
        while steps > 0 {
            // Chunk coalescing: when every running slot signs the
            // linear contract (pure-rate execution at the memory
            // fixpoint, no scheduler-visible act, no shared state), the
            // dense chunk grid is redundant — one `run_chunk` per slot
            // covers the rest of the span. Results differ from the
            // dense sequence only in the f64 summation order of
            // accumulated metrics; every u64 account and every event is
            // exact (the tolerance conformance suite and the rendered
            // goldens pin this).
            let mut k = 1;
            if self.coalesce && steps >= 2 && probe_in == 0 {
                match self.coalescible_steps(&slots, steps, dt) {
                    Some(n) => k = n,
                    None => {
                        probe_in = probe_backoff;
                        probe_backoff = (probe_backoff * 2).min(64);
                    }
                }
            }
            // After a coalesced window the tail re-probes immediately: a
            // slot's linear window may have capped `k` (phase boundary).
            if k == 1 {
                probe_in = probe_in.saturating_sub(1);
            }
            if !self.run_window(&mut slots, k * dt, k > 1) {
                break;
            }
            steps -= k;
        }
        self.flush_fast_accounting(&mut slots);
        self.scratch.fast_slots = slots;
    }

    /// Runs one `window`-ns chunk per busy slot, in pCPU order, and
    /// advances the clock past it: a single grid sub-step, or a whole
    /// coalesced span (`coalesced`, issued under the linear contract).
    ///
    /// Returns `false` when a slot deviated from its promise — a
    /// broken horizon on the grid, a broken linear contract when
    /// coalesced. The window is then finished densely from the
    /// deviation and `slots` is emptied; the caller abandons the span.
    fn run_window(&mut self, slots: &mut Vec<FastSlot>, window: u64, coalesced: bool) -> bool {
        for i in 0..slots.len() {
            let s = slots[i];
            // The span proof guarantees the slice outlives the window.
            debug_assert!(
                self.hv.vcpus[s.vid.index()]
                    .slice_end
                    .saturating_since(self.now)
                    >= window
            );
            let out = self.run_chunk(s.vid, s.vm, s.slot, s.socket, window, self.now, coalesced);
            if out.used_ns == window && out.stop == StopReason::BudgetExhausted {
                slots[i].acc_ns += window;
                continue;
            }
            if coalesced {
                // A linear hint lied. In-tree workloads never do this;
                // fault injection (`coalesce-break`) does it on
                // purpose. Count it and say so; the recovery is the
                // broken-horizon one.
                self.contract_breaks += 1;
                self.trace.emit(self.now, || {
                    format!(
                        "coalesce contract broken by vm {} slot {}; recovering densely",
                        s.vm, s.slot
                    )
                });
            } else {
                self.horizon_breaks += 1;
            }
            // Flush the span accounting, replay the dense stop-reason
            // handling for this chunk and finish the window densely for
            // this pCPU and every later one. On a grid window that is
            // byte-for-byte what the dense loop would have done.
            slots[i].acc_ns += out.used_ns;
            self.flush_fast_accounting(slots);
            match out.stop {
                StopReason::BudgetExhausted => {}
                StopReason::Blocked => self.block(s.pcpu, s.vid),
                StopReason::Yielded => self.yield_requeue(s.pcpu, s.vid),
            }
            let spins = u32::from(out.used_ns == 0);
            self.advance_pcpu_from(s.pcpu, out.used_ns, window, spins);
            for pj in (s.pcpu + 1)..self.hv.pcpus.len() {
                self.advance_pcpu_from(pj, 0, window, 0);
            }
            self.now += window;
            slots.clear();
            return false;
        }
        self.now += window;
        true
    }

    /// How many of the span's `steps` grid steps may be coalesced into
    /// a single execution chunk per slot: `None` unless **every**
    /// running slot signs the linear contract ([`CoalesceHint`]) for at
    /// least two whole steps, else the largest whole-step count every
    /// slot's linear window covers.
    fn coalescible_steps(&mut self, slots: &[FastSlot], steps: u64, dt: u64) -> Option<u64> {
        let mut k = steps;
        for s in slots {
            let mut probe = CoalesceProbe {
                spec: &self.hv.machine.cache,
                llc: &self.hv.llcs[s.socket],
                l2_warmth: self.hv.vcpus[s.vid.index()].l2_warmth,
                owner: s.vid.index(),
                running_slots: &self.vm_running[s.vm],
                rate_cache: &mut self.rate_cache,
            };
            match self.workloads[s.vm].coalesce(s.slot, &mut probe) {
                CoalesceHint::No => return None,
                CoalesceHint::LinearFor(cpu_ns) => {
                    k = k.min(cpu_ns / dt);
                    if k < 2 {
                        return None;
                    }
                }
            }
        }
        Some(k)
    }

    /// Credits each slot's span-accumulated CPU time to the vCPU and
    /// pCPU accounting fields, consuming the accumulators. All of them
    /// are `u64`s, so crediting per span instead of per chunk is exact.
    fn flush_fast_accounting(&mut self, slots: &mut [FastSlot]) {
        for s in slots {
            if s.acc_ns == 0 {
                continue;
            }
            let v = &mut self.hv.vcpus[s.vid.index()];
            v.cpu_ns += s.acc_ns;
            v.unbilled_ns += s.acc_ns;
            v.pmu.add_ran_ns(s.acc_ns);
            self.hv.pcpus[s.pcpu].busy_ns += s.acc_ns;
            s.acc_ns = 0;
        }
    }
}
