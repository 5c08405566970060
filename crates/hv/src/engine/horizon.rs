//! The adaptive time-advance core (`TimeMode::Adaptive`).
//!
//! Between events the dense loop visits every sub-step grid point and
//! re-derives the full scheduler state — event-queue peeks, pending
//! preemptions, kick deadlines, idle-pCPU dispatch and steal scans —
//! even across long spans where provably none of it can matter. This
//! module plans those spans explicitly and leaps over the dead work.
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
//! idle pCPU has local or stealable pool work: dense's dispatch attempt
//! then fails without a state change, and skipping idle pCPUs is exact.
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
//! speed. A broken *coalesce* contract — unreachable for the in-tree
//! workloads, reachable on purpose through fault injection — is
//! counted ([`Simulation::coalesce_break_count`]), traced, and
//! likewise completed through the dense continuation at span scale.

use aql_sim::time::{whole_steps, SimTime};

use super::{Simulation, TimeMode};
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
    /// The adaptive run loop. Event handling, rescheduling and the
    /// generic sub-step are shared with the dense loop; the only
    /// addition is the quiescent-span fast-forward between them.
    pub(super) fn run_until_adaptive(&mut self, end: SimTime) {
        debug_assert_eq!(self.time_mode, TimeMode::Adaptive);
        // A previous call's failed plan may have been bounded by that
        // call's `end`; this call can see further.
        self.scratch.failed_plan_gen = None;
        while self.now < end {
            // 0. A tripped run budget aborts mid-run (identical to
            // dense): return, never `break` — the epilogue would
            // falsify the clock.
            if self.budget_stop() {
                return;
            }
            // 1. Process all events due now (identical to dense).
            while self
                .queue
                .peek_time()
                .is_some_and(|t| t <= self.now && t <= end)
            {
                let (t, ev) = self.queue.pop().expect("peeked");
                debug_assert!(t <= self.now);
                self.handle_event(ev);
            }
            // 2. Repair scheduling decisions (identical to dense).
            self.resched_all();
            // 3. Plan the advance.
            let t_next = self.queue.peek_time().map_or(end, |t| t.min(end));
            if t_next <= self.now {
                if self.queue.peek_time().is_some_and(|t| t <= self.now) {
                    continue;
                }
                break;
            }
            if !self.hv.pcpus.iter().any(|p| p.running.is_some()) {
                // Machine fully idle: leap to the next event, exactly
                // as the dense loop does.
                self.now = t_next;
                continue;
            }
            // A plan that failed can only start succeeding after the
            // scheduling state moves: slices end, kick deadlines pass
            // and IO queues drain all *via* a dispatch/block/preempt or
            // an event, each of which bumps `sched_gen`. So a failed
            // plan is memoized against the generation instead of being
            // recomputed every sub-step of a short-quantum regime.
            if self.scratch.failed_plan_gen != Some(self.sched_gen) {
                let span_end = self.quiescent_until(t_next);
                if whole_steps(self.now, span_end, self.substep_ns) >= MIN_FAST_STEPS {
                    self.fast_forward(span_end);
                    // Re-derive everything at the new grid point: the
                    // dense loop performs the same event drain and
                    // resched there (both provably no-ops unless the
                    // span aborted).
                    continue;
                }
                self.scratch.failed_plan_gen = Some(self.sched_gen);
            }
            // 4. Not quiescent for long enough: one generic sub-step.
            // `advance_all_adaptive` advances the same state the dense
            // `advance_all` would — it only skips idle pCPUs whose
            // dispatch attempt provably fails.
            let span = t_next - self.now;
            let dt = span.min(self.substep_ns);
            self.advance_all_adaptive(dt);
            self.now += dt;
        }
        self.now = end;
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
                if self.idle_can_dispatch(pi) {
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
                for w in self.hv.pcpus[pi].queue.iter() {
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

    /// The adaptive twin of [`Simulation::advance_all`]: advances every
    /// pCPU whose sub-step can matter and skips idle pCPUs whose
    /// dispatch attempt provably fails ([`Simulation::idle_can_dispatch`]).
    /// The skip is exact: a failed `try_dispatch` performs no state
    /// change, and the pool flags are trusted only while `sched_gen`
    /// stands still (any block/yield/preempt/dispatch inside this
    /// sub-step bumps it, and the remaining pCPUs then take the full
    /// path). The dense loop, the oracle, keeps the exhaustive scan.
    fn advance_all_adaptive(&mut self, dt: u64) {
        let gen0 = self.sched_gen;
        for pi in 0..self.hv.pcpus.len() {
            if self.sched_gen == gen0
                && self.hv.pcpus[pi].running.is_none()
                && !self.idle_can_dispatch(pi)
            {
                continue;
            }
            self.advance_pcpu_from(pi, 0, dt, 0);
        }
    }

    /// Whether the dispatch attempt of idle pCPU `pi` would succeed: its
    /// own queue holds work, or its pool holds stealable work.
    fn idle_can_dispatch(&mut self, pi: usize) -> bool {
        if !self.hv.pcpus[pi].queue.is_empty() {
            return true;
        }
        self.refresh_pool_stealable();
        self.scratch.pool_stealable[self.hv.pcpus[pi].pool.index()]
    }

    /// Recomputes the per-pool "any stealable queued work" flags unless
    /// `sched_gen` stood still since the last refresh: they are a pure
    /// function of queue contents, which only change when the
    /// generation moves, so consecutive quiet sub-steps reuse them.
    fn refresh_pool_stealable(&mut self) {
        if self.scratch.pool_stealable_gen == Some(self.sched_gen) {
            return;
        }
        let hv = &self.hv;
        let flags = &mut self.scratch.pool_stealable;
        flags.clear();
        flags.resize(hv.pools.len(), false);
        for p in &hv.pcpus {
            let n = if hv.pinned_vcpus > 0 {
                p.queue
                    .stealable_len_where(|v| hv.vcpus[v.index()].pinned.is_none())
            } else {
                p.queue.stealable_len()
            };
            flags[p.pool.index()] |= n > 0;
        }
        self.scratch.pool_stealable_gen = Some(self.sched_gen);
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
