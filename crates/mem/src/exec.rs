//! The execution-speed law and its integrator.
//!
//! Given a [`MemProfile`], the live LLC state and the vCPU's private-L2
//! warmth, an execution step advances a workload by a time budget and
//! reports retired instructions and LLC traffic. Speed follows a
//! straightforward additive latency model:
//!
//! ```text
//! ns/instr = base
//!          + deep_refs * [ h2 * t_l2
//!                        + (1 - h2) * ( h3 * t_llc + (1 - h3) * t_mem ) ]
//! ```
//!
//! where `h2` is the private-L2 hit probability (capacity law times
//! warmth) and `h3` the LLC hit probability (resident footprint over
//! working set, uniform re-reference). Misses fetch lines, growing the
//! footprint — so a cold LLCF phase starts slow and accelerates as it
//! refills, which is exactly the cost short quanta keep re-paying.
//!
//! The law is written once (`Law::at`) and integrated by one loop in
//! frozen-rate sub-steps. The three entry points differ only in what
//! that loop is compiled with:
//!
//! * [`exec_step`] evicts through the reference [`LlcState::insert`];
//!   the dense conformance oracle uses it.
//! * [`exec_step_lean`] evicts through [`LlcState::insert_lean`],
//!   which is bit-identical to `insert`; the adaptive grid path uses it.
//! * [`exec_step_cached`] is the lean loop with a steady-rate fast path
//!   (see [`crate::rate`]): a [`RateCache`] hit answers the whole
//!   budget at the cached rate, and otherwise the first sub-step found
//!   at the fixpoint answers the rest of the budget and fills the memo.
//!   Coalesced spans use it.

use crate::llc::LlcState;
use crate::profile::MemProfile;
use crate::rate::{rate_key, RateCache, SteadyRate, NEGLIGIBLE_MISS_RATE};
use crate::spec::CacheSpec;

/// What happened during one execution step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecOutcome {
    /// Instructions retired (fractional).
    pub instructions: f64,
    /// References that reached the LLC (PMU "LLC references").
    pub llc_refs: f64,
    /// References that missed the LLC (PMU "LLC misses").
    pub llc_misses: f64,
}

/// Maximum fraction of the working set fetched per internal sub-step;
/// bounds the discretization error of the frozen-rate integration.
const MAX_FILL_FRACTION: f64 = 0.125;

/// Hard bound on internal sub-steps per execution step.
///
/// The fill-fraction caps can pin the internal chunk near the 1 ns
/// floor for degenerate profiles (tiny working sets with heavy deep
/// traffic), making the loop count proportional to the budget — up to
/// `dt_ns` iterations. Once this many sub-steps have run, the
/// integrator takes one *saturating* final step (the whole remainder at
/// the current frozen rates); the discretization guarantee is forfeited
/// for that tail, boundedness is not.
pub const MAX_SUBSTEPS: u32 = 100_000;

/// The execution-speed law for one `(profile, spec)` pair, with its
/// state-independent terms computed once per call.
pub(crate) struct Law<'a> {
    profile: &'a MemProfile,
    spec: &'a CacheSpec,
    /// Working-set size in bytes.
    wss: f64,
    /// Cache line size in bytes.
    line: f64,
    /// L2 hit probability once the L2 is fully warm.
    h2_cap: f64,
    /// Bytes of the working set the private L2 can hold (at least 1).
    l2_target: f64,
}

/// The law's per-instruction rates at one cache state.
#[derive(Clone, Copy)]
pub(crate) struct Rates {
    /// Deep references that miss the L2 and reach the LLC.
    llc_refs: f64,
    /// LLC references that miss the LLC.
    llc_misses: f64,
    /// L2 lines filled (one per L2 miss).
    l2_fill: f64,
    /// Nanoseconds per instruction.
    ns_per_instr: f64,
}

impl Rates {
    /// The linear rate if a step at these rates cannot move the cache
    /// state — the snapped zero-traffic fixpoint: at most
    /// [`NEGLIGIBLE_MISS_RATE`] misses per instruction, and an L2
    /// warmth that is saturated or filled at a negligible rate.
    pub(crate) fn steady(&self, l2_warmth: f64) -> Option<SteadyRate> {
        let inert =
            self.llc_misses <= NEGLIGIBLE_MISS_RATE && (l2_warmth >= 1.0 || self.l2_fill <= 1e-12);
        inert.then_some(SteadyRate {
            ns_per_instr: self.ns_per_instr,
            llc_ref_per_instr: self.llc_refs,
        })
    }
}

impl<'a> Law<'a> {
    pub(crate) fn new(profile: &'a MemProfile, spec: &'a CacheSpec) -> Self {
        let wss = profile.wss_bytes as f64;
        Law {
            profile,
            spec,
            wss,
            line: spec.line_bytes as f64,
            h2_cap: profile.l2_hit_warm(spec),
            l2_target: (wss.min(spec.l2_bytes as f64)).max(1.0),
        }
    }

    /// The rates with `resident` bytes of the working set in the LLC
    /// and the private L2 at `l2_warmth`.
    #[inline(always)]
    pub(crate) fn at(&self, resident: f64, l2_warmth: f64) -> Rates {
        let (p, s) = (self.profile, self.spec);
        let deep = p.deep_refs_per_instr;
        let h2 = self.h2_cap * l2_warmth.clamp(0.0, 1.0);
        let h3 = if self.wss <= 0.0 {
            1.0
        } else {
            (resident / self.wss).clamp(0.0, 1.0)
        };
        let llc_refs = deep * (1.0 - h2);
        Rates {
            llc_refs,
            llc_misses: llc_refs * (1.0 - h3),
            l2_fill: llc_refs,
            ns_per_instr: p.base_ns_per_instr
                + deep
                    * (h2 * s.l2_hit_ns + (1.0 - h2) * (h3 * s.llc_hit_ns + (1.0 - h3) * s.mem_ns)),
        }
    }

    /// Records that `refs` LLC references re-touched the owner's
    /// working set. Re-referencing protects the resident footprint (LRU
    /// recency) in proportion to how much of the set was re-touched, so
    /// streaming owners (one pass over a huge set) stay stale.
    #[inline(always)]
    fn touch(&self, llc: &mut LlcState, owner: usize, refs: f64) {
        if refs > 0.0 && self.wss > 0.0 {
            llc.touch_frac(owner, refs * self.line / self.wss);
        }
    }

    /// Runs `remaining` ns at a fixpoint `rate` in one piece: the
    /// freshness touch the integrator would make, no insertion (the
    /// sub-epsilon miss traffic is omitted) and no warmth update.
    #[inline(always)]
    fn snap(
        &self,
        rate: SteadyRate,
        remaining: f64,
        llc: &mut LlcState,
        owner: usize,
        out: &mut ExecOutcome,
    ) {
        let instr = remaining / rate.ns_per_instr;
        let refs = instr * rate.llc_ref_per_instr;
        out.instructions += instr;
        out.llc_refs += refs;
        self.touch(llc, owner, refs);
    }

    /// Integrates the law over `dt_ns` of CPU time in frozen-rate
    /// sub-steps. `LEAN` picks the eviction kernel. With a `memo`, a
    /// memo hit before the loop, or the first sub-step at the fixpoint
    /// inside it, answers the rest of the budget through [`Law::snap`].
    #[inline(always)]
    fn integrate<const LEAN: bool>(
        &self,
        llc: &mut LlcState,
        owner: usize,
        l2_warmth: &mut f64,
        dt_ns: u64,
        mut memo: Option<&mut RateCache>,
    ) -> ExecOutcome {
        let mut out = ExecOutcome::default();
        if dt_ns == 0 {
            return out;
        }
        let mut remaining = dt_ns as f64;
        if let Some(cache) = memo.as_deref_mut() {
            let key = rate_key(self.profile, *l2_warmth, llc.occupancy(owner));
            if let Some(rate) = cache.probe(owner, self.spec, key) {
                self.snap(rate, remaining, llc, owner, &mut out);
                return out;
            }
        }
        let mut guard: u32 = 0;
        while remaining > 0.0 {
            guard += 1;
            let resident = llc.occupancy(owner);
            let r = self.at(resident, *l2_warmth);
            if let Some(cache) = memo.as_deref_mut() {
                if let Some(rate) = r.steady(*l2_warmth) {
                    let key = rate_key(self.profile, *l2_warmth, resident);
                    cache.store(owner, self.spec, key, rate);
                    self.snap(rate, remaining, llc, owner, &mut out);
                    return out;
                }
            }

            // Cap the chunk so neither footprint moves more than
            // MAX_FILL_FRACTION of its target within frozen rates. Once
            // the iteration budget is exhausted the final step
            // saturates: the whole remainder runs at the current rates.
            let mut chunk = remaining;
            if guard < MAX_SUBSTEPS {
                if r.llc_misses > 1e-12 && self.wss > 0.0 {
                    let instr_cap = (self.wss * MAX_FILL_FRACTION / self.line) / r.llc_misses;
                    chunk = chunk.min(instr_cap * r.ns_per_instr);
                }
                if r.l2_fill > 1e-12 && *l2_warmth < 1.0 {
                    let instr_cap = (self.l2_target * MAX_FILL_FRACTION / self.line) / r.l2_fill;
                    chunk = chunk.min(instr_cap * r.ns_per_instr);
                }
            }
            chunk = chunk.max(remaining.min(1.0)).min(remaining);

            let instr = chunk / r.ns_per_instr;
            let refs = instr * r.llc_refs;
            let misses = instr * r.llc_misses;
            out.instructions += instr;
            out.llc_refs += refs;
            out.llc_misses += misses;

            self.touch(llc, owner, refs);
            if misses > 0.0 {
                if LEAN {
                    llc.insert_lean(owner, misses * self.line, self.wss);
                } else {
                    llc.insert(owner, misses * self.line, self.wss);
                }
            }
            if r.l2_fill > 1e-12 {
                let fill = instr * r.l2_fill * self.line;
                *l2_warmth = (*l2_warmth + fill / self.l2_target).min(1.0);
            }
            remaining -= chunk;
        }
        out
    }
}

/// Advances a workload phase by `dt_ns` nanoseconds of CPU time.
///
/// `owner` indexes the vCPU's footprint in `llc`; `l2_warmth` is the
/// fraction of the (capacity-limited) working set resident in the
/// private L2 and is updated in place. Returns the retired instruction
/// count and LLC traffic for PMU accounting.
pub fn exec_step(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &mut LlcState,
    owner: usize,
    l2_warmth: &mut f64,
    dt_ns: u64,
) -> ExecOutcome {
    Law::new(profile, spec).integrate::<false>(llc, owner, l2_warmth, dt_ns, None)
}

/// [`exec_step`] evicting through the allocation-free
/// [`LlcState::insert_lean`].
///
/// Same loop, same chunk boundaries, same floating-point operations;
/// the `lean_exec_matches_dense` property test asserts bitwise
/// equality of outcomes and of the resulting LLC/warmth state.
pub fn exec_step_lean(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &mut LlcState,
    owner: usize,
    l2_warmth: &mut f64,
    dt_ns: u64,
) -> ExecOutcome {
    Law::new(profile, spec).integrate::<true>(llc, owner, l2_warmth, dt_ns, None)
}

/// [`exec_step_lean`] with a steady-rate fast path.
///
/// A memo hit answers the whole budget in O(1): one chunk at the
/// cached fixpoint rate, the same freshness touch the integrator would
/// make, no insertion (sub-epsilon miss traffic is reported and
/// inserted as exactly zero) and no warmth write (saturated warmth is
/// a fixed point of the fill update). On a miss the lean loop runs and
/// detects the fixpoint from the rates it computes anyway — so
/// non-steady execution pays only the memo probe, and the first steady
/// sub-step answers the rest of the budget the same way and fills the
/// memo for the next call.
pub fn exec_step_cached(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &mut LlcState,
    owner: usize,
    l2_warmth: &mut f64,
    dt_ns: u64,
    cache: &mut RateCache,
) -> ExecOutcome {
    Law::new(profile, spec).integrate::<true>(llc, owner, l2_warmth, dt_ns, Some(cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_sim::time::MS;

    fn spec() -> CacheSpec {
        CacheSpec::i7_3770()
    }

    #[test]
    fn light_profile_runs_near_base_speed() {
        let spec = spec();
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 1.0;
        let p = MemProfile::light();
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, MS);
        let ips = out.instructions / MS as f64;
        let base_ips = 1.0 / p.base_ns_per_instr;
        assert!(
            (ips - base_ips).abs() / base_ips < 0.05,
            "light profile should run near base speed: {ips} vs {base_ips}"
        );
    }

    #[test]
    fn warm_llcf_faster_than_cold() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        // Cold run.
        let mut llc_cold = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        let cold = exec_step(&p, &spec, &mut llc_cold, 0, &mut w2, MS);
        // Warm run: footprint pre-loaded.
        let mut llc_warm = LlcState::new(spec.llc_bytes as f64, 1);
        llc_warm.insert(0, p.wss_bytes as f64, p.wss_bytes as f64);
        let mut w2 = 1.0;
        let warm = exec_step(&p, &spec, &mut llc_warm, 0, &mut w2, MS);
        assert!(
            warm.instructions > 2.0 * cold.instructions,
            "warm {} should far exceed cold {}",
            warm.instructions,
            cold.instructions
        );
    }

    #[test]
    fn cold_run_warms_the_cache() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        let mut last_instr = 0.0;
        // Successive 2ms steps must speed up as the footprint grows.
        for step in 0..5 {
            let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 2 * MS);
            assert!(
                out.instructions >= last_instr,
                "step {step} slowed down: {} < {last_instr}",
                out.instructions
            );
            last_instr = out.instructions;
        }
        assert!(llc.occupancy(0) > 0.9 * p.wss_bytes as f64);
    }

    #[test]
    fn llco_always_misses() {
        let spec = spec();
        let p = MemProfile::llco(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        // Run long enough to reach steady state.
        let _ = exec_step(&p, &spec, &mut llc, 0, &mut w2, 50 * MS);
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 10 * MS);
        let miss_ratio = out.llc_misses / out.llc_refs;
        assert!(
            miss_ratio > 0.6,
            "trasher steady-state miss ratio should stay high, got {miss_ratio}"
        );
    }

    #[test]
    fn lolcf_generates_negligible_llc_traffic_when_warm() {
        let spec = spec();
        let p = MemProfile::lolcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 1.0;
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 10 * MS);
        let rr_per_kilo = out.llc_refs / out.instructions * 1000.0;
        assert!(
            rr_per_kilo < 1.0,
            "warm LoLCF should barely reference the LLC, got {rr_per_kilo}/k-instr"
        );
    }

    #[test]
    fn lolcf_l2_refill_is_cheap_and_bounded() {
        let spec = spec();
        let p = MemProfile::lolcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        let cold = exec_step(&p, &spec, &mut llc, 0, &mut w2, MS);
        assert!(
            w2 > 0.99,
            "1ms should fully rewarm a 230KB L2 set, got {w2}"
        );
        let warm = exec_step(&p, &spec, &mut llc, 0, &mut w2, MS);
        let ratio = warm.instructions / cold.instructions;
        assert!(
            ratio > 1.0 && ratio < 1.6,
            "L2 refill should cost a little, not a lot: warm/cold = {ratio}"
        );
    }

    #[test]
    fn lean_exec_matches_dense() {
        // exec_step_lean must be bit-identical to exec_step: same
        // outcomes, same LLC trajectory, same warmth — across profiles,
        // owner mixes and chunk sizes.
        let spec = spec();
        let profiles = [
            MemProfile::llcf(&spec),
            MemProfile::lolcf(&spec),
            MemProfile::llco(&spec),
            MemProfile::light(),
        ];
        let mut rng = aql_sim::rng::SimRng::seed_from(7);
        let owners = profiles.len();
        let mut llc_a = LlcState::new(spec.llc_bytes as f64, owners);
        let mut llc_b = LlcState::new(spec.llc_bytes as f64, owners);
        let mut warm_a = vec![0.0f64; owners];
        let mut warm_b = vec![0.0f64; owners];
        for step in 0..600 {
            let owner = rng.uniform_u64(0, owners as u64) as usize;
            let dt = rng.uniform_u64(1, 2_000_000);
            let a = exec_step(
                &profiles[owner],
                &spec,
                &mut llc_a,
                owner,
                &mut warm_a[owner],
                dt,
            );
            let b = exec_step_lean(
                &profiles[owner],
                &spec,
                &mut llc_b,
                owner,
                &mut warm_b[owner],
                dt,
            );
            assert_eq!(
                a.instructions.to_bits(),
                b.instructions.to_bits(),
                "instructions diverged at step {step}"
            );
            assert_eq!(a.llc_refs.to_bits(), b.llc_refs.to_bits(), "step {step}");
            assert_eq!(
                a.llc_misses.to_bits(),
                b.llc_misses.to_bits(),
                "step {step}"
            );
            assert_eq!(
                warm_a[owner].to_bits(),
                warm_b[owner].to_bits(),
                "warmth diverged at step {step}"
            );
            for i in 0..owners {
                assert_eq!(
                    llc_a.occupancy(i).to_bits(),
                    llc_b.occupancy(i).to_bits(),
                    "occ[{i}] diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn degenerate_profile_saturates_instead_of_spinning() {
        // A pathological profile (tiny working set, heavy deep traffic)
        // pins the fill-fraction caps near the 1 ns chunk floor, making
        // the sub-step count proportional to the budget. The hard cap
        // must bound the loop and still consume the whole budget — in
        // release builds too, where the old guard was compiled out.
        let spec = spec();
        let p = MemProfile {
            wss_bytes: 64,
            deep_refs_per_instr: 50.0,
            base_ns_per_instr: 0.1,
        };
        for exec in [
            exec_step
                as fn(&MemProfile, &CacheSpec, &mut LlcState, usize, &mut f64, u64) -> ExecOutcome,
            exec_step_lean,
        ] {
            let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
            let mut w2 = 0.0;
            let start = std::time::Instant::now();
            let out = exec(&p, &spec, &mut llc, 0, &mut w2, 50 * MS);
            assert!(
                start.elapsed() < std::time::Duration::from_secs(30),
                "cap failed to bound the loop"
            );
            assert!(out.instructions.is_finite() && out.instructions > 0.0);
            assert!(out.llc_refs.is_finite() && out.llc_misses.is_finite());
            // The budget is fully consumed: the final saturating step
            // swallows whatever the capped sub-steps left over.
            assert!(llc.occupancy(0) <= 64.0 + 1e-9);
        }
    }

    #[test]
    fn zero_budget_is_a_noop() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.5;
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 0);
        assert_eq!(out, ExecOutcome::default());
        assert_eq!(w2, 0.5);
    }

    #[test]
    fn shared_llc_contention_slows_the_victim() {
        let spec = spec();
        let victim = MemProfile::llcf(&spec);
        let trasher = MemProfile::llco(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 2);
        let mut w2v = 1.0;
        let mut w2t = 0.0;
        // Warm the victim fully.
        let _ = exec_step(&victim, &spec, &mut llc, 0, &mut w2v, 30 * MS);
        let alone = exec_step(&victim, &spec, &mut llc, 0, &mut w2v, 5 * MS);
        // Let the trasher stream for a while (victim descheduled).
        let _ = exec_step(&trasher, &spec, &mut llc, 1, &mut w2t, 90 * MS);
        let after = exec_step(&victim, &spec, &mut llc, 0, &mut w2v, 5 * MS);
        assert!(
            after.instructions < 0.8 * alone.instructions,
            "trasher must erode the victim footprint: {} vs {}",
            after.instructions,
            alone.instructions
        );
    }
}
