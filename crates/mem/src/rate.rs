//! Steady-state rate detection and caching.
//!
//! `exec_step` integrates the execution-speed law in sub-steps because
//! the LLC footprint and L2 warmth *move* while a workload runs. Once
//! both have converged — occupancy covers the working set (or the
//! profile generates no deep traffic) and the private L2 is saturated
//! — the law degenerates to a straight line: a constant ns/instr and
//! no measurable cache traffic. At that **fixpoint** a whole span of
//! any length is answered in O(1).
//!
//! The fixpoint is *snapped*, not exact: the fill asymptotes never
//! terminate in f64 (occupancy approaches the working-set size
//! geometrically, so the miss rate decays toward zero but freezes at a
//! sub-ulp remnant — the integrator would keep inserting immeasurable
//! slivers forever; L2 warmth freezes just below saturation the same
//! way when the working set fits the L2). [`steady_rate`] therefore
//! declares the fixpoint once the miss rate falls below
//! [`NEGLIGIBLE_MISS_RATE`] — the same threshold below which the
//! integrator itself stops sizing chunks by miss traffic — and the
//! fast path then *omits* that sub-epsilon traffic: occupancies stop
//! creeping and the snapped state is a true fixpoint of the fast path.
//! The divergence from the dense oracle is bounded by the threshold
//! (≲1e-13 relative on rates, absolute bytes per span on occupancy) —
//! orders of magnitude inside the 1e-6 tolerance the conformance
//! oracle grants (`cached_matches_dense_at_fixpoint` pins the bound).
//!
//! [`RateCache`] memoizes the answer per owner. Because the rate is a
//! *pure function* of the profile, the owner's own occupancy and its
//! L2 warmth, the entry is keyed on those exact input bits — a finer
//! validity condition than "no insertion into this LLC since": an
//! unrelated owner's insertion that leaves this owner's occupancy bits
//! intact keeps the entry valid, while anything that moves the rate
//! necessarily moves a key bit.
//! Scheduling events therefore invalidate entries for free: contention
//! erodes the occupancy bits, a migration (or a same-pCPU context
//! switch) resets the warmth bits, and a phase shift changes the
//! profile bits. A stale hit is impossible by construction.

use crate::exec::{ExecOutcome, MAX_SUBSTEPS};
use crate::llc::LlcState;
use crate::profile::MemProfile;
use crate::spec::CacheSpec;

use crate::exec::MAX_FILL_FRACTION;

/// The linear execution rate at a zero-traffic fixpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyRate {
    /// Nanoseconds per retired instruction.
    pub ns_per_instr: f64,
    /// LLC references per instruction (all of them hits).
    pub llc_ref_per_instr: f64,
}

/// Miss traffic below this rate (misses per instruction) is *snapped*
/// to zero by the steady-state fast path. It matches the integrator's
/// own chunk-sizing guard: below it `exec_step` no longer lets miss
/// traffic bound a sub-step, so the fast path merely completes the
/// approximation the integrator already makes.
pub const NEGLIGIBLE_MISS_RATE: f64 = 1e-12;

/// Returns the linear rate if `(profile, llc occupancy, l2_warmth)` is
/// at the (snapped) zero-traffic fixpoint, i.e. an `exec_step` from
/// this state
///
/// * generates negligible LLC miss traffic (at most
///   [`NEGLIGIBLE_MISS_RATE`] misses per instruction: the resident
///   footprint covers the working set up to the f64 fill asymptote, or
///   the profile produces no LLC references at all), and
/// * cannot change the L2 warmth (warmth is saturated at `1.0`, where
///   the fill update is the identity, or the fill rate is negligible
///   and skipped).
///
/// Under those conditions the only state effect of an `exec_step` is a
/// freshness touch plus sub-epsilon footprint creep; the fast path
/// performs the touch, omits the creep, and the rate stays valid for
/// as long as the occupancy and warmth bits stand still.
pub fn steady_rate(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &LlcState,
    owner: usize,
    l2_warmth: f64,
) -> Option<SteadyRate> {
    let wss = profile.wss_bytes as f64;
    // Exactly the expressions of `exec_step`, so a cached rate carries
    // the same bits the integrator would derive.
    let h2_cap = profile.l2_hit_warm(spec);
    let h2 = h2_cap * l2_warmth.clamp(0.0, 1.0);
    let deep = profile.deep_refs_per_instr;
    let resident = llc.occupancy(owner);
    let h3 = if wss <= 0.0 {
        1.0
    } else {
        (resident / wss).clamp(0.0, 1.0)
    };
    let llc_ref_per_instr = deep * (1.0 - h2);
    let llc_miss_per_instr = llc_ref_per_instr * (1.0 - h3);
    let l2_fill_per_instr = deep * (1.0 - h2);
    let warmth_inert = l2_warmth >= 1.0 || l2_fill_per_instr <= 1e-12;
    if llc_miss_per_instr > NEGLIGIBLE_MISS_RATE || !warmth_inert {
        return None;
    }
    let ns_per_instr = profile.base_ns_per_instr
        + deep
            * (h2 * spec.l2_hit_ns
                + (1.0 - h2) * (h3 * spec.llc_hit_ns + (1.0 - h3) * spec.mem_ns));
    Some(SteadyRate {
        ns_per_instr,
        llc_ref_per_instr,
    })
}

/// The exact state bits a steady rate was derived from.
type RateKey = (u64, u64, u64, u64, u64);

fn rate_key(profile: &MemProfile, l2_warmth: f64, resident: f64) -> RateKey {
    (
        profile.wss_bytes,
        profile.deep_refs_per_instr.to_bits(),
        profile.base_ns_per_instr.to_bits(),
        l2_warmth.to_bits(),
        resident.to_bits(),
    )
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    key: RateKey,
    rate: SteadyRate,
}

/// Per-owner memo of positive [`steady_rate`] answers, keyed on the
/// exact input bits (profile, warmth, own occupancy). Each owner holds
/// **two** ways so the workloads that alternate between two profiles
/// (an [`IoServer`]-style service/background pair probes and executes
/// both within one span) do not evict their own entry on every lookup.
///
/// The cache never invalidates eagerly — validity is re-derived from
/// the key on every lookup, so any event that can move a rate
/// (contention eroding the occupancy, a migration's warmth reset, a
/// phase shift's new profile) simply stops the key from matching and
/// forces a recomputation. [`RateCache::stats`] exposes hit/recompute
/// counters so tests can assert exactly that.
///
/// [`IoServer`]: ../../aql_workloads/struct.IoServer.html
#[derive(Debug, Default)]
pub struct RateCache {
    entries: Vec<[Option<Entry>; 2]>,
    /// Fingerprint of the [`CacheSpec`] the entries were derived from.
    /// Rates also depend on the spec; a simulation has exactly one, so
    /// instead of widening every key the cache records the spec it
    /// serves and flushes wholesale if a caller switches (making a
    /// stale cross-spec hit impossible for any API user).
    spec_print: u64,
    hits: u64,
    recomputes: u64,
}

fn spec_print(spec: &CacheSpec) -> u64 {
    // FNV-1a over every field the rate law reads.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for bits in [
        spec.l2_bytes,
        spec.llc_bytes,
        spec.line_bytes,
        spec.l2_hit_ns.to_bits(),
        spec.llc_hit_ns.to_bits(),
        spec.mem_ns.to_bits(),
    ] {
        h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // 0 marks "no spec recorded yet".
    h.max(1)
}

impl RateCache {
    /// An empty cache for `owners` owners (grows on demand).
    pub fn new(owners: usize) -> Self {
        RateCache {
            entries: vec![[None, None]; owners],
            spec_print: 0,
            hits: 0,
            recomputes: 0,
        }
    }

    /// `(hits, recomputes)` since construction. A recompute is any
    /// lookup whose key did not match — the cache-invalidation events
    /// (contention, migration, phase shift) show up here.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.recomputes)
    }

    fn ways(&mut self, owner: usize, spec: &CacheSpec) -> &mut [Option<Entry>; 2] {
        let print = spec_print(spec);
        if self.spec_print != print {
            // A different cache geometry: every cached rate is void.
            self.entries.clear();
            self.spec_print = print;
        }
        if owner >= self.entries.len() {
            self.entries.resize(owner + 1, [None, None]);
        }
        &mut self.entries[owner]
    }

    /// Looks `key` up in the owner's ways, promoting a hit to way 0.
    fn probe(&mut self, owner: usize, spec: &CacheSpec, key: RateKey) -> Option<SteadyRate> {
        let ways = self.ways(owner, spec);
        for w in 0..2 {
            if let Some(e) = ways[w] {
                if e.key == key {
                    if w == 1 {
                        ways.swap(0, 1);
                    }
                    self.hits += 1;
                    return Some(e.rate);
                }
            }
        }
        self.recomputes += 1;
        None
    }

    /// Stores a freshly computed rate, displacing the colder way.
    fn store(&mut self, owner: usize, spec: &CacheSpec, key: RateKey, rate: SteadyRate) {
        let ways = self.ways(owner, spec);
        ways[1] = ways[0];
        ways[0] = Some(Entry { key, rate });
    }

    /// The owner's steady rate at the current state, or `None` if the
    /// owner is not at the (snapped) fixpoint; positive answers are
    /// memoized.
    pub fn linear_rate(
        &mut self,
        profile: &MemProfile,
        spec: &CacheSpec,
        llc: &LlcState,
        owner: usize,
        l2_warmth: f64,
    ) -> Option<SteadyRate> {
        let key = rate_key(profile, l2_warmth, llc.occupancy(owner));
        if let Some(rate) = self.probe(owner, spec, key) {
            return Some(rate);
        }
        let rate = steady_rate(profile, spec, llc, owner, l2_warmth)?;
        self.store(owner, spec, key, rate);
        Some(rate)
    }
}

/// [`crate::exec_step_lean`] with a steady-rate fast path.
///
/// A memo hit answers the whole budget in O(1): one chunk at the
/// cached fixpoint rate, the same freshness touch the integrator would
/// make, no insertion (sub-epsilon miss traffic is reported and
/// inserted as exactly zero) and no warmth write (saturated warmth is
/// a fixed point of the fill update). On a miss the integration runs
/// with the lean loop's exact operation order, detecting the fixpoint
/// from the rates it computes anyway — so non-steady execution pays
/// only the memo probe, and the first steady sub-step snaps the rest
/// of the budget and fills the memo for the next call.
pub fn exec_step_cached(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &mut LlcState,
    owner: usize,
    l2_warmth: &mut f64,
    dt_ns: u64,
    cache: &mut RateCache,
) -> ExecOutcome {
    let mut out = ExecOutcome::default();
    if dt_ns == 0 {
        return out;
    }
    let wss = profile.wss_bytes as f64;
    let line = spec.line_bytes as f64;
    // Memo probe: pure-function key, so a hit cannot be stale.
    {
        let key = rate_key(profile, *l2_warmth, llc.occupancy(owner));
        if let Some(rate) = cache.probe(owner, spec, key) {
            let instr = dt_ns as f64 / rate.ns_per_instr;
            let refs = instr * rate.llc_ref_per_instr;
            if refs > 0.0 && wss > 0.0 {
                llc.touch_frac(owner, refs * line / wss);
            }
            out.instructions = instr;
            out.llc_refs = refs;
            return out;
        }
    }
    // The lean integration loop (identical operation order to
    // `exec_step_lean`), plus the fixpoint snap: the moment a sub-step
    // derives negligible traffic, the remainder of the budget is
    // answered linearly and the rate is memoized.
    let h2_cap = profile.l2_hit_warm(spec);
    let deep = profile.deep_refs_per_instr;
    let l2_target = (wss.min(spec.l2_bytes as f64)).max(1.0);
    let mut remaining = dt_ns as f64;
    let mut guard: u32 = 0;
    while remaining > 0.0 {
        guard += 1;
        let h2 = h2_cap * l2_warmth.clamp(0.0, 1.0);
        let resident = llc.occupancy(owner);
        let h3 = if wss <= 0.0 {
            1.0
        } else {
            (resident / wss).clamp(0.0, 1.0)
        };
        let llc_ref_per_instr = deep * (1.0 - h2);
        let llc_miss_per_instr = llc_ref_per_instr * (1.0 - h3);
        let ns_per_instr = profile.base_ns_per_instr
            + deep
                * (h2 * spec.l2_hit_ns
                    + (1.0 - h2) * (h3 * spec.llc_hit_ns + (1.0 - h3) * spec.mem_ns));
        let l2_fill_per_instr = deep * (1.0 - h2);

        if llc_miss_per_instr <= NEGLIGIBLE_MISS_RATE
            && (*l2_warmth >= 1.0 || l2_fill_per_instr <= 1e-12)
        {
            // Fixpoint reached: snap the rest of the budget.
            let rate = SteadyRate {
                ns_per_instr,
                llc_ref_per_instr,
            };
            cache.store(owner, spec, rate_key(profile, *l2_warmth, resident), rate);
            let instr = remaining / ns_per_instr;
            let refs = instr * llc_ref_per_instr;
            out.instructions += instr;
            out.llc_refs += refs;
            if refs > 0.0 && wss > 0.0 {
                llc.touch_frac(owner, refs * line / wss);
            }
            return out;
        }

        let mut chunk = remaining;
        if guard < MAX_SUBSTEPS {
            if llc_miss_per_instr > 1e-12 && wss > 0.0 {
                let instr_cap = (wss * MAX_FILL_FRACTION / line) / llc_miss_per_instr;
                chunk = chunk.min(instr_cap * ns_per_instr);
            }
            if l2_fill_per_instr > 1e-12 && *l2_warmth < 1.0 {
                let instr_cap = (l2_target * MAX_FILL_FRACTION / line) / l2_fill_per_instr;
                chunk = chunk.min(instr_cap * ns_per_instr);
            }
        }
        chunk = chunk.max(remaining.min(1.0)).min(remaining);

        let instr = chunk / ns_per_instr;
        let refs = instr * llc_ref_per_instr;
        let misses = instr * llc_miss_per_instr;
        out.instructions += instr;
        out.llc_refs += refs;
        out.llc_misses += misses;

        if refs > 0.0 && wss > 0.0 {
            llc.touch_frac(owner, refs * line / wss);
        }
        if misses > 0.0 {
            llc.insert_lean(owner, misses * line, wss);
        }
        if l2_fill_per_instr > 1e-12 {
            let fill = instr * l2_fill_per_instr * line;
            *l2_warmth = (*l2_warmth + fill / l2_target).min(1.0);
        }
        remaining -= chunk;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{exec_step, exec_step_lean};
    use aql_sim::time::MS;

    fn spec() -> CacheSpec {
        CacheSpec::i7_3770()
    }

    /// Drives an owner to the fixpoint: fill the footprint and warm L2.
    fn warm_up(p: &MemProfile, spec: &CacheSpec, llc: &mut LlcState, owner: usize) -> f64 {
        let mut w = 0.0;
        for _ in 0..200 {
            let _ = exec_step(p, spec, llc, owner, &mut w, MS);
        }
        w
    }

    #[test]
    fn llcf_reaches_the_fixpoint_and_llco_does_not() {
        let spec = spec();
        let mut llc = LlcState::new(spec.llc_bytes as f64, 2);
        let p = MemProfile::llcf(&spec);
        assert!(
            steady_rate(&p, &spec, &llc, 0, 0.0).is_none(),
            "cold LLCF must not be linear"
        );
        let w = warm_up(&p, &spec, &mut llc, 0);
        let r = steady_rate(&p, &spec, &llc, 0, w).expect("warm solo LLCF is linear");
        assert!(r.ns_per_instr > 0.0 && r.llc_ref_per_instr > 0.0);
        // A trasher's working set cannot fit: never at the fixpoint.
        let t = MemProfile::llco(&spec);
        let wt = warm_up(&t, &spec, &mut llc, 1);
        assert!(steady_rate(&t, &spec, &llc, 1, wt).is_none());
    }

    #[test]
    fn lolcf_snaps_despite_the_warmth_asymptote() {
        // A working set that fits the L2 has h2_cap == 1, so warmth
        // converges to 1 asymptotically and can freeze *below* it —
        // the snap must still declare the fixpoint once the residual
        // fill rate is negligible.
        let spec = spec();
        let p = MemProfile::lolcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let w = warm_up(&p, &spec, &mut llc, 0);
        assert!(
            steady_rate(&p, &spec, &llc, 0, w).is_some(),
            "warm LoLCF must be linear (warmth settled at {w})"
        );
    }

    #[test]
    fn cached_matches_dense_at_fixpoint() {
        // Wherever the rate cache answers, the answer must agree with
        // the integrator far inside the 1e-6 conformance tolerance:
        // the only divergence allowed is the snapped sub-epsilon miss
        // traffic (see NEGLIGIBLE_MISS_RATE).
        let close = |a: f64, b: f64, what: &str| {
            let denom = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            assert!(
                (a - b).abs() / denom <= 1e-9,
                "{what} drifted past 1e-9: {a} vs {b}"
            );
        };
        let spec = spec();
        let profiles = [
            MemProfile::llcf(&spec),
            MemProfile::lolcf(&spec),
            MemProfile::light(),
        ];
        for p in &profiles {
            let mut llc_a = LlcState::new(spec.llc_bytes as f64, 1);
            let mut llc_b;
            let mut wa = warm_up(p, &spec, &mut llc_a, 0);
            llc_b = llc_a.clone();
            let mut wb = wa;
            let mut cache = RateCache::new(1);
            let mut rng = aql_sim::rng::SimRng::seed_from(11);
            let (mut ia, mut ib) = (0.0f64, 0.0f64);
            for _ in 0..200 {
                let dt = rng.uniform_u64(1, 20 * MS);
                let a = exec_step(p, &spec, &mut llc_a, 0, &mut wa, dt);
                let b = exec_step_cached(p, &spec, &mut llc_b, 0, &mut wb, dt, &mut cache);
                ia += a.instructions;
                ib += b.instructions;
                close(a.instructions, b.instructions, "chunk instructions");
                close(a.llc_refs, b.llc_refs, "chunk refs");
                assert!(b.llc_misses == 0.0 || b.llc_misses.to_bits() == a.llc_misses.to_bits());
                close(wa, wb, "warmth");
                close(llc_a.occupancy(0), llc_b.occupancy(0), "occupancy");
                close(llc_a.freshness(0), llc_b.freshness(0), "freshness");
            }
            close(ia, ib, "cumulative instructions");
            let (hits, recomputes) = cache.stats();
            assert!(
                hits > 150,
                "fixpoint lookups should hit ({}): {hits} hits / {recomputes} recomputes",
                p.wss_bytes
            );
        }
    }

    #[test]
    fn cached_is_bitwise_lean_when_not_at_fixpoint() {
        // The cached integrator's loop must stay operation-for-
        // operation identical to exec_step_lean off the fixpoint:
        // exercise both non-linear regimes — a trasher (miss caps,
        // eviction) and a cold LLCF fill (both fill caps, L2 warm-up).
        let spec = spec();
        for p in [MemProfile::llco(&spec), MemProfile::llcf(&spec)] {
            let mut llc_a = LlcState::new(spec.llc_bytes as f64, 1);
            let mut llc_b = LlcState::new(spec.llc_bytes as f64, 1);
            let mut wa = 0.0;
            let mut wb = 0.0;
            let mut cache = RateCache::new(1);
            let trasher = p.wss_bytes > spec.llc_bytes;
            for step in 0..200 {
                if !trasher && steady_rate(&p, &spec, &llc_a, 0, wa).is_some() {
                    break; // the LLCF fill reached the fixpoint
                }
                let a = exec_step_lean(&p, &spec, &mut llc_a, 0, &mut wa, MS);
                let b = exec_step_cached(&p, &spec, &mut llc_b, 0, &mut wb, MS, &mut cache);
                assert_eq!(
                    a.instructions.to_bits(),
                    b.instructions.to_bits(),
                    "step {step}"
                );
                assert_eq!(a.llc_misses.to_bits(), b.llc_misses.to_bits());
                assert_eq!(wa.to_bits(), wb.to_bits());
                assert_eq!(llc_a.occupancy(0).to_bits(), llc_b.occupancy(0).to_bits());
                assert_eq!(llc_a.freshness(0).to_bits(), llc_b.freshness(0).to_bits());
            }
            if trasher {
                let (hits, _) = cache.stats();
                assert_eq!(hits, 0, "a trasher must never hit the rate memo");
            }
        }
    }

    #[test]
    fn switching_cache_spec_flushes_the_memo() {
        // Rates depend on the CacheSpec; the cache records the spec it
        // serves and a different one must void every entry rather than
        // deliver a cross-spec rate.
        let a = CacheSpec::i7_3770();
        let b = CacheSpec::xeon_e5_4603();
        let p = MemProfile::lolcf(&a);
        let mut llc = LlcState::new(a.llc_bytes as f64, 1);
        let w = warm_up(&p, &a, &mut llc, 0);
        let mut cache = RateCache::new(1);
        let ra = cache.linear_rate(&p, &a, &llc, 0, w).expect("linear on a");
        assert!(cache.linear_rate(&p, &a, &llc, 0, w).is_some());
        let (_, rec) = cache.stats();
        let rb = cache.linear_rate(&p, &b, &llc, 0, w);
        assert_eq!(cache.stats().1, rec + 1, "spec switch must recompute");
        // The recomputed answer must be b's own steady_rate, never a's
        // cached one (for this profile the two can legitimately agree).
        assert_eq!(rb, steady_rate(&p, &b, &llc, 0, w));
        let _ = ra;
    }

    #[test]
    fn contention_invalidates_cached_rates() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 2);
        let mut w = warm_up(&p, &spec, &mut llc, 0);
        let mut cache = RateCache::new(2);
        assert!(cache.linear_rate(&p, &spec, &llc, 0, w).is_some());
        let (_, rec0) = cache.stats();
        // Cache hit while nothing moves.
        assert!(cache.linear_rate(&p, &spec, &llc, 0, w).is_some());
        assert_eq!(cache.stats().1, rec0, "stable state must hit the cache");
        // A contender's insertion erodes the owner's occupancy: the
        // next lookup must recompute (and stop being linear).
        llc.insert_lean(1, spec.llc_bytes as f64, 1e18);
        let relinear = cache.linear_rate(&p, &spec, &llc, 0, w);
        assert_eq!(cache.stats().1, rec0 + 1, "occupancy change must recompute");
        assert!(
            relinear.is_none(),
            "eroded footprint can no longer be linear"
        );
        // A warmth reset (cross-socket migration, or a same-pCPU
        // context switch cooling the private cache) also recomputes.
        let rec1 = cache.stats().1;
        w = 0.0;
        let _ = cache.linear_rate(&p, &spec, &llc, 0, w);
        assert_eq!(cache.stats().1, rec1 + 1, "warmth reset must recompute");
    }

    #[test]
    fn phase_shift_invalidates_cached_rates() {
        let spec = spec();
        let a = MemProfile::lolcf(&spec);
        let b = MemProfile::llcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let w = warm_up(&a, &spec, &mut llc, 0);
        let mut cache = RateCache::new(1);
        assert!(cache.linear_rate(&a, &spec, &llc, 0, w).is_some());
        let rec = cache.stats().1;
        // Same owner, new profile: the profile bits differ, so the
        // cache must recompute rather than serve the LoLCF rate.
        let shifted = cache.linear_rate(&b, &spec, &llc, 0, w);
        assert_eq!(cache.stats().1, rec + 1, "phase shift must recompute");
        assert!(
            shifted.is_none(),
            "the LLCF phase starts with an unfilled footprint"
        );
    }
}
