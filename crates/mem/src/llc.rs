//! Shared last-level cache occupancy model.
//!
//! The LLC is modelled as a capacity shared by *owners* (vCPUs): each
//! owner has a resident footprint in bytes. Misses fetch lines and grow
//! the owner's footprint; when the sum exceeds capacity every footprint
//! is scaled down proportionally — a smooth approximation of random
//! replacement that reproduces the paper's contention effects:
//! trashing owners (`LLCO`) with huge fetch rates erode the footprint
//! of cache-friendly owners (`LLCF`) while those are descheduled.

/// Freshness decay constant: after `FRESH_TAU × capacity` bytes of new
/// insertions, an owner's freshness drops by `1/e` unless it keeps
/// re-referencing its set.
const FRESH_TAU: f64 = 0.5;
/// How much more evictable a fully-stale byte is than a fresh one.
const STALE_BOOST: f64 = 20.0;

/// Freshness below this is flushed to exactly `0.0` by the decay loop.
/// Multiplicative decay alone never reaches zero, so without the flush
/// every owner that ever touched a socket stays "active" forever. The
/// threshold sits far below the half-ulp of `1.0` (`2^-53`), where
/// `1.0 - f` already rounds to exactly `1.0`, so a flushed owner's
/// eviction weight is bit-identical either way; the only observable
/// difference is a sub-1e-18 perturbation if the owner later re-touches
/// — deep inside the conformance tolerance. Applied identically by
/// [`LlcState::insert`] and [`LlcState::insert_lean`], so the two stay
/// bit-equal to each other.
const FRESHNESS_FLUSH: f64 = 1e-18;

/// Occupancies below this many bytes are flushed to exactly `0.0` by
/// the eviction loops. Proportional eviction shrinks a footprint
/// geometrically and never reaches zero; a micro-byte footprint is
/// physically meaningless but keeps its owner in every scan. The h3
/// perturbation is at most `1e-6 / wss` — immeasurable. Applied
/// identically by both insert paths.
const OCC_FLUSH_BYTES: f64 = 1e-6;

/// Insertions between opportunistic compactions of the active-owner
/// index (lean path bookkeeping only).
const PRUNE_PERIOD: u32 = 4096;

/// Per-socket shared LLC state.
///
/// Owner indices are dense (global vCPU indices); occupancy is tracked
/// in fractional bytes. Eviction approximates LRU through per-owner
/// *freshness* — the fraction of the owner's resident set recently
/// re-referenced ([`LlcState::touch_frac`]): victims are chosen in
/// proportion to `occupancy × (1 + STALE_BOOST × (1 − freshness))`.
/// A cache-friendly owner that re-touches its whole set every
/// millisecond stays fresh and protected; a streaming trasher touches
/// each of its lines only once per long pass, stays stale, and its own
/// dead lines absorb most of the eviction pressure — exactly how
/// set-recency behaves on real hardware.
///
/// # Examples
///
/// ```
/// use aql_mem::LlcState;
///
/// let mut llc = LlcState::new(1024.0, 2);
/// llc.insert(0, 800.0, 4096.0);
/// llc.insert(1, 800.0, 4096.0);
/// // Capacity pressure scaled both footprints down to fit.
/// assert!(llc.total() <= 1024.0 + 1e-9);
/// assert!(llc.occupancy(0) > 0.0 && llc.occupancy(1) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LlcState {
    capacity: f64,
    occ: Vec<f64>,
    total: f64,
    freshness: Vec<f64>,
    /// Owners that may hold state (occupancy or freshness > 0), in
    /// ascending order. The lean mutation path scans only this set:
    /// every skipped owner holds exactly `0.0` in both fields, and
    /// `x + 0.0` / `0.0 × d` are exact, so the results are bit-identical
    /// to the dense full scans. On a multi-socket machine owner indices
    /// are global, so this keeps each socket's passes proportional to
    /// the owners that ever ran there, not to the whole machine.
    active: Vec<u32>,
    /// Membership mirror of `active` for O(1) insertion checks.
    is_active: Vec<bool>,
    /// One-entry memo for the freshness decay exponential, keyed by the
    /// exact bit pattern of `bytes`. Steady workloads insert identical
    /// byte counts chunk after chunk; reusing the previous `exp` result
    /// for the identical input is bit-transparent.
    exp_memo: (u64, f64),
    /// Lean insertions since the last active-set compaction.
    prune_tick: u32,
}

/// How [`LlcState::insert_lean`] resolved capacity pressure — the
/// branch the kernel took, reported for its coverage test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    /// The footprints fit: decay only, `total` is not re-summed.
    Fits,
    /// `0 < overflow ≤ 1e-9`: no eviction pass, `total` re-summed.
    Negligible,
    /// This many weighted passes brought the overflow under `1e-9`.
    Passes(u8),
    /// This many weighted passes, then the proportional fallback.
    Fallback(u8),
}

/// An owner's eviction weight: its occupancy scaled by staleness, and
/// exactly `0.0` for an empty owner.
#[inline]
fn eviction_weight(occ: f64, freshness: f64) -> f64 {
    if occ > 0.0 {
        occ * (1.0 + STALE_BOOST * (1.0 - freshness))
    } else {
        0.0
    }
}

impl LlcState {
    /// Creates an empty LLC of `capacity` bytes for `owners` owners.
    pub fn new(capacity: f64, owners: usize) -> Self {
        assert!(capacity > 0.0, "LLC capacity must be positive");
        LlcState {
            capacity,
            occ: vec![0.0; owners],
            total: 0.0,
            freshness: vec![0.0; owners],
            active: Vec::new(),
            is_active: vec![false; owners],
            exp_memo: (u64::MAX, 1.0),
            prune_tick: 0,
        }
    }

    /// Resident footprint of `owner` in bytes.
    pub fn occupancy(&self, owner: usize) -> f64 {
        self.occ.get(owner).copied().unwrap_or(0.0)
    }

    /// Sum of all footprints.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Grows the index space to hold at least `owners` owners.
    pub fn ensure_owners(&mut self, owners: usize) {
        if self.occ.len() < owners {
            self.occ.resize(owners, 0.0);
            self.freshness.resize(owners, 0.0);
            self.is_active.resize(owners, false);
        }
    }

    /// Marks an owner as possibly holding state, keeping `active`
    /// sorted ascending so lean scans visit owners in dense index
    /// order (the order the dense loops use).
    fn activate(&mut self, owner: usize) {
        if !self.is_active[owner] {
            self.is_active[owner] = true;
            let pos = self.active.partition_point(|&i| (i as usize) < owner);
            self.active.insert(pos, owner as u32);
        }
    }

    /// Records that `owner` re-referenced `frac` of its working set
    /// (`frac` may exceed 1; freshness saturates at 1).
    pub fn touch_frac(&mut self, owner: usize, frac: f64) {
        self.ensure_owners(owner + 1);
        let f = &mut self.freshness[owner];
        *f = (*f + frac.max(0.0)).min(1.0);
        if *f > 0.0 {
            self.activate(owner);
        }
    }

    /// Current freshness of an owner, in `[0, 1]`.
    pub fn freshness(&self, owner: usize) -> f64 {
        self.freshness.get(owner).copied().unwrap_or(0.0)
    }

    /// Fetches `bytes` for `owner` (footprint capped at `max_bytes`,
    /// normally the owner's working-set size), then resolves capacity
    /// pressure by evicting in proportion to occupancy × staleness
    /// (LRU approximation via freshness).
    pub fn insert(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
        debug_assert!(bytes >= 0.0 && max_bytes >= 0.0);
        self.ensure_owners(owner + 1);
        let cur = self.occ[owner];
        let grown = (cur + bytes).min(max_bytes.max(cur));
        self.total += grown - cur;
        self.occ[owner] = grown;
        if grown > 0.0 {
            self.activate(owner);
        }
        // New insertions age everyone else's lines.
        if bytes > 0.0 {
            let decay = (-bytes / (self.capacity * FRESH_TAU)).exp();
            for (i, f) in self.freshness.iter_mut().enumerate() {
                if i != owner {
                    *f *= decay;
                    if *f < FRESHNESS_FLUSH {
                        *f = 0.0;
                    }
                }
            }
        }
        let mut overflow = self.total - self.capacity;
        if overflow <= 0.0 {
            return;
        }
        // Weighted eviction with clamping; a few passes suffice, then
        // fall back to plain proportional scaling.
        for _ in 0..4 {
            if overflow <= 1e-9 {
                break;
            }
            let weights: Vec<f64> = (0..self.occ.len())
                .map(|i| {
                    if self.occ[i] > 0.0 {
                        self.occ[i] * (1.0 + STALE_BOOST * (1.0 - self.freshness[i]))
                    } else {
                        0.0
                    }
                })
                .collect();
            let wsum: f64 = weights.iter().sum();
            if wsum <= 0.0 {
                break;
            }
            let mut evicted = 0.0;
            for (occ, w) in self.occ.iter_mut().zip(&weights) {
                let want = overflow * w / wsum;
                let take = want.min(*occ);
                *occ -= take;
                if *occ < OCC_FLUSH_BYTES {
                    *occ = 0.0;
                }
                evicted += take;
            }
            overflow -= evicted;
            if evicted <= 1e-12 {
                break;
            }
        }
        if overflow > 1e-9 {
            // Degenerate weights: plain proportional fallback.
            let sum: f64 = self.occ.iter().sum();
            if sum > 0.0 {
                let scale = (sum - overflow).max(0.0) / sum;
                for o in &mut self.occ {
                    *o *= scale;
                    if *o < OCC_FLUSH_BYTES {
                        *o = 0.0;
                    }
                }
            }
        }
        self.total = self.occ.iter().sum();
    }

    /// Bit-identical fast variant of [`LlcState::insert`].
    ///
    /// Performs exactly the same floating-point operations in exactly
    /// the same order, but visits only the *active* owners (skipped
    /// terms are exact identities: `x + 0.0`, `0.0 × d`, `0.0` takes),
    /// memoizes the decay exponential, and fuses the dense loops into
    /// two scans per eviction pass. The adaptive time-advance runs this
    /// path, the dense oracle [`LlcState::insert`];
    /// `llc_lean_matches_insert` asserts the bitwise equivalence.
    pub fn insert_lean(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
        self.insert_lean_resolved(owner, bytes, max_bytes);
    }

    /// [`LlcState::insert_lean`], reporting which branch resolved the
    /// capacity pressure.
    fn insert_lean_resolved(&mut self, owner: usize, bytes: f64, max_bytes: f64) -> Resolved {
        debug_assert!(bytes >= 0.0 && max_bytes >= 0.0);
        self.prune_tick += 1;
        if self.prune_tick >= PRUNE_PERIOD {
            self.prune_tick = 0;
            self.prune_active();
        }
        self.ensure_owners(owner + 1);
        let cur = self.occ[owner];
        let grown = (cur + bytes).min(max_bytes.max(cur));
        self.total += grown - cur;
        self.occ[owner] = grown;
        if grown > 0.0 {
            self.activate(owner);
        }
        // New insertions age everyone else's lines. The first scan that
        // visits the owners applies the decay; it reads no occupancy,
        // so fusing it with the first pass's weights changes no result.
        let mut decay = (bytes > 0.0).then(|| self.decay_for(bytes));
        let mut overflow = self.total - self.capacity;
        if overflow <= 0.0 {
            // Nothing to evict; like `insert`, keep the running total.
            if decay.is_some() {
                self.decay_and_weigh(owner, decay);
            }
            return Resolved::Fits;
        }
        let mut passes = 0;
        // The occupancy sum the latest take scan left behind.
        let mut total = None;
        for _ in 0..4 {
            if overflow <= 1e-9 {
                break;
            }
            let wsum = self.decay_and_weigh(owner, decay.take());
            if wsum <= 0.0 {
                break;
            }
            passes += 1;
            let (evicted, sum) = self.take_pass(overflow, wsum);
            total = Some(sum);
            overflow -= evicted;
            if evicted <= 1e-12 {
                break;
            }
        }
        if decay.is_some() {
            // No pass ran (the overflow was under 1e-9): decay alone.
            self.decay_and_weigh(owner, decay);
        }
        let resolved = if overflow > 1e-9 {
            // Degenerate weights: plain proportional fallback. It moves
            // every occupancy, so the running total is stale.
            let sum = self.occ_sum();
            if sum > 0.0 {
                let scale = (sum - overflow).max(0.0) / sum;
                for &i in &self.active {
                    let o = &mut self.occ[i as usize];
                    *o *= scale;
                    if *o < OCC_FLUSH_BYTES {
                        *o = 0.0;
                    }
                }
            }
            total = None;
            Resolved::Fallback(passes)
        } else if passes == 0 {
            Resolved::Negligible
        } else {
            Resolved::Passes(passes)
        };
        self.total = total.unwrap_or_else(|| self.occ_sum());
        resolved
    }

    /// First scan of an eviction pass: ages every active owner but the
    /// inserting one by `decay` (first pass only), then returns the sum
    /// of the eviction weights, accumulated in ascending owner order
    /// from `-0.0` — the terms and start of the dense `Iterator::sum`.
    /// Each weight reads the owner's freshness after its own decay,
    /// exactly as the dense weights read it after the whole decay loop.
    #[inline]
    fn decay_and_weigh(&mut self, owner: usize, decay: Option<f64>) -> f64 {
        let LlcState {
            occ,
            freshness,
            active,
            ..
        } = self;
        let mut wsum = -0.0;
        for &i in active.iter() {
            let i = i as usize;
            let mut f = freshness[i];
            if let Some(d) = decay {
                if i != owner && f != 0.0 {
                    f *= d;
                    if f < FRESHNESS_FLUSH {
                        f = 0.0;
                    }
                    freshness[i] = f;
                }
            }
            wsum += eviction_weight(occ[i], f);
        }
        wsum
    }

    /// Second scan of an eviction pass: takes `overflow × w / wsum`
    /// from every active owner (clamped at its occupancy, sub-byte
    /// remainders flushed) and returns the evicted bytes and the
    /// occupancy sum left behind (from `-0.0`, like `Iterator::sum`).
    /// Each weight is recomputed from inputs this scan has not changed
    /// yet, so it equals the first scan's bit for bit; an empty owner
    /// takes exactly `0.0`, which the skip leaves out of `evicted`.
    #[inline]
    fn take_pass(&mut self, overflow: f64, wsum: f64) -> (f64, f64) {
        let LlcState {
            occ,
            freshness,
            active,
            ..
        } = self;
        let mut evicted = 0.0;
        let mut total = -0.0;
        for &i in active.iter() {
            let i = i as usize;
            let o = &mut occ[i];
            if *o > 0.0 {
                let w = eviction_weight(*o, freshness[i]);
                let take = (overflow * w / wsum).min(*o);
                *o -= take;
                if *o < OCC_FLUSH_BYTES {
                    *o = 0.0;
                }
                evicted += take;
            }
            total += *o;
        }
        (evicted, total)
    }

    /// Sum of the active owners' occupancies, in ascending owner order
    /// from `-0.0` (the dense `Iterator::sum` over every owner).
    fn occ_sum(&self) -> f64 {
        self.active
            .iter()
            .fold(-0.0, |sum, &i| sum + self.occ[i as usize])
    }

    /// Drops owners whose occupancy and freshness have both been
    /// flushed to exactly zero from the active index (pure
    /// bookkeeping: a skipped all-zero owner contributes nothing to
    /// any scan).
    fn prune_active(&mut self) {
        let occ = &self.occ;
        let fresh = &self.freshness;
        let is_active = &mut self.is_active;
        self.active.retain(|&iu| {
            let i = iu as usize;
            let live = occ[i] != 0.0 || fresh[i] != 0.0;
            if !live {
                is_active[i] = false;
            }
            live
        });
    }

    /// The freshness decay factor for an insertion of `bytes`, with a
    /// one-entry bitwise memo (same input bits → same output bits, so
    /// the memo is invisible in the results).
    fn decay_for(&mut self, bytes: f64) -> f64 {
        let key = bytes.to_bits();
        if self.exp_memo.0 != key {
            self.exp_memo = (key, (-bytes / (self.capacity * FRESH_TAU)).exp());
        }
        self.exp_memo.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_matches(llc: &LlcState) -> bool {
        let sum: f64 = (0..llc.occ.len()).map(|i| llc.occupancy(i)).sum();
        (sum - llc.total()).abs() < 1e-6
    }

    #[test]
    fn insert_grows_footprint() {
        let mut llc = LlcState::new(1000.0, 1);
        llc.insert(0, 100.0, 500.0);
        assert_eq!(llc.occupancy(0), 100.0);
        llc.insert(0, 100.0, 500.0);
        assert_eq!(llc.occupancy(0), 200.0);
        assert!(total_matches(&llc));
    }

    #[test]
    fn footprint_capped_at_wss() {
        let mut llc = LlcState::new(1000.0, 1);
        llc.insert(0, 900.0, 300.0);
        assert_eq!(llc.occupancy(0), 300.0);
    }

    #[test]
    fn capacity_pressure_scales_everyone() {
        let mut llc = LlcState::new(1000.0, 2);
        llc.insert(0, 600.0, 1e9);
        llc.insert(1, 600.0, 1e9);
        assert!((llc.total() - 1000.0).abs() < 1e-9);
        // Owner 1 inserted later, so owner 0 lost some share; both hold
        // a nonzero piece.
        assert!(llc.occupancy(0) > 400.0 && llc.occupancy(0) < 600.0);
        assert!(llc.occupancy(1) > 400.0);
        assert!(total_matches(&llc));
    }

    #[test]
    fn trasher_erodes_victim() {
        let mut llc = LlcState::new(1000.0, 2);
        llc.insert(0, 500.0, 500.0); // victim warm
        let before = llc.occupancy(0);
        for _ in 0..50 {
            llc.insert(1, 100.0, 1e9); // trasher streams through
        }
        assert!(
            llc.occupancy(0) < before / 2.0,
            "victim should lose most of its footprint, kept {}",
            llc.occupancy(0)
        );
        assert!(total_matches(&llc));
    }

    #[test]
    fn ensure_owners_extends() {
        let mut llc = LlcState::new(100.0, 0);
        llc.insert(5, 10.0, 100.0);
        assert_eq!(llc.occupancy(5), 10.0);
        assert_eq!(llc.occupancy(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LlcState::new(0.0, 1);
    }

    #[test]
    fn recency_protects_an_active_victim() {
        // A victim that keeps referencing its lines must survive a
        // streaming trasher far better than a stale one.
        let mut active = LlcState::new(1000.0, 2);
        active.insert(0, 500.0, 500.0);
        let mut stale = active.clone();
        for _ in 0..100 {
            active.touch_frac(0, 1.0); // victim keeps hitting
            active.insert(1, 50.0, 1e9);
            stale.insert(1, 50.0, 1e9); // victim never referenced
        }
        assert!(
            active.occupancy(0) > 2.0 * stale.occupancy(0),
            "recency must protect: active={} stale={}",
            active.occupancy(0),
            stale.occupancy(0)
        );
    }

    /// Asserts `lean` holds bit for bit the state of the dense oracle.
    fn assert_bitwise(dense: &LlcState, lean: &LlcState, ctx: &str) {
        assert_eq!(
            dense.total().to_bits(),
            lean.total().to_bits(),
            "total diverged ({ctx})"
        );
        assert_eq!(dense.occ.len(), lean.occ.len(), "owner space ({ctx})");
        for i in 0..dense.occ.len() {
            assert_eq!(
                dense.occupancy(i).to_bits(),
                lean.occupancy(i).to_bits(),
                "occ[{i}] diverged ({ctx})"
            );
            assert_eq!(
                dense.freshness(i).to_bits(),
                lean.freshness(i).to_bits(),
                "freshness[{i}] diverged ({ctx})"
            );
        }
    }

    #[test]
    fn llc_lean_matches_insert() {
        // insert_lean must be bit-identical to insert over arbitrary
        // operation sequences: same occupancies, totals and freshness.
        let mut rng = aql_sim::rng::SimRng::seed_from(42);
        for owners in [1usize, 2, 7, 32] {
            let mut a = LlcState::new(8_388_608.0, owners);
            let mut b = LlcState::new(8_388_608.0, owners);
            for step in 0..2_000 {
                let owner = rng.uniform_u64(0, owners as u64) as usize;
                match rng.uniform_u64(0, 4) {
                    0 => {
                        let frac = rng.unit_f64() * 1.5;
                        a.touch_frac(owner, frac);
                        b.touch_frac(owner, frac);
                    }
                    _ => {
                        let bytes = rng.unit_f64() * 2_000_000.0;
                        let max = if rng.chance(0.3) {
                            1e9
                        } else {
                            rng.unit_f64() * 9_000_000.0
                        };
                        a.insert(owner, bytes, max);
                        b.insert_lean(owner, bytes, max);
                    }
                }
                assert_bitwise(&a, &b, &format!("{owners} owners, step {step}"));
            }
        }
    }

    #[test]
    fn lean_matches_insert_on_a_skewed_owner_space() {
        // A multi-socket LLC: 48 global owners, of which a hot window of
        // 4-6 runs at a time and rotates. Cold owners must flush to
        // exactly 0.0, get pruned from the active index and re-activate
        // when the window comes back round, over several prune periods.
        const OWNERS: usize = 48;
        let mut rng = aql_sim::rng::SimRng::seed_from(7);
        let mut a = LlcState::new(8_388_608.0, OWNERS);
        let mut b = LlcState::new(8_388_608.0, OWNERS);
        let mut resolved = Vec::new();
        let (mut inserts, mut step) = (0u32, 0u32);
        let (mut seen, mut pruned) = ([false; OWNERS], [false; OWNERS]);
        let (mut prunes, mut reactivations) = (0, 0);
        let mut min_active_after_prune = OWNERS;
        while inserts < 3 * PRUNE_PERIOD + PRUNE_PERIOD / 2 {
            let base = (step / 300) as usize * 5;
            let width = 4 + (step / 300) as usize % 3;
            let owner = (base + rng.uniform_u64(0, width as u64) as usize) % OWNERS;
            // The window's first owner only re-references (a resident
            // set that never misses), so it holds freshness without
            // occupancy: a prune must keep it.
            if owner == base % OWNERS || rng.chance(0.25) {
                let frac = rng.unit_f64();
                a.touch_frac(owner, frac);
                b.touch_frac(owner, frac);
            } else {
                let bytes = rng.unit_f64() * 1_500_000.0;
                let max = if rng.chance(0.5) {
                    1e9
                } else {
                    rng.unit_f64() * 6_000_000.0
                };
                a.insert(owner, bytes, max);
                let r = b.insert_lean_resolved(owner, bytes, max);
                if !resolved.contains(&r) {
                    resolved.push(r);
                }
                inserts += 1;
                if b.prune_tick == 0 {
                    prunes += 1;
                    min_active_after_prune = min_active_after_prune.min(b.active.len());
                }
            }
            assert_bitwise(&a, &b, &format!("step {step}"));
            for i in 0..OWNERS {
                if b.is_active[i] {
                    reactivations += u32::from(pruned[i]);
                    (seen[i], pruned[i]) = (true, false);
                } else if seen[i] {
                    // Only a prune drops an owner, and only one the
                    // oracle holds at exactly 0.0 in both fields.
                    assert_eq!((a.occupancy(i), a.freshness(i)), (0.0, 0.0));
                    pruned[i] = true;
                }
            }
            for &i in &b.active {
                assert!(b.is_active[i as usize], "index mirror out of sync");
            }
            assert!(b.active.windows(2).all(|w| w[0] < w[1]), "active unsorted");
            step += 1;
        }
        assert!(prunes >= 3, "only {prunes} prunes");
        assert!(
            min_active_after_prune <= 12,
            "the active set never went sparse: {min_active_after_prune}"
        );
        assert!(reactivations >= 10, "only {reactivations} re-activations");
        assert!(resolved.contains(&Resolved::Fits), "{resolved:?}");
        assert!(resolved.contains(&Resolved::Passes(1)), "{resolved:?}");
    }

    /// Runs `ops` (`(owner, bytes)` inserts, `(owner, -frac)` touches)
    /// through the dense and the lean path, checking bitwise agreement
    /// after each, and returns the lean branch of the last insert.
    fn replay(capacity: f64, ops: &[(usize, f64)]) -> (LlcState, Resolved) {
        let mut a = LlcState::new(capacity, 3);
        let mut b = LlcState::new(capacity, 3);
        let mut last = Resolved::Fits;
        for (k, &(owner, x)) in ops.iter().enumerate() {
            if x < 0.0 {
                a.touch_frac(owner, -x);
                b.touch_frac(owner, -x);
            } else {
                a.insert(owner, x, 1e30);
                last = b.insert_lean_resolved(owner, x, 1e30);
            }
            assert_bitwise(&a, &b, &format!("op {k}"));
        }
        (b, last)
    }

    #[test]
    fn lean_clamped_multi_pass_eviction_matches_insert() {
        // A small stale owner and a large one decayed stale by the
        // insertion both want more than they hold: the first pass
        // empties them, the second evicts the rest from the fresh
        // inserter.
        let (llc, r) = replay(1000.0, &[(1, 10.0), (2, 990.0), (0, -1.0), (0, 10_000.0)]);
        assert!(matches!(r, Resolved::Passes(n) if n >= 2), "{r:?}");
        assert_eq!(llc.occupancy(1), 0.0, "owner 1 was not clamped");
        assert_eq!(llc.occupancy(2), 0.0, "owner 2 was not clamped");
        assert!((llc.total() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn lean_negligible_overflow_re_sums_the_total() {
        // 0 < overflow <= 1e-9: no eviction pass, but the running total
        // (0.6 + 0.1 + 0.2, in insertion order) is replaced by the sum
        // in owner order (0.1 + 0.2 + 0.6), which differs in its last bit.
        let (llc, r) = replay(0.9 - 5e-10, &[(2, 0.6), (0, 0.1), (1, 0.2)]);
        assert_eq!(r, Resolved::Negligible);
        assert_eq!(llc.total(), 0.9);
    }

    #[test]
    fn lean_degenerate_weights_fallback_matches_insert() {
        // An insertion 2^56 times the capacity: the running total
        // rounds one ulp above what the owners hold, so the first pass
        // empties everyone and leaves an overflow that no weight can
        // absorb.
        let (llc, r) = replay(8.0, &[(0, 3.0), (2, 5.0), (1, 1.3 * 2f64.powi(56))]);
        assert_eq!(r, Resolved::Fallback(1));
        assert_eq!(llc.total(), 0.0);
    }

    #[test]
    fn eviction_conserves_capacity() {
        let mut llc = LlcState::new(1000.0, 3);
        for i in 0..3 {
            llc.insert(i, 900.0, 1e9);
        }
        assert!(llc.total() <= 1000.0 + 1e-6);
        let sum: f64 = (0..3).map(|i| llc.occupancy(i)).sum();
        assert!((sum - llc.total()).abs() < 1e-6);
        for i in 0..3 {
            assert!(llc.occupancy(i) >= 0.0);
        }
    }
}
