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
    /// Reused eviction-weight buffer for [`LlcState::insert_lean`], so
    /// the lean path performs no allocation in steady state.
    scratch: Vec<f64>,
    /// Mutation epoch: bumped whenever an insertion or owner eviction
    /// can change any occupancy. An unchanged epoch proves every
    /// occupancy-derived quantity is still exact; the steady-rate cache
    /// ([`crate::rate::RateCache`]) uses the finer per-owner occupancy
    /// bits instead, but the epoch remains the cheap socket-wide
    /// contention signal (diagnostics, tests, future consumers). Pure
    /// re-reference touches do **not** bump it — they alter only this
    /// owner's freshness, which no execution rate reads.
    epoch: u64,
    /// Owners that may hold state (occupancy or freshness > 0), in
    /// ascending order. The lean mutation paths scan only this set:
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

impl LlcState {
    /// Creates an empty LLC of `capacity` bytes for `owners` owners.
    pub fn new(capacity: f64, owners: usize) -> Self {
        assert!(capacity > 0.0, "LLC capacity must be positive");
        LlcState {
            capacity,
            occ: vec![0.0; owners],
            total: 0.0,
            freshness: vec![0.0; owners],
            scratch: Vec::new(),
            epoch: 0,
            active: Vec::new(),
            is_active: vec![false; owners],
            exp_memo: (u64::MAX, 1.0),
            prune_tick: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Resident footprint of `owner` in bytes.
    pub fn occupancy(&self, owner: usize) -> f64 {
        self.occ.get(owner).copied().unwrap_or(0.0)
    }

    /// Sum of all footprints.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Current mutation epoch (see the field docs). Any change to any
    /// occupancy bumps this; cached occupancy-derived rates are valid
    /// exactly as long as the epoch stands still.
    pub fn epoch(&self) -> u64 {
        self.epoch
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

    /// Marks the owner's whole resident set as recently used.
    pub fn touch(&mut self, owner: usize) {
        self.touch_frac(owner, 1.0);
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
        if bytes > 0.0 {
            self.epoch = self.epoch.wrapping_add(1);
        }
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
    /// the same order, but touches only the *active* owner set (owners
    /// whose occupancy and freshness are not both exactly zero — the
    /// skipped terms are exact identities: `x + 0.0`, `0.0 × d`,
    /// `0.0`-weight takes), reuses a scratch buffer for the eviction
    /// weights (no allocation) and memoizes the freshness-decay
    /// exponential for repeated identical insert sizes. The engine's
    /// adaptive time-advance routes execution through this path; the
    /// dense conformance oracle keeps calling [`LlcState::insert`].
    /// `llc_lean_matches_insert` (property test) asserts the bitwise
    /// equivalence.
    pub fn insert_lean(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
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
        if bytes > 0.0 {
            self.epoch = self.epoch.wrapping_add(1);
        }
        if grown > 0.0 {
            self.activate(owner);
        }
        // Layout choice, not semantics: when most owners are active
        // (single-socket machines), indexed gathers lose to contiguous
        // scans, so fall through to the dense-layout loops; the sparse
        // path pays off on multi-socket machines where each socket only
        // ever hosts a fraction of the global owner space.
        if self.active.len() * 4 >= self.occ.len() * 3 {
            self.insert_lean_contiguous(owner, bytes);
        } else {
            self.insert_lean_sparse(owner, bytes);
        }
    }

    /// The lean tail for a mostly-active owner space: the dense loop
    /// shapes (contiguous scans, no indirection) with the lean-only
    /// extras — scratch-buffer reuse and the memoized decay `exp`.
    fn insert_lean_contiguous(&mut self, owner: usize, bytes: f64) {
        if bytes > 0.0 {
            let decay = self.decay_for(bytes);
            for (i, f) in self.freshness.iter_mut().enumerate() {
                if i != owner && *f != 0.0 {
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
        let mut weights = std::mem::take(&mut self.scratch);
        for _ in 0..4 {
            if overflow <= 1e-9 {
                break;
            }
            weights.clear();
            weights.extend((0..self.occ.len()).map(|i| {
                if self.occ[i] > 0.0 {
                    self.occ[i] * (1.0 + STALE_BOOST * (1.0 - self.freshness[i]))
                } else {
                    0.0
                }
            }));
            let wsum: f64 = weights.iter().sum();
            if wsum <= 0.0 {
                break;
            }
            let mut evicted = 0.0;
            for (occ, w) in self.occ.iter_mut().zip(&weights) {
                // Zero-weight owners contribute an exact 0.0 take.
                if *w == 0.0 {
                    continue;
                }
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
        self.scratch = weights;
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

    /// The lean tail for a sparsely-active owner space: every scan
    /// visits only the active owners. Inactive owners hold exactly
    /// `0.0` occupancy and freshness, so the skipped terms are exact
    /// identities (`x + 0.0`, `0.0 × d`, zero-weight takes) and the
    /// results match the contiguous scans bit for bit.
    fn insert_lean_sparse(&mut self, owner: usize, bytes: f64) {
        if bytes > 0.0 {
            let decay = self.decay_for(bytes);
            for k in 0..self.active.len() {
                let i = self.active[k] as usize;
                if i != owner && self.freshness[i] != 0.0 {
                    self.freshness[i] *= decay;
                    if self.freshness[i] < FRESHNESS_FLUSH {
                        self.freshness[i] = 0.0;
                    }
                }
            }
        }
        let mut overflow = self.total - self.capacity;
        if overflow <= 0.0 {
            return;
        }
        let mut weights = std::mem::take(&mut self.scratch);
        for _ in 0..4 {
            if overflow <= 1e-9 {
                break;
            }
            weights.clear();
            let mut wsum = 0.0;
            for &iu in &self.active {
                let i = iu as usize;
                let w = if self.occ[i] > 0.0 {
                    self.occ[i] * (1.0 + STALE_BOOST * (1.0 - self.freshness[i]))
                } else {
                    0.0
                };
                weights.push(w);
                wsum += w;
            }
            if wsum <= 0.0 {
                break;
            }
            let mut evicted = 0.0;
            for (k, &w) in weights.iter().enumerate() {
                // Zero-weight owners contribute an exact 0.0 take.
                if w == 0.0 {
                    continue;
                }
                let occ = &mut self.occ[self.active[k] as usize];
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
        self.scratch = weights;
        if overflow > 1e-9 {
            // Degenerate weights: plain proportional fallback.
            let sum: f64 = self.active.iter().map(|&i| self.occ[i as usize]).sum();
            if sum > 0.0 {
                let scale = (sum - overflow).max(0.0) / sum;
                for &iu in &self.active {
                    let o = &mut self.occ[iu as usize];
                    *o *= scale;
                    if *o < OCC_FLUSH_BYTES {
                        *o = 0.0;
                    }
                }
            }
        }
        self.total = self.active.iter().map(|&i| self.occ[i as usize]).sum();
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

    /// Removes the owner's footprint entirely (socket migration or VM
    /// teardown).
    pub fn evict_owner(&mut self, owner: usize) {
        if let Some(o) = self.occ.get_mut(owner) {
            if *o != 0.0 {
                self.epoch = self.epoch.wrapping_add(1);
            }
            self.total -= *o;
            *o = 0.0;
            if self.total < 0.0 {
                self.total = 0.0;
            }
        }
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        (self.total / self.capacity).clamp(0.0, 1.0)
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
    fn evict_owner_clears() {
        let mut llc = LlcState::new(1000.0, 2);
        llc.insert(0, 400.0, 1e9);
        llc.insert(1, 300.0, 1e9);
        llc.evict_owner(0);
        assert_eq!(llc.occupancy(0), 0.0);
        assert!((llc.total() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn ensure_owners_extends() {
        let mut llc = LlcState::new(100.0, 0);
        llc.insert(5, 10.0, 100.0);
        assert_eq!(llc.occupancy(5), 10.0);
        assert_eq!(llc.occupancy(3), 0.0);
    }

    #[test]
    fn pressure_range() {
        let mut llc = LlcState::new(100.0, 1);
        assert_eq!(llc.pressure(), 0.0);
        llc.insert(0, 250.0, 1e9);
        assert_eq!(llc.pressure(), 1.0);
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
            active.touch(0); // victim keeps hitting
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
                assert_eq!(a.total().to_bits(), b.total().to_bits(), "step {step}");
                assert_eq!(a.epoch(), b.epoch(), "epoch diverged at step {step}");
                for i in 0..owners {
                    assert_eq!(
                        a.occupancy(i).to_bits(),
                        b.occupancy(i).to_bits(),
                        "occ[{i}] diverged at step {step}"
                    );
                    assert_eq!(
                        a.freshness(i).to_bits(),
                        b.freshness(i).to_bits(),
                        "freshness[{i}] diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_tracks_mutations_only() {
        let mut llc = LlcState::new(1000.0, 2);
        let e0 = llc.epoch();
        llc.touch_frac(0, 0.5); // pure re-reference: no occupancy change
        assert_eq!(llc.epoch(), e0, "touches must not bump the epoch");
        llc.insert(0, 10.0, 1e9);
        assert_ne!(llc.epoch(), e0, "insertions must bump the epoch");
        let e1 = llc.epoch();
        llc.insert(0, 0.0, 1e9); // zero-byte insert changes nothing
        assert_eq!(llc.epoch(), e1);
        llc.evict_owner(0);
        assert_ne!(llc.epoch(), e1, "owner eviction must bump the epoch");
        let e2 = llc.epoch();
        llc.evict_owner(1); // owner 1 holds nothing
        assert_eq!(llc.epoch(), e2);
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
