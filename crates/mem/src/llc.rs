//! Shared last-level cache occupancy model.
//!
//! The LLC is modelled as a capacity shared by *owners* (vCPUs): each
//! owner has a resident footprint in bytes. Misses fetch lines and grow
//! the owner's footprint; when the sum exceeds capacity every footprint
//! is scaled down proportionally — a smooth approximation of random
//! replacement that reproduces the paper's contention effects:
//! trashing owners (`LLCO`) with huge fetch rates erode the footprint
//! of cache-friendly owners (`LLCF`) while those are descheduled.
//!
//! Owners are stored in *blocks* of four (`LANES`) consecutive indices, and
//! the model's three owner sums (eviction weights, evicted bytes,
//! occupancy total) are *lane sums*: owner `i` adds into lane
//! `i % LANES`, every lane starts at `+0.0`, and the result is
//! `(l0 + l2) + (l1 + l3)`. The dense [`LlcState::insert`] and the
//! block-wise [`LlcState::insert_lean`] both sum this way, so they stay
//! bit-identical while the lean scans do a block's arithmetic in
//! packed operations.

use std::ops::{Add, Div, Mul, Sub};

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

/// Insertions between opportunistic compactions of the active-block
/// index (lean path bookkeeping only).
const PRUNE_PERIOD: u32 = 4096;

/// Owners per block, and lanes per owner sum.
const LANES: usize = 4;

/// One value per owner of a block: owner `LANES × b + k` is lane `k`
/// of block `b`.
type Block = [f64; LANES];

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
    /// Footprints in bytes, padded to a whole number of blocks (the
    /// padding owners hold `0.0` until the index space grows over them).
    occ: Vec<Block>,
    total: f64,
    /// Freshness in `[0, 1]`, laid out like `occ`.
    freshness: Vec<Block>,
    /// Blocks that may hold state (an occupancy or freshness that is
    /// not `0.0`), in ascending order. The lean mutation path scans
    /// only these: every skipped block holds exactly `0.0` in both
    /// fields, it would add `+0.0` to every lane, and `x + 0.0` is
    /// exact, so the results are bit-identical to the dense full
    /// scans. On a multi-socket machine owner indices are global, so
    /// this keeps each socket's passes proportional to the blocks its
    /// owners ran in, not to the whole machine.
    active: Vec<u32>,
    /// Membership mirror of `active`, one flag per block, for O(1)
    /// insertion checks.
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

/// An owner's eviction weight: its occupancy scaled by staleness. It
/// is exactly `+0.0` for an empty owner, because occupancies are never
/// negative and the factor is finite. Written once for a scalar owner
/// and for a block of four.
#[inline(always)]
fn eviction_weight<T>(occ: T, freshness: T) -> T
where
    T: Copy + From<f64> + Add<Output = T> + Sub<Output = T> + Mul<Output = T>,
{
    occ * (T::from(1.0) + T::from(STALE_BOOST) * (T::from(1.0) - freshness))
}

/// `a.min(b)` by compare, the form `minpd` computes lane by lane. It
/// equals `f64::min` here because no operand is NaN.
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// Writes `x` into `owner`'s lane by rewriting its whole block. The
/// scans load whole blocks right after `touch_frac` and the insert's
/// growth write one lane: a load is forwarded from a store of its own
/// width, but one that straddles a narrower store waits until that
/// store reaches the cache.
#[inline(always)]
fn set_lane(blocks: &mut [Block], owner: usize, x: f64) {
    let b = &mut blocks[owner / LANES];
    F4::load(b).with_lane(owner % LANES, x).store(b);
}

/// The owner sum of the cache model over whole blocks: four fixed lane
/// accumulators starting at `+0.0`, combined as `(l0 + l2) + (l1 + l3)`.
///
/// That is the order in which a block held as two two-lane registers
/// (lanes 0-1, lanes 2-3) reduces: add the registers, then their two
/// lanes. Combined as `(l0 + l1) + (l2 + l3)` instead, the optimiser
/// pairs lanes 0 with 2 and 1 with 3 through the whole lean scan, which
/// costs lane shuffles and split stores in every block.
fn lane_sum(blocks: &[Block]) -> f64 {
    let (mut l0, mut l1, mut l2, mut l3) = (0.0, 0.0, 0.0, 0.0);
    for b in blocks {
        l0 += b[0];
        l1 += b[1];
        l2 += b[2];
        l3 += b[3];
    }
    (l0 + l2) + (l1 + l3)
}

impl LlcState {
    /// Creates an empty LLC of `capacity` bytes for `owners` owners.
    pub fn new(capacity: f64, owners: usize) -> Self {
        assert!(capacity > 0.0, "LLC capacity must be positive");
        let blocks = owners.div_ceil(LANES);
        LlcState {
            capacity,
            occ: vec![[0.0; LANES]; blocks],
            total: 0.0,
            freshness: vec![[0.0; LANES]; blocks],
            active: Vec::new(),
            is_active: vec![false; blocks],
            exp_memo: (u64::MAX, 1.0),
            prune_tick: 0,
        }
    }

    /// Resident footprint of `owner` in bytes.
    pub fn occupancy(&self, owner: usize) -> f64 {
        self.occ
            .get(owner / LANES)
            .map_or(0.0, |b| b[owner % LANES])
    }

    /// Sum of all footprints.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Grows the index space to hold at least `owners` owners.
    pub fn ensure_owners(&mut self, owners: usize) {
        let blocks = owners.div_ceil(LANES);
        if self.occ.len() < blocks {
            self.occ.resize(blocks, [0.0; LANES]);
            self.freshness.resize(blocks, [0.0; LANES]);
            self.is_active.resize(blocks, false);
        }
    }

    /// Marks an owner's block as possibly holding state, keeping
    /// `active` sorted ascending so lean scans visit blocks in dense
    /// index order (the order the dense loops use).
    fn activate(&mut self, owner: usize) {
        let block = owner / LANES;
        if !self.is_active[block] {
            self.is_active[block] = true;
            let pos = self.active.partition_point(|&b| (b as usize) < block);
            self.active.insert(pos, block as u32);
        }
    }

    /// Records that `owner` re-referenced `frac` of its working set
    /// (`frac` may exceed 1; freshness saturates at 1).
    pub fn touch_frac(&mut self, owner: usize, frac: f64) {
        self.ensure_owners(owner + 1);
        let f = (self.freshness(owner) + frac.max(0.0)).min(1.0);
        set_lane(&mut self.freshness, owner, f);
        if f > 0.0 {
            self.activate(owner);
        }
    }

    /// Current freshness of an owner, in `[0, 1]`.
    pub fn freshness(&self, owner: usize) -> f64 {
        self.freshness
            .get(owner / LANES)
            .map_or(0.0, |b| b[owner % LANES])
    }

    /// Grows `owner`'s footprint by `bytes`, capped at `max_bytes` (or
    /// at its current footprint, if that is larger), keeping the
    /// running total; shared by both insert paths.
    fn grow(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
        debug_assert!(bytes >= 0.0 && max_bytes >= 0.0);
        self.ensure_owners(owner + 1);
        let cur = self.occupancy(owner);
        let grown = (cur + bytes).min(max_bytes.max(cur));
        self.total += grown - cur;
        set_lane(&mut self.occ, owner, grown);
        if grown > 0.0 {
            self.activate(owner);
        }
    }

    /// Fetches `bytes` for `owner` (footprint capped at `max_bytes`,
    /// normally the owner's working-set size), then resolves capacity
    /// pressure by evicting in proportion to occupancy × staleness
    /// (LRU approximation via freshness).
    ///
    /// This is the reference: plain full scans over every owner, owner
    /// by owner, with the owner sums taken by `lane_sum`.
    pub fn insert(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
        self.grow(owner, bytes, max_bytes);
        // New insertions age everyone else's lines.
        if bytes > 0.0 {
            let decay = (-bytes / (self.capacity * FRESH_TAU)).exp();
            for (i, f) in self.freshness.as_flattened_mut().iter_mut().enumerate() {
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
            let mut weights = self.occ.clone();
            for (w, &f) in weights
                .as_flattened_mut()
                .iter_mut()
                .zip(self.freshness.as_flattened())
            {
                *w = eviction_weight(*w, f);
            }
            let wsum = lane_sum(&weights);
            if wsum <= 0.0 {
                break;
            }
            // Each owner's weight is replaced by what it gave up.
            for (occ, w) in self
                .occ
                .as_flattened_mut()
                .iter_mut()
                .zip(weights.as_flattened_mut())
            {
                let take = min(overflow * *w / wsum, *occ);
                *occ -= take;
                if *occ < OCC_FLUSH_BYTES {
                    *occ = 0.0;
                }
                *w = take;
            }
            let evicted = lane_sum(&weights);
            overflow -= evicted;
            if evicted <= 1e-12 {
                break;
            }
        }
        if overflow > 1e-9 {
            // Degenerate weights: plain proportional fallback.
            let sum = lane_sum(&self.occ);
            if sum > 0.0 {
                let scale = (sum - overflow).max(0.0) / sum;
                for o in self.occ.as_flattened_mut() {
                    *o *= scale;
                    if *o < OCC_FLUSH_BYTES {
                        *o = 0.0;
                    }
                }
            }
        }
        self.total = lane_sum(&self.occ);
    }

    /// Bit-identical fast variant of [`LlcState::insert`].
    ///
    /// Performs exactly the same floating-point operations on every
    /// owner and adds them into the same lanes in the same order, but
    /// visits only the *active* blocks (a skipped block adds `+0.0` to
    /// every lane), memoizes the decay exponential, fuses the dense
    /// loops into two scans per eviction pass, and does each block's
    /// arithmetic four owners at a time (`F4`). The adaptive
    /// time-advance runs this path, the dense oracle
    /// [`LlcState::insert`]; `llc_lean_matches_insert` asserts the
    /// bitwise equivalence.
    pub fn insert_lean(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
        self.insert_lean_resolved(owner, bytes, max_bytes);
    }

    /// [`LlcState::insert_lean`], reporting which branch resolved the
    /// capacity pressure.
    fn insert_lean_resolved(&mut self, owner: usize, bytes: f64, max_bytes: f64) -> Resolved {
        self.prune_tick += 1;
        if self.prune_tick >= PRUNE_PERIOD {
            self.prune_tick = 0;
            self.prune_active();
        }
        self.grow(owner, bytes, max_bytes);
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
                for &b in &self.active {
                    for o in &mut self.occ[b as usize] {
                        *o *= scale;
                        if *o < OCC_FLUSH_BYTES {
                            *o = 0.0;
                        }
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
    /// inserting one by `decay` (first pass only), then returns the
    /// lane sum of the eviction weights. Each weight reads the owner's
    /// freshness after its own decay, exactly as the dense weights read
    /// it after the whole decay loop.
    ///
    /// The decay is a per-lane multiplier and flush limit. A lane that
    /// must not decay (the inserting owner's, or every lane when there
    /// is no decay) gets `× 1.0` and a limit of `0.0`: `f × 1.0` is
    /// exact and no freshness is below `0.0`, so the lane keeps its
    /// value and the block needs no branch.
    #[inline]
    fn decay_and_weigh(&mut self, owner: usize, decay: Option<f64>) -> f64 {
        let hold = (F4::from(1.0), F4::from(0.0));
        let (every, at_owner) = match decay {
            Some(d) => {
                let every = (F4::from(d), F4::from(FRESHNESS_FLUSH));
                let lane = owner % LANES;
                (
                    every,
                    (every.0.with_lane(lane, 1.0), every.1.with_lane(lane, 0.0)),
                )
            }
            None => (hold, hold),
        };
        let owner_block = owner / LANES;
        let mut wsum = F4::from(0.0);
        for &b in &self.active {
            let b = b as usize;
            let (mul, limit) = if b == owner_block { at_owner } else { every };
            let f = (F4::load(&self.freshness[b]) * mul).flush_below(limit);
            f.store(&mut self.freshness[b]);
            wsum = wsum + eviction_weight(F4::load(&self.occ[b]), f);
        }
        wsum.lane_total()
    }

    /// Second scan of an eviction pass: takes `overflow × w / wsum`
    /// from every active owner (clamped at its occupancy, sub-byte
    /// remainders flushed) and returns the lane sums of the evicted
    /// bytes and of the occupancy left behind. Each weight is
    /// recomputed from inputs this scan has not changed yet, so it
    /// equals the first scan's bit for bit; an empty owner takes
    /// exactly `0.0`, as in the dense pass.
    #[inline]
    fn take_pass(&mut self, overflow: f64, wsum: f64) -> (f64, f64) {
        let (overflow, wsum) = (F4::from(overflow), F4::from(wsum));
        let flush = F4::from(OCC_FLUSH_BYTES);
        let (mut evicted, mut total) = (F4::from(0.0), F4::from(0.0));
        for &b in &self.active {
            let b = b as usize;
            let occ = F4::load(&self.occ[b]);
            let w = eviction_weight(occ, F4::load(&self.freshness[b]));
            let take = (overflow * w / wsum).min(occ);
            let left = (occ - take).flush_below(flush);
            left.store(&mut self.occ[b]);
            evicted = evicted + take;
            total = total + left;
        }
        (evicted.lane_total(), total.lane_total())
    }

    /// Lane sum of the active blocks' occupancies (the dense
    /// `lane_sum` over every block).
    fn occ_sum(&self) -> f64 {
        self.active
            .iter()
            .fold(F4::from(0.0), |sum, &b| {
                sum + F4::load(&self.occ[b as usize])
            })
            .lane_total()
    }

    /// Drops blocks whose occupancies and freshness have all been
    /// flushed to exactly zero from the active index (pure
    /// bookkeeping: a skipped all-zero block contributes nothing to
    /// any scan).
    fn prune_active(&mut self) {
        let occ = &self.occ;
        let fresh = &self.freshness;
        let is_active = &mut self.is_active;
        self.active.retain(|&bu| {
            let b = bu as usize;
            let live = occ[b] != [0.0; LANES] || fresh[b] != [0.0; LANES];
            if !live {
                is_active[b] = false;
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

/// `[e(0), e(1), e(2), e(3)]` for a lane expression `e(k)`, written
/// out lane by lane: unoptimised builds then call nothing per lane.
macro_rules! per_lane {
    ($k:ident => $e:expr) => {
        per_lane!($k => $e; 0, 1, 2, 3)
    };
    ($k:ident => $e:expr; $($lane:literal),*) => {
        [$({
            let $k: usize = $lane;
            $e
        }),*]
    };
}

/// One block's four lanes, with lane-wise IEEE arithmetic: each lane
/// computes exactly what the scalar operation computes on that owner.
/// Plain Rust that optimised builds pack: on the x86_64 baseline each
/// lane-wise operation is two SSE2 instructions (`addpd`, `mulpd`,
/// `divpd`, `minpd`, `cmpnltpd`), one on lanes 0-1 and one on lanes 2-3.
#[derive(Clone, Copy)]
struct F4(Block);

impl F4 {
    #[inline(always)]
    fn load(b: &Block) -> F4 {
        F4(*b)
    }

    #[inline(always)]
    fn store(self, b: &mut Block) {
        *b = self.0;
    }

    /// Lane-wise [`min`].
    #[inline(always)]
    fn min(self, other: F4) -> F4 {
        F4(per_lane!(k => min(self.0[k], other.0[k])))
    }

    /// `self` with lane `lane` replaced by `x`, selected by bit masks
    /// so that it stays whole-block arithmetic (see [`set_lane`]).
    #[inline(always)]
    fn with_lane(self, lane: usize, x: f64) -> F4 {
        const MASKS: [[u64; LANES]; LANES] = [
            [u64::MAX, 0, 0, 0],
            [0, u64::MAX, 0, 0],
            [0, 0, u64::MAX, 0],
            [0, 0, 0, u64::MAX],
        ];
        let m = MASKS[lane];
        F4(per_lane!(k => f64::from_bits(
            x.to_bits() & m[k] | self.0[k].to_bits() & !m[k]
        )))
    }

    /// Lanes below their `limit` become exactly `+0.0`.
    #[inline(always)]
    fn flush_below(self, limit: F4) -> F4 {
        F4(per_lane!(k => if self.0[k] < limit.0[k] { 0.0 } else { self.0[k] }))
    }

    /// The lanes combined as [`lane_sum`] combines them.
    #[inline(always)]
    fn lane_total(self) -> f64 {
        let [l0, l1, l2, l3] = self.0;
        (l0 + l2) + (l1 + l3)
    }
}

impl From<f64> for F4 {
    #[inline(always)]
    fn from(x: f64) -> F4 {
        F4([x; LANES])
    }
}

macro_rules! lane_wise {
    ($($trait:ident $method:ident $op:tt),*) => {$(
        impl $trait for F4 {
            type Output = F4;
            #[inline(always)]
            fn $method(self, rhs: F4) -> F4 {
                F4(per_lane!(k => self.0[k] $op rhs.0[k]))
            }
        }
    )*};
}
lane_wise!(Add add +, Sub sub -, Mul mul *, Div div /);

#[cfg(test)]
mod tests {
    use super::*;

    fn total_matches(llc: &LlcState) -> bool {
        let sum: f64 = (0..llc.occ.len() * LANES).map(|i| llc.occupancy(i)).sum();
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
        // Owners 0..8: two whole blocks.
        assert_eq!(llc.occ.len(), 2);
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

    #[test]
    fn owner_sums_add_into_lanes() {
        // 1 + 2^-53 rounds back to 1 (ties to even), but 2^-53 + 2^-53
        // does not: summed owner by owner these owners total 1.0, summed
        // in lanes (1 + 0) + (2^-53 + 2^-53) they total 1 + 2^-52.
        let tiny = f64::EPSILON / 2.0;
        let owners = [1.0, tiny, 0.0, tiny];
        assert_eq!(owners.iter().sum::<f64>(), 1.0);
        assert_eq!(lane_sum(&[owners]), 1.0 + f64::EPSILON);
        // Owner 4 starts the next block in lane 0: (1 + tiny) + tiny.
        assert_eq!(
            lane_sum(&[[1.0, 0.0, 0.0, 0.0], [tiny, tiny, 0.0, 0.0]]),
            1.0
        );
        assert_eq!(F4::load(&owners).lane_total(), 1.0 + f64::EPSILON);
        // Through the model: an overflow under 1e-9 re-sums the total,
        // on both paths, from the lanes.
        let ops = [(0, 1.0), (1, tiny), (3, tiny)];
        let (llc, r) = replay(1.0 - 5e-10, &ops);
        assert_eq!(r, Resolved::Negligible);
        assert_eq!(llc.total(), 1.0 + f64::EPSILON);
    }

    /// Checks every lane-wise operation of `F4` against the scalar
    /// operation on each lane, bit for bit.
    fn check_block_ops(a: Block, b: Block) {
        let lanes = |x: F4| x.0.map(f64::to_bits);
        let scalar = |op: fn(f64, f64) -> f64| std::array::from_fn(|k| op(a[k], b[k]).to_bits());
        let (x, y) = (F4::load(&a), F4::load(&b));
        assert_eq!(lanes(x + y), scalar(|p, q| p + q), "add {a:?} {b:?}");
        assert_eq!(lanes(x - y), scalar(|p, q| p - q), "sub {a:?} {b:?}");
        assert_eq!(lanes(x * y), scalar(|p, q| p * q), "mul {a:?} {b:?}");
        assert_eq!(lanes(x / y), scalar(|p, q| p / q), "div {a:?} {b:?}");
        assert_eq!(lanes(x.min(y)), scalar(min), "min {a:?} {b:?}");
        let flush = |p: f64, q: f64| if p < q { 0.0 } else { p };
        assert_eq!(lanes(x.flush_below(y)), scalar(flush), "flush {a:?} {b:?}");
        for k in 0..LANES {
            let mut want = a.map(f64::to_bits);
            want[k] = b[k].to_bits();
            assert_eq!(lanes(x.with_lane(k, b[k])), want, "lane {k} of {a:?}");
        }
        assert_eq!(lanes(F4::from(b[1])), [b[1].to_bits(); LANES]);
        let total = lane_sum(&[a]);
        assert_eq!(x.lane_total().to_bits(), total.to_bits(), "total {a:?}");
    }

    #[test]
    fn block_ops_are_the_scalar_ops_lane_by_lane() {
        // Zeros, a subnormal, the flush limits and their neighbours,
        // and footprint-sized values; every operand of the divisions
        // is nonzero, so no lane is NaN.
        let values = [
            0.0,
            5e-324,
            FRESHNESS_FLUSH,
            FRESHNESS_FLUSH * (1.0 - f64::EPSILON),
            OCC_FLUSH_BYTES,
            0.3,
            1.0,
            1.0 + f64::EPSILON,
            8_388_608.0,
            1e300,
        ];
        let mut rng = aql_sim::rng::SimRng::seed_from(3);
        let mut pick = || values[rng.uniform_u64(0, values.len() as u64) as usize];
        for _ in 0..500 {
            let a: Block = std::array::from_fn(|_| pick());
            let b: Block = std::array::from_fn(|_| pick().max(5e-324));
            check_block_ops(a, b);
        }
    }

    /// Asserts `lean` holds bit for bit the state of the dense oracle.
    fn assert_bitwise(dense: &LlcState, lean: &LlcState, ctx: &str) {
        assert_eq!(
            dense.total().to_bits(),
            lean.total().to_bits(),
            "total diverged ({ctx})"
        );
        assert_eq!(dense.occ.len(), lean.occ.len(), "owner space ({ctx})");
        for i in 0..dense.occ.len() * LANES {
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
        // Halfway through, the owner space grows by five owners, across
        // a block boundary.
        let mut rng = aql_sim::rng::SimRng::seed_from(42);
        for owners in [1usize, 2, 3, 5, 7, 9, 32] {
            let mut a = LlcState::new(8_388_608.0, owners);
            let mut b = LlcState::new(8_388_608.0, owners);
            let mut space = owners;
            for step in 0..2_000 {
                if step == 1_000 {
                    space += 5;
                    a.ensure_owners(space);
                    b.ensure_owners(space);
                    assert_eq!(b.occ.len(), space.div_ceil(LANES));
                }
                let owner = rng.uniform_u64(0, space as u64) as usize;
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
    fn lean_holds_the_inserting_owner_in_every_lane() {
        // Eight warm, partly fresh owners in two blocks; each owner of
        // the second block in turn inserts enough to evict. Only its own
        // freshness must escape the decay, in whichever lane it sits.
        for lane in 0..LANES {
            let inserter = LANES + lane;
            let mut a = LlcState::new(1000.0, 2 * LANES);
            for i in 0..2 * LANES {
                a.insert(i, 100.0 + 10.0 * i as f64, 1e9);
                a.touch_frac(i, 0.1 * (i + 1) as f64);
            }
            let mut b = a.clone();
            let before: Vec<f64> = (0..2 * LANES).map(|i| a.freshness(i)).collect();
            a.insert(inserter, 300.0, 1e9);
            let r = b.insert_lean_resolved(inserter, 300.0, 1e9);
            assert!(matches!(r, Resolved::Passes(_)), "lane {lane}: {r:?}");
            assert_bitwise(&a, &b, &format!("inserter in lane {lane}"));
            for (i, &f) in before.iter().enumerate() {
                if i == inserter {
                    assert_eq!(b.freshness(i), f, "lane {lane}: inserter decayed");
                } else {
                    assert!(b.freshness(i) < f, "lane {lane}: owner {i} kept {f}");
                }
            }
        }
    }

    #[test]
    fn a_block_with_one_live_owner_survives_a_prune() {
        // Owner 5 holds a footprint, its three block mates nothing;
        // owner 9's touch decays away. After a prune period of inserts
        // by owner 0, block 1 stays active and block 2 is dropped.
        let mut a = LlcState::new(1e12, 12);
        a.insert(5, 4096.0, 1e9);
        a.touch_frac(9, 1e-3);
        let mut b = a.clone();
        for _ in 0..PRUNE_PERIOD {
            a.insert(0, 1e10, 1e11);
            b.insert_lean(0, 1e10, 1e11);
        }
        assert_eq!(b.prune_tick, 0, "no prune ran");
        assert_bitwise(&a, &b, "after the prune");
        assert_eq!(b.occupancy(5), 4096.0);
        assert_eq!((b.occupancy(9), b.freshness(9)), (0.0, 0.0));
        assert_eq!(b.active, [0, 1]);
        assert_eq!(b.is_active, [true, true, false]);
        // The kept block still evicts from its live owner.
        a.insert(4, 1e12, 1e12);
        b.insert_lean(4, 1e12, 1e12);
        assert_bitwise(&a, &b, "after an eviction");
        assert!(b.occupancy(5) < 4096.0);
    }

    #[test]
    fn lean_matches_insert_on_a_skewed_owner_space() {
        // A multi-socket LLC: 48 global owners (12 blocks), of which a
        // hot window of 4-6 runs at a time and rotates. Cold owners must
        // flush to exactly 0.0, their blocks get pruned from the active
        // index and re-activate when the window comes back round, over
        // several prune periods.
        const OWNERS: usize = 48;
        const BLOCKS: usize = OWNERS / LANES;
        let mut rng = aql_sim::rng::SimRng::seed_from(7);
        let mut a = LlcState::new(8_388_608.0, OWNERS);
        let mut b = LlcState::new(8_388_608.0, OWNERS);
        let mut resolved = Vec::new();
        let (mut inserts, mut step) = (0u32, 0u32);
        let (mut seen, mut pruned) = ([false; BLOCKS], [false; BLOCKS]);
        let (mut prunes, mut reactivations) = (0, 0);
        let mut min_active_after_prune = BLOCKS;
        while inserts < 3 * PRUNE_PERIOD + PRUNE_PERIOD / 2 {
            let base = (step / 300) as usize * 5;
            let width = 4 + (step / 300) as usize % 3;
            let owner = (base + rng.uniform_u64(0, width as u64) as usize) % OWNERS;
            // The window's first owner only re-references (a resident
            // set that never misses), so it holds freshness without
            // occupancy: a prune must keep its block.
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
            for blk in 0..BLOCKS {
                if b.is_active[blk] {
                    reactivations += u32::from(pruned[blk]);
                    (seen[blk], pruned[blk]) = (true, false);
                } else if seen[blk] {
                    // Only a prune drops a block, and only one whose
                    // four owners the oracle holds at exactly 0.0 in
                    // both fields.
                    for i in blk * LANES..(blk + 1) * LANES {
                        assert_eq!((a.occupancy(i), a.freshness(i)), (0.0, 0.0));
                    }
                    pruned[blk] = true;
                }
            }
            for &blk in &b.active {
                assert!(b.is_active[blk as usize], "index mirror out of sync");
            }
            assert_eq!(
                b.is_active.iter().filter(|&&x| x).count(),
                b.active.len(),
                "index mirror out of sync"
            );
            assert!(b.active.windows(2).all(|w| w[0] < w[1]), "active unsorted");
            step += 1;
        }
        assert!(prunes >= 3, "only {prunes} prunes");
        // A quarter of the blocks: the window spans at most three.
        assert!(
            min_active_after_prune <= 3,
            "the active set never went sparse: {min_active_after_prune} blocks"
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
        // (0.1 + 0.6 + 0.2, in insertion order) is replaced by the lane
        // sum (0.1 + 0.2) + (0.6 + 0.0), which differs in its last bit.
        let (llc, r) = replay(0.9 - 5e-10, &[(0, 0.1), (1, 0.6), (2, 0.2)]);
        assert_eq!(r, Resolved::Negligible);
        assert_eq!(llc.total(), 0.9);
    }

    #[test]
    fn lean_degenerate_weights_fallback_matches_insert() {
        // An insertion 2^56 times the capacity: the running total
        // rounds one ulp above what the owners hold, so the first pass
        // empties everyone and leaves an overflow that no weight can
        // absorb.
        let (llc, r) = replay(8.0, &[(0, 3.0), (1, 5.0), (2, 1.3 * 2f64.powi(56))]);
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
