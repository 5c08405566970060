//! Credit-scheduler mechanics: run queues and credit accounting.
//!
//! This module contains the pure parts of the Xen Credit scheduler the
//! engine drives (§2.1 of the paper):
//!
//! * [`RunQueue`] — a per-pCPU queue with three priority classes
//!   (`BOOST` > `UNDER` > `OVER`), FIFO within a class.
//! * [`burn_credits`] — debits a vCPU's credits for consumed CPU time
//!   (100 credits per 10 ms tick of full-speed execution).
//! * [`refill_credits`] — the 30 ms accounting pass distributing
//!   credits per pool in proportion to VM weights, honouring caps.

use std::collections::VecDeque;

use crate::ids::VcpuId;
use crate::pool::CpuPool;
use crate::vm::{Prio, Vcpu, VmMeta};
use crate::TICK_NS;

/// Credits granted per pCPU per accounting period (Xen: 300).
pub const CREDITS_PER_ACCT_PER_PCPU: f64 = 300.0;
/// Upper clamp on a vCPU's credit balance.
pub const CREDIT_MAX: f64 = 300.0;
/// Lower clamp on a vCPU's credit balance.
pub const CREDIT_MIN: f64 = -300.0;
/// Credits burned by one full tick of execution (Xen: 100).
pub const CREDITS_PER_TICK: f64 = 100.0;

/// A per-pCPU run queue with priority classes.
///
/// Each entry remembers whether its vCPU is hard-pinned, so the queue
/// counts its *movable* entries — the ones a peer may steal: neither
/// `BOOST` nor pinned — exactly and in O(1) through every push, pop,
/// steal and remove ([`RunQueue::movable_len`]).
///
/// # Examples
///
/// ```
/// use aql_hv::sched::RunQueue;
/// use aql_hv::vm::Prio;
/// use aql_hv::VcpuId;
///
/// let mut q = RunQueue::new();
/// q.push_tail(Prio::Under, VcpuId(1), false);
/// q.push_tail(Prio::Over, VcpuId(2), true);
/// q.push_tail(Prio::Boost, VcpuId(3), false);
/// assert_eq!(q.movable_len(), 1);
/// assert_eq!(q.pop_best(), Some((VcpuId(3), Prio::Boost)));
/// assert_eq!(q.pop_best(), Some((VcpuId(1), Prio::Under)));
/// assert_eq!(q.pop_best(), Some((VcpuId(2), Prio::Over)));
/// assert_eq!(q.movable_len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunQueue {
    boost: VecDeque<Entry>,
    under: VecDeque<Entry>,
    over: VecDeque<Entry>,
    /// Queued `UNDER` and `OVER` entries that are not pinned.
    movable: usize,
}

/// One queued vCPU and whether it is hard-pinned (never stolen).
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: VcpuId,
    pinned: bool,
}

impl Entry {
    /// Whether a peer may steal this entry from the `prio` class.
    fn movable(self, prio: Prio) -> bool {
        prio != Prio::Boost && !self.pinned
    }
}

impl RunQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RunQueue::default()
    }

    fn class(&mut self, prio: Prio) -> &mut VecDeque<Entry> {
        match prio {
            Prio::Boost => &mut self.boost,
            Prio::Under => &mut self.under,
            Prio::Over => &mut self.over,
        }
    }

    /// Counts a new entry and returns it.
    fn admit(&mut self, prio: Prio, id: VcpuId, pinned: bool) -> Entry {
        let e = Entry { id, pinned };
        self.movable += usize::from(e.movable(prio));
        e
    }

    /// Uncounts an entry that left the `prio` class.
    fn release(&mut self, prio: Prio, e: Entry) -> (VcpuId, Prio) {
        self.movable -= usize::from(e.movable(prio));
        (e.id, prio)
    }

    /// Appends at the tail of the priority class (normal requeue).
    /// `pinned` marks a hard-pinned vCPU, which no peer may steal.
    pub fn push_tail(&mut self, prio: Prio, id: VcpuId, pinned: bool) {
        let e = self.admit(prio, id, pinned);
        self.class(prio).push_back(e);
    }

    /// Inserts at the head of the priority class (preempted vCPUs
    /// resume before their peers).
    pub fn push_head(&mut self, prio: Prio, id: VcpuId, pinned: bool) {
        let e = self.admit(prio, id, pinned);
        self.class(prio).push_front(e);
    }

    /// Removes and returns the best queued vCPU.
    pub fn pop_best(&mut self) -> Option<(VcpuId, Prio)> {
        for prio in [Prio::Boost, Prio::Under, Prio::Over] {
            if let Some(e) = self.class(prio).pop_front() {
                return Some(self.release(prio, e));
            }
        }
        None
    }

    /// The class of the best queued vCPU, if any.
    pub fn best_class(&self) -> Option<Prio> {
        if !self.boost.is_empty() {
            Some(Prio::Boost)
        } else if !self.under.is_empty() {
            Some(Prio::Under)
        } else if !self.over.is_empty() {
            Some(Prio::Over)
        } else {
            None
        }
    }

    /// Steals the latest movable vCPU, preferring lower classes so the
    /// victim pCPU keeps its most urgent work (Xen steals `UNDER`
    /// before `OVER`; `BOOST` is never stolen): the latest unpinned
    /// `UNDER` entry, else the latest unpinned `OVER` one. On a
    /// pin-free queue the scan stops at the tail entry.
    pub fn steal_tail(&mut self) -> Option<(VcpuId, Prio)> {
        for prio in [Prio::Under, Prio::Over] {
            let q = self.class(prio);
            if let Some(pos) = q.iter().rposition(|e| !e.pinned) {
                let e = q.remove(pos).expect("position is in range");
                return Some(self.release(prio, e));
            }
        }
        None
    }

    /// Removes a specific vCPU wherever it is queued; returns whether
    /// it was present.
    pub fn remove(&mut self, id: VcpuId) -> bool {
        for prio in [Prio::Boost, Prio::Under, Prio::Over] {
            let q = self.class(prio);
            if let Some(pos) = q.iter().position(|e| e.id == id) {
                let e = q.remove(pos).expect("position is in range");
                self.release(prio, e);
                return true;
            }
        }
        false
    }

    /// Total queued vCPUs.
    pub fn len(&self) -> usize {
        self.boost.len() + self.under.len() + self.over.len()
    }

    /// Queued vCPUs a peer may steal: neither `BOOST` nor pinned. O(1).
    pub fn movable_len(&self) -> usize {
        self.movable
    }

    /// [`RunQueue::movable_len`] recounted from the queued entries, for
    /// the engine's debug check of the O(1) count.
    pub(crate) fn recount_movable(&self) -> usize {
        self.under
            .iter()
            .chain(&self.over)
            .filter(|e| !e.pinned)
            .count()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued vCPUs, best class first, FIFO within class.
    pub fn iter(&self) -> impl Iterator<Item = VcpuId> + '_ {
        self.boost
            .iter()
            .chain(self.under.iter())
            .chain(self.over.iter())
            .map(|e| e.id)
    }
}

/// Debits `vcpu`'s credits for its unbilled CPU time and re-derives its
/// priority class (`OVER` when the balance goes negative). Boost is not
/// granted here — only wake-ups grant boost.
pub fn burn_credits(vcpu: &mut Vcpu) {
    if vcpu.unbilled_ns == 0 {
        return;
    }
    let burned = vcpu.unbilled_ns as f64 / TICK_NS as f64 * CREDITS_PER_TICK;
    vcpu.unbilled_ns = 0;
    vcpu.credit = (vcpu.credit - burned).max(CREDIT_MIN);
    if vcpu.credit < 0.0 {
        vcpu.prio = Prio::Over;
    } else if vcpu.prio == Prio::Over {
        vcpu.prio = Prio::Under;
    }
}

/// The 30 ms accounting pass: distributes
/// [`CREDITS_PER_ACCT_PER_PCPU`] × pool size among the pool's vCPUs in
/// proportion to VM weights, splits each VM's grant equally across its
/// vCPUs in the pool, honours `cap`, clamps balances, and re-derives
/// priorities. As in Xen's `csched_acct`, the pass resets every vCPU
/// to `UNDER`/`OVER`, clearing stale `BOOST` states of queued vCPUs.
pub fn refill_credits(vcpus: &mut [Vcpu], vms: &[VmMeta], pools: &[CpuPool]) {
    for pool in pools {
        // Weight mass per VM present in this pool (deterministic VM order).
        let mut vm_members: Vec<(usize, Vec<usize>)> = Vec::new();
        for vm in vms {
            let members: Vec<usize> = vm
                .vcpus
                .iter()
                .map(|v| v.index())
                .filter(|&vi| vcpus[vi].pool == pool.id)
                .collect();
            if !members.is_empty() {
                vm_members.push((vm.id.index(), members));
            }
        }
        let total_weight: f64 = vm_members
            .iter()
            .map(|(vmi, _)| vms[*vmi].spec.weight as f64)
            .sum();
        if total_weight <= 0.0 {
            continue;
        }
        let pot = CREDITS_PER_ACCT_PER_PCPU * pool.pcpus.len() as f64;
        for (vmi, members) in &vm_members {
            let vm = &vms[*vmi];
            let mut vm_gain = pot * vm.spec.weight as f64 / total_weight;
            if let Some(cap) = vm.spec.cap_pct {
                vm_gain = vm_gain.min(CREDITS_PER_ACCT_PER_PCPU * cap as f64 / 100.0);
            }
            let per_vcpu = vm_gain / members.len() as f64;
            for &vi in members {
                let v = &mut vcpus[vi];
                v.credit = (v.credit + per_vcpu).min(CREDIT_MAX);
                v.prio = if v.credit < 0.0 {
                    Prio::Over
                } else {
                    Prio::Under
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PcpuId, PoolId, VmId};
    use crate::vm::VmSpec;

    fn mk_vcpu(i: usize, vm: usize) -> Vcpu {
        Vcpu::new(VcpuId(i), VmId(vm), 0, PoolId(0), PcpuId(0))
    }

    fn mk_vm(id: usize, weight: u32, vcpus: &[usize]) -> VmMeta {
        VmMeta {
            id: VmId(id),
            spec: VmSpec {
                name: format!("vm{id}"),
                weight,
                cap_pct: None,
                vcpus: vcpus.len(),
                pin: None,
            },
            vcpus: vcpus.iter().map(|&v| VcpuId(v)).collect(),
        }
    }

    #[test]
    fn queue_priority_order() {
        let mut q = RunQueue::new();
        q.push_tail(Prio::Over, VcpuId(0), false);
        q.push_tail(Prio::Under, VcpuId(1), false);
        q.push_tail(Prio::Under, VcpuId(2), false);
        assert_eq!(q.best_class(), Some(Prio::Under));
        assert_eq!(q.pop_best().unwrap().0, VcpuId(1));
        assert_eq!(q.pop_best().unwrap().0, VcpuId(2));
        assert_eq!(q.pop_best().unwrap().0, VcpuId(0));
        assert_eq!(q.pop_best(), None);
    }

    #[test]
    fn queue_head_insert_resumes_first() {
        let mut q = RunQueue::new();
        q.push_tail(Prio::Under, VcpuId(0), false);
        q.push_head(Prio::Under, VcpuId(1), false);
        assert_eq!(q.pop_best().unwrap().0, VcpuId(1));
    }

    #[test]
    fn steal_prefers_under_tail() {
        let mut q = RunQueue::new();
        q.push_tail(Prio::Boost, VcpuId(0), false);
        q.push_tail(Prio::Under, VcpuId(1), false);
        q.push_tail(Prio::Under, VcpuId(2), false);
        q.push_tail(Prio::Over, VcpuId(3), false);
        assert_eq!(q.steal_tail(), Some((VcpuId(2), Prio::Under)));
        assert_eq!(q.steal_tail(), Some((VcpuId(1), Prio::Under)));
        // Boost is never stolen; Over is the fallback.
        assert_eq!(q.steal_tail(), Some((VcpuId(3), Prio::Over)));
        assert_eq!(q.steal_tail(), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_finds_any_class() {
        let mut q = RunQueue::new();
        q.push_tail(Prio::Boost, VcpuId(0), false);
        q.push_tail(Prio::Over, VcpuId(1), false);
        assert!(q.remove(VcpuId(1)));
        assert!(!q.remove(VcpuId(1)));
        assert!(q.remove(VcpuId(0)));
        assert!(q.is_empty());
    }

    #[test]
    fn iter_orders_best_first() {
        let mut q = RunQueue::new();
        q.push_tail(Prio::Over, VcpuId(5), false);
        q.push_tail(Prio::Boost, VcpuId(6), false);
        q.push_tail(Prio::Under, VcpuId(7), false);
        let order: Vec<usize> = q.iter().map(|v| v.index()).collect();
        assert_eq!(order, vec![6, 7, 5]);
    }

    #[test]
    fn burn_debits_proportionally() {
        let mut v = mk_vcpu(0, 0);
        v.credit = 100.0;
        v.unbilled_ns = TICK_NS; // one full tick
        burn_credits(&mut v);
        assert_eq!(v.credit, 0.0);
        assert_eq!(v.prio, Prio::Under);
        v.unbilled_ns = TICK_NS / 2;
        burn_credits(&mut v);
        assert_eq!(v.credit, -50.0);
        assert_eq!(v.prio, Prio::Over);
    }

    #[test]
    fn burn_clamps_at_minimum() {
        let mut v = mk_vcpu(0, 0);
        v.credit = CREDIT_MIN + 10.0;
        v.unbilled_ns = 10 * TICK_NS;
        burn_credits(&mut v);
        assert_eq!(v.credit, CREDIT_MIN);
    }

    #[test]
    fn refill_splits_by_weight() {
        let mut vcpus = vec![mk_vcpu(0, 0), mk_vcpu(1, 1)];
        let vms = vec![mk_vm(0, 256, &[0]), mk_vm(1, 512, &[1])];
        let pools = vec![CpuPool::new(PoolId(0), vec![PcpuId(0)], TICK_NS)];
        refill_credits(&mut vcpus, &vms, &pools);
        // 300 credits split 1:2.
        assert!((vcpus[0].credit - 100.0).abs() < 1e-9);
        assert!((vcpus[1].credit - 200.0).abs() < 1e-9);
    }

    #[test]
    fn refill_respects_cap() {
        let mut vcpus = vec![mk_vcpu(0, 0)];
        let mut vm = mk_vm(0, 256, &[0]);
        vm.spec.cap_pct = Some(10); // 10% of one pCPU = 30 credits
        let pools = vec![CpuPool::new(PoolId(0), vec![PcpuId(0)], TICK_NS)];
        refill_credits(&mut vcpus, &[vm], &pools);
        assert!((vcpus[0].credit - 30.0).abs() < 1e-9);
    }

    #[test]
    fn refill_clamps_at_maximum() {
        let mut vcpus = vec![mk_vcpu(0, 0)];
        vcpus[0].credit = 290.0;
        let vms = vec![mk_vm(0, 256, &[0])];
        let pools = vec![CpuPool::new(PoolId(0), vec![PcpuId(0)], TICK_NS)];
        refill_credits(&mut vcpus, &vms, &pools);
        assert_eq!(vcpus[0].credit, CREDIT_MAX);
    }

    #[test]
    fn refill_recovers_over_vcpus() {
        let mut vcpus = vec![mk_vcpu(0, 0)];
        vcpus[0].credit = -100.0;
        vcpus[0].prio = Prio::Over;
        let vms = vec![mk_vm(0, 256, &[0])];
        let pools = vec![CpuPool::new(PoolId(0), vec![PcpuId(0)], TICK_NS)];
        refill_credits(&mut vcpus, &vms, &pools);
        assert!(vcpus[0].credit > 0.0);
        assert_eq!(vcpus[0].prio, Prio::Under);
    }

    #[test]
    fn refill_is_per_pool() {
        // vcpu0 in pool0, vcpu1 in pool1; each pool has one pCPU, so
        // each vCPU gets the whole per-pool pot regardless of weights.
        let mut vcpus = vec![mk_vcpu(0, 0), mk_vcpu(1, 1)];
        vcpus[1].pool = PoolId(1);
        let vms = vec![mk_vm(0, 256, &[0]), mk_vm(1, 64, &[1])];
        let pools = vec![
            CpuPool::new(PoolId(0), vec![PcpuId(0)], TICK_NS),
            CpuPool::new(PoolId(1), vec![PcpuId(1)], TICK_NS),
        ];
        refill_credits(&mut vcpus, &vms, &pools);
        assert!((vcpus[0].credit - 300.0).abs() < 1e-9);
        assert!((vcpus[1].credit - 300.0).abs() < 1e-9);
    }

    #[test]
    fn refill_splits_within_vm() {
        let mut vcpus = vec![mk_vcpu(0, 0), mk_vcpu(1, 0)];
        let vms = vec![mk_vm(0, 256, &[0, 1])];
        let pools = vec![CpuPool::new(PoolId(0), vec![PcpuId(0)], TICK_NS)];
        refill_credits(&mut vcpus, &vms, &pools);
        assert!((vcpus[0].credit - 150.0).abs() < 1e-9);
        assert!((vcpus[1].credit - 150.0).abs() < 1e-9);
    }
}

/// Property tests: [`RunQueue`] against a straightforward reference
/// model (three explicit FIFO lists) under random operation sequences.
#[cfg(test)]
mod runqueue_properties {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The reference model: one FIFO per class of `(vCPU, pinned)`
    /// entries, mirroring the documented semantics directly.
    #[derive(Debug, Default)]
    struct Model {
        classes: [VecDeque<(VcpuId, bool)>; 3],
    }

    const PRIOS: [Prio; 3] = [Prio::Boost, Prio::Under, Prio::Over];

    fn class_idx(p: Prio) -> usize {
        match p {
            Prio::Boost => 0,
            Prio::Under => 1,
            Prio::Over => 2,
        }
    }

    impl Model {
        fn push_tail(&mut self, p: Prio, id: VcpuId, pinned: bool) {
            self.classes[class_idx(p)].push_back((id, pinned));
        }

        fn push_head(&mut self, p: Prio, id: VcpuId, pinned: bool) {
            self.classes[class_idx(p)].push_front((id, pinned));
        }

        fn pop_best(&mut self) -> Option<(VcpuId, Prio)> {
            for (i, q) in self.classes.iter_mut().enumerate() {
                if let Some((v, _)) = q.pop_front() {
                    return Some((v, PRIOS[i]));
                }
            }
            None
        }

        fn best_class(&self) -> Option<Prio> {
            self.classes
                .iter()
                .position(|q| !q.is_empty())
                .map(|i| PRIOS[i])
        }

        /// Steal takes the unpinned entry nearest the `Under` tail,
        /// falls back to `Over`; `Boost` is never stolen.
        fn steal_tail(&mut self) -> Option<(VcpuId, Prio)> {
            for i in [1, 2] {
                let q = &mut self.classes[i];
                for pos in (0..q.len()).rev() {
                    if !q[pos].1 {
                        let (v, _) = q.remove(pos).expect("in range");
                        return Some((v, PRIOS[i]));
                    }
                }
            }
            None
        }

        /// Removes the first occurrence, searching best class first.
        fn remove(&mut self, id: VcpuId) -> bool {
            for q in &mut self.classes {
                if let Some(pos) = q.iter().position(|&(v, _)| v == id) {
                    q.remove(pos);
                    return true;
                }
            }
            false
        }

        /// Unpinned `Under` and `Over` entries.
        fn movable_len(&self) -> usize {
            self.classes[1..]
                .iter()
                .flatten()
                .filter(|&&(_, pinned)| !pinned)
                .count()
        }

        fn len(&self) -> usize {
            self.classes.iter().map(|q| q.len()).sum()
        }

        fn iter(&self) -> impl Iterator<Item = VcpuId> + '_ {
            self.classes.iter().flatten().map(|&(v, _)| v)
        }
    }

    /// Encoded operation: (opcode, priority selector, vCPU selector).
    /// Small vCPU domains force duplicate-id and remove-hit coverage.
    fn arb_ops() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
        prop::collection::vec((0usize..5, 0usize..3, 0usize..12), 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every operation agrees with the reference model, and
        /// `len`/`is_empty`/`movable_len`/`best_class` stay consistent
        /// throughout. `pins` is the set of hard-pinned vCPUs (one bit
        /// per vCPU id), which a steal must skip.
        #[test]
        fn matches_reference_model(ops in arb_ops(), pins in 0u64..(1 << 12)) {
            let mut q = RunQueue::new();
            let mut m = Model::default();
            for (op, prio_sel, vcpu_sel) in ops {
                let prio = PRIOS[prio_sel];
                let id = VcpuId(vcpu_sel);
                let pinned = (pins >> vcpu_sel) & 1 == 1;
                match op {
                    0 => {
                        q.push_tail(prio, id, pinned);
                        m.push_tail(prio, id, pinned);
                    }
                    1 => {
                        q.push_head(prio, id, pinned);
                        m.push_head(prio, id, pinned);
                    }
                    2 => prop_assert_eq!(q.pop_best(), m.pop_best()),
                    3 => prop_assert_eq!(q.steal_tail(), m.steal_tail()),
                    _ => prop_assert_eq!(q.remove(id), m.remove(id)),
                }
                prop_assert_eq!(q.len(), m.len());
                prop_assert_eq!(q.is_empty(), m.len() == 0);
                prop_assert_eq!(q.movable_len(), m.movable_len());
                prop_assert_eq!(q.best_class(), m.best_class());
                let got: Vec<VcpuId> = q.iter().collect();
                let want: Vec<VcpuId> = m.iter().collect();
                prop_assert_eq!(got, want, "iteration order diverged");
            }
        }

        /// Draining any population by `pop_best` yields classes in
        /// strict priority order and FIFO order within a class.
        #[test]
        fn drain_orders_classes_then_fifo(ops in arb_ops()) {
            let mut q = RunQueue::new();
            let mut per_class: [Vec<VcpuId>; 3] = Default::default();
            for (op, prio_sel, vcpu_sel) in ops {
                // Only pushes: build an arbitrary population.
                if op < 4 {
                    let prio = PRIOS[prio_sel];
                    let id = VcpuId(vcpu_sel);
                    q.push_tail(prio, id, false);
                    per_class[prio_sel].push(id);
                }
            }
            let mut drained: Vec<(VcpuId, Prio)> = Vec::new();
            while let Some(e) = q.pop_best() {
                drained.push(e);
            }
            let want: Vec<(VcpuId, Prio)> = PRIOS
                .iter()
                .enumerate()
                .flat_map(|(i, &p)| per_class[i].iter().map(move |&v| (v, p)))
                .collect();
            prop_assert_eq!(drained, want);
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.len(), 0);
        }

        /// `steal_tail` never yields `Boost`, and stealing until dry
        /// leaves exactly the boosted entries behind.
        #[test]
        fn steal_never_takes_boost(ops in arb_ops()) {
            let mut q = RunQueue::new();
            let mut boosted = 0usize;
            for (op, prio_sel, vcpu_sel) in ops {
                if op < 4 {
                    q.push_tail(PRIOS[prio_sel], VcpuId(vcpu_sel), false);
                    if PRIOS[prio_sel] == Prio::Boost {
                        boosted += 1;
                    }
                }
            }
            while let Some((_, p)) = q.steal_tail() {
                prop_assert_ne!(p, Prio::Boost, "steal must never take BOOST");
            }
            prop_assert_eq!(q.len(), boosted, "only boosted entries survive stealing");
        }

        /// The O(1) movable count equals a recount of the deques after
        /// every push, pop, steal and remove, over pinned and unpinned
        /// vCPUs in all three classes.
        #[test]
        fn movable_count_matches_a_recount(
            ops in prop::collection::vec((0usize..5, 0usize..3, 0usize..12), 1..160),
        ) {
            let pinned = |v: VcpuId| v.index().is_multiple_of(3);
            let mut q = RunQueue::new();
            for (op, prio_sel, vcpu_sel) in ops {
                let (prio, id) = (PRIOS[prio_sel], VcpuId(vcpu_sel));
                match op {
                    0 => q.push_tail(prio, id, pinned(id)),
                    1 => q.push_head(prio, id, pinned(id)),
                    2 => {
                        q.pop_best();
                    }
                    3 => {
                        // A steal never takes a pinned entry.
                        let got = q.steal_tail();
                        prop_assert!(got.is_none_or(|(v, _)| !pinned(v)));
                    }
                    _ => {
                        q.remove(id);
                    }
                }
                let recount = q
                    .under
                    .iter()
                    .chain(q.over.iter())
                    .filter(|e| !pinned(e.id))
                    .count();
                prop_assert_eq!(q.movable_len(), recount);
                prop_assert_eq!(q.recount_movable(), recount);
            }
        }
    }
}
