//! Load balancing within pools: idle stealing and the periodic
//! run-queue rebalance. Both rank peers by the O(1)
//! [`RunQueue::movable_len`](crate::sched::RunQueue::movable_len)
//! counts and move work through [`Hypervisor::steal_from`], which keeps
//! the per-pool sums `idle_can_dispatch` reads in step.

use crate::ids::{PcpuId, VcpuId};
use crate::vm::Prio;

use super::Simulation;

impl Simulation {
    /// Steals a queued vCPU for an idle pCPU from the most loaded
    /// pool peer (deterministic order: most movable work, lowest
    /// index). Returns the stolen entry and the victim pCPU.
    pub(super) fn steal_from_peer(&mut self, pcpu: usize) -> Option<((VcpuId, Prio), PcpuId)> {
        let pool = self.hv.pcpus[pcpu].pool;
        // Pick the peer with the most *movable* (non-BOOST, unpinned)
        // work, lowest index on ties. Ranking by movable length rather
        // than total length matters: a queue of only BOOST or pinned
        // vCPUs yields nothing, and choosing it would leave this pCPU
        // idle while another peer holds stealable work. The scan
        // avoids collecting a peer list: it runs on every idle
        // dispatch, so it must not allocate.
        let mut victim: Option<usize> = None;
        let mut best_key = (0usize, 0usize);
        for p in &self.hv.pools[pool.index()].pcpus {
            let p = p.index();
            if p == pcpu {
                continue;
            }
            let len = self.hv.pcpus[p].queue.movable_len();
            if len == 0 {
                continue;
            }
            let key = (len, usize::MAX - p);
            if victim.is_none() || key > best_key {
                victim = Some(p);
                best_key = key;
            }
        }
        let victim = victim?;
        let entry = self
            .hv
            .steal_from(victim)
            .expect("victim has stealable work");
        Some((entry, PcpuId(victim)))
    }

    /// Evens out run-queue lengths within each pool (Xen's periodic
    /// load balancing): with long quanta and saturated pCPUs, idle-time
    /// stealing never fires, so queue imbalance — e.g. after a pool
    /// reconfiguration — would otherwise persist indefinitely.
    pub(super) fn rebalance_pools(&mut self) {
        // The pCPU list is collected per pool because queues are
        // mutated inside the loop; the buffer is reused across calls.
        let mut pcpus = std::mem::take(&mut self.scratch.pool_pcpus);
        for pool_idx in 0..self.hv.pools.len() {
            pcpus.clear();
            pcpus.extend(self.hv.pools[pool_idx].pcpus.iter().map(|p| p.index()));
            if pcpus.len() < 2 {
                continue;
            }
            for _ in 0..self.hv.vcpus.len() {
                let load = |p: &usize| {
                    self.hv.pcpus[*p].queue.len() + usize::from(self.hv.pcpus[*p].running.is_some())
                };
                // The donor is the most loaded peer *among those with
                // movable work*: an unfiltered pick would let a
                // BOOST-only queue (never stolen from) win and abort
                // the round while real imbalance persists; ranking by
                // movable length alone would let a lightly-loaded
                // peer shadow an overloaded one on ties. With no BOOST
                // or pinned vCPU queued anywhere this reduces to the
                // plain most-loaded pick.
                let Some(&max_p) = pcpus
                    .iter()
                    .filter(|p| self.hv.pcpus[**p].queue.movable_len() > 0)
                    .max_by_key(|p| (load(p), usize::MAX - **p))
                else {
                    break;
                };
                let &min_p = pcpus
                    .iter()
                    .min_by_key(|p| (load(p), **p))
                    .expect("non-empty");
                if load(&max_p) <= load(&min_p) + 1 {
                    break;
                }
                let (vid, prio) = self.hv.steal_from(max_p).expect("donor has stealable work");
                self.hv.vcpus[vid.index()].affine_pcpu = PcpuId(min_p);
                // A steal never takes a pinned vCPU.
                self.hv.with_queue(min_p, |q| q.push_tail(prio, vid, false));
            }
        }
        self.scratch.pool_pcpus = pcpus;
    }
}
