//! Machine-wide hypervisor state: [`Hypervisor`] and [`PcpuState`].
//!
//! This is the state layer of the engine — everything a policy may
//! inspect or reconfigure, with no execution logic. Context switching
//! lives in [`dispatch`](super::dispatch), the run loop in
//! [`exec`](super::exec).

use aql_mem::LlcState;

use crate::ids::{PcpuId, PoolId, VcpuId, VmId};
use crate::pool::{build_pools, CpuPool, PoolSpec};
use crate::sched::RunQueue;
use crate::topology::MachineSpec;
use crate::vm::{Prio, Vcpu, VcpuState, VmMeta, VmSpec};

/// Per-pCPU scheduler state.
#[derive(Debug)]
pub struct PcpuState {
    /// This pCPU's identifier.
    pub id: PcpuId,
    /// Pool membership.
    pub pool: PoolId,
    /// Currently dispatched vCPU, if any.
    pub running: Option<VcpuId>,
    /// Local run queue. Only the engine mutates it: the hypervisor
    /// keeps per-pool sums of its movable entries in step, which a
    /// direct push or pop would leave stale.
    pub queue: RunQueue,
    /// Total busy time.
    pub busy_ns: u64,
    /// Set when the current slice must be re-evaluated (boost wake,
    /// pool reconfiguration).
    pub force_resched: bool,
    /// The vCPU that last touched this core's private caches.
    pub last_vcpu: Option<VcpuId>,
}

/// Machine-wide hypervisor state.
///
/// Policies receive `&mut Hypervisor` and may reconfigure pools and
/// vCPU placement through [`Hypervisor::apply_plan`]; the engine
/// repairs run queues and reschedules accordingly.
#[derive(Debug)]
pub struct Hypervisor {
    /// Machine shape.
    pub machine: MachineSpec,
    /// All VMs, id-ordered.
    pub vms: Vec<VmMeta>,
    /// All vCPUs, id-ordered (dense across VMs).
    pub vcpus: Vec<Vcpu>,
    /// Per-pCPU scheduler state, id-ordered.
    pub pcpus: Vec<PcpuState>,
    /// Current CPU pools.
    pub pools: Vec<CpuPool>,
    /// Per-socket shared LLC state.
    pub llcs: Vec<LlcState>,
    /// Number of vCPUs with a hard pin ([`VmSpec::pin`]). Steals only
    /// take the pin-aware (predicate-scanning) branch when this is
    /// non-zero, so pin-free machines keep the plain tail pop.
    pub pinned_vcpus: usize,
    /// Per pool, the sum of its pCPUs' [`RunQueue::movable_len`]: the
    /// queued work an idle pCPU of the pool can steal. Kept in step by
    /// [`Hypervisor::with_queue`] and rebuilt by `apply_plan`.
    pool_movable: Vec<usize>,
}

impl Hypervisor {
    /// Creates an idle hypervisor with one default pool.
    pub fn new(machine: MachineSpec) -> Self {
        let total = machine.total_pcpus();
        let pcpus = (0..total)
            .map(|i| PcpuState {
                id: PcpuId(i),
                pool: PoolId(0),
                running: None,
                queue: RunQueue::new(),
                busy_ns: 0,
                force_resched: false,
                last_vcpu: None,
            })
            .collect();
        let llcs = (0..machine.sockets)
            .map(|_| LlcState::new(machine.cache.llc_bytes as f64, 0))
            .collect();
        Hypervisor {
            vms: Vec::new(),
            vcpus: Vec::new(),
            pcpus,
            pools: vec![CpuPool::default_pool(total)],
            llcs,
            machine,
            pinned_vcpus: 0,
            pool_movable: vec![0],
        }
    }

    /// Admits a VM; its vCPUs join pool 0 with round-robin affinity
    /// (or the VM's hard pin, when one is declared).
    pub fn add_vm(&mut self, spec: VmSpec) -> VmId {
        assert!(spec.vcpus > 0, "a VM needs at least one vCPU");
        let pin = spec.pin.map(|p| {
            assert!(
                p < self.machine.total_pcpus(),
                "pin target pcpu{p} outside the machine"
            );
            PcpuId(p)
        });
        let vm_id = VmId(self.vms.len());
        let mut ids = Vec::with_capacity(spec.vcpus);
        for slot in 0..spec.vcpus {
            let id = VcpuId(self.vcpus.len());
            let affine = pin.unwrap_or(PcpuId(id.index() % self.machine.total_pcpus()));
            let mut vcpu = Vcpu::new(id, vm_id, slot, PoolId(0), affine);
            vcpu.pinned = pin;
            self.pinned_vcpus += usize::from(pin.is_some());
            self.vcpus.push(vcpu);
            ids.push(id);
        }
        for llc in &mut self.llcs {
            llc.ensure_owners(self.vcpus.len());
        }
        self.vms.push(VmMeta {
            id: vm_id,
            spec,
            vcpus: ids,
        });
        vm_id
    }

    /// The quantum a vCPU runs with: its override, else its pool's.
    pub fn quantum_for(&self, vcpu: VcpuId) -> u64 {
        let v = &self.vcpus[vcpu.index()];
        v.quantum_override
            .unwrap_or(self.pools[v.pool.index()].quantum_ns)
    }

    /// Atomically replaces the pool layout and the vCPU→pool
    /// assignment (`assignment[i]` is vCPU `i`'s pool). Run queues are
    /// rebuilt; running vCPUs on foreign pools are flagged for
    /// preemption at the next resched point.
    pub fn apply_plan(
        &mut self,
        pools: Vec<PoolSpec>,
        assignment: Vec<PoolId>,
    ) -> Result<(), String> {
        if assignment.len() != self.vcpus.len() {
            return Err(format!(
                "assignment covers {} vCPUs, machine has {}",
                assignment.len(),
                self.vcpus.len()
            ));
        }
        let new_pools = build_pools(&pools, self.machine.total_pcpus())?;
        for (i, pool) in assignment.iter().enumerate() {
            if pool.index() >= new_pools.len() {
                return Err(format!("vcpu{i} assigned to unknown {pool}"));
            }
        }
        self.pools = new_pools;
        for pool in &self.pools {
            for &p in &pool.pcpus {
                self.pcpus[p.index()].pool = pool.id;
            }
        }
        for (i, &pool) in assignment.iter().enumerate() {
            if self.vcpus[i].pool != pool {
                self.vcpus[i].pool = pool;
                self.vcpus[i].pool_migrations += 1;
            }
        }
        // Rebuild queues: drain everything, re-enqueue in global order
        // (which rebuilds the per-pool movable sums from zero).
        let mut queued: Vec<(VcpuId, Prio)> = Vec::new();
        for p in &mut self.pcpus {
            while let Some(entry) = p.queue.pop_best() {
                queued.push(entry);
            }
        }
        self.pool_movable.clear();
        self.pool_movable.resize(self.pools.len(), 0);
        queued.sort_by_key(|(v, _)| v.index());
        for (v, prio) in queued {
            self.enqueue(v, prio, false, false);
        }
        // Running vCPUs sitting on a pCPU outside their pool must move.
        for pi in 0..self.pcpus.len() {
            if let Some(rv) = self.pcpus[pi].running {
                if self.vcpus[rv.index()].pool != self.pcpus[pi].pool {
                    self.pcpus[pi].force_resched = true;
                }
            }
        }
        Ok(())
    }

    /// Changes one pool's quantum; takes effect from the next dispatch.
    pub fn set_pool_quantum(&mut self, pool: PoolId, quantum_ns: u64) {
        assert!(quantum_ns > 0, "quantum must be positive");
        self.pools[pool.index()].quantum_ns = quantum_ns;
    }

    /// Sets or clears a per-vCPU quantum override (vSlicer-style
    /// differentiated slicing); takes effect from the next dispatch.
    pub fn set_vcpu_quantum_override(&mut self, vcpu: VcpuId, quantum_ns: Option<u64>) {
        if let Some(q) = quantum_ns {
            assert!(q > 0, "quantum must be positive");
        }
        self.vcpus[vcpu.index()].quantum_override = quantum_ns;
    }

    /// Sets or clears a vCPU's kick period: while runnable-queued for
    /// longer than this, it preempts the running vCPU (vSlicer's
    /// differentiated scheduling frequency).
    pub fn set_vcpu_kick_period(&mut self, vcpu: VcpuId, period_ns: Option<u64>) {
        if let Some(p) = period_ns {
            assert!(p > 0, "kick period must be positive");
        }
        self.vcpus[vcpu.index()].kick_period_ns = period_ns;
    }

    /// The vCPUs of the VM with the given name, if it exists.
    pub fn vm_vcpus_by_name(&self, name: &str) -> Option<&[VcpuId]> {
        self.vms
            .iter()
            .find(|vm| vm.spec.name == name)
            .map(|vm| vm.vcpus.as_slice())
    }

    /// Least-loaded pCPU (by queue length, then index) of a pool.
    fn least_loaded_pcpu(&self, pool: PoolId) -> PcpuId {
        *self.pools[pool.index()]
            .pcpus
            .iter()
            .min_by_key(|p| {
                let st = &self.pcpus[p.index()];
                (
                    st.queue.len() + usize::from(st.running.is_some()),
                    p.index(),
                )
            })
            .expect("pools are never empty")
    }

    /// Enqueues a runnable vCPU on a pCPU of its pool (affine pCPU if
    /// still valid, else the least-loaded one). `at_head` requeues a
    /// preempted vCPU before its peers.
    ///
    /// `from_wake` marks a wake-up enqueue: as in Xen's run-queue
    /// tickle, only a *waking* vCPU of strictly better priority
    /// preempts the running one mid-slice (this is how BOOST cuts IO
    /// latency). Plain requeues never preempt: tick-driven priority
    /// changes take effect at slice boundaries.
    pub(super) fn enqueue(&mut self, vcpu: VcpuId, prio: Prio, at_head: bool, from_wake: bool) {
        let v = &self.vcpus[vcpu.index()];
        let pool = v.pool;
        let target = if let Some(pin) = v.pinned {
            // Hard affinity wins over pool placement (Xen vcpu-pin).
            pin
        } else if self.pools[pool.index()].contains(v.affine_pcpu) {
            v.affine_pcpu
        } else {
            self.least_loaded_pcpu(pool)
        };
        let pinned = v.pinned.is_some();
        self.vcpus[vcpu.index()].affine_pcpu = target;
        self.with_queue(target.index(), |q| {
            if at_head {
                q.push_head(prio, vcpu, pinned);
            } else {
                q.push_tail(prio, vcpu, pinned);
            }
        });
        if from_wake {
            if let Some(rv) = self.pcpus[target.index()].running {
                if prio < self.vcpus[rv.index()].prio {
                    self.pcpus[target.index()].force_resched = true;
                }
            }
        }
    }

    /// Runs `op` on pCPU `p`'s run queue, keeping its pool's movable
    /// sum in step. The engine mutates queues only through here and
    /// [`Hypervisor::steal_from`] (and `apply_plan`, which rebuilds the
    /// sums), so they stay exact.
    pub(super) fn with_queue<R>(&mut self, p: usize, op: impl FnOnce(&mut RunQueue) -> R) -> R {
        tally(&mut self.pcpus[p], &mut self.pool_movable, op)
    }

    /// Steals the latest movable vCPU from pCPU `p`'s queue (`UNDER`
    /// before `OVER`, never `BOOST` or a hard-pinned vCPU).
    pub(super) fn steal_from(&mut self, p: usize) -> Option<(VcpuId, Prio)> {
        let Hypervisor {
            vcpus,
            pcpus,
            pool_movable,
            pinned_vcpus,
            ..
        } = self;
        tally(&mut pcpus[p], pool_movable, |q| {
            if *pinned_vcpus > 0 {
                q.steal_tail_where(|v| vcpus[v.index()].pinned.is_none())
            } else {
                q.steal_tail()
            }
        })
    }

    /// Whether idle pCPU `p` can dispatch: its own queue holds work, or
    /// a peer in its pool holds movable work to steal. O(1); debug
    /// builds check the pool's sum against a recount of its queues.
    pub(super) fn idle_can_dispatch(&self, p: usize) -> bool {
        let pcpu = &self.pcpus[p];
        let movable = self.pool_movable[pcpu.pool.index()];
        debug_assert_eq!(
            movable,
            self.pcpus
                .iter()
                .filter(|q| q.pool == pcpu.pool)
                .map(|q| q.queue.recount_movable())
                .sum::<usize>(),
            "{}: movable-work sum disagrees with a recount of its queues",
            pcpu.pool
        );
        !pcpu.queue.is_empty() || movable > 0
    }

    /// Wakes a blocked vCPU. Grants BOOST when the vCPU still has
    /// credit and did not exhaust its previous slice (§2.1).
    pub fn wake(&mut self, vcpu: VcpuId) {
        let v = &mut self.vcpus[vcpu.index()];
        if v.state != VcpuState::Blocked {
            return;
        }
        v.state = VcpuState::Runnable;
        let prio = if v.credit < 0.0 {
            Prio::Over
        } else if !v.last_slice_exhausted {
            Prio::Boost
        } else {
            Prio::Under
        };
        v.prio = prio;
        if v.parked {
            return; // Enqueued at unpark time instead.
        }
        self.enqueue(vcpu, prio, false, true);
    }
}

/// Runs `op` on `pcpu`'s run queue and moves its pool's entry of
/// `pool_movable` by the change in the queue's movable count.
fn tally<R>(
    pcpu: &mut PcpuState,
    pool_movable: &mut [usize],
    op: impl FnOnce(&mut RunQueue) -> R,
) -> R {
    let before = pcpu.queue.movable_len();
    let out = op(&mut pcpu.queue);
    let sum = &mut pool_movable[pcpu.pool.index()];
    *sum = *sum + pcpu.queue.movable_len() - before;
    out
}
