//! An open-loop IO request server.
//!
//! Models the paper's `IOInt` class (SPECweb2009, SPECmail2009,
//! Wordpress): requests arrive as a Poisson process over the event
//! channel, each costing a short CPU service burst. Two regimes matter
//! for Fig. 2(a)/(b):
//!
//! * **Exclusive IO** — tiny service bursts, low CPU utilisation. The
//!   vCPU is almost always blocked when a request arrives, so Xen's
//!   BOOST wakes it immediately: latency is quantum-agnostic.
//! * **Heterogeneous** — the server also executes CGI-style background
//!   computation, so its vCPU always has CPU work pending and "consumes
//!   its entire quantum" (§3.4.2). It is never blocked when a request
//!   arrives, BOOST never applies, and each request waits for the
//!   vCPU's round-robin turn — a delay proportional to the co-runners'
//!   quantum length.
//!
//! The latency of every completed request (arrival → completion,
//! including queueing across scheduling delays) is recorded.

use std::collections::VecDeque;

use aql_hv::workload::{
    CoalesceHint, CoalesceProbe, ExecContext, GuestWorkload, Horizon, LatencySummary, RunOutcome,
    StopReason, TimerFire, WorkloadMetrics,
};
use aql_mem::MemProfile;
use aql_sim::rng::SimRng;
use aql_sim::stats::SampleSet;
use aql_sim::time::{SimTime, US};

/// Configuration of an [`IoServer`].
#[derive(Debug, Clone)]
pub struct IoServerCfg {
    /// Mean request arrival rate (requests per second, Poisson).
    pub arrival_rate_hz: f64,
    /// CPU service burst per light request (ns).
    pub service_ns: u64,
    /// Uniform jitter applied to service bursts, `[0, 1]`.
    pub service_jitter: f64,
    /// Every `heavy_every`-th request is heavy (CGI-style); `None`
    /// disables heavy requests (exclusive-IO regime).
    pub heavy_every: Option<u64>,
    /// CPU burst of a heavy request (ns).
    pub heavy_service_ns: u64,
    /// Memory profile of the service code.
    pub profile: MemProfile,
    /// Background (CGI-style) computation run whenever the request
    /// queue is empty; `Some` makes the vCPU permanently runnable,
    /// defeating BOOST — the heterogeneous regime of Fig. 2(b).
    pub background: Option<MemProfile>,
    /// Bound on the pending-request queue; beyond it requests are
    /// dropped (counted in `offered` but never completed).
    pub queue_cap: usize,
}

impl IoServerCfg {
    /// The exclusive-IO regime of Fig. 2(a): light requests only.
    pub fn exclusive(arrival_rate_hz: f64) -> Self {
        IoServerCfg {
            arrival_rate_hz,
            service_ns: 60 * US,
            service_jitter: 0.3,
            heavy_every: None,
            heavy_service_ns: 0,
            // Web/mail service code touches buffers and socket state:
            // a multi-megabyte working set with real LLC traffic (so
            // vTRS sees LLC references, as on the paper's hardware).
            profile: MemProfile {
                wss_bytes: 3 * 1024 * 1024,
                deep_refs_per_instr: 0.04,
                base_ns_per_instr: 0.40,
            },
            background: None,
            queue_cap: 4096,
        }
    }

    /// The heterogeneous regime of Fig. 2(b): the server also runs
    /// CGI scripts that consume significant CPU, so the vCPU always
    /// exhausts its quantum and never benefits from BOOST.
    pub fn heterogeneous(arrival_rate_hz: f64) -> Self {
        let base = IoServerCfg::exclusive(arrival_rate_hz);
        IoServerCfg {
            background: Some(base.profile),
            ..base
        }
    }

    /// The SPECmail2009-style regime: exclusive IO with a heavy
    /// (12 ms) delivery burst every 15th request. Shared by the
    /// catalog's `SPECmail2009` model and the `io/mail/<rate>`
    /// workload token.
    pub fn mail(arrival_rate_hz: f64) -> Self {
        IoServerCfg {
            heavy_every: Some(15),
            heavy_service_ns: 12_000 * US,
            ..IoServerCfg::exclusive(arrival_rate_hz)
        }
    }

    /// The IOInt⁺ regime of the Fig. 3 worked example: IO-intensive
    /// *and* LLC-trashing — both the request service code and the
    /// background compute stream through a working set larger than
    /// the LLC. The `io/plus/<rate>` workload token.
    pub fn plus(arrival_rate_hz: f64) -> Self {
        let trashing = MemProfile {
            wss_bytes: 32 * 1024 * 1024,
            deep_refs_per_instr: 0.08,
            base_ns_per_instr: 0.40,
        };
        IoServerCfg {
            profile: trashing,
            background: Some(trashing),
            ..IoServerCfg::exclusive(arrival_rate_hz)
        }
    }

    /// The BOOST-ablation co-runner: identical arrivals and service to
    /// [`IoServerCfg::exclusive`], but a vanishingly light background
    /// loop keeps the vCPU permanently runnable, so its wakes never
    /// qualify for BOOST ("boost off" with everything else equal).
    /// The `io/noboost/<rate>` workload token.
    pub fn noboost(arrival_rate_hz: f64) -> Self {
        IoServerCfg {
            background: Some(MemProfile {
                wss_bytes: 16 * 1024,
                deep_refs_per_instr: 0.001,
                base_ns_per_instr: 0.40,
            }),
            ..IoServerCfg::exclusive(arrival_rate_hz)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: SimTime,
    remaining_ns: u64,
}

/// A single-vCPU open-loop request server.
#[derive(Debug)]
pub struct IoServer {
    name: String,
    cfg: IoServerCfg,
    rng: SimRng,
    next_arrival: SimTime,
    queue: VecDeque<Request>,
    current: Option<Request>,
    latencies_ns: SampleSet,
    completed: u64,
    offered: u64,
    dropped: u64,
    seq: u64,
    background_ns: u64,
    /// Outstanding service demand: `current.remaining_ns` plus the
    /// queued requests' remaining service. Maintained incrementally so
    /// [`GuestWorkload::horizon`] is O(1) — the engine calls it on
    /// every quiescent-span computation.
    pending_service_ns: u64,
}

impl IoServer {
    /// Creates a server with its own deterministic arrival stream.
    pub fn new(name: &str, cfg: IoServerCfg, seed: u64) -> Self {
        assert!(cfg.arrival_rate_hz > 0.0, "arrival rate must be positive");
        let mut rng = SimRng::seed_from(seed);
        let first = SimTime(rng.exp_ns(1e9 / cfg.arrival_rate_hz).max(1));
        IoServer {
            name: name.to_string(),
            cfg,
            rng,
            next_arrival: first,
            queue: VecDeque::new(),
            current: None,
            latencies_ns: SampleSet::new(),
            completed: 0,
            offered: 0,
            dropped: 0,
            seq: 0,
            background_ns: 0,
            pending_service_ns: 0,
        }
    }

    /// Requests dropped at the queue cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// CPU time spent in background (CGI) computation.
    pub fn background_ns(&self) -> u64 {
        self.background_ns
    }

    fn service_cost(&mut self) -> u64 {
        self.seq += 1;
        let heavy = self
            .cfg
            .heavy_every
            .is_some_and(|n| n > 0 && self.seq.is_multiple_of(n));
        if heavy {
            self.rng
                .jitter_ns(self.cfg.heavy_service_ns, self.cfg.service_jitter)
        } else {
            self.rng
                .jitter_ns(self.cfg.service_ns, self.cfg.service_jitter)
        }
    }
}

impl GuestWorkload for IoServer {
    fn name(&self) -> &str {
        &self.name
    }

    fn vcpu_slots(&self) -> usize {
        1
    }

    fn run(&mut self, slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        debug_assert_eq!(slot, 0);
        let mut used: u64 = 0;
        loop {
            if self.current.is_none() {
                self.current = self.queue.pop_front();
            }
            let Some(mut req) = self.current.take() else {
                // Queue drained: run CGI background work if configured
                // (the vCPU then never blocks), else block.
                if let Some(bg) = self.cfg.background {
                    let dt = budget_ns - used;
                    let _ = ctx.exec_mem(&bg, dt);
                    self.background_ns += dt;
                    return RunOutcome::ran_all(budget_ns);
                }
                return RunOutcome {
                    used_ns: used,
                    stop: StopReason::Blocked,
                };
            };
            if used >= budget_ns {
                self.current = Some(req);
                return RunOutcome::ran_all(budget_ns);
            }
            // Service-time batching: sweep every request that fits the
            // remaining budget into one service-profile chunk — one
            // `exec_mem` per batch instead of one per request. The
            // per-request latency stamps are untouched: each is integer
            // arithmetic on the cumulative used time (`ctx.now + used`),
            // exactly what the request-at-a-time path appended.
            let mut batch_dt: u64 = 0;
            loop {
                let dt = (budget_ns - used).min(req.remaining_ns);
                batch_dt += dt;
                used += dt;
                req.remaining_ns -= dt;
                self.pending_service_ns -= dt;
                if req.remaining_ns > 0 {
                    // Partial tail: the budget ran out mid-request.
                    self.current = Some(req);
                    break;
                }
                let done_at = ctx.now + used;
                self.latencies_ns
                    .add(done_at.saturating_since(req.arrival) as f64);
                self.completed += 1;
                match self.queue.pop_front() {
                    Some(next) if used < budget_ns => req = next,
                    Some(next) => {
                        self.current = Some(next);
                        break;
                    }
                    None => break,
                }
            }
            let profile = self.cfg.profile;
            let _ = ctx.exec_mem(&profile, batch_dt);
        }
    }

    fn runnable(&self, _slot: usize) -> bool {
        self.cfg.background.is_some() || self.current.is_some() || !self.queue.is_empty()
    }

    fn horizon(&self, _slot: usize, now: SimTime) -> Horizon {
        // With CGI background work the vCPU always has CPU to burn and
        // never blocks (the heterogeneous regime that defeats BOOST).
        if self.cfg.background.is_some() {
            return Horizon::Never;
        }
        // Exclusive IO blocks once the pending service demand is
        // consumed; until then the server is pure CPU. New arrivals
        // only extend the demand, so the bound stays sound.
        debug_assert_eq!(
            self.pending_service_ns,
            self.current.map_or(0, |r| r.remaining_ns)
                + self.queue.iter().map(|r| r.remaining_ns).sum::<u64>(),
            "pending-service accounting drifted"
        );
        if self.pending_service_ns == 0 {
            Horizon::Unknown
        } else {
            Horizon::At(now + self.pending_service_ns)
        }
    }

    fn coalesce(&self, _slot: usize, probe: &mut CoalesceProbe<'_>) -> CoalesceHint {
        // Service bursts are pure-rate when the service profile is at
        // the fixpoint: requests arrive only via timers (span
        // boundaries), the server draws from its own RNG only in
        // `on_timer`, and completion stamps are integer CPU-time
        // arithmetic — so execution is chunk-size invariant and
        // latency samples are bit-exact under coalescing. The linear
        // window must not contain the queue-drain transition unless the
        // background profile is equally linear: stopping 1 ns short of
        // the drain instant guarantees a coalesced budget can never hit
        // the Blocked (or profile-switch) boundary inside a span.
        let service_linear = self.pending_service_ns == 0 || probe.linear_rate(&self.cfg.profile);
        if !service_linear {
            return CoalesceHint::No;
        }
        let background_linear = self.cfg.background.is_some_and(|bg| probe.linear_rate(&bg));
        if background_linear {
            // Both sides of the drain are linear; the window is open.
            CoalesceHint::LinearFor(u64::MAX)
        } else if self.pending_service_ns > 1 {
            CoalesceHint::LinearFor(self.pending_service_ns - 1)
        } else {
            // Nothing to run linearly: drained (or about to), and the
            // continuation (background or block) is not coalescible.
            CoalesceHint::No
        }
    }

    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        Some(self.next_arrival)
    }

    fn on_timer(&mut self, _slot: usize, now: SimTime) -> TimerFire {
        if now < self.next_arrival {
            return TimerFire::default();
        }
        self.offered += 1;
        let cost = self.service_cost();
        if self.queue.len() >= self.cfg.queue_cap {
            self.dropped += 1;
        } else {
            self.queue.push_back(Request {
                arrival: self.next_arrival,
                remaining_ns: cost,
            });
            self.pending_service_ns += cost;
        }
        let gap = self.rng.exp_ns(1e9 / self.cfg.arrival_rate_hz).max(1);
        self.next_arrival = SimTime(self.next_arrival.as_ns() + gap);
        TimerFire {
            io_events: 1,
            wake: true,
        }
    }

    fn metrics(&self) -> WorkloadMetrics {
        let mut lat = self.latencies_ns.clone();
        let latency = LatencySummary {
            count: lat.len() as u64,
            mean_ns: lat.mean(),
            p95_ns: lat.p95().unwrap_or(0.0),
            p99_ns: lat.p99().unwrap_or(0.0),
            max_ns: lat.quantile(1.0).unwrap_or(0.0),
            nan_samples: lat.nan_count(),
        };
        WorkloadMetrics::Io {
            latency,
            completed: self.completed,
            offered: self.offered,
        }
    }

    fn reset_metrics(&mut self) {
        self.latencies_ns = SampleSet::new();
        self.completed = 0;
        self.offered = 0;
        self.dropped = 0;
        self.background_ns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memwalk::MemWalk;
    use aql_hv::{FixedQuantumPolicy, MachineSpec, SimulationBuilder, VmSpec};
    use aql_mem::CacheSpec;
    use aql_sim::time::{MS, SEC};

    fn one_core() -> MachineSpec {
        MachineSpec::custom("1core", 1, 1, CacheSpec::i7_3770())
    }

    fn mean_latency_ms(report: &aql_hv::RunReport, name: &str) -> f64 {
        let WorkloadMetrics::Io { latency, .. } = &report.vm_by_name(name).unwrap().metrics else {
            panic!("expected Io metrics");
        };
        latency.mean_ns / MS as f64
    }

    fn completed(report: &aql_hv::RunReport, name: &str) -> u64 {
        let WorkloadMetrics::Io { completed, .. } = &report.vm_by_name(name).unwrap().metrics
        else {
            panic!("expected Io metrics");
        };
        *completed
    }

    #[test]
    fn solo_server_has_microsecond_latency() {
        let mut sim = SimulationBuilder::new(one_core())
            .vm(
                VmSpec::single("web"),
                Box::new(IoServer::new("web", IoServerCfg::exclusive(200.0), 7)),
            )
            .build();
        sim.run_for(5 * SEC);
        let report = sim.report();
        assert!(completed(&report, "web") > 800, "requests should complete");
        let lat = mean_latency_ms(&report, "web");
        assert!(
            lat < 0.5,
            "solo latency should be sub-half-millisecond, got {lat}ms"
        );
    }

    #[test]
    fn boost_keeps_exclusive_io_latency_flat_across_quanta() {
        // Fig. 2(a): with co-runners, an exclusive-IO vCPU wakes with
        // BOOST and its latency barely depends on the quantum.
        let run = |quantum: u64| {
            let spec = CacheSpec::i7_3770();
            let mut sim = SimulationBuilder::new(one_core())
                .policy(Box::new(FixedQuantumPolicy::new(quantum)))
                .vm(
                    VmSpec::single("web"),
                    Box::new(IoServer::new("web", IoServerCfg::exclusive(150.0), 7)),
                )
                .vm(VmSpec::single("b1"), Box::new(MemWalk::lolcf("b1", &spec)))
                .vm(VmSpec::single("b2"), Box::new(MemWalk::lolcf("b2", &spec)))
                .vm(VmSpec::single("b3"), Box::new(MemWalk::lolcf("b3", &spec)))
                .build();
            sim.run_for(SEC);
            sim.reset_measurements();
            sim.run_for(5 * SEC);
            mean_latency_ms(&sim.report(), "web")
        };
        let at_1ms = run(MS);
        let at_30ms = run(30 * MS);
        assert!(
            at_30ms < 3.0 * at_1ms.max(0.2),
            "exclusive IO should stay low-latency under BOOST: 1ms={at_1ms}ms 30ms={at_30ms}ms"
        );
    }

    #[test]
    fn heterogeneous_io_latency_grows_with_quantum() {
        // Fig. 2(b): CGI bursts exhaust quanta, BOOST is lost, and
        // latency scales with the quantum.
        let run = |quantum: u64| {
            let spec = CacheSpec::i7_3770();
            let mut sim = SimulationBuilder::new(one_core())
                .policy(Box::new(FixedQuantumPolicy::new(quantum)))
                .vm(
                    VmSpec::single("web"),
                    Box::new(IoServer::new("web", IoServerCfg::heterogeneous(120.0), 7)),
                )
                .vm(VmSpec::single("b1"), Box::new(MemWalk::lolcf("b1", &spec)))
                .vm(VmSpec::single("b2"), Box::new(MemWalk::lolcf("b2", &spec)))
                .vm(VmSpec::single("b3"), Box::new(MemWalk::lolcf("b3", &spec)))
                .build();
            sim.run_for(SEC);
            sim.reset_measurements();
            sim.run_for(5 * SEC);
            mean_latency_ms(&sim.report(), "web")
        };
        let at_1ms = run(MS);
        let at_90ms = run(90 * MS);
        assert!(
            at_90ms > 2.0 * at_1ms,
            "heterogeneous latency should grow with quantum: 1ms={at_1ms}ms 90ms={at_90ms}ms"
        );
    }

    #[test]
    fn offered_counts_arrivals() {
        let mut sim = SimulationBuilder::new(one_core())
            .vm(
                VmSpec::single("web"),
                Box::new(IoServer::new("web", IoServerCfg::exclusive(1000.0), 11)),
            )
            .build();
        sim.run_for(2 * SEC);
        let report = sim.report();
        let WorkloadMetrics::Io {
            offered, completed, ..
        } = report.vm_by_name("web").unwrap().metrics
        else {
            panic!("expected Io metrics");
        };
        // Poisson(1000/s) over 2s ≈ 2000 arrivals.
        assert!(
            (1700..=2300).contains(&offered),
            "offered {offered} far from expectation"
        );
        assert!(completed <= offered);
        assert!(completed > 1500);
    }

    #[test]
    fn batched_latency_samples_match_request_at_a_time_execution() {
        // Two identical servers carrying the same queued burst; one
        // serves it in a single span-sized call (the batched path: one
        // `exec_mem` for all whole requests), the other in
        // per-request budget slices with the clock advanced between
        // calls — the request-at-a-time reference. Latency stamps are
        // integer arithmetic on cumulative used time, so the sample
        // sets must agree bit for bit.
        use aql_mem::{LlcState, PmuCounters};

        let cfg = IoServerCfg::mail(500.0); // mixed light/heavy bursts
        let mut batched = IoServer::new("a", cfg.clone(), 99);
        let mut reference = IoServer::new("b", cfg, 99);
        let mut t = SimTime(0);
        for _ in 0..32 {
            t = batched.next_timer(0).unwrap();
            assert_eq!(Some(t), reference.next_timer(0));
            batched.on_timer(0, t);
            reference.on_timer(0, t);
        }
        assert_eq!(batched.pending_service_ns, reference.pending_service_ns);
        let total = batched.pending_service_ns;
        let start = t + 1;

        let spec = CacheSpec::i7_3770();
        let run_slice = |srv: &mut IoServer, now: SimTime, budget: u64| {
            let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
            let mut pmu = PmuCounters::default();
            let mut warmth = 1.0;
            let mut rng = aql_sim::rng::SimRng::seed_from(5);
            let mut ctx = ExecContext {
                now,
                spec: &spec,
                llc: &mut llc,
                pmu: &mut pmu,
                l2_warmth: &mut warmth,
                rng: &mut rng,
                owner: 0,
                running_slots: &[true],
                integrator: aql_hv::workload::Integrator::Dense,
            };
            srv.run(0, budget, &mut ctx)
        };

        // One call serves the whole burst (and batches internally).
        let out = run_slice(&mut batched, start, total);
        assert_eq!(out.used_ns, total, "burst should consume its demand");

        // The reference serves one request per call, clock advanced.
        let mut now = start;
        while reference.pending_service_ns > 0 {
            let next_cost = reference
                .current
                .map(|r| r.remaining_ns)
                .unwrap_or_else(|| reference.queue.front().unwrap().remaining_ns);
            let out = run_slice(&mut reference, now, next_cost);
            assert_eq!(out.used_ns, next_cost);
            now += next_cost;
        }

        assert_eq!(batched.completed, reference.completed);
        let (WorkloadMetrics::Io { latency: bl, .. }, WorkloadMetrics::Io { latency: rl, .. }) =
            (batched.metrics(), reference.metrics())
        else {
            panic!("expected Io metrics");
        };
        assert_eq!(bl.count, rl.count);
        assert_eq!(bl.mean_ns.to_bits(), rl.mean_ns.to_bits(), "mean");
        assert_eq!(bl.p95_ns.to_bits(), rl.p95_ns.to_bits(), "p95");
        assert_eq!(bl.p99_ns.to_bits(), rl.p99_ns.to_bits(), "p99");
        assert_eq!(bl.max_ns.to_bits(), rl.max_ns.to_bits(), "max");
    }

    #[test]
    fn io_events_are_counted_for_vtrs() {
        let mut sim = SimulationBuilder::new(one_core())
            .vm(
                VmSpec::single("web"),
                Box::new(IoServer::new("web", IoServerCfg::exclusive(500.0), 3)),
            )
            .build();
        // Run a few monitoring periods and check the last sample saw IO.
        sim.run_for(95 * MS);
        let sample = sim.hv.vcpus[0].last_sample;
        assert!(
            sample.io_events > 5,
            "vTRS should observe IO events, got {}",
            sample.io_events
        );
    }
}
