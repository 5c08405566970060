//! Conformance and property tests of the event-horizon time-advance
//! core: `TimeMode::Adaptive` must reproduce the dense oracle under
//! the tolerance contract — bit-exact integer accounting, a monotone
//! clock, not a single scheduled event skipped or reordered, and f64
//! metrics within 1e-6 relative (the drift budget chunk coalescing is
//! granted; see `aql_hv::engine::horizon`).

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aql_sched::hv::workload::{
    ExecContext, GuestWorkload, RunOutcome, StopReason, TimerFire, WorkloadMetrics,
};
use aql_sched::hv::{MachineSpec, SimulationBuilder, TimeMode, VmSpec};
use aql_sched::mem::CacheSpec;
use aql_sched::scenarios::{catalog, policy_applicable, policy_for, run_seeded_in, ScenarioSpec};
use aql_sched::sim::rng::derive_seed;
use aql_sched::sim::time::{SimTime, MS, SEC, US};
use proptest::prelude::*;

/// The conformance matrix: a catalog subset covering every horizon
/// kind (Never walkers and spin jobs, At mail servers, Unknown
/// exclusive IO, idle VMs, phased shape-shifters) and the only pinned
/// machine (`pinned-calibration`: four vCPUs hard-pinned to one pCPU
/// next to seven idle ones) crossed with policies covering every
/// span-limiting mechanism (long Xen quanta, microsliced
/// sub-step-scale quanta, vSlicer kick deadlines, and AQL's per-class
/// pools), plus [`STEAL_CASE`].
const CONFORMANCE_SCENARIOS: [&str; 6] = [
    "quickstart",
    "vtrs-live",
    "solo-calibration",
    "nightly-lull",
    "webfarm-oversub",
    "pinned-calibration",
];
const CONFORMANCE_POLICIES: [&str; 4] = ["xen-credit", "microsliced", "vslicer", "aql-sched"];

/// A two-socket machine under vTurbo: a BOOST wake makes `resched_all`
/// preempt a runner on a later pCPU and requeue it as stealable work
/// next to an idle pCPU whose dispatch turn has already passed. Dense
/// steals it at the next grid point, so the adaptive planner must not
/// skip that pCPU. Sweep replicates 0, 1 and 3 of `spinfarm` hit this.
const STEAL_CASE: (&str, &str, [u64; 3]) = ("spinfarm", "vturbo", [0, 1, 3]);

/// The conformance cells: every applicable catalog × policy pair at
/// the spec's own seed, then the steal case at its replicate seeds.
fn conformance_cells() -> Vec<(ScenarioSpec, &'static str, u64)> {
    let mut cells = Vec::new();
    for name in CONFORMANCE_SCENARIOS {
        let spec = catalog::load(name).expect("catalog entry").quick();
        for policy in CONFORMANCE_POLICIES {
            if policy_applicable(&spec, policy) {
                cells.push((spec.clone(), policy, spec.seed));
            }
        }
    }
    let (name, policy, replicates) = STEAL_CASE;
    let spec = catalog::load(name).expect("catalog entry").quick();
    for k in replicates {
        cells.push((spec.clone(), policy, derive_seed(name, k)));
    }
    cells
}

#[test]
fn adaptive_reports_conform_to_dense_on_the_catalog() {
    for (spec, policy, seed) in conformance_cells() {
        let run = |mode: TimeMode| {
            let p = policy_for(&spec, policy).expect("known policy");
            run_seeded_in(&spec, p, seed, mode)
        };
        let dense = run(TimeMode::Dense);
        let adaptive = run(TimeMode::Adaptive);
        common::assert_reports_conform(
            &dense,
            &adaptive,
            common::REL_TOL,
            &format!("{}/{policy}/seed {seed}", spec.name),
        );
    }
}

#[test]
fn uncoalesced_adaptive_is_byte_identical_to_dense_on_the_catalog() {
    // With coalescing off the adaptive mode replays the dense chunk
    // grid exactly; the byte-level oracle of PR 3 still holds and
    // pins the grid path against regressions.
    use aql_sched::scenarios::run_seeded_tuned;
    for (spec, policy, seed) in conformance_cells() {
        let run = |mode: TimeMode| {
            let p = policy_for(&spec, policy).expect("known policy");
            run_seeded_tuned(&spec, p, seed, mode, false)
        };
        let dense = format!("{:?}", run(TimeMode::Dense));
        let adaptive = format!("{:?}", run(TimeMode::Adaptive));
        assert_eq!(
            dense, adaptive,
            "grid-path time modes diverged on {} under {policy} at seed {seed}",
            spec.name
        );
    }
}

/// The grid-path oracle over the whole catalog: every catalog entry ×
/// applicable [`POLICY_NAMES`] cell at quick length and the spec's
/// seed, dense vs uncoalesced adaptive, byte for byte. The subset above
/// runs in every debug `cargo test`; this one covers the machines and
/// mixes it leaves out (multi-socket hosts, trashers, spin farms).
#[test]
#[ignore = "heavy in debug builds; ci.sh runs it in release"]
fn every_catalog_cell_replays_dense_bitwise_on_the_grid_path() {
    use aql_sched::scenarios::{build_sim_seeded_tuned, POLICY_NAMES};
    for name in catalog::names() {
        let spec = catalog::load(name).expect("catalog entry").quick();
        for policy in POLICY_NAMES {
            if !policy_applicable(&spec, policy) {
                continue;
            }
            let run = |mode: TimeMode| {
                let p = policy_for(&spec, policy).expect("known policy");
                let mut sim = build_sim_seeded_tuned(&spec, p, spec.seed, mode, false);
                let report = sim.run_measured(spec.warmup_ns, spec.measure_ns);
                (format!("{report:?}"), sim.horizon_break_count())
            };
            let (adaptive, breaks) = run(TimeMode::Adaptive);
            assert_eq!(
                run(TimeMode::Dense).0,
                adaptive,
                "grid-path time modes diverged on {name} under {policy}"
            );
            assert_eq!(
                breaks, 0,
                "{name} under {policy}: an in-tree workload broke its horizon promise"
            );
        }
    }
}

/// A pure timer workload: always blocked, fires every `period_ns`,
/// recording each delivery so tests can assert that no scheduled event
/// is skipped and that delivery times never regress.
struct TimerProbe {
    period_ns: u64,
    next: SimTime,
    fired: Arc<AtomicU64>,
    last_seen: SimTime,
    regressions: Arc<AtomicU64>,
}

impl TimerProbe {
    fn new(period_ns: u64, fired: Arc<AtomicU64>, regressions: Arc<AtomicU64>) -> Self {
        TimerProbe {
            period_ns,
            next: SimTime(period_ns),
            fired,
            last_seen: SimTime::ZERO,
            regressions,
        }
    }
}

impl GuestWorkload for TimerProbe {
    fn name(&self) -> &str {
        "timer-probe"
    }
    fn vcpu_slots(&self) -> usize {
        1
    }
    fn run(&mut self, _slot: usize, _budget_ns: u64, _ctx: &mut ExecContext<'_>) -> RunOutcome {
        RunOutcome {
            used_ns: 0,
            stop: StopReason::Blocked,
        }
    }
    fn runnable(&self, _slot: usize) -> bool {
        false
    }
    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        Some(self.next)
    }
    fn on_timer(&mut self, _slot: usize, now: SimTime) -> TimerFire {
        if now < self.next {
            return TimerFire::default();
        }
        if now < self.last_seen {
            self.regressions.fetch_add(1, Ordering::Relaxed);
        }
        self.last_seen = now;
        self.fired.fetch_add(1, Ordering::Relaxed);
        self.next += self.period_ns;
        TimerFire::default()
    }
    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::None
    }
}

/// Builds a machine with CPU hogs (whose horizons let the adaptive
/// mode fast-forward) plus a timer probe, runs it to `end` in the
/// given `run_until` increments, and returns (deliveries, regressions,
/// final now, report).
fn run_probed(
    mode: TimeMode,
    cores: usize,
    hogs: usize,
    period_ns: u64,
    increments: &[u64],
    seed: u64,
) -> (u64, u64, SimTime, aql_sched::hv::RunReport) {
    let cache = CacheSpec::i7_3770();
    let fired = Arc::new(AtomicU64::new(0));
    let regressions = Arc::new(AtomicU64::new(0));
    let mut b = SimulationBuilder::new(MachineSpec::custom("probe", 1, cores, cache))
        .seed(seed)
        .time_mode(mode)
        .vm(
            VmSpec::single("probe"),
            Box::new(TimerProbe::new(
                period_ns,
                Arc::clone(&fired),
                Arc::clone(&regressions),
            )),
        );
    for i in 0..hogs {
        b = b.vm(
            VmSpec::single(&format!("hog-{i}")),
            Box::new(aql_sched::workloads::MemWalk::lolcf(
                &format!("hog-{i}"),
                &cache,
            )),
        );
    }
    let mut sim = b.build();
    let mut last = SimTime::ZERO;
    for &inc in increments {
        sim.run_for(inc);
        assert!(sim.now() >= last, "clock moved backwards");
        last = sim.now();
    }
    (
        fired.load(Ordering::Relaxed),
        regressions.load(Ordering::Relaxed),
        sim.now(),
        sim.report(),
    )
}

#[test]
fn no_timer_is_skipped_while_fast_forwarding() {
    // Hogs report Horizon::Never, so the engine fast-forwards hard;
    // the probe's timers must still all fire, in order, in both modes.
    let increments = [SEC];
    let (fired_a, regress_a, now_a, rep_a) =
        run_probed(TimeMode::Adaptive, 2, 2, 3 * MS, &increments, 5);
    let (fired_d, regress_d, now_d, rep_d) =
        run_probed(TimeMode::Dense, 2, 2, 3 * MS, &increments, 5);
    assert_eq!(now_a, now_d);
    assert_eq!(regress_a, 0);
    assert_eq!(regress_d, 0);
    // 1 s of 3 ms timers: all ~333 deliveries happen in both modes.
    assert_eq!(fired_a, fired_d, "a fast-forwarded span skipped timers");
    assert!(fired_a >= 330, "probe barely fired: {fired_a}");
    common::assert_reports_conform(&rep_d, &rep_a, common::REL_TOL, "timer probe");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over random machines, probe periods and run_until partitions:
    /// the clock is monotone and lands exactly on every target, no
    /// scheduled timer is skipped or regressed, and the adaptive mode
    /// reproduces the dense mode byte for byte — including mid-span
    /// stop boundaries, which cut execution chunks at arbitrary
    /// instants.
    #[test]
    fn horizon_advancement_is_monotone_eventful_and_conformant(
        cores in 1usize..4,
        hogs in 0usize..5,
        period_us in 500u64..20_000,
        increments in prop::collection::vec(1_000u64..400_000_000, 1..6),
        seed in 1u64..500,
    ) {
        let period = period_us * US;
        let adaptive = run_probed(TimeMode::Adaptive, cores, hogs, period, &increments, seed);
        let dense = run_probed(TimeMode::Dense, cores, hogs, period, &increments, seed);
        // Same clock, same deliveries, same report, no regressions.
        prop_assert_eq!(adaptive.2, dense.2);
        let expected_end = SimTime(increments.iter().sum());
        prop_assert_eq!(adaptive.2, expected_end);
        prop_assert_eq!(adaptive.1, 0);
        prop_assert_eq!(dense.1, 0);
        prop_assert_eq!(adaptive.0, dense.0);
        // Deliveries match the schedule: one per whole period elapsed
        // (the engine may defer a due timer by at most one event hop).
        let expected = expected_end.as_ns() / period;
        prop_assert!(
            adaptive.0 >= expected.saturating_sub(1) && adaptive.0 <= expected + 1,
            "deliveries {} far from schedule {}", adaptive.0, expected
        );
        common::assert_reports_conform(&dense.3, &adaptive.3, common::REL_TOL, "probed run");
    }
}
