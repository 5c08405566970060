//! The tolerance conformance oracle for chunk-coalesced execution.
//!
//! PR 3 pinned `TimeMode::Adaptive` to the dense oracle bit for bit,
//! which also pinned workload execution to the dense chunk grid. Chunk
//! coalescing (this PR) deliberately relaxes that to a *quantified*
//! oracle: everything discrete — per-vCPU `cpu_ns`, pCPU busy time,
//! events, timers, completion counts, spin times — stays bit-exact,
//! and f64 metrics may drift by at most 1e-6 relative (whole-span
//! summation order plus the snapped sub-epsilon cache traffic of the
//! steady-state fixpoint). This suite enforces exactly that bound, per
//! VM, against the dense oracle; the committed rendered goldens
//! (`tests/goldens/`, checked by `figure_goldens`) close the loop by
//! proving every paper artifact is unchanged at rendering precision.
//!
//! One caveat keeps the integer-exactness claim empirical rather than
//! structural: PMU counters are f64, and vTRS-driven policies compare
//! them against class thresholds. A monitoring sample landing within
//! the coalescing drift (~1e-9 relative) of a threshold could flip a
//! classification and diverge scheduling — astronomically unlikely
//! per window, deterministic per seed (these suites are reproducible,
//! not flaky), but a future diff that parks a sample exactly on a
//! threshold would surface here as an exact-accounting mismatch
//! rather than a tolerance failure. That is the desired behaviour:
//! such a knife-edge sample deserves a loud failure, not absorption.

mod common;

use aql_sched::hv::{MachineSpec, SimulationBuilder, TimeMode, VmSpec};
use aql_sched::mem::{CacheSpec, MemProfile};
use aql_sched::scenarios::{catalog, policy_applicable, policy_for, run_seeded_in};
use aql_sched::sim::time::{MS, SEC};
use aql_sched::workloads::{
    IdleWorkload, IoServer, IoServerCfg, MemWalk, Phase, SpinJob, SpinJobCfg,
};
use proptest::prelude::*;

/// Scenarios where coalescing actually engages (solo and lightly
/// loaded regimes) plus contended ones where it must stay out of the
/// way, crossed with every span-limiting policy mechanism.
/// `parsec-batch` adds a two-socket machine.
const SCENARIOS: [&str; 7] = [
    "solo-calibration",
    "pinned-calibration",
    "nightly-lull",
    "vtrs-live",
    "s3",
    "quickstart",
    "parsec-batch",
];
const POLICIES: [&str; 5] = [
    "xen-credit",
    "microsliced",
    "vslicer",
    "vturbo",
    "aql-sched",
];

#[test]
fn coalesced_adaptive_conforms_to_dense_on_the_catalog() {
    for name in SCENARIOS {
        let spec = catalog::load(name).expect("catalog entry").quick();
        for policy in POLICIES {
            if !policy_applicable(&spec, policy) {
                continue;
            }
            let run = |mode: TimeMode| {
                let p = policy_for(&spec, policy).expect("known policy");
                run_seeded_in(&spec, p, spec.seed, mode)
            };
            let dense = run(TimeMode::Dense);
            let adaptive = run(TimeMode::Adaptive);
            common::assert_reports_conform(
                &dense,
                &adaptive,
                common::REL_TOL,
                &format!("{name}/{policy}"),
            );
        }
    }
}

/// One random VM for the property test, spanning every coalescing
/// class: always-linear walkers, phase-bounded walkers, single- and
/// multi-threaded spin jobs, service-burst IO servers and idle
/// padding.
fn random_vm(
    kind: u64,
    idx: usize,
    seed: u64,
    cache: &CacheSpec,
) -> (VmSpec, Box<dyn aql_sched::hv::workload::GuestWorkload>) {
    let name = format!("vm-{idx}");
    match kind % 8 {
        0 => (VmSpec::single(&name), Box::new(MemWalk::llcf(&name, cache))),
        1 => (
            VmSpec::single(&name),
            Box::new(MemWalk::lolcf(&name, cache)),
        ),
        2 => (VmSpec::single(&name), Box::new(MemWalk::llco(&name, cache))),
        3 => {
            let phases = vec![
                Phase {
                    duration_ns: 20 * MS + (seed % 17) * MS,
                    profile: MemProfile::lolcf(cache),
                },
                Phase {
                    duration_ns: 15 * MS + (seed % 11) * MS,
                    profile: MemProfile::llcf(cache),
                },
            ];
            (
                VmSpec::single(&name),
                Box::new(MemWalk::phased(&name, phases)),
            )
        }
        4 => (
            VmSpec::single(&name),
            Box::new(SpinJob::new(&name, SpinJobCfg::kernbench(1), seed)),
        ),
        5 => {
            let threads = 2 + (seed as usize % 2);
            (
                VmSpec::smp(&name, threads),
                Box::new(SpinJob::new(&name, SpinJobCfg::kernbench(threads), seed)),
            )
        }
        6 => {
            let cfg = if seed.is_multiple_of(2) {
                IoServerCfg::exclusive(40.0 + (seed % 200) as f64)
            } else {
                IoServerCfg::heterogeneous(40.0 + (seed % 150) as f64)
            };
            (
                VmSpec::single(&name),
                Box::new(IoServer::new(&name, cfg, seed)),
            )
        }
        _ => (VmSpec::single(&name), Box::new(IdleWorkload::new(&name, 1))),
    }
}

fn run_random(
    mode: TimeMode,
    sockets: usize,
    cores: usize,
    kinds: &[u64],
    seed: u64,
    warmup_ns: u64,
    measure_ns: u64,
) -> aql_sched::hv::RunReport {
    let cache = CacheSpec::i7_3770();
    let mut b = SimulationBuilder::new(MachineSpec::custom("rand", sockets, cores, cache))
        .seed(seed)
        .time_mode(mode);
    for (i, &k) in kinds.iter().enumerate() {
        let (spec, wl) = random_vm(k, i, seed.wrapping_add(i as u64 * 7919), &cache);
        b = b.vm(spec, wl);
    }
    let mut sim = b.build();
    sim.run_for(warmup_ns);
    sim.reset_measurements();
    sim.run_for(measure_ns);
    sim.report()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random machines (1–4 sockets), workload mixes and run
    /// lengths: coalesced adaptive runs keep every per-VM `cpu_ns`
    /// **exactly** equal to the dense oracle (integer accounting and
    /// dispatch decisions are untouched by coalescing) and every f64
    /// metric within 1e-6 relative.
    #[test]
    fn random_mixes_conform(
        sockets in 1usize..5,
        cores in 1usize..4,
        kinds in prop::collection::vec(0u64..8, 1..7),
        seed in 1u64..10_000,
        warmup_ms in 0u64..300,
        measure_ms in 50u64..700,
    ) {
        let dense = run_random(
            TimeMode::Dense, sockets, cores, &kinds, seed, warmup_ms * MS, measure_ms * MS,
        );
        let adaptive = run_random(
            TimeMode::Adaptive, sockets, cores, &kinds, seed, warmup_ms * MS, measure_ms * MS,
        );
        common::assert_reports_conform(&dense, &adaptive, common::REL_TOL, "random mix");
    }
}

#[test]
fn mid_span_preemption_forces_rate_recomputation() {
    // Two walkers sharing one core under short quanta: every context
    // switch cools the private L2 (warmth reset), so the steady-rate
    // cache must recompute after each dispatch rather than serve the
    // pre-preemption rate.
    let cache = CacheSpec::i7_3770();
    let mut sim = SimulationBuilder::new(MachineSpec::custom("m", 1, 1, cache))
        .policy(Box::new(aql_sched::hv::FixedQuantumPolicy::new(MS)))
        .time_mode(TimeMode::Adaptive)
        .vm(VmSpec::single("a"), Box::new(MemWalk::lolcf("a", &cache)))
        .vm(VmSpec::single("b"), Box::new(MemWalk::lolcf("b", &cache)))
        .build();
    sim.run_for(SEC);
    let (hits, recomputes) = sim.rate_cache_stats();
    // ~1000 slices/s: each dispatch invalidates (warmth bits change),
    // each slice's warm tail then hits.
    assert!(
        recomputes >= 500,
        "per-slice invalidation expected: {recomputes} recomputes"
    );
    assert!(
        hits >= 500,
        "warm tails should still hit the cache: {hits} hits"
    );
}

#[test]
fn phase_shift_forces_rate_recomputation() {
    // A solo phased walker: within a phase the rate caches and spans
    // coalesce; each phase boundary changes the profile bits and must
    // recompute. The linear window (CPU time left in the phase) also
    // caps every coalesced chunk, so a span never crosses a shift.
    let cache = CacheSpec::i7_3770();
    let phases = vec![
        Phase {
            duration_ns: 40 * MS,
            profile: MemProfile::lolcf(&cache),
        },
        Phase {
            duration_ns: 40 * MS,
            profile: MemProfile::llcf(&cache),
        },
    ];
    let mut sim = SimulationBuilder::new(MachineSpec::custom("m", 1, 1, cache))
        .time_mode(TimeMode::Adaptive)
        .vm(VmSpec::single("p"), Box::new(MemWalk::phased("p", phases)))
        .build();
    sim.run_for(400 * MS); // ~5 full cycles, ~10 shifts
    let (hits, recomputes) = sim.rate_cache_stats();
    assert!(
        recomputes >= 10,
        "each phase shift must recompute: {recomputes} recomputes"
    );
    // The cache is consulted twice per coalesced span (probe + the
    // span's single exec chunk), so ~40 spans yield ~80 lookups.
    assert!(hits > 30, "within-phase spans should hit: {hits} hits");
}

#[test]
fn coalescing_toggle_only_moves_f64_low_bits() {
    // The same adaptive run with and without coalescing: integer
    // accounting identical, metrics within tolerance — directly
    // isolating the coalescing drift from the mode difference.
    use aql_sched::scenarios::run_seeded_tuned;
    let spec = catalog::load("solo-calibration").unwrap().quick();
    let p1 = policy_for(&spec, "xen-credit").unwrap();
    let p2 = policy_for(&spec, "xen-credit").unwrap();
    let flat = run_seeded_tuned(&spec, p1, spec.seed, TimeMode::Adaptive, false);
    let coalesced = run_seeded_tuned(&spec, p2, spec.seed, TimeMode::Adaptive, true);
    common::assert_reports_conform(&flat, &coalesced, common::REL_TOL, "coalesce toggle");
}

#[test]
fn degenerate_profiles_stay_bounded_end_to_end() {
    // The exec_step hard cap (satellite bugfix) seen from the engine:
    // a pathological profile (tiny WSS, heavy deep traffic) must not
    // hang a release-mode run in either time mode.
    let cache = CacheSpec::i7_3770();
    for mode in [TimeMode::Dense, TimeMode::Adaptive] {
        let degenerate = MemProfile {
            wss_bytes: 64,
            deep_refs_per_instr: 50.0,
            base_ns_per_instr: 0.1,
        };
        let mut sim = SimulationBuilder::new(MachineSpec::custom("m", 1, 1, cache))
            .time_mode(mode)
            .vm(VmSpec::single("d"), Box::new(MemWalk::new("d", degenerate)))
            .build();
        let t0 = std::time::Instant::now();
        sim.run_for(20 * MS);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(60),
            "degenerate profile must stay bounded ({mode:?})"
        );
        let report = sim.report();
        assert_eq!(report.vms[0].cpu_ns(), 20 * MS, "budget fully consumed");
    }
}
