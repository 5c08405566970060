//! Dense-grid chunking vs coalesced single-call execution at the
//! memory fixpoint — the mem-layer half of the chunk-coalescing win,
//! tracked independently of the engine.
//!
//! Each case advances a warm (fixpoint) workload by 10 ms of CPU:
//!
//! * `grid/…` replays the engine's dense chunk grid — one
//!   `exec_step_lean` call per 100 µs sub-step (100 calls);
//! * `coalesced/…` answers the same budget with one
//!   `exec_step_cached` call, which a hot [`aql_mem::RateCache`]
//!   resolves in O(1);
//! * `integrator/…` is the same single call without the rate cache —
//!   isolating the cache's contribution from plain call batching.
//!
//! `llcf` exercises the occupancy fixpoint (footprint resident in the
//! LLC), `lolcf` the L2-warmth fixpoint; `llco` never reaches a
//! fixpoint and pins the non-coalescible baseline (all three paths
//! must then cost the same — the cache may not slow the miss path).
//!
//! `shared/…` times one 100 µs `exec_step_lean` chunk on a warm, full
//! LLC, owners taking turns: one socket of 16 (4 LLCO, 12 LLCF/LoLCF),
//! and a multi-socket machine's socket (48-slot index, 12 owners).

use aql_mem::{
    exec_step, exec_step_cached, exec_step_lean, CacheSpec, LlcState, MemProfile, RateCache,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SPAN_NS: u64 = 10_000_000; // one 10 ms quiescent span
const GRID_NS: u64 = 100_000; // the engine's 100 µs sub-step

/// A warm state for `profile`: footprint filled, L2 saturated.
fn warm_state(profile: &MemProfile, spec: &CacheSpec) -> (LlcState, f64) {
    let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
    let mut warmth = 0.0;
    for _ in 0..300 {
        let _ = exec_step(profile, spec, &mut llc, 0, &mut warmth, 1_000_000);
    }
    (llc, warmth)
}

fn bench_exec_step(c: &mut Criterion) {
    let spec = CacheSpec::i7_3770();
    let cases = [
        ("llcf", MemProfile::llcf(&spec)),
        ("lolcf", MemProfile::lolcf(&spec)),
        ("llco", MemProfile::llco(&spec)),
    ];
    let mut group = c.benchmark_group("exec_step");
    group.sample_size(20);
    for (name, profile) in cases {
        let warm = warm_state(&profile, &spec);
        {
            let (llc0, w0) = warm.clone();
            group.bench_function(format!("grid/{name}"), move |b| {
                b.iter(|| {
                    let mut llc = llc0.clone();
                    let mut w = w0;
                    let mut total = 0.0;
                    for _ in 0..(SPAN_NS / GRID_NS) {
                        total += exec_step_lean(&profile, &spec, &mut llc, 0, &mut w, GRID_NS)
                            .instructions;
                    }
                    black_box(total)
                })
            });
        }
        {
            let (llc0, w0) = warm.clone();
            group.bench_function(format!("coalesced/{name}"), move |b| {
                let mut cache = RateCache::new(1);
                b.iter(|| {
                    let mut llc = llc0.clone();
                    let mut w = w0;
                    black_box(
                        exec_step_cached(&profile, &spec, &mut llc, 0, &mut w, SPAN_NS, &mut cache)
                            .instructions,
                    )
                })
            });
        }
        {
            let (llc0, w0) = warm.clone();
            group.bench_function(format!("integrator/{name}"), move |b| {
                b.iter(|| {
                    let mut llc = llc0.clone();
                    let mut w = w0;
                    black_box(
                        exec_step_lean(&profile, &spec, &mut llc, 0, &mut w, SPAN_NS).instructions,
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_shared_llc(c: &mut Criterion) {
    let spec = CacheSpec::i7_3770();
    let mut group = c.benchmark_group("exec_step");
    group.sample_size(20);
    // (case, owner index stride, owners, of which LLCO)
    for (name, stride, count, llco) in [("16-owners", 1, 16, 4), ("48-index-12-active", 4, 12, 3)] {
        let mut llc = LlcState::new(spec.llc_bytes as f64, stride * count);
        let mut slots: Vec<_> = (0..count)
            .map(|k| match k {
                k if k < llco => MemProfile::llco(&spec),
                k if k % 2 == 0 => MemProfile::llcf(&spec),
                _ => MemProfile::lolcf(&spec),
            })
            .map(|profile| (profile, 0.0))
            .collect();
        // Owner `k % count`'s next 100 µs chunk.
        let mut chunk = move |k: usize| {
            let (profile, warmth) = &mut slots[k % count];
            exec_step_lean(
                profile,
                &spec,
                &mut llc,
                k % count * stride,
                warmth,
                GRID_NS,
            )
            .instructions
        };
        for k in 0..200 * count {
            chunk(k); // warm and fill
        }
        let mut next = 0;
        group.bench_function(format!("shared/{name}"), move |b| {
            b.iter(|| {
                next += 1;
                black_box(chunk(next))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exec_step, bench_shared_llc);
criterion_main!(benches);
