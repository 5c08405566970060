//! §4.3 overhead micro-benchmarks: the per-invocation cost of the
//! recognition and clustering systems, and the engine's scheduler hot
//! paths. The paper claims `O(max(m, n))` complexity and "negligible"
//! overall overhead; these benches quantify it.

use aql_core::clustering::{cluster_machine, VcpuDesc};
use aql_core::cursors::{CursorLimits, Cursors};
use aql_core::{QuantumTable, Vtrs, VtrsConfig};
use aql_hv::apptype::VcpuType;
use aql_hv::ids::{SocketId, VcpuId, VmId};
use aql_hv::sched::RunQueue;
use aql_hv::vm::Prio;
use aql_hv::MachineSpec;
use aql_mem::PmuSample;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn sample(i: usize) -> PmuSample {
    PmuSample {
        instructions: 1e7 + i as f64,
        llc_refs: 5e5,
        llc_misses: 2e5,
        io_events: (i % 3) as u64,
        ple_exits: (i % 7) as u64,
        ran_ns: 7_500_000,
        period_ns: 30_000_000,
    }
}

fn descs(n: usize) -> Vec<VcpuDesc> {
    (0..n)
        .map(|i| VcpuDesc {
            vcpu: VcpuId(i),
            vm: VmId(i),
            vtype: VcpuType::ALL[i % 5],
            trashing: i % 5 == 4,
        })
        .collect()
}

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("overhead");

    group.bench_function("cursor_equations", |b| {
        let s = sample(1);
        let limits = CursorLimits::default();
        b.iter(|| black_box(Cursors::from_sample(&s, &limits)))
    });

    for n in [16usize, 48, 256] {
        group.bench_function(format!("vtrs_observe_{n}"), |b| {
            let mut vtrs = Vtrs::new(n, VtrsConfig::default());
            let samples: Vec<PmuSample> = (0..n).map(sample).collect();
            b.iter(|| black_box(vtrs.observe(&samples).len()))
        });
        group.bench_function(format!("clustering_{n}"), |b| {
            // Scale the machine with the population (the paper's
            // O(max(m, n)) claim).
            let sockets_n = (n / 16).max(1) + 1;
            let machine =
                MachineSpec::custom("bench", sockets_n, 4, aql_mem::CacheSpec::xeon_e5_4603());
            let usable: Vec<SocketId> = (1..sockets_n).map(SocketId).collect();
            let usable = if usable.is_empty() {
                vec![SocketId(0)]
            } else {
                usable
            };
            let table = QuantumTable::paper_defaults();
            let population = descs(n);
            b.iter(|| black_box(cluster_machine(&machine, &usable, &population, &table)))
        });
    }

    group.bench_function("runqueue_push_pop", |b| {
        b.iter(|| {
            let mut q = RunQueue::new();
            for i in 0..64 {
                q.push_tail(
                    match i % 3 {
                        0 => Prio::Boost,
                        1 => Prio::Under,
                        _ => Prio::Over,
                    },
                    VcpuId(i),
                    false,
                );
            }
            let mut n = 0;
            while q.pop_best().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
