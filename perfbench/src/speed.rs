//! Host-speed probe.
//!
//! On a shared host, other tenants slow this process's code by up to
//! 80 % for spells of seconds to minutes; steal time stays near zero,
//! so process CPU time slows with it. Two runs of the same code at the
//! same seed read 4.8 s and 7.5 s of elapsed time minutes apart. The
//! benchmark therefore times a fixed kernel between the plan's parts
//! and scales each repetition by `REFERENCE_S / median probe`: its
//! times read as elapsed seconds at the host speed where the probe
//! takes `REFERENCE_S`.
//!
//! The kernel is the benchmark's own code, so a change to the
//! simulator moves the scaled times by its full effect. It mimics a
//! discrete-event loop: a binary heap of timed events, branchy f64
//! updates and scattered reads of a state table.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on an unloaded vCPU of the 2.1 GHz Xeon host the
/// benchmark was calibrated on (its fastest readings there).
pub const REFERENCE_S: f64 = 2.5e-3;

const EVENTS: u32 = 40_000;

/// The kernel's buffers, allocated once so that a probe times no
/// allocation or page fault.
pub struct Probe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    state: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            heap: BinaryHeap::with_capacity(1024),
            state: vec![1.0; 1 << 16],
        }
    }

    /// Seconds one run of the kernel takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel(black_box(EVENTS)));
        t.elapsed().as_secs_f64()
    }

    fn kernel(&mut self, events: u32) -> f64 {
        let (heap, state) = (&mut self.heap, &mut self.state);
        heap.clear();
        state.fill(1.0);
        for i in 0..1024u64 {
            heap.push(Reverse((i * 7919 % 1000, i as u32)));
        }
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0.0;
        for _ in 0..events {
            let Reverse((t, id)) = heap.pop().expect("every pop is followed by a push");
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (state.len() - 1);
            let v = state[slot] * 0.999 + f64::from(id).sqrt() / (1.0 + (t % 97) as f64);
            state[slot] = v;
            if v > 3.0 {
                acc += v.ln();
            } else {
                acc -= v * 0.5;
            }
            heap.push(Reverse((t + 1 + x % 1000, id)));
        }
        acc
    }
}
