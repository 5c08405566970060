//! Deterministic discrete-event simulation engine for the AQL_Sched
//! reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`]) and
//!   duration constants.
//! * [`queue`] — a stable (FIFO-on-tie) event queue ([`EventQueue`]).
//! * [`rng`] — seeded, reproducible random number helpers ([`SimRng`]).
//! * [`stats`] — online statistics and sample sets with percentiles,
//!   used by the measurement harness.
//! * [`trace`] — a bounded, cheap trace log for debugging simulations.
//!
//! Everything here is deterministic: two runs with the same seed and the
//! same inputs produce bit-identical results. No wall-clock time, no
//! hash-map iteration order, no global state.

#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{OnlineStats, SampleSet};
pub use time::{SimTime, MS, NS, SEC, US};
pub use trace::TraceLog;
