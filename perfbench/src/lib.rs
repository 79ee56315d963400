//! `perfbench` — the repository benchmark for the mdflow simulator.
//!
//! One command measures what users of the simulator wait on (end-to-end
//! metrics, tracing off) or, with `--trace 1`, splits a run's host time
//! and work across the simulator's layers (per-layer metrics, from a
//! separate traced run plus one probe per substrate). See `README.md` in
//! this directory for every metric, its unit, its direction and the
//! public call it times.
//!
//! Every measured pass runs in a child process, so a pass that panics,
//! aborts or deadlocks is counted as failed ops instead of taking the
//! benchmark down with it.

pub mod alloc;
pub mod host;
pub mod out;
pub mod pass;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workloads;
