//! Benchmark-only crate.
//!
//! * [`scenarios`] — the single definition of the real-thread scheduler
//!   workload shapes (skewed load, steal/spin, contended queues, QoS mix,
//!   many-core backlog) that `piom-harness bench --json` records into
//!   `BENCH_pioman.json` for the cross-PR perf trajectory — methodology in
//!   `EXPERIMENTS.md` — plus the gate tags of those rows.
//! * `benches/tables.rs` — end-to-end regeneration cost of the simulated
//!   Table I/II microbenchmarks (how fast the DES reproduces the paper);
//!   `cargo bench` prints mean ns/iter (vendored criterion shim).

pub mod scenarios;
