//! Benchmark harness crate: `src/bin/reproduce.rs` is the table generator
//! that regenerates every experiment family of DESIGN.md §6 through the
//! unified `Engine` API, and `src/bin/batch_bench.rs` measures the batch
//! path.

#![forbid(unsafe_code)]
