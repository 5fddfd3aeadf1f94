//! `lcl-trace`: span-based tracing for the LCL engine.
//!
//! The engine between "request in" and "p99 out" is a pipeline of
//! distinct cost centres — the plan-cache lookup, the registry tier
//! walk, SAT propagation, the synthesis fixpoint, simulator rounds,
//! validation — and a latency histogram cannot say *which* of them a
//! slow solve spent its time in. This crate is the seeing-layer: a
//! dependency-free span/event collector cheap enough to leave compiled
//! into every hot path, plus typed cost ledgers and a Chrome Trace
//! Event exporter.
//!
//! # Architecture
//!
//! * **[`Collector`]** — a bounded ring buffer of fixed-size event
//!   slots. Recording is *wait-free*: one `fetch_add` claims a slot,
//!   per-slot sequence counters (a seqlock of plain `AtomicU64` words —
//!   no `unsafe` anywhere) let readers detect and skip torn slots, and
//!   when the ring wraps the oldest events are overwritten with an
//!   exact [`Collector::dropped`] count. A *disabled* collector is one
//!   relaxed `AtomicBool` load: no allocation, no thread-local touch,
//!   no lock (the zero-allocation test in `tests/zero_alloc.rs` pins
//!   this with a counting allocator).
//! * **[`SpanGuard`]** — RAII spans with parent links threaded through
//!   a thread-local, so instrumentation never changes a function
//!   signature: [`span`] opens a child of the current span, the guard's
//!   drop records it. [`mark`] records zero-duration instant events
//!   (breaker skips, cache hits).
//! * **[`SolverCost`]** — the SAT cost ledger (decisions, propagations,
//!   conflicts, learned clauses). `lcl-sat` charges it into a
//!   thread-local accumulator at the end of every solve; the engine's
//!   tier walk drains it per tier attempt ([`take_solver_cost`]) to
//!   attribute solver work to the tier that caused it, and attaches the
//!   resulting [`Cost`] ledger to every `SolveReport`.
//! * **[`Trace::to_chrome_json`]** — exports a snapshot as Chrome Trace
//!   Event Format JSON, loadable in `chrome://tracing` or Perfetto.
//! * **[`json`]** — the workspace's one JSON value type, strict parser
//!   and string escaper ([`json::write_string`]), shared by `lcl-serve`'s
//!   wire protocol, `lcl-analyze`'s report and the Chrome exporter.
//!
//! Trace ids ([`set_current_trace`]) tie every span recorded on a
//! thread to the request being served; `lcl-serve` mints one per HTTP
//! request and serves the filtered snapshot back at `GET /trace/<id>`.
//!
//! ```
//! lcl_trace::enable(4096);
//! lcl_trace::set_current_trace(0xfeed);
//! {
//!     let mut outer = lcl_trace::span(lcl_trace::SpanKind::Solve, "solve");
//!     let _inner = lcl_trace::span(lcl_trace::SpanKind::Sat, "sat-solve");
//!     outer.count(0, 1);
//! } // guards drop → events recorded
//! let trace = lcl_trace::snapshot_for(0xfeed);
//! assert_eq!(trace.events.len(), 2);
//! assert!(trace.to_chrome_json().contains("\"traceEvents\""));
//! lcl_trace::set_current_trace(0);
//! ```

#![forbid(unsafe_code)]

mod chrome;
mod collector;
mod cost;
pub mod json;
mod span;

pub use chrome::Trace;
pub use collector::{
    disable, dropped, enable, global, is_enabled, now_ns, recorded, snapshot, snapshot_for,
    Collector, Event,
};
pub use cost::{charge_solver, take_solver_cost, Cost, SolverCost, TierAttempt, TierOutcome};
pub use span::{current_trace, mark, set_current_trace, span, SpanGuard, SpanKind};
