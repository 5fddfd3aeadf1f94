//! `lcl-serve`: the engine as a network service.
//!
//! PR 5 gave the repository a prepared-plan *library* API — one shared
//! [`Engine`](lcl_grids::engine::Engine), many problems, streaming
//! mixed-problem batches. This crate puts that engine behind a socket:
//! a dependency-free HTTP/1.1 front end (hand-rolled request parsing
//! over `std::net`, and the workspace's one JSON codec,
//! [`lcl_trace::json`], re-exported here as [`json`] — the container
//! bakes in no HTTP or serde crates) with the operational pieces a
//! long-lived solver service needs and the library cannot provide:
//!
//! * **Admission control** — an acceptor thread feeds a *bounded*
//!   connection queue; when it is full the client gets a typed
//!   `429 busy` response immediately instead of an unbounded buffer.
//!   A batch body is capped at `max_batch_jobs` jobs and solved as one
//!   engine slice (`solve_jobs_with`), so peak memory is
//!   `O(queue_cap + workers)` bodies whatever the offered load.
//! * **Multi-tenant plan namespaces** — plans are keyed by the
//!   canonical [`Registry::plan_cache_key`](lcl_grids::engine::Registry::plan_cache_key)
//!   per tenant, with per-tenant LRU caps on top of the engine's own
//!   [`max_prepared_plans`](lcl_grids::engine::EngineBuilder::max_prepared_plans)
//!   memo bound; a tenant can solve by `plan` reference only through
//!   keys it prepared itself.
//! * **Observability** — `GET /metrics` surfaces per-endpoint latency
//!   histograms (p50/p99), queue depth and rejection counts, the
//!   engine's prepare/synthesis/dedup counters, per-problem solve rows,
//!   and a `build` block (version, features, thread/core counts); the
//!   same counters export as the Prometheus text format at
//!   `GET /metrics?format=prometheus` (or via `Accept: text/plain`).
//! * **Request tracing** — every request gets an `x-trace-id` (the
//!   client's, or minted), echoed in the response. With
//!   [`ServeConfig::trace_sample_rate`] > 0 (or
//!   [`ServeConfig::slow_ms`] set) the engine's span instrumentation is
//!   enabled and sampled/slow requests are captured into a bounded LRU:
//!   `GET /trace/recent` lists them, `GET /trace/<id>` serves one as a
//!   Chrome Trace Event document you can open in `chrome://tracing` or
//!   Perfetto. Solve responses carry the per-tier `cost` ledger
//!   (wall time plus SAT decisions/propagations/conflicts/learned).
//! * **Request logging** — optional JSON-lines to stderr
//!   ([`ServeConfig::log_level`], default off): one line per request
//!   with trace id, tenant, endpoint, status, latency, and solver tier;
//!   request bodies are never logged.
//! * **Graceful shutdown** — `POST /shutdown` (or [`Server::shutdown`])
//!   stops accepting and drains every admitted request before the
//!   process exits.
//! * **Census lookups** — with [`ServeConfig::atlas_path`] set (CLI
//!   `--atlas`), the server loads an `lcl-atlas` census artifact once at
//!   startup, seeds the engine's classification from it
//!   ([`EngineBuilder::atlas`](lcl_grids::engine::EngineBuilder::atlas)),
//!   and answers read-only lookups: `GET /atlas/<key>` returns one
//!   problem's census record, `GET /atlas/summary` the aggregate class
//!   and orbit histograms. See DESIGN.md §13.
//!
//!   ```text
//!   $ lcl-serve --addr 127.0.0.1:7171 --atlas fixtures/atlas/census-a2.jsonl &
//!   $ curl -s localhost:7171/atlas/summary | head -4
//!   {
//!     "problems": 5056,
//!     "candidates": 65538,
//!     "dedup_ratio": "0.077146",
//!   $ curl -s "localhost:7171/atlas/$(head -2 fixtures/atlas/census-a2.jsonl \
//!       | tail -1 | sed 's/.*"key":"\([^"]*\)".*/\1/')"
//!   {"key":"atlas-a1-082f2207b4e88cc4","alphabet":1,...,"verdict":"unsolvable",...}
//!   ```
//!
//! # Quickstart
//!
//! Start a server and speak the protocol with nothing but a TCP socket
//! (see DESIGN.md §9 for the full endpoint grammar):
//!
//! ```
//! use lcl_serve::{Server, ServeConfig};
//! use std::io::{Read, Write};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! let body = r#"{"problem":{"type":"vertex-colouring","k":4},
//!                "instance":{"topology":"torus2","side":8}}"#;
//! write!(
//!     conn,
//!     "POST /solve HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200 OK"));
//! assert!(response.contains("\"validated\":true"));
//! server.shutdown();
//! server.wait();
//! ```
//!
//! The same protocol from the shell, against the `lcl-serve` binary —
//! including pulling a request trace and opening it in a browser:
//!
//! ```text
//! $ lcl-serve --addr 127.0.0.1:7171 --trace-sample-rate 1.0 &
//! $ curl -s localhost:7171/classify -d \
//!     '{"problem":{"type":"orientation","degrees":[1,3,4]}}'
//! {"problem":"orientation-1-3-4","class":"log-star"}
//! $ curl -s localhost:7171/solve -H 'x-trace-id: beef' -d \
//!     '{"problem":{"type":"vertex-colouring","k":4},
//!       "instance":{"topology":"torus2","side":8}}' | head -c 80
//! $ curl -s localhost:7171/trace/recent
//! $ curl -s localhost:7171/trace/beef > trace.json   # open in
//! $ # chrome://tracing or https://ui.perfetto.dev
//! $ curl -s 'localhost:7171/metrics?format=prometheus' | head -4
//! $ curl -s -X POST localhost:7171/shutdown
//! ```
//!
//! The `loadgen` binary drives mixed prepare/solve/classify traffic over
//! real sockets and writes `BENCH_service.json` (p50/p99 latency,
//! jobs/s) — the service benchmark CI's serve-smoke job replays.

#![forbid(unsafe_code)]
pub mod api;
pub mod http;
pub mod logging;
pub mod metrics;
pub mod server;
pub mod trace_store;

pub use api::ApiError;
pub use json::{Json, JsonError};
/// The JSON codec every endpoint speaks, owned by `lcl-trace` and
/// re-exported so `lcl_serve::json::Json` keeps resolving.
pub use lcl_trace::json;
pub use logging::LogLevel;
pub use metrics::{Histogram, Metrics};
pub use server::{ServeConfig, Server};
pub use trace_store::{StoredTrace, TraceStore};
