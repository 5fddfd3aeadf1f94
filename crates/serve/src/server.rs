//! The service itself: one shared [`Engine`], an acceptor thread feeding
//! a *bounded* connection queue, a small pool of HTTP workers, per-tenant
//! prepared-plan namespaces, and a graceful shutdown that drains every
//! admitted request.
//!
//! Admission control is the load-bearing design point: the acceptor
//! never buffers unboundedly. A connection either fits in the
//! `queue_cap`-bounded queue (where it waits for a worker, which solves
//! a batch body of at most `max_batch_jobs` jobs as one engine slice) or
//! is answered `429 busy` on the spot and closed — so peak memory is
//! `O(queue_cap + workers)`, whatever the offered load.

use crate::api::{parse_instance, parse_problem, solve_error_body, solve_error_status, ApiError};
use crate::http::{read_request, write_response, Request};
use crate::json::Json;
use crate::logging::{self, LogLevel, RequestLine};
use crate::metrics::Metrics;
use crate::trace_store::{self, StoredTrace, TraceStore};
use lcl_grids::core::classify::GridClass;
use lcl_grids::engine::{Budget, ChaosConfig, Engine, Job, Labelling, PreparedProblem, SolveError};
use lcl_trace::SpanKind;
use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration; [`ServeConfig::default`] is sized for a small
/// host and every knob has a CLI flag in the `lcl-serve` binary.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Bounded connection-queue capacity; `0` is a rendezvous queue
    /// (a connection is admitted only if a worker is already waiting).
    pub queue_cap: usize,
    /// Engine worker threads for batch bodies (`0` = all cores).
    pub engine_threads: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Per-request socket read timeout.
    pub read_timeout: Duration,
    /// Per-request socket write timeout.
    pub write_timeout: Duration,
    /// Most prepared plans each tenant namespace keeps (LRU beyond it).
    pub max_plans_per_tenant: usize,
    /// Most tenant namespaces kept at once. Tenant names are
    /// client-chosen, so the namespace map must be bounded like every
    /// other per-request allocation: beyond the cap, whole
    /// least-recently-used namespaces are evicted.
    pub max_tenants: usize,
    /// Engine-level prepared-plan memo cap
    /// ([`lcl_grids::engine::EngineBuilder::max_prepared_plans`]).
    pub max_prepared_plans: usize,
    /// Largest instance (in nodes) admitted per job.
    pub max_instance_nodes: usize,
    /// Most jobs admitted per `/solve-batch` body.
    pub max_batch_jobs: usize,
    /// Synthesis budget `k` (part of every plan cache key).
    pub max_synthesis_k: usize,
    /// Deadline applied to requests that do not name one themselves
    /// (body `deadline_ms` or `x-deadline-ms` header). `None` means
    /// unlimited by default.
    pub default_deadline: Option<Duration>,
    /// Deterministic fault injection, armed at engine build time. `None`
    /// (the default) leaves every chaos hook inert.
    pub chaos: Option<ChaosConfig>,
    /// Fraction of requests whose span trace is captured for the
    /// `/trace` endpoints: a deterministic function of the trace id
    /// (`trace_store::sampled`), so the same id samples identically on
    /// every replica and every retry. `0.0` (the default) disables the
    /// sampler; `>= 1.0` captures everything. The trace collector itself
    /// is enabled only when this is positive or [`ServeConfig::slow_ms`]
    /// is set — otherwise tracing stays a single disabled-flag branch
    /// per request.
    pub trace_sample_rate: f64,
    /// Capture every request slower than this many milliseconds end to
    /// end, regardless of the sampler — the "why was that one slow?"
    /// workflow. `None` (the default) disables slow capture.
    pub slow_ms: Option<u64>,
    /// Span ring-buffer capacity (in events) when tracing is enabled;
    /// the collector drops oldest events beyond it, with an exact
    /// dropped count surfaced in `/metrics`.
    pub trace_ring_capacity: usize,
    /// Most captured traces retained for `GET /trace/<id>`; beyond it,
    /// least-recently-touched captures are evicted.
    pub trace_store_capacity: usize,
    /// Structured JSON-lines request logging to stderr (off by default;
    /// request bodies are never logged at any level).
    pub log_level: LogLevel,
    /// Census artifact (`fixtures/atlas/*.jsonl`) to serve read-only at
    /// `GET /atlas/<key>` / `GET /atlas/summary` and to arm the engine's
    /// classification seeding with
    /// ([`lcl_grids::engine::EngineBuilder::atlas`]). `None` (the
    /// default) leaves both off; the endpoints then answer
    /// `404 atlas-not-configured`.
    pub atlas_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            engine_threads: 0,
            max_body_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_plans_per_tenant: 32,
            max_tenants: 64,
            max_prepared_plans: 256,
            max_instance_nodes: 1 << 16,
            max_batch_jobs: 1024,
            max_synthesis_k: 3,
            default_deadline: None,
            chaos: None,
            trace_sample_rate: 0.0,
            slow_ms: None,
            trace_ring_capacity: 16_384,
            trace_store_capacity: 64,
            log_level: LogLevel::Off,
            atlas_path: None,
        }
    }
}

/// One tenant's prepared-plan namespace: plan keys this tenant has
/// prepared, with an LRU cap and hit/miss/eviction accounting. The plans
/// themselves live in (and are shared through) the engine's memo — the
/// namespace is the *visibility and accounting* boundary: a tenant can
/// only solve by `plan` reference through keys it prepared itself, and
/// its eviction pressure never touches another tenant's keys.
#[derive(Default)]
struct TenantPlans {
    plans: HashMap<String, PlanEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    last_used: u64,
}

struct PlanEntry {
    prepared: Arc<PreparedProblem>,
    last_used: u64,
}

/// State shared by the acceptor, the workers, and the [`Server`] handle.
struct Shared {
    engine: Engine,
    config: ServeConfig,
    metrics: Metrics,
    tenants: Mutex<HashMap<String, TenantPlans>>,
    tenant_clock: AtomicU64,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    /// Captured request traces served by the `/trace` endpoints.
    traces: TraceStore,
    /// Sequence for minting trace ids when the client sends none.
    trace_seq: AtomicU64,
    /// The loaded census artifact behind the read-only `/atlas/…`
    /// endpoints, with its aggregate summary pre-rendered (the artifact
    /// is immutable for the server's lifetime, so the summary document
    /// never changes).
    atlas: Option<AtlasStore>,
}

/// The census artifact plus its pre-rendered summary document.
struct AtlasStore {
    atlas: lcl_atlas::Atlas,
    summary_json: String,
}

impl Shared {
    /// The named tenant's namespace, created on first use. The map
    /// itself is bounded: tenant names come off the wire, so admitting a
    /// new name beyond `max_tenants` first evicts whole
    /// least-recently-used namespaces — keeping memory and the
    /// `/metrics` document `O(max_tenants × max_plans_per_tenant)` no
    /// matter how many names a client mints.
    fn namespace<'a>(
        &self,
        tenants: &'a mut HashMap<String, TenantPlans>,
        tenant: &str,
        stamp: u64,
    ) -> &'a mut TenantPlans {
        if !tenants.contains_key(tenant) {
            while tenants.len() >= self.config.max_tenants.max(1) {
                let victim = tenants
                    .iter()
                    .min_by_key(|(_, ns)| ns.last_used)
                    .map(|(name, _)| name.clone());
                match victim {
                    Some(name) => {
                        tenants.remove(&name);
                        self.metrics
                            .tenant_evictions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        let ns = tenants.entry(tenant.to_string()).or_default();
        ns.last_used = stamp;
        ns
    }

    /// Resolves a plan inside a tenant namespace: answers from the
    /// tenant's cache when the canonical key is already there, otherwise
    /// prepares through the engine (itself memoised and capped) and
    /// records the key under the tenant, evicting that tenant's
    /// least-recently-used plans beyond the per-tenant cap.
    fn prepare_for_tenant(
        &self,
        tenant: &str,
        spec: &lcl_grids::engine::ProblemSpec,
    ) -> Result<(Arc<PreparedProblem>, String, bool), SolveError> {
        let key = self
            .engine
            .registry()
            .plan_cache_key(spec, self.config.max_synthesis_k);
        let stamp = self.tenant_clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            let ns = self.namespace(&mut tenants, tenant, stamp);
            if let Some(entry) = ns.plans.get_mut(&key) {
                entry.last_used = stamp;
                ns.hits += 1;
                return Ok((Arc::clone(&entry.prepared), key, true));
            }
        }
        // Resolve outside the tenants lock: plan resolution can run SAT
        // synthesis, and the engine memo has its own single-flight cells.
        let prepared = self.engine.prepare(spec)?;
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let ns = self.namespace(&mut tenants, tenant, stamp);
        ns.misses += 1;
        ns.plans.insert(
            key.clone(),
            PlanEntry {
                prepared: Arc::clone(&prepared),
                last_used: stamp,
            },
        );
        while ns.plans.len() > self.config.max_plans_per_tenant {
            let victim = ns
                .plans
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    ns.plans.remove(&k);
                    ns.evictions += 1;
                }
                None => break,
            }
        }
        Ok((prepared, key, false))
    }

    /// Looks up a plan a tenant previously prepared, by its plan key.
    fn plan_by_key(&self, tenant: &str, key: &str) -> Option<Arc<PreparedProblem>> {
        let stamp = self.tenant_clock.fetch_add(1, Ordering::Relaxed);
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let ns = tenants.get_mut(tenant)?;
        ns.last_used = stamp;
        let entry = ns.plans.get_mut(key)?;
        entry.last_used = stamp;
        ns.hits += 1;
        Some(Arc::clone(&entry.prepared))
    }

    /// Per-tenant rows for `/metrics`.
    fn tenants_json(&self) -> Json {
        let tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let mut rows: Vec<(String, Json)> = tenants
            .iter()
            .map(|(name, ns)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("plans", Json::size(ns.plans.len())),
                        ("hits", Json::count(ns.hits)),
                        ("misses", Json::count(ns.misses)),
                        ("evictions", Json::count(ns.evictions)),
                    ]),
                )
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Obj(rows)
    }

    /// Flags shutdown and wakes the acceptor with a dummy connection.
    fn request_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            // The acceptor may be blocked in `accept()`; a throwaway
            // loopback connection gets it to observe the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A running service: bound address, shutdown trigger, and join handle.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, builds the shared engine, and starts the
    /// acceptor and worker threads. Returns once the socket is live.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut builder = Engine::builder()
            .threads(config.engine_threads)
            .max_synthesis_k(config.max_synthesis_k)
            .max_prepared_plans(config.max_prepared_plans);
        if let Some(chaos) = config.chaos.clone() {
            builder = builder.chaos_config(chaos);
        }
        // One artifact, two consumers: the engine's seeding table (its
        // own minimal reader, `k`-gated) and the full census held for
        // the `/atlas/…` endpoints.
        let mut atlas = None;
        if let Some(path) = &config.atlas_path {
            builder = builder.atlas(path)?;
            let loaded = lcl_atlas::Atlas::load(path)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let summary_json = loaded.summary().to_json();
            atlas = Some(AtlasStore {
                atlas: loaded,
                summary_json,
            });
        }
        let engine = builder.build();
        // Tracing costs one ring buffer when any capture path can fire;
        // otherwise the collector stays disabled and every span site is a
        // single branch. The collector is process-global (the engine's
        // instrumentation cannot know about servers), so all servers in
        // one process share the ring; snapshots are scoped by trace id.
        if config.trace_sample_rate > 0.0 || config.slow_ms.is_some() {
            lcl_trace::enable(config.trace_ring_capacity);
        }
        let shared = Arc::new(Shared {
            engine,
            config: config.clone(),
            metrics: Metrics::default(),
            tenants: Mutex::new(HashMap::new()),
            tenant_clock: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            addr,
            traces: TraceStore::new(config.trace_store_capacity),
            trace_seq: AtomicU64::new(0x0005_ca1e_0000),
            atlas,
        });

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(&shared, listener, tx))
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Starts a graceful shutdown: stop accepting, drain admitted
    /// requests. Returns immediately; pair with [`Server::wait`].
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the acceptor and every worker have exited — i.e.
    /// until a shutdown (from [`Server::shutdown`] or `POST /shutdown`)
    /// has drained all in-flight work.
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Accept loop: admit into the bounded queue or answer `429` inline.
fn acceptor_loop(shared: &Shared, listener: TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        let conn = match listener.accept() {
            Ok((conn, _)) => conn,
            Err(_) => continue,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client); stop accepting.
            // Dropping `tx` disconnects the queue once drained, which is
            // what lets the workers exit after finishing admitted work.
            return;
        }
        // The gauge goes up *before* the send: a worker may receive and
        // finish the connection the instant `try_send` returns, and its
        // `fetch_sub` must never observe a not-yet-incremented gauge
        // (which would wrap the `AtomicUsize` to ~`usize::MAX`).
        shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(conn) {
            Ok(()) => {}
            Err(TrySendError::Full(mut conn)) => {
                shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                shared
                    .metrics
                    .busy_rejections
                    .fetch_add(1, Ordering::Relaxed);
                shared.metrics.endpoint("busy").record(429, 0);
                let body = Json::obj(vec![
                    ("error", Json::str("busy")),
                    ("queue_cap", Json::size(shared.config.queue_cap)),
                    ("message", Json::str("admission queue is full; retry later")),
                ])
                .to_string();
                let _ = conn.set_write_timeout(Some(shared.config.write_timeout));
                let _ = write_response(
                    &mut conn,
                    429,
                    "Too Many Requests",
                    &[("retry-after", "1")],
                    &body,
                );
                // Closing with unread request bytes in the receive buffer
                // makes the kernel send RST, which can destroy the 429
                // in flight. Send FIN, then briefly drain what the client
                // already wrote so the close is orderly. The drain is
                // capped in bytes, per-read idle time, AND total wall
                // time: the overall deadline is what stops a hostile
                // peer trickling one byte per read from holding the
                // (single) acceptor thread — worst case is the deadline
                // plus one read timeout, ~200 ms.
                let deadline = Instant::now() + Duration::from_millis(100);
                let _ = conn.shutdown(Shutdown::Write);
                let _ = conn.set_read_timeout(Some(Duration::from_millis(100)));
                let mut scratch = [0u8; 4096];
                let mut drained = 0usize;
                while let Ok(n) = conn.read(&mut scratch) {
                    if n == 0 {
                        break;
                    }
                    drained += n;
                    if drained > 64 * 1024 || Instant::now() >= deadline {
                        break;
                    }
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Worker loop: pull admitted connections until the queue disconnects
/// (acceptor gone) *and* drains — the graceful-shutdown contract.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let conn = {
            let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
            rx.recv()
        };
        let Ok(conn) = conn else { return };
        handle_connection(shared, conn);
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serves one connection: one request, one response, close. A panic in
/// request handling is caught and answered as a 500 so the worker (and
/// the queue behind it) survives hostile input.
///
/// Tracing contract: every routed request gets a trace id (the client's
/// `x-trace-id` when it parses, minted otherwise), echoed back in the
/// `x-trace-id` response header. When the collector is enabled, the
/// request runs under a [`SpanKind::Request`] span carrying that id, so
/// every engine span the solve walk emits hangs off it; at the end the
/// snapshot is captured into the trace store when the deterministic
/// sampler keeps the id or the request was slower than
/// [`ServeConfig::slow_ms`].
fn handle_connection(shared: &Shared, mut conn: TcpStream) {
    let started = Instant::now();
    let _ = conn.set_read_timeout(Some(shared.config.read_timeout));
    let _ = conn.set_write_timeout(Some(shared.config.write_timeout));
    let mut reader = BufReader::new(match conn.try_clone() {
        Ok(reader) => reader,
        Err(_) => return,
    });
    let request = match read_request(&mut reader, shared.config.max_body_bytes) {
        Ok(request) => request,
        Err(err) => {
            shared
                .metrics
                .malformed_requests
                .fetch_add(1, Ordering::Relaxed);
            if let Some((status, reason)) = err.status() {
                let body = ApiError {
                    status,
                    code: err.code(),
                    message: err.to_string(),
                }
                .body();
                record(shared, "malformed", status, started);
                let _ = write_response(&mut conn, status, reason, &[], &body);
            }
            return;
        }
    };

    let trace_id = trace_store::request_trace_id(request.header("x-trace-id"), &shared.trace_seq);
    let trace_hex = format!("{trace_id:016x}");
    let endpoint = endpoint_name(&request.target);
    logging::reset();
    let tracing = lcl_trace::is_enabled();
    if tracing {
        lcl_trace::set_current_trace(trace_id);
    }
    let outcome = {
        let mut span = lcl_trace::span(SpanKind::Request, endpoint);
        let outcome = catch_unwind(AssertUnwindSafe(|| route(shared, &request)));
        let status = match &outcome {
            Ok(Ok(routed)) => routed.status,
            Ok(Err(err)) => err.status,
            Err(_) => 500,
        };
        span.count(0, u64::from(status));
        outcome
    };
    if tracing {
        lcl_trace::set_current_trace(0);
    }
    let (status, content_type, body): (u16, &'static str, String) = match outcome {
        Ok(Ok(routed)) => (routed.status, routed.content_type, routed.body),
        Ok(Err(err)) => (err.status, "application/json", err.body()),
        Err(_) => (
            500,
            "application/json",
            ApiError {
                status: 500,
                code: "panic",
                message: "request handler panicked".to_string(),
            }
            .body(),
        ),
    };
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.endpoint(endpoint).record(status, wall_us);
    let slow = shared
        .config
        .slow_ms
        .is_some_and(|ms| wall_us > ms.saturating_mul(1000));
    let mut captured = false;
    if tracing && (slow || trace_store::sampled(shared.config.trace_sample_rate, trace_id)) {
        let trace = lcl_trace::snapshot_for(trace_id);
        if !trace.is_empty() {
            shared.traces.insert(StoredTrace {
                trace_id,
                endpoint,
                status,
                wall_us,
                slow,
                trace,
            });
            captured = true;
        }
    }
    logging::emit(
        shared.config.log_level,
        &RequestLine {
            trace_id: &trace_hex,
            method: &request.method,
            endpoint,
            status,
            latency_us: wall_us,
            body_bytes: request.body.len(),
            captured,
        },
    );
    let _ = write_response(
        &mut conn,
        status,
        reason_for(status),
        &[("x-trace-id", &trace_hex), ("content-type", content_type)],
        &body,
    );
    let _ = conn.flush();
}

/// The bounded endpoint label a request is traced, logged, and counted
/// under — never the raw target, which is client-chosen and would grow
/// the trace-name interner and log cardinality without bound.
fn endpoint_name(target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/prepare" => "/prepare",
        "/solve" => "/solve",
        "/solve-batch" => "/solve-batch",
        "/classify" => "/classify",
        "/analyze" => "/analyze",
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/shutdown" => "/shutdown",
        "/trace/recent" => "/trace/recent",
        _ if path.starts_with("/trace/") => "/trace",
        "/atlas/summary" => "/atlas/summary",
        _ if path.starts_with("/atlas/") => "/atlas",
        _ => "other",
    }
}

fn record(shared: &Shared, target: &str, status: u16, started: Instant) {
    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.endpoint(target).record(status, micros);
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    }
}

/// One routed response: status, body, and the body's content type
/// (everything is JSON except the Prometheus exposition).
struct Routed {
    status: u16,
    body: String,
    content_type: &'static str,
}

impl Routed {
    fn json(status: u16, body: String) -> Routed {
        Routed {
            status,
            body,
            content_type: "application/json",
        }
    }
}

/// Dispatches one parsed request to its endpoint handler. The target is
/// split at `?` so endpoints can carry a query string (`/metrics?format=
/// prometheus`); paths are matched without it.
fn route(shared: &Shared, request: &Request) -> Result<Routed, ApiError> {
    let (path, query) = match request.target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.target.as_str(), None),
    };
    let json =
        |r: Result<(u16, String), ApiError>| r.map(|(status, body)| Routed::json(status, body));
    match (request.method.as_str(), path) {
        ("POST", "/prepare") => json(endpoint_prepare(shared, request)),
        ("POST", "/solve") => json(endpoint_solve(shared, request)),
        ("POST", "/solve-batch") => json(endpoint_solve_batch(shared, request)),
        ("POST", "/classify") => json(endpoint_classify(shared, request)),
        ("POST", "/analyze") => json(endpoint_analyze(shared, request)),
        ("GET", "/metrics") => {
            // Content negotiation: an explicit `format=` query parameter
            // wins; otherwise `Accept: text/plain` selects the
            // Prometheus exposition and the default stays JSON.
            let format = query.and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("format=")));
            let prometheus = match format {
                Some("prometheus") => true,
                Some(_) => false,
                None => request
                    .header("accept")
                    .is_some_and(|a| a.contains("text/plain")),
            };
            if prometheus {
                Ok(Routed {
                    status: 200,
                    body: shared.metrics.to_prometheus(
                        &shared.engine,
                        shared.config.queue_cap,
                        env!("CARGO_PKG_VERSION"),
                    ),
                    content_type: "text/plain; version=0.0.4",
                })
            } else {
                let mut doc = shared.metrics.to_json(
                    &shared.engine,
                    shared.config.queue_cap,
                    shared.tenants_json(),
                );
                if let Json::Obj(rows) = &mut doc {
                    rows.push(("build".to_string(), build_json(shared)));
                    rows.push(("traces".to_string(), traces_json(shared)));
                }
                Ok(Routed::json(200, doc.to_string()))
            }
        }
        ("GET", "/healthz") => {
            // `ok` is pure liveness (the process answered); `status`
            // degrades while any tier breaker is open/half-open or while
            // server-side failures dominate recent traffic.
            let open = shared.engine.health().open_breakers();
            let degraded = open > 0 || shared.metrics.fault_rate_exceeded();
            Ok(Routed::json(
                200,
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    (
                        "status",
                        Json::str(if degraded { "degraded" } else { "ok" }),
                    ),
                    ("open_breakers", Json::size(open)),
                    ("build", build_json(shared)),
                ])
                .to_string(),
            ))
        }
        ("GET", "/trace/recent") => Ok(Routed::json(200, trace_recent_json(shared).to_string())),
        ("GET", trace_path) if trace_path.starts_with("/trace/") => {
            endpoint_trace(shared, &trace_path["/trace/".len()..])
        }
        ("GET", "/atlas/summary") => endpoint_atlas_summary(shared),
        ("GET", atlas_path) if atlas_path.starts_with("/atlas/") => {
            endpoint_atlas(shared, &atlas_path["/atlas/".len()..])
        }
        ("POST", "/shutdown") => {
            shared.request_shutdown();
            Ok(Routed::json(
                200,
                Json::obj(vec![("draining", Json::Bool(true))]).to_string(),
            ))
        }
        ("POST" | "GET", _) => Err(ApiError {
            status: 404,
            code: "not-found",
            message: format!("no endpoint at {}", request.target),
        }),
        _ => Err(ApiError {
            status: 405,
            code: "method-not-allowed",
            message: format!("method {} is not supported", request.method),
        }),
    }
}

/// The `build` block `/healthz` and `/metrics` carry: crate version,
/// which optional subsystems this process runs with, and the runtime
/// shape (worker threads, engine threads, cores).
fn build_json(shared: &Shared) -> Json {
    let mut features = Vec::new();
    if lcl_trace::is_enabled() {
        features.push(Json::str("tracing"));
    }
    if shared.config.chaos.is_some() {
        features.push(Json::str("chaos"));
    }
    if shared.config.log_level > LogLevel::Off {
        features.push(Json::str("request-logging"));
    }
    if shared.atlas.is_some() {
        features.push(Json::str("atlas"));
    }
    Json::obj(vec![
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("features", Json::Arr(features)),
        ("workers", Json::size(shared.config.workers.max(1))),
        ("engine_threads", Json::size(shared.config.engine_threads)),
        (
            "cores",
            Json::size(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
    ])
}

/// The `traces` block in `/metrics`: collector and store accounting.
fn traces_json(shared: &Shared) -> Json {
    Json::obj(vec![
        ("enabled", Json::Bool(lcl_trace::is_enabled())),
        ("sample_rate", Json::num(shared.config.trace_sample_rate)),
        ("stored", Json::size(shared.traces.len())),
        ("captured", Json::count(shared.traces.captured())),
        ("store_evictions", Json::count(shared.traces.evicted())),
        ("ring_recorded", Json::count(lcl_trace::recorded())),
        ("ring_dropped_events", Json::count(lcl_trace::dropped())),
    ])
}

/// `GET /trace/recent`: summaries of every retained capture, newest
/// first.
fn trace_recent_json(shared: &Shared) -> Json {
    Json::obj(vec![(
        "traces",
        Json::Arr(
            shared
                .traces
                .recent()
                .into_iter()
                .map(|(id, endpoint, status, wall_us, slow, events)| {
                    Json::obj(vec![
                        ("trace_id", Json::str(format!("{id:016x}"))),
                        ("endpoint", Json::str(endpoint)),
                        ("status", Json::count(u64::from(status))),
                        ("wall_us", Json::count(wall_us)),
                        ("slow", Json::Bool(slow)),
                        ("events", Json::size(events)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// `GET /trace/<id>`: the capture as a Chrome Trace Event document —
/// save the body to a file and load it in `chrome://tracing` or Perfetto
/// as-is. The request facts ride along as an `otherData` top-level key,
/// which the format defines for exactly this purpose.
fn endpoint_trace(shared: &Shared, id_text: &str) -> Result<Routed, ApiError> {
    let trace_id = trace_store::parse_trace_id(id_text).ok_or_else(|| {
        ApiError::bad_request("bad-trace-id", format!("'{id_text}' is not a hex trace id"))
    })?;
    let stored = shared.traces.get(trace_id).ok_or(ApiError {
        status: 404,
        code: "unknown-trace",
        message: format!(
            "no captured trace {trace_id:016x} (capture is sampled; see trace_sample_rate and slow_ms)"
        ),
    })?;
    let chrome = stored.trace.to_chrome_json();
    let meta = Json::obj(vec![
        ("trace_id", Json::str(format!("{:016x}", stored.trace_id))),
        ("endpoint", Json::str(stored.endpoint)),
        ("status", Json::count(u64::from(stored.status))),
        ("wall_us", Json::count(stored.wall_us)),
        ("slow", Json::Bool(stored.slow)),
    ]);
    // `to_chrome_json` always renders a non-empty object; splice the
    // metadata in right after its opening brace.
    let body = format!("{{\"otherData\":{meta},{}", &chrome[1..]);
    Ok(Routed::json(200, body))
}

/// The armed census, or the typed "not configured" answer. The atlas is
/// loaded once at startup and immutable afterwards, so these endpoints
/// are lock-free reads.
fn atlas_store(shared: &Shared) -> Result<&AtlasStore, ApiError> {
    shared.atlas.as_ref().ok_or(ApiError {
        status: 404,
        code: "atlas-not-configured",
        message: "this server was started without --atlas".to_string(),
    })
}

/// `GET /atlas/summary` — the census aggregate (class histogram, orbit
/// histogram, dedup ratio), pre-rendered at startup.
fn endpoint_atlas_summary(shared: &Shared) -> Result<Routed, ApiError> {
    Ok(Routed::json(200, atlas_store(shared)?.summary_json.clone()))
}

/// `GET /atlas/<key>` — one census record by content-addressed key,
/// exactly as it appears in the artifact.
fn endpoint_atlas(shared: &Shared, key: &str) -> Result<Routed, ApiError> {
    let store = atlas_store(shared)?;
    let record = store.atlas.get(key).ok_or(ApiError {
        status: 404,
        code: "unknown-atlas-key",
        message: format!("no census record for '{key}'"),
    })?;
    Ok(Routed::json(200, record.to_line()))
}

/// Parses the JSON body of a request.
fn parse_body(request: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::bad_request("bad-encoding", "body must be UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_request("bad-json", e.to_string()))
}

/// The budget a request solves/classifies under: the body's
/// `deadline_ms` field wins, then the `x-deadline-ms` header, then the
/// configured [`ServeConfig::default_deadline`]; absent all three the
/// budget is unlimited. A deadline of `0` is legal and trips at the
/// engine's pre-dispatch check — the cheapest way to ask "is this plan
/// already warm?".
fn budget_of(shared: &Shared, request: &Request, body: &Json) -> Result<Budget, ApiError> {
    let ms = match body.get("deadline_ms") {
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            ApiError::bad_request(
                "bad-field",
                "field 'deadline_ms' must be a non-negative integer",
            )
        })?),
        None => match request.header("x-deadline-ms") {
            Some(v) => Some(v.trim().parse::<u64>().map_err(|_| {
                ApiError::bad_request(
                    "bad-deadline",
                    "header 'x-deadline-ms' must be a non-negative integer",
                )
            })?),
            None => None,
        },
    };
    Ok(match ms {
        Some(ms) => Budget::deadline(Duration::from_millis(ms)),
        None => shared
            .config
            .default_deadline
            .map_or_else(Budget::unlimited, Budget::deadline),
    })
}

/// The standard solve-failure body; a tripped deadline additionally
/// carries the tier ledger — the solver tiers the plan walks, in order —
/// so a 504 names what the budget ran out on and what was skipped.
fn solve_failure_body(err: &SolveError, prepared: &PreparedProblem) -> String {
    if matches!(err, SolveError::DeadlineExceeded { .. }) {
        let tiers = prepared.solver_names().into_iter().map(Json::str).collect();
        return Json::obj(vec![
            ("error", Json::str(crate::api::solve_error_code(err))),
            ("message", Json::str(err.to_string())),
            ("tiers", Json::Arr(tiers)),
        ])
        .to_string();
    }
    solve_error_body(err)
}

/// The tenant a request belongs to: the body's `"tenant"` field wins,
/// then the `x-tenant` header, then the shared `"public"` namespace.
fn tenant_of(request: &Request, body: &Json) -> String {
    let tenant = body
        .get("tenant")
        .and_then(Json::as_str)
        .or_else(|| request.header("x-tenant"))
        .unwrap_or("public")
        .to_string();
    logging::set_tenant(&tenant);
    tenant
}

/// Resolves the plan a job body names: an inline `"problem"` object
/// (prepared through the tenant namespace) or a `"plan"` key reference
/// to a previously prepared plan.
fn resolve_plan(
    shared: &Shared,
    tenant: &str,
    body: &Json,
) -> Result<Arc<PreparedProblem>, ApiError> {
    if let Some(problem) = body.get("problem") {
        let spec = parse_problem(problem)?;
        let (prepared, _, _) = shared
            .prepare_for_tenant(tenant, &spec)
            .map_err(|e| ApiError {
                status: solve_error_status(&e),
                code: "prepare-failed",
                message: e.to_string(),
            })?;
        return Ok(prepared);
    }
    if let Some(key) = body.get("plan").and_then(Json::as_str) {
        return shared.plan_by_key(tenant, key).ok_or(ApiError {
            status: 404,
            code: "unknown-plan",
            message: format!("tenant '{tenant}' has no prepared plan '{key}'"),
        });
    }
    Err(ApiError::bad_request(
        "missing-field",
        "each job needs a 'problem' object or a 'plan' key",
    ))
}

fn endpoint_prepare(shared: &Shared, request: &Request) -> Result<(u16, String), ApiError> {
    let body = parse_body(request)?;
    let tenant = tenant_of(request, &body);
    let spec = parse_problem(require_field(&body, "problem")?)?;
    let (prepared, plan_key, cached) =
        shared
            .prepare_for_tenant(&tenant, &spec)
            .map_err(|e| ApiError {
                status: solve_error_status(&e),
                code: "prepare-failed",
                message: e.to_string(),
            })?;
    let solvers = prepared.solver_names().into_iter().map(Json::str).collect();
    Ok((
        200,
        Json::obj(vec![
            ("tenant", Json::str(tenant)),
            ("problem", Json::str(prepared.spec().name())),
            ("plan_key", Json::str(plan_key)),
            ("solvers", Json::Arr(solvers)),
            ("cached", Json::Bool(cached)),
            ("diagnostics", diagnostics_json(shared, &prepared)),
        ])
        .to_string(),
    ))
}

/// The `diagnostics` array `/prepare` answers with: one row per lint the
/// memoised analysis raised (empty for problems without a radius-1 block
/// form). Also folds the report into the per-code `/metrics` counters.
fn diagnostics_json(shared: &Shared, prepared: &PreparedProblem) -> Json {
    let Some(analysis) = prepared.analysis() else {
        return Json::Arr(Vec::new());
    };
    shared.metrics.record_analysis(analysis);
    Json::Arr(
        analysis
            .diagnostics()
            .iter()
            .map(|d| {
                Json::obj(vec![
                    ("code", Json::str(d.code.as_str())),
                    ("severity", Json::str(d.severity.to_string())),
                    ("message", Json::str(d.message.clone())),
                ])
            })
            .collect(),
    )
}

/// `POST /analyze`: runs the full `lcl-analyze` pass on a `"problem"`
/// object and answers with the complete machine-readable report —
/// diagnostics with spans, dead labels, the unsolvability certificate,
/// the constant verdict, and the axis-structure flags. For `dsl`
/// problems the report carries line/column positions computed against
/// the submitted source.
fn endpoint_analyze(shared: &Shared, request: &Request) -> Result<(u16, String), ApiError> {
    let body = parse_body(request)?;
    let tenant = tenant_of(request, &body);
    let problem = require_field(&body, "problem")?;
    let spec = parse_problem(problem)?;
    // For DSL problems the submitted source positions the spans.
    let src = problem.get("source").and_then(Json::as_str).unwrap_or("");
    let (prepared, _, _) = shared
        .prepare_for_tenant(&tenant, &spec)
        .map_err(|e| ApiError {
            status: solve_error_status(&e),
            code: "prepare-failed",
            message: e.to_string(),
        })?;
    let analysis = prepared.analysis().ok_or(ApiError {
        status: 422,
        code: "no-analysis",
        message: format!(
            "problem '{}' has no radius-1 block form to analyse",
            prepared.spec().name()
        ),
    })?;
    shared.metrics.record_analysis(analysis);
    Ok((200, analysis.to_json(src)))
}

fn require_field<'a>(body: &'a Json, key: &str) -> Result<&'a Json, ApiError> {
    body.get(key)
        .ok_or_else(|| ApiError::bad_request("missing-field", format!("missing field '{key}'")))
}

/// Renders one labelling as the wire shape shared by `/solve` and
/// `/solve-batch` rows.
fn labelling_json(labelling: &Labelling, return_labels: bool) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("problem", Json::str(labelling.report.problem.clone())),
        ("solver", Json::str(labelling.report.solver.clone())),
        ("rounds", Json::count(labelling.report.rounds.total())),
        ("validated", Json::Bool(labelling.report.validated)),
        ("nodes", Json::size(labelling.labels.len())),
    ];
    if return_labels {
        fields.push((
            "labels",
            Json::Arr(
                labelling
                    .labels
                    .iter()
                    .map(|&l| Json::num(f64::from(l)))
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

/// The solve's cost ledger on the wire: one row per tier the walk
/// visited, in order, with the SAT work each was billed.
fn cost_json(cost: &lcl_grids::engine::Cost) -> Json {
    Json::obj(vec![
        ("total_us", Json::count(cost.total_us)),
        (
            "tiers",
            Json::Arr(
                cost.tiers
                    .iter()
                    .map(|t| {
                        Json::obj(vec![
                            ("tier", Json::str(t.tier.clone())),
                            ("outcome", Json::str(t.outcome.to_string())),
                            ("wall_us", Json::count(t.wall_us)),
                            ("decisions", Json::count(t.solver.decisions)),
                            ("propagations", Json::count(t.solver.propagations)),
                            ("conflicts", Json::count(t.solver.conflicts)),
                            ("learned", Json::count(t.solver.learned)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders one solve failure as a `/solve-batch` row.
fn error_json(err: &SolveError) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(crate::api::solve_error_code(err))),
        ("message", Json::str(err.to_string())),
    ])
}

fn endpoint_solve(shared: &Shared, request: &Request) -> Result<(u16, String), ApiError> {
    let body = parse_body(request)?;
    let tenant = tenant_of(request, &body);
    let prepared = resolve_plan(shared, &tenant, &body)?;
    let instance = parse_instance(
        require_field(&body, "instance")?,
        shared.config.max_instance_nodes,
    )?;
    let return_labels = body
        .get("return_labels")
        .and_then(Json::as_bool)
        .unwrap_or(true);
    let budget = budget_of(shared, request, &body)?;
    match prepared.solve_with(&instance, &budget) {
        Ok(labelling) => {
            shared
                .metrics
                .record_solves(&labelling.report.problem, 1, 0, 0);
            logging::set_solver(&labelling.report.solver);
            let mut row = labelling_json(&labelling, return_labels);
            if let Json::Obj(fields) = &mut row {
                fields.push(("cost".to_string(), cost_json(&labelling.report.cost)));
            }
            Ok((200, row.to_string()))
        }
        Err(err) => {
            shared
                .metrics
                .record_solves(prepared.spec().name(), 0, 1, 0);
            Ok((
                solve_error_status(&err),
                solve_failure_body(&err, &prepared),
            ))
        }
    }
}

fn endpoint_solve_batch(shared: &Shared, request: &Request) -> Result<(u16, String), ApiError> {
    let body = parse_body(request)?;
    let tenant = tenant_of(request, &body);
    let jobs_json = require_field(&body, "jobs")?
        .as_arr()
        .ok_or_else(|| ApiError::bad_request("bad-field", "field 'jobs' must be an array"))?;
    if jobs_json.len() > shared.config.max_batch_jobs {
        return Err(ApiError {
            status: 413,
            code: "batch-too-large",
            message: format!(
                "batch of {} jobs exceeds the {}-job admission cap",
                jobs_json.len(),
                shared.config.max_batch_jobs
            ),
        });
    }
    let return_labels = body
        .get("return_labels")
        .and_then(Json::as_bool)
        .unwrap_or(false);

    // Decode every job before solving any: a malformed job rejects the
    // whole body as a 400 (the slice entry points' "typed errors, no
    // partial surprises" contract, applied at the wire).
    let mut jobs = Vec::with_capacity(jobs_json.len());
    for (idx, job) in jobs_json.iter().enumerate() {
        let prepared = resolve_plan(shared, &tenant, job).map_err(|mut e| {
            e.message = format!("job {idx}: {}", e.message);
            e
        })?;
        let instance = parse_instance(
            require_field(job, "instance").map_err(|mut e| {
                e.message = format!("job {idx}: {}", e.message);
                e
            })?,
            shared.config.max_instance_nodes,
        )
        .map_err(|mut e| {
            e.message = format!("job {idx}: {}", e.message);
            e
        })?;
        jobs.push(Job::new(prepared, instance));
    }

    // The whole body is one slice: the engine dedups it exactly, solves
    // the distinct jobs on its workers, and returns rows in input order.
    // One budget for the whole body: deadline and step quota are joint
    // across every job, which is what a caller's end-to-end deadline
    // means.
    let budget = budget_of(shared, request, &body)?;
    let report = shared.engine.solve_jobs_with(&jobs, &budget);
    for row in report.per_problem() {
        shared
            .metrics
            .record_solves(&row.problem, row.solved, row.failed, row.dedup_hits);
    }
    let rows = report
        .results()
        .iter()
        .map(|result| match result {
            Ok(labelling) => labelling_json(labelling, return_labels),
            Err(err) => error_json(err),
        })
        .collect();
    Ok((
        200,
        Json::obj(vec![
            ("tenant", Json::str(tenant)),
            ("jobs", Json::size(jobs.len())),
            ("solved", Json::size(report.solved())),
            ("failed", Json::size(report.failed())),
            ("dedup_hits", Json::size(report.dedup_hits())),
            ("results", Json::Arr(rows)),
        ])
        .to_string(),
    ))
}

fn endpoint_classify(shared: &Shared, request: &Request) -> Result<(u16, String), ApiError> {
    let body = parse_body(request)?;
    let tenant = tenant_of(request, &body);
    let prepared = resolve_plan(shared, &tenant, &body)?;
    let budget = budget_of(shared, request, &body)?;
    match prepared.classify_with(&budget) {
        Ok(class) => Ok((
            200,
            Json::obj(vec![
                ("problem", Json::str(prepared.spec().name())),
                (
                    "class",
                    Json::str(match class {
                        GridClass::Constant => "constant",
                        GridClass::LogStar => "log-star",
                        GridClass::Global => "global",
                    }),
                ),
            ])
            .to_string(),
        )),
        Err(err) => Ok((
            solve_error_status(&err),
            solve_failure_body(&err, &prepared),
        )),
    }
}
