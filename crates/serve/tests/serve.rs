//! Wire-protocol tests over real loopback sockets: the service contract
//! as a client experiences it — happy paths, malformed input answered
//! with 4xx (never a panic, never a hang), admission-queue overflow
//! answered with a typed 429, concurrent clients, and a graceful
//! shutdown that drains in-flight requests.

// The crate denies unwrap/expect in service code; in tests a panic is
// exactly the right failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use lcl_grids::engine::ChaosConfig;
use lcl_serve::json::Json;
use lcl_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A small test server: 2 HTTP workers, tiny queue, fast timeouts.
fn test_server(queue_cap: usize, workers: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        queue_cap,
        engine_threads: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_synthesis_k: 1,
        ..ServeConfig::default()
    })
    .expect("bind test server")
}

/// One-shot request helper; returns (status, body).
fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    raw(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"))
}

/// POST with one extra header (e.g. `x-deadline-ms`).
fn post_with_header(
    addr: SocketAddr,
    path: &str,
    header: (&str, &str),
    body: &str,
) -> (u16, String) {
    raw(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\n{}: {}\r\ncontent-length: {}\r\n\r\n{body}",
            header.0,
            header.1,
            body.len()
        ),
    )
}

/// Sends raw bytes, reads the whole response (the server closes the
/// connection after one response), returns (status, body).
fn raw(addr: SocketAddr, bytes: &str) -> (u16, String) {
    let (status, _, body) = raw_full(addr, bytes);
    (status, body)
}

/// Like [`raw`], but also returns the response head (status line +
/// headers) so tests can assert on headers like `x-trace-id`.
fn raw_full(addr: SocketAddr, bytes: &str) -> (u16, String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(bytes.as_bytes()).expect("send");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("receive");
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((response, String::new()));
    (status, head, body)
}

/// The value of a response header (lower-cased names), if present.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
    })
}

#[test]
fn happy_path_prepare_solve_classify_metrics() {
    let server = test_server(16, 2);
    let addr = server.addr();

    // Prepare: names the plan and the solver tier list.
    let (status, body) = post(
        addr,
        "/prepare",
        r#"{"problem":{"type":"vertex-colouring","k":4},"tenant":"t1"}"#,
    );
    assert_eq!(status, 200, "{body}");
    let prepared = Json::parse(&body).unwrap();
    assert_eq!(prepared.get("tenant").unwrap().as_str(), Some("t1"));
    assert_eq!(prepared.get("cached").unwrap().as_bool(), Some(false));
    let plan_key = prepared
        .get("plan_key")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(!prepared
        .get("solvers")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    // Preparing the same problem again hits the tenant cache.
    let (_, body) = post(
        addr,
        "/prepare",
        r#"{"problem":{"type":"vertex-colouring","k":4},"tenant":"t1"}"#,
    );
    assert_eq!(
        Json::parse(&body).unwrap().get("cached").unwrap().as_bool(),
        Some(true)
    );

    // Solve by plan reference, inside the tenant namespace.
    let (status, body) = post(
        addr,
        "/solve",
        &format!(
            r#"{{"plan":"{plan_key}","tenant":"t1",
                "instance":{{"topology":"torus2","side":16,
                             "ids":{{"kind":"shuffled","seed":3}}}}}}"#
        ),
    );
    assert_eq!(status, 200, "{body}");
    let solved = Json::parse(&body).unwrap();
    assert_eq!(solved.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(solved.get("validated").unwrap().as_bool(), Some(true));
    assert_eq!(solved.get("nodes").unwrap().as_usize(), Some(256));
    assert_eq!(
        solved.get("labels").unwrap().as_arr().unwrap().len(),
        256,
        "single solves return labels by default"
    );

    // The same plan key is invisible from another tenant.
    let (status, body) = post(
        addr,
        "/solve",
        &format!(
            r#"{{"plan":"{plan_key}","tenant":"t2",
                "instance":{{"topology":"torus2","side":16}}}}"#
        ),
    );
    assert_eq!(status, 404, "{body}");
    assert_eq!(
        Json::parse(&body).unwrap().get("error").unwrap().as_str(),
        Some("unknown-plan")
    );

    // Classify an inline problem.
    let (status, body) = post(
        addr,
        "/classify",
        r#"{"problem":{"type":"independent-set"}}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        Json::parse(&body).unwrap().get("class").unwrap().as_str(),
        Some("constant")
    );

    // Metrics reflect all of the above.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).unwrap();
    let solve_ok = metrics
        .get("endpoints")
        .and_then(|e| e.get("solve"))
        .and_then(|s| s.get("ok"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(solve_ok, 1);
    let tenant = metrics.get("tenants").and_then(|t| t.get("t1")).unwrap();
    assert_eq!(tenant.get("plans").unwrap().as_usize(), Some(1));
    assert!(tenant.get("hits").unwrap().as_u64().unwrap() >= 2);
    let row = metrics
        .get("problems")
        .and_then(|p| p.get("vertex-4-colouring"))
        .unwrap();
    assert_eq!(row.get("solved").unwrap().as_u64(), Some(1));

    server.shutdown();
    server.wait();
}

#[test]
fn solve_batch_dedups_and_orders_results() {
    let server = test_server(16, 2);
    let addr = server.addr();
    let dedup_counters = || {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let metrics = Json::parse(&body).unwrap();
        let engine_hits = metrics
            .get("engine")
            .and_then(|e| e.get("stream_dedup_hits"))
            .and_then(Json::as_u64)
            .unwrap();
        let row_hits = metrics
            .get("problems")
            .and_then(|p| p.get("independent-set"))
            .and_then(|r| r.get("dedup_hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        (engine_hits, row_hits)
    };
    let (engine_before, row_before) = dedup_counters();
    // 12 jobs over 3 distinct (problem, instance) groups: the slice
    // path's exact dedup answers every repeat.
    let jobs: Vec<String> = (0..12)
        .map(|i| {
            format!(
                r#"{{"problem":{{"type":"independent-set"}},"instance":{{"topology":"torus2","side":6,"ids":{{"kind":"shuffled","seed":{}}}}}}}"#,
                i % 3
            )
        })
        .collect();
    let (status, body) = post(
        addr,
        "/solve-batch",
        &format!(r#"{{"jobs":[{}]}}"#, jobs.join(",")),
    );
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(report.get("jobs").unwrap().as_usize(), Some(12));
    assert_eq!(report.get("solved").unwrap().as_usize(), Some(12));
    assert_eq!(report.get("failed").unwrap().as_usize(), Some(0));
    assert_eq!(
        report.get("dedup_hits").unwrap().as_u64(),
        Some(9),
        "12 jobs over 3 groups dedup exactly: {body}"
    );
    let results = report.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 12);
    for row in results {
        assert_eq!(row.get("ok").unwrap().as_bool(), Some(true));
        assert!(row.get("labels").is_none(), "batch omits labels by default");
    }
    let (engine_after, row_after) = dedup_counters();
    assert_eq!(engine_after - engine_before, 9, "engine dedup counter");
    assert_eq!(row_after - row_before, 9, "independent-set dedup row");

    // A mixed batch with an unsolvable job: per-job failure, 200 overall.
    let (status, body) = post(
        addr,
        "/solve-batch",
        r#"{"jobs":[
            {"problem":{"type":"vertex-colouring","k":2},
             "instance":{"topology":"torus2","side":5}},
            {"problem":{"type":"independent-set"},
             "instance":{"topology":"torus2","side":6}}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(report.get("solved").unwrap().as_usize(), Some(1));
    assert_eq!(report.get("failed").unwrap().as_usize(), Some(1));
    let rows = report.get("results").unwrap().as_arr().unwrap();
    assert_eq!(rows[0].get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(rows[0].get("error").unwrap().as_str(), Some("unsolvable"));
    assert_eq!(rows[1].get("ok").unwrap().as_bool(), Some(true));

    server.shutdown();
    server.wait();
}

#[test]
fn adjacent_copies_dedup_exactly_on_parallel_engine_threads() {
    // Two engine threads could pull both copies at once; the body is
    // grouped before anything is solved, so the copy is still a hit.
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        engine_threads: 2,
        max_synthesis_k: 1,
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();
    let job = r#"{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":8,"ids":{"kind":"shuffled","seed":5}}}"#;
    let other = r#"{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":8,"ids":{"kind":"shuffled","seed":6}}}"#;
    let (status, body) = post(
        addr,
        "/solve-batch",
        &format!(r#"{{"jobs":[{job},{job},{other}],"return_labels":true}}"#),
    );
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(report.get("solved").unwrap().as_usize(), Some(3));
    assert_eq!(
        report.get("dedup_hits").unwrap().as_u64(),
        Some(1),
        "{body}"
    );
    let rows = report.get("results").unwrap().as_arr().unwrap();
    assert_eq!(
        rows[0].get("labels").unwrap().to_string(),
        rows[1].get("labels").unwrap().to_string(),
        "the copy carries its twin's labelling"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn empty_batch_answers_zero_rows() {
    let server = test_server(16, 2);
    let addr = server.addr();
    let (status, body) = post(addr, "/solve-batch", r#"{"jobs":[]}"#);
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(report.get("jobs").unwrap().as_usize(), Some(0));
    assert_eq!(report.get("solved").unwrap().as_usize(), Some(0));
    assert_eq!(report.get("dedup_hits").unwrap().as_u64(), Some(0));
    assert!(report.get("results").unwrap().as_arr().unwrap().is_empty());

    server.shutdown();
    server.wait();
}

#[test]
fn tenant_namespaces_are_bounded_with_lru_eviction() {
    // Tenant names are client-chosen, so the namespace map is capped:
    // minting names beyond `max_tenants` evicts whole LRU namespaces
    // instead of growing memory (and /metrics) without bound.
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        engine_threads: 1,
        max_tenants: 3,
        max_synthesis_k: 1,
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();

    for i in 0..8 {
        let (status, body) = post(
            addr,
            "/prepare",
            &format!(r#"{{"problem":{{"type":"independent-set"}},"tenant":"mint-{i}"}}"#),
        );
        assert_eq!(status, 200, "{body}");
    }

    let (_, body) = get(addr, "/metrics");
    let metrics = Json::parse(&body).unwrap();
    let tenants = match metrics.get("tenants").unwrap() {
        Json::Obj(rows) => rows,
        other => panic!("tenants must be an object, got {other}"),
    };
    assert!(
        tenants.len() <= 3,
        "namespace map exceeded max_tenants: {body}"
    );
    // The most recent tenant survived; the earliest was evicted.
    assert!(tenants.iter().any(|(name, _)| name == "mint-7"), "{body}");
    assert!(tenants.iter().all(|(name, _)| name != "mint-0"), "{body}");
    let evictions = metrics
        .get("admission")
        .and_then(|a| a.get("tenant_evictions"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(evictions, 5, "8 minted names over a 3-namespace cap");

    // An evicted tenant's plan references are gone (typed 404), but
    // re-preparing works and is warm through the shared engine memo.
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"plan":"anything","tenant":"mint-0",
            "instance":{"topology":"torus2","side":6}}"#,
    );
    assert_eq!(status, 404, "{body}");
    let (status, body) = post(
        addr,
        "/prepare",
        r#"{"problem":{"type":"independent-set"},"tenant":"mint-0"}"#,
    );
    assert_eq!(status, 200, "{body}");

    server.shutdown();
    server.wait();
}

#[test]
fn malformed_requests_get_4xx_not_panics() {
    let server = test_server(16, 2);
    let addr = server.addr();

    // Garbage request line.
    let (status, _) = raw(addr, "NONSENSE\r\n\r\n");
    assert_eq!(status, 400);
    // Bad header.
    let (status, _) = raw(addr, "GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n");
    assert_eq!(status, 400);
    // Body is not JSON.
    let (status, body) = post(addr, "/solve", "this is not json");
    assert_eq!(status, 400);
    assert_eq!(
        Json::parse(&body).unwrap().get("error").unwrap().as_str(),
        Some("bad-json")
    );
    // JSON but schema-invalid, in several ways.
    for bad in [
        r#"{}"#,
        r#"{"problem":{"type":"mystery"},"instance":{"topology":"torus2","side":8}}"#,
        r#"{"problem":{"type":"vertex-colouring","k":4}}"#,
        r#"{"problem":{"type":"vertex-colouring","k":4},"instance":{"topology":"moebius","side":8}}"#,
        r#"{"problem":{"type":"dsl","source":"syntax error {"},"instance":{"topology":"torus2","side":8}}"#,
    ] {
        let (status, body) = post(addr, "/solve", bad);
        assert_eq!(status, 400, "{bad} -> {body}");
    }
    // Oversized instance: typed 413.
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":100000}}"#,
    );
    assert_eq!(status, 413, "{body}");
    // Oversized declared body: typed 413 before reading it.
    let (status, _) = raw(
        addr,
        "POST /solve HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(status, 413);
    // Unknown endpoint and unsupported method.
    let (status, _) = post(addr, "/no-such-endpoint", "{}");
    assert_eq!(status, 404);
    let (status, _) = raw(addr, "DELETE /solve HTTP/1.1\r\n\r\n");
    assert_eq!(status, 405);
    // Domain failure: unsolvable instance is a 422 verdict, not a 500.
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"problem":{"type":"vertex-colouring","k":2},"instance":{"topology":"torus2","side":5}}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(
        Json::parse(&body).unwrap().get("error").unwrap().as_str(),
        Some("unsolvable")
    );

    // After all that abuse the service still works.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
    server.wait();
}

#[test]
fn queue_overflow_is_a_typed_429() {
    // One worker, rendezvous queue: a connection is admitted only when
    // the worker is already waiting.
    let server = test_server(0, 1);
    let addr = server.addr();

    // Pin the only worker with a stalled request (headers promise a body
    // that never arrives, so the worker blocks in read until timeout).
    let mut stall = TcpStream::connect(addr).expect("connect");
    stall
        .write_all(b"POST /solve HTTP/1.1\r\ncontent-length: 5\r\n\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Now the queue (capacity 0) cannot admit anyone: typed 429.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 429, "{body}");
    let busy = Json::parse(&body).unwrap();
    assert_eq!(busy.get("error").unwrap().as_str(), Some("busy"));
    assert_eq!(busy.get("queue_cap").unwrap().as_usize(), Some(0));

    // Release the worker; the service recovers. With a rendezvous queue
    // the worker must be back in its blocking receive before a new
    // connection is admitted, so poll rather than racing a fixed sleep.
    drop(stall);
    let recovered = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(100));
        get(addr, "/healthz").0 == 200
    });
    assert!(recovered, "service did not recover after the stall closed");

    server.shutdown();
    server.wait();
}

#[test]
fn concurrent_clients_all_get_answers() {
    let server = test_server(32, 4);
    let addr = server.addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let body = format!(
                    r#"{{"problem":{{"type":"independent-set"}},"instance":{{"topology":"torus2","side":8,"ids":{{"kind":"shuffled","seed":{i}}}}},"return_labels":false}}"#
                );
                let mut statuses = Vec::new();
                for _ in 0..5 {
                    statuses.push(post(addr, "/solve", &body).0);
                }
                statuses
            })
        })
        .collect();
    for handle in handles {
        for status in handle.join().expect("client thread") {
            assert_eq!(status, 200);
        }
    }
    let (_, body) = get(addr, "/metrics");
    let metrics = Json::parse(&body).unwrap();
    let ok = metrics
        .get("endpoints")
        .and_then(|e| e.get("solve"))
        .and_then(|s| s.get("ok"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(ok, 40);
    server.shutdown();
    server.wait();
}

#[test]
fn zero_deadline_is_a_typed_504_and_the_plan_stays_usable() {
    let server = test_server(16, 2);
    let addr = server.addr();

    // A zero deadline trips at the pre-dispatch check: typed 504 with
    // the tier ledger, before any solver burns a cycle.
    let with_deadline = r#"{"problem":{"type":"vertex-colouring","k":4},"instance":{"topology":"torus2","side":16},"return_labels":false,"deadline_ms":0}"#;
    let (status, text) = post(addr, "/solve", with_deadline);
    assert_eq!(status, 504, "{text}");
    let err = Json::parse(&text).unwrap();
    assert_eq!(err.get("error").unwrap().as_str(), Some("deadline"));
    assert!(
        !err.get("tiers").unwrap().as_arr().unwrap().is_empty(),
        "a 504 must carry the tier ledger: {text}"
    );

    // The header spelling maps the same way.
    let body = r#"{"problem":{"type":"vertex-colouring","k":4},"instance":{"topology":"torus2","side":16},"return_labels":false}"#;
    let (status, text) = post_with_header(addr, "/solve", ("x-deadline-ms", "0"), body);
    assert_eq!(status, 504, "{text}");

    // A malformed deadline is a 400, not a panic.
    let (status, _) = post_with_header(addr, "/solve", ("x-deadline-ms", "soon"), body);
    assert_eq!(status, 400);

    // The trip left the plan fully reusable: the same solve without a
    // deadline succeeds.
    let (status, text) = post(addr, "/solve", body);
    assert_eq!(status, 200, "{text}");

    // A classification memo is never poisoned by a budget trip: after a
    // zero-deadline classify (which may or may not trip, depending on
    // how far the closed-form analyses get), an unbudgeted classify
    // still answers.
    let _ = post(
        addr,
        "/classify",
        r#"{"problem":{"type":"independent-set"},"deadline_ms":0}"#,
    );
    let (status, text) = post(
        addr,
        "/classify",
        r#"{"problem":{"type":"independent-set"}}"#,
    );
    assert_eq!(status, 200, "{text}");

    // Batch bodies accept the same field, covering every job jointly.
    let (status, text) = post(
        addr,
        "/solve-batch",
        r#"{"deadline_ms":0,"jobs":[{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":6}}]}"#,
    );
    assert_eq!(status, 200, "{text}");
    let report = Json::parse(&text).unwrap();
    assert_eq!(report.get("failed").unwrap().as_usize(), Some(1), "{text}");

    server.shutdown();
    server.wait();
}

#[test]
fn deadline_storms_trip_the_breaker_and_healthz_recovers() {
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        engine_threads: 1,
        max_synthesis_k: 1,
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();

    // A DSL problem has no closed-form tier, so a too-tight deadline
    // trips inside the SAT-backed tiers on every request. Five
    // consecutive trips reach the breaker threshold.
    let tight = r#"{"problem":{"type":"dsl","source":"problem serve-3c { alphabet { a, b, c } edges differ }"},"instance":{"topology":"torus2","side":12},"return_labels":false,"deadline_ms":1}"#;
    for i in 0..5 {
        let (status, text) = post(addr, "/solve", tight);
        assert_eq!(status, 504, "request {i}: {text}");
    }

    let (status, text) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = Json::parse(&text).unwrap();
    assert_eq!(
        health.get("status").unwrap().as_str(),
        Some("degraded"),
        "open breakers must degrade /healthz: {text}"
    );
    assert!(
        health.get("open_breakers").unwrap().as_usize().unwrap() >= 1,
        "{text}"
    );

    // The ledgers in /metrics account for every trip.
    let (_, text) = get(addr, "/metrics");
    let metrics = Json::parse(&text).unwrap();
    let tiers = metrics.get("health").and_then(|h| h.get("tiers")).unwrap();
    let timeouts: u64 = match tiers {
        Json::Obj(rows) => rows
            .iter()
            .filter_map(|(_, row)| row.get("timeouts").and_then(Json::as_u64))
            .sum(),
        other => panic!("tiers must be an object, got {other}"),
    };
    assert!(timeouts >= 5, "five tight solves, each a trip: {text}");
    assert!(
        metrics
            .get("health")
            .and_then(|h| h.get("breaker_trips"))
            .and_then(Json::as_u64)
            .unwrap()
            >= 1,
        "{text}"
    );
    assert!(metrics.get("uptime_secs").is_some(), "{text}");

    // After the cooldown a roomy solve probes the tier, succeeds, and
    // closes the breaker: /healthz recovers on its own traffic.
    std::thread::sleep(Duration::from_millis(250));
    let roomy = r#"{"problem":{"type":"dsl","source":"problem serve-3c { alphabet { a, b, c } edges differ }"},"instance":{"topology":"torus2","side":12},"return_labels":false}"#;
    let (status, text) = post(addr, "/solve", roomy);
    assert_eq!(status, 200, "the probe solve must succeed: {text}");
    let (_, breakers) = get(addr, "/metrics");
    let (_, text) = get(addr, "/healthz");
    let health = Json::parse(&text).unwrap();
    assert_eq!(
        health.get("status").unwrap().as_str(),
        Some("ok"),
        "{text}\n{breakers}"
    );
    assert_eq!(health.get("open_breakers").unwrap().as_usize(), Some(0));

    server.shutdown();
    server.wait();
}

#[test]
fn chaos_panic_storm_is_contained_and_accounted() {
    // Every solver dispatch panics: the worst persistent-failure mode.
    let mut chaos = ChaosConfig::quiet(7);
    chaos.solve_panic_period = Some(1);
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        engine_threads: 1,
        max_synthesis_k: 1,
        chaos: Some(chaos),
        ..ServeConfig::default()
    })
    .expect("bind test server");
    let addr = server.addr();

    let body = r#"{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":8},"return_labels":false}"#;
    let mut observed_panics = 0u64;
    for i in 0..12 {
        let (status, text) = post(addr, "/solve", body);
        assert_eq!(status, 500, "request {i}: {text}");
        assert_eq!(
            Json::parse(&text).unwrap().get("error").unwrap().as_str(),
            Some("panic"),
            "request {i}: {text}"
        );
        observed_panics += 1;
    }

    // Every injected fault is accounted for: the chaos ledger matches
    // the typed 500s observed on the wire, one for one.
    let (_, text) = get(addr, "/metrics");
    let metrics = Json::parse(&text).unwrap();
    let injected = metrics
        .get("chaos")
        .and_then(|c| c.get("injected"))
        .and_then(|i| i.get("solve_panic"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(injected, observed_panics, "{text}");

    // With 5xx dominating traffic, the fault-rate signal degrades
    // /healthz even though no breaker recorded the panics.
    let (status, text) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&text).unwrap().get("status").unwrap().as_str(),
        Some("degraded"),
        "{text}"
    );

    // The worker pool survived the storm: a full drain still works.
    server.shutdown();
    server.wait();
}

#[test]
fn chaos_schedules_are_deterministic_across_runs() {
    // The same seed over the same request sequence must produce the
    // same fault schedule, observable both on the wire (statuses, row
    // error codes) and in the /metrics ledgers.
    let run = || {
        let server = Server::start(ServeConfig {
            workers: 2,
            queue_cap: 16,
            engine_threads: 1,
            max_synthesis_k: 1,
            chaos: Some(ChaosConfig::from_seed(42)),
            ..ServeConfig::default()
        })
        .expect("bind test server");
        let addr = server.addr();

        let mut outcomes: Vec<String> = Vec::new();
        for i in 0..10 {
            let body = format!(
                r#"{{"problem":{{"type":"independent-set"}},"instance":{{"topology":"torus2","side":8,"ids":{{"kind":"shuffled","seed":{i}}}}},"return_labels":false}}"#
            );
            let (status, _) = post(addr, "/solve", &body);
            outcomes.push(format!("solve:{status}"));
        }
        // A batch over 3 repeated groups exercises batch dedup under
        // chaos.
        let jobs: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    r#"{{"problem":{{"type":"independent-set"}},"instance":{{"topology":"torus2","side":6,"ids":{{"kind":"shuffled","seed":{}}}}}}}"#,
                    i % 3
                )
            })
            .collect();
        let (status, text) = post(
            addr,
            "/solve-batch",
            &format!(r#"{{"jobs":[{}]}}"#, jobs.join(",")),
        );
        assert_eq!(status, 200, "{text}");
        let report = Json::parse(&text).unwrap();
        for row in report.get("results").unwrap().as_arr().unwrap() {
            let code = row
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("ok")
                .to_string();
            outcomes.push(format!("row:{code}"));
        }

        let (_, text) = get(addr, "/metrics");
        let metrics = Json::parse(&text).unwrap();
        let injected: Vec<(String, u64)> = match metrics
            .get("chaos")
            .and_then(|c| c.get("injected"))
            .unwrap()
        {
            Json::Obj(rows) => rows
                .iter()
                .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
                .collect(),
            other => panic!("chaos.injected must be an object, got {other}"),
        };
        server.shutdown();
        server.wait();
        (outcomes, injected)
    };

    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "same seed + same requests must replay the same fault schedule"
    );
}

#[test]
fn slow_bodies_and_midstream_disconnects_leave_the_server_live() {
    let server = test_server(8, 2);
    let addr = server.addr();

    // Mid-body disconnect: promise 100 bytes, send 10, hang up.
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"POST /solve HTTP/1.1\r\ncontent-length: 100\r\n\r\n0123456789")
            .unwrap();
    }

    // Slow-loris body: trickle a few bytes, then stall. The server's
    // read timeout reclaims the pinned worker; the other worker keeps
    // serving throughout.
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris
        .write_all(b"POST /solve HTTP/1.1\r\ncontent-length: 50\r\n\r\n")
        .unwrap();
    for _ in 0..3 {
        loris.write_all(b"x").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200, "server must stay live mid-loris");
    }
    // Wait out the 2s read timeout so the stalled worker is reclaimed.
    std::thread::sleep(Duration::from_millis(2500));
    drop(loris);

    // Both abuses were counted and answered with nothing worse than a
    // dropped connection: the service is fully live.
    let (_, text) = get(addr, "/metrics");
    let malformed = Json::parse(&text)
        .unwrap()
        .get("admission")
        .and_then(|a| a.get("malformed_requests"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(malformed >= 2, "{text}");
    let (status, text) = post(
        addr,
        "/solve",
        r#"{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":6},"return_labels":false}"#,
    );
    assert_eq!(status, 200, "{text}");

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = test_server(8, 2);
    let addr = server.addr();

    // Open an in-flight request: headers sent, body held back.
    let body = r#"{"problem":{"type":"independent-set"},"instance":{"topology":"torus2","side":8},"return_labels":false}"#;
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        conn,
        "POST /solve HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Trigger shutdown while that request is in flight.
    let (status, shutdown_body) = post(addr, "/shutdown", "{}");
    assert_eq!(status, 200, "{shutdown_body}");

    // Completing the in-flight request still gets a full 200.
    conn.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .expect("drained response");
    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "in-flight request must drain with a real answer, got: {response}"
    );

    // And the server winds down completely.
    server.wait();
}

#[test]
fn analyze_endpoint_returns_the_full_report() {
    let server = test_server(16, 2);
    let addr = server.addr();

    // A statically unsolvable DSL problem: the report carries the L002
    // diagnostic with source positions and the elimination certificate.
    let stuck = r#"{"tenant":"lint","problem":{"type":"dsl","source":"problem stuck {\n  alphabet { a, b }\n  horizontal allow (a b)\n  vertical allow (a a) (b b)\n}\n"}}"#;
    let (status, body) = post(addr, "/analyze", stuck);
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).expect("the report is valid JSON");
    assert_eq!(report.get("problem").unwrap().as_str(), Some("stuck"));
    let diags = report.get("diagnostics").unwrap().as_arr().unwrap();
    assert_eq!(diags.len(), 1, "{body}");
    assert_eq!(diags[0].get("code").unwrap().as_str(), Some("L002"));
    assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("error"));
    assert!(
        diags[0].get("line").is_some(),
        "spans carry positions: {body}"
    );
    let cert = report.get("unsolvable").unwrap();
    assert!(
        !cert.get("eliminated").unwrap().as_arr().unwrap().is_empty(),
        "{body}"
    );

    // A built-in problem analyses too (span-free): 2-colouring is
    // axis-decomposable and transpose-symmetric.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"problem":{"type":"vertex-colouring","k":2}}"#,
    );
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap();
    assert_eq!(
        report.get("axis_decomposable").unwrap().as_bool(),
        Some(true)
    );
    assert_eq!(report.get("unsolvable").unwrap().as_bool(), None); // null

    // Problems without a radius-1 block form are a typed 422.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"problem":{"type":"mis-power","metric":"l1","k":2}}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("no-analysis"), "{body}");

    server.shutdown();
    server.wait();
}

#[test]
fn prepare_reports_diagnostics_and_metrics_count_codes() {
    let server = test_server(16, 2);
    let addr = server.addr();

    // A dead label (L001) and a constant solution (L003) ride the
    // /prepare response as a diagnostics array.
    let dead = r#"{"problem":{"type":"dsl","source":"problem dead {\n  alphabet { a, b, c }\n  nodes forbid { c }\n}\n"}}"#;
    let (status, body) = post(addr, "/prepare", dead);
    assert_eq!(status, 200, "{body}");
    let prepared = Json::parse(&body).unwrap();
    let diags = prepared.get("diagnostics").unwrap().as_arr().unwrap();
    let codes: Vec<&str> = diags
        .iter()
        .map(|d| d.get("code").unwrap().as_str().unwrap())
        .collect();
    assert!(codes.contains(&"L001"), "{body}");
    assert!(codes.contains(&"L003"), "{body}");

    // The per-code counters surface in /metrics.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).unwrap();
    let analysis = metrics.get("analysis").unwrap();
    assert!(
        analysis.get("reports").unwrap().as_u64() >= Some(1),
        "{body}"
    );
    assert!(analysis.get("L001").unwrap().as_u64() >= Some(1), "{body}");
    assert!(analysis.get("L003").unwrap().as_u64() >= Some(1), "{body}");
    assert!(
        metrics.get("endpoints").unwrap().get("analyze").is_some(),
        "{body}"
    );

    server.shutdown();
    server.wait();
}

/// A server with tracing armed: sample everything, tiny plan budget.
fn traced_server(sample_rate: f64, slow_ms: Option<u64>) -> Server {
    Server::start(ServeConfig {
        workers: 2,
        queue_cap: 16,
        engine_threads: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_synthesis_k: 1,
        trace_sample_rate: sample_rate,
        slow_ms,
        ..ServeConfig::default()
    })
    .expect("bind traced server")
}

const SOLVE_BODY: &str = r#"{"problem":{"type":"vertex-colouring","k":4},"instance":{"topology":"torus2","side":8},"return_labels":false}"#;

#[test]
fn trace_capture_roundtrip() {
    let server = traced_server(1.0, None);
    let addr = server.addr();

    // A solve under a client-chosen trace id: the id is echoed in
    // canonical 16-hex form, and the response carries the cost ledger.
    let (status, head, body) = raw_full(
        addr,
        &format!(
            "POST /solve HTTP/1.1\r\nx-trace-id: beefcafe\r\ncontent-length: {}\r\n\r\n{SOLVE_BODY}",
            SOLVE_BODY.len()
        ),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header_value(&head, "x-trace-id").as_deref(),
        Some("00000000beefcafe"),
        "{head}"
    );
    let solved = Json::parse(&body).unwrap();
    let cost = solved.get("cost").expect("solve carries a cost ledger");
    let tiers = cost.get("tiers").unwrap().as_arr().unwrap();
    assert!(!tiers.is_empty(), "{body}");
    assert!(
        tiers
            .iter()
            .any(|t| t.get("outcome").unwrap().as_str() == Some("solved")),
        "{body}"
    );
    // Tier wall times must fit inside the solve's own total.
    let total_us = cost.get("total_us").unwrap().as_u64().unwrap();
    let tier_us: u64 = tiers
        .iter()
        .map(|t| t.get("wall_us").unwrap().as_u64().unwrap())
        .sum();
    assert!(tier_us <= total_us, "{body}");

    // The capture is retrievable as a Chrome Trace document with a
    // request → tier span tree.
    let (status, trace_body) = get(addr, "/trace/beefcafe");
    assert_eq!(status, 200, "{trace_body}");
    assert!(trace_body.contains("\"traceEvents\""), "{trace_body}");
    assert!(trace_body.contains("\"otherData\""), "{trace_body}");
    assert!(trace_body.contains("\"cat\":\"request\""), "{trace_body}");
    assert!(trace_body.contains("\"cat\":\"solve\""), "{trace_body}");
    assert!(trace_body.contains("\"cat\":\"tier\""), "{trace_body}");
    let doc = Json::parse(&trace_body).expect("chrome document is JSON");
    assert_eq!(
        doc.get("otherData")
            .unwrap()
            .get("endpoint")
            .unwrap()
            .as_str(),
        Some("/solve")
    );
    assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());

    // /trace/recent lists it, newest first.
    let (status, recent) = get(addr, "/trace/recent");
    assert_eq!(status, 200);
    assert!(recent.contains("00000000beefcafe"), "{recent}");

    // Unknown and malformed ids answer typed errors.
    assert_eq!(get(addr, "/trace/123456789abcdef1").0, 404);
    assert_eq!(get(addr, "/trace/not-hex").0, 400);

    // A request without a client id gets a minted one, echoed back.
    let (_, head, _) = raw_full(addr, "GET /healthz HTTP/1.1\r\n\r\n");
    let minted = header_value(&head, "x-trace-id").expect("minted id echoed");
    assert_eq!(minted.len(), 16, "{head}");
    assert!(minted.chars().all(|c| c.is_ascii_hexdigit()));

    server.shutdown();
    server.wait();
}

#[test]
fn solve_batch_trace_carries_the_stream_workers_spans() {
    let server = traced_server(1.0, None);
    let addr = server.addr();
    let body = format!(r#"{{"jobs":[{SOLVE_BODY},{SOLVE_BODY}]}}"#);
    let (status, _, reply) = raw_full(
        addr,
        &format!(
            "POST /solve-batch HTTP/1.1\r\nx-trace-id: ba7c4\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert_eq!(status, 200, "{reply}");
    // The solves run on stream workers, which adopt the request's trace
    // id: the capture holds their solve and tier spans.
    let (status, trace_body) = get(addr, "/trace/ba7c4");
    assert_eq!(status, 200, "{trace_body}");
    assert!(trace_body.contains("\"cat\":\"request\""), "{trace_body}");
    assert!(trace_body.contains("\"cat\":\"solve\""), "{trace_body}");
    assert!(trace_body.contains("\"cat\":\"tier\""), "{trace_body}");
    server.shutdown();
    server.wait();
}

#[test]
fn slow_requests_are_captured_without_sampling() {
    // Sampler off; every request is slower than 0 ms, so slow capture
    // takes all of them.
    let server = traced_server(0.0, Some(0));
    let addr = server.addr();
    let (status, body) = post(addr, "/solve", SOLVE_BODY);
    assert_eq!(status, 200, "{body}");
    let (status, recent) = get(addr, "/trace/recent");
    assert_eq!(status, 200);
    let doc = Json::parse(&recent).unwrap();
    let rows = doc.get("traces").unwrap().as_arr().unwrap();
    assert!(!rows.is_empty(), "{recent}");
    assert!(
        rows.iter()
            .any(|r| r.get("slow").unwrap().as_bool() == Some(true)),
        "{recent}"
    );
    server.shutdown();
    server.wait();
}

#[test]
fn prometheus_exposition_negotiates_and_matches_json() {
    let server = test_server(16, 2);
    let addr = server.addr();
    for _ in 0..3 {
        let (status, body) = post(addr, "/solve", SOLVE_BODY);
        assert_eq!(status, 200, "{body}");
    }

    // JSON document: endpoints plus the new build/traces blocks.
    let (status, json_body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let doc = Json::parse(&json_body).unwrap();
    let solve_count = doc
        .get("endpoints")
        .unwrap()
        .get("solve")
        .unwrap()
        .get("latency")
        .unwrap()
        .get("count")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(solve_count, 3, "{json_body}");
    let build = doc.get("build").expect("metrics carries a build block");
    assert_eq!(
        build.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(build.get("cores").unwrap().as_u64() >= Some(1));
    assert!(doc.get("traces").is_some(), "{json_body}");

    // The query parameter selects the text exposition.
    let (status, head, prom) = raw_full(addr, "GET /metrics?format=prometheus HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    assert!(
        header_value(&head, "content-type").is_some_and(|ct| ct.starts_with("text/plain")),
        "{head}"
    );
    // Every exposition line is a comment or `name{labels} integer`, and
    // the histogram is self-consistent: cumulative +Inf bucket == _count,
    // matching the JSON count.
    let mut inf_bucket = None;
    let mut count = None;
    for line in prom.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line");
        assert!(name.starts_with("lcl_"), "bad line: {line:?}");
        let value: u64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line:?}"));
        if name == "lcl_request_latency_us_bucket{endpoint=\"solve\",le=\"+Inf\"}" {
            inf_bucket = Some(value);
        }
        if name == "lcl_request_latency_us_count{endpoint=\"solve\"}" {
            count = Some(value);
        }
    }
    assert_eq!(count, Some(solve_count), "{prom}");
    assert_eq!(inf_bucket, count, "{prom}");
    assert!(
        prom.contains(&format!(
            "lcl_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )),
        "{prom}"
    );

    // Accept-header negotiation picks the exposition too; an explicit
    // format=json wins over Accept.
    let (_, _, via_accept) = raw_full(addr, "GET /metrics HTTP/1.1\r\naccept: text/plain\r\n\r\n");
    assert!(via_accept.starts_with("# HELP"), "{via_accept}");
    let (_, head, via_param) = raw_full(
        addr,
        "GET /metrics?format=json HTTP/1.1\r\naccept: text/plain\r\n\r\n",
    );
    assert!(via_param.starts_with('{'), "{via_param}");
    assert!(
        header_value(&head, "content-type").is_some_and(|ct| ct.starts_with("application/json")),
        "{head}"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn healthz_carries_build_block() {
    let server = test_server(8, 1);
    let addr = server.addr();
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).unwrap();
    let build = doc.get("build").expect("healthz carries a build block");
    assert_eq!(
        build.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(build.get("features").unwrap().as_arr().is_some());
    assert!(build.get("workers").unwrap().as_u64() >= Some(1));
    server.shutdown();
    server.wait();
}

/// A census artifact generated on the fly (tiny frontier: alphabet ≤ 2,
/// at most 2 allowed blocks per table), served read-only at `/atlas/…`.
#[test]
fn atlas_endpoints_serve_the_census_artifact() {
    use lcl_atlas::{run_census, CensusOptions, Frontier};
    use lcl_grids::engine::Engine;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("lcl-serve-atlas-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = dir.join("census.jsonl");

    let engine = Arc::new(Engine::builder().threads(2).max_synthesis_k(1).build());
    let outcome = run_census(
        &engine,
        &Frontier::alphabet(2).with_max_blocks(2),
        &CensusOptions::default(),
    )
    .expect("tiny census");
    assert!(outcome.stats.complete);
    outcome.atlas.write(&artifact).unwrap();

    let server = Server::start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        engine_threads: 1,
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_synthesis_k: 1,
        atlas_path: Some(artifact.clone()),
        ..ServeConfig::default()
    })
    .expect("bind atlas server");
    let addr = server.addr();

    // The summary aggregates the whole census, deterministically.
    let (status, body) = get(addr, "/atlas/summary");
    assert_eq!(status, 200);
    let summary = Json::parse(&body).unwrap();
    assert_eq!(
        summary.get("problems").unwrap().as_u64(),
        Some(outcome.atlas.len() as u64)
    );
    assert!(summary.get("classes").is_some());
    assert_eq!(body, outcome.atlas.summary().to_json());

    // Each record is served verbatim under its content-addressed key.
    let record = &outcome.atlas.records()[outcome.atlas.len() - 1];
    let (status, body) = get(addr, &format!("/atlas/{}", record.key));
    assert_eq!(status, 200);
    assert_eq!(body, record.to_line());

    // Unknown keys are a typed 404.
    let (status, body) = get(addr, "/atlas/atlas-a2-ffffffffffffffff");
    assert_eq!(status, 404);
    assert!(body.contains("unknown-atlas-key"));

    // The build block advertises the armed census.
    let (_, body) = get(addr, "/healthz");
    assert!(body.contains("\"atlas\""));

    server.shutdown();
    server.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--atlas`, the endpoints answer a typed "not configured".
#[test]
fn atlas_endpoints_without_artifact_are_typed_404s() {
    let server = test_server(8, 1);
    let addr = server.addr();
    for path in ["/atlas/summary", "/atlas/atlas-a2-0000000000000000"] {
        let (status, body) = get(addr, path);
        assert_eq!(status, 404, "{path}");
        assert!(body.contains("atlas-not-configured"), "{path}: {body}");
    }
    server.shutdown();
    server.wait();
}
