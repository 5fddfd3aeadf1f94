//! `loadgen`: the service benchmark client.
//!
//! Drives mixed `prepare` / `solve` / `solve-batch` / `classify` traffic
//! over real sockets — against an in-process server it spawns itself
//! (default) or an external one (`--addr`) — then writes
//! `BENCH_service.json` with exact p50/p99 request latencies and jobs/s.
//!
//! Two invariants are *checked*, not just measured, and a violation is a
//! non-zero exit:
//!
//! * Under the admission limit (concurrent clients ≤ workers +
//!   queue-cap) every request gets a response: zero drops, zero busy
//!   rejections. Transient `429`/`503` answers are retried with
//!   jittered exponential backoff (honouring `retry-after`), and the
//!   retry count is reported in `BENCH_service.json` rather than
//!   counting a retried-then-served request as a failure.
//! * Beyond it (the flood phase, spawn mode only: every worker and queue
//!   slot is pinned by a stalled connection, then a burst is fired) the
//!   overflow is answered with typed `429 busy` responses — bounded
//!   rejection, not unbounded buffering.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--seconds N] [--clients N]
//!         [--out PATH] [--smoke] [--shutdown] [--tolerate-typed-errors]
//! ```
//!
//! `--tolerate-typed-errors` relaxes the first invariant for chaos
//! soaks (a server running with `--chaos-seed`): injected faults are
//! *supposed* to surface as typed error answers, so only dropped
//! responses — a request that got no answer at all — and a zero solved
//! count fail the run.

use lcl_serve::json::Json;
use lcl_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Traffic mix: one request kind per slot, cycled round-robin per
/// client. Solves dominate (they are the service's purpose); the DSL
/// prepare exercises compilation + the tenant plan cache; the batch
/// exercises the slice path and its exact in-batch dedup.
const KINDS: [&str; 6] = [
    "solve",
    "solve",
    "solve-batch",
    "classify",
    "prepare",
    "solve",
];

/// Spawn-mode server shape: small enough that the flood phase can pin
/// every worker and queue slot with a handful of connections, large
/// enough that `--clients 4` stays under the admission limit.
const SPAWN_WORKERS: usize = 2;
const SPAWN_QUEUE_CAP: usize = 8;

struct Opts {
    addr: Option<String>,
    seconds: u64,
    clients: usize,
    out: String,
    shutdown: bool,
    /// Chaos-soak mode: typed error answers (5xx, residual 429) are
    /// expected — injected faults surface as typed errors by design —
    /// so only *dropped* responses (no answer at all) and a zero solved
    /// count remain failures.
    tolerate_typed: bool,
}

/// One finished request: kind, latency, status, and how many times it
/// was retried before this (final) status.
struct Sample {
    kind: &'static str,
    micros: u64,
    status: u16,
    jobs: u64,
    retries: u64,
}

/// Most retries per request before the last status is taken as final.
const MAX_RETRIES: u64 = 3;

/// A transient admission answer (`429 busy`, `503 unavailable`) is
/// retried with jittered exponential backoff, floored at the server's
/// `retry-after` hint when it sends one. Returns the final status/body
/// and the number of retries spent.
fn request_with_retry(
    addr: &str,
    path: &str,
    body: &str,
    rng: &mut u64,
) -> std::io::Result<(u16, String, u64)> {
    let mut retries = 0u64;
    loop {
        let (status, text, retry_after) = request(addr, "POST", path, body)?;
        if !(status == 429 || status == 503) || retries >= MAX_RETRIES {
            return Ok((status, text, retries));
        }
        let base_ms = 50u64 << retries.min(4);
        let jitter_ms = xorshift(rng) % (base_ms / 2 + 1);
        let mut wait = Duration::from_millis(base_ms / 2 + jitter_ms);
        if let Some(secs) = retry_after {
            wait = wait.max(Duration::from_secs(secs));
        }
        std::thread::sleep(wait);
        retries += 1;
    }
}

/// xorshift64: cheap deterministic jitter, seeded per client.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn main() -> ExitCode {
    let mut opts = Opts {
        addr: None,
        seconds: 5,
        clients: 4,
        out: "BENCH_service.json".to_string(),
        shutdown: false,
        tolerate_typed: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = args.next(),
            "--seconds" => {
                opts.seconds = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("loadgen: --seconds needs an integer");
                    std::process::exit(2);
                })
            }
            "--clients" => {
                opts.clients = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("loadgen: --clients needs an integer");
                    std::process::exit(2);
                })
            }
            "--out" => opts.out = args.next().unwrap_or(opts.out),
            "--smoke" => {
                opts.seconds = 2;
                opts.clients = 2;
            }
            "--shutdown" => opts.shutdown = true,
            "--tolerate-typed-errors" => opts.tolerate_typed = true,
            other => {
                eprintln!("loadgen: unknown flag '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }

    // Spawn mode: an in-process server with a deliberately small
    // admission surface so the flood phase can saturate it.
    let spawned = if opts.addr.is_none() {
        let config = ServeConfig {
            workers: SPAWN_WORKERS,
            queue_cap: SPAWN_QUEUE_CAP,
            read_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        };
        opts.clients = opts.clients.min(SPAWN_WORKERS + SPAWN_QUEUE_CAP / 2);
        match Server::start(config) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("loadgen: cannot spawn server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = match spawned
        .as_ref()
        .map(|s| s.addr().to_string())
        .or(opts.addr.clone())
    {
        Some(addr) => addr,
        None => {
            // Unreachable: spawn mode runs exactly when no addr was given.
            eprintln!("loadgen: no target address");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "loadgen: {} clients x {}s against {addr}",
        opts.clients, opts.seconds
    );

    // ---- Timed mixed-traffic phase -------------------------------------
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    let started = Instant::now();
    let dropped = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..opts.clients)
        .map(|client| {
            let addr = addr.clone();
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || client_loop(&addr, client, deadline, &dropped))
        })
        .collect();
    let mut samples: Vec<Sample> = Vec::new();
    for handle in handles {
        match handle.join() {
            Ok(batch) => samples.extend(batch),
            Err(_) => {
                eprintln!("loadgen: a client thread panicked");
                return ExitCode::FAILURE;
            }
        }
    }
    let elapsed = started.elapsed();
    let dropped = dropped.load(Ordering::Relaxed);
    let busy = samples.iter().filter(|s| s.status == 429).count();
    let failures = samples
        .iter()
        .filter(|s| !(200..300).contains(&s.status) && s.status != 429)
        .count();
    let total_retries: u64 = samples.iter().map(|s| s.retries).sum();

    // ---- Flood phase (spawn mode): overflow must be a typed 429 --------
    let flood_busy = if spawned.is_some() {
        match flood(&addr) {
            Ok(n) => Some(n),
            Err(e) => {
                eprintln!("loadgen: flood phase failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // Traces the server retained from this run (non-empty only when it
    // runs with --trace-sample-rate or --slow-ms); reported so the
    // trace-smoke CI job can assert capture happened under load.
    let traces_retained = request(&addr, "GET", "/trace/recent", "")
        .ok()
        .filter(|(status, _, _)| *status == 200)
        .and_then(|(_, body, _)| Json::parse(&body).ok())
        .and_then(|doc| {
            doc.get("traces")
                .and_then(|t| t.as_arr().map(<[Json]>::len))
        });

    if opts.shutdown || spawned.is_some() {
        let _ = request(&addr, "POST", "/shutdown", "{}");
    }
    if let Some(server) = spawned {
        server.wait();
    }

    // ---- Aggregate and verify ------------------------------------------
    let total_jobs: u64 = samples.iter().map(|s| s.jobs).sum();
    let jobs_per_s = total_jobs as f64 / elapsed.as_secs_f64();
    let mut all: Vec<u64> = samples.iter().map(|s| s.micros).collect();
    all.sort_unstable();
    let report = Json::obj(vec![
        ("bench", Json::str("service")),
        (
            "unix_time",
            Json::count(
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ),
        (
            "cores",
            Json::size(std::thread::available_parallelism().map_or(1, usize::from)),
        ),
        ("clients", Json::size(opts.clients)),
        ("seconds", Json::count(opts.seconds)),
        ("requests", Json::size(samples.len())),
        ("dropped_responses", Json::count(dropped)),
        ("busy_responses", Json::size(busy)),
        ("failed_responses", Json::size(failures)),
        ("retries", Json::count(total_retries)),
        ("jobs_solved", Json::count(total_jobs)),
        (
            "jobs_per_s",
            Json::num((jobs_per_s * 100.0).round() / 100.0),
        ),
        ("latency", latency_json(&all)),
        (
            "per_kind",
            Json::Obj(
                KINDS
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .map(|kind| {
                        let mut us: Vec<u64> = samples
                            .iter()
                            .filter(|s| s.kind == *kind)
                            .map(|s| s.micros)
                            .collect();
                        us.sort_unstable();
                        (kind.to_string(), latency_json(&us))
                    })
                    .collect(),
            ),
        ),
        (
            "flood_busy_responses",
            flood_busy.map_or(Json::Null, Json::size),
        ),
        (
            "traces_retained",
            traces_retained.map_or(Json::Null, Json::size),
        ),
    ]);
    if let Err(e) = std::fs::write(&opts.out, format!("{report}\n")) {
        eprintln!("loadgen: cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "loadgen: {} requests, {total_jobs} jobs ({jobs_per_s:.1}/s), p50 {:?}us p99 {:?}us -> {}",
        samples.len(),
        quantile(&all, 0.50),
        quantile(&all, 0.99),
        opts.out
    );

    // The checked invariants (see the module docs). With
    // `--tolerate-typed-errors` (chaos soaks), typed error answers are
    // the *expected* shape of injected faults — only a request that got
    // no answer at all is a failure.
    if dropped > 0 || (!opts.tolerate_typed && (failures > 0 || busy > 0)) {
        eprintln!(
            "loadgen: FAIL: {dropped} dropped, {failures} failed, {busy} busy under the admission limit"
        );
        return ExitCode::FAILURE;
    }
    if total_jobs == 0 {
        eprintln!("loadgen: FAIL: no jobs solved");
        return ExitCode::FAILURE;
    }
    if let Some(flood_busy) = flood_busy {
        if flood_busy == 0 {
            eprintln!("loadgen: FAIL: flood beyond the queue bound saw no 429");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One client: cycle the traffic mix until the deadline.
fn client_loop(addr: &str, client: usize, deadline: Instant, dropped: &AtomicU64) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut iteration = 0u64;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ ((client as u64 + 1) << 17);
    while Instant::now() < deadline {
        let kind = KINDS[(iteration as usize + client) % KINDS.len()];
        let seed = iteration * 97 + client as u64;
        let (path, body, jobs) = match kind {
            "prepare" => (
                "/prepare",
                r#"{"problem":{"type":"dsl","source":"problem loadgen-3-colouring { alphabet { c0, c1, c2 } edges differ }"}}"#.to_string(),
                0,
            ),
            "classify" => (
                "/classify",
                r#"{"problem":{"type":"independent-set"}}"#.to_string(),
                0,
            ),
            "solve-batch" => {
                let jobs: Vec<String> = (0..8)
                    .map(|j| {
                        format!(
                            r#"{{"problem":{{"type":"vertex-colouring","k":4}},"instance":{{"topology":"torus2","side":12,"ids":{{"kind":"shuffled","seed":{}}}}}}}"#,
                            seed + j / 2
                        )
                    })
                    .collect();
                (
                    "/solve-batch",
                    format!(r#"{{"jobs":[{}]}}"#, jobs.join(",")),
                    8,
                )
            }
            _ => {
                // Rotate the single-solve family through the tiers: the
                // hand-built 4-colouring, the §8 orientation algorithm,
                // and the constant-time independent set.
                let body = match iteration % 3 {
                    0 => format!(
                        r#"{{"problem":{{"type":"vertex-colouring","k":4}},"instance":{{"topology":"torus2","side":16,"ids":{{"kind":"shuffled","seed":{seed}}}}},"return_labels":false}}"#
                    ),
                    1 => format!(
                        r#"{{"problem":{{"type":"orientation","degrees":[1,3,4]}},"instance":{{"topology":"torus2","side":12,"ids":{{"kind":"shuffled","seed":{seed}}}}},"return_labels":false}}"#
                    ),
                    _ => format!(
                        r#"{{"problem":{{"type":"independent-set"}},"instance":{{"topology":"torus2","side":8,"ids":{{"kind":"shuffled","seed":{seed}}}}},"return_labels":false}}"#
                    ),
                };
                ("/solve", body, 1)
            }
        };
        let begun = Instant::now();
        match request_with_retry(addr, path, &body, &mut rng) {
            Ok((status, _, retries)) => samples.push(Sample {
                kind,
                micros: u64::try_from(begun.elapsed().as_micros()).unwrap_or(u64::MAX),
                status,
                jobs: if (200..300).contains(&status) {
                    jobs
                } else {
                    0
                },
                retries,
            }),
            Err(_) => {
                dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        iteration += 1;
    }
    samples
}

/// Pins every worker and queue slot with stalled connections, fires a
/// burst, and counts the `429 busy` answers the overflow receives.
///
/// Two phases, because worker pinning must come first: stalls sent
/// while a worker is between requests would land in the queue instead,
/// leaving a worker free to drain it. A stalled connection is a partial
/// request (headers promising a body that never comes), which parks its
/// worker in a blocking read until the server's read timeout.
fn flood(addr: &str) -> std::io::Result<usize> {
    let stall = |stalls: &mut Vec<TcpStream>| -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.write_all(b"POST /solve HTTP/1.1\r\ncontent-length: 10\r\n\r\n")?;
        stalls.push(conn);
        Ok(())
    };
    let mut stalls = Vec::new();
    for _ in 0..SPAWN_WORKERS {
        stall(&mut stalls)?;
    }
    std::thread::sleep(Duration::from_millis(250));
    for _ in 0..SPAWN_QUEUE_CAP {
        stall(&mut stalls)?;
    }
    std::thread::sleep(Duration::from_millis(150));
    // The workers' read timeouts eventually release the stalls, so burst
    // promptly and retry a few times; one definite 429 proves the typed
    // rejection path.
    let mut busy = 0;
    for _ in 0..10 {
        if let Ok((429, _, _)) = request(addr, "GET", "/healthz", "") {
            busy += 1;
        }
        if busy > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(stalls);
    Ok(busy)
}

/// Exact quantile over sorted samples.
fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

fn latency_json(sorted: &[u64]) -> Json {
    Json::obj(vec![
        ("count", Json::size(sorted.len())),
        (
            "p50_us",
            quantile(sorted, 0.50).map_or(Json::Null, Json::count),
        ),
        (
            "p99_us",
            quantile(sorted, 0.99).map_or(Json::Null, Json::count),
        ),
    ])
}

/// A one-shot HTTP client: connect, send, read the full response
/// (the server closes after one response), return (status, body,
/// retry-after seconds if the server sent the header).
fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, Option<u64>)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    conn.set_write_timeout(Some(Duration::from_secs(30)))?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((response, String::new()));
    let retry_after = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())
            .flatten()
    });
    Ok((status, body, retry_after))
}
