//! `serve`: an in-process `lcl_serve::Server` driven open-loop over
//! loopback with `loadgen`'s request mix (solve / solve-batch / classify
//! / DSL prepare). Arrivals come evenly spaced at a fixed rate; the seed
//! draws their phase and each request's kind and identifiers. At most
//! `nproc` sender threads, each with one connection at a
//! time, send every request at its due time or as soon after as they
//! can. Latency counts from the due time.
//!
//! Each single solve does a few milliseconds of engine work, several
//! times the HTTP round trip. A workload of sub-millisecond requests
//! measures mostly how fast the host wakes idle threads, which on a
//! shared machine can triple for minutes at a time; engine work drifts
//! with the host's throughput only, as the other workloads do.

use crate::layers;
use crate::stats::{
    bucket_quantile, median, paced_schedule, quantile, unit_interval, windowed_quantile, Fate, Sent,
};
use crate::{derive_seed, nproc, setup_round, timed, Opts, Report};
use lcl_grids::core::problems::XSet;
use lcl_grids::engine::{Engine, Instance, ProblemSpec};
use lcl_grids::local::{IdAssignment, SplitMix64};
use lcl_serve::json::Json;
use lcl_serve::{api, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Arrivals per second, evenly spaced: a 20-second run holds 1000
/// requests. Each request takes a small part of the
/// 20 ms gap, so requests rarely overlap and the tail is the spread of
/// single requests. Poisson arrivals clump, and how many clumps a run
/// drew moved its p99 by a third between seeds; during stretches where
/// the host ran the program slowly, the clumps queued and multiplied the
/// median by up to six.
const RATE: f64 = 50.0;
/// Seconds an unanswered request is charged as, and the socket timeout.
const PENALTY_S: f64 = 30.0;
/// `p50_ms` and `p99_ms` are taken per window of this many seconds of
/// due times (250 requests) and averaged over the windows by their
/// interquartile mean, as the other workloads average over passes; a
/// burst of host noise then moves one window, which is dropped.
const WINDOW_S: f64 = 5.0;
/// How long before a due time a sender stops sleeping and spins.
const SPIN_S: f64 = 0.001;

/// The request kinds, in `loadgen`'s proportions (3 : 1 : 1 : 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Solve,
    SolveBatch,
    Classify,
    Prepare,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Solve, Kind::SolveBatch, Kind::Classify, Kind::Prepare];

    fn name(self) -> &'static str {
        match self {
            Kind::Solve => "solve",
            Kind::SolveBatch => "solve-batch",
            Kind::Classify => "classify",
            Kind::Prepare => "prepare",
        }
    }

    fn path(self) -> &'static str {
        match self {
            Kind::Solve => "/solve",
            Kind::SolveBatch => "/solve-batch",
            Kind::Classify => "/classify",
            Kind::Prepare => "/prepare",
        }
    }
}

/// The solved problem families in wire form.
const FAMILIES: [&str; 3] = [
    r#"{"type":"vertex-colouring","k":4}"#,
    r#"{"type":"orientation","degrees":[1,3,4]}"#,
    r#"{"type":"independent-set"}"#,
];
/// Every single solve is a {1,3,4}-orientation of a torus side drawn
/// from these, about 1.5 to 4 ms of engine work on a warm engine on a
/// 2-core machine. The host switches between a fast and a slow state,
/// 1.6 times apart, for seconds at a time; with one side the solves'
/// latencies would form two narrow peaks, and the median would jump from
/// one to the other with the share of time a run spent in each. Sides
/// spread over more than that factor in work make one wide band that the
/// median moves through smoothly.
const SOLVE_SIDES: [usize; 6] = [32, 36, 40, 44, 48, 52];
/// The torus sides of the one {1,3,4}-orientation in every batch body,
/// spread for the same reason. The smallest has a third more nodes than
/// the largest single solve.
const BATCH_SIDES: [usize; 4] = [60, 64, 68, 72];
/// `(family, torus side, copies)` of the light jobs of every batch body,
/// the copies of one job next to each other, after the orientation.
///
/// Sorted by latency, the requests fall into three bands: classify and
/// prepare (the lowest third), single solves (the middle half), batches
/// (the top sixth). The median lies inside the solve band and the p99
/// inside the batch band, never on the edge between two bands, where it
/// would jump from run to run. The orientation is sent once: the stream
/// dedup does not wait for a copy still being solved, so two copies
/// would take both cores; the light jobs' second copies find the first
/// already answered.
const BATCH_LIGHT: [(usize, usize, usize); 2] = [(0, 16, 2), (2, 32, 2)];
/// The family index of the {1,3,4}-orientation in [`FAMILIES`].
const ORIENTATION: usize = 1;

fn family_spec(family: usize) -> ProblemSpec {
    match family {
        0 => ProblemSpec::vertex_colouring(4),
        1 => ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4])),
        _ => ProblemSpec::independent_set(),
    }
}

const DSL: &str = "problem bench-3-colouring { alphabet { c0, c1, c2 } edges differ }";

/// One scheduled request and what its answer must satisfy.
struct Planned {
    due: f64,
    kind: Kind,
    body: String,
    /// `(family, side, id seed)` of each labelling the answer carries.
    solves: Vec<(usize, usize, u64)>,
}

/// The wire form of one job: problem and instance.
fn job(family: usize, side: usize, seed: u64) -> String {
    format!(
        r#""problem":{},"instance":{{"topology":"torus2","side":{side},"ids":{{"kind":"shuffled","seed":{seed}}}}}"#,
        FAMILIES[family]
    )
}

fn solve_body((family, side): (usize, usize), seed: u64) -> String {
    format!(r#"{{{},"return_labels":true}}"#, job(family, side, seed))
}

fn plan(kind: Kind, rng: &mut SplitMix64, due: f64) -> Planned {
    let mut seed = || rng.next_below(1 << 40);
    let (body, solves) = match kind {
        Kind::Solve => {
            let side = SOLVE_SIDES[seed() as usize % SOLVE_SIDES.len()];
            let s = seed();
            (
                solve_body((ORIENTATION, side), s),
                vec![(ORIENTATION, side, s)],
            )
        }
        Kind::SolveBatch => {
            let side = BATCH_SIDES[seed() as usize % BATCH_SIDES.len()];
            let mut solves = vec![(ORIENTATION, side, seed())];
            for &(family, side, copies) in &BATCH_LIGHT {
                let s = seed();
                solves.extend(std::iter::repeat((family, side, s)).take(copies));
            }
            let jobs: Vec<String> = solves
                .iter()
                .map(|&(family, side, s)| format!("{{{}}}", job(family, side, s)))
                .collect();
            (
                format!(r#"{{"jobs":[{}],"return_labels":true}}"#, jobs.join(",")),
                solves,
            )
        }
        Kind::Classify => (
            r#"{"problem":{"type":"independent-set"}}"#.to_string(),
            vec![],
        ),
        Kind::Prepare => (
            format!(r#"{{"problem":{{"type":"dsl","source":"{DSL}"}}}}"#),
            vec![],
        ),
    };
    Planned {
        due,
        kind,
        body,
        solves,
    }
}

/// The seeded open-loop schedule for `seconds`. Every six consecutive
/// requests hold the mix exactly, in an order drawn from the seed, so the
/// share of each kind, and with it the bands the quantiles fall in, is
/// the same for every seed.
fn schedule(seed: u64, seconds: f64) -> Vec<Planned> {
    const MIX: [Kind; 6] = [
        Kind::Solve,
        Kind::Solve,
        Kind::Solve,
        Kind::SolveBatch,
        Kind::Classify,
        Kind::Prepare,
    ];
    let mut rng = SplitMix64::new(derive_seed(seed, 0x5e7e));
    let due = paced_schedule(RATE, seconds, unit_interval(rng.next_u64()));
    let mut kinds = Vec::new();
    due.into_iter()
        .map(|t| {
            if kinds.is_empty() {
                kinds = MIX.to_vec();
                rng.shuffle(&mut kinds);
            }
            let kind = kinds.pop().expect("refilled above");
            plan(kind, &mut rng, t)
        })
        .collect()
}

/// One HTTP exchange on a fresh connection (the server closes after
/// each response): status and body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    let timeout = Some(Duration::from_secs_f64(PENALTY_S));
    conn.set_read_timeout(timeout)?;
    conn.set_write_timeout(timeout)?;
    conn.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    let status = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// A started server with every plan and synthesis warm.
fn start() -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        engine_threads: nproc(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    for kind in Kind::ALL {
        let p = plan(kind, &mut SplitMix64::new(0), 0.0);
        match request(server.addr(), "POST", p.kind.path(), &p.body) {
            Ok((200, _)) => {}
            other => return Err(format!("warm-up {}: {other:?}", p.kind.name())),
        }
    }
    Ok(server)
}

fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// One request's outcome: timing plus the answer to check.
struct Done {
    sent: Sent,
    status: u16,
    body: String,
}

/// Waits until `due` seconds after `start`: sleeps until [`SPIN_S`]
/// before it, then spins. A sender that slept to the due time itself
/// would wake late by the timer's slack plus the host's scheduling delay,
/// and that lateness counts as latency.
fn wait_until(start: Instant, due: f64) {
    let due = start + Duration::from_secs_f64(due);
    let wake = due - Duration::from_secs_f64(SPIN_S);
    let now = Instant::now();
    if wake > now {
        std::thread::sleep(wake - now);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Sends the whole schedule from `nproc` sender threads. Each free
/// sender takes the next unsent request and waits for its due time if it
/// is not already late, so a request is sent late only while every
/// sender is busy.
fn drive(addr: SocketAddr, planned: &[Planned]) -> (Vec<Done>, f64) {
    let senders = nproc().max(1);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<Option<Done>> = (0..planned.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = planned.get(i) else { break };
                        wait_until(start, p.due);
                        let sent = start.elapsed().as_secs_f64();
                        let answer = request(addr, "POST", p.kind.path(), &p.body);
                        let finished = start.elapsed().as_secs_f64();
                        let (fate, status, body) = match answer {
                            Ok((status, body)) if (200..300).contains(&status) => {
                                (Fate::Answered, status, body)
                            }
                            Ok((status @ (429 | 503), body)) => (Fate::Refused, status, body),
                            Ok((status, body)) => (Fate::Failed, status, body),
                            Err(e) => (Fate::Failed, 0, e.to_string()),
                        };
                        out.push((
                            i,
                            Done {
                                sent: Sent {
                                    due: p.due,
                                    sent,
                                    done: finished,
                                    fate,
                                },
                                status,
                                body,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, d) in handle.join().expect("sender threads do not panic") {
                done[i] = Some(d);
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (done.into_iter().flatten().collect(), wall)
}

/// Checks every answer: each request is accounted for exactly once, and
/// every labelling in a 2xx solve answer is valid on its instance.
fn check(planned: &[Planned], done: &[Done], report: &mut Report) {
    report.check(done.len() == planned.len(), || {
        format!(
            "serve: {} of {} requests accounted for",
            done.len(),
            planned.len()
        )
    });
    let specs: Vec<ProblemSpec> = (0..FAMILIES.len()).map(family_spec).collect();
    for (p, d) in planned.iter().zip(done) {
        report.attempted += 1;
        if d.sent.fate != Fate::Answered {
            report.failed += 1;
            let body = d.body.chars().take(200).collect::<String>();
            report.check(false, || {
                format!("serve: {} answered {}: {body}", p.kind.name(), d.status)
            });
            continue;
        }
        let doc = match Json::parse(&d.body) {
            Ok(doc) => doc,
            Err(e) => {
                report.check(false, || {
                    format!("serve: {} answer is not JSON: {e}", p.kind.name())
                });
                continue;
            }
        };
        let rows: Vec<&Json> = match p.kind {
            Kind::Solve => vec![&doc],
            Kind::SolveBatch => doc
                .get("results")
                .and_then(Json::as_arr)
                .map_or(vec![], |r| r.iter().collect()),
            Kind::Classify => {
                let class = doc.get("class").and_then(Json::as_str);
                report.check(class == Some("constant"), || {
                    format!("serve: classify gave {class:?}")
                });
                vec![]
            }
            Kind::Prepare => {
                let plan = doc.get("plan_key").and_then(Json::as_str);
                report.check(plan.is_some(), || {
                    "serve: prepare answer has no plan".to_string()
                });
                vec![]
            }
        };
        report.check(rows.len() == p.solves.len(), || {
            format!(
                "serve: {} answer has {} rows, want {}",
                p.kind.name(),
                rows.len(),
                p.solves.len()
            )
        });
        for (row, &(family, side, seed)) in rows.iter().zip(&p.solves) {
            let labels: Option<Vec<u16>> = row.get("labels").and_then(Json::as_arr).map(|ls| {
                ls.iter()
                    .filter_map(|l| l.as_u64().and_then(|v| u16::try_from(v).ok()))
                    .collect()
            });
            let inst = Instance::square(side, &IdAssignment::Shuffled { seed });
            let valid = labels
                .ok_or_else(|| "no labels".to_string())
                .and_then(|ls| specs[family].check_instance(&inst, &ls));
            report.check(valid.is_ok(), || {
                format!("serve: {} labelling invalid: {valid:?}", p.kind.name())
            });
        }
    }
}

fn latencies_ms(done: &[Done], keep: impl Fn(usize) -> bool) -> Vec<f64> {
    done.iter()
        .enumerate()
        .filter(|&(i, _)| keep(i))
        .map(|(_, d)| d.sent.latency(PENALTY_S) * 1e3)
        .collect()
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let server = setup_round(&mut setups, start, stop)?;

    if opts.trace {
        let outcome = run_traced(opts, &server, report);
        stop(server);
        return outcome;
    }

    let planned = schedule(opts.seed, opts.seconds);
    let (done, wall) = drive(server.addr(), &planned);
    stop(server);
    report.set("peak_rss_mb", crate::peak_rss_mb());
    stop(setup_round(&mut setups, start, stop)?);
    check(&planned, &done, report);
    let by_due: Vec<(f64, f64)> = done
        .iter()
        .map(|d| (d.sent.due, d.sent.latency(PENALTY_S) * 1e3))
        .collect();
    report.set("wall_s", wall);
    report.set("p50_ms", windowed_quantile(&by_due, WINDOW_S, 0.50));
    report.set("p99_ms", windowed_quantile(&by_due, WINDOW_S, 0.99));
    report.set("setup_s", median(&setups));
    crate::set_success_rate(report);
    Ok(())
}

/// Polls the server's `/metrics` until `stop`, returning the largest
/// admission queue depth seen.
fn poll_queue_depth(addr: SocketAddr, stop: &AtomicBool) -> f64 {
    let mut max = 0.0f64;
    while !stop.load(Ordering::Relaxed) {
        if let Ok((200, body)) = request(addr, "GET", "/metrics", "") {
            let depth = Json::parse(&body).ok().and_then(|doc| {
                doc.get("admission")
                    .and_then(|a| a.get("queue_depth"))
                    .and_then(Json::as_f64)
            });
            max = max.max(depth.unwrap_or(0.0));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    max
}

/// [`drive`] with `/metrics` polled for the queue depth alongside.
fn drive_polled(addr: SocketAddr, planned: &[Planned]) -> (Vec<Done>, f64) {
    let stop_poll = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_queue_depth(addr, &stop_poll));
        let (done, _) = drive(addr, planned);
        stop_poll.store(true, Ordering::Relaxed);
        (done, poller.join().expect("the poller does not panic"))
    })
}

/// The server's cumulative counters at one moment, from the Prometheus
/// exposition of `/metrics`.
struct Counters {
    /// `(upper bound µs, cumulative count)` of the solve latency
    /// histogram.
    solve_buckets: Vec<(f64, f64)>,
    busy: f64,
}

fn counters(addr: SocketAddr) -> Result<Counters, String> {
    const BUCKET: &str = "lcl_request_latency_us_bucket{endpoint=\"solve\",le=\"";
    let text = match request(addr, "GET", "/metrics?format=prometheus", "") {
        Ok((200, text)) => text,
        other => return Err(format!("cannot read /metrics: {other:?}")),
    };
    let solve_buckets = text
        .lines()
        .filter_map(|line| {
            let (le, count) = line.strip_prefix(BUCKET)?.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect::<Vec<_>>();
    if solve_buckets.is_empty() {
        return Err("/metrics has no solve latency histogram".to_string());
    }
    let busy = text
        .lines()
        .find_map(|line| line.strip_prefix("lcl_busy_rejections_total "))
        .and_then(|n| n.trim().parse().ok())
        .ok_or("/metrics has no busy counter")?;
    Ok(Counters {
        solve_buckets,
        busy,
    })
}

fn run_traced(opts: &Opts, server: &Server, report: &mut Report) -> Result<(), String> {
    let addr = server.addr();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let half = (opts.seconds / 2.0).max(1.0);

    // Both halves send the same schedule with the same poller running,
    // so their ratio is the cost of tracing alone.
    let planned = schedule(opts.seed, half);
    let (done, _) = drive_polled(addr, &planned);
    check(&planned, &done, report);
    let untraced = mean(&latencies_ms(&done, |_| true));

    let before = counters(addr)?;
    let t0 = layers::begin(1 << 20);
    let (done, queue_max) = drive_polled(addr, &planned);
    let traced = layers::end(t0);
    let after = counters(addr)?;
    check(&planned, &done, report);
    let all = latencies_ms(&done, |_| true);
    report.set("trace.overhead_ratio", mean(&all) / untraced);
    traced.report(report, &layers::Synthesised::default());
    // The stream dedup window's hits, as each batch answer counts them.
    let hits: f64 = done
        .iter()
        .filter_map(|d| Json::parse(&d.body).ok()?.get("dedup_hits")?.as_f64())
        .sum();
    report.set("engine.dedup_hits", hits);
    report.set(
        "engine.jobs",
        planned.iter().map(|p| p.solves.len()).sum::<usize>() as f64,
    );
    report.set_dedup_ratio();
    report.set("serve.samples", all.len() as f64);
    report.set("serve.queue_depth_max", queue_max);
    for kind in Kind::ALL {
        let of_kind = latencies_ms(&done, |i| planned[i].kind == kind);
        report.set(
            &format!("serve.{}.p50_ms", kind.name()),
            quantile(&of_kind, 0.50),
        );
        report.set(
            &format!("serve.{}.p99_ms", kind.name()),
            quantile(&of_kind, 0.99),
        );
    }
    let lags: Vec<f64> = done.iter().map(|d| d.sent.lag() * 1e3).collect();
    report.set("serve.gen_lag_p99_ms", quantile(&lags, 0.99));

    // The server's own view of the traced half only.
    report.set(
        "serve.server_p50_ms",
        bucket_quantile(&before.solve_buckets, &after.solve_buckets, 0.50) / 1e3,
    );
    report.set("serve.busy", after.busy - before.busy);

    // The parsing layers, timed per request on the same bodies.
    let (parsed, took) = timed(|| {
        planned
            .iter()
            .map(|p| Json::parse(&p.body))
            .collect::<Result<Vec<_>, _>>()
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    report.set(
        "serve.json_parse_us",
        took * 1e6 / planned.len().max(1) as f64,
    );
    let solves: Vec<&Json> = planned
        .iter()
        .zip(&parsed)
        .filter(|(p, _)| p.kind == Kind::Solve)
        .map(|(_, doc)| doc)
        .collect();
    let max_nodes = ServeConfig::default().max_instance_nodes;
    let (decoded, took) = timed(|| {
        solves
            .iter()
            .map(|doc| {
                let problem = doc.get("problem").ok_or("no problem")?;
                let instance = doc.get("instance").ok_or("no instance")?;
                let spec = api::parse_problem(problem).map_err(|e| e.body())?;
                let inst = api::parse_instance(instance, max_nodes).map_err(|e| e.body())?;
                Ok::<_, String>((spec, inst))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded?;
    report.set(
        "serve.api_parse_us",
        took * 1e6 / solves.len().max(1) as f64,
    );

    // The same single solves run in-process on a warm engine.
    let engine = Engine::builder()
        .max_synthesis_k(ServeConfig::default().max_synthesis_k)
        .threads(nproc())
        .build();
    for (spec, inst) in &decoded {
        engine.solve(spec, inst).map_err(|e| e.to_string())?;
    }
    let mut direct = Vec::new();
    for (spec, inst) in &decoded {
        let (solved, took) = timed(|| engine.solve(spec, inst));
        solved.map_err(|e| e.to_string())?;
        direct.push(took * 1e3);
    }
    report.set("serve.engine_direct_ms", median(&direct));
    Ok(())
}
