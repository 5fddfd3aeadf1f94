//! The `lcl-serve` binary: bind the service and run until a
//! `POST /shutdown` drains it.
//!
//! ```text
//! lcl-serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!           [--engine-threads N] [--max-batch-jobs N]
//!           [--max-instance-nodes N] [--max-tenants N]
//!           [--default-deadline-ms N] [--chaos-seed N]
//!           [--trace-sample-rate F] [--slow-ms N]
//!           [--log-level off|info|debug] [--atlas PATH]
//!           [--port-file PATH]
//! ```
//!
//! `--port-file` writes the bound `host:port` to a file once the socket
//! is live — the hook CI's serve-smoke job uses to find an ephemeral
//! port without racing the bind.
//!
//! `--chaos-seed` arms the engine's deterministic fault-injection
//! battery (DESIGN.md §10): solver panics and artificial latency, both
//! scheduled purely by the seed. Off by default; never arm it in
//! production.
//!
//! `--trace-sample-rate` / `--slow-ms` enable span tracing (DESIGN.md
//! §12): sampled and slow requests are captured and served back at
//! `GET /trace/<id>` as Chrome Trace JSON. `--log-level` turns on
//! JSON-lines request logging to stderr.

use lcl_grids::engine::ChaosConfig;
use lcl_serve::{LogLevel, ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut config = ServeConfig::default();
    let mut port_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let result: Result<(), String> = match arg.as_str() {
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--workers" => parse(value("--workers"), &mut config.workers),
            "--queue-cap" => parse(value("--queue-cap"), &mut config.queue_cap),
            "--engine-threads" => parse(value("--engine-threads"), &mut config.engine_threads),
            "--max-batch-jobs" => parse(value("--max-batch-jobs"), &mut config.max_batch_jobs),
            "--max-instance-nodes" => parse(
                value("--max-instance-nodes"),
                &mut config.max_instance_nodes,
            ),
            "--max-tenants" => parse(value("--max-tenants"), &mut config.max_tenants),
            "--default-deadline-ms" => value("--default-deadline-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| config.default_deadline = Some(Duration::from_millis(ms)))
                    .map_err(|_| format!("'{v}' is not a non-negative integer"))
            }),
            "--chaos-seed" => value("--chaos-seed").and_then(|v| {
                v.parse::<u64>()
                    .map(|seed| config.chaos = Some(ChaosConfig::from_seed(seed)))
                    .map_err(|_| format!("'{v}' is not a non-negative integer"))
            }),
            "--trace-sample-rate" => value("--trace-sample-rate").and_then(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|rate| (0.0..=1.0).contains(rate))
                    .map(|rate| config.trace_sample_rate = rate)
                    .ok_or_else(|| format!("'{v}' is not a sample rate in 0.0..=1.0"))
            }),
            "--slow-ms" => value("--slow-ms").and_then(|v| {
                v.parse::<u64>()
                    .map(|ms| config.slow_ms = Some(ms))
                    .map_err(|_| format!("'{v}' is not a non-negative integer"))
            }),
            "--log-level" => value("--log-level").and_then(|v| {
                LogLevel::parse(&v)
                    .map(|level| config.log_level = level)
                    .ok_or_else(|| format!("'{v}' is not off|info|debug"))
            }),
            "--atlas" => value("--atlas").map(|v| {
                config.atlas_path = Some(std::path::PathBuf::from(v));
            }),
            "--port-file" => value("--port-file").map(|v| port_file = Some(v)),
            "--help" | "-h" => {
                println!(
                    "lcl-serve: networked LCL solve service\n\
                     \n\
                     options:\n\
                     \x20 --addr HOST:PORT        bind address (default 127.0.0.1:0)\n\
                     \x20 --workers N             HTTP worker threads (default 4)\n\
                     \x20 --queue-cap N           admission queue bound (default 64)\n\
                     \x20 --engine-threads N      engine threads, 0 = all cores (default 0)\n\
                     \x20 --max-batch-jobs N      per-batch job cap (default 1024)\n\
                     \x20 --max-instance-nodes N  per-instance node cap (default 65536)\n\
                     \x20 --max-tenants N         tenant namespace cap (default 64)\n\
                     \x20 --default-deadline-ms N deadline for requests naming none (default: unlimited)\n\
                     \x20 --chaos-seed N          arm deterministic fault injection (default: off)\n\
                     \x20 --trace-sample-rate F   capture this fraction of request traces (default 0.0)\n\
                     \x20 --slow-ms N             also capture requests slower than N ms (default: off)\n\
                     \x20 --log-level LEVEL       request logging to stderr: off|info|debug (default off)\n\
                     \x20 --atlas PATH            serve a census artifact at GET /atlas/… and seed\n\
                     \x20                         classification from it (default: off)\n\
                     \x20 --port-file PATH        write the bound address here once live"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag '{other}' (try --help)")),
        };
        if let Err(message) = result {
            eprintln!("lcl-serve: {message}");
            return ExitCode::FAILURE;
        }
    }

    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("lcl-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("lcl-serve: cannot write port file {path}: {e}");
            server.shutdown();
            server.wait();
            return ExitCode::FAILURE;
        }
    }
    eprintln!("lcl-serve: listening on {addr} (POST /shutdown to stop)");
    server.wait();
    eprintln!("lcl-serve: drained, bye");
    ExitCode::SUCCESS
}

/// Parses one numeric flag value in place.
fn parse(value: Result<String, String>, slot: &mut usize) -> Result<(), String> {
    let value = value?;
    *slot = value
        .parse()
        .map_err(|_| format!("'{value}' is not a non-negative integer"))?;
    Ok(())
}
