//! `perfbench`: the repository's benchmark. One run executes one named
//! workload on inputs generated from a seed, checks every output, and
//! prints its metrics as one JSON object on the last line of stdout.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|census|batch|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload once untraced and once with the
//! `lcl_trace` collector on, and reports the per-layer metrics read from
//! the spans plus the harness's own timings of calls into each module.
//! Why each workload exists and which layers it isolates is in
//! `perfbench/README.md`.

mod batch;
mod census;
mod layers;
mod paper;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Metrics a user of the system sees; printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers; printed by every `--trace 1` run. A layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("sat.calls", "count"),
    ("sat.ms", "ms"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("synthesis.calls", "count"),
    ("synthesis.ms", "ms"),
    ("synthesis.tiles_ms", "ms"),
    ("symmetry.mis_power_ms", "ms"),
    ("speedup.ms", "ms"),
    ("paper.e7.rounds.n16", "count"),
    ("paper.e7.rounds.n32", "count"),
    ("paper.e7.rounds.n64", "count"),
    ("paper.e7.ell.n16", "count"),
    ("paper.e7.ell.n32", "count"),
    ("paper.e7.ell.n64", "count"),
    ("paper.e7.anchors.n16", "count"),
    ("paper.e7.anchors.n32", "count"),
    ("paper.e7.anchors.n64", "count"),
    ("paper.e12.rounds.n128", "count"),
    ("engine.prepare_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.classify_ms", "ms"),
    ("engine.solvable_ms", "ms"),
    ("engine.validate_ms", "ms"),
    ("engine.dedup_hits", "count"),
    ("engine.dedup_ratio", "ratio"),
    ("local.simulate_ms", "ms"),
    ("local.rounds", "count"),
    ("atlas.enumerate_ms", "ms"),
    ("atlas.candidates", "count"),
    ("atlas.problems", "count"),
    ("atlas.artifact_ms", "ms"),
    ("serve.solve.p50_ms", "ms"),
    ("serve.solve.p99_ms", "ms"),
    ("serve.solve-batch.p50_ms", "ms"),
    ("serve.solve-batch.p99_ms", "ms"),
    ("serve.classify.p50_ms", "ms"),
    ("serve.classify.p99_ms", "ms"),
    ("serve.prepare.p50_ms", "ms"),
    ("serve.prepare.p99_ms", "ms"),
    ("serve.json_parse_us", "us"),
    ("serve.api_parse_us", "us"),
    ("serve.server_p50_ms", "ms"),
    ("serve.engine_direct_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.busy", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.dropped", "count"),
    ("trace.events", "count"),
    ("attributed_share", "ratio"),
    ("error_rate", "ratio"),
    ("serve.samples", "count"),
    ("engine.jobs", "count"),
];

/// Set-up is timed in rounds: one before timing begins and one after it
/// ends (batch also times one set-up after every pass). A round repeats
/// set-up at least this often, and until it has taken [`MIN_SETUP_S`];
/// `setup_s` is the median over every round. Rounds far apart in time
/// average over the host's drift in throughput, which one round cannot.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_S: f64 = 1.0;

/// True while a round still owes set-up repetitions.
fn more_setups(round: &[f64]) -> bool {
    round.len() < MIN_SETUPS || (round.iter().sum::<f64>() < MIN_SETUP_S && round.len() < 100_000)
}

/// One run's settings.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run found: output checks, operation counts and metrics.
#[derive(Default)]
pub struct Report {
    /// Output checks that failed (the run is then not correct).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// `engine.dedup_ratio`: dedup hits over jobs submitted.
    pub fn set_dedup_ratio(&mut self) {
        let get = |name: &str| self.metrics.get(name).copied().unwrap_or(0.0);
        let ratio = get("engine.dedup_hits") / get("engine.jobs").max(1.0);
        self.set("engine.dedup_ratio", ratio);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.problems.push(what);
        }
    }
}

/// Timings of a workload made of repeated fixed passes.
#[derive(Default)]
pub struct Passes {
    /// Seconds per set-up.
    pub setups: Vec<f64>,
    /// Seconds per pass.
    pub walls: Vec<f64>,
    /// Milliseconds per operation, one list per pass.
    pub ops_ms: Vec<Vec<f64>>,
    /// Peak RSS when the timed phase ended, before the last set-up
    /// round.
    pub peak_rss_mb: f64,
}

impl Passes {
    /// Fills in every end-to-end metric from the recorded timings. The
    /// operation quantiles are taken per pass and averaged across passes,
    /// so they do not shift with the number of passes that fit in the
    /// run. Pass figures are combined by their interquartile mean, not
    /// their median: the host switches between a fast and a slow state
    /// for seconds at a time, and the median of many passes would jump
    /// between the two.
    pub fn finish(&self, report: &mut Report) {
        let per_pass = |q: f64| {
            let each: Vec<f64> = self
                .ops_ms
                .iter()
                .map(|ops| stats::quantile(ops, q))
                .collect();
            stats::interquartile_mean(&each)
        };
        report.set("setup_s", stats::median(&self.setups));
        report.set("wall_s", stats::interquartile_mean(&self.walls));
        report.set("p50_ms", per_pass(0.50));
        report.set("p99_ms", per_pass(0.99));
        report.set("peak_rss_mb", self.peak_rss_mb);
        set_success_rate(report);
    }
}

/// `success_rate`: operations that did not fail over those attempted.
pub fn set_success_rate(report: &mut Report) {
    let attempted = report.attempted.max(1) as f64;
    report.set(
        "success_rate",
        (attempted - report.failed as f64) / attempted,
    );
}

/// Times `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Runs a call into one layer inside a harness span named after it
/// (inert when tracing is off).
pub fn layer<T>(span: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = lcl_trace::span(lcl_trace::SpanKind::Mark, span);
    f()
}

/// One round of set-up: runs `setup` while [`more_setups`], recording
/// each duration in `setups`, hands every result but the last to
/// `discard`, and returns the last.
pub fn setup_round<R>(
    setups: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<R, String>,
    mut discard: impl FnMut(R),
) -> Result<R, String> {
    let mut round = Vec::new();
    loop {
        let (ready, took) = timed(&mut setup);
        round.push(took);
        let ready = ready?;
        if !more_setups(&round) {
            setups.extend(round);
            return Ok(ready);
        }
        discard(ready);
    }
}

/// Repeats passes until `seconds` have elapsed (at least one). Each pass
/// gets a fresh set-up; only the rounds before and after timing count
/// towards `setup_s`.
pub fn run_passes<R>(
    seconds: f64,
    passes: &mut Passes,
    mut setup: impl FnMut() -> Result<R, String>,
    mut pass: impl FnMut(&mut R, &mut Passes) -> Result<(), String>,
) -> Result<(), String> {
    let mut ready = setup_round(&mut passes.setups, &mut setup, drop)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let (done, took) = timed(|| pass(&mut ready, passes));
        done?;
        passes.walls.push(took);
        if Instant::now() >= deadline {
            break;
        }
        ready = setup()?;
    }
    passes.peak_rss_mb = peak_rss_mb();
    drop(ready);
    setup_round(&mut passes.setups, &mut setup, drop).map(drop)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The number of CPUs the process may use. Read once: the query reads
/// cgroup files, which would otherwise dominate the census's set-up.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A seed for one named input of a run, so that inputs differ between
/// seeds but never between passes of one run.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    lcl_grids::local::SplitMix64::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// The commit being measured: `git rev-parse HEAD` in the working
/// directory, or "unknown" when that is not a git checkout. Git is kept
/// from searching the directories above it.
fn commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]).stderr(Stdio::null());
    if let Some(above) = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    git.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|head| head.trim().to_string())
        .filter(|head| !head.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("--seconds: bad value {value}"))?
            }
            "--trace" => opts.trace = value != "0",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok((workload, opts))
}

fn json_str(s: &str) -> String {
    lcl_serve::json::Json::str(s).to_string()
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "paper" => paper::run(&opts, &mut report),
        "census" => census::run(&opts, &mut report),
        "batch" => batch::run(&opts, &mut report),
        "serve" => serve::run(&opts, &mut report),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    if opts.trace {
        report.set(
            "error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
    }

    let names: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!opts.trace && value <= 0.0) {
            eprintln!("perfbench: metric {name} is {value}");
            return ExitCode::FAILURE;
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"commit\": {}, \"profile\": {}}}}}",
        json_str(&workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        nproc(),
        json_str(&commit()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_serve::json::Json;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this harness prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, ["paper", "census", "batch", "serve"]);
    }

    #[test]
    fn derived_seeds_differ_by_seed_and_salt() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
    }
}
