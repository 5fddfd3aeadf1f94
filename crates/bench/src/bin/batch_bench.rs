//! Offline benchmark for the batch-solving performance subsystem.
//!
//! Measures, on one machine and with no external crates:
//!
//! 1. **Batch throughput**: sequential (`threads(1)`) vs parallel
//!    (`threads(0)` = all cores) `solve_batch` on a warm registry, plus
//!    the in-batch labelling dedup on a batch with repeated instances.
//! 2. **Mixed-topology batch**: 3-d tori through the same engine.
//! 3. **Mixed-problem streaming**: two prepared problems interleaved
//!    through `solve_stream`, drained in bounded memory.
//!
//! Writes a JSON report (default `BENCH_batch.json`) for the repo's perf
//! trajectory; `cores` and `threads` record the parallel envelope the
//! numbers were taken in. `--smoke` shrinks the workload to seconds so
//! CI can keep the binary honest without benchmarking anything.
//!
//! Usage: `batch_bench [--smoke] [--out PATH] [--batch N] [--side N]`

use lcl_grids::core::problems::XSet;
use lcl_grids::engine::{Engine, Instance, Job, PreparedProblem, ProblemSpec, Registry};
use lcl_grids::local::IdAssignment;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Config {
    smoke: bool,
    out: PathBuf,
    batch: usize,
    side: usize,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        smoke: false,
        out: PathBuf::from("BENCH_batch.json"),
        batch: 0,
        side: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--smoke" => cfg.smoke = true,
            "--out" => cfg.out = PathBuf::from(value("--out")),
            "--batch" => cfg.batch = value("--batch").parse().expect("--batch: integer"),
            "--side" => cfg.side = value("--side").parse().expect("--side: integer"),
            other => panic!("unknown argument {other} (try --smoke, --out, --batch, --side)"),
        }
    }
    if cfg.batch == 0 {
        cfg.batch = if cfg.smoke { 8 } else { 64 };
    }
    if cfg.side == 0 {
        cfg.side = if cfg.smoke { 8 } else { 20 };
    }
    cfg
}

fn spec() -> ProblemSpec {
    // {1,3,4}-orientation: synthesises at k = 1 (Lemma 23), so the cold
    // path exercises one real SAT call and the solve path is the full
    // normal form A' ∘ S_k.
    ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4]))
}

fn engine(registry: &Arc<Registry>, threads: usize, dedup: bool) -> Engine {
    Engine::builder()
        .max_synthesis_k(1)
        .registry(Arc::clone(registry))
        .threads(threads)
        .dedup(dedup)
        .build()
}

fn prepared(engine: &Engine) -> Arc<PreparedProblem> {
    engine
        .prepare(&spec())
        .expect("orientation has a solver plan")
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let cfg = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // Warm the synthesis memo once, outside every timed section.
    let probe = Instance::square(cfg.side, &IdAssignment::Shuffled { seed: 1 });
    let warm_registry = Arc::new(Registry::new());
    prepared(&engine(&warm_registry, 1, true))
        .solve(&probe)
        .expect("warm-up solve");
    assert_eq!(warm_registry.synth_stats().synthesised, 1);

    // ── 1. Batch throughput on a warm registry ─────────────────────────
    let distinct = (cfg.batch / 2).max(1);
    let batch: Vec<Instance> = (0..cfg.batch)
        .map(|i| {
            Instance::square(
                cfg.side,
                &IdAssignment::Shuffled {
                    seed: (i % distinct) as u64,
                },
            )
        })
        .collect();

    let seq_engine = engine(&warm_registry, 1, false);
    let seq_prepared = prepared(&seq_engine);
    let started = Instant::now();
    let sequential = seq_engine.solve_batch(&seq_prepared, &batch);
    let seq_ms = ms(started);
    assert_eq!(sequential.solved(), cfg.batch);

    let par_engine = engine(&warm_registry, 0, false);
    let par_prepared = prepared(&par_engine);
    let started = Instant::now();
    let parallel = par_engine.solve_batch(&par_prepared, &batch);
    let par_ms = ms(started);
    assert_eq!(parallel.solved(), cfg.batch);

    let dedup_engine = engine(&warm_registry, 0, true);
    let dedup_prepared = prepared(&dedup_engine);
    let started = Instant::now();
    let deduped = dedup_engine.solve_batch(&dedup_prepared, &batch);
    let dedup_ms = ms(started);
    assert_eq!(deduped.solved(), cfg.batch);
    assert_eq!(deduped.dedup_hits(), cfg.batch - distinct);

    // ── 2. Mixed-topology batch: TorusD through the same engine ────────
    // Edge 2d-colouring on 3-dimensional tori via the registered
    // Theorem 21 solver, with even (solvable), odd (exactly unsolvable),
    // and duplicate entries — keeps the d-dimensional dispatch path and
    // its dedup keys honest in CI smoke runs.
    let ddim_side = if cfg.side.is_multiple_of(2) {
        cfg.side
    } else {
        cfg.side + 1
    };
    let ddim_batch: Vec<Instance> = (0..cfg.batch)
        .map(|i| match i % 3 {
            0 => Instance::torus_d(3, ddim_side, &IdAssignment::Sequential),
            1 => Instance::torus_d(3, ddim_side + 1, &IdAssignment::Sequential), // odd side
            _ => Instance::torus_d(3, ddim_side, &IdAssignment::Sequential),     // dup of 0
        })
        .collect();
    let ddim_engine = Engine::builder().max_synthesis_k(1).threads(0).build();
    let ddim_prepared = ddim_engine
        .prepare(&ProblemSpec::edge_colouring(6))
        .expect("edge 2d-colouring has a d-dimensional solver plan");
    let started = Instant::now();
    let ddim_report = ddim_engine.solve_batch(&ddim_prepared, &ddim_batch);
    let ddim_ms = ms(started);
    assert!(ddim_report.solved() > 0, "even-side 3-d tori must solve");
    assert!(
        ddim_report.failed() > 0 || cfg.batch < 2,
        "odd-side 3-d tori must be exactly unsolvable"
    );
    assert!(
        ddim_report.dedup_hits() > 0 || cfg.batch < 3,
        "duplicate TorusD instances must dedup"
    );

    // ── 3. Mixed-problem stream: two prepared problems interleaved ─────
    // The {1,3,4}-orientation (synthesised log* normal form, warm) and
    // the power-MIS substrate share one engine and one stream; the input
    // is a lazy iterator, drained through the bounded channel in
    // O(threads) memory. Verifies count and per-problem success.
    let stream_engine = engine(&warm_registry, 0, true);
    let stream_jobs = 2 * cfg.batch;
    let orientation = prepared(&stream_engine);
    let mis = stream_engine
        .prepare(&ProblemSpec::mis_power(lcl_grids::grid::Metric::L1, 2))
        .expect("mis-power has a solver plan");
    // Warm both plans so the stream measures steady-state throughput.
    orientation.solve(&probe).expect("orientation warm-up");
    mis.solve(&probe).expect("mis warm-up");
    let side = cfg.side;
    let lazy_jobs = (0..stream_jobs as u64).map(move |i| {
        let prepared = if i % 2 == 0 { &orientation } else { &mis };
        Job::new(
            Arc::clone(prepared),
            Instance::square(side, &IdAssignment::Shuffled { seed: i / 2 }),
        )
    });
    let started = Instant::now();
    let stream = stream_engine.solve_stream(lazy_jobs);
    let stream_threads = stream.threads();
    let mut stream_solved = 0usize;
    let mut stream_failed = 0usize;
    for outcome in stream {
        match outcome.result {
            Ok(_) => stream_solved += 1,
            Err(e) => {
                stream_failed += 1;
                eprintln!(
                    "stream job {} ({}) failed: {e}",
                    outcome.index, outcome.problem
                );
            }
        }
    }
    let stream_ms = ms(started);
    assert_eq!(stream_solved + stream_failed, stream_jobs);
    assert_eq!(stream_failed, 0, "both stream problems solve when warm");

    let threads = parallel.threads();
    let throughput = |total_ms: f64| cfg.batch as f64 / (total_ms / 1e3);
    let json = format!(
        r#"{{
  "bench": "batch_bench",
  "smoke": {smoke},
  "cores": {cores},
  "threads": {threads},
  "batch_size": {batch},
  "distinct_instances": {distinct},
  "torus_side": {side},
  "ddim_batch": {{
    "torus": "3-d, side {ddim_side}",
    "total_ms": {ddim_ms:.3},
    "solved": {ddim_solved},
    "unsolvable": {ddim_failed},
    "dedup_hits": {ddim_dedup}
  }},
  "mixed_stream": {{
    "problems": "{{1,3,4}}-orientation + mis-power-l1-2, interleaved",
    "jobs": {stream_jobs},
    "threads": {stream_threads},
    "total_ms": {stream_ms:.3},
    "solved": {stream_solved},
    "jobs_per_s": {stream_tp:.1}
  }},
  "throughput": {{
    "sequential_ms": {seq_ms:.3},
    "parallel_ms": {par_ms:.3},
    "parallel_threads": {par_threads},
    "parallel_speedup": {par_speedup:.3},
    "sequential_inst_per_s": {seq_tp:.1},
    "parallel_inst_per_s": {par_tp:.1},
    "dedup_ms": {dedup_ms:.3},
    "dedup_hits": {dedup_hits},
    "dedup_speedup_vs_sequential": {dedup_speedup:.3}
  }},
  "note": "parallel speedup is bounded by the core count reported above"
}}
"#,
        smoke = cfg.smoke,
        cores = cores,
        threads = threads,
        batch = cfg.batch,
        distinct = distinct,
        side = cfg.side,
        ddim_side = ddim_side,
        ddim_ms = ddim_ms,
        ddim_solved = ddim_report.solved(),
        ddim_failed = ddim_report.failed(),
        ddim_dedup = ddim_report.dedup_hits(),
        stream_jobs = stream_jobs,
        stream_threads = stream_threads,
        stream_ms = stream_ms,
        stream_solved = stream_solved,
        stream_tp = stream_jobs as f64 / (stream_ms / 1e3),
        seq_ms = seq_ms,
        par_ms = par_ms,
        par_threads = parallel.threads(),
        par_speedup = seq_ms / par_ms,
        seq_tp = throughput(seq_ms),
        par_tp = throughput(par_ms),
        dedup_ms = dedup_ms,
        dedup_hits = deduped.dedup_hits(),
        dedup_speedup = seq_ms / dedup_ms,
    );
    std::fs::write(&cfg.out, &json).expect("write bench report");
    print!("{json}");
    eprintln!("wrote {}", cfg.out.display());
}
