//! `batch`: `Engine::solve_jobs` at `threads = nproc` over a mixed batch
//! of mid-size tori, half of whose instances repeat. The seed draws the
//! identifiers and the job order; the mix of problems and sides is the
//! same for every seed, so every seed does the same amount of work. Synthesis is warmed
//! during set-up, so the normal form `A' ∘ S_k` runs at volume through
//! the worker pool, batch dedup, validation and the LOCAL simulator
//! (the engine's debug validation replays Cole–Vishkin as a real
//! message-passing protocol per solve) with almost no SAT.

use crate::layers;
use crate::{derive_seed, nproc, setup_round, timed, Opts, Passes, Report};
use lcl_grids::core::problems::XSet;
use lcl_grids::core::Label;
use lcl_grids::engine::{Engine, Instance, Job, PreparedProblem, ProblemSpec};
use lcl_grids::grid::Metric;
use lcl_grids::local::{IdAssignment, SplitMix64};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct instances per (problem, side) pair; each is submitted twice.
const PER_PAIR: usize = 3;
/// Torus sides of the instances.
const SIDES: [usize; 3] = [40, 48, 56];

fn specs() -> [ProblemSpec; 3] {
    [
        ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4])),
        ProblemSpec::mis_power(Metric::L1, 2),
        ProblemSpec::edge_colouring(5),
    ]
}

fn engine(threads: usize) -> Engine {
    Engine::builder()
        .threads(threads)
        .max_synthesis_k(1)
        .debug_validation(true)
        .build()
}

/// The batch's (problem index, side, id seed) triples: `PER_PAIR` id
/// seeds for every (problem, side) pair, each appearing twice, in a
/// seeded order.
fn shape(seed: u64) -> Vec<(usize, usize, u64)> {
    let mut rng = SplitMix64::new(derive_seed(seed, 0xba7c));
    let mut distinct = Vec::new();
    for problem in 0..specs().len() {
        for side in SIDES {
            for _ in 0..PER_PAIR {
                distinct.push((problem, side, rng.next_u64()));
            }
        }
    }
    let mut all: Vec<_> = distinct.iter().chain(&distinct).copied().collect();
    rng.shuffle(&mut all);
    all
}

/// Engine, prepared problems with warm synthesis, and the job list.
struct Ready {
    engine: Engine,
    jobs: Vec<Job>,
}

fn setup(threads: usize, seed: u64) -> Result<Ready, String> {
    let engine = engine(threads);
    let prepared: Vec<Arc<PreparedProblem>> = specs()
        .iter()
        .map(|s| engine.prepare(s).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    // Warm every plan's synthesis and tier choice on a small instance.
    for p in &prepared {
        p.solve(&Instance::square(SIDES[0], &IdAssignment::Sequential))
            .map_err(|e| format!("warm-up {}: {e}", p.spec().name()))?;
    }
    let jobs = shape(seed)
        .into_iter()
        .map(|(problem, side, ids)| {
            Job::new(
                Arc::clone(&prepared[problem]),
                Instance::square(side, &IdAssignment::Shuffled { seed: ids }),
            )
        })
        .collect();
    Ok(Ready { engine, jobs })
}

/// Labels and solver of one solved job.
type Outcome = Result<(Vec<Label>, String), String>;

/// Solves the batch once; also returns each job's solve time in ms from
/// the engine's cost ledger.
fn solve(ready: &Ready, report: &mut Report) -> (Vec<Outcome>, Vec<f64>) {
    let batch = ready.engine.solve_jobs(&ready.jobs);
    let job_ms = batch
        .results()
        .iter()
        .flatten()
        .map(|l| l.report.cost.total_us as f64 / 1e3)
        .collect();
    report.attempted += ready.jobs.len() as u64;
    report.failed += batch.failed() as u64;
    report.add("engine.dedup_hits", batch.dedup_hits() as f64);
    report.add("engine.jobs", ready.jobs.len() as f64);
    let outcomes = batch
        .into_results()
        .into_iter()
        .map(|r| {
            r.map(|l| (l.labels, l.report.solver))
                .map_err(|e| e.to_string())
        })
        .collect();
    (outcomes, job_ms)
}

/// Every labelling is valid and equal to the single-thread result.
fn check(ready: &Ready, outcomes: &[Outcome], reference: &[Outcome], report: &mut Report) {
    for (i, (job, (got, want))) in ready
        .jobs
        .iter()
        .zip(outcomes.iter().zip(reference))
        .enumerate()
    {
        report.check(got == want, || {
            format!("batch job {i}: differs from the 1-thread result")
        });
        match got {
            Ok((labels, _)) => {
                let valid = job.prepared.spec().check_instance(&job.instance, labels);
                report.check(valid.is_ok(), || {
                    format!("batch job {i}: invalid labelling: {valid:?}")
                });
            }
            Err(e) => report.check(false, || format!("batch job {i}: {e}")),
        }
    }
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let mut passes = Passes::default();
    let ready = setup_round(&mut passes.setups, || setup(nproc(), opts.seed), drop)?;
    let reference = {
        let single = setup(1, opts.seed)?;
        solve(&single, &mut Report::default()).0
    };

    if opts.trace {
        let started = Instant::now();
        let (outcomes, _) = solve(&ready, report);
        let untraced_s = started.elapsed().as_secs_f64();
        check(&ready, &outcomes, &reference, report);
        report.set("engine.dedup_hits", 0.0);
        report.set("engine.jobs", 0.0);
        let t0 = layers::begin(1 << 20);
        let (outcomes, _) = solve(&ready, report);
        let traced = layers::end(t0);
        check(&ready, &outcomes, &reference, report);
        report.set("trace.overhead_ratio", traced.wall_s() / untraced_s);
        traced.report(report, &layers::Synthesised::default());
        report.set_dedup_ratio();
        return Ok(());
    }

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    loop {
        let ((outcomes, job_ms), took) = timed(|| solve(&ready, report));
        passes.walls.push(took);
        passes.ops_ms.push(job_ms);
        check(&ready, &outcomes, &reference, report);
        // One more set-up after every pass spreads the set-up samples
        // over the whole run; the one in use is kept.
        let (spare, took) = timed(|| setup(nproc(), opts.seed));
        passes.setups.push(took);
        drop(spare?);
        if Instant::now() >= deadline {
            break;
        }
    }
    passes.peak_rss_mb = crate::peak_rss_mb();
    setup_round(&mut passes.setups, || setup(nproc(), opts.seed), drop)?;
    passes.finish(report);
    Ok(())
}
