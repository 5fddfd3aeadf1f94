//! Integration tests for the prepared-plan service API: one shared,
//! `Send + Sync` [`Engine`] serving many problems through memoised
//! [`PreparedProblem`] handles, and the streaming batch surface.
//!
//! Pins the acceptance criteria of the redesign: prepared-vs-fresh-engine
//! byte identity for every registered problem on every topology, one plan
//! resolution per distinct canonical cache key under repeated
//! `engine.solve(&spec, …)`, and `solve_stream` draining a 10 000-job
//! lazy iterator without materialising the input.

use lcl_grids::engine::{Engine, Instance, Job, PreparedProblem, ProblemSpec, Registry, Topology};
use lcl_grids::local::IdAssignment;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The service types are shareable across threads by construction; a
/// regression here is a compile error, not a runtime failure.
#[test]
fn engine_and_prepared_problem_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<PreparedProblem>();
    assert_send_sync::<Arc<PreparedProblem>>();
    assert_send_sync::<Arc<Registry>>();
    assert_send_sync::<Job>();
}

/// One engine, two threads, two different problems — sharing by
/// reference (no clone, no per-thread engine), with concurrent `prepare`
/// calls for the *same* problem resolving its plan exactly once.
#[test]
fn one_engine_shared_across_threads_and_problems() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let even = Instance::square(6, &IdAssignment::Sequential);
    std::thread::scope(|scope| {
        let solver_a = scope.spawn(|| {
            let labelling = engine
                .solve(&ProblemSpec::vertex_colouring(2), &even)
                .unwrap();
            assert!(labelling.report.validated);
        });
        let solver_b = scope.spawn(|| {
            let labelling = engine
                .solve(&ProblemSpec::independent_set(), &even)
                .unwrap();
            assert!(labelling.labels.iter().all(|&l| l == 0));
        });
        // Two more threads race to prepare one problem: single-flight.
        let racer_a = scope.spawn(|| engine.prepare(&ProblemSpec::edge_colouring(5)).unwrap());
        let racer_b = scope.spawn(|| engine.prepare(&ProblemSpec::edge_colouring(5)).unwrap());
        let plan_a = racer_a.join().unwrap();
        let plan_b = racer_b.join().unwrap();
        assert!(
            Arc::ptr_eq(&plan_a, &plan_b),
            "racing prepares must share one plan"
        );
        solver_a.join().unwrap();
        solver_b.join().unwrap();
    });
    assert_eq!(engine.prepared_plans(), 3);
    assert_eq!(engine.prepare_stats().resolved, 3, "one resolution per key");
}

/// For every registered problem and every topology, solving through a
/// handle prepared on one shared engine is byte-identical — labels,
/// reports, and typed errors alike — to solving through a fresh
/// single-purpose engine with its own registry.
#[test]
fn prepared_solves_match_fresh_engine_on_every_topology() {
    let shared = Engine::builder().max_synthesis_k(2).build();
    let instances = [
        Instance::square(12, &IdAssignment::Shuffled { seed: 2017 }),
        Instance::torus_d(3, 4, &IdAssignment::Sequential),
        Instance::boundary(5),
    ];
    for spec in Registry::problems() {
        let name = spec.name().to_string();
        let prepared = shared
            .prepare(&spec)
            .unwrap_or_else(|e| panic!("{name}: prepare failed: {e}"));
        let fresh = Engine::builder()
            .max_synthesis_k(2)
            .build()
            .prepare(&spec)
            .unwrap_or_else(|e| panic!("{name}: fresh prepare failed: {e}"));
        assert_eq!(prepared.cache_key(), fresh.cache_key(), "{name}");
        assert_eq!(prepared.solver_names(), fresh.solver_names(), "{name}");
        for inst in &instances {
            assert_eq!(
                format!("{:?}", prepared.solve(inst)),
                format!("{:?}", fresh.solve(inst)),
                "{name} diverged between shared and fresh engines on {inst}"
            );
        }
        if spec.home_topology() != Topology::Boundary {
            assert_eq!(prepared.classify(), fresh.classify(), "{name}");
        }
    }
}

/// `engine.solve(&spec, …)` prepares once per distinct canonical cache
/// key: independent compilations of one `lcl-lang` source — and an
/// equal hand-built block table under the same name — all land on the
/// same memoised plan (pointer-equal handles), while a genuinely
/// different problem resolves its own.
#[test]
fn solve_prepares_once_per_distinct_cache_key() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let src = "problem two-colouring { alphabet { black, white } edges differ }";
    let compiled_a = ProblemSpec::compile(src).unwrap();
    let compiled_b = ProblemSpec::compile(src).unwrap();
    let hand_built = ProblemSpec::block(
        "two-colouring",
        ProblemSpec::vertex_colouring(2).to_block_lcl().unwrap(),
    );
    let even = Instance::square(6, &IdAssignment::Sequential);

    for spec in [&compiled_a, &compiled_b, &hand_built, &compiled_a] {
        engine.solve(spec, &even).unwrap();
    }
    assert_eq!(engine.prepared_plans(), 1, "one plan for all spellings");
    let stats = engine.prepare_stats();
    assert_eq!(stats.resolved, 1, "the plan was resolved exactly once");
    assert_eq!(stats.hits, 3, "every later solve hit the memo");

    // The handles are literally the same object.
    let from_a = engine.prepare(&compiled_a).unwrap();
    let from_b = engine.prepare(&compiled_b).unwrap();
    let from_table = engine.prepare(&hand_built).unwrap();
    assert!(Arc::ptr_eq(&from_a, &from_b));
    assert!(Arc::ptr_eq(&from_a, &from_table));
    assert_eq!(engine.prepare_stats().resolved, 1);

    // A different problem is a different key and a fresh resolution.
    engine
        .solve(&ProblemSpec::independent_set(), &even)
        .unwrap();
    assert_eq!(engine.prepared_plans(), 2);
    assert_eq!(engine.prepare_stats().resolved, 2);
}

/// A lazy iterator that counts how many jobs the stream has pulled —
/// the probe for the backpressure bound.
struct CountingJobs<I> {
    inner: I,
    pulled: Arc<AtomicUsize>,
}

impl<I: Iterator<Item = Job>> Iterator for CountingJobs<I> {
    type Item = Job;
    fn next(&mut self) -> Option<Job> {
        let next = self.inner.next();
        if next.is_some() {
            self.pulled.fetch_add(1, Ordering::SeqCst);
        }
        next
    }
}

/// `solve_stream` over a 10 000-job lazy iterator completes without
/// materialising the input: at every step, the number of jobs pulled
/// from the iterator but not yet yielded to the consumer stays within
/// the stream's documented buffer bound (one in-flight job per worker
/// plus one buffered result per worker).
#[test]
fn stream_backpressure_never_materialises_the_input() {
    const JOBS: usize = 10_000;
    let engine = Engine::builder().threads(2).build();
    let prepared = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    let pulled = Arc::new(AtomicUsize::new(0));
    let jobs = CountingJobs {
        inner: (0..JOBS as u64).map({
            let prepared = Arc::clone(&prepared);
            move |seed| {
                Job::new(
                    Arc::clone(&prepared),
                    Instance::square(4, &IdAssignment::Shuffled { seed }),
                )
            }
        }),
        pulled: Arc::clone(&pulled),
    };

    let stream = engine.solve_stream(jobs);
    let bound = stream.buffer_bound();
    assert_eq!(stream.threads(), 2);
    let mut seen = vec![false; JOBS];
    let mut consumed = 0usize;
    let mut peak_buffered = 0usize;
    for outcome in stream {
        consumed += 1;
        let in_buffer = pulled.load(Ordering::SeqCst).saturating_sub(consumed);
        peak_buffered = peak_buffered.max(in_buffer);
        assert!(
            in_buffer <= bound,
            "stream pulled {in_buffer} jobs ahead of the consumer (bound {bound})"
        );
        let index = usize::try_from(outcome.index).unwrap();
        assert!(!seen[index], "job {index} yielded twice");
        seen[index] = true;
        assert_eq!(outcome.problem, "independent-set");
        assert!(outcome.result.is_ok(), "job {index} failed");
    }
    assert_eq!(consumed, JOBS, "every job must be yielded exactly once");
    assert!(seen.iter().all(|&s| s));
    assert_eq!(pulled.load(Ordering::SeqCst), JOBS);
    assert!(
        peak_buffered <= bound,
        "peak job buffer {peak_buffered} exceeded threads-proportional bound {bound}"
    );
}

/// A panicking jobs iterator is never swallowed: the stream ends for
/// every worker and the truncation is reported as a final typed outcome
/// tagged `JOBS_ITERATOR_PANICKED`, so a consumer can tell it from
/// normal completion.
#[test]
fn panicking_jobs_iterator_is_reported_not_swallowed() {
    use lcl_grids::engine::{SolveError, JOBS_ITERATOR_PANICKED};
    let engine = Engine::builder().threads(2).build();
    let prepared = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    let jobs = (0..100u64).map({
        let prepared = Arc::clone(&prepared);
        move |i| {
            if i == 10 {
                panic!("bad job generator at {i}");
            }
            Job::new(
                Arc::clone(&prepared),
                Instance::square(4, &IdAssignment::Shuffled { seed: i }),
            )
        }
    });
    let outcomes: Vec<_> = engine.solve_stream(jobs).collect();
    // Exactly ten real jobs preceded the panic, plus the panic report.
    assert_eq!(outcomes.len(), 11);
    let panics: Vec<_> = outcomes
        .iter()
        .filter(|o| o.problem == JOBS_ITERATOR_PANICKED)
        .collect();
    assert_eq!(panics.len(), 1, "one truncation report");
    match &panics[0].result {
        Err(SolveError::Panicked { detail }) => {
            assert!(detail.contains("bad job generator"), "{detail}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    for outcome in &outcomes {
        if outcome.problem != JOBS_ITERATOR_PANICKED {
            assert!(outcome.result.is_ok());
        }
    }
}

/// `clear_plans` bounds the memo of a long-lived service: outstanding
/// handles stay usable, and a cleared problem re-resolves on next sight.
#[test]
fn clear_plans_keeps_handles_usable() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let prepared = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    assert_eq!(engine.prepared_plans(), 1);
    engine.clear_plans();
    assert_eq!(engine.prepared_plans(), 0);
    // The orphaned handle still solves (it owns plan + registry).
    let inst = Instance::square(4, &IdAssignment::Sequential);
    assert!(prepared.solve(&inst).is_ok());
    // Re-preparing resolves afresh (and yields a new handle).
    let again = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    assert!(!Arc::ptr_eq(&prepared, &again));
    assert_eq!(engine.prepare_stats().resolved, 2);
    assert!(again.solve(&inst).is_ok());
}

/// Dropping a stream mid-drain winds the workers down instead of
/// deadlocking or leaking; the engine stays usable.
#[test]
fn dropping_a_stream_early_is_clean() {
    let engine = Engine::builder().threads(2).build();
    let prepared = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    let jobs = (0..1_000u64).map({
        let prepared = Arc::clone(&prepared);
        move |seed| {
            Job::new(
                Arc::clone(&prepared),
                Instance::square(4, &IdAssignment::Shuffled { seed }),
            )
        }
    });
    let mut stream = engine.solve_stream(jobs);
    for _ in 0..3 {
        assert!(stream.next().unwrap().result.is_ok());
    }
    drop(stream); // joins the workers

    // The engine (and the prepared handle) are still fully serviceable.
    let inst = Instance::square(4, &IdAssignment::Sequential);
    assert!(prepared.solve(&inst).is_ok());
}

/// Mixed problems in one stream: outcomes carry the problem name and
/// index, so interleaved workloads demultiplex without bookkeeping.
#[test]
fn stream_mixes_problems() {
    let engine = Engine::builder().threads(2).max_synthesis_k(1).build();
    let two = engine.prepare(&ProblemSpec::vertex_colouring(2)).unwrap();
    let ind = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    let jobs = (0..40u64).map({
        let (two, ind) = (Arc::clone(&two), Arc::clone(&ind));
        move |i| {
            let prepared = if i % 2 == 0 { &two } else { &ind };
            // Odd-side tori make the 2-colouring jobs exactly unsolvable.
            let side = if i % 4 == 2 { 5 } else { 6 };
            Job::new(
                Arc::clone(prepared),
                Instance::square(side, &IdAssignment::Sequential),
            )
        }
    });
    let mut solved_per_problem = std::collections::HashMap::new();
    let mut failed = 0usize;
    for outcome in engine.solve_stream(jobs) {
        match outcome.result {
            Ok(_) => *solved_per_problem.entry(outcome.problem).or_insert(0usize) += 1,
            Err(e) => {
                assert!(
                    matches!(e, lcl_grids::engine::SolveError::Unsolvable { .. }),
                    "only the odd 2-colouring jobs may fail, got {e}"
                );
                failed += 1;
            }
        }
    }
    assert_eq!(solved_per_problem["independent-set"], 20);
    assert_eq!(solved_per_problem["vertex-2-colouring"], 10);
    assert_eq!(failed, 10);
}

/// `max_prepared_plans` bounds the plan memo with LRU eviction: the memo
/// never exceeds the cap, the least-recently-used plan goes first, and
/// outstanding handles survive their entry's eviction.
#[test]
fn max_prepared_plans_evicts_lru() {
    let engine = Engine::builder()
        .max_synthesis_k(1)
        .max_prepared_plans(2)
        .build();
    let a = ProblemSpec::independent_set();
    let b = ProblemSpec::vertex_colouring(2);
    let c = ProblemSpec::vertex_colouring(3);

    let handle_a = engine.prepare(&a).unwrap();
    engine.prepare(&b).unwrap();
    assert_eq!(engine.prepared_plans(), 2);
    // Touch `a` so `b` is the LRU entry, then overflow with `c`.
    engine.prepare(&a).unwrap();
    engine.prepare(&c).unwrap();
    let stats = engine.prepare_stats();
    assert_eq!(engine.prepared_plans(), 2, "cap holds after overflow");
    assert_eq!(stats.evicted, 1, "exactly one entry evicted");
    // `a` survived (memo hit), `b` was evicted (fresh resolution).
    let again_a = engine.prepare(&a).unwrap();
    assert!(Arc::ptr_eq(&handle_a, &again_a), "a stayed memoised");
    let resolved_before = engine.prepare_stats().resolved;
    engine.prepare(&b).unwrap();
    assert_eq!(
        engine.prepare_stats().resolved,
        resolved_before + 1,
        "b re-resolves after its eviction"
    );
    // The evicted-then-orphaned handle still solves.
    let inst = Instance::square(4, &IdAssignment::Sequential);
    assert!(handle_a.solve(&inst).is_ok());
}
