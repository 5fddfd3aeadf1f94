//! Budget and deadline robustness at the engine surface: typed trips,
//! monotone work under step quotas, and the reusability contract — a
//! tripped plan, engine, and worker pool must behave exactly as if the
//! trip never happened.

use lcl_grids::engine::{
    Budget, CancelToken, Engine, Instance, Job, ProblemSpec, SolveError, BREAKER_BASE_COOLDOWN,
    BREAKER_THRESHOLD,
};
use lcl_grids::local::IdAssignment;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A DSL (lcl-lang) 3-colouring: no closed-form tier covers it, so every
/// solve goes through the budget-checked SAT-backed tiers.
fn sat_heavy_spec() -> ProblemSpec {
    ProblemSpec::compile("problem deadline-3c { alphabet { a, b, c } edges differ }")
        .expect("compile DSL problem")
}

fn big_instance() -> Instance {
    Instance::square(16, &IdAssignment::Shuffled { seed: 11 })
}

#[test]
fn one_ms_deadline_on_a_sat_solve_is_typed_and_bounded() {
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let inst = big_instance();

    let begun = Instant::now();
    let err = prepared
        .solve_with(&inst, &Budget::deadline(Duration::from_millis(1)))
        .expect_err("a 1ms deadline cannot finish a fresh SAT solve");
    assert!(
        matches!(err, SolveError::DeadlineExceeded { .. }),
        "typed trip expected, got {err:?}"
    );
    // Bounded: cooperative checks fire at hot-loop granularity, so the
    // trip surfaces promptly, not after the full solve.
    assert!(
        begun.elapsed() < Duration::from_secs(10),
        "trip took {:?}",
        begun.elapsed()
    );

    // The engine and plan are fully reusable afterwards: the same plan
    // under a generous budget produces the same labelling a fresh
    // engine does, byte for byte.
    let after_trip = prepared
        .solve_with(&inst, &Budget::unlimited())
        .expect("re-solve");
    let fresh = Engine::builder()
        .threads(1)
        .max_synthesis_k(1)
        .build()
        .solve(&sat_heavy_spec(), &inst)
        .expect("fresh solve");
    assert_eq!(
        after_trip.labels, fresh.labels,
        "a budget trip must leave no trace in later solves"
    );
}

#[test]
fn step_quota_work_is_monotone() {
    // A solve under quota N must never do more work than the same solve
    // under 2N: the shared step counter is the work meter.
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let inst = big_instance();

    let small = Budget::steps(400);
    let err = prepared
        .solve_with(&inst, &small)
        .expect_err("400 steps cannot finish a fresh SAT solve");
    assert!(
        matches!(err, SolveError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    let small_used = small.steps_used();

    let large = Budget::steps(800);
    let _ = prepared.solve_with(&inst, &large);
    let large_used = large.steps_used();

    assert!(small_used > 0, "the quota must actually be consumed");
    assert!(
        small_used <= large_used,
        "budget N did more work ({small_used}) than budget 2N ({large_used})"
    );
    // And neither overshoots its quota by more than one check interval's
    // worth of slack per tier (charges are coarse, trips are prompt).
    assert!(
        small_used < 400 * 4,
        "quota 400 overshot wildly: {small_used}"
    );
}

#[test]
fn cancellation_aborts_immediately_with_no_fallback() {
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let token = CancelToken::new();
    token.cancel();
    let err = prepared
        .solve_with(&big_instance(), &Budget::unlimited().with_token(token))
        .expect_err("cancelled before dispatch");
    assert!(matches!(err, SolveError::Cancelled), "{err:?}");

    // Cancellation is sticky on the token, not on the plan.
    assert!(prepared
        .solve_with(&big_instance(), &Budget::unlimited())
        .is_ok());
}

#[test]
fn batch_budget_is_joint_and_reports_typed_rows() {
    let engine = Engine::builder().threads(1).max_synthesis_k(1).build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let jobs: Vec<Job> = (0..4)
        .map(|seed| {
            Job::new(
                Arc::clone(&prepared),
                Instance::square(16, &IdAssignment::Shuffled { seed }),
            )
        })
        .collect();

    // A zero deadline is shared by the whole batch: every row trips,
    // none panics, and the report stays fully typed.
    let report = engine.solve_jobs_with(&jobs, &Budget::deadline(Duration::ZERO));
    assert_eq!(report.results().len(), 4);
    for result in report.results() {
        match result {
            Err(SolveError::DeadlineExceeded { .. }) => {}
            other => panic!("expected a typed trip per row, got {other:?}"),
        }
    }

    // The engine's worker pool survived and solves normally afterwards.
    let easy = ProblemSpec::independent_set();
    let prepared = engine.prepare(&easy).expect("prepare");
    let inst = Instance::square(6, &IdAssignment::Sequential);
    assert!(engine
        .solve_jobs_with(&[Job::new(prepared, inst)], &Budget::unlimited())
        .results()[0]
        .is_ok());
}

/// A half-open probe whose labelling exceeds the round budget must settle
/// its breaker: the tier worked, so the probe counts as a success. Left
/// unrecorded, the breaker stays half-open forever — `/healthz` stays
/// degraded and every later solve skips the tier.
#[test]
fn over_round_budget_probe_closes_its_breaker() {
    let engine = Engine::builder()
        .threads(1)
        .max_synthesis_k(1)
        .rounds_budget(1)
        .build();
    let prepared = engine.prepare(&sat_heavy_spec()).expect("prepare");
    let inst = Instance::square(12, &IdAssignment::Shuffled { seed: 5 });
    for _ in 0..BREAKER_THRESHOLD {
        let err = prepared
            .solve_with(&inst, &Budget::steps(1))
            .expect_err("one step cannot finish a SAT solve");
        assert!(
            matches!(err, SolveError::DeadlineExceeded { .. }),
            "{err:?}"
        );
    }
    assert!(
        engine.health().open_breakers() > 0,
        "the step-starved SAT tiers trip their breakers"
    );
    std::thread::sleep(BREAKER_BASE_COOLDOWN + Duration::from_millis(50));

    // The probe: unbudgeted, the SAT tiers label the torus, but no
    // labelling fits in one round.
    let err = prepared.solve(&inst).expect_err("over the round budget");
    assert!(
        matches!(err, SolveError::RoundBudgetExceeded { .. }),
        "{err:?}"
    );
    assert_eq!(
        engine.health().open_breakers(),
        0,
        "{:?}",
        engine.health().breakers()
    );

    // A later solve dispatches to sat-existence again instead of
    // breaker-skipping it: failed solves carry no cost ledger, so the
    // trace's tier spans witness the dispatch.
    lcl_trace::enable(4096);
    let trace_id = 0x3ed9e;
    lcl_trace::set_current_trace(trace_id);
    let err = prepared.solve(&inst).expect_err("over the round budget");
    lcl_trace::set_current_trace(0);
    assert!(
        matches!(err, SolveError::RoundBudgetExceeded { .. }),
        "{err:?}"
    );
    let trace = lcl_trace::snapshot_for(trace_id);
    assert!(
        trace
            .events
            .iter()
            .any(|e| e.kind == lcl_trace::SpanKind::Tier && e.name == "sat-existence"),
        "sat-existence was not dispatched: {:?}",
        engine.health().tier_counters()
    );
}
