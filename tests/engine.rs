//! Integration tests for the unified engine API: one problem-agnostic
//! [`Engine`] prepares and solves every problem in the registry,
//! re-validating against the *independent* topology-native checker;
//! failures come back as typed [`SolveError`] values, never panics.

use lcl_grids::algorithms::corner::{self, BoundaryGrid};
use lcl_grids::core::classify::GridClass;
use lcl_grids::core::lcl::block_at;
use lcl_grids::core::problems::XSet;
use lcl_grids::engine::{
    decode_forest, Budget, Engine, Instance, PreparedProblem, ProblemSpec, Registry, SolveError,
    SynthStats, Topology,
};
use lcl_grids::local::IdAssignment;
use std::sync::{Arc, Barrier};

fn engine_with(registry: &Arc<Registry>) -> Engine {
    Engine::builder()
        .max_synthesis_k(2)
        .registry(Arc::clone(registry))
        .build()
}

/// Every torus problem in the registry solves on a small torus through
/// one shared engine, and the labelling passes the canonical checker for
/// its topology — the tabulated 2×2 normal form where one exists, the
/// native validator otherwise.
#[test]
fn registry_problems_solve_and_revalidate() {
    let engine = engine_with(&Arc::new(Registry::new()));
    let inst = Instance::square(12, &IdAssignment::Shuffled { seed: 2017 });
    let torus = inst.as_torus2().unwrap().torus();
    for spec in Registry::problems() {
        if spec.home_topology() != Topology::Torus2 {
            continue; // corner coordination: see boundary test below
        }
        let name = spec.name().to_string();
        let block_lcl = spec.to_block_lcl();
        let prepared = engine
            .prepare(&spec)
            .expect("every registry problem has a solver plan");
        let labelling = prepared
            .solve(&inst)
            .unwrap_or_else(|e| panic!("{name} failed on 12x12: {e}"));
        assert_eq!(labelling.labels.len(), torus.node_count(), "{name}");
        assert!(labelling.report.validated, "{name}");
        match block_lcl {
            // Independent re-validation: every 2x2 window against the
            // tabulated normal form, not the structured checker the
            // engine itself used.
            Some(block_lcl) => {
                for p in torus.positions() {
                    let block = block_at(&torus, &labelling.labels, p);
                    assert!(
                        block_lcl.block_allowed(block),
                        "{name}: disallowed block {block:?} at {p} (solver {})",
                        labelling.report.solver
                    );
                }
            }
            // Problems without a radius-1 block form (mis-power) go
            // through the spec's topology-native checker.
            None => spec
                .check_instance(&inst, &labelling.labels)
                .unwrap_or_else(|e| panic!("{name}: {e}")),
        }
    }
    // One prepared plan per registry problem, resolved exactly once.
    assert_eq!(
        engine.prepared_plans(),
        Registry::problems()
            .iter()
            .filter(|s| s.home_topology() == Topology::Torus2)
            .count()
    );
}

/// The hand-built §8 construction is what the engine picks for vertex
/// 4-colouring once the torus is big enough for it.
#[test]
fn four_colouring_uses_ball_carving_when_it_fits() {
    let engine = Engine::builder()
        .max_synthesis_k(1) // keep synthesis out of the way
        .build();
    let prepared = engine.prepare(&ProblemSpec::vertex_colouring(4)).unwrap();
    let inst = Instance::square(24, &IdAssignment::Shuffled { seed: 3 });
    let labelling = prepared.solve(&inst).unwrap();
    assert_eq!(labelling.report.solver, "ball-carving-4-colouring");
    // On a torus too small for ball carving the engine falls back to SAT.
    let small = Instance::square(8, &IdAssignment::Shuffled { seed: 3 });
    let fallback = prepared.solve(&small).unwrap();
    assert_eq!(fallback.report.solver, "sat-existence");
}

/// Unsolvable instances surface as the exact `Unsolvable` verdict.
#[test]
fn unsolvable_is_a_typed_error() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let two = engine.prepare(&ProblemSpec::vertex_colouring(2)).unwrap();
    // 2-colouring has no solution on odd tori …
    let odd = Instance::square(5, &IdAssignment::Sequential);
    match two.solve(&odd) {
        Err(SolveError::Unsolvable { problem, dims }) => {
            assert_eq!(problem, "vertex-2-colouring");
            assert_eq!(dims, vec![5, 5]);
        }
        other => panic!("expected Unsolvable, got {other:?}"),
    }
    // … and solves fine on even ones.
    let even = Instance::square(6, &IdAssignment::Sequential);
    assert!(two.solve(&even).is_ok());
    assert_eq!(
        two.solvable(&Instance::from(lcl_grids::grid::Torus2::square(6))),
        Ok(true)
    );
    assert_eq!(
        two.solvable(&Instance::from(lcl_grids::grid::Torus2::square(7))),
        Ok(false)
    );
}

/// A round budget below the only available solver's cost is reported as
/// `RoundBudgetExceeded`, with the cheapest achievable count.
#[test]
fn round_budget_exhaustion_is_a_typed_error() {
    // 3-colouring is global: only the Θ(n) SAT baseline can solve it.
    let strict = Engine::builder()
        .max_synthesis_k(1)
        .rounds_budget(1)
        .build();
    let inst = Instance::square(6, &IdAssignment::Sequential);
    match strict.solve(&ProblemSpec::vertex_colouring(3), &inst) {
        Err(SolveError::RoundBudgetExceeded { budget, needed }) => {
            assert_eq!(budget, 1);
            assert!(needed > 1, "gathering a 6x6 torus costs its diameter");
        }
        other => panic!("expected RoundBudgetExceeded, got {other:?}"),
    }
    // A generous budget admits the same solution.
    let generous = Engine::builder()
        .max_synthesis_k(1)
        .rounds_budget(1_000)
        .build();
    assert!(generous
        .solve(&ProblemSpec::vertex_colouring(3), &inst)
        .is_ok());
}

/// Topology mismatches are typed errors in both directions — through the
/// one engine.
#[test]
fn topology_mismatch_is_a_typed_error() {
    let engine = Engine::builder().build();
    let inst = Instance::square(6, &IdAssignment::Sequential);
    assert!(matches!(
        engine.solve(&ProblemSpec::corner_coordination(), &inst),
        Err(SolveError::UnsupportedTopology { .. })
    ));
    assert!(matches!(
        engine.solve(&ProblemSpec::independent_set(), &Instance::boundary(5)),
        Err(SolveError::UnsupportedTopology { .. })
    ));
}

/// Corner coordination solves through the engine's single entry point —
/// the boundary-paths solver is a registered solver like any other — and
/// decodes back to a pseudoforest the independent checker accepts.
#[test]
fn corner_coordination_via_engine() {
    let engine = Engine::builder().build();
    let prepared = engine.prepare(&ProblemSpec::corner_coordination()).unwrap();
    assert_eq!(prepared.solver_names(), vec!["boundary-paths"]);
    for m in [3usize, 5, 8] {
        let inst = Instance::boundary(m);
        let labelling = prepared.solve(&inst).unwrap();
        assert_eq!(labelling.labels.len(), m * m);
        assert!(labelling.report.validated);
        let grid = BoundaryGrid::new(m);
        let forest = decode_forest(&grid, &labelling.labels);
        corner::check(&grid, &forest).unwrap_or_else(|e| panic!("m={m}: {e}"));
    }
    assert_eq!(prepared.solvable(&Instance::boundary(4)), Ok(true));
}

/// `solve_batch` keeps per-instance failures independent and aggregates
/// round accounting.
#[test]
fn batch_mixes_successes_and_failures() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let prepared = engine.prepare(&ProblemSpec::vertex_colouring(2)).unwrap();
    let batch: Vec<Instance> = [4usize, 5, 6, 7]
        .iter()
        .map(|&n| Instance::square(n, &IdAssignment::Sequential))
        .collect();
    let report = engine.solve_batch(&prepared, &batch);
    assert_eq!(report.solved(), 2, "even tori solve");
    assert_eq!(report.failed(), 2, "odd tori are unsolvable");
    assert!(report.total_rounds() > 0);
    let results = report.into_results();
    assert!(results[0].is_ok() && results[2].is_ok());
    assert!(matches!(results[1], Err(SolveError::Unsolvable { .. })));
    assert!(matches!(results[3], Err(SolveError::Unsolvable { .. })));
}

/// Engines sharing a registry share memoised synthesis: the second engine
/// reuses the first one's SAT-backed synthesis instead of re-running it.
#[test]
fn registry_memoises_synthesis_across_engines() {
    let registry = Arc::new(Registry::new());
    let spec = ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4]));
    let inst = Instance::square(10, &IdAssignment::Shuffled { seed: 9 });

    let first = engine_with(&registry);
    first.solve(&spec, &inst).unwrap();
    assert_eq!(registry.cached_syntheses(), 1);

    let second = engine_with(&registry);
    let labelling = second.solve(&spec, &inst).unwrap();
    assert_eq!(labelling.report.solver, "synthesised-tiles");
    assert_eq!(registry.cached_syntheses(), 1, "no re-synthesis");
}

/// The classification adapter reproduces the paper's verdicts — all
/// through one shared engine.
#[test]
fn classification_through_engine() {
    let engine = engine_with(&Arc::new(Registry::new()));
    let classify = |spec: ProblemSpec| engine.classify(&spec).unwrap();
    assert_eq!(
        classify(ProblemSpec::independent_set()),
        GridClass::Constant
    );
    assert_eq!(
        classify(ProblemSpec::orientation(XSet::from_degrees(&[2]))),
        GridClass::Constant
    );
    assert_eq!(
        classify(ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4]))),
        GridClass::LogStar
    );
    assert_eq!(
        classify(ProblemSpec::vertex_colouring(3)),
        GridClass::Global
    );
    // The anchor substrate S_k itself: log* via the distributed
    // power-MIS solver (§8), certified without synthesis.
    assert_eq!(
        classify(ProblemSpec::mis_power(lcl_grids::grid::Metric::L1, 2)),
        GridClass::LogStar
    );
}

/// classify() consults the certified hand-built solvers, so vertex
/// 4-colouring is LogStar even when the synthesis budget is too small to
/// find a certificate (§8 is an a-priori upper bound).
#[test]
fn classification_sees_hand_built_upper_bounds() {
    let engine = Engine::builder()
        .max_synthesis_k(1) // synthesis fails at k = 1 (§7)
        .build();
    assert_eq!(
        engine.classify(&ProblemSpec::vertex_colouring(4)).unwrap(),
        GridClass::LogStar
    );
    assert_eq!(
        engine.classify(&ProblemSpec::edge_colouring(5)).unwrap(),
        GridClass::LogStar
    );
}

/// classify() stays panic-free on block problems whose alphabet is too
/// large for the synthesis encoder (9–16: SAT-only territory).
#[test]
fn classification_of_unsynthesisable_block_is_panic_free() {
    use lcl_grids::core::lcl::BlockLcl;
    let spec = ProblemSpec::block(
        "wide-alphabet",
        BlockLcl::from_predicate(9, |b| b[0] != b[3]),
    );
    let engine = Engine::builder().max_synthesis_k(2).build();
    let prepared = engine.prepare(&spec).unwrap();
    assert_eq!(prepared.solver_names(), vec!["sat-existence"]);
    assert_eq!(prepared.classify().unwrap(), GridClass::Global);
}

/// Two different block LCLs under the same free-form name must not share
/// a memoised synthesis outcome — or a prepared plan — in one engine.
#[test]
fn synthesis_cache_distinguishes_same_named_blocks() {
    use lcl_grids::core::lcl::BlockLcl;
    // Same name, different problems: the {1,3,4}-orientation in block
    // form (synthesises at k = 1, populating the cache) vs vertex
    // 2-colouring in block form (global).
    let x134 = lcl_grids::core::problems::orientation(XSet::from_degrees(&[1, 3, 4]));
    let easy = ProblemSpec::block("p", BlockLcl::from_predicate(4, |b| x134.block_allowed(b)));
    let hard = ProblemSpec::block(
        "p",
        BlockLcl::from_predicate(2, |[sw, se, nw, ne]| {
            sw != se && nw != ne && sw != nw && se != ne
        }),
    );
    let engine = Engine::builder().max_synthesis_k(1).build();
    assert_eq!(engine.classify(&easy).unwrap(), GridClass::LogStar);
    assert!(
        engine.registry().cached_syntheses() > 0,
        "cache was populated"
    );
    assert_eq!(
        engine.classify(&hard).unwrap(),
        GridClass::Global,
        "no cache collision"
    );
    assert_eq!(
        engine.prepared_plans(),
        2,
        "same-named blocks resolve to distinct prepared plans"
    );
}

/// The synthesis memo's contract: a budget trip memoises nothing, and
/// concurrent cold requests for one key run one SAT synthesis — every
/// request is either that synthesis or a memo hit.
#[test]
fn synthesis_memo_is_single_flight_and_never_memoises_a_trip() {
    let spec = ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4]));
    let engine = Engine::builder().max_synthesis_k(1).build();
    let prepared = engine.prepare(&spec).unwrap();

    // (a) A step quota that trips mid-synthesis: typed, and nothing is
    // memoised or counted.
    let err = prepared
        .classify_with(&Budget::steps(1))
        .expect_err("one step cannot finish a synthesis");
    assert!(
        matches!(err, SolveError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert_eq!(engine.registry().cached_syntheses(), 0);
    assert_eq!(engine.registry().synth_stats().synthesised, 0);

    // (b) Four threads solve distinct instances through one handle at
    // once: one of them synthesises, the other three read the memo.
    let four_cold_solves = |prepared: &PreparedProblem| {
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for seed in 0..4 {
                let start = &start;
                scope.spawn(move || {
                    let inst = Instance::square(12, &IdAssignment::Shuffled { seed });
                    start.wait();
                    let labelling = prepared.solve(&inst).unwrap();
                    assert_eq!(labelling.report.solver, "synthesised-tiles");
                });
            }
        });
    };
    let one_synthesis = SynthStats {
        memory_hits: 3,
        synthesised: 1,
    };
    four_cold_solves(&prepared);
    assert_eq!(engine.registry().synth_stats(), one_synthesis);
    assert_eq!(engine.registry().cached_syntheses(), 1);
    // The k = 1 synthesis takes well under a millisecond, so one round
    // rarely overlaps the four fills; fresh registries give it more
    // chances.
    for _ in 0..15 {
        let engine = Engine::builder().max_synthesis_k(1).build();
        four_cold_solves(&engine.prepare(&spec).unwrap());
        assert_eq!(engine.registry().synth_stats(), one_synthesis);
    }
}

/// The round ledger of a log* solver stays flat across instance sizes —
/// the engine reports rounds faithfully enough to see the complexity.
#[test]
fn report_rounds_reflect_log_star_behaviour() {
    let engine = engine_with(&Arc::new(Registry::new()));
    let prepared = engine
        .prepare(&ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4])))
        .unwrap();
    let rounds = |n: usize| {
        let inst = Instance::square(n, &IdAssignment::Shuffled { seed: 5 });
        prepared.solve(&inst).unwrap().report.rounds.total()
    };
    let small = rounds(12);
    let large = rounds(48);
    assert!(
        large <= small + 8,
        "log* solver rounds grew: {small} -> {large}"
    );
}

/// The opt-in debug-validation mode cross-checks the batched round
/// ledger against the real message-passing simulator on small instances
/// and records both measurements in the report.
#[test]
fn debug_validation_records_protocol_rounds() {
    let spec = ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4]));
    let engine = Engine::builder()
        .max_synthesis_k(1)
        .debug_validation(true)
        .build();
    let inst = Instance::square(12, &IdAssignment::Shuffled { seed: 31 });
    let labelling = engine.solve(&spec, &inst).unwrap();
    assert_eq!(labelling.report.detail("debug_validation"), Some("ok"));
    let ledger: u64 = labelling
        .report
        .detail("debug_cv_ledger_rounds")
        .unwrap()
        .parse()
        .unwrap();
    let protocol: u64 = labelling
        .report
        .detail("debug_cv_protocol_rounds")
        .unwrap()
        .parse()
        .unwrap();
    assert!(ledger <= protocol && protocol <= ledger + 5);
    // Large instances skip the cross-check instead of paying for it.
    let big = Instance::square(80, &IdAssignment::Shuffled { seed: 31 });
    let labelling = engine.solve(&spec, &big).unwrap();
    assert_eq!(labelling.report.detail("debug_validation"), Some("skipped"));
    // Off by default: no debug details in a plain engine's reports.
    let plain = Engine::builder().max_synthesis_k(1).build();
    let labelling = plain.solve(&spec, &inst).unwrap();
    assert_eq!(labelling.report.detail("debug_validation"), None);
}
