//! Integration tests for the batch-solving performance subsystem:
//! parallel dispatch determinism, in-batch labelling dedup (namespaced
//! per prepared problem), and the shared synthesis memo — on
//! single-topology, mixed-topology, and mixed-problem batches alike.

use lcl_grids::core::problems::XSet;
use lcl_grids::engine::{
    Engine, Instance, Job, PreparedProblem, ProblemSpec, Registry, SolveError,
};
use lcl_grids::local::IdAssignment;
use std::sync::Arc;

/// A mixed batch for vertex 2-colouring: even tori are solvable, odd tori
/// are exactly unsolvable, and several entries are duplicates.
fn mixed_batch() -> Vec<Instance> {
    [6usize, 5, 7, 6, 8, 5, 6, 12]
        .iter()
        .map(|&n| Instance::square(n, &IdAssignment::Sequential))
        .collect()
}

/// A mixed-topology batch: 2-d tori, their TorusD{d = 2} spellings, and
/// 3-dimensional tori — with duplicate entries across the spellings.
fn mixed_topology_batch() -> Vec<Instance> {
    vec![
        Instance::square(6, &IdAssignment::Sequential),
        Instance::torus_d(3, 4, &IdAssignment::Sequential),
        Instance::torus_d(2, 6, &IdAssignment::Sequential), // = entry 0
        Instance::torus_d(3, 5, &IdAssignment::Sequential),
        Instance::square(6, &IdAssignment::Sequential), // = entry 0
        Instance::torus_d(3, 4, &IdAssignment::Sequential), // = entry 1
        Instance::square(8, &IdAssignment::Shuffled { seed: 4 }),
    ]
}

fn engine(threads: usize, dedup: bool) -> Engine {
    Engine::builder()
        .max_synthesis_k(1)
        .threads(threads)
        .dedup(dedup)
        .build()
}

fn two_colouring(threads: usize, dedup: bool) -> (Engine, Arc<PreparedProblem>) {
    let engine = engine(threads, dedup);
    let prepared = engine.prepare(&ProblemSpec::vertex_colouring(2)).unwrap();
    (engine, prepared)
}

fn mis_power(threads: usize, dedup: bool) -> (Engine, Arc<PreparedProblem>) {
    let engine = engine(threads, dedup);
    let prepared = engine
        .prepare(&ProblemSpec::mis_power(lcl_grids::grid::Metric::L1, 2))
        .unwrap();
    (engine, prepared)
}

/// Parallel `solve_batch` output must be byte-identical to sequential
/// output for a mixed batch — labels, reports, and typed errors alike.
#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    let batch = mixed_batch();
    let (seq_engine, seq_prepared) = two_colouring(1, true);
    let sequential = seq_engine.solve_batch(&seq_prepared, &batch);
    let (par_engine, par_prepared) = two_colouring(4, true);
    let parallel = par_engine.solve_batch(&par_prepared, &batch);
    assert_eq!(sequential.threads(), 1);
    assert_eq!(parallel.threads(), 4.min(batch.len()));
    assert_eq!(
        format!("{:?}", sequential.results()),
        format!("{:?}", parallel.results()),
        "parallel dispatch changed the batch output"
    );
    // Dedup must be observationally transparent too.
    let (raw_engine, raw_prepared) = two_colouring(4, false);
    let undeduped = raw_engine.solve_batch(&raw_prepared, &batch);
    assert_eq!(undeduped.dedup_hits(), 0);
    assert_eq!(
        format!("{:?}", sequential.results()),
        format!("{:?}", undeduped.results()),
        "dedup changed the batch output"
    );
}

/// The determinism contract holds on a mixed `Torus2` + `TorusD` batch
/// too: whatever the thread count and dedup setting, results are
/// byte-identical — and the d = 2 spelling of a 2-d torus produces
/// exactly the labelling of its `Torus2` twin.
#[test]
fn mixed_topology_batch_is_byte_identical_and_deduped() {
    let batch = mixed_topology_batch();
    let (seq_engine, seq_prepared) = mis_power(1, true);
    let sequential = seq_engine.solve_batch(&seq_prepared, &batch);
    let (par_engine, par_prepared) = mis_power(4, true);
    let parallel = par_engine.solve_batch(&par_prepared, &batch);
    assert_eq!(
        format!("{:?}", sequential.results()),
        format!("{:?}", parallel.results()),
        "parallel dispatch changed the mixed-topology batch output"
    );
    let (raw_engine, raw_prepared) = mis_power(4, false);
    let undeduped = raw_engine.solve_batch(&raw_prepared, &batch);
    assert_eq!(undeduped.dedup_hits(), 0);
    assert_eq!(
        format!("{:?}", sequential.results()),
        format!("{:?}", undeduped.results()),
        "dedup changed the mixed-topology batch output"
    );
    // Three duplicates: the TorusD{d=2} twin dedups onto the Torus2
    // entry (canonical topology folding), plus the exact repeats.
    assert_eq!(sequential.dedup_hits(), 3);
    assert_eq!(sequential.solved(), 7);
    let results = sequential.results();
    assert_eq!(
        results[0].as_ref().unwrap().labels,
        results[2].as_ref().unwrap().labels,
        "TorusD{{d=2}} must label exactly like its Torus2 twin"
    );
    // The 2-d entries ride the distributed log* power-MIS; the 3-d
    // entries ride the registered greedy reference — both validated by
    // the topology-native checker.
    assert_eq!(
        results[0].as_ref().unwrap().report.solver,
        "power-mis-log-star"
    );
    assert_eq!(
        results[1].as_ref().unwrap().report.solver,
        "ddim-greedy-mis"
    );
    assert!(results[1].as_ref().unwrap().report.validated);
}

/// Theorem 21 through the batch path: even-side 3-d tori edge-colour via
/// the registered ddim solver, odd-side ones are exactly unsolvable, and
/// duplicates dedup.
#[test]
fn ddim_edge_colouring_batch_mixes_verdicts() {
    let engine = engine(2, true);
    let prepared = engine.prepare(&ProblemSpec::edge_colouring(6)).unwrap();
    let batch = vec![
        Instance::torus_d(3, 4, &IdAssignment::Sequential),
        Instance::torus_d(3, 5, &IdAssignment::Sequential),
        Instance::torus_d(3, 4, &IdAssignment::Sequential),
    ];
    let report = engine.solve_batch(&prepared, &batch);
    assert_eq!(report.solved(), 2);
    assert_eq!(report.failed(), 1);
    assert_eq!(report.dedup_hits(), 1);
    let results = report.results();
    assert_eq!(
        results[0].as_ref().unwrap().report.solver,
        "ddim-parity-edge-colouring"
    );
    assert!(results[0].as_ref().unwrap().report.validated);
    match &results[1] {
        Err(SolveError::Unsolvable { dims, .. }) => assert_eq!(dims, &vec![5, 5, 5]),
        other => panic!("expected Unsolvable for the odd 3-d torus, got {other:?}"),
    }
}

/// The in-batch labelling cache solves each distinct instance once and
/// reports the duplicate count — aggregate and per problem.
#[test]
fn batch_dedup_counts_hits_and_shares_labellings() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let spec = ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4]));
    let prepared = engine.prepare(&spec).unwrap();
    // Three distinct instances, each appearing twice.
    let batch: Vec<Instance> = [3u64, 5, 3, 9, 5, 9]
        .iter()
        .map(|&seed| Instance::square(10, &IdAssignment::Shuffled { seed }))
        .collect();
    let report = engine.solve_batch(&prepared, &batch);
    assert_eq!(report.solved(), 6);
    assert_eq!(report.dedup_hits(), 3, "three duplicates in the batch");
    assert_eq!(engine.stream_dedup_hits(), 3, "engine-wide dedup counter");
    assert_eq!(
        engine.registry().synth_stats().synthesised,
        1,
        "one SAT call total"
    );
    // The per-problem row carries the same accounting.
    let stats = report.problem_stats(spec.name()).unwrap();
    assert_eq!(stats.jobs, 6);
    assert_eq!(stats.solved, 6);
    assert_eq!(stats.dedup_hits, 3);
    assert_eq!(stats.synth_solves, 3, "three fresh synthesised solves");
    let results = report.results();
    for (a, b) in [(0usize, 2usize), (1, 4), (3, 5)] {
        assert_eq!(
            results[a].as_ref().unwrap().labels,
            results[b].as_ref().unwrap().labels,
            "duplicate instances share one labelling"
        );
    }
    // Distinct instances really are distinct solves.
    assert_ne!(
        results[0].as_ref().unwrap().labels,
        results[1].as_ref().unwrap().labels
    );
}

/// Same torus size with different id assignments must NOT dedup — and
/// same dims on different topologies must not either.
#[test]
fn dedup_distinguishes_id_assignments_and_topologies() {
    let (engine, prepared) = two_colouring(2, true);
    let batch = vec![
        Instance::square(6, &IdAssignment::Sequential),
        Instance::square(6, &IdAssignment::Shuffled { seed: 1 }),
        Instance::square(6, &IdAssignment::Sequential),
    ];
    let report = engine.solve_batch(&prepared, &batch);
    assert_eq!(report.dedup_hits(), 1, "only the exact duplicate dedups");
    assert_eq!(report.solved(), 3);

    // A 3-d torus and a 2-d torus with the same node count and ids are
    // different inputs: no shared group.
    let (engine, prepared) = mis_power(2, true);
    let batch = vec![
        Instance::torus_d(3, 4, &IdAssignment::Sequential),
        Instance::square(8, &IdAssignment::Sequential), // 64 nodes too
    ];
    let report = engine.solve_batch(&prepared, &batch);
    assert_eq!(report.dedup_hits(), 0, "topologies must not alias");
    assert_eq!(report.solved(), 2);
}

/// Two different problems over instances with identical dimensions and
/// identifiers must never share a dedup group: the dedup key carries the
/// prepared problem's cache key. Pinned cross-problem through
/// `solve_jobs` and the per-problem `dedup_hits` counters.
#[test]
fn dedup_never_collides_across_problems() {
    let engine = Engine::builder().max_synthesis_k(1).threads(2).build();
    let two = engine.prepare(&ProblemSpec::vertex_colouring(2)).unwrap();
    let ind = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    // Identical instance (same dims, same ids) under both problems, plus
    // one true duplicate per problem.
    let inst = || Instance::square(6, &IdAssignment::Sequential);
    let jobs = vec![
        Job::new(two.clone(), inst()),
        Job::new(ind.clone(), inst()),
        Job::new(two.clone(), inst()),
        Job::new(ind.clone(), inst()),
    ];
    let report = engine.solve_jobs(&jobs);
    assert_eq!(report.solved(), 4);
    assert_eq!(
        report.dedup_hits(),
        2,
        "one duplicate per problem; never across problems"
    );
    let results = report.results();
    // Within a problem: shared labelling. Across problems: the
    // independent-set solve is the constant-0 labelling, the 2-colouring
    // solve is not — a collision would hand one problem the other's
    // labels (and fail validation).
    assert_eq!(
        results[0].as_ref().unwrap().labels,
        results[2].as_ref().unwrap().labels
    );
    assert_eq!(
        results[1].as_ref().unwrap().labels,
        results[3].as_ref().unwrap().labels
    );
    assert!(results[1].as_ref().unwrap().labels.iter().all(|&l| l == 0));
    assert_ne!(
        results[0].as_ref().unwrap().labels,
        results[1].as_ref().unwrap().labels,
        "problems with identical dims/ids must not share labellings"
    );
    // Per-problem accounting: one dedup hit each.
    assert_eq!(report.per_problem().len(), 2);
    let two_stats = report.problem_stats("vertex-2-colouring").unwrap();
    assert_eq!((two_stats.jobs, two_stats.dedup_hits), (2, 1));
    let ind_stats = report.problem_stats("independent-set").unwrap();
    assert_eq!((ind_stats.jobs, ind_stats.dedup_hits), (2, 1));
}

/// Handles from differently-configured engines may share a cache key
/// (the key carries problem content + synthesis budget, not seed or
/// policy) — dedup must still keep them apart, because their outputs can
/// differ. Sharing requires the same prepared handle, not a key match.
#[test]
fn dedup_respects_engine_configuration_not_just_cache_key() {
    let seeded = |seed| Engine::builder().max_synthesis_k(1).seed(seed).build();
    let a = seeded(1);
    let b = seeded(2);
    // 3-colouring solves through the seed-sampled SAT baseline.
    let pa = a.prepare(&ProblemSpec::vertex_colouring(3)).unwrap();
    let pb = b.prepare(&ProblemSpec::vertex_colouring(3)).unwrap();
    assert_eq!(pa.cache_key(), pb.cache_key(), "keys agree by design");
    let inst = Instance::square(6, &IdAssignment::Sequential);
    let jobs = vec![
        Job::new(pa.clone(), inst.clone()),
        Job::new(pb.clone(), inst.clone()),
    ];
    let report = a.solve_jobs(&jobs);
    assert_eq!(
        report.dedup_hits(),
        0,
        "equal cache keys from differently-seeded engines must not share"
    );
    // Each job got exactly what its own handle would have produced.
    let results = report.results();
    assert_eq!(
        results[0].as_ref().unwrap().labels,
        pa.solve(&inst).unwrap().labels
    );
    assert_eq!(
        results[1].as_ref().unwrap().labels,
        pb.solve(&inst).unwrap().labels
    );
}

/// `threads(0)` resolves to the machine's available parallelism.
#[test]
fn zero_threads_means_all_cores() {
    let (engine, prepared) = two_colouring(0, true);
    let batch = mixed_batch();
    let report = engine.solve_batch(&prepared, &batch);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // The pool is sized to the deduped work list (5 distinct instances).
    assert_eq!(
        report.threads(),
        cores.min(batch.len() - report.dedup_hits())
    );
    assert_eq!(report.solved(), 5, "the five even tori solve");
    assert_eq!(report.failed(), 3, "the three odd tori are unsolvable");
}

/// The synthesis memo stays warm across a mixed-topology batch: the 2-d
/// instances share one (topology-tagged) synthesis verdict while the
/// d ≥ 3 instances come back as typed per-instance errors — edge
/// 4-colouring has no 3-dimensional solver — and a second engine on the
/// same registry reproduces the batch byte-for-byte without a SAT call.
#[test]
fn synthesis_memo_survives_mixed_topology_batches() {
    let spec = ProblemSpec::edge_colouring(4);
    let registry = Arc::new(Registry::new());
    let build = || {
        Engine::builder()
            .max_synthesis_k(1)
            .registry(Arc::clone(&registry))
            .threads(2)
            .build()
    };
    let batch = mixed_topology_batch();

    let cold_engine = build();
    let cold_prepared = cold_engine.prepare(&spec).unwrap();
    let cold = cold_engine.solve_batch(&cold_prepared, &batch);
    assert_eq!(cold.solved(), 4, "the four 2-d entries solve");
    assert_eq!(cold.failed(), 3, "the three 3-d entries are uncovered");
    // Edge 4-colouring is global: one negative synthesis verdict total,
    // shared by every 2-d instance in the batch; solving then falls
    // through to the (CDCL-free) parity construction.
    assert_eq!(registry.synth_stats().synthesised, 1);
    let results = cold.results();
    assert_eq!(
        results[0].as_ref().unwrap().report.solver,
        "ddim-parity-edge-colouring"
    );
    assert!(matches!(
        results[1],
        Err(SolveError::UnsupportedTopology { .. })
    ));

    let warm_engine = build();
    let warm_prepared = warm_engine.prepare(&spec).unwrap();
    let warm = warm_engine.solve_batch(&warm_prepared, &batch);
    assert_eq!(
        format!("{:?}", cold.results()),
        format!("{:?}", warm.results()),
        "a warm memo changed the batch output"
    );
    assert_eq!(
        registry.synth_stats().synthesised,
        1,
        "warm memo must skip the SAT call"
    );
}

/// An unsolvable duplicate shares its typed error across the batch, and
/// batch totals add up.
#[test]
fn unsolvable_duplicates_share_the_verdict() {
    let (engine, prepared) = two_colouring(3, true);
    let batch: Vec<Instance> = [5usize, 5, 5]
        .iter()
        .map(|&n| Instance::square(n, &IdAssignment::Sequential))
        .collect();
    let report = engine.solve_batch(&prepared, &batch);
    assert_eq!(report.failed(), 3);
    assert_eq!(report.dedup_hits(), 2);
    for result in report.results() {
        assert!(matches!(result, Err(SolveError::Unsolvable { .. })));
    }
    let stats = report.problem_stats("vertex-2-colouring").unwrap();
    assert_eq!((stats.failed, stats.dedup_hits), (3, 2));
}
