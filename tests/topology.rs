//! Topology-generic engine tests: the d = 2 equivalence (a `TorusD`
//! instance of dimension 2 must solve exactly like its `Torus2` twin, and
//! the labelling must pass the `Torus2`-based validators), the
//! d-dimensional end-to-end paths of Theorem 21, and the typed
//! `UnsupportedTopology` surface for uncovered `(problem, topology)`
//! pairs.

use lcl_grids::core::problems::{self, XSet};
use lcl_grids::core::GridProblem;
use lcl_grids::engine::{Engine, Instance, ProblemSpec, Registry, SolveError, Topology};
use lcl_grids::grid::{Metric, Torus2, TorusD};
use lcl_grids::local::IdAssignment;

/// Solving a `TorusD::new(2, n)` instance through the engine must produce
/// a labelling that the `Torus2`-based validators accept — for every
/// registered torus problem — and must be byte-identical to solving the
/// `Torus2` spelling of the same instance.
#[test]
fn d2_torus_solves_like_torus2_for_every_registered_problem() {
    let engine = Engine::builder().max_synthesis_k(2).build();
    let n = 12;
    let seed = 2017;
    let d2 = Instance::torus_d(2, n, &IdAssignment::Shuffled { seed });
    let flat = Instance::square(n, &IdAssignment::Shuffled { seed });
    let torus2 = Torus2::square(n);
    for spec in Registry::problems() {
        if spec.home_topology() != Topology::Torus2 {
            continue;
        }
        let name = spec.name().to_string();
        assert!(spec.supports(Topology::TorusD { d: 2 }), "{name}");
        let prepared = engine
            .prepare(&spec)
            .expect("every registry problem has a solver plan");
        let from_d2 = prepared
            .solve(&d2)
            .unwrap_or_else(|e| panic!("{name} failed on TorusD(2, {n}): {e}"));
        let from_flat = prepared.solve(&flat).unwrap();
        assert_eq!(
            from_d2.labels, from_flat.labels,
            "{name}: TorusD{{d=2}} and Torus2 labellings diverged"
        );
        assert_eq!(from_d2.report.solver, from_flat.report.solver, "{name}");
        assert!(from_d2.report.validated, "{name}");
        // Torus2-based validation of the d = 2 labelling: the tabulated
        // 2x2 block form where one exists, the native validator else.
        match spec.to_block_lcl() {
            Some(block_lcl) => {
                for p in torus2.positions() {
                    let block = lcl_grids::core::lcl::block_at(&torus2, &from_d2.labels, p);
                    assert!(block_lcl.block_allowed(block), "{name}: bad block at {p}");
                }
            }
            None => {
                let (metric, k) = spec
                    .mis_power_params()
                    .expect("only mis-power lacks blocks");
                let marked: Vec<bool> = from_d2.labels.iter().map(|&l| l == 1).collect();
                assert!(
                    TorusD::new(2, n).is_maximal_independent(metric, k, &marked),
                    "{name}: not a maximal independent set of the power graph"
                );
            }
        }
    }
}

/// The acceptance path of the redesign: a d = 3 even-n edge-colouring
/// solve succeeds end-to-end via the registered ddim solver, with the
/// labelling checked by the native d-dimensional validator.
#[test]
fn d3_edge_colouring_end_to_end() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let prepared = engine.prepare(&ProblemSpec::edge_colouring(6)).unwrap();
    let torus = TorusD::new(3, 6);
    let inst = Instance::torus_d(3, 6, &IdAssignment::Shuffled { seed: 8 });
    let labelling = prepared.solve(&inst).unwrap();
    assert_eq!(labelling.report.solver, "ddim-parity-edge-colouring");
    assert!(labelling.report.validated);
    assert_eq!(labelling.labels.len(), 216);
    assert!(problems::is_proper_edge_colouring_d(
        &torus,
        &labelling.labels,
        6
    ));
    // Odd side: the exact Theorem 21 impossibility, as a typed verdict.
    let odd = Instance::torus_d(3, 5, &IdAssignment::Sequential);
    match prepared.solve(&odd) {
        Err(SolveError::Unsolvable { problem, dims }) => {
            assert_eq!(problem, "edge-6-colouring");
            assert_eq!(dims, vec![5, 5, 5]);
        }
        other => panic!("expected Unsolvable, got {other:?}"),
    }
    // solvable() answers the d-dimensional existence question without
    // solving: Theorem 21 exactly.
    assert_eq!(prepared.solvable(&inst), Ok(true));
    assert_eq!(prepared.solvable(&odd), Ok(false));
}

/// Higher dimensions too: d = 4 with its 8-colour palette.
#[test]
fn d4_edge_colouring_end_to_end() {
    let engine = Engine::builder().max_synthesis_k(1).build();
    let inst = Instance::torus_d(4, 4, &IdAssignment::Sequential);
    let labelling = engine
        .solve(&ProblemSpec::edge_colouring(8), &inst)
        .unwrap();
    assert_eq!(labelling.report.solver, "ddim-parity-edge-colouring");
    assert!(problems::is_proper_edge_colouring_d(
        &TorusD::new(4, 4),
        &labelling.labels,
        8
    ));
}

/// The anchor substrate S_k solves on 3-d tori through the registered
/// greedy reference, and the labelling is a genuine maximal independent
/// set of the power graph.
#[test]
fn d3_mis_power_end_to_end() {
    let engine = Engine::builder().build();
    let prepared = engine
        .prepare(&ProblemSpec::mis_power(Metric::L1, 2))
        .unwrap();
    let inst = Instance::torus_d(3, 6, &IdAssignment::Sequential);
    let labelling = prepared.solve(&inst).unwrap();
    assert_eq!(labelling.report.solver, "ddim-greedy-mis");
    assert!(labelling.report.validated);
    let marked: Vec<bool> = labelling.labels.iter().map(|&l| l == 1).collect();
    assert!(TorusD::new(3, 6).is_maximal_independent(Metric::L1, 2, &marked));
    assert_eq!(prepared.solvable(&inst), Ok(true));
}

/// Independent set rides its constant solver onto every torus dimension.
#[test]
fn independent_set_is_constant_on_any_dimension() {
    let engine = Engine::builder().build();
    let prepared = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    for d in [2usize, 3, 4] {
        let inst = Instance::torus_d(d, 4, &IdAssignment::Sequential);
        let labelling = prepared.solve(&inst).unwrap();
        assert_eq!(labelling.report.solver, "constant", "d={d}");
        assert!(labelling.labels.iter().all(|&l| l == 0));
        assert!(labelling.report.validated, "d={d}");
    }
}

/// An unsupported `(problem, TorusD)` pair is a typed
/// `UnsupportedTopology`, never a panic — in both flavours: problems
/// with d-dimensional semantics but no registered d ≥ 3 solver (vertex
/// colouring), and problems with no d-dimensional semantics at all
/// (orientations, whose oriented 2×2 windows are inherently 2-d).
#[test]
fn unsupported_pairs_are_typed_errors() {
    let cube = Instance::torus_d(3, 6, &IdAssignment::Sequential);
    let engine = Engine::builder().max_synthesis_k(1).build();

    let vertex = engine.prepare(&ProblemSpec::vertex_colouring(4)).unwrap();
    match vertex.solve(&cube) {
        Err(SolveError::UnsupportedTopology {
            problem, topology, ..
        }) => {
            assert_eq!(problem, "vertex-4-colouring");
            assert_eq!(topology, "oriented 3-d torus");
        }
        other => panic!("expected UnsupportedTopology, got {other:?}"),
    }
    // Existence is still answerable (the Cartesian-product bound).
    assert_eq!(vertex.solvable(&cube), Ok(true));

    let orient = engine
        .prepare(&ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4])))
        .unwrap();
    assert!(!orient.spec().supports(Topology::TorusD { d: 3 }));
    assert!(matches!(
        orient.solve(&cube),
        Err(SolveError::UnsupportedTopology { .. })
    ));
    assert!(matches!(
        orient.solvable(&cube),
        Err(SolveError::UnsupportedTopology { .. })
    ));
}

/// The `Instance::adjacency` CSR view honours its documented contract on
/// every topology: neighbour slices in `Graph::for_each_neighbour` order
/// (the simulator's port order), symmetric, self-loop free.
#[test]
fn adjacency_view_matches_graph_port_order() {
    use lcl_grids::grid::Graph;
    let instances = [
        Instance::square(5, &IdAssignment::Sequential),
        Instance::torus_d(3, 4, &IdAssignment::Sequential),
        Instance::boundary(4),
    ];
    for inst in &instances {
        let csr = inst.adjacency();
        assert_eq!(csr.node_count(), inst.node_count(), "{inst}");
        assert!(csr.is_symmetric(), "{inst}");
        let port_order: Vec<Vec<usize>> = match inst {
            Instance::Torus2(gi) => {
                let t = gi.torus();
                (0..csr.node_count()).map(|v| t.neighbours_vec(v)).collect()
            }
            Instance::TorusD(di) => (0..csr.node_count())
                .map(|v| di.torus().neighbours_vec(v))
                .collect(),
            Instance::Boundary(grid) => (0..csr.node_count())
                .map(|v| grid.graph().neighbours_vec(v))
                .collect(),
        };
        for (v, nbrs) in port_order.iter().enumerate() {
            assert_eq!(csr.neighbours(v), nbrs.as_slice(), "{inst} node {v}");
        }
    }
}

/// The message-passing LOCAL simulator drives d-dimensional tori through
/// the same `Graph` face as everything else: a one-exchange protocol over
/// a `TorusD` instance's ids computes the local-maxima independent set.
#[test]
fn simulator_runs_on_torus_d_instances() {
    use lcl_grids::local::{Protocol, Simulator};

    /// Round 1: announce the identifier on every port. Round 2: output 1
    /// iff the own identifier beats every neighbour's.
    struct LocalMaxima;
    struct State {
        id: u64,
        step: u32,
    }
    impl Protocol for LocalMaxima {
        type State = State;
        type Msg = u64;
        type Output = u8;
        fn init(&self, _v: usize, id: u64, degree: usize, _n: usize) -> State {
            assert_eq!(degree, 6, "3-d torus nodes have degree 2d = 6");
            State { id, step: 0 }
        }
        fn round(
            &self,
            state: &mut State,
            inbox: &[Option<u64>],
            outbox: &mut [Option<u64>],
        ) -> Option<u8> {
            if state.step == 1 {
                let beaten = inbox
                    .iter()
                    .all(|m| m.expect("synchronous neighbour message") < state.id);
                return Some(u8::from(beaten));
            }
            state.step = 1;
            for slot in outbox.iter_mut() {
                *slot = Some(state.id);
            }
            None
        }
    }

    let inst = Instance::torus_d(3, 4, &IdAssignment::Shuffled { seed: 13 });
    let torus = inst.as_torus_d().unwrap().torus().clone();
    let run = Simulator::new(10)
        .run(&torus, inst.ids(), &LocalMaxima)
        .expect("protocol halts in two rounds");
    assert_eq!(run.rounds, 2);
    // The local maxima form a non-empty independent set of the torus.
    let marked: Vec<bool> = run.outputs.iter().map(|&o| o == 1).collect();
    assert!(marked.iter().any(|&m| m));
    assert!(torus.is_independent(Metric::L1, 1, &marked));
}

/// `check_instance` validates labellings on every supported topology and
/// rejects cross-topology misuse with a readable error.
#[test]
fn check_instance_covers_all_topologies() {
    let spec = ProblemSpec::edge_colouring(6);
    let torus = TorusD::new(3, 4);
    let inst = Instance::torus_d(3, 4, &IdAssignment::Sequential);
    let good = lcl_grids::algorithms::ddim::edge_2d_colouring_even(&torus)
        .to_labels(6)
        .unwrap();
    assert!(spec.check_instance(&inst, &good).is_ok());
    let mut bad = good.clone();
    bad[7] ^= 1;
    assert!(spec.check_instance(&inst, &bad).is_err());
    // Wrong length is an error, not a panic.
    assert!(spec.check_instance(&inst, &good[..10]).is_err());
    // Corner coordination on a torus instance is a readable error.
    let corner = ProblemSpec::corner_coordination();
    let flat = Instance::square(4, &IdAssignment::Sequential);
    assert!(corner.check_instance(&flat, &[0; 16]).is_err());
}

/// One side-1 rule in every dimension: on the degenerate tori (side 1 for
/// d ∈ {2, 3}, and side 2 for d = 3 where the problem's labels are few)
/// `PreparedProblem::solvable` answers exactly whether some labelling
/// passes `check_instance`, decided here by brute force over every
/// labelling.
#[test]
fn solvable_agrees_with_brute_force_on_degenerate_tori() {
    let pairwise =
        ProblemSpec::compile("problem two-colouring { alphabet { black, white } edges differ }")
            .unwrap();
    // (problem, whether its labellings of the side-2 3-d torus are few
    // enough to enumerate)
    let cases = [
        (ProblemSpec::vertex_colouring(2), true),
        (ProblemSpec::vertex_colouring(3), true),
        (ProblemSpec::edge_colouring(5), false),
        (ProblemSpec::edge_colouring(6), false),
        (ProblemSpec::edge_colouring(7), false),
        (ProblemSpec::independent_set(), false),
        (pairwise, true),
    ];
    let engine = Engine::builder().max_synthesis_k(1).build();
    for (spec, side_two) in &cases {
        let prepared = engine.prepare(spec).unwrap();
        let mut tori = vec![(2, 1), (3, 1)];
        if *side_two {
            tori.push((3, 2));
        }
        for (d, n) in tori {
            let inst = Instance::torus_d(d, n, &IdAssignment::Sequential);
            // Edge labels carry d owned colours, so the label space is k^d.
            let labels = match spec.grid_problem() {
                Some(GridProblem::EdgeColouring { k }) => u32::from(*k).pow(d as u32),
                _ => u32::from(spec.alphabet()),
            };
            let mut labelling = vec![0u16; inst.node_count()];
            let exists = loop {
                if spec.check_instance(&inst, &labelling).is_ok() {
                    break true;
                }
                // The next labelling in mixed-radix order, or stop.
                let Some(i) = labelling.iter().position(|&l| u32::from(l) + 1 < labels) else {
                    break false;
                };
                labelling[i] += 1;
                labelling[..i].fill(0);
            };
            assert_eq!(
                prepared.solvable(&inst),
                Ok(exists),
                "{} on the {d}-d torus of side {n}",
                spec.name()
            );
        }
    }
}
