//! Constraint compilation and `A′` extraction (§7).
//!
//! The finite function `A′` assigns an output label to every realizable
//! tile. Correctness of `A′ ∘ S_k` is equivalent to: for every realizable
//! *super-tile* (one row and one column larger than the window), the
//! labels of its four corner sub-tiles form an allowed 2×2 block of the
//! target LCL. These constraints are compiled to CNF — using factored
//! variables where the problem structure permits (edge colours,
//! orientation bits) — and handed to the CDCL solver; a model is read back
//! as the lookup table of `A′`.

use super::tiles::{tile_table, Tile, TileShape, TileTable};
use crate::lcl::{GridProblem, Label};
use lcl_grid::{Metric, Pos, Torus2};
use lcl_local::{GridInstance, Rounds};
use lcl_sat::{exactly_one, Budget, BudgetExceeded, Lit, SolveOutcome, Solver, Var};
use std::fmt;
use std::sync::Arc;

/// Typed failure of a synthesised-algorithm run: the `try_run` entry
/// points return these instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthRunError {
    /// The torus cannot hold the `A′` window plus its `S_k` frame.
    TorusTooSmall {
        /// Smallest supported side (`max(rows, cols) + 2k`).
        min_side: usize,
        /// The instance's width.
        width: usize,
        /// The instance's height.
        height: usize,
    },
    /// An anchor window materialised that is not a realizable tile — the
    /// anchor set is not a maximal independent set of `G^(k)`.
    UnrealizableWindow {
        /// The node whose window failed to resolve.
        at: Pos,
    },
}

impl fmt::Display for SynthRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthRunError::TorusTooSmall {
                min_side,
                width,
                height,
            } => write!(
                f,
                "torus side must be at least {min_side}, got {width}x{height}"
            ),
            SynthRunError::UnrealizableWindow { at } => write!(
                f,
                "window at {at} is not a realizable tile — anchors are not an MIS of G^(k)?"
            ),
        }
    }
}

impl std::error::Error for SynthRunError {}

/// Synthesis parameters: the anchor spacing `k` and the window shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SynthesisConfig {
    /// Anchor spacing: anchors form an MIS of `G^(k)`.
    pub k: usize,
    /// The window shape of `A′`.
    pub shape: TileShape,
}

impl SynthesisConfig {
    /// The default window for a given `k`: `(2k+1) × max(2, 2k−1)` — the
    /// shapes §7 reports (3×2 for `k = 1`, 7×5 for `k = 3`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn for_k(k: usize) -> SynthesisConfig {
        assert!(k > 0);
        SynthesisConfig {
            k,
            shape: TileShape::new(2 * k + 1, (2 * k - 1).max(2)),
        }
    }
}

/// A synthesised normal-form algorithm `A′ ∘ S_k` (Figure 1): the
/// problem-independent anchor component plus a finite lookup table.
///
/// The table is stored *interned*: the realizable tiles in their sorted
/// canonical enumeration order (shared with the process-wide tile memo)
/// plus a parallel label array. Lookups are binary searches by reference
/// — no tile is ever cloned or hashed on the hot path.
#[derive(Clone, Debug)]
pub struct SynthesizedAlgorithm {
    problem_name: String,
    k: usize,
    shape: TileShape,
    row_off: usize,
    col_off: usize,
    /// Realizable tiles, strictly sorted (the canonical enumeration order).
    tiles: Arc<[Tile]>,
    /// `labels[i]` is `A′(tiles[i])`.
    labels: Vec<Label>,
}

/// The result of running a synthesised algorithm.
#[derive(Clone, Debug)]
pub struct SynthRun {
    /// One label per node, in node-index order.
    pub labels: Vec<Label>,
    /// Round ledger: anchor MIS + constant-time window lookup.
    pub rounds: Rounds,
}

impl SynthesizedAlgorithm {
    /// The anchor spacing `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The window shape of `A′`.
    pub fn shape(&self) -> TileShape {
        self.shape
    }

    /// Number of entries in the lookup table (= number of realizable
    /// tiles).
    pub fn table_len(&self) -> usize {
        self.tiles.len()
    }

    /// The problem this algorithm solves.
    pub fn problem_name(&self) -> &str {
        &self.problem_name
    }

    /// Evaluates `A′` on one anchor window: a binary search over the
    /// sorted interned tiles — no hashing, no cloning.
    pub fn evaluate(&self, window: &Tile) -> Option<Label> {
        self.tiles
            .binary_search(window)
            .ok()
            .map(|i| self.labels[i])
    }

    /// The smallest torus side the algorithm runs on: the `A′` window plus
    /// its `S_k` frame must fit (`max(rows, cols) + 2k`).
    pub fn min_side(&self) -> usize {
        self.shape.rows.max(self.shape.cols) + 2 * self.k
    }

    /// Runs the full pipeline `A′ ∘ S_k` on an instance: anchors via the
    /// MIS of `G^(k)` (`O(log* n)` rounds), then the constant-time window
    /// lookup.
    ///
    /// # Panics
    ///
    /// Panics where [`SynthesizedAlgorithm::try_run`] would return an
    /// error (in particular `"torus side must be at least …"` when the
    /// instance is too small).
    pub fn run(&self, instance: &GridInstance) -> SynthRun {
        self.try_run(instance).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`SynthesizedAlgorithm::run`], but reports bad inputs as typed
    /// errors instead of panicking.
    pub fn try_run(&self, instance: &GridInstance) -> Result<SynthRun, SynthRunError> {
        let torus = instance.torus();
        self.check_size(&torus)?;
        let mis = lcl_symmetry::mis_torus_power(&torus, Metric::L1, self.k, instance.ids());
        let mut rounds = Rounds::new();
        rounds.absorb("S_k", &mis.rounds);
        rounds.charge(
            "A'-window-lookup",
            (self.shape.rows + self.shape.cols) as u64,
        );
        let labels = self.try_run_with_anchors(&torus, &mis.in_mis)?;
        Ok(SynthRun { labels, rounds })
    }

    /// Applies `A′` to a precomputed anchor set.
    ///
    /// # Panics
    ///
    /// Panics where [`SynthesizedAlgorithm::try_run_with_anchors`] would
    /// return an error.
    pub fn run_with_anchors(&self, torus: &Torus2, anchors: &[bool]) -> Vec<Label> {
        self.try_run_with_anchors(torus, anchors)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Applies `A′` to a precomputed anchor set, reporting an undersized
    /// torus or a non-MIS anchor set as typed errors.
    pub fn try_run_with_anchors(
        &self,
        torus: &Torus2,
        anchors: &[bool],
    ) -> Result<Vec<Label>, SynthRunError> {
        assert_eq!(anchors.len(), torus.node_count());
        self.check_size(torus)?;
        // One scratch window, overwritten in full for every node: the
        // per-node loop performs no allocation, and each lookup is a
        // binary search by reference into the interned tile table.
        let mut window = Tile::empty(self.shape);
        let mut labels = Vec::with_capacity(torus.node_count());
        for v in 0..torus.node_count() {
            let p = torus.pos(v);
            for r in 0..self.shape.rows {
                for c in 0..self.shape.cols {
                    let q = torus.offset(
                        p,
                        c as i64 - self.col_off as i64,
                        r as i64 - self.row_off as i64,
                    );
                    window.set(r, c, anchors[torus.index(q)]);
                }
            }
            match self.tiles.binary_search(&window) {
                Ok(i) => labels.push(self.labels[i]),
                Err(_) => return Err(SynthRunError::UnrealizableWindow { at: p }),
            }
        }
        Ok(labels)
    }

    fn check_size(&self, torus: &Torus2) -> Result<(), SynthRunError> {
        let min_side = self.min_side();
        if torus.width() < min_side || torus.height() < min_side {
            return Err(SynthRunError::TorusTooSmall {
                min_side,
                width: torus.width(),
                height: torus.height(),
            });
        }
        Ok(())
    }
}

/// Attempts to synthesise a normal-form algorithm for `problem` with the
/// given parameters. Returns `None` if the constraint system is
/// unsatisfiable — meaning no `A′` with this window shape exists.
pub fn synthesize(problem: &GridProblem, config: &SynthesisConfig) -> Option<SynthesizedAlgorithm> {
    synthesize_budgeted(problem, config, &Budget::unlimited())
        .expect("an unlimited budget never trips")
}

/// [`synthesize`] under a cooperative [`Budget`]. Tile enumeration is
/// unbudgeted and memoised per process; only the final CNF solve polls
/// the budget, at propagation-loop granularity. A budget trip is
/// distinguished from unsatisfiability — `Err` means "ran out of budget",
/// `Ok(None)` means "provably no `A′` with this window shape".
pub fn synthesize_budgeted(
    problem: &GridProblem,
    config: &SynthesisConfig,
    budget: &Budget,
) -> Result<Option<SynthesizedAlgorithm>, BudgetExceeded> {
    let shape = config.shape;
    let k = config.k;
    budget.check()?;
    let table = tile_table(k, shape);
    let tiles = table.tiles();

    let mut solver = Solver::new();
    let assignment: AssignmentFn = match problem {
        GridProblem::VertexColouring { k: colours } => encode_vertex(&mut solver, &table, *colours),
        GridProblem::EdgeColouring { k: colours } => encode_edge(&mut solver, &table, *colours),
        GridProblem::Orientation { x } => encode_orientation(&mut solver, &table, *x),
        GridProblem::Block(b) => encode_block(&mut solver, &table, b),
    };

    Ok(match solver.solve_budgeted(budget)? {
        SolveOutcome::Sat(model) => {
            let labels = (0..tiles.len()).map(|i| assignment(&model, i)).collect();
            Some(SynthesizedAlgorithm {
                problem_name: problem.name(),
                k,
                shape,
                row_off: shape.rows / 2,
                col_off: shape.cols / 2,
                tiles: Arc::clone(tiles),
                labels,
            })
        }
        SolveOutcome::Unsat => None,
    })
}

/// Iterative deepening over `k` and window shapes, as §7 prescribes:
/// "start with k = 1 and increment it until synthesis succeeds". For a
/// global problem this loop runs to `max_k` and gives up — undecidability
/// (Theorem 3) means no synthesiser can do better than such a one-sided
/// test.
pub fn synthesize_auto(problem: &GridProblem, max_k: usize) -> Option<SynthesizedAlgorithm> {
    synthesize_auto_budgeted(problem, max_k, &Budget::unlimited())
        .expect("an unlimited budget never trips")
}

/// [`synthesize_auto`] under a cooperative [`Budget`], polled between
/// deepening steps and inside every final CNF solve (tile enumeration is
/// unbudgeted and memoised per process). An `Err` means the fixpoint was
/// interrupted mid-deepening: the caller must *not* cache it as a "no
/// normal form up to `max_k`" verdict.
pub fn synthesize_auto_budgeted(
    problem: &GridProblem,
    max_k: usize,
    budget: &Budget,
) -> Result<Option<SynthesizedAlgorithm>, BudgetExceeded> {
    // The deepening loop is the synthesis "fixpoint": trace it with the
    // number of (k, shape) attempts and the k that finally succeeded.
    let mut span = lcl_trace::span(lcl_trace::SpanKind::Synthesis, "synthesize-auto");
    let mut attempts = 0u64;
    for k in 1..=max_k {
        let shapes = [
            TileShape::new(2 * k + 1, (2 * k - 1).max(2)),
            TileShape::new(2 * k + 1, 2 * k + 1),
        ];
        for shape in shapes {
            attempts += 1;
            if let Some(a) = synthesize_budgeted(problem, &SynthesisConfig { k, shape }, budget)? {
                span.counters([attempts, 0, k as u64, 0]);
                return Ok(Some(a));
            }
        }
    }
    span.counters([attempts, 0, 0, 0]);
    Ok(None)
}

type AssignmentFn = Box<dyn Fn(&lcl_sat::Model, usize) -> Label>;

fn encode_vertex(solver: &mut Solver, table: &TileTable, colours: u16) -> AssignmentFn {
    let len = table.tiles().len();
    let vars: Vec<Vec<Var>> = (0..len)
        .map(|_| solver.new_vars(colours as usize))
        .collect();
    for tv in &vars {
        let lits: Vec<Lit> = tv.iter().map(|&v| Lit::pos(v)).collect();
        exactly_one(solver, &lits);
    }
    // Horizontally adjacent windows (super-tiles one column wider), then
    // vertically adjacent ones (one row taller).
    let [east, north] = table.pairs();
    for &[a, b] in east.iter().chain(north.iter()) {
        for (&mine, &theirs) in vars[a as usize].iter().zip(&vars[b as usize]) {
            solver.add_clause([Lit::neg(mine), Lit::neg(theirs)]);
        }
    }
    Box::new(move |model, t| vars[t].iter().position(|&v| model.value(v)).unwrap() as Label)
}

fn encode_edge(solver: &mut Solver, table: &TileTable, colours: u16) -> AssignmentFn {
    let len = table.tiles().len();
    // Factored variables: east colour and north colour per tile.
    let east: Vec<Vec<Var>> = (0..len)
        .map(|_| solver.new_vars(colours as usize))
        .collect();
    let north: Vec<Vec<Var>> = (0..len)
        .map(|_| solver.new_vars(colours as usize))
        .collect();
    for t in 0..len {
        let e: Vec<Lit> = east[t].iter().map(|&v| Lit::pos(v)).collect();
        let n: Vec<Lit> = north[t].iter().map(|&v| Lit::pos(v)).collect();
        exactly_one(solver, &e);
        exactly_one(solver, &n);
    }
    // Full super-tiles: the ne corner's four incident edges must be
    // distinct: {east(ne), north(ne), east(nw), north(se)}.
    for corners in table.corners() {
        let [_sw, se, nw, ne] = corners.map(|i| i as usize);
        let groups = [&east[ne], &north[ne], &east[nw], &north[se]];
        for i in 0..4 {
            for j in i + 1..4 {
                for (&mine, &theirs) in groups[i].iter().zip(groups[j]) {
                    solver.add_clause([Lit::neg(mine), Lit::neg(theirs)]);
                }
            }
        }
    }
    Box::new(move |model, t| {
        let e = east[t].iter().position(|&v| model.value(v)).unwrap() as u16;
        let n = north[t].iter().position(|&v| model.value(v)).unwrap() as u16;
        crate::problems::edge_label_encode(e, n, colours)
    })
}

fn encode_orientation(
    solver: &mut Solver,
    table: &TileTable,
    x: crate::problems::XSet,
) -> AssignmentFn {
    let len = table.tiles().len();
    // One boolean per tile and owned edge: true = "points away".
    let east: Vec<Var> = solver.new_vars(len);
    let north: Vec<Var> = solver.new_vars(len);
    for corners in table.corners() {
        let [_sw, se, nw, ne] = corners.map(|i| i as usize);
        // indeg(ne) = !east(ne) + !north(ne) + east(nw) + north(se).
        let fields = [east[ne], north[ne], east[nw], north[se]];
        for mask in 0u8..16 {
            let bits = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0, mask & 8 != 0];
            let indeg = (!bits[0]) as u8 + (!bits[1]) as u8 + bits[2] as u8 + bits[3] as u8;
            if x.contains(indeg) {
                continue;
            }
            let clause: Vec<Lit> = fields
                .iter()
                .zip(bits)
                .map(|(&v, b)| Lit::with_polarity(v, !b))
                .collect();
            solver.add_clause(clause);
        }
    }
    Box::new(move |model, t| (model.value(east[t]) as u16) | ((model.value(north[t]) as u16) << 1))
}

fn encode_block(
    solver: &mut Solver,
    table: &TileTable,
    lcl: &crate::lcl::BlockLcl,
) -> AssignmentFn {
    let len = table.tiles().len();
    let a = lcl.alphabet();
    assert!(
        a <= 8,
        "generic block synthesis is limited to alphabets of size ≤ 8"
    );
    let vars: Vec<Vec<Var>> = (0..len).map(|_| solver.new_vars(a as usize)).collect();
    for tv in &vars {
        let lits: Vec<Lit> = tv.iter().map(|&v| Lit::pos(v)).collect();
        exactly_one(solver, &lits);
    }
    for corners in table.corners() {
        let [sw, se, nw, ne] = corners.map(|i| i as usize);
        for lsw in 0..a {
            for lse in 0..a {
                for lnw in 0..a {
                    for lne in 0..a {
                        if lcl.block_allowed([lsw, lse, lnw, lne]) {
                            continue;
                        }
                        solver.add_clause([
                            Lit::neg(vars[sw][lsw as usize]),
                            Lit::neg(vars[se][lse as usize]),
                            Lit::neg(vars[nw][lnw as usize]),
                            Lit::neg(vars[ne][lne as usize]),
                        ]);
                    }
                }
            }
        }
    }
    Box::new(move |model, t| vars[t].iter().position(|&v| model.value(v)).unwrap() as Label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{self, XSet};
    use lcl_local::IdAssignment;

    /// §11, Lemma 23: {1,3,4}-orientation synthesises at k = 1.
    #[test]
    fn orientation_134_synthesises_at_k1() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        let algo = synthesize_auto(&p, 1).expect("Lemma 23: k=1 suffices");
        assert_eq!(algo.k(), 1);
        let inst = GridInstance::new(16, &IdAssignment::Shuffled { seed: 4 });
        let run = algo.run(&inst);
        assert!(p.check(&inst.torus(), &run.labels).is_ok());
    }

    /// §7: 4-colouring fails at k = 1 with the default 3×2 window.
    #[test]
    fn four_colouring_fails_at_k1() {
        let p = problems::vertex_colouring(4);
        assert!(synthesize(&p, &SynthesisConfig::for_k(1)).is_none());
    }

    /// 5-colouring synthesises at small k (greedy slack over 4 colours).
    #[test]
    fn five_colouring_synthesises_early() {
        let p = problems::vertex_colouring(5);
        let algo = synthesize_auto(&p, 2).expect("5 colours are easy");
        let inst = GridInstance::new(20, &IdAssignment::Shuffled { seed: 9 });
        let run = algo.run(&inst);
        assert!(p.check(&inst.torus(), &run.labels).is_ok());
        assert!(problems::is_proper_vertex_colouring(
            &inst.torus(),
            &run.labels,
            5
        ));
    }

    /// MIS via the generic block encoder.
    #[test]
    fn mis_synthesises() {
        let p = problems::mis_with_pointers();
        let algo = synthesize_auto(&p, 2).expect("MIS is log*");
        let inst = GridInstance::new(18, &IdAssignment::Shuffled { seed: 2 });
        let run = algo.run(&inst);
        assert!(p.check(&inst.torus(), &run.labels).is_ok());
        assert!(problems::is_mis(&inst.torus(), &run.labels));
    }

    #[test]
    fn synthesized_outputs_valid_across_sizes_and_ids() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        let algo = synthesize_auto(&p, 1).unwrap();
        for n in [8usize, 11, 23] {
            for seed in [0u64, 1] {
                let inst = GridInstance::new(n, &IdAssignment::Shuffled { seed });
                let run = algo.run(&inst);
                assert!(
                    p.check(&inst.torus(), &run.labels).is_ok(),
                    "invalid output at n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn rounds_are_log_star_flat() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        let algo = synthesize_auto(&p, 1).unwrap();
        let rounds = |n: usize| {
            let inst = GridInstance::new(n, &IdAssignment::Shuffled { seed: 5 });
            algo.run(&inst).rounds.total()
        };
        let small = rounds(12);
        let large = rounds(64);
        assert!(large <= small + 8, "rounds grew: {small} -> {large}");
    }

    #[test]
    fn synthesised_tiles_share_the_memo() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        let algo = synthesize_auto(&p, 1).unwrap();
        let memo = tile_table(algo.k(), algo.shape());
        assert!(Arc::ptr_eq(&algo.tiles, memo.tiles()));
    }

    #[test]
    #[should_panic(expected = "torus side must be at least")]
    fn too_small_torus_panics() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        let algo = synthesize_auto(&p, 1).unwrap();
        let inst = GridInstance::new(4, &IdAssignment::Sequential);
        let _ = algo.run(&inst);
    }
}
