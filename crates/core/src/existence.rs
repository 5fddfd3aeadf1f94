//! SAT-based per-`n` existence solving — the `Θ(n)` brute-force baseline.
//!
//! Every LCL is solvable in `O(n)` rounds when solvable at all: gather the
//! whole grid and output a canonical solution (§7). This module is that
//! canonical-solution engine. It also powers the impossibility rows of the
//! classification tables: unsatisfiability for a given `n` is decided
//! exactly. [`solvable`] first asks [`crate::counting`] for a checked
//! double-counting certificate (Lemma 24: no `{1,3}`-orientation for odd
//! `n`; the GF(2) and GF(3) rows of Theorem 22) and reaches SAT only
//! without one, since parity formulas are hard for resolution. [`solve`]
//! is SAT alone. Edge `2d`-colouring (Theorem 21) has a certificate too,
//! but its alphabet `k²` is above [`crate::counting::MAX_ALPHABET`].
//!
//! Encodings exploit problem structure (edge colours and orientations get
//! their own variables) so that instances stay small; the generic
//! [`GridProblem::Block`] fallback enumerates forbidden blocks and is
//! limited to small alphabets.
//!
//! On `d`-dimensional tori the module encodes only axis-symmetric
//! pairwise problems ([`solve_pairwise_d`]). The other d-dimensional
//! verdicts are closed forms of the problem's reading,
//! [`crate::problems::DdimSemantics::solvable`], since Theorem 21's
//! parity argument is hard for resolution: a generic edge 6-colouring CNF
//! of the 3×3×3 torus ran for over two minutes without a verdict.

use crate::counting;
use crate::lcl::{GridProblem, Label};
use crate::problems::edge_label_encode;
use lcl_grid::{Dir4, Torus2, TorusD};
use lcl_local::SplitMix64;
use lcl_sat::{exactly_one, Budget, BudgetExceeded, Lit, Model, SolveOutcome, Solver, Var};

/// A closure reading a labelling back out of a SAT model.
type DecodeFn = Box<dyn Fn(&Model) -> Vec<Label>>;

/// Solves the problem on the given torus, returning a valid labelling if
/// one exists.
pub fn solve(problem: &GridProblem, torus: &Torus2) -> Option<Vec<Label>> {
    solve_with_phases(problem, torus, None)
}

/// Like [`solve`], but seeds the SAT solver's branching phases, yielding
/// varied (though not uniformly distributed) solutions across seeds. Used
/// by the invariant experiments of §9 and §11 to sample solution space.
pub fn solve_seeded(problem: &GridProblem, torus: &Torus2, seed: u64) -> Option<Vec<Label>> {
    solve_with_phases(problem, torus, Some(seed))
}

/// [`solve`]/[`solve_seeded`] under a cooperative [`Budget`], polled at
/// the SAT solver's propagation-loop granularity: `Err` means the budget
/// tripped mid-search (not an unsolvability verdict), `Ok(None)` is the
/// exact "no solution on this torus" answer.
pub fn solve_budgeted(
    problem: &GridProblem,
    torus: &Torus2,
    seed: Option<u64>,
    budget: &Budget,
) -> Result<Option<Vec<Label>>, BudgetExceeded> {
    budget.check()?;
    let mut solver = Solver::new();
    let decode: DecodeFn = match problem {
        GridProblem::VertexColouring { k } => encode_vertex(&mut solver, torus, *k),
        GridProblem::EdgeColouring { k } => encode_edge(&mut solver, torus, *k),
        GridProblem::Orientation { x } => encode_orientation(&mut solver, torus, *x),
        GridProblem::Block(b) => encode_block(&mut solver, torus, b),
    };
    if let Some(seed) = seed {
        let mut rng = SplitMix64::new(seed);
        for v in 0..solver.num_vars() {
            let bit = rng.next_u64() & 1 == 1;
            solver.set_phase(Var(v as u32), bit);
        }
    }
    Ok(match solver.solve_budgeted(budget)? {
        SolveOutcome::Sat(model) => {
            let labels = decode(&model);
            debug_assert!(problem.check(torus, &labels).is_ok());
            Some(labels)
        }
        SolveOutcome::Unsat => None,
    })
}

/// True iff the problem has a solution on this torus.
///
/// A constant solution answers `true`, and a [`counting::rules_out`]
/// certificate (accepted by its independent checker) answers `false`,
/// both without a CNF; every other case is the SAT verdict of [`solve`].
pub fn solvable(problem: &GridProblem, torus: &Torus2) -> bool {
    if problem.constant_solution().is_some() {
        return true;
    }
    if counting::rules_out(problem, torus).is_some() {
        return false;
    }
    solve(problem, torus).is_some()
}

fn solve_with_phases(
    problem: &GridProblem,
    torus: &Torus2,
    seed: Option<u64>,
) -> Option<Vec<Label>> {
    solve_budgeted(problem, torus, seed, &Budget::unlimited())
        .expect("an unlimited budget never trips")
}

/// Solves an axis-symmetric pairwise problem on a d-dimensional torus:
/// the relation `pair_allowed[a · alphabet + b]` (typically derived once
/// via [`crate::lcl::BlockLcl::axis_symmetric_pairs`]) must hold on every
/// adjacent pair along every axis, as
/// [`crate::problems::is_pairwise_valid_d`] reads it — a side-1 node is
/// its own neighbour. Returns a valid labelling if one exists, `None` if
/// the instance is exactly unsolvable.
pub fn solve_pairwise_d(
    torus: &TorusD,
    alphabet: u16,
    pair_allowed: &[bool],
) -> Option<Vec<Label>> {
    solve_pairwise_d_budgeted(torus, alphabet, pair_allowed, &Budget::unlimited())
        .expect("an unlimited budget never trips")
}

/// [`solve_pairwise_d`] under a cooperative [`Budget`] (see
/// [`solve_budgeted`] for the `Err` vs `Ok(None)` distinction).
pub fn solve_pairwise_d_budgeted(
    torus: &TorusD,
    alphabet: u16,
    pair_allowed: &[bool],
    budget: &Budget,
) -> Result<Option<Vec<Label>>, BudgetExceeded> {
    budget.check()?;
    let mut solver = Solver::new();
    let decode = encode_pairwise_d(&mut solver, torus, alphabet, pair_allowed);
    Ok(match solver.solve_budgeted(budget)? {
        SolveOutcome::Sat(model) => Some(decode(&model)),
        SolveOutcome::Unsat => None,
    })
}

fn encode_vertex(solver: &mut Solver, torus: &Torus2, k: u16) -> DecodeFn {
    let n = torus.node_count();
    let vars: Vec<Vec<Var>> = (0..n).map(|_| solver.new_vars(k as usize)).collect();
    for vc in &vars {
        let lits: Vec<Lit> = vc.iter().map(|&x| Lit::pos(x)).collect();
        exactly_one(solver, &lits);
    }
    for v in 0..n {
        let p = torus.pos(v);
        // On a 1-wide torus a node is its own neighbour, so no colouring
        // is proper there — as `GridProblem::check` sees it.
        for q in [torus.step(p, Dir4::East), torus.step(p, Dir4::North)] {
            let u = torus.index(q);
            for (&mine, &theirs) in vars[v].iter().zip(&vars[u]) {
                solver.add_clause([Lit::neg(mine), Lit::neg(theirs)]);
            }
        }
    }
    Box::new(move |model| {
        vars.iter()
            .map(|vc| {
                vc.iter()
                    .position(|&x| model.value(x))
                    .expect("exactly-one guarantees a colour") as Label
            })
            .collect()
    })
}

fn encode_edge(solver: &mut Solver, torus: &Torus2, k: u16) -> DecodeFn {
    let n = torus.node_count();
    let east: Vec<Vec<Var>> = (0..n).map(|_| solver.new_vars(k as usize)).collect();
    let north: Vec<Vec<Var>> = (0..n).map(|_| solver.new_vars(k as usize)).collect();
    for v in 0..n {
        let e: Vec<Lit> = east[v].iter().map(|&x| Lit::pos(x)).collect();
        let no: Vec<Lit> = north[v].iter().map(|&x| Lit::pos(x)).collect();
        exactly_one(solver, &e);
        exactly_one(solver, &no);
    }
    for v in 0..n {
        let p = torus.pos(v);
        let w = torus.index(torus.step(p, Dir4::West));
        let s = torus.index(torus.step(p, Dir4::South));
        // Four incident edge colour variable groups; all pairwise distinct.
        // On a 1-wide torus the same group is seen twice, which no
        // colouring satisfies — as `GridProblem::check` sees it.
        let groups = [&east[v], &north[v], &east[w], &north[s]];
        for i in 0..4 {
            for j in i + 1..4 {
                for (&mine, &theirs) in groups[i].iter().zip(groups[j]) {
                    solver.add_clause([Lit::neg(mine), Lit::neg(theirs)]);
                }
            }
        }
    }
    Box::new(move |model| {
        (0..n)
            .map(|v| {
                let e = east[v].iter().position(|&x| model.value(x)).unwrap() as u16;
                let no = north[v].iter().position(|&x| model.value(x)).unwrap() as u16;
                edge_label_encode(e, no, k)
            })
            .collect()
    })
}

fn encode_orientation(solver: &mut Solver, torus: &Torus2, x: crate::problems::XSet) -> DecodeFn {
    let n = torus.node_count();
    // One boolean per owned edge: true = "points away from the owner".
    let east: Vec<Var> = solver.new_vars(n);
    let north: Vec<Var> = solver.new_vars(n);
    for v in 0..n {
        let p = torus.pos(v);
        let w = torus.index(torus.step(p, Dir4::West));
        let s = torus.index(torus.step(p, Dir4::South));
        // indeg(v) = !east[v] + !north[v] + east[w] + north[s].
        // Forbid every bit combination whose in-degree is outside X.
        let fields = [east[v], north[v], east[w], north[s]];
        for mask in 0u8..16 {
            let e_out = mask & 1 != 0;
            let n_out = mask & 2 != 0;
            let w_in = mask & 4 != 0;
            let s_in = mask & 8 != 0;
            let indeg = (!e_out) as u8 + (!n_out) as u8 + w_in as u8 + s_in as u8;
            if x.contains(indeg) {
                continue;
            }
            // Clause: not this combination.
            let bits = [e_out, n_out, w_in, s_in];
            let clause: Vec<Lit> = fields
                .iter()
                .zip(bits)
                .map(|(&var, bit)| Lit::with_polarity(var, !bit))
                .collect();
            solver.add_clause(clause);
        }
    }
    Box::new(move |model| {
        (0..n)
            .map(|v| (model.value(east[v]) as u16) | ((model.value(north[v]) as u16) << 1))
            .collect()
    })
}

fn encode_block(solver: &mut Solver, torus: &Torus2, lcl: &crate::lcl::BlockLcl) -> DecodeFn {
    // Dead labels — labels in no allowed block (`L001` in lcl-analyze
    // terms) — can never appear in a valid labelling, so per-cell
    // variables are created for the *live* alphabet only. When every
    // label is live (all library problems), the live set is `0..a` and
    // the encoding — variable numbering, clause enumeration order —
    // is identical to encoding over the full alphabet.
    let live = lcl.live_labels();
    assert!(
        live.len() <= 16,
        "generic block encoding is limited to live alphabets of size ≤ 16"
    );
    let n = torus.node_count();
    // With no live label (no allowed block), each cell's exactly-one
    // constraint is the empty clause: unsatisfiable, as every torus has a
    // window.
    let vars: Vec<Vec<Var>> = (0..n).map(|_| solver.new_vars(live.len())).collect();
    for vc in &vars {
        let lits: Vec<Lit> = vc.iter().map(|&x| Lit::pos(x)).collect();
        exactly_one(solver, &lits);
    }
    for v in 0..n {
        let p = torus.pos(v);
        // Every window, as `GridProblem::check` reads it: on a 1-wide
        // torus corners coincide and the clause constrains one cell twice.
        let corners = [
            v,
            torus.index(torus.offset(p, 1, 0)),
            torus.index(torus.offset(p, 0, 1)),
            torus.index(torus.offset(p, 1, 1)),
        ];
        for (isw, &sw) in live.iter().enumerate() {
            for (ise, &se) in live.iter().enumerate() {
                for (inw, &nw) in live.iter().enumerate() {
                    for (ine, &ne) in live.iter().enumerate() {
                        if lcl.block_allowed([sw, se, nw, ne]) {
                            continue;
                        }
                        solver.add_clause([
                            Lit::neg(vars[corners[0]][isw]),
                            Lit::neg(vars[corners[1]][ise]),
                            Lit::neg(vars[corners[2]][inw]),
                            Lit::neg(vars[corners[3]][ine]),
                        ]);
                    }
                }
            }
        }
    }
    Box::new(move |model| {
        vars.iter()
            .map(|vc| live[vc.iter().position(|&x| model.value(x)).unwrap()])
            .collect()
    })
}

fn encode_pairwise_d(
    solver: &mut Solver,
    torus: &TorusD,
    alphabet: u16,
    pair_allowed: &[bool],
) -> DecodeFn {
    let n = torus.node_count();
    let a = alphabet as usize;
    let vars: Vec<Vec<Var>> = (0..n).map(|_| solver.new_vars(a)).collect();
    for vc in &vars {
        let lits: Vec<Lit> = vc.iter().map(|&x| Lit::pos(x)).collect();
        exactly_one(solver, &lits);
    }
    for v in 0..n {
        let p = torus.pos(v);
        for q in 0..torus.dim() {
            let u = torus.index(&torus.offset(&p, q, 1));
            for x in 0..a {
                for y in 0..a {
                    if !pair_allowed[x * a + y] {
                        solver.add_clause([Lit::neg(vars[v][x]), Lit::neg(vars[u][y])]);
                    }
                }
            }
        }
    }
    Box::new(move |model| {
        vars.iter()
            .map(|vc| vc.iter().position(|&x| model.value(x)).unwrap() as Label)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{self, XSet};

    #[test]
    fn two_colouring_even_yes_odd_no() {
        let p = problems::vertex_colouring(2);
        assert!(solvable(&p, &Torus2::square(4)));
        assert!(!solvable(&p, &Torus2::square(5)));
    }

    #[test]
    fn three_colouring_solvable_for_all_small_n() {
        // χ(C_n □ C_n) ≤ 3 for all n ≥ 3 — 3-colouring is global but
        // solvable (§9 uses this).
        let p = problems::vertex_colouring(3);
        for n in 3..=7 {
            let labels = solve(&p, &Torus2::square(n)).expect("3-colouring exists");
            assert!(problems::is_proper_vertex_colouring(
                &Torus2::square(n),
                &labels,
                3
            ));
        }
    }

    #[test]
    fn edge_four_colouring_parity() {
        // Theorem 21 (d = 2): no edge 4-colouring for odd n; solvable for
        // even n.
        let p = problems::edge_colouring(4);
        assert!(solvable(&p, &Torus2::square(4)));
        assert!(!solvable(&p, &Torus2::square(5)));
        let labels = solve(&p, &Torus2::square(4)).unwrap();
        assert!(problems::is_proper_edge_colouring(
            &Torus2::square(4),
            &labels,
            4
        ));
    }

    #[test]
    fn edge_five_colouring_solvable_odd() {
        let p = problems::edge_colouring(5);
        let t = Torus2::square(5);
        let labels = solve(&p, &t).expect("5 colours suffice");
        assert!(problems::is_proper_edge_colouring(&t, &labels, 5));
    }

    #[test]
    fn orientation_13_parity() {
        // Lemma 24: no {1,3}-orientation for odd n.
        let p = problems::orientation(XSet::from_degrees(&[1, 3]));
        assert!(!solvable(&p, &Torus2::square(5)));
        assert!(solvable(&p, &Torus2::square(4)));
    }

    #[test]
    fn orientation_with_two_is_trivial() {
        let p = problems::orientation(XSet::from_degrees(&[2]));
        assert!(solvable(&p, &Torus2::square(5)));
    }

    #[test]
    fn orientation_034_solvable() {
        // {0,3,4}-orientation is global (Theorem 25) but solvable; check a
        // few sizes.
        let p = problems::orientation(XSet::from_degrees(&[0, 3, 4]));
        for n in [4usize, 5, 6] {
            let t = Torus2::square(n);
            let labels = solve(&p, &t).unwrap_or_else(|| panic!("solvable for n={n}"));
            let x = XSet::from_degrees(&[0, 3, 4]);
            assert!(problems::orientation_indegrees(&t, &labels)
                .iter()
                .all(|&d| x.contains(d)));
        }
    }

    #[test]
    fn mis_block_encoding_solvable() {
        let p = problems::mis_with_pointers();
        let t = Torus2::square(5);
        let labels = solve(&p, &t).expect("MIS always exists");
        assert!(problems::is_mis(&t, &labels));
    }

    #[test]
    fn seeded_solutions_vary() {
        let p = problems::vertex_colouring(4);
        let t = Torus2::square(5);
        let a = solve_seeded(&p, &t, 1).unwrap();
        let b = solve_seeded(&p, &t, 2).unwrap();
        // Different seeds overwhelmingly give different colourings.
        assert_ne!(a, b, "expected seed-dependent solutions");
    }

    #[test]
    fn rectangular_tori_supported() {
        let p = problems::vertex_colouring(2);
        assert!(solvable(&p, &Torus2::rect(4, 6)));
        assert!(!solvable(&p, &Torus2::rect(4, 5)));
    }

    #[test]
    fn one_wide_tori_encode_every_window() {
        // On a 1-wide torus a window's corners coincide; the checker still
        // reads every window, so SAT must agree with it.
        let two = GridProblem::Block(crate::lcl::BlockLcl::from_pairs(
            2,
            |a, b| a != b,
            |a, b| a != b,
        ));
        let empty = GridProblem::Block(crate::lcl::BlockLcl::new(2));
        for torus in [Torus2::rect(1, 4), Torus2::rect(4, 1), Torus2::square(1)] {
            for p in [
                &two,
                &empty,
                &problems::vertex_colouring(3),
                &problems::edge_colouring(5),
            ] {
                assert_eq!(solve(p, &torus), None, "{} on {torus:?}", p.name());
                assert!(!solvable(p, &torus), "{} on {torus:?}", p.name());
            }
        }
        // What the checker accepts there, SAT finds: stripes along the
        // long axis of a 1×4 torus.
        let stripes = GridProblem::Block(crate::lcl::BlockLcl::from_pairs(
            2,
            |a, b| a == b,
            |a, b| a != b,
        ));
        let torus = Torus2::rect(1, 4);
        let labels = solve(&stripes, &torus).expect("alternating rows");
        assert!(stripes.check(&torus, &labels).is_ok());
    }

    /// The verdict of the problem's d-dimensional reading on `torus`;
    /// `None` when the problem has no reading there.
    fn verdict(problem: &GridProblem, torus: &TorusD) -> Option<bool> {
        problems::ddim_semantics(problem, torus.dim()).map(|reading| reading.solvable(torus))
    }

    #[test]
    fn d3_vertex_colouring_parity() {
        // χ(C_n^□3) = 2 for even n, 3 for odd n: the closed form of the
        // d-dimensional reading on both sides.
        let p = problems::vertex_colouring(2);
        assert_eq!(verdict(&p, &TorusD::new(3, 3)), Some(false));
        assert_eq!(verdict(&p, &TorusD::new(3, 2)), Some(true));
        assert_eq!(
            verdict(&problems::vertex_colouring(3), &TorusD::new(3, 3)),
            Some(true)
        );
    }

    #[test]
    fn d3_edge_colouring_encoder() {
        // Theorem 21: edge 6-colouring of a 3-d torus exists exactly for
        // even sides.
        let p = problems::edge_colouring(6);
        let torus = TorusD::new(3, 2);
        assert_eq!(verdict(&p, &torus), Some(true));
        assert_eq!(verdict(&p, &TorusD::new(3, 3)), Some(false));
        // Fewer colours than the degree 2d is exactly unsolvable.
        assert_eq!(verdict(&problems::edge_colouring(5), &torus), Some(false));
        // One extra colour keeps odd sides solvable (§10).
        assert_eq!(
            verdict(&problems::edge_colouring(7), &TorusD::new(3, 3)),
            Some(true)
        );
    }

    #[test]
    fn d3_pairwise_block_fallback() {
        // Independent set: axis-symmetric pairwise, always solvable, and
        // the pairwise encoder's labelling passes the native validator.
        let p = problems::independent_set();
        let torus = TorusD::new(3, 4);
        assert_eq!(verdict(&p, &torus), Some(true));
        let pairs = match &p {
            GridProblem::Block(b) => b.axis_symmetric_pairs().expect("pairwise"),
            _ => unreachable!("the independent set is a block problem"),
        };
        let labels = solve_pairwise_d(&torus, 2, &pairs).expect("solvable");
        assert!(problems::is_independent_set_d(&torus, &labels));
        // The 2-colouring written as a *generic block table* rides the
        // pairwise SAT encoder and gets the exact odd-side verdict.
        let two = GridProblem::Block(crate::lcl::BlockLcl::from_pairs(
            2,
            |a, b| a != b,
            |a, b| a != b,
        ));
        assert_eq!(verdict(&two, &TorusD::new(3, 3)), Some(false));
        assert_eq!(verdict(&two, &TorusD::new(3, 4)), Some(true));
    }

    #[test]
    fn problems_without_d_semantics_are_none() {
        let torus = TorusD::new(3, 4);
        assert_eq!(
            verdict(&problems::orientation(XSet::from_degrees(&[1, 3])), &torus),
            None
        );
        // MIS-with-pointers does not factor into one axis-symmetric pair
        // relation.
        assert_eq!(verdict(&problems::mis_with_pointers(), &torus), None);
    }
}
