//! Property-based tests for the core LCL machinery.

use crate::counting::{self, Certificate, PRIMES};
use crate::cycles::{solve_global_cycle, synthesize_cycle_algorithm, CycleLcl};
use crate::lcl::BlockLcl;
use crate::problems::{self, XSet};
use crate::synthesis::{enumerate_tiles, realizable, Tile, TileShape};
use crate::{existence, GridProblem, Label};
use lcl_grid::{CycleGraph, Torus2};
use lcl_local::{GridInstance, IdAssignment, SplitMix64};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block checker and the native vertex-colouring validator agree
    /// on arbitrary labellings.
    #[test]
    fn checker_agreement_vertex(n in 3usize..7, k in 2u16..5, seed in 0u64..500) {
        let t = Torus2::square(n);
        let mut rng = SplitMix64::new(seed);
        let labels: Vec<u16> = (0..n * n).map(|_| rng.next_below(k as u64) as u16).collect();
        let p = problems::vertex_colouring(k);
        prop_assert_eq!(
            p.check(&t, &labels).is_ok(),
            problems::is_proper_vertex_colouring(&t, &labels, k)
        );
    }

    /// Same for edge colourings.
    #[test]
    fn checker_agreement_edge(n in 3usize..6, seed in 0u64..500) {
        let k = 5u16;
        let t = Torus2::square(n);
        let mut rng = SplitMix64::new(seed);
        let labels: Vec<u16> =
            (0..n * n).map(|_| rng.next_below((k * k) as u64) as u16).collect();
        let p = problems::edge_colouring(k);
        prop_assert_eq!(
            p.check(&t, &labels).is_ok(),
            problems::is_proper_edge_colouring(&t, &labels, k)
        );
    }

    /// Same for orientations, against the in-degree census.
    #[test]
    fn checker_agreement_orientation(n in 3usize..6, mask in 0u8..32, seed in 0u64..200) {
        let t = Torus2::square(n);
        let x = XSet::all().nth(mask as usize).unwrap();
        let mut rng = SplitMix64::new(seed);
        let labels: Vec<u16> = (0..n * n).map(|_| rng.next_below(4) as u16).collect();
        let p = problems::orientation(x);
        let native = problems::orientation_indegrees(&t, &labels)
            .iter()
            .all(|&d| x.contains(d));
        prop_assert_eq!(p.check(&t, &labels).is_ok(), native);
    }

    /// Whatever the SAT existence solver outputs is valid.
    #[test]
    fn existence_solutions_always_check(n in 4usize..7, seed in 0u64..100) {
        for p in [
            problems::vertex_colouring(4),
            problems::edge_colouring(5),
            problems::mis_with_pointers(),
        ] {
            let t = Torus2::square(n);
            if let Some(labels) = existence::solve_seeded(&p, &t, seed) {
                prop_assert!(p.check(&t, &labels).is_ok(), "{} at n={n}", p.name());
            }
        }
    }

    /// Tiles returned by the enumerator are realizable, and random
    /// non-independent patterns are rejected.
    #[test]
    fn realizability_soundness(k in 1usize..3, seed in 0u64..200) {
        let shape = TileShape::new(3, 3);
        let mut rng = SplitMix64::new(seed);
        let mut tile = Tile::empty(shape);
        for r in 0..3 {
            for c in 0..3 {
                tile.set(r, c, rng.next_below(3) == 0);
            }
        }
        let enumerated = enumerate_tiles(k, shape);
        // The enumeration contains exactly the realizable patterns.
        prop_assert_eq!(enumerated.contains(&tile), realizable(k, &tile));
    }

    /// Synthesised cycle algorithms are valid for arbitrary n and seeds.
    #[test]
    fn cycle_synthesis_total_correctness(n in 7usize..400, seed in 0u64..100) {
        let problem = CycleLcl::colouring(3);
        let algo = synthesize_cycle_algorithm(&problem).unwrap();
        let cycle = CycleGraph::new(n);
        let ids = IdAssignment::Shuffled { seed }.materialise(n);
        let run = algo.run(&cycle, &ids);
        prop_assert!(problem.check(&cycle, &run.labels));
    }

    /// The global cycle solver's outputs always check, and its parity
    /// behaviour for 2-colouring is exact.
    #[test]
    fn cycle_global_solver(n in 3usize..60) {
        let two = CycleLcl::colouring(2);
        match solve_global_cycle(&two, n) {
            Some(labels) => {
                prop_assert_eq!(n % 2, 0);
                prop_assert!(two.check(&CycleGraph::new(n), &labels));
            }
            None => prop_assert_eq!(n % 2, 1),
        }
    }

    /// Synthesised grid algorithms stay correct across id assignments —
    /// including adversarial sparse spaces.
    #[test]
    fn synthesized_orientation_robust(n in 8usize..24, seed in 0u64..50, spread in 1u64..50) {
        let x = XSet::from_degrees(&[1, 3, 4]);
        let p: GridProblem = problems::orientation(x);
        // The table is cached per test-process run via lazy static-free
        // recomputation; k=1 synthesis is fast enough to redo.
        let algo = crate::synthesis::synthesize_auto(&p, 1).unwrap();
        let inst = GridInstance::new(
            n,
            &IdAssignment::Sparse { seed, spread },
        );
        let run = algo.run(&inst);
        prop_assert!(p.check(&inst.torus(), &run.labels).is_ok());
    }
}

/// A random block table over `alphabet ≤ 3` labels: a random set of
/// blocks, or (`pairwise`) the blocks built from random horizontal and
/// vertical pair relations — the shape of colourings, whose parity
/// obstructions the counting certificates capture.
fn random_block_lcl(alphabet: u16, pairwise: bool, seed: u64) -> GridProblem {
    let mut rng = SplitMix64::new(seed);
    let a = usize::from(alphabet);
    let lcl = if pairwise {
        let h: Vec<bool> = (0..a * a).map(|_| rng.next_below(2) == 0).collect();
        let v: Vec<bool> = (0..a * a).map(|_| rng.next_below(2) == 0).collect();
        let at = |t: &[bool], x: Label, y: Label| t[usize::from(x) * a + usize::from(y)];
        BlockLcl::from_pairs(alphabet, |x, y| at(&h, x, y), |x, y| at(&v, x, y))
    } else {
        let density = 1 + rng.next_below(4);
        let mut lcl = BlockLcl::new(alphabet);
        for code in 0..a.pow(4) {
            if rng.next_below(5) < density {
                let digit = |i: u32| (code / a.pow(i) % a) as Label;
                lcl.allow([digit(0), digit(1), digit(2), digit(3)]);
            }
        }
        lcl
    };
    GridProblem::Block(lcl)
}

/// The unknowns `(vertical, index)` with a non-zero net coefficient in
/// some allowed block's equation.
fn used_potentials(problem: &GridProblem) -> Vec<(bool, usize)> {
    let a = problem.alphabet();
    let idx = |x: Label, y: Label| usize::from(x) * usize::from(a) + usize::from(y);
    let mut used = Vec::new();
    for sw in 0..a {
        for se in 0..a {
            for nw in 0..a {
                for ne in 0..a {
                    if !problem.block_allowed([sw, se, nw, ne]) {
                        continue;
                    }
                    if (sw, se) != (nw, ne) {
                        used.extend([(false, idx(sw, se)), (false, idx(nw, ne))]);
                    }
                    if (sw, nw) != (se, ne) {
                        used.extend([(true, idx(sw, nw)), (true, idx(se, ne))]);
                    }
                }
            }
        }
    }
    used.sort_unstable();
    used.dedup();
    used
}

/// The certificate properties, for one problem:
/// * a certificate that rules a `w × h` torus out (`w, h ≤ 4`) passed the
///   checker, and SAT alone finds no labelling there;
/// * every certificate the finder issues passes the checker, and moving
///   one potential that some allowed block uses makes the checker reject
///   it;
/// * a problem SAT solves on the 3×3 torus gets no certificate modulo a
///   prime coprime to 9 — which would rule 3×3 out — and nothing rules
///   3×3 out.
fn assert_certificate_properties(problem: &GridProblem, pick: u64) {
    for w in 1..=4 {
        for h in 1..=4 {
            let torus = Torus2::rect(w, h);
            if let Some(cert) = counting::rules_out(problem, &torus) {
                assert!(counting::check(problem, &cert));
                assert!(cert.rules_out(&torus));
                assert_eq!(existence::solve(problem, &torus), None, "{problem} {w}x{h}");
            }
        }
    }
    for p in PRIMES {
        let Some(cert) = counting::find(problem, p) else {
            continue;
        };
        assert!(counting::check(problem, &cert), "{problem} mod {p}");
        let used = used_potentials(problem);
        if let Some(&(vertical, i)) = used.get(pick as usize % used.len().max(1)) {
            let mut moved: Certificate = cert.clone();
            let table = if vertical {
                &mut moved.vertical
            } else {
                &mut moved.horizontal
            };
            table[i] = (table[i] + 1) % p;
            assert!(!counting::check(problem, &moved), "{problem} mod {p}");
        }
    }
    let three = Torus2::square(3);
    if existence::solve(problem, &three).is_some() {
        assert_eq!(counting::rules_out(problem, &three), None, "{problem}");
        for p in [2, 5, 7] {
            assert_eq!(counting::find(problem, p), None, "{problem} mod {p}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counting certificates of random small block tables are sound,
    /// checked, and rigid.
    #[test]
    fn counting_certificates_on_random_tables(
        alphabet in 1u16..=3,
        pairwise in 0u8..2,
        seed in 0u64..100_000,
        pick in 0u64..1_000,
    ) {
        assert_certificate_properties(&random_block_lcl(alphabet, pairwise == 1, seed), pick);
    }
}

/// The same properties on all 32 `X`-orientations.
#[test]
fn counting_certificates_on_orientations() {
    for (pick, x) in XSet::all().enumerate() {
        assert_certificate_properties(&problems::orientation(x), pick as u64);
    }
}

/// The random tables above are not vacuous: some get a certificate and
/// some do not.
#[test]
fn random_tables_exercise_both_outcomes() {
    let certified = (0..64)
        .filter(|&seed| {
            let problem = random_block_lcl(2 + (seed % 2) as u16, seed % 4 < 2, seed);
            PRIMES
                .iter()
                .any(|&p| counting::find(&problem, p).is_some())
        })
        .count();
    assert!(
        0 < certified && certified < 64,
        "{certified} of 64 certified"
    );
}
