//! Counting impossibilities (Theorem 21, Lemma 24).
//!
//! Both arguments are double counting: in a `d`-dimensional grid with
//! `n^d` nodes, a perfect matching colour class (edge `2d`-colouring) or a
//! fixed odd/even in-degree census (`{1,3}`-orientation) forces `n^d` to
//! be even. The functions here evaluate the counting argument in closed
//! form. The tests confirm them against two independent oracles: SAT
//! alone (`lcl_core::existence::solve`) and the checked linear
//! certificates of `lcl_core::counting`.

/// Theorem 21: an edge `2d`-colouring of the `d`-dimensional torus with
/// side `n` forces every colour class to be a perfect matching, so `n^d`
/// must be even. Returns true iff the counting argument *rules out* a
/// colouring.
pub fn edge_2d_colouring_impossible(d: u32, n: usize) -> bool {
    // n^d odd ⇔ n odd.
    n % 2 == 1 && d >= 1
}

/// Lemma 24: a `{1,3}`-orientation forces #in-degree-1 ≡ #in-degree-3
/// (mod 2) by edge counting, so the node count `n²` must be even.
/// Returns true iff the argument rules the orientation out.
pub fn orientation_13_impossible(n: usize) -> bool {
    n % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_core::problems::{self, XSet};
    use lcl_core::{counting, existence};
    use lcl_grid::Torus2;

    // `existence::solve` is SAT alone; `existence::solvable` would consult
    // the counting certificates these tests compare against.

    #[test]
    fn counting_agrees_with_sat_for_edge_colouring() {
        for n in 3..=6 {
            let predicted_impossible = edge_2d_colouring_impossible(2, n);
            let sat_solvable =
                existence::solve(&problems::edge_colouring(4), &Torus2::square(n)).is_some();
            assert_eq!(predicted_impossible, !sat_solvable, "disagreement at n={n}");
        }
    }

    #[test]
    fn counting_agrees_with_sat_for_orientation_13() {
        for n in 3..=6 {
            let predicted_impossible = orientation_13_impossible(n);
            let sat_solvable = existence::solve(
                &problems::orientation(XSet::from_degrees(&[1, 3])),
                &Torus2::square(n),
            )
            .is_some();
            assert_eq!(predicted_impossible, !sat_solvable, "disagreement at n={n}");
        }
    }

    #[test]
    fn orientation_13_agrees_with_the_counting_certificates() {
        let problem = problems::orientation(XSet::from_degrees(&[1, 3]));
        for n in 1..=12 {
            let certified = counting::rules_out(&problem, &Torus2::square(n)).is_some();
            assert_eq!(orientation_13_impossible(n), certified, "n={n}");
        }
    }

    #[test]
    fn even_sizes_are_never_ruled_out() {
        assert!(!edge_2d_colouring_impossible(2, 8));
        assert!(!orientation_13_impossible(10));
    }

    #[test]
    fn d_dimensional_statement() {
        // The argument is dimension-independent: odd side rules it out
        // for every d ≥ 1.
        for d in 1..=4 {
            assert!(edge_2d_colouring_impossible(d, 7));
            assert!(!edge_2d_colouring_impossible(d, 4));
        }
    }
}
