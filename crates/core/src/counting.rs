//! Linear counting certificates: the double-counting lower bounds of
//! Theorem 21 and Lemma 24 (§10–§11), found by Gaussian elimination and
//! checked by one evaluation per allowed block.
//!
//! A certificate modulo `p` gives every horizontal domino `(l, r)` a
//! potential `u(l, r)` and every vertical domino `(b, t)` a potential
//! `v(b, t)` such that every allowed block `[sw, se, nw, ne]` satisfies
//!
//! ```text
//!   u(sw, se) − u(nw, ne) + v(sw, nw) − v(se, ne) ≡ 1   (mod p)
//! ```
//!
//! Sum this over the `w·h` windows of a valid labelling of a `w × h`
//! torus. Every horizontal domino is the bottom edge of one window and
//! the top edge of another, and every vertical domino is the west edge of
//! one window and the east edge of another, so the left side telescopes
//! to 0 while the right side is `w·h`. A certificate therefore rules out
//! every torus with `p ∤ w·h` — 1-wide tori included, because the
//! telescoping is a re-indexing of the windows and does not care whether
//! their corners coincide. Over GF(2) this is Lemma 24's in-degree parity
//! count for the `{1,3}`-orientation and Theorem 21's perfect-matching
//! count for edge `2d`-colouring.
//!
//! [`find`] solves the linear system (`2a²` unknowns, one row per
//! allowed block) by incremental elimination over GF(p); [`check`]
//! re-evaluates the equation once per allowed block and shares no code
//! with it. [`rules_out`] returns only certificates the checker accepted.
//! The inequality (Farkas) form, which the `{0,1}`- and
//! `{3,4}`-orientations would need, is not implemented.

use crate::lcl::{GridProblem, Label};
use lcl_grid::Torus2;

/// The moduli [`rules_out`] tries, in order.
pub const PRIMES: [u32; 4] = [2, 3, 5, 7];

/// The largest alphabet [`rules_out`] tries: at most `8⁴ = 4096` blocks
/// and `2·8² = 128` unknowns. Edge colourings (`a = k²`) stay above it.
pub const MAX_ALPHABET: u16 = 8;

/// Domino potentials modulo `p` satisfying the block equation of the
/// module doc on every allowed block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The modulus.
    pub p: u32,
    /// The alphabet of the problem the potentials are indexed by.
    pub alphabet: u16,
    /// `u(l, r)` at `l · alphabet + r`.
    pub horizontal: Vec<u32>,
    /// `v(b, t)` at `b · alphabet + t`.
    pub vertical: Vec<u32>,
}

impl Certificate {
    /// True iff the counting argument applies to this torus: `p ∤ w·h`.
    pub fn rules_out(&self, torus: &Torus2) -> bool {
        !(torus.width() * torus.height()).is_multiple_of(self.p as usize)
    }
}

/// The first certificate modulo a prime of [`PRIMES`] that applies to
/// `torus` and that [`check`] accepts, or `None` when there is none or
/// the alphabet exceeds [`MAX_ALPHABET`]. `Some` proves that the problem
/// has no solution on `torus`.
pub fn rules_out(problem: &GridProblem, torus: &Torus2) -> Option<Certificate> {
    if problem.alphabet() > MAX_ALPHABET {
        return None;
    }
    let cells = torus.width() * torus.height();
    PRIMES
        .iter()
        .filter(|&&p| !cells.is_multiple_of(p as usize))
        .find_map(|&p| find(problem, p).filter(|cert| check(problem, cert)))
}

/// Finds a certificate modulo the prime `p`, or `None` when the block
/// equations are inconsistent over GF(p).
///
/// Incremental Gauss–Jordan elimination: the pivot rows are kept fully
/// reduced, so a new block row, which has at most four non-zero
/// coefficients, is cleared by at most four row operations. Free
/// unknowns are set to 0.
///
/// # Panics
///
/// Panics if `p` is not a prime below 2¹⁶.
pub fn find(problem: &GridProblem, p: u32) -> Option<Certificate> {
    assert!(
        (2..1 << 16).contains(&p) && (2..p).all(|d| !p.is_multiple_of(d)),
        "modulus must be a prime below 2^16"
    );
    let a = problem.alphabet();
    let cells = usize::from(a) * usize::from(a);
    let unknowns = 2 * cells;
    let rhs = unknowns;
    let h = |l: Label, r: Label| usize::from(l) * usize::from(a) + usize::from(r);
    let v = |b: Label, t: Label| cells + h(b, t);
    // Pivot rows with their pivot column, and each column's pivot row.
    let mut pivots: Vec<(usize, Vec<u32>)> = Vec::new();
    let mut pivot_of: Vec<Option<usize>> = vec![None; unknowns];
    let mut row = vec![0u32; unknowns + 1];
    for sw in 0..a {
        for se in 0..a {
            for nw in 0..a {
                for ne in 0..a {
                    if !problem.block_allowed([sw, se, nw, ne]) {
                        continue;
                    }
                    let terms = [
                        (h(sw, se), 1),
                        (h(nw, ne), p - 1),
                        (v(sw, nw), 1),
                        (v(se, ne), p - 1),
                    ];
                    row.fill(0);
                    for (col, coef) in terms {
                        row[col] = (row[col] + coef) % p;
                    }
                    row[rhs] = 1;
                    for (col, _) in terms {
                        if let Some(i) = pivot_of[col] {
                            let x = row[col];
                            if x != 0 {
                                axpy(&mut row, p - x, &pivots[i].1, p);
                            }
                        }
                    }
                    let Some(col) = row[..unknowns].iter().position(|&x| x != 0) else {
                        if row[rhs] != 0 {
                            return None; // 0 ≡ 1: no potential exists
                        }
                        continue;
                    };
                    let inv = (1..p)
                        .find(|&y| row[col] * y % p == 1)
                        .expect("non-zero elements of a prime field are invertible");
                    for x in row.iter_mut() {
                        *x = *x * inv % p;
                    }
                    for (_, other) in &mut pivots {
                        let x = other[col];
                        if x != 0 {
                            axpy(other, p - x, &row, p);
                        }
                    }
                    pivot_of[col] = Some(pivots.len());
                    pivots.push((col, row.clone()));
                }
            }
        }
    }
    let mut potentials = vec![0u32; unknowns];
    for (col, pivot_row) in &pivots {
        potentials[*col] = pivot_row[rhs];
    }
    let vertical = potentials.split_off(cells);
    Some(Certificate {
        p,
        alphabet: a,
        horizontal: potentials,
        vertical,
    })
}

/// `dst += k · src`, entrywise modulo `p`.
fn axpy(dst: &mut [u32], k: u32, src: &[u32], p: u32) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d + k * s) % p;
    }
}

/// The independent checker: true iff `cert` is indexed by the problem's
/// alphabet, its modulus is at least 2, and every allowed block
/// satisfies `u(sw,se) − u(nw,ne) + v(sw,nw) − v(se,ne) ≡ 1 (mod p)`.
/// Primality is not needed for the counting argument, so it is not
/// checked.
pub fn check(problem: &GridProblem, cert: &Certificate) -> bool {
    let a = problem.alphabet();
    let cells = usize::from(a) * usize::from(a);
    if cert.p < 2
        || cert.alphabet != a
        || cert.horizontal.len() != cells
        || cert.vertical.len() != cells
    {
        return false;
    }
    let at = |table: &[u32], x: Label, y: Label| {
        i64::from(table[usize::from(x) * usize::from(a) + usize::from(y)])
    };
    for sw in 0..a {
        for se in 0..a {
            for nw in 0..a {
                for ne in 0..a {
                    if !problem.block_allowed([sw, se, nw, ne]) {
                        continue;
                    }
                    let sum = at(&cert.horizontal, sw, se) - at(&cert.horizontal, nw, ne)
                        + at(&cert.vertical, sw, nw)
                        - at(&cert.vertical, se, ne);
                    if (sum - 1).rem_euclid(i64::from(cert.p)) != 0 {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::existence;
    use crate::lcl::BlockLcl;
    use crate::problems::{self, XSet};

    /// The prime of the certificate that rules out the `n × n` torus.
    fn certifying_prime(problem: &GridProblem, n: usize) -> Option<u32> {
        rules_out(problem, &Torus2::square(n)).map(|cert| cert.p)
    }

    #[test]
    fn e6_verdicts_and_certificates_on_the_5x5_torus() {
        let torus = Torus2::square(5);
        let unsolvable: Vec<XSet> = [
            &[][..],
            &[0],
            &[1],
            &[0, 1],
            &[3],
            &[0, 3],
            &[1, 3],
            &[4],
            &[0, 4],
            &[1, 4],
            &[3, 4],
        ]
        .iter()
        .map(|d| XSet::from_degrees(d))
        .collect();
        let by_gf2: Vec<XSet> = [&[][..], &[0], &[1], &[3], &[4], &[0, 4], &[1, 3]]
            .iter()
            .map(|d| XSet::from_degrees(d))
            .collect();
        let by_gf3 = [XSet::from_degrees(&[0, 3]), XSet::from_degrees(&[1, 4])];
        for x in XSet::all() {
            let problem = problems::orientation(x);
            assert_eq!(
                existence::solvable(&problem, &torus),
                !unsolvable.contains(&x),
                "X = {x}"
            );
            let expected = if by_gf2.contains(&x) {
                Some(2)
            } else if by_gf3.contains(&x) {
                Some(3)
            } else {
                None // {0,1} and {3,4} need the inequality form; SAT decides
            };
            assert_eq!(certifying_prime(&problem, 5), expected, "X = {x}");
        }
    }

    #[test]
    fn vertex_two_colouring_is_certified_by_gf2() {
        let problem = problems::vertex_colouring(2);
        assert_eq!(certifying_prime(&problem, 5), Some(2));
        assert_eq!(certifying_prime(&problem, 4), None);
        let cert = find(&problem, 2).expect("GF(2) certificate");
        assert!(check(&problem, &cert));
        assert!(cert.rules_out(&Torus2::rect(3, 5)));
        assert!(!cert.rules_out(&Torus2::rect(3, 4)));
    }

    #[test]
    fn orientation_13_answers_without_sat() {
        let problem = problems::orientation(XSet::from_degrees(&[1, 3]));
        let torus = Torus2::square(5);
        let fastest = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                assert!(!existence::solvable(&problem, &torus));
                t0.elapsed()
            })
            .min()
            .unwrap();
        if !cfg!(debug_assertions) {
            assert!(fastest < std::time::Duration::from_millis(1), "{fastest:?}");
        }
    }

    #[test]
    fn large_alphabets_are_not_tried() {
        // Edge 4-colouring (a = 16) has a GF(2) certificate (Theorem 21),
        // but rules_out leaves alphabets above MAX_ALPHABET to SAT.
        let problem = problems::edge_colouring(4);
        assert_eq!(certifying_prime(&problem, 5), None);
    }

    #[test]
    fn checker_rejects_malformed_certificates() {
        let problem = problems::vertex_colouring(2);
        let cert = find(&problem, 2).unwrap();
        let mut wrong_modulus = cert.clone();
        wrong_modulus.p = 1;
        assert!(!check(&problem, &wrong_modulus));
        let mut short = cert.clone();
        short.vertical.pop();
        assert!(!check(&problem, &short));
        assert!(!check(&problems::vertex_colouring(3), &cert));
    }

    #[test]
    fn no_allowed_block_is_certified_everywhere() {
        let empty = GridProblem::Block(BlockLcl::new(2));
        for (w, h) in [(1, 1), (1, 4), (5, 5)] {
            assert!(rules_out(&empty, &Torus2::rect(w, h)).is_some());
        }
    }
}
