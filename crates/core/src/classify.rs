//! The 1-bit-advice classification front end (§7).
//!
//! Deciding whether a grid LCL is `Θ(log* n)` or `Θ(n)` is undecidable
//! (Theorem 3), but with one bit of advice — "local or global" — an
//! asymptotically optimal algorithm can always be produced:
//!
//! * advice = global → the `Θ(n)` brute-force solver of
//!   [`crate::existence`] is optimal;
//! * advice = local → check for a constant solution (`O(1)`), otherwise
//!   run the synthesiser, which is guaranteed to terminate.
//!
//! Used without advice, [`probe`] is the paper's one-sided oracle: if
//! synthesis succeeds within a budget the problem is certainly
//! `O(log* n)`; if it does not, the problem *might* be global.

use crate::existence;
use crate::lcl::{GridProblem, Label};
use crate::synthesis::{synthesize_auto, SynthesizedAlgorithm};
use lcl_grid::Torus2;

/// The three complexity classes of the classification theorem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GridClass {
    /// `O(1)` — a constant labelling is feasible (the only constant-time
    /// possibility on toroidal grids, §6).
    Constant,
    /// `Θ(log* n)`.
    LogStar,
    /// `Θ(n)` — global or unsolvable for infinitely many `n`.
    Global,
}

impl GridClass {
    /// The stable string form, shared by the census artifact and the
    /// service's `/classify` answer.
    pub fn as_str(&self) -> &'static str {
        match self {
            GridClass::Constant => "constant",
            GridClass::LogStar => "log-star",
            GridClass::Global => "global",
        }
    }

    /// Parses the stable string form.
    pub fn parse(s: &str) -> Option<GridClass> {
        match s {
            "constant" => Some(GridClass::Constant),
            "log-star" => Some(GridClass::LogStar),
            "global" => Some(GridClass::Global),
            _ => None,
        }
    }
}

/// An asymptotically optimal algorithm for a classified problem.
pub enum OptimalAlgorithm {
    /// Output this label everywhere; `O(1)` rounds.
    Constant(Label),
    /// A synthesised normal-form algorithm; `Θ(log* n)` rounds.
    Synthesised(Box<SynthesizedAlgorithm>),
    /// Gather everything and solve centrally; `Θ(n)` rounds. Calling
    /// [`OptimalAlgorithm::solve_global`] runs it.
    BruteForce(GridProblem),
}

impl OptimalAlgorithm {
    /// Runs the brute-force branch on a given torus.
    ///
    /// # Panics
    ///
    /// Panics if this is not the brute-force branch.
    pub fn solve_global(&self, torus: &Torus2) -> Option<Vec<Label>> {
        match self {
            OptimalAlgorithm::BruteForce(p) => existence::solve(p, torus),
            _ => panic!("not the brute-force branch"),
        }
    }
}

/// Produces an asymptotically optimal algorithm given the 1-bit advice
/// "is the problem `O(log* n)`?" (§7).
///
/// # Panics
///
/// Panics if `local_advice` is true but synthesis does not succeed within
/// `max_k` — with *correct* advice and enough budget this cannot happen;
/// with incorrect advice it is the undecidability barrier showing itself.
pub fn with_advice(problem: &GridProblem, local_advice: bool, max_k: usize) -> OptimalAlgorithm {
    if !local_advice {
        return OptimalAlgorithm::BruteForce(problem.clone());
    }
    if let Some(label) = problem.constant_solution() {
        return OptimalAlgorithm::Constant(label);
    }
    let algo = synthesize_auto(problem, max_k)
        .expect("advice said O(log* n) but synthesis failed within the budget");
    OptimalAlgorithm::Synthesised(Box::new(algo))
}

/// The one-sided classification oracle: definitely-`Constant`,
/// definitely-`LogStar` (with the certificate algorithm), or
/// `Global`-unless-synthesis-budget-was-too-small.
pub fn probe(problem: &GridProblem, max_k: usize) -> (GridClass, Option<SynthesizedAlgorithm>) {
    if problem.constant_solution().is_some() {
        return (GridClass::Constant, None);
    }
    match synthesize_auto(problem, max_k) {
        Some(a) => (GridClass::LogStar, Some(a)),
        None => (GridClass::Global, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{self, XSet};

    #[test]
    fn constant_class_for_trivial_problems() {
        let p = problems::independent_set();
        let (class, _) = probe(&p, 1);
        assert_eq!(class, GridClass::Constant);
        let o = problems::orientation(XSet::from_degrees(&[2]));
        assert_eq!(probe(&o, 1).0, GridClass::Constant);
    }

    #[test]
    fn logstar_class_with_certificate() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        let (class, algo) = probe(&p, 1);
        assert_eq!(class, GridClass::LogStar);
        assert!(algo.is_some());
    }

    #[test]
    fn global_probe_for_three_colouring_at_small_budget() {
        // 3-colouring is global (Theorem 9); the probe cannot prove it but
        // reports Global after exhausting the budget.
        let p = problems::vertex_colouring(3);
        let (class, _) = probe(&p, 1);
        assert_eq!(class, GridClass::Global);
    }

    #[test]
    fn advice_global_gives_brute_force() {
        let p = problems::vertex_colouring(3);
        let algo = with_advice(&p, false, 1);
        let torus = Torus2::square(5);
        let labels = algo.solve_global(&torus).expect("3-colouring solvable");
        assert!(p.check(&torus, &labels).is_ok());
    }

    #[test]
    fn advice_local_gives_synthesised() {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        match with_advice(&p, true, 2) {
            OptimalAlgorithm::Synthesised(a) => assert_eq!(a.k(), 1),
            _ => panic!("expected synthesis"),
        }
    }

    #[test]
    #[should_panic(expected = "synthesis failed")]
    fn wrong_advice_panics() {
        let p = problems::vertex_colouring(2);
        let _ = with_advice(&p, true, 1);
    }
}
