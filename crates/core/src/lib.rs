//! The LCL formalism of *LCL problems on grids* and the paper's main
//! contributions: classification, the speed-up normal form, and automated
//! algorithm synthesis.
//!
//! # Organisation
//!
//! * [`lcl`] — locally checkable labellings on oriented toroidal grids in
//!   *block normal form*: a problem is a set of allowed 2×2 label windows
//!   (every radius-1 LCL on oriented grids normalises to this shape; §3).
//! * [`canonical`] — canonical forms of block tables under label
//!   permutation, transpose, and reflection symmetries, plus the
//!   content-addressed census identity used by `lcl-atlas` and the
//!   engine's atlas lookup.
//! * [`census`] — the census line codec: the header and per-problem
//!   records of `lcl-atlas` artifacts, read and written by `lcl-atlas`
//!   and the engine's atlas lookup alike.
//! * [`problems`] — the concrete problem library: vertex and edge
//!   colourings, `X`-orientations, maximal independent sets; their
//!   native validators and their reading on `d`-dimensional tori.
//! * [`existence`] — a SAT-based per-`n` existence solver (the `Θ(n)`
//!   brute-force baseline, and the tool behind the impossibility rows of
//!   the classification tables).
//! * [`counting`] — linear counting certificates: the double-counting
//!   lower bounds of Theorem 21 and Lemma 24 as domino potentials modulo
//!   `p`, with a finder and an independent checker; [`existence::solvable`]
//!   consults them before SAT.
//! * [`cycles`] — the 1-dimensional warm-up (§4): the output neighbourhood
//!   graph, flexible states, the decidable classifier and optimal
//!   synthesis on directed cycles.
//! * [`speedup`] — Theorem 2: any `o(n)`-time algorithm normalises to
//!   `A′ ∘ S_k`; implemented as an executable transformation.
//! * [`synthesis`] — §7 and Appendix A.1: tile enumeration, the tile
//!   neighbourhood graph, and SAT-backed extraction of the finite function
//!   `A′`, yielding provably correct `O(log* n)` algorithms.
//! * [`lm`] — §6: the LCL `L_M` attached to a Turing machine `M`, with a
//!   local checker and the `O(log* n)` constructive solver for halting
//!   machines. The existence of this family makes the `Θ(log* n)` vs
//!   `Θ(n)` classification undecidable (Theorem 3).
//! * [`classify`] — the 1-bit-advice classification front end (§7).

#![forbid(unsafe_code)]
pub mod canonical;
pub mod census;
pub mod classify;
pub mod counting;
pub mod cycles;
pub mod existence;
pub mod lcl;
pub mod lm;
pub mod problems;
pub mod speedup;
pub mod synthesis;

pub use lcl::{BlockLcl, GridProblem, Label, Violation};
pub use problems::XSet;

#[cfg(all(test, feature = "proptests"))]
mod proptests;
