//! Automated algorithm synthesis for `Θ(log* n)` problems (§7, App. A.1).
//!
//! Given an LCL problem `P` with complexity `O(log* n)`, the paper shows
//! `P` has an optimal algorithm of the normal form `A′ ∘ S_k`, where `S_k`
//! finds a maximal independent set of anchors in `G^(k)` and `A′` is a
//! finite function from anchor windows to output labels. Synthesis is then
//! a finite search:
//!
//! 1. enumerate all *tiles* — anchor patterns of a fixed window shape that
//!    occur in maximal independent sets of `G^(k)` ([`tiles`]);
//! 2. compile the LCL constraints into a constraint-satisfaction problem
//!    over labelled tiles, where the constraints connect tiles overlapping
//!    by one row or column;
//! 3. solve with the CDCL solver in `lcl-sat`; a model *is* `A′`.
//!
//! If the CSP is unsatisfiable, retry with a larger window or `k`. For a
//! global problem this loop never succeeds — which is unavoidable, since
//! distinguishing `Θ(log* n)` from `Θ(n)` is undecidable (Theorem 3); the
//! synthesiser is the paper's "one-sided oracle".

mod synth;
pub mod tiles;

pub use synth::{
    synthesize, synthesize_auto, synthesize_auto_budgeted, synthesize_budgeted, SynthRun,
    SynthRunError, SynthesisConfig, SynthesizedAlgorithm,
};
pub use tiles::{enumerate_tiles, realizable, Tile, TileShape};
