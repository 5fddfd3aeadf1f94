//! # lcl-grids
//!
//! A from-scratch Rust reproduction of *"LCL problems on grids"* (Brandt,
//! Hirvonen, Korhonen, Lempiäinen, Östergård, Purcell, Rybicki, Suomela,
//! Uznański — PODC 2017, arXiv:1702.05456).
//!
//! # The engine: one shared service, many problems
//!
//! The paper's central message is that every radius-1 LCL on oriented
//! grids reduces to one normal form (sets of allowed 2×2 blocks) and one
//! complexity landscape (`O(1)`, `Θ(log* n)`, `Θ(n)`) — in every
//! dimension; the [`engine`] module gives this repository the matching
//! API. One problem-agnostic [`engine::Engine`] — `Send + Sync`, holding
//! the [`engine::Registry`], worker threads, and dedup/synthesis/plan
//! caches — serves every problem a process handles.
//! [`engine::Engine::prepare`] resolves a [`engine::ProblemSpec`]'s
//! solver plan once (hand-built §8/§10 constructions, §7 normal-form
//! synthesis with memoised SAT calls, the d-dimensional Theorem 21
//! constructions, corner coordination, or the exact `Θ(n)` SAT existence
//! baseline) into an immutable [`engine::PreparedProblem`] handle; every
//! labelling is re-validated with the topology-native independent
//! checker:
//!
//! ```
//! use lcl_grids::engine::{Engine, Instance, ProblemSpec};
//! use lcl_grids::local::IdAssignment;
//!
//! // One engine for the whole process.
//! let engine = Engine::builder().max_synthesis_k(2).build();
//!
//! // Proper vertex 5-colouring: Θ(log* n), synthesis finds the algorithm.
//! let five = engine.prepare(&ProblemSpec::vertex_colouring(5)).unwrap();
//! let inst = Instance::square(16, &IdAssignment::Shuffled { seed: 1 });
//! let labelling = five.solve(&inst).unwrap();
//! assert!(labelling.report.validated);
//!
//! // Failures are typed values, not panics:
//! use lcl_grids::engine::SolveError;
//! let two = engine.prepare(&ProblemSpec::vertex_colouring(2)).unwrap();
//! let err = two.solve(&Instance::square(5, &IdAssignment::Sequential));
//! assert!(matches!(err, Err(SolveError::Unsolvable { .. })));
//!
//! // Topology is a dispatch dimension, not a dead end: the same engine
//! // solves on a 3-dimensional torus through the registered Theorem 21
//! // construction, and unsupported pairs are typed errors.
//! let cube = Instance::torus_d(3, 4, &IdAssignment::Sequential);
//! let edge6 = ProblemSpec::edge_colouring(6);
//! assert!(engine.solve(&edge6, &cube).is_ok());
//! assert!(matches!(
//!     two.solve(&cube),
//!     Err(SolveError::UnsupportedTopology { .. })
//! ));
//! ```
//!
//! Batch workloads go through [`engine::Engine::solve_batch`] /
//! [`engine::Engine::solve_jobs`] (slices, in-batch dedup namespaced per
//! problem, ordered results) or the streaming
//! [`engine::Engine::solve_stream`] (an iterator of mixed-problem
//! [`engine::Job`]s drained through a bounded channel in `O(threads)`
//! memory); round budgets ([`engine::EngineBuilder::rounds_budget`]) make
//! the engine refuse solutions that are asymptotically too slow for the
//! caller.
//!
//! # Problems as data: `lcl-lang`
//!
//! Problems need not be baked into the binary: the [`lang`] crate defines
//! a small textual format for LCLs (named alphabets, window constraints
//! at any radius, node-set and edge-set sugar) and a normalizing compiler
//! to the radius-1 block normal form. [`engine::ProblemSpec::compile`]
//! turns source text into a first-class spec that rides the same
//! registry tiers, classification, batching, and synthesis cache as the
//! built-in library:
//!
//! ```
//! use lcl_grids::engine::{Engine, Instance, ProblemSpec};
//! use lcl_grids::local::IdAssignment;
//!
//! let spec = ProblemSpec::compile(
//!     "problem vertex-5-colouring { alphabet { a, b, c, d, e } edges differ }",
//! )
//! .unwrap();
//! let engine = Engine::builder().max_synthesis_k(2).build();
//! let inst = Instance::square(16, &IdAssignment::Shuffled { seed: 3 });
//! assert!(engine.solve(&spec, &inst).unwrap().report.validated);
//! ```
//!
//! # The layers underneath
//!
//! * [`grid`] — toroidal grid topologies, metrics, powers, Voronoi tilings.
//! * [`local`] — the LOCAL model: identifiers, views, round accounting, and
//!   a synchronous message-passing simulator.
//! * [`sat`] — a CDCL SAT solver used by the synthesis pipeline.
//! * [`symmetry`] — Cole–Vishkin, Linial colour reduction, and maximal
//!   independent sets on grid powers (the problem-independent `S_k`).
//! * [`turing`] — Turing machines for the undecidability construction.
//! * [`core`] — the LCL formalism, cycle classification (§4), the speed-up
//!   normal form (§5), algorithm synthesis (§7, App. A.1), and the
//!   `L_M` construction (§6).
//! * [`lang`] — the `lcl-lang` problem-definition language: lexer, parser,
//!   typed AST, and the normalizing compiler to block normal form.
//! * [`algorithms`] — concrete distributed algorithms: 4-colouring (§8),
//!   (2d+1)-edge-colouring (§10), orientations (§11), corner coordination
//!   (App. A.3).
//! * [`lowerbounds`] — q-sum coordination (§9), row invariants for
//!   3-colouring and {0,3,4}-orientations, parity impossibilities.
//!
//! The domain crates stay importable for research workflows (cycle
//! classification, the speed-up transformation, invariant experiments);
//! for *solving grid LCLs*, the engine is the documented way in. See
//! DESIGN.md for the architecture and the solver escalation scheme.

#![forbid(unsafe_code)]
pub mod engine;

pub use engine::{
    Engine, Instance, Job, Labelling, PreparedProblem, ProblemSpec, Registry, SolveError, Topology,
};

pub use lcl_algorithms as algorithms;
pub use lcl_analyze as analyze;
pub use lcl_core as core;
pub use lcl_grid as grid;
pub use lcl_lang as lang;
pub use lcl_local as local;
pub use lcl_lowerbounds as lowerbounds;
pub use lcl_sat as sat;
pub use lcl_symmetry as symmetry;
pub use lcl_turing as turing;
