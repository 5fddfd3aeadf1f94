//! The canonical problem representation the engine dispatches on.
//!
//! Every radius-1 LCL on oriented grids normalises to a set of allowed
//! 2×2 blocks (§3), so a [`ProblemSpec`] is fundamentally a
//! [`GridProblem`] plus a stable name; the named constructors tag the
//! problem library of [`lcl_core::problems`] so that the
//! [`Registry`](crate::engine::Registry) can recognise the problems with
//! hand-built algorithms. The spec is *topology-aware*: the registry
//! resolves solvers per `(problem, topology)` pair, and
//! [`ProblemSpec::check_instance`] validates a labelling on whichever
//! supported topology the [`Instance`] lives on — 2-d tori through the
//! block normal form, d-dimensional tori through the native §8/§10
//! validators, boundary grids through the corner-coordination rules.

use super::instance::Instance;
use lcl_algorithms::corner;
use lcl_analyze::Analysis;
use lcl_core::lcl::{Block, BlockLcl};
use lcl_core::problems::{self, ddim_semantics, DdimSemantics, XSet};
use lcl_core::{GridProblem, Label, Violation};
use lcl_grid::{Metric, Torus2, TorusD};
use lcl_lang::LangError;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// The topology an instance (or a problem family) lives on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Oriented two-dimensional tori — the paper's main setting.
    Torus2,
    /// Oriented d-dimensional tori (§8, §10, Theorem 21). `d = 2` is
    /// canonically equivalent to [`Topology::Torus2`] and is lowered to it
    /// by the engine.
    TorusD {
        /// The dimension `d ≥ 2`.
        d: usize,
    },
    /// Non-toroidal `m × m` grids with boundary (Appendix A.3).
    Boundary,
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Torus2 => write!(f, "oriented 2-d torus"),
            Topology::TorusD { d } => write!(f, "oriented {d}-d torus"),
            Topology::Boundary => write!(f, "boundary grid"),
        }
    }
}

#[derive(Clone, Debug)]
enum SpecKind {
    Grid(GridProblem),
    MisPower { metric: Metric, k: usize },
    Corner,
}

/// A canonical, named LCL problem — the engine's single problem currency.
///
/// # Example
///
/// ```
/// use lcl_grids::engine::{ProblemSpec, Topology};
/// let spec = ProblemSpec::vertex_colouring(4);
/// assert_eq!(spec.name(), "vertex-4-colouring");
/// assert_eq!(spec.to_block_lcl().unwrap().alphabet(), 4);
/// // Edge 2d-colouring is meaningful on higher-dimensional tori too:
/// assert!(ProblemSpec::edge_colouring(6).supports(Topology::TorusD { d: 3 }));
/// assert!(!spec.supports(Topology::Boundary));
/// ```
#[derive(Clone, Debug)]
pub struct ProblemSpec {
    name: String,
    kind: SpecKind,
    /// The static analysis attached at construction (DSL paths carry a
    /// span-bearing one; the engine computes a span-free one at
    /// `prepare` time for raw block specs).
    analysis: Option<Arc<Analysis>>,
}

impl ProblemSpec {
    /// Proper vertex `k`-colouring (§1.3).
    pub fn vertex_colouring(k: u16) -> ProblemSpec {
        ProblemSpec::from_problem(problems::vertex_colouring(k))
    }

    /// Proper edge `k`-colouring (§1.3); labels encode the owned
    /// positive-direction edge colours, one per dimension
    /// ([`lcl_core::problems::edge_label_encode_d`]; on 2-d tori this is
    /// the classic (east, north) encoding). On a d-dimensional torus the
    /// problem reads as edge `k`-colouring of the `2d`-regular torus
    /// graph — Theorem 21's `k = 2d` case is solvable exactly for even
    /// side lengths.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > 255` (the `k²` labels must fit a `u16`).
    pub fn edge_colouring(k: u16) -> ProblemSpec {
        ProblemSpec::from_problem(problems::edge_colouring(k))
    }

    /// `X`-orientation (§11).
    pub fn orientation(x: XSet) -> ProblemSpec {
        ProblemSpec::from_problem(problems::orientation(x))
    }

    /// Maximal independent set with dominator pointers.
    pub fn mis_with_pointers() -> ProblemSpec {
        ProblemSpec {
            name: "mis-with-pointers".to_string(),
            kind: SpecKind::Grid(problems::mis_with_pointers()),
            analysis: None,
        }
    }

    /// Independent set (solvable by the empty set, hence `O(1)`).
    pub fn independent_set() -> ProblemSpec {
        ProblemSpec {
            name: "independent-set".to_string(),
            kind: SpecKind::Grid(problems::independent_set()),
            analysis: None,
        }
    }

    /// Maximal independent set of the `metric`-power `G^k` — the paper's
    /// problem-independent anchor substrate `S_k` (§8), meaningful on tori
    /// of every dimension. Labels: 1 = in the set, 0 = out.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn mis_power(metric: Metric, k: usize) -> ProblemSpec {
        assert!(k > 0, "power exponent must be positive");
        let tag = match metric {
            Metric::L1 => "l1",
            Metric::Linf => "linf",
        };
        ProblemSpec {
            name: format!("mis-power-{tag}-{k}"),
            kind: SpecKind::MisPower { metric, k },
            analysis: None,
        }
    }

    /// The corner coordination problem on boundary grids (Appendix A.3).
    pub fn corner_coordination() -> ProblemSpec {
        ProblemSpec {
            name: "corner-coordination".to_string(),
            kind: SpecKind::Corner,
            analysis: None,
        }
    }

    /// A custom block LCL under an explicit name.
    pub fn block(name: impl Into<String>, lcl: BlockLcl) -> ProblemSpec {
        ProblemSpec {
            name: name.into(),
            kind: SpecKind::Grid(GridProblem::Block(lcl)),
            analysis: None,
        }
    }

    /// Compiles an [`lcl-lang`](lcl_lang) problem definition to its block
    /// normal form and wraps it as a spec: the front door for *arbitrary*
    /// LCLs. The compiled problem routes through the full registry —
    /// constant detection, §7 synthesis, the SAT existence baseline,
    /// [`Engine::classify`](crate::engine::Engine::classify) — and its
    /// synthesis-cache key is content-addressed from the canonical
    /// compiled form, so identical sources share cache entries (and batch
    /// dedup) with each other and with equivalent hand-built tables.
    ///
    /// # Example
    ///
    /// ```
    /// use lcl_grids::engine::ProblemSpec;
    /// let spec = ProblemSpec::compile(
    ///     "problem vertex-3-colouring { alphabet { r, g, b } edges differ }",
    /// )
    /// .unwrap();
    /// assert_eq!(spec.name(), "vertex-3-colouring");
    /// assert_eq!(spec.alphabet(), 3);
    /// // Verdict-identical to the hand-built problem:
    /// let reference = ProblemSpec::vertex_colouring(3);
    /// assert!((0..3u16).all(|l| {
    ///     spec.block_allowed([l, l, l, l]) == reference.block_allowed([l, l, l, l])
    /// }));
    /// ```
    pub fn compile(src: &str) -> Result<ProblemSpec, LangError> {
        // The combined front door of lcl-analyze: parse + compile + the
        // full static analysis (AST-level passes included, so shadowed
        // clauses and pruned source labels carry their spans).
        let out = lcl_analyze::compile(src)?;
        let mut spec = ProblemSpec::block(
            out.compiled.name().to_string(),
            out.compiled.block_lcl().clone(),
        );
        spec.analysis = Some(Arc::new(out.analysis));
        Ok(spec)
    }

    /// Reads and [`compile`](ProblemSpec::compile)s an `.lcl` source file;
    /// unreadable paths surface as a (span-free) [`LangError`].
    pub fn compile_file(path: impl AsRef<Path>) -> Result<ProblemSpec, LangError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path)
            .map_err(|e| LangError::whole_file(format!("cannot read {}: {e}", path.display())))?;
        ProblemSpec::compile(&src)
    }

    /// Wraps an already-compiled [`lcl_lang::CompiledLcl`] under its
    /// source-declared name.
    pub fn compiled(compiled: &lcl_lang::CompiledLcl) -> ProblemSpec {
        let mut spec =
            ProblemSpec::block(compiled.name().to_string(), compiled.block_lcl().clone());
        spec.analysis = Some(Arc::new(lcl_analyze::analyze_compiled(compiled)));
        spec
    }

    /// Wraps any [`GridProblem`] under its canonical name.
    pub fn from_problem(problem: GridProblem) -> ProblemSpec {
        ProblemSpec {
            name: problem.name(),
            kind: SpecKind::Grid(problem),
            analysis: None,
        }
    }

    /// The stable problem name (also the registry and cache key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The [`lcl-analyze`](lcl_analyze) static analysis attached to this
    /// spec. Every DSL-compiled spec ([`ProblemSpec::compile`] /
    /// [`ProblemSpec::compiled`]) carries a span-bearing one from
    /// construction; raw block specs start without and gain a span-free
    /// one when the engine prepares them
    /// ([`PreparedProblem::analysis`](super::PreparedProblem::analysis)).
    pub fn analysis(&self) -> Option<&Arc<Analysis>> {
        self.analysis.as_ref()
    }

    /// The problem's home topology: where its canonical definition lives
    /// (2-d tori for the grid library, boundary grids for corner
    /// coordination). Use [`ProblemSpec::supports`] to ask about a
    /// *specific* topology — several problems are meaningful on more than
    /// their home.
    pub fn home_topology(&self) -> Topology {
        match self.kind {
            SpecKind::Grid(_) | SpecKind::MisPower { .. } => Topology::Torus2,
            SpecKind::Corner => Topology::Boundary,
        }
    }

    /// True iff the problem has defined semantics (and a checker) on the
    /// given topology. This is the dispatch dimension the registry and
    /// [`Engine::solve`](crate::engine::Engine::solve) match on; a
    /// supported topology may still have no registered solver.
    pub fn supports(&self, topology: Topology) -> bool {
        match (&self.kind, topology) {
            (SpecKind::Corner, t) => t == Topology::Boundary,
            (_, Topology::Boundary) => false,
            // Every torus problem lives on 2-d tori (d = 2 included).
            (_, Topology::Torus2) | (_, Topology::TorusD { d: 2 }) => true,
            (SpecKind::MisPower { .. }, Topology::TorusD { .. }) => true,
            (SpecKind::Grid(p), Topology::TorusD { d }) => ddim_semantics(p, d).is_some(),
        }
    }

    /// The underlying grid problem, if this is a torus block problem.
    pub fn grid_problem(&self) -> Option<&GridProblem> {
        match &self.kind {
            SpecKind::Grid(p) => Some(p),
            _ => None,
        }
    }

    /// The MIS-power parameters, if this is a [`ProblemSpec::mis_power`]
    /// problem.
    pub fn mis_power_params(&self) -> Option<(Metric, usize)> {
        match self.kind {
            SpecKind::MisPower { metric, k } => Some((metric, k)),
            _ => None,
        }
    }

    /// Output alphabet size (corner coordination uses the 5 out-pointer
    /// labels of the boundary-paths solver).
    pub fn alphabet(&self) -> u16 {
        match &self.kind {
            SpecKind::Grid(p) => p.alphabet(),
            SpecKind::MisPower { .. } => 2,
            SpecKind::Corner => 5,
        }
    }

    /// The canonical normal form: the explicit set of allowed 2×2 blocks.
    /// A [`GridProblem::Block`] spec returns its own table; a structured
    /// problem is tabulated from its validity predicate while its
    /// alphabet⁴ windows stay within
    /// [`lcl_lang::compile::MAX_WINDOW_ENUMERATION`], the bound the
    /// `lcl-lang` compiler applies too.
    ///
    /// `None` for problems without a radius-1 block normal form (corner
    /// coordination, MIS powers) and for structured problems above that
    /// bound (vertex `k ≥ 33` and edge `k ≥ 6` colourings), whose tables
    /// would cost seconds to build and gigabytes to hold.
    ///
    /// This is the "one representation" every radius-1 torus problem
    /// converts to; it also serves as an independent checker for engine
    /// output.
    pub fn to_block_lcl(&self) -> Option<BlockLcl> {
        let p = self.grid_problem()?;
        if let GridProblem::Block(b) = p {
            return Some(b.clone());
        }
        let windows = u64::from(p.alphabet()).pow(4);
        (windows <= lcl_lang::compile::MAX_WINDOW_ENUMERATION)
            .then(|| BlockLcl::from_predicate(p.alphabet(), |b| p.block_allowed(b)))
    }

    /// True iff the 2×2 window is allowed (torus block problems only).
    pub fn block_allowed(&self, block: Block) -> bool {
        match &self.kind {
            SpecKind::Grid(p) => p.block_allowed(block),
            _ => false,
        }
    }

    /// A label whose constant labelling is valid on 2-d tori — the `O(1)`
    /// criterion.
    pub fn constant_solution(&self) -> Option<Label> {
        self.grid_problem().and_then(|p| p.constant_solution())
    }

    /// True iff the constant solution (when one exists) stays valid on
    /// tori of *every* dimension, not just `d = 2`. Block semantics only
    /// pin down 2×2 windows, so this holds exactly when the problem has
    /// d-dimensional semantics and the uniform labelling satisfies them —
    /// currently the independent-set family (the empty set is independent
    /// in any graph).
    pub(crate) fn constant_solution_on_any_torus(&self) -> bool {
        match &self.kind {
            SpecKind::Grid(p) => {
                // A pairwise problem's 2-d constant solution `l` satisfies
                // `pair(l, l)`, which is the whole validity condition of
                // the constant labelling in every dimension.
                matches!(
                    ddim_semantics(p, 3),
                    Some(DdimSemantics::IndependentSet | DdimSemantics::Pairwise { .. })
                )
                .then(|| p.constant_solution())
                .flatten()
                .is_some()
            }
            _ => false,
        }
    }

    /// Checks a labelling with the independent 2-d block checker.
    ///
    /// # Panics
    ///
    /// Panics if called on a problem without a block normal form or with a
    /// labelling of the wrong length. Prefer
    /// [`ProblemSpec::check_instance`], which handles every topology.
    pub fn check(&self, torus: &Torus2, labels: &[Label]) -> Result<(), Violation> {
        self.grid_problem()
            .expect("check() applies to torus block problems")
            .check(torus, labels)
    }

    /// Validates a labelling on any supported topology with the
    /// problem-native checker for that topology: the tabulated block
    /// normal form on 2-d tori, the d-dimensional §8/§10 validators on
    /// higher-dimensional tori, and the corner-coordination rules (1)–(5)
    /// on boundary grids.
    ///
    /// Errors are human-readable descriptions of the first violation (or
    /// of a topology the problem has no semantics on).
    pub fn check_instance(&self, inst: &Instance, labels: &[Label]) -> Result<(), String> {
        if labels.len() != inst.node_count() {
            return Err(format!(
                "labelling has {} labels for {} nodes",
                labels.len(),
                inst.node_count()
            ));
        }
        if let Some(lowered) = inst.lower_d2() {
            return self.check_instance(&lowered, labels);
        }
        match (&self.kind, inst) {
            (SpecKind::Corner, Instance::Boundary(grid)) => {
                let forest = super::decode_forest(grid, labels);
                corner::check(grid, &forest)
            }
            (SpecKind::Grid(p), Instance::Torus2(gi)) => p
                .check(&gi.torus(), labels)
                .map_err(|violation| violation.to_string()),
            (SpecKind::Grid(p), Instance::TorusD(di)) => {
                let torus = di.torus();
                match ddim_semantics(p, torus.dim()) {
                    Some(reading) => reading.check(torus, labels),
                    None => Err(format!(
                        "{} has no {}-dimensional semantics",
                        self.name,
                        torus.dim()
                    )),
                }
            }
            (SpecKind::MisPower { metric, k }, _) => {
                let torus = match inst {
                    Instance::TorusD(di) => di.torus().clone(),
                    Instance::Torus2(gi) => {
                        let t = gi.torus();
                        if t.width() != t.height() {
                            return Err("mis-power validation needs a square torus".to_string());
                        }
                        TorusD::new(2, t.side())
                    }
                    Instance::Boundary(_) => {
                        return Err(format!("{} lives on tori, not boundary grids", self.name))
                    }
                };
                if labels.iter().any(|&l| l > 1) {
                    return Err("mis-power labels must be 0 or 1".to_string());
                }
                let marked: Vec<bool> = labels.iter().map(|&l| l == 1).collect();
                check_named(torus.is_maximal_independent(*metric, *k, &marked)).map_err(|()| {
                    format!("not a maximal independent set of the {metric:?}-power k={k}")
                })
            }
            (_, _) => Err(format!(
                "{} has no semantics on a {}",
                self.name,
                inst.topology()
            )),
        }
    }
}

fn check_named(ok: bool) -> Result<(), ()> {
    if ok {
        Ok(())
    } else {
        Err(())
    }
}

impl fmt::Display for ProblemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}", self.name, self.home_topology())
    }
}
