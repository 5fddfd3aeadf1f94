//! The closed solver plan and the `(problem, topology)` → plan registry.
//!
//! The paper's algorithm design is a fixed menu, so a plan is a list of
//! [`Tier`]s — one enum, not an extension point. The registry owns the
//! resolution policy "best available first", per topology family: a
//! constant labelling when one exists (`O(1)`), then the hand-built §8/§10
//! constructions, then §7 normal-form synthesis (memoised per problem),
//! then the d-dimensional constructions of Theorem 21, and finally the
//! SAT-backed existence solver — the `Θ(n)` baseline that is exact but
//! slow. Every tier declares the topology family it accepts
//! ([`TopologySupport`]); the prepared plan walks the tiers, skips those
//! whose capabilities reject the instance, and falls through on typed
//! errors. Corner coordination and the d-dimensional algorithms are
//! tiers like every other, not side doors.

use super::error::SolveError;
use super::instance::Instance;
use super::spec::{ProblemSpec, Topology};
use super::{budget_error, Labelling, SolveReport};
use lcl_algorithms::corner::{self, BoundaryGrid};
use lcl_algorithms::ddim;
use lcl_algorithms::edge_colouring::EdgeColouring;
use lcl_algorithms::four_colouring::FourColouring;
use lcl_algorithms::{AlgoError, Profile};
use lcl_core::canonical::fnv1a64;
use lcl_core::problems::XSet;
use lcl_core::synthesis::{
    synthesize_auto, synthesize_auto_budgeted, SynthRunError, SynthesizedAlgorithm,
};
use lcl_core::{existence, GridProblem, Label};
use lcl_grid::{Metric, TorusD};
use lcl_local::{GridInstance, Rounds};
use lcl_sat::{Budget, BudgetExceeded};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The engine options a plan runs under.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlanOptions {
    /// Largest anchor spacing `k` synthesis may try.
    pub(crate) max_synthesis_k: usize,
    /// Seed for the SAT fallback's branching phases (solution sampling).
    pub(crate) seed: Option<u64>,
}

/// Asymptotic round complexity a tier promises.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Complexity {
    /// `O(1)` rounds.
    Constant,
    /// `O(log* n)` rounds.
    LogStar,
    /// `Θ(√n)` rounds (corner coordination).
    SqrtN,
    /// `Θ(n)` rounds (gather everything).
    Linear,
}

/// The family of topologies a tier accepts — the coarse dispatch
/// dimension of [`Capabilities`]. Finer constraints (dimension-dependent
/// palette sizes, parity of the side length) are the tier's own business
/// and surface as typed per-instance errors.
#[derive(Clone, Copy)]
pub(crate) enum TopologySupport {
    /// Exactly the oriented 2-d torus.
    Torus2,
    /// Oriented tori of every dimension `d ≥ 2` (2-d instances are
    /// presented to the tier in their `Torus2` form).
    AnyTorusD,
    /// Boundary grids.
    Boundary,
}

impl TopologySupport {
    /// True iff a tier with this support accepts an instance of the given
    /// topology.
    pub(crate) fn accepts(self, topology: Topology) -> bool {
        matches!(
            (self, topology),
            (TopologySupport::Torus2, Topology::Torus2)
                | (
                    TopologySupport::AnyTorusD,
                    Topology::Torus2 | Topology::TorusD { .. }
                )
                | (TopologySupport::Boundary, Topology::Boundary)
        )
    }
}

/// What a tier supports: consulted by the walk before dispatch.
#[derive(Clone, Copy)]
pub(crate) struct Capabilities {
    /// The topology family the tier runs on.
    pub(crate) topology: TopologySupport,
    /// Smallest supported side length.
    pub(crate) min_side: usize,
    /// True if only equal side lengths are supported.
    pub(crate) square_only: bool,
    /// Promised asymptotic round complexity.
    pub(crate) complexity: Complexity,
}

/// Aggregate counters of the synthesis cache: how often a request was
/// answered from the in-process memo and how often it actually ran the
/// SAT synthesis. `memory_hits + synthesised` equals the number of
/// requests. Benchmarks and tests use these to prove that a warm memo
/// eliminates the SAT call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Requests answered from the in-process memo (including requests
    /// that waited on a concurrent fill of the same key).
    pub memory_hits: u64,
    /// SAT synthesis runs actually performed.
    pub synthesised: u64,
}

/// One memo entry: filled once with the outcome, vacant until then.
type SynthCell = OnceLock<Option<SynthesizedAlgorithm>>;

/// Memoised synthesis outcomes, shared by every engine built from the
/// same registry: synthesising `A′` is expensive (it is a SAT call over
/// all realizable tiles), while running it is cheap, so batch workloads
/// must pay the cost once. Negative "no normal form up to k" verdicts
/// are memoised too.
///
/// Two design points matter for the batch path:
///
/// * **Single-flight**: each key maps to an `Arc<OnceLock>`, so when a
///   parallel batch goes cold, exactly one worker synthesises while the
///   others block on the cell — never N redundant SAT calls.
/// * **Panic containment**: the `Mutex` guards only brief map accesses and
///   every lock recovers from poisoning via [`PoisonError::into_inner`];
///   a panic inside a synthesis closure leaves the `OnceLock` vacant, so
///   later solves simply retry instead of dying on a poisoned cache.
#[derive(Default)]
pub(crate) struct SynthCache {
    map: Mutex<HashMap<String, Arc<SynthCell>>>,
    memory_hits: AtomicU64,
    synthesised: AtomicU64,
}

/// The stable name of the synthesis tier, used by
/// [`crate::engine::PreparedProblem::classify`] to tell certified hand-built
/// `O(log* n)` solvers apart from the conditional synthesis path.
pub(crate) const SYNTHESIS_SOLVER_NAME: &str = "synthesised-tiles";

/// True iff §7 synthesis applies: every structured problem, and generic
/// block LCLs with alphabets the CNF encoder tabulates (≤ 8).
fn synthesisable(problem: &GridProblem) -> bool {
    !matches!(problem, GridProblem::Block(b) if b.alphabet() > 8)
}

/// The canonical cache key of a problem: the name alone is not enough,
/// because two different custom [`GridProblem::Block`] LCLs may be
/// registered under the same free-form name in a shared registry.
///
/// Keys carry a trailing topology tag (`+t2`: synthesis runs on the 2-d
/// block normal form) so that mixed-topology engines sharing one
/// registry can never alias outcomes across topologies.
fn cache_key(problem: &GridProblem, name: &str, max_k: usize) -> String {
    match problem {
        // Block problems are content-addressed by their tabulated allowed
        // set; everything else is fully determined by its canonical name.
        GridProblem::Block(b) => {
            let mut blocks: Vec<_> = b.allowed_blocks().collect();
            blocks.sort_unstable();
            let content = std::iter::once(b.alphabet())
                .chain(blocks.into_iter().flatten())
                .flat_map(|l| l.to_le_bytes());
            format!("{name}#{:016x}@k{max_k}+t2", fnv1a64(content))
        }
        _ => format!("{name}@k{max_k}+t2"),
    }
}

impl SynthCache {
    /// Returns the memoised synthesis outcome for `problem` at `max_k`,
    /// synthesising it on the first request.
    ///
    /// *Where* a miss computes depends on the budget. Unlimited, the
    /// synthesis runs inside the cell: concurrent cold requests for one
    /// key run one SAT synthesis and the others block until it is filled
    /// (requests for *different* keys proceed independently; the map lock
    /// is only held for the entry lookup). Limited, the synthesis runs
    /// **outside** the cell, which is filled only when it completes: a
    /// budget trip returns `Err` and memoises nothing, so an interrupted
    /// search never reads back as a "no normal form up to k" verdict.
    fn get_or_synthesize(
        &self,
        problem: &GridProblem,
        name: &str,
        max_k: usize,
        budget: &Budget,
    ) -> Result<Option<SynthesizedAlgorithm>, BudgetExceeded> {
        let cell = Arc::clone(
            self.lock_map()
                .entry(cache_key(problem, name, max_k))
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        let mut ran_sat = false;
        let outcome = match cell.get() {
            Some(hit) => hit,
            None if budget.is_unlimited() => cell.get_or_init(|| {
                ran_sat = true;
                synthesize_auto(problem, max_k)
            }),
            None => {
                let computed = synthesize_auto_budgeted(problem, max_k, budget)?;
                ran_sat = true;
                // If a concurrent request filled the cell first, keep its
                // (equal) outcome.
                cell.get_or_init(|| computed)
            }
        };
        // memory_hits + synthesised == total requests.
        let counter = if ran_sat {
            &self.synthesised
        } else {
            &self.memory_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // Trace mark origin codes: 0 = memo hit, 2 = fresh SAT run.
        lcl_trace::mark(
            lcl_trace::SpanKind::Synthesis,
            "synthesis-cache",
            [0, if ran_sat { 2 } else { 0 }, 0, 0],
        );
        Ok(outcome.clone())
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<SynthCell>>> {
        // A panicking solver thread must not poison the cache for the rest
        // of the batch (or the process): recover the guard and continue.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self) -> SynthStats {
        SynthStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            synthesised: self.synthesised.load(Ordering::Relaxed),
        }
    }

    fn len(&self) -> usize {
        self.lock_map()
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

/// Maps a `(problem, topology)` pair to an ordered solver plan, best
/// first. Also the home of the named problem library and the shared
/// synthesis cache.
#[derive(Default)]
pub struct Registry {
    synth_cache: SynthCache,
}

impl Registry {
    /// A registry with the built-in solver families and an empty synthesis
    /// cache.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Aggregate synthesis-cache counters (memo hits, SAT synthesis
    /// runs) since this registry was created.
    pub fn synth_stats(&self) -> SynthStats {
        self.synth_cache.stats()
    }

    /// Number of problems with a memoised synthesis outcome.
    pub fn cached_syntheses(&self) -> usize {
        self.synth_cache.len()
    }

    /// The named problem library: every problem the paper classifies that
    /// the engine ships a solver for. Integration tests iterate this.
    pub fn problems() -> Vec<ProblemSpec> {
        vec![
            ProblemSpec::independent_set(),
            ProblemSpec::orientation(XSet::from_degrees(&[2])),
            ProblemSpec::vertex_colouring(3),
            ProblemSpec::vertex_colouring(4),
            ProblemSpec::vertex_colouring(5),
            ProblemSpec::edge_colouring(4),
            ProblemSpec::edge_colouring(5),
            ProblemSpec::orientation(XSet::from_degrees(&[1, 3, 4])),
            ProblemSpec::orientation(XSet::from_degrees(&[0, 1, 3])),
            ProblemSpec::orientation(XSet::from_degrees(&[1, 3])),
            ProblemSpec::orientation(XSet::from_degrees(&[0, 3, 4])),
            ProblemSpec::mis_with_pointers(),
            ProblemSpec::mis_power(Metric::L1, 2),
            ProblemSpec::corner_coordination(),
        ]
    }

    /// Resolves the ordered solver plan for a problem, covering every
    /// topology the problem has tiers on; the walk filters by the
    /// instance's topology at dispatch time. An empty plan means
    /// [`SolveError::NoSolver`].
    pub(crate) fn plan(spec: &ProblemSpec) -> Vec<Tier> {
        if spec.home_topology() == Topology::Boundary {
            return vec![Tier::BoundaryPaths];
        }
        if let Some((metric, k)) = spec.mis_power_params() {
            return vec![Tier::PowerMis { metric, k }, Tier::GreedyMisD { metric, k }];
        }
        let mut plan = Vec::new();
        let Some(problem) = spec.grid_problem() else {
            return plan;
        };
        if let Some(label) = problem.constant_solution() {
            plan.push(Tier::Constant {
                label,
                any_torus: spec.constant_solution_on_any_torus(),
            });
        }
        match problem {
            GridProblem::VertexColouring { k: 4 } => {
                plan.push(Tier::BallCarving(FourColouring::new(Profile::Practical)))
            }
            GridProblem::EdgeColouring { k: 5 } => {
                plan.push(Tier::CutAndColour(EdgeColouring::new(Profile::Practical)))
            }
            _ => {}
        }
        if synthesisable(problem) {
            plan.push(Tier::Synthesis);
        }
        // Theorem 21's even-n edge 2d-colouring: the only registered
        // d ≥ 3 path for a block problem, and also an exact (and
        // CDCL-free) Θ(n) route for edge 2d-colouring of 2-d tori.
        if let GridProblem::EdgeColouring { k } = problem {
            if k % 2 == 0 && *k >= 4 {
                plan.push(Tier::DdimParityEdge { k: *k });
            }
        }
        // SAT existence: exact for every n, Θ(n) rounds, small alphabets
        // only for the generic encoder (≤ 16 *live* labels — dead ones
        // get no variables, so a pruned table may be encodable even when
        // the declared alphabet is not).
        if !matches!(problem, GridProblem::Block(b) if b.live_labels().len() > 16) {
            plan.push(Tier::SatExistence);
        }
        // Block problems whose predicate factors into one axis-symmetric
        // pair relation (vertex-colouring-like `lcl-lang` definitions,
        // independent sets) additionally get the d-dimensional SAT
        // existence route: exact solves and `Unsolvable` verdicts on
        // every torus dimension, not just d = 2. The relation table is
        // derived once here and carried by the tier.
        if let GridProblem::Block(b) = problem {
            if let Some(pairs) = b.axis_symmetric_pairs() {
                plan.push(Tier::DdimPairwiseSat { pairs });
            }
        }
        plan
    }

    /// The canonical synthesis-cache key of a (torus block) problem at
    /// the given synthesis budget — the exact string the synthesis memo
    /// is addressed by. Block problems
    /// are content-addressed from their canonical sorted block table, so
    /// two compilations of the same `lcl-lang` source (or a compiled
    /// problem and an identically-named hand-built table with the same
    /// blocks) report the same key. `None` for problems without a block
    /// form (corner coordination, MIS powers).
    pub fn synthesis_cache_key(&self, spec: &ProblemSpec, max_k: usize) -> Option<String> {
        spec.grid_problem()
            .map(|p| cache_key(p, spec.name(), max_k))
    }

    /// The canonical *plan* cache key of any problem at the given
    /// synthesis budget: the key [`Engine::prepare`] memoises prepared
    /// plans under and batch dedup namespaces groups by. For torus block
    /// problems this is exactly [`Registry::synthesis_cache_key`]
    /// (content-addressed, so two compilations of one `lcl-lang` source —
    /// or a compiled problem and an equal hand-built table — share one
    /// plan); problems without a block form (corner coordination, MIS
    /// powers) are addressed by their canonical constructor-assigned
    /// name.
    ///
    /// [`Engine::prepare`]: crate::engine::Engine::prepare
    pub fn plan_cache_key(&self, spec: &ProblemSpec, max_k: usize) -> String {
        self.synthesis_cache_key(spec, max_k)
            .unwrap_or_else(|| format!("{}@k{max_k}", spec.name()))
    }

    /// Memoised synthesis for a spec (what [`Engine::classify`] and the
    /// synthesis tier share), budget-aware: a
    /// budget trip returns `Err` *without* memoising anything (see
    /// [`SynthCache::get_or_synthesize`]), so an interrupted
    /// search can never masquerade as a negative classification verdict.
    pub(crate) fn memoised_synthesis(
        &self,
        spec: &ProblemSpec,
        max_k: usize,
        budget: &Budget,
    ) -> Result<Option<SynthesizedAlgorithm>, BudgetExceeded> {
        let Some(problem) = spec.grid_problem() else {
            return Ok(None);
        };
        if !synthesisable(problem) {
            return Ok(None);
        }
        self.synth_cache
            .get_or_synthesize(problem, spec.name(), max_k, budget)
    }
}

/// One tier of a solver plan: an entry of the paper's fixed algorithm
/// menu, carrying only what the plan derived for it. The problem, the
/// synthesis memo and the SAT seed come from the prepared plan at run
/// time.
pub(crate) enum Tier {
    /// `O(1)`: output the constant label everywhere (§7 triviality
    /// criterion); `any_torus` when it stays valid in every dimension.
    Constant { label: Label, any_torus: bool },
    /// §8: vertex 4-colouring by ball carving, `O(log* n)`.
    BallCarving(FourColouring),
    /// §10: edge 5-colouring via `j,k`-independent cut sets, `O(log* n)`.
    CutAndColour(EdgeColouring),
    /// §7: the synthesised normal form `A′ ∘ S_k`, `O(log* n)`, memoised.
    Synthesis,
    /// Theorem 21: the even-`n` edge `2d`-colouring witness on
    /// d-dimensional tori, with the exact parity impossibility for odd
    /// `n`. A centralised construction (colours come from global
    /// coordinate parity), so it charges the full gather like the SAT
    /// baseline — but needs no CDCL call, and it is the only registered
    /// route for `d ≥ 3` block problems.
    DdimParityEdge { k: u16 },
    /// §8's anchor substrate on 2-d tori: distributed MIS of the
    /// `metric`-power via Linial colour reduction, `O(log* n)` with the
    /// power-graph simulation slowdown.
    PowerMis { metric: Metric, k: usize },
    /// The centralised greedy MIS sweep on d-dimensional torus powers
    /// (`lcl_algorithms::ddim::greedy_mis`) — the deterministic reference
    /// implementation of the anchor substrate `S_k`, exact on every
    /// dimension but `Θ(n)` as a LOCAL algorithm (the sweep order is
    /// global).
    GreedyMisD { metric: Metric, k: usize },
    /// Appendix A.3: corner coordination on boundary grids, `Θ(√n)`.
    /// Labels encode each node's out-pointer: 0 = none, 1 = north,
    /// 2 = east, 3 = south, 4 = west.
    BoundaryPaths,
    /// The d-dimensional arm of the `Θ(n)` baseline, for block problems
    /// that factor into one axis-symmetric pair relation
    /// ([`lcl_core::lcl::BlockLcl::axis_symmetric_pairs`]): gather the
    /// whole torus and hand the pairwise CNF to the CDCL solver
    /// ([`existence::solve_pairwise_d`]). Exact in every dimension — the
    /// route that extends `Unsolvable` verdicts beyond Theorem 21 to
    /// compiled `lcl-lang` problems on d ≥ 3 tori.
    DdimPairwiseSat { pairs: Vec<bool> },
    /// The `Θ(n)` baseline: gather the whole grid and let the CDCL solver
    /// produce a canonical solution; exact unsolvability proofs for free.
    SatExistence,
}

impl Tier {
    /// Stable tier name for reports, errors and health counters.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Tier::Constant { .. } => "constant",
            Tier::BallCarving(_) => "ball-carving-4-colouring",
            Tier::CutAndColour(_) => "cut-and-colour-5-edge-colouring",
            Tier::Synthesis => SYNTHESIS_SOLVER_NAME,
            Tier::DdimParityEdge { .. } => "ddim-parity-edge-colouring",
            Tier::PowerMis { .. } => "power-mis-log-star",
            Tier::GreedyMisD { .. } => "ddim-greedy-mis",
            Tier::BoundaryPaths => "boundary-paths",
            Tier::DdimPairwiseSat { .. } => "ddim-pairwise-sat",
            Tier::SatExistence => "sat-existence",
        }
    }

    /// What instances this tier accepts.
    pub(crate) fn capabilities(&self) -> Capabilities {
        use Complexity::{Constant, Linear, LogStar, SqrtN};
        use TopologySupport::{AnyTorusD, Boundary, Torus2};
        let (topology, min_side, square_only, complexity) = match self {
            Tier::Constant { any_torus, .. } => (
                if *any_torus { AnyTorusD } else { Torus2 },
                1,
                false,
                Constant,
            ),
            Tier::BallCarving(algo) => (Torus2, algo.min_side(), true, LogStar),
            Tier::CutAndColour(algo) => (Torus2, algo.min_side(), true, LogStar),
            // The smallest conceivable window frame (k = 1, 3×2 window);
            // the exact bound depends on the synthesised k and is checked
            // again when the tier runs.
            Tier::Synthesis => (Torus2, 5, false, LogStar),
            Tier::DdimParityEdge { .. } => (AnyTorusD, 2, true, Linear),
            Tier::PowerMis { .. } => (Torus2, 2, true, LogStar),
            Tier::GreedyMisD { .. } => (AnyTorusD, 1, true, Linear),
            Tier::BoundaryPaths => (Boundary, 2, true, SqrtN),
            Tier::DdimPairwiseSat { .. } => (AnyTorusD, 1, true, Linear),
            Tier::SatExistence => (Torus2, 1, false, Linear),
        };
        Capabilities {
            topology,
            min_side,
            square_only,
            complexity,
        }
    }

    /// Solves one instance of `spec` under a cooperative [`Budget`],
    /// never panicking on bad input. The walk checks the budget once
    /// before every dispatch, so the closed-form constructions, which
    /// finish in microseconds, ignore it. The tiers with unbounded search
    /// inside (the SAT existence encoders, synthesis) check it at
    /// propagation/fixpoint granularity and surface trips as
    /// [`SolveError::DeadlineExceeded`] / [`SolveError::Cancelled`].
    pub(crate) fn run(
        &self,
        spec: &ProblemSpec,
        registry: &Registry,
        opts: &PlanOptions,
        inst: &Instance,
        budget: &Budget,
    ) -> Result<Labelling, SolveError> {
        let (problem, name) = (spec.name(), self.name());
        let (labels, report) = match self {
            Tier::Constant { label, .. } => {
                let mut rounds = Rounds::new();
                rounds.charge("constant-output", 0);
                (
                    vec![*label; inst.node_count()],
                    SolveReport::new(problem, name, rounds),
                )
            }
            Tier::BallCarving(algo) => {
                let run = algo
                    .try_solve(expect_torus2(inst, name)?)
                    .map_err(|e| algo_error(problem, name, e))?;
                let report = SolveReport::new(problem, name, run.rounds)
                    .with_detail("ell", run.ell)
                    .with_detail("anchors", run.anchors)
                    .with_detail("max_component", run.max_component);
                (run.labels, report)
            }
            Tier::CutAndColour(algo) => {
                let run = algo
                    .try_solve(expect_torus2(inst, name)?)
                    .map_err(|e| algo_error(problem, name, e))?;
                let report = SolveReport::new(problem, name, run.rounds)
                    .with_detail("k", run.k)
                    .with_detail("spacing", run.spacing)
                    .with_detail("measured_j", run.measured_j);
                (run.labels, report)
            }
            Tier::Synthesis => {
                let inst = expect_torus2(inst, name)?;
                let max_k = opts.max_synthesis_k;
                let algo = registry
                    .memoised_synthesis(spec, max_k, budget)
                    .map_err(|e| budget_error(name, budget, e))?
                    .ok_or_else(|| SolveError::SynthesisFailed {
                        problem: problem.to_string(),
                        max_k,
                    })?;
                let run = algo.try_run(inst).map_err(|e| match e {
                    SynthRunError::TorusTooSmall { min_side, .. } => SolveError::TorusTooSmall {
                        problem: problem.to_string(),
                        min_side,
                        side: inst.torus().width().min(inst.torus().height()),
                    },
                    SynthRunError::UnrealizableWindow { at } => SolveError::SolverFailed {
                        solver: name.to_string(),
                        detail: format!("anchor window at {at} is not a realizable tile"),
                    },
                })?;
                let report = SolveReport::new(problem, name, run.rounds)
                    .with_detail("k", algo.k())
                    .with_detail("window", algo.shape())
                    .with_detail("table_len", algo.table_len());
                (run.labels, report)
            }
            Tier::DdimParityEdge { k } => {
                let torus = torus_d_of(inst, name)?;
                let d = torus.dim();
                if usize::from(*k) != 2 * d {
                    return Err(SolveError::UnsupportedTopology {
                        problem: problem.to_string(),
                        topology: inst.topology().to_string(),
                        reason: format!(
                            "the parity construction colours with exactly 2d = {} colours, not {k}",
                            2 * d
                        ),
                    });
                }
                if torus.side() % 2 != 0 {
                    // Exact: Theorem 21's counting argument rules out edge
                    // 2d-colourings of odd-side tori in every dimension.
                    return Err(SolveError::Unsolvable {
                        problem: problem.to_string(),
                        dims: inst.dims(),
                    });
                }
                let labels = ddim::edge_2d_colouring_even(&torus)
                    .to_labels(*k)
                    .ok_or_else(|| SolveError::SolverFailed {
                        solver: name.to_string(),
                        detail: format!("{k}^{d} exceeds the label space"),
                    })?;
                let mut rounds = Rounds::new();
                // Coordinate parity is global information: gather the
                // diameter.
                rounds.charge("gather-whole-grid", gather_rounds(&torus));
                rounds.charge("parity-colouring", 0);
                let report = SolveReport::new(problem, name, rounds)
                    .with_detail("d", d)
                    .with_detail("palette", k);
                (labels, report)
            }
            Tier::PowerMis { metric, k } => {
                let inst = expect_torus2(inst, name)?;
                let run = lcl_symmetry::mis_torus_power(&inst.torus(), *metric, *k, inst.ids());
                let report = SolveReport::new(problem, name, run.rounds)
                    .with_detail("metric", format!("{metric:?}"))
                    .with_detail("k", k);
                (run.in_mis.iter().map(|&m| Label::from(m)).collect(), report)
            }
            Tier::GreedyMisD { metric, k } => {
                let torus = torus_d_of(inst, name)?;
                let marked = ddim::greedy_mis(&torus, *metric, *k);
                let mut rounds = Rounds::new();
                rounds.charge("gather-whole-grid", gather_rounds(&torus));
                rounds.charge("greedy-sweep", 0);
                let report = SolveReport::new(problem, name, rounds)
                    .with_detail("d", torus.dim())
                    .with_detail("metric", format!("{metric:?}"))
                    .with_detail("k", k)
                    .with_detail("reference", "centralised greedy sweep");
                (marked.iter().map(|&m| Label::from(m)).collect(), report)
            }
            Tier::BoundaryPaths => {
                let grid: &BoundaryGrid =
                    inst.as_boundary().ok_or_else(|| SolveError::SolverFailed {
                        solver: name.to_string(),
                        detail: format!(
                            "dispatched a {} to the boundary-grid solver",
                            inst.topology()
                        ),
                    })?;
                let forest = corner::solve_boundary_paths(grid);
                corner::check(grid, &forest).map_err(|detail| SolveError::SolverFailed {
                    solver: name.to_string(),
                    detail,
                })?;
                let mut rounds = Rounds::new();
                // Proposition 28: radius 2√n = 2m exploration suffices.
                rounds.charge("corner-exploration", 2 * grid.side() as u64);
                (
                    super::encode_forest(grid, &forest),
                    SolveReport::new(problem, name, rounds),
                )
            }
            Tier::DdimPairwiseSat { pairs } => {
                let torus = torus_d_of(inst, name)?;
                let labels =
                    existence::solve_pairwise_d_budgeted(&torus, spec.alphabet(), pairs, budget)
                        .map_err(|e| budget_error(name, budget, e))?
                        .ok_or_else(|| SolveError::Unsolvable {
                            problem: problem.to_string(),
                            dims: inst.dims(),
                        })?;
                let mut rounds = Rounds::new();
                // Gathering the full instance costs the torus diameter.
                rounds.charge("gather-whole-grid", gather_rounds(&torus));
                rounds.charge("central-sat-solve", 0);
                let report = SolveReport::new(problem, name, rounds).with_detail("d", torus.dim());
                (labels, report)
            }
            Tier::SatExistence => {
                let torus = expect_torus2(inst, name)?.torus();
                let grid_problem = spec
                    .grid_problem()
                    .ok_or_else(|| SolveError::SolverFailed {
                        solver: name.to_string(),
                        detail: format!("{problem} has no block form"),
                    })?;
                let labels = existence::solve_budgeted(grid_problem, &torus, opts.seed, budget)
                    .map_err(|e| budget_error(name, budget, e))?
                    .ok_or_else(|| SolveError::Unsolvable {
                        problem: problem.to_string(),
                        dims: vec![torus.width(), torus.height()],
                    })?;
                let mut rounds = Rounds::new();
                // Gathering the full instance costs the torus diameter.
                rounds.charge(
                    "gather-whole-grid",
                    (torus.width() / 2 + torus.height() / 2) as u64,
                );
                rounds.charge("central-sat-solve", 0);
                (labels, SolveReport::new(problem, name, rounds))
            }
        };
        Ok(Labelling { labels, report })
    }
}

/// Internal guard: the walk's capability filter must have routed a 2-d
/// instance here; anything else is an engine bug surfaced as a typed
/// error rather than a panic.
fn expect_torus2<'i>(inst: &'i Instance, solver: &str) -> Result<&'i GridInstance, SolveError> {
    inst.as_torus2().ok_or_else(|| SolveError::SolverFailed {
        solver: solver.to_string(),
        detail: format!("dispatched a {} to a 2-d torus solver", inst.topology()),
    })
}

/// The d-dimensional torus behind an instance: `TorusD` instances
/// directly, square 2-d instances as their `d = 2` reading.
fn torus_d_of(inst: &Instance, solver: &str) -> Result<TorusD, SolveError> {
    match inst {
        Instance::TorusD(di) => Ok(di.torus().clone()),
        Instance::Torus2(gi) if gi.torus().width() == gi.torus().height() => {
            Ok(TorusD::new(2, gi.torus().width()))
        }
        _ => Err(SolveError::SolverFailed {
            solver: solver.to_string(),
            detail: format!("dispatched a {} to a d-dimensional torus solver", inst),
        }),
    }
}

/// LOCAL rounds to gather a whole d-dimensional torus: its diameter.
fn gather_rounds(torus: &TorusD) -> u64 {
    (torus.dim() * (torus.side() / 2)) as u64
}

fn algo_error(problem: &str, solver: &str, e: AlgoError) -> SolveError {
    match e {
        AlgoError::TorusTooSmall { min_side, side, .. } => SolveError::TorusTooSmall {
            problem: problem.to_string(),
            min_side,
            side,
        },
        AlgoError::EscalationExhausted { detail, .. } => SolveError::SolverFailed {
            solver: solver.to_string(),
            detail,
        },
    }
}
