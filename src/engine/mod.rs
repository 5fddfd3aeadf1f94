//! The unified engine: one shared service for every LCL problem,
//! algorithm, and topology in this repository.
//!
//! The paper shows that every radius-1 LCL on oriented grids reduces to
//! one normal form and one complexity landscape — in every dimension; this
//! module gives the code base the matching shape. A [`ProblemSpec`] is the
//! canonical problem representation, an [`Instance`] is the canonical
//! input — one currency over 2-d tori, d-dimensional tori, and boundary
//! grids — and a [`Registry`] maps each `(problem, topology)` pair to the
//! best available solvers (hand-built §8/§10 constructions, §7 synthesis
//! with memoised SAT calls, the d-dimensional Theorem 21 constructions,
//! corner coordination, the `Θ(n)` SAT existence baseline).
//!
//! An [`Engine`] is *problem-agnostic*: one `Send + Sync` service holding
//! the registry, worker-thread configuration, and the dedup / synthesis /
//! plan caches, shared across however many problems a process serves.
//! [`Engine::prepare`] resolves a problem's solver plan once into an
//! immutable [`PreparedProblem`] handle with `solve`, `solvable`,
//! `classify`, and `solver_names`; [`Engine::solve`] is the convenience
//! that prepares-and-memoises keyed by the canonical problem cache key, so
//! identical problem definitions share one plan:
//!
//! ```
//! use lcl_grids::engine::{Engine, Instance, ProblemSpec};
//! use lcl_grids::local::IdAssignment;
//!
//! let engine = Engine::builder().max_synthesis_k(1).build();
//! let orientation = engine
//!     .prepare(&ProblemSpec::orientation(
//!         lcl_grids::core::problems::XSet::from_degrees(&[1, 3, 4]),
//!     ))
//!     .unwrap();
//! let inst = Instance::square(12, &IdAssignment::Shuffled { seed: 7 });
//! let labelling = orientation.solve(&inst).unwrap();
//! assert_eq!(labelling.labels.len(), 144);
//! assert!(labelling.report.validated);
//!
//! // The same engine serves other problems and other topologies: edge
//! // 2d-colouring on a 3-dimensional torus dispatches to the Theorem 21
//! // construction — no second engine, no duplicated caches.
//! let edge6 = engine.prepare(&ProblemSpec::edge_colouring(6)).unwrap();
//! let inst3 = Instance::torus_d(3, 4, &IdAssignment::Sequential);
//! assert_eq!(edge6.solve(&inst3).unwrap().labels.len(), 64);
//!
//! // One-shot convenience: prepares (memoised) and solves.
//! let labelling = engine
//!     .solve(&ProblemSpec::edge_colouring(6), &inst3)
//!     .unwrap();
//! assert_eq!(labelling.labels.len(), 64);
//! ```
//!
//! Batch workloads go through [`Engine::solve_batch`] /
//! [`Engine::solve_jobs`] (slices, in-batch dedup, ordered results) or
//! the streaming [`Engine::solve_stream`] (an iterator of mixed-problem
//! [`Job`]s drained through a bounded channel in `O(threads)` memory).
//!
//! Failures are values, not panics: unsolvable instances, undersized
//! tori, unsupported `(problem, topology)` pairs, exhausted synthesis
//! budgets, and exceeded round budgets all come back as [`SolveError`]
//! variants.

mod atlas;
mod batch;
mod chaos;
mod error;
mod health;
mod instance;
mod prepared;
mod registry;
mod spec;
mod stream;

pub use atlas::{AtlasEntry, AtlasSeed, AtlasTable};
pub use batch::{BatchReport, Job, ProblemBatchStats};
pub use chaos::{ChaosConfig, ChaosState, FaultPoint};
pub use error::SolveError;
pub use health::{
    BreakerSnapshot, BreakerState, Health, TierCounters, BREAKER_BASE_COOLDOWN, BREAKER_THRESHOLD,
};
pub use instance::Instance;
pub use lcl_sat::{Budget, BudgetExceeded, CancelToken};
pub use lcl_trace::{Cost, SolverCost, TierAttempt, TierOutcome};
pub use prepared::PreparedProblem;
pub use registry::{PlanOptions, Registry, SynthStats};
pub use spec::{ProblemSpec, Topology};
pub use stream::{JobOutcome, SolveStream, JOBS_ITERATOR_PANICKED};

use lcl_algorithms::corner::{BoundaryGrid, PseudoForest};
use lcl_algorithms::Profile;
use lcl_core::classify::GridClass;
use lcl_core::Label;
use lcl_local::Rounds;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Asymptotic round complexity a solver promises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Complexity {
    /// `O(1)` rounds.
    Constant,
    /// `O(log* n)` rounds.
    LogStar,
    /// `Θ(√n)` rounds (corner coordination).
    SqrtN,
    /// `Θ(n)` rounds (gather everything).
    Linear,
}

impl fmt::Display for Complexity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Complexity::Constant => write!(f, "O(1)"),
            Complexity::LogStar => write!(f, "O(log* n)"),
            Complexity::SqrtN => write!(f, "Θ(√n)"),
            Complexity::Linear => write!(f, "Θ(n)"),
        }
    }
}

/// The family of topologies a solver accepts — the coarse dispatch
/// dimension of [`Capabilities`]. Finer constraints (dimension-dependent
/// palette sizes, parity of the side length) are the solver's own
/// business and surface as typed per-instance errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySupport {
    /// Exactly the oriented 2-d torus.
    Torus2,
    /// Oriented tori of every dimension `d ≥ 2` (2-d instances are
    /// presented to the solver in their `Torus2` form).
    AnyTorusD,
    /// Boundary grids.
    Boundary,
}

impl TopologySupport {
    /// True iff a solver with this support accepts an instance of the
    /// given topology.
    pub fn accepts(self, topology: Topology) -> bool {
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

/// What a solver supports: consulted by the engine before dispatch.
#[derive(Clone, Copy, Debug)]
pub struct Capabilities {
    /// The topology family the solver runs on.
    pub topology: TopologySupport,
    /// Smallest supported side length.
    pub min_side: usize,
    /// True if only equal side lengths are supported.
    pub square_only: bool,
    /// Promised asymptotic round complexity.
    pub complexity: Complexity,
}

/// Metadata accompanying every labelling: which solver ran, what it
/// charged the LOCAL-round ledger, and whether the output was re-checked.
///
/// `Debug` deliberately omits the [`cost`](SolveReport::cost) ledger:
/// its wall-clock timings vary run to run, and the engine's determinism
/// contract (parallel ≡ sequential ≡ deduped, byte-for-byte) is pinned
/// by tests comparing report `Debug` output.
#[derive(Clone)]
pub struct SolveReport {
    /// The problem that was solved.
    pub problem: String,
    /// The solver that produced the labelling.
    pub solver: String,
    /// The LOCAL round ledger (phase-by-phase, see `lcl_local::Rounds`).
    pub rounds: Rounds,
    /// True once the engine has re-validated the labelling with the
    /// topology-native independent checker.
    pub validated: bool,
    /// Solver-specific diagnostics (spacing `ℓ`, anchor counts, measured
    /// gaps, lookup-table sizes, …) as key/value pairs.
    pub details: Vec<(String, String)>,
    /// The per-solve cost ledger: every tier attempt the walk made (in
    /// order) with its wall time and attributed SAT work. Populated by
    /// [`PreparedProblem::solve_with`]; empty for reports produced
    /// outside the tier walk. Tracing need not be enabled — the ledger
    /// is always on.
    pub cost: lcl_trace::Cost,
}

impl SolveReport {
    pub(crate) fn new(problem: &str, solver: &str, rounds: Rounds) -> SolveReport {
        SolveReport {
            problem: problem.to_string(),
            solver: solver.to_string(),
            rounds,
            validated: false,
            details: Vec::new(),
            cost: lcl_trace::Cost::default(),
        }
    }

    pub(crate) fn with_detail(mut self, key: &str, value: impl ToString) -> SolveReport {
        self.details.push((key.to_string(), value.to_string()));
        self
    }

    /// The per-solve cost ledger (tier attempts with wall time and
    /// attributed SAT work); empty for reports produced outside the
    /// tier walk.
    pub fn cost(&self) -> &lcl_trace::Cost {
        &self.cost
    }

    /// Looks up a solver-specific diagnostic by key.
    pub fn detail(&self, key: &str) -> Option<&str> {
        self.details
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Debug for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `cost` is omitted on purpose: wall-clock fields would make
        // byte-identical runs print differently (see the struct docs).
        f.debug_struct("SolveReport")
            .field("problem", &self.problem)
            .field("solver", &self.solver)
            .field("rounds", &self.rounds)
            .field("validated", &self.validated)
            .field("details", &self.details)
            .finish_non_exhaustive()
    }
}

/// A solved instance: one label per node plus the [`SolveReport`].
#[derive(Clone, Debug)]
pub struct Labelling {
    /// One label per node, in node-index order.
    pub labels: Vec<Label>,
    /// Provenance and round accounting.
    pub report: SolveReport,
}

/// A solver the engine can dispatch to: the object the [`Registry`] hands
/// out, and the extension point for new algorithm families. Solvers take
/// the topology-polymorphic [`Instance`]; the engine only routes
/// instances whose topology the solver's [`Capabilities`] accept.
pub trait Solve: Send + Sync {
    /// Stable solver name for reports and errors.
    fn name(&self) -> &str;

    /// What instances this solver accepts.
    fn capabilities(&self) -> Capabilities;

    /// Solves one instance under a cooperative [`Budget`], never
    /// panicking on bad input. The engine checks the budget once before
    /// every dispatch, so the closed-form constructions, which finish in
    /// microseconds, ignore it. Solvers with unbounded search inside (the
    /// SAT existence encoders, synthesis) check it at
    /// propagation/fixpoint granularity and surface trips as
    /// [`SolveError::DeadlineExceeded`] / [`SolveError::Cancelled`].
    fn solve(&self, inst: &Instance, budget: &Budget) -> Result<Labelling, SolveError>;
}

/// Maps a tripped [`Budget`] to the engine's typed error surface: a
/// cancellation is [`SolveError::Cancelled`]; deadline and step-quota
/// trips both surface as [`SolveError::DeadlineExceeded`] attributed to
/// the solver tier that was running (a step quota *is* a deadline
/// denominated in work instead of wall-clock).
pub(crate) fn budget_error(tier: &str, budget: &Budget, e: lcl_sat::BudgetExceeded) -> SolveError {
    match e {
        lcl_sat::BudgetExceeded::Cancelled => SolveError::Cancelled,
        lcl_sat::BudgetExceeded::Deadline { elapsed } => SolveError::DeadlineExceeded {
            tier: tier.to_string(),
            elapsed,
        },
        lcl_sat::BudgetExceeded::Steps { .. } => SolveError::DeadlineExceeded {
            tier: tier.to_string(),
            elapsed: budget.elapsed(),
        },
    }
}

/// Builder for [`Engine`]; start from [`Engine::builder`]. The builder
/// configures the *service* — registry, caches, worker threads, validation
/// policy — not a problem: problems arrive per call, through
/// [`Engine::prepare`] and the convenience entry points.
pub struct EngineBuilder {
    profile: Profile,
    rounds_budget: Option<u64>,
    max_synthesis_k: usize,
    seed: Option<u64>,
    validate: bool,
    debug_validation: bool,
    registry: Option<Arc<Registry>>,
    threads: usize,
    dedup: bool,
    max_prepared_plans: Option<usize>,
    chaos: Option<ChaosConfig>,
    atlas: Option<Arc<AtlasTable>>,
}

impl EngineBuilder {
    /// Parameter profile for the hand-built constructions (default:
    /// [`Profile::Practical`]).
    pub fn profile(mut self, profile: Profile) -> EngineBuilder {
        self.profile = profile;
        self
    }

    /// Reject solutions that need more LOCAL rounds than this budget
    /// (default: unlimited). The engine falls through to cheaper solvers
    /// and reports [`SolveError::RoundBudgetExceeded`] if none fits.
    pub fn rounds_budget(mut self, budget: u64) -> EngineBuilder {
        self.rounds_budget = Some(budget);
        self
    }

    /// Largest anchor spacing `k` synthesis may try (default: 3, the
    /// paper's 4-colouring threshold). Part of every prepared problem's
    /// cache key: plans prepared at different budgets never alias.
    pub fn max_synthesis_k(mut self, k: usize) -> EngineBuilder {
        self.max_synthesis_k = k;
        self
    }

    /// Seed for the SAT fallback's branching phases, for solution-space
    /// sampling (default: deterministic canonical solution).
    pub fn seed(mut self, seed: u64) -> EngineBuilder {
        self.seed = Some(seed);
        self
    }

    /// Re-check every labelling with the topology-native independent
    /// checker before returning it (default: on; turn off only on
    /// measured hot paths).
    pub fn validate(mut self, validate: bool) -> EngineBuilder {
        self.validate = validate;
        self
    }

    /// Cross-validate the batched round accounting against the
    /// message-passing LOCAL simulator on small torus instances
    /// (default: off — it is a debugging aid, not a production knob).
    ///
    /// When enabled, each successful torus solve with at most
    /// [`DEBUG_VALIDATION_MAX_NODES`] nodes additionally runs the
    /// Cole–Vishkin protocol — the symmetry-breaking core every `log*`
    /// solver builds on — through the real synchronous simulator on a
    /// cycle of the instance's side length, using the instance's own
    /// identifiers, and checks the batched ledger against the measured
    /// synchronous round count (the invariant of
    /// `lcl_symmetry::protocol_validation`: `ledger ≤ protocol ≤
    /// ledger + 5`). The measurements land in the [`SolveReport`] as
    /// `debug_cv_ledger_rounds` / `debug_cv_protocol_rounds` /
    /// `debug_validation`; a violated invariant is a
    /// [`SolveError::ValidationFailed`].
    pub fn debug_validation(mut self, enabled: bool) -> EngineBuilder {
        self.debug_validation = enabled;
        self
    }

    /// Share a registry (and thus its memoised synthesis cache) across
    /// engines (default: a fresh registry per engine).
    pub fn registry(mut self, registry: Arc<Registry>) -> EngineBuilder {
        self.registry = Some(registry);
        self
    }

    /// Worker threads for the batch and stream entry points (default: 1,
    /// fully sequential — the historical behaviour). `0` means "use every
    /// core the OS reports". Single-instance `solve` calls are unaffected.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = threads;
        self
    }

    /// In-batch labelling dedup (default: on): jobs with the same
    /// prepared problem (by cache key), canonical topology, dimensions,
    /// and identifier assignment are solved once per batch and the
    /// labelling is shared. Solving is deterministic, so this is
    /// observationally transparent; turn it off to force every instance
    /// through a full solve (e.g. when benchmarking).
    pub fn dedup(mut self, dedup: bool) -> EngineBuilder {
        self.dedup = dedup;
        self
    }

    /// Bounds the prepared-plan memo to at most `cap` resolved plans
    /// (default: unbounded). When a `prepare` resolution pushes the memo
    /// past the cap, the least-recently-used resolved entries are evicted
    /// until it fits — the policy a service preparing *user-supplied*
    /// problem definitions needs, without hand-rolling
    /// [`Engine::clear_plans`] schedules. Outstanding
    /// `Arc<PreparedProblem>` handles stay fully usable after their entry
    /// is evicted (they own their plan), re-preparing an evicted problem
    /// re-walks the registry tiers but re-runs no SAT call (the synthesis
    /// cache is untouched), and [`Engine::clear_plans`] still drops
    /// everything at once. Evictions are counted in
    /// [`PrepareStats::evicted`]. A cap of `0` means "no memo at all":
    /// every entry is evicted as soon as the next one resolves.
    pub fn max_prepared_plans(mut self, cap: usize) -> EngineBuilder {
        self.max_prepared_plans = Some(cap);
        self
    }

    /// Arms deterministic fault injection (default: off — chaos is
    /// compiled in but inert): [`ChaosConfig::from_seed`] for the default
    /// battery, or [`ChaosConfig::quiet`] plus the one period under test
    /// for a targeted single fault. See the `chaos` module for the fault
    /// points; every injected fault is counted, so tests and the
    /// `lcl-serve` soak job can reconcile injected faults against
    /// observed typed errors.
    pub fn chaos_config(mut self, config: ChaosConfig) -> EngineBuilder {
        self.chaos = Some(config);
        self
    }

    /// Arms the engine with a census lookup table loaded from an
    /// `lcl-atlas` artifact (default: none). Every `prepare` then
    /// canonicalises the spec's block table and, on a census hit, seeds
    /// the prepared handle's classification from the artifact —
    /// [`PreparedProblem::classify`] answers without running synthesis,
    /// and solve reports carry an `atlas` provenance detail. See
    /// [`AtlasTable`] for the verdict-soundness gate (`Global` census
    /// verdicts only seed engines whose
    /// [`max_synthesis_k`](EngineBuilder::max_synthesis_k) is at most
    /// the census one).
    pub fn atlas(mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<EngineBuilder> {
        self.atlas = Some(Arc::new(AtlasTable::load(path)?));
        Ok(self)
    }

    /// Builds the engine. Infallible: the engine carries no problem of
    /// its own — plans resolve per problem in [`Engine::prepare`], where
    /// misconfiguration surfaces as a typed [`SolveError`].
    pub fn build(self) -> Engine {
        Engine {
            registry: self.registry.unwrap_or_default(),
            health: Arc::new(Health::new()),
            chaos: self.chaos.map(|config| Arc::new(ChaosState::new(config))),
            atlas: self.atlas,
            opts: PlanOptions {
                profile: self.profile,
                max_synthesis_k: self.max_synthesis_k,
                seed: self.seed,
            },
            rounds_budget: self.rounds_budget,
            validate: self.validate,
            debug_validation: self.debug_validation,
            threads: self.threads,
            dedup: self.dedup,
            max_prepared_plans: self.max_prepared_plans,
            plans: Mutex::new(HashMap::new()),
            plan_clock: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plans_resolved: AtomicU64::new(0),
            plans_evicted: AtomicU64::new(0),
            stream_dedup_hits: AtomicU64::new(0),
        }
    }
}

/// Largest instance (in nodes) the opt-in
/// [`EngineBuilder::debug_validation`] cross-check runs on; larger solves
/// skip it silently (the simulator cross-check is a small-instance
/// debugging aid by design).
pub const DEBUG_VALIDATION_MAX_NODES: usize = 4096;

/// Counters of the engine's prepared-plan memo (see [`Engine::prepare`]):
/// how many `prepare` requests were answered from the memo versus how
/// many actually resolved a plan. `hits + resolved` equals the total
/// number of `prepare` calls (including the ones issued internally by the
/// spec-taking convenience entry points).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepareStats {
    /// Requests answered from the memoised plan (or by blocking on a
    /// concurrent resolution of the same key).
    pub hits: u64,
    /// Plans actually resolved (registry tier walk performed).
    pub resolved: u64,
    /// Resolved plans evicted by the
    /// [`EngineBuilder::max_prepared_plans`] LRU cap.
    pub evicted: u64,
}

/// The shared, problem-agnostic solving service: one engine per process
/// (or per configuration), however many problems it serves.
///
/// An `Engine` owns no problem. It holds the [`Registry`] (and through it
/// the memoised synthesis cache), the worker-thread and dedup
/// configuration, and a memo of [`PreparedProblem`] plans keyed by the
/// canonical problem cache key. It is `Send + Sync`: wrap it in an `Arc`
/// and share it across threads; every entry point takes `&self`.
///
/// Two ways in:
///
/// * [`Engine::prepare`] — resolve a problem's plan once, keep the cheap
///   [`Arc<PreparedProblem>`] handle, and solve through it (the service
///   shape: prepare at startup, solve per request).
/// * [`Engine::solve`] / [`Engine::solvable`] / [`Engine::classify`] —
///   spec-taking conveniences that prepare-and-memoise internally, so
///   repeated calls with equivalent specs (two compilations of one
///   `lcl-lang` source, a compiled problem and an equal hand-built
///   table) share one plan.
pub struct Engine {
    registry: Arc<Registry>,
    /// Per-solver circuit breakers and robustness counters, shared with
    /// every prepared plan this engine resolves.
    health: Arc<Health>,
    /// Armed fault injector (None = inert), shared with every prepared
    /// plan.
    chaos: Option<Arc<ChaosState>>,
    /// Census lookup table (None = no atlas): consulted once per plan
    /// resolution to seed classifications from the checked-in artifact.
    atlas: Option<Arc<AtlasTable>>,
    opts: PlanOptions,
    rounds_budget: Option<u64>,
    validate: bool,
    debug_validation: bool,
    threads: usize,
    dedup: bool,
    max_prepared_plans: Option<usize>,
    /// Prepared-plan memo: canonical cache key → single-flight cell, the
    /// same shape as the registry's synthesis cache (one resolution per
    /// key, concurrent requests block on the cell, poisoned map locks
    /// recover), plus a last-used stamp for the optional LRU cap.
    plans: Mutex<HashMap<String, PlanSlot>>,
    /// Monotone stamp source for the memo's LRU ordering.
    plan_clock: AtomicU64,
    plan_hits: AtomicU64,
    plans_resolved: AtomicU64,
    plans_evicted: AtomicU64,
    /// Cumulative in-batch dedup hits across every slice call.
    stream_dedup_hits: AtomicU64,
}

/// One prepared-plan memo entry: the single-flight cell and the stamp of
/// its most recent use (consulted by the
/// [`EngineBuilder::max_prepared_plans`] eviction policy).
struct PlanSlot {
    cell: Arc<OnceLock<Result<Arc<PreparedProblem>, SolveError>>>,
    last_used: u64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            atlas: None,
            profile: Profile::Practical,
            rounds_budget: None,
            max_synthesis_k: 3,
            seed: None,
            validate: true,
            debug_validation: false,
            registry: None,
            threads: 1,
            dedup: true,
            max_prepared_plans: None,
            chaos: None,
        }
    }

    /// The registry backing this engine.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's health ledger: per-solver circuit breakers, per-tier
    /// timeout/fallback/breaker-skip counters.
    pub fn health(&self) -> &Arc<Health> {
        &self.health
    }

    /// The armed fault injector, if any (see
    /// [`EngineBuilder::chaos_config`]).
    pub fn chaos(&self) -> Option<&Arc<ChaosState>> {
        self.chaos.as_ref()
    }

    /// The armed census lookup table, if any (see
    /// [`EngineBuilder::atlas`]).
    pub fn atlas(&self) -> Option<&Arc<AtlasTable>> {
        self.atlas.as_ref()
    }

    /// The synthesis frontier this engine plans against (see
    /// [`EngineBuilder::max_synthesis_k`]). Census artifacts record it so
    /// verdict consumers can apply the `k`-soundness gate.
    pub fn max_synthesis_k(&self) -> usize {
        self.opts.max_synthesis_k
    }

    /// Resolves the solver plan for a problem into an immutable,
    /// cheaply-cloneable [`PreparedProblem`] handle — the registry tier
    /// walk, the canonical cache key, and the per-topology capability
    /// table are fixed here, once. Handles are memoised by the canonical
    /// cache key ([`Registry::plan_cache_key`]): preparing two equivalent
    /// specs returns the *same* `Arc` (pointer-equal), and concurrent
    /// `prepare` calls for one key resolve the plan exactly once.
    ///
    /// A problem no registered solver applies to is a typed
    /// [`SolveError::NoSolver`] (memoised like any other verdict).
    ///
    /// Deriving the key is `O(table)` for block problems (the canonical
    /// content hash is what lets equivalent specs share a plan), and it
    /// is paid on every `prepare` — including the one inside each
    /// spec-taking convenience call. Hot paths should prepare once and
    /// hold the handle rather than re-presenting the spec per request.
    pub fn prepare(&self, spec: &ProblemSpec) -> Result<Arc<PreparedProblem>, SolveError> {
        let mut span = lcl_trace::span(lcl_trace::SpanKind::Prepare, "prepare");
        let key = self
            .registry
            .plan_cache_key(spec, self.opts.max_synthesis_k);
        let stamp = self.plan_clock.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = plans.entry(key.clone()).or_insert_with(|| PlanSlot {
                cell: Arc::new(OnceLock::new()),
                last_used: stamp,
            });
            slot.last_used = stamp;
            Arc::clone(&slot.cell)
        };
        let mut resolved_here = false;
        let outcome = cell.get_or_init(|| {
            resolved_here = true;
            self.resolve_plan(spec, &key)
        });
        if resolved_here {
            self.plans_resolved.fetch_add(1, Ordering::Relaxed);
            self.evict_lru_plans(&key);
        } else {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
        }
        span.count(0, u64::from(!resolved_here)); // cache_hit
        outcome.clone()
    }

    /// Enforces the [`EngineBuilder::max_prepared_plans`] cap after a
    /// resolution: evicts least-recently-used *resolved* entries (never
    /// the just-used `keep` key, never in-flight single-flight cells)
    /// until the memo fits. No-op without a configured cap.
    fn evict_lru_plans(&self, keep: &str) {
        let Some(cap) = self.max_prepared_plans else {
            return;
        };
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        while plans.len() > cap {
            let victim = plans
                .iter()
                .filter(|(key, slot)| key.as_str() != keep && slot.cell.get().is_some())
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone());
            match victim {
                Some(key) => {
                    plans.remove(&key);
                    self.plans_evicted.fetch_add(1, Ordering::Relaxed);
                }
                // Everything left is in flight or the protected key.
                None => break,
            }
        }
    }

    /// The uncached plan resolution behind [`Engine::prepare`].
    fn resolve_plan(
        &self,
        spec: &ProblemSpec,
        cache_key: &str,
    ) -> Result<Arc<PreparedProblem>, SolveError> {
        let plan = {
            let _span = lcl_trace::span(lcl_trace::SpanKind::Resolve, "registry-resolve");
            self.registry.plan(spec, &self.opts)
        };
        if plan.is_empty() {
            return Err(SolveError::NoSolver {
                problem: spec.name().to_string(),
            });
        }
        // Memoise the lcl-analyze report into the handle: DSL-compiled
        // specs already carry a span-bearing one; raw block specs get a
        // span-free analysis of their tabulated block table, computed
        // once here (the handle itself is memoised per cache key).
        let analysis = {
            let _span = lcl_trace::span(lcl_trace::SpanKind::Analysis, "analysis");
            match spec.analysis() {
                Some(a) => Some(Arc::clone(a)),
                None => spec
                    .to_block_lcl()
                    .map(|lcl| Arc::new(lcl_analyze::analyze_block(spec.name(), &lcl))),
            }
        };
        // Census lookup: canonicalise the spec's block table and seed
        // the classification from the atlas artifact on a hit, so
        // `classify` answers without any synthesis SAT work.
        let atlas_seed = self
            .atlas
            .as_ref()
            .and_then(|table| table.seed_for(spec, self.opts.max_synthesis_k));
        Ok(Arc::new(PreparedProblem::new(
            spec.clone(),
            cache_key.to_string(),
            plan,
            Arc::clone(&self.registry),
            self.opts,
            self.rounds_budget,
            self.validate,
            self.debug_validation,
            Arc::clone(&self.health),
            self.chaos.clone(),
            analysis,
            atlas_seed,
        )))
    }

    /// Number of distinct prepared plans memoised so far (resolved or
    /// verdict-cached failures).
    pub fn prepared_plans(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| slot.cell.get().is_some())
            .count()
    }

    /// Prepared-plan memo counters since this engine was built.
    pub fn prepare_stats(&self) -> PrepareStats {
        PrepareStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            resolved: self.plans_resolved.load(Ordering::Relaxed),
            evicted: self.plans_evicted.load(Ordering::Relaxed),
        }
    }

    /// Total jobs answered by in-batch dedup instead of a fresh solve,
    /// summed over every slice call this engine has run
    /// ([`Engine::solve_batch`], [`Engine::solve_jobs`],
    /// [`Engine::solve_jobs_with`]): the running sum of
    /// [`BatchReport::dedup_hits`]. The name predates the slice path
    /// owning the engine's only dedup; [`Engine::solve_stream`] does no
    /// dedup and never moves it.
    pub fn stream_dedup_hits(&self) -> u64 {
        self.stream_dedup_hits.load(Ordering::Relaxed)
    }

    /// Drops every memoised prepared plan (successes and cached failure
    /// verdicts alike). The memo otherwise grows by one entry per
    /// distinct canonical cache key for the engine's lifetime — a
    /// long-lived service preparing *user-supplied* problem definitions
    /// should bound that growth by clearing periodically. Outstanding
    /// `Arc<PreparedProblem>` handles stay fully usable (they own their
    /// plan and registry), and the registry's synthesis cache is
    /// untouched, so re-preparing a cleared problem re-walks the
    /// registry tiers but re-runs no SAT call.
    pub fn clear_plans(&self) {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Convenience: prepares the problem (memoised) and solves one
    /// instance. Equivalent to `self.prepare(spec)?.solve(inst)`; see
    /// [`PreparedProblem::solve`] for the dispatch contract.
    pub fn solve(&self, spec: &ProblemSpec, inst: &Instance) -> Result<Labelling, SolveError> {
        self.prepare(spec)?.solve(inst)
    }

    /// [`Engine::solve`] under a cooperative [`Budget`] (deadline, step
    /// quota, cancellation token). See [`PreparedProblem::solve_with`]
    /// for the degradation contract: a timed-out tier falls back to the
    /// next registry tier when one completes in time, otherwise the call
    /// returns typed [`SolveError::DeadlineExceeded`] /
    /// [`SolveError::Cancelled`] — and the engine, its caches, and the
    /// plan stay fully reusable.
    pub fn solve_with(
        &self,
        spec: &ProblemSpec,
        inst: &Instance,
        budget: &Budget,
    ) -> Result<Labelling, SolveError> {
        self.prepare(spec)?.solve_with(inst, budget)
    }

    /// Convenience: prepares the problem (memoised) and decides whether it
    /// has *any* valid labelling on the instance's topology and
    /// dimensions. See [`PreparedProblem::solvable`].
    pub fn solvable(&self, spec: &ProblemSpec, inst: &Instance) -> Result<bool, SolveError> {
        self.prepare(spec)?.solvable(inst)
    }

    /// Convenience: prepares the problem (memoised) and classifies it on
    /// the torus landscape. See [`PreparedProblem::classify`].
    pub fn classify(&self, spec: &ProblemSpec) -> Result<GridClass, SolveError> {
        self.prepare(spec)?.classify()
    }

    /// [`Engine::classify`] under a cooperative [`Budget`]. A budget trip
    /// mid-synthesis returns a typed error *without* memoising a verdict:
    /// the classification cache only ever holds completed computations.
    pub fn classify_with(
        &self,
        spec: &ProblemSpec,
        budget: &Budget,
    ) -> Result<GridClass, SolveError> {
        self.prepare(spec)?.classify_with(budget)
    }
}

/// Encodes a pseudoforest as per-node out-pointer labels (0 = none,
/// 1 = north, 2 = east, 3 = south, 4 = west).
pub(crate) fn encode_forest(grid: &BoundaryGrid, forest: &PseudoForest) -> Vec<Label> {
    let m = grid.side();
    let mut labels = vec![0 as Label; m * m];
    for &(u, v) in &forest.arcs {
        let (ux, uy) = (u % m, u / m);
        let (vx, vy) = (v % m, v / m);
        labels[u] = match (vx as i64 - ux as i64, vy as i64 - uy as i64) {
            (0, 1) => 1,
            (1, 0) => 2,
            (0, -1) => 3,
            (-1, 0) => 4,
            _ => unreachable!("checked arcs are grid edges"),
        };
    }
    labels
}

/// Decodes out-pointer labels back to a [`PseudoForest`] (the inverse of
/// the encoding used by the registered boundary-paths solver), for
/// re-validation with [`lcl_algorithms::corner::check`].
pub fn decode_forest(grid: &BoundaryGrid, labels: &[Label]) -> PseudoForest {
    let m = grid.side();
    let mut arcs = Vec::new();
    for (u, &l) in labels.iter().enumerate() {
        let (x, y) = ((u % m) as i64, (u / m) as i64);
        let (dx, dy) = match l {
            0 => continue,
            1 => (0, 1),
            2 => (1, 0),
            3 => (0, -1),
            4 => (-1, 0),
            _ => continue,
        };
        let (vx, vy) = (x + dx, y + dy);
        if vx < 0 || vy < 0 || vx >= m as i64 || vy >= m as i64 {
            continue;
        }
        arcs.push((u, (vy as usize) * m + vx as usize));
    }
    PseudoForest { arcs }
}
