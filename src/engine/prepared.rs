//! The prepared-plan handle: one problem, resolved once, solved many
//! times.
//!
//! [`Engine::prepare`](crate::engine::Engine::prepare) walks the registry
//! tiers for a [`ProblemSpec`] exactly once and freezes the outcome — the
//! ordered solver plan, the canonical cache key, and the engine's
//! validation policy — into a [`PreparedProblem`]. The handle is
//! immutable, `Send + Sync`, and cheap to clone behind its `Arc`, so a
//! server resolves each problem at startup (or on first sight) and then
//! hands the same handle to every request thread; the classification
//! verdict memoises inside the handle on first use, sharing the
//! registry's synthesis cache with the solve path.

use super::chaos::ChaosState;
use super::health::{attempt_end, AttemptVerdict, Health};
use super::registry::{self, PlanOptions, Registry};
use super::spec::{self, ProblemSpec, Topology};
use super::{
    budget_error, Complexity, Instance, Labelling, Solve, SolveError, SolveReport,
    DEBUG_VALIDATION_MAX_NODES,
};
use lcl_core::classify::GridClass;
use lcl_core::existence;
use lcl_grid::CycleGraph;
use lcl_local::Simulator;
use lcl_sat::Budget;
use lcl_symmetry::protocol_validation::CvProtocol;
use lcl_trace::TierOutcome;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One tier attempt of the walk, and the walk's only recorder: when
/// dropped it sends one [`lcl_trace::TierAttempt`] to the cost ledger,
/// the tier span, and [`Health::record`]. The walk sets `outcome` (and,
/// for a dispatch, `verdict`) first; an attempt dropped without an
/// outcome — a panic unwinding out of the solver — records as failed and
/// neutral, releasing any half-open probe it held.
struct Attempt<'a> {
    ledger: &'a mut Vec<lcl_trace::TierAttempt>,
    health: &'a Health,
    tier: &'a str,
    /// The tier span and the attempt's start, once dispatched. Only a
    /// dispatched attempt's verdict reaches the tier's breaker.
    dispatched: Option<(lcl_trace::SpanGuard, Instant)>,
    outcome: Option<TierOutcome>,
    verdict: AttemptVerdict,
    /// The walk's first timed-out tier, when this attempt answered after it.
    fallback_from: Option<String>,
}

impl Drop for Attempt<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.unwrap_or(TierOutcome::Failed);
        // Skips cost nothing; a dispatch drains the thread's pending
        // solver work so SAT effort is billed to the tier that caused it.
        let (wall_us, solver) = match &mut self.dispatched {
            Some((span, started)) => {
                span.count(0, outcome.code());
                (
                    started.elapsed().as_micros() as u64,
                    lcl_trace::take_solver_cost(),
                )
            }
            None => (0, lcl_trace::SolverCost::default()),
        };
        let attempt = lcl_trace::TierAttempt {
            tier: self.tier.to_string(),
            outcome,
            wall_us,
            solver,
        };
        let verdict = self.dispatched.is_some().then_some(self.verdict);
        self.health
            .record(&attempt, verdict, self.fallback_from.as_deref());
        self.ledger.push(attempt);
    }
}

/// The solver name on the opt-in round-ledger cross-check's errors.
const CROSS_CHECK: &str = "cv-protocol-cross-check";

/// A problem whose solver plan has been resolved by
/// [`Engine::prepare`](crate::engine::Engine::prepare): the immutable,
/// shareable handle production callers solve through.
///
/// ```
/// use lcl_grids::engine::{Engine, Instance, ProblemSpec};
/// use lcl_grids::local::IdAssignment;
///
/// let engine = Engine::builder().max_synthesis_k(2).build();
/// let five = engine.prepare(&ProblemSpec::vertex_colouring(5)).unwrap();
/// assert!(!five.solver_names().is_empty());
/// let inst = Instance::square(16, &IdAssignment::Shuffled { seed: 1 });
/// assert!(five.solve(&inst).unwrap().report.validated);
/// ```
pub struct PreparedProblem {
    spec: ProblemSpec,
    cache_key: String,
    plan: Vec<Box<dyn Solve>>,
    registry: Arc<Registry>,
    opts: PlanOptions,
    rounds_budget: Option<u64>,
    validate: bool,
    debug_validation: bool,
    /// The engine's health ledger: circuit breakers consulted (and fed)
    /// by every dispatch through this plan.
    health: Arc<Health>,
    /// The engine's armed fault injector, if any.
    chaos: Option<Arc<ChaosState>>,
    /// The memoised `lcl-analyze` verdicts for the problem's block
    /// table: `L002` (statically unsolvable) and `L003` (constant)
    /// short-circuit the tier walk; serve renders the diagnostics.
    /// `None` for problems without a block normal form.
    analysis: Option<Arc<lcl_analyze::Analysis>>,
    /// The classification verdict, memoised on first `classify()` call
    /// (it may cost a synthesis attempt, shared with the solve path
    /// through the registry's synthesis cache).
    classification: OnceLock<Result<GridClass, SolveError>>,
    /// The census entry that seeded [`classification`], when the engine
    /// is armed with an [`super::AtlasTable`] and the problem's
    /// canonical form is in it: the classification above was pre-filled
    /// from the artifact (no synthesis will ever run for `classify`),
    /// and solve reports carry an `atlas` provenance detail.
    atlas_seed: Option<super::atlas::AtlasSeed>,
}

impl PreparedProblem {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        spec: ProblemSpec,
        cache_key: String,
        plan: Vec<Box<dyn Solve>>,
        registry: Arc<Registry>,
        opts: PlanOptions,
        rounds_budget: Option<u64>,
        validate: bool,
        debug_validation: bool,
        health: Arc<Health>,
        chaos: Option<Arc<ChaosState>>,
        analysis: Option<Arc<lcl_analyze::Analysis>>,
        atlas_seed: Option<super::atlas::AtlasSeed>,
    ) -> PreparedProblem {
        let classification = OnceLock::new();
        if let Some(seed) = &atlas_seed {
            // Census hit: the classification is already decided by the
            // checked-in artifact (soundness-gated by the engine in
            // `AtlasTable::seed_for`), so `classify` never reaches the
            // synthesiser for this problem.
            let _ = classification.set(Ok(seed.class.clone()));
        }
        PreparedProblem {
            spec,
            cache_key,
            plan,
            registry,
            opts,
            rounds_budget,
            validate,
            debug_validation,
            health,
            chaos,
            analysis,
            classification,
            atlas_seed,
        }
    }

    /// The problem this plan solves.
    pub fn spec(&self) -> &ProblemSpec {
        &self.spec
    }

    /// The canonical cache key the plan is memoised (and batch-dedup
    /// namespaced) under — [`Registry::plan_cache_key`]: content-addressed
    /// for block problems, name-addressed otherwise, always carrying the
    /// synthesis budget.
    pub fn cache_key(&self) -> &str {
        &self.cache_key
    }

    /// The resolved solver plan, best first (across all topologies the
    /// problem has registered solvers on).
    pub fn solver_names(&self) -> Vec<&str> {
        self.plan.iter().map(|s| s.name()).collect()
    }

    /// The memoised [`lcl-analyze`](lcl_analyze) report for the
    /// problem's block table — spans included when the spec was compiled
    /// from `lcl-lang` source, span-free when the engine analysed a raw
    /// table at prepare time. `None` for problems without a block normal
    /// form (corner coordination, MIS powers).
    pub fn analysis(&self) -> Option<&lcl_analyze::Analysis> {
        self.analysis.as_deref()
    }

    /// The census entry this plan's classification was seeded from, when
    /// the engine is armed with an [`super::AtlasTable`] and the
    /// problem's canonical form is in the census: the census name and
    /// the class it pinned. `None` on engines without an atlas or for
    /// problems outside the census frontier.
    pub fn atlas_seed(&self) -> Option<&super::atlas::AtlasSeed> {
        self.atlas_seed.as_ref()
    }

    /// Solves one instance on any supported topology.
    ///
    /// 2-dimensional `TorusD` instances are lowered to their canonical
    /// `Torus2` form first, then the plan is walked: solvers whose
    /// [`super::Capabilities`] reject the instance's topology or size are
    /// skipped, typed per-solver failures fall through to the next
    /// solver, and successful labellings are re-validated with the
    /// topology-native independent checker before being returned. A
    /// `(problem, topology)` pair no registered solver covers comes back
    /// as [`SolveError::UnsupportedTopology`].
    pub fn solve(&self, inst: &Instance) -> Result<Labelling, SolveError> {
        self.solve_with(inst, &Budget::unlimited())
    }

    /// [`PreparedProblem::solve`] under a cooperative [`Budget`]
    /// (deadline, step quota, cancellation token), checked at hot-loop
    /// granularity inside the SAT-backed tiers.
    ///
    /// Degradation contract:
    ///
    /// * A tier whose budget trips is recorded (first trip wins the
    ///   attribution) and the walk **continues** to the next tier — the
    ///   closed-form constructions complete in microseconds, so a solve
    ///   that times out in synthesis can still be answered exactly. A
    ///   success after a trip carries `fallback_from` /
    ///   `fallback_elapsed` details in its [`SolveReport`] and bumps the
    ///   tier's fallback counter.
    /// * If no tier succeeds, the first trip is returned as
    ///   [`SolveError::DeadlineExceeded`] (taking priority over generic
    ///   fall-through errors).
    /// * [`SolveError::Cancelled`] aborts the walk immediately — a
    ///   caller that hung up wants no fallback.
    /// * Per-solver circuit breakers are consulted before each dispatch:
    ///   a tier tripped open by repeated infrastructure failures is
    ///   skipped until its cooldown elapses (see [`super::Health`]).
    ///
    /// In every outcome the plan, the engine, and the shared caches stay
    /// fully reusable: a budget trip never poisons a cache cell or
    /// wedges a worker.
    pub fn solve_with(&self, inst: &Instance, budget: &Budget) -> Result<Labelling, SolveError> {
        // Trace-and-ledger wrapper around the walk: one `Solve` span
        // (child tier spans record inside `solve_walk`), and a `Cost`
        // ledger of every tier attempt attached to the returned report.
        // The ledger is built whether or not tracing is enabled — it is
        // a handful of µs-stamped pushes per solve.
        let started = Instant::now();
        let mut span = lcl_trace::span(lcl_trace::SpanKind::Solve, "solve");
        let mut cost = lcl_trace::Cost::default();
        // Drain solver work left pending on this thread by earlier
        // operations (e.g. a classify), so the first tier attempt is
        // not billed for it.
        let _ = lcl_trace::take_solver_cost();
        let mut result = self.solve_walk(inst, budget, &mut cost);
        cost.total_us = started.elapsed().as_micros() as u64;
        span.count(0, cost.tiers.len() as u64);
        if let Ok(labelling) = &mut result {
            labelling.report.cost = cost;
        }
        result
    }

    /// The tier walk behind [`PreparedProblem::solve_with`], appending
    /// one [`lcl_trace::TierAttempt`] per tier it skips or dispatches.
    fn solve_walk(
        &self,
        inst: &Instance,
        budget: &Budget,
        cost: &mut lcl_trace::Cost,
    ) -> Result<Labelling, SolveError> {
        budget
            .check()
            .map_err(|e| budget_error("pre-dispatch", budget, e))?;
        let lowered = inst.lower_d2();
        let inst = lowered.as_ref().unwrap_or(inst);
        let topology = inst.topology();
        if !self.spec.supports(topology) {
            return Err(SolveError::UnsupportedTopology {
                problem: self.spec.name().to_string(),
                topology: topology.to_string(),
                reason: format!(
                    "{} has no semantics on a {topology}; its home is the {}",
                    self.spec.name(),
                    self.spec.home_topology()
                ),
            });
        }
        // L002 short-circuit: a statically-unsolvable verdict from the
        // prepare-time analysis — the arc-consistency closure emptied
        // the allowed-block set, certificate in `analysis()` — is the
        // exact verdict the SAT tier would reach, returned here with
        // zero solver invocations. 2-d tori only: the certificate
        // argument lives in the 2×2 block semantics.
        if topology == Topology::Torus2
            && self
                .analysis
                .as_ref()
                .is_some_and(|a| a.unsolvable().is_some())
        {
            return Err(SolveError::Unsolvable {
                problem: self.spec.name().to_string(),
                dims: inst.dims(),
            });
        }
        let side = inst.min_side();
        let mut topology_covered = false;
        let mut cheapest_over_budget: Option<u64> = None;
        let mut smallest_supported: Option<usize> = None;
        let mut fallthrough: Option<SolveError> = None;
        let mut timed_out: Option<(String, Duration)> = None;
        for solver in &self.plan {
            let caps = solver.capabilities();
            if !caps.topology.accepts(topology) {
                continue;
            }
            topology_covered = true;
            let name = solver.name();
            let mut attempt = Attempt {
                ledger: &mut cost.tiers,
                health: &self.health,
                tier: name,
                dispatched: None,
                outcome: None,
                verdict: AttemptVerdict::Neutral,
                fallback_from: None,
            };
            let skip = if caps.square_only && !inst.is_square() {
                Some(TierOutcome::Skipped)
            } else if side < caps.min_side {
                smallest_supported =
                    Some(smallest_supported.map_or(caps.min_side, |m: usize| m.min(caps.min_side)));
                Some(TierOutcome::Skipped)
            } else if !self.health.allow(name) {
                fallthrough.get_or_insert(SolveError::SolverFailed {
                    solver: name.to_string(),
                    detail: "circuit breaker open: tier is cooling down after repeated failures"
                        .to_string(),
                });
                Some(TierOutcome::BreakerSkip)
            } else {
                None
            };
            if skip.is_some() {
                attempt.outcome = skip;
                continue;
            }
            attempt.dispatched = Some((
                lcl_trace::span(lcl_trace::SpanKind::Tier, name),
                Instant::now(),
            ));
            let result = self.run_tier(solver.as_ref(), inst, budget);
            let (outcome, verdict) = attempt_end(&result);
            attempt.outcome = Some(outcome);
            attempt.verdict = verdict;
            match result {
                Ok(mut labelling) => {
                    // A drifted round ledger indicts the engine's
                    // accounting, not this tier: the attempt is recorded
                    // failed but neutral, and no later tier can fix it.
                    if self.debug_validation {
                        if let Err(e) = self.cross_validate_rounds(inst, &mut labelling.report) {
                            attempt.outcome = Some(TierOutcome::Failed);
                            attempt.verdict = AttemptVerdict::Neutral;
                            return Err(e);
                        }
                    }
                    if let Some((tier, elapsed)) = timed_out {
                        labelling.report = labelling
                            .report
                            .with_detail("fallback_from", &tier)
                            .with_detail("fallback_elapsed_ms", elapsed.as_millis());
                        attempt.fallback_from = Some(tier);
                    }
                    // L003: record that the O(1) tier was predicted by
                    // the static analysis, not discovered by the walk.
                    if name == "constant"
                        && self
                            .analysis
                            .as_ref()
                            .is_some_and(|a| a.constant_label().is_some())
                    {
                        labelling.report = labelling.report.with_detail("analysis", "L003");
                    }
                    // Census provenance: this plan's classification came
                    // from the atlas artifact, not a tier-walk discovery.
                    if let Some(seed) = &self.atlas_seed {
                        labelling.report = labelling.report.with_detail("atlas", &seed.name);
                    }
                    return Ok(labelling);
                }
                // Unsatisfiability is exact: no other solver can succeed.
                // Cancellation aborts: the caller hung up.
                Err(e @ (SolveError::Unsolvable { .. } | SolveError::Cancelled)) => return Err(e),
                // A tripped budget degrades: later (cheaper) tiers still
                // get their chance; the first trip owns the attribution.
                Err(SolveError::DeadlineExceeded { tier, elapsed }) => {
                    timed_out.get_or_insert((tier, elapsed));
                }
                Err(SolveError::TorusTooSmall { min_side, .. }) => {
                    smallest_supported =
                        Some(smallest_supported.map_or(min_side, |m: usize| m.min(min_side)));
                }
                Err(SolveError::RoundBudgetExceeded { needed, .. }) => {
                    cheapest_over_budget =
                        Some(cheapest_over_budget.map_or(needed, |c: u64| c.min(needed)));
                }
                Err(e) => {
                    fallthrough.get_or_insert(e);
                }
            }
        }
        if !topology_covered {
            return Err(SolveError::UnsupportedTopology {
                problem: self.spec.name().to_string(),
                topology: topology.to_string(),
                reason: "no registered solver covers this (problem, topology) pair".to_string(),
            });
        }
        // A budget trip outranks the generic fall-through: it is the
        // actionable outcome (retry with a roomier budget).
        if let Some((tier, elapsed)) = timed_out {
            return Err(SolveError::DeadlineExceeded { tier, elapsed });
        }
        if let (Some(needed), Some(budget)) = (cheapest_over_budget, self.rounds_budget) {
            return Err(SolveError::RoundBudgetExceeded { budget, needed });
        }
        if let Some(e) = fallthrough {
            return Err(e);
        }
        if let Some(min_side) = smallest_supported {
            return Err(SolveError::TorusTooSmall {
                problem: self.spec.name().to_string(),
                min_side,
                side,
            });
        }
        Err(SolveError::NoSolver {
            problem: self.spec.name().to_string(),
        })
    }

    /// Dispatches one tier: the chaos hooks, the per-tier budget check,
    /// the solve, validation, and the round budget. The walk runs the opt-in
    /// round-ledger cross-check on the labelling it is about to return.
    fn run_tier(
        &self,
        solver: &dyn Solve,
        inst: &Instance,
        budget: &Budget,
    ) -> Result<Labelling, SolveError> {
        if let Some(chaos) = &self.chaos {
            if let Some(delay) = chaos.latency() {
                std::thread::sleep(delay);
            }
            // May panic (deterministically): the batch, stream, and serve
            // paths contain it via catch_unwind, which is the point.
            chaos.maybe_panic(solver.name());
        }
        budget
            .check()
            .map_err(|e| budget_error(solver.name(), budget, e))?;
        let mut labelling = solver.solve(inst, budget)?;
        if self.validate {
            let _vspan = lcl_trace::span(lcl_trace::SpanKind::Validation, "validate");
            self.spec
                .check_instance(inst, &labelling.labels)
                .map_err(|violation| SolveError::ValidationFailed {
                    solver: solver.name().to_string(),
                    violation,
                })?;
            labelling.report.validated = true;
        }
        let needed = labelling.report.rounds.total();
        match self.rounds_budget {
            Some(budget) if needed > budget => {
                Err(SolveError::RoundBudgetExceeded { budget, needed })
            }
            _ => Ok(labelling),
        }
    }

    /// Decides whether the problem has *any* valid labelling on the
    /// instance's topology and dimensions (independent of round budgets
    /// and identifier assignments).
    ///
    /// On 2-d tori (and lowered `d = 2` instances) this is the exact
    /// [`existence::solvable`] verdict: a constant solution, else a
    /// double-counting certificate (`lcl_core::counting`, checked
    /// independently) that rules the torus out, else SAT. On
    /// higher-dimensional tori it is answered by
    /// the paper's counting arguments where those apply (Theorem 21 for
    /// edge `2d`-colouring, §10 for larger palettes, the Cartesian-product
    /// chromatic bound for vertex colouring); unsupported pairs come back
    /// as [`SolveError::UnsupportedTopology`].
    pub fn solvable(&self, inst: &Instance) -> Result<bool, SolveError> {
        let lowered = inst.lower_d2();
        let inst = lowered.as_ref().unwrap_or(inst);
        let topology = inst.topology();
        let unsupported = |reason: String| SolveError::UnsupportedTopology {
            problem: self.spec.name().to_string(),
            topology: topology.to_string(),
            reason,
        };
        if !self.spec.supports(topology) {
            return Err(unsupported(format!(
                "{} has no semantics on a {topology}",
                self.spec.name()
            )));
        }
        if self.spec.mis_power_params().is_some() {
            // The greedy sweep always produces a maximal independent set.
            return Ok(true);
        }
        match inst {
            Instance::Boundary(_) => Ok(true), // the boundary-paths witness
            Instance::Torus2(gi) => {
                let problem = self
                    .spec
                    .grid_problem()
                    .ok_or_else(|| unsupported("not a block problem".to_string()))?;
                Ok(existence::solvable(problem, &gi.torus()))
            }
            Instance::TorusD(di) => {
                use lcl_core::GridProblem;
                let n = di.side();
                let d = di.dim();
                if n == 1 {
                    // A side-1 torus has no edges: everything labels.
                    return Ok(true);
                }
                match self.spec.grid_problem() {
                    Some(GridProblem::EdgeColouring { k }) => {
                        let k = usize::from(*k);
                        if k < 2 * d {
                            Ok(false) // fewer colours than the degree
                        } else if k == 2 * d {
                            Ok(n % 2 == 0) // Theorem 21, exactly
                        } else {
                            Ok(true) // §10: 2d+1 colours always suffice
                        }
                    }
                    Some(GridProblem::VertexColouring { k }) => {
                        // χ of a Cartesian product of cycles is
                        // max over the factors: 2 for even n, 3 for odd.
                        let chi = if n % 2 == 0 { 2 } else { 3 };
                        Ok(usize::from(*k) >= chi)
                    }
                    Some(p) => match spec::ddim_semantics(p, d) {
                        Some(spec::DdimSemantics::IndependentSet) => Ok(true),
                        Some(spec::DdimSemantics::Pairwise(pairs)) => {
                            // The d-dimensional SAT existence encoder:
                            // exact verdicts for axis-symmetric pairwise
                            // problems (compiled lcl-lang definitions
                            // included) beyond the tabulated formulas.
                            Ok(
                                existence::solve_pairwise_d(di.torus(), p.alphabet(), &pairs)
                                    .is_some(),
                            )
                        }
                        _ => Err(unsupported(
                            "existence is not tabulated for this problem in d ≥ 3".to_string(),
                        )),
                    },
                    None => Err(unsupported("not a block problem".to_string())),
                }
            }
        }
    }

    /// The one-sided classification adapter (§7): `Constant` if a
    /// constant labelling works, `LogStar` with certainty if a certified
    /// hand-built `O(log* n)` solver is registered or synthesis succeeds
    /// within the plan's `k` budget (memoised), `Global` otherwise —
    /// which, by Theorem 3, no procedure can sharpen. The verdict is
    /// computed once per prepared problem and cached in the handle.
    pub fn classify(&self) -> Result<GridClass, SolveError> {
        self.classification
            .get_or_init(|| self.classify_uncached(&Budget::unlimited()))
            .clone()
    }

    /// [`PreparedProblem::classify`] under a cooperative [`Budget`]. A
    /// budget trip mid-synthesis returns the typed error **without**
    /// filling the classification memo (or the registry's synthesis
    /// cache): an interrupted search is not a `Global` verdict, and the
    /// next call — with a roomier budget — recomputes from intact state.
    pub fn classify_with(&self, budget: &Budget) -> Result<GridClass, SolveError> {
        if let Some(verdict) = self.classification.get() {
            return verdict.clone();
        }
        let verdict = self.classify_uncached(budget);
        if matches!(
            verdict,
            Err(SolveError::DeadlineExceeded { .. }) | Err(SolveError::Cancelled)
        ) {
            return verdict;
        }
        self.classification.get_or_init(|| verdict).clone()
    }

    fn classify_uncached(&self, budget: &Budget) -> Result<GridClass, SolveError> {
        if self.spec.home_topology() == Topology::Boundary {
            return Err(SolveError::UnsupportedTopology {
                problem: self.spec.name().to_string(),
                topology: Topology::Boundary.to_string(),
                reason: "classification covers the torus landscape (Theorem 1)".to_string(),
            });
        }
        if self.spec.constant_solution().is_some() {
            return Ok(GridClass::Constant);
        }
        // A hand-built solver in the plan is an a-priori log* upper bound
        // (Theorems 4 and 15), independent of the synthesis budget.
        let certified_log_star = self.plan.iter().any(|s| {
            s.capabilities().complexity == Complexity::LogStar
                && s.name() != registry::SYNTHESIS_SOLVER_NAME
        });
        if certified_log_star {
            return Ok(GridClass::LogStar);
        }
        if self.spec.grid_problem().is_none() {
            return Ok(GridClass::Global);
        }
        // L002: synthesis tiles a valid labelling, which a
        // statically-unsolvable problem has none of — skip the search.
        if self
            .analysis
            .as_ref()
            .is_some_and(|a| a.unsolvable().is_some())
        {
            return Ok(GridClass::Global);
        }
        match self
            .registry
            .memoised_synthesis(&self.spec, self.opts.max_synthesis_k, budget)
            .map_err(|e| budget_error(registry::SYNTHESIS_SOLVER_NAME, budget, e))?
        {
            Some(_) => Ok(GridClass::LogStar),
            None => Ok(GridClass::Global),
        }
    }

    /// The opt-in round-ledger cross-validation (see
    /// [`super::EngineBuilder::debug_validation`]): runs Cole–Vishkin as a
    /// real message-passing protocol on a cycle of the instance's side
    /// length and checks the batched ledger invariant, recording both
    /// round counts in the report.
    fn cross_validate_rounds(
        &self,
        inst: &Instance,
        report: &mut SolveReport,
    ) -> Result<(), SolveError> {
        let side = inst.min_side();
        if inst.node_count() > DEBUG_VALIDATION_MAX_NODES || side < 3 || inst.ids().is_empty() {
            report
                .details
                .push(("debug_validation".to_string(), "skipped".to_string()));
            return Ok(());
        }
        let cycle = CycleGraph::new(side);
        let ids = &inst.ids()[..side];
        let batched = lcl_symmetry::cv3_cycle(&cycle, ids).rounds.total();
        let run = Simulator::new(64)
            .run(&cycle, ids, &CvProtocol)
            .map_err(|e| SolveError::ValidationFailed {
                solver: CROSS_CHECK.to_string(),
                violation: format!("protocol did not halt: {e}"),
            })?;
        for v in 0..side {
            if run.outputs[v] >= 3 || run.outputs[v] == run.outputs[cycle.succ(v)] {
                return Err(SolveError::ValidationFailed {
                    solver: CROSS_CHECK.to_string(),
                    violation: format!("protocol output is not a proper 3-colouring at node {v}"),
                });
            }
        }
        // The invariant proven in lcl_symmetry::protocol_validation: the
        // batched ledger may undercut the fixed synchronous schedule by
        // the adaptively skipped iterations, never overcharge it, and the
        // schedule adds at most the identifier exchange + halting rounds.
        if batched > run.rounds || run.rounds > batched + 5 {
            return Err(SolveError::ValidationFailed {
                solver: CROSS_CHECK.to_string(),
                violation: format!(
                    "round ledger drifted from the synchronous protocol: \
                     ledger {batched}, protocol {}",
                    run.rounds
                ),
            });
        }
        report
            .details
            .push(("debug_cv_ledger_rounds".to_string(), batched.to_string()));
        report.details.push((
            "debug_cv_protocol_rounds".to_string(),
            run.rounds.to_string(),
        ));
        report
            .details
            .push(("debug_validation".to_string(), "ok".to_string()));
        Ok(())
    }
}

impl std::fmt::Debug for PreparedProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedProblem")
            .field("problem", &self.spec.name())
            .field("cache_key", &self.cache_key)
            .field("solvers", &self.solver_names())
            .finish()
    }
}
