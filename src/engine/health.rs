//! Engine health: per-solver circuit breakers and robustness counters.
//!
//! A persistently failing solver tier (panicking, erroring, or timing
//! out on every dispatch) costs every request the full failure before
//! the plan falls through to the next tier. The [`Health`] ledger gives
//! each solver name a three-state circuit breaker — `Closed` (normal),
//! `Open` (skip the tier entirely), `HalfOpen` (let one probe through) —
//! with exponential-backoff cooldowns, plus per-tier timeout/fallback
//! counters. One `Arc<Health>` per engine, shared with every
//! [`super::PreparedProblem`] it prepares and exported by `lcl-serve`'s
//! `/metrics` and `/healthz`.
//!
//! The tier walk feeds every attempt through [`Health::record`]. Only
//! *infrastructure* failures count against a breaker: budget trips,
//! `SolverFailed`, and validation failures. Domain verdicts are correct
//! answers and count as successes; cancelled or panicked attempts are
//! neutral. Either way a half-open probe is settled, never wedged.

use super::SolveError;
use lcl_trace::{TierAttempt, TierOutcome};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Consecutive infrastructure failures that trip a breaker open.
pub const BREAKER_THRESHOLD: u32 = 5;

/// Cooldown after the first trip; doubles per consecutive trip.
pub const BREAKER_BASE_COOLDOWN: Duration = Duration::from_millis(100);

/// Cooldown growth cap.
pub const BREAKER_MAX_COOLDOWN: Duration = Duration::from_secs(5);

/// Breaker position, as exported by [`Health::breakers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation.
    Closed,
    /// Tripped: dispatches to this solver are skipped until the cooldown
    /// elapses.
    Open,
    /// Cooldown elapsed: exactly one probe dispatch is allowed through;
    /// its outcome closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    /// Stable name for metrics rows.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// What one tier attempt tells its circuit breaker (DESIGN.md §10.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AttemptVerdict {
    /// The tier works: closes the breaker.
    Success,
    /// An infrastructure failure: counts toward a trip.
    Failure,
    /// No evidence either way: releases a half-open probe uncounted.
    Neutral,
}

/// How a dispatched tier attempt ended, for the cost ledger and for the
/// breaker: the outcome table of DESIGN.md §10.3.
pub(crate) fn attempt_end<T>(result: &Result<T, SolveError>) -> (TierOutcome, AttemptVerdict) {
    use AttemptVerdict::{Failure, Neutral, Success};
    match result {
        Ok(_) => (TierOutcome::Solved, Success),
        Err(SolveError::Unsolvable { .. }) => (TierOutcome::Unsolvable, Success),
        // Policy discards: too small for the tier, or over the round budget.
        Err(SolveError::TorusTooSmall { .. } | SolveError::RoundBudgetExceeded { .. }) => {
            (TierOutcome::Skipped, Success)
        }
        Err(SolveError::DeadlineExceeded { .. }) => (TierOutcome::Timeout, Failure),
        Err(SolveError::Cancelled) => (TierOutcome::Cancelled, Neutral),
        Err(SolveError::SolverFailed { .. } | SolveError::ValidationFailed { .. }) => {
            (TierOutcome::Failed, Failure)
        }
        Err(SolveError::Panicked { .. }) => (TierOutcome::Failed, Neutral),
        // Domain verdicts (e.g. `SynthesisFailed`) prove the tier works.
        Err(_) => (TierOutcome::Failed, Success),
    }
}

struct Breaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// When the breaker last opened.
    opened_at: Instant,
    /// Current cooldown (exponential in consecutive trips).
    cooldown: Duration,
    /// Lifetime trips to `Open`.
    trips: u64,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: Instant::now(),
            cooldown: BREAKER_BASE_COOLDOWN,
            trips: 0,
        }
    }
}

/// Per-tier robustness counters, as exported by [`Health::tier_counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Budget trips (deadline or step quota) in this tier.
    pub timeouts: u64,
    /// Solves answered by a *later* tier after this tier timed out.
    pub fallbacks: u64,
    /// Dispatches skipped because this tier's breaker was open.
    pub breaker_skips: u64,
}

/// A snapshot row of one breaker, for `/metrics`.
#[derive(Clone, Debug)]
pub struct BreakerSnapshot {
    /// Solver name the breaker guards.
    pub solver: String,
    /// Current position (recomputed against the cooldown clock).
    pub state: BreakerState,
    /// Lifetime trips to `Open`.
    pub trips: u64,
}

/// The engine's health ledger. All methods take `&self`; locks guard
/// only brief map accesses and recover from poisoning.
#[derive(Default)]
pub struct Health {
    breakers: Mutex<HashMap<String, Breaker>>,
    tiers: Mutex<HashMap<String, TierCounters>>,
}

impl Health {
    /// A fresh ledger: every breaker closed, every counter zero.
    pub fn new() -> Health {
        Health::default()
    }

    fn lock_breakers(&self) -> std::sync::MutexGuard<'_, HashMap<String, Breaker>> {
        self.breakers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tiers(&self) -> std::sync::MutexGuard<'_, HashMap<String, TierCounters>> {
        self.tiers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consults the breaker before dispatching to `solver`: `true` means
    /// go ahead (and transitions `Open` → `HalfOpen` when the cooldown
    /// has elapsed, claiming the probe slot); `false` means skip the
    /// tier. An unknown solver is always allowed (breakers materialise
    /// on first failure).
    pub fn allow(&self, solver: &str) -> bool {
        let mut breakers = self.lock_breakers();
        let Some(b) = breakers.get_mut(solver) else {
            return true;
        };
        match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if b.opened_at.elapsed() >= b.cooldown {
                    b.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // A probe is already in flight; hold further dispatches.
            BreakerState::HalfOpen => false,
        }
    }

    /// Records one tier attempt: counts a breaker skip or a timeout of
    /// its tier, and a fallback of `fallback_from` (the walk's first
    /// timed-out tier, when this attempt answered after it), then applies
    /// `verdict` to the attempt's breaker. `verdict` is `None` for a tier
    /// that was never dispatched: a skip leaves its breaker alone.
    pub(crate) fn record(
        &self,
        attempt: &TierAttempt,
        verdict: Option<AttemptVerdict>,
        fallback_from: Option<&str>,
    ) {
        let tier = attempt.tier.as_str();
        match attempt.outcome {
            TierOutcome::BreakerSkip => self.count(tier, "breaker-skip", |c| c.breaker_skips += 1),
            TierOutcome::Timeout => self.count(tier, "tier-timeout", |c| c.timeouts += 1),
            _ => {}
        }
        if let Some(first) = fallback_from {
            self.count(first, "tier-fallback", |c| c.fallbacks += 1);
        }
        let Some(verdict) = verdict else {
            return;
        };
        let mut breakers = self.lock_breakers();
        // Breakers materialise on their first failure.
        if verdict == AttemptVerdict::Failure && !breakers.contains_key(tier) {
            breakers.insert(tier.to_string(), Breaker::new());
        }
        let Some(b) = breakers.get_mut(tier) else {
            return;
        };
        match verdict {
            AttemptVerdict::Success => {
                b.state = BreakerState::Closed;
                b.consecutive_failures = 0;
                b.cooldown = BREAKER_BASE_COOLDOWN;
            }
            // Back to `Open` with the cooldown already elapsed: the next
            // `allow` claims a fresh probe.
            AttemptVerdict::Neutral if b.state == BreakerState::HalfOpen => {
                b.state = BreakerState::Open;
            }
            AttemptVerdict::Failure => {
                b.consecutive_failures = b.consecutive_failures.saturating_add(1);
                let probe_failed = b.state == BreakerState::HalfOpen;
                if probe_failed
                    || (b.state == BreakerState::Closed
                        && b.consecutive_failures >= BREAKER_THRESHOLD)
                {
                    if probe_failed {
                        b.cooldown = (b.cooldown * 2).min(BREAKER_MAX_COOLDOWN);
                    }
                    b.state = BreakerState::Open;
                    b.opened_at = Instant::now();
                    b.trips += 1;
                }
            }
            AttemptVerdict::Neutral => {}
        }
    }

    /// Number of breakers currently *recovering*: `HalfOpen` (probe in
    /// flight) or `Open` still inside its cooldown — the signal
    /// `/healthz` degrades on. An `Open` breaker whose cooldown has
    /// elapsed admits a probe on the very next dispatch and is counted
    /// as recovered; otherwise a tripped tier that an earlier tier
    /// permanently shadows (its successes end the walk before the probe)
    /// would hold the service `degraded` forever.
    pub fn open_breakers(&self) -> usize {
        self.lock_breakers()
            .values()
            .filter(|b| match b.state {
                BreakerState::Closed => false,
                BreakerState::HalfOpen => true,
                BreakerState::Open => b.opened_at.elapsed() < b.cooldown,
            })
            .count()
    }

    /// A snapshot of every materialised breaker, sorted by solver name.
    pub fn breakers(&self) -> Vec<BreakerSnapshot> {
        let mut rows: Vec<BreakerSnapshot> = self
            .lock_breakers()
            .iter()
            .map(|(solver, b)| BreakerSnapshot {
                solver: solver.clone(),
                state: b.state,
                trips: b.trips,
            })
            .collect();
        rows.sort_by(|a, b| a.solver.cmp(&b.solver));
        rows
    }

    /// Lifetime trips across every breaker.
    pub fn breaker_trips(&self) -> u64 {
        self.lock_breakers().values().map(|b| b.trips).sum()
    }

    /// Bumps one of `tier`'s counters, dropping an instant mark named
    /// `mark` on the current trace so timeline views show *where* the
    /// walk lost its budget or skipped a tier.
    fn count(&self, tier: &str, mark: &str, bump: impl FnOnce(&mut TierCounters)) {
        lcl_trace::mark(lcl_trace::SpanKind::Mark, mark, [0; 4]);
        bump(self.lock_tiers().entry(tier.to_string()).or_default());
    }

    /// Every tier's counters, sorted by tier name.
    pub fn tier_counters(&self) -> Vec<(String, TierCounters)> {
        let mut rows: Vec<(String, TierCounters)> = self
            .lock_tiers()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `h` one attempt of `tier` that ended with `outcome`.
    fn feed(h: &Health, tier: &str, outcome: TierOutcome, verdict: AttemptVerdict) {
        h.record(&attempt(tier, outcome), Some(verdict), None);
    }

    fn attempt(tier: &str, outcome: TierOutcome) -> TierAttempt {
        TierAttempt {
            tier: tier.to_string(),
            outcome,
            wall_us: 0,
            solver: lcl_trace::SolverCost::default(),
        }
    }

    fn fail(h: &Health, tier: &str) {
        feed(h, tier, TierOutcome::Failed, AttemptVerdict::Failure);
    }

    fn succeed(h: &Health, tier: &str) {
        feed(h, tier, TierOutcome::Solved, AttemptVerdict::Success);
    }

    fn trip_and_cool(h: &Health, tier: &str) {
        for _ in 0..BREAKER_THRESHOLD {
            fail(h, tier);
        }
        std::thread::sleep(BREAKER_BASE_COOLDOWN + Duration::from_millis(20));
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers() {
        let h = Health::new();
        assert!(h.allow("sat"));
        for _ in 0..BREAKER_THRESHOLD - 1 {
            fail(&h, "sat");
            assert!(h.allow("sat"), "below threshold must stay closed");
        }
        fail(&h, "sat");
        assert!(!h.allow("sat"), "threshold reached must open");
        assert_eq!(h.open_breakers(), 1);
        assert_eq!(h.breaker_trips(), 1);
        // After the cooldown one probe is allowed; a success closes.
        std::thread::sleep(BREAKER_BASE_COOLDOWN + Duration::from_millis(20));
        assert!(h.allow("sat"), "cooldown elapsed: probe allowed");
        assert!(!h.allow("sat"), "only one probe at a time");
        succeed(&h, "sat");
        assert!(h.allow("sat"));
        assert_eq!(h.open_breakers(), 0);
    }

    #[test]
    fn half_open_failure_reopens_with_backoff() {
        let h = Health::new();
        trip_and_cool(&h, "synth");
        assert!(h.allow("synth"));
        fail(&h, "synth");
        assert!(!h.allow("synth"), "failed probe re-opens");
        assert_eq!(h.breaker_trips(), 2);
        // The cooldown doubled, so the base cooldown no longer suffices.
        std::thread::sleep(BREAKER_BASE_COOLDOWN + Duration::from_millis(20));
        assert!(!h.allow("synth"), "doubled cooldown still cooling");
    }

    #[test]
    fn domain_success_resets_streak() {
        let h = Health::new();
        for _ in 0..BREAKER_THRESHOLD - 1 {
            fail(&h, "tier");
        }
        // An over-round-budget labelling is a success: the tier works.
        feed(&h, "tier", TierOutcome::Skipped, AttemptVerdict::Success);
        for _ in 0..BREAKER_THRESHOLD - 1 {
            fail(&h, "tier");
        }
        assert!(h.allow("tier"), "streak was reset by the success");
    }

    #[test]
    fn neutral_releases_a_half_open_probe_without_counting() {
        let h = Health::new();
        trip_and_cool(&h, "sat");
        assert!(h.allow("sat"), "probe claimed");
        feed(&h, "sat", TierOutcome::Cancelled, AttemptVerdict::Neutral);
        assert_eq!(h.open_breakers(), 0, "a released probe is not wedged");
        assert_eq!(h.breaker_trips(), 1, "neutral never trips");
        assert!(h.allow("sat"), "the next dispatch probes again");
        // A neutral verdict on a closed breaker is a no-op.
        succeed(&h, "sat");
        feed(&h, "sat", TierOutcome::Failed, AttemptVerdict::Neutral);
        assert_eq!(h.breakers()[0].state, BreakerState::Closed);
    }

    #[test]
    fn attempt_ends_follow_the_outcome_table() {
        use AttemptVerdict::{Failure, Neutral, Success};
        let end = |e: SolveError| attempt_end::<()>(&Err(e));
        assert_eq!(attempt_end(&Ok(())), (TierOutcome::Solved, Success));
        let over_budget = SolveError::RoundBudgetExceeded {
            budget: 1,
            needed: 2,
        };
        assert_eq!(end(over_budget), (TierOutcome::Skipped, Success));
        let domain = SolveError::SynthesisFailed {
            problem: "p".to_string(),
            max_k: 1,
        };
        assert_eq!(end(domain), (TierOutcome::Failed, Success));
        let timeout = SolveError::DeadlineExceeded {
            tier: "sat".to_string(),
            elapsed: Duration::ZERO,
        };
        assert_eq!(end(timeout), (TierOutcome::Timeout, Failure));
        let invalid = SolveError::ValidationFailed {
            solver: "sat".to_string(),
            violation: "bad".to_string(),
        };
        assert_eq!(end(invalid), (TierOutcome::Failed, Failure));
        assert_eq!(
            end(SolveError::Cancelled),
            (TierOutcome::Cancelled, Neutral)
        );
        let panicked = SolveError::Panicked {
            detail: "boom".to_string(),
        };
        assert_eq!(end(panicked), (TierOutcome::Failed, Neutral));
    }

    #[test]
    fn tier_counters_accumulate() {
        let h = Health::new();
        let timeout = attempt("sat-existence", TierOutcome::Timeout);
        h.record(&timeout, Some(AttemptVerdict::Failure), None);
        h.record(&timeout, Some(AttemptVerdict::Failure), None);
        h.record(
            &attempt("constant", TierOutcome::Solved),
            Some(AttemptVerdict::Success),
            Some("sat-existence"),
        );
        let skip = attempt("synthesised-tiles", TierOutcome::BreakerSkip);
        h.record(&skip, None, None);
        h.record(&skip, None, None);
        let rows = h.tier_counters();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            (
                "sat-existence".to_string(),
                TierCounters {
                    timeouts: 2,
                    fallbacks: 1,
                    breaker_skips: 0
                }
            )
        );
        assert_eq!(rows[1].1.breaker_skips, 2);
    }
}
