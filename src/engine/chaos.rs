//! Deterministic, seed-driven fault injection.
//!
//! The robustness claims elsewhere in this crate — "a panicking solver
//! neither takes down the process nor poisons the shared caches", "a
//! slow tier trips its deadline and the walk falls back" — are only
//! claims until a fault actually fires. This module makes faults
//! first-class: a [`ChaosState`] is compiled into every engine but is
//! inert unless armed (via
//! [`crate::engine::EngineBuilder::chaos_config`]), and when armed it
//! injects faults on a schedule that is a pure function of `(seed, fault
//! point, per-point counter)` — two runs with the same seed and the same
//! call sequence inject the *same* faults at the *same* points, so chaos
//! tests are reproducible and every injected fault can be reconciled
//! against an observed typed error or a recovery counter.
//!
//! Fault points:
//!
//! * [`FaultPoint::SolvePanic`] — the solver dispatch panics, exercising
//!   the batch/stream/serve `catch_unwind` containment paths.
//! * [`FaultPoint::SolveLatency`] — artificial per-tier latency, for
//!   deadline and breaker testing.

use lcl_core::canonical::fnv1a64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The instrumented fault points, in counter-array order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Solver dispatch panic.
    SolvePanic,
    /// Artificial solver latency.
    SolveLatency,
}

/// Number of distinct fault points.
const POINTS: usize = 2;

impl FaultPoint {
    const ALL: [FaultPoint; POINTS] = [FaultPoint::SolvePanic, FaultPoint::SolveLatency];

    fn index(self) -> usize {
        match self {
            FaultPoint::SolvePanic => 0,
            FaultPoint::SolveLatency => 1,
        }
    }

    /// Stable counter name, used in `/metrics` and test assertions.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::SolvePanic => "solve_panic",
            FaultPoint::SolveLatency => "solve_latency",
        }
    }

    /// Per-point salt mixed into the schedule so the points fire
    /// independently of each other.
    fn salt(self) -> u64 {
        // FNV-1a over the point name: stable across builds.
        fnv1a64(self.name().bytes())
    }
}

/// What to inject and how often. `None`/`0` disables a point. A period of
/// `p` fires *pseudo-randomly* at rate `1/p` on a schedule fully
/// determined by the seed; `panic_at` instead fires *exactly once*, at
/// the given 1-based dispatch ordinal (the "panic at the Nth solve"
/// knob).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Fire `SolvePanic` at rate `1/p`.
    pub solve_panic_period: Option<u64>,
    /// Fire `SolvePanic` exactly once, at this 1-based solver dispatch.
    pub panic_at: Option<u64>,
    /// Fire `SolveLatency` at rate `1/p`.
    pub solve_latency_period: Option<u64>,
    /// The injected latency when `SolveLatency` fires.
    pub solve_latency: Duration,
}

impl ChaosConfig {
    /// A config with every point disabled (but the state still armed and
    /// counting) — the base for targeted single-fault tests.
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            solve_panic_period: None,
            panic_at: None,
            solve_latency_period: None,
            solve_latency: Duration::from_millis(1),
        }
    }

    /// The default battery armed by `lcl-serve --chaos-seed`: every point
    /// enabled at a cadence a soak test meets within seconds, mild enough
    /// that a healthy server stays live throughout.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            solve_panic_period: Some(7),
            panic_at: None,
            solve_latency_period: Some(5),
            solve_latency: Duration::from_millis(2),
        }
    }
}

/// SplitMix64: the mixing function behind the schedule. Full-period,
/// statistically solid, two multiplies — cheap enough for hot paths.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The armed fault injector: per-point dispatch counters plus per-point
/// injected-fault counters (the ledger tests reconcile against observed
/// typed errors). `Send + Sync`; one per engine, shared with every
/// prepared plan.
pub struct ChaosState {
    config: ChaosConfig,
    /// How many times each point has been consulted.
    counters: [AtomicU64; POINTS],
    /// How many times each point actually fired.
    injected: [AtomicU64; POINTS],
}

impl ChaosState {
    /// Arms a fault injector with an explicit config.
    pub fn new(config: ChaosConfig) -> ChaosState {
        ChaosState {
            config,
            counters: Default::default(),
            injected: Default::default(),
        }
    }

    /// The config this state was armed with.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    fn period(&self, point: FaultPoint) -> Option<u64> {
        match point {
            FaultPoint::SolvePanic => self.config.solve_panic_period,
            FaultPoint::SolveLatency => self.config.solve_latency_period,
        }
    }

    /// Consults the schedule at a fault point: advances the point's
    /// counter and reports whether the fault fires at this ordinal. The
    /// decision is a pure function of `(seed, point, ordinal)` — calling
    /// sequences that consult the same points in the same order get the
    /// same schedule, whatever threads they run on.
    pub fn should(&self, point: FaultPoint) -> bool {
        let i = point.index();
        let ordinal = self.counters[i].fetch_add(1, Ordering::Relaxed) + 1;
        let fires = if point == FaultPoint::SolvePanic && self.config.panic_at.is_some() {
            self.config.panic_at == Some(ordinal)
        } else {
            match self.period(point) {
                Some(p) if p > 0 => {
                    splitmix64(self.config.seed ^ point.salt() ^ ordinal).is_multiple_of(p)
                }
                _ => false,
            }
        };
        if fires {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fires
    }

    /// The latency to inject if `SolveLatency` fires at this ordinal.
    pub fn latency(&self) -> Option<Duration> {
        self.should(FaultPoint::SolveLatency)
            .then_some(self.config.solve_latency)
    }

    /// Panics (deterministically, per the schedule) at the solver
    /// dispatch point — the injected fault the `catch_unwind` containment
    /// paths must absorb. The payload names the point so observed panics
    /// can be attributed to the injector.
    pub fn maybe_panic(&self, tier: &str) {
        if self.should(FaultPoint::SolvePanic) {
            let n = self.injected(FaultPoint::SolvePanic);
            panic!("chaos: injected panic #{n} in solver {tier}");
        }
    }

    /// How many times a point has fired.
    pub fn injected(&self, point: FaultPoint) -> u64 {
        self.injected[point.index()].load(Ordering::Relaxed)
    }

    /// How many times a point has been consulted (fired or not).
    pub fn consulted(&self, point: FaultPoint) -> u64 {
        self.counters[point.index()].load(Ordering::Relaxed)
    }

    /// Every point's injected-fault count, in stable name order — the
    /// rows `/metrics` exports and the soak test reconciles.
    pub fn injected_counts(&self) -> Vec<(&'static str, u64)> {
        FaultPoint::ALL
            .iter()
            .map(|&p| (p.name(), self.injected(p)))
            .collect()
    }

    /// Total injected faults across every point.
    pub fn injected_total(&self) -> u64 {
        FaultPoint::ALL.iter().map(|&p| self.injected(p)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = ChaosState::new(ChaosConfig::from_seed(42));
        let b = ChaosState::new(ChaosConfig::from_seed(42));
        let fire_a: Vec<bool> = (0..200)
            .map(|_| a.should(FaultPoint::SolveLatency))
            .collect();
        let fire_b: Vec<bool> = (0..200)
            .map(|_| b.should(FaultPoint::SolveLatency))
            .collect();
        assert_eq!(fire_a, fire_b);
        assert_eq!(
            a.injected(FaultPoint::SolveLatency),
            b.injected(FaultPoint::SolveLatency)
        );
        // The cadence is real: rate 1/5 over 200 consultations fires
        // dozens of times, not zero and not always.
        let fired = a.injected(FaultPoint::SolveLatency);
        assert!(fired > 20 && fired < 180, "fired {fired}/200");
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosState::new(ChaosConfig::from_seed(1));
        let b = ChaosState::new(ChaosConfig::from_seed(2));
        let fire_a: Vec<bool> = (0..200).map(|_| a.should(FaultPoint::SolvePanic)).collect();
        let fire_b: Vec<bool> = (0..200).map(|_| b.should(FaultPoint::SolvePanic)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn points_fire_independently() {
        let mut config = ChaosConfig::quiet(7);
        config.solve_panic_period = Some(3);
        config.solve_latency_period = Some(3);
        let s = ChaosState::new(config);
        let panics: Vec<bool> = (0..64).map(|_| s.should(FaultPoint::SolvePanic)).collect();
        let delays: Vec<bool> = (0..64)
            .map(|_| s.should(FaultPoint::SolveLatency))
            .collect();
        // Same period, same seed, same ordinals — but different salts.
        assert_ne!(panics, delays);
    }

    #[test]
    fn panic_at_exact_ordinal() {
        let mut config = ChaosConfig::quiet(9);
        config.panic_at = Some(3);
        let s = ChaosState::new(config);
        assert!(!s.should(FaultPoint::SolvePanic));
        assert!(!s.should(FaultPoint::SolvePanic));
        assert!(s.should(FaultPoint::SolvePanic));
        assert!(!s.should(FaultPoint::SolvePanic));
        assert_eq!(s.injected(FaultPoint::SolvePanic), 1);
    }

    #[test]
    fn quiet_config_never_fires() {
        let s = ChaosState::new(ChaosConfig::quiet(5));
        for _ in 0..100 {
            assert!(!s.should(FaultPoint::SolveLatency));
            s.maybe_panic("tier");
        }
        assert_eq!(s.injected_total(), 0);
        assert_eq!(s.consulted(FaultPoint::SolvePanic), 100);
    }
}
