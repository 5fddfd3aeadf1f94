//! RAII spans, instant marks, and the thread-local context that links
//! them into a tree without touching any function signature.
//!
//! A thread carries two pieces of implicit context: the *current
//! parent span* (updated by every [`SpanGuard`] open/close) and the
//! *current trace id* (set once per served request by
//! [`set_current_trace`]). Opening a span snapshots both, so the
//! recorded events reconstruct the request → tier → SAT/synthesis/
//! simulator tree exactly, even across deeply nested calls that know
//! nothing about tracing.
//!
//! When the global collector is disabled, [`span`] returns an *inert*
//! guard after a single relaxed atomic load: no allocation, no
//! thread-local access, no interner lock. That branch is the entire
//! disabled-mode cost and is pinned by the counting-allocator test.

use crate::collector::{global, intern, next_span_id, now_ns, RawEvent};
use std::cell::Cell;

/// What kind of work a span covers. Doubles as the Chrome trace
/// category and selects human-readable counter names.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SpanKind {
    /// A whole served HTTP request.
    Request,
    /// `Engine::prepare`: plan-cache lookup plus (on miss) resolution.
    Prepare,
    /// Decidability/complexity analysis of a problem spec.
    Analysis,
    /// Registry plan resolution (choosing the solver tiers).
    Resolve,
    /// One `PreparedProblem::solve_with` call (the tier walk).
    Solve,
    /// One solver tier attempt inside the walk.
    Tier,
    /// One SAT `solve_budgeted` call.
    Sat,
    /// Normal-form synthesis (the iterative-deepening fixpoint).
    Synthesis,
    /// A LOCAL-model simulator run.
    Simulator,
    /// Output validation against the problem spec.
    Validation,
    /// A zero-duration instant event (breaker skip, cache hit, …).
    Mark,
}

impl SpanKind {
    /// Decodes a wire value; unknown values degrade to [`SpanKind::Mark`].
    pub fn from_u32(v: u32) -> SpanKind {
        match v {
            0 => SpanKind::Request,
            1 => SpanKind::Prepare,
            2 => SpanKind::Analysis,
            3 => SpanKind::Resolve,
            4 => SpanKind::Solve,
            5 => SpanKind::Tier,
            6 => SpanKind::Sat,
            7 => SpanKind::Synthesis,
            8 => SpanKind::Simulator,
            9 => SpanKind::Validation,
            _ => SpanKind::Mark,
        }
    }

    /// The Chrome trace category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Prepare => "prepare",
            SpanKind::Analysis => "analysis",
            SpanKind::Resolve => "resolve",
            SpanKind::Solve => "solve",
            SpanKind::Tier => "tier",
            SpanKind::Sat => "sat",
            SpanKind::Synthesis => "synthesis",
            SpanKind::Simulator => "simulator",
            SpanKind::Validation => "validation",
            SpanKind::Mark => "mark",
        }
    }

    /// Human-readable names for the four counter slots of this kind.
    pub fn counter_names(self) -> [&'static str; 4] {
        match self {
            SpanKind::Request => ["status", "c1", "c2", "c3"],
            SpanKind::Prepare => ["cache_hit", "c1", "c2", "c3"],
            SpanKind::Tier => ["outcome", "c1", "c2", "c3"],
            SpanKind::Sat => ["decisions", "propagations", "conflicts", "learned"],
            SpanKind::Synthesis => ["attempts", "origin", "k", "c3"],
            SpanKind::Simulator => ["rounds", "nodes", "c2", "c3"],
            _ => ["c0", "c1", "c2", "c3"],
        }
    }
}

impl From<SpanKind> for u32 {
    fn from(kind: SpanKind) -> u32 {
        match kind {
            SpanKind::Request => 0,
            SpanKind::Prepare => 1,
            SpanKind::Analysis => 2,
            SpanKind::Resolve => 3,
            SpanKind::Solve => 4,
            SpanKind::Tier => 5,
            SpanKind::Sat => 6,
            SpanKind::Synthesis => 7,
            SpanKind::Simulator => 8,
            SpanKind::Validation => 9,
            SpanKind::Mark => 10,
        }
    }
}

thread_local! {
    /// The innermost open span on this thread (0 = none).
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
    /// The request trace id spans on this thread belong to (0 = none).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Tags every span subsequently recorded on this thread with a request
/// trace id. Pass 0 to clear. `lcl-serve` sets this at the top of each
/// request and clears it before the connection handler returns the
/// thread to the pool.
pub fn set_current_trace(trace_id: u64) {
    CURRENT_TRACE.with(|c| c.set(trace_id));
}

/// The trace id set by [`set_current_trace`] on this thread (0 = none).
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// An open span, recorded into the global collector when dropped (or
/// inert — id 0 — when tracing is disabled). Early returns and `?` are
/// covered for free by the drop.
#[derive(Debug)]
pub struct SpanGuard {
    span_id: u64,
    parent: u64,
    trace_id: u64,
    kind: SpanKind,
    name_id: u32,
    start_ns: u64,
    counters: [u64; 4],
}

/// Opens a span as a child of the thread's current span. The returned
/// guard records the span when dropped. When the global collector is
/// disabled this is a single atomic load returning an inert guard.
#[inline]
pub fn span(kind: SpanKind, name: &str) -> SpanGuard {
    if !global().is_enabled() {
        return SpanGuard {
            span_id: 0,
            parent: 0,
            trace_id: 0,
            kind,
            name_id: 0,
            start_ns: 0,
            counters: [0; 4],
        };
    }
    let span_id = next_span_id();
    let parent = CURRENT_PARENT.with(|c| c.replace(span_id));
    SpanGuard {
        span_id,
        parent,
        trace_id: current_trace(),
        kind,
        name_id: intern(name),
        start_ns: now_ns(),
        counters: [0; 4],
    }
}

impl SpanGuard {
    /// False for the inert guard handed out while tracing is disabled.
    pub fn is_active(&self) -> bool {
        self.span_id != 0
    }

    /// This span's id (0 when inert) — usable as a parent reference.
    pub fn id(&self) -> u64 {
        self.span_id
    }

    /// Sets counter slot `index` (0..4); see
    /// [`SpanKind::counter_names`] for what each slot means per kind.
    pub fn count(&mut self, index: usize, value: u64) {
        if self.span_id != 0 {
            self.counters[index % 4] = value;
        }
    }

    /// Sets all four counter slots at once.
    pub fn counters(&mut self, counters: [u64; 4]) {
        if self.span_id != 0 {
            self.counters = counters;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.span_id == 0 {
            return;
        }
        CURRENT_PARENT.with(|c| c.set(self.parent));
        global().record(&RawEvent {
            span_id: self.span_id,
            parent_id: self.parent,
            trace_id: self.trace_id,
            kind: self.kind.into(),
            name_id: self.name_id,
            start_ns: self.start_ns,
            end_ns: now_ns(),
            counters: self.counters,
        });
    }
}

/// Records a zero-duration instant event under the current span
/// (breaker skips, cache hits, timeouts). A no-op single branch when
/// tracing is disabled.
#[inline]
pub fn mark(kind: SpanKind, name: &str, counters: [u64; 4]) {
    if !global().is_enabled() {
        return;
    }
    let ts = now_ns();
    global().record(&RawEvent {
        span_id: next_span_id(),
        parent_id: CURRENT_PARENT.with(|c| c.get()),
        trace_id: current_trace(),
        kind: kind.into(),
        name_id: intern(name),
        start_ns: ts,
        end_ns: ts,
        counters,
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    /// Each test uses a distinct trace id so parallel tests sharing
    /// the process-global collector cannot see each other's events.
    fn scoped<R>(trace_id: u64, f: impl FnOnce() -> R) -> R {
        crate::enable(4096);
        set_current_trace(trace_id);
        let out = f();
        set_current_trace(0);
        out
    }

    #[test]
    fn spans_nest_into_a_tree() {
        scoped(0xA11CE, || {
            let root_id;
            {
                let root = span(SpanKind::Solve, "solve");
                root_id = root.id();
                {
                    let mut tier = span(SpanKind::Tier, "tier-one");
                    assert_eq!(current_trace(), 0xA11CE);
                    tier.count(0, 7);
                    let _leaf = span(SpanKind::Sat, "sat-solve");
                }
                mark(SpanKind::Mark, "breaker-skip", [1, 0, 0, 0]);
            }
            let trace = crate::snapshot_for(0xA11CE);
            assert_eq!(trace.events.len(), 4);
            let root = trace.events.iter().find(|e| e.name == "solve").unwrap();
            assert_eq!(root.span_id, root_id);
            assert_eq!(root.parent_id, 0);
            let tier = trace.events.iter().find(|e| e.name == "tier-one").unwrap();
            assert_eq!(tier.parent_id, root_id);
            assert_eq!(tier.counters[0], 7);
            let sat = trace.events.iter().find(|e| e.name == "sat-solve").unwrap();
            assert_eq!(sat.parent_id, tier.span_id);
            let m = trace
                .events
                .iter()
                .find(|e| e.name == "breaker-skip")
                .unwrap();
            assert_eq!(m.parent_id, root_id);
            assert_eq!(m.duration_ns(), 0);
        });
    }

    #[test]
    fn parent_restored_after_guard_drops() {
        scoped(0xBEEF, || {
            {
                let a = span(SpanKind::Solve, "a");
                {
                    let _b = span(SpanKind::Tier, "b");
                }
                // After b closes, new spans are children of a again.
                let c = span(SpanKind::Tier, "c");
                drop(c);
                drop(a);
            }
            let trace = crate::snapshot_for(0xBEEF);
            let a = trace.events.iter().find(|e| e.name == "a").unwrap();
            let b = trace.events.iter().find(|e| e.name == "b").unwrap();
            let c = trace.events.iter().find(|e| e.name == "c").unwrap();
            assert_eq!(b.parent_id, a.span_id);
            assert_eq!(c.parent_id, a.span_id);
        });
    }

    #[test]
    fn kind_round_trips_through_wire_encoding() {
        for kind in [
            SpanKind::Request,
            SpanKind::Prepare,
            SpanKind::Analysis,
            SpanKind::Resolve,
            SpanKind::Solve,
            SpanKind::Tier,
            SpanKind::Sat,
            SpanKind::Synthesis,
            SpanKind::Simulator,
            SpanKind::Validation,
            SpanKind::Mark,
        ] {
            assert_eq!(SpanKind::from_u32(u32::from(kind)), kind);
        }
    }
}
