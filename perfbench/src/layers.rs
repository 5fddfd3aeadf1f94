//! Per-layer metrics from one traced pass.
//!
//! The program already records spans at its layer boundaries
//! (`prepare`, `solve`, tier attempts, `validate`, `synthesize-auto`,
//! `sat-solve`, `simulate`); the harness adds its own `bench:*` spans
//! around the public calls it makes directly. Both land in the global
//! `lcl_trace` ring, which this module reads back once the pass is over.

use crate::Report;
use lcl_grids::core::synthesis::{enumerate_tiles, TileShape};
use lcl_trace::{Event, SpanKind};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Harness span around a direct `synthesize` call (lcl-core::synthesis).
pub const SYNTHESIZE: &str = "bench:synthesize";
/// Harness span around a direct `enumerate_tiles` call.
pub const TILES: &str = "bench:enumerate-tiles";
/// Harness span around `PreparedProblem::classify`.
pub const CLASSIFY: &str = "bench:classify";
/// Harness span around `PreparedProblem::solvable`.
pub const SOLVABLE: &str = "bench:solvable";
/// Harness span around `lcl_core::speedup::speedup`.
pub const SPEEDUP: &str = "bench:speedup";
/// Harness span around one E7 4-colouring solve.
pub const E7_SOLVE: &str = "bench:e7-solve";

/// The tile windows a synthesis encoder enumerates besides the window
/// itself (`encode_*` in `lcl_core::synthesis`).
#[derive(Clone, Copy, Debug)]
pub enum Encoder {
    /// Vertex colouring: the window one column wider and one row taller.
    Vertex,
    /// Edge colouring, orientation and block problems: one row and one
    /// column larger at once.
    SuperWindow,
}

/// Which problems a traced pass synthesises, so that the tile estimate
/// charges every synthesis attempt the windows of its problem's encoder.
#[derive(Default)]
pub struct Synthesised<'a> {
    /// The encoder of every synthesis under a harness span of that name
    /// (the nearest such span counts).
    pub under: &'a [(&'a str, Encoder)],
    /// The encoder of every other synthesis, if the pass has any.
    pub otherwise: Option<Encoder>,
    /// `(k, shape, encoder)` of the attempts the harness made itself
    /// through `synthesize` (no `synthesize-auto` span).
    pub direct: &'a [(usize, TileShape, Encoder)],
}

/// The window of one traced pass and every event recorded in it.
pub struct Traced {
    events: Vec<Event>,
    t0: u64,
    t1: u64,
    dropped: u64,
    by_id: HashMap<u64, usize>,
}

/// Turns the collector on (the ring is sized on the first call) and
/// returns the pass's start stamp.
pub fn begin(capacity: usize) -> u64 {
    lcl_trace::enable(capacity);
    lcl_trace::now_ns()
}

/// Turns the collector off and reads back the pass that began at `t0`.
pub fn end(t0: u64) -> Traced {
    let t1 = lcl_trace::now_ns();
    lcl_trace::disable();
    let trace = lcl_trace::snapshot();
    let events: Vec<Event> = trace
        .events
        .into_iter()
        .filter(|e| e.start_ns >= t0 && e.end_ns <= t1)
        .collect();
    let by_id = events
        .iter()
        .enumerate()
        .map(|(i, e)| (e.span_id, i))
        .collect();
    Traced {
        events,
        t0,
        t1,
        dropped: trace.dropped,
        by_id,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Traced {
    /// Wall time of the traced pass in seconds.
    pub fn wall_s(&self) -> f64 {
        (self.t1 - self.t0) as f64 / 1e9
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    fn total_ms<'a>(events: impl Iterator<Item = &'a Event>) -> f64 {
        ms(events.map(Event::duration_ns).sum())
    }

    /// A span opened outside any other span of the pass.
    fn is_root(&self, e: &Event) -> bool {
        !self.by_id.contains_key(&e.parent_id)
    }

    /// The nearest enclosing span that satisfies `pred`.
    fn ancestor(&self, e: &Event, pred: impl Fn(&Event) -> bool) -> Option<&Event> {
        let mut parent = e.parent_id;
        while let Some(&i) = self.by_id.get(&parent) {
            let p = &self.events[i];
            if pred(p) {
                return Some(p);
            }
            parent = p.parent_id;
        }
        None
    }

    /// True for the spans a per-layer time metric is summed from.
    fn is_layer_time(e: &Event) -> bool {
        matches!(
            e.kind,
            SpanKind::Sat
                | SpanKind::Synthesis
                | SpanKind::Prepare
                | SpanKind::Solve
                | SpanKind::Validation
                | SpanKind::Simulator
        ) || [SYNTHESIZE, TILES, CLASSIFY, SOLVABLE, SPEEDUP].contains(&e.name.as_str())
    }

    /// Share of the pass's wall time during which at least one span that
    /// a per-layer time metric is made of was open (on any thread): the
    /// union of those span intervals over the pass window.
    pub fn attributed_share(&self) -> f64 {
        let mut spans: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.end_ns > e.start_ns && Self::is_layer_time(e))
            .map(|e| (e.start_ns, e.end_ns))
            .collect();
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut open: Option<(u64, u64)> = None;
        for (s, e) in spans {
            match open {
                Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
                _ => {
                    if let Some((os, oe)) = open {
                        covered += oe - os;
                    }
                    open = Some((s, e));
                }
            }
        }
        if let Some((os, oe)) = open {
            covered += oe - os;
        }
        covered as f64 / (self.t1 - self.t0).max(1) as f64
    }

    /// Every span-derived metric: SAT, synthesis, the speed-up, engine
    /// stages, the LOCAL simulator, and the validity figures of the trace
    /// itself. `synthesised` says which problems the pass synthesises,
    /// for the tile-enumeration estimate.
    pub fn report(&self, report: &mut Report, synthesised: &Synthesised) {
        let sat: Vec<&Event> = self.of_kind(SpanKind::Sat).collect();
        report.set("sat.calls", sat.len() as f64);
        report.set("sat.ms", Self::total_ms(sat.iter().copied()));
        for (slot, name) in ["sat.decisions", "sat.propagations", "sat.conflicts"]
            .into_iter()
            .enumerate()
        {
            report.set(
                name,
                sat.iter().map(|e| e.counters[slot]).sum::<u64>() as f64,
            );
        }

        let auto: Vec<&Event> = self.named("synthesize-auto").collect();
        let attempts: u64 = auto.iter().map(|e| e.counters[0]).sum();
        report.set(
            "synthesis.calls",
            (attempts + self.named(SYNTHESIZE).count() as u64) as f64,
        );
        let synthesis_ms = Self::total_ms(auto.iter().copied().chain(self.named(SYNTHESIZE)));
        report.set("synthesis.ms", synthesis_ms);
        let estimate_ms = self.tiles_estimate_ms(&auto, synthesised, report);
        if estimate_ms > synthesis_ms {
            eprintln!(
                "perfbench: warning: tile-enumeration estimate {estimate_ms:.1} ms exceeds \
                 synthesis.ms {synthesis_ms:.1} ms; synthesis.tiles_ms counts all of \
                 synthesis instead"
            );
        }
        report.set(
            "synthesis.tiles_ms",
            Self::total_ms(self.named(TILES)) + estimate_ms.min(synthesis_ms),
        );
        report.set("speedup.ms", Self::total_ms(self.named(SPEEDUP)));

        report.set(
            "engine.prepare_ms",
            Self::total_ms(self.of_kind(SpanKind::Prepare)),
        );
        report.set(
            "engine.solve_ms",
            Self::total_ms(self.of_kind(SpanKind::Solve)),
        );
        report.set(
            "engine.validate_ms",
            Self::total_ms(self.of_kind(SpanKind::Validation)),
        );
        // Classify and solvable have no spans of their own: inside the
        // program they show as synthesis (classify) or SAT (solvable)
        // opened outside any solve; direct harness calls carry a span.
        report.set(
            "engine.classify_ms",
            Self::total_ms(
                self.named(CLASSIFY)
                    .chain(auto.iter().copied().filter(|e| self.is_root(e))),
            ),
        );
        report.set(
            "engine.solvable_ms",
            Self::total_ms(
                self.named(SOLVABLE)
                    .chain(sat.iter().copied().filter(|e| self.is_root(e))),
            ),
        );
        let sims: Vec<&Event> = self.of_kind(SpanKind::Simulator).collect();
        report.set("local.simulate_ms", Self::total_ms(sims.iter().copied()));
        report.set(
            "local.rounds",
            sims.iter().map(|e| e.counters[0]).sum::<u64>() as f64,
        );
        report.set("trace.dropped", self.dropped as f64);
        report.set("trace.events", self.events.len() as f64);
        report.set("attributed_share", self.attributed_share());
        report.check(self.dropped == 0, || {
            format!(
                "trace ring dropped {} events; the traced run is invalid",
                self.dropped
            )
        });
    }

    /// An estimate of the time spent enumerating tiles inside synthesis,
    /// which has no span of its own. Every attempt enumerates its window
    /// and the larger windows its problem's encoder needs; the harness
    /// times each distinct enumeration after the pass (median of three)
    /// and charges it per attempt. A synthesis the workload cannot name
    /// the problem of fails the run's checks.
    fn tiles_estimate_ms(
        &self,
        auto: &[&Event],
        synthesised: &Synthesised,
        report: &mut Report,
    ) -> f64 {
        let mut windows: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
        let mut charge = |k: usize, shape: TileShape, encoder: Encoder| {
            let mut add =
                |rows: usize, cols: usize| *windows.entry((k, rows, cols)).or_insert(0) += 1;
            add(shape.rows, shape.cols);
            match encoder {
                Encoder::Vertex => {
                    add(shape.rows, shape.cols + 1);
                    add(shape.rows + 1, shape.cols);
                }
                Encoder::SuperWindow => add(shape.rows + 1, shape.cols + 1),
            }
        };
        for &(k, shape, encoder) in synthesised.direct {
            charge(k, shape, encoder);
        }
        for e in auto {
            let by_span = self
                .ancestor(e, |p| synthesised.under.iter().any(|(n, _)| *n == p.name))
                .and_then(|p| synthesised.under.iter().find(|(n, _)| *n == p.name));
            let Some(encoder) = by_span.map(|&(_, enc)| enc).or(synthesised.otherwise) else {
                report.check(false, || {
                    "a synthesis ran whose problem the workload does not name; \
                     synthesis.tiles_ms cannot be estimated"
                        .to_string()
                });
                continue;
            };
            // `synthesize_auto` tries, for k = 1, 2, …, the window
            // (2k+1) × max(2k−1, 2) and then (2k+1) × (2k+1).
            for attempt in 1..=e.counters[0] as usize {
                let k = attempt.div_ceil(2);
                let cols = if attempt % 2 == 1 {
                    (2 * k - 1).max(2)
                } else {
                    2 * k + 1
                };
                charge(k, TileShape::new(2 * k + 1, cols), encoder);
            }
        }
        windows
            .into_iter()
            .map(|((k, rows, cols), count)| {
                let times: Vec<f64> = (0..3)
                    .map(|_| {
                        let started = Instant::now();
                        std::hint::black_box(enumerate_tiles(k, TileShape::new(rows, cols)));
                        started.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                crate::stats::median(&times) * count as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(span_id: u64, parent_id: u64, start_ns: u64, end_ns: u64) -> Event {
        Event {
            span_id,
            parent_id,
            trace_id: 0,
            kind: SpanKind::Solve,
            name: "solve".to_string(),
            start_ns,
            end_ns,
            counters: [0; 4],
        }
    }

    fn traced(events: Vec<Event>, t0: u64, t1: u64) -> Traced {
        let by_id = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.span_id, i))
            .collect();
        Traced {
            events,
            t0,
            t1,
            dropped: 0,
            by_id,
        }
    }

    #[test]
    fn attribution_is_the_union_of_layer_time_spans() {
        // Nested and overlapping spans count once; gaps do not count, and
        // neither do spans no per-layer time metric is made of.
        let mut request = event(5, 0, 50, 80);
        request.kind = SpanKind::Request;
        let mut harness = event(6, 0, 90, 95);
        harness.kind = SpanKind::Mark;
        harness.name = SPEEDUP.to_string();
        let t = traced(
            vec![
                event(1, 0, 0, 40),
                event(2, 1, 10, 20),
                event(3, 0, 30, 50),
                event(4, 0, 80, 90),
                request,
                harness,
            ],
            0,
            100,
        );
        assert!((t.attributed_share() - 0.65).abs() < 1e-12);
        assert!(t.is_root(&t.events[0]));
        assert!(!t.is_root(&t.events[1]));
        assert!(t.ancestor(&t.events[1], |p| p.span_id == 1).is_some());
        assert!(t.ancestor(&t.events[2], |_| true).is_none());
    }
}
