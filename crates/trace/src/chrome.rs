//! Chrome Trace Event Format export.
//!
//! [`Trace::to_chrome_json`] renders a snapshot as the JSON object
//! format (`{"traceEvents":[...]}`) understood by `chrome://tracing`,
//! Perfetto, and `about:tracing`: complete spans as `ph:"X"` events
//! with microsecond `ts`/`dur`, instant marks as `ph:"i"`, counters as
//! `args`. Written by hand rather than through [`Json`](crate::json::Json)
//! because `ts`/`dur` are fixed three-decimal literals; span names go
//! through the shared escaper [`json::write_string`].

use crate::collector::Event;
use crate::json;
use crate::span::SpanKind;
use std::fmt::Write as _;

/// A decoded snapshot of recorded events plus the ring's drop count.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in start-time order.
    pub events: Vec<Event>,
    /// Events the ring overwrote before this snapshot was taken.
    pub dropped: u64,
}

impl Trace {
    /// True iff the snapshot holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the snapshot in Chrome Trace Event Format (JSON object
    /// form). Load the result in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    ///
    /// Complete spans become `ph:"X"` duration events; zero-duration
    /// marks become `ph:"i"` instants. `ts` and `dur` are microseconds
    /// (with nanosecond decimals) since the process trace epoch. Span
    /// links and counters ride in `args` — `span_id`/`parent_id` as
    /// hex strings, counters under their kind-specific names.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ms\",");
        let _ = write!(out, "\"droppedEvents\":{},", self.dropped);
        out.push_str("\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            render_event(&mut out, event);
        }
        out.push_str("]}");
        out
    }
}

/// `ns` nanoseconds as a microsecond decimal literal (`12345` ns →
/// `12.345`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn render_event(out: &mut String, event: &Event) {
    let instant = event.kind == SpanKind::Mark || event.end_ns == event.start_ns;
    out.push_str("{\"name\":");
    let _ = json::write_string(out, &event.name);
    let _ = write!(
        out,
        ",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
        event.kind.category(),
        if instant { "i" } else { "X" },
        micros(event.start_ns),
    );
    if instant {
        out.push_str("\"s\":\"t\",");
    } else {
        let _ = write!(out, "\"dur\":{},", micros(event.duration_ns()));
    }
    out.push_str("\"pid\":1,\"tid\":1,\"args\":{");
    let _ = write!(
        out,
        "\"span_id\":\"{:#x}\",\"parent_id\":\"{:#x}\",\"trace_id\":\"{:016x}\"",
        event.span_id, event.parent_id, event.trace_id,
    );
    let names = event.kind.counter_names();
    for (name, value) in names.iter().zip(event.counters) {
        if value != 0 {
            let _ = write!(out, ",\"{name}\":{value}");
        }
    }
    out.push_str("}}");
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    fn event(name: &str, kind: SpanKind, start: u64, end: u64) -> Event {
        Event {
            span_id: 2,
            parent_id: 1,
            trace_id: 0xabc,
            kind,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            counters: [3, 0, 0, 0],
        }
    }

    #[test]
    fn chrome_json_has_duration_and_instant_events() {
        let trace = Trace {
            events: vec![
                event("solve", SpanKind::Solve, 1_500, 42_500),
                event("breaker-skip", SpanKind::Mark, 2_000, 2_000),
            ],
            dropped: 5,
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"droppedEvents\":5"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":41.000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"trace_id\":\"0000000000000abc\""));
        // Zero counters are omitted; the nonzero c0 appears by name.
        assert!(json.contains("\"c0\":3"));
        assert!(!json.contains("\"c1\""));
    }

    #[test]
    fn hostile_names_are_escaped() {
        let trace = Trace {
            events: vec![event("a\"b\\c\n", SpanKind::Mark, 0, 0)],
            dropped: 0,
        };
        let doc = json::Json::parse(&trace.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").and_then(json::Json::as_arr).unwrap();
        assert_eq!(
            events[0].get("name").and_then(json::Json::as_str),
            Some("a\"b\\c\n")
        );
    }

    #[test]
    fn empty_trace_is_valid() {
        let json = Trace::default().to_chrome_json();
        assert!(json.contains("\"traceEvents\":[]"));
    }
}
