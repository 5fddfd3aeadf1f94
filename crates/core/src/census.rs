//! The census line codec: one flat JSON object per line, shared by every
//! reader and writer of `lcl-atlas` census artifacts and journals.
//!
//! Line 1 of an artifact is a [`Header`] describing the census
//! configuration; every further line is a [`Record`] for one canonical
//! problem. `lcl-atlas` writes and loads whole artifacts with it, and the
//! engine's census lookup table (`lcl_grids::engine::AtlasTable`) reads
//! the same lines — one reader, so both refuse the same inputs (an
//! unknown format version, an unknown class).
//!
//! Rendering and parsing are hand-rolled over a fixed field set rather
//! than going through `lcl_trace::json`: that value type keeps numbers
//! as `f64`, exact only up to 2⁵³, while [`Header::candidates`] is a
//! `u128` that reaches 2⁸¹ on alphabet-3 frontiers. Values are
//! restricted to a JSON-safe charset at write time ([`check_text`]), so
//! the flat field scanners never need escape handling.

use crate::classify::GridClass;
use lcl_trace::SolverCost;
use std::fmt::Write as _;

/// Format version of the census artifact (the `atlas-census` header
/// field).
pub const FORMAT_VERSION: u64 = 1;

/// The census configuration line at the top of every artifact and
/// journal. Two files with equal headers were produced by equivalent
/// runs; resume refuses a journal whose header differs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// Largest alphabet enumerated.
    pub max_alphabet: u16,
    /// Per-table allowed-block cap, if any.
    pub max_blocks: Option<u32>,
    /// The engine's synthesis frontier `k`. Consumers seeding from the
    /// artifact must gate `global` verdicts on their own `k` being ≤
    /// this (a larger-`k` engine might synthesise what this census could
    /// not).
    pub max_synthesis_k: u64,
    /// Per-problem step quota (0 = unlimited). Steps, never wall-clock:
    /// budget trips must be deterministic.
    pub step_budget: u64,
    /// Even torus side the solve verdicts are from.
    pub even_side: u64,
    /// Odd torus side the `solvable_odd` verdicts are from.
    pub odd_side: u64,
    /// Raw (pre-dedup) table count of the frontier, the dedup-ratio
    /// denominator. Closed-form from the frontier, so it is known before
    /// the walk starts.
    pub candidates: u128,
}

impl Header {
    /// Renders the header as its JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"atlas-census\":{},\"max_alphabet\":{}",
            FORMAT_VERSION, self.max_alphabet
        );
        if let Some(m) = self.max_blocks {
            let _ = write!(line, ",\"max_blocks\":{m}");
        }
        let _ = write!(
            line,
            ",\"max_synthesis_k\":{},\"step_budget\":{},\"even_side\":{},\"odd_side\":{},\"candidates\":{}}}",
            self.max_synthesis_k, self.step_budget, self.even_side, self.odd_side, self.candidates
        );
        line
    }

    /// Parses a header line.
    pub fn parse(line: &str) -> Result<Header, String> {
        let version =
            field_u128(line, "atlas-census").ok_or("missing atlas-census version field")?;
        if version != u128::from(FORMAT_VERSION) {
            return Err(format!("unsupported atlas-census version {version}"));
        }
        let max_alphabet = field_u128(line, "max_alphabet").ok_or("missing max_alphabet")?;
        Ok(Header {
            max_alphabet: u16::try_from(max_alphabet).map_err(|_| "max_alphabet out of range")?,
            max_blocks: field_u128(line, "max_blocks")
                .map(|m| u32::try_from(m).map_err(|_| "max_blocks out of range"))
                .transpose()?,
            max_synthesis_k: field_u64(line, "max_synthesis_k").ok_or("missing max_synthesis_k")?,
            step_budget: field_u64(line, "step_budget").ok_or("missing step_budget")?,
            even_side: field_u64(line, "even_side").ok_or("missing even_side")?,
            odd_side: field_u64(line, "odd_side").ok_or("missing odd_side")?,
            candidates: field_u128(line, "candidates").ok_or("missing candidates")?,
        })
    }
}

/// The census verdict for one problem. Every enumerated problem gets
/// exactly one — there are no silent skips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The engine classified the problem; [`Record::class`] is present.
    Classified,
    /// Static analysis certified the problem has no valid labelling at
    /// all (lint L002) — classification is vacuous.
    Unsolvable,
    /// The per-problem step budget tripped before classification
    /// finished. A typed "too hard for this frontier", not an error.
    Timeout,
}

impl Verdict {
    /// Stable string form used in artifact lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Classified => "classified",
            Verdict::Unsolvable => "unsolvable",
            Verdict::Timeout => "timeout",
        }
    }

    /// Parses the stable string form.
    pub fn parse(s: &str) -> Option<Verdict> {
        match s {
            "classified" => Some(Verdict::Classified),
            "unsolvable" => Some(Verdict::Unsolvable),
            "timeout" => Some(Verdict::Timeout),
            _ => None,
        }
    }
}

/// One canonical problem's census entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Content-addressed census key (`atlas-a{A}-{hash:016x}`); the
    /// artifact's primary key and the problem's engine-facing name.
    pub key: String,
    /// Alphabet size.
    pub alphabet: u16,
    /// Allowed-block count.
    pub blocks: u32,
    /// Canonical table bitmask, lowercase hex (absent for non-census
    /// records produced from ad-hoc spec runs).
    pub table: Option<String>,
    /// Orbit size under the symmetry group (absent for ad-hoc runs).
    pub orbit: Option<u64>,
    /// The engine's content-addressed plan cache key — the census dedup
    /// audit asserts these are pairwise distinct.
    pub plan_key: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Complexity class; present iff `verdict` is `classified`.
    pub class: Option<GridClass>,
    /// Solve outcome on the even torus: `solved:<solver>`,
    /// `unsolvable`, or `timeout:<tier>`.
    pub solve: String,
    /// LOCAL rounds of the even-side solve, when it solved.
    pub rounds: Option<u64>,
    /// Whether the even-side instance is solvable (absent when the solve
    /// timed out before an answer).
    pub solvable_even: Option<bool>,
    /// Whether the odd-side instance is solvable.
    pub solvable_odd: Option<bool>,
    /// Aggregate SAT work attributed to this problem's solve walk.
    pub sat: SolverCost,
}

impl Record {
    /// Renders the record as its JSON line (no trailing newline).
    /// Optional fields are omitted, not null, so lines stay diffable.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"key\":\"{}\",\"alphabet\":{},\"blocks\":{}",
            check_text(&self.key),
            self.alphabet,
            self.blocks
        );
        if let Some(table) = &self.table {
            let _ = write!(line, ",\"table\":\"{}\"", check_text(table));
        }
        if let Some(orbit) = self.orbit {
            let _ = write!(line, ",\"orbit\":{orbit}");
        }
        let _ = write!(
            line,
            ",\"plan_key\":\"{}\",\"verdict\":\"{}\"",
            check_text(&self.plan_key),
            self.verdict.as_str()
        );
        if let Some(class) = &self.class {
            let _ = write!(line, ",\"class\":\"{}\"", class.as_str());
        }
        let _ = write!(line, ",\"solve\":\"{}\"", check_text(&self.solve));
        if let Some(rounds) = self.rounds {
            let _ = write!(line, ",\"rounds\":{rounds}");
        }
        if let Some(b) = self.solvable_even {
            let _ = write!(line, ",\"solvable_even\":{b}");
        }
        if let Some(b) = self.solvable_odd {
            let _ = write!(line, ",\"solvable_odd\":{b}");
        }
        let _ = write!(
            line,
            ",\"sat_decisions\":{},\"sat_propagations\":{},\"sat_conflicts\":{},\"sat_learned\":{}}}",
            self.sat.decisions, self.sat.propagations, self.sat.conflicts, self.sat.learned
        );
        line
    }

    /// Parses a record line.
    pub fn parse(line: &str) -> Result<Record, String> {
        let verdict_str = field_str(line, "verdict").ok_or("missing verdict")?;
        let verdict =
            Verdict::parse(verdict_str).ok_or_else(|| format!("unknown verdict {verdict_str}"))?;
        let class = match field_str(line, "class") {
            Some(s) => Some(GridClass::parse(s).ok_or_else(|| format!("unknown class {s}"))?),
            None => None,
        };
        if (verdict == Verdict::Classified) != class.is_some() {
            return Err("class must be present iff verdict is classified".to_string());
        }
        Ok(Record {
            key: field_str(line, "key").ok_or("missing key")?.to_string(),
            alphabet: u16::try_from(field_u64(line, "alphabet").ok_or("missing alphabet")?)
                .map_err(|_| "alphabet out of range")?,
            blocks: u32::try_from(field_u64(line, "blocks").ok_or("missing blocks")?)
                .map_err(|_| "blocks out of range")?,
            table: field_str(line, "table").map(str::to_string),
            orbit: field_u64(line, "orbit"),
            plan_key: field_str(line, "plan_key")
                .ok_or("missing plan_key")?
                .to_string(),
            verdict,
            class,
            solve: field_str(line, "solve").ok_or("missing solve")?.to_string(),
            rounds: field_u64(line, "rounds"),
            solvable_even: field_bool(line, "solvable_even"),
            solvable_odd: field_bool(line, "solvable_odd"),
            sat: SolverCost {
                decisions: field_u64(line, "sat_decisions").ok_or("missing sat_decisions")?,
                propagations: field_u64(line, "sat_propagations")
                    .ok_or("missing sat_propagations")?,
                conflicts: field_u64(line, "sat_conflicts").ok_or("missing sat_conflicts")?,
                learned: field_u64(line, "sat_learned").ok_or("missing sat_learned")?,
            },
        })
    }
}

/// Asserts the value is JSON-safe without escaping (the charsets the
/// census writes — keys, plan keys, solver names, class strings — never
/// need escapes; anything else is a bug worth failing loudly on).
pub fn check_text(s: &str) -> &str {
    debug_assert!(
        s.chars().all(|c| c != '"' && c != '\\' && !c.is_control()),
        "value needs JSON escaping: {s:?}"
    );
    s
}

/// Scans `"field":"<value>"` out of a flat JSON line.
fn field_str<'a>(line: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Scans a numeric `"field":<digits>` out of a flat JSON line.
fn field_u128(line: &str, field: &str) -> Option<u128> {
    let needle = format!("\"{field}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Scans a numeric `"field":<digits>` out of a flat JSON line, in `u64`
/// range.
fn field_u64(line: &str, field: &str) -> Option<u64> {
    u64::try_from(field_u128(line, field)?).ok()
}

/// Scans a boolean `"field":true|false` out of a flat JSON line.
fn field_bool(line: &str, field: &str) -> Option<bool> {
    let needle = format!("\"{field}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_scanners() {
        let line = r#"{"key":"atlas-a2-00ff","verdict":"classified","class":"log-star","n":42}"#;
        assert_eq!(field_str(line, "key"), Some("atlas-a2-00ff"));
        assert_eq!(field_str(line, "class"), Some("log-star"));
        assert_eq!(field_str(line, "missing"), None);
        assert_eq!(field_u64(line, "n"), Some(42));
        assert_eq!(field_u64(line, "key"), None);
    }
}
