//! The on-disk census format: one JSON-lines artifact per frontier.
//!
//! Line 1 is a [`Header`] describing the census configuration; every
//! further line is a [`Record`] for one canonical problem, **sorted by
//! key**. The pipeline's checkpoint journal uses the *same* line format
//! (header first, then records in completion order), which is what makes
//! resume trivially byte-stable: the artifact is just the journal's
//! records re-sorted.
//!
//! Records carry no timestamps or wall-clock fields and every numeric
//! field is a deterministic function of the problem and the census
//! configuration, so re-running a frontier on any machine reproduces the
//! artifact byte for byte — CI checks exactly that.
//!
//! Rendering and parsing are hand-rolled over a fixed field set (the
//! workspace has no JSON dependency). Values are restricted to a JSON-
//! safe charset at write time (`check_text`), so the parser never
//! needs escape handling.

use crate::AtlasError;
use lcl_core::classify::GridClass;
use lcl_trace::SolverCost;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;

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

/// Stable string form of a complexity class (matches lcl-serve's
/// rendering).
pub fn class_str(class: &GridClass) -> &'static str {
    match class {
        GridClass::Constant => "constant",
        GridClass::LogStar => "log-star",
        GridClass::Global => "global",
    }
}

/// Parses the stable class string.
pub fn parse_class(s: &str) -> Option<GridClass> {
    match s {
        "constant" => Some(GridClass::Constant),
        "log-star" => Some(GridClass::LogStar),
        "global" => Some(GridClass::Global),
        _ => None,
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
            let _ = write!(line, ",\"class\":\"{}\"", class_str(class));
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
            Some(s) => Some(parse_class(s).ok_or_else(|| format!("unknown class {s}"))?),
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

/// A loaded census artifact: the header, the records in file order, and
/// a key index. This is what `lcl-serve` holds behind its `/atlas/…`
/// endpoints.
#[derive(Debug)]
pub struct Atlas {
    header: Header,
    records: Vec<Record>,
    index: HashMap<String, usize>,
}

impl Atlas {
    /// Loads an artifact (or journal — same format) from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Atlas, AtlasError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        let mut lines = io::BufReader::new(file).lines();
        let header_line = lines
            .next()
            .ok_or_else(|| journal_err(path, 1, "empty artifact"))??;
        let header = Header::parse(&header_line).map_err(|e| journal_err(path, 1, &e))?;
        let mut atlas = Atlas {
            header,
            records: Vec::new(),
            index: HashMap::new(),
        };
        for (i, line) in lines.enumerate() {
            let lineno = i + 2;
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let record = Record::parse(&line).map_err(|e| journal_err(path, lineno, &e))?;
            atlas
                .insert(record)
                .map_err(|e| journal_err(path, lineno, &e))?;
        }
        Ok(atlas)
    }

    /// Builds an atlas in memory.
    pub fn from_records(
        header: Header,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<Atlas, AtlasError> {
        let records = records.into_iter();
        let (len, _) = records.size_hint();
        let mut atlas = Atlas {
            header,
            records: Vec::with_capacity(len),
            index: HashMap::with_capacity(len),
        };
        for record in records {
            atlas.insert(record).map_err(AtlasError::Invariant)?;
        }
        Ok(atlas)
    }

    fn insert(&mut self, record: Record) -> Result<(), String> {
        if self.index.contains_key(&record.key) {
            return Err(format!("duplicate census key {}", record.key));
        }
        self.index.insert(record.key.clone(), self.records.len());
        self.records.push(record);
        Ok(())
    }

    /// The census configuration.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff the census holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for a census key.
    pub fn get(&self, key: &str) -> Option<&Record> {
        self.index.get(key).map(|&i| &self.records[i])
    }

    /// All records, in file order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes the artifact: header, then records **sorted by key**, one
    /// line each. Deterministic for a deterministic record set.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut sorted: Vec<&Record> = self.records.iter().collect();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", self.header.to_line())?;
        for record in sorted {
            writeln!(out, "{}", record.to_line())?;
        }
        out.flush()
    }

    /// The deterministic aggregate summary of this census.
    pub fn summary(&self) -> Summary {
        Summary::build(self)
    }
}

/// Aggregate census statistics, rendered as a deterministic JSON
/// document (`fixtures/atlas/summary-*.json`, `GET /atlas/summary`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Canonical problems in the census.
    pub problems: u64,
    /// Raw (pre-dedup) tables in the frontier.
    pub candidates: u128,
    /// Count per verdict, by stable verdict string.
    pub verdicts: Vec<(String, u64)>,
    /// Count per complexity class, by stable class string (classified
    /// problems only).
    pub classes: Vec<(String, u64)>,
    /// Count per even-side solve outcome (`solved:<solver>`,
    /// `unsolvable`, `timeout:<tier>`) — the census tier mix.
    pub solvers: Vec<(String, u64)>,
    /// Histogram of symmetry-orbit sizes: `(orbit size, number of
    /// canonical problems with that orbit size)`. Σ (size × count) over
    /// the histogram recovers the live raw table count — the audit that
    /// the symmetry quotient dropped nothing.
    pub orbit_histogram: Vec<(u64, u64)>,
    /// Per-alphabet problem counts.
    pub per_alphabet: Vec<(u16, u64)>,
}

impl Summary {
    /// Aggregates an atlas.
    pub fn build(atlas: &Atlas) -> Summary {
        let mut verdicts = std::collections::BTreeMap::new();
        let mut classes = std::collections::BTreeMap::new();
        let mut solvers = std::collections::BTreeMap::new();
        let mut orbits = std::collections::BTreeMap::new();
        let mut per_alphabet = std::collections::BTreeMap::new();
        for r in atlas.records() {
            *verdicts.entry(r.verdict.as_str().to_string()).or_insert(0) += 1;
            if let Some(class) = &r.class {
                *classes.entry(class_str(class).to_string()).or_insert(0) += 1;
            }
            *solvers.entry(r.solve.clone()).or_insert(0) += 1;
            if let Some(orbit) = r.orbit {
                *orbits.entry(orbit).or_insert(0) += 1;
            }
            *per_alphabet.entry(r.alphabet).or_insert(0) += 1;
        }
        Summary {
            problems: atlas.len() as u64,
            candidates: atlas.header().candidates,
            verdicts: verdicts.into_iter().collect(),
            classes: classes.into_iter().collect(),
            solvers: solvers.into_iter().collect(),
            orbit_histogram: orbits.into_iter().collect(),
            per_alphabet: per_alphabet.into_iter().collect(),
        }
    }

    /// Renders the summary as a deterministic pretty-printed JSON
    /// document (trailing newline included).
    pub fn to_json(&self) -> String {
        fn map_block(out: &mut String, name: &str, entries: &[(String, u64)], last: bool) {
            let _ = write!(out, "  \"{name}\": {{");
            for (i, (k, v)) in entries.iter().enumerate() {
                let comma = if i + 1 == entries.len() { "" } else { "," };
                let _ = write!(out, "\n    \"{}\": {v}{comma}", check_text(k));
            }
            let close = if entries.is_empty() { "}" } else { "\n  }" };
            let tail = if last { "\n" } else { ",\n" };
            let _ = write!(out, "{close}{tail}");
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"problems\": {},", self.problems);
        let _ = writeln!(out, "  \"candidates\": {},", self.candidates);
        let _ = writeln!(out, "  \"dedup_ratio\": \"{}\",", self.dedup_ratio());
        map_block(&mut out, "verdicts", &self.verdicts, false);
        map_block(&mut out, "classes", &self.classes, false);
        map_block(&mut out, "solvers", &self.solvers, false);
        let orbit: Vec<(String, u64)> = self
            .orbit_histogram
            .iter()
            .map(|&(size, n)| (size.to_string(), n))
            .collect();
        map_block(&mut out, "orbit_histogram", &orbit, false);
        let alpha: Vec<(String, u64)> = self
            .per_alphabet
            .iter()
            .map(|&(a, n)| (a.to_string(), n))
            .collect();
        map_block(&mut out, "per_alphabet", &alpha, true);
        out.push_str("}\n");
        out
    }

    /// `problems / candidates` to six decimal places — the fraction of
    /// raw tables that survive the symmetry quotient.
    pub fn dedup_ratio(&self) -> String {
        if self.candidates == 0 {
            return "0.000000".to_string();
        }
        // Fixed-point so the rendering is exact and platform-independent
        // (no float formatting).
        let scaled = u128::from(self.problems) * 1_000_000 / self.candidates;
        format!("{}.{:06}", scaled / 1_000_000, scaled % 1_000_000)
    }
}

/// A typed journal/artifact error with file position.
fn journal_err(path: &Path, lineno: usize, msg: &str) -> AtlasError {
    AtlasError::Journal(format!("{}:{lineno}: {msg}", path.display()))
}

/// Asserts the value is JSON-safe without escaping (the charsets the
/// census writes — keys, plan keys, solver names, class strings — never
/// need escapes; anything else is a bug worth failing loudly on).
fn check_text(s: &str) -> &str {
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

    fn sample_record() -> Record {
        Record {
            key: "atlas-a2-0000000000000beef".to_string(),
            alphabet: 2,
            blocks: 5,
            table: Some("1a2b".to_string()),
            orbit: Some(8),
            plan_key: "atlas-a2-0000000000000beef#0123456789abcdef@k1+t2".to_string(),
            verdict: Verdict::Classified,
            class: Some(GridClass::LogStar),
            solve: "solved:synthesised-tiles".to_string(),
            rounds: Some(7),
            solvable_even: Some(true),
            solvable_odd: Some(false),
            sat: SolverCost {
                decisions: 12,
                propagations: 34,
                conflicts: 1,
                learned: 1,
            },
        }
    }

    #[test]
    fn record_lines_round_trip() {
        let record = sample_record();
        let parsed = Record::parse(&record.to_line()).unwrap();
        assert_eq!(parsed, record);

        // Optional fields drop out and come back as None.
        let mut bare = record;
        bare.table = None;
        bare.orbit = None;
        bare.class = None;
        bare.verdict = Verdict::Timeout;
        bare.rounds = None;
        bare.solvable_even = None;
        bare.solvable_odd = None;
        let line = bare.to_line();
        assert!(!line.contains("\"table\""));
        assert_eq!(Record::parse(&line).unwrap(), bare);
    }

    #[test]
    fn class_presence_is_tied_to_the_verdict() {
        let mut record = sample_record();
        record.class = None;
        assert!(Record::parse(&record.to_line()).is_err());
        record.verdict = Verdict::Timeout;
        record.class = Some(GridClass::Global);
        assert!(Record::parse(&record.to_line()).is_err());
    }

    #[test]
    fn header_lines_round_trip() {
        let header = Header {
            max_alphabet: 3,
            max_blocks: Some(4),
            max_synthesis_k: 1,
            step_budget: 2_000_000,
            even_side: 4,
            odd_side: 3,
            candidates: u128::from(u64::MAX) + 17,
        };
        assert_eq!(Header::parse(&header.to_line()).unwrap(), header);
        let unbounded = Header {
            max_blocks: None,
            ..header
        };
        let line = unbounded.to_line();
        assert!(!line.contains("max_blocks"));
        assert_eq!(Header::parse(&line).unwrap(), unbounded);
    }

    #[test]
    fn atlas_write_sorts_and_round_trips() {
        let header = Header {
            max_alphabet: 2,
            max_blocks: None,
            max_synthesis_k: 1,
            step_budget: 0,
            even_side: 4,
            odd_side: 3,
            candidates: 65538,
        };
        let mut b = sample_record();
        b.key = "atlas-a2-bbbbbbbbbbbbbbbb".to_string();
        let mut a = sample_record();
        a.key = "atlas-a2-aaaaaaaaaaaaaaaa".to_string();
        let atlas = Atlas::from_records(header.clone(), vec![b, a]).unwrap();

        let dir = std::env::temp_dir().join(format!("lcl-atlas-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("census.jsonl");
        atlas.write(&path).unwrap();

        let loaded = Atlas::load(&path).unwrap();
        assert_eq!(loaded.header(), &header);
        assert_eq!(loaded.len(), 2);
        // Sorted on disk regardless of insertion order.
        assert_eq!(loaded.records()[0].key, "atlas-a2-aaaaaaaaaaaaaaaa");
        assert!(loaded.get("atlas-a2-bbbbbbbbbbbbbbbb").is_some());
        assert!(loaded.get("atlas-a2-missing").is_none());

        // Re-writing the loaded atlas is byte-identical.
        let again = dir.join("census2.jsonl");
        loaded.write(&again).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&again).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_keys_are_refused() {
        let header = Header {
            max_alphabet: 2,
            max_blocks: None,
            max_synthesis_k: 1,
            step_budget: 0,
            even_side: 4,
            odd_side: 3,
            candidates: 1,
        };
        let err = Atlas::from_records(header, vec![sample_record(), sample_record()]);
        assert!(matches!(err, Err(AtlasError::Invariant(_))));
    }

    #[test]
    fn summaries_are_deterministic() {
        let header = Header {
            max_alphabet: 2,
            max_blocks: None,
            max_synthesis_k: 1,
            step_budget: 0,
            even_side: 4,
            odd_side: 3,
            candidates: 400,
        };
        let mut timeout = sample_record();
        timeout.key = "atlas-a2-cccccccccccccccc".to_string();
        timeout.verdict = Verdict::Timeout;
        timeout.class = None;
        timeout.solve = "timeout:synthesis".to_string();
        let atlas = Atlas::from_records(header, vec![sample_record(), timeout]).unwrap();
        let summary = atlas.summary();
        assert_eq!(summary.problems, 2);
        assert_eq!(summary.dedup_ratio(), "0.005000");
        let json = summary.to_json();
        assert_eq!(json, atlas.summary().to_json());
        assert!(json.contains("\"classified\": 1"));
        assert!(json.contains("\"timeout\": 1"));
        assert!(json.contains("\"log-star\": 1"));
        assert!(json.ends_with("}\n"));
    }
}
