//! The engine's census lookup table: answering `classify` from the
//! `lcl-atlas` artifact instead of the SAT synthesiser.
//!
//! An [`AtlasTable`] is a read-only index of a census artifact
//! (`fixtures/atlas/census-a*.jsonl`, written by the `atlas` bin — see
//! DESIGN.md §13). Arm an engine with one via
//! [`EngineBuilder::atlas`](super::EngineBuilder::atlas) and every
//! `prepare` canonicalises the spec's block table (label permutations,
//! transpose/reflection symmetries, dead-label pruning — the same
//! equivalence the census enumerator quotients by) and looks the
//! canonical form up by its census name. On a hit the prepared handle's
//! classification is seeded from the census — [`PreparedProblem::classify`]
//! (super::PreparedProblem::classify) answers without running synthesis —
//! and every solve report carries an `atlas` provenance detail naming
//! the census entry.
//!
//! ## Soundness of seeded verdicts
//!
//! `Constant` and `LogStar` census verdicts are certificates (a constant
//! solution, a synthesised algorithm) and transfer to any engine
//! configuration. A `Global` verdict is *relative to the census
//! synthesis budget* `k`: it asserts that synthesis failed for every
//! anchor spacing up to the census `max_synthesis_k`. It is therefore
//! seeded only into engines whose own `max_synthesis_k` is at most the
//! census one — a deeper engine could legitimately find a `log*`
//! algorithm the census missed, and must be allowed to try. `timeout`
//! and `unsolvable` census verdicts never seed a classification
//! (`unsolvable` problems still classify as `Global`, but the engine
//! re-derives that cheaply and keeps its richer typed error surface).

use super::spec::ProblemSpec;
use lcl_core::canonical;
use lcl_core::census::{Header, Record};
use lcl_core::classify::GridClass;
use std::collections::HashMap;
use std::io::{self, BufRead};
use std::path::Path;

/// One census entry, as much of the artifact record as the engine needs.
#[derive(Clone, Debug)]
pub struct AtlasEntry {
    /// Census verdict: `classified`, `unsolvable`, or `timeout`.
    pub verdict: String,
    /// The classification, when the verdict is `classified`.
    pub class: Option<GridClass>,
}

/// The classification seed for one prepared problem: which census entry
/// matched and the class it pins.
#[derive(Clone, Debug)]
pub struct AtlasSeed {
    /// The census name of the problem's canonical form
    /// (`atlas-a{alphabet}-{hash:016x}`).
    pub name: String,
    /// The census classification.
    pub class: GridClass,
}

/// A read-only census lookup table, loaded from an `lcl-atlas` artifact.
#[derive(Debug)]
pub struct AtlasTable {
    /// The census synthesis budget (`max_synthesis_k` of the run that
    /// produced the artifact); bounds which engines may inherit `Global`
    /// verdicts.
    census_k: usize,
    entries: HashMap<String, AtlasEntry>,
}

impl AtlasTable {
    /// Loads a census artifact (JSON-lines: one header object, then one
    /// record per canonical problem, as written by the `atlas` bin),
    /// through the same [`lcl_core::census`] reader `lcl-atlas` uses.
    /// Malformed input — including a header of another format version —
    /// is an [`io::ErrorKind::InvalidData`] error naming the offending
    /// line.
    pub fn load(path: impl AsRef<Path>) -> io::Result<AtlasTable> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        let mut lines = io::BufReader::new(file).lines();
        let header = lines
            .next()
            .transpose()?
            .ok_or_else(|| invalid(path, 1, "empty artifact (missing header line)"))?;
        let header = Header::parse(&header).map_err(|e| invalid(path, 1, &e))?;
        let mut entries = HashMap::new();
        for (idx, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let record = Record::parse(&line).map_err(|e| invalid(path, idx + 2, &e))?;
            let entry = AtlasEntry {
                verdict: record.verdict.as_str().to_string(),
                class: record.class,
            };
            entries.insert(record.key, entry);
        }
        Ok(AtlasTable {
            census_k: header.max_synthesis_k as usize,
            entries,
        })
    }

    /// Builds a table from parts — the in-process path used by tests and
    /// by `lcl-atlas` itself (census → table without a round-trip
    /// through disk).
    pub fn from_entries(
        census_k: usize,
        entries: impl IntoIterator<Item = (String, AtlasEntry)>,
    ) -> AtlasTable {
        AtlasTable {
            census_k,
            entries: entries.into_iter().collect(),
        }
    }

    /// The census synthesis budget recorded in the artifact header.
    pub fn census_k(&self) -> usize {
        self.census_k
    }

    /// Number of census entries loaded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks an entry up by its census name.
    pub fn get(&self, key: &str) -> Option<&AtlasEntry> {
        self.entries.get(key)
    }

    /// The census name of a spec's canonical form, when its block table
    /// canonicalises (at most [`canonical::MAX_ALPHABET`] live labels).
    pub fn census_name(spec: &ProblemSpec) -> Option<String> {
        canonical::census_name(&spec.to_block_lcl()?)
    }

    /// The classification seed for a spec under an engine with synthesis
    /// budget `engine_k`: canonicalise, look up, and apply the soundness
    /// gate (`Global` only transfers to engines with `engine_k ≤` the
    /// census `k`; see the module docs).
    pub fn seed_for(&self, spec: &ProblemSpec, engine_k: usize) -> Option<AtlasSeed> {
        let name = AtlasTable::census_name(spec)?;
        let entry = self.entries.get(&name)?;
        let class = entry.class.clone()?;
        if class == GridClass::Global && engine_k > self.census_k {
            return None;
        }
        Some(AtlasSeed { name, class })
    }
}

fn invalid(path: &Path, lineno: usize, message: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}:{lineno}: {message}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_verdicts_respect_the_k_gate() {
        let spec = ProblemSpec::vertex_colouring(2);
        let name = AtlasTable::census_name(&spec).expect("2-colouring canonicalises");
        let table = AtlasTable::from_entries(
            1,
            [(
                name.clone(),
                AtlasEntry {
                    verdict: "classified".to_string(),
                    class: Some(GridClass::Global),
                },
            )],
        );
        assert!(table.seed_for(&spec, 1).is_some(), "k within census budget");
        assert!(
            table.seed_for(&spec, 3).is_none(),
            "deeper engine must re-derive Global itself"
        );
    }
}
