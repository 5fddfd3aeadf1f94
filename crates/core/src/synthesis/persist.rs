//! Disk persistence for synthesis outcomes.
//!
//! Synthesising `A′` is the expensive step of the §7 pipeline — a CDCL
//! call over every realizable super-tile — while the resulting lookup
//! table is a few kilobytes of flat data. This module serialises a
//! complete synthesis *outcome* (including the negative "no normal form up
//! to this budget" verdict, which is the costliest one to recompute) into
//! a small versioned binary file so the table survives process restarts.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  b"LCLSYN02"  (bump the suffix on layout OR cache-key
//!                                 schema changes; 01 → 02 added the
//!                                 topology tag to engine cache keys)
//! key_len  u32      length of the cache key
//! key      bytes    the content-addressed cache key, verified on load
//! flag     u8       0 = negative outcome, 1 = algorithm follows
//! name_len u32      problem name length          ┐
//! name     bytes    problem name                 │
//! k        u32      anchor spacing               │
//! rows     u32      window rows                  │ only when
//! cols     u32      window cols                  │ flag = 1
//! row_off  u32      window row offset            │
//! col_off  u32      window column offset         │
//! n_tiles  u32      number of table entries      │
//! tiles    n·rows·cols bytes, 0/1 per cell       │
//! labels   n · u16                               ┘
//! checksum u64      FNV-1a over everything above
//! ```
//!
//! Loading is *fail-soft by design*: any anomaly — missing file, bad
//! magic, version mismatch, key mismatch (hash collision), truncation,
//! trailing bytes, out-of-order tiles, checksum mismatch — yields
//! `None`, and the caller silently resynthesises. The trailing checksum
//! covers the whole payload, so even format-preserving corruption (a
//! flipped label byte that would still parse) is detected. A corrupt
//! cache can cost time, never correctness.

use super::synth::SynthesizedAlgorithm;
use super::tiles::{Tile, TileShape};
use crate::lcl::Label;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"LCLSYN02";

/// A stable 64-bit FNV-1a hash: the payload checksum of the cache files,
/// also reused by the engine layer for content-addressed file names and
/// batch dedup keys (`DefaultHasher` has no cross-release stability
/// guarantee, which would silently orphan on-disk entries).
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialises a synthesis outcome under its cache key.
pub fn encode_outcome(key: &str, outcome: &Option<SynthesizedAlgorithm>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_bytes(&mut out, key.as_bytes());
    match outcome {
        None => out.push(0),
        Some(algo) => {
            out.push(1);
            put_bytes(&mut out, algo.problem_name.as_bytes());
            put_u32(&mut out, algo.k as u32);
            put_u32(&mut out, algo.shape.rows as u32);
            put_u32(&mut out, algo.shape.cols as u32);
            put_u32(&mut out, algo.row_off as u32);
            put_u32(&mut out, algo.col_off as u32);
            put_u32(&mut out, algo.tiles.len() as u32);
            for tile in algo.tiles.iter() {
                for r in 0..algo.shape.rows {
                    for c in 0..algo.shape.cols {
                        out.push(tile.get(r, c) as u8);
                    }
                }
            }
            for &label in &algo.labels {
                out.extend_from_slice(&label.to_le_bytes());
            }
        }
    }
    let checksum = fnv1a64(out.iter().copied());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Deserialises a synthesis outcome, verifying the embedded cache key.
/// Returns `None` (resynthesise) on any mismatch or corruption.
pub fn decode_outcome(bytes: &[u8], key: &str) -> Option<Option<SynthesizedAlgorithm>> {
    // Checksum first: it covers the whole payload, so format-preserving
    // corruption (e.g. one flipped label byte) is caught even though every
    // structural check below would pass.
    let payload_len = bytes.len().checked_sub(8)?;
    let (payload, tail) = bytes.split_at(payload_len);
    let stored = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a64(payload.iter().copied()) != stored {
        return None;
    }
    let mut r = Reader(payload);
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.bytes()? != key.as_bytes() {
        return None;
    }
    let outcome = match r.u8()? {
        0 => None,
        1 => {
            let problem_name = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let k = r.u32()? as usize;
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            if k == 0 || rows == 0 || cols == 0 || rows * cols > 1 << 16 {
                return None;
            }
            let shape = TileShape::new(rows, cols);
            let row_off = r.u32()? as usize;
            let col_off = r.u32()? as usize;
            if row_off >= rows || col_off >= cols {
                return None;
            }
            let n = r.u32()? as usize;
            // Bound the claimed table size by the bytes actually present
            // before allocating: a corrupt count field must be a cache
            // miss, never a multi-gigabyte reservation (or an abort).
            if n.checked_mul(rows * cols + 2)? > r.0.len() {
                return None;
            }
            let mut tiles = Vec::with_capacity(n);
            for _ in 0..n {
                let mut tile = Tile::empty(shape);
                for row in 0..rows {
                    for col in 0..cols {
                        match r.u8()? {
                            0 => {}
                            1 => tile.set(row, col, true),
                            _ => return None,
                        }
                    }
                }
                // The table must be strictly sorted — that is what makes
                // the binary-search lookups of `evaluate` correct.
                if let Some(prev) = tiles.last() {
                    if *prev >= tile {
                        return None;
                    }
                }
                tiles.push(tile);
            }
            let mut labels: Vec<Label> = Vec::with_capacity(n);
            for _ in 0..n {
                let b = r.take(2)?;
                labels.push(Label::from_le_bytes([b[0], b[1]]));
            }
            Some(SynthesizedAlgorithm {
                problem_name,
                k,
                shape,
                row_off,
                col_off,
                tiles: tiles.into(),
                labels,
            })
        }
        _ => return None,
    };
    // Trailing garbage is corruption too.
    if !r.0.is_empty() {
        return None;
    }
    Some(outcome)
}

/// Writes a synthesis outcome to `path` (atomically, via a temp file in
/// the same directory). Best-effort: callers treat failures as "no cache".
pub fn save_outcome(
    path: &Path,
    key: &str,
    outcome: &Option<SynthesizedAlgorithm>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let bytes = encode_outcome(key, outcome);
    let mut f = fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    let renamed = fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

/// Reads a synthesis outcome back from `path`. `None` means "treat as a
/// cache miss" — missing, unreadable, corrupt, or written for another key.
pub fn load_outcome(path: &Path, key: &str) -> Option<Option<SynthesizedAlgorithm>> {
    let bytes = fs::read(path).ok()?;
    decode_outcome(&bytes, key)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor over the encoded bytes.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        // Length sanity before allocating or slicing.
        if len > self.0.len() {
            return None;
        }
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{self, XSet};
    use crate::synthesis::synthesize_auto;

    fn sample() -> SynthesizedAlgorithm {
        let p = problems::orientation(XSet::from_degrees(&[1, 3, 4]));
        synthesize_auto(&p, 1).expect("Lemma 23: k=1 suffices")
    }

    #[test]
    fn positive_outcome_roundtrips() {
        let algo = sample();
        let bytes = encode_outcome("key-1", &Some(algo.clone()));
        let back = decode_outcome(&bytes, "key-1")
            .expect("decodes")
            .expect("positive");
        assert_eq!(back.k(), algo.k());
        assert_eq!(back.shape(), algo.shape());
        assert_eq!(back.table_len(), algo.table_len());
        assert_eq!(back.problem_name(), algo.problem_name());
        assert_eq!(back.tiles, algo.tiles);
        assert_eq!(back.labels, algo.labels);
    }

    #[test]
    fn negative_outcome_roundtrips() {
        let bytes = encode_outcome("global-problem@k2", &None);
        assert!(matches!(
            decode_outcome(&bytes, "global-problem@k2"),
            Some(None)
        ));
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let bytes = encode_outcome("key-a", &Some(sample()));
        assert!(decode_outcome(&bytes, "key-b").is_none());
    }

    /// Recomputes the trailing checksum after a deliberate mutation, so a
    /// test can reach the structural checks behind it.
    fn refresh_checksum(bytes: &mut [u8]) {
        let payload_len = bytes.len() - 8;
        let checksum = fnv1a64(bytes[..payload_len].iter().copied());
        bytes[payload_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn corruption_is_a_miss() {
        let mut bytes = encode_outcome("key", &Some(sample()));
        // Truncation.
        assert!(decode_outcome(&bytes[..bytes.len() - 3], "key").is_none());
        // Trailing garbage.
        bytes.push(7);
        assert!(decode_outcome(&bytes, "key").is_none());
        bytes.pop();
        // Format-preserving corruption: flip one label byte (the labels
        // sit right before the checksum); every structural check would
        // still pass, so only the checksum can catch it.
        let mut label = bytes.clone();
        let idx = label.len() - 9;
        label[idx] ^= 0x01;
        assert!(decode_outcome(&label, "key").is_none());
        // The remaining cases recompute the checksum so the structural
        // checks behind it are exercised too.
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        refresh_checksum(&mut bad);
        assert!(decode_outcome(&bad, "key").is_none());
        // A cell byte that is neither 0 nor 1 (the first tile byte sits
        // right after the fixed header and the two length-prefixed
        // strings).
        let header = MAGIC.len() + 4 + 3 + 1 + (4 + sample().problem_name().len()) + 6 * 4;
        let mut cell = bytes.clone();
        cell[header] = 0xee;
        refresh_checksum(&mut cell);
        assert!(decode_outcome(&cell, "key").is_none());
        // A corrupt tile count claiming far more entries than the file
        // holds must be rejected *before* any allocation is sized by it.
        let count_at = header - 4;
        let mut huge = bytes.clone();
        huge[count_at..header].copy_from_slice(&u32::MAX.to_le_bytes());
        refresh_checksum(&mut huge);
        assert!(decode_outcome(&huge, "key").is_none());
    }

    #[test]
    fn old_format_version_is_a_miss() {
        // A file written by a previous release (version tag 01) must be a
        // clean cache miss — the caller silently resynthesises over it —
        // even when the rest of the payload is intact and the checksum is
        // valid for those bytes.
        let mut bytes = encode_outcome("key", &Some(sample()));
        bytes[..8].copy_from_slice(b"LCLSYN01");
        refresh_checksum(&mut bytes);
        assert!(decode_outcome(&bytes, "key").is_none());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("lcl-synth-test-{}", std::process::id()));
        let path = dir.join("sample.synth");
        let algo = sample();
        save_outcome(&path, "k", &Some(algo.clone())).unwrap();
        let back = load_outcome(&path, "k").expect("hit").expect("positive");
        assert_eq!(back.table_len(), algo.table_len());
        assert!(load_outcome(&dir.join("absent.synth"), "k").is_none());
        std::fs::write(&path, b"garbage").unwrap();
        assert!(load_outcome(&path, "k").is_none(), "corrupt file is a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
