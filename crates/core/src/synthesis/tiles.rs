//! Tile enumeration (Appendix A.1).
//!
//! A *tile* is the restriction of a maximal independent set of the grid
//! power `G^(k)` to a `rows × cols` window. The synthesis CSP is posed
//! over the finite set of tiles, so the enumeration must be *exact*: every
//! pattern that occurs in some MIS, and nothing else.
//!
//! Exact realizability criterion (DESIGN.md §3.2): a candidate pattern `T`
//! occurs in an MIS of a sufficiently large torus iff there is an anchor
//! assignment to the width-`k` frame around `T` such that (i) all anchors
//! in `T ∪ frame` are pairwise at L1 distance `> k`, and (ii) every cell
//! of `T` is within distance `k` of some anchor. The frame CSP is decided
//! with the CDCL solver.
//!
//! §7 calibration: for `k = 1` there are exactly **16** tiles of shape
//! 3×2 (the paper lists them), and for `k = 3` there are exactly **2079**
//! tiles of shape 7×5.
//!
//! A tile set depends only on `(k, shape)`, never on the LCL, so the
//! synthesiser reads it through `tile_table`, a process-wide memo;
//! [`enumerate_tiles`] stays the uncached reference.

use lcl_sat::{Lit, SolveOutcome, Solver};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The shape of a tile window: `rows × cols` (rows run south → north).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Number of rows (`r1` in §7).
    pub rows: usize,
    /// Number of columns (`r2` in §7).
    pub cols: usize,
}

impl TileShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> TileShape {
        assert!(rows > 0 && cols > 0);
        TileShape { rows, cols }
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for TileShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}", self.rows, self.cols)
    }
}

/// An anchor pattern on a `rows × cols` window. Bit `(r, c)` is true iff
/// the cell in row `r` (south-based), column `c` holds an anchor.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    rows: usize,
    cols: usize,
    bits: Vec<bool>,
}

impl Tile {
    /// Creates an empty (all-zero) tile.
    pub fn empty(shape: TileShape) -> Tile {
        Tile {
            rows: shape.rows,
            cols: shape.cols,
            bits: vec![false; shape.cells()],
        }
    }

    /// Creates a tile from rows given **north first** (the way tiles are
    /// drawn in the paper), each row a string of `0`/`1`.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or characters other than `0`/`1`.
    pub fn parse(drawing: &[&str]) -> Tile {
        let rows = drawing.len();
        assert!(rows > 0);
        let cols = drawing[0].len();
        let mut tile = Tile::empty(TileShape::new(rows, cols));
        for (i, line) in drawing.iter().enumerate() {
            assert_eq!(line.len(), cols, "ragged tile drawing");
            let r = rows - 1 - i; // north-first drawing → south-based rows
            for (c, ch) in line.chars().enumerate() {
                match ch {
                    '0' => {}
                    '1' => tile.set(r, c, true),
                    _ => panic!("tile drawings use only 0/1"),
                }
            }
        }
        tile
    }

    /// The tile's shape.
    pub fn shape(&self) -> TileShape {
        TileShape::new(self.rows, self.cols)
    }

    /// The bit at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.cols + col]
    }

    /// Sets the bit at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        self.bits[row * self.cols + col] = value;
    }

    /// The positions of all anchors.
    pub fn ones(&self) -> Vec<(usize, usize)> {
        (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| (r, c)))
            .filter(|&(r, c)| self.get(r, c))
            .collect()
    }

    /// The `rows × cols` sub-tile whose south-west corner is at
    /// `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the sub-window exceeds the tile.
    pub fn subtile(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Tile {
        assert!(row0 + rows <= self.rows && col0 + cols <= self.cols);
        let mut t = Tile::empty(TileShape::new(rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                t.set(r, c, self.get(row0 + r, col0 + c));
            }
        }
        t
    }
}

impl fmt::Display for Tile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in (0..self.rows).rev() {
            for c in 0..self.cols {
                write!(f, "{}", if self.get(r, c) { '1' } else { '0' })?;
            }
            if r > 0 {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Enumerates all realizable tiles of the given shape for anchor spacing
/// `k` (MIS of `G^(k)`, L1 metric), in a deterministic canonical order.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn enumerate_tiles(k: usize, shape: TileShape) -> Vec<Tile> {
    assert!(k > 0);
    let mut out = Vec::new();
    let mut tile = Tile::empty(shape);
    let mut ones: Vec<(usize, usize)> = Vec::new();
    backtrack(k, shape, &mut tile, 0, &mut ones, &mut out);
    out.sort();
    out
}

/// Recursive candidate generation with independence pruning; candidates
/// are checked for realizability before being emitted.
fn backtrack(
    k: usize,
    shape: TileShape,
    tile: &mut Tile,
    cell: usize,
    ones: &mut Vec<(usize, usize)>,
    out: &mut Vec<Tile>,
) {
    if cell == shape.cells() {
        if realizable(k, tile) {
            out.push(tile.clone());
        }
        return;
    }
    let (r, c) = (cell / shape.cols, cell % shape.cols);
    // Option 1: leave the cell empty.
    backtrack(k, shape, tile, cell + 1, ones, out);
    // Option 2: place an anchor, if independent from previous anchors.
    let independent = ones
        .iter()
        .all(|&(pr, pc)| pr.abs_diff(r) + pc.abs_diff(c) > k);
    if independent {
        tile.set(r, c, true);
        ones.push((r, c));
        backtrack(k, shape, tile, cell + 1, ones, out);
        ones.pop();
        tile.set(r, c, false);
    }
}

/// Decides whether `tile` occurs as a window of some MIS of `G^(k)`, via
/// the frame CSP (see module docs). Exposed for tests and diagnostics.
pub fn realizable(k: usize, tile: &Tile) -> bool {
    let rows = tile.rows as i64;
    let cols = tile.cols as i64;
    let ki = k as i64;
    let ones: Vec<(i64, i64)> = tile
        .ones()
        .into_iter()
        .map(|(r, c)| (r as i64, c as i64))
        .collect();
    let dist = |a: (i64, i64), b: (i64, i64)| ((a.0 - b.0).abs() + (a.1 - b.1).abs()) as usize;

    // In-tile independence (the enumerator prunes this before calling,
    // but arbitrary callers may not).
    for (i, &a) in ones.iter().enumerate() {
        for &b in &ones[i + 1..] {
            if dist(a, b) <= k {
                return false;
            }
        }
    }

    // Free frame cells: in the width-k frame, not blocked by a tile anchor.
    let mut free: Vec<(i64, i64)> = Vec::new();
    for r in -ki..rows + ki {
        for c in -ki..cols + ki {
            let in_tile = r >= 0 && r < rows && c >= 0 && c < cols;
            if in_tile {
                continue;
            }
            if ones.iter().all(|&o| dist(o, (r, c)) > k) {
                free.push((r, c));
            }
        }
    }

    let mut solver = Solver::new();
    let vars = solver.new_vars(free.len());
    // Pairwise independence among free frame cells.
    for i in 0..free.len() {
        for j in i + 1..free.len() {
            if dist(free[i], free[j]) <= k {
                solver.add_clause([Lit::neg(vars[i]), Lit::neg(vars[j])]);
            }
        }
    }
    // Domination of every tile cell.
    for r in 0..rows {
        for c in 0..cols {
            if ones.iter().any(|&o| dist(o, (r, c)) <= k) {
                continue; // dominated inside the tile
            }
            let witnesses: Vec<Lit> = free
                .iter()
                .enumerate()
                .filter(|&(_, &f)| dist(f, (r, c)) <= k)
                .map(|(i, _)| Lit::pos(vars[i]))
                .collect();
            if witnesses.is_empty() {
                return false; // undominatable cell
            }
            solver.add_clause(witnesses);
        }
    }
    matches!(solver.solve(), SolveOutcome::Sat(_))
}

/// The memoised tiles of one `(k, shape)` plus index lists over its
/// super-windows, each built on first use (single-flight per cell). The
/// super-window tiles themselves are dropped once indexed. Nothing is
/// evicted: for the life of the process a table retains its window
/// tiles, 16 bytes per full super-tile once `corners` is built, and 8
/// bytes per east and per north super-tile once `pairs` is. The worst
/// case at the default `max_synthesis_k = 3` is the 7×7 window: 328,652
/// 8×8 super-tiles, about 5.3 MB of corners.
pub(crate) struct TileTable {
    k: usize,
    shape: TileShape,
    tiles: OnceLock<Arc<[Tile]>>,
    corners: OnceLock<Box<[[u32; 4]]>>,
    pairs: OnceLock<[Box<[[u32; 2]]>; 2]>,
}

/// Every table built so far, keyed by `(k, rows, cols)`. The lock is held
/// only to fetch a table; enumeration runs outside it. The one update,
/// inserting an empty table, cannot leave the map half-written, so a
/// poisoned lock is safe to recover.
static TABLES: Mutex<BTreeMap<(usize, usize, usize), Arc<TileTable>>> = Mutex::new(BTreeMap::new());

/// The process-wide tile table of `(k, shape)`.
pub(crate) fn tile_table(k: usize, shape: TileShape) -> Arc<TileTable> {
    let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    let table = tables
        .entry((k, shape.rows, shape.cols))
        .or_insert_with(|| {
            Arc::new(TileTable {
                k,
                shape,
                tiles: OnceLock::new(),
                corners: OnceLock::new(),
                pairs: OnceLock::new(),
            })
        });
    Arc::clone(table)
}

impl TileTable {
    /// The realizable tiles in canonical order ([`enumerate_tiles`]).
    pub(crate) fn tiles(&self) -> &Arc<[Tile]> {
        self.tiles
            .get_or_init(|| enumerate_tiles(self.k, self.shape).into())
    }

    /// Corner tiles `[sw, se, nw, ne]` of every super-tile one row and one
    /// column larger, in super-tile order.
    pub(crate) fn corners(&self) -> &[[u32; 4]] {
        self.corners
            .get_or_init(|| self.sub_indices((1, 1), [(0, 0), (0, 1), (1, 0), (1, 1)]))
    }

    /// East pairs `[west, east]` of every super-tile one column wider,
    /// then north pairs `[south, north]` of every super-tile one row
    /// taller, each in super-tile order.
    pub(crate) fn pairs(&self) -> &[Box<[[u32; 2]]>; 2] {
        self.pairs.get_or_init(|| {
            [
                self.sub_indices((0, 1), [(0, 0), (0, 1)]),
                self.sub_indices((1, 0), [(0, 0), (1, 0)]),
            ]
        })
    }

    /// Enumerates the super-window `grow` larger and records, per
    /// super-tile, the table index of the window at each offset.
    fn sub_indices<const N: usize>(
        &self,
        grow: (usize, usize),
        offsets: [(usize, usize); N],
    ) -> Box<[[u32; N]]> {
        let (rows, cols) = (self.shape.rows, self.shape.cols);
        let tiles = self.tiles();
        enumerate_tiles(self.k, TileShape::new(rows + grow.0, cols + grow.1))
            .iter()
            .map(|sup| {
                offsets.map(|(r0, c0)| {
                    let i = tiles
                        .binary_search(&sup.subtile(r0, c0, rows, cols))
                        .expect("sub-tile of a realizable tile is realizable (hereditary)");
                    u32::try_from(i).expect("a tile table holds fewer than 2^32 tiles")
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §7 calibration: the paper lists exactly these sixteen 3×2 tiles for
    /// k = 1.
    #[test]
    fn paper_16_tiles_for_k1() {
        let tiles = enumerate_tiles(1, TileShape::new(3, 2));
        assert_eq!(tiles.len(), 16, "§7 lists 16 tiles for k=1, 3×2");
        // Spot-check: the all-zero tile is NOT realizable (its centre
        // column cannot be dominated consistently), and the first listed
        // tile is.
        let zero = Tile::empty(TileShape::new(3, 2));
        assert!(!tiles.contains(&zero));
        let listed = Tile::parse(&["00", "00", "10"]);
        assert!(tiles.contains(&listed));
    }

    /// Every one of the sixteen tiles drawn in §7 is found, and nothing
    /// else.
    #[test]
    fn paper_16_tiles_exact_set() {
        let drawings: [[&str; 3]; 16] = [
            ["00", "00", "10"],
            ["00", "00", "01"],
            ["00", "10", "00"],
            ["00", "10", "01"],
            ["00", "01", "00"],
            ["00", "01", "10"],
            ["10", "00", "00"],
            ["10", "00", "10"],
            ["10", "00", "01"],
            ["10", "01", "00"],
            ["10", "01", "10"],
            ["01", "00", "00"],
            ["01", "00", "10"],
            ["01", "00", "01"],
            ["01", "10", "00"],
            ["01", "10", "01"],
        ];
        let mut expected: Vec<Tile> = drawings.iter().map(|d| Tile::parse(d)).collect();
        expected.sort();
        expected.dedup();
        assert_eq!(expected.len(), 16, "the paper's list has 16 distinct tiles");
        let got = enumerate_tiles(1, TileShape::new(3, 2));
        assert_eq!(got, expected);
    }

    #[test]
    fn three_by_three_tile_from_paper_is_realizable() {
        // §7 shows the 3×3 tile 000/010/100 inducing a horizontal edge.
        let t = Tile::parse(&["000", "010", "100"]);
        assert!(realizable(1, &t));
    }

    #[test]
    fn independence_violations_are_never_emitted() {
        for k in 1..=2 {
            for t in enumerate_tiles(k, TileShape::new(3, 3)) {
                let ones = t.ones();
                for (i, &a) in ones.iter().enumerate() {
                    for &b in &ones[i + 1..] {
                        assert!(a.0.abs_diff(b.0) + a.1.abs_diff(b.1) > k);
                    }
                }
            }
        }
    }

    #[test]
    fn hereditary_property() {
        // Every sub-tile of a realizable tile is realizable (A.1).
        let tiles = enumerate_tiles(2, TileShape::new(4, 3));
        let smaller = enumerate_tiles(2, TileShape::new(3, 3));
        for t in &tiles {
            for r0 in 0..=1 {
                let sub = t.subtile(r0, 0, 3, 3);
                assert!(
                    smaller.contains(&sub),
                    "sub-tile of a realizable tile must be realizable"
                );
            }
        }
    }

    #[test]
    fn single_cell_tiles() {
        // 1×1 windows: both "anchor" and "no anchor" occur in MIS.
        let tiles = enumerate_tiles(1, TileShape::new(1, 1));
        assert_eq!(tiles.len(), 2);
    }

    #[test]
    fn parse_display_roundtrip() {
        let t = Tile::parse(&["010", "000", "100"]);
        assert_eq!(t.to_string(), "010\n000\n100");
        assert!(t.get(0, 0)); // south-west corner
        assert!(t.get(2, 1)); // north row, middle column
    }

    /// The window shapes `synthesize_auto` tries at `k`, each followed by
    /// its three super-window shapes.
    fn auto_shapes(k: usize) -> Vec<TileShape> {
        [(2 * k - 1).max(2), 2 * k + 1]
            .into_iter()
            .flat_map(|cols| {
                let rows = 2 * k + 1;
                [(0, 0), (0, 1), (1, 0), (1, 1)]
                    .map(|(dr, dc)| TileShape::new(rows + dr, cols + dc))
            })
            .collect()
    }

    #[test]
    fn memoised_tiles_equal_enumeration() {
        let shapes = (1..=2)
            .flat_map(|k| auto_shapes(k).into_iter().map(move |s| (k, s)))
            .chain([(3, TileShape::new(7, 5))]);
        for (k, shape) in shapes {
            let table = tile_table(k, shape);
            assert_eq!(**table.tiles(), *enumerate_tiles(k, shape), "k={k} {shape}");
        }
    }

    /// The index lists equal the per-super-tile `subtile` + binary-search
    /// derivation they replace, element by element and in order.
    #[test]
    fn index_lists_match_subtile_derivation() {
        for k in 1..=2 {
            for shape in auto_shapes(k).into_iter().step_by(4) {
                let (rows, cols) = (shape.rows, shape.cols);
                let table = tile_table(k, shape);
                let tiles = enumerate_tiles(k, shape);
                let index = |sup: &Tile, r0, c0| {
                    tiles
                        .binary_search(&sup.subtile(r0, c0, rows, cols))
                        .unwrap() as u32
                };
                let derive = |dr, dc, offsets: &[(usize, usize)]| -> Vec<Vec<u32>> {
                    enumerate_tiles(k, TileShape::new(rows + dr, cols + dc))
                        .iter()
                        .map(|sup| offsets.iter().map(|&(r0, c0)| index(sup, r0, c0)).collect())
                        .collect()
                };
                let corners: Vec<Vec<u32>> = table.corners().iter().map(|c| c.to_vec()).collect();
                let [east, north] = table
                    .pairs()
                    .each_ref()
                    .map(|list| list.iter().map(|p| p.to_vec()).collect::<Vec<Vec<u32>>>());
                assert_eq!(corners, derive(1, 1, &[(0, 0), (0, 1), (1, 0), (1, 1)]));
                assert_eq!(east, derive(0, 1, &[(0, 0), (0, 1)]));
                assert_eq!(north, derive(1, 0, &[(0, 0), (1, 0)]));
            }
        }
    }

    #[test]
    fn concurrent_requests_share_one_table() {
        // A shape no other test uses, so all four threads race to build it.
        let shape = TileShape::new(2, 4);
        let start = std::sync::Barrier::new(4);
        let tables: Vec<Arc<TileTable>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let table = tile_table(1, shape);
                        table.corners();
                        table
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for table in &tables[1..] {
            assert!(Arc::ptr_eq(table, &tables[0]));
            assert!(Arc::ptr_eq(table.tiles(), tables[0].tiles()));
        }
    }

    #[test]
    fn subtile_extracts_correct_window() {
        let t = Tile::parse(&["0001", "0100", "1000"]);
        let sub = t.subtile(1, 1, 2, 3);
        // Rows 1..3, cols 1..4 of t: north row "001", south row "100".
        assert_eq!(sub, Tile::parse(&["001", "100"]));
    }
}
