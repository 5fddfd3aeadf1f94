//! The 2-dimensional toroidal grid `G_n` of §3.

use crate::Dir4;
use std::fmt;

/// Which metric a graph power is taken in.
///
/// The paper uses `G^(k)` for the L1 (graph-distance) power (§3, "Notation")
/// and `G^[k]` for the L∞ power (§8, Definition 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Graph distance on the grid: `‖u − v‖₁` with toroidal coordinates.
    L1,
    /// Chebyshev distance: `‖u − v‖∞` with toroidal coordinates.
    Linf,
}

/// A node position on a toroidal grid, identified by its coordinates.
///
/// Positions are *always* interpreted relative to a [`Torus2`], which wraps
/// coordinates modulo the side lengths. The nodes of the paper's grids do
/// not know their own coordinates; positions exist only on the simulation
/// side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pos {
    /// Column (easting).
    pub x: usize,
    /// Row (northing).
    pub y: usize,
}

impl Pos {
    /// Creates a position from raw coordinates.
    #[inline]
    pub fn new(x: usize, y: usize) -> Pos {
        Pos { x, y }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A toroidal 2-dimensional grid with a consistent orientation.
///
/// Nodes are the pairs `(x, y)` with `0 ≤ x < width`, `0 ≤ y < height`; two
/// nodes are adjacent iff their toroidal L1 distance is 1. The paper's
/// instances are square (`n × n`); rectangular tori are supported because
/// several internal constructions (tile frames, strips) need them.
///
/// # Example
///
/// ```
/// use lcl_grid::{Torus2, Pos};
/// let t = Torus2::square(4);
/// assert_eq!(t.node_count(), 16);
/// assert_eq!(t.l1(Pos::new(0, 0), Pos::new(3, 3)), 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Torus2 {
    width: usize,
    height: usize,
}

impl Torus2 {
    /// Creates an `n × n` torus.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn square(n: usize) -> Torus2 {
        Torus2::rect(n, n)
    }

    /// Creates a `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either side is zero.
    pub fn rect(width: usize, height: usize) -> Torus2 {
        assert!(width > 0 && height > 0, "torus sides must be positive");
        Torus2 { width, height }
    }

    /// Grid width (number of columns).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (number of rows).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Side length of a square torus.
    ///
    /// # Panics
    ///
    /// Panics if the torus is not square.
    #[inline]
    pub fn side(&self) -> usize {
        assert_eq!(self.width, self.height, "torus is not square");
        self.width
    }

    /// Total number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.width * self.height
    }

    /// Dense index of a position: `y * width + x`.
    #[inline]
    pub fn index(&self, p: Pos) -> usize {
        debug_assert!(p.x < self.width && p.y < self.height);
        p.y * self.width + p.x
    }

    /// Inverse of [`Torus2::index`].
    #[inline]
    pub fn pos(&self, index: usize) -> Pos {
        debug_assert!(index < self.node_count());
        Pos::new(index % self.width, index / self.width)
    }

    /// Iterates over all positions in index order.
    pub fn positions(&self) -> impl Iterator<Item = Pos> + '_ {
        (0..self.node_count()).map(move |i| self.pos(i))
    }

    /// The position reached from `p` by the (possibly negative) offset
    /// `(dx, dy)`, wrapping around both dimensions.
    #[inline]
    pub fn offset(&self, p: Pos, dx: i64, dy: i64) -> Pos {
        let w = self.width as i64;
        let h = self.height as i64;
        let x = (p.x as i64 + dx).rem_euclid(w) as usize;
        let y = (p.y as i64 + dy).rem_euclid(h) as usize;
        Pos::new(x, y)
    }

    /// One step in direction `d`.
    #[inline]
    pub fn step(&self, p: Pos, d: Dir4) -> Pos {
        let (dx, dy) = d.offset();
        self.offset(p, dx, dy)
    }

    /// Toroidal norm of a 1-dimensional coordinate difference:
    /// `‖x‖ = min(x mod n, n − x mod n)` (§8, "Preliminaries").
    #[inline]
    pub fn norm1d(&self, diff: i64, side: usize) -> usize {
        let n = side as i64;
        let m = diff.rem_euclid(n);
        m.min(n - m) as usize
    }

    /// Toroidal L1 distance between two nodes (= graph distance).
    #[inline]
    pub fn l1(&self, a: Pos, b: Pos) -> usize {
        self.norm1d(a.x as i64 - b.x as i64, self.width)
            + self.norm1d(a.y as i64 - b.y as i64, self.height)
    }

    /// Toroidal L∞ distance between two nodes.
    #[inline]
    pub fn linf(&self, a: Pos, b: Pos) -> usize {
        self.norm1d(a.x as i64 - b.x as i64, self.width)
            .max(self.norm1d(a.y as i64 - b.y as i64, self.height))
    }

    /// Distance in the given metric.
    #[inline]
    pub fn dist(&self, metric: Metric, a: Pos, b: Pos) -> usize {
        match metric {
            Metric::L1 => self.l1(a, b),
            Metric::Linf => self.linf(a, b),
        }
    }

    /// The four grid neighbours of `p`, in N, E, S, W order.
    #[inline]
    pub fn neighbours4(&self, p: Pos) -> [Pos; 4] {
        [
            self.step(p, Dir4::North),
            self.step(p, Dir4::East),
            self.step(p, Dir4::South),
            self.step(p, Dir4::West),
        ]
    }

    /// All *offsets* `(dx, dy)` with `0 < |dx| + |dy| ≤ k` — the punctured
    /// radius-`k` L1 ball. Offsets are clipped to be distinct on this torus
    /// (relevant when `2k + 1` exceeds a side length).
    pub fn ball_offsets(&self, metric: Metric, k: usize) -> Vec<(i64, i64)> {
        let k = k as i64;
        let mut out = Vec::new();
        // Enumerate canonical representatives so each *node* of the ball
        // appears exactly once even when the ball wraps around the torus.
        let w = self.width as i64;
        let h = self.height as i64;
        let xr = half_range(k, w);
        let yr = half_range(k, h);
        for dy in -yr.0..=yr.1 {
            for dx in -xr.0..=xr.1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let d = match metric {
                    Metric::L1 => self.norm1d(dx, self.width) + self.norm1d(dy, self.height),
                    Metric::Linf => self
                        .norm1d(dx, self.width)
                        .max(self.norm1d(dy, self.height)),
                };
                if d as i64 <= k {
                    out.push((dx, dy));
                }
            }
        }
        out
    }

    /// The nodes at distance `1..=k` from `p` in the given metric.
    pub fn ball(&self, metric: Metric, p: Pos, k: usize) -> Vec<Pos> {
        self.ball_offsets(metric, k)
            .into_iter()
            .map(|(dx, dy)| self.offset(p, dx, dy))
            .collect()
    }

    /// Checks that a set of marked nodes is an independent set of the
    /// `metric`-power `G^k`: no two marked nodes at distance `≤ k`.
    pub fn is_independent(&self, metric: Metric, k: usize, marked: &[bool]) -> bool {
        assert_eq!(marked.len(), self.node_count());
        let offsets = self.ball_offsets(metric, k);
        (0..marked.len())
            .filter(|&i| marked[i])
            .all(|i| !self.ball_hits(&offsets, self.pos(i), marked))
    }

    /// Checks that a set of marked nodes is a *maximal* independent set of
    /// the `metric`-power `G^k`: independent, and every unmarked node has a
    /// marked node within distance `k`.
    pub fn is_maximal_independent(&self, metric: Metric, k: usize, marked: &[bool]) -> bool {
        assert_eq!(marked.len(), self.node_count());
        // Marked nodes see no marked node in their ball; unmarked ones do.
        let offsets = self.ball_offsets(metric, k);
        (0..marked.len()).all(|i| self.ball_hits(&offsets, self.pos(i), marked) != marked[i])
    }

    /// True iff some node at one of `offsets` from `p` is marked.
    fn ball_hits(&self, offsets: &[(i64, i64)], p: Pos, marked: &[bool]) -> bool {
        offsets
            .iter()
            .any(|&(dx, dy)| marked[self.index(self.offset(p, dx, dy))])
    }
}

/// Largest symmetric range `(neg, pos)` of offsets that stay distinct on a
/// side of length `n` while covering radius `k`.
fn half_range(k: i64, n: i64) -> (i64, i64) {
    if 2 * k < n {
        (k, k)
    } else {
        // The whole side is covered; use one canonical representative per
        // node: offsets in [-(n-1)/2, n/2].
        ((n - 1) / 2, n / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let t = Torus2::rect(5, 3);
        for i in 0..t.node_count() {
            assert_eq!(t.index(t.pos(i)), i);
        }
    }

    #[test]
    fn wrapping_steps() {
        let t = Torus2::square(4);
        assert_eq!(t.step(Pos::new(3, 0), Dir4::East), Pos::new(0, 0));
        assert_eq!(t.step(Pos::new(0, 0), Dir4::West), Pos::new(3, 0));
        assert_eq!(t.step(Pos::new(0, 3), Dir4::North), Pos::new(0, 0));
        assert_eq!(t.step(Pos::new(0, 0), Dir4::South), Pos::new(0, 3));
    }

    #[test]
    fn l1_and_linf_wrap() {
        let t = Torus2::square(10);
        let a = Pos::new(0, 0);
        let b = Pos::new(9, 9);
        assert_eq!(t.l1(a, b), 2);
        assert_eq!(t.linf(a, b), 1);
        let c = Pos::new(5, 5);
        assert_eq!(t.l1(a, c), 10);
        assert_eq!(t.linf(a, c), 5);
    }

    #[test]
    fn ball_sizes_l1() {
        // |B_1(v, k)| − 1 = 2k(k+1) on a large torus.
        let t = Torus2::square(101);
        for k in 1..5 {
            assert_eq!(t.ball_offsets(Metric::L1, k).len(), 2 * k * (k + 1));
        }
    }

    #[test]
    fn ball_sizes_linf() {
        // |B_∞(v, k)| − 1 = (2k+1)^2 − 1 on a large torus.
        let t = Torus2::square(101);
        for k in 1..5 {
            assert_eq!(
                t.ball_offsets(Metric::Linf, k).len(),
                (2 * k + 1) * (2 * k + 1) - 1
            );
        }
    }

    #[test]
    fn ball_covers_whole_small_torus() {
        let t = Torus2::square(3);
        // Radius 4 L1 ball on a 3×3 torus covers all other 8 nodes once.
        assert_eq!(t.ball_offsets(Metric::L1, 4).len(), 8);
        let mut seen: Vec<Pos> = t.ball(Metric::L1, Pos::new(1, 1), 4);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn mis_checking() {
        let t = Torus2::square(4);
        // Marked nodes at (0,0) and (2,0): independent in G but their L1
        // distance is 2, so not independent in G^(2).
        let mut marked = vec![false; 16];
        marked[t.index(Pos::new(0, 0))] = true;
        marked[t.index(Pos::new(2, 0))] = true;
        assert!(t.is_independent(Metric::L1, 1, &marked));
        assert!(!t.is_independent(Metric::L1, 2, &marked));
        // Checkerboard pattern: maximal independent set of G.
        let mut cb = vec![false; 16];
        for p in t.positions() {
            if (p.x + p.y) % 2 == 0 {
                cb[t.index(p)] = true;
            }
        }
        assert!(t.is_maximal_independent(Metric::L1, 1, &cb));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_side_panics() {
        let _ = Torus2::rect(0, 3);
    }

    #[test]
    fn dist_dispatches_metric() {
        let t = Torus2::square(8);
        let a = Pos::new(1, 1);
        let b = Pos::new(3, 4);
        assert_eq!(t.dist(Metric::L1, a, b), 5);
        assert_eq!(t.dist(Metric::Linf, a, b), 3);
    }
}
