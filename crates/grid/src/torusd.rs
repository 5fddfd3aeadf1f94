//! d-dimensional toroidal grids (§8, §10).

use crate::Metric;

/// A node position on a [`TorusD`], as a coordinate vector of length `d`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PosD(pub Vec<usize>);

impl PosD {
    /// Creates a position from coordinates.
    pub fn new(coords: Vec<usize>) -> PosD {
        PosD(coords)
    }

    /// Dimension of the position.
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

/// A d-dimensional toroidal grid with `n^d` nodes and consistent
/// orientation, generalising [`crate::Torus2`] (§8 "Preliminaries").
///
/// Each node `v = (v₁, …, v_d)` has `2d` neighbours, one per signed
/// dimension. Coordinates live in `[n]` and all arithmetic is mod `n`.
///
/// # Example
///
/// ```
/// use lcl_grid::{TorusD, PosD};
/// let t = TorusD::new(3, 5);
/// assert_eq!(t.node_count(), 125);
/// let p = PosD::new(vec![4, 0, 2]);
/// assert_eq!(t.l1(&p, &PosD::new(vec![0, 4, 2])), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TorusD {
    dim: usize,
    side: usize,
}

impl TorusD {
    /// Creates a `d`-dimensional torus with side length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `n == 0`, or if `n^d` overflows `usize`.
    pub fn new(dim: usize, side: usize) -> TorusD {
        assert!(dim > 0, "dimension must be positive");
        assert!(side > 0, "side must be positive");
        let mut count: usize = 1;
        for _ in 0..dim {
            count = count
                .checked_mul(side)
                .expect("torus node count overflows usize");
        }
        TorusD { dim, side }
    }

    /// Dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Side length `n`.
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Total number of nodes, `n^d`.
    pub fn node_count(&self) -> usize {
        self.side.pow(self.dim as u32)
    }

    /// Dense index of a position (mixed-radix little-endian).
    pub fn index(&self, p: &PosD) -> usize {
        debug_assert_eq!(p.dim(), self.dim);
        let mut idx = 0usize;
        for &c in p.0.iter().rev() {
            debug_assert!(c < self.side);
            idx = idx * self.side + c;
        }
        idx
    }

    /// Inverse of [`TorusD::index`].
    pub fn pos(&self, mut index: usize) -> PosD {
        debug_assert!(index < self.node_count());
        let mut coords = vec![0usize; self.dim];
        for c in coords.iter_mut() {
            *c = index % self.side;
            index /= self.side;
        }
        PosD(coords)
    }

    /// Iterates over all positions in index order.
    pub fn positions(&self) -> impl Iterator<Item = PosD> + '_ {
        (0..self.node_count()).map(move |i| self.pos(i))
    }

    /// Moves `steps` (possibly negative) along dimension `axis`.
    pub fn offset(&self, p: &PosD, axis: usize, steps: i64) -> PosD {
        debug_assert!(axis < self.dim);
        let n = self.side as i64;
        let mut coords = p.0.clone();
        coords[axis] = (coords[axis] as i64 + steps).rem_euclid(n) as usize;
        PosD(coords)
    }

    /// Translates by a whole offset vector.
    pub fn offset_all(&self, p: &PosD, delta: &[i64]) -> PosD {
        debug_assert_eq!(delta.len(), self.dim);
        let n = self.side as i64;
        PosD(
            p.0.iter()
                .zip(delta)
                .map(|(&c, &d)| (c as i64 + d).rem_euclid(n) as usize)
                .collect(),
        )
    }

    /// Index of `p` translated by `delta`: [`TorusD::offset_all`]
    /// followed by [`TorusD::index`], without building the position.
    pub fn offset_index(&self, p: &PosD, delta: &[i64]) -> usize {
        debug_assert_eq!(delta.len(), self.dim);
        let n = self.side as i64;
        p.0.iter().zip(delta).rev().fold(0, |idx, (&c, &d)| {
            idx * self.side + (c as i64 + d).rem_euclid(n) as usize
        })
    }

    /// Toroidal norm of a single coordinate difference.
    #[inline]
    fn norm1d(&self, diff: i64) -> usize {
        let n = self.side as i64;
        let m = diff.rem_euclid(n);
        m.min(n - m) as usize
    }

    /// Toroidal L1 distance (= graph distance).
    pub fn l1(&self, a: &PosD, b: &PosD) -> usize {
        a.0.iter()
            .zip(&b.0)
            .map(|(&x, &y)| self.norm1d(x as i64 - y as i64))
            .sum()
    }

    /// Toroidal L∞ distance.
    pub fn linf(&self, a: &PosD, b: &PosD) -> usize {
        a.0.iter()
            .zip(&b.0)
            .map(|(&x, &y)| self.norm1d(x as i64 - y as i64))
            .max()
            .unwrap_or(0)
    }

    /// Distance in the given metric.
    pub fn dist(&self, metric: Metric, a: &PosD, b: &PosD) -> usize {
        match metric {
            Metric::L1 => self.l1(a, b),
            Metric::Linf => self.linf(a, b),
        }
    }

    /// The `2d` grid neighbours of `p`.
    pub fn neighbours(&self, p: &PosD) -> Vec<PosD> {
        let mut out = Vec::with_capacity(2 * self.dim);
        for axis in 0..self.dim {
            out.push(self.offset(p, axis, 1));
            out.push(self.offset(p, axis, -1));
        }
        out
    }

    /// All offset vectors within `metric`-distance `k` of the origin,
    /// excluding the origin itself, each torus node at most once.
    pub fn ball_offsets(&self, metric: Metric, k: usize) -> Vec<Vec<i64>> {
        let n = self.side as i64;
        let k = k as i64;
        let lo = if 2 * k < n { -k } else { -((n - 1) / 2) };
        let hi = if 2 * k < n { k } else { n / 2 };
        let mut out = Vec::new();
        let mut cur = vec![lo; self.dim];
        loop {
            let dist: i64 = match metric {
                Metric::L1 => cur.iter().map(|&c| self.norm1d(c) as i64).sum(),
                Metric::Linf => cur
                    .iter()
                    .map(|&c| self.norm1d(c) as i64)
                    .max()
                    .unwrap_or(0),
            };
            if dist != 0 && dist <= k {
                out.push(cur.clone());
            }
            // Increment mixed-radix counter.
            let mut axis = 0;
            loop {
                if axis == self.dim {
                    return out;
                }
                cur[axis] += 1;
                if cur[axis] <= hi {
                    break;
                }
                cur[axis] = lo;
                axis += 1;
            }
        }
    }

    /// Nodes at `metric`-distance `1..=k` from `p`.
    pub fn ball(&self, metric: Metric, p: &PosD, k: usize) -> Vec<PosD> {
        self.ball_offsets(metric, k)
            .into_iter()
            .map(|delta| self.offset_all(p, &delta))
            .collect()
    }

    /// Checks independence of `marked` in the `metric`-power `G^k`.
    pub fn is_independent(&self, metric: Metric, k: usize, marked: &[bool]) -> bool {
        assert_eq!(marked.len(), self.node_count());
        let offsets = self.ball_offsets(metric, k);
        (0..marked.len())
            .filter(|&i| marked[i])
            .all(|i| !self.ball_hits(&offsets, &self.pos(i), marked))
    }

    /// Checks maximal independence of `marked` in the `metric`-power `G^k`.
    pub fn is_maximal_independent(&self, metric: Metric, k: usize, marked: &[bool]) -> bool {
        assert_eq!(marked.len(), self.node_count());
        // Marked nodes see no marked node in their ball; unmarked ones do.
        let offsets = self.ball_offsets(metric, k);
        (0..marked.len()).all(|i| self.ball_hits(&offsets, &self.pos(i), marked) != marked[i])
    }

    /// True iff some node at one of `offsets` from `p` is marked.
    fn ball_hits(&self, offsets: &[Vec<i64>], p: &PosD, marked: &[bool]) -> bool {
        offsets
            .iter()
            .any(|delta| marked[self.offset_index(p, delta)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let t = TorusD::new(3, 4);
        for i in 0..t.node_count() {
            assert_eq!(t.index(&t.pos(i)), i);
        }
    }

    #[test]
    fn offset_index_matches_offset_all() {
        let t = TorusD::new(3, 5);
        let offsets = t.ball_offsets(Metric::L1, 3);
        for i in (0..t.node_count()).step_by(7) {
            let p = t.pos(i);
            for delta in &offsets {
                assert_eq!(t.offset_index(&p, delta), t.index(&t.offset_all(&p, delta)));
            }
        }
    }

    #[test]
    fn two_dim_matches_torus2() {
        use crate::{Pos, Torus2};
        let td = TorusD::new(2, 7);
        let t2 = Torus2::square(7);
        for i in 0..td.node_count() {
            for j in 0..td.node_count() {
                let (a, b) = (td.pos(i), td.pos(j));
                let (p, q) = (Pos::new(a.0[0], a.0[1]), Pos::new(b.0[0], b.0[1]));
                assert_eq!(td.l1(&a, &b), t2.l1(p, q));
                assert_eq!(td.linf(&a, &b), t2.linf(p, q));
            }
        }
    }

    #[test]
    fn degree_is_2d() {
        let t = TorusD::new(3, 5);
        let p = t.pos(17);
        let nbrs = t.neighbours(&p);
        assert_eq!(nbrs.len(), 6);
        for q in &nbrs {
            assert_eq!(t.l1(&p, q), 1);
        }
    }

    #[test]
    fn linf_ball_size() {
        // |B_∞(v, k)| − 1 = (2k+1)^d − 1 for a large torus.
        let t = TorusD::new(3, 11);
        assert_eq!(t.ball_offsets(Metric::Linf, 2).len(), 5 * 5 * 5 - 1);
    }

    #[test]
    fn l1_ball_size_3d() {
        // d=3, k=1: 6 neighbours; k=2: 6 + 12 + 6 + ... = 24.
        let t = TorusD::new(3, 11);
        assert_eq!(t.ball_offsets(Metric::L1, 1).len(), 6);
        assert_eq!(t.ball_offsets(Metric::L1, 2).len(), 24);
    }

    #[test]
    fn maximal_independence_3d_checkerboard() {
        let t = TorusD::new(3, 4);
        let marked: Vec<bool> = (0..t.node_count())
            .map(|i| t.pos(i).0.iter().sum::<usize>() % 2 == 0)
            .collect();
        assert!(t.is_maximal_independent(Metric::L1, 1, &marked));
    }
}
