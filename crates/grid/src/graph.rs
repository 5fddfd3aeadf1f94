//! A minimal general-graph layer.
//!
//! The LOCAL-model simulator and the symmetry-breaking algorithms are
//! generic over this [`Graph`] trait so that they run unchanged on grids,
//! grid powers, cycles, and arbitrary auxiliary graphs (such as the anchor
//! graph `H` of §8).

use crate::{Metric, Torus2, TorusD};

/// An undirected graph on nodes `0..node_count()`.
///
/// Implementations must present a *symmetric* adjacency relation without
/// self-loops; the algorithms in `lcl-symmetry` rely on both properties.
pub trait Graph {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Calls `f` once for every neighbour of `v`.
    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize));

    /// Degree of `v`. The default implementation counts neighbours.
    fn degree(&self, v: usize) -> usize {
        let mut d = 0;
        self.for_each_neighbour(v, &mut |_| d += 1);
        d
    }

    /// Maximum degree over all nodes. The default implementation scans.
    fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Collects the neighbours of `v` into a vector.
    fn neighbours_vec(&self, v: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(4);
        self.for_each_neighbour(v, &mut |u| out.push(u));
        out
    }

    /// Collects the neighbours of `v` into a caller-provided buffer,
    /// clearing it first. Hot loops should prefer this over
    /// [`Graph::neighbours_vec`]: the buffer's capacity is reused across
    /// calls, so steady state performs no allocation.
    fn neighbours_into(&self, v: usize, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_neighbour(v, &mut |u| out.push(u));
    }

    /// Materialises the whole adjacency relation as a compact CSR view:
    /// one flat neighbour array plus per-node offsets. Costs one pass over
    /// the graph; afterwards every neighbour list is a slice borrow, so
    /// per-node scans stop allocating entirely.
    fn adjacency(&self) -> CsrAdjacency {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::new();
        offsets.push(0);
        for v in 0..n {
            self.for_each_neighbour(v, &mut |u| nbrs.push(u));
            offsets.push(nbrs.len());
        }
        CsrAdjacency { offsets, nbrs }
    }
}

/// A compact, immutable adjacency view in CSR (compressed sparse row)
/// layout: node `v`'s neighbours are the slice
/// `nbrs[offsets[v]..offsets[v + 1]]`, in [`Graph::for_each_neighbour`]
/// order (so slice positions coincide with the simulator's port numbers).
///
/// Built once via [`Graph::adjacency`]; reading it never allocates.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    offsets: Vec<usize>,
    nbrs: Vec<usize>,
}

impl CsrAdjacency {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed edge slots (`Σ degree(v)`).
    pub fn edge_slots(&self) -> usize {
        self.nbrs.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Start of `v`'s slot range in the flat arrays.
    #[inline]
    pub fn offset(&self, v: usize) -> usize {
        self.offsets[v]
    }

    /// `v`'s slot range in the flat arrays (index it into any per-slot
    /// arena, e.g. the simulator's message buffers).
    #[inline]
    pub fn range(&self, v: usize) -> std::ops::Range<usize> {
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The neighbours of `v`, in port order.
    #[inline]
    pub fn neighbours(&self, v: usize) -> &[usize] {
        &self.nbrs[self.range(v)]
    }

    /// True iff the adjacency relation is symmetric and self-loop free —
    /// the contract every [`Graph`] implementation must satisfy. Runs in
    /// `O(Σ degree²/n)` time with no per-edge allocation (the CSR slices
    /// are borrowed, never rebuilt).
    pub fn is_symmetric(&self) -> bool {
        for v in 0..self.node_count() {
            for &u in self.neighbours(v) {
                if u == v || !self.neighbours(u).contains(&v) {
                    return false;
                }
            }
        }
        true
    }
}

impl Graph for Torus2 {
    fn node_count(&self) -> usize {
        Torus2::node_count(self)
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        let p = self.pos(v);
        // On tori with a side of length ≤ 2 some of the four formal
        // neighbours coincide; deduplicate so the relation stays simple.
        let mut seen = [usize::MAX; 4];
        let mut m = 0;
        for q in self.neighbours4(p) {
            let i = self.index(q);
            if i != v && !seen[..m].contains(&i) {
                seen[m] = i;
                m += 1;
                f(i);
            }
        }
    }

    fn max_degree(&self) -> usize {
        if self.width() > 2 && self.height() > 2 {
            4
        } else {
            (0..Graph::node_count(self))
                .map(|v| self.degree(v))
                .max()
                .unwrap_or(0)
        }
    }
}

impl Graph for TorusD {
    fn node_count(&self) -> usize {
        TorusD::node_count(self)
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        let p = self.pos(v);
        // On a side-≤2 torus the two formal neighbours along an axis
        // coincide (and on side 1 they equal the node itself); deduplicate
        // so the relation stays simple, mirroring the `Torus2` impl.
        let mut seen = Vec::with_capacity(2 * self.dim());
        for q in self.neighbours(&p) {
            let i = self.index(&q);
            if i != v && !seen.contains(&i) {
                seen.push(i);
                f(i);
            }
        }
    }

    fn max_degree(&self) -> usize {
        if self.side() > 2 {
            2 * self.dim()
        } else {
            (0..Graph::node_count(self))
                .map(|v| self.degree(v))
                .max()
                .unwrap_or(0)
        }
    }
}

/// The `metric`-power of a torus: nodes are adjacent iff their distance is
/// `1..=k`. This is the paper's `G^(k)` ([`Metric::L1`]) or `G^[k]`
/// ([`Metric::Linf`]).
///
/// The punctured ball is computed once, at construction, as a table of
/// offsets already wrapped into `[0, w) × [0, h)`; a neighbour visit is
/// then two additions and two conditional subtractions. The table holds
/// `Δ` entries, whereas a CSR view ([`Graph::adjacency`]) would hold
/// `n·Δ`: a torus power is vertex-transitive, so one ball serves every
/// node.
#[derive(Clone, Debug)]
pub struct Power2 {
    torus: Torus2,
    metric: Metric,
    k: usize,
    /// [`Torus2::ball_offsets`] in the same order, each `(dx, dy)`
    /// reduced mod `(w, h)`.
    offsets: Vec<(usize, usize)>,
}

impl Power2 {
    /// Creates the `k`-th `metric`-power of `torus`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(torus: Torus2, metric: Metric, k: usize) -> Power2 {
        assert!(k > 0, "power exponent must be positive");
        let (w, h) = (torus.width() as i64, torus.height() as i64);
        let offsets = torus
            .ball_offsets(metric, k)
            .into_iter()
            .map(|(dx, dy)| (dx.rem_euclid(w) as usize, dy.rem_euclid(h) as usize))
            .collect();
        Power2 {
            torus,
            metric,
            k,
            offsets,
        }
    }

    /// The underlying torus.
    pub fn torus(&self) -> Torus2 {
        self.torus
    }

    /// The power exponent `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The metric of the power.
    pub fn metric(&self) -> Metric {
        self.metric
    }
}

impl Graph for Power2 {
    fn node_count(&self) -> usize {
        self.torus.node_count()
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        let (w, h) = (self.torus.width(), self.torus.height());
        let (x, y) = (v % w, v / w);
        for &(dx, dy) in &self.offsets {
            let mut nx = x + dx;
            if nx >= w {
                nx -= w;
            }
            let mut ny = y + dy;
            if ny >= h {
                ny -= h;
            }
            f(ny * w + nx);
        }
    }

    fn degree(&self, _v: usize) -> usize {
        self.offsets.len()
    }

    fn max_degree(&self) -> usize {
        self.offsets.len()
    }
}

/// A cycle on `n ≥ 3` nodes, `i ~ i±1 (mod n)`; the paper's 1-dimensional
/// grid. The *successor* of `i` is `i+1 (mod n)`, giving the consistent
/// orientation of §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleGraph {
    n: usize,
}

impl CycleGraph {
    /// Creates a directed cycle of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn new(n: usize) -> CycleGraph {
        assert!(n >= 3, "cycle must have at least 3 nodes");
        CycleGraph { n }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (cycles have at least 3 nodes).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Successor in the consistent orientation.
    #[inline]
    pub fn succ(&self, v: usize) -> usize {
        (v + 1) % self.n
    }

    /// Predecessor in the consistent orientation.
    #[inline]
    pub fn pred(&self, v: usize) -> usize {
        (v + self.n - 1) % self.n
    }

    /// Node reached from `v` by a (possibly negative) number of successor
    /// steps.
    #[inline]
    pub fn offset(&self, v: usize, steps: i64) -> usize {
        let n = self.n as i64;
        ((v as i64 + steps).rem_euclid(n)) as usize
    }

    /// Cycle distance between `u` and `v`.
    pub fn dist(&self, u: usize, v: usize) -> usize {
        let d = (u as i64 - v as i64).rem_euclid(self.n as i64) as usize;
        d.min(self.n - d)
    }
}

impl Graph for CycleGraph {
    fn node_count(&self) -> usize {
        self.n
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        f(self.succ(v));
        f(self.pred(v));
    }

    fn max_degree(&self) -> usize {
        2
    }
}

/// A path on `n ≥ 1` nodes, `i ~ i+1`. Used by tests and by the corner
/// coordination construction (App. A.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathGraph {
    n: usize,
}

impl PathGraph {
    /// Creates a path of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> PathGraph {
        assert!(n > 0, "path must be non-empty");
        PathGraph { n }
    }
}

impl Graph for PathGraph {
    fn node_count(&self) -> usize {
        self.n
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        if v > 0 {
            f(v - 1);
        }
        if v + 1 < self.n {
            f(v + 1);
        }
    }
}

/// An explicit adjacency-list graph.
///
/// # Example
///
/// ```
/// use lcl_grid::{AdjGraph, Graph};
/// let mut g = AdjGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AdjGraph {
    adj: Vec<Vec<usize>>,
}

impl AdjGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> AdjGraph {
        AdjGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds the undirected edge `{u, v}` if not already present.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u != v, "self-loops are not allowed");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "node out of range"
        );
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
            self.adj[v].push(u);
        }
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(&v)
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }
}

impl Graph for AdjGraph {
    fn node_count(&self) -> usize {
        self.adj.len()
    }

    fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
        for &u in &self.adj[v] {
            f(u);
        }
    }

    fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pos;

    /// Symmetry validation over the CSR view: one adjacency
    /// materialisation instead of two fresh `neighbours_vec` allocations
    /// per edge (which was quadratic allocation churn on large tori).
    fn symmetric<G: Graph>(g: &G) -> bool {
        g.adjacency().is_symmetric()
    }

    #[test]
    fn torus_graph_degree() {
        let t = Torus2::square(5);
        assert_eq!(Graph::max_degree(&t), 4);
        assert!(symmetric(&t));
    }

    #[test]
    fn power_graph_degree() {
        let t = Torus2::square(11);
        let p = Power2::new(t, Metric::L1, 2);
        // Degree of G^(2) is 2·2·3 = 12.
        assert_eq!(p.degree(0), 12);
        assert!(symmetric(&p));
    }

    #[test]
    fn power_graph_adjacency_is_distance() {
        let t = Torus2::square(9);
        let p = Power2::new(t, Metric::Linf, 2);
        let nbrs = p.neighbours_vec(t.index(Pos::new(4, 4)));
        for u in nbrs {
            assert!(t.linf(Pos::new(4, 4), t.pos(u)) <= 2);
        }
    }

    #[test]
    fn power_graph_neighbours_are_the_ball() {
        // Both metrics, non-square tori, and balls that wrap a side
        // (2k ≥ side), down to a side of 1.
        let cases = [
            (Torus2::square(16), Metric::L1, 2),
            (Torus2::square(20), Metric::Linf, 2),
            (Torus2::rect(18, 11), Metric::L1, 3),
            (Torus2::rect(13, 22), Metric::Linf, 2),
            (Torus2::square(9), Metric::L1, 5),
            (Torus2::rect(7, 12), Metric::Linf, 4),
            (Torus2::rect(1, 6), Metric::L1, 2),
            (Torus2::square(30), Metric::Linf, 7),
        ];
        for (t, metric, k) in cases {
            let p = Power2::new(t, metric, k);
            let mut max = 0;
            for v in 0..Graph::node_count(&p) {
                let mut got = p.neighbours_vec(v);
                let mut expect: Vec<usize> = t
                    .ball(metric, t.pos(v), k)
                    .into_iter()
                    .map(|q| t.index(q))
                    .collect();
                assert_eq!(p.degree(v), expect.len(), "{t:?} {metric:?} k={k}");
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "{t:?} {metric:?} k={k} v={v}");
                max = max.max(expect.len());
            }
            assert_eq!(p.max_degree(), max, "{t:?} {metric:?} k={k}");
        }
    }

    #[test]
    fn cycle_offsets() {
        let c = CycleGraph::new(7);
        assert_eq!(c.succ(6), 0);
        assert_eq!(c.pred(0), 6);
        assert_eq!(c.offset(3, -5), 5);
        assert_eq!(c.dist(1, 6), 2);
        assert!(symmetric(&c));
    }

    #[test]
    fn adj_graph_dedups_edges() {
        let mut g = AdjGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert!(symmetric(&g));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn adj_graph_rejects_self_loop() {
        let mut g = AdjGraph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    fn path_graph_ends() {
        let p = PathGraph::new(4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(1), 2);
        assert!(symmetric(&p));
    }

    #[test]
    fn csr_matches_neighbours_vec() {
        let t = Torus2::rect(5, 3);
        let csr = t.adjacency();
        assert_eq!(csr.node_count(), 15);
        assert_eq!(csr.edge_slots(), 15 * 4);
        let mut buf = Vec::new();
        for v in 0..csr.node_count() {
            assert_eq!(csr.neighbours(v), t.neighbours_vec(v).as_slice());
            assert_eq!(csr.degree(v), t.degree(v));
            assert_eq!(csr.range(v).len(), csr.degree(v));
            t.neighbours_into(v, &mut buf);
            assert_eq!(csr.neighbours(v), buf.as_slice());
        }
    }

    #[test]
    fn neighbours_into_reuses_buffer() {
        let t = Torus2::square(6);
        let mut buf = Vec::with_capacity(4);
        t.neighbours_into(0, &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for v in 1..Graph::node_count(&t) {
            t.neighbours_into(v, &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "buffer capacity must be stable");
        assert_eq!(buf.as_ptr(), ptr, "buffer must not be reallocated");
    }

    #[test]
    fn csr_detects_asymmetry() {
        // Bypass AdjGraph::add_edge to build a deliberately broken
        // adjacency: 0 → 1 without the reverse arc.
        struct OneWay;
        impl Graph for OneWay {
            fn node_count(&self) -> usize {
                2
            }
            fn for_each_neighbour(&self, v: usize, f: &mut dyn FnMut(usize)) {
                if v == 0 {
                    f(1);
                }
            }
        }
        assert!(!OneWay.adjacency().is_symmetric());
        let mut ok = AdjGraph::new(2);
        ok.add_edge(0, 1);
        assert!(ok.adjacency().is_symmetric());
    }

    #[test]
    fn torusd_graph_matches_ball_one() {
        let t = TorusD::new(3, 5);
        assert_eq!(Graph::max_degree(&t), 6);
        assert!(symmetric(&t));
        let p = t.pos(31);
        let mut nbrs = t.neighbours_vec(31);
        nbrs.sort_unstable();
        let mut expect: Vec<usize> = t
            .ball(Metric::L1, &p, 1)
            .into_iter()
            .map(|q| t.index(&q))
            .collect();
        expect.sort_unstable();
        assert_eq!(nbrs, expect);
    }

    #[test]
    fn tiny_torusd_dedups_coinciding_neighbours() {
        let t = TorusD::new(3, 2);
        for v in 0..Graph::node_count(&t) {
            let nbrs = t.neighbours_vec(v);
            let mut dedup = nbrs.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(nbrs.len(), dedup.len());
            assert!(!nbrs.contains(&v));
        }
        assert!(symmetric(&t));
    }

    #[test]
    fn tiny_torus_has_no_duplicate_neighbours() {
        let t = Torus2::rect(2, 2);
        for v in 0..Graph::node_count(&t) {
            let nbrs = t.neighbours_vec(v);
            let mut dedup = nbrs.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(nbrs.len(), dedup.len());
        }
    }
}
