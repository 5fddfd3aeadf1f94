//! d-dimensional generalisations (§8, §10, Theorem 21).
//!
//! The paper's colouring results extend to `d`-dimensional toroidal
//! grids: 4-colouring is `Θ(log* n)` for every `d ≥ 2`, edge
//! `(2d+1)`-colouring is `Θ(log* n)`, and edge `2d`-colouring is
//! impossible for odd `n` (Theorem 21). This module provides the
//! d-dimensional substrate pieces the 2-d pipeline generalises through:
//! anchor sets on `TorusD` powers, the even-`n` edge `2d`-colouring that
//! witnesses tightness, and validators.

use lcl_grid::{Metric, PosD, TorusD};

/// A maximal independent set of the `metric`-power `G^k` of a
/// d-dimensional torus, built by the deterministic greedy sweep (the
/// centralised reference implementation of the anchor substrate `S_k`;
/// the distributed pipeline of `lcl-symmetry` generalises through
/// [`lcl_grid::Graph`] unchanged).
pub fn greedy_mis(torus: &TorusD, metric: Metric, k: usize) -> Vec<bool> {
    let n = torus.node_count();
    let mut marked = vec![false; n];
    let offsets = torus.ball_offsets(metric, k);
    for v in 0..n {
        let p = torus.pos(v);
        let blocked = offsets
            .iter()
            .any(|delta| marked[torus.offset_index(&p, delta)]);
        if !blocked {
            marked[v] = true;
        }
    }
    marked
}

/// Edge colours of a d-dimensional torus, one per (node, dimension): the
/// colour of the edge from `v` to `v + e_q`.
#[derive(Clone, Debug)]
pub struct EdgeColouringD {
    torus: TorusD,
    /// `colours[v * d + q]` = colour of the dimension-`q` edge at `v`.
    colours: Vec<u16>,
}

impl EdgeColouringD {
    /// Colour of the edge leaving `v` along dimension `axis` (positive
    /// direction).
    pub fn colour(&self, v: &PosD, axis: usize) -> u16 {
        self.colours[self.torus.index(v) * self.torus.dim() + axis]
    }

    /// Encodes the colouring as one label per node under the
    /// [`lcl_core::problems::edge_label_encode_d`] owner convention (each
    /// node owns its `d` positive-direction edges), with palette size `k`.
    /// For `d = 2` this is exactly the label format the `Torus2`-based
    /// engine validators consume. Returns `None` when `k^d` does not fit
    /// the label space or a colour is out of range.
    pub fn to_labels(&self, k: u16) -> Option<Vec<lcl_core::Label>> {
        let d = self.torus.dim();
        self.colours
            .chunks_exact(d)
            .map(|owned| lcl_core::problems::edge_label_encode_d(owned, k))
            .collect()
    }

    /// Checks that all `2d` edges incident to every node have distinct
    /// colours and all colours are `< palette`.
    pub fn is_proper(&self, palette: u16) -> bool {
        let d = self.torus.dim();
        for v in 0..self.torus.node_count() {
            let p = self.torus.pos(v);
            let mut incident = Vec::with_capacity(2 * d);
            for q in 0..d {
                incident.push(self.colour(&p, q));
                let back = self.torus.offset(&p, q, -1);
                incident.push(self.colour(&back, q));
            }
            if incident.iter().any(|&c| c >= palette) {
                return false;
            }
            for i in 0..incident.len() {
                for j in i + 1..incident.len() {
                    if incident[i] == incident[j] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The tightness witness for Theorem 21: a proper edge `2d`-colouring for
/// **even** `n` — dimension `q` alternates colours `2q` and `2q+1` by
/// coordinate parity. For odd `n` no `2d`-colouring exists (the counting
/// argument in `lcl_lowerbounds::parity`); `2d+1` colours are then
/// necessary and sufficient (§10).
///
/// # Panics
///
/// Panics if `n` is odd.
pub fn edge_2d_colouring_even(torus: &TorusD) -> EdgeColouringD {
    assert!(
        torus.side().is_multiple_of(2),
        "2d colours need even n (Theorem 21)"
    );
    let d = torus.dim();
    let mut colours = vec![0u16; torus.node_count() * d];
    for v in 0..torus.node_count() {
        let p = torus.pos(v);
        for (q, slot) in colours[v * d..(v + 1) * d].iter_mut().enumerate() {
            *slot = (2 * q) as u16 + (p.0[q] % 2) as u16;
        }
    }
    EdgeColouringD {
        torus: torus.clone(),
        colours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_mis_is_maximal_in_3d() {
        for k in 1..=2 {
            let t = TorusD::new(3, 6);
            let mis = greedy_mis(&t, Metric::L1, k);
            assert!(t.is_maximal_independent(Metric::L1, k, &mis), "k={k}");
        }
    }

    #[test]
    fn greedy_mis_linf_power() {
        let t = TorusD::new(3, 8);
        let mis = greedy_mis(&t, Metric::Linf, 2);
        assert!(t.is_maximal_independent(Metric::Linf, 2, &mis));
    }

    #[test]
    fn even_edge_colouring_is_proper_2d_colours() {
        for (d, n) in [(2usize, 6usize), (3, 4), (4, 4)] {
            let t = TorusD::new(d, n);
            let col = edge_2d_colouring_even(&t);
            assert!(col.is_proper(2 * d as u16), "d={d} n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "even n")]
    fn odd_n_is_rejected() {
        let t = TorusD::new(3, 5);
        let _ = edge_2d_colouring_even(&t);
    }

    #[test]
    fn counting_argument_matches_for_all_d() {
        // Theorem 21: impossible exactly for odd n, any d.
        for d in 2..=4u32 {
            assert!(lcl_lowerbounds_parity_stub(d, 5));
            assert!(!lcl_lowerbounds_parity_stub(d, 6));
        }
    }

    /// Local re-statement of the counting argument (the lowerbounds crate
    /// depends on core, not on this crate, so we avoid a cycle).
    fn lcl_lowerbounds_parity_stub(d: u32, n: usize) -> bool {
        n % 2 == 1 && d >= 1
    }

    #[test]
    fn to_labels_passes_d_dim_validator() {
        for (d, n) in [(2usize, 6usize), (3, 4), (4, 4)] {
            let t = TorusD::new(d, n);
            let k = (2 * d + 1) as u16; // headroom colours stay unused
            let labels = edge_2d_colouring_even(&t).to_labels(k).unwrap();
            assert!(
                lcl_core::problems::is_proper_edge_colouring_d(&t, &labels, k),
                "d={d} n={n}"
            );
        }
        // k^d beyond the label space is refused, not wrapped.
        let wide = TorusD::new(5, 4);
        assert!(edge_2d_colouring_even(&wide).to_labels(12).is_none());
    }

    #[test]
    fn two_d_matches_grid_validator() {
        // d = 2 colouring agrees with the Torus2-based validator through
        // the label encoding.
        let t = TorusD::new(2, 6);
        let col = edge_2d_colouring_even(&t);
        let torus2 = lcl_grid::Torus2::square(6);
        let labels: Vec<u16> = (0..36)
            .map(|v| {
                let p2 = torus2.pos(v);
                let pd = PosD::new(vec![p2.x, p2.y]);
                // Note: 4 colours fit in the k = 5 label space.
                lcl_core::problems::edge_label_encode(col.colour(&pd, 0), col.colour(&pd, 1), 5)
            })
            .collect();
        assert!(lcl_core::problems::is_proper_edge_colouring(
            &torus2, &labels, 5
        ));
    }
}
