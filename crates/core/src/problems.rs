//! The concrete problem library (§1.3, §11) and native validators.
//!
//! Constructors return [`GridProblem`] values; the native validators decode
//! structured labels (edge colours, orientations) and check the original
//! combinatorial property directly, giving an independent cross-check of
//! the block semantics in [`crate::lcl`].
//!
//! [`ddim_semantics`] is the one reading of a 2-d problem on
//! `d`-dimensional tori: it picks the d-dimensional validator and decides
//! existence there.

use crate::lcl::{GridProblem, Label};
use lcl_grid::{Dir4, Pos, Torus2, TorusD};
use std::fmt;

/// A set of allowed in-degrees `X ⊆ {0, 1, 2, 3, 4}` for the
/// `X`-orientation problem (§11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct XSet(u8);

impl XSet {
    /// Builds a set from a list of in-degrees.
    ///
    /// # Panics
    ///
    /// Panics if a degree exceeds 4.
    pub fn from_degrees(degrees: &[u8]) -> XSet {
        let mut mask = 0u8;
        for &d in degrees {
            assert!(d <= 4, "in-degree must be at most 4");
            mask |= 1 << d;
        }
        XSet(mask)
    }

    /// All 32 subsets, in mask order.
    pub fn all() -> impl Iterator<Item = XSet> {
        (0u8..32).map(XSet)
    }

    /// True iff `d ∈ X`.
    pub fn contains(&self, d: u8) -> bool {
        d <= 4 && self.0 & (1 << d) != 0
    }

    /// True iff `other ⊆ self`.
    pub fn is_superset(&self, other: XSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// The degrees in the set, ascending.
    pub fn degrees(&self) -> Vec<u8> {
        (0..=4).filter(|&d| self.contains(d)).collect()
    }
}

impl fmt::Display for XSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, d) in self.degrees().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "}}")
    }
}

/// Proper vertex `k`-colouring (§1.3: local for `k ≥ 4`, global for
/// `k ≤ 3`).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn vertex_colouring(k: u16) -> GridProblem {
    assert!(k > 0);
    GridProblem::VertexColouring { k }
}

/// Proper edge `k`-colouring (§1.3: local for `k ≥ 5`, global for
/// `k ≤ 4`). Labels encode (east edge colour, north edge colour).
///
/// # Panics
///
/// Panics if `k == 0`, or if `k > 255`: the `k²` labels must fit the
/// `u16` label space.
pub fn edge_colouring(k: u16) -> GridProblem {
    assert!(k > 0);
    assert!(
        k <= 255,
        "edge {k}-colouring has {k}² labels, more than a u16 holds"
    );
    GridProblem::EdgeColouring { k }
}

/// `X`-orientation (§11, Theorem 22).
pub fn orientation(x: XSet) -> GridProblem {
    GridProblem::Orientation { x }
}

/// Maximal independent set, block-encoded with dominator pointers:
/// label 0 = in the set; labels 1–4 = out, pointing N/E/S/W at an in-set
/// neighbour. Projecting away the pointer gives exactly the MIS problem.
pub fn mis_with_pointers() -> GridProblem {
    const IN: Label = 0;
    let out_n = 1;
    let out_e = 2;
    let out_s = 3;
    let out_w = 4;
    let hpair = move |a: Label, b: Label| {
        // a west of b.
        !(a == IN && b == IN) && (a != out_e || b == IN) && (b != out_w || a == IN)
    };
    let vpair = move |a: Label, b: Label| {
        // a south of b.
        !(a == IN && b == IN) && (a != out_n || b == IN) && (b != out_s || a == IN)
    };
    GridProblem::Block(crate::lcl::BlockLcl::from_pairs(5, hpair, vpair))
}

/// Independent set (not necessarily maximal): label 1 nodes form an
/// independent set. Solvable by the constant-0 labelling, hence `O(1)` —
/// the grid analogue of Figure 2's fourth example.
pub fn independent_set() -> GridProblem {
    GridProblem::Block(crate::lcl::BlockLcl::from_pairs(
        2,
        |a, b| !(a == 1 && b == 1),
        |a, b| !(a == 1 && b == 1),
    ))
}

/// Decodes an edge-colouring label into (east colour, north colour).
pub fn edge_label_decode(label: Label, k: u16) -> (u16, u16) {
    (label / k, label % k)
}

/// Encodes (east colour, north colour) into an edge-colouring label.
///
/// # Panics
///
/// Panics if either colour is `≥ k`.
pub fn edge_label_encode(east: u16, north: u16, k: u16) -> Label {
    assert!(east < k && north < k);
    east * k + north
}

/// The colour of the edge leaving `p` in direction `d` under an
/// edge-colouring labelling (owner convention: each node owns its east
/// and north edges).
pub fn edge_colour_at(torus: &Torus2, labels: &[Label], k: u16, p: Pos, d: Dir4) -> u16 {
    match d {
        Dir4::East => edge_label_decode(labels[torus.index(p)], k).0,
        Dir4::North => edge_label_decode(labels[torus.index(p)], k).1,
        Dir4::West => edge_label_decode(labels[torus.index(torus.step(p, Dir4::West))], k).0,
        Dir4::South => edge_label_decode(labels[torus.index(torus.step(p, Dir4::South))], k).1,
    }
}

/// Native validator: proper vertex colouring with `< k` colours.
pub fn is_proper_vertex_colouring(torus: &Torus2, labels: &[Label], k: u16) -> bool {
    labels.iter().all(|&l| l < k)
        && torus.positions().all(|p| {
            labels[torus.index(p)] != labels[torus.index(torus.step(p, Dir4::East))]
                && labels[torus.index(p)] != labels[torus.index(torus.step(p, Dir4::North))]
        })
}

/// Native validator: proper edge colouring (all four incident edge colours
/// distinct at every node).
pub fn is_proper_edge_colouring(torus: &Torus2, labels: &[Label], k: u16) -> bool {
    torus.positions().all(|p| {
        let cols = [
            edge_colour_at(torus, labels, k, p, Dir4::North),
            edge_colour_at(torus, labels, k, p, Dir4::East),
            edge_colour_at(torus, labels, k, p, Dir4::South),
            edge_colour_at(torus, labels, k, p, Dir4::West),
        ];
        cols.iter().all(|&c| c < k)
            && cols
                .iter()
                .enumerate()
                .all(|(i, a)| cols[..i].iter().all(|b| b != a))
    })
}

/// Native validator: in-degree of every node lies in `x` under an
/// orientation labelling (bit 0: east out, bit 1: north out).
pub fn orientation_indegrees(torus: &Torus2, labels: &[Label]) -> Vec<u8> {
    torus
        .positions()
        .map(|p| {
            let own = labels[torus.index(p)];
            let west = labels[torus.index(torus.step(p, Dir4::West))];
            let south = labels[torus.index(torus.step(p, Dir4::South))];
            (own & 1 == 0) as u8          // own east edge incoming
                + (own & 2 == 0) as u8    // own north edge incoming
                + (west & 1 == 1) as u8   // west neighbour's east edge towards us
                + (south & 2 == 2) as u8 // south neighbour's north edge towards us
        })
        .collect()
}

/// Encodes the `d` owned edge colours of a node on a d-dimensional torus
/// (colour `q` = colour of the positive edge along axis `q`) into one
/// label, big-endian in axis order. For `d = 2` with axes (x, y) read as
/// (east, north) this coincides exactly with [`edge_label_encode`], so
/// 2-dimensional labellings stay interchangeable between the `Torus2` and
/// `TorusD` validators.
///
/// Returns `None` when `k^d` does not fit the label space (or a colour is
/// out of range) instead of silently wrapping.
pub fn edge_label_encode_d(colours: &[u16], k: u16) -> Option<Label> {
    // The whole label space k^d must fit, not just this colour vector:
    // otherwise two labellings of the same problem could disagree on
    // representability, which would make the codec ambiguous.
    let mut space: u64 = 1;
    for _ in colours {
        space = space.checked_mul(u64::from(k))?;
        if space > u64::from(Label::MAX) + 1 {
            return None;
        }
    }
    let mut label: u64 = 0;
    for &c in colours {
        if c >= k {
            return None;
        }
        label = label * u64::from(k) + u64::from(c);
    }
    Some(label as Label)
}

/// Inverse of [`edge_label_encode_d`]: the `d` owned edge colours of a
/// node, in axis order.
pub fn edge_label_decode_d(label: Label, k: u16, d: usize) -> Vec<u16> {
    let mut colours = vec![0u16; d];
    let mut rest = label;
    for c in colours.iter_mut().rev() {
        *c = rest % k;
        rest /= k;
    }
    colours
}

/// Native validator: proper edge colouring on a d-dimensional torus under
/// the [`edge_label_encode_d`] owner convention (each node owns its `d`
/// positive-direction edges). All `2d` incident edge colours must be
/// distinct and `< k` at every node.
pub fn is_proper_edge_colouring_d(torus: &TorusD, labels: &[Label], k: u16) -> bool {
    let d = torus.dim();
    let n = torus.node_count();
    if labels.len() != n {
        return false;
    }
    let limit = edge_label_encode_d(&vec![k - 1; d], k);
    if limit.is_none() || labels.iter().any(|&l| Some(l) > limit) {
        return false;
    }
    // Decode every label exactly once into one flat (node, axis) table;
    // the scan below then only reads u16s — no per-node allocation.
    let mut owned = vec![0u16; n * d];
    for (v, &label) in labels.iter().enumerate() {
        let mut rest = label;
        for slot in owned[v * d..(v + 1) * d].iter_mut().rev() {
            *slot = rest % k;
            rest /= k;
        }
    }
    let mut incident = Vec::with_capacity(2 * d);
    for v in 0..n {
        let p = torus.pos(v);
        incident.clear();
        incident.extend_from_slice(&owned[v * d..(v + 1) * d]);
        for q in 0..d {
            let back = torus.index(&torus.offset(&p, q, -1));
            incident.push(owned[back * d + q]);
        }
        let proper = incident
            .iter()
            .enumerate()
            .all(|(i, a)| *a < k && incident[..i].iter().all(|b| b != a));
        if !proper {
            return false;
        }
    }
    true
}

/// Native validator: proper vertex colouring with `< k` colours on a
/// d-dimensional torus (adjacent nodes along every axis differ).
pub fn is_proper_vertex_colouring_d(torus: &TorusD, labels: &[Label], k: u16) -> bool {
    labels.len() == torus.node_count()
        && labels.iter().all(|&l| l < k)
        && (0..torus.node_count()).all(|v| {
            let p = torus.pos(v);
            (0..torus.dim()).all(|q| labels[v] != labels[torus.index(&torus.offset(&p, q, 1))])
        })
}

/// Native validator: the label-1 nodes form an independent set of a
/// d-dimensional torus (labels are 0/1).
pub fn is_independent_set_d(torus: &TorusD, labels: &[Label]) -> bool {
    labels.len() == torus.node_count()
        && labels.iter().all(|&l| l <= 1)
        && (0..torus.node_count()).all(|v| {
            labels[v] == 0 || {
                let p = torus.pos(v);
                (0..torus.dim()).all(|q| labels[torus.index(&torus.offset(&p, q, 1))] == 0)
            }
        })
}

/// Native validator for axis-symmetric pairwise problems on a
/// d-dimensional torus: every adjacent pair along every positive axis
/// direction must satisfy the relation
/// (`pair_allowed[a · alphabet + b]`, see
/// [`crate::lcl::BlockLcl::axis_symmetric_pairs`]). On side-2 tori both
/// orientations of each double edge are checked, matching the SAT
/// encoder in [`crate::existence`].
pub fn is_pairwise_valid_d(
    torus: &TorusD,
    labels: &[Label],
    alphabet: u16,
    pair_allowed: &[bool],
) -> bool {
    let n = alphabet as usize;
    assert_eq!(pair_allowed.len(), n * n);
    labels.len() == torus.node_count()
        && labels.iter().all(|&l| l < alphabet)
        && (0..torus.node_count()).all(|v| {
            let p = torus.pos(v);
            (0..torus.dim()).all(|q| {
                let u = torus.index(&torus.offset(&p, q, 1));
                pair_allowed[labels[v] as usize * n + labels[u] as usize]
            })
        })
}

/// The d-dimensional reading of a 2-d grid problem: what it means on a
/// `d`-dimensional torus, when it means anything there. This is the one
/// answer the engine's `supports`, `check_instance` and `solvable` all
/// consult. Every reading holds one rule for side-1 tori in every
/// dimension, the rule of the 2-d block checker: the single node is its
/// own neighbour on every axis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DdimSemantics {
    /// Proper vertex `k`-colouring of the d-dimensional torus graph.
    VertexColouring { k: u16 },
    /// Proper edge `k`-colouring under the [`edge_label_encode_d`] owner
    /// convention.
    EdgeColouring { k: u16 },
    /// Label-1 nodes form an independent set.
    IndependentSet,
    /// The block predicate factors into one pair relation applied along
    /// both axes ([`crate::lcl::BlockLcl::axis_symmetric_pairs`]), so the
    /// problem reads as "that relation on every adjacent pair" in any
    /// dimension. This is how compiled `lcl-lang` problems built from
    /// edge-set sugar gain `d ≥ 3` verdicts and validation. Carries the
    /// relation table so its `O(|Σ|⁴)` derivation runs once per reading.
    Pairwise { alphabet: u16, pairs: Vec<bool> },
}

/// Which 2-d problems generalise to `d`-dimensional tori. Vertex and
/// edge colouring carry over verbatim (the torus graph becomes
/// `2d`-regular; edge labels need `k^d` to fit the label space); block
/// problems carry over exactly when their predicate factors into a
/// single axis-symmetric pair relation (the independent set, kept as its
/// own variant for its dedicated validator, and the general
/// [`DdimSemantics::Pairwise`] case). Orientations, MIS-with-pointers
/// and non-decomposable block LCLs constrain oriented 2×2 windows, which
/// have no canonical d-dimensional counterpart: they have no reading.
pub fn ddim_semantics(problem: &GridProblem, d: usize) -> Option<DdimSemantics> {
    match problem {
        GridProblem::VertexColouring { k } => Some(DdimSemantics::VertexColouring { k: *k }),
        GridProblem::EdgeColouring { k } => {
            // The mixed-radix label encoding must fit: k^d ≤ Label::MAX+1.
            edge_label_encode_d(&vec![0; d], *k).map(|_| DdimSemantics::EdgeColouring { k: *k })
        }
        GridProblem::Block(b) if b.alphabet() == 2 && is_independent_set_block(b) => {
            Some(DdimSemantics::IndependentSet)
        }
        GridProblem::Block(b) => b
            .axis_symmetric_pairs()
            .map(|pairs| DdimSemantics::Pairwise {
                alphabet: b.alphabet(),
                pairs,
            }),
        GridProblem::Orientation { .. } => None,
    }
}

/// True iff a 2-label block LCL is exactly the independent-set predicate
/// (no two adjacent 1s, in both directions).
fn is_independent_set_block(b: &crate::lcl::BlockLcl) -> bool {
    let reference = independent_set();
    (0u16..16).all(|i| {
        let block = [i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1];
        b.block_allowed(block) == reference.block_allowed(block)
    })
}

impl DdimSemantics {
    /// Validates a labelling of a d-dimensional torus with the native
    /// validator of this reading. The error describes the violation.
    pub fn check(&self, torus: &TorusD, labels: &[Label]) -> Result<(), String> {
        let (valid, violation) = match self {
            DdimSemantics::VertexColouring { k } => (
                is_proper_vertex_colouring_d(torus, labels, *k),
                format!("not a proper vertex {k}-colouring"),
            ),
            DdimSemantics::EdgeColouring { k } => (
                is_proper_edge_colouring_d(torus, labels, *k),
                format!("not a proper edge {k}-colouring"),
            ),
            DdimSemantics::IndependentSet => (
                is_independent_set_d(torus, labels),
                "label-1 nodes not independent".to_string(),
            ),
            DdimSemantics::Pairwise { alphabet, pairs } => (
                is_pairwise_valid_d(torus, labels, *alphabet, pairs),
                "an adjacent pair violates the axis relation".to_string(),
            ),
        };
        if valid {
            Ok(())
        } else {
            Err(format!("{violation} on {torus:?}"))
        }
    }

    /// True iff some labelling of the torus passes [`DdimSemantics::check`]:
    /// closed forms for the colourings and the independent set, the exact
    /// pairwise SAT encoder ([`crate::existence::solve_pairwise_d`])
    /// otherwise.
    pub fn solvable(&self, torus: &TorusD) -> bool {
        let (n, d) = (torus.side(), torus.dim());
        match self {
            // The side-1 node is its own neighbour: no colouring is proper.
            DdimSemantics::VertexColouring { .. } | DdimSemantics::EdgeColouring { .. }
                if n == 1 =>
            {
                false
            }
            // χ of a Cartesian product of cycles is the maximum over the
            // factors: 2 for even n, 3 for odd.
            DdimSemantics::VertexColouring { k } => *k >= if n % 2 == 0 { 2 } else { 3 },
            // Fewer colours than the degree 2d never suffice, exactly 2d
            // suffice iff n is even (Theorem 21), and 2d + 1 always do
            // (§10).
            DdimSemantics::EdgeColouring { k } => {
                let k = usize::from(*k);
                k > 2 * d || (k == 2 * d && n % 2 == 0)
            }
            // The empty set.
            DdimSemantics::IndependentSet => true,
            DdimSemantics::Pairwise { alphabet, pairs } => {
                crate::existence::solve_pairwise_d(torus, *alphabet, pairs).is_some()
            }
        }
    }
}

/// Native validator: MIS under the pointer encoding of
/// [`mis_with_pointers`].
pub fn is_mis(torus: &Torus2, labels: &[Label]) -> bool {
    let in_set: Vec<bool> = labels.iter().map(|&l| l == 0).collect();
    torus.is_maximal_independent(lcl_grid::Metric::L1, 1, &in_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcl::GridProblem;

    #[test]
    fn xset_basics() {
        let x = XSet::from_degrees(&[1, 3, 4]);
        assert!(x.contains(1) && x.contains(3) && x.contains(4));
        assert!(!x.contains(0) && !x.contains(2));
        assert_eq!(x.to_string(), "{1,3,4}");
        assert!(x.is_superset(XSet::from_degrees(&[1, 3])));
        assert!(!x.is_superset(XSet::from_degrees(&[0])));
        assert_eq!(XSet::all().count(), 32);
    }

    #[test]
    fn edge_label_roundtrip() {
        for k in [1u16, 3, 5] {
            for e in 0..k {
                for n in 0..k {
                    let l = edge_label_encode(e, n, k);
                    assert_eq!(edge_label_decode(l, k), (e, n));
                }
            }
        }
    }

    #[test]
    fn checkerboard_is_valid_2_colouring() {
        let t = Torus2::square(6);
        let labels: Vec<Label> = t.positions().map(|p| ((p.x + p.y) % 2) as u16).collect();
        assert!(is_proper_vertex_colouring(&t, &labels, 2));
        assert!(vertex_colouring(2).check(&t, &labels).is_ok());
    }

    #[test]
    fn block_checker_matches_native_vertex_validator() {
        // Exhaustive agreement on all 2-colourings of a 3×3 torus (odd, so
        // none are proper — both must agree on that too) and random
        // labellings of a 4×4.
        let t = Torus2::square(3);
        let p = vertex_colouring(2);
        for mask in 0u32..512 {
            let labels: Vec<Label> = (0..9).map(|i| (mask >> i & 1) as u16).collect();
            assert_eq!(
                p.check(&t, &labels).is_ok(),
                is_proper_vertex_colouring(&t, &labels, 2)
            );
        }
    }

    #[test]
    fn orientation_indegree_of_input_orientation() {
        // Label 3 = both east and north pointing away: every node then has
        // in-degree exactly 2 (from its west and south neighbours).
        let t = Torus2::square(5);
        let labels = vec![3u16; 25];
        assert!(orientation_indegrees(&t, &labels).iter().all(|&d| d == 2));
        let p = orientation(XSet::from_degrees(&[2]));
        assert!(p.check(&t, &labels).is_ok());
    }

    #[test]
    fn orientation_block_checker_matches_native() {
        let t = Torus2::square(3);
        let x = XSet::from_degrees(&[0, 3, 4]);
        let p = orientation(x);
        // Random sample of labellings.
        let mut seed = 12345u64;
        for _ in 0..200 {
            let labels: Vec<Label> = (0..9)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((seed >> 33) % 4) as u16
                })
                .collect();
            let native_ok = orientation_indegrees(&t, &labels)
                .iter()
                .all(|&d| x.contains(d));
            assert_eq!(p.check(&t, &labels).is_ok(), native_ok);
        }
    }

    #[test]
    fn mis_pointer_encoding_validates() {
        let p = mis_with_pointers();
        // The (x%2==0 && y%2==0) pattern is NOT an MIS ((1,1)-type nodes
        // have no IN neighbour); the checker must reject any pointer
        // completion of it.
        let t = Torus2::square(4);
        let bad: Vec<Label> = t
            .positions()
            .map(|p| match (p.x % 2, p.y % 2) {
                (0, 0) => 0, // IN
                (1, 0) => 4, // point west
                (0, 1) => 3, // point south
                _ => 4,      // (1,1): west neighbour is OUT — invalid
            })
            .collect();
        assert!(p.check(&t, &bad).is_err());
        assert!(!is_mis(&t, &bad));
        // A genuine MIS: the perfect code {(x,y) : x + 2y ≡ 0 (mod 5)} on
        // a 5×5 torus; every OUT node has exactly one IN neighbour.
        let t5 = Torus2::square(5);
        let good: Vec<Label> = t5
            .positions()
            .map(|q| {
                if (q.x + 2 * q.y) % 5 == 0 {
                    return 0;
                }
                // Point at the unique dominating neighbour: N=1 E=2 S=3 W=4.
                let dirs = [(0i64, 1i64, 1u16), (1, 0, 2), (0, -1, 3), (-1, 0, 4)];
                dirs.iter()
                    .find_map(|&(dx, dy, lab)| {
                        let r = t5.offset(q, dx, dy);
                        (r.x + 2 * r.y).is_multiple_of(5).then_some(lab)
                    })
                    .expect("perfect code dominates")
            })
            .collect();
        assert!(p.check(&t5, &good).is_ok());
        assert!(is_mis(&t5, &good));
    }

    #[test]
    fn independent_set_has_constant_solution() {
        assert_eq!(independent_set().constant_solution(), Some(0));
        assert_eq!(mis_with_pointers().constant_solution(), None);
        assert_eq!(vertex_colouring(9).constant_solution(), None);
    }

    #[test]
    fn edge_label_encode_d_matches_2d_encoding() {
        for k in [4u16, 5] {
            for e in 0..k {
                for n in 0..k {
                    assert_eq!(
                        edge_label_encode_d(&[e, n], k),
                        Some(edge_label_encode(e, n, k))
                    );
                    assert_eq!(
                        edge_label_decode_d(edge_label_encode(e, n, k), k, 2),
                        vec![e, n]
                    );
                }
            }
        }
        // Out-of-range colours and label-space overflow are rejected.
        assert_eq!(edge_label_encode_d(&[4, 0], 4), None);
        assert_eq!(edge_label_encode_d(&[9u16; 5], 10), None);
    }

    #[test]
    fn d_dim_edge_validator_agrees_with_torus2_validator() {
        let td = TorusD::new(2, 4);
        let t2 = Torus2::square(4);
        let k = 5u16;
        let mut seed = 4242u64;
        for _ in 0..300 {
            let labels: Vec<Label> = (0..16)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(11);
                    ((seed >> 33) % (k as u64 * k as u64)) as u16
                })
                .collect();
            assert_eq!(
                is_proper_edge_colouring_d(&td, &labels, k),
                is_proper_edge_colouring(&t2, &labels, k)
            );
        }
    }

    #[test]
    fn d_dim_vertex_validator_checkerboard() {
        let t = TorusD::new(3, 4);
        let good: Vec<Label> = (0..t.node_count())
            .map(|v| (t.pos(v).0.iter().sum::<usize>() % 2) as u16)
            .collect();
        assert!(is_proper_vertex_colouring_d(&t, &good, 2));
        let bad = vec![0u16; t.node_count()];
        assert!(!is_proper_vertex_colouring_d(&t, &bad, 2));
    }

    #[test]
    fn d_dim_independent_set_validator() {
        let t = TorusD::new(3, 4);
        assert!(is_independent_set_d(&t, &vec![0u16; t.node_count()]));
        let sparse: Vec<Label> = (0..t.node_count())
            .map(|v| u16::from(t.pos(v).0.iter().all(|&c| c == 0)))
            .collect();
        assert!(is_independent_set_d(&t, &sparse));
        assert!(!is_independent_set_d(&t, &vec![1u16; t.node_count()]));
        assert!(!is_independent_set_d(&t, &vec![2u16; t.node_count()]));
    }

    #[test]
    fn edge_checker_matches_native_on_samples() {
        let t = Torus2::square(4);
        let k = 5u16;
        let p = GridProblem::EdgeColouring { k };
        let mut seed = 999u64;
        let mut seen_valid = 0;
        for _ in 0..500 {
            let labels: Vec<Label> = (0..16)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
                    ((seed >> 33) % (k as u64 * k as u64)) as u16
                })
                .collect();
            let ok = is_proper_edge_colouring(&t, &labels, k);
            assert_eq!(p.check(&t, &labels).is_ok(), ok);
            seen_valid += ok as u32;
        }
        // Random agreement test is only meaningful if it exercised both
        // branches at least once over the run; validity is rare, so don't
        // require it, but the checker agreement above is the real assert.
        let _ = seen_valid;
    }
}
