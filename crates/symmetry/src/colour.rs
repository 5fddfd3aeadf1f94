//! Linial's colour reduction (Linial 1992).
//!
//! Given a proper `m`-colouring of a graph with maximum degree `Δ` (unique
//! identifiers are a `poly(n)`-colouring), one synchronous round reduces
//! the palette to `q²` colours, where `q` is a prime chosen so that
//! `q > Δ·(d−1)` and `q^d ≥ m` for a digit count `d`. Encoding a colour as
//! a degree-`< d` polynomial over `F_q`, each node picks an evaluation
//! point `a` at which its polynomial differs from all neighbours'
//! polynomials; the pair `(a, f(a))` is the new colour. Iterating reaches
//! a fixpoint palette of `O(Δ²)` colours after `O(log* m)` rounds.

use lcl_grid::Graph;
use lcl_local::Rounds;

/// Result of a colour reduction.
#[derive(Clone, Debug)]
pub struct ColourReduction {
    /// A proper colouring, one colour per node, in `0..palette`.
    pub colours: Vec<u64>,
    /// Size of the final palette.
    pub palette: u64,
    /// Round ledger (one round per reduction step, on the input graph).
    pub rounds: Rounds,
}

/// Smallest prime `≥ n`.
///
/// # Example
///
/// ```
/// assert_eq!(lcl_symmetry::next_prime(24), 29);
/// assert_eq!(lcl_symmetry::next_prime(2), 2);
/// ```
pub fn next_prime(n: u64) -> u64 {
    let mut candidate = n.max(2);
    loop {
        if is_prime(candidate) {
            return candidate;
        }
        candidate += 1;
    }
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// Chooses the reduction parameters `(q, d)` for palette `m` and maximum
/// degree `Δ`, minimising the new palette `q²`. Returns `None` if no choice
/// makes progress (`q² < m`).
fn choose_params(m: u64, max_degree: u64) -> Option<(u64, u32)> {
    let mut best: Option<(u64, u32)> = None;
    for d in 2u32..=16 {
        // q must be prime, q > Δ(d−1), and q^d ≥ m.
        let degree_bound = max_degree.saturating_mul(d as u64 - 1) + 1;
        let size_bound = integer_root_ceil(m, d);
        let q = next_prime(degree_bound.max(size_bound));
        let new_palette = q * q;
        if new_palette < m {
            match best {
                Some((bq, _)) if bq * bq <= new_palette => {}
                _ => best = Some((q, d)),
            }
        }
        // Larger d only helps while the size bound dominates.
        if size_bound <= degree_bound {
            break;
        }
    }
    best
}

/// Smallest `r` with `r^d ≥ m`.
fn integer_root_ceil(m: u64, d: u32) -> u64 {
    if m <= 1 {
        return 1;
    }
    let mut r = (m as f64).powf(1.0 / d as f64).floor() as u64;
    while pow_saturating(r, d) < m {
        r += 1;
    }
    while r > 1 && pow_saturating(r - 1, d) >= m {
        r -= 1;
    }
    r
}

fn pow_saturating(base: u64, exp: u32) -> u64 {
    let mut acc: u64 = 1;
    for _ in 0..exp {
        acc = acc.saturating_mul(base);
    }
    acc
}

/// Evaluates the polynomial whose base-`q` digits are those of `colour`
/// (little-endian), at point `a`, over `F_q`.
#[inline]
fn poly_eval(colour: u64, q: u64, d: u32, a: u64) -> u64 {
    // Horner's rule over the d digits, most significant first.
    let mut digits = [0u64; 16];
    let mut c = colour;
    for digit in digits.iter_mut().take(d as usize) {
        *digit = c % q;
        c /= q;
    }
    let mut acc = 0u64;
    for i in (0..d as usize).rev() {
        acc = (acc * a + digits[i]) % q;
    }
    acc
}

/// Reduces the proper colouring given by unique `ids` to an `O(Δ²)`
/// palette in `O(log* n)` reduction rounds.
///
/// The input identifiers may be arbitrary distinct `u64`s; they are
/// compressed to `0..m` first (order-preserving, zero rounds: each node
/// knows `n` and can interpret its identifier, per §3).
///
/// # Panics
///
/// Panics if `ids` are not distinct per edge (the input must be a proper
/// colouring, which unique identifiers always are).
pub fn linial_colour<G: Graph>(graph: &G, ids: &[u64]) -> ColourReduction {
    assert_eq!(ids.len(), graph.node_count());
    let max_degree = graph.max_degree() as u64;
    let mut rounds = Rounds::new();

    // Palette = id space. We do not compress identifiers: the algorithm
    // only needs an upper bound on the palette, and poly(n) id spaces are
    // what Linial's bound is stated for.
    let mut palette: u64 = ids.iter().copied().max().unwrap_or(0) + 1;
    let mut colours: Vec<u64> = ids.to_vec();

    let mut steps = 0u64;
    let mut nbr_colours = Vec::with_capacity(max_degree as usize);
    while let Some((q, d)) = choose_params(palette, max_degree) {
        let mut next = vec![0u64; colours.len()];
        for v in 0..graph.node_count() {
            let cv = colours[v];
            nbr_colours.clear();
            graph.for_each_neighbour(v, &mut |u| nbr_colours.push(colours[u]));
            debug_assert!(
                nbr_colours.iter().all(|&cu| cu != cv),
                "input colouring must be proper"
            );
            // Pick the smallest evaluation point separating v from all
            // neighbours; existence is guaranteed since q > Δ(d−1).
            let mut chosen = None;
            'points: for a in 0..q {
                let fv = poly_eval(cv, q, d, a);
                for &cu in &nbr_colours {
                    if poly_eval(cu, q, d, a) == fv {
                        continue 'points;
                    }
                }
                chosen = Some((a, fv));
                break;
            }
            let (a, fa) = chosen.expect("separating point must exist when q > Δ(d−1)");
            next[v] = a * q + fa;
        }
        colours = next;
        palette = q * q;
        steps += 1;
        debug_assert!(steps < 64, "colour reduction must terminate");
    }
    rounds.charge("linial-reduction", steps);
    ColourReduction {
        colours,
        palette,
        rounds,
    }
}

/// Kuhn–Wattenhofer colour reduction: reduces any proper `m`-colouring to
/// `Δ+1` colours in `O((Δ+1)·log(m/Δ))` rounds by divide and conquer —
/// colours are split into groups of `2(Δ+1)`, each group is greedily
/// reduced to `Δ+1` colours in parallel (one colour class per round), and
/// the process repeats on the shrunken palette.
///
/// Combined with [`linial_colour`], this gives the standard
/// `O(Δ² + log* n)`-round pipeline to a `(Δ+1)`-colouring whose round
/// ledger is flat in `n` beyond the `log* n` term.
pub fn kw_reduce<G: Graph>(graph: &G, reduction: ColourReduction) -> ColourReduction {
    let delta = graph.max_degree() as u64;
    let target = delta + 1;
    let mut colours = reduction.colours;
    let mut palette = reduction.palette;
    let mut rounds = reduction.rounds;
    let n = colours.len();
    // Each node's colour split into its group and its in-group index,
    // so the neighbour scans below divide nothing.
    let mut group = vec![0u64; n];
    let mut index = vec![0u64; n];
    // `classes[c]`: the nodes whose in-group index is `target + c`.
    let mut classes: Vec<Vec<usize>> = vec![Vec::new(); target as usize];
    // `used[i] == stamp` iff in-group index `i` is taken by a neighbour
    // of the node being recoloured; a fresh stamp per node clears it.
    let mut used = vec![0u64; target as usize];
    let mut stamp = 0u64;
    while palette > target {
        let group_size = 2 * target;
        let groups = palette.div_ceil(group_size);
        for class in &mut classes {
            class.clear();
        }
        for (v, &c) in colours.iter().enumerate() {
            group[v] = c / group_size;
            index[v] = c % group_size;
            if index[v] >= target {
                classes[(index[v] - target) as usize].push(v);
            }
        }
        // Within each group, colours [0, target) keep their index; the
        // rest are recoloured one class at a time. The nodes of a class
        // that share a group share a colour, so they are pairwise
        // non-adjacent, and recolouring never changes a node's group:
        // the live indices read here are those at the start of the round.
        for class in &classes {
            for &v in class {
                stamp += 1;
                let g = group[v];
                graph.for_each_neighbour(v, &mut |u| {
                    if group[u] == g && index[u] < target {
                        used[index[u] as usize] = stamp;
                    }
                });
                index[v] = (0..target)
                    .find(|&i| used[i as usize] != stamp)
                    .expect("a group holds at most Δ in-group neighbours");
            }
            rounds.charge("kw-reduction", 1);
        }
        // Compact: group g, index i → g·target + i.
        for (v, c) in colours.iter_mut().enumerate() {
            debug_assert!(index[v] < target);
            *c = group[v] * target + index[v];
        }
        palette = groups * target;
    }
    ColourReduction {
        colours,
        palette,
        rounds,
    }
}

/// The full pipeline: Linial reduction followed by Kuhn–Wattenhofer, down
/// to a `(Δ+1)`-colouring in `O(Δ log Δ + log* n)` rounds.
pub fn colour_delta_plus_one<G: Graph>(graph: &G, ids: &[u64]) -> ColourReduction {
    kw_reduce(graph, linial_colour(graph, ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcl_grid::{CycleGraph, Graph, Power2, Torus2};
    use lcl_local::IdAssignment;

    fn assert_proper<G: Graph>(graph: &G, colours: &[u64]) {
        for v in 0..graph.node_count() {
            graph.for_each_neighbour(v, &mut |u| {
                assert_ne!(colours[v], colours[u], "edge ({v},{u}) monochromatic");
            });
        }
    }

    #[test]
    fn primes() {
        assert!(is_prime(2));
        assert!(is_prime(97));
        assert!(!is_prime(1));
        assert!(!is_prime(91));
        assert_eq!(next_prime(90), 97);
    }

    #[test]
    fn integer_roots() {
        assert_eq!(integer_root_ceil(1_000_000, 2), 1000);
        assert_eq!(integer_root_ceil(1_000_001, 2), 1001);
        assert_eq!(integer_root_ceil(8, 3), 2);
        assert_eq!(integer_root_ceil(9, 3), 3);
    }

    #[test]
    fn poly_eval_is_base_q_digits() {
        // colour 13 in base 5 with d=2: digits [3, 2]; f(x) = 3 + 2x.
        assert_eq!(poly_eval(13, 5, 2, 0), 3);
        assert_eq!(poly_eval(13, 5, 2, 1), 0); // 5 mod 5
        assert_eq!(poly_eval(13, 5, 2, 2), 2); // 7 mod 5
    }

    #[test]
    fn reduces_cycle_to_constant_palette() {
        let g = CycleGraph::new(500);
        let ids = IdAssignment::Shuffled { seed: 1 }.materialise(500);
        let r = linial_colour(&g, &ids);
        assert_proper(&g, &r.colours);
        assert!(r.palette <= 49, "palette {} too large for Δ=2", r.palette);
        assert!(r.colours.iter().all(|&c| c < r.palette));
        // log*-ish number of reduction rounds.
        assert!(r.rounds.total() <= 6, "took {} rounds", r.rounds.total());
    }

    #[test]
    fn reduces_torus_to_constant_palette() {
        let t = Torus2::square(20);
        let ids = IdAssignment::Shuffled { seed: 2 }.materialise(400);
        let r = linial_colour(&t, &ids);
        assert_proper(&t, &r.colours);
        assert!(r.palette <= 121, "palette {} too large for Δ=4", r.palette);
    }

    #[test]
    fn reduces_power_graph() {
        let t = Torus2::square(16);
        let p = Power2::new(t, lcl_grid::Metric::L1, 2);
        let ids = IdAssignment::Shuffled { seed: 3 }.materialise(256);
        let r = linial_colour(&p, &ids);
        assert_proper(&p, &r.colours);
        // Δ(G^(2)) = 12, so palette is O(Δ²) — comfortably below 2000.
        assert!(r.palette <= 2000, "palette {}", r.palette);
    }

    #[test]
    fn rounds_grow_like_log_star() {
        // The number of reduction steps on a cycle must not grow between
        // n = 100 and n = 10000 by more than 2 (log* growth).
        let steps = |n: usize| {
            let g = CycleGraph::new(n);
            let ids = IdAssignment::Shuffled { seed: 9 }.materialise(n);
            linial_colour(&g, &ids).rounds.total()
        };
        assert!(steps(10_000) <= steps(100) + 2);
    }

    #[test]
    fn kw_reaches_delta_plus_one() {
        let t = Torus2::square(24);
        let ids = IdAssignment::Shuffled { seed: 5 }.materialise(24 * 24);
        let r = crate::colour_delta_plus_one(&t, &ids);
        assert_proper(&t, &r.colours);
        assert_eq!(r.palette, 5, "Δ+1 = 5 on the torus");
        assert!(r.colours.iter().all(|&c| c < 5));
    }

    #[test]
    fn kw_rounds_flat_in_n() {
        let rounds = |n: usize| {
            let t = Torus2::square(n);
            let ids = IdAssignment::Shuffled { seed: 5 }.materialise(n * n);
            crate::colour_delta_plus_one(&t, &ids).rounds.total()
        };
        let a = rounds(16);
        let b = rounds(48);
        // Only the log* Linial term and one or two KW levels may grow.
        assert!(b <= a + 16, "rounds grew too fast: {a} -> {b}");
    }

    #[test]
    fn kw_on_power_graph() {
        let t = Torus2::square(18);
        let p = Power2::new(t, lcl_grid::Metric::L1, 3);
        let ids = IdAssignment::Shuffled { seed: 6 }.materialise(18 * 18);
        let r = crate::colour_delta_plus_one(&p, &ids);
        assert_proper(&p, &r.colours);
        assert_eq!(r.palette, p.max_degree() as u64 + 1);
    }

    #[test]
    fn sparse_id_spaces_are_handled() {
        let g = CycleGraph::new(64);
        let ids = IdAssignment::Sparse {
            seed: 4,
            spread: 1000,
        }
        .materialise(64);
        let r = linial_colour(&g, &ids);
        assert_proper(&g, &r.colours);
        assert!(r.palette <= 49);
    }
}
