//! Golden outputs of the grid-power MIS and the `(Δ+1)`-colouring.
//!
//! Every speed-up of the power-graph neighbourhoods or of the Linial /
//! Kuhn–Wattenhofer reduction must leave the computed sets, colourings
//! and round ledgers bit-for-bit unchanged. Each case hashes the MIS
//! bitmap, its round total, the colours, the palette and the colouring's
//! round total, and compares against constants recorded before those
//! optimisations.

use lcl_grid::{Metric, Power2, Torus2};
use lcl_local::IdAssignment;
use lcl_symmetry::{colour_delta_plus_one, mis_torus_power};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn case_hash(torus: Torus2, metric: Metric, k: usize, seed: u64) -> u64 {
    let ids = IdAssignment::Shuffled { seed }.materialise(torus.node_count());
    let mut h = Fnv::new();
    let run = mis_torus_power(&torus, metric, k, &ids);
    assert!(torus.is_maximal_independent(metric, k, &run.in_mis));
    for &b in &run.in_mis {
        h.bytes(&[u8::from(b)]);
    }
    h.u64(run.rounds.total());
    let reduction = colour_delta_plus_one(&Power2::new(torus, metric, k), &ids);
    for &c in &reduction.colours {
        h.u64(c);
    }
    h.u64(reduction.palette);
    h.u64(reduction.rounds.total());
    h.0
}

/// `(width, height, metric, k, seed, hash)`. The cases cover both metrics,
/// non-square tori, balls that wrap around a side (`2k ≥ side`) and
/// degrees in the hundreds (L∞ k = 7: Δ = 224; L1 k = 10: Δ = 220).
const GOLDEN: &[(usize, usize, Metric, usize, u64, u64)] = &[
    (16, 16, Metric::L1, 2, 1, 0x12ea6d243d322f09),
    (16, 16, Metric::L1, 2, 2, 0x18a41611ec9d9bda),
    (20, 20, Metric::Linf, 2, 1, 0x2e53a58a4d746201),
    (20, 20, Metric::Linf, 2, 2, 0xf990062cc5374574),
    (18, 11, Metric::L1, 3, 1, 0x098cfc2549d755fd),
    (18, 11, Metric::L1, 3, 2, 0x3f36890260cacf0d),
    (13, 22, Metric::Linf, 2, 1, 0x0d31d47e8e9839fd),
    (13, 22, Metric::Linf, 2, 2, 0x41f9fb853263b93d),
    (9, 9, Metric::L1, 5, 1, 0x9489c626f74f2cc7),
    (9, 9, Metric::L1, 5, 2, 0x56906e9d468400e7),
    (7, 12, Metric::Linf, 4, 1, 0x5b680ea1a4f062fc),
    (7, 12, Metric::Linf, 4, 2, 0x718c126270348822),
    (30, 30, Metric::Linf, 7, 1, 0x4966b1e7fe13d5a3),
    (30, 30, Metric::Linf, 7, 2, 0x152e170d64a4ab74),
    (32, 32, Metric::L1, 10, 1, 0x31f862ba37cd17a5),
    (32, 32, Metric::L1, 10, 2, 0xddc4d5679531b9fc),
];

#[test]
fn power_mis_and_colouring_match_golden_hashes() {
    let mut mismatches = Vec::new();
    for &(w, h, metric, k, seed, expected) in GOLDEN {
        let got = case_hash(Torus2::rect(w, h), metric, k, seed);
        if got != expected {
            mismatches.push(format!(
                "({w}, {h}, Metric::{metric:?}, {k}, {seed}, {got:#018x}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "changed outputs:\n{}",
        mismatches.join("\n")
    );
}
