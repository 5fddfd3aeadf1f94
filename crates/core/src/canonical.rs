//! Canonical forms of block LCLs under label and grid symmetries.
//!
//! Two block normal-form problems that differ only by a renaming of the
//! alphabet, by swapping the grid axes (transpose), or by reflecting an
//! axis describe *the same* LCL up to an isomorphism of the oriented
//! torus: a valid labelling of one maps bijectively to a valid labelling
//! of the other by relabelling outputs and directions, so solvability on
//! every torus and the deterministic round complexity (§5–§7) are
//! preserved. Dead labels — labels that occur in no allowed block
//! (`L001` in `lcl-analyze` terms) — can likewise be dropped without
//! changing the problem, which is the robustness observation behind the
//! engine's content-addressed plan keys.
//!
//! This module makes that equivalence executable. It fixes, for every
//! block LCL with at most [`MAX_ALPHABET`] *live* labels, a unique
//! canonical representative:
//!
//! 1. drop dead labels and renumber the survivors `0..a` in increasing
//!    order;
//! 2. encode the allowed set as a bitmask over all `a⁴` blocks
//!    (`[sw, se, nw, ne]` indexed base-`a`, see [`block_index`]);
//! 3. minimise the bitmask over the full symmetry group — the eight
//!    geometric symmetries of the square (generated by transpose and
//!    horizontal reflection) acting on window positions, times all `a!`
//!    label permutations.
//!
//! The canonical representative is the orbit element with the smallest
//! bitmask, so `canonical(P) == canonical(Q)` iff `P` and `Q` are
//! equivalent, and a problem equals its own canonical form iff it is the
//! orbit minimum. The census enumerator in `lcl-atlas` exploits exactly
//! this: it walks raw bitmasks in increasing order and emits a table iff
//! it *is* its canonical form, visiting each equivalence class exactly
//! once without materialising orbits.
//!
//! [`census_name`] derives the content-addressed identity
//! `atlas-a{alphabet}-{hash:016x}` from the canonical form; it is the
//! primary key of the atlas artifact and of the engine's census lookup
//! table.

use crate::lcl::{Block, BlockLcl, Label};
use std::sync::OnceLock;

/// Largest alphabet the canonicaliser supports: `3⁴ = 81` block indices
/// fit a `u128` bitmask, `4⁴ = 256` would not. Problems with more than
/// `MAX_ALPHABET` *live* labels have no canonical form here and the
/// canonicalising entry points return `None` for them.
pub const MAX_ALPHABET: u16 = 3;

/// The eight geometric symmetries of the 2×2 window, as permutations of
/// the position indices `[sw, se, nw, ne]` = `[0, 1, 2, 3]`: the
/// transformed block is `b'[p] = b[perm[p]]`. Generated by the transpose
/// `(x,y) ↦ (y,x)` and the horizontal reflection `x ↦ 1−x`; closing
/// those two involutions under composition yields the dihedral group of
/// the square (identity, three rotations, two axis reflections, two
/// diagonal reflections).
const GEOMETRY: [[usize; 4]; 8] = [
    [0, 1, 2, 3], // identity
    [0, 2, 1, 3], // transpose (main diagonal)
    [1, 0, 3, 2], // horizontal reflection
    [2, 3, 0, 1], // vertical reflection
    [1, 3, 0, 2], // rotation 90°
    [3, 2, 1, 0], // rotation 180°
    [2, 0, 3, 1], // rotation 270°
    [3, 1, 2, 0], // anti-transpose (anti-diagonal)
];

/// Index of a block in the base-`alphabet` enumeration:
/// `((sw·a + se)·a + nw)·a + ne`. Inverse of [`block_at`].
///
/// # Panics
///
/// Panics if the alphabet exceeds [`MAX_ALPHABET`] or a label is outside
/// it.
pub fn block_index(alphabet: u16, block: Block) -> u32 {
    assert!(
        (1..=MAX_ALPHABET).contains(&alphabet),
        "alphabet {alphabet} outside 1..={MAX_ALPHABET}"
    );
    let a = u32::from(alphabet);
    block.iter().fold(0, |acc, &l| {
        assert!(l < alphabet, "label {l} outside alphabet {alphabet}");
        acc * a + u32::from(l)
    })
}

/// The block at a base-`alphabet` index; inverse of [`block_index`].
pub fn block_at(alphabet: u16, index: u32) -> Block {
    let a = u32::from(alphabet);
    debug_assert!(index < a.pow(4));
    let ne = (index % a) as Label;
    let nw = ((index / a) % a) as Label;
    let se = ((index / (a * a)) % a) as Label;
    let sw = ((index / (a * a * a)) % a) as Label;
    [sw, se, nw, ne]
}

/// Encodes an allowed set as a bitmask over all `alphabet⁴` block
/// indices, or `None` if the alphabet exceeds [`MAX_ALPHABET`].
pub fn table_bits(lcl: &BlockLcl) -> Option<u128> {
    if lcl.alphabet() > MAX_ALPHABET {
        return None;
    }
    let mut bits = 0u128;
    for block in lcl.allowed_blocks() {
        bits |= 1 << block_index(lcl.alphabet(), block);
    }
    Some(bits)
}

/// Decodes a block-index bitmask back into a [`BlockLcl`].
pub fn lcl_from_bits(alphabet: u16, bits: u128) -> BlockLcl {
    let mut lcl = BlockLcl::new(alphabet);
    let mut rest = bits;
    while rest != 0 {
        let i = rest.trailing_zeros();
        lcl.allow(block_at(alphabet, i));
        rest &= rest - 1;
    }
    lcl
}

/// Number of distinct labels that occur in some set bit of a
/// base-`alphabet` block bitmask.
pub fn live_label_count(alphabet: u16, bits: u128) -> u16 {
    let mut seen = [false; MAX_ALPHABET as usize];
    let mut rest = bits;
    while rest != 0 {
        let i = rest.trailing_zeros();
        for l in block_at(alphabet, i) {
            seen[usize::from(l)] = true;
        }
        rest &= rest - 1;
    }
    seen.iter().filter(|&&s| s).count() as u16
}

/// The symmetry group of a fixed alphabet, precomputed as permutations
/// of the `alphabet⁴` block indices. Build one per alphabet and reuse it
/// across many bitmasks — the census enumerator calls
/// [`SymmetryGroup::is_canonical`] once per raw subset.
#[derive(Clone, Debug)]
pub struct SymmetryGroup {
    alphabet: u16,
    /// One block-index permutation per distinct group action (geometry ×
    /// label permutation, deduplicated — for alphabet 1 all eight
    /// geometries act identically).
    index_perms: Vec<Vec<u32>>,
}

impl SymmetryGroup {
    /// Builds the group for `alphabet` ∈ `1..=MAX_ALPHABET`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabet is 0 or exceeds [`MAX_ALPHABET`].
    pub fn new(alphabet: u16) -> SymmetryGroup {
        assert!(
            (1..=MAX_ALPHABET).contains(&alphabet),
            "alphabet {alphabet} outside 1..={MAX_ALPHABET}"
        );
        let n = u32::from(alphabet).pow(4);
        let mut index_perms: Vec<Vec<u32>> = Vec::new();
        for geometry in &GEOMETRY {
            for label_perm in label_permutations(alphabet) {
                let perm: Vec<u32> = (0..n)
                    .map(|i| {
                        let b = block_at(alphabet, i);
                        let moved: Block =
                            [0, 1, 2, 3].map(|p| label_perm[usize::from(b[geometry[p]])]);
                        block_index(alphabet, moved)
                    })
                    .collect();
                index_perms.push(perm);
            }
        }
        index_perms.sort_unstable();
        index_perms.dedup();
        SymmetryGroup {
            alphabet,
            index_perms,
        }
    }

    /// The alphabet this group acts on.
    pub fn alphabet(&self) -> u16 {
        self.alphabet
    }

    /// Number of *distinct* block-index permutations (≤ `8 · alphabet!`).
    pub fn len(&self) -> usize {
        self.index_perms.len()
    }

    /// Groups are never empty (the identity is always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The minimum of the orbit of `bits` under the group — the
    /// canonical representative of its equivalence class at this
    /// alphabet (label-live or not; dead-label pruning happens in
    /// [`canonical_form`]).
    pub fn canonical_bits(&self, bits: u128) -> u128 {
        self.index_perms
            .iter()
            .map(|perm| apply_index_perm(perm, bits))
            .min()
            .unwrap_or(bits)
    }

    /// True iff `bits` is the minimum of its own orbit. Equivalent to
    /// `bits == self.canonical_bits(bits)` but exits early on the first
    /// smaller image.
    pub fn is_canonical(&self, bits: u128) -> bool {
        self.index_perms
            .iter()
            .all(|perm| apply_index_perm(perm, bits) >= bits)
    }

    /// The orbit size of `bits` — how many distinct tables are
    /// equivalent to it at this alphabet. Summed over the canonical
    /// representatives of a census frontier this recovers the raw
    /// (pre-dedup) table count, which is how the census audits that its
    /// symmetry quotient dropped nothing.
    pub fn orbit_size(&self, bits: u128) -> u64 {
        let mut images: Vec<u128> = self
            .index_perms
            .iter()
            .map(|perm| apply_index_perm(perm, bits))
            .collect();
        images.sort_unstable();
        images.dedup();
        images.len() as u64
    }
}

fn apply_index_perm(perm: &[u32], bits: u128) -> u128 {
    let mut out = 0u128;
    let mut rest = bits;
    while rest != 0 {
        let i = rest.trailing_zeros();
        out |= 1 << perm[i as usize];
        rest &= rest - 1;
    }
    out
}

/// All permutations of `0..alphabet` (at most `3! = 6`), each as a
/// lookup table `label ↦ permuted label`.
fn label_permutations(alphabet: u16) -> Vec<Vec<Label>> {
    let mut perms = Vec::new();
    let mut current: Vec<Label> = (0..alphabet).collect();
    heap_permutations(&mut current, alphabet as usize, &mut perms);
    perms
}

fn heap_permutations(current: &mut Vec<Label>, k: usize, out: &mut Vec<Vec<Label>>) {
    if k <= 1 {
        out.push(current.clone());
        return;
    }
    for i in 0..k {
        heap_permutations(current, k - 1, out);
        if k.is_multiple_of(2) {
            current.swap(i, k - 1);
        } else {
            current.swap(0, k - 1);
        }
    }
}

/// The canonical representative of `lcl`'s equivalence class: dead
/// labels dropped and survivors renumbered in increasing order, then the
/// orbit minimum over geometry × label permutations. Returns `None` when
/// more than [`MAX_ALPHABET`] labels are live. A table with *no* live
/// labels (the unsolvable empty problem, at any alphabet) canonicalises
/// to the empty problem over a single label.
pub fn canonical_form(lcl: &BlockLcl) -> Option<BlockLcl> {
    let live = lcl.live_labels();
    if live.is_empty() {
        return Some(BlockLcl::new(1));
    }
    if live.len() > usize::from(MAX_ALPHABET) {
        return None;
    }
    let alphabet = live.len() as u16;
    // Renumber the live labels compactly; the subsequent orbit
    // minimisation ranges over all label permutations anyway, so any
    // order-preserving renumbering yields the same canonical form.
    let mut renumber = vec![Label::MAX; usize::from(lcl.alphabet())];
    for (new, &old) in live.iter().enumerate() {
        renumber[usize::from(old)] = new as Label;
    }
    let mut bits = 0u128;
    for block in lcl.allowed_blocks() {
        let moved: Block = block.map(|l| renumber[usize::from(l)]);
        bits |= 1 << block_index(alphabet, moved);
    }
    let group = shared_group(alphabet);
    Some(lcl_from_bits(alphabet, group.canonical_bits(bits)))
}

/// The [`SymmetryGroup`] of `alphabet`, built once per process: census
/// enumeration canonicalises one table per emitted problem.
fn shared_group(alphabet: u16) -> &'static SymmetryGroup {
    static GROUPS: [OnceLock<SymmetryGroup>; MAX_ALPHABET as usize] =
        [const { OnceLock::new() }; MAX_ALPHABET as usize];
    GROUPS[usize::from(alphabet) - 1].get_or_init(|| SymmetryGroup::new(alphabet))
}

/// A stable 64-bit FNV-1a hash: the content address behind census names,
/// the engine's synthesis and plan cache keys, and batch dedup keys
/// (`DefaultHasher` has no cross-release stability guarantee, which
/// would silently change the checked-in census artifact).
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content hash of a block table: FNV-1a over the alphabet followed
/// by the sorted allowed blocks, every value in little-endian `u16`
/// bytes — byte-compatible with the engine's content-addressed plan
/// keys.
pub fn content_hash(lcl: &BlockLcl) -> u64 {
    let alphabet = lcl.alphabet();
    let blocks = lcl.sorted_blocks();
    fnv1a64(
        std::iter::once(alphabet)
            .chain(blocks.into_iter().flatten())
            .flat_map(u16::to_le_bytes),
    )
}

/// The census identity of a problem: `atlas-a{alphabet}-{hash:016x}`,
/// where both fields describe the *canonical form* — alphabet counts the
/// live labels of the canonical representative and the hash is its
/// [`content_hash`]. Equivalent problems (label-permuted, transposed,
/// reflected, or padded with dead labels) map to the same name; `None`
/// when more than [`MAX_ALPHABET`] labels are live.
pub fn census_name(lcl: &BlockLcl) -> Option<String> {
    let canonical = canonical_form(lcl)?;
    Some(format!(
        "atlas-a{}-{:016x}",
        canonical.alphabet(),
        content_hash(&canonical)
    ))
}

/// Renames labels through `perm` (a bijection given as `old ↦
/// perm[old]`): the block `[sw, se, nw, ne]` becomes `[perm[sw], …]`.
/// Produces an equivalent problem; useful for tests and for exercising
/// the collapse property.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..alphabet`.
pub fn relabel(lcl: &BlockLcl, perm: &[Label]) -> BlockLcl {
    let a = usize::from(lcl.alphabet());
    assert_eq!(perm.len(), a, "permutation length must match alphabet");
    let mut seen = vec![false; a];
    for &p in perm {
        assert!(
            usize::from(p) < a && !seen[usize::from(p)],
            "not a permutation"
        );
        seen[usize::from(p)] = true;
    }
    map_blocks(lcl, |b| b.map(|l| perm[usize::from(l)]))
}

/// Swaps the grid axes: the window `[sw, se, nw, ne]` becomes
/// `[sw, nw, se, ne]`. Valid labellings transpose along with the
/// problem, so this is an equivalence.
pub fn transpose(lcl: &BlockLcl) -> BlockLcl {
    map_blocks(lcl, |[sw, se, nw, ne]| [sw, nw, se, ne])
}

/// Reflects the horizontal axis (`x ↦ −x`): `[sw, se, nw, ne]` becomes
/// `[se, sw, ne, nw]`.
pub fn reflect_h(lcl: &BlockLcl) -> BlockLcl {
    map_blocks(lcl, |[sw, se, nw, ne]| [se, sw, ne, nw])
}

/// Reflects the vertical axis (`y ↦ −y`): `[sw, se, nw, ne]` becomes
/// `[nw, ne, sw, se]`.
pub fn reflect_v(lcl: &BlockLcl) -> BlockLcl {
    map_blocks(lcl, |[sw, se, nw, ne]| [nw, ne, sw, se])
}

fn map_blocks(lcl: &BlockLcl, f: impl Fn(Block) -> Block) -> BlockLcl {
    let mut out = BlockLcl::new(lcl.alphabet());
    for block in lcl.allowed_blocks() {
        out.allow(f(block));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripes() -> BlockLcl {
        // Horizontal stripes: rows constant, vertical neighbours differ.
        BlockLcl::from_predicate(2, |[sw, se, nw, ne]| sw == se && nw == ne && sw != nw)
    }

    #[test]
    fn block_index_roundtrips() {
        for a in 1..=MAX_ALPHABET {
            for i in 0..u32::from(a).pow(4) {
                assert_eq!(block_index(a, block_at(a, i)), i);
            }
        }
    }

    #[test]
    fn geometry_is_the_dihedral_group() {
        // The table is closed under composition, contains the identity,
        // and every element has an inverse — and there are exactly 8.
        let compose = |f: &[usize; 4], g: &[usize; 4]| [0, 1, 2, 3].map(|p| f[g[p]]);
        for f in &GEOMETRY {
            for g in &GEOMETRY {
                let fg = compose(f, g);
                assert!(GEOMETRY.contains(&fg), "not closed: {f:?}∘{g:?}={fg:?}");
            }
            assert!(GEOMETRY.iter().any(|g| compose(f, g) == [0, 1, 2, 3]));
        }
        let mut unique = GEOMETRY.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn group_sizes() {
        assert_eq!(SymmetryGroup::new(1).len(), 1);
        assert_eq!(SymmetryGroup::new(2).len(), 16);
        assert_eq!(SymmetryGroup::new(3).len(), 48);
    }

    #[test]
    fn canonical_bits_is_an_orbit_invariant() {
        let group = SymmetryGroup::new(2);
        // A deterministic pseudo-random walk over 16-bit masks.
        let mut x: u32 = 0x9e37;
        for _ in 0..500 {
            x = x.wrapping_mul(0x2545_f491).wrapping_add(0x3b9a);
            let bits = u128::from(x & 0xffff);
            let canon = group.canonical_bits(bits);
            assert_eq!(group.canonical_bits(canon), canon, "idempotent");
            assert!(group.is_canonical(canon));
            for perm in &group.index_perms {
                let image = apply_index_perm(perm, bits);
                assert_eq!(group.canonical_bits(image), canon, "orbit invariant");
            }
        }
    }

    #[test]
    fn equivalent_presentations_collapse() {
        let stripes = stripes();
        // Vertical stripes = transpose of horizontal stripes.
        let columns =
            BlockLcl::from_predicate(2, |[sw, se, nw, ne]| sw == nw && se == ne && sw != se);
        assert_eq!(census_name(&stripes), census_name(&transpose(&stripes)));
        assert_eq!(census_name(&stripes), census_name(&columns));
        assert_eq!(census_name(&stripes), census_name(&reflect_h(&stripes)));
        assert_eq!(census_name(&stripes), census_name(&reflect_v(&stripes)));
        assert_eq!(
            census_name(&stripes),
            census_name(&relabel(&stripes, &[1, 0]))
        );
        // And a distinct problem gets a distinct name.
        let free = BlockLcl::from_predicate(2, |_| true);
        assert_ne!(census_name(&stripes), census_name(&free));
    }

    #[test]
    fn dead_labels_are_pruned() {
        // Alphabet 3, but label 1 never occurs: equivalent to the
        // 2-label version of the same table.
        let mut padded = BlockLcl::new(3);
        padded.allow([0, 0, 2, 2]);
        padded.allow([2, 2, 0, 0]);
        let mut tight = BlockLcl::new(2);
        tight.allow([0, 0, 1, 1]);
        tight.allow([1, 1, 0, 0]);
        let canon = canonical_form(&padded).unwrap();
        assert_eq!(canon.alphabet(), 2);
        assert_eq!(census_name(&padded), census_name(&tight));
    }

    #[test]
    fn empty_tables_collapse_to_alphabet_one() {
        let canon = canonical_form(&BlockLcl::new(7)).unwrap();
        assert_eq!(canon.alphabet(), 1);
        assert_eq!(canon.allowed_count(), 0);
        assert_eq!(
            census_name(&BlockLcl::new(7)),
            census_name(&BlockLcl::new(1))
        );
    }

    #[test]
    fn large_live_alphabets_are_refused() {
        let four = BlockLcl::from_predicate(4, |[sw, se, nw, ne]| {
            sw != se && nw != ne && sw != nw && se != ne
        });
        assert_eq!(canonical_form(&four), None);
        assert_eq!(census_name(&four), None);
        assert_eq!(table_bits(&four), None);
    }

    #[test]
    fn live_label_count_matches_lcl() {
        let stripes = stripes();
        let bits = table_bits(&stripes).unwrap();
        assert_eq!(live_label_count(2, bits), 2);
        assert_eq!(live_label_count(2, 0), 0);
        assert_eq!(live_label_count(1, 1), 1);
    }
}
