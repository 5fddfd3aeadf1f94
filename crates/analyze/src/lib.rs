//! # lcl-analyze
//!
//! Static analysis for LCL problem definitions: a semantic lint over the
//! [`lcl_lang`] AST plus an abstract-interpretation pass over the
//! compiled block normal form of [`lcl_core::lcl::BlockLcl`].
//!
//! The paper's classification results rest on properties of the block
//! normal form that are *statically* computable — whether a label can
//! occur at all, whether any labelling exists on any torus, whether the
//! uniform labelling is valid, whether the 2×2 predicate factors into
//! per-axis pair relations. This crate computes them once, up front, and
//! reports them as stable, span-carrying diagnostics:
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | `L001` | warning | dead label: occurs in no allowed block (pruned) |
//! | `L002` | error   | statically unsolvable: the arc-consistency closure empties |
//! | `L003` | note    | trivially constant-solvable (`O(1)`) |
//! | `L004` | warning | clause shadowed by an earlier clause |
//! | `L005` | note    | axis-decomposable into pair relations |
//! | `L006` | note    | invariant under horizontal/vertical transpose |
//!
//! The entry points are [`compile`] (parse + compile + analyse one
//! source, the `lclc --lint` and `ProblemSpec::compile` route),
//! [`analyze_def`] (an already-parsed definition), and [`analyze_block`]
//! (a bare block table with no source provenance — the engine runs this
//! at `prepare` time). [`Analysis`] renders as caret-annotated text
//! ([`Analysis::render_text`]) or as a JSON report
//! ([`Analysis::to_json`]), and carries the machine-facing verdicts the
//! engine consumes: the [`UnsolvableCertificate`] behind an `L002`, the
//! constant label behind an `L003`, and the live-label set behind an
//! `L001`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;

pub use diag::{Code, Diagnostic, Severity};

use lcl_core::lcl::{Block, BlockLcl};
use lcl_core::Label;
use lcl_lang::ast::{Cell, ClauseKind, Dir, Polarity, ProblemDef};
use lcl_lang::{CompiledLcl, LangError, Span};
use lcl_trace::json::Json;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// The four sides on which a block may fail to extend during the
/// arc-consistency closure (certificate vocabulary for `L002`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxisDir {
    /// No live block can sit to the east (sharing this block's east column).
    East,
    /// No live block can sit to the west.
    West,
    /// No live block can sit to the north (sharing this block's north row).
    North,
    /// No live block can sit to the south.
    South,
}

impl AxisDir {
    /// Lower-case textual form, used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            AxisDir::East => "east",
            AxisDir::West => "west",
            AxisDir::North => "north",
            AxisDir::South => "south",
        }
    }
}

impl fmt::Display for AxisDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `L002` certificate: the order in which the arc-consistency
/// closure eliminated every allowed block, each with the first side on
/// which it could not extend. Replaying the eliminations against the
/// original block table verifies the verdict independently.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnsolvableCertificate {
    /// Eliminated blocks, in elimination order.
    pub eliminated: Vec<(Block, AxisDir)>,
}

/// The horizontal/vertical pair-relation factorisation behind an `L005`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxisFactorisation {
    /// Horizontal relation: `h[a * n + b]` is true iff `b` may sit
    /// directly east of `a` (`n` = alphabet size).
    pub h: Vec<bool>,
    /// Vertical relation: `v[a * n + b]` is true iff `b` may sit
    /// directly north of `a`.
    pub v: Vec<bool>,
    /// True iff the two relations coincide and are symmetric — exactly
    /// the [`BlockLcl::axis_symmetric_pairs`] shape the d-dimensional
    /// encoders consume.
    pub axis_symmetric: bool,
}

/// The result of one analysis run: the diagnostics plus the structural
/// verdicts the engine consumes directly.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    name: String,
    alphabet: u16,
    blocks: usize,
    diagnostics: Vec<Diagnostic>,
    dead: Vec<Label>,
    unsolvable: Option<UnsolvableCertificate>,
    constant: Option<Label>,
    axis: Option<AxisFactorisation>,
    h_symmetric: bool,
    v_symmetric: bool,
}

impl Analysis {
    /// The analysed problem's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All findings, in pass order (L001 → L006).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Compiled labels that occur in no allowed block (`L001`).
    pub fn dead_labels(&self) -> &[Label] {
        &self.dead
    }

    /// The `L002` certificate, if the problem is statically unsolvable:
    /// the arc-consistency closure emptied the allowed-block set, so no
    /// torus of any size admits a valid labelling.
    pub fn unsolvable(&self) -> Option<&UnsolvableCertificate> {
        self.unsolvable.as_ref()
    }

    /// The first self-compatible label, if the problem is trivially
    /// constant-solvable (`L003`). Agrees with
    /// [`lcl_core::GridProblem::constant_solution`] by construction.
    pub fn constant_label(&self) -> Option<Label> {
        self.constant
    }

    /// The per-axis pair-relation factorisation (`L005`), when the block
    /// predicate decomposes.
    pub fn axis_factorisation(&self) -> Option<&AxisFactorisation> {
        self.axis.as_ref()
    }

    /// True iff the allowed set is invariant under the east–west mirror.
    pub fn h_symmetric(&self) -> bool {
        self.h_symmetric
    }

    /// True iff the allowed set is invariant under the north–south mirror.
    pub fn v_symmetric(&self) -> bool {
        self.v_symmetric
    }

    /// Occurrences of one code among the findings.
    pub fn count(&self, code: Code) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }

    /// The harshest severity among the findings, `None` when clean.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Renders every finding in the caret style of
    /// [`lcl_lang::LangError::render`], one paragraph per diagnostic.
    /// Pass the original source for line/column resolution (an empty
    /// string renders span-free one-liners).
    pub fn render_text(&self, src: &str) -> String {
        let mut out = String::new();
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&d.render(src));
            out.push('\n');
        }
        out
    }

    /// Renders the full report as a deterministic JSON document: the
    /// diagnostics (with byte spans, plus line/column when `src` is
    /// non-empty) and every structural verdict, in a fixed key order.
    pub fn to_json(&self, src: &str) -> String {
        let unsolvable = self.unsolvable.as_ref().map_or(Json::Null, |cert| {
            let eliminated = cert.eliminated.iter().map(|(block, dir)| {
                Json::obj(vec![
                    (
                        "block",
                        Json::Arr(block.iter().map(|&l| Json::num(l)).collect()),
                    ),
                    ("missing", Json::str(dir.as_str())),
                ])
            });
            Json::obj(vec![("eliminated", Json::Arr(eliminated.collect()))])
        });
        let axis_symmetric = self.axis.as_ref().is_some_and(|a| a.axis_symmetric);
        Json::obj(vec![
            ("problem", Json::str(&self.name)),
            ("alphabet", Json::num(self.alphabet)),
            ("blocks", Json::size(self.blocks)),
            (
                "diagnostics",
                Json::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| diagnostic_json(d, src))
                        .collect(),
                ),
            ),
            (
                "dead_labels",
                Json::Arr(self.dead.iter().map(|&l| Json::num(l)).collect()),
            ),
            ("unsolvable", unsolvable),
            (
                "constant_label",
                self.constant.map_or(Json::Null, Json::num),
            ),
            ("axis_decomposable", Json::Bool(self.axis.is_some())),
            ("axis_symmetric", Json::Bool(axis_symmetric)),
            ("h_symmetric", Json::Bool(self.h_symmetric)),
            ("v_symmetric", Json::Bool(self.v_symmetric)),
        ])
        .to_string()
    }
}

fn diagnostic_json(d: &Diagnostic, src: &str) -> Json {
    let mut fields = vec![
        ("code", Json::str(d.code.as_str())),
        ("severity", Json::str(d.severity.as_str())),
        ("message", Json::str(&d.message)),
    ];
    fields.extend(span_fields(d.span, src));
    let related = d.related.iter().map(|(note, span)| {
        let mut fields = vec![("note", Json::str(note))];
        fields.extend(span_fields(Some(*span), src));
        Json::obj(fields)
    });
    fields.push(("related", Json::Arr(related.collect())));
    Json::obj(fields)
}

/// A span's `start`/`end` byte offsets (both `null` without a span),
/// plus its `line`/`column` when the source is at hand.
fn span_fields(span: Option<Span>, src: &str) -> Vec<(&'static str, Json)> {
    let Some(span) = span else {
        return vec![("start", Json::Null), ("end", Json::Null)];
    };
    let mut fields = vec![
        ("start", Json::size(span.start)),
        ("end", Json::size(span.end)),
    ];
    if !src.is_empty() {
        let (line, col) = span.line_col(src);
        fields.push(("line", Json::size(line)));
        fields.push(("column", Json::size(col)));
    }
    fields
}

/// A compiled problem together with its analysis — what [`compile`]
/// returns, and the pair `ProblemSpec::compile` wraps.
#[derive(Clone, Debug)]
pub struct Analyzed {
    /// The compiled block normal form (dead source labels already pruned
    /// by the compiler; the analysis reports them as `L001`).
    pub compiled: CompiledLcl,
    /// The full static analysis, with source spans.
    pub analysis: Analysis,
}

/// Parses, compiles, and analyses one `lcl-lang` source: the combined
/// front door for callers that want diagnostics alongside the normal
/// form.
///
/// # Example
///
/// ```
/// let out = lcl_analyze::compile(
///     "problem trivial { alphabet { a, b } }",
/// ).unwrap();
/// // Everything allowed: constant-solvable, decomposable, symmetric.
/// assert!(out.analysis.constant_label().is_some());
/// assert_eq!(out.analysis.count(lcl_analyze::Code::L003), 1);
/// ```
pub fn compile(src: &str) -> Result<Analyzed, LangError> {
    let def = lcl_lang::parse(src)?;
    let compiled = lcl_lang::compile_def(&def)?;
    let analysis = analyze_def(&def, &compiled);
    Ok(Analyzed { compiled, analysis })
}

/// Analyses an already-parsed, already-compiled definition: the
/// block-table passes plus the AST-level passes (`L004` shadowed
/// clauses, span-carrying `L001` for pruned source labels).
pub fn analyze_def(def: &ProblemDef, compiled: &CompiledLcl) -> Analysis {
    let mut analysis = Analysis::default();
    dead_source_labels(def, compiled, &mut analysis);
    shadowed_clauses(def, &mut analysis);
    block_passes(
        compiled.name(),
        compiled.block_lcl(),
        Some(def.name.span),
        &mut analysis,
    );
    sort_by_code(&mut analysis);
    analysis
}

/// Analyses a compiled problem without its AST (no `L004`, spans only
/// where the compiled provenance provides them).
pub fn analyze_compiled(compiled: &CompiledLcl) -> Analysis {
    let mut analysis = Analysis::default();
    if compiled.source_radius() == 1 {
        for name in compiled.source_alphabet() {
            if !(0..compiled.alphabet()).any(|l| compiled.label_name(l) == Some(name.as_str())) {
                analysis.diagnostics.push(Diagnostic::new(
                    Code::L001,
                    format!(
                        "label `{name}` occurs in no allowed window; \
                         it was pruned from the compiled alphabet"
                    ),
                ));
            }
        }
    }
    block_passes(compiled.name(), compiled.block_lcl(), None, &mut analysis);
    sort_by_code(&mut analysis);
    analysis
}

/// Analyses a bare block table — the engine's `prepare`-time entry for
/// problems that never had `lcl-lang` source. All block-level passes
/// run; no spans are attached.
pub fn analyze_block(name: &str, lcl: &BlockLcl) -> Analysis {
    let mut analysis = Analysis::default();
    block_passes(name, lcl, None, &mut analysis);
    sort_by_code(&mut analysis);
    analysis
}

/// Removes dead labels from a block table: the pruned table (labels
/// renumbered in increasing order) plus the keep-map `pruned label →
/// original label`. When nothing is dead the table is returned verbatim
/// and the map is the identity — the soundness contract behind feeding
/// pruned tables to encoders (DESIGN.md §11).
pub fn prune_dead_labels(lcl: &BlockLcl) -> (BlockLcl, Vec<Label>) {
    let keep = lcl.live_labels();
    if keep.len() == usize::from(lcl.alphabet()) {
        return (lcl.clone(), keep);
    }
    let index = |l: Label| keep.iter().position(|&k| k == l).map(|i| i as Label);
    let mut pruned = BlockLcl::new(keep.len().max(1) as u16);
    for [sw, se, nw, ne] in lcl.sorted_blocks() {
        if let (Some(sw), Some(se), Some(nw), Some(ne)) =
            (index(sw), index(se), index(nw), index(ne))
        {
            pruned.allow([sw, se, nw, ne]);
        }
    }
    (pruned, keep)
}

/// The codes a source opts into via `# expect: L00x` comment
/// annotations — the contract `lclc --lint` checks fixtures against:
/// expected codes are exempt from `--deny`, and an expected code that
/// does *not* fire is itself an error.
pub fn expected_codes(src: &str) -> BTreeSet<Code> {
    let mut out = BTreeSet::new();
    for line in src.lines() {
        let line = line.trim_start();
        let Some(rest) = line.strip_prefix('#') else {
            continue;
        };
        let Some(codes) = rest.trim_start().strip_prefix("expect:") else {
            continue;
        };
        for word in codes.split(|c: char| c.is_whitespace() || c == ',') {
            if let Ok(code) = word.parse::<Code>() {
                out.insert(code);
            }
        }
    }
    out
}

/// Stable presentation order: findings grouped by code, preserving
/// emission order within one code.
fn sort_by_code(analysis: &mut Analysis) {
    analysis.diagnostics.sort_by_key(|d| d.code);
}

/// All block-table passes: L001 (dead labels), L002 (arc-consistency
/// closure), L003 (constant solution), L005 (axis factorisation), L006
/// (transpose symmetry).
fn block_passes(name: &str, lcl: &BlockLcl, span: Option<Span>, analysis: &mut Analysis) {
    analysis.name = name.to_string();
    analysis.alphabet = lcl.alphabet();
    analysis.blocks = lcl.allowed_count();
    let attach = |d: Diagnostic| match span {
        Some(span) => d.with_span(span),
        None => d,
    };

    // L001: dead labels in the table itself (compiled `lcl-lang` tables
    // never contain any — the compiler prunes — but raw tables can).
    let live = lcl.live_labels();
    analysis.dead = (0..lcl.alphabet()).filter(|l| !live.contains(l)).collect();
    for &l in &analysis.dead {
        analysis.diagnostics.push(attach(Diagnostic::new(
            Code::L001,
            format!(
                "label {l} occurs in no allowed block; \
                 encoders can drop it from the {}-label alphabet",
                lcl.alphabet()
            ),
        )));
    }

    // L002: the arc-consistency closure. A block survives while some
    // live block can sit on each of its four sides (sharing the full
    // overlapping edge); if the closure empties, no torus of any size
    // has a valid labelling, and the elimination order is the
    // certificate.
    let mut live_blocks: BTreeSet<Block> = lcl.allowed_blocks().collect();
    let mut eliminated: Vec<(Block, AxisDir)> = Vec::new();
    loop {
        let west_cols: HashSet<(Label, Label)> = live_blocks.iter().map(|b| (b[0], b[2])).collect();
        let east_cols: HashSet<(Label, Label)> = live_blocks.iter().map(|b| (b[1], b[3])).collect();
        let south_rows: HashSet<(Label, Label)> =
            live_blocks.iter().map(|b| (b[0], b[1])).collect();
        let north_rows: HashSet<(Label, Label)> =
            live_blocks.iter().map(|b| (b[2], b[3])).collect();
        let mut dropped: Vec<(Block, AxisDir)> = Vec::new();
        for &b in &live_blocks {
            // An east neighbour's west column must equal b's east column,
            // and symmetrically for the other three sides.
            let missing = if !west_cols.contains(&(b[1], b[3])) {
                Some(AxisDir::East)
            } else if !east_cols.contains(&(b[0], b[2])) {
                Some(AxisDir::West)
            } else if !south_rows.contains(&(b[2], b[3])) {
                Some(AxisDir::North)
            } else if !north_rows.contains(&(b[0], b[1])) {
                Some(AxisDir::South)
            } else {
                None
            };
            if let Some(dir) = missing {
                dropped.push((b, dir));
            }
        }
        if dropped.is_empty() {
            break;
        }
        for (b, _) in &dropped {
            live_blocks.remove(b);
        }
        eliminated.extend(dropped);
    }
    if live_blocks.is_empty() {
        analysis.unsolvable = Some(UnsolvableCertificate { eliminated });
        analysis.diagnostics.push(attach(Diagnostic::new(
            Code::L002,
            format!(
                "statically unsolvable: the arc-consistency closure eliminated all {} allowed \
                 blocks, so no torus of any size has a valid labelling",
                lcl.allowed_count()
            ),
        )));
        // The structural notes below describe solvable structure; on an
        // empty closure they are noise next to the L002 verdict.
        return;
    }

    // L003: the first self-compatible label (agrees with
    // `GridProblem::constant_solution`).
    analysis.constant = (0..lcl.alphabet()).find(|&l| lcl.block_allowed([l, l, l, l]));
    if let Some(l) = analysis.constant {
        analysis.diagnostics.push(attach(Diagnostic::new(
            Code::L003,
            format!("trivially constant-solvable: labelling every node {l} is valid (O(1))"),
        )));
    }

    // L005: does the predicate factor into per-axis pair relations?
    // The O(|Σ|⁴) verification is gated like the SAT block encoder.
    if lcl.alphabet() <= 16 {
        let n = usize::from(lcl.alphabet());
        let mut h = vec![false; n * n];
        let mut v = vec![false; n * n];
        for [sw, se, nw, ne] in lcl.allowed_blocks() {
            h[usize::from(sw) * n + usize::from(se)] = true;
            h[usize::from(nw) * n + usize::from(ne)] = true;
            v[usize::from(sw) * n + usize::from(nw)] = true;
            v[usize::from(se) * n + usize::from(ne)] = true;
        }
        let factors = (0..lcl.alphabet()).all(|sw| {
            (0..lcl.alphabet()).all(|se| {
                (0..lcl.alphabet()).all(|nw| {
                    (0..lcl.alphabet()).all(|ne| {
                        let product = h[usize::from(sw) * n + usize::from(se)]
                            && h[usize::from(nw) * n + usize::from(ne)]
                            && v[usize::from(sw) * n + usize::from(nw)]
                            && v[usize::from(se) * n + usize::from(ne)];
                        product == lcl.block_allowed([sw, se, nw, ne])
                    })
                })
            })
        });
        if factors {
            let axis_symmetric = lcl.axis_symmetric_pairs().is_some();
            analysis.axis = Some(AxisFactorisation {
                h,
                v,
                axis_symmetric,
            });
            analysis.diagnostics.push(attach(Diagnostic::new(
                Code::L005,
                format!(
                    "axis-decomposable: the block predicate factors into independent \
                     horizontal and vertical pair relations{}",
                    if axis_symmetric {
                        " (one symmetric relation on both axes)"
                    } else {
                        ""
                    }
                ),
            )));
        }
    }

    // L006: transpose symmetry of the allowed set.
    analysis.h_symmetric = lcl
        .allowed_blocks()
        .all(|[sw, se, nw, ne]| lcl.block_allowed([se, sw, ne, nw]));
    analysis.v_symmetric = lcl
        .allowed_blocks()
        .all(|[sw, se, nw, ne]| lcl.block_allowed([nw, ne, sw, se]));
    if analysis.h_symmetric || analysis.v_symmetric {
        let axes = match (analysis.h_symmetric, analysis.v_symmetric) {
            (true, true) => "horizontal and vertical transposes",
            (true, false) => "the horizontal (east–west) transpose",
            _ => "the vertical (north–south) transpose",
        };
        analysis.diagnostics.push(attach(Diagnostic::new(
            Code::L006,
            format!("symmetric problem: the allowed-block set is invariant under {axes}"),
        )));
    }
}

/// Span-carrying `L001` for source labels the compiler pruned: the
/// declared alphabet entry never survives into the compiled table.
fn dead_source_labels(def: &ProblemDef, compiled: &CompiledLcl, analysis: &mut Analysis) {
    if def.radius() != 1 {
        // Radius-r patch labels have no one-to-one source counterpart;
        // the block-level pass covers the compiled table.
        return;
    }
    for entry in &def.alphabet {
        let survives =
            (0..compiled.alphabet()).any(|l| compiled.label_name(l) == Some(entry.node.as_str()));
        if !survives {
            analysis.diagnostics.push(
                Diagnostic::new(
                    Code::L001,
                    format!(
                        "dead label: `{}` occurs in no allowed window and was pruned \
                         from the compiled alphabet",
                        entry.node
                    ),
                )
                .with_span(entry.span),
            );
        }
    }
}

/// One clause atom in canonical (south-first, row-major) cell order —
/// the common currency `L004` subsumption compares across `nodes`,
/// `horizontal`/`vertical` pair, and rectangular pattern clauses.
struct Atom {
    polarity: Polarity,
    rows: usize,
    cols: usize,
    /// `None` is a wildcard cell.
    cells: Vec<Option<String>>,
    span: Span,
}

impl Atom {
    fn cell(&self, r: usize, c: usize) -> &Option<String> {
        &self.cells[r * self.cols + c]
    }
}

fn cell_name(cell: &Cell) -> Option<String> {
    match cell {
        Cell::Wild => None,
        Cell::Label(name) => Some(name.clone()),
    }
}

/// Flattens the definition's clauses into pattern atoms (uniform-relation
/// sugar has no pattern reading and is skipped).
fn clause_atoms(def: &ProblemDef) -> Vec<Atom> {
    let mut atoms = Vec::new();
    for clause in &def.clauses {
        match &clause.node {
            ClauseKind::Nodes { polarity, labels } => {
                for label in labels {
                    atoms.push(Atom {
                        polarity: *polarity,
                        rows: 1,
                        cols: 1,
                        cells: vec![Some(label.node.clone())],
                        span: label.span,
                    });
                }
            }
            ClauseKind::Pairs {
                dir,
                polarity,
                pairs,
            } => {
                for [a, b] in pairs {
                    let (rows, cols) = match dir {
                        Dir::Horizontal => (1, 2),
                        Dir::Vertical => (2, 1),
                    };
                    atoms.push(Atom {
                        polarity: *polarity,
                        rows,
                        cols,
                        // (west, east) and (south, north) are already
                        // south-first row-major.
                        cells: vec![cell_name(&a.node), cell_name(&b.node)],
                        span: a.span.to(b.span),
                    });
                }
            }
            ClauseKind::Patterns { polarity, patterns } => {
                for pattern in patterns {
                    let p = &pattern.node;
                    let mut cells = Vec::with_capacity(p.rows * p.cols);
                    for r in 0..p.rows {
                        for c in 0..p.cols {
                            // AST rows are north-first; canonical order
                            // is south-first.
                            cells.push(cell_name(p.cell(p.rows - 1 - r, c)));
                        }
                    }
                    atoms.push(Atom {
                        polarity: *polarity,
                        rows: p.rows,
                        cols: p.cols,
                        cells,
                        span: pattern.span,
                    });
                }
            }
            ClauseKind::Uniform { .. } => {}
        }
    }
    atoms
}

/// True iff every window placement matching `p` necessarily contains a
/// match of the earlier atom `q` — i.e. `p` adds nothing once `q` is in
/// force.
///
/// * `forbid`: `q` may sit at any offset inside `p`'s footprint, with
///   every concrete `q` cell matched by an equal concrete `p` cell (a
///   wild `q` cell matches anything). Any window killed by `p` is then
///   already killed by `q`.
/// * `allow`: per-shape union semantics, so only same-shape atoms
///   compare; `q` must generalise `p` cell-wise.
fn subsumes(q: &Atom, p: &Atom) -> bool {
    if q.polarity != p.polarity {
        return false;
    }
    match q.polarity {
        Polarity::Forbid => {
            if q.rows > p.rows || q.cols > p.cols {
                return false;
            }
            (0..=(p.rows - q.rows)).any(|dr| {
                (0..=(p.cols - q.cols)).any(|dc| {
                    (0..q.rows).all(|r| {
                        (0..q.cols).all(|c| match q.cell(r, c) {
                            None => true,
                            Some(label) => p.cell(dr + r, dc + c).as_deref() == Some(label),
                        })
                    })
                })
            })
        }
        Polarity::Allow => {
            q.rows == p.rows
                && q.cols == p.cols
                && (0..p.cells.len()).all(|i| match &q.cells[i] {
                    None => true,
                    Some(label) => p.cells[i].as_deref() == Some(label),
                })
        }
    }
}

/// `L004`: warn on every clause atom subsumed by an earlier one (first
/// subsumer wins the attribution), with both spans attached.
fn shadowed_clauses(def: &ProblemDef, analysis: &mut Analysis) {
    let atoms = clause_atoms(def);
    for (i, p) in atoms.iter().enumerate() {
        if let Some(q) = atoms[..i].iter().find(|q| subsumes(q, p)) {
            let verb = match p.polarity {
                Polarity::Allow => "allow",
                Polarity::Forbid => "forbid",
            };
            analysis.diagnostics.push(
                Diagnostic::new(
                    Code::L004,
                    format!(
                        "shadowed clause: this `{verb}` pattern is subsumed by an earlier \
                         clause and never changes the allowed set"
                    ),
                )
                .with_span(p.span)
                .with_related("the earlier clause that subsumes it", q.span),
            );
        }
    }
}

#[cfg(test)]
mod tests;

#[cfg(all(test, feature = "proptests"))]
mod proptests;
