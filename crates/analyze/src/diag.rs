//! The diagnostic currency: stable codes, severities, spans, and the two
//! renderers (caret text for terminals, JSON for machines).

use lcl_lang::Span;
use std::fmt;
use std::str::FromStr;

/// A stable diagnostic code. Codes are append-only: a code's meaning
/// never changes once published (DESIGN.md §11 is the catalogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Dead label: a label that occurs in no allowed block.
    L001,
    /// Statically unsolvable: the arc-consistency closure over the
    /// allowed blocks empties out, so no torus of any size has a valid
    /// labelling.
    L002,
    /// Trivially constant-solvable: some label is self-compatible on
    /// both axes, so the uniform labelling is valid — complexity `O(1)`.
    L003,
    /// Shadowed clause: an `allow`/`forbid` pattern subsumed by an
    /// earlier clause of the same polarity.
    L004,
    /// Axis-decomposable: the block predicate factors into independent
    /// horizontal and vertical pair relations.
    L005,
    /// Symmetric problem: the allowed-block set is invariant under a
    /// horizontal and/or vertical transpose.
    L006,
}

impl Code {
    /// Every code, in catalogue order.
    pub const ALL: [Code; 6] = [
        Code::L001,
        Code::L002,
        Code::L003,
        Code::L004,
        Code::L005,
        Code::L006,
    ];

    /// The stable textual form (`"L001"` … `"L006"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::L001 => "L001",
            Code::L002 => "L002",
            Code::L003 => "L003",
            Code::L004 => "L004",
            Code::L005 => "L005",
            Code::L006 => "L006",
        }
    }

    /// The default severity this code is reported at.
    pub fn severity(self) -> Severity {
        match self {
            Code::L002 => Severity::Error,
            Code::L001 | Code::L004 => Severity::Warning,
            Code::L003 | Code::L005 | Code::L006 => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Code {
    type Err = String;

    fn from_str(s: &str) -> Result<Code, String> {
        Code::ALL
            .into_iter()
            .find(|c| c.as_str().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown diagnostic code '{s}'"))
    }
}

/// Diagnostic severity, ordered from mildest to harshest so that a
/// `--deny <level>` threshold is a plain comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Structural information (constant-solvable, symmetric, …).
    Note,
    /// Probably a definition mistake (dead label, shadowed clause).
    Warning,
    /// The problem is degenerate (statically unsolvable).
    Error,
}

impl Severity {
    /// The textual form used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "note" | "info" => Ok(Severity::Note),
            "warn" | "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!(
                "unknown severity '{other}' (expected note, warn, or error)"
            )),
        }
    }
}

/// One finding: a code, its severity, a message, and the source spans it
/// anchors to (absent when the analysis ran on a bare block table with
/// no source provenance).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Reported severity (the code's default unless a pass overrides).
    pub severity: Severity,
    /// Human-readable, single-line description.
    pub message: String,
    /// Primary source span, when the finding maps to source text.
    pub span: Option<Span>,
    /// Secondary spans with their own notes (e.g. L004 points at both
    /// the shadowed clause and the clause that shadows it).
    pub related: Vec<(String, Span)>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            span: None,
            related: Vec::new(),
        }
    }

    /// Attaches the primary span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Attaches a secondary span with its own note.
    pub fn with_related(mut self, note: impl Into<String>, span: Span) -> Diagnostic {
        self.related.push((note.into(), span));
        self
    }

    /// Renders the diagnostic in the caret style of
    /// [`lcl_lang::LangError::render`], one block per span:
    ///
    /// ```text
    /// warning[L004] at line 4, column 3: clause is shadowed …
    ///   |  forbid [ a a ]
    ///   |  ^^^^^^^^^^^^^^
    /// ```
    pub fn render(&self, src: &str) -> String {
        let mut out = headline(
            self.severity.as_str(),
            self.code,
            &self.message,
            self.span,
            src,
        );
        for (note, span) in &self.related {
            out.push('\n');
            out.push_str(&headline("note", self.code, note, Some(*span), src));
        }
        out
    }
}

/// One `severity[code] at line L, column C: message` block with the
/// caret underline, mirroring `LangError::render`'s geometry.
fn headline(severity: &str, code: Code, message: &str, span: Option<Span>, src: &str) -> String {
    let Some(span) = span else {
        return format!("{severity}[{code}]: {message}");
    };
    let (line, col) = span.line_col(src);
    let text = src.lines().nth(line - 1).unwrap_or("");
    let width = (span.end - span.start).clamp(1, text.len().saturating_sub(col - 1).max(1));
    format!(
        "{severity}[{code}] at line {line}, column {col}: {message}\n  |  {text}\n  |  {}{}",
        " ".repeat(col - 1),
        "^".repeat(width)
    )
}
