//! Property-based tests (offline, vendored `proptest` substitute): on
//! arbitrary parseable sources the analysis never panics, is
//! deterministic, and every `L002` certificate replays soundly.

use crate::{compile, AxisDir};
use lcl_core::lcl::Block;
use lcl_lang::ast::{
    Cell, ClauseKind, Dir, EdgeScope, Pattern, Polarity, ProblemDef, UniformRelation,
};
use lcl_lang::Spanned;
use lcl_trace::json::Json;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,5}"
}

fn alphabet() -> impl Strategy<Value = Vec<String>> {
    prop::collection::btree_set(name(), 1..4).prop_map(|s| s.into_iter().collect())
}

fn cell(labels: Vec<String>) -> impl Strategy<Value = Spanned<Cell>> {
    let n = labels.len();
    (0..=n).prop_map(move |i| {
        Spanned::synthetic(if i == n {
            Cell::Wild
        } else {
            Cell::Label(labels[i].clone())
        })
    })
}

fn pattern(labels: Vec<String>) -> impl Strategy<Value = Spanned<Pattern>> {
    (1usize..3, 1usize..3).prop_flat_map(move |(rows, cols)| {
        prop::collection::vec(cell(labels.clone()), rows * cols)
            .prop_map(move |cells| Spanned::synthetic(Pattern { rows, cols, cells }))
    })
}

fn clause(labels: Vec<String>) -> impl Strategy<Value = Spanned<ClauseKind>> {
    let polarity = prop_oneof![Just(Polarity::Allow), Just(Polarity::Forbid)];
    let dir = prop_oneof![Just(Dir::Horizontal), Just(Dir::Vertical)];
    let scope = prop_oneof![
        Just(EdgeScope::Horizontal),
        Just(EdgeScope::Vertical),
        Just(EdgeScope::Both)
    ];
    let relation = prop_oneof![Just(UniformRelation::Differ), Just(UniformRelation::Equal)];
    let some_label = {
        let labels = labels.clone();
        let n = labels.len();
        (0..n).prop_map(move |i| Spanned::synthetic(labels[i].clone()))
    };
    prop_oneof![
        (polarity.clone(), prop::collection::vec(some_label, 1..4))
            .prop_map(|(polarity, labels)| ClauseKind::Nodes { polarity, labels }),
        (
            dir,
            polarity.clone(),
            prop::collection::vec(
                (cell(labels.clone()), cell(labels.clone())).prop_map(|(a, b)| [a, b]),
                1..4
            )
        )
            .prop_map(|(dir, polarity, pairs)| ClauseKind::Pairs {
                dir,
                polarity,
                pairs
            }),
        (scope, relation).prop_map(|(scope, relation)| ClauseKind::Uniform { scope, relation }),
        (
            polarity,
            prop::collection::vec(pattern(labels.clone()), 1..3)
        )
            .prop_map(|(polarity, patterns)| ClauseKind::Patterns { polarity, patterns }),
    ]
    .prop_map(Spanned::synthetic)
}

fn problem_def() -> impl Strategy<Value = ProblemDef> {
    (name(), alphabet(), prop::option::of(1usize..3)).prop_flat_map(|(name, alphabet, radius)| {
        let labels = alphabet.clone();
        prop::collection::vec(clause(labels), 0..5).prop_map(move |clauses| ProblemDef {
            name: Spanned::synthetic(name.clone()),
            alphabet: alphabet.iter().cloned().map(Spanned::synthetic).collect(),
            radius: radius.map(Spanned::synthetic),
            clauses,
        })
    })
}

/// Sequential replay of an `L002` certificate (see `tests.rs` for the
/// soundness argument).
fn certificate_replays(lcl: &lcl_core::BlockLcl, eliminated: &[(Block, AxisDir)]) -> bool {
    let mut live: BTreeSet<Block> = lcl.allowed_blocks().collect();
    for &(b, dir) in eliminated {
        if !live.contains(&b) {
            return false;
        }
        let support = match dir {
            AxisDir::East => live.iter().any(|c| (c[0], c[2]) == (b[1], b[3])),
            AxisDir::West => live.iter().any(|c| (c[1], c[3]) == (b[0], b[2])),
            AxisDir::North => live.iter().any(|c| (c[0], c[1]) == (b[2], b[3])),
            AxisDir::South => live.iter().any(|c| (c[2], c[3]) == (b[0], b[1])),
        };
        if support {
            return false;
        }
        live.remove(&b);
    }
    live.is_empty()
}

proptest! {
    /// Analysing any parseable source never panics, both renderers are
    /// total over the result, and the JSON report parses back with the
    /// problem's name and one entry per diagnostic.
    #[test]
    fn analysis_never_panics(def in problem_def()) {
        let src = def.to_source();
        if let Ok(out) = compile(&src) {
            let _ = out.analysis.render_text(&src);
            for text in [&src[..], ""] {
                let report = Json::parse(&out.analysis.to_json(text)).unwrap();
                prop_assert_eq!(
                    report.get("problem").and_then(Json::as_str),
                    Some(out.analysis.name())
                );
                prop_assert_eq!(
                    report.get("diagnostics").and_then(Json::as_arr).map(<[Json]>::len),
                    Some(out.analysis.diagnostics().len())
                );
            }
        }
    }

    /// Analysis is deterministic: two runs over the same source agree
    /// byte-for-byte in both renderings.
    #[test]
    fn analysis_is_deterministic(def in problem_def()) {
        let src = def.to_source();
        if let Ok(first) = compile(&src) {
            let second = compile(&src).unwrap();
            prop_assert_eq!(
                first.analysis.to_json(&src),
                second.analysis.to_json(&src)
            );
            prop_assert_eq!(
                first.analysis.render_text(&src),
                second.analysis.render_text(&src)
            );
        }
    }

    /// Every `L002` verdict carries a certificate that replays against
    /// the compiled table, and a constant verdict really is a valid
    /// uniform labelling.
    #[test]
    fn verdicts_are_sound(def in problem_def()) {
        let src = def.to_source();
        if let Ok(out) = compile(&src) {
            let lcl = out.compiled.block_lcl();
            if let Some(cert) = out.analysis.unsolvable() {
                prop_assert!(certificate_replays(lcl, &cert.eliminated));
                prop_assert!(out.analysis.constant_label().is_none());
            }
            if let Some(l) = out.analysis.constant_label() {
                prop_assert!(lcl.block_allowed([l, l, l, l]));
            }
        }
    }
}
