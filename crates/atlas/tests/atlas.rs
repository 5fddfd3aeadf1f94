//! Integration tests for the census pipeline: checkpoint/resume byte
//! identity, torn-journal recovery, and the engine's atlas
//! short-circuit (`EngineBuilder::atlas`).

use lcl_atlas::{run_census, Atlas, CensusOptions, Frontier, Header, Record, Verdict};
use lcl_core::classify::GridClass;
use lcl_core::lcl::BlockLcl;
use lcl_grids::engine::{AtlasTable, Registry};
use lcl_grids::local::IdAssignment;
use lcl_grids::{Engine, Instance, ProblemSpec};
use lcl_trace::SolverCost;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcl-atlas-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn census_engine() -> Arc<Engine> {
    Arc::new(Engine::builder().threads(2).max_synthesis_k(1).build())
}

fn tiny_frontier() -> Frontier {
    Frontier::alphabet(2).with_max_blocks(2)
}

/// Kill-and-resume determinism: a census interrupted after a handful of
/// records and resumed from its journal writes the same artifact, byte
/// for byte, as an uninterrupted run.
#[test]
fn resumed_census_artifact_is_byte_identical() {
    let dir = temp_dir("resume");
    let engine = census_engine();
    let frontier = tiny_frontier();

    // The uninterrupted reference run (no journal).
    let reference = run_census(&engine, &frontier, &CensusOptions::default()).unwrap();
    assert!(reference.stats.complete);
    let reference_path = dir.join("reference.jsonl");
    reference.atlas.write(&reference_path).unwrap();

    // An interrupted run: stop after 5 fresh records…
    let journal = dir.join("journal.jsonl");
    let partial_options = CensusOptions {
        journal: Some(journal.clone()),
        max_records: Some(5),
        ..CensusOptions::default()
    };
    let partial = run_census(&engine, &frontier, &partial_options).unwrap();
    assert!(!partial.stats.complete);
    assert_eq!(partial.stats.fresh, 5);

    // …then resume from the journal with a second engine (a restarted
    // process has no warm caches to lean on).
    let resumed_options = CensusOptions {
        journal: Some(journal),
        ..CensusOptions::default()
    };
    let resumed = run_census(&census_engine(), &frontier, &resumed_options).unwrap();
    assert!(resumed.stats.complete);
    assert_eq!(resumed.stats.resumed, 5);
    assert_eq!(
        resumed.stats.fresh + resumed.stats.resumed,
        reference.stats.fresh
    );

    let resumed_path = dir.join("resumed.jsonl");
    resumed.atlas.write(&resumed_path).unwrap();
    assert_eq!(
        std::fs::read(&reference_path).unwrap(),
        std::fs::read(&resumed_path).unwrap(),
        "resumed artifact differs from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal whose final line was torn by a mid-write kill is dropped,
/// the file is repaired, and the resume still converges to the
/// uninterrupted artifact.
#[test]
fn torn_journal_lines_are_recovered() {
    let dir = temp_dir("torn");
    let engine = census_engine();
    let frontier = tiny_frontier();

    let reference = run_census(&engine, &frontier, &CensusOptions::default()).unwrap();
    let reference_path = dir.join("reference.jsonl");
    reference.atlas.write(&reference_path).unwrap();

    let journal = dir.join("journal.jsonl");
    let partial_options = CensusOptions {
        journal: Some(journal.clone()),
        max_records: Some(4),
        ..CensusOptions::default()
    };
    run_census(&engine, &frontier, &partial_options).unwrap();

    // Tear the journal the way a killed process would: a half-written
    // record with no newline at the end of the file.
    let mut text = std::fs::read_to_string(&journal).unwrap();
    text.push_str("{\"key\":\"atlas-a2-dead");
    std::fs::write(&journal, &text).unwrap();

    let resumed_options = CensusOptions {
        journal: Some(journal.clone()),
        ..CensusOptions::default()
    };
    let resumed = run_census(&census_engine(), &frontier, &resumed_options).unwrap();
    assert!(resumed.stats.complete);
    assert_eq!(resumed.stats.resumed, 4, "torn line must not count");

    let resumed_path = dir.join("resumed.jsonl");
    resumed.atlas.write(&resumed_path).unwrap();
    assert_eq!(
        std::fs::read(&reference_path).unwrap(),
        std::fs::read(&resumed_path).unwrap()
    );
    // The repair rewrote the journal parseable end to end.
    Atlas::load(&journal).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal from a differently-configured census is refused, not
/// silently mixed in.
#[test]
fn journals_from_a_different_census_are_refused() {
    let dir = temp_dir("mismatch");
    let engine = census_engine();
    let frontier = tiny_frontier();

    let journal = dir.join("journal.jsonl");
    let options = CensusOptions {
        journal: Some(journal.clone()),
        max_records: Some(2),
        ..CensusOptions::default()
    };
    run_census(&engine, &frontier, &options).unwrap();

    let different = CensusOptions {
        journal: Some(journal),
        odd_side: 5,
        ..CensusOptions::default()
    };
    match run_census(&engine, &frontier, &different) {
        Err(lcl_atlas::AtlasError::Journal(_)) => {}
        Err(other) => panic!("expected a typed journal error, got {other}"),
        Ok(_) => panic!("a mismatched journal must be refused"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The single-block alphabet-1 problem — the cheapest census citizen;
/// its true class is `Constant`.
fn one_block_spec() -> ProblemSpec {
    let mut lcl = BlockLcl::new(1);
    lcl.allow([0, 0, 0, 0]);
    ProblemSpec::block("one-block", lcl)
}

/// An artifact holding exactly one record for `spec`'s canonical class,
/// asserting `class` (truthfully or not — provenance tests plant a
/// sentinel class the tier walk would never produce).
fn artifact_for(dir: &Path, spec: &ProblemSpec, class: GridClass, census_k: u64) -> PathBuf {
    let key = AtlasTable::census_name(spec).expect("block spec canonicalises");
    let record = Record {
        key,
        alphabet: 1,
        blocks: 1,
        table: Some("1".to_string()),
        orbit: Some(1),
        plan_key: "test-plan-key".to_string(),
        verdict: Verdict::Classified,
        class: Some(class),
        solve: "solved:constant".to_string(),
        rounds: Some(0),
        solvable_even: Some(true),
        solvable_odd: Some(true),
        sat: SolverCost::default(),
    };
    let header = Header {
        max_alphabet: 1,
        max_blocks: None,
        max_synthesis_k: census_k,
        step_budget: 0,
        even_side: 4,
        odd_side: 3,
        candidates: 2,
    };
    let atlas = Atlas::from_records(header, vec![record]).unwrap();
    let path = dir.join(format!("seed-{census_k}.jsonl"));
    atlas.write(&path).unwrap();
    path
}

/// `classify` on an atlas-armed engine answers from the artifact — no
/// registry walk, no synthesis — and solves carry `atlas` provenance.
#[test]
fn atlas_hits_short_circuit_classification() {
    let dir = temp_dir("seed");
    let spec = one_block_spec();
    // Plant LogStar: the tier walk classifies this problem Constant, so
    // a LogStar answer can only have come from the artifact.
    let path = artifact_for(&dir, &spec, GridClass::LogStar, 1);

    let registry = Arc::new(Registry::new());
    let engine = Engine::builder()
        .registry(Arc::clone(&registry))
        .max_synthesis_k(1)
        .atlas(&path)
        .unwrap()
        .build();
    let prepared = engine.prepare(&spec).unwrap();
    let seed = prepared.atlas_seed().expect("census hit must seed");
    assert_eq!(seed.name, AtlasTable::census_name(&spec).unwrap());
    assert_eq!(prepared.classify().unwrap(), GridClass::LogStar);
    assert_eq!(
        registry.cached_syntheses(),
        0,
        "a seeded classification must not reach the synthesiser"
    );

    // Solve reports carry the census provenance.
    let labelling = prepared
        .solve(&Instance::square(4, &IdAssignment::Sequential))
        .unwrap();
    assert!(
        labelling
            .report
            .details
            .iter()
            .any(|(k, v)| k == "atlas" && v == &seed.name),
        "missing atlas provenance in {:?}",
        labelling.report.details
    );

    // Control: the same engine configuration without an atlas derives
    // the true class itself.
    let bare = Engine::builder().max_synthesis_k(1).build();
    let prepared = bare.prepare(&spec).unwrap();
    assert!(prepared.atlas_seed().is_none());
    assert_eq!(prepared.classify().unwrap(), GridClass::Constant);
    std::fs::remove_dir_all(&dir).ok();
}

/// `Global` census verdicts are relative to the census synthesis budget
/// and must not seed a deeper engine.
#[test]
fn global_seeds_respect_the_synthesis_k_gate() {
    let dir = temp_dir("kgate");
    let spec = one_block_spec();
    let path = artifact_for(&dir, &spec, GridClass::Global, 1);

    // Engine k within the census budget: the Global verdict transfers.
    let shallow = Engine::builder()
        .max_synthesis_k(1)
        .atlas(&path)
        .unwrap()
        .build();
    let prepared = shallow.prepare(&spec).unwrap();
    assert!(prepared.atlas_seed().is_some());
    assert_eq!(prepared.classify().unwrap(), GridClass::Global);

    // A deeper engine could synthesise what the census missed: it must
    // ignore the seed and re-derive (here, the true Constant class).
    let deep = Engine::builder()
        .max_synthesis_k(2)
        .atlas(&path)
        .unwrap()
        .build();
    let prepared = deep.prepare(&spec).unwrap();
    assert!(
        prepared.atlas_seed().is_none(),
        "Global must not transfer to a deeper engine"
    );
    assert_eq!(prepared.classify().unwrap(), GridClass::Constant);
    std::fs::remove_dir_all(&dir).ok();
}

/// The engine reads census lines with the same reader as `Atlas::load`,
/// so an artifact of another format version cannot seed classifications
/// that the census loader itself would refuse.
#[test]
fn engine_refuses_other_census_versions() {
    let dir = temp_dir("version");
    let path = artifact_for(&dir, &one_block_spec(), GridClass::LogStar, 1);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\"atlas-census\":1,"));
    std::fs::write(
        &path,
        text.replacen("\"atlas-census\":1", "\"atlas-census\":2", 1),
    )
    .unwrap();

    let Err(err) = Engine::builder().atlas(&path) else {
        panic!("a version-2 header must be refused");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let message = err.to_string();
    assert!(
        message.contains(&format!("{}:1:", path.display())),
        "error must name line 1: {message}"
    );
    assert!(Atlas::load(&path).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
