//! `census`: the alphabet-2 atlas census, 5056 tiny problems through one
//! long `solve_stream`, checked byte for byte against the artifact in
//! `fixtures/atlas/census-a2.jsonl`.
//!
//! The frontier is fixed, so the seed does not change the inputs; it is
//! only recorded.

use crate::layers;
use crate::{nproc, run_passes, timed, Opts, Passes, Report};
use lcl_atlas::{enumerate, run_census, CensusOptions, Frontier, Verdict};
use lcl_grids::Engine;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The checked-in artifact the census must reproduce exactly.
const FIXTURE: &str = "fixtures/atlas/census-a2.jsonl";

/// The census engine, as the `atlas` binary builds it.
fn engine() -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .threads(nproc())
            .max_synthesis_k(1)
            .build(),
    )
}

/// Where the pass writes its artifact: beside the harness executable,
/// inside the build directory.
fn artifact_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join("perfbench-census-a2.jsonl"))
}

/// One census on a fresh engine, its artifact written and compared.
fn pass(
    engine: &Arc<Engine>,
    expected: &[u8],
    out: &PathBuf,
    report: &mut Report,
    ops: &mut Vec<f64>,
) -> Result<f64, String> {
    let frontier = Frontier::alphabet(2);
    let started = Instant::now();
    let outcome =
        run_census(engine, &frontier, &CensusOptions::default()).map_err(|e| e.to_string())?;
    let (written, artifact_ms) = {
        let started = Instant::now();
        let written = outcome.atlas.write(out);
        (written, started.elapsed().as_secs_f64() * 1e3)
    };
    ops.push(started.elapsed().as_secs_f64() * 1e3);
    written.map_err(|e| format!("cannot write {}: {e}", out.display()))?;

    let records = outcome.atlas.records();
    let timeouts = records
        .iter()
        .filter(|r| r.verdict == Verdict::Timeout)
        .count();
    report.attempted += records.len() as u64;
    report.failed += timeouts as u64;
    report.check(outcome.stats.complete, || "census: incomplete".to_string());
    report.check(timeouts == 0, || {
        format!("census: {timeouts} timeout verdicts")
    });
    let got = std::fs::read(out).map_err(|e| e.to_string())?;
    report.check(got == expected, || {
        format!("census: artifact differs from {FIXTURE}")
    });
    report.add("engine.dedup_hits", engine.stream_dedup_hits() as f64);
    report.add("engine.jobs", records.len() as f64);
    Ok(artifact_ms)
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let expected = std::fs::read(FIXTURE).map_err(|e| format!("cannot read {FIXTURE}: {e}"))?;
    let out = artifact_path()?;
    if opts.trace {
        return run_traced(&expected, &out, report);
    }
    let mut passes = Passes::default();
    run_passes(
        opts.seconds,
        &mut passes,
        || Ok(engine()),
        |engine, passes| {
            let mut ops = Vec::new();
            pass(engine, &expected, &out, report, &mut ops)?;
            passes.ops_ms.push(ops);
            Ok(())
        },
    )?;
    passes.finish(report);
    Ok(())
}

fn run_traced(expected: &[u8], out: &PathBuf, report: &mut Report) -> Result<(), String> {
    let mut ops = Vec::new();
    let engine = self::engine();
    let started = Instant::now();
    pass(&engine, expected, out, report, &mut ops)?;
    let untraced_s = started.elapsed().as_secs_f64();

    let engine = self::engine();
    report.set("engine.dedup_hits", 0.0);
    report.set("engine.jobs", 0.0);
    let t0 = layers::begin(1 << 22);
    let artifact_ms = pass(&engine, expected, out, report, &mut ops)?;
    let traced = layers::end(t0);
    report.set("trace.overhead_ratio", traced.wall_s() / untraced_s);
    // Every census problem is a block LCL.
    traced.report(
        report,
        &layers::Synthesised {
            otherwise: Some(layers::Encoder::SuperWindow),
            ..Default::default()
        },
    );
    report.set("atlas.artifact_ms", artifact_ms);
    report.set_dedup_ratio();

    // Enumeration runs lazily inside the stream's job source; drain it
    // once on its own to time it.
    let frontier = Frontier::alphabet(2);
    let (drained, took) = timed(|| {
        enumerate(&frontier).map(|mut it| {
            for problem in it.by_ref() {
                std::hint::black_box(problem);
            }
            (it.candidates_seen(), it.emitted())
        })
    });
    let (candidates, problems) = drained.map_err(|e| e.to_string())?;
    report.set("atlas.enumerate_ms", took * 1e3);
    report.set("atlas.candidates", candidates as f64);
    report.set("atlas.problems", problems as f64);
    Ok(())
}
