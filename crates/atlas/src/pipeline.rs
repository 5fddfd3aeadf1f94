//! The mass-classification pipeline: enumerator → streaming engine →
//! journal → artifact.
//!
//! A census run drives one [`Job`] per canonical problem through
//! [`Engine::solve_stream`] on the shared multi-thread engine. Each job
//! carries its **own** fresh step budget ([`Job::with_budget`]), so a
//! pathological SAT instance burns only its own quota and surfaces as a
//! typed `timeout` verdict — never a hang, never a skipped record, and
//! never a budget smeared across unrelated problems. After the solve,
//! the consumer classifies the problem (`classify_with`, hitting the
//! synthesis memoised by the solve) and probes odd-side solvability.
//!
//! # Checkpoint journal
//!
//! With [`CensusOptions::journal`] set, every finished record is
//! appended to a JSON-lines journal (same line format as the artifact)
//! and the run starts by replaying it: journaled keys are skipped, their
//! records reused verbatim. Records are deterministic functions of
//! (problem, census config) — step budgets, not wall-clock — so a
//! killed-and-resumed census produces the same sorted artifact, byte
//! for byte, as an uninterrupted one. A partial trailing line (the
//! killed process died mid-write) is detected and truncated away; a
//! journal whose header disagrees with the requested census is refused.

use crate::artifact::{Atlas, Header, Record, Verdict};
use crate::enumerate::{count_problems, enumerate, Frontier};
use crate::AtlasError;
use lcl_grids::engine::{Budget, JobOutcome};
use lcl_grids::local::IdAssignment;
use lcl_grids::{Engine, Instance, Job, PreparedProblem, ProblemSpec, SolveError};
use lcl_trace::SolverCost;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Knobs for one census run.
#[derive(Clone, Debug)]
pub struct CensusOptions {
    /// Per-problem step quota for the even-side solve and again for
    /// classification; 0 disables budgeting. Steps, never wall-clock,
    /// so budget trips are deterministic and the artifact reproducible.
    pub step_budget: u64,
    /// Even torus side solved per problem (must be even, ≥ 2).
    pub even_side: usize,
    /// Odd torus side probed for solvability (must be odd, ≥ 3).
    pub odd_side: usize,
    /// Append-only checkpoint journal; `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Classify at most this many *new* problems this run (resume picks
    /// up the rest). `None` runs the frontier to completion.
    pub max_records: Option<u64>,
    /// Print progress + ETA to stderr every `n` fresh records.
    pub progress_every: Option<u64>,
}

impl Default for CensusOptions {
    fn default() -> CensusOptions {
        CensusOptions {
            step_budget: 2_000_000,
            even_side: 4,
            odd_side: 3,
            journal: None,
            max_records: None,
            progress_every: None,
        }
    }
}

impl CensusOptions {
    fn validate(&self) -> Result<(), AtlasError> {
        if self.even_side < 2 || !self.even_side.is_multiple_of(2) {
            return Err(AtlasError::Frontier(format!(
                "even_side must be an even side ≥ 2, got {}",
                self.even_side
            )));
        }
        if self.odd_side < 3 || self.odd_side % 2 != 1 {
            return Err(AtlasError::Frontier(format!(
                "odd_side must be an odd side ≥ 3, got {}",
                self.odd_side
            )));
        }
        Ok(())
    }
}

/// Run accounting for one census invocation (wall-clock and work live
/// here, never in the artifact).
#[derive(Clone, Debug)]
pub struct CensusStats {
    /// Canonical problems in the frontier.
    pub total: u64,
    /// Records classified by this run.
    pub fresh: u64,
    /// Records replayed from the journal.
    pub resumed: u64,
    /// True iff every frontier problem has a record.
    pub complete: bool,
    /// Aggregate SAT work of this run's fresh solves.
    pub sat: SolverCost,
    /// Summed solve-walk wall time of fresh solves, µs (from the
    /// engine's per-solve cost ledgers).
    pub solve_us: u64,
    /// Wall time of the whole run.
    pub elapsed: std::time::Duration,
}

/// A finished census: the atlas (header + records) plus run stats.
pub struct CensusOutcome {
    /// The census content; `atlas.write(path)` emits the artifact.
    pub atlas: Atlas,
    /// Run accounting.
    pub stats: CensusStats,
}

/// One unit of census work flowing from the enumerator into the stream.
struct SpecJob {
    key: String,
    spec: ProblemSpec,
    alphabet: u16,
    blocks: u32,
    table: Option<String>,
    orbit: Option<u64>,
}

/// A job that has been handed to the engine and awaits its outcome.
struct Pending {
    job: SpecJob,
    prepared: Arc<PreparedProblem>,
}

/// Classifies every problem of `frontier` that the journal has not
/// already settled, and returns the full census (resumed ∪ fresh).
pub fn run_census(
    engine: &Arc<Engine>,
    frontier: &Frontier,
    options: &CensusOptions,
) -> Result<CensusOutcome, AtlasError> {
    frontier.validate()?;
    options.validate()?;
    let start = Instant::now();
    let header = Header {
        max_alphabet: frontier.max_alphabet,
        max_blocks: frontier.max_blocks,
        max_synthesis_k: engine.max_synthesis_k() as u64,
        step_budget: options.step_budget,
        even_side: options.even_side as u64,
        odd_side: options.odd_side as u64,
        candidates: frontier.candidate_count(),
    };
    let total = count_problems(frontier)?;

    // Replay the journal, then (re)open it for appending.
    let mut resumed: HashMap<String, Record> = HashMap::new();
    let mut journal = None;
    if let Some(path) = &options.journal {
        resumed = load_journal(path, &header)?;
        let fresh_file = resumed.is_empty() && !path.exists();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        if fresh_file {
            writeln!(out, "{}", header.to_line())?;
            out.flush()?;
        }
        journal = Some(out);
    }
    let resumed_count = resumed.len() as u64;

    // The lazy job source: enumerate → skip journaled → prepare → one
    // budgeted job per problem. Runs on the stream's worker threads.
    let skip: HashSet<String> = resumed.keys().cloned().collect();
    let jobs = enumerate(frontier)?
        .filter(move |p| !skip.contains(&p.key))
        .map(|p| SpecJob {
            spec: p.spec(),
            table: Some(format!("{:x}", p.bits)),
            orbit: Some(p.orbit),
            key: p.key,
            alphabet: p.alphabet,
            blocks: p.blocks,
        });
    let jobs: Box<dyn Iterator<Item = SpecJob> + Send> = match options.max_records {
        Some(n) => Box::new(jobs.take(n as usize)),
        None => Box::new(jobs),
    };

    let mut agg = RunAgg::default();
    let mut fresh = 0u64;
    let progress_every = options.progress_every;
    let fresh_total = total - resumed_count.min(total);
    let expected = options
        .max_records
        .map_or(fresh_total, |n| n.min(fresh_total));
    let records = run_jobs(engine, jobs, expected, options, &mut agg, |record| {
        if let Some(out) = journal.as_mut() {
            writeln!(out, "{}", record.to_line())?;
            out.flush()?;
        }
        fresh += 1;
        if let Some(every) = progress_every {
            if every > 0 && fresh.is_multiple_of(every) {
                let elapsed = start.elapsed();
                let rate = fresh as f64 / elapsed.as_secs_f64().max(1e-9);
                let remaining = fresh_total.saturating_sub(fresh);
                eprintln!(
                    "[atlas] {}/{} fresh ({} resumed), {:.1} problems/s, eta {:.0}s",
                    fresh,
                    fresh_total,
                    resumed_count,
                    rate,
                    remaining as f64 / rate.max(1e-9),
                );
            }
        }
        Ok(())
    })?;

    let complete = resumed_count + fresh == total;
    let all = resumed.into_values().chain(records);
    let atlas = Atlas::from_records(header, all)?;

    // The engine-level dedup audit: canonical problems must map to
    // pairwise distinct content-addressed plan keys.
    let mut plan_keys = HashSet::with_capacity(atlas.len());
    for record in atlas.records() {
        if !plan_keys.insert(record.plan_key.as_str()) {
            return Err(AtlasError::Invariant(format!(
                "two canonical problems share plan key {}",
                record.plan_key
            )));
        }
    }

    Ok(CensusOutcome {
        atlas,
        stats: CensusStats {
            total,
            fresh,
            resumed: resumed_count,
            complete,
            sat: agg.sat,
            solve_us: agg.solve_us,
            elapsed: start.elapsed(),
        },
    })
}

#[derive(Default)]
struct RunAgg {
    sat: SolverCost,
    solve_us: u64,
}

/// Streams `jobs` through the engine, building one record per job.
/// `on_record` sees every record as soon as it is finished (journal
/// append, progress) before it is collected. `expected` presizes the
/// record buffer: grown by doubling, it would fragment the heap pass
/// after pass in a long-lived process.
fn run_jobs(
    engine: &Arc<Engine>,
    jobs: impl Iterator<Item = SpecJob> + Send + 'static,
    expected: u64,
    options: &CensusOptions,
    agg: &mut RunAgg,
    mut on_record: impl FnMut(&Record) -> Result<(), AtlasError>,
) -> Result<Vec<Record>, AtlasError> {
    let pending: Arc<Mutex<HashMap<u64, Pending>>> = Arc::new(Mutex::new(HashMap::new()));
    let failed: Arc<Mutex<Option<SolveError>>> = Arc::new(Mutex::new(None));
    let step_budget = options.step_budget;
    let even_side = options.even_side;
    let odd_side = options.odd_side;

    let source = {
        let engine = Arc::clone(engine);
        let pending = Arc::clone(&pending);
        let failed = Arc::clone(&failed);
        let mut jobs = jobs;
        let mut ordinal = 0u64;
        std::iter::from_fn(move || {
            let spec_job = jobs.next()?;
            let prepared = match engine.prepare(&spec_job.spec) {
                Ok(prepared) => prepared,
                Err(e) => {
                    // Stop the stream; the consumer surfaces the error
                    // after draining what is already in flight.
                    *lock(&failed) = Some(e);
                    return None;
                }
            };
            let instance = Instance::square(even_side, &IdAssignment::Sequential);
            let mut job = Job::new(Arc::clone(&prepared), instance);
            if step_budget > 0 {
                job = job.with_budget(Budget::steps(step_budget));
            }
            let index = ordinal;
            ordinal += 1;
            lock(&pending).insert(
                index,
                Pending {
                    job: spec_job,
                    prepared,
                },
            );
            Some(job)
        })
    };

    let mut records = Vec::with_capacity(expected as usize);
    for outcome in engine.solve_stream(source) {
        let index = outcome.index;
        let pending_job = lock(&pending).remove(&index).ok_or_else(|| {
            AtlasError::Invariant(format!("stream yielded unknown job index {index}"))
        })?;
        let record = build_record(pending_job, outcome, step_budget, odd_side, agg)?;
        on_record(&record)?;
        records.push((index, record));
    }
    if let Some(e) = lock(&failed).take() {
        return Err(AtlasError::Solve(e));
    }
    // Completion order is nondeterministic across threads; hand records
    // back in input order.
    records.sort_by_key(|&(index, _)| index);
    Ok(records.into_iter().map(|(_, record)| record).collect())
}

/// Classifies an ad-hoc list of problem specs through the census
/// machinery — the same budgeted stream, verdict rules, and record
/// shape the frontier census uses, for callers (examples, notebooks)
/// that bring their own problems instead of a frontier. Records come
/// back in input order, keyed by spec name; the census-only `table` and
/// `orbit` fields stay empty. The journal option is ignored (ad-hoc
/// runs have no canonical resume key space).
pub fn classify_specs(
    engine: &Arc<Engine>,
    specs: Vec<ProblemSpec>,
    options: &CensusOptions,
) -> Result<Vec<Record>, AtlasError> {
    options.validate()?;
    let jobs = specs.into_iter().map(|spec| {
        let (alphabet, blocks) = spec
            .to_block_lcl()
            .map_or((0, 0), |lcl| (lcl.alphabet(), lcl.allowed_count() as u32));
        SpecJob {
            key: spec.name().to_string(),
            spec,
            alphabet,
            blocks,
            table: None,
            orbit: None,
        }
    });
    let mut agg = RunAgg::default();
    run_jobs(
        engine,
        jobs.collect::<Vec<_>>().into_iter(),
        0,
        options,
        &mut agg,
        |_| Ok(()),
    )
}

/// Turns one stream outcome into its census record. Only budget trips
/// and typed unsolvability become verdicts; any other engine error
/// aborts the census loudly.
fn build_record(
    pending: Pending,
    outcome: JobOutcome,
    step_budget: u64,
    odd_side: usize,
    agg: &mut RunAgg,
) -> Result<Record, AtlasError> {
    let Pending { job, prepared } = pending;
    let (solve, rounds, solvable_even, sat) = match outcome.result {
        Ok(labelling) => {
            let report = labelling.report;
            agg.solve_us += report.cost.total_us;
            let sat = report.cost.solver_total();
            (
                format!("solved:{}", report.solver),
                Some(report.rounds.total()),
                Some(true),
                sat,
            )
        }
        Err(SolveError::Unsolvable { .. }) => (
            "unsolvable".to_string(),
            None,
            Some(false),
            SolverCost::default(),
        ),
        Err(SolveError::DeadlineExceeded { tier, .. }) => {
            (format!("timeout:{tier}"), None, None, SolverCost::default())
        }
        Err(e) => return Err(AtlasError::Solve(e)),
    };
    agg.sat.absorb(&sat);

    let class_budget = if step_budget > 0 {
        Budget::steps(step_budget)
    } else {
        Budget::unlimited()
    };
    let class = match prepared.classify_with(&class_budget) {
        Ok(class) => Some(class),
        Err(SolveError::DeadlineExceeded { .. } | SolveError::Cancelled) => None,
        Err(e) => return Err(AtlasError::Solve(e)),
    };

    // The odd-side probe is an existence check on a ≤ odd_side² grid —
    // small enough to stay unbudgeted even for frontier stragglers.
    let odd = Instance::square(odd_side, &IdAssignment::Sequential);
    let solvable_odd = match prepared.solvable(&odd) {
        Ok(solvable) => Some(solvable),
        Err(SolveError::DeadlineExceeded { .. } | SolveError::Cancelled) => None,
        Err(e) => return Err(AtlasError::Solve(e)),
    };

    let analysis_unsolvable = prepared
        .analysis()
        .is_some_and(|a| a.unsolvable().is_some());
    let (verdict, class) = if analysis_unsolvable {
        // Classification of an everywhere-unsolvable problem is vacuous;
        // the verdict carries the information instead.
        (Verdict::Unsolvable, None)
    } else if let Some(class) = class {
        (Verdict::Classified, Some(class))
    } else {
        (Verdict::Timeout, None)
    };

    Ok(Record {
        key: job.key,
        alphabet: job.alphabet,
        blocks: job.blocks,
        table: job.table,
        orbit: job.orbit,
        plan_key: prepared.cache_key().to_string(),
        verdict,
        class,
        solve,
        rounds,
        solvable_even,
        solvable_odd,
        sat,
    })
}

/// Replays a journal: header must match the requested census; records
/// parse line by line. A malformed **final** line is a torn write from a
/// killed run — it is dropped and truncated off the file so appending
/// can continue; a malformed middle line is corruption and refuses.
fn load_journal(path: &Path, expected: &Header) -> Result<HashMap<String, Record>, AtlasError> {
    if !path.exists() {
        return Ok(HashMap::new());
    }
    let text = std::fs::read_to_string(path)?;
    if text.is_empty() {
        return Ok(HashMap::new());
    }
    let lines: Vec<&str> = text.lines().collect();
    let header = Header::parse(lines[0])
        .map_err(|e| AtlasError::Journal(format!("{}:1: {e}", path.display())))?;
    if &header != expected {
        return Err(AtlasError::Journal(format!(
            "{}: journal belongs to a different census (journal header {}, requested {})",
            path.display(),
            header.to_line(),
            expected.to_line(),
        )));
    }
    let mut records = HashMap::new();
    let mut keep = String::with_capacity(text.len());
    keep.push_str(lines[0]);
    keep.push('\n');
    let mut torn = false;
    for (i, line) in lines[1..].iter().enumerate() {
        if line.is_empty() {
            continue;
        }
        match Record::parse(line) {
            Ok(record) => {
                if records.insert(record.key.clone(), record).is_some() {
                    return Err(AtlasError::Journal(format!(
                        "{}:{}: duplicate census key",
                        path.display(),
                        i + 2
                    )));
                }
                keep.push_str(line);
                keep.push('\n');
            }
            Err(_) if i == lines.len() - 2 => {
                // Last line of the file: torn write, drop it.
                torn = true;
            }
            Err(e) => {
                return Err(AtlasError::Journal(format!(
                    "{}:{}: {e}",
                    path.display(),
                    i + 2
                )));
            }
        }
    }
    if torn {
        // Rewrite without the torn tail so the next append starts clean.
        std::fs::write(path, keep)?;
    }
    Ok(records)
}

/// Poison-tolerant mutex acquisition (census state stays consistent
/// under a panicking worker; the stream layer already converts solver
/// panics into typed errors).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
