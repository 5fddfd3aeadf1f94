//! The batched solve path: slices of jobs, mixed problems welcome.
//!
//! [`Engine::solve_batch`] (one prepared problem, a slice of instances)
//! and [`Engine::solve_jobs`] / [`Engine::solve_jobs_with`] (a slice of
//! mixed-problem [`Job`]s, the latter under a joint [`Budget`]) are the
//! slice entry points: per-instance failures stay independent (one
//! unsolvable torus does not poison the batch — even a panicking solver
//! comes back as a typed [`SolveError::Panicked`]), and interchangeable
//! jobs dedup so each distinct labelling is computed once. A slice is
//! three steps over the one execution path: group the jobs
//! (`dedup_groups`), send owned clones of the group representatives
//! through [`Engine::solve_stream_with`] (whose workers are the ones
//! configured with
//! [`EngineBuilder::threads`](crate::engine::EngineBuilder::threads)),
//! and put each outcome back by its input index, cloning it to the
//! group's duplicates.
//!
//! This in-batch grouping is the engine's only dedup. It is exact —
//! every duplicate in the slice is found before anything is solved — and
//! it keeps nothing once the call returns; the stream does no dedup of
//! its own. Dedup shares only between jobs of the *same prepared handle*
//! (with the canonical cache key namespacing the hash buckets): two
//! problems — or two differently-configured engines' handles — solving
//! instances with identical dimensions and identifiers never share a
//! labelling.
//!
//! Determinism contract: for a fixed engine configuration, the results —
//! labels, reports, and errors alike — are identical whatever the thread
//! count, and identical with dedup on or off. The tests in
//! `tests/batch.rs` pin this down byte-for-byte.

use super::{Engine, Instance, Labelling, PreparedProblem, SolveError};
use lcl_core::canonical::fnv1a64;
use lcl_sat::Budget;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One unit of batch or stream work: a prepared problem plus an instance
/// of it. Mixed-problem batches are just slices (or iterators) of jobs
/// whose `prepared` handles differ — the handles are `Arc`s, so jobs are
/// cheap to mint from a prepared plan.
#[derive(Clone, Debug)]
pub struct Job {
    /// The resolved plan to solve with.
    pub prepared: Arc<PreparedProblem>,
    /// The instance to solve.
    pub instance: Instance,
    /// Optional per-job budget (see [`Job::with_budget`]); kept private
    /// so the dedup grouping below is the only arbiter of how budgeted
    /// jobs share.
    budget: Option<Budget>,
}

impl Job {
    /// Pairs a prepared problem with an instance.
    pub fn new(prepared: Arc<PreparedProblem>, instance: Instance) -> Job {
        Job {
            prepared,
            instance,
            budget: None,
        }
    }

    /// Attaches a per-job cooperative [`Budget`] that **replaces** the
    /// entry point's shared budget for this job only. This is the
    /// per-problem-timeout primitive mass pipelines need: a stream can
    /// give every job its own fresh step quota, so one pathological SAT
    /// instance gets a typed [`SolveError::DeadlineExceeded`] while its
    /// neighbours keep their full budgets.
    ///
    /// A budgeted job is never dedup-shared by the in-batch grouping:
    /// its budget is consumable state, so two jobs carrying separate
    /// budgets are not interchangeable — a quota that trips on one must
    /// not decide the other.
    pub fn with_budget(mut self, budget: Budget) -> Job {
        self.budget = Some(budget);
        self
    }

    /// The per-job budget, if one was attached via [`Job::with_budget`].
    pub fn budget(&self) -> Option<&Budget> {
        self.budget.as_ref()
    }
}

/// Per-problem accounting of a batch: one row per distinct prepared
/// problem (by cache key), in order of first appearance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProblemBatchStats {
    /// The problem's display name.
    pub problem: String,
    /// The prepared problem's canonical cache key (the dedup namespace).
    pub cache_key: String,
    /// Jobs in the batch for this problem.
    pub jobs: usize,
    /// Jobs that solved.
    pub solved: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs answered by the in-batch labelling cache instead of a fresh
    /// solve.
    pub dedup_hits: usize,
    /// Fresh solves answered by the §7 synthesised normal form (the
    /// solver whose tables ride the registry's synthesis cache).
    pub synth_solves: usize,
}

/// The outcome of a batch solve: one result per job, in input order, plus
/// aggregate and per-problem counters.
#[derive(Debug)]
pub struct BatchReport {
    results: Vec<Result<Labelling, SolveError>>,
    dedup_hits: usize,
    threads: usize,
    per_problem: Vec<ProblemBatchStats>,
}

impl BatchReport {
    /// Per-job results, in input order.
    pub fn results(&self) -> &[Result<Labelling, SolveError>] {
        &self.results
    }

    /// Consumes the report into its per-job results.
    pub fn into_results(self) -> Vec<Result<Labelling, SolveError>> {
        self.results
    }

    /// Number of solved jobs.
    pub fn solved(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.results.len() - self.solved()
    }

    /// Jobs answered without a fresh solve: exactly the duplicates of an
    /// earlier job in the same batch (0 with
    /// [`EngineBuilder::dedup`](crate::engine::EngineBuilder::dedup) off).
    pub fn dedup_hits(&self) -> usize {
        self.dedup_hits
    }

    /// Worker threads the batch actually ran with (never more than the
    /// number of jobs dispatched after dedup).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total LOCAL rounds across all solved jobs.
    pub fn total_rounds(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|l| l.report.rounds.total())
            .sum()
    }

    /// Per-problem counters, one row per distinct prepared problem in the
    /// batch, in order of first appearance.
    pub fn per_problem(&self) -> &[ProblemBatchStats] {
        &self.per_problem
    }

    /// The counters of one problem, looked up by display name or by
    /// canonical cache key. Display names may collide (two different
    /// block tables can share a free-form name); the cache key is unique
    /// per row, so ambiguous names are disambiguated by passing
    /// [`PreparedProblem::cache_key`](crate::engine::PreparedProblem::cache_key)
    /// instead.
    pub fn problem_stats(&self, problem: &str) -> Option<&ProblemBatchStats> {
        self.per_problem
            .iter()
            .find(|s| s.problem == problem || s.cache_key == problem)
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch: {} solved, {} failed, {} deduped, {} problems, {} total rounds",
            self.solved(),
            self.failed(),
            self.dedup_hits(),
            self.per_problem.len(),
            self.total_rounds()
        )
    }
}

/// A borrowed batch item: the shape both slice entry points lower to —
/// prepared problem, instance, and the optional per-job budget override.
type JobRef<'a> = (&'a Arc<PreparedProblem>, &'a Instance, Option<&'a Budget>);

/// Groups a batch into equivalence classes of interchangeable jobs: same
/// prepared problem, same canonical topology, same dimensions, same
/// identifier assignment — solving is deterministic, so identical inputs
/// have identical outputs. The canonical instance form folds
/// `TorusD { d: 2 }` onto `Torus2`: the two spellings solve through the
/// same lowered plan, so they may share one group.
///
/// "Same prepared problem" means the same *handle* (pointer identity),
/// which both namespaces groups per problem — two problems over
/// instances with identical dims and ids can never collide — and keeps
/// jobs from differently-configured engines apart: two handles may share
/// a cache key yet disagree on seed, budget, or validation
/// policy, so only handle identity guarantees interchangeable outputs.
/// Nothing is lost within one engine, where `prepare` memoises key-equal
/// specs onto one `Arc` (the hash still folds the cache key in, so the
/// common same-problem batch buckets exactly as before).
///
/// Returns the representative index of each group (first occurrence, in
/// input order) and, per job, the index of its group. Grouping is keyed
/// by an FNV hash of the cache key, canonical topology tag, dimensions,
/// and identifiers, but always verified against the actual jobs, so a
/// hash collision costs a comparison, never a wrong share. With `dedup`
/// off every job is its own group.
fn dedup_groups(jobs: &[JobRef<'_>], dedup: bool) -> (Vec<usize>, Vec<usize>) {
    let mut reps: Vec<usize> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(jobs.len());
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, (prepared, inst, budget)) in jobs.iter().enumerate() {
        // With dedup off every job forms a private group. So does a job
        // with its own budget: the budget is consumable state (see
        // `Job::with_budget`), so it is never interchangeable — and is not
        // registered as a share target either.
        if !dedup || budget.is_some() {
            let g = reps.len();
            reps.push(i);
            group_of.push(g);
            continue;
        }
        let bucket = buckets.entry(job_fingerprint(prepared, inst)).or_default();
        let group = bucket.iter().copied().find(|&g| {
            let (rep_prepared, rep_inst, _) = jobs[reps[g]];
            Arc::ptr_eq(rep_prepared, prepared) && rep_inst.same_input(inst)
        });
        match group {
            Some(g) => group_of.push(g),
            None => {
                let g = reps.len();
                reps.push(i);
                bucket.push(g);
                group_of.push(g);
            }
        }
    }
    (reps, group_of)
}

/// The FNV fingerprint of a job's dedup identity: problem cache key,
/// canonical topology tag, dimensions, and identifiers. `dedup_groups`
/// always verifies candidate matches against the actual jobs, so a
/// fingerprint collision costs a comparison, never a wrong share.
fn job_fingerprint(prepared: &PreparedProblem, inst: &Instance) -> u64 {
    let (tag, dims) = inst.canonical_shape();
    fnv1a64(
        prepared
            .cache_key()
            .bytes()
            // 0xff cannot occur in the UTF-8 cache key: an unambiguous
            // separator between the problem and instance halves.
            .chain([0xff, tag])
            .chain(dims.iter().flat_map(|d| (*d as u64).to_le_bytes()))
            .chain(inst.ids().iter().flat_map(|id| id.to_le_bytes())),
    )
}

/// Aggregates the per-problem rows of a finished batch. Rows are keyed
/// by prepared-handle identity — the same criterion dedup shares by — so
/// key-equal handles from differently-configured engines report as
/// separate rows, matching the dedup accounting exactly. Exactly the
/// group representatives were solved fresh; every other job is a dedup
/// hit.
fn per_problem_stats(
    jobs: &[JobRef<'_>],
    results: &[Result<Labelling, SolveError>],
    reps: &[usize],
    group_of: &[usize],
) -> Vec<ProblemBatchStats> {
    let mut rows: Vec<ProblemBatchStats> = Vec::new();
    let mut row_of: HashMap<*const PreparedProblem, usize> = HashMap::new();
    for (i, (prepared, _, _)) in jobs.iter().enumerate() {
        let row = *row_of.entry(Arc::as_ptr(prepared)).or_insert_with(|| {
            rows.push(ProblemBatchStats {
                problem: prepared.spec().name().to_string(),
                cache_key: prepared.cache_key().to_string(),
                jobs: 0,
                solved: 0,
                failed: 0,
                dedup_hits: 0,
                synth_solves: 0,
            });
            rows.len() - 1
        });
        let stats = &mut rows[row];
        let fresh = reps[group_of[i]] == i;
        stats.jobs += 1;
        match &results[i] {
            Ok(labelling) => {
                stats.solved += 1;
                if fresh && labelling.report.solver == super::registry::SYNTHESIS_SOLVER_NAME {
                    stats.synth_solves += 1;
                }
            }
            Err(_) => stats.failed += 1,
        }
        if !fresh {
            stats.dedup_hits += 1;
        }
    }
    rows
}

impl Engine {
    /// Solves a slice of instances of one prepared problem — mixed
    /// topologies welcome: 2-d tori, d-dimensional tori, and boundary
    /// grids can share one batch.
    ///
    /// Interchangeable instances are solved once per batch (see
    /// [`EngineBuilder::dedup`](crate::engine::EngineBuilder::dedup)), and
    /// distinct instances ride the stream's workers
    /// ([`EngineBuilder::threads`](crate::engine::EngineBuilder::threads)).
    /// Results come back in input order; per-instance failures — including
    /// solver panics — stay independent.
    pub fn solve_batch(
        &self,
        prepared: &Arc<PreparedProblem>,
        instances: &[Instance],
    ) -> BatchReport {
        let jobs: Vec<JobRef<'_>> = instances
            .iter()
            .map(|inst| (prepared, inst, None))
            .collect();
        self.run_batch(&jobs, &Budget::unlimited())
    }

    /// Solves a slice of mixed-problem [`Job`]s with the same contract as
    /// [`Engine::solve_batch`]: input order preserved, per-job failures
    /// independent, dedup namespaced by each job's prepared problem.
    pub fn solve_jobs(&self, jobs: &[Job]) -> BatchReport {
        self.solve_jobs_with(jobs, &Budget::unlimited())
    }

    /// [`Engine::solve_jobs`] under a cooperative [`Budget`]. The budget
    /// is *joint* across the whole slice (the workers share its clock and
    /// step counter), so a batch deadline bounds the batch, not each job;
    /// jobs dispatched after the trip fail fast with the same typed
    /// error, and per-job failures stay independent as always. A job
    /// carrying its own [`Job::with_budget`] override is governed by that
    /// budget instead.
    pub fn solve_jobs_with(&self, jobs: &[Job], budget: &Budget) -> BatchReport {
        let refs: Vec<JobRef<'_>> = jobs
            .iter()
            .map(|job| (&job.prepared, &job.instance, job.budget()))
            .collect();
        self.run_batch(&refs, budget)
    }

    fn run_batch(&self, jobs: &[JobRef<'_>], budget: &Budget) -> BatchReport {
        let (reps, group_of) = dedup_groups(jobs, self.dedup);
        // The stream caps its workers at the deduped list's length, so
        // the report never claims workers that had nothing to run.
        let stream = self.solve_stream_with(
            reps.iter()
                .map(|&i| {
                    let (prepared, instance, job_budget) = jobs[i];
                    Job {
                        prepared: Arc::clone(prepared),
                        instance: instance.clone(),
                        budget: job_budget.cloned(),
                    }
                })
                .collect::<Vec<Job>>(),
            budget,
        );
        let threads = stream.threads();
        let mut results = vec![None; jobs.len()];
        for outcome in stream {
            results[reps[outcome.index as usize]] = Some(outcome.result);
        }
        // Fan each representative's result out to its later duplicates: an
        // all-distinct batch (the common case) pays zero clones.
        for (i, &g) in group_of.iter().enumerate() {
            if results[i].is_none() {
                results[i] = results[reps[g]].clone();
            }
        }
        let results: Vec<Result<Labelling, SolveError>> = results
            .into_iter()
            .map(|r| r.expect("the stream yields every representative"))
            .collect();
        let dedup_hits = jobs.len() - reps.len();
        self.stream_dedup_hits
            .fetch_add(dedup_hits as u64, Ordering::Relaxed);
        BatchReport {
            per_problem: per_problem_stats(jobs, &results, &reps, &group_of),
            results,
            dedup_hits,
            threads,
        }
    }
}
