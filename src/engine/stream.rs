//! The streaming solve path — the engine's one execution path:
//! million-job workloads in `O(threads)` memory.
//!
//! [`Engine::solve_stream`] takes an *iterator* of mixed-problem
//! [`Job`]s and returns a [`SolveStream`] — itself an iterator of
//! [`JobOutcome`]s. Jobs are pulled from the input lazily, one per idle
//! worker, and finished results flow back through a bounded channel: when
//! the consumer stops draining, the channel fills, the workers block on
//! their sends, and no further jobs are pulled. The input is therefore
//! never materialised; at any moment at most
//! [`SolveStream::buffer_bound`] jobs (`2 × threads`: one in flight per
//! worker, one finished result buffered per worker) have been pulled but
//! not yet yielded. `tests/prepare.rs` pins the bound with a counting
//! iterator over 10 000 jobs. The workers here are the only threads the
//! engine spawns: the slice entry points ([`Engine::solve_batch`],
//! [`Engine::solve_jobs`], [`Engine::solve_jobs_with`]) send their
//! deduped jobs through this path and reorder the outcomes by index.
//!
//! The stream itself does no dedup: remembering previously seen jobs is
//! exactly what an unbounded workload cannot afford. Jobs known up front
//! belong on the slice entry points, whose in-batch dedup is exact. The
//! shared caches still amortise across the stream: synthesis tables and
//! prepared plans are resolved once per problem, not per job. Results
//! arrive in *completion* order, tagged with the job's input index; a
//! consumer that needs input order should use the slice entry points,
//! which reorder by that index.

use super::batch::Job;
use super::{Engine, Labelling, SolveError};
use lcl_sat::Budget;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// One finished stream job: the input position it came from, the problem
/// it belongs to, and the solve result.
#[derive(Debug)]
pub struct JobOutcome {
    /// Zero-based position of the job in the input iterator.
    pub index: u64,
    /// The prepared problem's display name.
    pub problem: String,
    /// The solve result.
    pub result: Result<Labelling, SolveError>,
}

/// The shared pull-end of a stream: the job iterator plus the running
/// input index, taken by one worker at a time. `jobs` becomes `None`
/// once the iterator is exhausted — or once it panicked, so that every
/// worker (not just the observing one) stops pulling from it.
struct JobSource<I> {
    jobs: Option<I>,
    next_index: u64,
}

/// The `problem` tag of the outcome reporting a panicking jobs iterator
/// (there is no prepared problem to name — the input itself failed).
pub const JOBS_ITERATOR_PANICKED: &str = "<jobs-iterator>";

/// A running streamed solve: iterate it to drain results (in completion
/// order). Dropping the stream early is safe — workers observe the
/// disconnected channel and wind down; the drop joins them.
pub struct SolveStream {
    rx: Option<mpsc::Receiver<JobOutcome>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl SolveStream {
    /// Worker threads solving this stream.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The guaranteed bound on jobs pulled from the input but not yet
    /// yielded to the consumer: one in-flight job per worker plus one
    /// buffered result slot per worker (`2 × threads`). This is what
    /// keeps an arbitrarily long input in `O(threads)` memory.
    pub fn buffer_bound(&self) -> usize {
        2 * self.threads
    }
}

impl Iterator for SolveStream {
    type Item = JobOutcome;

    fn next(&mut self) -> Option<JobOutcome> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl Drop for SolveStream {
    fn drop(&mut self) {
        // Disconnect first so blocked workers fail their sends instead of
        // deadlocking against a join, then reap them.
        self.rx = None;
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Engine {
    /// Streams a (possibly unbounded, possibly mixed-problem) sequence of
    /// [`Job`]s through the configured worker threads, yielding
    /// [`JobOutcome`]s in completion order through a bounded channel with
    /// backpressure.
    ///
    /// The input iterator is pulled lazily from the worker threads — one
    /// job per idle worker — so the jobs are never collected; see
    /// [`SolveStream::buffer_bound`] for the exact in-flight bound. The
    /// worker count is capped at the input's `size_hint` upper bound, so
    /// a short finite input never spawns idle workers. Workers adopt the
    /// calling thread's trace id ([`lcl_trace::current_trace`]), so their
    /// solve and tier spans land in the caller's trace. A
    /// panicking solver terminates only the affected job (typed as
    /// [`SolveError::Panicked`]); a panicking jobs *iterator* ends the
    /// stream for every worker and is reported — never swallowed — as a
    /// final [`JobOutcome`] whose `problem` is
    /// [`JOBS_ITERATOR_PANICKED`] and whose result is the typed panic,
    /// so a consumer can always tell truncation from completion.
    ///
    /// ```
    /// use lcl_grids::engine::{Engine, Instance, Job, ProblemSpec};
    /// use lcl_grids::local::IdAssignment;
    ///
    /// let engine = Engine::builder().threads(2).build();
    /// let ind = engine.prepare(&ProblemSpec::independent_set()).unwrap();
    /// let jobs = (0..100u64).map(move |seed| {
    ///     Job::new(
    ///         ind.clone(),
    ///         Instance::square(4, &IdAssignment::Shuffled { seed }),
    ///     )
    /// });
    /// let mut seen = 0;
    /// for outcome in engine.solve_stream(jobs) {
    ///     assert!(outcome.result.is_ok());
    ///     seen += 1;
    /// }
    /// assert_eq!(seen, 100);
    /// ```
    pub fn solve_stream<I>(&self, jobs: I) -> SolveStream
    where
        I: IntoIterator<Item = Job>,
        I::IntoIter: Send + 'static,
    {
        self.solve_stream_with(jobs, &Budget::unlimited())
    }

    /// [`Engine::solve_stream`] under a joint cooperative [`Budget`]: the
    /// workers share the budget's clock and step counter, so a stream
    /// deadline bounds the whole drain — jobs dispatched after the trip
    /// fail fast with the typed error while the stream itself stays live
    /// and yields every outcome. A job carrying its own
    /// [`Job::with_budget`] override is governed by that budget instead
    /// — the per-problem-timeout shape mass pipelines (the `lcl-atlas`
    /// census) drive through this entry point.
    pub fn solve_stream_with<I>(&self, jobs: I, budget: &Budget) -> SolveStream
    where
        I: IntoIterator<Item = Job>,
        I::IntoIter: Send + 'static,
    {
        let jobs = jobs.into_iter();
        // `threads(0)` means every core; never more workers than jobs.
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            t => t,
        }
        .min(jobs.size_hint().1.unwrap_or(usize::MAX).max(1));
        // Capacity `threads`: with one in-flight job per worker this caps
        // pulled-but-unyielded jobs at 2 × threads, the documented bound.
        let (tx, rx) = mpsc::sync_channel::<JobOutcome>(threads);
        let shared = Arc::new(Workers {
            source: Mutex::new(JobSource {
                jobs: Some(jobs),
                next_index: 0,
            }),
            budget: budget.clone(),
            tx,
            trace_id: lcl_trace::current_trace(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.run())
            })
            .collect();
        SolveStream {
            rx: Some(rx),
            workers,
            threads,
        }
    }
}

/// What a stream's workers share: the job source, the joint budget, and
/// the sending end of the outcome channel (which disconnects once the
/// last worker exits).
struct Workers<I> {
    source: Mutex<JobSource<I>>,
    budget: Budget,
    tx: mpsc::SyncSender<JobOutcome>,
    /// The submitting thread's trace id, adopted by every worker.
    trace_id: u64,
}

impl<I: Iterator<Item = Job>> Workers<I> {
    /// One worker: pull a job, solve it, send the outcome — until the
    /// input ends or the consumer hangs up.
    fn run(&self) {
        lcl_trace::set_current_trace(self.trace_id);
        while let Some((index, job)) = self.pull() {
            let outcome = JobOutcome {
                index,
                problem: job.prepared.spec().name().to_string(),
                result: self.solve(&job),
            };
            // A dropped consumer disconnects the channel: stop pulling
            // and wind down.
            if self.tx.send(outcome).is_err() {
                break;
            }
        }
    }

    /// The next job and its input index, or `None` once the input is
    /// exhausted. A panicking jobs iterator ends the stream for every
    /// worker (its state is unusable) and is reported as a final typed
    /// outcome, so the consumer can tell truncation from completion.
    fn pull(&self) -> Option<(u64, Job)> {
        let mut source = self.source.lock().unwrap_or_else(PoisonError::into_inner);
        let jobs = source.jobs.as_mut()?;
        match catch_unwind(AssertUnwindSafe(|| jobs.next())) {
            Ok(Some(job)) => {
                let index = source.next_index;
                source.next_index += 1;
                Some((index, job))
            }
            Ok(None) => {
                source.jobs = None;
                None
            }
            Err(payload) => {
                source.jobs = None;
                let index = source.next_index;
                drop(source);
                let _ = self.tx.send(JobOutcome {
                    index,
                    problem: JOBS_ITERATOR_PANICKED.to_string(),
                    result: Err(panicked(payload)),
                });
                None
            }
        }
    }

    /// Solves one job under its own budget, or the stream's when it
    /// carries none, mapping a panicking solver to a typed error.
    fn solve(&self, job: &Job) -> Result<Labelling, SolveError> {
        let budget = job.budget().unwrap_or(&self.budget);
        catch_unwind(AssertUnwindSafe(|| {
            job.prepared.solve_with(&job.instance, budget)
        }))
        .unwrap_or_else(|payload| Err(panicked(payload)))
    }
}

/// The typed error for a caught panic, carrying its message.
fn panicked(payload: Box<dyn std::any::Any + Send>) -> SolveError {
    let detail = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or("non-string panic payload", |s| *s)
            .to_string(),
    };
    SolveError::Panicked { detail }
}
