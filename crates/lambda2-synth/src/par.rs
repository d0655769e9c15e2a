//! Parallel synthesis: a hand-rolled worker pool for multi-problem
//! batches.
//!
//! The engine's data spine (`Problem`/`Library`/`Value`/`Expr`) shares
//! structure via `Arc`, so problems and reports are `Send` and cross
//! threads directly — workers borrow the very same `Problem` the caller
//! holds, and results come back as ordinary [`SearchReport`]s. (Earlier
//! revisions smuggled work across threads as string-rendered specs that
//! each worker re-parsed; the arena/`Arc` spine made that layer — and its
//! render→re-parse lossiness hazard — unnecessary.) The symbol interner
//! is a global mutex, so symbols stay consistent across threads.
//!
//! [`synthesize_batch`] builds on the [`run_pool`] primitive (std
//! `thread` + `mpsc`; the workspace takes no crates.io dependencies, so
//! no rayon): it fans independent problems across workers, each under its
//! own [`Budget`] with panic isolation, and returns outputs in submission
//! order, so batch output is deterministic no matter how the scheduler
//! interleaves workers. A single search is always sequential.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use crate::baseline::{baseline_report, BaselineOptions};
use crate::govern::{panic_message, Budget, SearchReport};
use crate::obs::json::Json;
use crate::obs::{CollectTracer, NoopTracer, TraceEvent, Tracer};
use crate::problem::Problem;
use crate::search::SearchOptions;
use crate::synthesizer::Synthesizer;

// ---------------------------------------------------------------------------
// The worker pool.
// ---------------------------------------------------------------------------

/// One item's result from [`run_pool`].
#[derive(Debug)]
pub struct PoolItem<R> {
    /// Which worker (0-based) processed the item.
    pub worker: usize,
    /// The closure's result, or the rendered panic message if it crashed.
    /// A panic is isolated to its item: the worker survives and moves on
    /// to the next job.
    pub result: Result<R, String>,
}

/// Resolves a requested `--jobs` count: `0` means one worker per
/// available CPU.
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Fans `items` across `jobs` worker threads (std `thread` + `mpsc`),
/// calling `f(worker, index, item)` for each, and returns the results in
/// the original item order — output is deterministic regardless of how
/// the scheduler interleaves workers. Panics inside `f` are caught per
/// item. All workers are joined before this returns.
pub fn run_pool<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<PoolItem<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let n = items.len();
    let jobs = effective_jobs(jobs).min(n.max(1));
    let (job_tx, job_rx) = mpsc::channel::<(usize, T)>();
    for item in items.into_iter().enumerate() {
        job_tx.send(item).expect("receiver outlives the send loop");
    }
    drop(job_tx);
    // Workers share the receiving end behind a mutex: each locks just long
    // enough to pull one job, giving contention-free dynamic load
    // balancing without a work-stealing deque.
    let job_rx = Mutex::new(job_rx);
    let (res_tx, res_rx) = mpsc::channel::<(usize, PoolItem<R>)>();
    let mut out: Vec<Option<PoolItem<R>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let job_rx = &job_rx;
            let res_tx = res_tx.clone();
            let f = &f;
            scope.spawn(move || loop {
                let job = job_rx
                    .lock()
                    .expect("no panics while holding the job lock")
                    .recv();
                let Ok((index, item)) = job else { break };
                let result = catch_unwind(AssertUnwindSafe(|| f(worker, index, item)))
                    .map_err(|payload| panic_message(&*payload));
                let _ = res_tx.send((index, PoolItem { worker, result }));
            });
        }
        drop(res_tx);
        for (index, item) in res_rx {
            out[index] = Some(item);
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every job reports exactly once"))
        .collect()
}

// ---------------------------------------------------------------------------
// Multi-problem batches.
// ---------------------------------------------------------------------------

/// Which engine a [`ParTask`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParEngine {
    /// The governed best-first search (`deduction` off in the task's
    /// options gives the ablation).
    Search,
    /// The pure enumerative baseline.
    Baseline,
}

/// One unit of work for [`synthesize_batch`].
#[derive(Clone, Debug)]
pub struct ParTask {
    /// The problem to solve (`Arc`-spined, shared across threads as-is).
    pub spec: Problem,
    /// Fully resolved search options (the worker applies them verbatim).
    pub options: SearchOptions,
    /// Which engine to run.
    pub engine: ParEngine,
    /// Collect trace events for the caller (they come back in
    /// [`ParOutcome::events`], ready for worker-tagged merging).
    pub collect_trace: bool,
}

/// One task's outcome from [`synthesize_batch`], in submission order.
#[derive(Debug)]
pub struct ParOutcome {
    /// Which worker ran the task.
    pub worker: usize,
    /// The problem name (echoed so callers need not keep the task list).
    pub name: String,
    /// Number of examples in the problem.
    pub examples: usize,
    /// The report, or the rendered panic message.
    pub result: Result<SearchReport, String>,
    /// Trace events, when the task asked for them (empty otherwise).
    pub events: Vec<TraceEvent>,
    /// Time the task spent queued before a worker picked it up. Also
    /// recorded in the report's `queue_wait_us` metric so batch p99s can
    /// attribute scheduling delay separately from search time.
    pub queue_wait: Duration,
}

/// Runs `tasks` across `jobs` workers and returns outcomes in submission
/// order. Each task gets its own [`Budget`]; a panic anywhere inside one
/// task's engine is isolated into that task's outcome. Per-task results
/// and stats are identical to running the same task sequentially —
/// workers share nothing but the (thread-safe) symbol interner.
pub fn synthesize_batch(tasks: Vec<ParTask>, jobs: usize) -> Vec<ParOutcome> {
    let names: Vec<(String, usize)> = tasks
        .iter()
        .map(|t| (t.spec.name().to_owned(), t.spec.examples().len()))
        .collect();
    // All tasks are submitted before any worker starts; the gap between
    // this instant and a worker's pickup is pure scheduling delay.
    let submitted = Instant::now();
    let results = run_pool(tasks, jobs, |_worker, _index, task| {
        let queue_wait = submitted.elapsed();
        let (mut report, events) = run_task(&task);
        report
            .stats
            .metrics
            .queue_wait_us
            .record(queue_wait.as_micros() as u64);
        (report, events, queue_wait)
    });
    results
        .into_iter()
        .zip(names)
        .map(|(item, (name, examples))| match item.result {
            Ok((report, events, queue_wait)) => ParOutcome {
                worker: item.worker,
                name,
                examples,
                result: Ok(report),
                events,
                queue_wait,
            },
            Err(msg) => ParOutcome {
                worker: item.worker,
                name,
                examples,
                result: Err(msg),
                events: Vec::new(),
                queue_wait: Duration::ZERO,
            },
        })
        .collect()
}

/// Runs one task on the current thread (panics propagate to the pool's
/// per-item isolation).
fn run_task(task: &ParTask) -> (SearchReport, Vec<TraceEvent>) {
    let problem = &task.spec;
    let mut tracer = CollectTracer::default();
    let mut noop = NoopTracer;
    let report = match task.engine {
        ParEngine::Search => {
            let tr: &mut dyn Tracer = if task.collect_trace {
                &mut tracer
            } else {
                &mut noop
            };
            Synthesizer::with_options(task.options.clone()).synthesize_report_traced(problem, tr)
        }
        ParEngine::Baseline => {
            let bopts = BaselineOptions::for_search(&task.options);
            let budget = Budget::new(task.options.timeout, task.options.max_overshoot);
            baseline_report(problem, &bopts, &budget)
        }
    };
    (report, tracer.events)
}

/// Tags one trace event with the problem and worker that produced it —
/// the per-event JSON object gains leading `problem` and `worker` fields,
/// so merged multi-problem JSONL streams stay attributable.
pub fn tagged_event_json(event: &TraceEvent, problem: &str, worker: usize) -> Json {
    match event.to_json() {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("worker".to_owned(), worker.into()));
            pairs.insert(0, ("problem".to_owned(), Json::str(problem)));
            Json::Obj(pairs)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_problem() -> Problem {
        Problem::builder("sum")
            .param("l", "[int]")
            .returns("int")
            .example(&["[]"], "0")
            .example(&["[1]"], "1")
            .example(&["[1 2]"], "3")
            .example(&["[1 2 3]"], "6")
            .build()
            .unwrap()
    }

    #[test]
    fn pool_preserves_order_and_isolates_panics() {
        let items: Vec<u32> = (0..16).collect();
        let results = run_pool(items, 4, |_w, _i, x| {
            if x == 7 {
                panic!("boom at {x}");
            }
            x * 2
        });
        assert_eq!(results.len(), 16);
        for (i, item) in results.iter().enumerate() {
            if i == 7 {
                assert_eq!(item.result.as_ref().unwrap_err(), "boom at 7");
            } else {
                assert_eq!(*item.result.as_ref().unwrap(), 2 * i as u32);
            }
        }
    }

    #[test]
    fn effective_jobs_resolves_zero_to_a_positive_count() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn batch_matches_direct_synthesis() {
        let p = sum_problem();
        let direct = Synthesizer::default().synthesize(&p).expect("solves");
        let task = ParTask {
            spec: p.clone(),
            options: SearchOptions::default(),
            engine: ParEngine::Search,
            collect_trace: false,
        };
        let outcomes = synthesize_batch(vec![task], 2);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].name, "sum");
        let report = outcomes[0].result.as_ref().expect("no panic");
        let win = report.outcome.as_ref().expect("solved");
        assert_eq!(win.program.to_string(), direct.program.to_string());
        assert_eq!(win.cost, direct.cost);
        assert_eq!(win.stats.popped, direct.stats.popped);
        assert_eq!(win.stats.enumerated_terms, direct.stats.enumerated_terms);
    }

    #[test]
    fn tagged_events_carry_problem_and_worker() {
        let e = TraceEvent::Fault {
            site: "verify.candidate",
            detail: "boom".into(),
        };
        let j = tagged_event_json(&e, "sum", 3);
        assert_eq!(j.get("problem").and_then(|v| v.as_str()), Some("sum"));
        assert_eq!(j.get("worker").and_then(|v| v.as_i64()), Some(3));
    }
}
