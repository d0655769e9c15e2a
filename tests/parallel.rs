//! Determinism suite for the parallel drivers (`lambda2::synth::par`).
//!
//! Parallelism may change *when* answers arrive, never *what* they are:
//! `--jobs N` batches must report byte-identical programs at identical
//! costs with identical (permutation-independent) counters, and a failing
//! task must never corrupt its neighbours.

use std::time::Duration;

use lambda2::suite::by_name;
use lambda2::synth::par::{synthesize_batch, ParEngine, ParTask};
use lambda2::synth::{Problem, SearchOptions, Stats, SynthError, Synthesizer};

/// Non-hard suite problems that solve in well under a second each.
const FAST: &[&str] = &[
    "ident",
    "head",
    "tail",
    "last",
    "incr",
    "shiftl",
    "multfirst",
];

/// The options the sequential path would use for a suite problem.
fn options_for(name: &str) -> SearchOptions {
    let bench = by_name(name).expect("suite problem");
    let mut options = bench.tune(SearchOptions::default());
    options.timeout = Some(Duration::from_secs(60));
    options
}

fn task_for(name: &str) -> ParTask {
    let bench = by_name(name).expect("suite problem");
    ParTask {
        spec: bench.problem.clone(),
        options: options_for(name),
        engine: ParEngine::Search,
        collect_trace: false,
    }
}

/// The deterministic counters (phase *timings* are excluded: wall time is
/// the one thing parallelism is allowed to change).
fn counters(stats: &Stats) -> (u64, u64, u64, u64, u64, u64) {
    (
        stats.popped,
        stats.expansions,
        stats.refuted,
        stats.closings,
        stats.verified,
        stats.enumerated_terms,
    )
}

#[test]
fn parallel_batch_matches_sequential_runs_exactly() {
    let tasks: Vec<ParTask> = FAST.iter().map(|n| task_for(n)).collect();
    let outcomes = synthesize_batch(tasks, 4);
    assert_eq!(outcomes.len(), FAST.len());
    for (name, outcome) in FAST.iter().zip(&outcomes) {
        let sequential = Synthesizer::with_options(options_for(name))
            .synthesize_report(&by_name(name).unwrap().problem);
        let seq = sequential.outcome.expect("fast problem solves");
        let report = outcome.result.as_ref().expect("no panic");
        let par = report.outcome.as_ref().expect("fast problem solves");
        assert_eq!(outcome.name, *name);
        assert_eq!(par.program.to_string(), seq.program.to_string(), "{name}");
        assert_eq!(par.cost, seq.cost, "{name}");
        assert_eq!(
            counters(&report.stats),
            counters(&sequential.stats),
            "{name}"
        );
    }
}

#[test]
fn merged_totals_are_permutation_independent() {
    let forward: Vec<ParTask> = FAST.iter().map(|n| task_for(n)).collect();
    let reversed: Vec<ParTask> = FAST.iter().rev().map(|n| task_for(n)).collect();
    let total = |outcomes: &[lambda2::synth::ParOutcome]| {
        let mut sum = Stats::default();
        for o in outcomes {
            sum.merge(&o.result.as_ref().expect("no panic").stats);
        }
        counters(&sum)
    };
    let jobs1 = total(&synthesize_batch(forward.clone(), 1));
    let jobs4 = total(&synthesize_batch(forward, 4));
    let jobs4_rev = total(&synthesize_batch(reversed, 4));
    assert_eq!(jobs1, jobs4, "worker count changed the merged counters");
    assert_eq!(
        jobs4, jobs4_rev,
        "submission order changed the merged counters"
    );
}

#[test]
fn a_failing_task_is_isolated_from_the_rest_of_the_batch() {
    // A problem with contradictory examples fails inside its worker; the
    // batch must deliver that failure as a per-task outcome while every
    // other task completes normally. (Worker *panics* are likewise
    // per-item — see the pool's own unit tests — but since problems cross
    // threads as parsed `Problem`s there is no rebuild step left to
    // crash.)
    let mut broken = task_for("ident");
    broken.spec = Problem::builder("ident")
        .param("x", "int")
        .returns("int")
        .example(&["1"], "1")
        .example(&["1"], "2")
        .build()
        .unwrap();
    let tasks = vec![task_for("head"), broken, task_for("tail")];
    let outcomes = synthesize_batch(tasks, 3);
    assert!(outcomes[0].result.as_ref().is_ok_and(|r| r.outcome.is_ok()));
    let report = outcomes[1].result.as_ref().expect("failure, not panic");
    assert_eq!(
        report.outcome.as_ref().unwrap_err(),
        &SynthError::InconsistentExamples
    );
    assert!(outcomes[2].result.as_ref().is_ok_and(|r| r.outcome.is_ok()));
}
