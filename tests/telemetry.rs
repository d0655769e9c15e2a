//! End-to-end tests for the observability layer: trace sinks, phase
//! timing, the zero-cost-when-disabled guarantee, and the timeout option.

use std::time::{Duration, Instant};

use lambda2::synth::obs::{json, CollectTracer, JsonlTracer, TraceEvent, Tracer};
use lambda2::synth::{Problem, SearchOptions, SynthError, Synthesizer};

fn evens() -> Problem {
    Problem::builder("evens")
        .param("l", "[int]")
        .returns("[int]")
        .example(&["[]"], "[]")
        .example(&["[1 2 3 4]"], "[2 4]")
        .example(&["[5 6]"], "[6]")
        .build()
        .unwrap()
}

fn sum() -> Problem {
    Problem::builder("sum")
        .param("l", "[int]")
        .returns("int")
        .example(&["[]"], "0")
        .example(&["[5]"], "5")
        .example(&["[5 3]"], "8")
        .example(&["[5 3 9]"], "17")
        .build()
        .unwrap()
}

/// The JSONL sink writes one parseable object per line, every line carries
/// an `ev` discriminator, and the required event families all appear.
#[test]
fn jsonl_trace_is_well_formed_and_complete() {
    let path = std::env::temp_dir().join("lambda2-telemetry-test.jsonl");
    let mut tracer = JsonlTracer::create(&path).unwrap();
    let result = Synthesizer::new()
        .synthesize_report_traced(&sum(), &mut tracer)
        .outcome
        .expect("solves");
    let lines = tracer.finish().unwrap();
    assert!(lines > 0);

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let mut kinds = std::collections::BTreeSet::new();
    let mut count = 0u64;
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        kinds.insert(v.get("ev").unwrap().as_str().unwrap().to_owned());
        count += 1;
    }
    assert_eq!(count, lines);
    for required in ["pop", "plan", "refute", "store", "verify"] {
        assert!(
            kinds.contains(required),
            "missing `{required}` in {kinds:?}"
        );
    }
    // And the run actually found the fold.
    assert!(result.program.body().to_string().contains("foldl"));
}

/// The in-memory tracer sees the same event stream shape, and the pop
/// counter in the events matches the popped stat.
#[test]
fn collect_tracer_pop_events_match_stats() {
    let mut tracer = CollectTracer::default();
    let result = Synthesizer::new()
        .synthesize_report_traced(&evens(), &mut tracer)
        .outcome
        .expect("solves");
    let pops: Vec<u64> = tracer
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Pop { n, .. } => Some(*n),
            _ => None,
        })
        .collect();
    assert_eq!(pops.len() as u64, result.stats.popped);
    // Pop numbers are the 1-based running counter.
    assert_eq!(pops.first(), Some(&1));
    assert_eq!(pops.last(), Some(&result.stats.popped));
    // The successful verification is the last verify event.
    let last_verify = tracer
        .events
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::Verify { ok, program, .. } => Some((*ok, program.clone())),
            _ => None,
        })
        .expect("at least one verify event");
    assert!(last_verify.0);
    assert_eq!(last_verify.1, result.program.body().to_string());
}

/// Phase timings are nonzero on a real run and their sum never exceeds
/// the run's wall-clock elapsed (the phases partition disjoint regions).
#[test]
fn phase_timings_are_nonzero_and_sum_within_elapsed() {
    let result = Synthesizer::new().synthesize(&sum()).expect("solves");
    let phases = &result.stats.phases;
    assert!(phases.total() > Duration::ZERO, "no phase time recorded");
    assert!(phases.enumerate > Duration::ZERO, "enumeration untimed");
    assert!(
        phases.total() <= result.elapsed,
        "phases {} exceed elapsed {:?}",
        phases,
        result.elapsed
    );
}

/// A disabled tracer must never receive an event — call sites are required
/// to check `enabled()` before constructing payloads.
#[test]
fn disabled_tracer_receives_zero_events_and_same_answer() {
    struct CountingDisabled {
        emitted: usize,
    }
    impl Tracer for CountingDisabled {
        fn enabled(&self) -> bool {
            false
        }
        fn emit(&mut self, _event: TraceEvent) {
            self.emitted += 1;
        }
    }

    let mut off = CountingDisabled { emitted: 0 };
    let traced = Synthesizer::new()
        .synthesize_report_traced(&evens(), &mut off)
        .outcome
        .expect("solves");
    assert_eq!(off.emitted, 0, "disabled tracer received events");

    // And tracing (on or off) does not change the search's answer.
    let plain = Synthesizer::new().synthesize(&evens()).expect("solves");
    let mut on = CollectTracer::default();
    let full = Synthesizer::new()
        .synthesize_report_traced(&evens(), &mut on)
        .outcome
        .expect("solves");
    assert_eq!(traced.program.to_string(), plain.program.to_string());
    assert_eq!(full.program.to_string(), plain.program.to_string());
    assert_eq!(traced.cost, plain.cost);
    assert_eq!(traced.stats.popped, plain.stats.popped);
    assert!(!on.events.is_empty());
}

/// Regression: `SearchOptions::timeout` is honored — an unsolvable search
/// under a tiny budget reports `Timeout` promptly instead of running on.
#[test]
fn timeout_option_is_honored() {
    // Arbitrary list-to-list junk: nothing under the default cost ceiling
    // fits, and the [int] -> [int] term space is far too large to exhaust
    // within the budget, so the clock is what stops the search.
    let p = Problem::builder("impossible")
        .param("l", "[int]")
        .returns("[int]")
        .example(&["[1]"], "[17 3]")
        .example(&["[2 5]"], "[4]")
        .example(&["[9]"], "[0 0 0]")
        .example(&["[3 3 3]"], "[8 1]")
        .build()
        .unwrap();
    let options = SearchOptions {
        timeout: Some(Duration::from_millis(150)),
        ..SearchOptions::default()
    };
    let start = Instant::now();
    let err = Synthesizer::with_options(options)
        .synthesize(&p)
        .unwrap_err();
    let waited = start.elapsed();
    assert_eq!(err, SynthError::Timeout);
    // The loop checks the clock every 64 pops; generous slack for CI.
    assert!(waited < Duration::from_secs(10), "took {waited:?}");
}
