//! End-to-end tests for the offline profiling layer: trace loading with
//! schema-version validation and a tolerated torn tail, `diff` alignment
//! over real runs, collapsed stacks, and metrics histograms that agree
//! with the search counters.

use std::path::PathBuf;
use std::time::Duration;

use lambda2::synth::{
    collapse_tree, diff_traces, load_trace, parse_trace, summarize, DiffOutcome, JsonlTracer,
    Problem, ProfileError, RecordError, SearchOptions, Synthesizer, Trace, Weight, SCHEMA_VERSION,
};

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

/// Runs one traced synthesis into a temp file and loads the trace back.
fn traced_run(problem: &Problem, tag: &str) -> (Trace, PathBuf) {
    let path = std::env::temp_dir().join(format!("lambda2-profile-test-{tag}.jsonl"));
    let mut tracer = JsonlTracer::create(&path).unwrap();
    Synthesizer::new()
        .synthesize_report_traced(problem, &mut tracer)
        .outcome
        .expect("solves");
    tracer.finish().unwrap();
    let trace = load_trace(&path).unwrap();
    (trace, path)
}

/// Two traced runs of the same deterministic problem diff as identical:
/// the `t_us` wall-clock fields differ, but the alignment keys strip them.
#[test]
fn diff_of_identical_runs_is_empty() {
    let (a, pa) = traced_run(&sum(), "diff-a");
    let (b, pb) = traced_run(&sum(), "diff-b");
    let _ = std::fs::remove_file(&pa);
    let _ = std::fs::remove_file(&pb);
    assert!(!a.is_empty());
    // Timestamps differ between the runs (so the diff is genuinely key
    // based), yet the outcome is identical.
    assert!(a.has_timestamps() && b.has_timestamps());
    assert_eq!(
        diff_traces(&a, &b),
        DiffOutcome::Identical { events: a.len() }
    );
}

/// Swapping two adjacent events with different keys yields a divergence
/// at exactly the swap point, reporting both keys.
#[test]
fn permuted_trace_reports_the_first_divergence() {
    let (a, pa) = traced_run(&evens(), "perm");
    let _ = std::fs::remove_file(&pa);
    let key = |t: &Trace, i: usize| lambda2::synth::obs::profile::event_key(&t.events[i]);

    // Find the first adjacent pair with distinct keys (deterministically).
    let i = (0..a.len() - 1)
        .find(|&i| key(&a, i) != key(&a, i + 1))
        .expect("a real trace has at least two distinct adjacent events");
    let mut b = a.clone();
    b.events.swap(i, i + 1);

    match diff_traces(&a, &b) {
        DiffOutcome::Divergence {
            index,
            key_a,
            key_b,
        } => {
            assert_eq!(index, i);
            assert_eq!(key_a, key(&a, i));
            assert_eq!(key_b, key(&a, i + 1));
        }
        other => panic!("expected divergence, got {other:?}"),
    }
}

/// Dropping a suffix is reported as truncation (a run that stopped
/// early), not as a divergence.
#[test]
fn truncated_trace_is_reported_as_truncated_not_divergent() {
    let (a, pa) = traced_run(&evens(), "trunc");
    let _ = std::fs::remove_file(&pa);
    let mut b = a.clone();
    b.events.truncate(a.len() - 3);
    assert_eq!(
        diff_traces(&a, &b),
        DiffOutcome::Truncated {
            common: a.len() - 3,
            len_a: a.len(),
            len_b: a.len() - 3,
        }
    );
    // Symmetric in the other direction.
    assert!(matches!(
        diff_traces(&b, &a),
        DiffOutcome::Truncated { common, .. } if common == a.len() - 3
    ));
}

/// A trace whose writer died mid-line loads minus the torn final event,
/// and diffs against the complete trace as truncated.
#[test]
fn torn_trace_tail_loads_and_diffs_as_truncated() {
    let (full, path) = traced_run(&evens(), "torn");
    let bytes = std::fs::read(&path).unwrap();
    let cut_path = path.with_extension("cut.jsonl");
    std::fs::write(&cut_path, &bytes[..bytes.len() - 40]).unwrap();
    let cut = load_trace(&cut_path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&cut_path);
    let cut = cut.expect("a torn tail is skipped, not an error");
    assert_eq!(cut.len(), full.len() - 1);
    assert_eq!(
        diff_traces(&full, &cut),
        DiffOutcome::Truncated {
            common: full.len() - 1,
            len_a: full.len(),
            len_b: full.len() - 1,
        }
    );
}

/// Traces from other schema versions (or the unversioned pre-PR 5
/// format) are rejected with the offending line, not misparsed.
#[test]
fn old_and_future_schema_versions_are_rejected() {
    let future = format!(
        "{{\"v\":1,\"ev\":\"pop\",\"kind\":\"hyp\",\"cost\":1,\"holes\":1,\"sketch\":\"?1\"}}\n\
         {{\"v\":{},\"ev\":\"pop\",\"kind\":\"hyp\",\"cost\":2,\"holes\":1,\"sketch\":\"?2\"}}",
        SCHEMA_VERSION + 1
    );
    assert!(matches!(
        parse_trace(&future).unwrap_err(),
        ProfileError::Record(RecordError::Version {
            line: 2,
            found: Some(v),
            ..
        }) if v == SCHEMA_VERSION as i64 + 1
    ));
    let unversioned = r#"{"ev":"pop","kind":"hyp","cost":1,"holes":1,"sketch":"?1"}"#;
    assert!(matches!(
        parse_trace(unversioned).unwrap_err(),
        ProfileError::Record(RecordError::Version {
            line: 1,
            found: None,
            ..
        })
    ));
}

/// Progress heartbeats are wall-clock driven, so `diff` skips them the
/// way it strips `t_us`: two runs that differ only in where (and whether)
/// heartbeats landed still diff as identical.
#[test]
fn diff_ignores_progress_heartbeats() {
    let pop = r#"{"v":1,"ev":"pop","kind":"hyp","cost":1,"holes":1,"sketch":"?1"}"#;
    let verify = r#"{"v":1,"ev":"verify","ok":true,"cost":7,"program":"l"}"#;
    let hb = |q: u64| {
        format!(
            r#"{{"v":1,"ev":"progress","queue":{q},"best_cost":3,"budget":{{"pops":{q}}},"phases":{{}}}}"#
        )
    };
    let a = parse_trace(&[pop.to_owned(), hb(5), verify.to_owned()].join("\n")).unwrap();
    let b = parse_trace(&[hb(9), pop.to_owned(), verify.to_owned(), hb(2)].join("\n")).unwrap();
    let c = parse_trace(&[pop, verify].join("\n")).unwrap();
    assert_eq!(diff_traces(&a, &b), DiffOutcome::Identical { events: 2 });
    assert_eq!(diff_traces(&a, &c), DiffOutcome::Identical { events: 2 });
    // Real differences still surface.
    let d = parse_trace(&[verify.to_owned(), hb(1)].join("\n")).unwrap();
    assert!(!diff_traces(&a, &d).is_identical());
}

/// The summary and collapsed stacks of a real run are well-formed: event
/// counts line up, the solution is attributed, time adds up, and both
/// weightings produce the same stack set.
#[test]
fn summary_and_tree_cover_a_real_run() {
    let (trace, path) = traced_run(&sum(), "summary");
    let _ = std::fs::remove_file(&path);
    let s = summarize(&trace);
    assert_eq!(s.events, trace.len());
    let (program, _cost) = s.solution.as_ref().expect("solved run records a solution");
    assert!(
        program.contains("foldl") || program.contains("foldr"),
        "{program}"
    );
    let t = s.time.as_ref().expect("sequential traces carry timestamps");
    assert_eq!(
        t.total_us,
        t.deduce_us + t.enumerate_us + t.verify_us + t.search_us
    );

    let pops = collapse_tree(&trace, Weight::Pops).unwrap();
    let time = collapse_tree(&trace, Weight::Time).unwrap();
    assert!(pops.iter().any(|(stack, _)| stack == "root"));
    let stacks = |v: &[(String, u64)]| v.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>();
    assert_eq!(stacks(&pops), stacks(&time));
    let total_pops: u64 = pops.iter().map(|(_, w)| w).sum();
    let hyp_pops = s.pops_by_kind.values().sum::<u64>();
    assert_eq!(total_pops, hyp_pops);
}

/// The always-on metrics histograms agree with the search counters they
/// sample, over the quick catalog.
#[test]
fn metrics_toggle_changes_no_search_results() {
    const QUICK: &[&str] = &["ident", "incr", "evens", "sum", "reverse"];
    for name in QUICK {
        let bench = lambda2::suite::by_name(name).expect("suite problem");
        let options = SearchOptions {
            timeout: Some(Duration::from_secs(30)),
            ..bench.tune(SearchOptions::default())
        };
        let run = Synthesizer::with_options(options)
            .synthesize(&bench.problem)
            .expect("solves");
        assert!(!run.stats.metrics.is_empty(), "{name}");
        // The recorded pops histogram agrees with the pop counter.
        assert_eq!(run.stats.metrics.queue_depth.count(), run.stats.popped);
        assert_eq!(run.stats.metrics.pop_cost.count(), run.stats.popped);
        // A solved run cuts no level, so the completed levels hold every
        // term the run enumerated.
        assert_eq!(
            run.stats.metrics.level_terms.sum(),
            run.stats.enumerated_terms,
            "{name}"
        );
    }
}

/// Schema completeness: every [`TraceEvent`] variant round-trips through
/// the JSONL tracer and `parse_trace`, with a stable `event_key` (its
/// canonical JSON minus the volatile `t_us`). The exhaustive `match`
/// below makes adding a variant without extending this test — and
/// therefore without parser-side thought — a compile error, not a silent
/// schema hole.
#[test]
fn every_trace_event_variant_round_trips_through_the_parser() {
    use lambda2::synth::obs::profile::event_key;
    use lambda2::synth::obs::{PopKind, RefuteReason, StoreAction};
    use lambda2::synth::{BudgetSnapshot, PhaseTimes, TraceEvent, Tracer};

    let samples = vec![
        TraceEvent::Pop {
            n: 1,
            kind: PopKind::Hypothesis,
            cost: 3,
            holes: 1,
            sketch: "(map (lambda (x) ?1) l)".into(),
        },
        TraceEvent::Plan {
            comb: "foldl",
            coll: "l".into(),
            init: Some("0".into()),
            delta_cost: 7,
            rows: 3,
        },
        TraceEvent::Refute {
            comb: "map",
            coll: "l".into(),
            init: None,
            reason: RefuteReason::Deduction,
        },
        TraceEvent::StaticRefute {
            comb: "filter",
            coll: "l".into(),
            init: None,
            domain: "length",
            pruned: false,
        },
        TraceEvent::Tier {
            tier: 2,
            cost: 5,
            fills: 1,
        },
        TraceEvent::Store {
            action: StoreAction::Create,
            terms: 10,
            bytes: 4096,
        },
        TraceEvent::Verify {
            ok: true,
            cost: 7,
            program: "(filter (lambda (x) (> x 0)) l)".into(),
        },
        TraceEvent::Fault {
            site: "verify.candidate",
            detail: "boom".into(),
        },
        TraceEvent::Progress {
            budget: BudgetSnapshot {
                pops: 100,
                fuel_spent: 5,
                peak_store_bytes: 1024,
                ticks: 400,
                elapsed: Duration::from_millis(3),
                exceeded: None,
            },
            queue: 7,
            best_cost: 9,
            phases: PhaseTimes::default(),
        },
    ];

    // Compile-time completeness: a new `TraceEvent` variant makes this
    // match non-exhaustive. Extend `samples` above when you extend it.
    let discriminant = |ev: &TraceEvent| match ev {
        TraceEvent::Pop { .. } => "pop",
        TraceEvent::Plan { .. } => "plan",
        TraceEvent::Refute { .. } => "refute",
        TraceEvent::StaticRefute { .. } => "static-refute",
        TraceEvent::Tier { .. } => "tier",
        TraceEvent::Store { .. } => "store",
        TraceEvent::Verify { .. } => "verify",
        TraceEvent::Fault { .. } => "fault",
        TraceEvent::Progress { .. } => "progress",
    };
    let covered: std::collections::BTreeSet<&str> = samples.iter().map(discriminant).collect();
    assert_eq!(covered.len(), samples.len(), "one sample per variant");

    // Serialize all samples through the real tracer (which adds `t_us`),
    // then parse the file back with the schema-validating parser.
    let mut buf = Vec::new();
    {
        let mut tracer = JsonlTracer::new(&mut buf);
        for ev in &samples {
            tracer.emit(ev.clone());
        }
        assert_eq!(tracer.finish().unwrap(), samples.len() as u64);
    }
    let text = String::from_utf8(buf).unwrap();
    let trace = parse_trace(&text).expect("every variant parses");
    assert_eq!(trace.len(), samples.len());

    for (ev, parsed) in samples.iter().zip(&trace.events) {
        // The alignment key — canonical JSON minus `t_us` — is exactly
        // the event's own serialization: stable across emit+parse.
        assert_eq!(event_key(parsed), ev.to_json().to_string());
        // And the `ev` discriminator survives unchanged.
        assert_eq!(
            parsed
                .get("ev")
                .and_then(lambda2::synth::obs::json::Json::as_str),
            Some(discriminant(ev))
        );
    }

    // The summary accepts the synthetic trace (unknown-to-it variants
    // like `progress` are tolerated, not fatal).
    let s = summarize(&trace);
    assert_eq!(s.events, samples.len());

    // Every store action round-trips and is counted; the exhaustive
    // `match` makes a new action a compile error here until it has a
    // name and a summary count.
    let actions = [
        StoreAction::Create,
        StoreAction::Hit,
        StoreAction::Evict,
        StoreAction::Cut,
    ];
    let mut text = String::new();
    for &action in &actions {
        let ev = TraceEvent::Store {
            action,
            terms: 3,
            bytes: 96,
        };
        text.push_str(&format!("{}\n", ev.to_json()));
    }
    let trace = parse_trace(&text).expect("every store action parses");
    for (&action, parsed) in actions.iter().zip(&trace.events) {
        let name = match action {
            StoreAction::Create => "create",
            StoreAction::Hit => "hit",
            StoreAction::Evict => "evict",
            StoreAction::Cut => "cut",
        };
        assert_eq!(
            parsed
                .get("action")
                .and_then(lambda2::synth::obs::json::Json::as_str),
            Some(name)
        );
    }
    let s = summarize(&trace);
    assert_eq!(
        (s.store_creates, s.store_hits, s.store_evicts, s.store_cuts),
        (1, 1, 1, 1)
    );
}
