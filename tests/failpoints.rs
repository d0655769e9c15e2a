//! Fault-injection tests (`cargo test --features failpoints`).
//!
//! Every injected fault must surface as a *structured* report — never an
//! abort, never a wedged search — and identical runs must be identical:
//! fault handling may not introduce nondeterminism.

#![cfg(feature = "failpoints")]

use std::time::Duration;

use lambda2::suite::by_name;
use lambda2::synth::failpoints::{self, FailAction, FailGuard};
use lambda2::synth::obs::StoreAction;
use lambda2::synth::{
    BudgetExceeded, CollectTracer, SearchOptions, SearchReport, SynthError, Synthesizer,
    TraceEvent, WarmCache,
};

fn run_with_trace(name: &str, options: &SearchOptions) -> (SearchReport, Vec<TraceEvent>) {
    let bench = by_name(name).expect("benchmark exists");
    let mut tracer = CollectTracer::default();
    let report = Synthesizer::with_options(options.clone())
        .synthesize_report_traced(&bench.problem, &mut tracer);
    (report, tracer.events)
}

fn fault_sites(events: &[TraceEvent]) -> Vec<&'static str> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Fault { site, .. } => Some(*site),
            _ => None,
        })
        .collect()
}

#[test]
fn injected_verifier_panics_are_isolated_and_counted() {
    failpoints::reset();
    let _guard = FailGuard::arm("verify.candidate", FailAction::Panic, 3);
    let (report, events) = run_with_trace("evens", &SearchOptions::default());
    assert_eq!(_guard.hits(), 3, "all three injected panics fired");
    // The search survived every panic and still solved the problem.
    let solved = report.outcome.expect("panics are skipped, not fatal");
    assert!(solved.program.satisfies_problem(
        &by_name("evens").unwrap().problem,
        lambda2::lang::eval::DEFAULT_FUEL
    ));
    assert_eq!(report.stats.faults, 3);
    assert_eq!(
        fault_sites(&events),
        vec!["verify.candidate", "verify.candidate", "verify.candidate"]
    );
}

#[test]
fn injected_deduction_panics_are_isolated_and_counted() {
    failpoints::reset();
    let _guard = FailGuard::arm("deduce.plan", FailAction::Panic, 2);
    let (report, events) = run_with_trace("evens", &SearchOptions::default());
    assert_eq!(_guard.hits(), 2);
    // Deduction faults cost candidate templates, not soundness: if the
    // search still finds a program it must fit the examples; if the
    // faults killed the winning hypothesis, the failure is structured.
    if let Ok(s) = &report.outcome {
        assert!(s.program.satisfies_problem(
            &by_name("evens").unwrap().problem,
            lambda2::lang::eval::DEFAULT_FUEL
        ));
    }
    assert_eq!(report.stats.faults, 2);
    assert_eq!(fault_sites(&events).len(), 2);
}

#[test]
fn injected_fuel_exhaustion_trips_the_fuel_verdict() {
    failpoints::reset();
    // Every verification runs with zero fuel and charges the budget the
    // maximum — the first verified candidate trips the cumulative cap.
    let _guard = FailGuard::arm("verify.candidate", FailAction::ExhaustFuel, u64::MAX);
    let options = SearchOptions {
        max_total_fuel: 1_000,
        ..SearchOptions::default()
    };
    let (report, _) = run_with_trace("evens", &options);
    assert_eq!(report.outcome.unwrap_err(), SynthError::FuelExhausted);
    assert_eq!(report.budget.exceeded, Some(BudgetExceeded::FuelLimit));
    assert!(report.budget.fuel_spent >= 1_000);
}

#[test]
fn injected_mid_phase_deadline_expiry_reports_a_timeout() {
    failpoints::reset();
    // Expire the deadline at the 5th pop of an otherwise-unbounded run.
    let _guard = FailGuard::arm_after("search.pop", FailAction::ExpireDeadline, 4, 1);
    let (report, _) = run_with_trace("evens", &SearchOptions::default());
    assert_eq!(_guard.hits(), 1);
    assert_eq!(report.outcome.unwrap_err(), SynthError::Timeout);
    assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Deadline));
    assert_eq!(report.stats.popped, 5, "expiry landed inside the 5th pop");
}

#[test]
fn forced_store_evictions_do_not_change_the_answer() {
    failpoints::reset();
    let baseline = {
        let (report, _) = run_with_trace("evens", &SearchOptions::default());
        report.outcome.expect("evens solves").program.to_string()
    };
    failpoints::reset();
    let _guard = FailGuard::arm("store.evict", FailAction::EvictStores, u64::MAX);
    let (report, _) = run_with_trace("evens", &SearchOptions::default());
    let forced = report
        .outcome
        .expect("evictions cost recomputation, never answers")
        .program
        .to_string();
    assert!(_guard.hits() > 0, "the eviction site was exercised");
    assert_eq!(forced, baseline);
}

#[test]
fn enumerated_terms_survives_store_evictions() {
    // Regression: `enumerated_terms` used to be recomputed at the end of
    // the search from the *live* store sizes, so every LRU-evicted store
    // silently vanished from the stat. It is now a monotone work counter
    // bumped at insertion time: a run that evicts and rebuilds stores
    // must report at least as many materialized terms as a clean run —
    // the rebuilt terms are real work — and never fewer.
    failpoints::reset();
    let clean = {
        let (report, _) = run_with_trace("evens", &SearchOptions::default());
        report.outcome.expect("evens solves").stats.enumerated_terms
    };
    assert!(clean > 0, "the clean run materializes terms");
    failpoints::reset();
    let _guard = FailGuard::arm("store.evict", FailAction::EvictStores, u64::MAX);
    let (report, _) = run_with_trace("evens", &SearchOptions::default());
    assert!(_guard.hits() > 0, "the eviction site was exercised");
    let evicted = report.outcome.expect("evens still solves");
    assert!(
        evicted.stats.store_evictions > 0,
        "the sweep actually evicted stores"
    );
    assert!(
        evicted.stats.enumerated_terms >= clean,
        "evictions erased work from the counter: {} < {clean}",
        evicted.stats.enumerated_terms
    );
}

/// Runs `name` seeded from (and parking into) `warm`, collecting its trace.
fn run_warm(name: &str, warm: &WarmCache) -> (SearchReport, Vec<TraceEvent>) {
    let bench = by_name(name).expect("benchmark exists");
    let mut tracer = CollectTracer::default();
    let report = Synthesizer::with_options(SearchOptions::default()).synthesize_report_warm(
        &bench.problem,
        &mut tracer,
        None,
        Some(warm),
    );
    (report, tracer.events)
}

fn store_events(events: &[TraceEvent], action: StoreAction) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Store { action: a, .. } if *a == action))
        .count()
}

#[test]
fn a_level_cut_mid_build_is_traced_and_never_parked() {
    failpoints::reset();
    let cold = {
        let (report, _) = run_with_trace("reverse", &SearchOptions::default());
        report.outcome.expect("reverse solves")
    };
    let warm = WarmCache::new(usize::MAX);
    let (report, events) = {
        // Eight levels build (over more than one store); the ninth opens
        // and is cut.
        let _guard = FailGuard::arm_after("enumerate.level", FailAction::ExpireDeadline, 8, 1);
        let run = run_warm("reverse", &warm);
        assert_eq!(_guard.hits(), 1);
        run
    };
    assert_eq!(report.outcome.unwrap_err(), SynthError::Timeout);
    assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Deadline));
    assert_eq!(store_events(&events, StoreAction::Cut), 1);
    // Every store the run created is parked except the cut one.
    let created = store_events(&events, StoreAction::Create);
    assert_eq!(warm.snapshot().entries, created - 1);

    let (rerun, events) = run_warm("reverse", &warm);
    let rerun = rerun.outcome.expect("the warm rerun solves");
    assert!(
        rerun.stats.warm_hits > 0,
        "the rerun reused parked stores ({created} created)"
    );
    assert_eq!(store_events(&events, StoreAction::Cut), 0);
    assert_eq!(rerun.program.to_string(), cold.program.to_string());
    assert_eq!(rerun.cost, cold.cost);
}

#[test]
fn identical_faulty_runs_are_deterministic() {
    let run = || {
        failpoints::reset();
        let _guard = FailGuard::arm("verify.candidate", FailAction::Panic, 2);
        let options = SearchOptions {
            timeout: Some(Duration::from_secs(60)),
            ..SearchOptions::default()
        };
        let (report, events) = run_with_trace("evens", &options);
        let program = report
            .outcome
            .as_ref()
            .map(|s| s.program.to_string())
            .map_err(ToString::to_string);
        (
            program,
            report.stats.popped,
            report.stats.verified,
            report.stats.faults,
            report.budget.pops,
            fault_sites(&events).len(),
        )
    };
    assert_eq!(run(), run(), "fault handling introduced nondeterminism");
}

#[test]
fn disarmed_sites_leak_nothing_into_later_runs() {
    failpoints::reset();
    {
        let _guard = FailGuard::arm("verify.candidate", FailAction::Panic, u64::MAX);
        // Every verification panics, so nothing can ever pass; a pop cap
        // keeps the doomed run short. It fails structurally, not fatally.
        let capped = SearchOptions {
            max_popped: 50,
            ..SearchOptions::default()
        };
        let (report, _) = run_with_trace("ident", &capped);
        assert!(report.outcome.is_err());
        assert!(report.stats.faults > 0);
    }
    // Guard dropped: the same problem now solves cleanly.
    let (report, _) = run_with_trace("ident", &SearchOptions::default());
    let solved = report.outcome.expect("no fault leaked");
    assert_eq!(solved.program.body().to_string(), "l");
    assert_eq!(report.stats.faults, 0);
}
