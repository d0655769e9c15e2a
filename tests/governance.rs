//! Resource-governance integration tests (DESIGN.md §11).
//!
//! The contract under test: a governed search *always* comes back — within
//! a bounded overshoot of its deadline, with a structured report on every
//! path — and resource verdicts are distinguishable (a timeout is never
//! misreported as an exhausted space, a cancellation never wedges).

use std::time::{Duration, Instant};

use lambda2::suite::{by_name, catalog};
use lambda2::synth::obs::NoopTracer;
use lambda2::synth::{BudgetExceeded, CancelToken, Rung, SearchOptions, SynthError, Synthesizer};

/// Scheduling slack on top of the documented `timeout + max_overshoot`
/// bound. Debug builds run the engine's slow paths ~10x slower, so the
/// slack is generous there; the release-only test below uses the tight
/// acceptance bound.
const DEBUG_SLACK: Duration = Duration::from_millis(300);

fn governed_elapsed(options: &SearchOptions, name: &str) -> Duration {
    let bench = by_name(name).expect("benchmark exists");
    let options = bench.tune(options.clone());
    let start = Instant::now();
    let report = Synthesizer::with_options(options).synthesize_report(&bench.problem);
    let wall = start.elapsed();
    // Whatever happened, it must be reported, not thrown away.
    assert!(
        report.is_success() || report.outcome.is_err(),
        "reports are total"
    );
    wall
}

#[test]
fn hard_problems_return_within_the_overshoot_bound() {
    let timeout = Duration::from_millis(200);
    let overshoot = Duration::from_millis(100);
    let options = SearchOptions {
        timeout: Some(timeout),
        max_overshoot: overshoot,
        ..SearchOptions::default()
    };
    for bench in catalog().into_iter().filter(|b| b.hard) {
        let wall = governed_elapsed(&options, bench.problem.name());
        assert!(
            wall <= timeout + overshoot + DEBUG_SLACK,
            "{}: returned after {wall:?} (bound {:?})",
            bench.problem.name(),
            timeout + overshoot + DEBUG_SLACK,
        );
    }
}

/// The acceptance bound from the issue: a 200ms budget returns within
/// 300ms on the hardest suite problems. Only meaningful at release
/// optimization levels, so it is ignored in debug builds (CI runs it via
/// `cargo test --release`).
#[test]
#[cfg_attr(debug_assertions, ignore = "tight bound holds in release builds only")]
fn release_overshoot_bound_is_tight() {
    let timeout = Duration::from_millis(200);
    let options = SearchOptions {
        timeout: Some(timeout),
        max_overshoot: Duration::from_millis(100),
        ..SearchOptions::default()
    };
    for bench in catalog().into_iter().filter(|b| b.hard) {
        let wall = governed_elapsed(&options, bench.problem.name());
        assert!(
            wall <= Duration::from_millis(300),
            "{}: returned after {wall:?} (bound 300ms)",
            bench.problem.name(),
        );
    }
}

/// `maxes` at the catalog's 1 s deadline (l2bench's `MAXES_DEADLINE`)
/// returns within `timeout + max_overshoot` at the default overshoot,
/// where its stores are far larger than at 200 ms. Release builds only,
/// like the tight bound above.
#[test]
#[cfg_attr(debug_assertions, ignore = "tight bound holds in release builds only")]
fn maxes_returns_within_the_overshoot_bound_at_the_catalog_deadline() {
    let options = SearchOptions {
        timeout: Some(Duration::from_secs(1)),
        ..SearchOptions::default()
    };
    let bound = Duration::from_secs(1) + options.max_overshoot;
    let wall = governed_elapsed(&options, "maxes");
    assert!(
        wall <= bound,
        "maxes: returned after {wall:?} (bound {bound:?})"
    );
}

#[test]
fn timeout_and_exhaustion_stay_distinguishable_near_the_boundary() {
    let bench = by_name("evens").expect("benchmark exists");
    // `evens` needs a cost-13 program; capping the space at cost 4
    // exhausts it quickly. With a generous deadline that must surface as
    // Exhausted...
    let tiny_space = SearchOptions {
        max_cost: 4,
        timeout: Some(Duration::from_secs(30)),
        ..SearchOptions::default()
    };
    let report = Synthesizer::with_options(tiny_space.clone()).synthesize_report(&bench.problem);
    assert_eq!(report.outcome.unwrap_err(), SynthError::Exhausted);
    assert!(report.budget.exceeded.is_none());

    // ...while a zero deadline over the very same space must surface as
    // Timeout — the deadline verdict wins before the space can drain.
    let expired = SearchOptions {
        timeout: Some(Duration::ZERO),
        ..tiny_space
    };
    let report = Synthesizer::with_options(expired).synthesize_report(&bench.problem);
    assert_eq!(report.outcome.unwrap_err(), SynthError::Timeout);
    assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Deadline));
}

#[test]
fn exhausted_budgets_report_an_anytime_frontier() {
    let bench = by_name("evens").expect("benchmark exists");
    let options = SearchOptions {
        max_popped: 20,
        ..SearchOptions::default()
    };
    let report = Synthesizer::with_options(options).synthesize_report(&bench.problem);
    assert_eq!(report.outcome.unwrap_err(), SynthError::LimitReached);
    assert_eq!(report.budget.exceeded, Some(BudgetExceeded::PopLimit));
    assert_eq!(report.stats.popped, 20);
    assert!(
        !report.frontier.is_empty(),
        "an interrupted search surfaces its best open hypotheses"
    );
    let costs: Vec<u32> = report.frontier.iter().map(|f| f.cost).collect();
    let mut sorted = costs.clone();
    sorted.sort_unstable();
    assert_eq!(costs, sorted, "frontier is best-cost-first");
}

#[test]
fn cancellation_interrupts_a_running_search() {
    let bench = by_name("evens").expect("benchmark exists");
    let options = SearchOptions {
        timeout: None,
        ..SearchOptions::default()
    };
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let start = Instant::now();
    let report = Synthesizer::with_options(options).synthesize_report_warm(
        &bench.problem,
        &mut NoopTracer,
        Some(&token),
        None,
    );
    let wall = start.elapsed();
    canceller.join().expect("canceller thread");
    // Either the search finished first (evens is solvable) or the cancel
    // landed; if it landed, the verdict must be Cancelled and prompt.
    match report.outcome {
        Ok(_) => {}
        Err(e) => {
            assert_eq!(e, SynthError::Cancelled);
            assert_eq!(report.budget.exceeded, Some(BudgetExceeded::Cancelled));
            assert!(wall < Duration::from_secs(5), "cancel was prompt: {wall:?}");
        }
    }
}

#[test]
fn retry_ladder_recovers_a_trivial_problem_from_a_tiny_pop_cap() {
    let bench = by_name("ident").expect("benchmark exists");
    let options = SearchOptions {
        max_popped: 3,
        retry_ladder: true,
        ..SearchOptions::default()
    };
    let report = Synthesizer::with_options(options).synthesize_report(&bench.problem);
    let rungs: Vec<Rung> = report.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(rungs, vec![Rung::Full, Rung::Degraded, Rung::Baseline]);
    let solved = report.outcome.expect("baseline rung solves identity");
    assert_eq!(solved.program.body().to_string(), "l");
}
