//! The paper's headline guarantee: the synthesized program is the
//! *simplest* (minimal-cost) program fitting the examples.
//!
//! We cannot enumerate all programs to certify global minimality, but the
//! suite's reference solutions give sound upper bounds: synthesis must
//! never return a program costlier than the reference. (The converse —
//! cheaper than the reference — is fine and does happen, e.g. `shiftl`.)
//!
//! From below, the pure-enumeration baseline is exact over first-order
//! programs: where it finds one, λ² must return the same cost.

use std::time::Duration;

use lambda2::suite::by_name;
use lambda2::synth::baseline::{synthesize_baseline, BaselineOptions};
use lambda2::synth::{CostModel, Problem, SearchOptions, Synthesizer};

fn assert_not_costlier_than_reference(name: &str) {
    let bench = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut options = bench.tune(SearchOptions::default());
    options.timeout = Some(Duration::from_secs(60));
    let result = Synthesizer::with_options(options)
        .synthesize(&bench.problem)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));
    let costs = CostModel::default();
    let reference_cost = costs.cost(bench.reference_program().body());
    assert!(
        result.cost <= reference_cost,
        "{name}: synthesized cost {} exceeds reference cost {} ({} vs {})",
        result.cost,
        reference_cost,
        result.program,
        bench.reference
    );
    // The reported cost is the real cost of the returned program.
    assert_eq!(result.cost, costs.cost(result.program.body()));
}

#[test]
fn minimality_ident() {
    assert_not_costlier_than_reference("ident");
}

#[test]
fn minimality_head() {
    assert_not_costlier_than_reference("head");
}

#[test]
fn minimality_last() {
    assert_not_costlier_than_reference("last");
}

#[test]
fn minimality_length() {
    assert_not_costlier_than_reference("length");
}

#[test]
fn minimality_sum() {
    assert_not_costlier_than_reference("sum");
}

#[test]
fn minimality_reverse() {
    assert_not_costlier_than_reference("reverse");
}

#[test]
fn minimality_incr() {
    assert_not_costlier_than_reference("incr");
}

#[test]
fn minimality_positives() {
    assert_not_costlier_than_reference("positives");
}

#[test]
fn minimality_shiftl() {
    assert_not_costlier_than_reference("shiftl");
}

/// Two-int `max` needs a top-level `if`: the baseline must build one, or
/// its least-cost program is a costlier arithmetic trick.
#[test]
fn minimality_max_matches_the_baseline() {
    let problem = Problem::builder("max")
        .param("a", "int")
        .param("b", "int")
        .returns("int")
        .example(&["1", "2"], "2")
        .example(&["5", "3"], "5")
        .example(&["0", "0"], "0")
        .example(&["-4", "-7"], "-4")
        .build()
        .unwrap();
    let lambda2 = Synthesizer::new()
        .synthesize(&problem)
        .expect("λ² solves max");
    let baseline = synthesize_baseline(
        &problem,
        &BaselineOptions {
            max_cost: 10,
            ..BaselineOptions::default()
        },
    )
    .expect("the baseline solves max");
    assert_eq!(lambda2.cost, 6, "{}", lambda2.program);
    assert_eq!(
        baseline.cost, lambda2.cost,
        "baseline {} vs λ² {}",
        baseline.program, lambda2.program
    );
}
