//! Soundness of deduction's refutations, pruning included.
//!
//! 1. **Pruning soundness** — the pruning check (cardinality, under
//!    `SearchOptions::static_prune`) refutes hypotheses necessary-row
//!    inference keeps, so `enumerated_terms`/`popped` may only *drop*
//!    with it on, while the synthesized program and cost stay
//!    byte-identical: pruning removes only refutable work, never the
//!    minimal solution.
//! 2. **Brute-force refutation witness** — for hypotheses deduction
//!    refutes (pruned ones included), no small lambda body completes
//!    them: every candidate body up to a bounded depth fails some example
//!    row.

use std::time::Duration;

use lambda2::suite::catalog;
use lambda2::synth::deduce::{deduce, CollectionArg, Outcome};
use lambda2::synth::spec::ExampleRow;
use lambda2::synth::{Problem, SearchOptions, Synthesizer};
use lambda2_lang::ast::Comb;
use lambda2_lang::env::Env;
use lambda2_lang::eval::eval_default;
use lambda2_lang::parser::{parse_expr, parse_value};
use lambda2_lang::symbol::Symbol;
use lambda2_lang::value::Value;

/// Problems cheap enough to double-run (on + off) in a debug build.
const QUICK: &[&str] = &["ident", "incr", "evens", "sum", "reverse"];

// --- Pruning differential ----------------------------------------------

/// Outcome of one prune-on vs prune-off comparison.
struct PruneDelta {
    pruned: u64,
    enumerated_on: u64,
    enumerated_off: u64,
    popped_on: u64,
    popped_off: u64,
}

/// Synthesizes `problem` with pruning on and off and asserts pruning is
/// *conservative*: identical program and cost, search counters only ever
/// drop. A *timeout-induced* solvability mismatch is returned as `Err`
/// instead of panicking: the comparison is deterministic except for the
/// wall clock, so a problem solved right at its budget can legitimately
/// flip under load. Callers retry those with a larger budget — a genuine
/// false refutation persists at any budget (the pruned program stays
/// pruned), a timing flake does not.
fn prune_differential(
    problem: &Problem,
    opts: Option<SearchOptions>,
    secs: u64,
) -> Result<PruneDelta, String> {
    let build = |prune: bool| {
        let base = match &opts {
            Some(o) => o.clone(),
            None => SearchOptions {
                timeout: Some(Duration::from_secs(secs)),
                ..SearchOptions::default()
            },
        };
        Synthesizer::with_options(base).static_prune(prune)
    };
    let on = build(true).synthesize(problem);
    let off = build(false).synthesize(problem);
    if on.is_ok() != off.is_ok() {
        let timed_out = [&on, &off]
            .iter()
            .any(|r| matches!(r, Err(lambda2::synth::SynthError::Timeout)));
        if timed_out {
            return Err(format!(
                "{}: solvability flipped at the wall-clock budget (prune on: {}, off: {})",
                problem.name(),
                on.is_ok(),
                off.is_ok()
            ));
        }
    }
    match (on, off) {
        (Ok(on), Ok(off)) => {
            assert_eq!(
                on.program.body().to_string(),
                off.program.body().to_string(),
                "{}: pruning changed the synthesized program",
                problem.name()
            );
            assert_eq!(
                on.cost,
                off.cost,
                "{}: pruning changed the program cost",
                problem.name()
            );
            assert_eq!(
                off.stats.pruned_refutations,
                0,
                "{}: pruned refutations counted with pruning off",
                problem.name()
            );
            assert!(
                on.stats.enumerated_terms <= off.stats.enumerated_terms,
                "{}: pruning *increased* enumerated terms ({} > {})",
                problem.name(),
                on.stats.enumerated_terms,
                off.stats.enumerated_terms
            );
            assert!(
                on.stats.popped <= off.stats.popped,
                "{}: pruning *increased* pops ({} > {})",
                problem.name(),
                on.stats.popped,
                off.stats.popped
            );
            Ok(PruneDelta {
                pruned: on.stats.pruned_refutations,
                enumerated_on: on.stats.enumerated_terms,
                enumerated_off: off.stats.enumerated_terms,
                popped_on: on.stats.popped,
                popped_off: off.stats.popped,
            })
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{}: pruning changed the failure mode",
                problem.name()
            );
            Ok(PruneDelta {
                pruned: 0,
                enumerated_on: 0,
                enumerated_off: 0,
                popped_on: 0,
                popped_off: 0,
            })
        }
        (on, off) => panic!(
            "{}: pruning changed solvability (on: {}, off: {})",
            problem.name(),
            on.is_ok(),
            off.is_ok()
        ),
    }
}

/// Quick pruning differential: the cheap fixed set plus the
/// duplicate-bearing problems built to make cardinality fire. Pruning
/// must actually remove work somewhere (strict enumerated-term drop) and
/// must refute something, while every result stays byte-identical.
#[test]
fn quick_prune_differential_is_conservative_and_productive() {
    let mut pruned_total = 0u64;
    let mut strict_drops = 0usize;
    for name in QUICK.iter().copied().chain(["remove", "headrun", "taken"]) {
        let bench = lambda2::suite::by_name(name).expect("known benchmark");
        let d = prune_differential(&bench.problem, None, 60).unwrap_or_else(|msg| panic!("{msg}"));
        pruned_total += d.pruned;
        if d.enumerated_on < d.enumerated_off {
            strict_drops += 1;
        }
    }
    assert!(
        pruned_total > 0,
        "pruning refuted nothing across the quick sweep"
    );
    assert!(
        strict_drops > 0,
        "pruning never strictly shrank the enumerated-term count"
    );
}

/// The sentinel: `rmall` is a genuine filter whose examples keep
/// all-or-none occurrences of every value, so the cardinality check must
/// stay silent on the solution hypothesis and the filter program must
/// survive pruning.
#[test]
fn prune_keeps_the_genuine_filter_solution() {
    let bench = lambda2::suite::by_name("rmall").expect("rmall benchmark");
    let result = Synthesizer::with_options(SearchOptions {
        timeout: Some(Duration::from_secs(60)),
        ..SearchOptions::default()
    })
    .synthesize(&bench.problem)
    .expect("rmall is solvable with pruning on");
    assert!(
        result.program.body().to_string().contains("filter"),
        "expected a filter solution, got {}",
        result.program.body()
    );
}

/// Full-catalog pruning differential — every problem, byte-identical
/// programs and costs, counters only drop, and `enumerated_terms` drops
/// *strictly* in at least 10 problems (the duplicate-bearing family
/// exists to guarantee this). Slow in debug builds; CI runs it in release with
/// `--include-ignored`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow in debug builds; run in release (cargo test --release -- --include-ignored)"
)]
fn full_suite_prune_differential_is_conservative_and_productive() {
    let mut strict_drops = 0usize;
    let mut term_drops = 0usize;
    let mut pruned_total = 0u64;
    for bench in catalog() {
        let options = bench.tune(SearchOptions::default());
        let mut outcome = Err("unreachable".to_owned());
        for secs in [120u64, 240, 480] {
            let mut options = options.clone();
            options.timeout = Some(Duration::from_secs(secs));
            outcome = prune_differential(&bench.problem, Some(options), secs);
            if outcome.is_ok() {
                break;
            }
        }
        let d = outcome.unwrap_or_else(|msg| panic!("{msg} — persists across retries"));
        pruned_total += d.pruned;
        if d.enumerated_on < d.enumerated_off || d.popped_on < d.popped_off {
            strict_drops += 1;
        }
        term_drops += usize::from(d.enumerated_on < d.enumerated_off);
    }
    assert!(pruned_total > 0, "pruning refuted nothing catalog-wide");
    assert!(
        strict_drops >= 10,
        "pruning strictly shrank the search in only {strict_drops} problems (need 10)"
    );
    assert!(
        term_drops >= 10,
        "pruning strictly cut enumerated terms in only {term_drops} problems (need 10)"
    );
}

/// The `check-invariants` re-prove hook: under the feature, every pruned
/// refutation is re-proved *at the `deduce_filter` site* by the bounded
/// brute-force oracle (necessary-row inference cannot confirm it). This
/// test makes the hook fire on a real search: the examples carry a
/// partially-kept duplicate, so the filter hypothesis over `l` is
/// cardinality-pruned — an unsound verdict would panic inside the hook.
#[cfg(feature = "check-invariants")]
#[test]
fn pruned_refutations_reprove_under_check_invariants() {
    let problem = Problem::builder("dup_tail")
        .param("l", "[int]")
        .returns("[int]")
        .example(&["[7 4 7]"], "[4 7]")
        .example(&["[5]"], "[]")
        .example(&["[2 9 4]"], "[9 4]")
        .build()
        .unwrap();
    let result = Synthesizer::with_options(SearchOptions {
        timeout: Some(Duration::from_secs(60)),
        ..SearchOptions::default()
    })
    .synthesize(&problem)
    .expect("dup_tail is solvable (cdr)");
    assert!(
        result.stats.pruned_refutations > 0,
        "expected the cardinality check to prune the filter hypothesis"
    );
}

// --- Brute-force refutation witnesses ----------------------------------

/// All integer-valued term strings over `vars` up to `depth` operator
/// applications (arithmetic fragment).
fn int_terms(vars: &[&str], depth: usize) -> Vec<String> {
    let mut terms: Vec<String> = vars.iter().map(|v| (*v).to_owned()).collect();
    terms.extend(["0", "1", "2"].map(str::to_owned));
    for _ in 0..depth {
        let prev = terms.clone();
        for op in ["+", "-", "*"] {
            for a in &prev {
                for b in &prev {
                    terms.push(format!("({op} {a} {b})"));
                }
            }
        }
        terms.sort();
        terms.dedup();
    }
    terms
}

/// All boolean-valued term strings comparing `int_terms` at depth 1.
fn bool_terms(vars: &[&str]) -> Vec<String> {
    let ints = int_terms(vars, 1);
    let mut out = Vec::new();
    for op in ["<", "<=", ">", ">=", "=", "!="] {
        for a in &ints {
            for b in &ints {
                out.push(format!("({op} {a} {b})"));
            }
        }
    }
    out
}

/// Example rows over the list variable `l`, with `l`'s per-row values as
/// the collection argument.
fn rows_on_l(pairs: &[(&str, &str)]) -> (Vec<ExampleRow>, CollectionArg) {
    let l = Symbol::intern("l");
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for (i, o) in pairs {
        let iv = parse_value(i).unwrap();
        rows.push(ExampleRow::new(
            Env::empty().bind(l, iv.clone()),
            parse_value(o).unwrap(),
        ));
        values.push(iv);
    }
    (
        rows,
        CollectionArg {
            values,
            var: Some(l),
        },
    )
}

/// Asserts that deduction (pruning on) refutes `comb` on the rows and
/// `init`, and that the refutation is *true*: no candidate body from
/// `bodies` completes the hypothesis `comb (λ binders. body) [init] l` on
/// every row.
fn assert_refutation_has_no_completion(
    comb: Comb,
    pairs: &[(&str, &str)],
    init: Option<&str>,
    binders: &[&str],
    bodies: &[String],
) {
    let (rows, coll) = rows_on_l(pairs);
    let init_vals: Option<Vec<Value>> = init.map(|e| vec![parse_value(e).unwrap(); rows.len()]);
    let binder_syms: Vec<Symbol> = binders.iter().map(|b| Symbol::intern(b)).collect();
    let outcome = deduce(
        comb,
        &rows,
        &coll,
        init_vals.as_deref(),
        &binder_syms,
        true,
        true,
    );
    assert!(
        matches!(outcome, Outcome::Refuted | Outcome::Pruned),
        "deduction should refute {comb:?} on {pairs:?}"
    );

    let binder_list = binders.join(" ");
    let mut checked = 0usize;
    for body in bodies {
        let program = match init {
            Some(e) => format!("({} (lambda ({binder_list}) {body}) {e} l)", comb.name()),
            None => format!("({} (lambda ({binder_list}) {body}) l)", comb.name()),
        };
        let expr = parse_expr(&program).unwrap();
        let fits = rows
            .iter()
            .all(|row| eval_default(&expr, &row.env).is_ok_and(|out| out == row.output));
        assert!(
            !fits,
            "refuted hypothesis completed by `{program}` — false refutation"
        );
        checked += 1;
    }
    assert!(
        checked > 100,
        "brute-force sweep too small ({checked} bodies)"
    );
}

#[test]
fn refuted_map_has_no_small_completion() {
    // map preserves length; [1 2] -> [2] cannot be a map.
    assert_refutation_has_no_completion(
        Comb::Map,
        &[("[1 2]", "[2]")],
        None,
        &["x"],
        &int_terms(&["x"], 2),
    );
}

#[test]
fn refuted_filter_has_no_small_completion() {
    // filter selects a subsequence; 3 never occurs in [1 2].
    assert_refutation_has_no_completion(
        Comb::Filter,
        &[("[1 2]", "[3]")],
        None,
        &["x"],
        &bool_terms(&["x"]),
    );
}

#[test]
fn refuted_foldl_has_no_small_completion() {
    // foldl over [] returns the init unchanged; 7 != 0 for any body.
    assert_refutation_has_no_completion(
        Comb::Foldl,
        &[("[]", "0"), ("[1]", "1")],
        Some("7"),
        &["a", "x"],
        &int_terms(&["a", "x"], 2),
    );
}

#[test]
fn refuted_mapt_has_no_small_completion() {
    // mapt preserves tree shape; {1 {2}} -> {1} cannot be a mapt.
    assert_refutation_has_no_completion(
        Comb::Mapt,
        &[("{1 {2}}", "{1}")],
        None,
        &["x"],
        &int_terms(&["x"], 2),
    );
}

#[test]
fn refuted_foldt_has_no_small_completion() {
    // foldt over {} returns the init unchanged; 5 != 9 for any body.
    assert_refutation_has_no_completion(
        Comb::Foldt,
        &[("{}", "9"), ("{1}", "1")],
        Some("5"),
        &["v", "rs"],
        &int_terms(&["v"], 2),
    );
}

/// Asserts deduction prunes a filter hypothesis by the cardinality check
/// — and that with pruning off it keeps the hypothesis open, i.e. the
/// shape and subsequence checks all pass, so the refutation is work
/// necessary-row inference could not have done.
fn assert_cardinality_verdict(pairs: &[(&str, &str)]) {
    let (rows, coll) = rows_on_l(pairs);
    let x = [Symbol::intern("x")];
    assert!(
        matches!(
            deduce(Comb::Filter, &rows, &coll, None, &x, true, true),
            Outcome::Pruned
        ),
        "{pairs:?}"
    );
    assert!(
        matches!(
            deduce(Comb::Filter, &rows, &coll, None, &x, true, false),
            Outcome::Deduced(_)
        ),
        "{pairs:?}"
    );
}

#[test]
fn cardinality_refuted_filter_has_no_small_completion() {
    // [5 7 5] -> [5] keeps one of two 5s: a predicate gives equal
    // elements the same verdict, so no filter body exists — yet the
    // output is a subsequence drawn from the input multiset, so
    // necessary-row inference alone keeps the hypothesis.
    assert_cardinality_verdict(&[("[5 7 5]", "[5]")]);
    assert_refutation_has_no_completion(
        Comb::Filter,
        &[("[5 7 5]", "[5]")],
        None,
        &["x"],
        &bool_terms(&["x"]),
    );
}

#[test]
fn cardinality_refuted_multirow_filter_has_no_small_completion() {
    // [8 3 8] -> [8 3] keeps one of two 8s; the clean second row must not
    // mask the refutation.
    assert_cardinality_verdict(&[("[8 3 8]", "[8 3]"), ("[1 2]", "[1 2]")]);
    assert_refutation_has_no_completion(
        Comb::Filter,
        &[("[8 3 8]", "[8 3]"), ("[1 2]", "[1 2]")],
        None,
        &["x"],
        &bool_terms(&["x"]),
    );
}
