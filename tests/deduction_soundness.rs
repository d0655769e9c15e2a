//! Property tests for the deduction rules.
//!
//! The load-bearing invariant: deduced rows are **necessary** conditions.
//! If a known step function `f` (and initial value `e`) makes the
//! combinator program satisfy the parent examples, then `f` satisfies
//! every row the rule deduces — i.e. deduction never prunes the truth.
//!
//! We generate random inputs, compute parent examples by *running* a known
//! program, deduce, and check the known function against the deduced rows.
//! (Originally `proptest`; now seeded random generation via the vendored
//! `rand` shim — same invariants, deterministic failures.)

use lambda2::lang::ast::Comb;
use lambda2::lang::env::Env;
use lambda2::lang::eval::eval;
use lambda2::lang::parser::parse_expr;
use lambda2::lang::symbol::Symbol;
use lambda2::lang::value::Value;
use lambda2::synth::deduce::{deduce, CollectionArg, Outcome};
use lambda2::synth::{ExampleRow, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ints(ns: &[i64]) -> Value {
    ns.iter().copied().map(Value::Int).collect()
}

/// Builds parent rows by running `program` (over free variable `l`) on the
/// given inputs; returns rows plus the collection argument for `l`.
fn rows_from_program(program: &str, inputs: &[Vec<i64>]) -> (Vec<ExampleRow>, CollectionArg) {
    let l = Symbol::intern("l");
    let expr = parse_expr(program).expect("parses");
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for input in inputs {
        let iv = ints(input);
        let env = Env::empty().bind(l, iv.clone());
        let mut fuel = 100_000;
        let out = eval(&expr, &env, &mut fuel).expect("ground truth evaluates");
        rows.push(ExampleRow::new(env, out));
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

/// Checks `f_body` (over `binders`) against every deduced row.
fn f_satisfies_rows(f_body: &str, spec: &Spec) -> bool {
    let body = parse_expr(f_body).expect("parses");
    spec.rows().iter().all(|row| {
        let mut fuel = 100_000;
        eval(&body, &row.env, &mut fuel).ok() == Some(row.output.clone())
    })
}

/// A pool of (combinator, function body, init expr) ground truths. Binder
/// names follow the synthesizer's conventions: map/filter bind `x`,
/// foldl binds `a x`, foldr binds `x a`, recl binds `x xs r`.
const TRUTHS: &[(Comb, &str, &str)] = &[
    (Comb::Map, "(+ x 1)", ""),
    (Comb::Map, "(* x x)", ""),
    (Comb::Map, "(- 0 x)", ""),
    (Comb::Filter, "(> x 0)", ""),
    (Comb::Filter, "(= (% x 2) 0)", ""),
    (Comb::Foldl, "(+ a x)", "0"),
    (Comb::Foldl, "(cons x a)", "[]"),
    (Comb::Foldl, "(+ a 1)", "0"),
    (Comb::Foldr, "(cons x a)", "[]"),
    (Comb::Foldr, "(cons x (cons x a))", "[]"),
    (Comb::Recl, "(cons x r)", "[]"),
    (Comb::Recl, "(if (empty? xs) r (cons x r))", "[]"),
];

fn binders(comb: Comb) -> Vec<Symbol> {
    let names: &[&str] = match comb {
        Comb::Map | Comb::Filter | Comb::Mapt => &["x"],
        Comb::Foldl => &["a", "x"],
        Comb::Foldr => &["x", "a"],
        Comb::Recl => &["x", "xs", "r"],
        Comb::Foldt => &["v", "rs"],
    };
    names.iter().map(|n| Symbol::intern(n)).collect()
}

/// Builds the full program text for a ground truth.
fn program_text(comb: Comb, f_body: &str, init: &str) -> String {
    let bs = binders(comb)
        .iter()
        .map(|s| s.as_str().to_owned())
        .collect::<Vec<_>>()
        .join(" ");
    match comb.init_index() {
        Some(_) => format!("({} (lambda ({bs}) {f_body}) {init} l)", comb.name()),
        None => format!("({} (lambda ({bs}) {f_body}) l)", comb.name()),
    }
}

fn random_lists(rng: &mut StdRng, n_range: std::ops::Range<usize>) -> Vec<Vec<i64>> {
    let n = rng.gen_range(n_range);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0usize..5);
            (0..len).map(|_| rng.gen_range(-5i64..10)).collect()
        })
        .collect()
}

/// Necessity: the true step function satisfies every deduced row.
#[test]
fn deduced_rows_are_necessary() {
    let mut rng = StdRng::seed_from_u64(0xD1);
    for _ in 0..64 {
        let truth_idx = rng.gen_range(0..TRUTHS.len());
        let lists = random_lists(&mut rng, 1..5);
        let (comb, f_body, init) = TRUTHS[truth_idx];
        let program = program_text(comb, f_body, init);
        let (rows, coll) = rows_from_program(&program, &lists);

        // Per-row init values (inits in the pool are closed constants).
        let init_vals: Option<Vec<Value>> = comb.init_index().map(|_| {
            let e = parse_expr(init).expect("init parses");
            rows.iter()
                .map(|r| {
                    let mut fuel = 1_000;
                    eval(&e, &r.env, &mut fuel).expect("init evaluates")
                })
                .collect()
        });

        match deduce(
            comb,
            &rows,
            &coll,
            init_vals.as_deref(),
            &binders(comb),
            true,
            true,
        ) {
            Outcome::Refuted | Outcome::Pruned => {
                panic!("deduction refuted its own ground truth {program}")
            }
            Outcome::Deduced(d) => assert!(
                f_satisfies_rows(f_body, &d.fun_spec),
                "{f_body} violates a deduced row for {program}"
            ),
        }
    }
}

/// Refutation soundness for map: mismatched lengths are impossible.
#[test]
fn map_length_mismatch_always_refutes() {
    let mut rng = StdRng::seed_from_u64(0xD2);
    for _ in 0..64 {
        let input: Vec<i64> = {
            let len = rng.gen_range(0usize..6);
            (0..len).map(|_| rng.gen_range(-5i64..10)).collect()
        };
        let extra = rng.gen_range(1usize..3);
        let l = Symbol::intern("l");
        let iv = ints(&input);
        // Output longer than the input can never come from a map.
        let ov = ints(&vec![0; input.len() + extra]);
        let rows = vec![ExampleRow::new(Env::empty().bind(l, iv.clone()), ov)];
        let coll = CollectionArg {
            values: vec![iv],
            var: Some(l),
        };
        assert!(matches!(
            deduce(
                Comb::Map,
                &rows,
                &coll,
                None,
                &[Symbol::intern("x")],
                true,
                true
            ),
            Outcome::Refuted
        ));
    }
}

/// Refutation soundness for filter: reordered outputs are impossible.
#[test]
fn filter_reorder_always_refutes() {
    let mut rng = StdRng::seed_from_u64(0xD3);
    let mut checked = 0;
    while checked < 64 {
        let mut input: Vec<i64> = {
            let len = rng.gen_range(2usize..6);
            (0..len).map(|_| rng.gen_range(0i64..50)).collect()
        };
        // Make elements distinct so reversal is a genuine reorder.
        input.sort_unstable();
        input.dedup();
        if input.len() < 2 {
            continue; // prop_assume equivalent: resample
        }
        checked += 1;
        let l = Symbol::intern("l");
        let iv = ints(&input);
        let reversed: Vec<i64> = input.iter().rev().copied().collect();
        let rows = vec![ExampleRow::new(
            Env::empty().bind(l, iv.clone()),
            ints(&reversed),
        )];
        let coll = CollectionArg {
            values: vec![iv],
            var: Some(l),
        };
        assert!(matches!(
            deduce(
                Comb::Filter,
                &rows,
                &coll,
                None,
                &[Symbol::intern("x")],
                true,
                true
            ),
            Outcome::Refuted
        ));
    }
}

/// Fold base check: an init that disagrees with an empty-collection row
/// is always refuted; one that agrees never is (for consistent rows).
#[test]
fn fold_base_check_is_exact() {
    let mut rng = StdRng::seed_from_u64(0xD4);
    for _ in 0..64 {
        let expected = rng.gen_range(-10i64..10);
        let wrong_delta = rng.gen_range(1i64..5);
        let l = Symbol::intern("l");
        let rows = vec![ExampleRow::new(
            Env::empty().bind(l, Value::nil()),
            Value::Int(expected),
        )];
        let coll = CollectionArg {
            values: vec![Value::nil()],
            var: Some(l),
        };
        let bs = [Symbol::intern("a"), Symbol::intern("x")];

        let good = vec![Value::Int(expected)];
        assert!(matches!(
            deduce(Comb::Foldl, &rows, &coll, Some(&good), &bs, true, true),
            Outcome::Deduced(_)
        ));

        let bad = vec![Value::Int(expected + wrong_delta)];
        assert!(matches!(
            deduce(Comb::Foldl, &rows, &coll, Some(&bad), &bs, true, true),
            Outcome::Refuted
        ));
    }
}
