//! Deduction-rule micro-benchmarks: rules run once per
//! (hole context × combinator × collection × init) during planning, so
//! their throughput bounds hypothesis generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lambda2_bench_suite::generators::random_list;
use lambda2_lang::ast::Comb;
use lambda2_lang::env::Env;
use lambda2_lang::eval::eval_default;
use lambda2_lang::parser::parse_expr;
use lambda2_lang::symbol::Symbol;
use lambda2_lang::value::Value;
use lambda2_synth::deduce::{deduce, CollectionArg};
use lambda2_synth::ExampleRow;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Rows for `map (λx. x+1)` over `n_rows` random lists.
fn map_rows(n_rows: usize) -> (Vec<ExampleRow>, CollectionArg) {
    let mut rng = StdRng::seed_from_u64(11);
    let l = Symbol::intern("l");
    let prog = parse_expr("(map (lambda (x) (+ x 1)) l)").unwrap();
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for i in 0..n_rows {
        let input = random_list(i % 7 + 1, 50, &mut rng);
        let env = Env::empty().bind(l, input.clone());
        let out = eval_default(&prog, &env).unwrap();
        rows.push(ExampleRow::new(env, out));
        values.push(input);
    }
    (
        rows,
        CollectionArg {
            values,
            var: Some(l),
        },
    )
}

/// Prefix-chain rows for `foldl (+) 0` (every chain link deduces).
fn fold_rows(n_rows: usize) -> (Vec<ExampleRow>, CollectionArg, Vec<Value>) {
    let mut rng = StdRng::seed_from_u64(13);
    let l = Symbol::intern("l");
    let base = random_list(n_rows, 50, &mut rng);
    let base = base.as_list().unwrap().to_vec();
    let prog = parse_expr("(foldl (lambda (a x) (+ a x)) 0 l)").unwrap();
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for n in 0..=n_rows {
        let input = Value::list(base[..n].to_vec());
        let env = Env::empty().bind(l, input.clone());
        let out = eval_default(&prog, &env).unwrap();
        rows.push(ExampleRow::new(env, out));
        values.push(input);
    }
    let inits = vec![Value::Int(0); rows.len()];
    (
        rows,
        CollectionArg {
            values,
            var: Some(l),
        },
        inits,
    )
}

fn bench_deduce(c: &mut Criterion) {
    let x = Symbol::intern("x");
    let a = Symbol::intern("a");

    let mut group = c.benchmark_group("deduce/map");
    for &n in &[2usize, 8, 32] {
        let (rows, coll) = map_rows(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| deduce(Comb::Map, &rows, &coll, None, &[x], true, true))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("deduce/foldl-chain");
    for &n in &[2usize, 8, 32] {
        let (rows, coll, inits) = fold_rows(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| deduce(Comb::Foldl, &rows, &coll, Some(&inits), &[a, x], true, true))
        });
    }
    group.finish();

    // Refutation path (length mismatch) — must be cheap, it runs often.
    let mut group = c.benchmark_group("deduce/map-refute");
    let l = Symbol::intern("l");
    let iv = Value::list(vec![Value::Int(1), Value::Int(2)]);
    let rows = vec![ExampleRow::new(
        Env::empty().bind(l, iv.clone()),
        Value::list(vec![Value::Int(1)]),
    )];
    let coll = CollectionArg {
        values: vec![iv],
        var: Some(l),
    };
    group.bench_function("length-mismatch", |b| {
        b.iter(|| deduce(Comb::Map, &rows, &coll, None, &[x], true, true))
    });
    group.finish();
}

criterion_group!(benches, bench_deduce);
criterion_main!(benches);
