//! Deduction rules for the list folds: `foldl`, `foldr`, `recl`.
//!
//! Fold hypotheses carry a *concrete* initial-value candidate, which makes
//! three kinds of inference available:
//!
//! * **base checks** — a row whose collection is `[]` forces the initial
//!   value: `foldl ◻f e [] = e`. Disagreement refutes the hypothesis.
//! * **singleton rows** — `foldl ◻f e [x] = ◻f(e, x)`, so singleton
//!   collections yield step-function rows directly.
//! * **chain rows** — when the collection argument is a plain variable `v`
//!   and two rows differ *only* in `v`'s binding, with one binding the
//!   tail (for `foldr`/`recl`) or the init-prefix (for `foldl`) of the
//!   other, the fold's recurrence yields a row for the step function:
//!   `foldr ◻f e (x:xs) = ◻f(x, foldr ◻f e xs)`, and the inner fold's
//!   value is the other row's output.
//!
//! This is why the paper's example sets for fold-shaped problems contain
//! prefix/tail chains like `[]`, `[a]`, `[a,b]`, `[a,b,c]`.

use std::collections::HashMap;

use lambda2_lang::env::Env;
use lambda2_lang::symbol::Symbol;
use lambda2_lang::value::Value;

use super::{group_rows_without, spec_or_refute, CollectionArg, Deduction, Outcome};
use crate::spec::ExampleRow;

/// Hard cap on trace probes per hole (they multiply signature costs).
const MAX_PROBES: usize = 24;

/// *Trace probes* for a fold's step function: verification will call it on
/// every element of every collection with accumulators we cannot predict
/// exactly — but the row's initial value and the row's final output are
/// plausible candidates, and binding each (element, candidate) pair keeps
/// the enumerator's observational classes as fine as verification itself.
/// `bind` receives (parent row, element index, elements, element,
/// accumulator candidate) and returns the probe environment.
fn fold_probes(
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: &[Value],
    bind: impl Fn(&ExampleRow, usize, &[Value], &Value, &Value) -> Env,
) -> Vec<Env> {
    let mut probes = Vec::new();
    'rows: for (row, (cv, iv)) in rows.iter().zip(coll.values.iter().zip(init)) {
        let xs = cv.as_list().expect("collections checked as lists");
        for (j, elem) in xs.iter().enumerate() {
            for acc_candidate in [iv, &row.output] {
                if probes.len() >= MAX_PROBES {
                    break 'rows;
                }
                probes.push(bind(row, j, xs, elem, acc_candidate));
            }
        }
    }
    probes
}

/// Attaches fold trace probes to a deduction outcome.
fn with_probes(outcome: Outcome, probes: impl FnOnce() -> Vec<Env>) -> Outcome {
    match outcome {
        Outcome::Deduced(mut d) => {
            d.probes = probes();
            Outcome::Deduced(d)
        }
        refuted => refuted,
    }
}

/// `foldl ◻f e c` with `◻f(acc, x)`.
pub fn deduce_foldl(
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: &[Value],
    acc: Symbol,
    x: Symbol,
) -> Outcome {
    let out = deduce_fold(
        rows,
        coll,
        init,
        &mut |row, list, init_val, lookup, fun_rows| {
            if list.len() == 1 {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(acc, init_val.clone()).bind(x, list[0].clone()),
                    row.output.clone(),
                ));
                return;
            }
            let (prefix, last) = list.split_at(list.len() - 1);
            if let Some(prev_out) = lookup(prefix) {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(acc, prev_out).bind(x, last[0].clone()),
                    row.output.clone(),
                ));
            }
        },
    );
    with_probes(out, || {
        fold_probes(rows, coll, init, |row, _, _, elem, cand| {
            row.env.bind(acc, cand.clone()).bind(x, elem.clone())
        })
    })
}

/// `foldr ◻f e c` with `◻f(x, acc)`.
pub fn deduce_foldr(
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: &[Value],
    x: Symbol,
    acc: Symbol,
) -> Outcome {
    let out = deduce_fold(
        rows,
        coll,
        init,
        &mut |row, list, init_val, lookup, fun_rows| {
            if list.len() == 1 {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(x, list[0].clone()).bind(acc, init_val.clone()),
                    row.output.clone(),
                ));
                return;
            }
            let (head, tail) = list.split_at(1);
            if let Some(tail_out) = lookup(tail) {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(x, head[0].clone()).bind(acc, tail_out),
                    row.output.clone(),
                ));
            }
        },
    );
    with_probes(out, || {
        fold_probes(rows, coll, init, |row, _, _, elem, cand| {
            row.env.bind(x, elem.clone()).bind(acc, cand.clone())
        })
    })
}

/// `recl ◻f e c` with `◻f(x, xs, rec)` where `rec = recl ◻f e xs`.
pub fn deduce_recl(
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: &[Value],
    x: Symbol,
    xs: Symbol,
    rec: Symbol,
) -> Outcome {
    let out = deduce_fold(
        rows,
        coll,
        init,
        &mut |row, list, init_val, lookup, fun_rows| {
            let (head, tail) = list.split_at(1);
            let rec_out = if tail.is_empty() {
                Some(init_val.clone())
            } else {
                lookup(tail)
            };
            if let Some(rec_out) = rec_out {
                fun_rows.push(ExampleRow::new(
                    row.env
                        .bind(x, head[0].clone())
                        .bind(xs, Value::list(tail.to_vec()))
                        .bind(rec, rec_out),
                    row.output.clone(),
                ));
            }
        },
    );
    with_probes(out, || {
        fold_probes(rows, coll, init, |row, j, elems, elem, cand| {
            row.env
                .bind(x, elem.clone())
                .bind(xs, Value::list(elems[j + 1..].to_vec()))
                .bind(rec, cand.clone())
        })
    })
}

/// Shared fold skeleton: checks empty-collection rows against the concrete
/// initial value, and calls `step` for every non-empty collection row with
/// the row's initial value and a lookup into the same chain group (rows
/// differing only in the collection variable).
#[allow(clippy::type_complexity)] // one-off callback signature, local to this module
fn deduce_fold(
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: &[Value],
    step: &mut dyn FnMut(
        &ExampleRow,
        &[Value],
        &Value,
        &dyn Fn(&[Value]) -> Option<Value>,
        &mut Vec<ExampleRow>,
    ),
) -> Outcome {
    // Collections must all be lists.
    for cv in &coll.values {
        if cv.as_list().is_none() {
            return Outcome::Refuted;
        }
    }

    // Base checks: an empty collection forces the output to be the
    // initial value.
    for ((row, cv), iv) in rows.iter().zip(&coll.values).zip(init) {
        let xs = cv.as_list().expect("checked above");
        if xs.is_empty() && row.output != *iv {
            return Outcome::Refuted;
        }
    }

    let mut fun_rows = Vec::new();

    // Chain groups: only meaningful when the collection is a variable,
    // but singleton deduction works for any collection expression, so we
    // always iterate rows; the lookup is empty for non-variables.
    let groups: Vec<Vec<usize>> = match coll.var {
        Some(var) => group_rows_without(rows, var),
        None => (0..rows.len()).map(|i| vec![i]).collect(),
    };
    for group in groups {
        let mut by_list: HashMap<&[Value], &Value> = HashMap::new();
        if coll.var.is_some() {
            for &i in &group {
                let xs = coll.values[i].as_list().expect("checked above");
                by_list.insert(xs, &rows[i].output);
            }
        }
        let lookup = |key: &[Value]| by_list.get(key).map(|v| (*v).clone());
        for &i in &group {
            let xs = coll.values[i].as_list().expect("checked above");
            if !xs.is_empty() {
                step(&rows[i], xs, &init[i], &lookup, &mut fun_rows);
            }
        }
    }

    match spec_or_refute(fun_rows) {
        Ok(fun_spec) => Outcome::Deduced(Deduction {
            fun_spec,
            probes: Vec::new(),
        }),
        Err(r) => r,
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    fn deduction(out: Outcome) -> Deduction {
        match out {
            Outcome::Deduced(d) => d,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Constant init value replicated across rows.
    fn inits(v: &str, n: usize) -> Vec<Value> {
        vec![val(v); n]
    }

    #[test]
    fn empty_rows_check_the_init() {
        let (rows, coll) = rows_on_var("l", &[("[]", "0"), ("[1]", "1")]);
        // Correct init passes…
        assert!(matches!(
            deduce_foldl(&rows, &coll, &inits("0", 2), sym("a"), sym("x")),
            Outcome::Deduced(_)
        ));
        // …wrong init refutes.
        assert!(matches!(
            deduce_foldl(&rows, &coll, &inits("7", 2), sym("a"), sym("x")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn singletons_deduce_step_rows_from_the_init() {
        let (rows, coll) = rows_on_var("l", &[("[5]", "5")]);
        let d = deduction(deduce_foldl(
            &rows,
            &coll,
            &inits("0", 1),
            sym("a"),
            sym("x"),
        ));
        assert_eq!(d.fun_spec.len(), 1);
        let row = &d.fun_spec.rows()[0];
        assert_eq!(row.env.lookup(sym("a")), Some(&Value::Int(0)));
        assert_eq!(row.env.lookup(sym("x")), Some(&Value::Int(5)));
        assert_eq!(row.output, Value::Int(5));
    }

    #[test]
    fn foldl_chains_deduce_step_rows() {
        // sum with a prefix chain: [] , [1], [1,2], [1,2,3].
        let (rows, coll) = rows_on_var(
            "l",
            &[("[]", "0"), ("[1]", "1"), ("[1 2]", "3"), ("[1 2 3]", "6")],
        );
        let d = deduction(deduce_foldl(
            &rows,
            &coll,
            &inits("0", 4),
            sym("a"),
            sym("x"),
        ));
        // f(0,1)=1, f(1,2)=3, f(3,3)=6
        assert_eq!(d.fun_spec.len(), 3);
        for row in d.fun_spec.rows() {
            let a = row.env.lookup(sym("a")).unwrap().as_int().unwrap();
            let x = row.env.lookup(sym("x")).unwrap().as_int().unwrap();
            assert_eq!(row.output, Value::Int(a + x));
        }
    }

    #[test]
    fn foldr_chains_use_tails() {
        let (rows, coll) = rows_on_var(
            "l",
            &[("[]", "[]"), ("[2]", "[2 2]"), ("[1 2]", "[1 1 2 2]")],
        );
        let d = deduction(deduce_foldr(
            &rows,
            &coll,
            &inits("[]", 3),
            sym("x"),
            sym("a"),
        ));
        // f(2, []) = [2 2]; f(1, [2 2]) = [1 1 2 2]
        assert_eq!(d.fun_spec.len(), 2);
        let r0 = &d.fun_spec.rows()[0];
        assert_eq!(r0.env.lookup(sym("x")), Some(&Value::Int(2)));
        assert_eq!(r0.env.lookup(sym("a")), Some(&val("[]")));
        assert_eq!(r0.output, val("[2 2]"));
    }

    #[test]
    fn recl_binds_head_tail_and_recursive_result() {
        let (rows, coll) = rows_on_var("l", &[("[]", "[]"), ("[2]", "[2]"), ("[1 2]", "[1 2]")]);
        let d = deduction(deduce_recl(
            &rows,
            &coll,
            &inits("[]", 3),
            sym("x"),
            sym("xs"),
            sym("r"),
        ));
        assert_eq!(d.fun_spec.len(), 2);
        let r1 = d
            .fun_spec
            .rows()
            .iter()
            .find(|r| r.env.lookup(sym("x")) == Some(&Value::Int(1)))
            .unwrap();
        assert_eq!(r1.env.lookup(sym("xs")), Some(&val("[2]")));
        assert_eq!(r1.env.lookup(sym("r")), Some(&val("[2]")));
        assert_eq!(r1.output, val("[1 2]"));
    }

    #[test]
    fn chains_respect_other_bindings() {
        // Two-parameter problem (append): chains only link rows where the
        // second argument agrees, and the per-row init can differ (here it
        // is the value of `q` in each row — the candidate init term `q`).
        use lambda2_lang::env::Env;
        let l = sym("p");
        let y = sym("q");
        let mk = |lv: &str, yv: &str, out: &str| {
            ExampleRow::new(Env::empty().bind(l, val(lv)).bind(y, val(yv)), val(out))
        };
        let rows = vec![
            mk("[]", "[9]", "[9]"),
            mk("[1]", "[9]", "[1 9]"),
            mk("[2 1]", "[8 8]", "[2 1 8 8]"),
        ];
        let coll = CollectionArg {
            values: rows
                .iter()
                .map(|r| r.env.lookup(l).unwrap().clone())
                .collect(),
            var: Some(l),
        };
        let init = vec![val("[9]"), val("[9]"), val("[8 8]")];
        let d = deduction(deduce_foldr(&rows, &coll, &init, sym("x"), sym("a")));
        // Singleton [1] with init [9]: f(1, [9]) = [1 9]. The [2 1] row has
        // no tail example in its group, so nothing else is deduced.
        assert_eq!(d.fun_spec.len(), 1);
        let row = &d.fun_spec.rows()[0];
        assert_eq!(row.env.lookup(sym("a")), Some(&val("[9]")));
    }

    #[test]
    fn non_variable_collections_get_singleton_rows() {
        let (rows, coll) = rows_on_expr(&[("[]", "0"), ("[1]", "1"), ("[1 2]", "3")]);
        let d = deduction(deduce_foldl(
            &rows,
            &coll,
            &inits("0", 3),
            sym("a"),
            sym("x"),
        ));
        // Only the singleton [1] row deduces; [1 2] has no usable chain.
        assert_eq!(d.fun_spec.len(), 1);
    }

    #[test]
    fn recl_singleton_uses_init_for_the_recursive_result() {
        let (rows, coll) = rows_on_var("l", &[("[7]", "[7]")]);
        let d = deduction(deduce_recl(
            &rows,
            &coll,
            &inits("[]", 1),
            sym("x"),
            sym("xs"),
            sym("r"),
        ));
        assert_eq!(d.fun_spec.len(), 1);
        let row = &d.fun_spec.rows()[0];
        assert_eq!(row.env.lookup(sym("r")), Some(&val("[]")));
        assert_eq!(row.env.lookup(sym("xs")), Some(&val("[]")));
    }

    #[test]
    fn inconsistent_deduced_rows_refute() {
        // Two identical singleton rows demanding different outputs would be
        // inconsistent — construct via duplicate env with different output
        // being impossible at spec level, so check step-vs-singleton clash:
        // rows [5]→5 and chain [],[5]→6 with init 0 give f(0,5)=5 vs the
        // explicit singleton f(0,5)=6. Same env, different outputs ⇒ refute.
        let (rows, coll) = rows_on_var("l", &[("[5]", "5")]);
        let (rows2, _) = rows_on_var("l", &[("[5]", "6")]);
        let mut all = rows;
        all.extend(rows2);
        let coll = CollectionArg {
            values: vec![val("[5]"), val("[5]")],
            var: coll.var,
        };
        // Identical envs with conflicting outputs — caught by the deduced
        // spec's consistency check (the parent spec would have caught it
        // too; deduction must not panic).
        assert!(matches!(
            deduce_foldl(&all, &coll, &inits("0", 2), sym("a"), sym("x")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn foldl_emits_trace_probes_for_every_element() {
        let (rows, coll) = rows_on_var("l", &[("[4 7]", "11")]);
        let d = deduction(deduce_foldl(
            &rows,
            &coll,
            &inits("0", 1),
            sym("a"),
            sym("x"),
        ));
        // 2 elements x 2 accumulator candidates (init and output).
        assert_eq!(d.probes.len(), 4);
        for env in &d.probes {
            let a = env.lookup(sym("a")).unwrap().as_int().unwrap();
            let x = env.lookup(sym("x")).unwrap().as_int().unwrap();
            assert!(a == 0 || a == 11, "a={a}");
            assert!(x == 4 || x == 7, "x={x}");
        }
    }

    #[test]
    fn recl_trace_probes_bind_real_tails() {
        let (rows, coll) = rows_on_var("l", &[("[4 7]", "[4 7]")]);
        let d = deduction(deduce_recl(
            &rows,
            &coll,
            &inits("[]", 1),
            sym("x"),
            sym("xs"),
            sym("r"),
        ));
        assert!(d
            .probes
            .iter()
            .any(|env| env.lookup(sym("xs")) == Some(&val("[7]"))));
        assert!(d
            .probes
            .iter()
            .any(|env| env.lookup(sym("xs")) == Some(&val("[]"))));
    }

    #[test]
    fn trace_probes_are_capped() {
        let big: String = format!(
            "[{}]",
            (0..40).map(|i| i.to_string()).collect::<Vec<_>>().join(" ")
        );
        let (rows, coll) = rows_on_var("l", &[(big.as_str(), "0")]);
        let d = deduction(deduce_foldl(
            &rows,
            &coll,
            &inits("0", 1),
            sym("a"),
            sym("x"),
        ));
        assert!(d.probes.len() <= 24);
    }

    #[test]
    fn non_list_collection_refutes() {
        let (rows, mut coll) = rows_on_var("l", &[("[1]", "1")]);
        coll.values = vec![Value::Int(3)];
        assert!(matches!(
            deduce_foldl(&rows, &coll, &inits("0", 1), sym("a"), sym("x")),
            Outcome::Refuted
        ));
    }
}
