//! Deduction rules for `map` and `filter`.

use std::collections::{HashMap, HashSet};

use lambda2_lang::symbol::Symbol;
use lambda2_lang::value::Value;

use super::{spec_or_refute, CollectionArg, Deduction, Outcome};
use crate::spec::ExampleRow;

/// `map ◻f c`: every row's collection and output must be lists of equal
/// length; `◻f` must send the j-th element to the j-th output.
pub fn deduce_map(rows: &[ExampleRow], coll: &CollectionArg, x: Symbol) -> Outcome {
    let mut fun_rows = Vec::new();
    for (row, cv) in rows.iter().zip(&coll.values) {
        let (Some(xs), Some(ys)) = (cv.as_list(), row.output.as_list()) else {
            return Outcome::Refuted;
        };
        if xs.len() != ys.len() {
            return Outcome::Refuted;
        }
        for (xi, yi) in xs.iter().zip(ys) {
            fun_rows.push(ExampleRow::new(row.env.bind(x, xi.clone()), yi.clone()));
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

/// `filter ◻p c`: every row's output must be an order-preserving
/// sub-multiset of the collection. Elements whose occurrences are all kept
/// must satisfy `◻p`; elements entirely absent from the output must
/// falsify it.
///
/// An element *partially* kept is impossible: within one row the
/// predicate closes over a fixed environment, so equal elements get the
/// same verdict. With `prune` on that refutes the hypothesis as
/// [`Outcome::Pruned`] — but only once every row has passed the shape and
/// subsequence checks, so those refutations stay [`Outcome::Refuted`].
/// With `prune` off the element contributes no row and final verification
/// constrains it. The two checks together are complete for `filter`: an
/// output passing both equals `filter_K(c)` for the kept-value set
/// `K = {v : v occurs in the output}`.
pub fn deduce_filter(rows: &[ExampleRow], coll: &CollectionArg, x: Symbol, prune: bool) -> Outcome {
    let mut fun_rows = Vec::new();
    let mut partially_kept = false;
    for (row, cv) in rows.iter().zip(&coll.values) {
        let (Some(xs), Some(ys)) = (cv.as_list(), row.output.as_list()) else {
            return Outcome::Refuted;
        };
        if !is_subsequence(ys, xs) {
            return Outcome::Refuted;
        }
        let mut count_in: HashMap<&Value, usize> = HashMap::new();
        for v in xs {
            *count_in.entry(v).or_default() += 1;
        }
        let mut count_out: HashMap<&Value, usize> = HashMap::new();
        for v in ys {
            *count_out.entry(v).or_default() += 1;
        }
        // Emit rows in first-occurrence order over the collection, never
        // in `count_in` iteration order: HashMap order is seeded per
        // instance, and the leading rows of the deduced spec choose the
        // enumerator's probe environments — a scrambled order makes the
        // whole search (dedup classes, term counts) nondeterministic.
        let mut emitted: HashSet<&Value> = HashSet::new();
        for v in xs {
            if !emitted.insert(v) {
                continue;
            }
            let cin = count_in[v];
            let cout = count_out.get(v).copied().unwrap_or(0);
            if cout == cin {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(x, v.clone()),
                    Value::Bool(true),
                ));
            } else if cout == 0 {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(x, v.clone()),
                    Value::Bool(false),
                ));
            } else {
                partially_kept = true;
            }
        }
    }
    if prune && partially_kept {
        #[cfg(feature = "check-invariants")]
        assert!(
            crate::analyze::oracle::no_filter_completion(rows, &coll.values),
            "pruned filter refutation not confirmed by the oracle"
        );
        return Outcome::Pruned;
    }
    match spec_or_refute(fun_rows) {
        Ok(fun_spec) => Outcome::Deduced(Deduction {
            fun_spec,
            probes: Vec::new(),
        }),
        Err(r) => r,
    }
}

/// `true` if `sub` is an order-preserving subsequence of `sup`.
fn is_subsequence(sub: &[Value], sup: &[Value]) -> bool {
    let mut it = sup.iter();
    sub.iter().all(|s| it.any(|v| v == s))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use lambda2_lang::value::Value;

    fn fun_spec(out: Outcome) -> crate::spec::Spec {
        match out {
            Outcome::Deduced(d) => d.fun_spec,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn map_deducts_pointwise_examples() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[2 3]"), ("[5]", "[6]")]);
        let spec = fun_spec(deduce_map(&rows, &coll, sym("x")));
        assert_eq!(spec.len(), 3);
        for row in spec.rows() {
            let x = row.env.lookup(sym("x")).unwrap().as_int().unwrap();
            assert_eq!(row.output, Value::Int(x + 1));
        }
    }

    #[test]
    fn map_refutes_on_length_mismatch() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[2]")]);
        assert!(matches!(
            deduce_map(&rows, &coll, sym("x")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn map_refutes_on_non_list_output() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "3")]);
        assert!(matches!(
            deduce_map(&rows, &coll, sym("x")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn map_refutes_on_pointwise_conflict() {
        // Within one row, 1 must map to both 2 and 9 — not a function.
        let (rows, coll) = rows_on_var("l", &[("[1 1]", "[2 9]")]);
        assert!(matches!(
            deduce_map(&rows, &coll, sym("x")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn map_conflicts_across_rows_are_allowed_when_envs_differ() {
        // x=1 maps to 2 under l=[1] and to 9 under l=[1 1]: the function may
        // inspect l, so this is *not* a refutation.
        let (rows, coll) = rows_on_var("l", &[("[1]", "[2]"), ("[1 1]", "[9 9]")]);
        let spec = fun_spec(deduce_map(&rows, &coll, sym("x")));
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn map_merges_duplicate_deductions() {
        let (rows, coll) = rows_on_var("l", &[("[1 1]", "[2 2]")]);
        let spec = fun_spec(deduce_map(&rows, &coll, sym("x")));
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn filter_deducts_kept_and_dropped() {
        let (rows, coll) = rows_on_var("l", &[("[1 2 3 4]", "[2 4]")]);
        let spec = fun_spec(deduce_filter(&rows, &coll, sym("x"), true));
        assert_eq!(spec.len(), 4);
        for row in spec.rows() {
            let x = row.env.lookup(sym("x")).unwrap().as_int().unwrap();
            assert_eq!(row.output, Value::Bool(x % 2 == 0), "x={x}");
        }
    }

    #[test]
    fn filter_rows_follow_collection_order() {
        // Regression: rows used to be emitted in HashMap iteration order,
        // which is seeded per instance — downstream, the leading spec rows
        // pick the enumerator's probe environments, so a scrambled order
        // made term counts flap between otherwise identical runs.
        let (rows, coll) = rows_on_var("l", &[("[4 1 3 2]", "[4 2]")]);
        let spec = fun_spec(deduce_filter(&rows, &coll, sym("x"), true));
        let got: Vec<(i64, Value)> = spec
            .rows()
            .iter()
            .map(|r| {
                (
                    r.env.lookup(sym("x")).unwrap().as_int().unwrap(),
                    r.output.clone(),
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                (4, Value::Bool(true)),
                (1, Value::Bool(false)),
                (3, Value::Bool(false)),
                (2, Value::Bool(true)),
            ]
        );
    }

    #[test]
    fn filter_refutes_on_reordering() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[2 1]")]);
        assert!(matches!(
            deduce_filter(&rows, &coll, sym("x"), true),
            Outcome::Refuted
        ));
    }

    #[test]
    fn filter_refutes_on_foreign_elements() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[3]")]);
        assert!(matches!(
            deduce_filter(&rows, &coll, sym("x"), true),
            Outcome::Refuted
        ));
    }

    #[test]
    fn filter_refutes_on_multiplicity_increase() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[1 1]")]);
        assert!(matches!(
            deduce_filter(&rows, &coll, sym("x"), true),
            Outcome::Refuted
        ));
    }

    #[test]
    fn filter_prunes_partially_kept_duplicates() {
        // One of the two 5s is kept: no predicate can split equal
        // elements within a row, so pruning refutes the hypothesis.
        let (rows, coll) = rows_on_var("l", &[("[5 7 5]", "[5]")]);
        assert!(matches!(
            deduce_filter(&rows, &coll, sym("x"), true),
            Outcome::Pruned
        ));
        // Keeping every occurrence (or none) is realizable: `x = 5`.
        let (rows, coll) = rows_on_var("l", &[("[5 7 5]", "[5 5]")]);
        assert!(matches!(
            deduce_filter(&rows, &coll, sym("x"), true),
            Outcome::Deduced(_)
        ));
    }

    #[test]
    fn filter_refutes_before_it_prunes() {
        // Row 0 keeps one of two 5s (prunable), but row 1 is not a
        // subsequence: the subsequence refutation wins regardless of row
        // order, so `pruned_refutations` counts only hypotheses the
        // shape and subsequence checks keep.
        let (rows, coll) = rows_on_var("l", &[("[5 7 5]", "[5]"), ("[1 2]", "[2 1]")]);
        assert!(matches!(
            deduce_filter(&rows, &coll, sym("x"), true),
            Outcome::Refuted
        ));
    }

    #[test]
    fn filter_skips_ambiguous_duplicates() {
        // With pruning off, p(5) is ambiguous and contributes no row;
        // p(7) is determined.
        let (rows, coll) = rows_on_var("l", &[("[5 7 5]", "[5]")]);
        let spec = fun_spec(deduce_filter(&rows, &coll, sym("x"), false));
        assert_eq!(spec.len(), 1);
        let row = &spec.rows()[0];
        assert_eq!(row.env.lookup(sym("x")), Some(&Value::Int(7)));
        assert_eq!(row.output, Value::Bool(false));
    }

    #[test]
    fn filter_refutes_on_cross_row_conflicts() {
        // Row 1 keeps every 3; row 2 drops every 3 under the same env? No —
        // envs differ (l differs), so no conflict: both rows deduce fine.
        let (rows, coll) = rows_on_var("l", &[("[3]", "[3]"), ("[3 4]", "[4]")]);
        // x=3 with l=[3] → true; x=3 with l=[3 4] → false; x=4 → true.
        // Envs differ in l, so this is consistent (the predicate may
        // inspect l): three deduced rows, no refutation.
        let spec = fun_spec(deduce_filter(&rows, &coll, sym("x"), true));
        assert_eq!(spec.len(), 3);
    }

    #[test]
    fn subsequence_checker() {
        let v = |s: &str| val(s).as_list().unwrap().to_vec();
        assert!(is_subsequence(&v("[1 3]"), &v("[1 2 3]")));
        assert!(is_subsequence(&v("[]"), &v("[1]")));
        assert!(!is_subsequence(&v("[3 1]"), &v("[1 2 3]")));
        assert!(!is_subsequence(&v("[1 1]"), &v("[1]")));
    }
}
