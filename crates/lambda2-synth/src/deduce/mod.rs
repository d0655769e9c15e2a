//! Deduction rules.
//!
//! Given a hypothesis `C ◻f [e] c` (combinator `C`, function hole,
//! concrete initial-value candidate `e` for folds, concrete collection
//! argument `c`), a deduction rule inspects the hole's example rows and
//! either
//!
//! * **refutes** the hypothesis — no completion can satisfy the rows
//!   (e.g. `map` with mismatched input/output lengths, or a fold whose
//!   initial value disagrees with an empty-collection row), or
//! * **infers** new example rows for `◻f`, turning one synthesis problem
//!   into smaller independent subproblems — plus *trace probes* (see
//!   [`Deduction::probes`]).
//!
//! Every inferred row is a *necessary* condition: any completion of the
//! hypothesis satisfying the parent rows satisfies the inferred rows
//! (a property test in `tests/` checks this on random programs). Inferred
//! row sets that are not functionally consistent refute the hypothesis.
//!
//! Deduction is the search's only refuter. With pruning on, the `filter`
//! rule additionally refutes rows that keep some but not all occurrences
//! of a value — a condition its necessary-row inference skips — and
//! reports those as [`Outcome::Pruned`] so the search can count the work
//! they remove separately.
//!
//! Final verification of complete programs never depends on deduction, so
//! the synthesizer is sound even where a rule chooses to infer nothing.

mod fold;
mod list;
mod tree;

use lambda2_lang::ast::Comb;
use lambda2_lang::symbol::Symbol;
use lambda2_lang::value::Value;

use crate::govern::{Budget, BudgetExceeded};
use crate::spec::{ExampleRow, Spec};

/// The evaluated collection argument of a combinator hypothesis.
#[derive(Clone, Debug)]
pub struct CollectionArg {
    /// The collection's value in each example row, aligned with the rows.
    pub values: Vec<Value>,
    /// `Some(v)` when the collection expression is exactly the variable `v`;
    /// fold chain-deduction (tail/prefix/subtree lookups across rows) is
    /// only sound in that case.
    pub var: Option<Symbol>,
}

/// Result of running a deduction rule.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// No completion of the hypothesis can satisfy the rows.
    Refuted,
    /// No completion can satisfy the rows, proved by a check that goes
    /// beyond necessary-row inference: a `filter` row keeps some but not
    /// all occurrences of a value (cardinality), which no predicate can
    /// do. Only returned when pruning is on; with it off the rule infers
    /// what it can and leaves the hypothesis open.
    Pruned,
    /// Inferred specifications for the hypothesis's holes.
    Deduced(Deduction),
}

/// Inferred sub-specifications.
#[derive(Clone, Debug)]
pub struct Deduction {
    /// Rows for the function hole. Environments are the parent rows'
    /// environments extended with the lambda binders.
    pub fun_spec: Spec,
    /// *Trace probes*: environments (without required outputs) at which
    /// final verification will evaluate the function hole — e.g. every
    /// (element, plausible-accumulator) pair of a fold. They sharpen the
    /// enumerator's observational-equivalence classes to match what
    /// verification can distinguish; without them, a sparse deduced spec
    /// lets the true step function be deduplicated into a
    /// verification-failing representative.
    pub probes: Vec<lambda2_lang::env::Env>,
}

impl Deduction {
    fn empty() -> Deduction {
        Deduction {
            fun_spec: Spec::empty(),
            probes: Vec::new(),
        }
    }
}

/// Runs the deduction rule for `comb`.
///
/// `rows` are the hole's example rows; `coll` is the evaluated collection
/// argument (one value per row); `binders` are the lambda binder symbols,
/// of length `comb.fun_arity()`, in the combinator's argument order.
///
/// For folds, `init` carries the per-row value of the concrete
/// initial-value candidate: the rule *refutes* the hypothesis when an
/// empty-collection row disagrees with it, and singleton collections yield
/// step-function rows (`foldl ◻f e [x] = ◻f(e, x)`).
///
/// When `enabled` is `false` (the paper's deduction ablation), every
/// structural check is skipped and empty specs are returned — hypotheses
/// are then pruned only by types and final verification. `prune` turns
/// on the checks that refute beyond necessary-row inference
/// ([`Outcome::Pruned`]); it is ignored when `enabled` is `false`.
///
/// # Panics
///
/// Debug-asserts that `binders`/`coll`/`init` have the right shapes, and
/// that `init` is present exactly for the fold combinators.
pub fn deduce(
    comb: Comb,
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: Option<&[Value]>,
    binders: &[Symbol],
    enabled: bool,
    prune: bool,
) -> Outcome {
    debug_assert_eq!(binders.len(), comb.fun_arity());
    debug_assert_eq!(coll.values.len(), rows.len());
    debug_assert_eq!(init.is_some(), comb.init_index().is_some());
    if let Some(init) = init {
        debug_assert_eq!(init.len(), rows.len());
    }
    if !enabled {
        return Outcome::Deduced(Deduction::empty());
    }
    match comb {
        Comb::Map => list::deduce_map(rows, coll, binders[0]),
        Comb::Filter => list::deduce_filter(rows, coll, binders[0], prune),
        Comb::Foldl => fold::deduce_foldl(
            rows,
            coll,
            init.expect("fold has init"),
            binders[0],
            binders[1],
        ),
        Comb::Foldr => fold::deduce_foldr(
            rows,
            coll,
            init.expect("fold has init"),
            binders[0],
            binders[1],
        ),
        Comb::Recl => fold::deduce_recl(
            rows,
            coll,
            init.expect("fold has init"),
            binders[0],
            binders[1],
            binders[2],
        ),
        Comb::Mapt => tree::deduce_mapt(rows, coll, binders[0]),
        Comb::Foldt => tree::deduce_foldt(
            rows,
            coll,
            init.expect("fold has init"),
            binders[0],
            binders[1],
        ),
    }
}

/// [`deduce`] under a resource [`Budget`]: charges one budget tick per
/// example row (rule work is linear-ish in the rows) before dispatching,
/// so a deadline or cancellation is observed between rule invocations —
/// inside the search's deduction phase — rather than only at queue pops.
///
/// # Errors
///
/// Propagates the budget's (latched) [`BudgetExceeded`] verdict; no rule
/// runs in that case.
#[allow(clippy::too_many_arguments)] // one budget handle over `deduce`'s signature
pub fn deduce_within(
    comb: Comb,
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: Option<&[Value]>,
    binders: &[Symbol],
    enabled: bool,
    prune: bool,
    budget: &Budget,
) -> Result<Outcome, BudgetExceeded> {
    for _ in 0..rows.len().max(1) {
        budget.tick()?;
    }
    Ok(deduce(comb, rows, coll, init, binders, enabled, prune))
}

/// Builds a [`Spec`], mapping inconsistency to refutation.
fn spec_or_refute(rows: Vec<ExampleRow>) -> Result<Spec, Outcome> {
    Spec::new(rows).map_err(|_| Outcome::Refuted)
}

/// Groups row indices by their environment with `var`'s binding removed.
/// Rows in the same group differ only in the collection variable, which is
/// exactly when cross-row chain deduction is sound.
fn group_rows_without(rows: &[ExampleRow], var: Symbol) -> Vec<Vec<usize>> {
    use std::collections::HashMap;
    let mut groups: HashMap<Vec<(Symbol, Value)>, Vec<usize>> = HashMap::new();
    let mut order: Vec<Vec<(Symbol, Value)>> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let mut key = row.env.fingerprint();
        key.retain(|(s, _)| *s != var);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(i);
    }
    order
        .into_iter()
        .map(|k| groups.remove(&k).unwrap())
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for the rule tests.
    use lambda2_lang::env::Env;
    use lambda2_lang::parser::parse_value;
    use lambda2_lang::symbol::Symbol;
    use lambda2_lang::value::Value;

    use super::CollectionArg;
    use crate::spec::ExampleRow;

    /// Builds rows binding `l` to each input and the matching collection
    /// argument for the variable `l` itself.
    pub fn rows_on_var(var: &str, pairs: &[(&str, &str)]) -> (Vec<ExampleRow>, CollectionArg) {
        let v = Symbol::intern(var);
        let mut rows = Vec::new();
        let mut values = Vec::new();
        for (input, output) in pairs {
            let iv = parse_value(input).unwrap();
            let ov = parse_value(output).unwrap();
            rows.push(ExampleRow::new(Env::empty().bind(v, iv.clone()), ov));
            values.push(iv);
        }
        (
            rows,
            CollectionArg {
                values,
                var: Some(v),
            },
        )
    }

    /// Like [`rows_on_var`] but the collection is treated as a non-variable
    /// expression (chain deduction disabled).
    pub fn rows_on_expr(pairs: &[(&str, &str)]) -> (Vec<ExampleRow>, CollectionArg) {
        let (rows, coll) = rows_on_var("l", pairs);
        (
            rows,
            CollectionArg {
                values: coll.values,
                var: None,
            },
        )
    }

    pub fn val(s: &str) -> Value {
        parse_value(s).unwrap()
    }

    pub fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn disabled_deduction_returns_empty_specs() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[2 3]")]);
        let out = deduce(Comb::Map, &rows, &coll, None, &[sym("x")], false, true);
        match out {
            Outcome::Deduced(d) => assert!(d.fun_spec.is_empty()),
            other => panic!("disabled deduction must not refute: {other:?}"),
        }
        // Even a mismatching init is not checked when deduction is off.
        let init = vec![val("[99]")];
        let out = deduce(
            Comb::Foldl,
            &rows,
            &coll,
            Some(&init),
            &[sym("a"), sym("x")],
            false,
            true,
        );
        match out {
            Outcome::Deduced(d) => assert!(d.fun_spec.is_empty()),
            other => panic!("disabled deduction must not refute: {other:?}"),
        }
    }

    #[test]
    fn deduce_within_respects_a_tripped_budget() {
        let (rows, coll) = rows_on_var("l", &[("[1 2]", "[2 3]")]);
        let budget = Budget::unlimited();
        let out = deduce_within(
            Comb::Map,
            &rows,
            &coll,
            None,
            &[sym("x")],
            true,
            true,
            &budget,
        )
        .expect("unlimited budget");
        assert!(matches!(out, Outcome::Deduced(_)));

        budget.force_expire();
        let err = deduce_within(
            Comb::Map,
            &rows,
            &coll,
            None,
            &[sym("x")],
            true,
            true,
            &budget,
        )
        .expect_err("expired budget refuses to run");
        assert_eq!(err, BudgetExceeded::Deadline);
    }

    #[test]
    fn grouping_splits_on_other_bindings() {
        use lambda2_lang::env::Env;
        let l = sym("l");
        let y = sym("y");
        let mk = |lv: &str, yv: i64, out: i64| {
            ExampleRow::new(
                Env::empty()
                    .bind(l, val(lv))
                    .bind(y, lambda2_lang::value::Value::Int(yv)),
                lambda2_lang::value::Value::Int(out),
            )
        };
        let rows = vec![mk("[1]", 0, 1), mk("[]", 0, 0), mk("[1]", 9, 10)];
        let groups = group_rows_without(&rows, l);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1]);
        assert_eq!(groups[1], vec![2]);
    }
}
