//! Deduction rules for the tree combinators: `mapt` and `foldt`.

use std::collections::HashMap;

use lambda2_lang::env::Env;
use lambda2_lang::symbol::Symbol;
use lambda2_lang::value::{Tree, Value};

use super::{group_rows_without, spec_or_refute, CollectionArg, Deduction, Outcome};
use crate::spec::ExampleRow;

/// `mapt ◻f c`: output trees must have exactly the collection's shape;
/// `◻f` maps node values pointwise.
pub fn deduce_mapt(rows: &[ExampleRow], coll: &CollectionArg, x: Symbol) -> Outcome {
    let mut fun_rows = Vec::new();
    for (row, cv) in rows.iter().zip(&coll.values) {
        let (Some(tin), Some(tout)) = (cv.as_tree(), row.output.as_tree()) else {
            return Outcome::Refuted;
        };
        if !tin.same_shape(tout) {
            return Outcome::Refuted;
        }
        for (vi, vo) in tin.values().into_iter().zip(tout.values()) {
            fun_rows.push(ExampleRow::new(row.env.bind(x, vi.clone()), vo.clone()));
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

/// `foldt ◻f e c` with `◻f(v, rs)` where `rs` is the list of child
/// results.
///
/// * An empty-tree row must equal the (concrete) initial value, else the
///   hypothesis is refuted.
/// * A **leaf** row `{v}` yields `◻f(v, []) = out` unconditionally.
/// * An interior node yields a step row when *every* child subtree appears
///   as a whole-tree example in the same chain group (collection must be a
///   plain variable) — the child rows' outputs are the child results.
pub fn deduce_foldt(
    rows: &[ExampleRow],
    coll: &CollectionArg,
    init: &[Value],
    v: Symbol,
    rs: Symbol,
) -> Outcome {
    for cv in &coll.values {
        if cv.as_tree().is_none() {
            return Outcome::Refuted;
        }
    }

    let mut fun_rows = Vec::new();

    for ((row, cv), iv) in rows.iter().zip(&coll.values).zip(init) {
        let t = cv.as_tree().expect("checked above");
        match t.root() {
            None => {
                if row.output != *iv {
                    return Outcome::Refuted;
                }
            }
            Some(n) if n.children.is_empty() => {
                fun_rows.push(ExampleRow::new(
                    row.env.bind(v, n.value.clone()).bind(rs, Value::nil()),
                    row.output.clone(),
                ));
            }
            Some(_) => {}
        }
    }

    if let Some(var) = coll.var {
        for group in group_rows_without(rows, var) {
            let mut by_tree: HashMap<&Tree, &Value> = HashMap::new();
            for &i in &group {
                let t = coll.values[i].as_tree().expect("checked above");
                by_tree.insert(t, &rows[i].output);
            }
            for &i in &group {
                let t = coll.values[i].as_tree().expect("checked above");
                let Some(n) = t.root() else { continue };
                if n.children.is_empty() {
                    continue; // already handled as a leaf row
                }
                let child_outs: Option<Vec<Value>> = n
                    .children
                    .iter()
                    .map(|c| by_tree.get(c).map(|v| (*v).clone()))
                    .collect();
                if let Some(outs) = child_outs {
                    fun_rows.push(ExampleRow::new(
                        rows[i]
                            .env
                            .bind(v, n.value.clone())
                            .bind(rs, Value::list(outs)),
                        rows[i].output.clone(),
                    ));
                }
            }
        }
    }

    let fun_spec = match spec_or_refute(fun_rows) {
        Ok(s) => s,
        Err(r) => return r,
    };

    // Trace probes (see `deduce::fold`): verification calls the step
    // function at every node with child-result lists we cannot fully
    // predict; the empty list (leaves) and the row output are plausible
    // entries, keeping observational classes verification-grade.
    let mut probes: Vec<Env> = Vec::new();
    'rows: for (row, cv) in rows.iter().zip(&coll.values) {
        let t = cv.as_tree().expect("checked above");
        for node_value in t.values() {
            for rs_candidate in [Value::nil(), Value::list(vec![row.output.clone()])] {
                if probes.len() >= 24 {
                    break 'rows;
                }
                probes.push(row.env.bind(v, node_value.clone()).bind(rs, rs_candidate));
            }
        }
    }
    Outcome::Deduced(Deduction { fun_spec, probes })
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

    #[test]
    fn mapt_deducts_pointwise_node_examples() {
        let (rows, coll) = rows_on_var("t", &[("{1 {2} {3}}", "{2 {3} {4}}")]);
        let d = deduction(deduce_mapt(&rows, &coll, sym("x")));
        assert_eq!(d.fun_spec.len(), 3);
        for row in d.fun_spec.rows() {
            let x = row.env.lookup(sym("x")).unwrap().as_int().unwrap();
            assert_eq!(row.output, Value::Int(x + 1));
        }
    }

    #[test]
    fn mapt_refutes_on_shape_change() {
        let (rows, coll) = rows_on_var("t", &[("{1 {2}}", "{1}")]);
        assert!(matches!(
            deduce_mapt(&rows, &coll, sym("x")),
            Outcome::Refuted
        ));
        let (rows, coll) = rows_on_var("t", &[("{1 {2}}", "[1 2]")]);
        assert!(matches!(
            deduce_mapt(&rows, &coll, sym("x")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn foldt_base_check_and_leaf_rows() {
        let (rows, coll) = rows_on_var("t", &[("{}", "0"), ("{5}", "5")]);
        let init = vec![val("0"), val("0")];
        let d = deduction(deduce_foldt(&rows, &coll, &init, sym("v"), sym("rs")));
        assert_eq!(d.fun_spec.len(), 1);
        let leaf = &d.fun_spec.rows()[0];
        assert_eq!(leaf.env.lookup(sym("v")), Some(&Value::Int(5)));
        assert_eq!(leaf.env.lookup(sym("rs")), Some(&val("[]")));
        assert_eq!(leaf.output, Value::Int(5));

        // A wrong init is refuted by the {} row.
        let bad = vec![val("9"), val("9")];
        assert!(matches!(
            deduce_foldt(&rows, &coll, &bad, sym("v"), sym("rs")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn foldt_chains_through_subtree_examples() {
        // sumt with subtree-complete examples: {2}, {3}, {1 {2} {3}}.
        let (rows, coll) = rows_on_var("t", &[("{2}", "2"), ("{3}", "3"), ("{1 {2} {3}}", "6")]);
        let init = vec![val("0"); 3];
        let d = deduction(deduce_foldt(&rows, &coll, &init, sym("v"), sym("rs")));
        // Leaves give f(2,[])=2, f(3,[])=3; the root gives f(1,[2 3])=6.
        assert_eq!(d.fun_spec.len(), 3);
        let root = d
            .fun_spec
            .rows()
            .iter()
            .find(|r| r.env.lookup(sym("v")) == Some(&Value::Int(1)))
            .unwrap();
        assert_eq!(root.env.lookup(sym("rs")), Some(&val("[2 3]")));
        assert_eq!(root.output, Value::Int(6));
    }

    #[test]
    fn foldt_partial_subtree_coverage_deduces_nothing_for_the_node() {
        // Root's child {3} has no example row: no step row for the root.
        let (rows, coll) = rows_on_var("t", &[("{2}", "2"), ("{1 {2} {3}}", "6")]);
        let init = vec![val("0"); 2];
        let d = deduction(deduce_foldt(&rows, &coll, &init, sym("v"), sym("rs")));
        assert_eq!(d.fun_spec.len(), 1); // just the leaf {2}
    }

    #[test]
    fn foldt_refutes_non_tree_collection() {
        let (rows, mut coll) = rows_on_var("t", &[("{1}", "1")]);
        coll.values = vec![val("[1]")];
        assert!(matches!(
            deduce_foldt(&rows, &coll, &[val("0")], sym("v"), sym("rs")),
            Outcome::Refuted
        ));
    }

    #[test]
    fn foldt_leaf_rows_do_not_need_variable_collections() {
        let (rows, coll) = rows_on_expr(&[("{7}", "7")]);
        // rows_on_expr binds var "l"; tree value works the same.
        let d = deduction(deduce_foldt(&rows, &coll, &[val("0")], sym("v"), sym("rs")));
        assert_eq!(d.fun_spec.len(), 1);
    }

    #[test]
    fn mapt_conflicting_node_examples_refute() {
        let (rows, coll) = rows_on_var("t", &[("{1 {1}}", "{2 {3}}")]);
        assert!(matches!(
            deduce_mapt(&rows, &coll, sym("x")),
            Outcome::Refuted
        ));
    }
}
