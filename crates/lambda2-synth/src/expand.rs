//! Inductive generalization: expanding a hole with a combinator hypothesis.
//!
//! Expanding hole `◻ : ρ` with combinator `C`, collection candidate `c`
//! and (for folds) a concrete initial-value candidate `e` produces the
//! child hypothesis `C (λ x̄. ◻f) [e] c`, where the function-body hole
//! carries the spec *deduced* from `◻`'s rows by [`crate::deduce`].
//! Expansion fails fast when the types do not fit or when deduction
//! refutes the combination.
//!
//! Crucially, an expansion depends only on the *hole's context* (type,
//! scope, spec) — never on the surrounding hypothesis. [`plan_expansion`]
//! therefore produces a reusable [`Template`]; the search caches template
//! lists per hole context and stamps out children with
//! [`Template::instantiate`], which costs two fresh hole ids and a clone.

use std::sync::Arc;

use lambda2_lang::ast::{Comb, Expr, HoleId};
use lambda2_lang::symbol::Symbol;
use lambda2_lang::ty::{Subst, Type};
use lambda2_lang::value::Value;

use crate::cost::CostModel;
use crate::deduce::{deduce_within, CollectionArg, Outcome};
use crate::govern::{Budget, BudgetExceeded};
use crate::hypothesis::{HoleInfo, Hypothesis};

/// Why an expansion produced no child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpandFail {
    /// The combinator cannot produce the hole's type from the collection.
    IllTyped,
    /// Deduction proved no completion can satisfy the hole's rows.
    Refuted,
    /// Deduction's pruning check ([`Outcome::Pruned`], on under
    /// `SearchOptions::static_prune`) proved no completion can satisfy the
    /// hole's rows — a hypothesis necessary-row inference alone would
    /// have kept, so each one is search work removed.
    Pruned,
    /// The resource budget tripped mid-planning; the caller should abort
    /// its planning sweep, not count a refutation.
    Budget(BudgetExceeded),
}

/// A collection candidate: a concrete (hole-free, combinator-free)
/// expression together with its per-row values and cost.
#[derive(Clone, Debug)]
pub struct Candidate<'a> {
    /// The collection expression.
    pub expr: &'a Arc<Expr>,
    /// Its (canonical) type.
    pub ty: &'a Type,
    /// Its value in each example row of the hole being expanded.
    pub values: Vec<Value>,
    /// Its cost under the active cost model.
    pub cost: u32,
}

/// A planned combinator expansion for one hole context, reusable across
/// every hypothesis sharing that context.
#[derive(Clone, Debug)]
pub struct Template {
    /// The combinator.
    pub comb: Comb,
    /// The collection expression.
    pub coll: Arc<Expr>,
    /// The concrete initial-value expression, for folds.
    pub init: Option<Arc<Expr>>,
    /// Lambda binder symbols, in combinator argument order.
    pub binders: Vec<Symbol>,
    /// Metadata for the function-body hole (deduced spec included).
    pub body_info: Arc<HoleInfo>,
    /// Cost delta: child cost = parent cost − hole_min + delta.
    pub delta_cost: u32,
}

impl Template {
    /// Stamps the template onto `hyp`'s hole `hole`, minting a fresh hole
    /// id for the function body from `next_hole`.
    pub fn instantiate(
        &self,
        hyp: &Hypothesis,
        hole: HoleId,
        costs: &CostModel,
        next_hole: &mut HoleId,
    ) -> Hypothesis {
        let body_hole = *next_hole;
        *next_hole += 1;
        let lambda = Expr::lambda(self.binders.clone(), Expr::Hole(body_hole));
        let new_holes = vec![(body_hole, Arc::clone(&self.body_info))];
        let args: Vec<Expr> = match &self.init {
            Some(init) => vec![lambda, (**init).clone(), (*self.coll).clone()],
            None => vec![lambda, (*self.coll).clone()],
        };
        let skeleton = Expr::comb(self.comb, args);
        let cost = hyp.cost - costs.hole_min() + self.delta_cost;
        hyp.fill(hole, &skeleton, new_holes, cost)
    }
}

/// Plans the expansion of a hole (described by `info`) with `comb` applied
/// to `cand`; for folds, `init_cand` supplies the concrete initial-value
/// candidate (its type must fit the hole's type). The result is
/// independent of any particular hypothesis.
///
/// # Errors
///
/// [`ExpandFail::IllTyped`] when the hole/collection/init types don't fit
/// the combinator; [`ExpandFail::Refuted`] when deduction rules out the
/// child; [`ExpandFail::Pruned`] when its pruning check does.
///
/// # Panics
///
/// Debug-asserts that `init_cand` is present exactly for fold combinators.
pub fn plan_expansion(
    info: &HoleInfo,
    comb: Comb,
    cand: &Candidate<'_>,
    init_cand: Option<&Candidate<'_>>,
    costs: &CostModel,
    deduction_enabled: bool,
) -> Result<Template, ExpandFail> {
    plan_expansion_within(
        info,
        comb,
        cand,
        init_cand,
        costs,
        deduction_enabled,
        true,
        &Budget::unlimited(),
    )
}

/// [`plan_expansion`] under a resource [`Budget`] and with deduction's
/// pruning check switched by `prune`: deduction runs through
/// [`deduce_within`], so a deadline or cancellation surfaces as
/// [`ExpandFail::Budget`] mid-planning instead of waiting for the next
/// queue pop.
///
/// # Errors
///
/// See [`plan_expansion`]; additionally [`ExpandFail::Budget`] when the
/// budget trips.
///
/// # Panics
///
/// Debug-asserts that `init_cand` is present exactly for fold combinators.
#[allow(clippy::too_many_arguments)] // one budget handle over the planning signature
pub fn plan_expansion_within(
    info: &HoleInfo,
    comb: Comb,
    cand: &Candidate<'_>,
    init_cand: Option<&Candidate<'_>>,
    costs: &CostModel,
    deduction_enabled: bool,
    prune: bool,
    budget: &Budget,
) -> Result<Template, ExpandFail> {
    debug_assert_eq!(init_cand.is_some(), comb.init_index().is_some());
    // --- Types ------------------------------------------------------------
    let mut s = Subst::new();
    s.reserve(&info.ty);
    for (_, t) in &info.scope {
        s.reserve(t);
    }
    let hole_ty = info.ty.clone();
    let coll_ty = s.instantiate(cand.ty); // disjoint variable namespace
    let init_ty = init_cand.map(|c| s.instantiate(c.ty));

    // Unifies, mapping failure to IllTyped.
    macro_rules! unify {
        ($a:expr, $b:expr) => {
            s.unify($a, $b).map_err(|_| ExpandFail::IllTyped)?
        };
    }

    // Binder types and the function-body hole's type, per combinator.
    let (binder_tys, body_ty): (Vec<Type>, Type) = match comb {
        Comb::Map => {
            let sigma = s.fresh();
            let tau = s.fresh();
            unify!(&hole_ty, &Type::list(sigma.clone()));
            unify!(&coll_ty, &Type::list(tau.clone()));
            (vec![tau], sigma)
        }
        Comb::Filter => {
            let tau = s.fresh();
            unify!(&coll_ty, &Type::list(tau.clone()));
            unify!(&hole_ty, &coll_ty);
            (vec![tau], Type::Bool)
        }
        Comb::Foldl => {
            let tau = s.fresh();
            unify!(&coll_ty, &Type::list(tau.clone()));
            (vec![hole_ty.clone(), tau], hole_ty.clone())
        }
        Comb::Foldr => {
            let tau = s.fresh();
            unify!(&coll_ty, &Type::list(tau.clone()));
            (vec![tau, hole_ty.clone()], hole_ty.clone())
        }
        Comb::Recl => {
            let tau = s.fresh();
            unify!(&coll_ty, &Type::list(tau.clone()));
            (
                vec![tau.clone(), Type::list(tau), hole_ty.clone()],
                hole_ty.clone(),
            )
        }
        Comb::Mapt => {
            let sigma = s.fresh();
            let tau = s.fresh();
            unify!(&hole_ty, &Type::tree(sigma.clone()));
            unify!(&coll_ty, &Type::tree(tau.clone()));
            (vec![tau], sigma)
        }
        Comb::Foldt => {
            let tau = s.fresh();
            unify!(&coll_ty, &Type::tree(tau.clone()));
            (vec![tau, Type::list(hole_ty.clone())], hole_ty.clone())
        }
    };

    // The init candidate must produce the fold's result type.
    if let Some(init_ty) = &init_ty {
        unify!(&hole_ty, init_ty);
    }

    // --- Binders ----------------------------------------------------------
    let taken: Vec<Symbol> = info.scope.iter().map(|(sym, _)| *sym).collect();
    let binders = binder_symbols(comb, &taken);

    // --- Deduction ----------------------------------------------------------
    let coll_arg = CollectionArg {
        values: cand.values.clone(),
        var: match &**cand.expr {
            Expr::Var(v) => Some(*v),
            _ => None,
        },
    };
    let deduction = match deduce_within(
        comb,
        info.spec.rows(),
        &coll_arg,
        init_cand.map(|c| c.values.as_slice()),
        &binders,
        deduction_enabled,
        prune,
        budget,
    )
    .map_err(ExpandFail::Budget)?
    {
        Outcome::Refuted => return Err(ExpandFail::Refuted),
        Outcome::Pruned => return Err(ExpandFail::Pruned),
        Outcome::Deduced(d) => d,
    };

    // --- Template construction --------------------------------------------
    let mut body_scope = info.scope.clone();
    for (b, t) in binders.iter().zip(&binder_tys) {
        body_scope.push((*b, s.apply(t)));
    }
    let body_info = Arc::new(HoleInfo::with_probes(
        s.apply(&body_ty),
        body_scope,
        deduction.fun_spec,
        deduction.probes,
    ));

    let delta_cost = costs.comb_cost(comb)
        + costs.lambda
        + cand.cost
        + init_cand.map_or(0, |c| c.cost)
        + costs.hole_min();
    Ok(Template {
        comb,
        coll: cand.expr.clone(),
        init: init_cand.map(|c| c.expr.clone()),
        binders,
        body_info,
        delta_cost,
    })
}

/// Plans and immediately instantiates an expansion — convenience used by
/// tests and small callers; the search uses the two phases separately to
/// cache templates.
///
/// # Errors
///
/// See [`plan_expansion`].
#[allow(clippy::too_many_arguments)] // thin test/demo convenience over plan+instantiate
pub fn expand_combinator(
    hyp: &Hypothesis,
    hole: HoleId,
    info: &HoleInfo,
    comb: Comb,
    cand: &Candidate<'_>,
    init_cand: Option<&Candidate<'_>>,
    costs: &CostModel,
    deduction_enabled: bool,
    next_hole: &mut HoleId,
) -> Result<Hypothesis, ExpandFail> {
    let template = plan_expansion(info, comb, cand, init_cand, costs, deduction_enabled)?;
    Ok(template.instantiate(hyp, hole, costs, next_hole))
}

/// A planned *constructor* expansion: `(cons ◻a ◻b)`, `(pair ◻a ◻b)` or
/// `(tree ◻v ◻cs)`. Constructors are invertible, so the child holes get
/// exact deduced specs (the components of every row's output), and — like
/// any holes — remain expandable with combinators, which is what makes
/// programs such as `(cons (foldl …) l)` reachable.
#[derive(Clone, Debug)]
pub struct ConsTemplate {
    /// The constructor operator (`cons`, `pair` or `tree`).
    pub op: lambda2_lang::ast::Op,
    /// Metadata for the two component holes, left to right.
    pub parts: [Arc<HoleInfo>; 2],
    /// Cost delta: child cost = parent cost − hole_min + delta.
    pub delta_cost: u32,
}

impl ConsTemplate {
    /// Stamps the template onto `hyp`'s hole `hole`, minting two fresh
    /// hole ids from `next_hole`.
    pub fn instantiate(
        &self,
        hyp: &Hypothesis,
        hole: HoleId,
        costs: &CostModel,
        next_hole: &mut HoleId,
    ) -> Hypothesis {
        let a = *next_hole;
        let b = *next_hole + 1;
        *next_hole += 2;
        let skeleton = Expr::op(self.op, vec![Expr::Hole(a), Expr::Hole(b)]);
        let new_holes = vec![
            (a, Arc::clone(&self.parts[0])),
            (b, Arc::clone(&self.parts[1])),
        ];
        let cost = hyp.cost - costs.hole_min() + self.delta_cost;
        hyp.fill(hole, &skeleton, new_holes, cost)
    }
}

/// Plans constructor expansions for a hole: at most one per constructor,
/// and only when *every* row's output has the constructor's shape (an
/// empty list/tree in any row rules `cons`/`tree` out — the components
/// would not exist).
pub fn plan_constructors(info: &HoleInfo, costs: &CostModel) -> Vec<ConsTemplate> {
    use lambda2_lang::ast::Op;
    use lambda2_lang::value::Value;

    let mut out = Vec::new();
    if info.spec.is_empty() {
        return out;
    }
    let delta = costs.op_cost(Op::Cons) + 2 * costs.hole_min();
    let rows = info.spec.rows();

    // (cons ◻head ◻tail) — outputs must all be non-empty lists.
    if let Type::List(elem) = &info.ty {
        let split: Option<(Vec<_>, Vec<_>)> = rows
            .iter()
            .map(|r| {
                r.output.as_list().and_then(|xs| {
                    xs.split_first().map(|(h, t)| {
                        (
                            crate::spec::ExampleRow::new(r.env.clone(), h.clone()),
                            crate::spec::ExampleRow::new(r.env.clone(), Value::list(t.to_vec())),
                        )
                    })
                })
            })
            .collect();
        if let Some((heads, tails)) = split {
            if let (Ok(hspec), Ok(tspec)) =
                (crate::spec::Spec::new(heads), crate::spec::Spec::new(tails))
            {
                out.push(ConsTemplate {
                    op: Op::Cons,
                    parts: [
                        Arc::new(HoleInfo::new((**elem).clone(), info.scope.clone(), hspec)),
                        Arc::new(HoleInfo::new(info.ty.clone(), info.scope.clone(), tspec)),
                    ],
                    delta_cost: delta,
                });
            }
        }
    }

    // (pair ◻fst ◻snd) — outputs are pairs by typing.
    if let Type::Pair(a_ty, b_ty) = &info.ty {
        let split: Option<(Vec<_>, Vec<_>)> = rows
            .iter()
            .map(|r| {
                r.output.as_pair().map(|(a, b)| {
                    (
                        crate::spec::ExampleRow::new(r.env.clone(), a.clone()),
                        crate::spec::ExampleRow::new(r.env.clone(), b.clone()),
                    )
                })
            })
            .collect();
        if let Some((firsts, seconds)) = split {
            if let (Ok(fspec), Ok(sspec)) = (
                crate::spec::Spec::new(firsts),
                crate::spec::Spec::new(seconds),
            ) {
                out.push(ConsTemplate {
                    op: Op::MkPair,
                    parts: [
                        Arc::new(HoleInfo::new((**a_ty).clone(), info.scope.clone(), fspec)),
                        Arc::new(HoleInfo::new((**b_ty).clone(), info.scope.clone(), sspec)),
                    ],
                    delta_cost: delta,
                });
            }
        }
    }

    // (tree ◻value ◻children) — outputs must all be non-empty trees.
    if let Type::Tree(elem) = &info.ty {
        let split: Option<(Vec<_>, Vec<_>)> = rows
            .iter()
            .map(|r| {
                r.output.as_tree().and_then(|t| {
                    t.root().map(|n| {
                        (
                            crate::spec::ExampleRow::new(r.env.clone(), n.value.clone()),
                            crate::spec::ExampleRow::new(
                                r.env.clone(),
                                Value::list(n.children.iter().cloned().map(Value::Tree).collect()),
                            ),
                        )
                    })
                })
            })
            .collect();
        if let Some((values, children)) = split {
            if let (Ok(vspec), Ok(cspec)) = (
                crate::spec::Spec::new(values),
                crate::spec::Spec::new(children),
            ) {
                out.push(ConsTemplate {
                    op: Op::TreeMake,
                    parts: [
                        Arc::new(HoleInfo::new((**elem).clone(), info.scope.clone(), vspec)),
                        Arc::new(HoleInfo::new(
                            Type::list(info.ty.clone()),
                            info.scope.clone(),
                            cspec,
                        )),
                    ],
                    delta_cost: delta,
                });
            }
        }
    }
    out
}

/// Conventional, collision-free binder names per combinator.
fn binder_symbols(comb: Comb, taken: &[Symbol]) -> Vec<Symbol> {
    let preferred: &[&str] = match comb {
        Comb::Map | Comb::Filter | Comb::Mapt => &["x"],
        Comb::Foldl => &["a", "x"],
        Comb::Foldr => &["x", "a"],
        Comb::Recl => &["x", "xs", "r"],
        Comb::Foldt => &["v", "rs"],
    };
    let mut used: Vec<Symbol> = taken.to_vec();
    let mut out = Vec::with_capacity(preferred.len());
    for name in preferred {
        let sym = Symbol::intern(name);
        let sym = if used.contains(&sym) {
            Symbol::fresh(name, &used)
        } else {
            sym
        };
        used.push(sym);
        out.push(sym);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExampleRow, Spec};
    use lambda2_lang::env::Env;
    use lambda2_lang::parser::parse_value;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// A root hypothesis for a `[int] -> τ` problem over variable `l`.
    fn root_with_examples(pairs: &[(&str, &str)], ret: Type) -> (Hypothesis, Vec<Value>) {
        let l = sym("l");
        let mut rows = Vec::new();
        let mut vals = Vec::new();
        for (i, o) in pairs {
            let iv = parse_value(i).unwrap();
            rows.push(ExampleRow::new(
                Env::empty().bind(l, iv.clone()),
                parse_value(o).unwrap(),
            ));
            vals.push(iv);
        }
        let info = HoleInfo::new(
            ret,
            vec![(l, Type::list(Type::Int))],
            Spec::new(rows).unwrap(),
        );
        (Hypothesis::root(info, &CostModel::default()), vals)
    }

    fn var_candidate<'a>(expr: &'a Arc<Expr>, ty: &'a Type, values: Vec<Value>) -> Candidate<'a> {
        Candidate {
            expr,
            ty,
            values,
            cost: 1,
        }
    }

    #[test]
    fn map_expansion_builds_skeleton_and_deduces() {
        let (h, vals) = root_with_examples(&[("[1 2]", "[2 3]")], Type::list(Type::Int));
        let (hole, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("l"));
        let ty = Type::list(Type::Int);
        let mut next = 1;
        let child = expand_combinator(
            &h,
            hole,
            &info,
            Comb::Map,
            &var_candidate(&expr, &ty, vals),
            None,
            &CostModel::default(),
            true,
            &mut next,
        )
        .unwrap();
        assert_eq!(child.expr.to_string(), "(map (lambda (x) ?1) l)");
        let (_, body) = child.first_hole().unwrap();
        assert_eq!(body.ty, Type::Int);
        assert_eq!(body.spec.len(), 2);
        assert_eq!(body.scope.len(), 2); // l and x
                                         // cost: root(1) - 1 + comb(4) + lambda(1) + coll(1) + hole(1) = 7
        assert_eq!(child.cost, 7);
    }

    #[test]
    fn templates_are_reusable_across_hypotheses() {
        let (h, vals) = root_with_examples(&[("[1 2]", "[2 3]")], Type::list(Type::Int));
        let (hole, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("l"));
        let ty = Type::list(Type::Int);
        let cand = var_candidate(&expr, &ty, vals);
        let t = plan_expansion(&info, Comb::Map, &cand, None, &CostModel::default(), true).unwrap();

        let mut next = 10;
        let c1 = t.instantiate(&h, hole, &CostModel::default(), &mut next);
        let c2 = t.instantiate(&h, hole, &CostModel::default(), &mut next);
        assert_eq!(c1.expr.to_string(), "(map (lambda (x) ?10) l)");
        assert_eq!(c2.expr.to_string(), "(map (lambda (x) ?11) l)");
        // Both children share the same HoleInfo allocation.
        let i1 = c1.first_hole().unwrap().1;
        let i2 = c2.first_hole().unwrap().1;
        assert!(Arc::ptr_eq(i1, i2));
    }

    #[test]
    fn map_expansion_refutes_on_length_mismatch() {
        let (h, vals) = root_with_examples(&[("[1 2]", "[2]")], Type::list(Type::Int));
        let (_, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("l"));
        let ty = Type::list(Type::Int);
        let err = plan_expansion(
            &info,
            Comb::Map,
            &var_candidate(&expr, &ty, vals),
            None,
            &CostModel::default(),
            true,
        )
        .unwrap_err();
        assert_eq!(err, ExpandFail::Refuted);
    }

    #[test]
    fn filter_expansion_prunes_on_cardinality() {
        let (h, vals) = root_with_examples(&[("[5 7 5]", "[5]")], Type::list(Type::Int));
        let (_, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("l"));
        let ty = Type::list(Type::Int);
        // With pruning on, deduction's cardinality check refutes — and
        // under `check-invariants` the brute-force oracle re-proves the
        // verdict at the `deduce_filter` site.
        let err = plan_expansion(
            &info,
            Comb::Filter,
            &var_candidate(&expr, &ty, vals.clone()),
            None,
            &CostModel::default(),
            true,
        )
        .unwrap_err();
        assert_eq!(err, ExpandFail::Pruned);
        // With pruning off, deduction keeps the hypothesis open and a
        // template is planned — exactly the work pruning removes.
        let t = plan_expansion_within(
            &info,
            Comb::Filter,
            &var_candidate(&expr, &ty, vals),
            None,
            &CostModel::default(),
            true,
            false,
            &Budget::unlimited(),
        );
        assert!(t.is_ok(), "{t:?}");
    }

    #[test]
    fn map_expansion_is_ill_typed_for_scalar_holes() {
        let (h, vals) = root_with_examples(&[("[1 2]", "3")], Type::Int);
        let (_, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("l"));
        let ty = Type::list(Type::Int);
        let err = plan_expansion(
            &info,
            Comb::Map,
            &var_candidate(&expr, &ty, vals),
            None,
            &CostModel::default(),
            true,
        )
        .unwrap_err();
        assert_eq!(err, ExpandFail::IllTyped);
    }

    #[test]
    fn foldl_expansion_takes_a_concrete_init() {
        let (h, vals) = root_with_examples(&[("[]", "0"), ("[1]", "1")], Type::Int);
        let (hole, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("l"));
        let ty = Type::list(Type::Int);
        let init_expr = Arc::new(Expr::int(0));
        let init_ty = Type::Int;
        let init = Candidate {
            expr: &init_expr,
            ty: &init_ty,
            values: vec![
                lambda2_lang::value::Value::Int(0),
                lambda2_lang::value::Value::Int(0),
            ],
            cost: 1,
        };
        let mut next = 1;
        let child = expand_combinator(
            &h,
            hole,
            &info,
            Comb::Foldl,
            &var_candidate(&expr, &ty, vals.clone()),
            Some(&init),
            &CostModel::default(),
            true,
            &mut next,
        )
        .unwrap();
        assert_eq!(child.expr.to_string(), "(foldl (lambda (a x) ?1) 0 l)");
        assert_eq!(child.holes().len(), 1);
        let (_, body) = &child.holes()[0];
        assert_eq!(body.ty, Type::Int);
        // Singleton row: f(0, 1) = 1.
        assert_eq!(body.spec.len(), 1);
        assert_eq!(next, 2);

        // A wrong init value is refuted by the [] example.
        let bad_expr = Arc::new(Expr::int(7));
        let bad = Candidate {
            expr: &bad_expr,
            ty: &init_ty,
            values: vec![
                lambda2_lang::value::Value::Int(7),
                lambda2_lang::value::Value::Int(7),
            ],
            cost: 1,
        };
        let err = expand_combinator(
            &h,
            hole,
            &info,
            Comb::Foldl,
            &var_candidate(&expr, &ty, vals),
            Some(&bad),
            &CostModel::default(),
            true,
            &mut next,
        )
        .unwrap_err();
        assert_eq!(err, ExpandFail::Refuted);
    }

    #[test]
    fn binders_avoid_shadowing() {
        let taken = [sym("x"), sym("a")];
        let bs = binder_symbols(Comb::Foldr, &taken);
        assert_eq!(bs.len(), 2);
        assert!(!taken.contains(&bs[0]));
        assert!(!taken.contains(&bs[1]));
        assert_ne!(bs[0], bs[1]);
    }

    #[test]
    fn mapt_expansion_types_tree_holes() {
        let t = sym("t");
        let iv = parse_value("{1 {2}}").unwrap();
        let rows = vec![ExampleRow::new(
            Env::empty().bind(t, iv.clone()),
            parse_value("{2 {3}}").unwrap(),
        )];
        let info = HoleInfo::new(
            Type::tree(Type::Int),
            vec![(t, Type::tree(Type::Int))],
            Spec::new(rows).unwrap(),
        );
        let h = Hypothesis::root(info, &CostModel::default());
        let (hole, info) = h.first_hole().unwrap();
        let info = info.clone();
        let expr = Arc::new(Expr::var("t"));
        let ty = Type::tree(Type::Int);
        let mut next = 1;
        let child = expand_combinator(
            &h,
            hole,
            &info,
            Comb::Mapt,
            &var_candidate(&expr, &ty, vec![iv]),
            None,
            &CostModel::default(),
            true,
            &mut next,
        )
        .unwrap();
        assert_eq!(child.expr.to_string(), "(mapt (lambda (x) ?1) t)");
        let (_, body) = child.first_hole().unwrap();
        assert_eq!(body.ty, Type::Int);
        assert_eq!(body.spec.len(), 2);
    }
}
