//! Pure enumerative baseline (no hypotheses, no deduction).
//!
//! The comparison strawman for the paper's scalability figures: programs
//! are enumerated bottom-up in cost order and tested against the examples.
//! Combinator applications are built from a *structurally* enumerated pool
//! of lambda bodies — without deduction there are no example values for the
//! binders, so observational equivalence cannot prune inside lambdas, which
//! is exactly why this baseline collapses on fold-shaped problems while
//! λ² does not.
//!
//! Top-level (closed) terms *are* pruned by observational equivalence on
//! the example inputs, so the baseline is a fair, competently engineered
//! enumerator rather than a pure grammar walk.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lambda2_lang::ast::{Comb, Expr};
use lambda2_lang::env::Env;
use lambda2_lang::eval::eval;
use lambda2_lang::symbol::Symbol;
use lambda2_lang::ty::Type;
use lambda2_lang::value::Value;

use crate::enumerate::{canonical, join_types, op_result_type, unifiable, EnumLimits, TermStore};
use crate::govern::{Attempt, Budget, Rung, SearchReport, DEFAULT_MAX_OVERSHOOT};
use crate::problem::Problem;
use crate::search::{SearchOptions, SynthError, Synthesis};
use crate::spec::Spec;
use crate::stats::Stats;
use crate::verify::Program;

/// Tunables for the baseline enumerator.
#[derive(Clone, Debug)]
pub struct BaselineOptions {
    /// Global cost ceiling for candidate programs.
    pub max_cost: u32,
    /// Wall-clock budget.
    pub timeout: Option<Duration>,
    /// Maximum cost of a lambda *body* drawn from the structural pool.
    pub max_lambda_body_cost: u32,
    /// Cap on each structural lambda-body pool.
    pub max_pool_terms: usize,
    /// Evaluation fuel per candidate test.
    pub eval_fuel: u64,
}

impl Default for BaselineOptions {
    fn default() -> BaselineOptions {
        BaselineOptions {
            max_cost: 24,
            timeout: Some(Duration::from_secs(20)),
            max_lambda_body_cost: 7,
            max_pool_terms: 3_000,
            eval_fuel: 50_000,
        }
    }
}

impl BaselineOptions {
    /// The baseline run that stands in for a λ² search with `options`:
    /// the same deadline, cost ceiling and evaluation fuel, and the
    /// default lambda-body pool.
    pub(crate) fn for_search(options: &SearchOptions) -> BaselineOptions {
        BaselineOptions {
            max_cost: options.max_cost,
            timeout: options.timeout,
            eval_fuel: options.eval_fuel,
            ..BaselineOptions::default()
        }
    }
}

struct Entry {
    expr: Arc<Expr>,
    ty: Type,
    sig: Vec<Option<Value>>, // None = evaluation error on that row
}

/// Runs the baseline enumerator on `problem`.
///
/// # Errors
///
/// See [`SynthError`]; inconsistent examples are reported before any
/// enumeration happens.
pub fn synthesize_baseline(
    problem: &Problem,
    options: &BaselineOptions,
) -> Result<Synthesis, SynthError> {
    let budget = Budget::new(options.timeout, DEFAULT_MAX_OVERSHOOT);
    baseline_report(problem, options, &budget).outcome
}

/// Runs the baseline enumerator under an explicit resource [`Budget`] as
/// a one-attempt [`SearchReport`] — the retry ladder's last rung and the
/// batch pool's baseline engine both report through here. The budget (not
/// `options.timeout`) decides when to stop, is ticked inside the
/// candidate loops and pool construction, and supports cooperative
/// cancellation. The report keeps the run's counters whether or not it
/// found a program.
pub(crate) fn baseline_report(
    problem: &Problem,
    options: &BaselineOptions,
    budget: &Budget,
) -> SearchReport {
    let start = Instant::now();
    let mut stats = Stats::default();
    let outcome =
        enumerate(problem, options, budget, &mut stats).map(|(program, cost)| Synthesis {
            program,
            cost,
            stats: stats.clone(),
            elapsed: start.elapsed(),
        });
    let elapsed = start.elapsed();
    SearchReport {
        stats,
        attempts: vec![Attempt {
            rung: Rung::Baseline,
            error: outcome.as_ref().err().cloned(),
            elapsed,
        }],
        outcome,
        frontier: Vec::new(),
        elapsed,
        budget: budget.snapshot(),
    }
}

/// The baseline search proper: the least-cost program and its cost,
/// counting its work into `stats` as it goes.
fn enumerate(
    problem: &Problem,
    options: &BaselineOptions,
    budget: &Budget,
    stats: &mut Stats,
) -> Result<(Program, u32), SynthError> {
    let library = problem.library();
    let costs = library.costs().clone();

    // Example environments and expected outputs.
    let envs: Vec<Env> = problem
        .examples()
        .iter()
        .map(|ex| {
            let mut env = Env::empty();
            for ((sym, _), v) in problem.params().iter().zip(&ex.inputs) {
                env = env.bind(*sym, v.clone());
            }
            env
        })
        .collect();
    let outputs: Vec<&Value> = problem.examples().iter().map(|ex| &ex.output).collect();
    {
        // Consistency check, mirroring the main engine.
        let mut seen: HashMap<Vec<(Symbol, Value)>, &Value> = HashMap::new();
        for (env, out) in envs.iter().zip(&outputs) {
            if let Some(prev) = seen.insert(env.fingerprint(), out) {
                if prev != *out {
                    return Err(SynthError::InconsistentExamples);
                }
            }
        }
    }

    // Ground type universe: subterm types of the signature plus int/bool.
    let mut universe: Vec<Type> = vec![Type::Int, Type::Bool];
    let add_subterms = |ty: &Type, universe: &mut Vec<Type>| {
        let mut stack = vec![ty.clone()];
        while let Some(t) = stack.pop() {
            match &t {
                Type::List(e) | Type::Tree(e) => stack.push((**e).clone()),
                _ => {}
            }
            if !universe.contains(&t) {
                universe.push(t);
            }
        }
    };
    for (_, t) in problem.params() {
        add_subterms(t, &mut universe);
    }
    add_subterms(problem.return_type(), &mut universe);

    // Structural lambda-body pools, one per (combinator, elem, result) type
    // choice. Bodies are first-order (no nested combinators).
    let mut pools: HashMap<(Comb, String, String), TermStore> = HashMap::new();
    let binder_names = |comb: Comb| -> Vec<Symbol> {
        match comb {
            Comb::Map | Comb::Filter | Comb::Mapt => vec![Symbol::intern("bx")],
            Comb::Foldl => vec![Symbol::intern("ba"), Symbol::intern("bx")],
            Comb::Foldr => vec![Symbol::intern("bx"), Symbol::intern("ba")],
            Comb::Recl => vec![
                Symbol::intern("bx"),
                Symbol::intern("bxs"),
                Symbol::intern("br"),
            ],
            Comb::Foldt => vec![Symbol::intern("bv"), Symbol::intern("brs")],
        }
    };
    let binder_types = |comb: Comb, tau: &Type, beta: &Type| -> (Vec<Type>, Type) {
        match comb {
            Comb::Map | Comb::Mapt => (vec![tau.clone()], beta.clone()),
            Comb::Filter => (vec![tau.clone()], Type::Bool),
            Comb::Foldl => (vec![beta.clone(), tau.clone()], beta.clone()),
            Comb::Foldr => (vec![tau.clone(), beta.clone()], beta.clone()),
            Comb::Recl => (
                vec![tau.clone(), Type::list(tau.clone()), beta.clone()],
                beta.clone(),
            ),
            Comb::Foldt => (vec![tau.clone(), Type::list(beta.clone())], beta.clone()),
        }
    };

    // Main store: levels of closed terms with top-level OE.
    let mut levels: Vec<Vec<usize>> = vec![Vec::new()];
    let mut terms: Vec<Entry> = Vec::new();
    let mut seen: HashSet<(String, Vec<Option<Value>>)> = HashSet::new();

    let test_and_insert = |e: Arc<Expr>,
                           ty: Type,
                           sig: Vec<Option<Value>>,
                           level: &mut Vec<usize>,
                           terms: &mut Vec<Entry>,
                           seen: &mut HashSet<(String, Vec<Option<Value>>)>,
                           stats: &mut Stats|
     -> Option<Program> {
        if sig.iter().all(Option::is_none) {
            return None;
        }
        let ty = canonical(&ty);
        if !seen.insert((ty.to_string(), sig.clone())) {
            return None;
        }
        stats.verified += 1;
        if sig
            .iter()
            .zip(&outputs)
            .all(|(s, o)| matches!(s, Some(v) if v == *o))
        {
            return Some(Program::new(problem.params().to_vec(), (*e).clone()));
        }
        stats.verify_failures += 1;
        terms.push(Entry { expr: e, ty, sig });
        level.push(terms.len() - 1);
        None
    };

    for k in 1..=options.max_cost {
        if let Err(e) = budget.check_now() {
            return Err(e.into());
        }
        let mut level: Vec<usize> = Vec::new();

        // Leaves.
        if k == costs.lit {
            for c in library.constants() {
                let mut n = 0u32;
                let ty = c.type_of(&mut || {
                    n += 1;
                    Type::Var(n - 1)
                });
                let sig = envs.iter().map(|_| Some(c.clone())).collect();
                if let Some(p) = test_and_insert(
                    Arc::new(Expr::Lit(c.clone())),
                    ty,
                    sig,
                    &mut level,
                    &mut terms,
                    &mut seen,
                    stats,
                ) {
                    return Ok((p, k));
                }
            }
        }
        if k == costs.var {
            for (sym, ty) in problem.params() {
                let sig = envs.iter().map(|env| env.lookup(*sym).cloned()).collect();
                if let Some(p) = test_and_insert(
                    Arc::new(Expr::Var(*sym)),
                    ty.clone(),
                    sig,
                    &mut level,
                    &mut terms,
                    &mut seen,
                    stats,
                ) {
                    return Ok((p, k));
                }
            }
        }

        // First-order operator applications.
        for &op in library.ops() {
            let node = costs.op_cost(op);
            if k <= node {
                continue;
            }
            let arg_budget = k - node;
            let arity = op.arity();
            let combos: Vec<Vec<usize>> = match arity {
                1 => levels
                    .get(arg_budget as usize)
                    .into_iter()
                    .flatten()
                    .map(|&i| vec![i])
                    .collect(),
                2 => {
                    let mut v = Vec::new();
                    for k1 in 1..arg_budget {
                        let k2 = arg_budget - k1;
                        for &i in levels.get(k1 as usize).into_iter().flatten() {
                            for &j in levels.get(k2 as usize).into_iter().flatten() {
                                v.push(vec![i, j]);
                            }
                        }
                    }
                    v
                }
                _ => unreachable!(),
            };
            for combo in combos {
                if let Err(e) = budget.tick() {
                    return Err(e.into());
                }
                let atys: Vec<Type> = combo.iter().map(|&i| terms[i].ty.clone()).collect();
                let Some(ret) = op_result_type(op, &atys) else {
                    continue;
                };
                let sig: Vec<Option<Value>> = (0..envs.len())
                    .map(|r| {
                        let args: Option<Vec<Value>> =
                            combo.iter().map(|&i| terms[i].sig[r].clone()).collect();
                        args.and_then(|a| op.apply(&a).ok())
                    })
                    .collect();
                let expr = Arc::new(Expr::Op(
                    op,
                    combo
                        .iter()
                        .map(|&i| (*terms[i].expr).clone())
                        .collect::<Vec<_>>()
                        .into(),
                ));
                if let Some(p) =
                    test_and_insert(expr, ret, sig, &mut level, &mut terms, &mut seen, stats)
                {
                    return Ok((p, k));
                }
            }
        }

        // Combinator applications with structurally enumerated lambdas.
        for &comb in library.combs() {
            let node = costs.comb_cost(comb) + costs.lambda;
            if k <= node {
                continue;
            }
            let split_cap = k - node; // body + [init] + collection
            for tau in &universe {
                for beta in &universe {
                    if matches!(comb, Comb::Filter) && beta != &Type::Bool {
                        continue;
                    }
                    let coll_ty = if comb.is_tree() {
                        Type::tree(tau.clone())
                    } else {
                        Type::list(tau.clone())
                    };
                    let (btys, body_ty) = binder_types(comb, tau, beta);
                    let bnames = binder_names(comb);
                    let key = (comb, tau.to_string(), beta.to_string());
                    let pool = pools.entry(key).or_insert_with(|| {
                        let mut scope = problem.params().to_vec();
                        for (n, t) in bnames.iter().zip(&btys) {
                            scope.push((*n, t.clone()));
                        }
                        TermStore::new(
                            scope,
                            &Spec::empty(),
                            EnumLimits {
                                max_level_terms: options.max_pool_terms,
                                max_terms: options.max_pool_terms * 4,
                                ..EnumLimits::default()
                            },
                        )
                    });
                    if let Err(e) = pool.ensure_within(
                        options.max_lambda_body_cost.min(split_cap),
                        library,
                        budget,
                    ) {
                        return Err(e.into());
                    }

                    let has_init = comb.init_index().is_some();
                    // Split budget: body_cost + init_cost? + coll_cost.
                    for body_cost in 1..=split_cap.saturating_sub(if has_init { 2 } else { 1 }) {
                        if body_cost > options.max_lambda_body_cost {
                            break;
                        }
                        let bodies: Vec<Arc<Expr>> = pool
                            .closings(body_cost, &body_ty, &Spec::empty())
                            .map(|t| pool.expr_of(t))
                            .collect();
                        if bodies.is_empty() {
                            continue;
                        }
                        let rest = split_cap - body_cost;
                        let splits: Vec<(Option<usize>, usize)> = if has_init {
                            let mut v = Vec::new();
                            for init_cost in 1..rest {
                                let coll_cost = rest - init_cost;
                                for &ii in levels.get(init_cost as usize).into_iter().flatten() {
                                    if !unifiable(&terms[ii].ty, beta) {
                                        continue;
                                    }
                                    for &ci in levels.get(coll_cost as usize).into_iter().flatten()
                                    {
                                        if unifiable(&terms[ci].ty, &coll_ty) {
                                            v.push((Some(ii), ci));
                                        }
                                    }
                                }
                            }
                            v
                        } else {
                            levels
                                .get(rest as usize)
                                .into_iter()
                                .flatten()
                                .filter(|&&ci| unifiable(&terms[ci].ty, &coll_ty))
                                .map(|&ci| (None, ci))
                                .collect()
                        };
                        for body in &bodies {
                            let lam =
                                Expr::Lambda(bnames.clone().into(), Arc::new((**body).clone()));
                            for (init, ci) in &splits {
                                if let Err(e) = budget.tick() {
                                    return Err(e.into());
                                }
                                let mut args = vec![lam.clone()];
                                if let Some(ii) = init {
                                    args.push((*terms[*ii].expr).clone());
                                }
                                args.push((*terms[*ci].expr).clone());
                                let expr = Arc::new(Expr::comb(comb, args));
                                // Full evaluation per row (lambdas preclude
                                // compositional signatures).
                                let sig: Vec<Option<Value>> = envs
                                    .iter()
                                    .map(|env| {
                                        let mut fuel = options.eval_fuel;
                                        eval(&expr, env, &mut fuel).ok()
                                    })
                                    .collect();
                                stats.popped += 1;
                                let out_ty = match comb {
                                    Comb::Map => Type::list(beta.clone()),
                                    Comb::Filter => coll_ty.clone(),
                                    Comb::Mapt => Type::tree(beta.clone()),
                                    _ => beta.clone(),
                                };
                                if let Some(p) = test_and_insert(
                                    expr, out_ty, sig, &mut level, &mut terms, &mut seen, stats,
                                ) {
                                    return Ok((p, k));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Conditionals: a Bool-typed condition and two branches whose
        // types join; each row takes the then- or the else-branch value.
        if k > costs.if_ {
            let arg_budget = k - costs.if_;
            for kc in 1..arg_budget.saturating_sub(1) {
                let conds: Vec<usize> = levels[kc as usize]
                    .iter()
                    .copied()
                    .filter(|&ci| unifiable(&terms[ci].ty, &Type::Bool))
                    .collect();
                for kt in 1..arg_budget - kc {
                    let ke = arg_budget - kc - kt;
                    for &ti in &levels[kt as usize] {
                        for &ei in &levels[ke as usize] {
                            if let Err(e) = budget.tick() {
                                return Err(e.into());
                            }
                            let Some(ty) = join_types(&terms[ti].ty, &terms[ei].ty) else {
                                continue;
                            };
                            for &ci in &conds {
                                if let Err(e) = budget.tick() {
                                    return Err(e.into());
                                }
                                let (c, t, e) = (&terms[ci], &terms[ti], &terms[ei]);
                                let sig = (0..envs.len())
                                    .map(|r| match c.sig[r] {
                                        Some(Value::Bool(true)) => t.sig[r].clone(),
                                        Some(Value::Bool(false)) => e.sig[r].clone(),
                                        _ => None,
                                    })
                                    .collect();
                                let expr = Arc::new(Expr::If(
                                    Arc::clone(&c.expr),
                                    Arc::clone(&t.expr),
                                    Arc::clone(&e.expr),
                                ));
                                if let Some(p) = test_and_insert(
                                    expr,
                                    ty.clone(),
                                    sig,
                                    &mut level,
                                    &mut terms,
                                    &mut seen,
                                    stats,
                                ) {
                                    return Ok((p, k));
                                }
                            }
                        }
                    }
                }
            }
        }

        levels.push(level);
    }

    Err(SynthError::Exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(params: &[(&str, &str)], ret: &str, examples: &[(&[&str], &str)]) -> Problem {
        let mut b = Problem::builder("t");
        for (n, t) in params {
            b = b.param(n, t);
        }
        b = b.returns(ret);
        for (ins, out) in examples {
            b = b.example(ins, out);
        }
        b.build().unwrap()
    }

    #[test]
    fn baseline_solves_trivial_first_order_problems() {
        let p = problem(
            &[("l", "[int]")],
            "int",
            &[(&["[3 1]"], "3"), (&["[5]"], "5"), (&["[2 9]"], "2")],
        );
        let s = synthesize_baseline(&p, &BaselineOptions::default()).unwrap();
        assert_eq!(s.program.body().to_string(), "(car l)");
    }

    #[test]
    fn baseline_solves_simple_map_problems() {
        let p = problem(
            &[("l", "[int]")],
            "[int]",
            &[(&["[]"], "[]"), (&["[1 2]"], "[2 3]"), (&["[5]"], "[6]")],
        );
        let s = synthesize_baseline(&p, &BaselineOptions::default()).unwrap();
        assert!(s.program.satisfies_problem(&p, 10_000));
        assert!(s.program.body().to_string().contains("map"));
    }

    #[test]
    fn baseline_times_out_or_exhausts_on_hard_problems() {
        // reverse needs a fold with a two-variable body; give the baseline
        // a tiny budget so the test stays fast.
        let p = problem(
            &[("l", "[int]")],
            "[int]",
            &[
                (&["[]"], "[]"),
                (&["[5 2]"], "[2 5]"),
                (&["[5 2 9]"], "[9 2 5]"),
            ],
        );
        let opts = BaselineOptions {
            timeout: Some(Duration::from_millis(300)),
            ..BaselineOptions::default()
        };
        match synthesize_baseline(&p, &opts) {
            Ok(s) => assert!(s.program.satisfies_problem(&p, 10_000)),
            Err(e) => assert!(matches!(e, SynthError::Timeout | SynthError::Exhausted)),
        }
    }

    #[test]
    fn failed_baseline_reports_keep_their_counters() {
        // No program of cost <= 4 maps 1->7, 2->3, 3->100.
        let p = problem(
            &[("x", "int")],
            "int",
            &[(&["1"], "7"), (&["2"], "3"), (&["3"], "100")],
        );
        let opts = BaselineOptions {
            max_cost: 4,
            ..BaselineOptions::default()
        };
        let report = baseline_report(&p, &opts, &Budget::new(None, DEFAULT_MAX_OVERSHOOT));
        assert_eq!(report.outcome.unwrap_err(), SynthError::Exhausted);
        assert!(report.stats.verified > 0);
        assert_eq!(report.attempts[0].error, Some(SynthError::Exhausted));
    }

    #[test]
    fn baseline_rejects_inconsistent_examples() {
        let p = problem(&[("x", "int")], "int", &[(&["1"], "1"), (&["1"], "2")]);
        assert_eq!(
            synthesize_baseline(&p, &BaselineOptions::default()).unwrap_err(),
            SynthError::InconsistentExamples
        );
    }
}
