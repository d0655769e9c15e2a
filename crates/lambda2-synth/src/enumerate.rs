//! Bottom-up term enumeration with observational-equivalence pruning.
//!
//! Holes that are not expanded with a combinator are *closed* with
//! combinator-free expressions (variables, constants, operators, `if`).
//! Terms are generated bottom-up in strict cost order and evaluated
//! compositionally on the hole's example environments; two terms with
//! identical output vectors ("signatures") are interchangeable for this
//! hole, so only the cheapest representative is kept. This is the
//! enumerative-search leg of the paper's algorithm.
//!
//! The same store also supplies *collection candidates* (list- or
//! tree-typed terms such as `l`, `(cdr l)`, `(children t)`) for combinator
//! expansion, so their per-row values are computed once and reused by every
//! deduction rule.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use lambda2_lang::ast::{Expr, Op};
use lambda2_lang::env::Env;
use lambda2_lang::error::EvalError;
use lambda2_lang::symbol::Symbol;
use lambda2_lang::term::{Node, TermArena, TermId};
use lambda2_lang::ty::{Subst, Type};
use lambda2_lang::value::Value;

use crate::failpoints::{self, FailAction};
use crate::govern::{Budget, BudgetExceeded};
use crate::library::Library;
use crate::spec::Spec;

mod types;
mod values;
pub use types::{universe_size, TyId, UniverseSize};
use values::{map_bytes, ValId, ValueTable};

/// A term's output on one example environment.
type Output = Result<Value, EvalError>;

/// Key identifying an enumeration context: the variables in scope (with
/// types) and the example environments. Two holes with equal keys see
/// exactly the same term universe, so stores are cached on this key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StoreKey {
    scope: Vec<(Symbol, String)>,
    envs: Vec<Vec<(Symbol, Value)>>,
    probes: Vec<Vec<(Symbol, Value)>>,
}

impl StoreKey {
    /// Builds the key for a scope, the environments of a spec, and the
    /// trace-probe environments (see [`crate::deduce::Deduction::probes`]).
    pub fn with_probes(scope: &[(Symbol, Type)], spec: &Spec, probes: &[Env]) -> StoreKey {
        StoreKey {
            scope: scope
                .iter()
                .map(|(s, t)| (*s, canonical(t).to_string()))
                .collect(),
            envs: spec.envs().map(Env::fingerprint).collect(),
            probes: probes.iter().map(Env::fingerprint).collect(),
        }
    }
}

/// Hard limits guarding against blow-up when observational equivalence is
/// unavailable (empty-spec holes in the no-deduction ablation).
#[derive(Clone, Copy, Debug)]
pub struct EnumLimits {
    /// Maximum number of terms kept per cost level.
    pub max_level_terms: usize,
    /// Maximum number of terms kept in the whole store.
    pub max_terms: usize,
    /// Evaluate terms on synthetic perturbation probes (see
    /// [`TermStore::with_probes`]). Disabling is an ablation knob.
    pub synthetic_probes: bool,
}

impl Default for EnumLimits {
    /// Loose safety valves: memory across stores is governed globally by
    /// the search's byte budget (LRU store eviction), so per-store caps
    /// only guard against single-context blow-ups.
    fn default() -> EnumLimits {
        EnumLimits {
            max_level_terms: 150_000,
            max_terms: 1_500_000,
            synthetic_probes: true,
        }
    }
}

/// An enumerated term: id, type, and cost. Its outputs live in the
/// owning store's value column, as value ids.
#[derive(Clone, Copy, Debug)]
pub struct TermEntry {
    /// The term (combinator-free, lambda-free) in the owning store's
    /// arena; its id is its position in the store. Materialize it with
    /// [`TermStore::expr_of`].
    pub term: TermId,
    /// Its canonical type, interned in the process's type universe. May
    /// contain variables for empty containers.
    pub ty: TyId,
    /// Its exact cost.
    pub cost: u32,
}

/// The end of a chain of terms sharing a dedup key.
const NO_TERM: u32 = u32::MAX;

/// Monotone per-store counts of what happened to each candidate term the
/// enumerator considered: every candidate is ill-typed, errs on every
/// row, duplicates a kept term, or is kept (inserted). For a store no
/// limit truncated, `candidates = ill_typed + all_error + duplicates +
/// inserted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Funnel {
    /// Candidate terms considered (leaves and shape-compatible operator
    /// and `if` applications).
    pub candidates: u64,
    /// Candidates whose argument types do not fit (one per skipped pair).
    pub ill_typed: u64,
    /// Candidates that evaluated to an error on every spec row.
    pub all_error: u64,
    /// Candidates observationally equal to a kept term.
    pub duplicates: u64,
    /// Terms ever materialized into the store. At the search level LRU
    /// eviction + rebuild keep adding to it, so it measures enumeration
    /// *work done*, not the current cache size.
    pub inserted: u64,
}

impl Funnel {
    /// The counts accumulated since `earlier` (a snapshot of the same
    /// store).
    pub fn since(&self, earlier: &Funnel) -> Funnel {
        Funnel {
            candidates: self.candidates - earlier.candidates,
            ill_typed: self.ill_typed - earlier.ill_typed,
            all_error: self.all_error - earlier.all_error,
            duplicates: self.duplicates - earlier.duplicates,
            inserted: self.inserted - earlier.inserted,
        }
    }
}

/// A seedless word-wise multiply-rotate hasher: one rotate, xor and
/// multiply per written word, so a signature of small values hashes in a
/// few cycles per value. Deterministic across processes and runs (stores
/// are deterministic caches); `finish` folds the well-mixed high bits
/// into the low ones that index a table.
#[derive(Clone, Copy, Debug, Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The observational-equivalence key of a term: its type's
/// [`TyId::fingerprint`] and its output ids, hashed word-wise.
fn dedup_key(ty_fingerprint: u64, outputs: &[ValId]) -> u64 {
    let mut h = WordHasher::default();
    h.add(ty_fingerprint);
    for id in outputs {
        h.add(u64::from(id.bits()));
    }
    h.finish()
}

/// Hashes a `u64` key as itself: for maps keyed by [`dedup_key`], whose
/// keys are already hashes.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys of the dedup index are u64 hashes")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A cost-stratified store of enumerated terms for one context.
#[derive(Debug)]
pub struct TermStore {
    scope: Vec<(Symbol, Type)>,
    envs: Vec<Env>,
    /// Number of leading entries of `envs` that are real spec rows; the
    /// rest are dedup probes. Closing checks and argument values use only
    /// the row part.
    n_rows: usize,
    /// Every kept term's node, at the term's position in `terms`.
    arena: TermArena,
    terms: Vec<TermEntry>,
    /// Every kept term's outputs, one slot per environment: term `i` owns
    /// `values[i * envs.len()..][..envs.len()]`. A candidate is evaluated
    /// into the tail past the last term and truncated away if rejected.
    values: Vec<ValId>,
    /// The outputs the value column's ids stand for, and the operator
    /// memo.
    vals: ValueTable,
    levels: Vec<Vec<usize>>, // levels[k] = indices of terms with cost k
    /// Observational-equivalence index: dedup key of (type, outputs) ->
    /// the last kept term with that key. Keys collide, so each term links
    /// to the one kept before it under its key in `same_key`, [`NO_TERM`]
    /// ending the chain; a real comparison resolves the chain.
    seen: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    same_key: Vec<u32>,
    built_upto: u32,
    limits: EnumLimits,
    truncated: bool,
    funnel: Funnel,
    /// The verdict that cut a level mid-build; that level stays partial
    /// and the store builds nothing more.
    cut: Option<BudgetExceeded>,
}

impl TermStore {
    /// Creates an empty store for a scope and the environments of `spec`.
    ///
    /// Besides the spec's environments, the store evaluates every term on
    /// deterministically *perturbed* probe environments. Probes sharpen
    /// the observational-equivalence classes: deduced specs are necessary
    /// but not sufficient, so two terms that agree on the (few) deduced
    /// rows may still behave differently on the full examples — without
    /// probes, deduplication could discard the true solution in favor of a
    /// row-equivalent term that fails final verification.
    pub fn new(scope: Vec<(Symbol, Type)>, spec: &Spec, limits: EnumLimits) -> TermStore {
        TermStore::with_probes(scope, spec, &[], limits)
    }

    /// Like [`TermStore::new`] with additional *trace probe* environments
    /// (real upcoming argument combinations emitted by deduction; see
    /// [`crate::deduce::Deduction::probes`]). Trace probes join the
    /// synthetic perturbation probes in the dedup signature.
    pub fn with_probes(
        scope: Vec<(Symbol, Type)>,
        spec: &Spec,
        trace_probes: &[Env],
        limits: EnumLimits,
    ) -> TermStore {
        let rows: Vec<Env> = spec.envs().cloned().collect();
        let n_rows = rows.len();
        let mut envs = rows;
        if limits.synthetic_probes {
            let probes = probe_envs(&envs);
            envs.extend(trace_probes.iter().cloned());
            envs.extend(probes);
        } else {
            envs.extend(trace_probes.iter().cloned());
        }
        TermStore {
            scope,
            envs,
            n_rows,
            arena: TermArena::new(),
            terms: Vec::new(),
            values: Vec::new(),
            vals: ValueTable::default(),
            levels: vec![Vec::new()], // level 0 is always empty
            seen: HashMap::default(),
            same_key: Vec::new(),
            built_upto: 0,
            limits,
            truncated: false,
            funnel: Funnel::default(),
            cut: None,
        }
    }

    /// `true` if a limit forced the store to drop terms; completeness up to
    /// the requested cost is no longer guaranteed.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Total number of terms currently stored.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Monotone count of terms ever materialized (never decreases):
    /// [`Funnel::inserted`].
    pub fn inserted(&self) -> u64 {
        self.funnel.inserted
    }

    /// Monotone counts of the candidates this store considered and what
    /// became of them (never decrease). The search accumulates their
    /// deltas into `Stats` (`enumerated_terms` is `inserted`).
    pub fn funnel(&self) -> Funnel {
        self.funnel
    }

    /// The highest cost whose level is complete.
    pub(crate) fn built_upto(&self) -> u32 {
        self.built_upto
    }

    /// The verdict that cut a level of this store mid-build, if any.
    pub(crate) fn cut(&self) -> Option<BudgetExceeded> {
        self.cut
    }

    /// The bytes the store owns: the capacities of its columns (terms,
    /// value slots, dedup chains, levels, environments), of its dedup
    /// index, of its arena, and of its value table with the heap of each
    /// distinct boxed output. The search's eviction budget and the warm
    /// cache's are denominated in these bytes.
    pub fn bytes(&self) -> usize {
        self.terms.capacity() * size_of::<TermEntry>()
            + self.values.capacity() * size_of::<ValId>()
            + self.same_key.capacity() * size_of::<u32>()
            + self.levels.capacity() * size_of::<Vec<usize>>()
            + self
                .levels
                .iter()
                .map(|l| l.capacity() * size_of::<usize>())
                .sum::<usize>()
            + map_bytes(&self.seen)
            + self.envs.capacity() * size_of::<Env>()
            + self.arena.bytes()
            + self.vals.bytes()
    }

    /// `true` if no terms are stored.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// An entry's canonical type.
    pub fn ty(&self, t: &TermEntry) -> &Type {
        t.ty.ty()
    }

    /// Materializes an entry's expression from the arena (memoized:
    /// repeated extraction of the same term returns one shared `Arc`).
    pub fn expr_of(&self, t: &TermEntry) -> Arc<Expr> {
        self.arena.extract(t.term)
    }

    /// Renders an entry's expression (test/debug aid).
    pub fn render(&self, t: &TermEntry) -> String {
        self.arena.render(t.term)
    }

    /// Asserts the store's invariants after level `cost` was built or
    /// cut: the value column holds one slot per environment for every
    /// term, and for each of the level's terms its id is its position,
    /// the interpreter run on its expression gives the output of each of
    /// its slots, and value-id equality agrees with output equality,
    /// `intern(get(id)) == id` for every slot. Checking one level at a
    /// time keeps the total cost linear in the store. Compiled in only
    /// under `check-invariants`.
    #[cfg(feature = "check-invariants")]
    fn assert_level_invariants(&mut self, cost: u32) {
        let n = self.envs.len();
        assert_eq!(
            self.values.len(),
            self.terms.len() * n,
            "the value column holds one slot per environment per term"
        );
        for k in 0..self.levels[cost as usize].len() {
            let i = self.levels[cost as usize][k];
            assert_eq!(self.terms[i].term.index(), i, "a term's id is its position");
            let expr = self.arena.extract(self.terms[i].term);
            for (r, env) in self.envs.iter().enumerate() {
                let id = self.values[i * n + r];
                assert_eq!(
                    self.vals.get(id),
                    lambda2_lang::eval::eval_default(&expr, env),
                    "the store's output of {expr} on environment {r}"
                );
                assert_eq!(
                    self.vals.intern(self.vals.get(id)),
                    id,
                    "value id round trip"
                );
            }
        }
    }

    /// Builds all levels up to and including `cost`.
    pub fn ensure(&mut self, cost: u32, library: &Library) {
        self.ensure_within(cost, library, &Budget::unlimited())
            .expect("an unlimited budget cannot trip");
    }

    /// [`TermStore::ensure`] under a resource [`Budget`]: the budget is
    /// ticked inside every candidate loop, so a deadline or cancellation
    /// interrupts level construction mid-way with bounded overshoot.
    ///
    /// A level the budget interrupts is **cut**: its partial terms stay
    /// where they are and the store is marked ([`TermStore::cut`]), so it
    /// is never read past its last complete level or parked for reuse. A
    /// cut store is dead — the search that cut it is over.
    ///
    /// # Errors
    ///
    /// Propagates the budget's (latched) [`BudgetExceeded`] verdict; on a
    /// cut store, the verdict that cut it.
    pub fn ensure_within(
        &mut self,
        cost: u32,
        library: &Library,
        budget: &Budget,
    ) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.cut {
            return Err(e);
        }
        while self.built_upto < cost {
            budget.check_now()?;
            let next = self.built_upto + 1;
            let built = self.build_level(next, library, budget);
            #[cfg(feature = "check-invariants")]
            self.assert_level_invariants(next);
            if let Err(e) = built {
                self.cut = Some(e);
                return Err(e);
            }
            self.built_upto = next;
        }
        Ok(())
    }

    /// Indices of the terms of exactly `cost`.
    fn level(&self, cost: u32) -> impl Iterator<Item = usize> + '_ {
        self.levels
            .get(cost as usize)
            .into_iter()
            .flatten()
            .copied()
    }

    /// Term `i`'s output ids, one per environment: its slice of the value
    /// column.
    fn outputs(&self, i: usize) -> &[ValId] {
        let n = self.envs.len();
        &self.values[i * n..(i + 1) * n]
    }

    /// Terms of exactly `cost` (must have been built with [`TermStore::ensure`]).
    pub fn at_cost(&self, cost: u32) -> impl Iterator<Item = &TermEntry> {
        self.level(cost).map(move |i| &self.terms[i])
    }

    /// Terms of cost `<= cost`.
    pub fn up_to_cost(&self, cost: u32) -> impl Iterator<Item = &TermEntry> {
        (1..=cost).flat_map(move |k| self.at_cost(k))
    }

    /// Terms at exactly `cost` that close a hole of type `ty` with the given
    /// spec: the type must be compatible and the outputs must match every
    /// row's output. For an empty spec only the type filter applies.
    pub fn closings<'a>(
        &'a self,
        cost: u32,
        ty: &'a Type,
        spec: &'a Spec,
    ) -> impl Iterator<Item = &'a TermEntry> {
        debug_assert_eq!(spec.len(), self.n_rows);
        // An output no kept term produced has no id, and nothing closes.
        let want: Option<Vec<ValId>> = spec
            .rows()
            .iter()
            .map(|row| self.vals.lookup(&Ok(row.output.clone())))
            .collect();
        self.level(cost)
            .filter(move |&i| {
                want.as_deref() == Some(&self.outputs(i)[..self.n_rows])
                    && unifiable(self.ty(&self.terms[i]), ty)
            })
            .map(move |i| &self.terms[i])
    }

    /// Terms of cost `<= cost` whose outputs are error-free on every row,
    /// paired with their per-row values. These are the argument candidates
    /// for combinator expansion (collections and fold initial values).
    pub fn error_free(&self, cost: u32) -> Vec<(&TermEntry, Vec<Value>)> {
        let mut out = Vec::new();
        for i in (1..=cost).flat_map(|k| self.level(k)) {
            let rows = &self.outputs(i)[..self.n_rows];
            if rows.iter().all(|id| !id.is_err()) {
                let vals = rows.iter().map(|&id| self.vals.value(id)).collect();
                out.push((&self.terms[i], vals));
            }
        }
        out
    }

    /// Collection candidates for combinator expansion: list- or tree-typed
    /// terms of cost `<= cost` whose outputs are error-free on every row.
    /// Returns `(entry, per-row values)`.
    pub fn collections(&self, cost: u32) -> Vec<(&TermEntry, Vec<Value>)> {
        self.error_free(cost)
            .into_iter()
            .filter(|(t, _)| matches!(self.ty(t), Type::List(_) | Type::Tree(_)))
            .collect()
    }

    fn build_level(
        &mut self,
        cost: u32,
        library: &Library,
        budget: &Budget,
    ) -> Result<(), BudgetExceeded> {
        debug_assert_eq!(self.levels.len(), cost as usize);
        self.levels.push(Vec::new());
        if let Some(FailAction::ExpireDeadline) = failpoints::check("enumerate.level") {
            budget.force_expire();
            budget.check_now()?;
        }
        let costs = library.costs().clone();

        // Leaves: constants.
        if cost == costs.lit {
            for c in library.constants() {
                let mut n = 0u32;
                let ty = c.type_of(&mut || {
                    n += 1;
                    Type::Var(n - 1)
                });
                let ty = TyId::of(&ty);
                let id = self.vals.intern(Ok(c.clone()));
                self.values.extend(self.envs.iter().map(|_| id));
                self.funnel.candidates += 1;
                self.insert(Node::Lit(c.clone()), ty, cost);
            }
        }
        // Leaves: variables.
        if cost == costs.var {
            for i in 0..self.scope.len() {
                let sym = self.scope[i].0;
                let ty = TyId::of(&self.scope[i].1);
                for r in 0..self.envs.len() {
                    let out = self.envs[r]
                        .lookup(sym)
                        .cloned()
                        .ok_or(EvalError::Unbound(sym));
                    let id = self.vals.intern(out);
                    self.values.push(id);
                }
                self.funnel.candidates += 1;
                self.insert(Node::Var(sym), ty, cost);
            }
        }

        // Operator applications, iterating only argument candidates whose
        // outermost type constructor fits the operator's parameter types
        // (arithmetic never sees list-typed terms, `car` never sees
        // integers, …).
        for &op in library.ops() {
            if self.over_op_limit(cost) {
                break;
            }
            let node = costs.op_cost(op);
            if cost <= node {
                continue;
            }
            let arg_budget = cost - node;
            let Type::Fun(params, _) = op.type_scheme() else {
                unreachable!("op schemes are functions")
            };
            match &params[..] {
                [p] => {
                    for i in self.fitting(arg_budget, p) {
                        budget.tick()?;
                        self.try_op1(op, i, cost);
                        if self.over_op_limit(cost) {
                            break;
                        }
                    }
                }
                [p1, p2] => {
                    for k1 in 1..arg_budget {
                        if self.over_op_limit(cost) {
                            break;
                        }
                        let k2 = arg_budget - k1;
                        let lhs = self.fitting(k1, p1);
                        if lhs.is_empty() {
                            continue;
                        }
                        let rhs = self.fitting(k2, p2);
                        // One result-type lookup per pair of argument
                        // types met, not per pair of terms.
                        let (lslot, height) = self.type_slots(&lhs);
                        let (rslot, width) = self.type_slots(&rhs);
                        let mut rets = vec![None; height * width];
                        'op2: for (&i, &l) in lhs.iter().zip(&lslot) {
                            for (&j, &r) in rhs.iter().zip(&rslot) {
                                budget.tick()?;
                                let (a, b) = (self.terms[i].ty, self.terms[j].ty);
                                let ret = *rets[l * width + r].get_or_insert_with(|| {
                                    types::result_type(Some(op), a, Some(b))
                                });
                                self.try_op2(op, i, j, ret, cost);
                                if self.over_op_limit(cost) {
                                    break 'op2;
                                }
                            }
                        }
                    }
                }
                _ => unreachable!("operators have arity 1 or 2"),
            }
        }

        // Conditionals: branches must share a type, so iterate same-type
        // buckets (plus the rare variable-typed terms against everything).
        // Buckets are iterated lazily — materializing the cross product
        // can reach hundreds of millions of pairs on large levels.
        if cost > costs.if_ {
            let arg_budget = cost - costs.if_;
            for kc in 1..arg_budget.saturating_sub(1) {
                let conds = self.fitting(kc, &Type::Bool);
                if conds.is_empty() {
                    continue;
                }
                for kt in 1..arg_budget - kc {
                    let ke = arg_budget - kc - kt;
                    let thens = self.type_buckets(kt);
                    let elses = self.type_buckets(ke);
                    for (tty, tis) in &thens {
                        for (ety, eis) in &elses {
                            // Ground types must match exactly; any
                            // variable-typed side may join with anything.
                            if tty.ty().is_ground() && ety.ty().is_ground() && tty != ety {
                                continue;
                            }
                            let Some(ret) = types::result_type(None, *tty, Some(*ety)) else {
                                let pairs = (tis.len() * eis.len() * conds.len()) as u64;
                                self.funnel.candidates += pairs;
                                self.funnel.ill_typed += pairs;
                                continue;
                            };
                            for &ti in tis {
                                for &ei in eis {
                                    for &ci in &conds {
                                        budget.tick()?;
                                        self.try_if(ci, ti, ei, ret, cost);
                                        if self.over_limit(cost) {
                                            return Ok(());
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Groups a level's term indices by type, in first-occurrence order.
    fn type_buckets(&self, cost: u32) -> Vec<(TyId, Vec<usize>)> {
        let mut out: Vec<(TyId, Vec<usize>)> = Vec::new();
        for i in self.level(cost) {
            let ty = self.terms[i].ty;
            match out.iter_mut().find(|(t, _)| *t == ty) {
                Some((_, ids)) => ids.push(i),
                None => out.push((ty, vec![i])),
            }
        }
        out
    }

    /// Each of the terms `idx`'s position among their distinct types, in
    /// first-occurrence order, and the number of distinct types.
    fn type_slots(&self, idx: &[usize]) -> (Vec<usize>, usize) {
        let mut slot: HashMap<TyId, usize, BuildHasherDefault<WordHasher>> = HashMap::default();
        let slots = idx
            .iter()
            .map(|&i| {
                let next = slot.len();
                *slot.entry(self.terms[i].ty).or_insert(next)
            })
            .collect();
        (slots, slot.len())
    }

    /// Indices at exactly `cost` whose type may fill a parameter of type
    /// `param`: the outermost type constructors agree, or either side is a
    /// type variable. A cheap pre-filter; the result-type lookup decides.
    fn fitting(&self, cost: u32, param: &Type) -> Vec<usize> {
        let head = |t: &Type| (!matches!(t, Type::Var(_))).then(|| std::mem::discriminant(t));
        let want = head(param);
        self.level(cost)
            .filter(|&i| match (want, head(self.ty(&self.terms[i]))) {
                (Some(w), Some(h)) => w == h,
                _ => true,
            })
            .collect()
    }

    fn over_limit(&mut self, cost: u32) -> bool {
        self.over_cap(cost, self.limits.max_level_terms)
    }

    /// Like [`TermStore::over_limit`] with a reduced level cap — the
    /// operator phase leaves headroom so conditionals (built last) are
    /// never entirely starved when a level truncates.
    fn over_op_limit(&mut self, cost: u32) -> bool {
        self.over_cap(cost, self.limits.max_level_terms / 4 * 3)
    }

    fn over_cap(&mut self, cost: u32, level_cap: usize) -> bool {
        let over = self.levels[cost as usize].len() >= level_cap
            || self.terms.len() >= self.limits.max_terms;
        if over {
            self.truncated = true;
        }
        over
    }

    fn try_op1(&mut self, op: Op, i: usize, cost: u32) {
        let ret = types::result_type(Some(op), self.terms[i].ty, None);
        let a = i * self.envs.len();
        let node = Node::Op1(op, self.terms[i].term);
        let scalar = is_scalar(ret);
        self.try_app(node, ret, cost, |vals, col, r| {
            vals.apply1(op, col[a + r], scalar)
        });
    }

    /// `ret` is the result type, looked up once per argument type pair by
    /// the caller.
    fn try_op2(&mut self, op: Op, i: usize, j: usize, ret: Option<TyId>, cost: u32) {
        let (a, b) = (i * self.envs.len(), j * self.envs.len());
        let node = Node::Op2(op, self.terms[i].term, self.terms[j].term);
        let scalar = is_scalar(ret);
        self.try_app(node, ret, cost, |vals, col, r| {
            vals.apply2(op, col[a + r], col[b + r], scalar)
        });
    }

    /// `ret` is the join of the branch types, looked up once per bucket
    /// pair by the caller.
    fn try_if(&mut self, ci: usize, ti: usize, ei: usize, ret: TyId, cost: u32) {
        let n = self.envs.len();
        let (c, t, e) = (ci * n, ti * n, ei * n);
        let node = Node::If(
            self.terms[ci].term,
            self.terms[ti].term,
            self.terms[ei].term,
        );
        self.try_app(node, Some(ret), cost, |_, col, r| {
            ValId::select(col[c + r], col[t + r], col[e + r])
        });
    }

    /// Tries one operator or `if` application of result type `ret` (`None`
    /// if ill-typed): `out(table, column, r)` computes its output id on
    /// environment `r` from its arguments' slots, into the value column's
    /// tail. A candidate that errs on every spec row is dropped.
    fn try_app(
        &mut self,
        node: Node,
        ret: Option<TyId>,
        cost: u32,
        mut out: impl FnMut(&mut ValueTable, &[ValId], usize) -> ValId,
    ) {
        self.funnel.candidates += 1;
        let Some(ret) = ret else {
            self.funnel.ill_typed += 1;
            return;
        };
        let start = self.values.len();
        for r in 0..self.envs.len() {
            let id = out(&mut self.vals, &self.values, r);
            self.values.push(id);
        }
        if self.n_rows > 0
            && self.values[start..start + self.n_rows]
                .iter()
                .all(|id| id.is_err())
        {
            self.funnel.all_error += 1;
            self.values.truncate(start);
            return;
        }
        self.insert(node, ret, cost);
    }

    /// Keeps the candidate evaluated into the value column's tail unless a
    /// kept term has the same type and outputs; a duplicate is truncated
    /// away.
    fn insert(&mut self, node: Node, ty: TyId, cost: u32) {
        let n = self.envs.len();
        let idx = self.terms.len();
        let start = idx * n;
        // Observational equivalence: with at least one environment, terms
        // with equal (type, outputs) are interchangeable — keep the first
        // (cheapest, since levels are built in cost order).
        let mut same_key = NO_TERM;
        if n > 0 {
            let tail = &self.values[start..];
            let key = dedup_key(ty.fingerprint(), tail);
            same_key = self.seen.get(&key).copied().unwrap_or(NO_TERM);
            let mut i = same_key;
            while i != NO_TERM {
                let k = i as usize;
                if self.terms[k].ty == ty && self.values[k * n..(k + 1) * n] == *tail {
                    self.funnel.duplicates += 1;
                    self.values.truncate(start);
                    return;
                }
                i = self.same_key[k];
            }
            self.seen
                .insert(key, u32::try_from(idx).expect("fewer than 2^32 terms"));
        }
        self.same_key.push(same_key);
        self.funnel.inserted += 1;
        // Only terms that survive dedup reach the arena, so a term's id
        // is its position in `terms`.
        let term = self.arena.push(node);
        self.terms.push(TermEntry { term, ty, cost });
        self.levels[cost as usize].push(idx);
    }
}

/// `true` for a result type whose values are immediate value ids (`int`
/// and `bool`), which operators compute without the memo.
fn is_scalar(ty: Option<TyId>) -> bool {
    ty.is_some_and(|t| matches!(t.ty(), Type::Int | Type::Bool))
}

/// Deterministic probe environments: for each of (up to) the first three
/// row environments, two variants with every binding perturbed. Perturbing
/// keeps the value's type: integers shift, booleans flip, lists and trees
/// grow or shrink.
fn probe_envs(rows: &[Env]) -> Vec<Env> {
    fn perturb(v: &Value, variant: i64) -> Value {
        match v {
            Value::Int(n) => Value::Int(n.wrapping_add(variant).wrapping_mul(2) + 1),
            Value::Bool(b) => Value::Bool(*b == (variant % 2 == 0)),
            Value::List(xs) => {
                let mut out: Vec<Value> = xs.iter().map(|x| perturb(x, variant)).collect();
                match xs.first() {
                    Some(first) if variant % 2 == 0 => {
                        // Grow: duplicate-and-perturb the first element.
                        out.insert(0, perturb(first, variant + 1));
                    }
                    Some(_) => {
                        out.remove(0);
                    }
                    None => {
                        // Empty lists MUST change under perturbation:
                        // otherwise a term seeded from `[]` (e.g. a fold
                        // accumulator) would be probe-equal to one that
                        // ignores it. The seed may be heterogeneous with
                        // the list's nominal element type — probes are
                        // dedup-only, so a type-error entry in the
                        // signature distinguishes just as well.
                        out.push(Value::Int(variant.wrapping_mul(3) + 2));
                    }
                }
                Value::list(out)
            }
            Value::Tree(t) => match t.root() {
                None => {
                    // Same reasoning as empty lists: seed a node.
                    Value::Tree(lambda2_lang::value::Tree::node(
                        Value::Int(variant.wrapping_mul(5) + 3),
                        Vec::new(),
                    ))
                }
                Some(n) => {
                    if variant % 2 == 0 {
                        Value::Tree(lambda2_lang::value::Tree::node(
                            perturb(&n.value, variant),
                            n.children.clone(),
                        ))
                    } else {
                        // Shrink: drop the children.
                        Value::Tree(lambda2_lang::value::Tree::node(
                            perturb(&n.value, variant),
                            Vec::new(),
                        ))
                    }
                }
            },
            Value::Pair(p) => Value::pair(perturb(&p.0, variant), perturb(&p.1, variant + 1)),
            Value::Closure(_) | Value::Comb(_) => v.clone(),
        }
    }
    let mut out = Vec::new();
    // Few rows mean coarse observational classes; compensate with more
    // probe variants so distinct behaviors stay distinct (a single-row
    // store gets 8 probes, three-plus rows get 2 each).
    let probed_rows = rows.len().clamp(1, 3);
    let variants_per_row = (8 / probed_rows).max(2);
    for (i, env) in rows.iter().take(3).enumerate() {
        for v in 0..variants_per_row {
            let variant = (variants_per_row * i + v) as i64;
            // Salt each binding differently: two variables that happen to
            // be *equal* in the rows (e.g. a fold accumulator seeded with
            // another variable) must diverge under the probes, or the
            // dedup would conflate terms that differ only in which of the
            // two they mention.
            let mut bindings: Vec<(Symbol, Value)> = env
                .bindings()
                .into_iter()
                .enumerate()
                .map(|(j, (s, v))| (s, perturb(v, variant * 16 + j as i64)))
                .collect();
            bindings.reverse(); // outermost first
            out.push(Env::from_bindings(bindings));
        }
    }
    out
}

/// The key a [`StoreCache`] files a store under: a configuration
/// fingerprint (see [`crate::search::warm_config_fingerprint`]) and the
/// store's [`StoreKey`].
pub(crate) type CacheKey = (u64, StoreKey);

/// A byte-budgeted LRU of term stores — the one cache behind both a
/// search's live stores and the cross-search [`WarmCache`].
///
/// Term stores are deterministic caches: a store's contents are a pure
/// function of its [`StoreKey`], the library, and the enumeration limits
/// it was built under, so any store may be dropped and rebuilt on demand.
/// The byte total is summed from the stores when asked.
#[derive(Debug, Default)]
pub(crate) struct StoreCache {
    tick: u64,
    entries: HashMap<CacheKey, (TermStore, u64)>,
}

impl StoreCache {
    /// The store under `key`, now the most recently used; `make` builds
    /// it if absent. The flag is `true` when it was already cached.
    pub(crate) fn touch(
        &mut self,
        key: CacheKey,
        make: impl FnOnce(&CacheKey) -> TermStore,
    ) -> (&mut TermStore, bool) {
        self.tick += 1;
        let (entry, hit) = match self.entries.entry(key) {
            Entry::Occupied(e) => (e.into_mut(), true),
            Entry::Vacant(e) => {
                let store = make(e.key());
                (e.insert((store, 0)), false)
            }
        };
        entry.1 = self.tick;
        (&mut entry.0, hit)
    }

    /// Removes and returns the store under `key`.
    pub(crate) fn take(&mut self, key: &CacheKey) -> Option<TermStore> {
        self.entries.remove(key).map(|(store, _)| store)
    }

    /// Files `store` under `key` as the most recently used entry; returns
    /// the store it replaced.
    pub(crate) fn put(&mut self, key: CacheKey, store: TermStore) -> Option<TermStore> {
        self.tick += 1;
        self.entries
            .insert(key, (store, self.tick))
            .map(|(old, _)| old)
    }

    /// Number of cached stores.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The bytes every cached store owns ([`TermStore::bytes`]).
    pub(crate) fn bytes(&self) -> usize {
        self.entries.values().map(|(s, _)| s.bytes()).sum()
    }

    /// Removes least-recently-used entries other than the one under
    /// `keep` until the cache fits `max_bytes` (or only `keep` is left);
    /// returns them, oldest first.
    pub(crate) fn evict(
        &mut self,
        max_bytes: usize,
        keep: Option<(u64, &StoreKey)>,
    ) -> Vec<TermStore> {
        let mut total = self.bytes();
        let mut evicted = Vec::new();
        while total > max_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|((config, key), _)| keep != Some((*config, key)))
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(k, _)| k.clone());
            let Some((store, _)) = victim.and_then(|k| self.entries.remove(&k)) else {
                break;
            };
            total -= store.bytes();
            evicted.push(store);
        }
        evicted
    }

    /// Empties the cache, returning every entry, least recently used first.
    pub(crate) fn drain(&mut self) -> Vec<(CacheKey, TermStore)> {
        let mut out: Vec<_> = self.entries.drain().collect();
        out.sort_by_key(|(_, (_, tick))| *tick);
        out.into_iter().map(|(k, (store, _))| (k, store)).collect()
    }
}

/// The cross-search store cache: one mutex-guarded [`StoreCache`] for a
/// whole worker pool.
///
/// The serve daemon parks each finished search's stores here and seeds
/// the next search for the same signature from them, amortizing
/// closed-term enumeration across requests. A store warmed by one worker
/// serves every later request for the same signature regardless of which
/// worker picks it up, and the byte budget bounds the *pool's* footprint
/// instead of `workers × budget`.
///
/// Reuse never changes a search's answer: [`TermStore::ensure_within`]
/// only builds levels the store does not already have, and every read is
/// bounded by the cost the reader asks for, so a warm store behaves
/// observably like a cold one built to the same level (only the work
/// counters differ). A cut store is never parked. Each operation takes
/// the lock once, for map work only; stores that parking evicts or
/// replaces are dropped after the lock is released.
#[derive(Debug)]
pub struct WarmCache {
    max_bytes: usize,
    state: std::sync::Mutex<WarmState>,
}

#[derive(Debug, Default)]
struct WarmState {
    stores: StoreCache,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A [`WarmCache`]'s size and counters, read under one lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmSnapshot {
    /// Stores currently parked.
    pub entries: usize,
    /// The bytes the parked stores own ([`TermStore::bytes`]).
    pub bytes: usize,
    /// Lookups that found a parked store.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Stores evicted to fit the byte budget.
    pub evictions: u64,
}

impl WarmCache {
    /// An empty shared cache that evicts parked stores until they own at
    /// most `max_bytes` ([`TermStore::bytes`]); 0 parks nothing.
    pub fn new(max_bytes: usize) -> WarmCache {
        WarmCache {
            max_bytes,
            state: std::sync::Mutex::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WarmState> {
        // Cache ops don't panic mid-mutation; a poisoned lock only means
        // some *other* code panicked while holding it — the data is still
        // consistent, so recover rather than wedge every worker.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Removes and returns the store parked under `key`, if any.
    /// Ownership moves to the running search; it parks the store again
    /// when it finishes.
    pub(crate) fn take(&self, key: &CacheKey) -> Option<TermStore> {
        let mut state = self.lock();
        let store = state.stores.take(key);
        match store {
            Some(_) => state.hits += 1,
            None => state.misses += 1,
        }
        store
    }

    /// Parks a finished search's stores (least recently used first) and
    /// evicts least-recently-used entries until the cache fits its
    /// budget. Cut stores are not parked.
    pub(crate) fn park(&self, stores: Vec<(CacheKey, TermStore)>) {
        if self.max_bytes == 0 {
            return;
        }
        let mut dropped = Vec::new();
        {
            let mut state = self.lock();
            for (key, store) in stores {
                if store.cut().is_some() {
                    dropped.push(store);
                } else {
                    dropped.extend(state.stores.put(key, store));
                }
            }
            let evicted = state.stores.evict(self.max_bytes, None);
            state.evictions += evicted.len() as u64;
            dropped.extend(evicted);
        }
        // Freeing a store's values takes milliseconds; do it unlocked.
        drop(dropped);
    }

    /// The cache's size and counters.
    pub fn snapshot(&self) -> WarmSnapshot {
        let state = self.lock();
        WarmSnapshot {
            entries: state.stores.len(),
            bytes: state.stores.bytes(),
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }
}

/// Renames type variables to `t0, t1, …` in first-occurrence order so that
/// structurally identical types compare equal.
pub fn canonical(ty: &Type) -> Type {
    let mut vs = Vec::new();
    ty.vars(&mut vs);
    if vs.is_empty() {
        return ty.clone();
    }
    fn go(ty: &Type, vs: &[u32]) -> Type {
        match ty {
            Type::Int | Type::Bool => ty.clone(),
            Type::List(e) => Type::list(go(e, vs)),
            Type::Tree(e) => Type::tree(go(e, vs)),
            Type::Pair(a, b) => Type::pair(go(a, vs), go(b, vs)),
            Type::Fun(ps, r) => Type::fun(ps.iter().map(|p| go(p, vs)).collect(), go(r, vs)),
            Type::Var(v) => {
                let i = vs.iter().position(|w| w == v).expect("collected var");
                Type::Var(u32::try_from(i).expect("few vars"))
            }
        }
    }
    go(ty, &vs)
}

/// `true` if two types unify (vars from the two sides are kept disjoint).
pub fn unifiable(a: &Type, b: &Type) -> bool {
    if a.is_ground() && b.is_ground() {
        return a == b;
    }
    let mut s = Subst::new();
    let a = s.instantiate(a);
    let b = s.instantiate(b);
    s.unify(&a, &b).is_ok()
}

/// Computes the result type of applying `op` to arguments of the given
/// types, or `None` if ill-typed. Argument type variables are treated as
/// independent unknowns.
///
/// The type universe calls it once per process for each (operator,
/// argument types) a term store meets and memoizes the answer; the
/// baseline calls it per candidate. Ground argument types take an
/// allocation-free fast path, which keeps a fresh process's derivations
/// cheap; only types containing variables (empty-container literals and
/// their derivatives) fall back to full unification.
pub fn op_result_type(op: Op, args: &[Type]) -> Option<Type> {
    if args.len() != op.arity() {
        return None;
    }
    if args.iter().all(Type::is_ground) {
        return match op {
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                (args[0] == Type::Int && args[1] == Type::Int).then_some(Type::Int)
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                (args[0] == Type::Int && args[1] == Type::Int).then_some(Type::Bool)
            }
            Op::Eq | Op::Neq => (args[0] == args[1]).then_some(Type::Bool),
            Op::And | Op::Or => {
                (args[0] == Type::Bool && args[1] == Type::Bool).then_some(Type::Bool)
            }
            Op::Not => (args[0] == Type::Bool).then_some(Type::Bool),
            Op::Cons => match &args[1] {
                Type::List(e) if **e == args[0] => Some(args[1].clone()),
                _ => None,
            },
            Op::Car | Op::Last => match &args[0] {
                Type::List(e) => Some((**e).clone()),
                _ => None,
            },
            Op::Cdr => matches!(args[0], Type::List(_)).then(|| args[0].clone()),
            Op::IsEmpty => matches!(args[0], Type::List(_)).then_some(Type::Bool),
            Op::Member => match &args[1] {
                Type::List(e) if **e == args[0] => Some(Type::Bool),
                _ => None,
            },
            Op::Cat => match (&args[0], &args[1]) {
                (Type::List(_), Type::List(_)) if args[0] == args[1] => Some(args[0].clone()),
                _ => None,
            },
            Op::TreeMake => match &args[1] {
                Type::List(inner) => match &**inner {
                    Type::Tree(e) if **e == args[0] => Some((**inner).clone()),
                    _ => None,
                },
                _ => None,
            },
            Op::TreeValue => match &args[0] {
                Type::Tree(e) => Some((**e).clone()),
                _ => None,
            },
            Op::TreeChildren => match &args[0] {
                Type::Tree(_) => Some(Type::list(args[0].clone())),
                _ => None,
            },
            Op::IsEmptyTree | Op::IsLeaf => matches!(args[0], Type::Tree(_)).then_some(Type::Bool),
            Op::MkPair => Some(Type::pair(args[0].clone(), args[1].clone())),
            Op::Fst => match &args[0] {
                Type::Pair(a, _) => Some((**a).clone()),
                _ => None,
            },
            Op::Snd => match &args[0] {
                Type::Pair(_, b) => Some((**b).clone()),
                _ => None,
            },
        };
    }
    op_result_type_slow(op, args)
}

fn op_result_type_slow(op: Op, args: &[Type]) -> Option<Type> {
    let mut s = Subst::new();
    let scheme = s.instantiate(&op.type_scheme());
    let Type::Fun(params, ret) = scheme else {
        unreachable!("op schemes are functions")
    };
    if params.len() != args.len() {
        return None;
    }
    for (p, a) in params.iter().zip(args) {
        let a = s.instantiate(a); // disjoint vars per argument
        s.unify(p, &a).ok()?;
    }
    Some(s.apply(&ret))
}

/// The common instance of two types (for `if` branches), or `None`.
pub fn join_types(a: &Type, b: &Type) -> Option<Type> {
    if a.is_ground() && b.is_ground() {
        return (a == b).then(|| a.clone());
    }
    let mut s = Subst::new();
    let a = s.instantiate(a);
    let b = s.instantiate(b);
    s.unify(&a, &b).ok()?;
    Some(s.apply(&a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ExampleRow, Spec};
    use lambda2_lang::eval::eval_default;
    use lambda2_lang::parser::parse_value;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    /// Context: one int-list variable `l`, two example rows.
    fn store_with_rows() -> (TermStore, Spec) {
        let scope = vec![(sym("l"), Type::list(Type::Int))];
        let rows = vec![
            ExampleRow::new(
                Env::empty().bind(sym("l"), parse_value("[1 2]").unwrap()),
                Value::Int(1),
            ),
            ExampleRow::new(
                Env::empty().bind(sym("l"), parse_value("[5]").unwrap()),
                Value::Int(5),
            ),
        ];
        let spec = Spec::new(rows).unwrap();
        (TermStore::new(scope, &spec, EnumLimits::default()), spec)
    }

    /// `store_with_rows()` built to cost 5, rendered in store order, as
    /// the enumerator before word-wise hashing and per-type-pair result
    /// types produced it: any change of visit order or of a class's
    /// representative shows here.
    const GOLDEN_COST_5: &str = "\
0
1
true
false
[]
{}
l
(car l)
(cdr l)
(+ 1 1)
(- 0 1)
(cons 0 [])
(cons 0 l)
(cons 1 [])
(cons 1 l)
(cons true [])
(cons false [])
(cons [] [])
(cons {} [])
(cons l [])
(car (cdr l))
(cdr (cdr l))
(empty? (cdr l))
(cat l l)
(tree 0 [])
(tree 1 [])
(tree true [])
(tree false [])
(tree [] [])
(tree {} [])
(tree l [])
(+ 1 (car l))
(- 0 (car l))
(- 1 (car l))
(- (car l) 1)
(/ 1 (car l))
(% 1 (car l))
(< 1 (car l))
(<= (car l) 1)
(!= [] (cdr l))
(cons 0 (cdr l))
(cons 1 (cdr l))
(cons (car l) [])
(cons (car l) l)
(cons (cdr l) [])
(cdr (cons 0 []))
(cdr (cons true []))
(cdr (cons [] []))
(cdr (cons {} []))
(cdr (cons l []))
(cdr (cat l l))
(empty? (cdr (cdr l)))
(cat l (cdr l))
(tree (car l) [])
(tree (cdr l) [])
(children (tree 0 []))
(children (tree true []))
(children (tree [] []))
(children (tree {} []))
(children (tree l []))
(+ 1 (+ 1 1))
(+ 1 (car (cdr l)))
(+ (car l) (car l))
(- 0 (+ 1 1))
(- 0 (car (cdr l)))
(- 1 (car (cdr l)))
(- (car (cdr l)) 1)
(* 0 (car (cdr l)))
(* (car l) (car l))
(% 1 (car (cdr l)))
(< 0 (car (cdr l)))
(< (car (cdr l)) 0)
(!= [] (cdr (cdr l)))
(cons 0 (cons 0 []))
(cons 0 (cons 0 l))
(cons 0 (cons 1 []))
(cons 0 (cons 1 l))
(cons 0 (cdr (cdr l)))
(cons 0 (cat l l))
(cons 1 (cons 0 []))
(cons 1 (cons 0 l))
(cons 1 (cons 1 []))
(cons 1 (cons 1 l))
(cons 1 (cdr (cdr l)))
(cons 1 (cat l l))
(cons true (cons true []))
(cons true (cons false []))
(cons false (cons true []))
(cons false (cons false []))
(cons [] (cons [] []))
(cons [] (cons l []))
(cons {} (cons {} []))
(cons l (cons [] []))
(cons l (cons l []))
(cons (+ 1 1) [])
(cons (+ 1 1) l)
(cons (- 0 1) [])
(cons (- 0 1) l)
(cons (cons 0 []) [])
(cons (cons 0 l) [])
(cons (cons 1 []) [])
(cons (cons 1 l) [])
(cons (cons true []) [])
(cons (cons false []) [])
(cons (cons [] []) [])
(cons (cons {} []) [])
(cons (cons l []) [])
(cons (car (cdr l)) [])
(cons (car (cdr l)) l)
(cons (cdr (cdr l)) [])
(cons (empty? (cdr l)) [])
(cons (cat l l) [])
(cons (tree 0 []) [])
(cons (tree 1 []) [])
(cons (tree true []) [])
(cons (tree false []) [])
(cons (tree [] []) [])
(cons (tree {} []) [])
(cons (tree l []) [])
(car (cdr (cat l l)))
(cdr (cdr (cat l l)))
(cdr (cat l (cdr l)))
(cat l (cons 0 []))
(cat l (cons 0 l))
(cat l (cons 1 []))
(cat l (cons 1 l))
(cat l (cdr (cdr l)))
(cat l (cat l l))
(cat (cdr (cdr l)) l)
(tree 0 (cons {} []))
(tree 1 (cons {} []))
(tree true (cons {} []))
(tree false (cons {} []))
(tree [] (cons {} []))
(tree {} (cons {} []))
(tree l (cons {} []))
(tree (+ 1 1) [])
(tree (- 0 1) [])
(tree (cons 0 []) [])
(tree (cons 0 l) [])
(tree (cons 1 []) [])
(tree (cons 1 l) [])
(tree (cons true []) [])
(tree (cons false []) [])
(tree (cons [] []) [])
(tree (cons {} []) [])
(tree (cons l []) [])
(tree (car (cdr l)) [])
(tree (cdr (cdr l)) [])
(tree (empty? (cdr l)) [])
(tree (cat l l) [])
(tree (tree 0 []) [])
(tree (tree 1 []) [])
(tree (tree true []) [])
(tree (tree false []) [])
(tree (tree [] []) [])
(tree (tree {} []) [])
(tree (tree l []) [])";

    /// `store_with_rows()`'s funnel at cost 5: the candidate set of the
    /// enumerator whose argument pre-filter was a hand-kept table of type
    /// shapes. Deriving the filter from the operator schemes must consider
    /// exactly these.
    const PINNED_FUNNEL: Funnel = Funnel {
        candidates: 1573,
        ill_typed: 863,
        all_error: 39,
        duplicates: 513,
        inserted: 158,
    };

    /// `store_with_rows()`'s [`TermStore::bytes`] at cost 5.
    const PINNED_BYTES: usize = 116_224;

    /// The dedup key of a fixed signature under type fingerprint 2.
    fn seedless_key() -> u64 {
        let mut vals = ValueTable::default();
        let sig: Vec<ValId> = [
            Ok(Value::Int(1)),
            Err(EvalError::DivByZero),
            Ok(parse_value("[1 2]").unwrap()),
        ]
        .into_iter()
        .map(|out| vals.intern(out))
        .collect();
        assert_ne!(dedup_key(0, &sig), dedup_key(1, &sig));
        dedup_key(2, &sig)
    }

    #[test]
    fn store_order_and_representatives_are_pinned() {
        let (mut st, _) = store_with_rows();
        st.ensure(5, &Library::default());
        let rendered: Vec<String> = st.up_to_cost(5).map(|t| st.render(t)).collect();
        let golden: Vec<&str> = GOLDEN_COST_5.lines().collect();
        assert_eq!(rendered, golden);
        for (i, a) in st.terms.iter().enumerate() {
            for (j, b) in st.terms[..i].iter().enumerate() {
                assert!(
                    a.ty != b.ty || st.outputs(i) != st.outputs(j),
                    "{} duplicates {}",
                    st.render(a),
                    st.render(b)
                );
            }
        }
    }

    #[test]
    fn dedup_keys_are_seedless() {
        // Pinned: a store's dedup index must not depend on a per-process
        // seed, so the same (type fingerprint, output ids) always hashes
        // the same, and neither may a type's fingerprint.
        assert_eq!(seedless_key(), 0x2c50_4399_146b_9d5b);
        assert_eq!(
            TyId::of(&Type::list(Type::Var(3))).fingerprint(),
            0x3415_2335_82a5_7faf
        );
    }

    #[test]
    fn kept_terms_do_not_depend_on_the_types_interned_before() {
        // Another scope first, so the universe meets its types in another
        // order than `store_with_rows()` alone would intern them.
        let scope = vec![
            (sym("b"), Type::Bool),
            (sym("xss"), Type::list(Type::list(Type::Int))),
        ];
        let spec = Spec::new(vec![ExampleRow::new(
            Env::empty()
                .bind(sym("b"), Value::Bool(true))
                .bind(sym("xss"), parse_value("[[1] [2 3]]").unwrap()),
            Value::Int(2),
        )])
        .unwrap();
        TermStore::new(scope, &spec, EnumLimits::default()).ensure(4, &Library::default());
        let build = || {
            let (mut st, _) = store_with_rows();
            st.ensure(5, &Library::default());
            let rendered: Vec<String> = st.up_to_cost(5).map(|t| st.render(t)).collect();
            assert_eq!(rendered, GOLDEN_COST_5.lines().collect::<Vec<_>>());
            assert_eq!(st.funnel(), PINNED_FUNNEL);
            assert_eq!(st.bytes(), PINNED_BYTES);
            assert_eq!(seedless_key(), 0x2c50_4399_146b_9d5b);
            (0..st.len())
                .map(|i| dedup_key(st.terms[i].ty.fingerprint(), st.outputs(i)))
                .collect::<Vec<u64>>()
        };
        let here = build();
        let there = std::thread::spawn(build).join().expect("second thread");
        assert_eq!(here, there, "every kept term's dedup key");
    }

    #[test]
    fn the_shared_result_memo_is_sound() {
        let (mut st, _) = store_with_rows();
        st.ensure(5, &Library::default());
        let derived = types::derived_here();
        let (mut again, _) = store_with_rows();
        again.ensure(5, &Library::default());
        assert_eq!(
            types::derived_here(),
            derived,
            "a second store for the same scope derives no result type"
        );
        let entries = types::memo_entries();
        assert!(!entries.is_empty());
        for (op, a, b, ret) in entries {
            let derived = match (op, b) {
                (Some(op), None) => op_result_type(op, &[a.ty().clone()]),
                (Some(op), Some(b)) => op_result_type(op, &[a.ty().clone(), b.ty().clone()]),
                (None, Some(b)) => join_types(a.ty(), b.ty()),
                (None, None) => unreachable!("`if` joins two branch types"),
            };
            assert_eq!(
                ret.map(|t| t.ty().clone()),
                derived.map(|t| canonical(&t)),
                "{op:?} {a:?} {b:?}"
            );
        }
    }

    #[test]
    fn store_outputs_match_the_interpreter() {
        let (mut st, _) = store_with_rows();
        st.ensure(5, &Library::default());
        for (i, t) in st.terms.iter().enumerate() {
            let expr = st.expr_of(t);
            for (env, &id) in st.envs.iter().zip(st.outputs(i)) {
                assert_eq!(
                    st.vals.get(id),
                    eval_default(&expr, env),
                    "{} on {env:?}",
                    st.render(t)
                );
            }
        }
    }

    #[test]
    fn funnel_accounts_for_every_candidate() {
        let (mut st, _) = store_with_rows();
        st.ensure(5, &Library::default());
        assert!(!st.truncated());
        let f = st.funnel();
        assert_eq!(
            f.candidates,
            f.ill_typed + f.all_error + f.duplicates + f.inserted,
            "{f:?}"
        );
        assert_eq!(f.inserted, st.len() as u64);
        assert_eq!(f, PINNED_FUNNEL);
        assert_eq!(st.bytes(), PINNED_BYTES);
    }

    #[test]
    fn the_value_column_holds_one_slot_per_environment_per_term() {
        let (mut st, _) = store_with_rows();
        let n = st.envs.len();
        assert!(n > st.n_rows, "rows and probes");
        for k in 1..=5 {
            st.ensure(k, &Library::default());
            assert_eq!(st.values.len(), st.len() * n, "after ensure({k})");
        }
        // A rejected candidate leaves nothing behind: `(car l)` again
        // duplicates a kept term, and `(car [])` errs on every row.
        let find = |st: &TermStore, name: &str| {
            (0..st.len())
                .find(|&i| st.render(&st.terms[i]) == name)
                .unwrap()
        };
        let (l, nil) = (find(&st, "l"), find(&st, "[]"));
        let before = (st.funnel(), st.len());
        st.try_op1(Op::Car, l, 6);
        st.try_op1(Op::Car, nil, 6);
        let f = st.funnel().since(&before.0);
        assert_eq!((f.duplicates, f.all_error, f.inserted), (1, 1, 0));
        assert_eq!((st.len(), st.values.len()), (before.1, before.1 * n));
    }

    #[test]
    fn level_one_contains_leaves() {
        let (mut st, _) = store_with_rows();
        st.ensure(1, &Library::default());
        let names: Vec<String> = st.at_cost(1).map(|t| st.render(t)).collect();
        assert!(names.contains(&"l".to_string()));
        assert!(names.contains(&"0".to_string()));
        assert!(names.contains(&"[]".to_string()));
    }

    #[test]
    fn car_l_closes_the_head_spec() {
        let (mut st, spec) = store_with_rows();
        st.ensure(2, &Library::default());
        let found: Vec<String> = st
            .closings(2, &Type::Int, &spec)
            .map(|t| st.render(t))
            .collect();
        assert_eq!(found, vec!["(car l)".to_string()]);
    }

    #[test]
    fn observational_equivalence_dedups() {
        let (mut st, _) = store_with_rows();
        st.ensure(3, &Library::default());
        // (+ 0 0), (* 0 1), (- 0 0) … all collapse onto the constant 0.
        let zeros: Vec<String> = (0..st.len())
            .filter(|&i| {
                *st.ty(&st.terms[i]) == Type::Int
                    && st
                        .outputs(i)
                        .iter()
                        .all(|&id| st.vals.get(id) == Ok(Value::Int(0)))
            })
            .map(|i| st.render(&st.terms[i]))
            .collect();
        assert_eq!(zeros, vec!["0".to_string()]);
    }

    #[cfg(feature = "check-invariants")]
    #[test]
    fn every_level_keeps_the_store_invariants() {
        // Every kept term's id is its position, and the interpreter run
        // on its expression reproduces each of its output slots.
        let (mut st, _) = store_with_rows();
        st.ensure(4, &Library::default());
        assert!(!st.is_empty(), "levels 1..=4 produce terms");
        for k in 1..=4 {
            st.assert_level_invariants(k);
        }
    }

    #[test]
    fn all_error_terms_are_pruned() {
        // In a context where l is always [], (car l) errors on every row.
        let scope = vec![(sym("l"), Type::list(Type::Int))];
        let spec = Spec::new(vec![ExampleRow::new(
            Env::empty().bind(sym("l"), Value::nil()),
            Value::Int(0),
        )])
        .unwrap();
        let mut st = TermStore::new(scope, &spec, EnumLimits::default());
        st.ensure(3, &Library::default());
        assert!(!st.up_to_cost(3).any(|t| st.render(t) == "(car l)"));
    }

    #[test]
    fn collections_are_error_free_lists_or_trees() {
        let (mut st, _) = store_with_rows();
        st.ensure(2, &Library::default());
        let colls = st.collections(2);
        let names: Vec<String> = colls.iter().map(|(t, _)| st.render(t)).collect();
        assert!(names.contains(&"l".to_string()));
        assert!(names.contains(&"(cdr l)".to_string()));
        // (cdr l) values are per-row tails.
        let (_, vals) = colls
            .iter()
            .find(|(t, _)| st.render(t) == "(cdr l)")
            .unwrap();
        assert_eq!(vals[0], parse_value("[2]").unwrap());
        assert_eq!(vals[1], parse_value("[]").unwrap());
    }

    #[test]
    fn if_terms_appear_with_correct_semantics() {
        // Scope: x:int. Rows: x=1 -> 5, x=2 -> 9. Closing requires an `if`.
        let scope = vec![(sym("x"), Type::Int)];
        let spec = Spec::new(vec![
            ExampleRow::new(Env::empty().bind(sym("x"), Value::Int(1)), Value::Int(5)),
            ExampleRow::new(Env::empty().bind(sym("x"), Value::Int(2)), Value::Int(9)),
        ])
        .unwrap();
        let mut st = TermStore::new(scope, &spec, EnumLimits::default());
        let lib = Library::default()
            .with_constant(Value::Int(5))
            .with_constant(Value::Int(9));
        let mut found = None;
        for k in 1..=6 {
            st.ensure(k, &lib);
            if let Some(t) = st.closings(k, &Type::Int, &spec).next() {
                found = Some(st.render(t));
                break;
            }
        }
        let found = found.expect("an if-term closes this spec within cost 6");
        assert!(found.starts_with("(if "), "{found}");
    }

    #[test]
    fn canonicalization_makes_types_comparable() {
        assert_eq!(
            canonical(&Type::list(Type::Var(7))),
            Type::list(Type::Var(0))
        );
        assert_eq!(
            canonical(&Type::fun(vec![Type::Var(3), Type::Var(3)], Type::Var(5))),
            Type::fun(vec![Type::Var(0), Type::Var(0)], Type::Var(1))
        );
    }

    #[test]
    fn op_result_type_enforces_consistency() {
        // cons : (a, [a]) -> [a] — int vs [bool] must fail.
        assert!(op_result_type(Op::Cons, &[Type::Int, Type::list(Type::Bool)]).is_none());
        assert_eq!(
            op_result_type(Op::Cons, &[Type::Int, Type::list(Type::Int)]),
            Some(Type::list(Type::Int))
        );
        // cons onto an empty list: the element type wins.
        assert_eq!(
            op_result_type(Op::Cons, &[Type::Int, Type::list(Type::Var(0))]),
            Some(Type::list(Type::Int))
        );
    }

    #[test]
    fn unifiable_and_join() {
        assert!(unifiable(&Type::list(Type::Var(0)), &Type::list(Type::Int)));
        assert!(!unifiable(&Type::Int, &Type::Bool));
        assert_eq!(
            join_types(&Type::list(Type::Var(0)), &Type::list(Type::Int)),
            Some(Type::list(Type::Int))
        );
        assert_eq!(join_types(&Type::Int, &Type::Bool), None);
    }

    #[test]
    fn probes_distinguish_equal_bindings() {
        // Regression: with `a` and `v` bound to the SAME value in every
        // row (a fold accumulator seeded with `v`), `(+ a x)` and
        // `(+ v x)` are row-equivalent; the per-binding probe salts must
        // keep them as distinct terms, or the true solution can be
        // deduped into a broken representative.
        let a = sym("a");
        let v = sym("v");
        let x = sym("x");
        let scope = vec![(a, Type::Int), (v, Type::Int), (x, Type::Int)];
        let spec = Spec::new(vec![ExampleRow::new(
            Env::empty()
                .bind(v, Value::Int(3))
                .bind(a, Value::Int(3))
                .bind(x, Value::Int(9)),
            Value::Int(12),
        )])
        .unwrap();
        let mut st = TermStore::new(scope, &spec, EnumLimits::default());
        st.ensure(3, &Library::default());
        let names: Vec<String> = st
            .closings(3, &Type::Int, &spec)
            .map(|t| st.render(t))
            .collect();
        assert!(names.iter().any(|n| n == "(+ a x)"), "{names:?}");
        assert!(names.iter().any(|n| n == "(+ v x)"), "{names:?}");
    }

    #[test]
    fn probes_distinguish_terms_seeded_from_empty_containers() {
        // Regression: `a = []` in the only row made `(cat a x)` and `x`
        // probe-equal until empty containers learned to grow a seed
        // element under perturbation.
        let a = sym("a");
        let x = sym("x");
        let scope = vec![(a, Type::list(Type::Int)), (x, Type::list(Type::Int))];
        let spec = Spec::new(vec![ExampleRow::new(
            Env::empty()
                .bind(a, Value::nil())
                .bind(x, parse_value("[9 4]").unwrap()),
            parse_value("[9 4]").unwrap(),
        )])
        .unwrap();
        let mut st = TermStore::new(scope, &spec, EnumLimits::default());
        st.ensure(3, &Library::default());
        let names: Vec<String> = st
            .closings(3, &Type::list(Type::Int), &spec)
            .map(|t| st.render(t))
            .collect();
        assert!(names.iter().any(|n| n == "(cat a x)"), "{names:?}");
    }

    #[test]
    fn tripped_budget_stops_ensure_at_a_level_boundary() {
        let (mut st, _) = store_with_rows();
        st.ensure(2, &Library::default());
        let len2 = st.len();
        let b = Budget::unlimited();
        b.force_expire();
        assert!(st.ensure_within(4, &Library::default(), &b).is_err());
        // Nothing was built past the completed levels.
        assert_eq!(st.len(), len2);
        // A fresh unlimited ensure proceeds normally afterwards.
        st.ensure(3, &Library::default());
        assert!(st.len() > len2);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn a_cut_level_stays_partial_and_the_store_keeps_its_verdict() {
        use crate::failpoints::FailGuard;
        let (mut st, _) = store_with_rows();
        let guard = FailGuard::arm_after("enumerate.level", FailAction::ExpireDeadline, 2, 1);
        let b = Budget::unlimited();
        assert_eq!(
            st.ensure_within(4, &Library::default(), &b),
            Err(BudgetExceeded::Deadline)
        );
        assert_eq!(guard.hits(), 1);
        assert_eq!(
            (st.built_upto(), st.cut()),
            (2, Some(BudgetExceeded::Deadline))
        );
        // Level 3 was opened, not rolled back; the store builds no more,
        // even for a cost it already has, under a fresh budget.
        assert_eq!(st.levels.len(), 4);
        assert_eq!(st.values.len(), st.len() * st.envs.len());
        assert_eq!(
            st.ensure_within(1, &Library::default(), &Budget::unlimited()),
            Err(BudgetExceeded::Deadline)
        );
    }

    #[test]
    fn store_cache_evicts_least_recently_used_but_never_keep() {
        let key = |n: i64| {
            let spec = Spec::new(vec![ExampleRow::new(
                Env::empty().bind(sym("x"), Value::Int(n)),
                Value::Int(n),
            )])
            .unwrap();
            (
                7,
                StoreKey::with_probes(&[(sym("x"), Type::Int)], &spec, &[]),
            )
        };
        let built = |_: &CacheKey| {
            let (mut st, _) = store_with_rows();
            st.ensure(2, &Library::default());
            st
        };
        let mut cache = StoreCache::default();
        for n in 0..3 {
            assert!(!cache.touch(key(n), built).1);
        }
        let one = cache.bytes() / 3;
        // Touching 0 makes 1 the least recently used.
        assert!(cache.touch(key(0), |_| unreachable!()).1);
        let keep = key(1);
        let evicted = cache.evict(2 * one, Some((keep.0, &keep.1)));
        assert_eq!(evicted.len(), 1);
        assert!(cache.take(&key(2)).is_none(), "2 is the oldest besides 1");
        // Nothing fits a zero budget but `keep` stays.
        assert_eq!(cache.evict(0, Some((keep.0, &keep.1))).len(), 1);
        assert_eq!(cache.len(), 1);
        assert!(cache.put(key(1), built(&key(1))).is_some(), "replaced");
        let drained: Vec<CacheKey> = cache.drain().into_iter().map(|(k, _)| k).collect();
        assert_eq!(drained, vec![key(1)]);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn warm_cache_parks_under_budget_and_counts_lookups() {
        let key = (1, StoreKey::with_probes(&[], &Spec::empty(), &[]));
        let built = || {
            let (mut st, _) = store_with_rows();
            st.ensure(2, &Library::default());
            st
        };
        let off = WarmCache::new(0);
        off.park(vec![(key.clone(), built())]);
        assert_eq!(off.snapshot(), WarmSnapshot::default());

        let warm = WarmCache::new(usize::MAX);
        assert!(warm.take(&key).is_none());
        warm.park(vec![(key.clone(), built())]);
        let snap = warm.snapshot();
        assert_eq!((snap.entries, snap.misses), (1, 1));
        assert_eq!(snap.bytes, built().bytes());
        assert!(warm.take(&key).is_some());
        assert_eq!(warm.snapshot().hits, 1);
    }

    #[test]
    fn store_bytes_grow_with_terms() {
        let (mut st, _) = store_with_rows();
        let b0 = st.bytes();
        st.ensure(1, &Library::default());
        let b1 = st.bytes();
        assert!(b1 > b0);
        st.ensure(3, &Library::default());
        assert!(st.bytes() > b1);
    }

    #[test]
    fn store_bytes_are_its_capacities() {
        let (mut st, _) = store_with_rows();
        st.ensure(5, &Library::default());
        let levels: usize = st.levels.iter().map(Vec::capacity).sum();
        let sum = st.terms.capacity() * size_of::<TermEntry>()
            + st.values.capacity() * 4
            + st.same_key.capacity() * 4
            + st.levels.capacity() * size_of::<Vec<usize>>()
            + levels * size_of::<usize>()
            + st.seen.capacity() * (size_of::<(u64, u32)>() + 1)
            + st.envs.capacity() * size_of::<Env>()
            + st.arena.bytes()
            + st.vals.bytes();
        assert_eq!(st.bytes(), sum);
        assert_eq!(st.bytes(), PINNED_BYTES);
        st.ensure(6, &Library::default());
        assert!(st.bytes() > sum);
    }

    #[test]
    fn limits_truncate_gracefully() {
        let (mut st, _) = store_with_rows();
        let limits = EnumLimits {
            max_level_terms: 5,
            max_terms: 10,
            synthetic_probes: true,
        };
        let mut st2 = TermStore::new(std::mem::take(&mut st.scope), &Spec::empty(), limits);
        // Empty spec means no OE dedup — limits must kick in. Caps are
        // approximate: each production may overshoot by one term per
        // operator before the check fires.
        st2.ensure(4, &Library::default());
        assert!(st2.truncated());
        assert!(st2.len() <= 10 + 40, "{}", st2.len());
    }
}
