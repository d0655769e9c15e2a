//! The type universe: every canonical type a term store meets, interned
//! once per process, and one memo of operator result types.
//!
//! A store evaluates a candidate only if it is well typed, so every
//! operator or `if` application looks up the result type of its argument
//! types. The answer depends only on the operator and the canonical
//! types, not on the store, its library, its spec or the search, so all
//! stores, searches and served requests of a process share one
//! append-only table of types (the idiom of the `Symbol` interner) and
//! one memo, and each result type is derived once per process:
//!
//! * a [`TyId`] is a handle to its interned type, so reading the type is
//!   one pointer dereference and takes no lock;
//! * each thread keeps a small direct-mapped front of the memo entries it
//!   used last, so a hit takes no lock; a miss takes the shared table's
//!   mutex and derives the result there unless another thread already
//!   has;
//! * types and memo entries are never freed. Their number is bounded by
//!   the distinct canonical types the process meets and the pairs of them
//!   that operators combine; a thread's front is a fixed size.
//!
//! Ids are handed out in arrival order, which depends on which problem
//! ran first and on thread timing, so nothing may depend on it. A type
//! also carries a structural [`TyId::fingerprint`], and the store's dedup
//! key hashes that instead, so a store's keys, and everything it keeps,
//! are the same in any process history.

#[cfg(test)]
use std::cell::Cell;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Mutex, MutexGuard, PoisonError};

use lambda2_lang::ast::Op;
use lambda2_lang::ty::Type;

use super::{canonical, join_types, op_result_type, WordHasher};

/// A canonical type interned in the process's type universe. Equal ids
/// are equal types; `Copy` and pointer-sized.
#[derive(Clone, Copy)]
pub struct TyId(&'static Interned);

struct Interned {
    ty: Type,
    /// Arrival order in the universe: it keys the memo and hashes the id,
    /// and orders nothing.
    index: u32,
    fingerprint: u64,
}

impl TyId {
    /// The id of `ty`'s canonical form, interning it if new.
    pub(crate) fn of(ty: &Type) -> TyId {
        universe().intern(canonical(ty))
    }

    /// The canonical type.
    #[inline]
    pub fn ty(self) -> &'static Type {
        &self.0.ty
    }

    /// A hash of the type's structure: the same in every process and
    /// whatever order types were interned in.
    #[inline]
    pub(crate) fn fingerprint(self) -> u64 {
        self.0.fingerprint
    }
}

impl PartialEq for TyId {
    #[inline]
    fn eq(&self, other: &TyId) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for TyId {}

impl Hash for TyId {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.index.hash(state);
    }
}

impl fmt::Debug for TyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TyId({})", self.0.ty)
    }
}

/// An operator (`None` for `if`) and its argument types' indices; the
/// second is [`NO_TY`] for a unary operator.
type ResultKey = (Option<Op>, u32, u32);

const NO_TY: u32 = u32::MAX;

fn key(op: Option<Op>, a: TyId, b: Option<TyId>) -> ResultKey {
    (op, a.0.index, b.map_or(NO_TY, |b| b.0.index))
}

struct Universe {
    /// Every interned type, in arrival order.
    types: Vec<TyId>,
    ids: HashMap<&'static Type, TyId, BuildHasherDefault<WordHasher>>,
    /// Every result type derived so far, `None` for ill-typed.
    results: HashMap<ResultKey, Option<TyId>, BuildHasherDefault<WordHasher>>,
}

static UNIVERSE: Mutex<Universe> = Mutex::new(Universe {
    types: Vec::new(),
    ids: HashMap::with_hasher(BuildHasherDefault::new()),
    results: HashMap::with_hasher(BuildHasherDefault::new()),
});

/// Slots in a thread's front: a direct-mapped cache of memo entries, so
/// the front stays small however large the memo grows.
const FRONT_SLOTS: usize = 1 << 13;

/// A front slot that no lookup matches: every key's first type is real.
const EMPTY: (ResultKey, Option<TyId>) = ((None, NO_TY, NO_TY), None);

thread_local! {
    /// This thread's front, allocated on its first lookup.
    static FRONT: RefCell<Vec<(ResultKey, Option<TyId>)>> = const { RefCell::new(Vec::new()) };
    /// Result types this thread derived.
    #[cfg(test)]
    static DERIVED: Cell<u64> = const { Cell::new(0) };
}

fn universe() -> MutexGuard<'static, Universe> {
    // The table only grows, one whole entry at a time: a lock poisoned
    // by a panic elsewhere still guards consistent data.
    UNIVERSE.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Universe {
    fn intern(&mut self, ty: Type) -> TyId {
        if let Some(&id) = self.ids.get(&ty) {
            return id;
        }
        let index = u32::try_from(self.types.len()).expect("fewer than 2^32 types");
        // Leaked on purpose: ids are `Copy` handles that must stay valid
        // for the life of the process.
        let interned: &'static Interned = Box::leak(Box::new(Interned {
            fingerprint: fingerprint(&ty),
            ty,
            index,
        }));
        let id = TyId(interned);
        self.types.push(id);
        self.ids.insert(&interned.ty, id);
        id
    }

    fn result_type(&mut self, op: Option<Op>, a: TyId, b: Option<TyId>) -> Option<TyId> {
        let key = key(op, a, b);
        if let Some(&ret) = self.results.get(&key) {
            return ret;
        }
        let ret = match (op, b) {
            (Some(op), None) => op_result_type(op, &[a.ty().clone()]),
            (Some(op), Some(b)) => op_result_type(op, &[a.ty().clone(), b.ty().clone()]),
            (None, Some(b)) => join_types(a.ty(), b.ty()),
            (None, None) => unreachable!("`if` joins two branch types"),
        };
        let ret = ret.map(|t| self.intern(canonical(&t)));
        self.results.insert(key, ret);
        #[cfg(test)]
        DERIVED.set(DERIVED.get() + 1);
        ret
    }
}

/// The canonical result type of `op` on arguments of types `a` and `b`
/// (`b` is `None` for a unary operator), or of an `if` with branch types
/// `a` and `b` when `op` is `None`; `None` if ill-typed.
#[inline]
pub(crate) fn result_type(op: Option<Op>, a: TyId, b: Option<TyId>) -> Option<TyId> {
    let key = key(op, a, b);
    let mut h = WordHasher::default();
    key.hash(&mut h);
    let slot = h.finish() as usize & (FRONT_SLOTS - 1);
    FRONT.with(|front| {
        let mut front = front.borrow_mut();
        if front.is_empty() {
            front.resize(FRONT_SLOTS, EMPTY);
        }
        if front[slot].0 == key {
            return front[slot].1;
        }
        let ret = universe().result_type(op, a, b);
        front[slot] = (key, ret);
        ret
    })
}

/// The size of the process's type universe. It depends on everything the
/// process has run, so it is a gauge for a live daemon, never part of a
/// deterministic record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UniverseSize {
    /// Canonical types interned.
    pub types: usize,
    /// Result types derived (well- and ill-typed).
    pub results: usize,
}

/// The current size of the type universe.
pub fn universe_size() -> UniverseSize {
    let u = universe();
    UniverseSize {
        types: u.types.len(),
        results: u.results.len(),
    }
}

/// A structural hash of a type, independent of interning order.
fn fingerprint(ty: &Type) -> u64 {
    fn walk(ty: &Type, h: &mut WordHasher) {
        match ty {
            Type::Int => h.add(1),
            Type::Bool => h.add(2),
            Type::List(e) => {
                h.add(3);
                walk(e, h);
            }
            Type::Tree(e) => {
                h.add(4);
                walk(e, h);
            }
            Type::Pair(a, b) => {
                h.add(5);
                walk(a, h);
                walk(b, h);
            }
            Type::Fun(ps, r) => {
                h.add(6);
                h.add(ps.len() as u64);
                ps.iter().for_each(|p| walk(p, h));
                walk(r, h);
            }
            Type::Var(v) => {
                h.add(7);
                h.add(u64::from(*v));
            }
        }
    }
    let mut h = WordHasher::default();
    walk(ty, &mut h);
    h.finish()
}

/// A memo entry: operator, argument types, result.
#[cfg(test)]
pub(super) type MemoEntry = (Option<Op>, TyId, Option<TyId>, Option<TyId>);

/// Every memo entry.
#[cfg(test)]
pub(super) fn memo_entries() -> Vec<MemoEntry> {
    let u = universe();
    let ty = |i: u32| u.types[i as usize];
    u.results
        .iter()
        .map(|(&(op, a, b), &ret)| (op, ty(a), (b != NO_TY).then(|| ty(b)), ret))
        .collect()
}

/// The number of result types this thread has derived.
#[cfg(test)]
pub(super) fn derived_here() -> u64 {
    DERIVED.get()
}
