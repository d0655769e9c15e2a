//! Value ids: the hash-consed outputs of a [`super::TermStore`].
//!
//! A store keeps one output per (term, environment). Most of them repeat
//! — small integers, booleans, the same few errors, the same lists — so
//! the store's value column holds [`ValId`]s instead of values, and a
//! per-store [`ValueTable`] holds each distinct value once, the way the
//! term arena holds each distinct term once:
//!
//! * integers that fit in 29 signed bits, booleans and the data-free
//!   [`EvalError`]s are *immediate*: the id encodes the value itself;
//! * every other output (lists, trees, pairs, large integers, errors that
//!   carry a symbol or hole) is *boxed*: interned once in the table, and
//!   the id is its index.
//!
//! Within one table, two ids are equal **iff** their outputs are equal,
//! so dedup hashes and compares `u32` slices, and operator results are
//! memoized on `(op, id, id)`.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use lambda2_lang::ast::Op;
use lambda2_lang::error::EvalError;
use lambda2_lang::value::Value;

use super::{KeyHasher, Output, WordHasher};

/// A term's output on one environment, as an id of its store's
/// [`ValueTable`]. The low three bits are a tag; the upper 29 are an
/// immediate payload or a table index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct ValId(u32);

const TAG_BITS: u32 = 3;
/// A boxed `Ok` value: the payload indexes the table.
const BOXED: u32 = 0;
/// A boxed error (one that carries data): the payload indexes the table.
const BOXED_ERR: u32 = 1;
/// An immediate integer: the payload is its 29-bit two's complement.
const INT: u32 = 2;
/// An immediate boolean: the payload is 0 or 1.
const BOOL: u32 = 3;
/// An immediate data-free error: the payload indexes [`ERRORS`].
const ERR: u32 = 4;

/// The data-free errors, in payload order.
const ERRORS: [EvalError; 7] = [
    EvalError::TypeMismatch,
    EvalError::DivByZero,
    EvalError::EmptyList,
    EvalError::EmptyTree,
    EvalError::ArityMismatch,
    EvalError::NotAFunction,
    EvalError::OutOfFuel,
];

impl ValId {
    const FALSE: ValId = ValId(BOOL);
    const TRUE: ValId = ValId(1 << TAG_BITS | BOOL);
    const TYPE_MISMATCH: ValId = ValId(ERR);
    /// Stands for the missing right argument in a unary operator's memo
    /// key; no output has this id (its tag is unused).
    const NONE: ValId = ValId(u32::MAX);

    #[inline]
    fn tag(self) -> u32 {
        self.0 & ((1 << TAG_BITS) - 1)
    }

    #[inline]
    fn index(self) -> usize {
        (self.0 >> TAG_BITS) as usize
    }

    /// `true` for an error output.
    #[inline]
    pub(crate) fn is_err(self) -> bool {
        matches!(self.tag(), BOXED_ERR | ERR)
    }

    #[inline]
    fn is_boxed(self) -> bool {
        self.tag() <= BOXED_ERR
    }

    /// The raw id, for hashing.
    #[inline]
    pub(crate) fn bits(self) -> u32 {
        self.0
    }

    /// The immediate id of `out`, if it has one.
    #[inline]
    fn immediate(out: &Output) -> Option<ValId> {
        let (payload, tag) = match out {
            Ok(Value::Int(n)) if (-(1 << 28)..1 << 28).contains(n) => (*n as u32, INT),
            Ok(Value::Bool(b)) => (u32::from(*b), BOOL),
            Ok(_) => return None,
            Err(e) => (ERRORS.iter().position(|x| x == e)? as u32, ERR),
        };
        Some(ValId(payload << TAG_BITS | tag))
    }

    /// `if`'s output from its condition's, then-branch's and
    /// else-branch's: a condition's error passes through, and a condition
    /// that is not a boolean is a [`EvalError::TypeMismatch`].
    #[inline]
    pub(crate) fn select(cond: ValId, then: ValId, els: ValId) -> ValId {
        match cond {
            ValId::TRUE => then,
            ValId::FALSE => els,
            c if c.is_err() => c,
            _ => ValId::TYPE_MISMATCH,
        }
    }
}

/// A store's table of boxed outputs and its operator memo.
#[derive(Debug, Default)]
pub(crate) struct ValueTable {
    /// Every boxed output once; a boxed id's payload indexes it.
    boxed: Vec<Output>,
    /// The heap behind the boxed outputs, counted once per output when it
    /// is interned: [`Value::size`] values of `size_of::<Value>()` each.
    heap: usize,
    /// The word-wise hash of each boxed output to its id. Keyed by the
    /// hash itself, so growing the map never hashes a value again.
    index: HashMap<u64, ValId, BuildHasherDefault<KeyHasher>>,
    /// The boxed outputs whose hash an earlier, different output took.
    collided: HashMap<Output, ValId, BuildHasherDefault<WordHasher>>,
    /// The result of each operator application on a boxed argument
    /// computed so far (a unary operator's right argument is
    /// [`ValId::NONE`]).
    memo: HashMap<(Op, ValId, ValId), ValId, BuildHasherDefault<WordHasher>>,
}

impl ValueTable {
    /// The id of `out`, interning it if it is boxed and new.
    pub(crate) fn intern(&mut self, out: Output) -> ValId {
        if let Some(id) = ValId::immediate(&out) {
            return id;
        }
        match self.index.entry(hash(&out)) {
            Entry::Vacant(e) => *e.insert(push(&mut self.boxed, &mut self.heap, out)),
            Entry::Occupied(e) => {
                let id = *e.get();
                if self.boxed[id.index()] == out {
                    return id;
                }
                match self.collided.entry(out) {
                    Entry::Occupied(c) => *c.get(),
                    Entry::Vacant(c) => {
                        let id = push(&mut self.boxed, &mut self.heap, c.key().clone());
                        *c.insert(id)
                    }
                }
            }
        }
    }

    /// The id of `out` if this table has one, without interning.
    pub(crate) fn lookup(&self, out: &Output) -> Option<ValId> {
        if let Some(id) = ValId::immediate(out) {
            return Some(id);
        }
        let id = *self.index.get(&hash(out))?;
        if self.boxed[id.index()] == *out {
            Some(id)
        } else {
            self.collided.get(out).copied()
        }
    }

    /// The output an id stands for.
    #[cfg(any(test, feature = "check-invariants"))]
    pub(crate) fn get(&self, id: ValId) -> Output {
        match id.tag() {
            BOXED_ERR => self.boxed[id.index()].clone(),
            ERR => Err(ERRORS[id.index()]),
            _ => Ok(self.value(id)),
        }
    }

    /// The value of an id that is not an error.
    pub(crate) fn value(&self, id: ValId) -> Value {
        self.arg(id).into_owned()
    }

    /// The value of an id that is not an error, borrowed from the table
    /// if it is boxed.
    #[inline]
    fn arg(&self, id: ValId) -> Cow<'_, Value> {
        match id.tag() {
            BOXED => match &self.boxed[id.index()] {
                Ok(v) => Cow::Borrowed(v),
                Err(_) => unreachable!("boxed errors have their own tag"),
            },
            INT => Cow::Owned(Value::Int(i64::from(id.0 as i32 >> TAG_BITS))),
            BOOL => Cow::Owned(Value::Bool(id.index() != 0)),
            _ => unreachable!("an argument that is not an error"),
        }
    }

    /// The bytes the table owns: its vector's and maps' capacities and
    /// the boxed outputs' heap.
    pub(crate) fn bytes(&self) -> usize {
        self.boxed.capacity() * size_of::<Output>()
            + map_bytes(&self.index)
            + map_bytes(&self.collided)
            + map_bytes(&self.memo)
            + self.heap
    }

    /// `op`'s output on one argument. An error argument passes through;
    /// an immediate argument, or a `scalar` result (`int` or `bool`, so
    /// immediate but for large integers), is computed directly; any other
    /// application is memoized.
    #[inline]
    pub(crate) fn apply1(&mut self, op: Op, a: ValId, scalar: bool) -> ValId {
        if a.is_err() {
            return a;
        }
        if scalar || !a.is_boxed() {
            return self.intern(op.apply(&[self.arg(a)]));
        }
        self.memoized(op, a, ValId::NONE, |t| op.apply(&[t.arg(a)]))
    }

    /// `op`'s output on two arguments, as [`ValueTable::apply1`]: the
    /// first error among them passes through, and two immediates are
    /// computed directly.
    #[inline]
    pub(crate) fn apply2(&mut self, op: Op, a: ValId, b: ValId, scalar: bool) -> ValId {
        if a.is_err() {
            return a;
        }
        if b.is_err() {
            return b;
        }
        if scalar || !a.is_boxed() && !b.is_boxed() {
            return self.intern(op.apply(&[self.arg(a), self.arg(b)]));
        }
        self.memoized(op, a, b, |t| op.apply(&[t.arg(a), t.arg(b)]))
    }

    /// The memoized id of `op` on `a` and `b`; on a miss, `apply`
    /// computes the output and it is interned.
    fn memoized(
        &mut self,
        op: Op,
        a: ValId,
        b: ValId,
        apply: impl FnOnce(&ValueTable) -> Output,
    ) -> ValId {
        if let Some(&id) = self.memo.get(&(op, a, b)) {
            return id;
        }
        let out = apply(self);
        let id = self.intern(out);
        self.memo.insert((op, a, b), id);
        id
    }
}

/// Appends a boxed output to the table and adds its heap to `heap`;
/// returns its id.
fn push(boxed: &mut Vec<Output>, heap: &mut usize, out: Output) -> ValId {
    let n = u32::try_from(boxed.len())
        .ok()
        .filter(|n| n >> (32 - TAG_BITS) == 0)
        .expect("fewer than 2^29 distinct values in one store");
    let tag = match &out {
        Ok(v) => {
            *heap += v.size() * size_of::<Value>();
            BOXED
        }
        Err(_) => BOXED_ERR,
    };
    boxed.push(out);
    ValId(n << TAG_BITS | tag)
}

/// The bytes a hash map's table owns: one key, value and control byte per
/// slot of its capacity.
pub(crate) fn map_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    map.capacity() * (size_of::<(K, V)>() + 1)
}

/// The word-wise hash of an output.
fn hash(out: &Output) -> u64 {
    let mut h = WordHasher::default();
    out.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_lang::parser::parse_value;
    use lambda2_lang::symbol::Symbol;

    fn every_error() -> Vec<EvalError> {
        let mut errors = ERRORS.to_vec();
        errors.extend([EvalError::Unbound(Symbol::intern("q")), EvalError::Hole(3)]);
        errors
    }

    #[test]
    fn scalars_and_errors_round_trip() {
        let mut t = ValueTable::default();
        let ints = [
            0,
            1,
            -1,
            (1 << 28) - 1,
            -(1 << 28),
            1 << 28,
            -(1 << 28) - 1,
            i64::MAX,
            i64::MIN,
        ];
        let outputs = ints
            .iter()
            .map(|&n| Ok(Value::Int(n)))
            .chain([Ok(Value::Bool(false)), Ok(Value::Bool(true))])
            .chain(every_error().into_iter().map(Err));
        for out in outputs {
            let id = t.intern(out.clone());
            assert_eq!(t.get(id), out, "{id:?}");
            assert_eq!(t.intern(t.get(id)), id);
            assert_eq!(t.lookup(&out), Some(id));
            assert_eq!(id.is_err(), out.is_err());
        }
        // The range ends of 29 signed bits are immediate; one past either
        // end, the 64-bit extremes and errors with data are boxed.
        assert_eq!(
            t.boxed,
            vec![
                Ok(Value::Int(1 << 28)),
                Ok(Value::Int(-(1 << 28) - 1)),
                Ok(Value::Int(i64::MAX)),
                Ok(Value::Int(i64::MIN)),
                Err(EvalError::Unbound(Symbol::intern("q"))),
                Err(EvalError::Hole(3)),
            ]
        );
        assert_eq!(t.intern(Ok(Value::Bool(true))), ValId::TRUE);
        assert_eq!(t.intern(Err(EvalError::TypeMismatch)), ValId::TYPE_MISMATCH);
    }

    #[test]
    fn id_equality_is_output_equality() {
        let mut t = ValueTable::default();
        let outputs: Vec<Output> = ["[1 2]", "[1 2]", "[]", "{1 {2}}", "(pair 1 [])", "[[]]"]
            .iter()
            .map(|s| Ok(parse_value(s).unwrap()))
            .chain([
                Ok(Value::Int(7)),
                Ok(Value::Int(i64::MAX)),
                Ok(Value::Bool(true)),
            ])
            .chain(every_error().into_iter().map(Err))
            .collect();
        let ids: Vec<ValId> = outputs.iter().map(|o| t.intern(o.clone())).collect();
        for (a, ia) in outputs.iter().zip(&ids) {
            for (b, ib) in outputs.iter().zip(&ids) {
                assert_eq!(a == b, ia == ib, "{a:?} vs {b:?}");
            }
        }
        // A value that was never interned has no id.
        assert_eq!(t.lookup(&Ok(parse_value("[3]").unwrap())), None);
    }

    #[test]
    fn table_bytes_count_each_distinct_value_once() {
        let mut t = ValueTable::default();
        for s in ["[1 2]", "[1 2]", "{1 {2}}", "[]", "3"] {
            t.intern(Ok(parse_value(s).unwrap()));
        }
        t.intern(Err(EvalError::Hole(3)));
        let l = t.intern(Ok(parse_value("[4 5]").unwrap()));
        t.apply1(Op::Cdr, l, false);
        // [1 2] is 3 values, {1 {2}} 3, [] 1, [4 5] 3 and its cdr [5] 2;
        // the immediate 3 and the error own no heap.
        assert_eq!(t.heap, 12 * size_of::<Value>());
        let maps = t.index.capacity() * (size_of::<(u64, ValId)>() + 1)
            + t.collided.capacity() * (size_of::<(Output, ValId)>() + 1)
            + t.memo.capacity() * (size_of::<((Op, ValId, ValId), ValId)>() + 1);
        assert_eq!(
            t.bytes(),
            t.boxed.capacity() * size_of::<Output>() + maps + t.heap
        );
    }

    #[test]
    fn outputs_whose_hashes_collide_keep_their_own_ids() {
        // The word-wise hash is invertible, so examples can make two
        // values collide: choose the last element of one list so that it
        // leaves the hasher in the same state as another list.
        let mul = {
            let mut h = WordHasher::default();
            h.add(1);
            h.0
        };
        let mut inv: u64 = 1; // mul⁻¹ mod 2⁶⁴, by Newton's iteration
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(mul.wrapping_mul(inv)));
        }
        let pair =
            |a: i64, b: i64| -> Output { Ok(Value::list(vec![Value::Int(a), Value::Int(b)])) };
        // The hasher's state before the last word of `[a 0]`, rotated.
        let before_last = |a| {
            let y = hash(&pair(a, 0));
            (y ^ (y >> 32)).wrapping_mul(inv)
        };
        let x = pair(1, 0);
        let y = pair(2, (before_last(1) ^ before_last(2)) as i64);
        assert_eq!(hash(&x), hash(&y));
        assert_ne!(x, y);
        let mut t = ValueTable::default();
        let (ix, iy) = (t.intern(x.clone()), t.intern(y.clone()));
        assert_ne!(ix, iy);
        assert_eq!((t.intern(x.clone()), t.intern(y.clone())), (ix, iy));
        assert_eq!((t.lookup(&x), t.lookup(&y)), (Some(ix), Some(iy)));
        assert_eq!((t.get(ix), t.get(iy)), (x, y));
    }

    #[test]
    fn operators_agree_with_the_interpreter() {
        let mut t = ValueTable::default();
        let l = t.intern(Ok(parse_value("[4 5]").unwrap()));
        let nil = t.intern(Ok(Value::nil()));
        let (one, big) = (
            t.intern(Ok(Value::Int(1))),
            t.intern(Ok(Value::Int(i64::MAX))),
        );
        let div = t.intern(Err(EvalError::DivByZero));
        // Memoized and computed directly, one answer.
        for scalar in [false, true] {
            let (car, car_nil) = (t.apply1(Op::Car, l, scalar), t.apply1(Op::Car, nil, scalar));
            assert_eq!(t.get(car), Ok(Value::Int(4)));
            assert_eq!(t.get(car_nil), Err(EvalError::EmptyList));
            assert_eq!(t.apply2(Op::Eq, l, l, scalar), ValId::TRUE);
        }
        let cons = t.apply2(Op::Cons, one, l, false);
        assert_eq!(t.get(cons), Ok(parse_value("[1 4 5]").unwrap()));
        assert_eq!(t.apply2(Op::Cons, one, l, false), cons, "memoized");
        assert_eq!(t.apply1(Op::Cdr, cons, false), l, "hash-consed");
        // An immediate result out of range is boxed.
        let wrapped = t.apply2(Op::Add, big, one, true);
        assert_eq!(t.get(wrapped), Ok(Value::Int(i64::MIN)));
        assert_eq!(
            t.apply2(Op::Add, big, big, true),
            t.intern(Ok(Value::Int(-2)))
        );
        // The first error passes through.
        assert_eq!(t.apply2(Op::Add, div, big, true), div);
        assert_eq!(t.apply2(Op::Cons, one, div, false), div);
        assert_eq!(t.apply1(Op::Not, div, true), div);
    }

    #[test]
    fn if_selects_a_branch_and_rejects_a_non_boolean() {
        let mut t = ValueTable::default();
        let (x, y) = (t.intern(Ok(Value::Int(1))), t.intern(Ok(Value::nil())));
        let empty = t.intern(Err(EvalError::EmptyList));
        assert_eq!(ValId::select(ValId::TRUE, x, y), x);
        assert_eq!(ValId::select(ValId::FALSE, x, y), y);
        assert_eq!(ValId::select(empty, x, y), empty);
        for cond in [x, y] {
            assert_eq!(
                t.get(ValId::select(cond, x, y)),
                Err(EvalError::TypeMismatch)
            );
        }
    }
}
