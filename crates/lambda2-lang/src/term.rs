//! Arena-allocated closed terms.
//!
//! The enumerator's term stores hold millions of small first-order
//! expressions (literals, variables, operator applications, conditionals).
//! Building each as an [`Expr`] costs one heap allocation per node plus
//! pointer-chasing on every comparison. A [`TermArena`] instead keeps
//! every node in one append-only column whose children are [`TermId`]s,
//! so:
//!
//! * a term is one flat node that points at its subterms by `u32` id,
//! * stores index terms by dense `u32` ids instead of `Arc` pointers, and
//! * ids are `Copy + Send`, so stores can move across worker threads.
//!
//! The arena does not deduplicate: an id is the position the node was
//! pushed at, and ids are never invalidated. Uniqueness is the caller's
//! business — a term store pushes only terms that survived its
//! observational-equivalence dedup, built from distinct kept subterms, so
//! a store's arena holds each kept term once and a term's id is its
//! position in the store.
//!
//! Only the first-order fragment the enumerator actually builds is
//! represented ([`Node`]); lambdas, combinator applications, and holes
//! stay in [`Expr`] form, which the synthesizer's hypothesis layer uses.
//! [`TermArena::extract`] materializes an id back into a shared
//! [`Arc<Expr>`] (memoized, with maximal subtree sharing) at the points
//! where the synthesizer needs a real expression — hole fills and final
//! programs — which is rare compared to construction and comparison.

use std::sync::Arc;

use crate::ast::{Expr, Op};
use crate::symbol::Symbol;
use crate::value::Value;

/// A term's position in its [`TermArena`].
///
/// Ids are only meaningful within the arena that produced them; comparing
/// ids from different arenas is a logic error the type system does not
/// catch (stores own their arenas, so ids never travel between them).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena node: the first-order fragment of [`Expr`] with child
/// subtrees replaced by [`TermId`]s.
///
/// Operators are split by arity so a node is a flat, fixed-size value —
/// no boxed child slice, no indirection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A literal first-order value.
    Lit(Value),
    /// A variable reference.
    Var(Symbol),
    /// `(if c t e)`.
    If(TermId, TermId, TermId),
    /// A unary operator application.
    Op1(Op, TermId),
    /// A binary operator application.
    Op2(Op, TermId, TermId),
}

/// An append-only column of first-order term nodes.
#[derive(Debug, Default)]
pub struct TermArena {
    nodes: Vec<Node>,
    /// Memoized extraction cache, indexed by id and grown on demand.
    /// Interior mutability keeps [`TermArena::extract`] callable through
    /// `&self`; the cell never escapes, so the arena stays `Send`.
    extracted: std::cell::RefCell<Vec<Option<Arc<Expr>>>>,
}

impl TermArena {
    /// An empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Appends `node`; returns its id, the arena's length before the push.
    pub fn push(&mut self, node: Node) -> TermId {
        let id = TermId(u32::try_from(self.nodes.len()).expect("term arena overflowed u32 ids"));
        self.nodes.push(node);
        id
    }

    /// The node behind `id`.
    #[inline]
    pub fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Materializes `id` as a shared expression.
    ///
    /// Memoized per arena: each node is converted at most once, and
    /// repeated subtrees share one `Arc<Expr>` in the result.
    pub fn extract(&self, id: TermId) -> Arc<Expr> {
        if let Some(Some(e)) = self.extracted.borrow().get(id.index()) {
            return e.clone();
        }
        let expr = Arc::new(match self.node(id) {
            Node::Lit(v) => Expr::Lit(v.clone()),
            Node::Var(x) => Expr::Var(*x),
            Node::If(c, t, e) => Expr::If(self.extract(*c), self.extract(*t), self.extract(*e)),
            Node::Op1(op, a) => Expr::Op(*op, [(*self.extract(*a)).clone()].into()),
            Node::Op2(op, a, b) => Expr::Op(
                *op,
                [(*self.extract(*a)).clone(), (*self.extract(*b)).clone()].into(),
            ),
        });
        let mut memo = self.extracted.borrow_mut();
        if memo.len() <= id.index() {
            memo.resize(id.index() + 1, None);
        }
        memo[id.index()] = Some(expr.clone());
        expr
    }

    /// Renders `id` without keeping an [`Expr`] (test/debug aid).
    pub fn render(&self, id: TermId) -> String {
        self.extract(id).to_string()
    }

    /// The bytes the node column owns: its capacity. The extraction memo
    /// is a read cache of the few terms that become hole fills and
    /// programs; it is left out, so the count depends only on the nodes
    /// pushed.
    pub fn bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<Node>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(arena: &mut TermArena, a: TermId, b: TermId) -> TermId {
        arena.push(Node::Op2(Op::Add, a, b))
    }

    #[test]
    fn an_id_is_the_push_position() {
        let mut arena = TermArena::new();
        let one = arena.push(Node::Lit(Value::Int(1)));
        let again = arena.push(Node::Lit(Value::Int(1)));
        assert_eq!((one.index(), again.index()), (0, 1));
        assert_eq!(arena.node(again), &Node::Lit(Value::Int(1)));
    }

    #[test]
    fn extraction_matches_direct_construction() {
        let mut arena = TermArena::new();
        let one = arena.push(Node::Lit(Value::Int(1)));
        let x = arena.push(Node::Var(Symbol::intern("x")));
        let sum = add(&mut arena, one, x);
        let neg = arena.push(Node::Op1(Op::Not, x));
        let iff = arena.push(Node::If(neg, sum, one));
        assert_eq!(arena.render(iff), "(if (~ x) (+ 1 x) 1)");
        assert_eq!(arena.extract(iff).size(), 7);
    }

    #[test]
    fn extraction_is_memoized_and_shares_subtrees() {
        let mut arena = TermArena::new();
        let x = arena.push(Node::Var(Symbol::intern("x")));
        let sum = add(&mut arena, x, x);
        let outer = add(&mut arena, sum, sum);
        let e = arena.extract(outer);
        match &*e {
            Expr::Op(Op::Add, args) => {
                assert_eq!(args[0], args[1]);
            }
            other => panic!("expected op, got {other}"),
        }
        // Second extraction returns the identical Arc.
        assert!(Arc::ptr_eq(&e, &arena.extract(outer)));
    }
}
