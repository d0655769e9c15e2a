//! Semantics and typing of the first-order operators.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::ast::Op;
use crate::error::EvalError;
use crate::ty::Type;
use crate::value::{Tree, Value};

impl Op {
    /// The operator's type *scheme*. Variables `t0`, `t1` are implicitly
    /// universally quantified and must be instantiated (see
    /// [`crate::ty::Subst::instantiate`]) before unification.
    pub fn type_scheme(self) -> Type {
        let a = || Type::Var(0);
        let b = || Type::Var(1);
        match self {
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => {
                Type::fun(vec![Type::Int, Type::Int], Type::Int)
            }
            Op::Lt | Op::Le | Op::Gt | Op::Ge => Type::fun(vec![Type::Int, Type::Int], Type::Bool),
            Op::Eq | Op::Neq => Type::fun(vec![a(), a()], Type::Bool),
            Op::And | Op::Or => Type::fun(vec![Type::Bool, Type::Bool], Type::Bool),
            Op::Not => Type::fun(vec![Type::Bool], Type::Bool),
            Op::Cons => Type::fun(vec![a(), Type::list(a())], Type::list(a())),
            Op::Car | Op::Last => Type::fun(vec![Type::list(a())], a()),
            Op::Cdr => Type::fun(vec![Type::list(a())], Type::list(a())),
            Op::IsEmpty => Type::fun(vec![Type::list(a())], Type::Bool),
            Op::Cat => Type::fun(vec![Type::list(a()), Type::list(a())], Type::list(a())),
            Op::Member => Type::fun(vec![a(), Type::list(a())], Type::Bool),
            Op::TreeMake => Type::fun(vec![a(), Type::list(Type::tree(a()))], Type::tree(a())),
            Op::TreeValue => Type::fun(vec![Type::tree(a())], a()),
            Op::TreeChildren => Type::fun(vec![Type::tree(a())], Type::list(Type::tree(a()))),
            Op::IsEmptyTree => Type::fun(vec![Type::tree(a())], Type::Bool),
            Op::IsLeaf => Type::fun(vec![Type::tree(a())], Type::Bool),
            Op::MkPair => Type::fun(vec![a(), b()], Type::pair(a(), b())),
            Op::Fst => Type::fun(vec![Type::pair(a(), b())], a()),
            Op::Snd => Type::fun(vec![Type::pair(a(), b())], b()),
        }
    }

    /// Applies the operator to fully evaluated arguments, owned or
    /// borrowed.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] on shape mismatches, division by zero, and
    /// partial operations applied outside their domain (`car []`,
    /// `value {}`, …). These are routine during enumeration.
    pub fn apply<V: Borrow<Value>>(self, args: &[V]) -> Result<Value, EvalError> {
        if args.len() != self.arity() {
            return Err(EvalError::ArityMismatch);
        }
        // A unary operator reads only the first.
        let args: [&Value; 2] = [args[0].borrow(), args[args.len() - 1].borrow()];
        let int = |v: &Value| v.as_int().ok_or(EvalError::TypeMismatch);
        let boolean = |v: &Value| v.as_bool().ok_or(EvalError::TypeMismatch);
        match self {
            Op::Add => Ok(Value::Int(int(args[0])?.wrapping_add(int(args[1])?))),
            Op::Sub => Ok(Value::Int(int(args[0])?.wrapping_sub(int(args[1])?))),
            Op::Mul => Ok(Value::Int(int(args[0])?.wrapping_mul(int(args[1])?))),
            Op::Div => {
                let (a, b) = (int(args[0])?, int(args[1])?);
                if b == 0 {
                    Err(EvalError::DivByZero)
                } else {
                    Ok(Value::Int(a.wrapping_div(b)))
                }
            }
            Op::Mod => {
                let (a, b) = (int(args[0])?, int(args[1])?);
                if b == 0 {
                    Err(EvalError::DivByZero)
                } else {
                    Ok(Value::Int(a.wrapping_rem(b)))
                }
            }
            Op::Lt => Ok(Value::Bool(int(args[0])? < int(args[1])?)),
            Op::Le => Ok(Value::Bool(int(args[0])? <= int(args[1])?)),
            Op::Gt => Ok(Value::Bool(int(args[0])? > int(args[1])?)),
            Op::Ge => Ok(Value::Bool(int(args[0])? >= int(args[1])?)),
            Op::Eq => Ok(Value::Bool(first_order_eq(args[0], args[1])?)),
            Op::Neq => Ok(Value::Bool(!first_order_eq(args[0], args[1])?)),
            Op::And => Ok(Value::Bool(boolean(args[0])? && boolean(args[1])?)),
            Op::Or => Ok(Value::Bool(boolean(args[0])? || boolean(args[1])?)),
            Op::Not => Ok(Value::Bool(!boolean(args[0])?)),
            Op::Cons => {
                let xs = args[1].as_list().ok_or(EvalError::TypeMismatch)?;
                let mut out = Vec::with_capacity(xs.len() + 1);
                out.push(args[0].clone());
                out.extend_from_slice(xs);
                Ok(Value::list(out))
            }
            Op::Car => {
                let xs = args[0].as_list().ok_or(EvalError::TypeMismatch)?;
                xs.first().cloned().ok_or(EvalError::EmptyList)
            }
            Op::Cdr => {
                let xs = args[0].as_list().ok_or(EvalError::TypeMismatch)?;
                if xs.is_empty() {
                    Err(EvalError::EmptyList)
                } else {
                    Ok(Value::list(xs[1..].to_vec()))
                }
            }
            Op::Last => {
                let xs = args[0].as_list().ok_or(EvalError::TypeMismatch)?;
                xs.last().cloned().ok_or(EvalError::EmptyList)
            }
            Op::IsEmpty => {
                let xs = args[0].as_list().ok_or(EvalError::TypeMismatch)?;
                Ok(Value::Bool(xs.is_empty()))
            }
            Op::Cat => {
                let xs = args[0].as_list().ok_or(EvalError::TypeMismatch)?;
                let ys = args[1].as_list().ok_or(EvalError::TypeMismatch)?;
                let mut out = Vec::with_capacity(xs.len() + ys.len());
                out.extend_from_slice(xs);
                out.extend_from_slice(ys);
                Ok(Value::list(out))
            }
            Op::Member => {
                let xs = args[1].as_list().ok_or(EvalError::TypeMismatch)?;
                if !args[0].is_first_order() {
                    return Err(EvalError::TypeMismatch);
                }
                Ok(Value::Bool(xs.contains(args[0])))
            }
            Op::TreeMake => {
                let cs = args[1].as_list().ok_or(EvalError::TypeMismatch)?;
                let children = cs
                    .iter()
                    .map(|c| c.as_tree().cloned().ok_or(EvalError::TypeMismatch))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Tree(Tree::node(args[0].clone(), children)))
            }
            Op::TreeValue => {
                let t = args[0].as_tree().ok_or(EvalError::TypeMismatch)?;
                t.root()
                    .map(|n| n.value.clone())
                    .ok_or(EvalError::EmptyTree)
            }
            Op::TreeChildren => {
                let t = args[0].as_tree().ok_or(EvalError::TypeMismatch)?;
                let n = t.root().ok_or(EvalError::EmptyTree)?;
                Ok(Value::List(Arc::new(
                    n.children.iter().cloned().map(Value::Tree).collect(),
                )))
            }
            Op::IsEmptyTree => {
                let t = args[0].as_tree().ok_or(EvalError::TypeMismatch)?;
                Ok(Value::Bool(t.is_empty()))
            }
            Op::IsLeaf => {
                let t = args[0].as_tree().ok_or(EvalError::TypeMismatch)?;
                let n = t.root().ok_or(EvalError::EmptyTree)?;
                Ok(Value::Bool(n.children.is_empty()))
            }
            Op::MkPair => {
                if !args[0].is_first_order() || !args[1].is_first_order() {
                    return Err(EvalError::TypeMismatch);
                }
                Ok(Value::pair(args[0].clone(), args[1].clone()))
            }
            Op::Fst => {
                let (a, _) = args[0].as_pair().ok_or(EvalError::TypeMismatch)?;
                Ok(a.clone())
            }
            Op::Snd => {
                let (_, b) = args[0].as_pair().ok_or(EvalError::TypeMismatch)?;
                Ok(b.clone())
            }
        }
    }
}

/// Structural equality restricted to first-order values; comparing a
/// closure is a type error rather than silently using pointer identity.
fn first_order_eq(a: &Value, b: &Value) -> Result<bool, EvalError> {
    match (a, b) {
        (Value::Closure(_), _)
        | (_, Value::Closure(_))
        | (Value::Comb(_), _)
        | (_, Value::Comb(_)) => Err(EvalError::TypeMismatch),
        _ => Ok(a == b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(ns: &[i64]) -> Value {
        ns.iter().copied().map(Value::Int).collect()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            Op::Add.apply(&[Value::Int(2), Value::Int(3)]),
            Ok(Value::Int(5))
        );
        assert_eq!(
            Op::Sub.apply(&[Value::Int(2), Value::Int(3)]),
            Ok(Value::Int(-1))
        );
        assert_eq!(
            Op::Mul.apply(&[Value::Int(4), Value::Int(3)]),
            Ok(Value::Int(12))
        );
        assert_eq!(
            Op::Div.apply(&[Value::Int(7), Value::Int(2)]),
            Ok(Value::Int(3))
        );
        assert_eq!(
            Op::Mod.apply(&[Value::Int(7), Value::Int(2)]),
            Ok(Value::Int(1))
        );
        assert_eq!(
            Op::Div.apply(&[Value::Int(1), Value::Int(0)]),
            Err(EvalError::DivByZero)
        );
        assert_eq!(
            Op::Add.apply(&[Value::Bool(true), Value::Int(0)]),
            Err(EvalError::TypeMismatch)
        );
    }

    #[test]
    fn comparisons_and_booleans() {
        assert_eq!(
            Op::Lt.apply(&[Value::Int(1), Value::Int(2)]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            Op::Ge.apply(&[Value::Int(2), Value::Int(2)]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            Op::And.apply(&[Value::Bool(true), Value::Bool(false)]),
            Ok(Value::Bool(false))
        );
        assert_eq!(Op::Not.apply(&[Value::Bool(false)]), Ok(Value::Bool(true)));
    }

    #[test]
    fn equality_is_structural_on_any_first_order_type() {
        assert_eq!(
            Op::Eq.apply(&[ints(&[1, 2]), ints(&[1, 2])]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            Op::Neq.apply(&[Value::Int(1), Value::Int(2)]),
            Ok(Value::Bool(true))
        );
        // Mixed shapes are unequal, not errors (the type system rules them
        // out anyway, but evaluation must stay total on first-order values).
        assert_eq!(
            Op::Eq.apply(&[Value::Int(1), Value::Bool(true)]),
            Ok(Value::Bool(false))
        );
    }

    #[test]
    fn list_operations() {
        assert_eq!(
            Op::Cons.apply(&[Value::Int(1), ints(&[2, 3])]),
            Ok(ints(&[1, 2, 3]))
        );
        assert_eq!(Op::Car.apply(&[ints(&[9, 8])]), Ok(Value::Int(9)));
        assert_eq!(Op::Cdr.apply(&[ints(&[9, 8])]), Ok(ints(&[8])));
        assert_eq!(Op::Last.apply(&[ints(&[9, 8])]), Ok(Value::Int(8)));
        assert_eq!(Op::Car.apply(&[Value::nil()]), Err(EvalError::EmptyList));
        assert_eq!(Op::Cdr.apply(&[Value::nil()]), Err(EvalError::EmptyList));
        assert_eq!(Op::IsEmpty.apply(&[Value::nil()]), Ok(Value::Bool(true)));
        assert_eq!(
            Op::Cat.apply(&[ints(&[1]), ints(&[2, 3])]),
            Ok(ints(&[1, 2, 3]))
        );
        assert_eq!(
            Op::Member.apply(&[Value::Int(2), ints(&[1, 2])]),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            Op::Member.apply(&[Value::Int(5), ints(&[1, 2])]),
            Ok(Value::Bool(false))
        );
    }

    #[test]
    fn tree_operations() {
        let leaf = Value::Tree(Tree::node(Value::Int(7), vec![]));
        let made = Op::TreeMake
            .apply(&[Value::Int(1), Value::list(vec![leaf.clone()])])
            .unwrap();
        assert_eq!(made.to_string(), "{1 {7}}");
        assert_eq!(
            Op::TreeValue.apply(std::slice::from_ref(&made)),
            Ok(Value::Int(1))
        );
        assert_eq!(
            Op::TreeChildren.apply(std::slice::from_ref(&made)),
            Ok(Value::list(vec![leaf.clone()]))
        );
        assert_eq!(Op::IsLeaf.apply(&[leaf]), Ok(Value::Bool(true)));
        assert_eq!(Op::IsLeaf.apply(&[made]), Ok(Value::Bool(false)));
        let empty = Value::Tree(Tree::empty());
        assert_eq!(
            Op::IsEmptyTree.apply(std::slice::from_ref(&empty)),
            Ok(Value::Bool(true))
        );
        assert_eq!(Op::TreeValue.apply(&[empty]), Err(EvalError::EmptyTree));
    }

    #[test]
    fn pair_operations() {
        let p = Op::MkPair
            .apply(&[Value::Int(3), Value::Bool(true)])
            .unwrap();
        assert_eq!(p.to_string(), "(pair 3 true)");
        assert_eq!(Op::Fst.apply(std::slice::from_ref(&p)), Ok(Value::Int(3)));
        assert_eq!(Op::Snd.apply(&[p]), Ok(Value::Bool(true)));
        assert_eq!(
            Op::Fst.apply(&[Value::Int(1)]),
            Err(EvalError::TypeMismatch)
        );
        // Pairs participate in structural equality.
        let a = Value::pair(Value::Int(1), Value::Int(2));
        let b = Value::pair(Value::Int(1), Value::Int(2));
        assert_eq!(Op::Eq.apply(&[a, b]), Ok(Value::Bool(true)));
    }

    #[test]
    fn arity_is_enforced() {
        assert_eq!(
            Op::Add.apply(&[Value::Int(1)]),
            Err(EvalError::ArityMismatch)
        );
    }

    #[test]
    fn type_schemes_have_matching_arity() {
        for op in Op::ALL {
            match op.type_scheme() {
                Type::Fun(params, _) => assert_eq!(params.len(), op.arity(), "{op}"),
                other => panic!("scheme of {op} is not a function: {other}"),
            }
        }
    }
}
