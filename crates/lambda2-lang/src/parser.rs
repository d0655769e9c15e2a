//! S-expression front end.
//!
//! The surface syntax mirrors the paper's examples:
//!
//! ```text
//! values      42   true   [1 2 3]   {1 {2} {3 {4}}}   [[1] []]
//! expressions (map (lambda (x) (+ x 1)) l)   (if (empty? l) 0 1)   ?0
//! types       int   bool   [int]   (tree [int])
//! ```
//!
//! Parsing goes through a generic [`Sexp`] layer so that higher levels
//! (problem files, the CLI) can reuse the reader.

use std::fmt;

use crate::ast::{Comb, Expr, Op};
use crate::error::ParseError;
use crate::symbol::Symbol;
use crate::ty::Type;
use crate::value::{Tree, Value};

/// A generic s-expression: atoms plus three bracket shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Sexp {
    /// A bare token (`foo`, `42`, `+`, `?3`).
    Atom(String),
    /// `( … )` — applications and special forms.
    List(Vec<Sexp>),
    /// `[ … ]` — list literals and list types.
    Bracket(Vec<Sexp>),
    /// `{ … }` — tree literals.
    Brace(Vec<Sexp>),
}

impl fmt::Display for Sexp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn seq(f: &mut fmt::Formatter<'_>, items: &[Sexp], open: char, close: char) -> fmt::Result {
            write!(f, "{open}")?;
            for (i, s) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{s}")?;
            }
            write!(f, "{close}")
        }
        match self {
            Sexp::Atom(a) => f.write_str(a),
            Sexp::List(xs) => seq(f, xs, '(', ')'),
            Sexp::Bracket(xs) => seq(f, xs, '[', ']'),
            Sexp::Brace(xs) => seq(f, xs, '{', '}'),
        }
    }
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

#[derive(Debug, PartialEq)]
enum Token {
    Open(char),
    Close(char),
    Atom(String),
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer { src, pos: 0 }
    }

    fn skip_trivia(&mut self) {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let c = bytes[self.pos];
            if c == b';' {
                // Line comment.
                while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else if c.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Option<Token>, ParseError> {
        self.skip_trivia();
        let bytes = self.src.as_bytes();
        if self.pos >= bytes.len() {
            return Ok(None);
        }
        let c = bytes[self.pos] as char;
        match c {
            '(' | '[' | '{' => {
                self.pos += 1;
                Ok(Some(Token::Open(c)))
            }
            ')' | ']' | '}' => {
                self.pos += 1;
                Ok(Some(Token::Close(c)))
            }
            _ => {
                let start = self.pos;
                while self.pos < bytes.len() {
                    let c = bytes[self.pos] as char;
                    if c.is_ascii_whitespace() || "()[]{};".contains(c) {
                        break;
                    }
                    self.pos += 1;
                }
                if self.pos == start {
                    return Err(ParseError::new(
                        start,
                        format!("unexpected character `{c}`"),
                    ));
                }
                Ok(Some(Token::Atom(self.src[start..self.pos].to_owned())))
            }
        }
    }
}

fn closer_of(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        '{' => '}',
        other => unreachable!("closer_of is only called on open brackets, got `{other}`"),
    }
}

/// How deeply brackets may nest. The reader (and every interpreter of
/// its output) recurses once per level, so an unbounded depth lets one
/// hostile input overflow the stack and abort the process; real problems
/// nest a handful of levels.
const MAX_DEPTH: usize = 256;

fn read_sexp(lex: &mut Lexer<'_>, depth: usize) -> Result<Option<Sexp>, ParseError> {
    let start = lex.pos;
    match lex.next()? {
        None => Ok(None),
        Some(Token::Atom(a)) => Ok(Some(Sexp::Atom(a))),
        Some(Token::Close(c)) => Err(ParseError::new(start, format!("unexpected `{c}`"))),
        Some(Token::Open(_)) if depth == MAX_DEPTH => Err(ParseError::new(
            start,
            format!("brackets nest deeper than {MAX_DEPTH}"),
        )),
        Some(Token::Open(open)) => {
            let mut items = Vec::new();
            loop {
                let save = lex.pos;
                lex.skip_trivia();
                let probe = lex.pos;
                match lex.next()? {
                    None => {
                        return Err(ParseError::new(
                            probe,
                            format!("unterminated `{open}` (expected `{}`)", closer_of(open)),
                        ))
                    }
                    Some(Token::Close(c)) if c == closer_of(open) => break,
                    Some(Token::Close(c)) => {
                        return Err(ParseError::new(probe, format!("mismatched `{c}`")))
                    }
                    _ => {
                        lex.pos = save;
                        match read_sexp(lex, depth + 1)? {
                            Some(s) => items.push(s),
                            None => unreachable!("lexer produced a token above"),
                        }
                    }
                }
            }
            Ok(Some(match open {
                '(' => Sexp::List(items),
                '[' => Sexp::Bracket(items),
                '{' => Sexp::Brace(items),
                other => unreachable!("delimited reads start at an open bracket, got `{other}`"),
            }))
        }
    }
}

/// Parses a single s-expression; trailing input is an error.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed or trailing input, including
/// brackets nested more than 256 deep.
pub fn parse_sexp(src: &str) -> Result<Sexp, ParseError> {
    let mut lex = Lexer::new(src);
    let sexp = read_sexp(&mut lex, 0)?.ok_or_else(|| ParseError::new(0, "empty input"))?;
    lex.skip_trivia();
    if lex.pos < src.len() {
        return Err(ParseError::new(lex.pos, "trailing input"));
    }
    Ok(sexp)
}

/// Parses a whole file of s-expressions.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, including brackets nested
/// more than 256 deep.
pub fn parse_sexps(src: &str) -> Result<Vec<Sexp>, ParseError> {
    let mut lex = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(s) = read_sexp(&mut lex, 0)? {
        out.push(s);
    }
    Ok(out)
}

/// Interprets an [`Sexp`] as a first-order value.
///
/// # Errors
///
/// Returns [`ParseError`] if the s-expression is not a value form.
pub fn value_of_sexp(sexp: &Sexp) -> Result<Value, ParseError> {
    match sexp {
        Sexp::Atom(a) => match a.as_str() {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => a
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| ParseError::new(0, format!("`{a}` is not a value"))),
        },
        Sexp::Bracket(items) => items
            .iter()
            .map(value_of_sexp)
            .collect::<Result<Vec<_>, _>>()
            .map(Value::list),
        Sexp::Brace(items) => {
            if items.is_empty() {
                return Ok(Value::Tree(Tree::empty()));
            }
            let v = value_of_sexp(&items[0])?;
            let children = items[1..]
                .iter()
                .map(|c| {
                    value_of_sexp(c).and_then(|cv| {
                        cv.as_tree()
                            .cloned()
                            .ok_or_else(|| ParseError::new(0, "tree child must be a tree"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Value::Tree(Tree::node(v, children)))
        }
        Sexp::List(items) => match items.split_first() {
            Some((Sexp::Atom(head), rest)) if head == "pair" && rest.len() == 2 => Ok(Value::pair(
                value_of_sexp(&rest[0])?,
                value_of_sexp(&rest[1])?,
            )),
            _ => Err(ParseError::new(
                0,
                "`(…)` is not a value form (except `(pair v v)`)",
            )),
        },
    }
}

/// Parses a value from source text (`42`, `[1 2]`, `{1 {2}}` …).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
///
/// # Examples
///
/// ```
/// use lambda2_lang::parser::parse_value;
/// let v = parse_value("[[1 2] []]")?;
/// assert_eq!(v.to_string(), "[[1 2] []]");
/// # Ok::<(), lambda2_lang::error::ParseError>(())
/// ```
pub fn parse_value(src: &str) -> Result<Value, ParseError> {
    value_of_sexp(&parse_sexp(src)?)
}

/// Interprets an [`Sexp`] as a type.
///
/// # Errors
///
/// Returns [`ParseError`] if the s-expression is not a type form.
pub fn type_of_sexp(sexp: &Sexp) -> Result<Type, ParseError> {
    match sexp {
        Sexp::Atom(a) => match a.as_str() {
            "int" => Ok(Type::Int),
            "bool" => Ok(Type::Bool),
            _ => Err(ParseError::new(0, format!("unknown type `{a}`"))),
        },
        Sexp::Bracket(items) => {
            if items.len() != 1 {
                return Err(ParseError::new(
                    0,
                    "list type takes exactly one element type",
                ));
            }
            Ok(Type::list(type_of_sexp(&items[0])?))
        }
        Sexp::List(items) => match items.split_first() {
            Some((Sexp::Atom(head), rest)) if head == "tree" && rest.len() == 1 => {
                Ok(Type::tree(type_of_sexp(&rest[0])?))
            }
            Some((Sexp::Atom(head), rest)) if head == "pair" && rest.len() == 2 => {
                Ok(Type::pair(type_of_sexp(&rest[0])?, type_of_sexp(&rest[1])?))
            }
            _ => Err(ParseError::new(0, "expected `(tree τ)` or `(pair τ τ)`")),
        },
        Sexp::Brace(_) => Err(ParseError::new(0, "`{…}` is not a type form")),
    }
}

/// Parses a type from source text (`int`, `[int]`, `(tree [int])` …).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_type(src: &str) -> Result<Type, ParseError> {
    type_of_sexp(&parse_sexp(src)?)
}

/// Interprets an [`Sexp`] as an expression.
///
/// # Errors
///
/// Returns [`ParseError`] if the s-expression is not an expression form.
pub fn expr_of_sexp(sexp: &Sexp) -> Result<Expr, ParseError> {
    match sexp {
        Sexp::Atom(a) => {
            if a == "true" || a == "false" {
                return Ok(Expr::bool(a == "true"));
            }
            if let Ok(n) = a.parse::<i64>() {
                return Ok(Expr::int(n));
            }
            if let Some(rest) = a.strip_prefix('?') {
                let id = rest
                    .parse::<u32>()
                    .map_err(|_| ParseError::new(0, format!("bad hole `{a}`")))?;
                return Ok(Expr::Hole(id));
            }
            if let Some(c) = Comb::from_name(a) {
                return Ok(Expr::Comb(c));
            }
            Ok(Expr::Var(Symbol::intern(a)))
        }
        Sexp::Bracket(_) | Sexp::Brace(_) => value_of_sexp(sexp).map(Expr::Lit),
        Sexp::List(items) => {
            let (head, rest) = items
                .split_first()
                .ok_or_else(|| ParseError::new(0, "empty application"))?;
            if let Sexp::Atom(a) = head {
                match a.as_str() {
                    "if" => {
                        if rest.len() != 3 {
                            return Err(ParseError::new(0, "`if` takes three arguments"));
                        }
                        return Ok(Expr::if_(
                            expr_of_sexp(&rest[0])?,
                            expr_of_sexp(&rest[1])?,
                            expr_of_sexp(&rest[2])?,
                        ));
                    }
                    "lambda" => {
                        if rest.len() != 2 {
                            return Err(ParseError::new(
                                0,
                                "`lambda` takes a binder list and a body",
                            ));
                        }
                        let Sexp::List(binders) = &rest[0] else {
                            return Err(ParseError::new(0, "lambda binders must be `(x …)`"));
                        };
                        let params = binders
                            .iter()
                            .map(|b| match b {
                                Sexp::Atom(x) => Ok(Symbol::intern(x)),
                                _ => Err(ParseError::new(0, "binder must be an identifier")),
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                        return Ok(Expr::lambda(params, expr_of_sexp(&rest[1])?));
                    }
                    _ => {
                        if let Some(op) = Op::from_name(a) {
                            if rest.len() != op.arity() {
                                return Err(ParseError::new(
                                    0,
                                    format!("`{a}` takes {} arguments", op.arity()),
                                ));
                            }
                            let args = rest
                                .iter()
                                .map(expr_of_sexp)
                                .collect::<Result<Vec<_>, _>>()?;
                            return Ok(Expr::Op(op, args.into()));
                        }
                    }
                }
            }
            let f = expr_of_sexp(head)?;
            let args = rest
                .iter()
                .map(expr_of_sexp)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Expr::App(f.into(), args.into()))
        }
    }
}

/// Parses an expression from source text.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
///
/// # Examples
///
/// ```
/// use lambda2_lang::parser::parse_expr;
/// let e = parse_expr("(map (lambda (x) (+ x 1)) l)")?;
/// assert_eq!(e.to_string(), "(map (lambda (x) (+ x 1)) l)");
/// # Ok::<(), lambda2_lang::error::ParseError>(())
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    expr_of_sexp(&parse_sexp(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_handles_comments_and_whitespace() {
        let v = parse_value("; a comment\n  [1 ; inline\n 2]").unwrap();
        assert_eq!(v.to_string(), "[1 2]");
    }

    #[test]
    fn values_round_trip() {
        for src in [
            "42",
            "-7",
            "true",
            "false",
            "[]",
            "[1 2 3]",
            "[[1] [] [2 3]]",
            "{}",
            "{5}",
            "{1 {2} {3 {4} {5}}}",
            "[{1} {}]",
            "(pair 1 2)",
            "[(pair 1 [2]) (pair 3 [])]",
            "(pair (pair 1 2) {3})",
        ] {
            let v = parse_value(src).unwrap();
            assert_eq!(v.to_string(), src, "round-trip of {src}");
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse_value("(+ 1 2)").is_err());
        assert!(parse_value("[1").is_err());
        assert!(parse_value("1]").is_err());
        assert!(parse_value("{1 2}").is_err()); // tree child must be a tree
        assert!(parse_value("wibble").is_err());
        assert!(parse_value("").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_value(&deep(MAX_DEPTH)).is_ok());
        let err = parse_value(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nest deeper"), "{err}");
        // Far past any stack: an error, not a crash, on a default-sized
        // test thread.
        assert!(parse_value(&"[".repeat(100_000)).is_err());
        assert!(parse_sexps(&"(".repeat(100_000)).is_err());
    }

    #[test]
    fn types_parse() {
        assert_eq!(parse_type("int").unwrap(), Type::Int);
        assert_eq!(parse_type("[int]").unwrap(), Type::list(Type::Int));
        assert_eq!(
            parse_type("(tree [bool])").unwrap(),
            Type::tree(Type::list(Type::Bool))
        );
        assert!(parse_type("[int bool]").is_err());
        assert!(parse_type("float").is_err());
        assert!(parse_type("{int}").is_err());
        assert_eq!(
            parse_type("(pair int [bool])").unwrap(),
            Type::pair(Type::Int, Type::list(Type::Bool))
        );
        assert!(parse_type("(pair int)").is_err());
    }

    #[test]
    fn exprs_round_trip() {
        for src in [
            "x",
            "42",
            "(+ x 1)",
            "(if (empty? l) 0 (car l))",
            "(map (lambda (x) (* x x)) l)",
            "(foldl (lambda (a x) (cons x a)) [] l)",
            "(foldt (lambda (v rs) (foldl + v rs)) 0 t)",
            "?3",
            "(filter (lambda (x) (> x 0)) (cdr l))",
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(e.to_string(), src, "round-trip of {src}");
        }
    }

    #[test]
    fn op_names_parse_as_ops_with_arity_checked() {
        assert!(matches!(
            parse_expr("(cons 1 [])").unwrap(),
            Expr::Op(Op::Cons, _)
        ));
        assert!(parse_expr("(cons 1)").is_err());
        assert!(parse_expr("(if 1 2)").is_err());
    }

    #[test]
    fn application_of_op_symbol_inside_fold_parses_as_var() {
        // `+` in argument position (not head) is a variable, which eval
        // would report unbound; the suite always wraps ops in lambdas.
        let e = parse_expr("(foldl + 0 l)").unwrap();
        match e {
            Expr::App(_, args) => assert!(matches!(args[0], Expr::Var(_))),
            _ => panic!("expected application"),
        }
    }

    #[test]
    fn parse_sexps_reads_many() {
        let all = parse_sexps("(a) [1] {2} atom ; end\n").unwrap();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn error_offsets_are_plausible() {
        let err = parse_value("[1 2").unwrap_err();
        assert!(err.offset >= 4);
        let err = parse_sexp(")").unwrap_err();
        assert_eq!(err.offset, 0);
    }
}
