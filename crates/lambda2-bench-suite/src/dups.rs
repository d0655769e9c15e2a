//! Duplicate-bearing list benchmarks.
//!
//! Every problem here is a *partial* removal or truncation over a list
//! that repeats values: remove one occurrence, cut at the first match,
//! keep a leading run. Their outputs keep *some but not all* occurrences
//! of a duplicated value, which is exactly the situation the cardinality
//! abstract domain refutes for `filter` hypotheses (a filter keeps all
//! occurrences of a value or none). Deduction alone cannot make that
//! refutation, so these problems are where `SearchOptions::static_prune`
//! pays — the release pruning differential in `tests/static_analysis.rs`
//! asserts the enumerated-term drop on them.
//!
//! The last benchmark, `rmall`, is the sentinel: a genuine filter whose
//! examples hold to all-or-none, so pruning must *not* fire and the
//! filter solution must survive.
//!
//! Example sets follow the suite discipline: recl-shaped problems carry
//! prefix/tail chains, and values are irregular so coincidental programs
//! fail verification.

use crate::{problem, Benchmark, Category};

pub(crate) fn benchmarks() -> Vec<Benchmark> {
    let b = |p, r| Benchmark::new(Category::Lists, p, r);
    vec![
        b(
            problem(
                "remove",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "remove the first occurrence of n",
                &[
                    (&["[]", "7"], "[]"),
                    (&["[7]", "7"], "[]"),
                    (&["[4 7]", "7"], "[4]"),
                    (&["[5 4 7]", "7"], "[5 4]"),
                    (&["[7 4 7]", "7"], "[4 7]"),
                    (&["[3 5 3]", "5"], "[3 3]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) xs (cons x r))) [] l)",
        ),
        b(
            problem(
                "cutfirst",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "the suffix after the first occurrence of n",
                &[
                    (&["[]", "3"], "[]"),
                    (&["[3]", "3"], "[]"),
                    (&["[3 8 6]", "3"], "[8 6]"),
                    (&["[4 3 4 3]", "3"], "[4 3]"),
                    (&["[5 2]", "2"], "[]"),
                    (&["[2 8]", "2"], "[8]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) xs r)) [] l)",
        ),
        b(
            problem(
                "fromfirst",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "the suffix from the first occurrence of n (inclusive)",
                &[
                    (&["[]", "9"], "[]"),
                    (&["[9]", "9"], "[9]"),
                    (&["[5 9]", "9"], "[9]"),
                    (&["[5 9 5]", "9"], "[9 5]"),
                    (&["[2 6 1]", "6"], "[6 1]"),
                    (&["[4 8]", "3"], "[]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) (cons x xs) r)) [] l)",
        ),
        b(
            problem(
                "upto",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "the prefix strictly before the first occurrence of n",
                &[
                    (&["[]", "4"], "[]"),
                    (&["[4]", "4"], "[]"),
                    (&["[6 4]", "4"], "[6]"),
                    (&["[6 4 6]", "4"], "[6]"),
                    (&["[2 7 5]", "5"], "[2 7]"),
                    (&["[8 1]", "9"], "[8 1]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) [] (cons x r))) [] l)",
        ),
        b(
            problem(
                "tofirst",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "the prefix up to and including the first occurrence of n",
                &[
                    (&["[]", "2"], "[]"),
                    (&["[2]", "2"], "[2]"),
                    (&["[8 2]", "2"], "[8 2]"),
                    (&["[8 2 8]", "8"], "[8]"),
                    (&["[3 5 4]", "5"], "[3 5]"),
                    (&["[7 1]", "6"], "[7 1]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) (cons x []) (cons x r))) [] l)",
        ),
        b(
            problem(
                "trimhead",
                &[("l", "[int]")],
                "[int]",
                "drop the leading run of the head element (non-empty lists)",
                &[
                    (&["[6]"], "[]"),
                    (&["[5 5 5]"], "[]"),
                    (&["[4 9]"], "[9]"),
                    (&["[7 7 3 7]"], "[3 7]"),
                    (&["[2 8 5]"], "[8 5]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x (car l)) r (cons x xs))) [] l)",
        ),
        b(
            problem(
                "headrun",
                &[("l", "[int]")],
                "[int]",
                "the leading run of the head element (non-empty lists)",
                &[
                    (&["[5]"], "[5]"),
                    (&["[4 4]"], "[4 4]"),
                    (&["[9 1]"], "[9]"),
                    (&["[7 7 2 7]"], "[7 7]"),
                    (&["[3 3 8]"], "[3 3]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x (car l)) (cons x r) [])) [] l)",
        ),
        b(
            problem(
                "stripn",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "drop the leading run of n",
                &[
                    (&["[]", "5"], "[]"),
                    (&["[3]", "3"], "[]"),
                    (&["[3 3 3]", "3"], "[]"),
                    (&["[1 4]", "9"], "[1 4]"),
                    (&["[2 2 8 2]", "2"], "[8 2]"),
                    (&["[6 1 6]", "6"], "[1 6]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) r (cons x xs))) [] l)",
        ),
        b(
            problem(
                "taken",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "the leading run of n",
                &[
                    (&["[]", "4"], "[]"),
                    (&["[2]", "2"], "[2]"),
                    (&["[2 2]", "2"], "[2 2]"),
                    (&["[8 5]", "5"], "[]"),
                    (&["[6 6 1 6]", "6"], "[6 6]"),
                    (&["[9 4]", "9"], "[9]"),
                ],
            ),
            "(recl (lambda (x xs r) (if (= x n) (cons x r) [])) [] l)",
        ),
        // Sentinel: a true filter over duplicate-bearing inputs. Every
        // example keeps all-or-none occurrences of each value, so the
        // cardinality domain must stay silent and the filter solution
        // must survive pruning.
        b(
            problem(
                "rmall",
                &[("l", "[int]"), ("n", "int")],
                "[int]",
                "remove every occurrence of n",
                &[
                    (&["[]", "3"], "[]"),
                    (&["[5]", "5"], "[]"),
                    (&["[5 3 5]", "3"], "[5 5]"),
                    (&["[3 9]", "3"], "[9]"),
                    (&["[7 2 7 2]", "2"], "[7 7]"),
                    (&["[1 8]", "4"], "[1 8]"),
                ],
            ),
            "(filter (lambda (x) (!= x n)) l)",
        ),
    ]
}
