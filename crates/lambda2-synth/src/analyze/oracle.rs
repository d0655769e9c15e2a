//! Bounded brute-force re-proof oracle for pruned refutations.
//!
//! Deduction's pruned refutations ([`crate::deduce::Outcome::Pruned`])
//! go beyond its necessary-row inference, so nothing inside deduction
//! can confirm them. This module supplies an *exact, library-independent*
//! semantic check that no completion of the hypothesis exists; under
//! `check-invariants` the `filter` rule asserts it at every pruned
//! refutation.
//!
//! For `filter` the check rests on a completeness fact: within one
//! example row the predicate closes over a fixed environment, so it acts
//! as a characteristic function of a **kept-value set** `K` over the
//! collection's distinct values — `filter p xs = [x ∈ xs | x ∈ K]`.
//! Conversely any `K` is realized by *some* predicate (semantically; the
//! component library only shrinks the realizable set). Hence a row has a
//! consistent completion iff some `K ⊆ distinct(xs)` reproduces the
//! output, and sweeping all `2^d` subsets is an exact oracle, not a
//! heuristic. For `d` beyond [`SUBSET_SWEEP_LIMIT`] the oracle tests the
//! single canonical candidate `K = values(output)` — also exact, since
//! if any `K` works then the canonical one does (every kept value's
//! occurrences appear in the output, so filtering by exactly the output's
//! values reproduces it).

use std::collections::HashSet;

use lambda2_lang::value::Value;

use crate::spec::ExampleRow;

/// Largest distinct-value count for which the oracle sweeps every kept
/// subset; above this it switches to the (equally exact) canonical
/// candidate.
pub const SUBSET_SWEEP_LIMIT: usize = 12;

/// `true` when some example row provably admits *no* filter completion:
/// no kept-value set over the row's collection reproduces the output.
/// Rows whose collection or output is not a list are skipped (deduction
/// refutes those on shape).
pub fn no_filter_completion(rows: &[ExampleRow], coll: &[Value]) -> bool {
    rows.iter()
        .zip(coll)
        .any(|(row, cv)| match (cv.as_list(), row.output.as_list()) {
            (Some(xs), Some(ys)) => !row_has_kept_set(xs, ys),
            _ => false,
        })
}

/// Whether some kept-value set `K` satisfies `filter_K(xs) == ys`.
fn row_has_kept_set(xs: &[Value], ys: &[Value]) -> bool {
    let mut distinct: Vec<&Value> = Vec::new();
    for v in xs {
        if !distinct.contains(&v) {
            distinct.push(v);
        }
    }
    if distinct.len() > SUBSET_SWEEP_LIMIT {
        let canonical: HashSet<&Value> = ys.iter().collect();
        return filter_matches(xs, &canonical, ys);
    }
    (0u64..1 << distinct.len()).any(|mask| {
        let kept: HashSet<&Value> = distinct
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, v)| *v)
            .collect();
        filter_matches(xs, &kept, ys)
    })
}

fn filter_matches(xs: &[Value], kept: &HashSet<&Value>, ys: &[Value]) -> bool {
    let filtered: Vec<&Value> = xs.iter().filter(|v| kept.contains(v)).collect();
    filtered.len() == ys.len() && filtered.iter().zip(ys).all(|(a, b)| *a == b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deduce::testutil::rows_on_var;

    fn rows(pairs: &[(&str, &str)]) -> (Vec<ExampleRow>, Vec<Value>) {
        let (rows, coll) = rows_on_var("l", pairs);
        (rows, coll.values)
    }

    #[test]
    fn partially_kept_duplicates_have_no_completion() {
        let (r, c) = rows(&[("[5 7 5]", "[5]")]);
        assert!(no_filter_completion(&r, &c));
        let (r, c) = rows(&[("[8 3 8]", "[8 3]")]);
        assert!(no_filter_completion(&r, &c));
        // Even when another row is fine.
        let (r, c) = rows(&[("[1 2]", "[2]"), ("[5 7 5]", "[5]")]);
        assert!(no_filter_completion(&r, &c));
    }

    #[test]
    fn realizable_rows_have_completions() {
        for (input, output) in [
            ("[5 7 5]", "[5 5]"),
            ("[5 7 5]", "[7]"),
            ("[5 7 5]", "[]"),
            ("[5 7 5]", "[5 7 5]"),
            ("[1 2 3]", "[1 3]"),
            ("[]", "[]"),
        ] {
            let (r, c) = rows(&[(input, output)]);
            assert!(
                !no_filter_completion(&r, &c),
                "{input} -> {output} is realizable by a kept set"
            );
        }
    }

    #[test]
    fn non_subset_outputs_are_refuted_by_the_oracle_too() {
        // The oracle is complete for filter, so it also re-proves what
        // deduction's subsequence check catches (foreign values,
        // reorderings).
        for (input, output) in [("[1 2]", "[3]"), ("[1 2]", "[2 1]"), ("[1 2]", "[1 2 3]")] {
            let (r, c) = rows(&[(input, output)]);
            assert!(no_filter_completion(&r, &c), "{input} -> {output}");
        }
    }

    #[test]
    fn wide_rows_fall_back_to_the_canonical_candidate() {
        // 13 distinct values: beyond the sweep limit. Keep-all works.
        let input = "[1 2 3 4 5 6 7 8 9 10 11 12 13]";
        let (r, c) = rows(&[(input, input)]);
        assert!(!no_filter_completion(&r, &c));
        // Partially-kept duplicate among 13 distinct values: refuted.
        let (r, c) = rows(&[(
            "[1 2 3 4 5 6 7 8 9 10 11 12 13 1]",
            "[1 2 3 4 5 6 7 8 9 10 11 12 13]",
        )]);
        assert!(no_filter_completion(&r, &c));
    }
}
