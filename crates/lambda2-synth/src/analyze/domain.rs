//! Abstract values shared by the lint-side analyses.
//!
//! * **length/size intervals** ([`Interval`]) — the collection-growth
//!   bounds of [`crate::analyze::reach`];
//! * **element multisets** ([`value_counts`]) — order-insensitive
//!   comparison of list outputs in [`crate::analyze::lint`].

use std::collections::HashMap;

use lambda2_lang::value::Value;

/// A closed interval `[lo, hi]` over unsigned sizes; `hi = None` means
/// unbounded above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound; `None` = +∞.
    pub hi: Option<u64>,
}

impl Interval {
    /// The interval `[0, n]`.
    pub const fn at_most(n: u64) -> Interval {
        Interval { lo: 0, hi: Some(n) }
    }

    /// Whether the concrete size `n` is in the interval.
    pub fn contains(self, n: u64) -> bool {
        n >= self.lo && self.hi.is_none_or(|h| n <= h)
    }
}

/// Multiset of element occurrence counts.
pub fn value_counts(xs: &[Value]) -> HashMap<&Value, usize> {
    let mut counts: HashMap<&Value, usize> = HashMap::new();
    for v in xs {
        *counts.entry(v).or_default() += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda2_lang::parser::parse_value;

    fn vals(s: &str) -> Vec<Value> {
        parse_value(s).unwrap().as_list().unwrap().to_vec()
    }

    #[test]
    fn interval_membership() {
        let i = Interval::at_most(4);
        assert!(i.contains(0) && i.contains(4));
        assert!(!i.contains(5));
        assert!(Interval { lo: 2, hi: None }.contains(u64::MAX));
        assert!(!Interval { lo: 2, hi: None }.contains(1));
    }

    #[test]
    fn value_counts_are_order_insensitive_multisets() {
        assert_eq!(
            value_counts(&vals("[5 7 5]")),
            value_counts(&vals("[5 5 7]"))
        );
        assert_ne!(value_counts(&vals("[5 7]")), value_counts(&vals("[5 7 5]")));
        assert_eq!(value_counts(&vals("[5 7 5]"))[&Value::Int(5)], 2);
    }
}
