//! Static analysis over problems and example values.
//!
//! Deduction ([`crate::deduce`]) is the search's only refuter; this module
//! holds the analyses around it:
//!
//! * [`lint`] — the `l2 lint` diagnostic pass over `.l2` problem files;
//! * [`reach`] — whole-problem reachability (collection-growth bounds,
//!   unusable library items) that `lint` reports from;
//! * [`domain`] — the abstract values those analyses share (size
//!   intervals, element multisets);
//! * [`oracle`] — a bounded brute-force check that a `filter` hypothesis
//!   has no completion. Under the `check-invariants` cargo feature it
//!   re-proves every pruned refutation ([`crate::deduce::Outcome::Pruned`])
//!   at the `deduce_filter` site, where deduction's own necessary-row
//!   inference cannot confirm it.
//!
//! The soundness suite (`tests/static_analysis.rs`) checks the pruning
//! end to end — byte-identical programs and costs with
//! `SearchOptions::static_prune` on and off while `enumerated_terms` only
//! drops — plus, by bounded brute force, that refuted hypotheses really
//! have no consistent completion.

pub mod domain;
pub mod lint;
pub mod oracle;
pub mod reach;
