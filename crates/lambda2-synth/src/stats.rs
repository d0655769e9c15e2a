//! Search statistics, reported with every synthesis result and consumed by
//! the experiment harness.

use std::fmt;
use std::time::Duration;

use crate::obs::json::Json;
use crate::obs::metrics::SearchMetrics;
use crate::obs::{PhaseTimes, SCHEMA_VERSION};

/// Counters describing one synthesis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Queue items popped.
    pub popped: u64,
    /// Hypotheses created by combinator expansion.
    pub expansions: u64,
    /// Combinator expansions refuted by deduction.
    pub refuted: u64,
    /// Retired: counted refutations by a separate abstract pre-pass that
    /// ran before deduction. Deduction is now the only refuter, so the
    /// search always leaves this 0; the field stays because records
    /// written by earlier builds carry it and readers of `--stats-json`
    /// and the corpus still parse it.
    pub static_refutations: u64,
    /// Combinator expansions refuted by deduction's pruning check
    /// (`SearchOptions::static_prune`) — hypotheses necessary-row
    /// inference would have kept, so each one is search work genuinely
    /// removed. Disjoint from `refuted`.
    pub pruned_refutations: u64,
    /// Combinator expansions rejected by typing.
    pub ill_typed: u64,
    /// Hole closings attempted (terms that matched a hole's spec).
    pub closings: u64,
    /// Complete candidate programs verified against the examples.
    pub verified: u64,
    /// Complete candidates that failed verification.
    pub verify_failures: u64,
    /// Terms materialized across all enumeration stores — a monotone
    /// *work* counter accumulated at insertion time, so terms built,
    /// evicted by the LRU sweep, and rebuilt on demand count every time
    /// they are materialized (and never vanish from the stat).
    pub enumerated_terms: u64,
    /// Candidate terms the enumerators considered, counted like
    /// `enumerated_terms`. Each one is ill-typed, all-error, a duplicate,
    /// or kept: `enum_candidates = enum_ill_typed + enum_all_error +
    /// enum_duplicates + enumerated_terms` unless a store limit truncated
    /// enumeration (see [`Funnel`]).
    ///
    /// [`Funnel`]: crate::enumerate::Funnel
    pub enum_candidates: u64,
    /// Enumeration candidates whose argument types do not fit (distinct
    /// from `ill_typed`, which counts combinator expansions).
    pub enum_ill_typed: u64,
    /// Enumeration candidates that err on every spec row.
    pub enum_all_error: u64,
    /// Enumeration candidates observationally equal to a kept term.
    pub enum_duplicates: u64,
    /// Enumeration-store cache hits (an existing store was reused).
    pub store_hits: u64,
    /// Stores seeded from a cross-search [`WarmCache`] instead of built
    /// cold — enumeration work amortized from earlier requests. Always 0
    /// unless a warm cache was passed to
    /// [`Synthesizer::synthesize_report_warm`].
    ///
    /// [`WarmCache`]: crate::enumerate::WarmCache
    /// [`Synthesizer::synthesize_report_warm`]: crate::Synthesizer::synthesize_report_warm
    pub warm_hits: u64,
    /// Enumeration stores evicted by the LRU byte-budget sweep.
    pub store_evictions: u64,
    /// Panics caught and isolated at governed sites (candidate skipped).
    pub faults: u64,
    /// Wall-time spent per search phase.
    pub phases: PhaseTimes,
    /// Distribution instruments (queue depth, pop cost, phase-episode
    /// latencies, store occupancy, …). Always recorded; never influences
    /// the search.
    pub metrics: SearchMetrics,
}

impl Stats {
    /// Merges another run's counters into this one (used when aggregating
    /// over a benchmark suite).
    pub fn merge(&mut self, other: &Stats) {
        self.popped += other.popped;
        self.expansions += other.expansions;
        self.refuted += other.refuted;
        self.static_refutations += other.static_refutations;
        self.pruned_refutations += other.pruned_refutations;
        self.ill_typed += other.ill_typed;
        self.closings += other.closings;
        self.verified += other.verified;
        self.verify_failures += other.verify_failures;
        self.enumerated_terms += other.enumerated_terms;
        self.enum_candidates += other.enum_candidates;
        self.enum_ill_typed += other.enum_ill_typed;
        self.enum_all_error += other.enum_all_error;
        self.enum_duplicates += other.enum_duplicates;
        self.store_hits += other.store_hits;
        self.warm_hits += other.warm_hits;
        self.store_evictions += other.store_evictions;
        self.faults += other.faults;
        self.phases.merge(&other.phases);
        self.metrics.merge(&other.metrics);
    }

    /// Serializes the counters (including phase timings) as a JSON object.
    /// Histogram metrics are included under `"metrics"` only when at least
    /// one instrument recorded something; metrics are always recorded, so
    /// they are missing only from a run that did no work.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj([
            ("popped", self.popped.into()),
            ("expansions", self.expansions.into()),
            ("refuted", self.refuted.into()),
            ("static_refutations", self.static_refutations.into()),
            ("pruned_refutations", self.pruned_refutations.into()),
            ("ill_typed", self.ill_typed.into()),
            ("closings", self.closings.into()),
            ("verified", self.verified.into()),
            ("verify_failures", self.verify_failures.into()),
            ("enumerated_terms", self.enumerated_terms.into()),
            ("enum_candidates", self.enum_candidates.into()),
            ("enum_ill_typed", self.enum_ill_typed.into()),
            ("enum_all_error", self.enum_all_error.into()),
            ("enum_duplicates", self.enum_duplicates.into()),
            ("store_hits", self.store_hits.into()),
            ("warm_hits", self.warm_hits.into()),
            ("store_evictions", self.store_evictions.into()),
            ("faults", self.faults.into()),
            ("phases", self.phases.to_json()),
        ]);
        if !self.metrics.is_empty() {
            if let Json::Obj(pairs) = &mut j {
                pairs.push(("metrics".to_owned(), self.metrics.to_json()));
            }
        }
        j
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "popped={} expansions={} refuted={} pruned={} ill-typed={} \
             closings={} verified={} (failed {}) terms={} store-hits={} store-evictions={} \
             faults={}",
            self.popped,
            self.expansions,
            self.refuted,
            self.pruned_refutations,
            self.ill_typed,
            self.closings,
            self.verified,
            self.verify_failures,
            self.enumerated_terms,
            self.store_hits,
            self.store_evictions,
            self.faults
        )
    }
}

/// Outcome of a timed synthesis attempt, as recorded by the harness.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Problem name.
    pub name: String,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether a program was found.
    pub solved: bool,
    /// Cost of the found program (0 when unsolved).
    pub cost: u32,
    /// Size (AST nodes) of the found program's body (0 when unsolved).
    pub size: usize,
    /// The found program, rendered (empty when unsolved).
    pub program: String,
    /// Number of examples used.
    pub examples: usize,
    /// Search counters.
    pub stats: Stats,
    /// The terminal error, rendered (`None` when solved). Distinguishes a
    /// timeout from an exhausted space from a crashed per-problem run in
    /// batch output.
    pub error: Option<String>,
}

impl Measurement {
    /// The record of a run whose engine panicked before it could report:
    /// unsolved, no counters, zero elapsed, and `panicked: <msg>` as the
    /// error. Every other record of a synthesis run comes from
    /// [`crate::SearchReport::to_measurement`].
    pub fn panicked(name: &str, examples: usize, msg: &str) -> Measurement {
        Measurement {
            name: name.to_owned(),
            elapsed: Duration::ZERO,
            solved: false,
            cost: 0,
            size: 0,
            program: String::new(),
            examples,
            stats: Stats::default(),
            error: Some(format!("panicked: {msg}")),
        }
    }

    /// The run's per-phase wall times (carried inside [`Stats`]).
    pub fn phases(&self) -> &PhaseTimes {
        &self.stats.phases
    }

    /// Serializes the measurement as a JSON object — the record format of
    /// `BENCH_*.json` files and of `l2 --stats-json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("v", SCHEMA_VERSION.into()),
            ("name", self.name.as_str().into()),
            ("solved", self.solved.into()),
            ("elapsed_ms", Json::Float(self.elapsed.as_secs_f64() * 1e3)),
            ("cost", self.cost.into()),
            ("size", self.size.into()),
            ("program", self.program.as_str().into()),
            ("examples", self.examples.into()),
            (
                "error",
                match &self.error {
                    Some(e) => e.as_str().into(),
                    None => Json::Null,
                },
            ),
            ("stats", self.stats.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    fn ones() -> Stats {
        Stats {
            popped: 1,
            expansions: 2,
            refuted: 3,
            static_refutations: 12,
            pruned_refutations: 14,
            ill_typed: 4,
            closings: 5,
            verified: 6,
            verify_failures: 7,
            enumerated_terms: 8,
            enum_candidates: 15,
            enum_ill_typed: 16,
            enum_all_error: 17,
            enum_duplicates: 18,
            store_hits: 9,
            warm_hits: 13,
            store_evictions: 10,
            faults: 11,
            phases: PhaseTimes {
                deduce: Duration::from_millis(1),
                enumerate: Duration::from_millis(2),
                expand: Duration::from_millis(3),
                verify: Duration::from_millis(4),
            },
            metrics: SearchMetrics::new(),
        }
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ones();
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.popped, 2);
        assert_eq!(a.enumerated_terms, 16);
        assert_eq!(a.enum_candidates, 30);
        assert_eq!(a.enum_ill_typed, 32);
        assert_eq!(a.enum_all_error, 34);
        assert_eq!(a.enum_duplicates, 36);
        assert_eq!(a.store_hits, 18);
        assert_eq!(a.store_evictions, 20);
        assert_eq!(a.faults, 22);
        assert_eq!(a.static_refutations, 24);
        assert_eq!(a.pruned_refutations, 28);
        assert_eq!(a.phases.total(), Duration::from_millis(20));
    }

    #[test]
    fn display_mentions_every_counter() {
        let s = Stats::default().to_string();
        for key in [
            "popped",
            "expansions",
            "refuted",
            "pruned",
            "closings",
            "verified",
            "terms",
            "store-hits",
            "store-evictions",
            "faults",
        ] {
            assert!(s.contains(key), "missing {key} in `{s}`");
        }
    }

    #[test]
    fn stats_json_includes_every_counter_and_phases() {
        let j = ones().to_json();
        for key in [
            "popped",
            "expansions",
            "refuted",
            "static_refutations",
            "pruned_refutations",
            "ill_typed",
            "closings",
            "verified",
            "verify_failures",
            "enumerated_terms",
            "enum_candidates",
            "enum_ill_typed",
            "enum_all_error",
            "enum_duplicates",
            "store_hits",
            "store_evictions",
            "faults",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let phases = j.get("phases").unwrap();
        assert_eq!(phases.get("expand_ms").unwrap().as_f64(), Some(3.0));
        // Empty metrics are omitted entirely...
        assert_eq!(j.get("metrics"), None);
        // ...and appear once any instrument has data.
        let mut s = ones();
        s.metrics.queue_depth.record(5);
        let j2 = s.to_json();
        let qd = j2.get("metrics").unwrap().get("queue_depth").unwrap();
        assert_eq!(qd.get("count").unwrap().as_i64(), Some(1));
        // And the rendering is parseable.
        assert_eq!(json::parse(&j.to_string()).unwrap(), j);
        assert_eq!(json::parse(&j2.to_string()).unwrap(), j2);
    }

    #[test]
    fn measurement_json_schema() {
        let m = Measurement {
            name: "evens".into(),
            elapsed: Duration::from_millis(12),
            solved: true,
            cost: 7,
            size: 9,
            program: "(lambda (l) l)".into(),
            examples: 3,
            stats: ones(),
            error: None,
        };
        let j = m.to_json();
        assert_eq!(j.get("v").unwrap().as_u64(), Some(SCHEMA_VERSION));
        assert_eq!(j.get("name").unwrap().as_str(), Some("evens"));
        assert_eq!(j.get("error"), Some(&Json::Null));
        assert_eq!(j.get("elapsed_ms").unwrap().as_f64(), Some(12.0));
        assert_eq!(
            j.get("stats").unwrap().get("store_hits").unwrap().as_i64(),
            Some(9)
        );
        assert_eq!(m.phases().verify, Duration::from_millis(4));
        assert_eq!(json::parse(&j.to_string()).unwrap(), j);
    }
}
