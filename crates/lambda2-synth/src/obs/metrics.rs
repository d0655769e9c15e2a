//! A zero-dependency metrics registry: counters, gauges, and cheap
//! fixed-bucket histograms.
//!
//! The search's scalar [`Stats`](crate::stats::Stats) counters answer "how
//! much", but not "how distributed": is the queue ten items deep or ten
//! million, are verification episodes uniformly cheap or dominated by a
//! few stragglers, do the enumeration stores stay small? This module keeps
//! those distributions with a few adds per observation:
//!
//! * [`Histogram`] — a fixed set of inclusive upper bounds plus an
//!   overflow bucket; recording is a binary search over a static slice
//!   and three integer adds. No allocation after construction.
//! * [`SearchMetrics`] — the registry of every histogram the engine
//!   records, embedded in `Stats` so snapshots ride along with the
//!   existing counters into `--stats-json` lines and `BENCH_*.json`
//!   reports.
//!
//! Bucket layouts are chosen per instrument (see the constants below):
//! powers of two for open-ended magnitudes (queue depth, microseconds,
//! bytes), unit-step linear for the small cost domain. DESIGN.md §14
//! documents the reasoning.

use super::json::Json;

/// Inclusive power-of-two upper bounds `1, 2, 4, …, 2^40` — for
/// open-ended magnitudes (queue depth, store terms/bytes, microsecond
/// latencies). 2^40 µs ≈ 13 days and 2^40 bytes = 1 TiB, so the overflow
/// bucket is unreachable in practice while the low buckets keep 2×
/// resolution where observations actually land.
pub const EXP2_BOUNDS: &[u64] = &{
    let mut bounds = [0u64; 41];
    let mut i = 0;
    while i < 41 {
        bounds[i] = 1u64 << i;
        i += 1;
    }
    bounds
};

/// Inclusive unit-step upper bounds `1, 2, …, 64` — for the hypothesis
/// cost domain, where the default global ceiling is 28 and every unit
/// matters (cost ties decide best-first order).
pub const COST_BOUNDS: &[u64] = &{
    let mut bounds = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        bounds[i] = i as u64 + 1;
        i += 1;
    }
    bounds
};

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are defined by a static slice of *inclusive* upper bounds in
/// strictly increasing order; observations above the last bound land in a
/// dedicated overflow bucket. Alongside the buckets the histogram keeps
/// exact `count`, `sum`, `min`, and `max`, so means are exact and only
/// quantiles are bucket-resolution approximations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<u64>,
    /// Observations above the last bound.
    over: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram over `bounds` (inclusive upper bounds, strictly
    /// increasing, non-empty).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        debug_assert!(!bounds.is_empty());
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: vec![0; bounds.len()],
            over: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        match self.bounds.binary_search(&value) {
            Ok(i) => self.counts[i] += 1,
            Err(i) if i < self.counts.len() => self.counts[i] += 1,
            Err(_) => self.over += 1,
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Records a `usize` observation (convenience for lengths).
    #[inline]
    pub fn record_usize(&mut self, value: usize) {
        self.record(value as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean observation, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bucket-resolution quantile: the inclusive upper bound of the first
    /// bucket at which the cumulative count reaches `q * count` (clamped
    /// to `[0, 1]`), using the exact `max` for the overflow bucket.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report a quantile above the observed maximum —
                // wide buckets otherwise overstate small distributions.
                return Some(self.bounds[i].min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram recorded over the *same* bucket layout.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.over += other.over;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs,
    /// excluding the overflow bucket (see [`Histogram::over_count`]).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&b, &c)| (b, c))
    }

    /// Observations above the last configured bound.
    pub fn over_count(&self) -> u64 {
        self.over
    }

    /// Serializes as a compact JSON object. Only non-empty buckets are
    /// listed (as `[upper_bound, count]` pairs), so empty histograms cost
    /// a few bytes and dense ones stay proportional to occupancy.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("count", self.count.into()), ("sum", self.sum.into())];
        if self.count > 0 {
            pairs.push(("min", self.min.into()));
            pairs.push(("max", self.max.into()));
        }
        pairs.push((
            "buckets",
            Json::Arr(
                self.nonzero_buckets()
                    .map(|(b, c)| Json::Arr(vec![b.into(), c.into()]))
                    .collect(),
            ),
        ));
        if self.over > 0 {
            pairs.push(("over", self.over.into()));
        }
        Json::obj(pairs)
    }

    /// Serializes a one-line summary — `count`, and when non-empty `p50`,
    /// `p99`, `mean`, `max` — for surfaces that want the headline numbers
    /// without the bucket table (the serve `stats` op, drain summaries).
    pub fn summary_json(&self) -> Json {
        let mut pairs = vec![("count", self.count.into())];
        if self.count > 0 {
            pairs.push(("p50", self.quantile(0.5).unwrap_or(0).into()));
            pairs.push(("p99", self.quantile(0.99).unwrap_or(0).into()));
            pairs.push(("mean", Json::Float(self.mean().unwrap_or(0.0))));
            pairs.push(("max", self.max.into()));
        }
        Json::obj(pairs)
    }
}

/// Every histogram the synthesis engine records, snapshotted into
/// [`Stats`](crate::stats::Stats) at the end of a run.
///
/// Recording is always on and by construction never influences the
/// search: the instruments observe queue state, costs, and latencies but
/// feed nothing back. `tests/profile.rs` checks that the pop histograms
/// agree with the pop counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchMetrics {
    /// Queue length sampled at every pop (before the popped item's
    /// children are pushed).
    pub queue_depth: Histogram,
    /// Priority (admissible cost bound) of every popped queue item.
    pub pop_cost: Histogram,
    /// Per-episode deduction-planning latency, microseconds.
    pub deduce_us: Histogram,
    /// Per-episode enumeration latency, microseconds.
    pub enumerate_us: Histogram,
    /// Per-episode expansion-instantiation latency, microseconds.
    pub expand_us: Histogram,
    /// Per-episode verification latency, microseconds.
    pub verify_us: Histogram,
    /// Enumeration-store occupancy (terms) sampled at every store touch.
    pub store_terms: Histogram,
    /// Bytes the enumeration store owns
    /// ([`crate::enumerate::TermStore::bytes`]) at every touch.
    pub store_bytes: Histogram,
    /// Terms materialized per completed enumeration level (recorded by
    /// the stores themselves, folded in at eviction and at search end).
    pub level_terms: Histogram,
    /// Wall-clock gap between consecutive budget clock polls,
    /// microseconds — how tightly governance actually bounded overshoot
    /// (recorded by the [`Budget`](crate::govern::Budget)).
    pub poll_gap_us: Histogram,
    /// Time a task spent queued before a worker picked it up,
    /// microseconds — recorded by [`synthesize_batch`] and the serve
    /// admission queue, not by the search itself. Separates scheduling
    /// delay from search time in batch/daemon p99 attribution.
    ///
    /// [`synthesize_batch`]: crate::par::synthesize_batch
    pub queue_wait_us: Histogram,
}

impl SearchMetrics {
    /// Fresh, empty instruments.
    pub fn new() -> SearchMetrics {
        SearchMetrics {
            queue_depth: Histogram::new(EXP2_BOUNDS),
            pop_cost: Histogram::new(COST_BOUNDS),
            deduce_us: Histogram::new(EXP2_BOUNDS),
            enumerate_us: Histogram::new(EXP2_BOUNDS),
            expand_us: Histogram::new(EXP2_BOUNDS),
            verify_us: Histogram::new(EXP2_BOUNDS),
            store_terms: Histogram::new(EXP2_BOUNDS),
            store_bytes: Histogram::new(EXP2_BOUNDS),
            level_terms: Histogram::new(EXP2_BOUNDS),
            poll_gap_us: Histogram::new(EXP2_BOUNDS),
            queue_wait_us: Histogram::new(EXP2_BOUNDS),
        }
    }

    /// Instrument names and histograms, in stable serialization order.
    pub fn instruments(&self) -> [(&'static str, &Histogram); 11] {
        [
            ("queue_depth", &self.queue_depth),
            ("pop_cost", &self.pop_cost),
            ("deduce_us", &self.deduce_us),
            ("enumerate_us", &self.enumerate_us),
            ("expand_us", &self.expand_us),
            ("verify_us", &self.verify_us),
            ("store_terms", &self.store_terms),
            ("store_bytes", &self.store_bytes),
            ("level_terms", &self.level_terms),
            ("poll_gap_us", &self.poll_gap_us),
            ("queue_wait_us", &self.queue_wait_us),
        ]
    }

    /// `true` when no instrument has recorded anything: metrics are always
    /// recorded, so only a run that did no work is empty.
    pub fn is_empty(&self) -> bool {
        self.instruments().iter().all(|(_, h)| h.is_empty())
    }

    /// Merges another run's instruments (suite/ladder aggregation).
    pub fn merge(&mut self, other: &SearchMetrics) {
        self.queue_depth.merge(&other.queue_depth);
        self.pop_cost.merge(&other.pop_cost);
        self.deduce_us.merge(&other.deduce_us);
        self.enumerate_us.merge(&other.enumerate_us);
        self.expand_us.merge(&other.expand_us);
        self.verify_us.merge(&other.verify_us);
        self.store_terms.merge(&other.store_terms);
        self.store_bytes.merge(&other.store_bytes);
        self.level_terms.merge(&other.level_terms);
        self.poll_gap_us.merge(&other.poll_gap_us);
        self.queue_wait_us.merge(&other.queue_wait_us);
    }

    /// Serializes every instrument as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(self.instruments().map(|(name, h)| (name, h.to_json())))
    }
}

impl Default for SearchMetrics {
    fn default() -> SearchMetrics {
        SearchMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for bounds in [EXP2_BOUNDS, COST_BOUNDS] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(EXP2_BOUNDS[0], 1);
        assert_eq!(*EXP2_BOUNDS.last().unwrap(), 1 << 40);
        assert_eq!(COST_BOUNDS[0], 1);
        assert_eq!(*COST_BOUNDS.last().unwrap(), 64);
    }

    #[test]
    fn record_places_values_in_inclusive_buckets() {
        let mut h = Histogram::new(EXP2_BOUNDS);
        h.record(1); // bucket le=1
        h.record(2); // le=2 (inclusive)
        h.record(3); // le=4
        h.record(4); // le=4
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1), (2, 1), (4, 2)]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(4));
        assert_eq!(h.mean(), Some(2.5));
    }

    #[test]
    fn zero_and_overflow_observations_are_kept() {
        let mut h = Histogram::new(COST_BOUNDS);
        h.record(0); // below the first bound -> first bucket
        h.record(1_000_000); // above the last bound -> overflow
        assert_eq!(h.count(), 2);
        assert_eq!(h.over_count(), 1);
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 1)]);
        let j = h.to_json();
        assert_eq!(j.get("over").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn quantiles_are_bucket_resolution_and_capped_at_max() {
        let mut h = Histogram::new(EXP2_BOUNDS);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 100] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(1));
        // p100 lands in the le=128 bucket but is capped at the true max.
        assert_eq!(h.quantile(1.0), Some(100));
        // A single observation's every quantile is (at most) that value.
        let mut one = Histogram::new(EXP2_BOUNDS);
        one.record(3);
        assert_eq!(one.quantile(0.5), Some(3));
        assert_eq!(Histogram::new(EXP2_BOUNDS).quantile(0.5), None);
    }

    #[test]
    fn merge_is_commutative_on_counts() {
        let mut a = Histogram::new(EXP2_BOUNDS);
        let mut b = Histogram::new(EXP2_BOUNDS);
        for v in [1u64, 5, 9] {
            a.record(v);
        }
        for v in [2u64, 1 << 41] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.over_count(), 1);
        assert_eq!(ab.min(), Some(1));
        assert_eq!(ab.max(), Some(1 << 41));
    }

    #[test]
    fn summary_json_reports_quantiles_in_order() {
        let mut h = Histogram::new(EXP2_BOUNDS);
        for v in [10u64, 20, 30, 40, 5000] {
            h.record(v);
        }
        let j = h.summary_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(5));
        let p50 = j.get("p50").unwrap().as_u64().unwrap();
        let p99 = j.get("p99").unwrap().as_u64().unwrap();
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        assert_eq!(j.get("max").unwrap().as_u64(), Some(5000));
        // Empty histograms summarize to a bare count.
        let empty = Histogram::new(EXP2_BOUNDS).summary_json();
        assert_eq!(empty.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(empty.get("p50"), None);
    }

    #[test]
    fn empty_histograms_serialize_compactly_and_parse() {
        let h = Histogram::new(EXP2_BOUNDS);
        let j = h.to_json();
        assert_eq!(j.get("count").unwrap().as_i64(), Some(0));
        assert_eq!(j.get("min"), None);
        assert!(j.get("buckets").unwrap().as_arr().unwrap().is_empty());
        assert_eq!(json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn search_metrics_roundtrip_and_emptiness() {
        let mut m = SearchMetrics::new();
        assert!(m.is_empty());
        m.queue_depth.record(17);
        m.pop_cost.record(4);
        assert!(!m.is_empty());
        let mut sum = SearchMetrics::new();
        sum.merge(&m);
        sum.merge(&m);
        assert_eq!(sum.queue_depth.count(), 2);
        let j = sum.to_json();
        for (name, _) in m.instruments() {
            assert!(j.get(name).is_some(), "missing {name}");
        }
        assert_eq!(json::parse(&j.to_string()).unwrap(), j);
    }
}
