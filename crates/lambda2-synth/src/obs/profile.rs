//! Trace analysis: load `--trace` JSONL files and turn them into
//! attribution tables, flamegraph stacks, and run-to-run diffs.
//!
//! This is the consumer side of the [`TraceEvent`](super::TraceEvent)
//! substrate — the `l2 profile` subcommand family is a thin CLI over
//! these functions:
//!
//! * [`load_trace`] / [`parse_trace`] — versioned loading through
//!   [`jsonl`]: traces from older or newer engines are rejected with the
//!   offending line number instead of being silently misparsed, and the
//!   torn tail of an interrupted write is skipped.
//! * [`summarize`] — per-combinator and per-deduction-rule attribution
//!   (pops, plans, examples inferred, refutations, refutation yield),
//!   plus store/verify/tier totals and — when the trace carries `t_us`
//!   timestamps — wall-time attribution per phase category.
//! * [`collapse_tree`] — fold the hypothesis derivation tree into
//!   flamegraph-style collapsed-stack lines (`root;map;foldl 42`),
//!   consumable by standard flamegraph tooling.
//! * [`diff_traces`] — align two traces by deterministic event keys
//!   ([`event_key`]: the event JSON with volatile fields stripped) and
//!   report the first divergence, distinguishing a *truncated* trace
//!   (strict prefix — a run that stopped early) from a *divergent* one.
//!
//! Everything here is pure string/JSON processing over the hand-rolled
//! [`json`](super::json) module — no engine state, no extra dependencies.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use super::json::Json;
use super::jsonl::{self, RecordError};
use super::SCHEMA_VERSION;

/// Why a trace could not be loaded or analyzed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProfileError {
    /// The trace could not be read, or a line was malformed or carried a
    /// missing or unsupported schema version.
    Record(RecordError),
    /// The requested analysis needs `t_us` timestamps the trace lacks
    /// (e.g. merged parallel traces carry none).
    NoTimestamps,
}

impl From<RecordError> for ProfileError {
    fn from(e: RecordError) -> ProfileError {
        ProfileError::Record(e)
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Record(e) => e.fmt(f),
            ProfileError::NoTimestamps => {
                write!(
                    f,
                    "trace carries no t_us timestamps (merged parallel traces don't); \
                     time weighting is unavailable"
                )
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// A loaded trace: one validated JSON object per line, in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// The events. Every element is a `Json::Obj` with `"v"` equal to
    /// [`SCHEMA_VERSION`] and an `"ev"` discriminator.
    pub events: Vec<Json>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `t_us` of an event, if present.
    fn t_us(&self, i: usize) -> Option<u64> {
        self.events[i].get("t_us").and_then(Json::as_u64)
    }

    /// `true` when every event carries a `t_us` timestamp (sequential
    /// single-problem traces do; merged parallel traces do not).
    pub fn has_timestamps(&self) -> bool {
        !self.is_empty() && (0..self.events.len()).all(|i| self.t_us(i).is_some())
    }
}

/// Parses trace text as a [`jsonl`] record file (one event per line;
/// blank lines ignored; a torn tail skipped).
///
/// # Errors
///
/// [`ProfileError::Record`] for malformed lines and missing/unsupported
/// schema versions.
pub fn parse_trace(src: &str) -> Result<Trace, ProfileError> {
    let events = jsonl::parse(src, Path::new("trace"), Ok)?;
    Ok(Trace { events })
}

/// Reads and parses a trace file. See [`parse_trace`].
///
/// # Errors
///
/// [`ProfileError::Record`] when the file can't be read, plus everything
/// [`parse_trace`] reports.
pub fn load_trace(path: &Path) -> Result<Trace, ProfileError> {
    let events = jsonl::load(path, Ok)?;
    Ok(Trace { events })
}

// --- Event keys + diff --------------------------------------------------

/// The deterministic alignment key of an event: its canonical JSON with
/// the volatile `t_us` wall-clock field stripped. Two deterministic runs
/// of the same problem produce identical key sequences; any semantic
/// difference (different pop, different plan, different refutation)
/// changes the key at the point of divergence.
pub fn event_key(ev: &Json) -> String {
    match ev {
        Json::Obj(pairs) => {
            Json::Obj(pairs.iter().filter(|(k, _)| k != "t_us").cloned().collect()).to_string()
        }
        other => other.to_string(),
    }
}

/// Outcome of aligning two traces by [`event_key`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffOutcome {
    /// Same length, every key equal.
    Identical {
        /// Events compared.
        events: usize,
    },
    /// One trace is a strict prefix of the other — a run that stopped
    /// early (crash, tighter budget, interrupted write), not a divergent
    /// one.
    Truncated {
        /// Events in the shared (matching) prefix.
        common: usize,
        /// Length of the first trace.
        len_a: usize,
        /// Length of the second trace.
        len_b: usize,
    },
    /// The traces genuinely disagree.
    Divergence {
        /// 0-based index of the first mismatching event.
        index: usize,
        /// The first trace's key at that index.
        key_a: String,
        /// The second trace's key at that index.
        key_b: String,
    },
}

impl DiffOutcome {
    /// `true` for [`DiffOutcome::Identical`].
    pub fn is_identical(&self) -> bool {
        matches!(self, DiffOutcome::Identical { .. })
    }
}

/// Aligns two traces event-by-event (see [`event_key`]) and reports the
/// first divergence, if any. This is the tool the PR 3 determinism hunt
/// needed: point it at two `--trace` files of the same seeded problem and
/// it names the exact event where the runs parted ways.
///
/// `progress` heartbeats are skipped on both sides before alignment: they
/// fire on wall-clock cadence, so two deterministic runs of the same
/// problem emit them at different points (or in different numbers) —
/// volatile whole-event analogues of the `t_us` field that [`event_key`]
/// strips.
pub fn diff_traces(a: &Trace, b: &Trace) -> DiffOutcome {
    let volatile = |ev: &&Json| ev.get("ev").and_then(Json::as_str) != Some("progress");
    let sa: Vec<&Json> = a.events.iter().filter(volatile).collect();
    let sb: Vec<&Json> = b.events.iter().filter(volatile).collect();
    for (index, (ea, eb)) in sa.iter().zip(&sb).enumerate() {
        let key_a = event_key(ea);
        let key_b = event_key(eb);
        if key_a != key_b {
            return DiffOutcome::Divergence {
                index,
                key_a,
                key_b,
            };
        }
    }
    if sa.len() != sb.len() {
        return DiffOutcome::Truncated {
            common: sa.len().min(sb.len()),
            len_a: sa.len(),
            len_b: sb.len(),
        };
    }
    DiffOutcome::Identical { events: sa.len() }
}

// --- Summary ------------------------------------------------------------

/// Per-combinator attribution row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CombRow {
    /// Expansions the planner admitted.
    pub plans: u64,
    /// Example rows deduction inferred for admitted expansions' holes.
    pub rows_inferred: u64,
    /// Expansions refuted by a deduction rule.
    pub refuted: u64,
    /// Expansions refuted by the abstract-interpretation pre-pass.
    pub static_refuted: u64,
    /// Expansions rejected by typing.
    pub ill_typed: u64,
    /// Fold expansions rejected by an init/empty-row mismatch.
    pub init_mismatch: u64,
}

impl CombRow {
    /// All rejection counters combined.
    pub fn rejected(&self) -> u64 {
        self.refuted + self.static_refuted + self.ill_typed + self.init_mismatch
    }
}

/// Wall-time attribution derived from `t_us` timestamps.
///
/// The gap between consecutive events is attributed to the category of
/// the event that *ends* it — the event emitted when that stretch of work
/// completed: `plan`/`refute`/`static-refute` end deduction work, `tier`
/// and `store` end enumeration work, `verify` ends a verification, and a
/// `pop` ends the queue/expansion bookkeeping between items. The split is
/// approximate at event granularity but sums exactly to the trace's span.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeAttribution {
    /// Microseconds from the first event to the last.
    pub total_us: u64,
    /// Microseconds attributed to deduction (planning + refutation).
    pub deduce_us: u64,
    /// Microseconds attributed to enumeration (tiers + stores).
    pub enumerate_us: u64,
    /// Microseconds attributed to verification.
    pub verify_us: u64,
    /// Microseconds attributed to queue/expansion bookkeeping (pops) and
    /// anything else.
    pub search_us: u64,
}

/// Everything `profile summary` reports about one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Summary {
    /// Total events in the trace.
    pub events: usize,
    /// Pop counts by item kind (`hyp`, `apply`, `close`).
    pub pops_by_kind: BTreeMap<String, u64>,
    /// Per-combinator attribution, keyed by combinator name.
    pub combs: BTreeMap<String, CombRow>,
    /// Deduction-rule refutations by reason (`deduction`, `ill-typed`,
    /// `init-mismatch`).
    pub refute_reasons: BTreeMap<String, u64>,
    /// Unpruned `static-refute` events by domain (`length`, `shape`, …).
    /// Only traces from builds that ran a separate abstract pre-pass
    /// carry them; current builds leave this empty.
    pub static_domains: BTreeMap<String, u64>,
    /// Pruned refutations by domain (`cardinality`): refutations
    /// necessary-row inference could not have made, subtracted from real
    /// search work. Disjoint from [`Summary::static_domains`].
    pub pruned_domains: BTreeMap<String, u64>,
    /// Verification passes.
    pub verify_ok: u64,
    /// Verification failures.
    pub verify_fail: u64,
    /// Store creations.
    pub store_creates: u64,
    /// Store cache hits.
    pub store_hits: u64,
    /// Store evictions.
    pub store_evicts: u64,
    /// Stores a budget cut mid-level.
    pub store_cuts: u64,
    /// Closing tiers enumerated.
    pub tiers: u64,
    /// Spec-satisfying closing terms those tiers produced.
    pub tier_fills: u64,
    /// Isolated faults.
    pub faults: u64,
    /// Histogram of popped costs, as (cost, pops) sorted by cost.
    pub pop_costs: BTreeMap<u64, u64>,
    /// The first successful candidate, as (program, cost).
    pub solution: Option<(String, u64)>,
    /// Wall-time attribution; `None` when the trace has no timestamps.
    pub time: Option<TimeAttribution>,
}

impl Summary {
    /// Refutation yield of a deduction rule (by `refute` reason or static
    /// domain): refutations per *millisecond* of attributed deduction
    /// time — work pruned per unit of pruning effort. `None` without
    /// timestamps or when no deduction time was attributed.
    pub fn yield_per_ms(&self, refutations: u64) -> Option<f64> {
        let t = self.time.as_ref()?;
        if t.deduce_us == 0 {
            return None;
        }
        Some(refutations as f64 / (t.deduce_us as f64 / 1e3))
    }

    /// Serializes the summary as one JSON object (the `--json` output of
    /// `profile summary`).
    pub fn to_json(&self) -> Json {
        let count_map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), (*v).into())).collect())
        };
        let mut pairs = vec![
            ("v".to_owned(), SCHEMA_VERSION.into()),
            ("events".to_owned(), self.events.into()),
            ("pops".to_owned(), count_map(&self.pops_by_kind)),
            (
                "combs".to_owned(),
                Json::Obj(
                    self.combs
                        .iter()
                        .map(|(name, row)| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("plans", row.plans.into()),
                                    ("rows_inferred", row.rows_inferred.into()),
                                    ("refuted", row.refuted.into()),
                                    ("static_refuted", row.static_refuted.into()),
                                    ("ill_typed", row.ill_typed.into()),
                                    ("init_mismatch", row.init_mismatch.into()),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("refute_reasons".to_owned(), count_map(&self.refute_reasons)),
            ("static_domains".to_owned(), count_map(&self.static_domains)),
            ("pruned_domains".to_owned(), count_map(&self.pruned_domains)),
            ("verify_ok".to_owned(), self.verify_ok.into()),
            ("verify_fail".to_owned(), self.verify_fail.into()),
            ("store_creates".to_owned(), self.store_creates.into()),
            ("store_hits".to_owned(), self.store_hits.into()),
            ("store_evicts".to_owned(), self.store_evicts.into()),
            ("store_cuts".to_owned(), self.store_cuts.into()),
            ("tiers".to_owned(), self.tiers.into()),
            ("tier_fills".to_owned(), self.tier_fills.into()),
            ("faults".to_owned(), self.faults.into()),
            (
                "pop_costs".to_owned(),
                Json::Arr(
                    self.pop_costs
                        .iter()
                        .map(|(c, n)| Json::Arr(vec![(*c).into(), (*n).into()]))
                        .collect(),
                ),
            ),
        ];
        if let Some((program, cost)) = &self.solution {
            pairs.push((
                "solution".to_owned(),
                Json::obj([
                    ("program", program.as_str().into()),
                    ("cost", (*cost).into()),
                ]),
            ));
        }
        if let Some(t) = &self.time {
            pairs.push((
                "time_us".to_owned(),
                Json::obj([
                    ("total", t.total_us.into()),
                    ("deduce", t.deduce_us.into()),
                    ("enumerate", t.enumerate_us.into()),
                    ("verify", t.verify_us.into()),
                    ("search", t.search_us.into()),
                ]),
            ));
        }
        Json::Obj(pairs)
    }

    /// Renders the summary as a human-readable text report.
    ///
    /// Sections with nothing to show degrade to an explicit
    /// `(none recorded …)` note rather than a bare header: a trace from a
    /// run that did little work, or an engine path that never emitted that
    /// event family, is a valid input here, not an error.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "events: {}", self.events);
        if self.events == 0 {
            let _ = writeln!(
                out,
                "(empty trace — no metrics recorded; was the run traced with --trace?)"
            );
            return out;
        }
        if let Some((program, cost)) = &self.solution {
            let _ = writeln!(out, "solution (cost {cost}): {program}");
        }
        let _ = writeln!(out, "\npops by kind:");
        if self.pops_by_kind.is_empty() {
            let _ = writeln!(out, "  (none recorded in this trace)");
        }
        for (kind, n) in &self.pops_by_kind {
            let _ = writeln!(out, "  {kind:<8} {n}");
        }
        let _ = writeln!(
            out,
            "\nper-combinator attribution:\n  {:<8} {:>7} {:>6} {:>8} {:>7} {:>9} {:>9}",
            "comb", "plans", "rows", "refuted", "static", "ill-typed", "init-mism"
        );
        if self.combs.is_empty() {
            let _ = writeln!(out, "  (none recorded in this trace)");
        }
        for (name, row) in &self.combs {
            let _ = writeln!(
                out,
                "  {:<8} {:>7} {:>6} {:>8} {:>7} {:>9} {:>9}",
                name,
                row.plans,
                row.rows_inferred,
                row.refuted,
                row.static_refuted,
                row.ill_typed,
                row.init_mismatch
            );
        }
        let _ = writeln!(out, "\nrefutations by rule:");
        if self.refute_reasons.is_empty()
            && self.static_domains.is_empty()
            && self.pruned_domains.is_empty()
        {
            let _ = writeln!(out, "  (none recorded in this trace)");
        }
        for (reason, n) in &self.refute_reasons {
            match self.yield_per_ms(*n) {
                Some(y) => {
                    let _ = writeln!(out, "  {reason:<14} {n:>8}   ({y:.0}/ms of deduction)");
                }
                None => {
                    let _ = writeln!(out, "  {reason:<14} {n:>8}");
                }
            }
        }
        for (domain, n) in &self.static_domains {
            let label = format!("static:{domain}");
            match self.yield_per_ms(*n) {
                Some(y) => {
                    let _ = writeln!(out, "  {label:<14} {n:>8}   ({y:.0}/ms of deduction)");
                }
                None => {
                    let _ = writeln!(out, "  {label:<14} {n:>8}");
                }
            }
        }
        for (domain, n) in &self.pruned_domains {
            let label = format!("prune:{domain}");
            match self.yield_per_ms(*n) {
                Some(y) => {
                    let _ = writeln!(out, "  {label:<14} {n:>8}   ({y:.0}/ms of deduction)");
                }
                None => {
                    let _ = writeln!(out, "  {label:<14} {n:>8}");
                }
            }
        }
        let _ = writeln!(
            out,
            "\nverify: {} ok, {} failed; stores: {} created, {} hits, {} evicted, {} cut; \
             tiers: {} ({} fills); faults: {}",
            self.verify_ok,
            self.verify_fail,
            self.store_creates,
            self.store_hits,
            self.store_evicts,
            self.store_cuts,
            self.tiers,
            self.tier_fills,
            self.faults
        );
        if let Some(t) = &self.time {
            let pct = |us: u64| {
                if t.total_us == 0 {
                    0.0
                } else {
                    us as f64 * 100.0 / t.total_us as f64
                }
            };
            let _ = writeln!(
                out,
                "\ntime attribution over {:.1}ms: deduce {:.1}ms ({:.0}%), enumerate {:.1}ms \
                 ({:.0}%), verify {:.1}ms ({:.0}%), search/expand {:.1}ms ({:.0}%)",
                t.total_us as f64 / 1e3,
                t.deduce_us as f64 / 1e3,
                pct(t.deduce_us),
                t.enumerate_us as f64 / 1e3,
                pct(t.enumerate_us),
                t.verify_us as f64 / 1e3,
                pct(t.verify_us),
                t.search_us as f64 / 1e3,
                pct(t.search_us)
            );
        } else {
            let _ = writeln!(
                out,
                "\n(no t_us timestamps — time attribution and refutation yield unavailable)"
            );
        }
        out
    }
}

/// Phase category a trace event's preceding work belongs to.
fn category(ev: &Json) -> &'static str {
    match ev.get("ev").and_then(Json::as_str) {
        Some("plan" | "refute" | "static-refute") => "deduce",
        Some("tier" | "store") => "enumerate",
        Some("verify") => "verify",
        _ => "search",
    }
}

/// Builds the attribution [`Summary`] of a trace.
pub fn summarize(trace: &Trace) -> Summary {
    let mut s = Summary {
        events: trace.len(),
        ..Summary::default()
    };
    let str_of = |ev: &Json, key: &str| ev.get(key).and_then(Json::as_str).map(str::to_owned);
    let n_of = |ev: &Json, key: &str| ev.get(key).and_then(Json::as_u64).unwrap_or(0);
    for ev in &trace.events {
        match ev.get("ev").and_then(Json::as_str) {
            Some("pop") => {
                let kind = str_of(ev, "kind").unwrap_or_else(|| "?".to_owned());
                *s.pops_by_kind.entry(kind).or_default() += 1;
                *s.pop_costs.entry(n_of(ev, "cost")).or_default() += 1;
            }
            Some("plan") => {
                if let Some(comb) = str_of(ev, "comb") {
                    let row = s.combs.entry(comb).or_default();
                    row.plans += 1;
                    row.rows_inferred += n_of(ev, "rows");
                }
            }
            Some("refute") => {
                let reason = str_of(ev, "reason").unwrap_or_else(|| "?".to_owned());
                *s.refute_reasons.entry(reason.clone()).or_default() += 1;
                if let Some(comb) = str_of(ev, "comb") {
                    let row = s.combs.entry(comb).or_default();
                    match reason.as_str() {
                        "deduction" => row.refuted += 1,
                        "ill-typed" => row.ill_typed += 1,
                        "init-mismatch" => row.init_mismatch += 1,
                        _ => {}
                    }
                }
            }
            Some("static-refute") => {
                let domain = str_of(ev, "domain").unwrap_or_else(|| "?".to_owned());
                // The serializer only emits `pruned` when true (pruning
                // tier); attribution-tier events omit it.
                if ev.get("pruned") == Some(&Json::Bool(true)) {
                    *s.pruned_domains.entry(domain).or_default() += 1;
                } else {
                    *s.static_domains.entry(domain).or_default() += 1;
                }
                if let Some(comb) = str_of(ev, "comb") {
                    s.combs.entry(comb).or_default().static_refuted += 1;
                }
            }
            Some("tier") => {
                s.tiers += 1;
                s.tier_fills += n_of(ev, "fills");
            }
            Some("store") => match ev.get("action").and_then(Json::as_str) {
                Some("create") => s.store_creates += 1,
                Some("hit") => s.store_hits += 1,
                Some("evict") => s.store_evicts += 1,
                Some("cut") => s.store_cuts += 1,
                _ => {}
            },
            Some("verify") => {
                if ev.get("ok") == Some(&Json::Bool(true)) {
                    s.verify_ok += 1;
                    if s.solution.is_none() {
                        if let Some(p) = str_of(ev, "program") {
                            s.solution = Some((p, n_of(ev, "cost")));
                        }
                    }
                } else {
                    s.verify_fail += 1;
                }
            }
            Some("fault") => s.faults += 1,
            _ => {}
        }
    }
    if trace.has_timestamps() {
        let mut t = TimeAttribution::default();
        let first = trace.t_us(0).unwrap_or(0);
        let mut prev = first;
        for i in 0..trace.len() {
            // A progress heartbeat fires mid-phase on wall-clock cadence;
            // attributing the gap it ends to any category would be noise.
            // Skipping it folds its gap into the next real event's.
            if trace.events[i].get("ev").and_then(Json::as_str) == Some("progress") {
                continue;
            }
            let now = trace.t_us(i).unwrap_or(prev);
            let gap = now.saturating_sub(prev);
            match category(&trace.events[i]) {
                "deduce" => t.deduce_us += gap,
                "enumerate" => t.enumerate_us += gap,
                "verify" => t.verify_us += gap,
                _ => t.search_us += gap,
            }
            prev = now;
        }
        t.total_us = prev.saturating_sub(first);
        s.time = Some(t);
    }
    s
}

// --- Derivation-tree folding (flamegraph stacks) ------------------------

/// How [`collapse_tree`] weighs a popped hypothesis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weight {
    /// One unit per pop.
    Pops,
    /// Microseconds from the pop to the next pop (the time spent
    /// processing the popped item). Requires `t_us` timestamps.
    Time,
}

/// Combinator heads recognized in a sketch, in sketch prefix order.
const COMB_HEADS: &[&str] = &["map", "filter", "foldl", "foldr", "recl", "mapt", "foldt"];

/// The flamegraph stack of a hypothesis sketch: `root` followed by the
/// combinator heads in the sketch, in prefix (outermost-first,
/// left-to-right) order. `(foldl (lambda (a x) (+ a ?2)) 0 l)` folds to
/// `root;foldl`; a nested `(map (lambda (x) (foldl … ?3 …)) l)` to
/// `root;map;foldl`.
fn sketch_stack(sketch: &str) -> String {
    let mut stack = String::from("root");
    // Tokens directly following an opening paren are application heads;
    // combinator heads among them, in order, form the derivation path.
    let mut head = false;
    let mut token = String::new();
    for ch in sketch.chars() {
        match ch {
            '(' => {
                head = true;
                token.clear();
            }
            c if c.is_whitespace() || c == ')' => {
                if head && COMB_HEADS.contains(&token.as_str()) {
                    stack.push(';');
                    stack.push_str(&token);
                }
                head = false;
                token.clear();
            }
            c => {
                if head {
                    token.push(c);
                }
            }
        }
    }
    stack
}

/// Folds a trace's popped hypotheses into flamegraph collapsed-stack
/// lines: `(stack, weight)` pairs, sorted by stack, ready to be printed
/// as `stack weight` and fed to any standard flamegraph renderer.
///
/// Only `pop` events contribute; each pop's sketch becomes a stack of
/// combinator heads ([`sketch_stack`]) and its weight is one pop or the
/// time until the next pop ([`Weight`]).
///
/// # Errors
///
/// [`ProfileError::NoTimestamps`] for [`Weight::Time`] on a trace
/// without `t_us` fields.
pub fn collapse_tree(trace: &Trace, weight: Weight) -> Result<Vec<(String, u64)>, ProfileError> {
    if weight == Weight::Time && !trace.has_timestamps() {
        return Err(ProfileError::NoTimestamps);
    }
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    let pops: Vec<usize> = (0..trace.len())
        .filter(|&i| trace.events[i].get("ev").and_then(Json::as_str) == Some("pop"))
        .collect();
    for (k, &i) in pops.iter().enumerate() {
        let sketch = trace.events[i]
            .get("sketch")
            .and_then(Json::as_str)
            .unwrap_or("");
        let w = match weight {
            Weight::Pops => 1,
            Weight::Time => {
                // Time from this pop to the next pop (or trace end): the
                // span spent processing the popped item.
                let here = trace.t_us(i).unwrap_or(0);
                let end = match pops.get(k + 1) {
                    Some(&j) => trace.t_us(j).unwrap_or(here),
                    None => trace.t_us(trace.len() - 1).unwrap_or(here),
                };
                end.saturating_sub(here)
            }
        };
        *stacks.entry(sketch_stack(sketch)).or_default() += w;
    }
    Ok(stacks.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;

    fn line(ev: &str) -> String {
        format!(r#"{{"v":1,"ev":{ev}}}"#)
    }

    #[test]
    fn parse_rejects_missing_and_wrong_versions() {
        let ok = parse_trace(&line(r#""pop","kind":"hyp","cost":3,"sketch":"?1""#)).unwrap();
        assert_eq!(ok.len(), 1);
        let missing = parse_trace(r#"{"ev":"pop"}"#);
        assert!(matches!(
            missing,
            Err(ProfileError::Record(RecordError::Version {
                line: 1,
                found: None,
                ..
            }))
        ));
        let future = parse_trace(&format!(
            "{}\n{}",
            line(r#""pop""#),
            r#"{"v":99,"ev":"pop"}"#
        ));
        assert!(matches!(
            future,
            Err(ProfileError::Record(RecordError::Version {
                line: 2,
                found: Some(99),
                ..
            }))
        ));
        let garbage = parse_trace("not json\n");
        assert!(matches!(
            garbage,
            Err(ProfileError::Record(RecordError::Parse { line: 1, .. }))
        ));
    }

    #[test]
    fn event_key_strips_only_the_volatile_timestamp() {
        let a = json::parse(r#"{"v":1,"t_us":123,"ev":"pop","cost":3}"#).unwrap();
        let b = json::parse(r#"{"v":1,"t_us":99999,"ev":"pop","cost":3}"#).unwrap();
        let c = json::parse(r#"{"v":1,"t_us":123,"ev":"pop","cost":4}"#).unwrap();
        assert_eq!(event_key(&a), event_key(&b));
        assert_ne!(event_key(&a), event_key(&c));
        assert!(!event_key(&a).contains("t_us"));
        // Worker/problem tags from merged parallel traces are part of the
        // key — they are deterministic.
        let tagged = json::parse(r#"{"problem":"evens","worker":2,"v":1,"ev":"pop"}"#).unwrap();
        assert!(event_key(&tagged).contains("worker"));
    }

    #[test]
    fn diff_distinguishes_identical_truncated_and_divergent() {
        let full = parse_trace(&format!(
            "{}\n{}\n{}",
            line(r#""pop","cost":1"#),
            line(r#""plan","comb":"map""#),
            line(r#""verify","ok":true"#)
        ))
        .unwrap();
        assert_eq!(
            diff_traces(&full, &full.clone()),
            DiffOutcome::Identical { events: 3 }
        );
        let short = Trace {
            events: full.events[..2].to_vec(),
        };
        assert_eq!(
            diff_traces(&full, &short),
            DiffOutcome::Truncated {
                common: 2,
                len_a: 3,
                len_b: 2
            }
        );
        let mut other = full.clone();
        other.events[1] = json::parse(&line(r#""plan","comb":"filter""#)).unwrap();
        match diff_traces(&full, &other) {
            DiffOutcome::Divergence {
                index,
                key_a,
                key_b,
            } => {
                assert_eq!(index, 1);
                assert!(key_a.contains("map"));
                assert!(key_b.contains("filter"));
            }
            o => panic!("expected divergence, got {o:?}"),
        }
    }

    #[test]
    fn summary_attributes_combs_rules_and_time() {
        // The `mapt`/`shape` line is an attribution-tier event from a
        // build with the abstract pre-pass: older v1 traces must keep
        // loading and summarizing.
        let src = [
            r#"{"v":1,"t_us":0,"ev":"pop","kind":"hyp","cost":1,"holes":1,"sketch":"?1"}"#,
            r#"{"v":1,"t_us":100,"ev":"store","action":"create","terms":0,"bytes":0}"#,
            r#"{"v":1,"t_us":300,"ev":"refute","comb":"map","coll":"l","reason":"deduction"}"#,
            r#"{"v":1,"t_us":350,"ev":"static-refute","comb":"mapt","coll":"l","domain":"shape"}"#,
            r#"{"v":1,"t_us":375,"ev":"static-refute","comb":"filter","coll":"l","domain":"cardinality","pruned":true}"#,
            r#"{"v":1,"t_us":400,"ev":"plan","comb":"filter","coll":"l","delta_cost":4,"rows":3}"#,
            r#"{"v":1,"t_us":900,"ev":"verify","ok":true,"cost":7,"program":"(filter f l)"}"#,
        ]
        .join("\n");
        let trace = parse_trace(&src).unwrap();
        let s = summarize(&trace);
        assert_eq!(s.events, 7);
        assert_eq!(s.pops_by_kind.get("hyp"), Some(&1));
        assert_eq!(s.pop_costs.get(&1), Some(&1));
        let filter = s.combs.get("filter").unwrap();
        assert_eq!((filter.plans, filter.rows_inferred), (1, 3));
        // The pruned cardinality refutation counts toward filter's
        // static_refuted column but lands in pruned_domains, not
        // static_domains.
        assert_eq!(filter.static_refuted, 1);
        assert_eq!(s.combs.get("map").unwrap().refuted, 1);
        assert_eq!(s.combs.get("mapt").unwrap().static_refuted, 1);
        assert_eq!(s.refute_reasons.get("deduction"), Some(&1));
        assert_eq!(s.static_domains.get("shape"), Some(&1));
        assert_eq!(s.static_domains.get("cardinality"), None);
        assert_eq!(s.pruned_domains.get("cardinality"), Some(&1));
        assert_eq!(s.store_creates, 1);
        assert_eq!(s.verify_ok, 1);
        assert_eq!(s.solution, Some(("(filter f l)".to_owned(), 7)));
        let t = s.time.as_ref().unwrap();
        assert_eq!(t.total_us, 900);
        // store@100 ends 100us of enumerate; refute@300 + static@350 +
        // pruned@375 + plan@400 end 300us of deduce; verify@900 ends 500us.
        assert_eq!(t.enumerate_us, 100);
        assert_eq!(t.deduce_us, 300);
        assert_eq!(t.verify_us, 500);
        assert_eq!(
            t.deduce_us + t.enumerate_us + t.verify_us + t.search_us,
            t.total_us
        );
        // Refutation yield: 1 deduction refutation / 0.3ms.
        let y = s.yield_per_ms(1).unwrap();
        assert!((y - 1.0 / 0.3).abs() < 1e-9, "{y}");
        let text = s.render_text();
        assert!(text.contains("filter"));
        assert!(text.contains("static:shape"));
        assert!(text.contains("prune:cardinality"));
        assert!(text.contains("time attribution"));
        let j = s.to_json();
        assert_eq!(json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn summary_without_timestamps_has_no_time() {
        let trace = parse_trace(&line(r#""pop","kind":"hyp","cost":1,"sketch":"?1""#)).unwrap();
        let s = summarize(&trace);
        assert_eq!(s.time, None);
        assert_eq!(s.yield_per_ms(5), None);
        assert!(s.render_text().contains("no t_us"));
    }

    #[test]
    fn sketch_stacks_follow_combinator_heads_in_prefix_order() {
        assert_eq!(sketch_stack("?1"), "root");
        assert_eq!(sketch_stack("(map (lambda (x) ?2) l)"), "root;map");
        assert_eq!(
            sketch_stack("(map (lambda (x) (foldl (lambda (a y) ?3) 0 x)) l)"),
            "root;map;foldl"
        );
        // `mapt` must not be mistaken for `map`, nor variables for heads.
        assert_eq!(sketch_stack("(mapt (lambda (x) (+ x map)) t)"), "root;mapt");
    }

    #[test]
    fn collapse_tree_weighs_pops_and_time() {
        let src = [
            r#"{"v":1,"t_us":0,"ev":"pop","kind":"hyp","cost":1,"holes":1,"sketch":"?1"}"#,
            r#"{"v":1,"t_us":40,"ev":"plan","comb":"map","coll":"l","delta_cost":4,"rows":2}"#,
            r#"{"v":1,"t_us":100,"ev":"pop","kind":"apply","cost":5,"holes":1,"sketch":"(map (lambda (x) ?2) l)"}"#,
            r#"{"v":1,"t_us":400,"ev":"pop","kind":"hyp","cost":5,"holes":1,"sketch":"(map (lambda (x) ?2) l)"}"#,
            r#"{"v":1,"t_us":900,"ev":"verify","ok":true,"cost":7,"program":"(map f l)"}"#,
        ]
        .join("\n");
        let trace = parse_trace(&src).unwrap();
        let pops = collapse_tree(&trace, Weight::Pops).unwrap();
        assert_eq!(
            pops,
            vec![("root".to_owned(), 1), ("root;map".to_owned(), 2)]
        );
        let time = collapse_tree(&trace, Weight::Time).unwrap();
        // root: 0→100; root;map: (100→400) + (400→900, to trace end).
        assert_eq!(
            time,
            vec![("root".to_owned(), 100), ("root;map".to_owned(), 800)]
        );
        // Time weighting without timestamps is an explicit error.
        let untimed = parse_trace(&line(r#""pop","kind":"hyp","cost":1,"sketch":"?1""#)).unwrap();
        assert_eq!(
            collapse_tree(&untimed, Weight::Time),
            Err(ProfileError::NoTimestamps)
        );
    }
}
