//! Cross-run observability: a persistent corpus of run records and the
//! regression analysis over it.
//!
//! Per-run telemetry (traces, histograms, `l2 profile`) answers "what did
//! *this* search do"; nothing so far answered "is the system getting
//! slower *across* runs". This module is the durable layer underneath
//! that question: an append-only JSONL store of [`RunRecord`]s — one
//! [`Measurement`] per line, keyed by problem name, a canonical
//! [`options_fingerprint`] of the effective [`SearchOptions`], and a
//! build revision — plus aggregation ([`aggregate`]) and a regression
//! watchdog ([`regress`]) that compares fresh runs against the stored
//! baseline.
//!
//! Design constraints carried over from the rest of `obs`:
//!
//! * **Zero deps** — records serialize through the hand-rolled
//!   [`json`](crate::obs::json) module; the fingerprint hash is an
//!   inlined FNV-1a.
//! * **Hermetic** — the build revision comes from the
//!   `LAMBDA2_BUILD_REV` environment variable ([`build_rev`]), never
//!   from invoking `git` at runtime.
//! * **One record format** — the store is a [`jsonl`] record file:
//!   versioned lines, whole-line appends, a tolerated torn tail.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::enumerate::EnumLimits;
use crate::obs::json::Json;
use crate::obs::jsonl::{self, RecordError};
use crate::obs::metrics::{Histogram, EXP2_BOUNDS};
use crate::obs::SCHEMA_VERSION;
use crate::search::SearchOptions;
use crate::stats::Measurement;

/// File name of the record store inside a corpus directory.
pub const CORPUS_FILE: &str = "runs.jsonl";

/// 64-bit FNV-1a over a byte string — the corpus' stable, dependency-free
/// hash. Not cryptographic; collisions only risk conflating two option
/// sets, which the rendered key material makes astronomically unlikely.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical fingerprint of the *effective* search configuration.
///
/// The fingerprint is the FNV-1a hash (16 hex digits) of a normalized
/// `key=value` rendering with a fixed key order, so it is stable across
/// CLI flag reordering and across unrelated code motion. The
/// observation-only [`SearchOptions::progress`] knob is deliberately
/// excluded: it is proven (by differential test) not to change programs,
/// costs, or counters, so toggling it must not fork a problem's baseline.
/// Everything else is included.
///
/// The exhaustive destructuring below means adding a `SearchOptions`
/// field without deciding whether it belongs in the fingerprint is a
/// compile error, never a silent baseline fork.
pub fn options_fingerprint(options: &SearchOptions) -> String {
    let SearchOptions {
        deduction,
        static_prune,
        max_term_cost,
        max_term_cost_blind,
        max_collection_cost,
        max_init_cost,
        max_free_init_cost,
        max_cost,
        timeout,
        max_overshoot,
        max_popped,
        eval_fuel,
        max_total_fuel,
        retry_ladder,
        enum_limits,
        max_store_bytes,
        constructor_hypotheses,
        trace_probes,
        expand_blind_holes,
        progress: _, // observation-only: never forks a baseline
    } = options;
    let EnumLimits {
        max_level_terms,
        max_terms,
        synthetic_probes,
    } = enum_limits;
    let timeout_ms = match timeout {
        Some(d) => d.as_millis().to_string(),
        None => "none".to_owned(),
    };
    let mut material = String::new();
    let mut pairs = vec![
        ("constructor_hypotheses", constructor_hypotheses.to_string()),
        ("deduction", deduction.to_string()),
        ("eval_fuel", eval_fuel.to_string()),
        ("expand_blind_holes", expand_blind_holes.to_string()),
    ];
    // Pruning is proven (by differential test) to keep programs and costs
    // byte-identical, and it ships default-on — so the default keeps the
    // fingerprints of every record written before the flag existed, and
    // only the `--no-static-prune` ablation forks its own baseline (its
    // counters genuinely differ: pruned work comes back).
    if !*static_prune {
        pairs.push(("static_prune", static_prune.to_string()));
    }
    pairs.extend([
        ("max_collection_cost", max_collection_cost.to_string()),
        ("max_cost", max_cost.to_string()),
        ("max_free_init_cost", max_free_init_cost.to_string()),
        ("max_init_cost", max_init_cost.to_string()),
        ("max_level_terms", max_level_terms.to_string()),
        ("max_overshoot_ms", max_overshoot.as_millis().to_string()),
        ("max_popped", max_popped.to_string()),
        ("max_store_bytes", max_store_bytes.to_string()),
        ("max_term_cost", max_term_cost.to_string()),
        ("max_term_cost_blind", max_term_cost_blind.to_string()),
        ("max_terms", max_terms.to_string()),
        ("max_total_fuel", max_total_fuel.to_string()),
        ("retry_ladder", retry_ladder.to_string()),
        ("synthetic_probes", synthetic_probes.to_string()),
        ("timeout_ms", timeout_ms),
        ("trace_probes", trace_probes.to_string()),
    ]);
    for (key, value) in pairs {
        material.push_str(key);
        material.push('=');
        material.push_str(&value);
        material.push('\n');
    }
    format!("{:016x}", fnv1a(material.as_bytes()))
}

/// Fingerprint for records ingested from files that no longer carry their
/// `SearchOptions` (legacy `BENCH_*.json`, bare `--stats-json` lines):
/// the hash of whatever configuration-describing key material the file
/// *does* carry, under an `ingest:` prefix so such baselines can never be
/// confused with first-class [`options_fingerprint`]s.
pub fn ingest_fingerprint(material: &str) -> String {
    format!("ingest:{:016x}", fnv1a(material.as_bytes()))
}

/// The build revision recorded with every run: the `LAMBDA2_BUILD_REV`
/// environment variable when set and non-empty (CI sets it to the commit
/// SHA), `"unknown"` otherwise. Hermetic — never shells out to `git`.
pub fn build_rev() -> String {
    match std::env::var("LAMBDA2_BUILD_REV") {
        Ok(rev) if !rev.is_empty() => rev,
        _ => "unknown".to_owned(),
    }
}

/// The histograms of a run's `stats.metrics` whose `count` and `sum` are
/// determinism-backed (term-store and level sizes, queue depths; the
/// others time things). [`regress`] pins their totals like counters.
const PINNED_HISTOGRAMS: [&str; 4] = ["store_terms", "store_bytes", "level_terms", "queue_depth"];

/// One corpus line: a [`Measurement`] plus the identity that makes it
/// comparable across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Problem name (duplicates `run.name` for grouping without
    /// re-descending into the measurement).
    pub problem: String,
    /// [`options_fingerprint`] (or [`ingest_fingerprint`]) of the
    /// configuration that produced the run.
    pub fingerprint: String,
    /// Build revision (see [`build_rev`]).
    pub build_rev: String,
    /// The full measurement object, in [`Measurement::to_json`] shape —
    /// counters, phase times, and histograms.
    pub run: Json,
}

impl RunRecord {
    /// Wraps a fresh [`Measurement`] with the current build revision.
    pub fn of_measurement(m: &Measurement, fingerprint: &str) -> RunRecord {
        RunRecord {
            problem: m.name.clone(),
            fingerprint: fingerprint.to_owned(),
            build_rev: build_rev(),
            run: m.to_json(),
        }
    }

    /// Wraps a [`Measurement`] taken by the serve daemon, keyed by the
    /// server-assigned request ID: the ID is stored as a `req_id` string
    /// inside the run object, where it joins the record to the matching
    /// access-log line and slow-trace file without perturbing anything
    /// [`counters`](RunRecord::counters) reads (which keeps only
    /// integer-valued fields). `l2 corpus regress` therefore gates served
    /// traffic exactly like local runs.
    pub fn of_served_request(m: &Measurement, fingerprint: &str, req_id: &str) -> RunRecord {
        let mut record = RunRecord::of_measurement(m, fingerprint);
        if let Json::Obj(pairs) = &mut record.run {
            pairs.push(("req_id".to_owned(), req_id.into()));
        }
        record
    }

    /// The serve request ID this record was keyed by, when it came from
    /// [`of_served_request`](RunRecord::of_served_request).
    pub fn req_id(&self) -> Option<&str> {
        self.run.get("req_id").and_then(Json::as_str)
    }

    /// Serializes the record to its JSONL line form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("v", SCHEMA_VERSION.into()),
            ("problem", self.problem.as_str().into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("build_rev", self.build_rev.as_str().into()),
            ("run", self.run.clone()),
        ])
    }

    fn from_json(j: &Json) -> Result<RunRecord, String> {
        let field = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record missing string field {key:?}"))
        };
        let run = j
            .get("run")
            .cloned()
            .ok_or("record missing field \"run\"")?;
        Ok(RunRecord {
            problem: field("problem")?,
            fingerprint: field("fingerprint")?,
            build_rev: field("build_rev")?,
            run,
        })
    }

    /// Whether the run solved its problem.
    pub fn solved(&self) -> bool {
        self.run.get("solved").and_then(Json::as_bool) == Some(true)
    }

    /// Cost of the synthesized program (0 when unsolved).
    pub fn cost(&self) -> i64 {
        self.run.get("cost").and_then(Json::as_i64).unwrap_or(0)
    }

    /// The synthesized program (empty when unsolved).
    pub fn program(&self) -> &str {
        self.run.get("program").and_then(Json::as_str).unwrap_or("")
    }

    /// Wall-clock time of the run in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.run
            .get("elapsed_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// The determinism-backed search counters, in record order: every
    /// integer-valued field of the measurement's `stats` object (the
    /// nested `phases`/`metrics` objects carry wall times and are
    /// skipped). Reading the keys from the record instead of a hardcoded
    /// list means newly added counters join the regression contract
    /// automatically.
    pub fn counters(&self) -> Vec<(String, i64)> {
        let Some(Json::Obj(pairs)) = self.run.get("stats") else {
            return Vec::new();
        };
        pairs
            .iter()
            .filter_map(|(k, v)| v.as_i64().map(|n| (k.clone(), n)))
            .collect()
    }

    /// The `count` and `sum` of each of [`PINNED_HISTOGRAMS`] the record
    /// carries, keyed `"<histogram>.count"` and `"<histogram>.sum"`.
    fn histogram_totals(&self) -> Vec<(String, i64)> {
        let Some(metrics) = self.run.get("stats").and_then(|s| s.get("metrics")) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for name in PINNED_HISTOGRAMS {
            for total in ["count", "sum"] {
                if let Some(n) = metrics.get(name).and_then(|h| h.get(total)?.as_i64()) {
                    out.push((format!("{name}.{total}"), n));
                }
            }
        }
        out
    }
}

/// Handle on one corpus directory (created on open).
#[derive(Clone, Debug)]
pub struct Corpus {
    dir: PathBuf,
}

impl Corpus {
    /// Opens (creating if needed) the corpus directory.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] when the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Corpus, RecordError> {
        fs::create_dir_all(dir).map_err(|e| RecordError::io(dir, &e))?;
        Ok(Corpus {
            dir: dir.to_owned(),
        })
    }

    /// The record store file inside the corpus directory.
    pub fn store_path(&self) -> PathBuf {
        self.dir.join(CORPUS_FILE)
    }

    /// Appends records to the store (one whole line each, see
    /// [`jsonl::append`]). Append-only by construction: history is the
    /// whole point of the corpus.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] on any write failure.
    pub fn append(&self, records: &[RunRecord]) -> Result<(), RecordError> {
        jsonl::append(&self.store_path(), records.iter().map(RunRecord::to_json))
    }

    /// Loads every record in the store, in append order. A corpus whose
    /// store file does not exist yet is empty, not an error.
    ///
    /// # Errors
    ///
    /// [`RecordError`] on IO, parse, or schema-version failure.
    pub fn load(&self) -> Result<Vec<RunRecord>, RecordError> {
        let path = self.store_path();
        if !path.exists() {
            return Ok(Vec::new());
        }
        load_records(&path)
    }
}

/// Parses a JSONL record file (see [`Corpus::load`]).
///
/// # Errors
///
/// [`RecordError`] on IO, parse, or schema-version failure.
pub fn load_records(path: &Path) -> Result<Vec<RunRecord>, RecordError> {
    jsonl::load(path, |j| RunRecord::from_json(&j))
}

/// Converts measurement-shaped JSON (a `--stats-json` line or one entry
/// of a `BENCH_*.json` `results` array) into a record under the given
/// fingerprint.
///
/// # Errors
///
/// A rendered message when the object is not measurement-shaped.
pub fn ingest_measurement(doc: &Json, fingerprint: &str) -> Result<RunRecord, String> {
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("measurement has no \"name\" field")?;
    if doc.get("stats").is_none() {
        return Err("measurement has no \"stats\" field".to_owned());
    }
    Ok(RunRecord {
        problem: name.to_owned(),
        fingerprint: fingerprint.to_owned(),
        build_rev: build_rev(),
        run: doc.clone(),
    })
}

/// Converts a whole `BENCH_*.json` document into records. The fingerprint
/// is derived from the bench name, the document's scalar meta fields, and
/// each result's engine `label` — the closest available stand-in for the
/// options the harness actually ran (see [`ingest_fingerprint`]).
///
/// # Errors
///
/// A rendered message when the document is not bench-shaped.
pub fn ingest_bench(doc: &Json) -> Result<Vec<RunRecord>, String> {
    let Json::Obj(pairs) = doc else {
        return Err("bench document is not a JSON object".to_owned());
    };
    jsonl::check_version(doc)
        .map_err(|found| format!("bench document: {}", jsonl::version_message(found)))?;
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items,
        _ => return Err("bench document has no \"results\" array".to_owned()),
    };
    let mut meta = String::new();
    for (k, v) in pairs {
        if k != "results" {
            meta.push_str(&format!("{k}={v}\n"));
        }
    }
    let mut records = Vec::with_capacity(results.len());
    for (i, item) in results.iter().enumerate() {
        let label = item.get("label").and_then(Json::as_str).unwrap_or("");
        let fingerprint = ingest_fingerprint(&format!("{meta}label={label}\n"));
        records.push(
            ingest_measurement(item, &fingerprint).map_err(|e| format!("results[{i}]: {e}"))?,
        );
    }
    Ok(records)
}

/// Per-(problem, fingerprint) summary across every stored run.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Problem name.
    pub problem: String,
    /// Configuration fingerprint.
    pub fingerprint: String,
    /// Runs recorded.
    pub runs: u64,
    /// Runs that solved the problem.
    pub solved: u64,
    /// Lowest program cost over solved runs (`None` when never solved).
    pub cost_lo: Option<i64>,
    /// Highest program cost over solved runs.
    pub cost_hi: Option<i64>,
    /// Whether every run's determinism-backed counters agree with the
    /// most recent run's. `false` flags a fork: same problem and options
    /// but diverging search behavior across the stored history (usually a
    /// code change without a new `LAMBDA2_BUILD_REV`).
    pub counters_agree: bool,
    /// Wall-time distribution (microseconds) over the stored runs —
    /// quantiles come from the histogram, at its bucket resolution.
    pub elapsed_us: Histogram,
}

impl Aggregate {
    /// A wall-time quantile in milliseconds (histogram bucket
    /// resolution; 0 for an empty group, which cannot happen for
    /// aggregates built by [`aggregate`]).
    pub fn wall_ms(&self, q: f64) -> f64 {
        self.elapsed_us.quantile(q).unwrap_or(0) as f64 / 1e3
    }

    /// Serializes the aggregate for `l2 corpus list/stats --json`.
    pub fn to_json(&self) -> Json {
        let cost = |c: Option<i64>| c.map(Json::Int).unwrap_or(Json::Null);
        Json::obj([
            ("v", SCHEMA_VERSION.into()),
            ("problem", self.problem.as_str().into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("runs", self.runs.into()),
            ("solved", self.solved.into()),
            ("cost_lo", cost(self.cost_lo)),
            ("cost_hi", cost(self.cost_hi)),
            ("counters_agree", self.counters_agree.into()),
            ("wall_p50_ms", Json::Float(self.wall_ms(0.5))),
            ("wall_p90_ms", Json::Float(self.wall_ms(0.9))),
            ("wall_max_ms", Json::Float(self.wall_ms(1.0))),
        ])
    }
}

/// Groups records by (problem, fingerprint) and summarizes each group,
/// sorted by problem then fingerprint.
pub fn aggregate(records: &[RunRecord]) -> Vec<Aggregate> {
    let mut groups: BTreeMap<(String, String), Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        groups
            .entry((r.problem.clone(), r.fingerprint.clone()))
            .or_default()
            .push(r);
    }
    groups
        .into_iter()
        .map(|((problem, fingerprint), group)| {
            let mut elapsed_us = Histogram::new(EXP2_BOUNDS);
            let mut solved = 0u64;
            let mut cost_lo = None;
            let mut cost_hi = None;
            for r in &group {
                elapsed_us.record((r.elapsed_ms() * 1e3).max(0.0) as u64);
                if r.solved() {
                    solved += 1;
                    let c = r.cost();
                    cost_lo = Some(cost_lo.map_or(c, |lo: i64| lo.min(c)));
                    cost_hi = Some(cost_hi.map_or(c, |hi: i64| hi.max(c)));
                }
            }
            let reference = group.last().expect("groups are non-empty").counters();
            let counters_agree = group.iter().all(|r| r.counters() == reference);
            Aggregate {
                problem,
                fingerprint,
                runs: group.len() as u64,
                solved,
                cost_lo,
                cost_hi,
                counters_agree,
                elapsed_us,
            }
        })
        .collect()
}

/// Thresholds for the wall-time leg of [`regress`]. Counters and costs
/// are determinism-backed and always compared exactly; wall time is noisy
/// and compared relatively.
#[derive(Clone, Copy, Debug)]
pub struct RegressThresholds {
    /// A fresh run regresses when its wall time exceeds the baseline
    /// median by more than this factor...
    pub wall_ratio: f64,
    /// ...*and* by more than this absolute floor (milliseconds), so
    /// micro-runs measured in hundreds of microseconds can't trip the
    /// ratio on scheduler noise.
    pub wall_floor_ms: f64,
    /// Whether to check wall time at all. Off for cross-machine gating
    /// (CI compares a laptop-built baseline on other hardware), where
    /// only counters and costs are meaningful.
    pub check_wall: bool,
}

impl Default for RegressThresholds {
    fn default() -> RegressThresholds {
        RegressThresholds {
            wall_ratio: 1.5,
            wall_floor_ms: 100.0,
            check_wall: true,
        }
    }
}

/// Severity of one [`Finding`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// A genuine divergence — `l2 corpus regress` exits 1.
    Regression,
    /// Informational (no baseline for a fresh run, an improvement, …) —
    /// never affects the exit code.
    Note,
}

impl FindingKind {
    /// The stable name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::Regression => "regression",
            FindingKind::Note => "note",
        }
    }
}

/// One conclusion of a [`regress`] comparison.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Problem name.
    pub problem: String,
    /// Configuration fingerprint the comparison ran under.
    pub fingerprint: String,
    /// Severity.
    pub kind: FindingKind,
    /// Human-readable description of what diverged (or what was noted).
    pub detail: String,
}

impl Finding {
    /// Serializes the finding for `l2 corpus regress --json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("v", SCHEMA_VERSION.into()),
            ("problem", self.problem.as_str().into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            ("kind", self.kind.name().into()),
            ("detail", self.detail.as_str().into()),
        ])
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Compares fresh runs against the corpus baseline.
///
/// For each (problem, fingerprint) group in `fresh`, the latest fresh
/// record is compared against the baseline group with the same key:
/// solved status, program, program cost, every determinism-backed
/// counter, and the totals of the baseline's [`PINNED_HISTOGRAMS`] must
/// match the latest baseline record *exactly*; wall time is
/// compared against the baseline median under `thresholds`. Fresh
/// groups with no baseline produce a [`FindingKind::Note`], as does a
/// fresh run that solves a problem the baseline did not (an
/// improvement — but one that deserves a new baseline).
pub fn regress(
    baseline: &[RunRecord],
    fresh: &[RunRecord],
    thresholds: &RegressThresholds,
) -> Vec<Finding> {
    let mut base_groups: BTreeMap<(&str, &str), Vec<&RunRecord>> = BTreeMap::new();
    for r in baseline {
        base_groups
            .entry((r.problem.as_str(), r.fingerprint.as_str()))
            .or_default()
            .push(r);
    }
    let mut fresh_latest: BTreeMap<(&str, &str), &RunRecord> = BTreeMap::new();
    for r in fresh {
        fresh_latest.insert((r.problem.as_str(), r.fingerprint.as_str()), r);
    }

    let mut findings = Vec::new();
    for ((problem, fingerprint), new) in fresh_latest {
        let mut finding = |kind, detail: String| {
            findings.push(Finding {
                problem: problem.to_owned(),
                fingerprint: fingerprint.to_owned(),
                kind,
                detail,
            });
        };
        let Some(base_group) = base_groups.get(&(problem, fingerprint)) else {
            finding(
                FindingKind::Note,
                "no baseline for this problem+fingerprint; run `l2 corpus ingest` or re-baseline"
                    .to_owned(),
            );
            continue;
        };
        let base = *base_group.last().expect("groups are non-empty");

        match (base.solved(), new.solved()) {
            (true, false) => {
                finding(
                    FindingKind::Regression,
                    format!(
                        "baseline solved, fresh run failed ({})",
                        new.run
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("no error recorded")
                    ),
                );
                continue;
            }
            (false, true) => {
                finding(
                    FindingKind::Note,
                    "fresh run solved a problem the baseline did not — re-baseline to lock it in"
                        .to_owned(),
                );
                continue;
            }
            _ => {}
        }

        if base.cost() != new.cost() {
            finding(
                FindingKind::Regression,
                format!(
                    "program cost diverged: baseline {} vs fresh {}",
                    base.cost(),
                    new.cost()
                ),
            );
        }
        if base.program() != new.program() {
            finding(
                FindingKind::Regression,
                format!(
                    "program diverged: baseline `{}` vs fresh `{}`",
                    base.program(),
                    new.program()
                ),
            );
        }

        let base_counters: BTreeMap<String, i64> = base.counters().into_iter().collect();
        let new_counters: BTreeMap<String, i64> = new.counters().into_iter().collect();
        let mut diverged: Vec<String> = Vec::new();
        for (key, bv) in &base_counters {
            match new_counters.get(key) {
                Some(nv) if nv == bv => {}
                Some(nv) => diverged.push(format!("{key} {bv}->{nv}")),
                None => diverged.push(format!("{key} {bv}->missing")),
            }
        }
        for key in new_counters.keys() {
            if !base_counters.contains_key(key) {
                finding(
                    FindingKind::Note,
                    format!("counter {key:?} is new (absent from baseline)"),
                );
            }
        }
        let new_totals: BTreeMap<String, i64> = new.histogram_totals().into_iter().collect();
        for (key, bv) in base.histogram_totals() {
            match new_totals.get(&key) {
                Some(&nv) if nv == bv => {}
                Some(nv) => diverged.push(format!("{key} {bv}->{nv}")),
                None => diverged.push(format!("{key} {bv}->missing")),
            }
        }
        if !diverged.is_empty() {
            finding(
                FindingKind::Regression,
                format!("counters diverged: {}", diverged.join(", ")),
            );
        }

        if thresholds.check_wall {
            let base_ms = median(base_group.iter().map(|r| r.elapsed_ms()).collect());
            let new_ms = new.elapsed_ms();
            if new_ms > base_ms * thresholds.wall_ratio
                && new_ms - base_ms > thresholds.wall_floor_ms
            {
                finding(
                    FindingKind::Regression,
                    format!(
                        "wall time regressed: baseline median {base_ms:.1}ms vs fresh {new_ms:.1}ms \
                         (threshold {:.2}x + {:.0}ms floor)",
                        thresholds.wall_ratio, thresholds.wall_floor_ms
                    ),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json;
    use crate::obs::PhaseTimes;
    use crate::stats::Stats;
    use std::time::Duration;

    fn measurement(name: &str, solved: bool, cost: u32, ms: u64, popped: u64) -> Measurement {
        Measurement {
            name: name.to_owned(),
            elapsed: Duration::from_millis(ms),
            solved,
            cost,
            size: 3,
            program: if solved {
                "(lambda (l) l)".into()
            } else {
                String::new()
            },
            examples: 3,
            stats: Stats {
                popped,
                expansions: 2,
                phases: PhaseTimes::default(),
                ..Stats::default()
            },
            error: (!solved).then(|| "synthesis timed out".to_owned()),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lambda2-corpus-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_is_stable_and_ignores_observation_knobs() {
        let a = SearchOptions::default();
        let mut b = SearchOptions::default();
        assert_eq!(options_fingerprint(&a), options_fingerprint(&b));
        // Observation-only toggles do not fork baselines...
        b.progress = true;
        assert_eq!(options_fingerprint(&a), options_fingerprint(&b));
        // ...while anything search-relevant does.
        b.max_cost += 1;
        assert_ne!(options_fingerprint(&a), options_fingerprint(&b));
        assert_eq!(options_fingerprint(&a).len(), 16);
        // `l2 bench` runs the quick catalog at the defaults with a 60 s
        // timeout. Every committed baseline in `results/corpus` carries
        // that fingerprint, so an options edit that changes it orphans
        // them (re-record the corpus, then update this literal).
        let bench = SearchOptions {
            timeout: Some(std::time::Duration::from_secs(60)),
            ..SearchOptions::default()
        };
        assert_eq!(options_fingerprint(&bench), "0cb6444a5e112478");
    }

    #[test]
    fn append_load_round_trip() {
        let dir = temp_dir("roundtrip");
        let corpus = Corpus::open(&dir).unwrap();
        assert_eq!(corpus.load().unwrap(), Vec::new());
        let fp = options_fingerprint(&SearchOptions::default());
        let r1 = RunRecord::of_measurement(&measurement("evens", true, 7, 12, 40), &fp);
        let r2 = RunRecord::of_measurement(&measurement("sum", false, 0, 900, 999), &fp);
        corpus.append(std::slice::from_ref(&r1)).unwrap();
        corpus.append(std::slice::from_ref(&r2)).unwrap();
        let loaded = corpus.load().unwrap();
        assert_eq!(loaded, vec![r1, r2]);
        assert!(loaded[0].solved());
        assert_eq!(loaded[0].cost(), 7);
        assert!(!loaded[1].solved());
        assert!(loaded[0]
            .counters()
            .iter()
            .any(|(k, v)| k == "popped" && *v == 40));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_records_round_trip_their_request_id_inertly() {
        let dir = temp_dir("served");
        let corpus = Corpus::open(&dir).unwrap();
        let fp = options_fingerprint(&SearchOptions::default());
        let m = measurement("evens", true, 7, 12, 40);
        let local = RunRecord::of_measurement(&m, &fp);
        let served = RunRecord::of_served_request(&m, &fp, "c3-r1");
        assert_eq!(served.req_id(), Some("c3-r1"));
        assert_eq!(local.req_id(), None);
        // The key is inert for regression gating: same counters, same
        // grouping identity.
        assert_eq!(served.counters(), local.counters());
        assert_eq!(served.problem, local.problem);
        assert_eq!(served.fingerprint, local.fingerprint);
        corpus.append(std::slice::from_ref(&served)).unwrap();
        let loaded = corpus.load().unwrap();
        assert_eq!(loaded, vec![served]);
        assert_eq!(loaded[0].req_id(), Some("c3-r1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aggregate_groups_and_summarizes() {
        let fp = options_fingerprint(&SearchOptions::default());
        let records = vec![
            RunRecord::of_measurement(&measurement("evens", true, 7, 10, 40), &fp),
            RunRecord::of_measurement(&measurement("evens", true, 7, 14, 40), &fp),
            RunRecord::of_measurement(&measurement("sum", false, 0, 500, 99), &fp),
        ];
        let aggs = aggregate(&records);
        assert_eq!(aggs.len(), 2);
        let evens = &aggs[0];
        assert_eq!(evens.problem, "evens");
        assert_eq!((evens.runs, evens.solved), (2, 2));
        assert_eq!((evens.cost_lo, evens.cost_hi), (Some(7), Some(7)));
        assert!(evens.counters_agree);
        assert!(evens.wall_ms(1.0) >= 10.0);
        let sum = &aggs[1];
        assert_eq!((sum.runs, sum.solved), (1, 0));
        assert_eq!(sum.cost_lo, None);
        // A counter fork across stored runs is flagged.
        let forked = vec![
            RunRecord::of_measurement(&measurement("evens", true, 7, 10, 40), &fp),
            RunRecord::of_measurement(&measurement("evens", true, 7, 10, 41), &fp),
        ];
        assert!(!aggregate(&forked)[0].counters_agree);
    }

    #[test]
    fn regress_clean_perturbed_and_missing() {
        let fp = options_fingerprint(&SearchOptions::default());
        let base = vec![RunRecord::of_measurement(
            &measurement("evens", true, 7, 10, 40),
            &fp,
        )];
        let same = vec![RunRecord::of_measurement(
            &measurement("evens", true, 7, 11, 40),
            &fp,
        )];
        let t = RegressThresholds::default();
        assert!(regress(&base, &same, &t).is_empty());

        // A perturbed counter is a regression.
        let perturbed = vec![RunRecord::of_measurement(
            &measurement("evens", true, 7, 11, 41),
            &fp,
        )];
        let fs = regress(&base, &perturbed, &t);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FindingKind::Regression);
        assert!(fs[0].detail.contains("popped 40->41"), "{}", fs[0].detail);

        // A diverged cost is a regression.
        let cheaper = vec![RunRecord::of_measurement(
            &measurement("evens", true, 6, 11, 40),
            &fp,
        )];
        assert!(regress(&base, &cheaper, &t)
            .iter()
            .any(|f| f.kind == FindingKind::Regression && f.detail.contains("cost")));

        // No baseline: a note, never a regression.
        let other = vec![RunRecord::of_measurement(
            &measurement("reverse", true, 9, 10, 12),
            &fp,
        )];
        let fs = regress(&base, &other, &t);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FindingKind::Note);

        // Wall-time: must exceed ratio AND floor. 10ms -> 50ms is 5x
        // (over the 1.5x ratio) but only +40ms.
        let slow = vec![RunRecord::of_measurement(
            &measurement("evens", true, 7, 50, 40),
            &fp,
        )];
        let strict = RegressThresholds {
            wall_floor_ms: 20.0,
            ..RegressThresholds::default()
        };
        assert!(regress(&base, &slow, &strict)
            .iter()
            .any(|f| f.detail.contains("wall time regressed")));
        // ...and the floor suppresses micro-noise even at huge ratios.
        assert!(regress(&base, &slow, &RegressThresholds::default()).is_empty());
        // Cross-machine mode ignores wall time entirely.
        let no_wall = RegressThresholds {
            check_wall: false,
            ..strict
        };
        assert!(regress(&base, &slow, &no_wall).is_empty());
    }

    #[test]
    fn regress_pins_the_program_and_histogram_totals() {
        let fp = options_fingerprint(&SearchOptions::default());
        let run = |program: &str, store_terms: &[usize]| {
            let mut m = measurement("evens", true, 7, 10, 40);
            m.program = program.to_owned();
            for &n in store_terms {
                m.stats.metrics.store_terms.record_usize(n);
            }
            m.stats.metrics.queue_depth.record_usize(3);
            m.stats.metrics.enumerate_us.record_usize(900);
            vec![RunRecord::of_measurement(&m, &fp)]
        };
        let id = "(lambda (l) l)";
        let base = run(id, &[5, 7]);
        assert_eq!(
            base[0].histogram_totals(),
            [
                ("store_terms.count", 2),
                ("store_terms.sum", 12),
                ("store_bytes.count", 0),
                ("store_bytes.sum", 0),
                ("level_terms.count", 0),
                ("level_terms.sum", 0),
                ("queue_depth.count", 1),
                ("queue_depth.sum", 3)
            ]
            .map(|(k, n)| (k.to_owned(), n))
        );
        let t = RegressThresholds::default();
        let details = |fresh: &[RunRecord]| -> Vec<String> {
            let fs = regress(&base, fresh, &t);
            assert!(fs.iter().all(|f| f.kind == FindingKind::Regression));
            fs.into_iter().map(|f| f.detail).collect()
        };
        // Equal totals from values recorded in another order pass.
        assert!(details(&run(id, &[7, 5])).is_empty());
        assert_eq!(
            details(&run("(lambda (l) (cdr l))", &[5, 7])),
            ["program diverged: baseline `(lambda (l) l)` vs fresh `(lambda (l) (cdr l))`"]
        );
        assert_eq!(
            details(&run(id, &[5, 8])),
            ["counters diverged: store_terms.sum 12->13"]
        );
        assert_eq!(
            details(&run(id, &[5, 7, 0])),
            ["counters diverged: store_terms.count 2->3"]
        );
        // A fresh run without metrics misses every pinned total.
        let mut bare = measurement("evens", true, 7, 10, 40);
        bare.program = id.to_owned();
        let missing = details(&[RunRecord::of_measurement(&bare, &fp)]);
        assert_eq!(missing.len(), 1);
        assert!(
            missing[0].contains("queue_depth.sum 3->missing"),
            "{missing:?}"
        );
    }

    #[test]
    fn ingest_bench_document() {
        let doc = json::parse(concat!(
            r#"{"v":1,"bench":"table1","timeout_s":60,"results":["#,
            r#"{"label":"lambda2","v":1,"name":"evens","solved":true,"elapsed_ms":3.0,"cost":7,"size":5,"program":"p","examples":3,"error":null,"stats":{"popped":40}},"#,
            r#"{"label":"no-deduce","v":1,"name":"evens","solved":true,"elapsed_ms":9.0,"cost":7,"size":5,"program":"p","examples":3,"error":null,"stats":{"popped":90}}"#,
            r#"]}"#
        ))
        .unwrap();
        let records = ingest_bench(&doc).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].problem, "evens");
        // Same problem, different engine labels: distinct fingerprints.
        assert_ne!(records[0].fingerprint, records[1].fingerprint);
        assert!(records[0].fingerprint.starts_with("ingest:"));
        // Wrong version refuses.
        let bad = json::parse(r#"{"v":2,"bench":"x","results":[]}"#).unwrap();
        assert!(ingest_bench(&bad).is_err());
    }
}
