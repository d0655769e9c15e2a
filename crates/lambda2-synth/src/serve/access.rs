//! The serve access log: one schema-versioned JSONL record per request,
//! plus the tally behind the daemon's live counters and `l2 serve report`.
//!
//! An [`AccessRecord`] is the daemon's unit of accounting: every request
//! — synthesis or not, admitted or shed, healthy or crashed — settles
//! exactly one. Settling folds it into the live [`AccessReport`] ("how is
//! the server doing *now*") and, with a log configured, appends it as
//! one line — the durable layer the same fold reads back offline. A
//! record is keyed by the server-assigned request ID that is also echoed
//! in the wire reply (`req_id`) and stamped into corpus
//! [`RunRecord`](crate::obs::corpus::RunRecord)s and slow-trace
//! filenames. One ID ties the whole observability story for a request
//! together.
//!
//! Design constraints carried over from the rest of the tree:
//!
//! * **One record format** — the log is a [`jsonl`] record file:
//!   versioned lines, whole-line appends (under a mutex, so concurrent
//!   workers can never tear a record), a tolerated torn tail.
//! * **Observation-only** — nothing in this module feeds back into
//!   admission, scheduling, or search; the differential test in
//!   `tests/serve.rs` proves served programs/costs/ladders are
//!   byte-identical with the log on or off.
//!
//! The one *volatile* field is `t_ms`: milliseconds since the daemon
//! started (monotonic, never wall-clock), used by the analyzer to compute
//! throughput over the logged span.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::obs::json::Json;
use crate::obs::jsonl::{self, RecordError};
use crate::obs::metrics::{Histogram, EXP2_BOUNDS};
use crate::obs::SCHEMA_VERSION;

/// One access-log line: the complete server-side account of one request.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessRecord {
    /// Milliseconds since the daemon started (monotonic; the record's one
    /// volatile field — analyzers use it only for spans, never identity).
    pub t_ms: f64,
    /// Server-assigned request ID (`c<conn>-r<n>`), echoed in the wire
    /// reply and reused as the corpus key and slow-trace filename.
    pub req_id: String,
    /// Request op (`synth`, `ping`, `stats`, `shutdown`), or `invalid`
    /// when the payload never parsed far enough to name one.
    pub op: String,
    /// Client peer: the TCP source IP, `unix` for Unix-domain sockets.
    pub peer: String,
    /// Outcome status, exactly as sent on the wire (`ok`, `unsolved`,
    /// `error`, `overloaded`, `shutting_down`).
    pub status: String,
    /// Request frame payload size in bytes.
    pub frame_bytes: u64,
    /// Time the job waited in the admission queue (admitted jobs only).
    pub queue_wait_ms: Option<f64>,
    /// Time the job spent executing on a worker (executed jobs only).
    pub service_ms: Option<f64>,
    /// Warm-cache hits this job's search recorded (executed jobs only) —
    /// the cache-effectiveness signal, per request.
    pub warm_hits: Option<u64>,
    /// Load-shed marker: the request was answered `overloaded` at
    /// admission and never consumed a queue slot.
    pub shed: bool,
    /// Crash marker: the search panicked under the unwind guard and was
    /// answered with a structured `error`.
    pub crashed: bool,
    /// Problem name (synthesis requests whose problem parsed).
    pub problem: Option<String>,
    /// [`options_fingerprint`](crate::obs::corpus::options_fingerprint)
    /// of the effective options the job ran under (executed jobs only) —
    /// the same key corpus records carry, so log lines and corpus lines
    /// join on (`problem`, `fingerprint`).
    pub fingerprint: Option<String>,
}

impl AccessRecord {
    /// The record of a request whose frame was just read: op `invalid`
    /// until the payload parses, no status or outcome yet. Whichever side
    /// decides the request fills in the rest.
    pub(crate) fn received(req_id: String, peer: String, frame_bytes: u64) -> AccessRecord {
        AccessRecord {
            t_ms: 0.0,
            req_id,
            op: "invalid".to_owned(),
            peer,
            status: String::new(),
            frame_bytes,
            queue_wait_ms: None,
            service_ms: None,
            warm_hits: None,
            shed: false,
            crashed: false,
            problem: None,
            fingerprint: None,
        }
    }

    /// Serializes the record to its JSONL line form. Optional fields are
    /// omitted when absent, so non-synthesis lines stay compact.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("v".to_owned(), SCHEMA_VERSION.into()),
            ("t_ms".to_owned(), Json::Float(self.t_ms)),
            ("req_id".to_owned(), self.req_id.as_str().into()),
            ("op".to_owned(), self.op.as_str().into()),
            ("peer".to_owned(), self.peer.as_str().into()),
            ("status".to_owned(), self.status.as_str().into()),
            ("frame_bytes".to_owned(), self.frame_bytes.into()),
        ];
        if let Some(ms) = self.queue_wait_ms {
            pairs.push(("queue_wait_ms".to_owned(), Json::Float(ms)));
        }
        if let Some(ms) = self.service_ms {
            pairs.push(("service_ms".to_owned(), Json::Float(ms)));
        }
        if let Some(hits) = self.warm_hits {
            pairs.push(("warm_hits".to_owned(), hits.into()));
        }
        pairs.push(("shed".to_owned(), self.shed.into()));
        pairs.push(("crashed".to_owned(), self.crashed.into()));
        if let Some(problem) = &self.problem {
            pairs.push(("problem".to_owned(), problem.as_str().into()));
        }
        if let Some(fp) = &self.fingerprint {
            pairs.push(("fingerprint".to_owned(), fp.as_str().into()));
        }
        Json::Obj(pairs)
    }

    fn from_json(j: &Json) -> Result<AccessRecord, String> {
        let field = |key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("access record missing string field {key:?}"))
        };
        Ok(AccessRecord {
            t_ms: j.get("t_ms").and_then(Json::as_f64).unwrap_or(0.0),
            req_id: field("req_id")?,
            op: field("op")?,
            peer: field("peer")?,
            status: field("status")?,
            frame_bytes: j.get("frame_bytes").and_then(Json::as_u64).unwrap_or(0),
            queue_wait_ms: j.get("queue_wait_ms").and_then(Json::as_f64),
            service_ms: j.get("service_ms").and_then(Json::as_f64),
            warm_hits: j.get("warm_hits").and_then(Json::as_u64),
            shed: j.get("shed").and_then(Json::as_bool).unwrap_or(false),
            crashed: j.get("crashed").and_then(Json::as_bool).unwrap_or(false),
            problem: j.get("problem").and_then(Json::as_str).map(str::to_owned),
            fingerprint: j
                .get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_owned),
        })
    }
}

/// The append-only access-log writer shared by every connection and
/// worker thread of one daemon.
///
/// Each [`append`](AccessLog::append) is one `jsonl::write_line` while
/// holding the internal mutex: concurrent writers interleave *whole lines
/// only* (the saturation test in `tests/serve.rs` parses every line of a
/// loaded run to prove it).
#[derive(Debug)]
pub struct AccessLog {
    path: PathBuf,
    file: Mutex<fs::File>,
}

impl AccessLog {
    /// Opens (creating or appending to) the log at `path`.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] when the file cannot be opened for append.
    pub fn open(path: &Path) -> Result<AccessLog, RecordError> {
        Ok(AccessLog {
            path: path.to_owned(),
            file: Mutex::new(jsonl::open_append(path)?),
        })
    }

    /// The log file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as one line.
    ///
    /// # Errors
    ///
    /// [`RecordError::Io`] on any write failure. Callers in the serve hot
    /// path report the error and keep serving — telemetry must never
    /// take down a request.
    pub fn append(&self, record: &AccessRecord) -> Result<(), RecordError> {
        let line = record.to_json();
        // A poisoned lock means another thread panicked while appending;
        // the file is still line-consistent (single write per line), so
        // recover rather than wedge every later request.
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        jsonl::write_line(&mut *file, &self.path, &line)
    }
}

/// Parses an access-log file in append order (see [`jsonl::parse`]).
///
/// # Errors
///
/// [`RecordError`] on IO, parse, or schema-version failure.
pub fn load_access_log(path: &Path) -> Result<Vec<AccessRecord>, RecordError> {
    jsonl::load(path, |j| AccessRecord::from_json(&j))
}

/// Per-client request breakdown inside an [`AccessReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests this peer issued.
    pub requests: u64,
    /// Requests answered `ok`.
    pub ok: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
}

/// A tally of settled requests: the daemon's live counters (folded one
/// record at a time by the settle step in `serve::server`) and the
/// offline analysis `l2 serve report` prints
/// ([`analyze`](AccessReport::analyze)). Both go through
/// [`add`](AccessReport::add), so the `stats` op, the drain summary and
/// the report count a request the same way.
#[derive(Clone, Debug)]
pub struct AccessReport {
    /// Total records tallied.
    pub requests: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests whose search crashed under the unwind guard.
    pub crashed: u64,
    /// Synthesis requests answered with a program.
    pub solved: u64,
    /// Requests answered `error` without reaching a search: unparsable
    /// payloads, invalid problems, unknown fail-point sites.
    pub rejected: u64,
    /// Admitted jobs taken off the queue at drain and answered
    /// `shutting_down`.
    pub drained: u64,
    /// Requests per outcome status.
    pub statuses: BTreeMap<String, u64>,
    /// Requests per op.
    pub ops: BTreeMap<String, u64>,
    /// Per-peer breakdowns.
    pub clients: BTreeMap<String, ClientStats>,
    /// Requests per problem name (synthesis requests only). Filled by
    /// [`analyze`](AccessReport::analyze) only: the daemon's live tally
    /// leaves it empty, since clients choose the names.
    pub problems: BTreeMap<String, u64>,
    /// Service-time distribution, microseconds (executed jobs only).
    pub service_us: Histogram,
    /// Queue-wait distribution, microseconds (every admitted job,
    /// drained ones included).
    pub queue_wait_us: Histogram,
    /// Request frame payload sizes, bytes.
    pub frame_bytes: Histogram,
    /// Warm-cache hits summed over executed jobs.
    pub warm_hits: u64,
    /// Earliest and latest `t_ms` tallied.
    t_lo: f64,
    t_hi: f64,
}

impl Default for AccessReport {
    fn default() -> AccessReport {
        AccessReport {
            requests: 0,
            shed: 0,
            crashed: 0,
            solved: 0,
            rejected: 0,
            drained: 0,
            statuses: BTreeMap::new(),
            ops: BTreeMap::new(),
            clients: BTreeMap::new(),
            problems: BTreeMap::new(),
            service_us: Histogram::new(EXP2_BOUNDS),
            queue_wait_us: Histogram::new(EXP2_BOUNDS),
            frame_bytes: Histogram::new(EXP2_BOUNDS),
            warm_hits: 0,
            t_lo: f64::INFINITY,
            t_hi: f64::NEG_INFINITY,
        }
    }
}

impl AccessReport {
    /// Analyzes a loaded log: every record [`add`](AccessReport::add)ed,
    /// plus the per-problem counts.
    pub fn analyze(records: &[AccessRecord]) -> AccessReport {
        let mut report = AccessReport::default();
        for r in records {
            report.add(r);
            if let Some(problem) = &r.problem {
                *report.problems.entry(problem.clone()).or_default() += 1;
            }
        }
        report
    }

    /// Folds one settled request into the tally. What each count takes:
    ///
    /// * `completed` ([`completed`](AccessReport::completed)) — records
    ///   with `service_ms`: jobs that ran on a worker, crashed included;
    /// * `solved` — op `synth` with status `ok`;
    /// * `shed` / `crashed` — the record's markers;
    /// * `rejected` — status `error`, not crashed, no `service_ms`;
    /// * `drained` — status `shutting_down` with `queue_wait_ms`;
    /// * the histograms — the same-named fields, where present.
    pub fn add(&mut self, r: &AccessRecord) {
        self.requests += 1;
        self.t_lo = self.t_lo.min(r.t_ms);
        self.t_hi = self.t_hi.max(r.t_ms);
        *self.statuses.entry(r.status.clone()).or_default() += 1;
        *self.ops.entry(r.op.clone()).or_default() += 1;
        let client = self.clients.entry(r.peer.clone()).or_default();
        client.requests += 1;
        if r.status == "ok" {
            client.ok += 1;
        }
        if r.shed {
            client.shed += 1;
            self.shed += 1;
        }
        if r.crashed {
            self.crashed += 1;
        }
        if r.op == "synth" && r.status == "ok" {
            self.solved += 1;
        }
        if r.status == "error" && !r.crashed && r.service_ms.is_none() {
            self.rejected += 1;
        }
        if r.status == "shutting_down" && r.queue_wait_ms.is_some() {
            self.drained += 1;
        }
        self.frame_bytes.record(r.frame_bytes);
        if let Some(ms) = r.service_ms {
            self.service_us.record((ms * 1e3).max(0.0) as u64);
        }
        if let Some(ms) = r.queue_wait_ms {
            self.queue_wait_us.record((ms * 1e3).max(0.0) as u64);
        }
        self.warm_hits += r.warm_hits.unwrap_or(0);
    }

    /// Jobs that ran on a worker (solved, unsolved or crashed).
    pub fn completed(&self) -> u64 {
        self.service_us.count()
    }

    /// Span between the earliest and latest record, milliseconds (0 for
    /// an empty tally).
    pub fn span_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.t_hi - self.t_lo).max(0.0)
        }
    }

    /// Shed rate over all requests (0.0 for an empty log).
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed as f64 / self.requests as f64
        }
    }

    /// Requests per second over the logged span. A single-record (or
    /// zero-span) log reports 0 — there is no meaningful rate.
    pub fn throughput_rps(&self) -> f64 {
        let span_ms = self.span_ms();
        if span_ms <= 0.0 {
            0.0
        } else {
            self.requests as f64 / (span_ms / 1e3)
        }
    }

    /// A service-time quantile in milliseconds (histogram bucket
    /// resolution; 0 when no job was timed).
    pub fn service_ms(&self, q: f64) -> f64 {
        self.service_us.quantile(q).unwrap_or(0) as f64 / 1e3
    }

    /// A queue-wait quantile in milliseconds.
    pub fn queue_wait_ms(&self, q: f64) -> f64 {
        self.queue_wait_us.quantile(q).unwrap_or(0) as f64 / 1e3
    }

    /// Serializes the report for `l2 serve report --json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("v", SCHEMA_VERSION.into()),
            ("requests", self.requests.into()),
            ("span_ms", Json::Float(self.span_ms())),
            ("throughput_rps", Json::Float(self.throughput_rps())),
            ("completed", self.completed().into()),
            ("solved", self.solved.into()),
            ("shed", self.shed.into()),
            ("shed_rate", Json::Float(self.shed_rate())),
            ("crashed", self.crashed.into()),
            ("rejected", self.rejected.into()),
            ("drained", self.drained.into()),
            ("warm_hits", self.warm_hits.into()),
            ("service_p50_ms", Json::Float(self.service_ms(0.5))),
            ("service_p99_ms", Json::Float(self.service_ms(0.99))),
            ("queue_wait_p50_ms", Json::Float(self.queue_wait_ms(0.5))),
            ("queue_wait_p99_ms", Json::Float(self.queue_wait_ms(0.99))),
            ("statuses", count_map_json(&self.statuses)),
            ("ops", count_map_json(&self.ops)),
            ("clients", clients_json(&self.clients)),
            ("problems", count_map_json(&self.problems)),
            ("service_us", self.service_us.to_json()),
            ("queue_wait_us", self.queue_wait_us.to_json()),
            ("frame_bytes", self.frame_bytes.to_json()),
        ])
    }

    /// Renders the human-readable summary `l2 serve report` prints.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} request(s) over {:.1} s ({:.1} req/s)",
            self.requests,
            self.span_ms() / 1e3,
            self.throughput_rps()
        );
        let _ = writeln!(
            out,
            "jobs: {} completed, {} solved, {} rejected, {} drained",
            self.completed(),
            self.solved,
            self.rejected,
            self.drained
        );
        let _ = writeln!(
            out,
            "sheds {} ({:.1}%), crashes {}, warm-cache hits {}",
            self.shed,
            self.shed_rate() * 100.0,
            self.crashed,
            self.warm_hits
        );
        let _ = writeln!(
            out,
            "service    p50 {:8.1} ms  p99 {:8.1} ms  max {:8.1} ms  ({} timed)",
            self.service_ms(0.5),
            self.service_ms(0.99),
            self.service_us.max().unwrap_or(0) as f64 / 1e3,
            self.service_us.count()
        );
        let _ = writeln!(
            out,
            "queue wait p50 {:8.1} ms  p99 {:8.1} ms  max {:8.1} ms  ({} queued)",
            self.queue_wait_ms(0.5),
            self.queue_wait_ms(0.99),
            self.queue_wait_us.max().unwrap_or(0) as f64 / 1e3,
            self.queue_wait_us.count()
        );
        let join = |m: &BTreeMap<String, u64>| {
            m.iter()
                .map(|(k, v)| format!("{k} {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "by status:  {}", join(&self.statuses));
        let _ = writeln!(out, "by op:      {}", join(&self.ops));
        for (peer, c) in &self.clients {
            let _ = writeln!(
                out,
                "client {peer:20} {:5} request(s)  {:5} ok  {:5} shed",
                c.requests, c.ok, c.shed
            );
        }
        if !self.problems.is_empty() {
            let _ = writeln!(out, "by problem: {}", join(&self.problems));
        }
        out
    }
}

/// A count map as a JSON object.
pub(crate) fn count_map_json(m: &BTreeMap<String, u64>) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), (*v).into())).collect())
}

/// Per-client breakdowns as a JSON object of `{requests, ok, shed}`.
pub(crate) fn clients_json(m: &BTreeMap<String, ClientStats>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(peer, c)| {
                let counts = Json::obj([
                    ("requests", c.requests.into()),
                    ("ok", c.ok.into()),
                    ("shed", c.shed.into()),
                ]);
                (peer.clone(), counts)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(req_id: &str, status: &str, service_ms: Option<f64>) -> AccessRecord {
        AccessRecord {
            t_ms: 10.0,
            req_id: req_id.to_owned(),
            op: "synth".to_owned(),
            peer: "127.0.0.1".to_owned(),
            status: status.to_owned(),
            frame_bytes: 120,
            queue_wait_ms: service_ms.map(|_| 0.4),
            service_ms,
            warm_hits: service_ms.map(|_| 2),
            shed: status == "overloaded",
            crashed: false,
            problem: Some("evens".to_owned()),
            fingerprint: Some("deadbeefdeadbeef".to_owned()),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lambda2-access-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn record_round_trips_through_jsonl() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let log = AccessLog::open(&path).unwrap();
        let a = record("c1-r1", "ok", Some(12.5));
        let b = AccessRecord {
            queue_wait_ms: None,
            service_ms: None,
            warm_hits: None,
            problem: None,
            fingerprint: None,
            op: "ping".to_owned(),
            ..record("c1-r2", "ok", None)
        };
        log.append(&a).unwrap();
        log.append(&b).unwrap();
        let loaded = load_access_log(&path).unwrap();
        assert_eq!(loaded, vec![a, b]);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn analyzer_summarizes_and_orders_quantiles() {
        let mut records = vec![
            record("c1-r1", "ok", Some(5.0)),
            record("c1-r2", "ok", Some(50.0)),
            record("c2-r1", "unsolved", Some(400.0)),
            record("c2-r2", "overloaded", None),
        ];
        records[3].t_ms = 2010.0;
        let report = AccessReport::analyze(&records);
        assert_eq!(report.requests, 4);
        assert_eq!(report.shed, 1);
        assert_eq!(report.crashed, 0);
        assert_eq!(report.statuses.get("ok"), Some(&2));
        assert_eq!(report.ops.get("synth"), Some(&4));
        assert_eq!(report.problems.get("evens"), Some(&4));
        assert!(report.shed_rate() > 0.24 && report.shed_rate() < 0.26);
        assert!(report.span_ms() >= 2000.0, "{}", report.span_ms());
        assert!(report.throughput_rps() > 0.0);
        assert!(
            report.service_ms(0.5) <= report.service_ms(0.99),
            "p50 {} must not exceed p99 {}",
            report.service_ms(0.5),
            report.service_ms(0.99)
        );
        assert_eq!(report.warm_hits, 6);
        let client = report.clients.get("127.0.0.1").unwrap();
        assert_eq!((client.requests, client.ok, client.shed), (4, 2, 1));
        // JSON and text renderings agree on the headline numbers.
        let j = report.to_json();
        assert_eq!(j.get("requests").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("shed").and_then(Json::as_u64), Some(1));
        assert!(report.render_text().contains("4 request(s)"));
    }

    #[test]
    fn empty_log_analyzes_to_zeros() {
        let report = AccessReport::analyze(&[]);
        assert_eq!(report.requests, 0);
        assert_eq!(report.throughput_rps(), 0.0);
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.service_ms(0.99), 0.0);
        assert_eq!(report.span_ms(), 0.0);
    }

    /// Each daemon count takes exactly the records the settle sites
    /// produce for it.
    #[test]
    fn add_derives_the_daemon_counts() {
        let executed = |status: &str| record("x", status, Some(3.0));
        let crashed = AccessRecord {
            crashed: true,
            warm_hits: None,
            ..executed("error")
        };
        let unparsable = AccessRecord {
            op: "invalid".to_owned(),
            problem: None,
            ..record("x", "error", None)
        };
        let unknown_failpoint = AccessRecord {
            queue_wait_ms: Some(0.2),
            ..record("x", "error", None)
        };
        let drained = AccessRecord {
            queue_wait_ms: Some(0.2),
            ..record("x", "shutting_down", None)
        };
        let refused = record("x", "shutting_down", None);
        let ping = AccessRecord {
            op: "ping".to_owned(),
            ..record("x", "ok", None)
        };
        let records = [
            executed("ok"),
            executed("unsolved"),
            crashed,
            unparsable,
            record("x", "error", None),
            unknown_failpoint,
            drained,
            refused,
            record("x", "overloaded", None),
            ping,
        ];
        let mut live = AccessReport::default();
        for r in &records {
            live.add(r);
        }
        assert_eq!(live.completed(), 3);
        assert_eq!(live.solved, 1);
        assert_eq!(live.crashed, 1);
        assert_eq!(live.rejected, 3);
        assert_eq!(live.drained, 1);
        assert_eq!(live.shed, 1);
        assert_eq!(live.warm_hits, 4);
        assert_eq!(live.queue_wait_us.count(), 5);
        assert_eq!(live.frame_bytes.count(), 10);
        assert!(live.problems.is_empty(), "the live tally names no problems");
        let offline = AccessReport::analyze(&records);
        assert_eq!(
            offline.to_json().get("drained"),
            live.to_json().get("drained")
        );
        assert_eq!(offline.problems.get("evens"), Some(&9));
    }
}
