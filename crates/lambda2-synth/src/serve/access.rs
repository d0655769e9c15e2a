//! The serve access log: one schema-versioned JSONL record per request,
//! plus the offline analyzer behind `l2 serve report`.
//!
//! The daemon's live counters answer "how is the server doing *now*";
//! the access log is the durable, per-request layer underneath: every
//! request — synthesis or not, admitted or shed, healthy or crashed —
//! appends exactly one [`AccessRecord`] line, keyed by the server-assigned
//! request ID that is also echoed in the wire reply (`req_id`) and stamped
//! into corpus [`RunRecord`](crate::obs::corpus::RunRecord)s and
//! slow-trace filenames. One ID ties the whole observability story for a
//! request together.
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

/// The offline analysis of one access log: what `l2 serve report` prints
/// and renders as a dashboard.
#[derive(Clone, Debug)]
pub struct AccessReport {
    /// Total records analyzed.
    pub requests: u64,
    /// Logged span in milliseconds (max `t_ms` − min `t_ms`).
    pub span_ms: f64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests whose search crashed under the unwind guard.
    pub crashed: u64,
    /// Requests per outcome status.
    pub statuses: BTreeMap<String, u64>,
    /// Requests per op.
    pub ops: BTreeMap<String, u64>,
    /// Per-peer breakdowns.
    pub clients: BTreeMap<String, ClientStats>,
    /// Requests per problem name (synthesis requests only).
    pub problems: BTreeMap<String, u64>,
    /// Service-time distribution, microseconds (executed jobs only).
    pub service_us: Histogram,
    /// Queue-wait distribution, microseconds (admitted jobs only).
    pub queue_wait_us: Histogram,
    /// Warm-cache hits summed over executed jobs.
    pub warm_hits: u64,
}

impl AccessReport {
    /// Analyzes a loaded log.
    pub fn analyze(records: &[AccessRecord]) -> AccessReport {
        let mut report = AccessReport {
            requests: records.len() as u64,
            span_ms: 0.0,
            shed: 0,
            crashed: 0,
            statuses: BTreeMap::new(),
            ops: BTreeMap::new(),
            clients: BTreeMap::new(),
            problems: BTreeMap::new(),
            service_us: Histogram::new(EXP2_BOUNDS),
            queue_wait_us: Histogram::new(EXP2_BOUNDS),
            warm_hits: 0,
        };
        let (mut t_lo, mut t_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for r in records {
            t_lo = t_lo.min(r.t_ms);
            t_hi = t_hi.max(r.t_ms);
            *report.statuses.entry(r.status.clone()).or_default() += 1;
            *report.ops.entry(r.op.clone()).or_default() += 1;
            let client = report.clients.entry(r.peer.clone()).or_default();
            client.requests += 1;
            if r.status == "ok" {
                client.ok += 1;
            }
            if r.shed {
                client.shed += 1;
                report.shed += 1;
            }
            if r.crashed {
                report.crashed += 1;
            }
            if let Some(problem) = &r.problem {
                *report.problems.entry(problem.clone()).or_default() += 1;
            }
            if let Some(ms) = r.service_ms {
                report.service_us.record((ms * 1e3).max(0.0) as u64);
            }
            if let Some(ms) = r.queue_wait_ms {
                report.queue_wait_us.record((ms * 1e3).max(0.0) as u64);
            }
            report.warm_hits += r.warm_hits.unwrap_or(0);
        }
        if report.requests > 0 {
            report.span_ms = (t_hi - t_lo).max(0.0);
        }
        report
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
        if self.span_ms <= 0.0 {
            0.0
        } else {
            self.requests as f64 / (self.span_ms / 1e3)
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
        let count_map = |m: &BTreeMap<String, u64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), (*v).into()))
                    .collect::<Vec<_>>(),
            )
        };
        Json::obj([
            ("v", SCHEMA_VERSION.into()),
            ("requests", self.requests.into()),
            ("span_ms", Json::Float(self.span_ms)),
            ("throughput_rps", Json::Float(self.throughput_rps())),
            ("shed", self.shed.into()),
            ("shed_rate", Json::Float(self.shed_rate())),
            ("crashed", self.crashed.into()),
            ("warm_hits", self.warm_hits.into()),
            ("service_p50_ms", Json::Float(self.service_ms(0.5))),
            ("service_p99_ms", Json::Float(self.service_ms(0.99))),
            ("queue_wait_p50_ms", Json::Float(self.queue_wait_ms(0.5))),
            ("queue_wait_p99_ms", Json::Float(self.queue_wait_ms(0.99))),
            ("statuses", count_map(&self.statuses)),
            ("ops", count_map(&self.ops)),
            (
                "clients",
                Json::Obj(
                    self.clients
                        .iter()
                        .map(|(peer, c)| {
                            (
                                peer.clone(),
                                Json::obj([
                                    ("requests", c.requests.into()),
                                    ("ok", c.ok.into()),
                                    ("shed", c.shed.into()),
                                ]),
                            )
                        })
                        .collect::<Vec<_>>(),
                ),
            ),
            ("problems", count_map(&self.problems)),
            ("service_us", self.service_us.to_json()),
            ("queue_wait_us", self.queue_wait_us.to_json()),
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
            self.span_ms / 1e3,
            self.throughput_rps()
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
        assert!(report.span_ms >= 2000.0, "{}", report.span_ms);
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
    }
}
