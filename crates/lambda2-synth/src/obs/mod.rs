//! Search telemetry: structured trace events, tracer sinks, and phase
//! timing.
//!
//! The paper's claims are *search-behavior* claims — deduction refutes
//! hypotheses early, best-first order finds the least-cost program, hard
//! instances blow up in enumeration. This module is the window into that
//! behavior: the search loop, deduction-driven planner, enumeration
//! stores, and verifier emit [`TraceEvent`]s into a [`Tracer`], and the
//! search accounts wall-time per phase in [`PhaseTimes`].
//!
//! Design constraints:
//!
//! * **Zero heavy deps** — events serialize through the hand-rolled
//!   [`json`] module.
//! * **Free when off** — the default [`NoopTracer`] reports
//!   `enabled() == false`, and every call site that would render an
//!   expression or build a `String` checks that flag first, so the hot
//!   path pays one inlinable virtual call per event site at most.
//!
//! Sinks provided here: [`NoopTracer`] (default), [`CollectTracer`]
//! (in-memory, for tests and programmatic consumers), and [`JsonlTracer`]
//! (one JSON object per line, the `l2 --trace <path>` format).

pub mod corpus;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod profile;

use std::io::{self, Write};
use std::time::{Duration, Instant};

use crate::govern::BudgetSnapshot;
use json::Json;

/// Version of the trace-event / stats-line JSON schema.
///
/// Every trace event, `--stats-json` line, and `BENCH_*.json` record
/// carries this as a `"v"` field; the `profile` tools refuse input whose
/// version they do not understand instead of misparsing it. Bump on any
/// breaking change to the serialized shapes.
pub const SCHEMA_VERSION: u64 = 1;

/// Which queue-item flavor a [`TraceEvent::Pop`] refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopKind {
    /// A hypothesis (complete → verify; open → spawn expansions/closings).
    Hypothesis,
    /// A lazy combinator-expansion stream item.
    Apply,
    /// A closing-stream item at some term-cost tier.
    Close,
}

impl PopKind {
    fn name(self) -> &'static str {
        match self {
            PopKind::Hypothesis => "hyp",
            PopKind::Apply => "apply",
            PopKind::Close => "close",
        }
    }
}

/// Why the planner rejected a combinator expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuteReason {
    /// A deduction rule proved no step function can exist.
    Deduction,
    /// The combinator cannot produce the hole's type here.
    IllTyped,
    /// A fold initial-value candidate disagreed with an
    /// empty-collection example row.
    InitMismatch,
}

impl RefuteReason {
    fn name(self) -> &'static str {
        match self {
            RefuteReason::Deduction => "deduction",
            RefuteReason::IllTyped => "ill-typed",
            RefuteReason::InitMismatch => "init-mismatch",
        }
    }
}

/// Lifecycle stage in a [`TraceEvent::Store`] event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreAction {
    /// A new enumeration store was materialized for a hole context.
    Create,
    /// An existing store was reused (scope + examples matched).
    Hit,
    /// A store was evicted by the LRU byte-budget sweep.
    Evict,
    /// The budget cut a level of the store mid-build: the episode's
    /// store is abandoned, partial level and all.
    Cut,
}

impl StoreAction {
    fn name(self) -> &'static str {
        match self {
            StoreAction::Create => "create",
            StoreAction::Hit => "hit",
            StoreAction::Evict => "evict",
            StoreAction::Cut => "cut",
        }
    }
}

/// One structured event emitted by the search.
///
/// The JSONL rendering of every variant carries an `"ev"` discriminator;
/// see [`TraceEvent::to_json`] for the exact schema (documented field by
/// field in DESIGN.md §Observability).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A queue item was popped.
    Pop {
        /// Running pop counter (1-based, matches `Stats::popped`).
        n: u64,
        /// Item flavor.
        kind: PopKind,
        /// Priority (admissible cost bound) of the item.
        cost: u32,
        /// Open holes in the underlying hypothesis.
        holes: usize,
        /// The hypothesis sketch, holes rendered as `?N`.
        sketch: String,
    },
    /// The planner admitted a combinator expansion for a hole context.
    Plan {
        /// Combinator name (`map`, `foldl`, …).
        comb: &'static str,
        /// Rendered collection argument.
        coll: String,
        /// Rendered initial-value candidate (folds only).
        init: Option<String>,
        /// Cost the expansion adds to the hypothesis.
        delta_cost: u32,
        /// Example rows deduction inferred for the expansion's body hole.
        rows: usize,
    },
    /// The planner refuted a combinator expansion.
    Refute {
        /// Combinator name.
        comb: &'static str,
        /// Rendered collection argument.
        coll: String,
        /// Rendered initial-value candidate (folds only).
        init: Option<String>,
        /// Why it was rejected.
        reason: RefuteReason,
    },
    /// Deduction's pruning check refuted a combinator expansion
    /// ([`crate::expand::ExpandFail::Pruned`]): work necessary-row
    /// inference would have kept. The search emits it only for the
    /// `cardinality` domain with `pruned` set; the other domain names
    /// (`shape`, `length`, `provenance`, `order`, `init`, `congruence`)
    /// and `pruned: false` appear in traces from builds that ran a
    /// separate abstract pre-pass, which `l2 profile` still reads.
    StaticRefute {
        /// Combinator name.
        comb: &'static str,
        /// Rendered collection argument.
        coll: String,
        /// Rendered initial-value candidate (folds only).
        init: Option<String>,
        /// Stable name of the domain that proved the refutation.
        domain: &'static str,
        /// `true` when the refutation removed work deduction would have
        /// kept (serialized only when set, so older attribution events
        /// keep their historical shape).
        pruned: bool,
    },
    /// A closing stream advanced to a new term-cost tier.
    Tier {
        /// The tier (exact term cost) that was just enumerated.
        tier: u32,
        /// Queue priority of the stream item.
        cost: u32,
        /// Spec-satisfying terms the tier produced for this hole.
        fills: usize,
    },
    /// An enumeration store was created, reused, evicted, or cut.
    Store {
        /// What happened.
        action: StoreAction,
        /// Terms held by the store at event time.
        terms: usize,
        /// Bytes the store owns at event time
        /// ([`crate::enumerate::TermStore::bytes`]).
        bytes: usize,
    },
    /// A complete candidate program was checked against the examples.
    Verify {
        /// Whether it satisfied every example.
        ok: bool,
        /// Candidate cost.
        cost: u32,
        /// Rendered candidate body.
        program: String,
    },
    /// A panic was caught (and isolated) at a governed engine site; the
    /// offending candidate was counted and skipped, never fatal to the run.
    Fault {
        /// The isolation site (`verify.candidate`, `deduce.plan`, …).
        site: &'static str,
        /// The rendered panic payload.
        detail: String,
    },
    /// A periodic live-progress heartbeat ("the synthesizer's `top`"),
    /// emitted from the search loop on the governor's adaptive poll
    /// cadence — only when [`SearchOptions::progress`] is on, since its
    /// count and content are wall-clock driven and would make otherwise
    /// deterministic traces volatile. `profile diff` skips these events
    /// for the same reason it strips `t_us`.
    ///
    /// [`SearchOptions::progress`]: crate::search::SearchOptions::progress
    Progress {
        /// Budget accounting at heartbeat time.
        budget: BudgetSnapshot,
        /// Items in the search queue after the current pop.
        queue: usize,
        /// Priority of the current pop — best-first order makes this the
        /// cost frontier the search has reached.
        best_cost: u32,
        /// Cumulative per-phase wall time so far; consumers diff
        /// consecutive heartbeats for phase-time deltas.
        phases: PhaseTimes,
    },
}

impl TraceEvent {
    /// Serializes the event to its JSONL object form. Every object leads
    /// with the [`SCHEMA_VERSION`] as `"v"` and its `"ev"` discriminator.
    pub fn to_json(&self) -> Json {
        let v = ("v", SCHEMA_VERSION.into());
        match self {
            TraceEvent::Pop {
                n,
                kind,
                cost,
                holes,
                sketch,
            } => Json::obj([
                v,
                ("ev", "pop".into()),
                ("n", (*n).into()),
                ("kind", kind.name().into()),
                ("cost", (*cost).into()),
                ("holes", (*holes).into()),
                ("sketch", sketch.as_str().into()),
            ]),
            TraceEvent::Plan {
                comb,
                coll,
                init,
                delta_cost,
                rows,
            } => {
                let mut pairs = vec![
                    v,
                    ("ev", "plan".into()),
                    ("comb", (*comb).into()),
                    ("coll", coll.as_str().into()),
                ];
                if let Some(init) = init {
                    pairs.push(("init", init.as_str().into()));
                }
                pairs.push(("delta_cost", (*delta_cost).into()));
                pairs.push(("rows", (*rows).into()));
                Json::obj(pairs)
            }
            TraceEvent::Refute {
                comb,
                coll,
                init,
                reason,
            } => {
                let mut pairs = vec![
                    v,
                    ("ev", "refute".into()),
                    ("comb", (*comb).into()),
                    ("coll", coll.as_str().into()),
                ];
                if let Some(init) = init {
                    pairs.push(("init", init.as_str().into()));
                }
                pairs.push(("reason", reason.name().into()));
                Json::obj(pairs)
            }
            TraceEvent::StaticRefute {
                comb,
                coll,
                init,
                domain,
                pruned,
            } => {
                let mut pairs = vec![
                    v,
                    ("ev", "static-refute".into()),
                    ("comb", (*comb).into()),
                    ("coll", coll.as_str().into()),
                ];
                if let Some(init) = init {
                    pairs.push(("init", init.as_str().into()));
                }
                pairs.push(("domain", (*domain).into()));
                if *pruned {
                    pairs.push(("pruned", true.into()));
                }
                Json::obj(pairs)
            }
            TraceEvent::Tier { tier, cost, fills } => Json::obj([
                v,
                ("ev", "tier".into()),
                ("tier", (*tier).into()),
                ("cost", (*cost).into()),
                ("fills", (*fills).into()),
            ]),
            TraceEvent::Store {
                action,
                terms,
                bytes,
            } => Json::obj([
                v,
                ("ev", "store".into()),
                ("action", action.name().into()),
                ("terms", (*terms).into()),
                ("bytes", (*bytes).into()),
            ]),
            TraceEvent::Verify { ok, cost, program } => Json::obj([
                v,
                ("ev", "verify".into()),
                ("ok", (*ok).into()),
                ("cost", (*cost).into()),
                ("program", program.as_str().into()),
            ]),
            TraceEvent::Fault { site, detail } => Json::obj([
                v,
                ("ev", "fault".into()),
                ("site", (*site).into()),
                ("detail", detail.as_str().into()),
            ]),
            TraceEvent::Progress {
                budget,
                queue,
                best_cost,
                phases,
            } => Json::obj([
                v,
                ("ev", "progress".into()),
                ("queue", (*queue).into()),
                ("best_cost", (*best_cost).into()),
                ("budget", budget.to_json()),
                ("phases", phases.to_json()),
            ]),
        }
    }
}

/// A sink for [`TraceEvent`]s.
///
/// Implementations must keep [`Tracer::enabled`] cheap: the search calls
/// it before constructing any event whose payload requires rendering.
pub trait Tracer {
    /// Whether this tracer wants events at all. When `false`, callers
    /// skip event construction entirely, so tracing costs nothing.
    fn enabled(&self) -> bool {
        false
    }

    /// Receives one event. The default implementation drops it.
    fn emit(&mut self, event: TraceEvent) {
        let _ = event;
    }
}

/// The default tracer: drops everything, reports disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// Collects events in memory — for tests and programmatic consumers.
#[derive(Debug, Default)]
pub struct CollectTracer {
    /// The events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl Tracer for CollectTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Streams events as JSON Lines: one compact object per line.
///
/// This is the sink behind `l2 --trace <path>`. Writes go through a
/// [`io::BufWriter`] and are flushed on [`JsonlTracer::finish`] or drop —
/// one syscall per buffer instead of per event, so trace-heavy runs don't
/// skew the phase timings the tracer itself reports. IO errors are
/// recorded (and reported by `finish`) rather than panicking mid-search —
/// telemetry must never take down a run.
///
/// Each line additionally carries a `t_us` field: microseconds since the
/// tracer was created. `t_us` is the one *volatile* field in the schema —
/// the `profile diff` alignment keys strip it.
pub struct JsonlTracer<W: Write> {
    // `Option` so both `finish` (by value) and `Drop` can take the writer.
    out: Option<io::BufWriter<W>>,
    start: Instant,
    lines: u64,
    error: Option<io::Error>,
}

impl JsonlTracer<std::fs::File> {
    /// Opens (truncating) a trace file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `File::create` failure.
    pub fn create(path: &std::path::Path) -> io::Result<JsonlTracer<std::fs::File>> {
        Ok(JsonlTracer::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlTracer<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> JsonlTracer<W> {
        JsonlTracer {
            out: Some(io::BufWriter::new(out)),
            start: Instant::now(),
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the line count, or the first IO error
    /// encountered while writing.
    ///
    /// # Errors
    ///
    /// Returns the deferred write/flush error, if any.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(mut out) = self.out.take() {
            out.flush()?;
        }
        Ok(self.lines)
    }

    /// Flushes and hands back the inner buffered writer (tests).
    #[cfg(test)]
    fn into_writer(mut self) -> W {
        let mut out = self.out.take().expect("writer present");
        out.flush().expect("flush");
        match out.into_inner() {
            Ok(w) => w,
            Err(_) => unreachable!("flushed buffer cannot fail into_inner"),
        }
    }
}

impl<W: Write> Drop for JsonlTracer<W> {
    fn drop(&mut self) {
        // Best-effort flush for early-return paths that never reach
        // `finish` (errors there are already latched or unreportable).
        if let Some(mut out) = self.out.take() {
            let _ = out.flush();
        }
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            return;
        };
        let mut line = event.to_json();
        if let Json::Obj(pairs) = &mut line {
            let t_us = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            pairs.insert(1, ("t_us".to_owned(), t_us.into()));
        }
        if let Err(e) = writeln!(out, "{line}") {
            self.error = Some(e);
            return;
        }
        self.lines += 1;
    }
}

/// Wall-time spent in each search phase during one run.
///
/// The four phases partition the instrumented regions of the search loop
/// (queue bookkeeping in between is unaccounted), so their sum is a lower
/// bound on — never exceeds — the run's elapsed time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Deduction: planning combinator expansions (refute + propagate).
    pub deduce: Duration,
    /// Enumeration: building term-store levels and collecting closings.
    pub enumerate: Duration,
    /// Expansion: instantiating planned templates into child hypotheses.
    pub expand: Duration,
    /// Verification: running complete candidates on the examples.
    pub verify: Duration,
}

impl PhaseTimes {
    /// Sum of all phases.
    pub fn total(&self) -> Duration {
        self.deduce + self.enumerate + self.expand + self.verify
    }

    /// Adds another run's phase times (suite aggregation).
    pub fn merge(&mut self, other: &PhaseTimes) {
        self.deduce += other.deduce;
        self.enumerate += other.enumerate;
        self.expand += other.expand;
        self.verify += other.verify;
    }

    /// Serializes as an object of millisecond floats.
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::Float(d.as_secs_f64() * 1e3);
        Json::obj([
            ("deduce_ms", ms(self.deduce)),
            ("enumerate_ms", ms(self.enumerate)),
            ("expand_ms", ms(self.expand)),
            ("verify_ms", ms(self.verify)),
        ])
    }
}

impl std::fmt::Display for PhaseTimes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        write!(
            f,
            "deduce={:.1}ms enumerate={:.1}ms expand={:.1}ms verify={:.1}ms",
            ms(self.deduce),
            ms(self.enumerate),
            ms(self.expand),
            ms(self.verify)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_disabled_and_silent() {
        let mut t = NoopTracer;
        assert!(!t.enabled());
        t.emit(TraceEvent::Tier {
            tier: 1,
            cost: 2,
            fills: 0,
        });
    }

    #[test]
    fn collect_tracer_keeps_order() {
        let mut t = CollectTracer::default();
        assert!(t.enabled());
        t.emit(TraceEvent::Store {
            action: StoreAction::Create,
            terms: 3,
            bytes: 100,
        });
        t.emit(TraceEvent::Verify {
            ok: true,
            cost: 5,
            program: "l".into(),
        });
        assert_eq!(t.events.len(), 2);
        assert!(matches!(t.events[0], TraceEvent::Store { .. }));
    }

    #[test]
    fn jsonl_tracer_writes_one_parseable_object_per_line() {
        let mut t = JsonlTracer::new(Vec::new());
        t.emit(TraceEvent::Pop {
            n: 1,
            kind: PopKind::Hypothesis,
            cost: 3,
            holes: 1,
            sketch: "(map (lambda (x) ?1) l)".into(),
        });
        t.emit(TraceEvent::Refute {
            comb: "map",
            coll: "l".into(),
            init: None,
            reason: RefuteReason::Deduction,
        });
        assert_eq!(t.lines(), 2);
        let buf = String::from_utf8(t.into_writer()).unwrap();
        for line in buf.lines() {
            let v = json::parse(line).expect("parseable");
            assert_eq!(v.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
            assert!(v.get("t_us").and_then(Json::as_u64).is_some());
            assert!(v.get("ev").is_some());
        }
    }

    #[test]
    fn jsonl_tracer_flushes_on_drop() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// A writer that records everything flushed *through* to it.
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = Rc::new(RefCell::new(Vec::new()));
        {
            let mut t = JsonlTracer::new(Shared(Rc::clone(&sink)));
            t.emit(TraceEvent::Tier {
                tier: 1,
                cost: 2,
                fills: 0,
            });
            // One small event: still sitting in the BufWriter.
            assert!(sink.borrow().is_empty());
        }
        // Dropping the tracer flushed it.
        let buf = sink.borrow();
        let text = std::str::from_utf8(&buf).unwrap();
        assert!(text.contains(r#""ev":"tier""#), "flushed on drop: {text}");
    }

    #[test]
    fn event_json_schema_is_stable() {
        let ev = TraceEvent::Plan {
            comb: "foldl",
            coll: "l".into(),
            init: Some("0".into()),
            delta_cost: 7,
            rows: 3,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"v":1,"ev":"plan","comb":"foldl","coll":"l","init":"0","delta_cost":7,"rows":3}"#
        );
        let ev = TraceEvent::Store {
            action: StoreAction::Evict,
            terms: 10,
            bytes: 4096,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"v":1,"ev":"store","action":"evict","terms":10,"bytes":4096}"#
        );
        let ev = TraceEvent::Fault {
            site: "verify.candidate",
            detail: "boom".into(),
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"v":1,"ev":"fault","site":"verify.candidate","detail":"boom"}"#
        );
        let ev = TraceEvent::StaticRefute {
            comb: "map",
            coll: "l".into(),
            init: None,
            domain: "length",
            pruned: false,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"v":1,"ev":"static-refute","comb":"map","coll":"l","domain":"length"}"#
        );
        let ev = TraceEvent::StaticRefute {
            comb: "foldl",
            coll: "l".into(),
            init: Some("0".into()),
            domain: "init",
            pruned: false,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"v":1,"ev":"static-refute","comb":"foldl","coll":"l","init":"0","domain":"init"}"#
        );
        let ev = TraceEvent::StaticRefute {
            comb: "filter",
            coll: "l".into(),
            init: None,
            domain: "cardinality",
            pruned: true,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"v":1,"ev":"static-refute","comb":"filter","coll":"l","domain":"cardinality","pruned":true}"#
        );
        let ev = TraceEvent::Progress {
            budget: BudgetSnapshot {
                pops: 100,
                fuel_spent: 5,
                peak_store_bytes: 1024,
                ticks: 400,
                elapsed: Duration::from_millis(3),
                exceeded: None,
            },
            queue: 7,
            best_cost: 9,
            phases: PhaseTimes::default(),
        };
        assert_eq!(
            ev.to_json().to_string(),
            concat!(
                r#"{"v":1,"ev":"progress","queue":7,"best_cost":9,"#,
                r#""budget":{"pops":100,"fuel_spent":5,"peak_store_bytes":1024,"ticks":400,"elapsed_ms":3.0,"exceeded":null},"#,
                r#""phases":{"deduce_ms":0.0,"enumerate_ms":0.0,"expand_ms":0.0,"verify_ms":0.0}}"#
            )
        );
    }

    #[test]
    fn phase_times_total_and_merge() {
        let mut a = PhaseTimes {
            deduce: Duration::from_millis(10),
            enumerate: Duration::from_millis(20),
            expand: Duration::from_millis(30),
            verify: Duration::from_millis(40),
        };
        assert_eq!(a.total(), Duration::from_millis(100));
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), Duration::from_millis(200));
        let j = a.to_json();
        assert_eq!(j.get("deduce_ms").unwrap().as_f64(), Some(20.0));
    }
}
