//! End-to-end tests for the serve daemon (`lambda2::synth::serve`).
//!
//! Covers the PR's acceptance criteria: the determinism bridge (a
//! problem submitted over the wire returns byte-identical results to a
//! local `l2 synth` run, warm cache on and off), bounded admission with
//! structured sheds, hostile-input survival, and graceful drain. The
//! crash-isolation test lives behind `--features failpoints` alongside
//! the rest of the fault-injection suite.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lambda2::synth::obs::json::Json;
use lambda2::synth::serve::{
    frame, Backoff, Client, ClientError, ServeConfig, ServeSummary, Server,
};
use lambda2::synth::{
    load_access_log, load_records, parse_problem, AccessReport, Corpus, SearchOptions, Synthesizer,
};

/// Problems with default libraries, rendered in `.l2` surface syntax —
/// the same documents `l2 client` would send from a file.
const EVENS: &str = "(problem evens
  (params (l [int]))
  (returns [int])
  (example ([]) [])
  (example ([1 2 3 4]) [2 4])
  (example ([5 6]) [6])
  (example ([8]) [8])
  (example ([7 0 9]) [0]))";

const ROTATE: &str = "(problem rotate
  (params (l [int]))
  (returns [int])
  (example ([5]) [5])
  (example ([1 7]) [7 1])
  (example ([1 7 3]) [7 3 1]))";

const INCRS: &str = "(problem incrs
  (params (l [int]))
  (returns [int])
  (example ([]) [])
  (example ([1 2]) [2 3])
  (example ([0 4 7]) [1 5 8]))";

/// A permutation λ² cannot express under default options: swap adjacent
/// pairs. The search runs until its wall-clock budget — a reliable way
/// to occupy a worker for a controlled time.
const STUCK: &str = "(problem stuck
  (params (l [int]))
  (returns [int])
  (example ([1 2 3 4]) [2 1 4 3])
  (example ([5 6]) [6 5])
  (example ([7 8 9 0]) [8 7 0 9]))";

fn start(config: ServeConfig) -> (String, Arc<AtomicBool>, thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_owned();
    let control = server.control();
    let handle = thread::spawn(move || server.run().expect("serve loop"));
    (addr, control, handle)
}

fn stop(control: &AtomicBool, handle: thread::JoinHandle<ServeSummary>) -> ServeSummary {
    control.store(true, Ordering::SeqCst);
    handle.join().expect("server thread")
}

fn synth_req(id: &str, source: &str, timeout_ms: u64) -> Json {
    Json::obj([
        ("v", 1u64.into()),
        ("op", "synth".into()),
        ("id", id.into()),
        ("problem", source.into()),
        ("timeout_ms", timeout_ms.into()),
    ])
}

fn status_of(resp: &Json) -> &str {
    resp.get("status")
        .and_then(Json::as_str)
        .expect("response carries a status")
}

/// The determinism bridge: for each problem, the served response must
/// match a local `Synthesizer` run byte for byte — program, cost, and
/// the full attempt ladder — with the warm cache enabled and disabled.
/// (Only cache-effectiveness counters may differ; they are not part of
/// the result.)
#[test]
fn served_results_match_local_synthesis_warm_and_cold() {
    for warm_bytes in [0usize, 32 << 20] {
        let config = ServeConfig {
            workers: 1,
            warm_cache_bytes: warm_bytes,
            ..ServeConfig::default()
        };
        let (addr, control, handle) = start(config);
        let mut client = Client::connect(&addr).expect("connect");
        // EVENS twice: the second pass re-uses warm stores when enabled,
        // which must not change the answer.
        for src in [EVENS, ROTATE, INCRS, EVENS] {
            let resp = client
                .call(&synth_req("bridge", src, 30_000))
                .expect("synth call");
            let problem = parse_problem(src).expect("test problem parses");
            let options = SearchOptions {
                timeout: Some(Duration::from_millis(30_000)),
                ..SearchOptions::default()
            };
            let report = Synthesizer::with_options(options).synthesize_report(&problem);
            let local = report.outcome.as_ref().expect("local run solves");
            assert_eq!(status_of(&resp), "ok", "warm={warm_bytes} src={src}");
            assert_eq!(
                resp.get("program").and_then(Json::as_str),
                Some(local.program.to_string().as_str()),
                "program must be byte-identical (warm={warm_bytes})"
            );
            assert_eq!(
                resp.get("cost").and_then(Json::as_u64),
                Some(u64::from(local.cost))
            );
            let attempts = resp
                .get("attempts")
                .and_then(Json::as_arr)
                .expect("attempt ladder");
            assert_eq!(attempts.len(), report.attempts.len());
            for (served, local) in attempts.iter().zip(&report.attempts) {
                assert_eq!(
                    served.get("rung").and_then(Json::as_str),
                    Some(local.rung.name())
                );
                let served_err = served
                    .get("error")
                    .and_then(Json::as_str)
                    .map(ToOwned::to_owned);
                assert_eq!(served_err, local.error.as_ref().map(ToString::to_string));
            }
        }
        let summary = stop(&control, handle);
        assert_eq!(summary.accepted, 4);
        assert_eq!(summary.completed, 4);
        assert_eq!(summary.solved, 4);
        assert_eq!(summary.crashed, 0);
    }
}

/// Admission control: with one worker and a one-slot queue, concurrent
/// requests past `workers + queue` are shed with structured `overloaded`
/// responses carrying a retry hint — and every request, shed or not,
/// gets exactly one answer. Afterwards the daemon serves normally.
#[test]
fn overload_sheds_structurally_and_recovers() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (addr, control, handle) = start(config);

    // Occupy the worker (~1.2s search) and the single queue slot.
    let occupy: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let h = thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.call(&synth_req(&format!("slow{i}"), STUCK, 1_200))
                    .expect("slow call answered")
            });
            // Stagger so slow0 is executing before slow1 queues.
            thread::sleep(Duration::from_millis(300));
            h
        })
        .collect();

    // These must be shed: the worker and the queue slot are taken.
    let mut sheds = 0;
    for i in 0..3 {
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c
            .call(&synth_req(&format!("shed{i}"), STUCK, 1_200))
            .expect("shed call answered");
        assert_eq!(status_of(&resp), "overloaded");
        assert!(
            resp.get("retry_after_ms").and_then(Json::as_u64).unwrap() > 0,
            "shed carries a retry hint"
        );
        sheds += 1;
    }
    for h in occupy {
        let resp = h.join().expect("slow client thread");
        // The stuck problem times out — but structurally, not with a shed.
        assert_ne!(status_of(&resp), "overloaded");
    }

    // The daemon recovers: a fresh request is admitted and solved.
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c
        .call(&synth_req("after", EVENS, 30_000))
        .expect("post-overload call");
    assert_eq!(status_of(&resp), "ok");

    let summary = stop(&control, handle);
    assert_eq!(summary.shed, sheds);
    assert_eq!(summary.accepted, 3); // slow0, slow1, after
    assert_eq!(summary.crashed, 0);
}

/// Retrying through sheds with the seeded backoff eventually lands the
/// request once capacity frees up.
#[test]
fn client_retry_rides_out_overload() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let (addr, control, handle) = start(config);

    // Saturate: one executing (~800ms), one queued.
    let occupy: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let h = thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.call(&synth_req(&format!("slow{i}"), STUCK, 800))
                    .expect("answered")
            });
            thread::sleep(Duration::from_millis(250));
            h
        })
        .collect();

    let mut backoff = Backoff::new(Duration::from_millis(100), Duration::from_secs(2), 7);
    let resp = lambda2::synth::serve::request_with_retry(
        &addr,
        &synth_req("retry", EVENS, 30_000),
        10,
        &mut backoff,
    )
    .expect("retry loop concludes");
    assert_eq!(status_of(&resp), "ok", "retries outlast the saturation");
    for h in occupy {
        h.join().expect("slow client");
    }
    stop(&control, handle);
}

/// Hostile bytes on the wire: oversized length prefixes and garbage JSON
/// must never take the daemon down. Framing violations close that one
/// connection; protocol-level garbage gets a structured `error` and the
/// connection keeps serving.
#[test]
fn garbage_input_cannot_kill_the_daemon() {
    let (addr, control, handle) = start(ServeConfig::default());

    // 1. Raw garbage with a hostile length prefix: connection dropped.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.write_all(b"\xde\xad\xbe\xef garbage").unwrap();
        // The server closes; nothing to assert beyond "no crash".
    }
    // 2. A well-framed but non-JSON payload: structured error, then the
    //    same connection still answers a ping.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        frame::write_frame(&mut raw, b"certainly not json").unwrap();
        let mut reader = frame::FrameReader::new(frame::MAX_FRAME_BYTES);
        let reply = reader.read_frame(&mut raw).unwrap().expect("error reply");
        let doc = lambda2::synth::obs::json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        assert_eq!(status_of(&doc), "error");
        frame::write_frame(&mut raw, br#"{"op":"ping"}"#).unwrap();
        let pong = reader.read_frame(&mut raw).unwrap().expect("pong");
        let doc = lambda2::synth::obs::json::parse(std::str::from_utf8(&pong).unwrap()).unwrap();
        assert_eq!(status_of(&doc), "ok");
        raw.flush().unwrap();
    }
    // 3. An invalid problem: structured error, daemon unharmed.
    {
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c
            .call(&synth_req(
                "bad",
                "(problem oops (params (l [int])))",
                1_000,
            ))
            .expect("answered");
        assert_eq!(status_of(&resp), "error");
    }
    // Still alive and solving.
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c.call(&synth_req("ok", EVENS, 30_000)).expect("answered");
    assert_eq!(status_of(&resp), "ok");

    let summary = stop(&control, handle);
    assert!(summary.rejected >= 2, "garbage was counted: {summary:?}");
    assert_eq!(summary.crashed, 0);
}

/// Hostile nesting: a frame of 100,000 nested `[` (well under the frame
/// cap) would overflow a connection thread's stack in an unbounded
/// recursive-descent parser and abort the whole daemon. Both parsers a
/// request reaches — the JSON envelope and the `.l2` problem source —
/// bound their depth, so each gets a structured `error` and the same
/// connection still answers a ping. A request carrying the removed
/// `portfolio` field is refused the same way rather than ignored.
#[test]
fn deeply_nested_and_removed_fields_get_structured_errors() {
    let (addr, control, handle) = start(ServeConfig::default());
    let deep_source = format!("(problem deep (params (l {})))", "[".repeat(100_000));
    let frames = [
        "[".repeat(100_000),
        synth_req("deep", &deep_source, 1_000).to_string(),
        r#"{"v":1,"op":"synth","problem":"(problem p)","portfolio":true}"#.to_owned(),
    ];
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    let mut reader = frame::FrameReader::new(frame::MAX_FRAME_BYTES);
    let mut call = |payload: &[u8]| {
        frame::write_frame(&mut raw, payload).unwrap();
        let reply = reader.read_frame(&mut raw).unwrap().expect("a reply");
        lambda2::synth::obs::json::parse(std::str::from_utf8(&reply).unwrap()).unwrap()
    };
    for payload in &frames {
        let doc = call(payload.as_bytes());
        assert_eq!(status_of(&doc), "error", "{doc}");
        assert_eq!(status_of(&call(br#"{"op":"ping"}"#)), "ok");
    }
    let summary = stop(&control, handle);
    assert_eq!(summary.crashed, 0);
}

/// Graceful drain: setting the control flag (what the CLI's SIGTERM
/// handler does) answers queued work with `shutting_down`, cancels
/// in-flight work after the grace period, and stops — well under the
/// 2-second bound the CI job enforces.
#[test]
fn drain_cancels_in_flight_and_answers_queued() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 4,
        drain_grace: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (addr, control, handle) = start(config);

    // One long-running job in flight (10s budget — only cancellation
    // can end it quickly), one queued behind it.
    let clients: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let h = thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.call(&synth_req(&format!("drain{i}"), STUCK, 10_000))
                    .expect("answered during drain")
            });
            thread::sleep(Duration::from_millis(300));
            h
        })
        .collect();

    let drain_started = Instant::now();
    let summary = stop(&control, handle);
    let drained_in = drain_started.elapsed();

    let replies: Vec<Json> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    // The in-flight job was cancelled (structured, not ok); the queued
    // one was answered shutting_down.
    assert!(replies.iter().any(|r| status_of(r) == "shutting_down"));
    for r in &replies {
        assert_ne!(status_of(r), "ok");
    }
    assert_eq!(summary.drained, 1, "{summary:?}");
    assert!(
        drained_in < Duration::from_secs(2),
        "drain took {drained_in:?}"
    );
    assert!(summary.drain_elapsed < Duration::from_secs(2));
}

/// A `shutdown` protocol op triggers the same drain as the control flag.
#[test]
fn shutdown_op_drains() {
    let (addr, _control, handle) = start(ServeConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c
        .call(&Json::obj([("op", "shutdown".into()), ("id", "s".into())]))
        .expect("shutdown acked");
    assert_eq!(status_of(&resp), "ok");
    assert_eq!(resp.get("draining").and_then(Json::as_bool), Some(true));
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.crashed, 0);
    // New connections are refused or see shutting_down; either way the
    // daemon is gone shortly after.
    match Client::connect(&addr) {
        Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) | Ok(_) => {}
    }
}

/// The `stats` op reports live counters.
#[test]
fn stats_op_reports_counters() {
    let (addr, control, handle) = start(ServeConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c.call(&synth_req("s1", EVENS, 30_000)).expect("synth");
    assert_eq!(status_of(&resp), "ok");
    let stats = c.call(&Json::obj([("op", "stats".into())])).expect("stats");
    assert_eq!(status_of(&stats), "ok");
    let server = stats.get("server").expect("server counters");
    assert_eq!(server.get("accepted").and_then(Json::as_u64), Some(1));
    assert_eq!(server.get("completed").and_then(Json::as_u64), Some(1));
    assert_eq!(server.get("solved").and_then(Json::as_u64), Some(1));
    // The process-wide type universe holds at least the types `evens`
    // met, and the result types derived from them.
    for gauge in ["type_universe_types", "type_universe_results"] {
        assert!(
            server.get(gauge).and_then(Json::as_u64) > Some(0),
            "{gauge}"
        );
    }
    stop(&control, handle);
}

/// A fresh, empty scratch directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lambda2-serve-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The observability plane is observation-only: a fixed request
/// sequence against a daemon with everything ON (access log, slow-trace
/// capture at threshold 0, corpus records) returns byte-identical
/// programs, costs, attempt ladders, statuses, and request IDs to the
/// same sequence with everything OFF — and the ON run leaves exactly
/// the expected artifacts behind.
#[test]
fn observability_is_observation_only_and_leaves_artifacts() {
    let dir = temp_dir("diff");
    let run = |observe: bool| {
        let config = if observe {
            ServeConfig {
                workers: 1,
                access_log: Some(dir.join("access.jsonl")),
                slow_trace_ms: Some(0),
                slow_trace_dir: Some(dir.join("slow")),
                corpus_dir: Some(dir.join("corpus")),
                ..ServeConfig::default()
            }
        } else {
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            }
        };
        let (addr, control, handle) = start(config);
        let mut client = Client::connect(&addr).expect("connect");
        let mut replies = Vec::new();
        replies.push(
            client
                .call(&Json::obj([("op", "ping".into())]))
                .expect("ping"),
        );
        for src in [EVENS, ROTATE] {
            replies.push(client.call(&synth_req("d", src, 30_000)).expect("synth"));
        }
        replies.push(
            client
                .call(&synth_req(
                    "bad",
                    "(problem oops (params (l [int])))",
                    1_000,
                ))
                .expect("invalid problem answered"),
        );
        replies.push(client.call(&synth_req("d", INCRS, 30_000)).expect("synth"));
        replies.push(
            client
                .call(&Json::obj([("op", "stats".into())]))
                .expect("stats"),
        );
        (replies, stop(&control, handle))
    };
    let (on, on_summary) = run(true);
    let (off, off_summary) = run(false);

    // Result-bearing fields are identical reply by reply — including the
    // request IDs, which are minted whether or not anything records them.
    assert_eq!(on.len(), off.len());
    for (a, b) in on.iter().zip(&off) {
        for field in ["status", "program", "req_id", "error"] {
            assert_eq!(
                a.get(field).and_then(Json::as_str),
                b.get(field).and_then(Json::as_str),
                "field `{field}` must not depend on observability"
            );
        }
        assert_eq!(
            a.get("cost").and_then(Json::as_u64),
            b.get("cost").and_then(Json::as_u64)
        );
        let rungs = |r: &Json| -> Vec<String> {
            r.get("attempts")
                .and_then(Json::as_arr)
                .map(|arr| {
                    arr.iter()
                        .filter_map(|at| at.get("rung").and_then(Json::as_str))
                        .map(ToOwned::to_owned)
                        .collect()
                })
                .unwrap_or_default()
        };
        assert_eq!(rungs(a), rungs(b), "attempt ladder must be identical");
    }
    // The integer counters in the final `stats` reply agree too.
    let counters = |r: &Json| -> Vec<Option<u64>> {
        let server = r.get("server").expect("server counters");
        [
            "accepted",
            "completed",
            "solved",
            "shed",
            "crashed",
            "rejected",
            "drained",
        ]
        .iter()
        .map(|k| server.get(k).and_then(Json::as_u64))
        .collect()
    };
    assert_eq!(counters(&on[5]), counters(&off[5]));
    assert_eq!(on_summary.solved, off_summary.solved);

    // Artifacts of the ON run. Access log: one whole record per request,
    // in order, with the daemon's own request IDs.
    let records = load_access_log(&dir.join("access.jsonl")).expect("parse access log");
    assert_eq!(records.len(), 6);
    let ids: Vec<&str> = records.iter().map(|r| r.req_id.as_str()).collect();
    assert_eq!(ids, ["c1-r1", "c1-r2", "c1-r3", "c1-r4", "c1-r5", "c1-r6"]);
    let statuses: Vec<&str> = records.iter().map(|r| r.status.as_str()).collect();
    assert_eq!(statuses, ["ok", "ok", "ok", "error", "ok", "ok"]);
    for r in &records {
        assert!(
            !r.shed && !r.crashed,
            "nothing was shed or crashed: {ids:?}"
        );
    }
    // Executed jobs carry timings, a problem name, and an options
    // fingerprint; connection-thread records do not.
    for executed in [&records[1], &records[2], &records[4]] {
        assert!(executed.service_ms.is_some(), "{}", executed.req_id);
        assert!(executed.queue_wait_ms.is_some());
        assert!(executed.problem.is_some());
        assert!(executed.fingerprint.is_some());
    }
    assert!(records[0].service_ms.is_none(), "ping decides on the spot");

    // Slow traces at threshold 0: one non-empty file per executed job,
    // named by request ID.
    assert_eq!(on_summary.slow_traces, 3, "{on_summary:?}");
    for id in ["c1-r2", "c1-r3", "c1-r5"] {
        let trace = dir.join("slow").join(format!("{id}.jsonl"));
        let meta = std::fs::metadata(&trace).expect("slow trace exists");
        assert!(meta.len() > 0, "{id}: slow trace is non-empty");
    }
    assert_eq!(
        std::fs::read_dir(dir.join("slow")).unwrap().count(),
        3,
        "no extra slow traces"
    );

    // Corpus records are keyed by the same request IDs.
    let store = Corpus::open(&dir.join("corpus"))
        .expect("corpus")
        .store_path();
    let runs = load_records(&store).expect("parse corpus");
    let run_ids: Vec<&str> = runs.iter().filter_map(|r| r.req_id()).collect();
    assert_eq!(run_ids, ["c1-r2", "c1-r3", "c1-r5"]);
}

/// The access-log writer under load: concurrent connection threads and
/// workers append records to one file, and every line must still be a
/// whole, parseable record — `load_access_log` fails on any torn write.
/// Every request (ok, shed, ping, or unparsable) produces exactly one
/// record with a unique request ID, and the offline analysis of the log
/// agrees with the daemon's own drain summary on every count.
#[test]
fn access_log_interleaves_whole_lines_under_saturation() {
    let dir = temp_dir("torn");
    let log = dir.join("access.jsonl");
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 2,
        access_log: Some(log.clone()),
        ..ServeConfig::default()
    };
    let (addr, control, handle) = start(config);

    let clients = 8usize;
    let per_client = 6u64;
    let mut oks = 0u64;
    let mut sheds = 0u64;
    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut c_ok = 0u64;
                    let mut c_shed = 0u64;
                    let mut client = Client::connect(addr).expect("connect");
                    let ping = client.call(&Json::obj([("op", "ping".into())]));
                    assert_eq!(status_of(&ping.expect("pong")), "ok");
                    for r in 0..per_client {
                        let src = [EVENS, ROTATE, INCRS][(c + r as usize) % 3];
                        let resp = client
                            .call(&synth_req(&format!("l{c}-{r}"), src, 30_000))
                            .expect("answered");
                        match status_of(&resp) {
                            "ok" => c_ok += 1,
                            "overloaded" => c_shed += 1,
                            other => panic!("unexpected status {other}"),
                        }
                    }
                    (c_ok, c_shed)
                })
            })
            .collect();
        for h in handles {
            let (c_ok, c_shed) = h.join().expect("client thread");
            oks += c_ok;
            sheds += c_shed;
        }
    });
    let garbage = 3u64;
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        let mut reader = frame::FrameReader::new(frame::MAX_FRAME_BYTES);
        for _ in 0..garbage {
            frame::write_frame(&mut raw, b"{not json").unwrap();
            reader.read_frame(&mut raw).unwrap().expect("error reply");
        }
    }
    let summary = stop(&control, handle);

    let records = load_access_log(&log).expect("every line parses — no torn writes");
    let total = clients as u64 * (per_client + 1) + garbage;
    assert_eq!(records.len() as u64, total, "one record per request");
    let mut ids: Vec<&str> = records.iter().map(|r| r.req_id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, total, "request IDs are unique");

    let report = AccessReport::analyze(&records);
    assert_eq!(report.requests, total);
    let log_counts = [
        report.completed(),
        report.solved,
        report.shed,
        report.crashed,
        report.rejected,
        report.drained,
        report.warm_hits,
        report.queue_wait_us.count(),
        report.service_us.count(),
    ];
    let daemon_counts = [
        summary.completed,
        summary.solved,
        summary.shed,
        summary.crashed,
        summary.rejected,
        summary.drained,
        summary.warm_hits,
        summary.queue_wait_us.count(),
        summary.service_us.count(),
    ];
    assert_eq!(log_counts, daemon_counts, "analysis matches the daemon");
    assert_eq!(report.ops, summary.ops, "analysis matches the daemon");
    assert_eq!(report.rejected, garbage);
    assert_eq!(report.shed, sheds, "analysis matches the clients");
    assert_eq!(report.solved, oks, "analysis matches the clients");
    let pings = clients as u64;
    assert_eq!(report.statuses.get("ok").copied().unwrap_or(0), oks + pings);
    assert!(
        report.service_ms(0.5) <= report.service_ms(0.99),
        "p50 <= p99"
    );
}

/// Live histograms ride the `stats` op and the final summary even with
/// every observability flag off — they are part of the daemon's shared
/// state, not the access log.
#[test]
fn stats_and_summary_carry_latency_histograms() {
    let (addr, control, handle) = start(ServeConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    for src in [EVENS, ROTATE] {
        let resp = c.call(&synth_req("h", src, 30_000)).expect("synth");
        assert_eq!(status_of(&resp), "ok");
    }
    let stats = c.call(&Json::obj([("op", "stats".into())])).expect("stats");
    assert_eq!(stats.get("req_id").and_then(Json::as_str), Some("c1-r3"));
    let server = stats.get("server").expect("server counters");
    for hist in ["queue_wait_us", "service_us", "frame_bytes"] {
        let count = server
            .get(hist)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats carries `{hist}` summary"));
        assert!(count >= 2, "{hist}: {count} observations");
    }
    assert_eq!(
        server
            .get("ops")
            .and_then(|o| o.get("synth"))
            .and_then(Json::as_u64),
        Some(2)
    );
    assert!(
        server
            .get("clients")
            .map(|c| matches!(c, Json::Obj(pairs) if !pairs.is_empty()))
            .unwrap_or(false),
        "per-client counts present"
    );
    assert_eq!(server.get("slow_traces").and_then(Json::as_u64), Some(0));
    assert!(server
        .get("warm_cache_bytes")
        .and_then(Json::as_u64)
        .is_some());

    let summary = stop(&control, handle);
    assert_eq!(summary.service_us.count(), 2);
    assert_eq!(summary.queue_wait_us.count(), 2);
    assert!(summary.latency_ms(true, 0.5) <= summary.latency_ms(true, 0.99));
    let j = summary.to_json();
    assert!(j.get("service_us").and_then(|h| h.get("count")).is_some());
}

/// Crash isolation under fault injection: a request that panics inside
/// the engine yields a structured `error`, concurrent requests complete,
/// and the daemon serves the next request as if nothing happened. A
/// request naming an unknown fail-point site is rejected, and every
/// request — the crashed and the rejected one included — leaves exactly
/// one access record.
#[cfg(feature = "failpoints")]
#[test]
fn a_panicking_request_cannot_take_the_daemon_down() {
    let dir = temp_dir("crash");
    let log = dir.join("access.jsonl");
    let config = ServeConfig {
        workers: 2,
        access_log: Some(log.clone()),
        ..ServeConfig::default()
    };
    let (addr, control, handle) = start(config);

    // A healthy request in flight on the second worker while the first
    // one crashes.
    let healthy = {
        let addr = addr.clone();
        thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.call(&synth_req("healthy", EVENS, 30_000))
                .expect("answered")
        })
    };
    let mut c = Client::connect(&addr).expect("connect");
    let crash = c
        .call(&Json::obj([
            ("op", "synth".into()),
            ("id", "boom".into()),
            ("problem", EVENS.into()),
            ("timeout_ms", 30_000u64.into()),
            ("failpoint", "serve.request".into()),
        ]))
        .expect("crash answered structurally");
    assert_eq!(status_of(&crash), "error");
    assert!(
        crash
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("crashed"),
        "error names the crash: {crash}"
    );
    let healthy = healthy.join().expect("healthy client");
    assert_eq!(status_of(&healthy), "ok");

    // The same daemon — and even the same worker pool — keeps serving.
    let next = c
        .call(&synth_req("next", ROTATE, 30_000))
        .expect("answered");
    assert_eq!(status_of(&next), "ok");

    let unknown = c
        .call(&Json::obj([
            ("op", "synth".into()),
            ("id", "nowhere".into()),
            ("problem", ROTATE.into()),
            ("timeout_ms", 30_000u64.into()),
            ("failpoint", "no.such.site".into()),
        ]))
        .expect("answered");
    assert_eq!(status_of(&unknown), "error");

    let summary = stop(&control, handle);
    assert_eq!(summary.crashed, 1, "{summary:?}");
    assert!(summary.solved >= 2);
    assert_eq!(summary.rejected, 1, "{summary:?}");
    let records = load_access_log(&log).expect("parse access log");
    assert_eq!(records.len(), 4, "one record per request: {records:?}");
}
