//! **Experiment S1** — serve-daemon load generation.
//!
//! Boots an in-process `l2 serve` daemon, then sweeps offered
//! concurrency over a mix of quick problems and reports, per level:
//! request-latency p50/p99, throughput, and the shed rate at the
//! admission queue. The robustness claims this exercises: latency and
//! memory stay bounded as offered load exceeds capacity (excess requests
//! are shed with structured `overloaded` responses, not queued without
//! limit), and every non-shed request completes with a report.
//!
//! Writes `results/BENCH_serve.json` in the measurement shape
//! `l2 corpus ingest` accepts.
//!
//! With `--access-log <path>` (optionally plus `--slow-trace-ms <n>
//! --slow-trace-dir <dir>`) the sweep also exercises the daemon's
//! observability plane, then self-verifies the log after the drain:
//! the offline analysis must agree with the daemon's own drain summary
//! on every per-request count and on the per-op totals (so every
//! settled record reached the file), and report p50 <= p99.
//!
//! Usage: `cargo run -p bench --release --bin serve_bench [-- --quick]
//! [-- --access-log <path> --slow-trace-ms <n> --slow-trace-dir <dir>]`

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use bench::{render_table, write_bench_json, Json};
use lambda2_synth::serve::Client;
use lambda2_synth::{load_access_log, AccessReport, Measurement, ServeConfig, Server, Stats};

/// Quick problems with default libraries in `.l2` surface syntax — the
/// same documents `l2 client` sends from files. All solve in well under
/// 100ms under default options, so the sweep measures queueing and
/// dispatch, not one problem's search time.
const PROBLEMS: &[(&str, &str)] = &[
    (
        "ident",
        "(problem ident
  (params (l [int]))
  (returns [int])
  (example ([1 2]) [1 2])
  (example ([]) [])
  (example ([3]) [3]))",
    ),
    (
        "head",
        "(problem head
  (params (l [int]))
  (returns int)
  (example ([3 2]) 3)
  (example ([7]) 7)
  (example ([9 1 4]) 9))",
    ),
    (
        "rotate",
        "(problem rotate
  (params (l [int]))
  (returns [int])
  (example ([5]) [5])
  (example ([1 7]) [7 1])
  (example ([1 7 3]) [7 3 1]))",
    ),
    (
        "incrs",
        "(problem incrs
  (params (l [int]))
  (returns [int])
  (example ([]) [])
  (example ([1 2]) [2 3])
  (example ([0 4 7]) [1 5 8]))",
    ),
];

/// One client thread's accounting for a level.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    ok: u64,
    shed: u64,
    failed: u64,
}

fn synth_request(name: &str, source: &str, timeout_ms: u64) -> Json {
    Json::obj([
        ("v", 1u64.into()),
        ("op", "synth".into()),
        ("id", name.into()),
        ("problem", source.into()),
        ("timeout_ms", timeout_ms.into()),
    ])
}

/// `latencies` sorted ascending; quantile at histogram-free precision.
fn quantile_us(latencies: &[u64], q: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
    latencies[idx]
}

fn main() {
    let mut quick = false;
    let mut access_log: Option<PathBuf> = None;
    let mut slow_trace_ms: Option<u64> = None;
    let mut slow_trace_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--access-log" => {
                access_log = Some(PathBuf::from(
                    args.next().expect("--access-log requires a path"),
                ));
            }
            "--slow-trace-ms" => {
                slow_trace_ms = Some(
                    args.next()
                        .expect("--slow-trace-ms requires a count")
                        .parse()
                        .expect("--slow-trace-ms: whole milliseconds"),
                );
            }
            "--slow-trace-dir" => {
                slow_trace_dir = Some(PathBuf::from(
                    args.next().expect("--slow-trace-dir requires a path"),
                ));
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    let workers = 2usize;
    let queue = 4usize;
    let timeout_ms = 10_000u64;
    let per_client = if quick { 5u64 } else { 10 };
    let levels: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        queue_capacity: queue,
        default_timeout: Duration::from_millis(timeout_ms),
        access_log: access_log.clone(),
        slow_trace_ms,
        slow_trace_dir,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let addr = server.local_addr().to_owned();
    let control = server.control();
    let daemon = thread::spawn(move || server.run().expect("serve loop"));

    println!(
        "S1: serve-daemon load sweep ({workers} workers, queue {queue}, \
         {} problems x {per_client} requests per client)\n",
        PROBLEMS.len()
    );

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for &level in levels {
        let wall = Instant::now();
        let (tx, rx) = mpsc::channel::<Tally>();
        thread::scope(|scope| {
            for c in 0..level {
                let tx = tx.clone();
                let addr = &addr;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for r in 0..per_client {
                        // Round-robin the mix, offset per client.
                        let (name, source) = PROBLEMS[(c + r as usize) % PROBLEMS.len()];
                        let started = Instant::now();
                        // A fresh connection per request, like the CLI
                        // client; no retries — sheds are the datum here.
                        let outcome = Client::connect(addr)
                            .and_then(|mut c| c.call(&synth_request(name, source, timeout_ms)));
                        let elapsed_us = started.elapsed().as_micros() as u64;
                        match outcome {
                            Ok(resp) => match resp.get("status").and_then(Json::as_str) {
                                Some("ok") => {
                                    tally.ok += 1;
                                    tally.latencies_us.push(elapsed_us);
                                }
                                Some("overloaded") => tally.shed += 1,
                                _ => {
                                    eprintln!("  {name}: {resp}");
                                    tally.failed += 1;
                                }
                            },
                            Err(e) => {
                                eprintln!("  {name}: {e}");
                                tally.failed += 1;
                            }
                        }
                    }
                    let _ = tx.send(tally);
                });
            }
        });
        drop(tx);
        let mut latencies = Vec::new();
        let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
        for tally in rx {
            latencies.extend(tally.latencies_us);
            ok += tally.ok;
            shed += tally.shed;
            failed += tally.failed;
        }
        latencies.sort_unstable();
        let wall = wall.elapsed();
        let total = level as u64 * per_client;
        let p50_us = quantile_us(&latencies, 0.5);
        let p99_us = quantile_us(&latencies, 0.99);
        let throughput = ok as f64 / wall.as_secs_f64().max(1e-9);
        let shed_rate = shed as f64 / total as f64;
        rows.push(vec![
            level.to_string(),
            total.to_string(),
            ok.to_string(),
            shed.to_string(),
            format!("{:.1}", p50_us as f64 / 1e3),
            format!("{:.1}", p99_us as f64 / 1e3),
            format!("{throughput:.1}"),
            format!("{:.0}%", shed_rate * 100.0),
        ]);
        // Measurement-shaped so `l2 corpus ingest` folds the report in;
        // the load-sweep numbers ride as extra fields.
        let m = Measurement {
            name: format!("serve_load_c{level}"),
            elapsed: Duration::from_micros(p50_us),
            solved: failed == 0,
            cost: 0,
            size: 0,
            program: String::new(),
            examples: 0,
            stats: Stats::default(),
            error: None,
        };
        records.push(bench::record(
            &format!("serve/c{level}"),
            &m,
            &[
                ("concurrency", level.into()),
                ("requests", total.into()),
                ("completed", ok.into()),
                ("shed", shed.into()),
                ("client_errors", failed.into()),
                ("p50_ms", Json::Float(p50_us as f64 / 1e3)),
                ("p99_ms", Json::Float(p99_us as f64 / 1e3)),
                ("throughput_rps", Json::Float(throughput)),
                ("shed_rate", Json::Float(shed_rate)),
            ],
        ));
        assert_eq!(
            failed, 0,
            "level {level}: {failed} request(s) failed outright — every \
             non-shed request must complete with a report"
        );
    }

    control.store(true, Ordering::SeqCst);
    let summary = daemon.join().expect("server thread");

    println!(
        "{}",
        render_table(
            &[
                "clients",
                "reqs",
                "ok",
                "shed",
                "p50 ms",
                "p99 ms",
                "rps",
                "shed rate",
            ],
            &rows,
        )
    );
    println!(
        "daemon: {} accepted, {} solved, {} shed, {} crashed, drained in {:.1} ms",
        summary.accepted,
        summary.solved,
        summary.shed,
        summary.crashed,
        summary.drain_elapsed.as_secs_f64() * 1e3,
    );
    assert_eq!(summary.crashed, 0, "no request may crash the daemon");

    if let Some(log_path) = &access_log {
        let records = load_access_log(log_path).expect("parse every access-log line");
        let report = AccessReport::analyze(&records);
        println!(
            "access log: {} records, shed {}, service p50/p99 {:.1}/{:.1} ms",
            report.requests,
            report.shed,
            report.service_ms(0.5),
            report.service_ms(0.99),
        );
        assert!(report.requests > 0, "access log must see the sweep");
        let pairs = [
            ("completed", report.completed(), summary.completed),
            ("solved", report.solved, summary.solved),
            ("shed", report.shed, summary.shed),
            ("crashed", report.crashed, summary.crashed),
            ("rejected", report.rejected, summary.rejected),
            ("drained", report.drained, summary.drained),
            ("warm_hits", report.warm_hits, summary.warm_hits),
            (
                "queue_wait_us.count",
                report.queue_wait_us.count(),
                summary.queue_wait_us.count(),
            ),
            (
                "service_us.count",
                report.service_us.count(),
                summary.service_us.count(),
            ),
        ];
        for (name, log, daemon) in pairs {
            assert_eq!(
                log, daemon,
                "offline {name} must match the daemon's own accounting"
            );
        }
        assert_eq!(
            report.ops, summary.ops,
            "every settled request must reach the access log"
        );
        assert!(
            report.service_ms(0.5) <= report.service_ms(0.99),
            "service p50 must not exceed p99"
        );
    }

    let meta: Vec<(&'static str, Json)> = vec![
        ("workers", workers.into()),
        ("queue_capacity", queue.into()),
        ("timeout_ms", timeout_ms.into()),
        ("per_client", per_client.into()),
        ("quick", quick.into()),
    ];
    match write_bench_json("serve", &meta, records) {
        Ok(path) => eprintln!("report -> {}", path.display()),
        Err(e) => {
            eprintln!("error: writing report: {e}");
            std::process::exit(1);
        }
    }
}
