//! Bounded soak smoke for the serve daemon (ignored by default; CI runs
//! it in release with `-- --ignored`). Mixed good/bad traffic — quick
//! solvable problems, invalid problems, protocol garbage, and (under
//! `--features failpoints`) engine panics — hammers the daemon for
//! `LAMBDA2_SOAK_SECS` seconds (default 60). Throughout, memory must
//! stay bounded: the warm cache honors its configured byte budget, the
//! access log grows linearly in requests, not time, and at the end the
//! process's peak resident set (`VmHWM`) sits under a fixed ceiling.
//! The cache's own accounting is not enough on its own: every search
//! also builds term stores of its own, and the daemon's tally keeps one
//! entry per client peer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use lambda2::synth::enumerate::universe_size;
use lambda2::synth::obs::json::Json;
use lambda2::synth::serve::{Client, ServeConfig, Server};
use lambda2::synth::{load_access_log, AccessReport};

const EVENS: &str = "(problem evens
  (params (l [int]))
  (returns [int])
  (example ([]) [])
  (example ([1 2 3 4]) [2 4])
  (example ([5 6]) [6]))";

const ROTATE: &str = "(problem rotate
  (params (l [int]))
  (returns [int])
  (example ([5]) [5])
  (example ([1 7]) [7 1])
  (example ([1 7 3]) [7 3 1]))";

const INVALID: &str = "(problem oops (params (l [int])))";

/// Warm-cache byte budget for the run; the daemon must never report
/// holding more than this plus one entry's worth of slack.
const WARM_BUDGET: usize = 8 << 20;

/// Per-request ceiling on access-log growth. Records are one JSON line
/// of short fields; a kilobyte of slack per request catches any
/// accidental payload echo (problem sources are hundreds of bytes).
const LOG_BYTES_PER_REQUEST: u64 = 1024;

/// Ceiling on the soak process's peak resident set, KiB. The process
/// holds the daemon, its workers and the clients. A 60 s release run
/// peaked at 288 MiB (2-core x86-64 Linux); the ceiling allows 1.5x that
/// for allocator and scheduling differences between machines.
const PEAK_RSS_CEILING_KB: u64 = 432 << 10;

/// This process's peak resident set (`VmHWM`) in KiB, or `None` where
/// `/proc` is absent.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "60s soak; run explicitly or via CI with -- --ignored"]
fn soak_byte_accounting_stays_bounded() {
    let secs: u64 = std::env::var("LAMBDA2_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let dir = std::env::temp_dir().join(format!("lambda2-serve-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("access.jsonl");

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_capacity: 4,
        warm_cache_bytes: WARM_BUDGET,
        access_log: Some(log.clone()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().to_owned();
    let control = server.control();
    let daemon = thread::spawn(move || server.run().expect("serve loop"));

    let deadline = Instant::now() + Duration::from_secs(secs);
    let sent = AtomicU64::new(0);
    let peak_warm = AtomicU64::new(0);
    thread::scope(|scope| {
        // Four clients cycling through the traffic mix.
        for c in 0..4usize {
            let addr = &addr;
            let sent = &sent;
            scope.spawn(move || {
                let mut i = c;
                while Instant::now() < deadline {
                    i += 1;
                    let (src, timeout_ms) = match i % 4 {
                        0 => (EVENS, 30_000u64),
                        1 => (ROTATE, 30_000),
                        2 => (INVALID, 1_000),
                        // An inexpressible problem with a tiny budget:
                        // exercises the unsolved path without stalling.
                        _ => (
                            "(problem stuck
  (params (l [int]))
  (returns [int])
  (example ([1 2 3 4]) [2 1 4 3])
  (example ([5 6]) [6 5]))",
                            50,
                        ),
                    };
                    #[cfg_attr(not(feature = "failpoints"), allow(unused_mut))]
                    let mut pairs = vec![
                        ("v".to_owned(), Json::from(1u64)),
                        ("op".to_owned(), "synth".into()),
                        ("id".to_owned(), format!("soak{c}-{i}").into()),
                        ("problem".to_owned(), src.into()),
                        ("timeout_ms".to_owned(), timeout_ms.into()),
                    ];
                    // Under fault injection, every 16th request panics
                    // inside the engine; the guard must absorb it.
                    #[cfg(feature = "failpoints")]
                    if i % 16 == 0 {
                        pairs.push(("failpoint".to_owned(), "serve.request".into()));
                    }
                    let request = Json::Obj(pairs);
                    match Client::connect(addr).and_then(|mut cl| cl.call(&request)) {
                        Ok(_) => {
                            sent.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("soak client error: {e}"),
                    }
                }
            });
        }
        // A fifth client stirs in protocol garbage and polls the byte
        // accounting via `stats` while the load runs.
        let addr = &addr;
        let sent = &sent;
        let peak_warm = &peak_warm;
        scope.spawn(move || {
            use std::io::Write;
            while Instant::now() < deadline {
                if let Ok(mut raw) = std::net::TcpStream::connect(addr) {
                    let _ = raw.write_all(&6u32.to_be_bytes());
                    let _ = raw.write_all(b"not js");
                }
                let mut cl = Client::connect(addr).expect("stats connect");
                let stats = cl
                    .call(&Json::obj([("op", "stats".into())]))
                    .expect("stats reply");
                sent.fetch_add(1, Ordering::Relaxed);
                let server = stats.get("server").expect("server counters");
                let warm_bytes = server
                    .get("warm_cache_bytes")
                    .and_then(Json::as_u64)
                    .expect("warm_cache_bytes");
                peak_warm.fetch_max(warm_bytes, Ordering::Relaxed);
                assert!(
                    warm_bytes <= (WARM_BUDGET + (1 << 20)) as u64,
                    "warm cache exceeds its budget mid-soak: {warm_bytes}"
                );
                thread::sleep(Duration::from_millis(500));
            }
        });
    });
    control.store(true, Ordering::SeqCst);
    let summary = daemon.join().expect("server thread");
    let total = sent.load(Ordering::Relaxed);

    // The log parses whole (no torn writes over the full soak) and its
    // size is linear in requests — observability cost is bounded.
    let records = load_access_log(&log).expect("parse the whole soak log");
    let report = AccessReport::analyze(&records);
    assert!(report.requests >= total, "log saw every framed request");
    let log_bytes = std::fs::metadata(&log).expect("log metadata").len();
    assert!(
        log_bytes <= records.len() as u64 * LOG_BYTES_PER_REQUEST,
        "access log too large: {log_bytes} bytes for {} records",
        records.len()
    );
    assert_eq!(report.shed, summary.shed);
    let peak_kb = peak_rss_kb();
    if let Some(kb) = peak_kb {
        assert!(
            kb <= PEAK_RSS_CEILING_KB,
            "peak RSS {kb} KiB exceeds the {PEAK_RSS_CEILING_KB} KiB ceiling"
        );
    }
    // The daemon ran in this process, so its type universe is this
    // process's: the gauges its `stats` reply carries.
    let universe = universe_size();
    println!(
        "soak: {total} requests in {secs}s, {} records, {} log bytes, \
         {} shed, {} crashed, peak RSS {peak_kb:?} KiB, \
         peak warm cache {} bytes, type universe {} types / {} results",
        records.len(),
        log_bytes,
        summary.shed,
        summary.crashed,
        peak_warm.load(Ordering::Relaxed),
        universe.types,
        universe.results
    );
}
