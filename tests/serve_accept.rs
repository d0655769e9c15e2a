//! The serve daemon's accept loop: a fresh connection is accepted the
//! moment it arrives, and an idle listener still wakes for the drain
//! flag, over TCP and `unix:` listeners alike.
//!
//! These tests time a mostly idle daemon, so they live in their own test
//! binary: `cargo test` runs binaries one at a time, and the searches of
//! `tests/serve.rs` would otherwise keep every core busy and add
//! scheduler wake-up delays of several milliseconds to the round trips
//! measured here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use lambda2::synth::obs::json::Json;
use lambda2::synth::serve::{Client, ServeConfig, Server};

/// A daemon serving on a background thread.
struct Daemon {
    addr: String,
    control: Arc<AtomicBool>,
    /// Signalled when `run()` returns.
    done: mpsc::Receiver<()>,
    handle: thread::JoinHandle<()>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Daemon {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().to_owned();
        let control = server.control();
        let (done_tx, done) = mpsc::channel();
        let handle = thread::spawn(move || {
            server.run().expect("serve loop");
            let _ = done_tx.send(());
        });
        Daemon {
            addr,
            control,
            done,
            handle,
        }
    }

    /// Flips the drain flag and reports whether `run()` returned within
    /// `limit`; a test that fails on `false` fails instead of hanging on
    /// the join.
    fn stop_within(self, limit: Duration) -> bool {
        self.control.store(true, Ordering::SeqCst);
        if self.done.recv_timeout(limit).is_err() {
            return false;
        }
        self.handle.join().expect("server thread");
        true
    }
}

/// Sends one `ping` on `client` and checks the answer.
fn ping(client: &mut Client) {
    let pong = client
        .call(&Json::obj([("op", "ping".into())]))
        .expect("ping");
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
}

/// An idle daemon notices the drain flag within about one read timeout
/// on either listener kind: the accept loop must keep waking for it
/// while no connection arrives.
#[test]
fn idle_listeners_drain_promptly() {
    let dir = std::env::temp_dir().join(format!("lambda2-serve-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let addrs = [
        Some("127.0.0.1:0".to_owned()),
        cfg!(unix).then(|| format!("unix:{}", dir.join("x.sock").display())),
    ];
    for addr in addrs.into_iter().flatten() {
        let daemon = Daemon::start(ServeConfig {
            addr: addr.clone(),
            ..ServeConfig::default()
        });
        // A served ping proves the listener is up; the accept loop is
        // then back in `accept` when the flag flips.
        ping(&mut Client::connect(&daemon.addr).expect("connect"));
        assert!(
            daemon.stop_within(Duration::from_millis(500)),
            "{addr}: still serving 500 ms after the drain flag flipped"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh connection is accepted the moment it arrives: the median
/// round trip of a `ping` on a new connection to an idle daemon stays
/// well under the ~5 ms a 10 ms accept-polling tick would add. The pings
/// go back to back; a fixed pause between them could phase-lock with
/// such a tick and hide it.
#[test]
fn fresh_connections_are_accepted_without_delay() {
    let daemon = Daemon::start(ServeConfig::default());
    let mut round_trips: Vec<Duration> = (0..21)
        .map(|_| {
            let sent = Instant::now();
            ping(&mut Client::connect(&daemon.addr).expect("connect"));
            sent.elapsed()
        })
        .collect();
    assert!(daemon.stop_within(Duration::from_secs(5)), "daemon drains");
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "median ping round trip {median:?} on fresh connections: {round_trips:?}"
    );
}
