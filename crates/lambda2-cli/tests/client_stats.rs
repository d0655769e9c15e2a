//! End-to-end exit-code tests for `l2 client stats`: against a live
//! daemon it renders the counter table and exits 0; against a daemon
//! that answers with an error status — or an `ok` reply missing the
//! `server` counters object — it exits 1. The failure daemons are fake:
//! a plain TCP listener speaking the 4-byte length-prefix framing, so
//! the tests pin the *client's* judgment, not the server's behavior.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::thread;

const L2: &str = env!("CARGO_BIN_EXE_l2");

/// Boots `l2 serve` on an ephemeral port and returns the child plus the
/// address parsed from its startup line.
fn spawn_daemon() -> (Child, String) {
    let mut child = Command::new(L2)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn l2 serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon prints its address before exiting")
            .expect("read daemon stderr");
        if let Some(addr) = line.strip_prefix("serve: listening on ") {
            break addr.to_owned();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn client(args: &[&str]) -> std::process::Output {
    Command::new(L2)
        .arg("client")
        .args(args)
        .output()
        .expect("run l2 client")
}

#[test]
fn stats_against_live_daemon_renders_table_and_exits_zero() {
    let (mut daemon, addr) = spawn_daemon();

    let out = client(&["stats", "--addr", &addr]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    for row in ["accepted", "queue_wait_us", "service_us", "ops"] {
        assert!(stdout.contains(row), "table carries `{row}`:\n{stdout}");
    }
    // One row per client; the reply counts its own request.
    assert!(
        stdout.contains("requests 1 ok 1 shed 0"),
        "per-client row:\n{stdout}"
    );
    assert!(
        !stdout.trim_start().starts_with('{'),
        "default output is a table, not raw JSON:\n{stdout}"
    );

    // `--json` switches to the raw reply line.
    let out = client(&["stats", "--addr", &addr, "--json"]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        stdout.trim_start().starts_with('{') && stdout.contains("\"server\""),
        "raw JSON reply:\n{stdout}"
    );

    let out = client(&["shutdown", "--addr", &addr]);
    assert!(out.status.success(), "shutdown exit: {:?}", out.status);
    daemon.wait().expect("daemon exits after shutdown");
}

/// A fake daemon answering every request with one fixed framed reply.
fn spawn_fake_daemon(reply: &'static str) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let addr = listener.local_addr().expect("local addr").to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            // Read one frame (length prefix + payload), then answer.
            let mut len = [0u8; 4];
            if stream.read_exact(&mut len).is_err() {
                continue;
            }
            let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
            if stream.read_exact(&mut payload).is_err() {
                continue;
            }
            let body = reply.as_bytes();
            let _ = stream.write_all(&(body.len() as u32).to_be_bytes());
            let _ = stream.write_all(body);
            let _ = stream.flush();
        }
    });
    addr
}

#[test]
fn stats_against_error_reply_exits_nonzero() {
    let addr = spawn_fake_daemon(r#"{"v":1,"status":"error","error":"boom"}"#);
    let out = client(&["stats", "--addr", &addr]);
    assert_eq!(out.status.code(), Some(1), "error status must exit 1");
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("boom"), "names the error:\n{stderr}");
}

#[test]
fn stats_ok_without_server_object_exits_nonzero() {
    let addr = spawn_fake_daemon(r#"{"v":1,"status":"ok"}"#);
    let out = client(&["stats", "--addr", &addr]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "ok-without-counters must exit 1"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        stderr.contains("server"),
        "names the missing object:\n{stderr}"
    );
}
