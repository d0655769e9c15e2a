//! `l2 serve report <access.jsonl>` is a pure reader: it prints its
//! analysis (text, or one JSON line with `--json`) and creates no file.

use std::fs;
use std::path::Path;
use std::process::Command;

const L2: &str = env!("CARGO_BIN_EXE_l2");

const LOG: &str = concat!(
    r#"{"v":1,"t_ms":1023.9,"req_id":"c1-r1","op":"synth","peer":"127.0.0.1","status":"ok","frame_bytes":264,"queue_wait_ms":0.024,"service_ms":17.5,"warm_hits":0,"shed":false,"crashed":false,"problem":"rotate","fingerprint":"078b7ff94992494c"}"#,
    "\n",
    r#"{"v":1,"t_ms":1026.3,"req_id":"c2-r1","op":"ping","peer":"127.0.0.1","status":"ok","frame_bytes":19,"shed":false,"crashed":false}"#,
    "\n",
);

fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read temp dir")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn serve_report_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("l2-serve-report-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    fs::write(dir.join("access.jsonl"), LOG).expect("write access log");
    let before = listing(&dir);

    for (args, needle) in [
        (&["serve", "report", "access.jsonl"][..], "2 request(s)"),
        (
            &["serve", "report", "access.jsonl", "--json"],
            r#""requests":2"#,
        ),
    ] {
        let out = Command::new(L2)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run l2");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(needle), "{args:?}: {stdout}");
        assert_eq!(listing(&dir), before, "{args:?} created a file");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
    fs::remove_dir_all(&dir).expect("remove temp dir");
}
