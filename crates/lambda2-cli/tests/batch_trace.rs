//! A multi-problem `--trace` holds every problem's events, and the file
//! does not depend on the worker count beyond each event's `worker` tag.

use std::path::Path;
use std::process::Command;

use lambda2_synth::obs::json::{parse, Json};

const L2: &str = env!("CARGO_BIN_EXE_l2");

/// Runs `l2 <args> --trace <trace> bench ident head` and returns the
/// trace's events with the `worker` field dropped.
fn traced_batch(args: &[&str], trace: &Path) -> Vec<Json> {
    let out = Command::new(L2)
        .args(args)
        .arg("--trace")
        .arg(trace)
        .args(["bench", "ident", "head"])
        .output()
        .expect("run l2");
    assert!(out.status.success(), "{args:?}: {out:?}");
    let text = std::fs::read_to_string(trace).expect("trace written");
    text.lines()
        .map(|line| match parse(line).expect("a JSON event") {
            Json::Obj(pairs) => {
                Json::Obj(pairs.into_iter().filter(|(k, _)| k != "worker").collect())
            }
            other => panic!("not an event object: {other}"),
        })
        .collect()
}

#[test]
fn batch_trace_is_complete_and_independent_of_jobs() {
    let dir = std::env::temp_dir().join(format!("l2-batch-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let one = traced_batch(&[], &dir.join("a.jsonl"));
    let two = traced_batch(&["--jobs", "2"], &dir.join("b.jsonl"));
    std::fs::remove_dir_all(&dir).ok();

    let problem = |event: &Json| {
        event
            .get("problem")
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    let mut problems: Vec<String> = one
        .iter()
        .map(|e| problem(e).expect("problem tag"))
        .collect();
    problems.dedup();
    assert_eq!(
        problems,
        ["ident", "head"],
        "events grouped per problem, in input order"
    );
    assert_eq!(
        one.len(),
        two.len(),
        "same event count with and without --jobs"
    );
    for (i, (a, b)) in one.iter().zip(&two).enumerate() {
        assert_eq!(a.to_string(), b.to_string(), "event {i} differs");
    }
}
