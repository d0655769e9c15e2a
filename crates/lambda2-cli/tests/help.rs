//! `l2 --help` and `l2 -h` print the usage text to stdout and exit 0; a
//! command line naming no command prints it to stderr and exits 2. The
//! text is generated from the flag table, and a flag outside its
//! command's scope is a usage error.

use std::process::{Command, Output};

const L2: &str = env!("CARGO_BIN_EXE_l2");

fn l2(args: &[&str]) -> Output {
    Command::new(L2).args(args).output().expect("run l2")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["synth", "--help"]] {
        let out = l2(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }

    let bare = l2(&[]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(bare.stdout.is_empty());
    assert!(String::from_utf8_lossy(&bare.stderr).starts_with("usage:"));
}

/// Every flag row of the table in `src/main.rs` is listed by `l2 --help`,
/// and a command's help lists the flags it reads and no others.
#[test]
fn help_is_generated_from_the_flag_table() {
    let src = include_str!("../src/main.rs");
    let table = &src[src.find("const FLAGS: &[Flag]").expect("the flag table")..];
    let table = &table[..table.find("\n];").expect("end of the flag table")];
    let names: Vec<&str> = table
        .lines()
        .filter_map(|line| line.trim().strip_prefix("name: \""))
        .map(|rest| rest.trim_end_matches("\","))
        .collect();
    assert!(names.len() >= 20, "found only {names:?}");

    let help = String::from_utf8(l2(&["--help"]).stdout).expect("utf8 stdout");
    let listed = |text: &str, flag: &str| {
        text.lines()
            .any(|line| line.trim_start().split([' ', '[']).next() == Some(flag))
    };
    for name in &names {
        assert!(listed(&help, name), "`l2 --help` omits {name}:\n{help}");
    }

    let serve = String::from_utf8(l2(&["serve", "--help"]).stdout).expect("utf8 stdout");
    assert!(listed(&serve, "--warm-bytes"), "{serve}");
    assert!(!listed(&serve, "--trace"), "{serve}");
}

#[test]
fn flags_outside_their_command_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("l2-help-scope-{}", std::process::id()));
    let corpus = dir.join("c");
    let corpus = corpus.to_str().expect("utf8 path");
    let out_path = dir.join("x");
    let out_path = out_path.to_str().expect("utf8 path");
    for (args, needles) in [
        (
            &["eval", "--corpus", corpus, "(+ 1 2)"][..],
            &["--corpus", "`l2 eval`"][..],
        ),
        (
            &["list", "--warm-bytes", "5"],
            &["--warm-bytes", "`l2 list`"],
        ),
        (
            &["lint", "--no-static-prune", "p.l2"],
            &["--no-static-prune", "`l2 lint`"],
        ),
        (
            &["--progress", "bench", "ident", "head"],
            &["--progress", "`l2 bench`"],
        ),
        (
            &["serve", "report", "log", "--out", out_path],
            &["--out", "`l2 serve report`"],
        ),
        // A word that is no form of the command is named, then the
        // command's usage follows: exit 2.
        (
            &["profile", "report", "t.jsonl"],
            &["no sub-command `report`", "l2 profile summary"],
        ),
        (
            &["profile", "sumary", "x"],
            &["no sub-command `sumary`", "l2 profile summary"],
        ),
        (
            &["corpus", "frob", "x"],
            &["no sub-command `frob`", "l2 corpus regress"],
        ),
        // A known form given the wrong operand count says so.
        (
            &["profile", "diff", "a.jsonl"],
            &["`l2 profile diff <a.jsonl> <b.jsonl>` got 1 operand"],
        ),
        (
            &["serve", "report", "a.jsonl", "b.jsonl"],
            &["`l2 serve report <access.jsonl>` got 2 operand"],
        ),
        (
            &["serve", "report"],
            &["`l2 serve report <access.jsonl>` got 0 operand"],
        ),
    ] {
        let out = l2(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in needles {
            assert!(stderr.contains(needle), "{stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(
        !dir.exists(),
        "a rejected --corpus or --out must not create its path"
    );
}
