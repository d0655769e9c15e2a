//! `l2 --help` and `l2 -h` print the usage text to stdout and exit 0; a
//! command line naming no command prints it to stderr and exits 2.

use std::process::Command;

const L2: &str = env!("CARGO_BIN_EXE_l2");

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for args in [&["--help"][..], &["-h"], &["synth", "--help"]] {
        let out = Command::new(L2).args(args).output().expect("run l2");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }

    let bare = Command::new(L2).output().expect("run l2");
    assert_eq!(bare.status.code(), Some(2));
    assert!(bare.stdout.is_empty());
    assert!(String::from_utf8_lossy(&bare.stderr).starts_with("usage:"));
}
