//! `repro` reads its whole command line before it runs anything: a bad
//! flag or command name exits non-zero without printing a table or
//! writing `results/`, wherever it sits in the argument list.

use std::path::PathBuf;
use std::process::Command;

/// Runs `repro` with `args` in a fresh scratch directory and returns
/// the exit status, stdout and the directory.
fn repro_in_scratch(case: &str, args: &[&str]) -> (std::process::ExitStatus, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("aql_repro_cli_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        dir,
    )
}

#[test]
fn a_bad_argument_stops_repro_before_any_artifact_runs() {
    for (case, args) in [
        ("command", &["table6", "bogus"][..]),
        ("flag", &["--quick", "fig7", "--treads", "2"]),
        ("all", &["--quick", "all", "--bogus"]),
    ] {
        let (status, stdout, dir) = repro_in_scratch(case, args);
        assert!(!status.success(), "{args:?} exited {status}");
        assert!(
            !stdout.lines().any(|l| l.starts_with("==")),
            "{args:?} printed a table:\n{stdout}"
        );
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
