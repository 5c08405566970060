//! `repro` and `sweep` read their whole command line before they run
//! anything: a bad flag or command name exits non-zero without
//! printing a table or writing `results/` or a `--bench-json` file,
//! wherever it sits in the argument list.

use std::path::PathBuf;
use std::process::{Command, ExitStatus};

/// Runs the binary `bin` with `args` in a fresh scratch directory and
/// returns the exit status, stdout and the directory.
fn run_in_scratch(bin: &str, case: &str, args: &[&str]) -> (ExitStatus, String, PathBuf) {
    let dir = std::env::temp_dir().join(format!("aql_repro_cli_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
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
        ("bench-json", &["table6", "--bench-json", "b.json"]),
    ] {
        let (status, stdout, dir) = run_in_scratch(env!("CARGO_BIN_EXE_repro"), case, args);
        assert!(!status.success(), "{args:?} exited {status}");
        assert!(
            !stdout.lines().any(|l| l.starts_with("==")),
            "{args:?} printed a table:\n{stdout}"
        );
        assert!(!dir.join("results").exists(), "{args:?} wrote results/");
        assert!(!dir.join("b.json").exists(), "{args:?} wrote b.json");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sweep_bench_json_without_time_mode_both_is_an_error() {
    let args = [
        "--quick",
        "--scenarios",
        "vtrs-live",
        "--bench-json",
        "b.json",
    ];
    let (status, stdout, dir) =
        run_in_scratch(env!("CARGO_BIN_EXE_sweep"), "sweep_bench_json", &args);
    assert_eq!(status.code(), Some(1), "{args:?} exited {status}");
    assert!(
        !stdout.lines().any(|l| l.starts_with("==")),
        "{args:?} printed a table:\n{stdout}"
    );
    assert!(!dir.join("results").exists(), "{args:?} wrote results/");
    assert!(!dir.join("b.json").exists(), "{args:?} wrote b.json");
    let _ = std::fs::remove_dir_all(&dir);
}
