//! The `repro` binary's argument errors: each exits 1 with its usage
//! message before any corpus is built, never with a panic or a table.

use std::process::Command;

/// Runs `repro` with `args`; returns its exit code and its stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("runs repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_zero_loop_corpus_is_a_usage_error() {
    let (code, stderr) = repro(&["--quick=0", "fig9"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("error: --quick=N needs a positive integer"),
        "{stderr}"
    );
    let names = widening::experiments::ALL
        .iter()
        .chain(&["all", "--simulate"]);
    for name in names {
        let (code, stderr) = repro(&["--quick=0", "--csv", name]);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains("--quick=N needs a positive integer"),
            "{name}: {stderr}"
        );
    }
    let (code, stderr) = repro(&["perf", "record", "--quick=0"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("perf record --quick=N needs a positive integer"),
        "{stderr}"
    );
}

#[test]
fn perf_calibrate_is_not_a_subcommand() {
    let (code, stderr) = repro(&["perf", "calibrate", "--from", "BENCH.json"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("error: perf needs a subcommand: record | compare"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
