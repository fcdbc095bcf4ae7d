//! The `repro` binary's argument and input errors: each exits 1 with
//! its error message before any corpus is built, never with a panic or
//! a table.

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

#[test]
fn perf_compare_rejects_a_report_that_repeats_a_probe() {
    // A 1 ms baseline against a candidate whose second `sweep.wall_ns`
    // probe holds 900 s: matching only the first would pass the gate.
    let dir = std::env::temp_dir().join(format!("repro-cli-dup-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = |probes: &str| {
        format!(r#"{{"format": "widening-perf-report", "version": 1, "probes": [{probes}]}}"#)
    };
    let base = dir.join("base.json");
    let cand = dir.join("cand.json");
    std::fs::write(
        &base,
        report(r#"{"name": "sweep.wall_ns", "samples_ns": [1000000]}"#),
    )
    .expect("writes the baseline");
    std::fs::write(
        &cand,
        report(
            r#"{"name": "sweep.wall_ns", "samples_ns": [1000000]},
               {"name": "sweep.wall_ns", "samples_ns": [900000000000]}"#,
        ),
    )
    .expect("writes the candidate");
    let (code, stderr) = repro(&[
        "perf",
        "compare",
        base.to_str().unwrap(),
        cand.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("probes[1]: repeated probe name \"sweep.wall_ns\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
