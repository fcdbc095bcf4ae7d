//! The `repro` binary's argument and input errors: each exits 1 with
//! its error message before any corpus is built, never with a panic or
//! a table.

use std::process::{Command, Output};

/// Runs `repro` with `args`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("runs repro")
}

/// Runs `repro` with `args`; returns its exit code and its stderr.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = run(args);
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

#[test]
fn cache_budget_is_an_unknown_flag() {
    let out = run(&["--cache-budget", "32K", "--quick=10", "sweep"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: unknown flag --cache-budget"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("cache:"), "{stdout}");
}

#[test]
fn perf_compare_takes_no_threshold_flags() {
    for flag in ["--max-ratio", "--abs-floor-ms"] {
        let (code, stderr) = repro(&["perf", "compare", flag, "2", "a.json", "b.json"]);
        assert_eq!(code, Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown perf compare flag {flag}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    let dir = std::env::temp_dir().join(format!("repro-cli-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(100_000)).expect("writes the file");
    let path = deep.to_str().unwrap();
    let compared = repro(&["perf", "compare", path, path]);
    let summarized = repro(&["trace", "summarize", path]);
    let _ = std::fs::remove_dir_all(&dir);
    for (code, stderr) in [compared, summarized] {
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains("nesting deeper than 128 at byte 128"),
            "{stderr}"
        );
    }
}
