//! The `repro perf` subcommand family — the repo's perf ledger.
//!
//! Two verbs over the machine-readable perf report
//! ([`widening_obs::report`]):
//!
//! * `perf record` runs the standard sweep suite `--reps` times
//!   (fresh evaluator per repetition, so every sample is a cold
//!   compile), then the fleet and warm-start probes `--reps` times, all
//!   untraced, and writes one versioned `BENCH_<stamp>.json` capturing
//!   wall-time probes, per-stage latency percentiles and store
//!   counters.
//! * `perf compare BASE CAND` diffs two recorded reports probe by
//!   probe with the noise-aware min-of-N gate
//!   ([`widening_obs::compare`]) and exits nonzero on any regression —
//!   the CI perf gate.
//!
//! Everything here is presentation: the codec and the gate live in
//! `widening-obs`, where they are unit- and property-tested.

use std::process::ExitCode;
use std::time::Instant;

use widening_distrib::Launcher;
use widening_obs::metrics::MetricValue;
use widening_obs::report::{compare, PerfReport, Verdict, ABS_FLOOR_NS, MAX_RATIO};
use widening_pipeline::StoreConfig;
use widening_workload::corpus::{generate, CorpusSpec};

use crate::cli::{quick_loops, split_flag_values};
use crate::distributed::{sweep_distributed, DistributedOptions};
use crate::evaluate::Evaluator;
use crate::experiments::sweep_grid_specs;
use crate::report::Report;

/// Default loop count for the quick perf suite: big enough that the
/// sweep dominates process startup, small enough for a CI smoke job.
const DEFAULT_QUICK: usize = 48;

/// Corpus seed shared by every perf run, so baselines recorded
/// yesterday measure the same work as candidates recorded today.
const PERF_SEED: u64 = 1998;

/// Entry point for `repro perf …`; returns the process exit code. Flag
/// values may be spelled `--flag V` or `--flag=V`
/// ([`split_flag_values`]).
#[must_use]
pub fn perf_main(args: &[String]) -> ExitCode {
    let args = split_flag_values(args.iter().cloned());
    match args.first().map(String::as_str) {
        Some("record") => record_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => usage("perf needs a subcommand: record | compare"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!("usage: repro perf record [--quick[=N]] [--reps R] [--threads N] [--out FILE]");
    eprintln!("       repro perf compare BASELINE CANDIDATE");
    ExitCode::FAILURE
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds since the Unix epoch — the default `BENCH_<stamp>` suffix.
fn stamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Runs the standard suite once on a fresh evaluator, pushing one
/// sample per probe into `report`, and returns the repetition's final
/// metrics snapshot.
fn run_suite(
    report: &mut PerfReport,
    loops: usize,
    threads: Option<usize>,
) -> Vec<(String, MetricValue)> {
    let t = Instant::now();
    let corpus = generate(&CorpusSpec::small(loops, PERF_SEED));
    report.push_sample("corpus.generate.wall_ns", ns(t.elapsed()));

    let mut eval = Evaluator::new(corpus);
    if let Some(n) = threads {
        eval = eval.with_threads(n);
    }
    let specs = sweep_grid_specs();
    let t = Instant::now();
    let _ = eval.sweep_specs(&specs);
    report.push_sample("sweep.wall_ns", ns(t.elapsed()));

    let t = Instant::now();
    let _ = eval.baseline_256();
    report.push_sample("baseline256.wall_ns", ns(t.elapsed()));

    // Every execution backend over the paper's winning configuration:
    // the lowered bytecode, then the interpreter, then both checked
    // against each other. The first pair is the ledger's record of the
    // lowered backend's speedup. Every rep builds a fresh evaluator, so
    // every lowered sample includes lowering, and running it first
    // makes it pay for the cold scalar-reference memo the later passes
    // reuse: the pair can only understate the speedup, never overstate
    // it. The differential pass is what `--exec differential` costs.
    let sim_cfg: widening_machine::Configuration =
        "4w2(128:1)".parse().expect("static configuration");
    for backend in [
        widening_sim::Backend::Lowered,
        widening_sim::Backend::Interpret,
        widening_sim::Backend::Differential,
    ] {
        let t = Instant::now();
        let sim = crate::simulate::simulate_corpus(
            &eval,
            &sim_cfg,
            widening_machine::CycleModel::Cycles4,
            &crate::evaluate::EvalOptions::default(),
            None,
            backend,
        );
        report.push_sample(&format!("simulate.{backend}.wall_ns"), ns(t.elapsed()));
        assert!(sim.all_validated(), "perf suite simulation diverged");
    }

    // Per-stage compute totals as probes too: the gate then localises a
    // regression to the stage that slowed down, not just "the sweep".
    let snapshot = eval.pipeline().metrics().snapshot();
    for (name, value) in &snapshot {
        if let MetricValue::Histogram { sum, .. } = value {
            report.push_sample(&format!("{name}.sum"), *sum);
        }
    }
    snapshot
}

/// The fleet probe: the suite's grid as an in-process distributed sweep
/// by two workers over a fresh store, so every sample pays the cold
/// shared-store traffic a real fleet pays. Then the warm-start probe:
/// a fresh evaluator, its store's open included, runs the same grid
/// over the store the fleet left, from disk alone.
fn run_fleet(report: &mut PerfReport, loops: usize) {
    let dir = std::env::temp_dir().join(format!("repro-perf-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let corpus = generate(&CorpusSpec::small(loops, PERF_SEED));
    let grid = sweep_grid_specs();
    let eval = Evaluator::new(corpus.clone()).with_store(StoreConfig::persistent(&dir));
    let t = Instant::now();
    let swept = sweep_distributed(
        &eval,
        &grid,
        &DistributedOptions::new(2),
        &Launcher::InProcess,
    );
    report.push_sample("sweep.sharded2.wall_ns", ns(t.elapsed()));
    drop(eval);
    let t = Instant::now();
    let warm = Evaluator::new(corpus).with_store(StoreConfig::persistent(&dir));
    let _ = warm.sweep_specs(&grid);
    report.push_sample("sweep.warm.wall_ns", ns(t.elapsed()));
    let (live_runs, disk_errors) = (
        warm.pipeline().stage_counts().live_runs(),
        warm.pipeline().disk_errors(),
    );
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
    swept.expect("perf suite fleet sweep");
    assert_eq!(live_runs, 0, "perf suite warm start ran live stages");
    assert_eq!(disk_errors, 0, "perf suite warm start hit disk errors");
}

/// `repro perf record` — run the suite and write the perf report.
fn record_main(args: &[String]) -> ExitCode {
    let mut loops = DEFAULT_QUICK;
    let mut reps: usize = 2;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => loops = DEFAULT_QUICK,
            "--reps" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => reps = n,
                _ => return usage("perf record --reps needs a positive integer"),
            },
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => return usage("perf record --threads needs a positive integer"),
            },
            "--out" => match it.next() {
                Some(f) => out = Some(f.clone()),
                None => return usage("perf record --out needs a file"),
            },
            a => match quick_loops(a) {
                Some(Ok(n)) => loops = n,
                Some(Err(why)) => return usage(&format!("perf record {why}")),
                None => return usage(&format!("unknown perf record flag {a}")),
            },
        }
    }

    let mut report = PerfReport::new();
    let mut last_snapshot = Vec::new();
    for _ in 0..reps {
        last_snapshot = run_suite(&mut report, loops, threads);
    }
    for _ in 0..reps {
        run_fleet(&mut report, loops);
    }
    report.absorb_snapshot(&last_snapshot);

    let when = stamp();
    report.meta.insert("stamp-unix-s".into(), when.to_string());
    report
        .meta
        .insert("suite".into(), "sweep+baseline256".into());
    report.meta.insert("loops".into(), loops.to_string());
    report.meta.insert("seed".into(), PERF_SEED.to_string());
    report.meta.insert("reps".into(), reps.to_string());
    if let Some(n) = threads {
        report.meta.insert("threads".into(), n.to_string());
    }

    let path = out.unwrap_or_else(|| format!("BENCH_{when}.json"));
    if let Err(e) = report.write_file(std::path::Path::new(&path)) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "perf-record: wrote {path} probes={} stages={} counters={}",
        report.probes.len(),
        report.stages.len(),
        report.counters.len()
    );
    ExitCode::SUCCESS
}

/// `repro perf compare` — the regression gate over two reports.
fn compare_main(args: &[String]) -> ExitCode {
    let mut files: Vec<&String> = Vec::new();
    for arg in args {
        if arg.starts_with('-') {
            return usage(&format!("unknown perf compare flag {arg}"));
        }
        files.push(arg);
    }
    let [base_path, cand_path] = files[..] else {
        return usage("perf compare needs exactly BASELINE and CANDIDATE files");
    };
    // `read_file` names the path in its error.
    let read = |path: &String| match PerfReport::read_file(std::path::Path::new(path)) {
        Ok(r) => Some(r),
        Err(why) => {
            eprintln!("error: {why}");
            None
        }
    };
    let (Some(base), Some(cand)) = (read(base_path), read(cand_path)) else {
        return ExitCode::FAILURE;
    };

    let cmp = compare(&base, &cand);
    let us = |n: u64| format!("{:.1}", n as f64 / 1_000.0);
    let mut r = Report::new(format!("Perf compare — {base_path} → {cand_path}")).with_columns([
        "probe",
        "base min µs",
        "cand min µs",
        "ratio",
        "verdict",
    ]);
    for row in &cmp.rows {
        let ratio = if row.base_min_ns == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", row.cand_min_ns as f64 / row.base_min_ns as f64)
        };
        r.push_row([
            row.name.clone(),
            us(row.base_min_ns),
            us(row.cand_min_ns),
            ratio,
            match row.verdict {
                Verdict::Ok => "ok".into(),
                Verdict::Regressed => "REGRESSED".into(),
                Verdict::Improved => "improved".into(),
            },
        ]);
    }
    r.push_note(format!(
        "gate: candidate min > base min × {MAX_RATIO} + {} ms",
        ABS_FLOOR_NS / 1_000_000
    ));
    if !cmp.missing.is_empty() {
        r.push_note(format!(
            "missing from candidate: {}",
            cmp.missing.join(", ")
        ));
    }
    if !cmp.added.is_empty() {
        r.push_note(format!("new in candidate: {}", cmp.added.join(", ")));
    }
    println!("{r}");
    println!(
        "perf-compare: probes={} regressions={} improvements={} missing={} added={}",
        cmp.rows.len(),
        cmp.regressions(),
        cmp.improvements(),
        cmp.missing.len(),
        cmp.added.len()
    );
    if cmp.regressions() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
