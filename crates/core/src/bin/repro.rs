//! `repro` — regenerate any table or figure of *Widening Resources*
//! (MICRO 1998).
//!
//! ```text
//! repro [--quick[=N]] [--csv] [--seed S] [--threads N] [--simulate]
//!       [--exec interpret|lowered|differential] [--cache-dir DIR]
//!       [--shards N] [--chaos-exit-units N] [--trace FILE]
//!       <experiment>... | all | list
//! repro worker --queue DIR --cache-dir DIR [--threads N]
//!       [--lease-ttl-ms MS] [--no-requeue] [--die-after-units N]
//!       [--trace-file FILE]
//! repro trace summarize FILE
//! repro perf record [--quick[=N]] [--reps R] [--out FILE]
//! repro perf compare BASELINE CANDIDATE
//! repro cache stat --cache-dir DIR
//! repro cache gc --keep-generations N --cache-dir DIR
//! ```
//!
//! Every flag that takes a value also accepts it as `--flag=V`; only
//! `--quick` takes its value in that form alone.
//!
//! * `--quick[=N]` — run on an `N`-loop corpus (`N ≥ 1`, default 120)
//!   instead of the paper-scale 1180 loops; useful for smoke tests.
//! * `--csv` — emit CSV instead of aligned tables.
//! * `--seed S` — alternative corpus seed (sensitivity checks).
//! * `--threads N` — worker threads for corpus fan-out (default: one
//!   per core, capped at 16).
//! * `--simulate` — run the cycle-accurate simulator over the corpus
//!   (differential validation + transient analysis) in addition to any
//!   named experiments. With `--cache-dir`, validated per-loop
//!   summaries persist too, so a second `--simulate` run warm-starts
//!   from the disk tier. Any run that simulates live prints a
//!   `sim-reference: requests=R runs=N` line: `R` runs were checked
//!   against the scalar reference, which executed `N` times, once per
//!   distinct `(loop, trip)`.
//! * `--exec MODE` — execution backend for the simulation experiments:
//!   `interpret` (the cycle-level interpreter, default), `lowered`
//!   (flat `WideProgram` bytecode, lowered once per design point
//!   through the pipeline's memoized — and disk-persisted — lower
//!   stage), or `differential` (run **both** and fail on the first
//!   bitwise difference; the interpreter is the oracle).
//! * `--cache-dir DIR` — persist stage artifacts in a content-addressed
//!   on-disk store under `DIR`; a second run over the same corpus
//!   decodes every stage instead of recompiling it. Prints a final
//!   `cache:` summary line with the stage counters, and stamps a new
//!   store *generation* (see `repro cache`).
//! * `--shards N` — run the `sweep` experiment through the distributed
//!   engine: the coordinator cuts the `(loop × config)` grid into
//!   guided self-scheduled shards of loop columns (each ⌈R/p⌉ of the R
//!   columns left, p = `N`) and auto-spawns `N` local worker processes
//!   (`repro worker …`) over the shared `--cache-dir`. Merged
//!   aggregates are bitwise-equal to the in-process sweep; a killed
//!   worker's shard is requeued when its lease counter stalls.
//! * `--chaos-exit-units N` — fault injection for smoke tests: the
//!   first spawned worker abandons everything after `N` units (silent
//!   lease, no completion marker), exercising the requeue path.
//! * `repro worker` — standalone worker mode: claim shards from
//!   `--queue` in order, publish one batch result record per shard into
//!   `--cache-dir`, exit when the queue completes. Point several of
//!   these (on one machine or on hosts sharing a filesystem) at one
//!   queue to scale a sweep out.
//! * `--trace FILE` — record spans (stage executions, sweep units,
//!   queue waits; with `--shards` also worker lifecycle, heartbeats
//!   and fleet events) and write one
//!   merged Chrome trace-event JSON timeline to `FILE` on exit — open
//!   it at <https://ui.perfetto.dev>. Distributed workers each write a
//!   binary trace next to their results; the coordinator merges them
//!   into the same file, one process track per worker.
//! * `repro trace summarize` — read a `--trace` JSON back and print
//!   per-stage latency percentiles (p50/p90/p99 from log₂-bucketed
//!   histograms), instant-event counts, per-shard busy time, and
//!   per-track span counts; dropped-event counts are surfaced loudly.
//! * `repro perf` — the perf ledger: `record` writes a versioned
//!   machine-readable `BENCH_<stamp>.json` (untraced wall-time probes,
//!   per-stage percentiles, store counters), and `compare` gates a
//!   candidate report against a baseline with noise-aware min-of-N
//!   thresholds (nonzero exit on regression).
//! * `repro cache stat` — per-kind artifact/byte usage (stages from
//!   segment record headers, exchange kinds from files, older format
//!   versions' trees as one `stale-trees` row) and the generation
//!   history of a cache directory.
//! * `repro cache gc` — remove older format versions' trees, and prune
//!   segments and exchange files untouched for the last
//!   `--keep-generations N` runs.

use std::process::ExitCode;

use widening::cli::{quick_loops, split_flag_values};
use widening::experiments::{self, Context};
use widening::Evaluator;
use widening_obs as obs;
use widening_pipeline::{maint, StoreConfig};
use widening_workload::corpus::{generate, CorpusSpec};

fn main() -> ExitCode {
    let argv = split_flag_values(std::env::args().skip(1));
    match argv.first().map(String::as_str) {
        Some("worker") => return worker_main(&argv[1..]),
        Some("cache") => return cache_main(&argv[1..]),
        Some("trace") => return trace_main(&argv[1..]),
        Some("perf") => return widening::perf::perf_main(&argv[1..]),
        _ => {}
    }

    let mut quick: Option<usize> = None;
    let mut csv = false;
    let mut seed: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut cache_dir: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut chaos_exit_units: Option<u64> = None;
    let mut trace: Option<String> = None;
    let mut exec: Option<widening::sim::Backend> = None;
    let mut names: Vec<String> = Vec::new();

    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--csv" => csv = true,
            "--simulate" => {
                names.push("simulate".to_string());
                names.push("transients".to_string());
            }
            "--quick" => quick = Some(120),
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage("--seed needs an integer"),
            },
            "--threads" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => return usage("--threads needs a positive integer"),
            },
            "--cache-dir" => match args.next() {
                Some(dir) if !dir.is_empty() && !dir.starts_with('-') => cache_dir = Some(dir),
                _ => return usage("--cache-dir needs a path"),
            },
            "--shards" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => shards = Some(n),
                _ => return usage("--shards needs a positive worker count"),
            },
            "--chaos-exit-units" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => chaos_exit_units = Some(n),
                _ => return usage("--chaos-exit-units needs a positive unit count"),
            },
            "--trace" => match args.next() {
                Some(f) if !f.is_empty() && !f.starts_with('-') => trace = Some(f),
                _ => return usage("--trace needs an output file"),
            },
            "--exec" => match args.next().map(|s| s.parse()) {
                Some(Ok(b)) => exec = Some(b),
                Some(Err(why)) => return usage(&why),
                None => return usage("--exec needs a backend: interpret | lowered | differential"),
            },
            "list" => {
                for n in experiments::ALL {
                    println!("{n}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => names.extend(experiments::ALL.iter().map(ToString::to_string)),
            a => match quick_loops(a) {
                Some(Ok(n)) => quick = Some(n),
                Some(Err(why)) => return usage(why),
                None if a.starts_with('-') => return usage(&format!("unknown flag {a}")),
                None => names.push(a.to_string()),
            },
        }
    }
    if names.is_empty() {
        return usage("no experiment given");
    }
    if shards.is_some() && cache_dir.is_none() {
        return usage("--shards needs --cache-dir (the workers' shared artifact exchange)");
    }
    if shards.is_some() && names.iter().any(|n| n != "sweep") {
        // Refuse rather than silently running the rest single-process.
        return usage("--shards only applies to the `sweep` experiment; drop the flag or the other experiment names");
    }
    if chaos_exit_units.is_some() && shards.is_none() {
        return usage("--chaos-exit-units only applies with --shards N");
    }
    // `--simulate all` would otherwise queue simulate/transients twice.
    let mut seen = std::collections::HashSet::new();
    names.retain(|n| seen.insert(n.clone()));

    let caching = cache_dir.is_some();
    if let Some(dir) = &cache_dir {
        // One generation stamp per cache-consuming run (workers a
        // distributed sweep spawns belong to this run, not their own).
        let _ = maint::record_run(std::path::Path::new(dir));
    }
    // `--trace` installs the process-global span recorder up front so
    // corpus build, experiments and the merge all land on the timeline.
    let recorder = trace.as_ref().map(|_| {
        let r = obs::Recorder::new("repro");
        obs::install(&r);
        obs::set_thread_label("main");
        r
    });
    // Spawned workers of a traced distributed sweep drop binary traces
    // in a per-run directory under the shared cache; merged (and the
    // directory removed) after the run.
    let worker_trace_dir = match (&trace, &cache_dir, shards) {
        (Some(_), Some(dir), Some(_)) => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap_or_default()
                .as_nanos();
            Some(
                std::path::Path::new(dir)
                    .join("traces")
                    .join(format!("run-{}-{nanos:x}", std::process::id())),
            )
        }
        _ => None,
    };
    let ctx = build_context(quick, seed, threads, cache_dir).with_backend(exec.unwrap_or_default());
    eprintln!(
        "corpus: {} loops (seed {}), {} worker threads, {} exec backend",
        ctx.eval.loops().len(),
        seed.unwrap_or_else(|| CorpusSpec::default().seed),
        ctx.eval.threads(),
        ctx.backend,
    );
    // Stage work done outside this process (distributed sweep workers),
    // folded into the final `cache:` summary.
    let mut fleet_counts = widening_pipeline::StageCounts::zero();
    for name in &names {
        let reports = match (name.as_str(), shards) {
            ("sweep", Some(workers)) => {
                match experiments::sweep_distributed_reports(
                    &ctx,
                    workers,
                    chaos_exit_units,
                    worker_trace_dir.clone(),
                ) {
                    Ok((reports, worker_counts)) => {
                        fleet_counts = fleet_counts.plus(&worker_counts);
                        Some(reports)
                    }
                    Err(why) => {
                        eprintln!("error: distributed sweep failed: {why}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            _ => experiments::run(name, &ctx),
        };
        match reports {
            Some(reports) => {
                for r in reports {
                    if csv {
                        print!("{}", r.to_csv());
                    } else {
                        println!("{r}");
                    }
                }
            }
            None => return usage(&format!("unknown experiment {name:?}")),
        }
    }
    // Machine-greppable scalar-reference memo summary (the simulation CI
    // smoke asserts runs < requests: one reference per (loop, trip)
    // served every configuration).
    let references = ctx.eval.references();
    if references.requests() > 0 {
        println!(
            "sim-reference: requests={} runs={}",
            references.requests(),
            references.runs()
        );
    }
    if caching {
        // Machine-greppable store summary (the warm-cache CI jobs assert
        // `live-runs=0` on the second run over a shared --cache-dir).
        // Distributed runs fold the worker fleet's counters in.
        let c = ctx.eval.pipeline().stage_counts().plus(&fleet_counts);
        println!(
            "cache: live-runs={} disk-hits={} memo-hits={} disk-errors={}",
            c.live_runs(),
            c.disk_hits(),
            c.hits() - c.disk_hits(),
            ctx.eval.pipeline().disk_errors(),
        );
    }
    if let (Some(path), Some(rec)) = (&trace, &recorder) {
        obs::uninstall();
        let mut traces = vec![rec.snapshot()];
        if let Some(dir) = &worker_trace_dir {
            traces.extend(obs::read_trace_dir(dir));
            let _ = std::fs::remove_dir_all(dir);
        }
        let path = std::path::Path::new(path);
        if let Err(e) = obs::write_chrome_trace_file(path, &traces) {
            eprintln!("error: cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "trace: wrote {} ({} process track(s))",
            path.display(),
            traces.len()
        );
    }
    ExitCode::SUCCESS
}

/// `repro worker` — standalone distributed-sweep worker.
fn worker_main(args: &[String]) -> ExitCode {
    let mut queue: Option<String> = None;
    let mut cache: Option<String> = None;
    let mut threads: usize = 1;
    let mut lease_ttl_ms: u64 = 30_000;
    let mut requeue_foreign = true;
    let mut die_after_units: Option<u64> = None;
    let mut trace_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--queue" => queue = it.next().cloned(),
            "--cache-dir" => cache = it.next().cloned(),
            "--threads" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => return usage("worker --threads needs a positive integer"),
            },
            "--lease-ttl-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(ms) => lease_ttl_ms = ms,
                None => return usage("worker --lease-ttl-ms needs milliseconds"),
            },
            // Coordinator-spawned workers leave lease supervision to the
            // coordinator so its requeue counter stays exact; standalone
            // fleets keep the default self-healing behaviour.
            "--no-requeue" => requeue_foreign = false,
            // Fault injection: die (silent lease, no completion marker)
            // after N units.
            "--die-after-units" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => die_after_units = Some(n),
                None => return usage("worker --die-after-units needs a unit count"),
            },
            // Span recording for the coordinator's merged fleet
            // timeline: the binary trace is written here on exit.
            "--trace-file" => trace_file = it.next().cloned(),
            a => return usage(&format!("unknown worker flag {a}")),
        }
    }
    let (Some(queue), Some(cache)) = (queue, cache) else {
        return usage("worker needs --queue DIR and --cache-dir DIR");
    };
    let mut cfg = widening::distrib::WorkerConfig::new(queue, cache);
    cfg.threads = threads;
    cfg.lease_ttl = std::time::Duration::from_millis(lease_ttl_ms.max(1));
    cfg.requeue_foreign = requeue_foreign;
    cfg.die_after_units = die_after_units;
    let recorder = trace_file.as_ref().map(|_| {
        let r = obs::Recorder::new(&format!("repro-worker-{}", std::process::id()));
        obs::install(&r);
        r
    });
    let result = widening::distrib::run_worker(&cfg);
    if let (Some(path), Some(rec)) = (&trace_file, &recorder) {
        obs::uninstall();
        if let Err(e) = obs::write_trace_file(std::path::Path::new(path), &rec.snapshot()) {
            eprintln!("warning: cannot write worker trace {path}: {e}");
        }
    }
    match result {
        Ok(summary) => {
            eprintln!(
                "worker: {} shard(s), {} unit(s), {} result hit(s), {} live stage run(s)",
                summary.shards_completed,
                summary.units,
                summary.result_hits,
                summary.counts.live_runs(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: worker failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro trace summarize FILE` — latency tables from a merged Chrome
/// trace written by `--trace`: per-stage percentiles (log₂-bucket upper
/// bounds, so an at-most-2× overestimate), per-shard busy time, and
/// per-track span counts.
fn trace_main(args: &[String]) -> ExitCode {
    let (Some("summarize"), Some(path), None) =
        (args.first().map(String::as_str), args.get(1), args.get(2))
    else {
        return usage("trace needs a subcommand: summarize FILE");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match obs::json::parse(&text).and_then(|v| obs::analyze::parse_chrome(&v)) {
        Ok(doc) => doc,
        Err(why) => {
            eprintln!("error: {path} is not a valid merged trace: {why}");
            return ExitCode::FAILURE;
        }
    };
    // Ring overflow means every table below undercounts: say so first,
    // loudly, on stderr, so a truncated trace is never read as a quiet
    // one.
    let dropped = doc.total_dropped();
    if dropped > 0 {
        eprintln!(
            "warning: {dropped} span event(s) were DROPPED at record time (per-thread ring \
             overflow); every count and percentile below under-reports"
        );
        for (pid, n) in &doc.dropped_events {
            if *n > 0 {
                let name = doc.processes.get(pid).map_or("?", String::as_str);
                eprintln!("warning:   {name}: {n} dropped event(s)");
            }
        }
    }
    let us = |v: f64| format!("{v:.1}");
    let mut stages = widening::report::Report::new(format!("Trace — per-stage latency ({path})"))
        .with_columns([
            "span",
            "count",
            "p50 µs",
            "p90 µs",
            "p99 µs",
            "max µs",
            "total µs",
        ]);
    for s in obs::analyze::per_stage_stats(&doc.spans) {
        stages.push_row([
            s.name.clone(),
            s.count.to_string(),
            us(s.p50_us),
            us(s.p90_us),
            us(s.p99_us),
            us(s.max_us),
            us(s.total_us),
        ]);
    }
    stages.push_note(format!(
        "{} span(s), {} instant event(s), {} DROPPED event(s); percentiles are log₂-bucket \
         upper bounds",
        doc.spans.len(),
        doc.instants,
        dropped
    ));
    println!("{stages}");

    if !doc.instants_by_name.is_empty() {
        let mut r = widening::report::Report::new("Trace — instant events")
            .with_columns(["instant", "count"]);
        for (name, count) in &doc.instants_by_name {
            r.push_row([name.clone(), count.to_string()]);
        }
        r.push_note("fleet lifecycle: heartbeats, lease expiries, respawns");
        println!("{r}");
    }

    let shards = obs::analyze::per_shard_stats(&doc.spans);
    if !shards.is_empty() {
        let mut r = widening::report::Report::new("Trace — per-shard busy time")
            .with_columns(["shard", "runs", "units", "busy µs"]);
        for s in &shards {
            r.push_row([
                s.shard.to_string(),
                s.runs.to_string(),
                s.units.to_string(),
                us(s.busy_us),
            ]);
        }
        println!("{r}");
    }

    let mut tracks = widening::report::Report::new("Trace — per-track spans")
        .with_columns(["process", "track", "spans", "busy µs"]);
    for t in obs::analyze::per_track_stats(&doc) {
        tracks.push_row([t.process, t.track, t.spans.to_string(), us(t.busy_us)]);
    }
    println!("{tracks}");
    ExitCode::SUCCESS
}

/// `repro cache stat|gc` — store lifecycle over a cache directory.
fn cache_main(args: &[String]) -> ExitCode {
    let sub = args.first().map(String::as_str);
    let mut cache: Option<String> = None;
    let mut keep: Option<u64> = None;
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cache-dir" => cache = it.next().cloned(),
            "--keep-generations" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => keep = Some(n),
                _ => return usage("cache gc --keep-generations needs a positive integer"),
            },
            a => return usage(&format!("unknown cache flag {a}")),
        }
    }
    let Some(cache) = cache else {
        return usage("cache commands need --cache-dir DIR");
    };
    let root = std::path::Path::new(&cache);
    match sub {
        Some("stat") => {
            let Some(stat) = maint::stat(root) else {
                eprintln!("error: no store under {cache}");
                return ExitCode::FAILURE;
            };
            let mut r = widening::report::Report::new(format!("Cache store — {cache}"))
                .with_columns(["kind", "artifacts", "bytes"]);
            for k in &stat.kinds {
                r.push_row([k.kind.clone(), k.files.to_string(), k.bytes.to_string()]);
            }
            r.push_note(format!(
                "generation {} ({} run(s) recorded) · total {} artifact(s), {} byte(s)",
                stat.generation,
                stat.runs_recorded,
                stat.total_files(),
                stat.total_bytes()
            ));
            println!("{r}");
            ExitCode::SUCCESS
        }
        Some("gc") => {
            let Some(keep) = keep else {
                return usage("cache gc needs --keep-generations N");
            };
            let Some(outcome) = maint::gc(root, keep) else {
                eprintln!("error: no store under {cache}");
                return ExitCode::FAILURE;
            };
            println!(
                "cache-gc: examined={} pruned={} pruned-bytes={} cutoff-generation={} \
                 stale-trees={} stale-bytes={}",
                outcome.examined,
                outcome.pruned,
                outcome.pruned_bytes,
                outcome.cutoff_generation,
                outcome.stale_trees,
                outcome.stale_bytes
            );
            ExitCode::SUCCESS
        }
        _ => usage("cache needs a subcommand: stat | gc"),
    }
}

fn build_context(
    quick: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    cache_dir: Option<String>,
) -> Context {
    let mut spec = CorpusSpec::default();
    if let Some(n) = quick {
        spec.loops = n;
    }
    if let Some(s) = seed {
        spec.seed = s;
    }
    let mut eval = Evaluator::new(generate(&spec));
    if let Some(n) = threads {
        eval = eval.with_threads(n);
    }
    if let Some(dir) = cache_dir {
        eval = eval.with_store(StoreConfig::persistent(dir));
    }
    Context::over(eval)
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: repro [--quick[=N]] [--csv] [--seed S] [--threads N] [--simulate] \
         [--exec interpret|lowered|differential] [--cache-dir DIR] \
         [--shards N] [--chaos-exit-units N] [--trace FILE] <experiment>... | all | list"
    );
    eprintln!(
        "       repro worker --queue DIR --cache-dir DIR [--threads N] [--lease-ttl-ms MS] \
         [--no-requeue] [--die-after-units N] [--trace-file FILE]"
    );
    eprintln!("       repro trace summarize FILE");
    eprintln!("       repro perf record [--quick[=N]] [--reps R] [--threads N] [--out FILE]");
    eprintln!("       repro perf compare BASELINE CANDIDATE");
    eprintln!("       repro cache stat --cache-dir DIR");
    eprintln!("       repro cache gc --keep-generations N --cache-dir DIR");
    eprintln!("experiments: {}", experiments::ALL.join(" "));
    ExitCode::FAILURE
}
