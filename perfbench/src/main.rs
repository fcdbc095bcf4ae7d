//! `perfbench` — the repository benchmark.
//!
//! Runs one workload of the Widening Resources reproduction as a batch
//! job and prints every metric by name and unit, then one JSON result
//! line:
//!
//! ```text
//! perfbench --workload design_sweep --seed 1998 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` drives the same work with the span recorder installed and
//! reports per-layer metrics instead. See `perfbench/README.md` for the
//! workloads, the layer table and the correctness oracles.

mod oracle;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use widening_resources::ir::Loop;
use widening_resources::machine::{Configuration, CycleModel};
use widening_resources::pipeline::PointSpec;
use widening_resources::workload::corpus::{generate, CorpusSpec};
use widening_resources::EvalOptions;

/// The seed whose modelled statistics are pinned by committed digests.
pub(crate) const DEFAULT_SEED: u64 = 1998;

/// The timed phase repeats at least this often, whatever `--seconds`;
/// the first iteration warms caches and is not measured.
const MIN_ITERATIONS: usize = 4;

/// Share of the drawn loops `simulate_validate` keeps (see
/// [`Args::corpus`]).
const SIM_KEEP: f64 = 0.9;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    DesignSweep,
    SimulateValidate,
    WarmRestart,
    FleetSweep,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DesignSweep,
        Workload::SimulateValidate,
        Workload::WarmRestart,
        Workload::FleetSweep,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::DesignSweep => "design_sweep",
            Workload::SimulateValidate => "simulate_validate",
            Workload::WarmRestart => "warm_restart",
            Workload::FleetSweep => "fleet_sweep",
        }
    }

    /// Corpus size: the paper's 1180 loops for the two sweeps, smaller
    /// corpora where one pass costs more per loop.
    fn loops(self) -> usize {
        match self {
            Workload::DesignSweep | Workload::WarmRestart => 1180,
            Workload::SimulateValidate => 1000,
            Workload::FleetSweep => 300,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Worker threads: every available CPU.
    pub(crate) threads: usize,
}

impl Args {
    /// The workload's seeded corpus. `simulate_validate` draws
    /// [`SIM_KEEP`]⁻¹ times as many loops and keeps the cheapest to
    /// simulate (trip count × graph size): a few multi-thousand-trip
    /// loops would otherwise set most of a run's work, and how many a
    /// seed draws would swing the throughput from seed to seed.
    pub(crate) fn corpus(&self) -> Vec<Loop> {
        if self.workload != Workload::SimulateValidate {
            return generate(&CorpusSpec::small(self.workload.loops(), self.seed));
        }
        let n = self.workload.loops();
        let drawn = (n as f64 / SIM_KEEP).ceil() as usize;
        let mut loops = generate(&CorpusSpec::small(drawn, self.seed));
        let cost = |l: &Loop| l.trip_count() * l.ddg().num_nodes() as u64;
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| (cost(&loops[i]), i));
        let mut keep = vec![false; loops.len()];
        for &i in &order[..n] {
            keep[i] = true;
        }
        let mut kept = keep.into_iter();
        loops.retain(|_| kept.next().unwrap_or(false));
        loops
    }
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
workloads: design_sweep, simulate_validate, warm_restart, fleet_sweep";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("error: {problem}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args) {
        Ok(work) => work,
        Err(e) => {
            eprintln!("error: cannot create the benchmark's work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench: workload={} seed={} loops={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.workload.loops(),
        args.seconds,
        u8::from(args.trace),
        args.threads
    );
    let outcome = if args.trace {
        traced::run(&args, &work)
    } else {
        workloads::run(&args, &work)
    };
    drop(work);
    outcome.print();
    ExitCode::SUCCESS
}

/// A scratch directory under the current directory, removed on drop.
pub(crate) struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<Self> {
        let root = Path::new(".perfbench-work").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty cache directory (absolute, so worker threads and
    /// the store agree on it whatever their working directory).
    pub(crate) fn fresh_dir(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("store-{n}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work directory is writable");
        std::fs::canonicalize(&dir).expect("work directory resolves")
    }

    /// Removes `dir` (a store this run made) and lets the filesystem
    /// settle.
    pub(crate) fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        self.settle();
    }

    /// Flushes the work directory's filesystem, so the writeback of one
    /// phase's thousands of small files does not run into the timing of
    /// the next phase (or the next run).
    pub(crate) fn settle(&self) {
        extern "C" {
            fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
        }
        if let Ok(dir) = std::fs::File::open(".") {
            use std::os::fd::AsRawFd;
            // SAFETY: `syncfs` only reads the descriptor, which `dir`
            // keeps open for the duration of the call.
            unsafe {
                syncfs(dir.as_raw_fd());
            }
        }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave the shared parent only if other runs still use it.
        let _ = std::fs::remove_dir(".perfbench-work");
        self.settle();
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub(crate) name: &'static str,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
}

/// What a run prints: metrics plus the correctness tally.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Units attempted across the measured phase.
    pub(crate) attempted: u64,
    /// Units that failed a correctness check.
    pub(crate) failed: u64,
    /// Failed run-level checks (digests, exact counts, layer sums).
    pub(crate) problems: Vec<String>,
    pub(crate) metrics: Vec<Metric>,
}

impl Outcome {
    pub(crate) fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed run-level check.
    pub(crate) fn problem(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.problems.push(what);
    }

    fn print(&self) {
        let correct = self.failed == 0 && self.problems.is_empty();
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "error_share = {share} ratio ({} of {} units)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}

/// The `repro sweep` grid: `{1w1, 2w2, 4w2} × {64, 128}` registers.
pub(crate) fn sweep_grid() -> Vec<PointSpec> {
    [
        "1w1(64:1)",
        "2w2(64:1)",
        "4w2(64:1)",
        "1w1(128:1)",
        "2w2(128:1)",
        "4w2(128:1)",
    ]
    .iter()
    .map(|s| point(s))
    .collect()
}

/// The simulated configurations: `{1w1, 2w2, 4w2}(128:1)`.
pub(crate) fn sim_configs() -> Vec<Configuration> {
    ["1w1(128:1)", "2w2(128:1)", "4w2(128:1)"]
        .iter()
        .map(|s| s.parse().expect("static configuration"))
        .collect()
}

pub(crate) fn point(cfg: &str) -> PointSpec {
    PointSpec::scheduled(
        &cfg.parse().expect("static configuration"),
        MODEL,
        EvalOptions::default(),
    )
}

/// The cycle model every workload compiles under.
pub(crate) const MODEL: CycleModel = CycleModel::Cycles4;

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median of `values`, averaging the middle pair of an even count (0
/// for an empty slice).
pub(crate) fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values` (0 when empty).
pub(crate) fn percentile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Repeats `iteration` until `seconds` have passed, at least
/// [`MIN_ITERATIONS`] times. The closure gets the iteration index;
/// iteration 0 is the warm-up.
pub(crate) fn repeat_for(seconds: f64, mut iteration: impl FnMut(usize)) {
    let start = Instant::now();
    let mut done = 0;
    while done < MIN_ITERATIONS || secs(start) < seconds {
        iteration(done);
        done += 1;
    }
}

/// Returns freed heap memory to the system, then resets the
/// peak-resident-memory mark to the current resident size, so the next
/// [`peak_rss_mib`] reads the peak of what ran in between rather than
/// what earlier iterations left cached in the allocator. Where the
/// kernel refuses the reset, the mark stays the process lifetime's.
pub(crate) fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory of this process (VmHWM), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total bytes and file count under `dir`.
pub(crate) fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    (bytes, files)
}
