//! The **perf ledger**: a versioned, self-describing machine-readable
//! performance report (`BENCH_<stamp>.json`) plus the noise-aware
//! comparison that gates regressions in CI.
//!
//! Like the binary trace path ([`crate::trace`]), the format is
//! hand-rolled — written and parsed with the tiny [`crate::json`]
//! module, no serde. A report captures three kinds of evidence from one
//! benchmarked run:
//!
//! * **probes** — named wall-time measurements with *all* repetition
//!   samples kept (the comparison takes min-of-N, so noise from a busy
//!   machine inflates samples but rarely deflates the minimum);
//! * **stages** — per-stage latency percentiles straight from the
//!   [`crate::metrics::MetricsRegistry`] histograms;
//! * **counters** — cache/store counters and gauges from the same
//!   registry.
//!
//! A reader ignores keys it does not know, so reports written with
//! blocks this version no longer carries (`fleet`, the per-unit
//! `units` samples) still parse.
//!
//! [`compare`] diffs two reports probe-by-probe with a relative
//! threshold *and* an absolute floor, so microsecond-scale jitter on
//! fast probes never trips the gate while a genuine 2× regression on a
//! slow probe always does.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::MetricValue;

/// The format tag every report leads with — readers reject anything
/// else before looking at the version.
pub const REPORT_FORMAT: &str = "widening-perf-report";

/// Current report schema version.
pub const REPORT_VERSION: u64 = 1;

/// One named wall-time probe with every repetition's sample, in
/// nanoseconds. The comparison consumes `min(samples_ns)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Probe {
    /// Probe name, e.g. `sweep.wall_ns` or `stage.schedule.sum_ns`.
    pub name: String,
    /// One sample per repetition, nanoseconds.
    pub samples_ns: Vec<u64>,
}

impl Probe {
    /// The best (minimum) sample, `None` when the probe is empty.
    #[must_use]
    pub fn min_ns(&self) -> Option<u64> {
        self.samples_ns.iter().copied().min()
    }
}

/// Per-stage latency summary lifted from a registry histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageLatency {
    /// Metric name, e.g. `store.schedule.latency-ns`.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Median (bucket upper bound), `None` when empty.
    pub p50_ns: Option<u64>,
    /// 90th percentile.
    pub p90_ns: Option<u64>,
    /// 99th percentile.
    pub p99_ns: Option<u64>,
}

/// A complete perf report: the unit of the repo's bench trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfReport {
    /// Free-form provenance (host, threads, quick level, stamp…).
    pub meta: BTreeMap<String, String>,
    /// Gated wall-time probes (min-of-N comparison).
    pub probes: Vec<Probe>,
    /// Informational per-stage latency percentiles.
    pub stages: Vec<StageLatency>,
    /// Informational cache/store counters and gauges.
    pub counters: BTreeMap<String, u64>,
}

impl PerfReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Probe lookup by name.
    #[must_use]
    pub fn probe(&self, name: &str) -> Option<&Probe> {
        self.probes.iter().find(|p| p.name == name)
    }

    /// Appends one sample to the named probe, creating it on first use.
    pub fn push_sample(&mut self, name: &str, wall_ns: u64) {
        match self.probes.iter_mut().find(|p| p.name == name) {
            Some(p) => p.samples_ns.push(wall_ns),
            None => self.probes.push(Probe {
                name: name.to_string(),
                samples_ns: vec![wall_ns],
            }),
        }
    }

    /// Fills `stages` and `counters` from a metrics-registry snapshot:
    /// histograms become [`StageLatency`] rows, counters and gauges
    /// land in the counter map. Replaces any previous content.
    pub fn absorb_snapshot(&mut self, snapshot: &[(String, MetricValue)]) {
        self.stages.clear();
        self.counters.clear();
        for (name, value) in snapshot {
            match *value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                    self.counters.insert(name.clone(), v);
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    p50,
                    p90,
                    p99,
                } => self.stages.push(StageLatency {
                    name: name.clone(),
                    count,
                    sum_ns: sum,
                    p50_ns: p50,
                    p90_ns: p90,
                    p99_ns: p99,
                }),
            }
        }
    }

    /// Serialises the report to its versioned JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("format".into(), Value::String(REPORT_FORMAT.into()));
        root.insert("version".into(), num(REPORT_VERSION));
        root.insert(
            "meta".into(),
            Value::Object(
                self.meta
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::String(v.clone())))
                    .collect(),
            ),
        );
        root.insert(
            "probes".into(),
            Value::Array(
                self.probes
                    .iter()
                    .map(|p| {
                        let mut o = BTreeMap::new();
                        o.insert("name".into(), Value::String(p.name.clone()));
                        o.insert(
                            "samples_ns".into(),
                            Value::Array(p.samples_ns.iter().map(|&s| num(s)).collect()),
                        );
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "stages".into(),
            Value::Array(
                self.stages
                    .iter()
                    .map(|s| {
                        let mut o = BTreeMap::new();
                        o.insert("name".into(), Value::String(s.name.clone()));
                        o.insert("count".into(), num(s.count));
                        o.insert("sum_ns".into(), num(s.sum_ns));
                        o.insert("p50_ns".into(), opt_num(s.p50_ns));
                        o.insert("p90_ns".into(), opt_num(s.p90_ns));
                        o.insert("p99_ns".into(), opt_num(s.p99_ns));
                        Value::Object(o)
                    })
                    .collect(),
            ),
        );
        root.insert(
            "counters".into(),
            Value::Object(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), num(v)))
                    .collect(),
            ),
        );
        Value::Object(root).to_json()
    }

    /// Parses a report from JSON text. Structural corruption, a
    /// foreign format tag, an unknown version or a repeated probe name
    /// (which [`compare`] could match only once) are errors — never
    /// panics.
    ///
    /// # Errors
    ///
    /// A human-readable message describing the first problem found.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let obj = root
            .as_object()
            .ok_or("perf report: root is not an object")?;
        match obj.get("format").and_then(Value::as_str) {
            Some(REPORT_FORMAT) => {}
            Some(other) => return Err(format!("perf report: foreign format tag {other:?}")),
            None => return Err("perf report: missing format tag".into()),
        }
        match obj.get("version").and_then(|v| get_u64(Some(v))) {
            Some(REPORT_VERSION) => {}
            Some(v) => return Err(format!("perf report: unsupported version {v}")),
            None => return Err("perf report: missing version".into()),
        }

        let mut report = PerfReport::new();
        if let Some(meta) = obj.get("meta").and_then(Value::as_object) {
            for (k, v) in meta {
                let s = v
                    .as_str()
                    .ok_or_else(|| format!("meta.{k}: not a string"))?;
                report.meta.insert(k.clone(), s.to_string());
            }
        }
        for (i, p) in obj
            .get("probes")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let name = p
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("probes[{i}]: missing name"))?;
            if report.probe(name).is_some() {
                return Err(format!("probes[{i}]: repeated probe name {name:?}"));
            }
            let samples = p
                .get("samples_ns")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("probes[{i}]: missing samples_ns"))?;
            let samples_ns = samples
                .iter()
                .map(|s| get_u64(Some(s)).ok_or_else(|| format!("probes[{i}]: bad sample")))
                .collect::<Result<Vec<u64>, String>>()?;
            report.probes.push(Probe {
                name: name.to_string(),
                samples_ns,
            });
        }
        for (i, s) in obj
            .get("stages")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            report.stages.push(StageLatency {
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("stages[{i}]: missing name"))?
                    .to_string(),
                count: get_u64(s.get("count")).ok_or_else(|| format!("stages[{i}]: bad count"))?,
                sum_ns: get_u64(s.get("sum_ns"))
                    .ok_or_else(|| format!("stages[{i}]: bad sum_ns"))?,
                p50_ns: get_opt_u64(s.get("p50_ns"))
                    .map_err(|e| format!("stages[{i}].p50_ns: {e}"))?,
                p90_ns: get_opt_u64(s.get("p90_ns"))
                    .map_err(|e| format!("stages[{i}].p90_ns: {e}"))?,
                p99_ns: get_opt_u64(s.get("p99_ns"))
                    .map_err(|e| format!("stages[{i}].p99_ns: {e}"))?,
            });
        }
        if let Some(counters) = obj.get("counters").and_then(Value::as_object) {
            for (k, v) in counters {
                let n = get_u64(Some(v)).ok_or_else(|| format!("counters.{k}: bad value"))?;
                report.counters.insert(k.clone(), n);
            }
        }
        Ok(report)
    }

    /// Writes the report to `path` as JSON.
    ///
    /// # Errors
    ///
    /// The underlying I/O error.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a report file.
    ///
    /// # Errors
    ///
    /// A human-readable message on I/O failure or a malformed report.
    pub fn read_file(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn num(n: u64) -> Value {
    #[allow(clippy::cast_precision_loss)]
    Value::Number(n as f64)
}

fn opt_num(n: Option<u64>) -> Value {
    n.map_or(Value::Null, num)
}

/// An exact non-negative integer from a parsed JSON number; `None` on
/// anything else (fractions, negatives, non-numbers, > 2⁵³).
fn get_u64(v: Option<&Value>) -> Option<u64> {
    let n = v?.as_f64()?;
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    if n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
        Some(n as u64)
    } else {
        None
    }
}

/// Like [`get_u64`] but `null` / absent maps to `Ok(None)`.
fn get_opt_u64(v: Option<&Value>) -> Result<Option<u64>, String> {
    match v {
        None | Some(Value::Null) => Ok(None),
        some => get_u64(some).map(Some).ok_or_else(|| "bad value".into()),
    }
}

/// Relative noise threshold of [`compare`]: a candidate probe regresses
/// only when its min-of-N exceeds `base × MAX_RATIO + ABS_FLOOR_NS`.
/// Together (1.6×, 20 ms) they pass same-machine reruns of the quick
/// suite while still flagging any genuine 2× regression on probes
/// slower than ~35 ms.
pub const MAX_RATIO: f64 = 1.6;

/// Absolute noise floor of [`compare`], nanoseconds, added on top of
/// [`MAX_RATIO`].
pub const ABS_FLOOR_NS: u64 = 20_000_000;

/// One probe's verdict in a [`Comparison`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise envelope.
    Ok,
    /// Slower than `base × MAX_RATIO + ABS_FLOOR_NS` — gate fails.
    Regressed,
    /// Faster than the same envelope mirrored — informational.
    Improved,
}

/// One probe matched across baseline and candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompareRow {
    /// Probe name.
    pub name: String,
    /// Baseline min-of-N, nanoseconds.
    pub base_min_ns: u64,
    /// Candidate min-of-N, nanoseconds.
    pub cand_min_ns: u64,
    /// The verdict under the noise thresholds.
    pub verdict: Verdict,
}

/// The result of diffing two reports probe-by-probe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Comparison {
    /// Probes present (non-empty) in both reports, baseline order.
    pub rows: Vec<CompareRow>,
    /// Probes in the baseline but absent/empty in the candidate.
    pub missing: Vec<String>,
    /// Probes in the candidate but absent/empty in the baseline.
    pub added: Vec<String>,
}

impl Comparison {
    /// Number of regressed probes — the CI gate fails when nonzero.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .count()
    }

    /// Number of improved probes.
    #[must_use]
    pub fn improvements(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Improved)
            .count()
    }
}

/// Diffs `candidate` against `baseline` with min-of-N samples per
/// probe and the noise envelope of [`MAX_RATIO`] and [`ABS_FLOOR_NS`].
/// Missing probes never regress the gate (suites evolve) but are
/// reported so a silently dropped probe is visible.
#[must_use]
pub fn compare(baseline: &PerfReport, candidate: &PerfReport) -> Comparison {
    let mut out = Comparison::default();
    for base in &baseline.probes {
        let Some(base_min) = base.min_ns() else {
            continue;
        };
        match candidate.probe(&base.name).and_then(Probe::min_ns) {
            None => out.missing.push(base.name.clone()),
            Some(cand_min) => {
                #[allow(clippy::cast_precision_loss)]
                let envelope = |reference: u64| reference as f64 * MAX_RATIO + ABS_FLOOR_NS as f64;
                #[allow(clippy::cast_precision_loss)]
                let verdict = if cand_min as f64 > envelope(base_min) {
                    Verdict::Regressed
                } else if (base_min as f64) > envelope(cand_min) {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                out.rows.push(CompareRow {
                    name: base.name.clone(),
                    base_min_ns: base_min,
                    cand_min_ns: cand_min,
                    verdict,
                });
            }
        }
    }
    for cand in &candidate.probes {
        if cand.min_ns().is_some() && baseline.probe(&cand.name).and_then(Probe::min_ns).is_none() {
            out.added.push(cand.name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        let mut r = PerfReport::new();
        r.meta.insert("host".into(), "ci".into());
        r.push_sample("sweep.wall_ns", 1_000_000);
        r.push_sample("sweep.wall_ns", 900_000);
        r.stages.push(StageLatency {
            name: "store.schedule.latency-ns".into(),
            count: 12,
            sum_ns: 48_000,
            p50_ns: Some(4_095),
            p90_ns: Some(8_191),
            p99_ns: Some(8_191),
        });
        r.counters.insert("store.widen.requests".into(), 60);
        r
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let r = sample_report();
        let text = r.to_json();
        assert!(text.contains(REPORT_FORMAT));
        let back = PerfReport::from_json(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn a_repeated_probe_name_is_rejected() {
        // Two `sweep.wall_ns` probes: `compare` would read only the
        // first, so a regression in the second could never gate.
        let mut r = sample_report();
        r.probes.push(Probe {
            name: "sweep.wall_ns".into(),
            samples_ns: vec![900_000_000_000],
        });
        let err = PerfReport::from_json(&r.to_json()).unwrap_err();
        assert!(
            err.contains("repeated probe name \"sweep.wall_ns\""),
            "{err}"
        );
    }

    #[test]
    fn foreign_format_and_version_are_rejected() {
        let r = sample_report();
        let text = r.to_json();
        let foreign = text.replace(REPORT_FORMAT, "someone-elses-format");
        assert!(PerfReport::from_json(&foreign)
            .unwrap_err()
            .contains("foreign format"));
        let vnext = text.replace("\"version\":1", "\"version\":999");
        assert!(PerfReport::from_json(&vnext)
            .unwrap_err()
            .contains("unsupported version"));
        assert!(PerfReport::from_json("[]").is_err());
        assert!(PerfReport::from_json("{}").is_err());
    }

    #[test]
    fn compare_flags_regression_and_respects_noise() {
        let base = sample_report();
        // Same machine, same run: trivially within noise.
        let same = compare(&base, &base);
        assert_eq!(same.regressions(), 0);
        assert_eq!(same.improvements(), 0);

        // A big probe regressing 2× must trip even generous thresholds.
        let mut slow = base.clone();
        slow.probes[0].samples_ns = vec![2_000_000_000];
        let mut big_base = base.clone();
        big_base.probes[0].samples_ns = vec![1_000_000_000];
        let cmp = compare(&big_base, &slow);
        assert_eq!(cmp.regressions(), 1);
        assert_eq!(cmp.rows[0].verdict, Verdict::Regressed);

        // Sub-floor jitter on a fast probe stays quiet even at 10×.
        let mut fast_base = base.clone();
        fast_base.probes[0].samples_ns = vec![1_000];
        let mut fast_cand = base.clone();
        fast_cand.probes[0].samples_ns = vec![10_000];
        let cmp = compare(&fast_base, &fast_cand);
        assert_eq!(cmp.regressions(), 0);
    }

    #[test]
    fn compare_reports_missing_and_added_probes() {
        let base = sample_report();
        let mut cand = sample_report();
        cand.probes[0].name = "renamed".into();
        let cmp = compare(&base, &cand);
        assert_eq!(cmp.missing, vec!["sweep.wall_ns".to_string()]);
        assert_eq!(cmp.added, vec!["renamed".to_string()]);
        assert_eq!(cmp.regressions(), 0, "missing probes never gate");
    }

    #[test]
    fn absorb_snapshot_splits_histograms_from_counters() {
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("store.widen.requests").add(5);
        reg.gauge("store.schedule.resident-bytes").set(4096);
        reg.histogram("store.schedule.latency-ns").record(1000);
        let mut r = PerfReport::new();
        r.absorb_snapshot(&reg.snapshot());
        assert_eq!(r.counters.get("store.widen.requests"), Some(&5));
        assert_eq!(r.counters.get("store.schedule.resident-bytes"), Some(&4096));
        assert_eq!(r.stages.len(), 1);
        assert_eq!(r.stages[0].count, 1);
        assert_eq!(r.stages[0].sum_ns, 1000);
        assert_eq!(r.stages[0].p99_ns, Some(1023));
    }
}
