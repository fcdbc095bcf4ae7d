//! Reading a merged Chrome trace back: validation and latency tables.
//!
//! Both the `tracecheck` CI checker and `repro trace summarize` consume
//! the JSON that [`crate::chrome`] emits — parsing the *exported*
//! artifact rather than in-memory events means the whole export path is
//! exercised end to end. Percentiles come from the same
//! [`crate::metrics::Histogram`] the live metrics use.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::metrics::Histogram;

/// One complete (`"ph":"X"`) span read back from a Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Event name (stage name, `unit`, `shard`, ...).
    pub name: String,
    /// Process track.
    pub pid: u64,
    /// Thread track within the process.
    pub tid: u64,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Numeric args (`loop`, `shard`, `units`, ...), name → value.
    pub args_num: BTreeMap<String, f64>,
}

/// A parsed + structurally validated Chrome trace document.
#[derive(Debug, Default)]
pub struct ChromeDoc {
    /// All complete spans.
    pub spans: Vec<SpanRec>,
    /// Number of instant (`"ph":"i"`) events.
    pub instants: usize,
    /// Instant events grouped by name (`heartbeat`, `lease-expired`,
    /// `respawn`, ...), name → count.
    pub instants_by_name: BTreeMap<String, u64>,
    /// `pid` → process name (from `process_name` metadata).
    pub processes: BTreeMap<u64, String>,
    /// `pid` → events that process lost to ring overflow, parsed from
    /// the `(dropped_events=N)` suffix the emitter appends to every
    /// process name. Nonzero counts mean the tables below undercount.
    pub dropped_events: BTreeMap<u64, u64>,
    /// `(pid, tid)` → thread name (from `thread_name` metadata).
    pub threads: BTreeMap<(u64, u64), String>,
}

impl ChromeDoc {
    /// Total events dropped across all processes.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.dropped_events.values().sum()
    }
}

/// The `(dropped_events=N)` suffix [`crate::chrome`] folds into each
/// process label, parsed back out.
fn dropped_from_label(label: &str) -> Option<u64> {
    label
        .rsplit_once("(dropped_events=")?
        .1
        .strip_suffix(')')?
        .parse()
        .ok()
}

fn num(event: &Value, key: &str) -> Option<f64> {
    event.get(key)?.as_f64()
}

/// Parse and validate a Chrome trace-event document. Checks, per event:
/// a known `ph`; `X` events carry non-negative numeric `ts`/`dur`; and
/// any `B`/`E` pairs balance per `(pid, tid)` track (our emitter only
/// produces complete events, but the checker guards the general
/// contract "no unmatched begin/end").
pub fn parse_chrome(root: &Value) -> Result<ChromeDoc, String> {
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut doc = ChromeDoc::default();
    let mut open_begins: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for (index, event) in events.iter().enumerate() {
        let obj = event
            .as_object()
            .ok_or_else(|| format!("event {index} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index} has no ph"))?;
        let pid = num(event, "pid").unwrap_or(0.0) as u64;
        let tid = num(event, "tid").unwrap_or(0.0) as u64;
        match ph {
            "X" => {
                let ts = num(event, "ts").ok_or_else(|| format!("event {index}: X without ts"))?;
                let dur =
                    num(event, "dur").ok_or_else(|| format!("event {index}: X without dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {index}: negative ts/dur"));
                }
                let name = obj
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {index}: X without name"))?;
                let mut args_num = BTreeMap::new();
                if let Some(args) = obj.get("args").and_then(Value::as_object) {
                    for (key, value) in args {
                        if let Some(n) = value.as_f64() {
                            args_num.insert(key.clone(), n);
                        }
                    }
                }
                doc.spans.push(SpanRec {
                    name: name.to_string(),
                    pid,
                    tid,
                    ts_us: ts,
                    dur_us: dur,
                    args_num,
                });
            }
            "i" | "I" | "R" => {
                doc.instants += 1;
                let name = obj.get("name").and_then(Value::as_str).unwrap_or("?");
                *doc.instants_by_name.entry(name.to_string()).or_insert(0) += 1;
            }
            "B" => *open_begins.entry((pid, tid)).or_insert(0) += 1,
            "E" => {
                let open = open_begins.entry((pid, tid)).or_insert(0);
                if *open == 0 {
                    return Err(format!("event {index}: E without matching B"));
                }
                *open -= 1;
            }
            "M" => {
                let name = obj.get("name").and_then(Value::as_str).unwrap_or("");
                let arg = obj
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string();
                match name {
                    "process_name" => {
                        if let Some(dropped) = dropped_from_label(&arg) {
                            doc.dropped_events.insert(pid, dropped);
                        }
                        doc.processes.insert(pid, arg);
                    }
                    "thread_name" => {
                        doc.threads.insert((pid, tid), arg);
                    }
                    _ => {}
                }
            }
            other => return Err(format!("event {index}: unknown ph {other:?}")),
        }
    }
    if let Some(((pid, tid), open)) = open_begins.iter().find(|(_, open)| **open > 0) {
        return Err(format!(
            "{open} unmatched B event(s) on pid={pid} tid={tid}"
        ));
    }
    Ok(doc)
}

/// Latency summary for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Median duration, microseconds (log-bucket upper bound).
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Total time, microseconds.
    pub total_us: f64,
    /// Longest single span, microseconds.
    pub max_us: f64,
}

const NS_PER_US: f64 = 1_000.0;

/// Group spans by name and summarise durations through a log-bucketed
/// [`Histogram`] (nanosecond resolution). Sorted by descending total.
#[must_use]
pub fn per_stage_stats(spans: &[SpanRec]) -> Vec<StageStats> {
    let mut groups: BTreeMap<&str, (Histogram, f64, f64)> = BTreeMap::new();
    for span in spans {
        let entry = groups
            .entry(span.name.as_str())
            .or_insert_with(|| (Histogram::new(), 0.0, 0.0));
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        entry.0.record((span.dur_us * NS_PER_US).max(0.0) as u64);
        entry.1 += span.dur_us;
        entry.2 = entry.2.max(span.dur_us);
    }
    let mut out: Vec<StageStats> = groups
        .into_iter()
        .map(|(name, (hist, total_us, max_us))| {
            #[allow(clippy::cast_precision_loss)]
            let us = |ns: Option<u64>| ns.map_or(0.0, |n| n as f64 / NS_PER_US);
            StageStats {
                name: name.to_string(),
                count: hist.count(),
                p50_us: us(hist.p50()),
                p90_us: us(hist.p90()),
                p99_us: us(hist.p99()),
                total_us,
                max_us,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.total_cmp(&a.total_us));
    out
}

/// Busy-time summary for one `(process, thread)` track.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackStats {
    /// Process track id.
    pub pid: u64,
    /// Process name.
    pub process: String,
    /// Thread track id.
    pub tid: u64,
    /// Thread label (worker tag).
    pub track: String,
    /// Number of spans on the track.
    pub spans: u64,
    /// Summed span time, microseconds. Nested spans (a stage under its
    /// unit) count each level, so this is attribution, not wall clock.
    pub busy_us: f64,
}

/// Per-track span counts and busy time, ordered by `(pid, tid)`.
#[must_use]
pub fn per_track_stats(doc: &ChromeDoc) -> Vec<TrackStats> {
    let mut groups: BTreeMap<(u64, u64), (u64, f64)> = BTreeMap::new();
    for span in &doc.spans {
        let entry = groups.entry((span.pid, span.tid)).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += span.dur_us;
    }
    groups
        .into_iter()
        .map(|((pid, tid), (spans, busy_us))| TrackStats {
            pid,
            process: doc.processes.get(&pid).cloned().unwrap_or_default(),
            tid,
            track: doc.threads.get(&(pid, tid)).cloned().unwrap_or_default(),
            spans,
            busy_us,
        })
        .collect()
}

/// Per-shard summary built from `shard` worker spans.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u64,
    /// Shard runs observed (requeues add runs).
    pub runs: u64,
    /// Units attributed across those runs.
    pub units: u64,
    /// Summed run time, microseconds.
    pub busy_us: f64,
}

/// Group `shard` spans by their `shard` arg.
#[must_use]
pub fn per_shard_stats(spans: &[SpanRec]) -> Vec<ShardStats> {
    let mut groups: BTreeMap<u64, ShardStats> = BTreeMap::new();
    for span in spans {
        if span.name != "shard" {
            continue;
        }
        let Some(shard) = span.args_num.get("shard") else {
            continue;
        };
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let shard = *shard as u64;
        let entry = groups.entry(shard).or_insert(ShardStats {
            shard,
            runs: 0,
            units: 0,
            busy_us: 0.0,
        });
        entry.runs += 1;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let units = span.args_num.get("units").copied().unwrap_or(0.0) as u64;
        entry.units += units;
        entry.busy_us += span.dur_us;
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace_json;
    use crate::json;
    use crate::span::{Event, SpanKind};
    use crate::trace::{ProcessTrace, TrackTrace};

    fn doc_from(traces: &[ProcessTrace]) -> ChromeDoc {
        let text = chrome_trace_json(traces);
        let value = json::parse(&text).expect("emitted JSON parses");
        parse_chrome(&value).expect("emitted JSON validates")
    }

    #[test]
    fn emitted_json_round_trips_through_parser() {
        let trace = ProcessTrace {
            process: "repro".into(),
            wall_anchor_ns: 0,
            dropped: 0,
            tracks: vec![TrackTrace {
                tid: 1,
                label: "main".into(),
                events: vec![
                    Event {
                        kind: SpanKind::Widen,
                        start_ns: 0,
                        end_ns: 30_000,
                        a: 0,
                        b: 2,
                    },
                    Event {
                        kind: SpanKind::Schedule,
                        start_ns: 40_000,
                        end_ns: 140_000,
                        a: 0,
                        b: 0x41_0204,
                    },
                    Event {
                        kind: SpanKind::Heartbeat,
                        start_ns: 150_000,
                        end_ns: 150_000,
                        a: 1,
                        b: 7,
                    },
                ],
            }],
        };
        let doc = doc_from(&[trace]);
        assert_eq!(doc.spans.len(), 2);
        assert_eq!(doc.instants, 1);
        assert_eq!(doc.instants_by_name.get("heartbeat"), Some(&1));
        assert_eq!(doc.processes[&1], "repro (dropped_events=0)");
        assert_eq!(doc.dropped_events.get(&1), Some(&0));
        assert_eq!(doc.total_dropped(), 0);
        assert_eq!(doc.threads[&(1, 1)], "main");

        let stats = per_stage_stats(&doc.spans);
        assert_eq!(stats[0].name, "schedule");
        assert_eq!(stats[0].count, 1);
        assert!((stats[0].total_us - 100.0).abs() < 1e-9);
        // 100 µs = 100_000 ns ∈ [2^16, 2^17) → upper bound 131071 ns.
        assert!((stats[0].p50_us - 131.071).abs() < 1e-9);
        let tracks = per_track_stats(&doc);
        assert_eq!(tracks.len(), 1);
        assert_eq!(tracks[0].spans, 2);
    }

    #[test]
    fn shard_spans_group_by_shard_arg() {
        let trace = ProcessTrace {
            process: "worker-0".into(),
            wall_anchor_ns: 0,
            dropped: 0,
            tracks: vec![TrackTrace {
                tid: 1,
                label: "w".into(),
                events: vec![
                    Event {
                        kind: SpanKind::WorkerShard,
                        start_ns: 0,
                        end_ns: 9_000,
                        a: 0,
                        b: 4,
                    },
                    Event {
                        kind: SpanKind::WorkerShard,
                        start_ns: 9_000,
                        end_ns: 12_000,
                        a: 1,
                        b: 2,
                    },
                    // A requeued shard runs again: one more run.
                    Event {
                        kind: SpanKind::WorkerShard,
                        start_ns: 12_000,
                        end_ns: 15_000,
                        a: 1,
                        b: 2,
                    },
                ],
            }],
        };
        let doc = doc_from(&[trace]);
        let shards = per_shard_stats(&doc.spans);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].shard, 0);
        assert_eq!(shards[0].runs, 1);
        assert_eq!(shards[0].units, 4);
        assert_eq!(shards[1].runs, 2);
        assert_eq!(shards[1].units, 4);
    }

    #[test]
    fn dropped_event_counters_survive_the_round_trip() {
        let trace = ProcessTrace {
            process: "worker-1".into(),
            wall_anchor_ns: 0,
            dropped: 42,
            tracks: vec![TrackTrace {
                tid: 1,
                label: "w".into(),
                events: vec![Event {
                    kind: SpanKind::StealClaim,
                    start_ns: 5,
                    end_ns: 5,
                    a: 1,
                    b: 3,
                }],
            }],
        };
        let doc = doc_from(&[trace]);
        assert_eq!(doc.dropped_events.get(&1), Some(&42));
        assert_eq!(doc.total_dropped(), 42);
        assert_eq!(doc.instants_by_name.get("steal-claim"), Some(&1));
        // Labels without the suffix simply have no counter.
        assert_eq!(dropped_from_label("plain label"), None);
        assert_eq!(dropped_from_label("x (dropped_events=7)"), Some(7));
    }

    #[test]
    fn unmatched_begin_end_is_rejected() {
        let text = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":1,"ts":0,"name":"x"},
            {"ph":"E","pid":1,"tid":1,"ts":1},
            {"ph":"B","pid":1,"tid":2,"ts":0,"name":"y"}
        ]}"#;
        let value = json::parse(text).unwrap();
        let err = parse_chrome(&value).unwrap_err();
        assert!(err.contains("unmatched B"), "{err}");

        let text = r#"{"traceEvents":[{"ph":"E","pid":1,"tid":1,"ts":1}]}"#;
        let err = parse_chrome(&json::parse(text).unwrap()).unwrap_err();
        assert!(err.contains("E without matching B"), "{err}");
    }

    #[test]
    fn structural_corruption_is_rejected() {
        for bad in [
            r#"{"notTraceEvents":[]}"#,
            r#"{"traceEvents":{}}"#,
            r#"{"traceEvents":[{"name":"x"}]}"#,
            r#"{"traceEvents":[{"ph":"X","name":"x","pid":1,"tid":1,"ts":0}]}"#,
            r#"{"traceEvents":[{"ph":"?","pid":1,"tid":1}]}"#,
        ] {
            let value = json::parse(bad).unwrap();
            assert!(parse_chrome(&value).is_err(), "{bad}");
        }
    }
}
