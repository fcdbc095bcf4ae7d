//! **widening-obs** — the observability substrate of the *Widening
//! Resources* reproduction: structured tracing spans, latency
//! histograms, and a merged Perfetto-loadable fleet timeline.
//!
//! The crate is deliberately **std-only**: its one dependency is the
//! std-only `widening-wire` codec, and it sits at the bottom of the
//! workspace graph, below `widening-pipeline`, so any crate can record
//! into it. It has four layers:
//!
//! * [`span`](mod@span) — a process-global **span recorder**. Each
//!   recording thread owns a bounded, preallocated ring of fixed-size
//!   [`span::Event`]s; the hot path is allocation-free and, when no
//!   recorder is installed, costs one relaxed atomic load. Under
//!   pressure the ring drops its **oldest** events and counts the
//!   drops, so truncation is never silent.
//! * [`metrics`] — counters, gauges and log₂-bucketed latency
//!   [`metrics::Histogram`]s with p50/p90/p99 extraction, grouped in a
//!   [`metrics::MetricsRegistry`]. These back the pipeline's stage
//!   counters.
//! * [`trace`] — a **versioned binary trace file** format (`WTRC` v1),
//!   encoded with the shared `widening-wire` codec. Every fleet worker
//!   process writes one file next to its results; the coordinator reads
//!   them all back.
//! * [`chrome`] + [`analyze`] + [`json`] — the merged timeline:
//!   [`chrome::chrome_trace_json`] turns any number of per-process
//!   traces into one Chrome trace-event JSON document (one `pid` track
//!   per worker process, one `tid` track per recording thread —
//!   open it at <https://ui.perfetto.dev>), and [`analyze`] parses that
//!   JSON back (via the tiny [`json`] parser) into per-stage and
//!   per-track latency tables.
//! * [`report`] — the **perf ledger**: a versioned machine-readable
//!   perf report (`BENCH_<stamp>.json`) with wall-time probes,
//!   per-stage percentiles and store counters, plus the min-of-N
//!   noise-gated [`report::compare`] that backs `repro perf compare`
//!   in CI.
//!
//! # Recording
//!
//! ```
//! use widening_obs as obs;
//!
//! let recorder = obs::Recorder::new("example");
//! obs::install(&recorder);
//! obs::set_thread_label("main");
//! {
//!     let _span = obs::span(obs::SpanKind::Widen, 0, 2);
//!     // ... stage work ...
//! } // recorded on drop
//! obs::instant(obs::SpanKind::Evict, 3, 4096);
//! obs::uninstall();
//! let trace = recorder.snapshot();
//! assert_eq!(trace.event_count(), 2);
//! let json = obs::chrome_trace_json(&[trace]);
//! assert!(json.contains("\"widen\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod chrome;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

pub use chrome::{chrome_trace_json, write_chrome_trace_file};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use report::{compare, CompareConfig, Comparison, PerfReport};
pub use span::{
    format_point, install, instant, is_enabled, now_ns, pack_point, record_span, set_thread_label,
    span, uninstall, unpack_point, Recorder, SpanGuard, SpanKind,
};
pub use trace::{read_trace_dir, read_trace_file, write_trace_file, ProcessTrace, TrackTrace};
