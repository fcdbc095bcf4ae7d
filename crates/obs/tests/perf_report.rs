//! Property and golden tests for the perf-report codec
//! ([`widening_obs::report`]): serialisation round-trips over random
//! reports, corrupted input never panics the parser, and the compare
//! gate's verdicts are pinned against hand-written documents.

use proptest::prelude::*;
use widening_obs::report::{compare, PerfReport, Probe, StageLatency, Verdict};

/// The codec's exact-integer domain: JSON numbers round-trip exactly
/// below 2⁵³ (the parser rejects anything larger), and 2⁵³ nanoseconds
/// is already 104 days of wall time.
const MAX_EXACT: u64 = 1 << 53;

/// Strings exercising the escaper: ASCII letters, punctuation that
/// needs escaping (`"`/`\`), and raw control characters.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..128, 0..12)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn arb_opt(max: u64) -> impl Strategy<Value = Option<u64>> {
    (0..max, any::<bool>()).prop_map(|(v, some)| some.then_some(v))
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    (arb_name(), proptest::collection::vec(0..MAX_EXACT, 0..5))
        .prop_map(|(name, samples_ns)| Probe { name, samples_ns })
}

fn arb_stage() -> impl Strategy<Value = StageLatency> {
    (
        arb_name(),
        0..MAX_EXACT,
        0..MAX_EXACT,
        arb_opt(MAX_EXACT),
        arb_opt(MAX_EXACT),
        arb_opt(MAX_EXACT),
    )
        .prop_map(
            |(name, count, sum_ns, p50_ns, p90_ns, p99_ns)| StageLatency {
                name,
                count,
                sum_ns,
                p50_ns,
                p90_ns,
                p99_ns,
            },
        )
}

/// A report whose probes have distinct names: the parser rejects a
/// repeated probe name, so a valid report never has one.
fn arb_report() -> impl Strategy<Value = PerfReport> {
    (
        proptest::collection::vec((arb_name(), arb_name()), 0..4),
        proptest::collection::vec(arb_probe(), 0..5),
        proptest::collection::vec(arb_stage(), 0..4),
        proptest::collection::vec((arb_name(), 0..MAX_EXACT), 0..5),
    )
        .prop_map(|(meta, mut probes, stages, counters)| {
            let mut seen = std::collections::HashSet::new();
            probes.retain(|p| seen.insert(p.name.clone()));
            PerfReport {
                meta: meta.into_iter().collect(),
                probes,
                stages,
                counters: counters.into_iter().collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every report — including names full of quotes, backslashes and
    /// control characters — survives serialise → parse unchanged.
    #[test]
    fn report_round_trips(report in arb_report()) {
        let text = report.to_json();
        match PerfReport::from_json(&text) {
            Ok(back) => prop_assert_eq!(back, report),
            Err(why) => prop_assert!(false, "round-trip rejected: {}", why),
        }
    }

    /// Arbitrary bytes never panic the parser — they parse or they
    /// return `Err`, nothing else.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = PerfReport::from_json(&String::from_utf8_lossy(&bytes));
    }

    /// Truncating a valid document at any char boundary never panics.
    #[test]
    fn truncation_never_panics(report in arb_report(), cut in any::<usize>()) {
        let text = report.to_json();
        let mut at = cut % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let _ = PerfReport::from_json(&text[..at]);
    }

    /// Flipping one byte of a valid document never panics (it may
    /// still parse — e.g. a digit flipped to another digit).
    #[test]
    fn single_byte_corruption_never_panics(
        report in arb_report(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = report.to_json().into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        let _ = PerfReport::from_json(&String::from_utf8_lossy(&bytes));
    }
}

/// A report with the given `(name, samples)` probes and nothing else.
fn probes(list: &[(&str, &[u64])]) -> PerfReport {
    let mut r = PerfReport::new();
    for (name, samples) in list {
        for s in *samples {
            r.push_sample(name, *s);
        }
    }
    r
}

/// Golden: a genuine 2× regression on a slow probe fails the gate,
/// and the verdict names the offending probe.
#[test]
fn golden_known_regression_fails_the_gate() {
    let base = probes(&[
        ("sweep.wall_ns", &[1_000_000_000, 1_050_000_000]),
        ("corpus.generate.wall_ns", &[40_000_000]),
    ]);
    let cand = probes(&[
        ("sweep.wall_ns", &[2_000_000_000, 2_100_000_000]),
        ("corpus.generate.wall_ns", &[41_000_000]),
    ]);
    let cmp = compare(&base, &cand);
    assert_eq!(cmp.regressions(), 1);
    let bad: Vec<&str> = cmp
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(bad, ["sweep.wall_ns"]);
}

/// Golden: same-machine rerun noise — 20% drift on a slow probe, 5×
/// jitter on a microsecond probe — passes the gate.
#[test]
fn golden_within_noise_passes_the_gate() {
    let base = probes(&[
        ("sweep.wall_ns", &[1_000_000_000]),
        ("store.mii.latency-ns.sum", &[200_000]),
    ]);
    let cand = probes(&[
        ("sweep.wall_ns", &[1_200_000_000]),
        ("store.mii.latency-ns.sum", &[1_000_000]),
    ]);
    let cmp = compare(&base, &cand);
    assert_eq!(cmp.regressions(), 0);
    assert_eq!(cmp.rows.len(), 2);
}

/// Golden wire format: a hand-written v1 document parses to exactly
/// the expected report, pinning field names and shapes against
/// accidental codec drift. Its `units` and `fleet` blocks, which older
/// reports carry, are unknown keys and ignored.
#[test]
fn golden_wire_format_parses() {
    let text = r#"{
        "format": "widening-perf-report",
        "version": 1,
        "meta": {"suite": "sweep+baseline256"},
        "probes": [{"name": "sweep.wall_ns", "samples_ns": [1500, 1400]}],
        "stages": [{"name": "store.widen.latency-ns", "count": 3, "sum_ns": 90,
                    "p50_ns": 31, "p90_ns": 63, "p99_ns": null}],
        "counters": {"store.widen.requests": 9},
        "units": [{"loop": 2, "x": 4, "y": 2, "z": 64, "wall_ns": 700},
                  {"loop": 0, "x": 2, "y": 2, "z": null, "wall_ns": 300}],
        "fleet": {"steals": 1, "steal_offers": 2, "scale_ups": 0,
                  "scale_downs": 0, "lease_expiries": 0, "respawns": 0}
    }"#;
    let report = PerfReport::from_json(text).expect("golden document parses");
    assert_eq!(report.meta["suite"], "sweep+baseline256");
    assert_eq!(
        report.probe("sweep.wall_ns").and_then(Probe::min_ns),
        Some(1400)
    );
    assert_eq!(report.stages.len(), 1);
    assert_eq!(report.stages[0].p90_ns, Some(63));
    assert_eq!(report.stages[0].p99_ns, None);
    assert_eq!(report.counters["store.widen.requests"], 9);
    // The re-serialised form drops both old blocks and parses back to
    // the same report.
    let again = report.to_json();
    assert!(
        !again.contains("\"units\"") && !again.contains("\"fleet\""),
        "{again}"
    );
    assert_eq!(PerfReport::from_json(&again).expect("round-trip"), report);
}

/// Foreign format tags and future versions are rejected with the
/// documented error strings, not mis-parsed.
#[test]
fn golden_foreign_and_future_documents_are_rejected() {
    let foreign = r#"{"format": "someone-elses-report", "version": 1}"#;
    assert!(PerfReport::from_json(foreign)
        .unwrap_err()
        .contains("format"));
    let future = r#"{"format": "widening-perf-report", "version": 2}"#;
    assert!(PerfReport::from_json(future)
        .unwrap_err()
        .contains("version"));
}
