//! The versioned binary trace-file format (`WTRC` v1).
//!
//! Each fleet worker process serialises its [`ProcessTrace`] into one
//! file next to its published results; the coordinator reads every file
//! back and merges them onto one timeline ([`crate::chrome`]). The
//! format is little-endian, written and read with the shared
//! `widening-wire` codec:
//!
//! ```text
//! magic    "WTRC"                     4 bytes
//! version  u32 = 1
//! anchor   u64   wall-clock ns at recorder install (UNIX epoch)
//! dropped  u64   events lost to ring overflow, totalled
//! process  str   (u32 length + UTF-8 bytes)
//! tracks   u32   count
//!   tid    u32
//!   label  str
//!   events u32   count
//!     kind u8, start_ns u64, end_ns u64, a u64, b u64   (×count)
//! ```
//!
//! Decoding is defensive: any truncation, bad magic, unknown version or
//! unknown event kind yields `None` — a corrupt trace degrades to "no
//! trace", never a panic.

use std::fs;
use std::io;
use std::path::Path;

use widening_wire::{Reader, Writer};

use crate::span::{Event, SpanKind};

/// File magic.
pub const TRACE_MAGIC: [u8; 4] = *b"WTRC";
/// Current format version.
pub const TRACE_VERSION: u32 = 1;

/// Bytes of one encoded event: kind, start, end and both arguments.
const EVENT_BYTES: usize = 1 + 4 * 8;
/// Fewest bytes one encoded track takes: tid, label length and event
/// count.
const MIN_TRACK_BYTES: usize = 3 * 4;

/// One recording thread's events, in recording order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackTrace {
    /// Thread id, unique within the process (1-based registration order).
    pub tid: u32,
    /// Human-readable track label (worker tag or `thread-N`).
    pub label: String,
    /// Events, oldest surviving first.
    pub events: Vec<Event>,
}

/// Everything one process recorded: its tracks plus the time base
/// needed to merge it with traces from other processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessTrace {
    /// Process label (e.g. `repro` or `worker-3`).
    pub process: String,
    /// Wall-clock nanoseconds (UNIX epoch) at recorder construction;
    /// event timestamps are monotonic offsets from that moment.
    pub wall_anchor_ns: u64,
    /// Events lost to ring overflow across all tracks.
    pub dropped: u64,
    /// Per-thread tracks.
    pub tracks: Vec<TrackTrace>,
}

impl ProcessTrace {
    /// Total recorded events across all tracks.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Serialise to the `WTRC` v1 byte format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.event_count() * EVENT_BYTES);
        w.bytes(&TRACE_MAGIC);
        w.u32(TRACE_VERSION);
        w.u64(self.wall_anchor_ns);
        w.u64(self.dropped);
        w.str(&self.process);
        w.len(self.tracks.len());
        for track in &self.tracks {
            w.u32(track.tid);
            w.str(&track.label);
            w.len(track.events.len());
            for event in &track.events {
                w.u8(event.kind as u8);
                w.u64(event.start_ns);
                w.u64(event.end_ns);
                w.u64(event.a);
                w.u64(event.b);
            }
        }
        w.into_bytes()
    }

    /// Decode a `WTRC` trace; `None` on any corruption or version skew.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != TRACE_MAGIC || r.u32()? != TRACE_VERSION {
            return None;
        }
        let wall_anchor_ns = r.u64()?;
        let dropped = r.u64()?;
        let process = r.str()?.to_owned();
        let ntracks = r.len(MIN_TRACK_BYTES)?;
        let mut tracks = Vec::with_capacity(ntracks);
        for _ in 0..ntracks {
            let tid = r.u32()?;
            let label = r.str()?.to_owned();
            let nevents = r.len(EVENT_BYTES)?;
            let mut events = Vec::with_capacity(nevents);
            for _ in 0..nevents {
                events.push(Event {
                    kind: SpanKind::from_u8(r.u8()?)?,
                    start_ns: r.u64()?,
                    end_ns: r.u64()?,
                    a: r.u64()?,
                    b: r.u64()?,
                });
            }
            tracks.push(TrackTrace { tid, label, events });
        }
        Some(ProcessTrace {
            process,
            wall_anchor_ns,
            dropped,
            tracks,
        })
    }
}

/// Write `trace` to `path` atomically (temp file + rename), creating
/// parent directories as needed.
pub fn write_trace_file(path: &Path, trace: &ProcessTrace) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, trace.encode())?;
    fs::rename(&tmp, path)
}

/// Read one `WTRC` trace file; `None` if missing or corrupt.
#[must_use]
pub fn read_trace_file(path: &Path) -> Option<ProcessTrace> {
    ProcessTrace::decode(&fs::read(path).ok()?)
}

/// Read every decodable `*.trace.bin` in `dir`, sorted by file name for
/// a deterministic merge order. A missing directory is an empty fleet.
#[must_use]
pub fn read_trace_dir(dir: &Path) -> Vec<ProcessTrace> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".trace.bin"))
        })
        .collect();
    paths.sort();
    paths.iter().filter_map(|p| read_trace_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProcessTrace {
        ProcessTrace {
            process: "worker-1".into(),
            wall_anchor_ns: 1_700_000_000_000_000_000,
            dropped: 3,
            tracks: vec![
                TrackTrace {
                    tid: 1,
                    label: "shard-0".into(),
                    events: vec![
                        Event {
                            kind: SpanKind::Widen,
                            start_ns: 10,
                            end_ns: 40,
                            a: 2,
                            b: 2,
                        },
                        Event {
                            kind: SpanKind::Evict,
                            start_ns: 50,
                            end_ns: 50,
                            a: 4,
                            b: 4096,
                        },
                    ],
                },
                TrackTrace {
                    tid: 2,
                    label: "shard-1".into(),
                    events: vec![Event {
                        kind: SpanKind::SweepUnit,
                        start_ns: 5,
                        end_ns: 95,
                        a: 0,
                        b: 0x1_0202,
                    }],
                },
            ],
        }
    }

    #[test]
    fn binary_round_trip() {
        let trace = sample();
        let bytes = trace.encode();
        assert_eq!(&bytes[..4], b"WTRC");
        assert_eq!(ProcessTrace::decode(&bytes), Some(trace));
    }

    #[test]
    fn golden_trace_bytes() {
        let trace = ProcessTrace {
            process: "w1".into(),
            wall_anchor_ns: 0x0102_0304_0506_0708,
            dropped: 2,
            tracks: vec![TrackTrace {
                tid: 3,
                label: "s0".into(),
                events: vec![Event {
                    kind: SpanKind::Widen,
                    start_ns: 10,
                    end_ns: 40,
                    a: 2,
                    b: 0x1_0202,
                }],
            }],
        };
        let hex: String = trace.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "5754524301000000080706050403020102000000000000000200000077310100",
                "00000300000002000000733001000000000a0000000000000028000000000000",
                "0002000000000000000202010000000000",
            )
        );
    }

    #[test]
    fn corruption_degrades_to_none() {
        let bytes = sample().encode();
        assert_eq!(ProcessTrace::decode(&bytes[..bytes.len() - 1]), None);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(ProcessTrace::decode(&bad_magic), None);
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(ProcessTrace::decode(&bad_version), None);
        let mut bad_kind = bytes;
        // First event kind byte sits right after the track header.
        let kind_pos = 4 + 4 + 8 + 8 + (4 + 8) + 4 + 4 + (4 + 7) + 4;
        bad_kind[kind_pos] = 200;
        assert_eq!(ProcessTrace::decode(&bad_kind), None);
        assert_eq!(ProcessTrace::decode(b""), None);
    }

    // Worker traces are read back from a shared directory that other
    // processes write: whatever bytes a file holds, decoding returns a
    // trace or `None`, never a panic.
    mod decoding {
        use super::*;
        use crate::span::ALL_KINDS;
        use proptest::prelude::*;

        fn arb_trace() -> impl Strategy<Value = ProcessTrace> {
            let event = (any::<u8>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(kind, start_ns, a, b)| Event {
                    kind: SpanKind::from_u8(kind % ALL_KINDS.len() as u8).expect("in range"),
                    start_ns,
                    end_ns: start_ns.saturating_add(a % 1000),
                    a,
                    b,
                },
            );
            let track = (
                any::<u32>(),
                0usize..12,
                proptest::collection::vec(event, 0..6),
            )
                .prop_map(|(tid, label, events)| TrackTrace {
                    tid,
                    label: "t".repeat(label),
                    events,
                });
            (
                any::<u64>(),
                any::<u64>(),
                proptest::collection::vec(track, 0..4),
            )
                .prop_map(|(wall_anchor_ns, dropped, tracks)| ProcessTrace {
                    process: "worker".into(),
                    wall_anchor_ns,
                    dropped,
                    tracks,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                let _ = ProcessTrace::decode(&bytes);
            }

            #[test]
            fn truncation_is_rejected(trace in arb_trace(), cut in any::<usize>()) {
                let bytes = trace.encode();
                prop_assert_eq!(ProcessTrace::decode(&bytes[..cut % bytes.len()]), None);
                prop_assert_eq!(ProcessTrace::decode(&bytes), Some(trace));
            }

            #[test]
            fn bit_flips_never_panic(trace in arb_trace(), bit in any::<usize>()) {
                let mut bytes = trace.encode();
                let at = bit % (bytes.len() * 8);
                bytes[at / 8] ^= 1 << (at % 8);
                prop_assert!(ProcessTrace::decode(&bytes) != Some(trace));
            }
        }
    }

    #[test]
    fn trace_dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("obs-trace-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let trace = sample();
        write_trace_file(&dir.join("worker-1.trace.bin"), &trace).unwrap();
        fs::write(dir.join("garbage.trace.bin"), b"not a trace").unwrap();
        fs::write(dir.join("ignored.txt"), b"other file").unwrap();
        let read = read_trace_dir(&dir);
        assert_eq!(read, vec![trace]);
        assert!(read_trace_dir(&dir.join("missing")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
