//! The **artifact exchange**: the result tier of the shared store.
//!
//! The compilation stages append to per-pipeline segments under
//! `<root>/v<FORMAT_VERSION>/segments`; this module stores the *same*
//! content-addressed container format one file per record, for the
//! records that ride on top of compilation — the batched sweep results
//! distributed workers publish and the simulation summaries the
//! evaluator warm-starts from. These must be visible to every process
//! as soon as they are published, which a segment indexed at open is
//! not. An [`Exchange`] is deliberately dumb: `(kind, key bytes) →
//! payload bytes`, atomic temp+rename publication, checksummed and
//! key-echoed on load, and strictly best-effort like the rest of the
//! disk tier — a worker whose publish fails costs a recompute
//! somewhere, never a wrong merge.
//!
//! Two record kinds are defined here:
//!
//! * [`BATCH_KIND`] — a **batch result record**: the [`UnitOutcome`]s
//!   of one distributed shard in one published file. An outcome is the
//!   projection of one compiled `(loop × design point)` unit that
//!   corpus aggregation needs (II, MII, registers, spill ops — or the
//!   structured failure cause). The record is keyed by
//!   [`batch_result_key`]: the content hash of the shard's ordered list
//!   of [`unit_result_key`]s, each the loop graph's content fingerprint
//!   plus every design-point field. Workers on different hosts (or
//!   re-runs of a killed shard) therefore publish *identical bytes
//!   under identical keys* — double execution after a lease-expiry
//!   requeue is idempotent by construction. Each entry is tagged with
//!   its manifest unit id.
//! * [`SIM_SUMMARY_KIND`] — simulation summaries, keyed by
//!   [`sim_summary_key`] (the unit key plus the simulated trip count).
//!   The payload codec lives with the simulator's consumer; this module
//!   only reserves the kind.
//!
//! Batch payloads carry their own format version ([`BATCH_VERSION`])
//! *inside* the container, on top of the disk tier's container-level
//! `FORMAT_VERSION`, so result records can evolve without invalidating
//! compiled stage artifacts.

use std::path::Path;

use widening_wire::{fnv128, Reader, Writer};

use crate::codec;
use crate::disk::DiskTier;
use crate::error::{FailureCause, PipelineError};
use crate::stage::{CompiledLoop, PointSpec};

/// Exchange kind for per-shard batch result records.
pub const BATCH_KIND: &str = "batch";

/// Exchange kind for per-unit simulation summaries.
pub const SIM_SUMMARY_KIND: &str = "simsum";

/// Version of the batch result record encoding; bump on any shape
/// change so stale records read as misses.
pub const BATCH_VERSION: u16 = 1;

/// A handle on the result tier of a shared cache directory.
///
/// Opens the same `<root>/v<FORMAT_VERSION>` subtree as the pipeline's
/// stage store, under one directory per kind, so one `--cache-dir` is
/// the single artifact *and* result exchange between coordinator and
/// workers.
#[derive(Debug)]
pub struct Exchange {
    tier: DiskTier,
}

impl Exchange {
    /// Opens (creating if needed) the exchange under `root`. `None`
    /// when the directory cannot be created — callers then run without
    /// result sharing, exactly like a pipeline without a disk tier.
    #[must_use]
    pub fn open(root: &Path) -> Option<Self> {
        Some(Exchange {
            tier: DiskTier::open(root)?,
        })
    }

    /// Publishes `payload` under `(kind, key)`. Atomic (temp + rename)
    /// and best-effort: failures are counted, never surfaced.
    pub fn put(&self, kind: &str, key: &[u8], payload: &[u8]) {
        self.tier.store(kind, fnv128(key), key, payload);
    }

    /// Loads the payload under `(kind, key)`, verifying the container
    /// checksum and key echo. Any mismatch is a miss.
    #[must_use]
    pub fn get(&self, kind: &str, key: &[u8]) -> Option<Vec<u8>> {
        self.tier.load(kind, fnv128(key), key)
    }

    /// Swallowed I/O or format failures so far.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.tier.errors()
    }
}

/// One unit's entry in a batch result record: everything corpus
/// aggregation needs from one compiled `(loop × design point)` unit.
/// Weights and trip counts do **not** travel here — they are properties
/// of the loop the merging coordinator already holds, which is what
/// keeps the record content-addressable by graph fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOutcome {
    /// The unit compiled (or bounded, in peak mode).
    Ok {
        /// Achieved (or bounding) initiation interval.
        ii: u32,
        /// The MII the achieved II is judged against.
        mii: u32,
        /// Registers used by the allocation (0 in peak mode).
        registers: u32,
        /// Spill operations inserted (stores + reloads).
        spill_ops: u32,
    },
    /// The pipeline could not compile the unit.
    Failed {
        /// Structured failure classification.
        cause: FailureCause,
    },
}

impl UnitOutcome {
    /// Projects a pipeline compile result onto the wire record.
    #[must_use]
    pub fn of(outcome: &Result<CompiledLoop, PipelineError>) -> Self {
        match outcome {
            Ok(c) => UnitOutcome::Ok {
                ii: c.ii(),
                mii: c.mii(),
                registers: c.registers_used(),
                spill_ops: c.spill_ops(),
            },
            Err(e) => UnitOutcome::Failed { cause: e.cause() },
        }
    }
}

/// Encodes a design point's compilation-relevant fields (the exact key
/// material stage artifacts are content-addressed by, minus the loop).
pub fn encode_point_spec(w: &mut Writer, spec: &PointSpec) {
    w.u32(spec.replication);
    w.u32(spec.width);
    match spec.registers {
        Some(z) => {
            w.u8(1);
            w.u32(z);
        }
        None => w.u8(0),
    }
    w.u8(codec::cycle_model_tag(spec.model));
    w.u8(codec::strategy_tag(spec.opts.strategy));
    codec::encode_spill_options(w, &spec.opts.spill);
}

/// Decodes a design point; `None` on out-of-range tags or truncation.
#[must_use]
pub fn decode_point_spec(r: &mut Reader<'_>) -> Option<PointSpec> {
    let replication = r.u32()?;
    let width = r.u32()?;
    let registers = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        _ => return None,
    };
    let model = codec::cycle_model_from(r.u8()?)?;
    let strategy = codec::strategy_from(r.u8()?)?;
    let spill = codec::decode_spill_options(r)?;
    Some(PointSpec {
        replication,
        width,
        registers,
        model,
        opts: crate::CompileOptions { strategy, spill },
    })
}

/// The content key of a `(loop × design point)` unit result: the loop
/// graph's [`codec::ddg_fingerprint`] plus every design-point field.
#[must_use]
pub fn unit_result_key(fingerprint: u128, spec: &PointSpec) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fingerprint as u64);
    w.u64((fingerprint >> 64) as u64);
    encode_point_spec(&mut w, spec);
    w.into_bytes()
}

/// The content key of a simulation summary: the unit key plus the trip
/// count the loop was executed for.
#[must_use]
pub fn sim_summary_key(fingerprint: u128, spec: &PointSpec, trip: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(fingerprint as u64);
    w.u64((fingerprint >> 64) as u64);
    encode_point_spec(&mut w, spec);
    w.u64(trip);
    w.into_bytes()
}

/// Encodes one outcome of a batch record.
fn encode_outcome_body(w: &mut Writer, outcome: &UnitOutcome) {
    match outcome {
        UnitOutcome::Ok {
            ii,
            mii,
            registers,
            spill_ops,
        } => {
            w.u8(0);
            w.u32(*ii);
            w.u32(*mii);
            w.u32(*registers);
            w.u32(*spill_ops);
        }
        UnitOutcome::Failed { cause } => {
            w.u8(1);
            match cause {
                FailureCause::Pressure { needed, available } => {
                    w.u8(0);
                    w.u32(*needed);
                    w.u32(*available);
                }
                FailureCause::Schedule => w.u8(1),
                FailureCause::Rewrite => w.u8(2),
            }
        }
    }
}

fn decode_outcome_body(r: &mut Reader<'_>) -> Option<UnitOutcome> {
    Some(match r.u8()? {
        0 => UnitOutcome::Ok {
            ii: r.u32()?,
            mii: r.u32()?,
            registers: r.u32()?,
            spill_ops: r.u32()?,
        },
        1 => UnitOutcome::Failed {
            cause: match r.u8()? {
                0 => FailureCause::Pressure {
                    needed: r.u32()?,
                    available: r.u32()?,
                },
                1 => FailureCause::Schedule,
                2 => FailureCause::Rewrite,
                _ => return None,
            },
        },
        _ => return None,
    })
}

/// The content key of a batch result record: the 128-bit hash of a
/// shard's full, ordered per-unit key list, and the list length.
/// Publisher and merger both derive it from the manifest alone — no
/// side channel names which batches exist.
#[must_use]
pub fn batch_result_key(unit_keys: &[Vec<u8>]) -> Vec<u8> {
    let mut cat = Writer::new();
    for k in unit_keys {
        cat.bytes(k);
    }
    let h = fnv128(&cat.into_bytes());
    let mut w = Writer::new();
    w.u64(h as u64);
    w.u64((h >> 64) as u64);
    w.u32(unit_keys.len() as u32);
    w.into_bytes()
}

/// Encodes a batch of `(manifest unit id, outcome)` entries as one
/// self-versioned record. Entries should be sorted by unit id so
/// identical coverage always publishes identical bytes.
#[must_use]
pub fn encode_unit_batch(entries: &[(u32, UnitOutcome)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(u32::from(BATCH_VERSION));
    w.len(entries.len());
    for (unit, outcome) in entries {
        w.u32(*unit);
        encode_outcome_body(&mut w, outcome);
    }
    w.into_bytes()
}

/// Decodes a batch result record; version skew, truncation or trailing
/// garbage read as misses.
#[must_use]
pub fn decode_unit_batch(bytes: &[u8]) -> Option<Vec<(u32, UnitOutcome)>> {
    let mut r = Reader::new(bytes);
    if r.u32()? != u32::from(BATCH_VERSION) {
        return None;
    }
    // An entry takes at least 6 bytes (unit id, tags).
    let n = r.len(6)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let unit = r.u32()?;
        entries.push((unit, decode_outcome_body(&mut r)?));
    }
    r.exhausted().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_machine::CycleModel;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "widening-exchange-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn exchange_round_trips_payloads() {
        let root = temp_root("rt");
        let ex = Exchange::open(&root).expect("temp dir");
        ex.put(BATCH_KIND, b"key", b"payload");
        assert_eq!(ex.get(BATCH_KIND, b"key").as_deref(), Some(&b"payload"[..]));
        // Kinds are separate namespaces.
        assert_eq!(ex.get(SIM_SUMMARY_KIND, b"key"), None);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn unit_outcome_round_trips() {
        let cases = [
            UnitOutcome::Ok {
                ii: 7,
                mii: 6,
                registers: 31,
                spill_ops: 4,
            },
            UnitOutcome::Failed {
                cause: FailureCause::Pressure {
                    needed: 40,
                    available: 32,
                },
            },
            UnitOutcome::Failed {
                cause: FailureCause::Schedule,
            },
            UnitOutcome::Failed {
                cause: FailureCause::Rewrite,
            },
        ];
        for o in cases {
            let bytes = encode_unit_batch(&[(11, o)]);
            assert_eq!(decode_unit_batch(&bytes), Some(vec![(11, o)]));
            // Truncation and version skew are misses, not panics.
            assert_eq!(decode_unit_batch(&bytes[..bytes.len() - 1]), None);
            let mut skew = bytes.clone();
            skew[0] ^= 0xff;
            assert_eq!(decode_unit_batch(&skew), None);
        }
    }

    #[test]
    fn unit_batch_round_trips_and_keys_separate_parts() {
        let entries = vec![
            (
                3u32,
                UnitOutcome::Ok {
                    ii: 5,
                    mii: 5,
                    registers: 17,
                    spill_ops: 0,
                },
            ),
            (
                9u32,
                UnitOutcome::Failed {
                    cause: FailureCause::Pressure {
                        needed: 40,
                        available: 32,
                    },
                },
            ),
        ];
        let bytes = encode_unit_batch(&entries);
        assert_eq!(decode_unit_batch(&bytes), Some(entries.clone()));
        assert_eq!(decode_unit_batch(&bytes[..bytes.len() - 1]), None);
        let mut skew = bytes.clone();
        skew[0] ^= 0xff;
        assert_eq!(decode_unit_batch(&skew), None);
        // Different unit lists — other shards, a prefix, another order —
        // use distinct keys.
        let keys = vec![b"unit-a".to_vec(), b"unit-b".to_vec()];
        let swapped = vec![keys[1].clone(), keys[0].clone()];
        assert_ne!(batch_result_key(&keys), batch_result_key(&keys[..1]));
        assert_ne!(batch_result_key(&keys), batch_result_key(&swapped));
    }

    #[test]
    fn golden_batch_record() {
        let entries = [
            (
                3,
                UnitOutcome::Ok {
                    ii: 5,
                    mii: 4,
                    registers: 17,
                    spill_ops: 2,
                },
            ),
            (
                9,
                UnitOutcome::Failed {
                    cause: FailureCause::Pressure {
                        needed: 40,
                        available: 32,
                    },
                },
            ),
            (
                10,
                UnitOutcome::Failed {
                    cause: FailureCause::Schedule,
                },
            ),
        ];
        let hex: String = encode_unit_batch(&entries)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "01000000030000000300000000050000000400000011000000020000000900\
             0000010028000000200000000a0000000101"
        );
    }

    #[test]
    fn golden_point_spec_bytes() {
        // Every stage and result key on disk holds these bytes; the
        // spill options end with the engine's round budget (48) and
        // per-round spill count (4).
        let spec = PointSpec::scheduled(
            &"4w2(64:1)".parse().unwrap(),
            CycleModel::Cycles4,
            crate::CompileOptions::default(),
        );
        let mut w = Writer::new();
        encode_point_spec(&mut w, &spec);
        let hex: String = w.into_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "040000000200000001400000000300003000000004000000");
    }

    #[test]
    fn point_specs_with_other_spill_budgets_are_misses() {
        let spec = PointSpec::scheduled(
            &"4w2(64:1)".parse().unwrap(),
            CycleModel::Cycles4,
            crate::CompileOptions::default(),
        );
        let mut w = Writer::new();
        encode_point_spec(&mut w, &spec);
        let bytes = w.into_bytes();
        // The last eight bytes are the round budget and the per-round
        // spill count.
        let budgets = bytes.len() - 8;
        for (at, value) in [(budgets, 6u32), (budgets + 4, 5)] {
            let mut other = bytes.clone();
            other[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert_eq!(decode_point_spec(&mut Reader::new(&other)), None);
        }
    }

    #[test]
    fn point_spec_round_trips_and_keys_differ() {
        let scheduled = PointSpec::scheduled(
            &"4w2(128:1)".parse().unwrap(),
            CycleModel::Cycles2,
            crate::CompileOptions::default(),
        );
        let peak = PointSpec::peak(2, 2, CycleModel::Cycles4);
        for spec in [scheduled, peak] {
            let mut w = Writer::new();
            encode_point_spec(&mut w, &spec);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_point_spec(&mut r), Some(spec));
            assert!(r.exhausted());
        }
        assert_ne!(unit_result_key(1, &scheduled), unit_result_key(1, &peak));
        assert_ne!(unit_result_key(1, &peak), unit_result_key(2, &peak));
        // The sim key extends the unit key with the trip count.
        assert_ne!(
            sim_summary_key(1, &peak, 100),
            sim_summary_key(1, &peak, 101)
        );
    }

    // Batch records are read back from a store other processes write:
    // whatever bytes they hold, decoding returns exactly the entries
    // the bytes encode, or `None` — never a panic.
    mod decoding {
        use super::*;
        use proptest::prelude::*;

        fn arb_outcome() -> impl Strategy<Value = UnitOutcome> {
            let ok = (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
                |(ii, mii, registers, spill_ops)| UnitOutcome::Ok {
                    ii,
                    mii,
                    registers,
                    spill_ops,
                },
            );
            let pressure =
                (any::<u32>(), any::<u32>()).prop_map(|(needed, available)| UnitOutcome::Failed {
                    cause: FailureCause::Pressure { needed, available },
                });
            prop_oneof![
                ok,
                pressure,
                Just(UnitOutcome::Failed {
                    cause: FailureCause::Schedule
                }),
                Just(UnitOutcome::Failed {
                    cause: FailureCause::Rewrite
                }),
            ]
        }

        fn arb_batch() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec((any::<u32>(), arb_outcome()), 0..12)
                .prop_map(|entries| encode_unit_batch(&entries))
        }

        /// `None`, or entries that re-encode to exactly `bytes`.
        fn decodes_exactly_or_not_at_all(bytes: &[u8]) -> Result<(), TestCaseError> {
            if let Some(entries) = decode_unit_batch(bytes) {
                prop_assert_eq!(encode_unit_batch(&entries), bytes);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                decodes_exactly_or_not_at_all(&bytes)?;
                // Behind a valid version, the count and entries are
                // random.
                let mut framed = u32::from(BATCH_VERSION).to_le_bytes().to_vec();
                framed.extend_from_slice(&bytes);
                decodes_exactly_or_not_at_all(&framed)?;
            }

            #[test]
            fn truncation_is_rejected(
                bytes in arb_batch(),
                extra in proptest::collection::vec(any::<u8>(), 1..8),
            ) {
                decodes_exactly_or_not_at_all(&bytes)?;
                prop_assert!(decode_unit_batch(&bytes).is_some());
                for cut in 0..bytes.len() {
                    prop_assert_eq!(decode_unit_batch(&bytes[..cut]), None);
                }
                // Trailing bytes are rejected too.
                let mut extended = bytes;
                extended.extend_from_slice(&extra);
                prop_assert_eq!(decode_unit_batch(&extended), None);
            }

            #[test]
            fn bit_flips_never_panic(bytes in arb_batch(), bit in any::<usize>()) {
                let mut flipped = bytes;
                let at = bit % (flipped.len() * 8);
                flipped[at / 8] ^= 1 << (at % 8);
                decodes_exactly_or_not_at_all(&flipped)?;
            }
        }
    }
}
