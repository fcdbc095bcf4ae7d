//! The sweep manifest: the frozen inputs of one distributed parameter
//! study, plus its guided self-scheduled sharding of the unit grid.

use widening_cost::sweep_priority;
use widening_ir::{Loop, LoopBuilder};
use widening_pipeline::codec::{self, Reader, Writer};
use widening_pipeline::exchange::{
    batch_result_key, decode_point_spec, encode_point_spec, unit_result_key,
};
use widening_pipeline::PointSpec;

/// Bump on any change to the manifest encoding or to the meaning of its
/// shards: stale queues (and workers built before the change) then read
/// the manifest as unreadable instead of mis-decoding it.
const MANIFEST_VERSION: u32 = 2;
const MAGIC: [u8; 4] = *b"WSWP";

/// Fewest bytes one encoded loop can take: name length, trip count and
/// weight (the name and graph may add more).
const MIN_LOOP_BYTES: usize = 4 + 8 + 8;
/// Fewest bytes one encoded design point can take: replication, width,
/// the register-file tag, cycle model, strategy and spill options.
const MIN_SPEC_BYTES: usize = 4 + 4 + 1 + 1 + 1 + 9;
/// Bytes one unit id (or one length prefix) takes.
const U32_BYTES: usize = 4;

/// Everything a worker needs to run its share of a sweep: the corpus,
/// the design points, and which `(loop × design point)` units each
/// shard owns. Workers are launched with nothing but a queue directory
/// — the manifest makes them self-contained, so a worker on another
/// host needs no corpus flags, only the shared filesystem.
///
/// A **unit** is `spec_index * loops.len() + loop_index`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// The corpus, in evaluation order (the merge folds results in this
    /// order, which is what makes distributed aggregates bitwise-equal
    /// to a single-process sweep).
    pub loops: Vec<Loop>,
    /// The design points, in caller order.
    pub specs: Vec<PointSpec>,
    /// Unit ids per shard. Every unit appears in exactly one shard.
    pub shards: Vec<Vec<u32>>,
}

impl SweepManifest {
    /// Builds a manifest cutting the `loops × specs` grid into
    /// **guided self-scheduled** shards for a fleet of `workers` workers
    /// (Polychronopoulos & Kuck, IEEE TC 1987):
    ///
    /// * **columns** — a loop's entire design-point column lands in one
    ///   shard, so its widened graphs, MII bounds and base schedules are
    ///   computed by exactly one worker instead of being raced by all of
    ///   them through the disk tier;
    /// * **shrinking shards** — shard *i* takes ⌈Rᵢ/p⌉ of the Rᵢ columns
    ///   not yet assigned, in corpus order, where p = `workers`. Workers
    ///   claim shards in order, so the big early shards keep them busy
    ///   and the small late ones even out the finish, with no stealing;
    /// * **priority-ordered units** — within each shard, units run
    ///   heaviest design point first ([`sweep_priority`]: pressure- and
    ///   width-heavy points lead, peak points trail), the
    ///   longest-processing-time ordering that cuts tail latency. Tied
    ///   points keep input order; each point's units keep corpus order.
    #[must_use]
    pub fn partition(loops: Vec<Loop>, specs: Vec<PointSpec>, workers: usize) -> Self {
        let n = loops.len();
        // Design points, heaviest first (stable: ties keep input order).
        let mut spec_order: Vec<u32> = (0..specs.len() as u32).collect();
        spec_order.sort_by_key(|&si| {
            let spec = &specs[si as usize];
            std::cmp::Reverse(sweep_priority(spec.replication, spec.width, spec.registers))
        });
        let p = workers.max(1);
        let mut shards = Vec::new();
        let mut start = 0;
        while start < n {
            let columns = start as u32..(start + (n - start).div_ceil(p)) as u32;
            start = columns.end as usize;
            let shard = spec_order
                .iter()
                .flat_map(|&si| columns.clone().map(move |li| si * n as u32 + li))
                .collect();
            shards.push(shard);
        }
        SweepManifest {
            loops,
            specs,
            shards,
        }
    }

    /// Total units in the grid.
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.loops.len() * self.specs.len()
    }

    /// The corpus index of a unit.
    #[must_use]
    pub fn loop_of(&self, unit: u32) -> usize {
        unit as usize % self.loops.len()
    }

    /// The design-point index of a unit.
    #[must_use]
    pub fn spec_of(&self, unit: u32) -> usize {
        unit as usize / self.loops.len()
    }

    /// The exchange key of a shard's batch result record: the
    /// [`batch_result_key`] of every unit's content-addressed result
    /// key, in the shard's list order. Publisher and merge both derive
    /// it from the manifest alone. `fingerprints` is the per-loop graph
    /// fingerprint table, parallel to [`SweepManifest::loops`].
    #[must_use]
    pub fn batch_key(&self, shard: usize, fingerprints: &[u128]) -> Vec<u8> {
        let keys: Vec<Vec<u8>> = self.shards[shard]
            .iter()
            .map(|&u| unit_result_key(fingerprints[self.loop_of(u)], &self.specs[self.spec_of(u)]))
            .collect();
        batch_result_key(&keys)
    }

    /// Content fingerprint of the whole manifest (used to name queue
    /// directories so unrelated sweeps never collide).
    #[must_use]
    pub fn fingerprint(&self) -> u128 {
        codec::fnv128(&self.encode())
    }

    /// Encodes the manifest as a self-versioned record.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(MANIFEST_VERSION);
        w.len(self.loops.len());
        for l in &self.loops {
            let name = l.name().as_bytes();
            w.len(name.len());
            w.bytes(name);
            w.u64(l.trip_count());
            w.u64(l.weight().to_bits());
            codec::encode_ddg(&mut w, l.ddg());
        }
        w.len(self.specs.len());
        for spec in &self.specs {
            encode_point_spec(&mut w, spec);
        }
        w.len(self.shards.len());
        for shard in &self.shards {
            w.len(shard.len());
            for &u in shard {
                w.u32(u);
            }
        }
        w.into_bytes()
    }

    /// Decodes and validates a manifest: every graph re-runs full
    /// validation, loop statistics must be sane (decoding can never
    /// panic a worker), and the sharding must cover every unit exactly
    /// once. `None` on any mismatch. Counts read from the bytes never
    /// size an allocation beyond what the bytes left could hold.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC || r.u32()? != MANIFEST_VERSION {
            return None;
        }
        let nloops = r.len()?;
        let mut loops = Vec::with_capacity(nloops.min(r.remaining() / MIN_LOOP_BYTES));
        for _ in 0..nloops {
            let name_len = r.len()?;
            let name = std::str::from_utf8(r.take(name_len)?).ok()?;
            let trip = r.u64()?;
            let weight = f64::from_bits(r.u64()?);
            if trip == 0 || !weight.is_finite() || weight <= 0.0 {
                return None;
            }
            let ddg = codec::decode_ddg(&mut r)?;
            loops.push(
                LoopBuilder::new(name, ddg)
                    .trip_count(trip)
                    .weight(weight)
                    .build(),
            );
        }
        let nspecs = r.len()?;
        let mut specs = Vec::with_capacity(nspecs.min(r.remaining() / MIN_SPEC_BYTES));
        for _ in 0..nspecs {
            specs.push(decode_point_spec(&mut r)?);
        }
        let nshards = r.len()?;
        // Every unit must appear in some shard's list, 4 bytes each: a
        // grid the rest of the buffer cannot cover is rejected before
        // its coverage map is allocated.
        let total = nloops.checked_mul(nspecs)?;
        if total > r.remaining() / U32_BYTES {
            return None;
        }
        let mut seen = vec![false; total];
        let mut shards = Vec::with_capacity(nshards.min(r.remaining() / U32_BYTES));
        for _ in 0..nshards {
            let len = r.len()?;
            let mut shard = Vec::with_capacity(len.min(r.remaining() / U32_BYTES));
            for _ in 0..len {
                let u = r.u32()?;
                let slot = seen.get_mut(u as usize)?;
                if std::mem::replace(slot, true) {
                    return None; // unit in two shards
                }
                shard.push(u);
            }
            shards.push(shard);
        }
        if !r.exhausted() || seen.iter().any(|covered| !covered) {
            return None;
        }
        Some(SweepManifest {
            loops,
            specs,
            shards,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_machine::CycleModel;
    use widening_pipeline::CompileOptions;
    use widening_workload::kernels;

    fn specs() -> Vec<PointSpec> {
        ["1w1(256:1)", "8w1(32:1)", "4w2(64:1)"]
            .iter()
            .map(|s| {
                PointSpec::scheduled(
                    &s.parse().unwrap(),
                    CycleModel::Cycles4,
                    CompileOptions::default(),
                )
            })
            .collect()
    }

    /// The loop columns of each shard, in shard order.
    fn columns(m: &SweepManifest) -> Vec<Vec<usize>> {
        m.shards
            .iter()
            .map(|shard| {
                let mut cols: Vec<usize> = shard.iter().map(|&u| m.loop_of(u)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect()
    }

    #[test]
    fn round_trips_and_validates() {
        let m = SweepManifest::partition(kernels::all(), specs(), 3);
        let bytes = m.encode();
        let back = SweepManifest::decode(&bytes).expect("decodes");
        assert_eq!(back, m);
        // Any single-byte corruption decodes to None or an equal value,
        // never panics; truncation always fails.
        assert!(SweepManifest::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut skew = bytes.clone();
        skew[5] ^= 0xff; // version
        assert!(SweepManifest::decode(&skew).is_none());
    }

    #[test]
    fn partition_covers_every_unit_exactly_once() {
        for p in [1, 2, 3, 5, 64] {
            let m = SweepManifest::partition(kernels::all(), specs(), p);
            let mut seen = vec![0u32; m.unit_count()];
            for shard in &m.shards {
                for &u in shard {
                    seen[u as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "p = {p}");
        }
    }

    #[test]
    fn sharding_is_loop_major() {
        // A loop's whole design-point column must stay in one shard, so
        // exactly one worker ever derives its widen/MII/base stages.
        let m = SweepManifest::partition(kernels::all(), specs(), 3);
        for (shard, cols) in m.shards.iter().zip(columns(&m)) {
            assert_eq!(shard.len(), cols.len() * m.specs.len(), "{cols:?}");
        }
    }

    #[test]
    fn shards_follow_guided_self_scheduling() {
        // Shard i takes ⌈Rᵢ/p⌉ of the Rᵢ columns left, in corpus order,
        // so column counts never increase.
        for p in [1, 2, 3, 7] {
            let m = SweepManifest::partition(kernels::all(), specs(), p);
            let mut next = 0;
            let mut counts = Vec::new();
            for cols in columns(&m) {
                let left = m.loops.len() - next;
                assert_eq!(cols, (next..next + left.div_ceil(p)).collect::<Vec<_>>());
                next += cols.len();
                counts.push(cols.len());
            }
            assert_eq!(next, m.loops.len(), "p = {p}: every column assigned");
            assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        }
        // The fleet_sweep shape: 300 loops over p = 2.
        let loops: Vec<Loop> = (0..300).map(|i| kernels::all()[i % 4].clone()).collect();
        let m = SweepManifest::partition(loops, specs(), 2);
        let counts: Vec<usize> = columns(&m).iter().map(Vec::len).collect();
        assert_eq!(counts, [150, 75, 38, 19, 9, 5, 2, 1, 1]);
    }

    #[test]
    fn one_worker_gets_one_shard_and_a_wide_fleet_one_column_each() {
        let n = kernels::all().len();
        let single = SweepManifest::partition(kernels::all(), specs(), 1);
        assert_eq!(single.shards.len(), 1);
        assert_eq!(single.shards[0].len(), single.unit_count());
        // Fewer loops than p: one column per shard.
        let wide = SweepManifest::partition(kernels::all(), specs(), n + 3);
        assert_eq!(wide.shards.len(), n);
        assert!(columns(&wide).iter().all(|cols| cols.len() == 1));
    }

    #[test]
    fn heavy_units_lead_every_shard() {
        // 8w1(32:1) outranks 4w2(64:1) outranks 1w1(256:1): each
        // shard's unit list must be priority-sorted, heaviest first.
        for p in [1, 2, 4] {
            let m = SweepManifest::partition(kernels::all(), specs(), p);
            for shard in &m.shards {
                let prios: Vec<u64> = shard
                    .iter()
                    .map(|&u| {
                        let spec = &m.specs[m.spec_of(u)];
                        sweep_priority(spec.replication, spec.width, spec.registers)
                    })
                    .collect();
                assert!(prios.windows(2).all(|w| w[0] >= w[1]), "{prios:?}");
                // And the heaviest spec, the pressure-starved 8w1(32),
                // opens every shard.
                assert_eq!(m.spec_of(shard[0]), 1);
            }
        }
    }

    #[test]
    fn partition_fingerprint_is_pinned() {
        // The encoding covers every shard's unit list, so any drift in
        // the shard shape or the unit order inside a shard moves it.
        let m = SweepManifest::partition(kernels::all(), specs(), 3);
        assert_eq!(m.fingerprint(), 0x546d_784e_8d32_892e_3a83_a889_805c_752d);
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        // A header claiming 2²⁴ loops, then nothing: rejected by the
        // first loop's read, with a capacity bounded by the empty tail.
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(MANIFEST_VERSION);
        w.u32(1 << 24);
        assert!(SweepManifest::decode(&w.into_bytes()).is_none());
        // A real corpus and grid whose shard lists are missing: the
        // coverage map is never sized from the claimed grid.
        let m = SweepManifest::partition(kernels::all(), specs(), 2);
        let mut bytes = m.encode();
        let shards_at = bytes.len() - 4 * (m.unit_count() + m.shards.len() + 1);
        bytes.truncate(shards_at);
        bytes.extend_from_slice(&(1u32 << 24).to_le_bytes());
        assert!(SweepManifest::decode(&bytes).is_none());
    }

    // Manifests are read back from a shared queue directory: whatever
    // bytes they hold, decoding returns exactly the manifest the bytes
    // encode, or `None` — never a panic.
    mod decoding {
        use super::*;
        use proptest::prelude::*;

        fn arb_manifest() -> impl Strategy<Value = SweepManifest> {
            (1usize..5, 1usize..4, 1usize..4).prop_map(|(nloops, nspecs, p)| {
                let loops = kernels::all().into_iter().cycle().take(nloops).collect();
                let specs = specs().into_iter().take(nspecs).collect();
                SweepManifest::partition(loops, specs, p)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
                let _ = SweepManifest::decode(&bytes);
                // With a valid header, the counts behind it are random.
                let mut framed = MAGIC.to_vec();
                framed.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
                framed.extend_from_slice(&bytes);
                if let Some(m) = SweepManifest::decode(&framed) {
                    prop_assert_eq!(m.encode(), framed);
                }
            }

            #[test]
            fn truncation_is_rejected(m in arb_manifest()) {
                let bytes = m.encode();
                prop_assert_eq!(SweepManifest::decode(&bytes), Some(m));
                for cut in 0..bytes.len() {
                    prop_assert_eq!(SweepManifest::decode(&bytes[..cut]), None);
                }
            }

            #[test]
            fn bit_flips_never_panic(m in arb_manifest(), bit in any::<usize>()) {
                let mut bytes = m.encode();
                let at = bit % (bytes.len() * 8);
                bytes[at / 8] ^= 1 << (at % 8);
                // A flip decodes to the manifest the flipped bytes
                // encode, or to nothing.
                if let Some(decoded) = SweepManifest::decode(&bytes) {
                    prop_assert_eq!(decoded.encode(), bytes);
                }
            }
        }
    }
}
