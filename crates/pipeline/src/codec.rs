//! The versioned binary codecs of the persisted stage artifacts, and
//! the canonical dependence-graph encoding behind loop fingerprints.
//!
//! Every record is written and read with the shared `widening-wire`
//! primitives. Decoding is *total* — every function returns `Option`
//! and rejects out-of-range tags, truncated buffers and structurally
//! inconsistent parts instead of panicking — and *verifying* where it
//! matters: dependence graphs re-run [`Ddg::from_parts`] validation,
//! schedules are re-verified against their graph and machine through
//! [`Schedule::new`], and allocations re-check their location-table
//! invariants. A corrupt cache file therefore degrades to a cache miss,
//! never to a wrong result.
//!
//! The public surface is [`encode_ddg`], [`decode_ddg`] and
//! [`ddg_fingerprint`]: the fleet's manifest carries loop graphs in this
//! encoding, and workers on different hosts agree on result keys through
//! the fingerprint.
//!
//! Format versioning for stage artifacts lives in the container header
//! written by the disk tier (`crate::disk`); bump its `FORMAT_VERSION`
//! whenever any encoding below changes shape.

use std::sync::Arc;

use widening_ir::{Compactability, Ddg, Edge, EdgeKind, GraphError, NodeId, Op, OpKind};
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::{
    Lifetime, PressureResult, RegisterAllocation, SpillOptions, SpillPolicy, SpillRecord,
};
use widening_sched::{MiiBounds, RecurrenceInfo, Schedule, ScheduleError, Strategy};
use widening_transform::{CompactReason, NodeMapping, WideningOutcome};
use widening_wire::{fnv128, Reader, Writer};

use crate::error::PipelineError;
use crate::stage::{BaseSchedule, ScheduledStage};

/// Content fingerprint of a dependence graph: the 128-bit hash of its
/// canonical encoding. Loops with identical bodies share artifacts on
/// disk regardless of corpus position, which is what makes the
/// disk-tier keys stable across processes with reordered corpora — and
/// what lets distributed sweep workers on different hosts agree on
/// result keys without exchanging loop indices.
#[must_use]
pub fn ddg_fingerprint(ddg: &Ddg) -> u128 {
    let mut w = Writer::new();
    encode_ddg(&mut w, ddg);
    fnv128(&w.into_bytes())
}

// ---------------------------------------------------------------------
// Enum tags. Stable by construction: match arms, not derived ordinals.

fn op_kind_tag(k: OpKind) -> u8 {
    match k {
        OpKind::Load => 0,
        OpKind::Store => 1,
        OpKind::FAdd => 2,
        OpKind::FSub => 3,
        OpKind::FMul => 4,
        OpKind::FDiv => 5,
        OpKind::FSqrt => 6,
        OpKind::FCopy => 7,
    }
}

fn op_kind_from(tag: u8) -> Option<OpKind> {
    OpKind::ALL.get(tag as usize).copied()
}

fn edge_kind_tag(k: EdgeKind) -> u8 {
    match k {
        EdgeKind::Flow => 0,
        EdgeKind::Memory => 1,
        EdgeKind::Order => 2,
    }
}

fn edge_kind_from(tag: u8) -> Option<EdgeKind> {
    match tag {
        0 => Some(EdgeKind::Flow),
        1 => Some(EdgeKind::Memory),
        2 => Some(EdgeKind::Order),
        _ => None,
    }
}

pub(crate) fn cycle_model_tag(m: CycleModel) -> u8 {
    match m {
        CycleModel::Cycles1 => 0,
        CycleModel::Cycles2 => 1,
        CycleModel::Cycles3 => 2,
        CycleModel::Cycles4 => 3,
    }
}

pub(crate) fn cycle_model_from(tag: u8) -> Option<CycleModel> {
    match tag {
        0 => Some(CycleModel::Cycles1),
        1 => Some(CycleModel::Cycles2),
        2 => Some(CycleModel::Cycles3),
        3 => Some(CycleModel::Cycles4),
        _ => None,
    }
}

pub(crate) fn strategy_tag(s: Strategy) -> u8 {
    match s {
        Strategy::Hrms => 0,
        Strategy::Ims => 1,
        Strategy::Asap => 2,
    }
}

pub(crate) fn strategy_from(tag: u8) -> Option<Strategy> {
    match tag {
        0 => Some(Strategy::Hrms),
        1 => Some(Strategy::Ims),
        2 => Some(Strategy::Asap),
        _ => None,
    }
}

pub(crate) fn spill_policy_tag(p: SpillPolicy) -> u8 {
    match p {
        SpillPolicy::Adaptive => 0,
        SpillPolicy::SpillFirst => 1,
        SpillPolicy::IncreaseIiOnly => 2,
    }
}

pub(crate) fn spill_policy_from(tag: u8) -> Option<SpillPolicy> {
    match tag {
        0 => Some(SpillPolicy::Adaptive),
        1 => Some(SpillPolicy::SpillFirst),
        2 => Some(SpillPolicy::IncreaseIiOnly),
        _ => None,
    }
}

fn compact_reason_tag(r: CompactReason) -> u8 {
    match r {
        CompactReason::Compactable => 0,
        CompactReason::HintedNever => 1,
        CompactReason::NonUnitStride => 2,
        CompactReason::TightRecurrence => 3,
    }
}

fn compact_reason_from(tag: u8) -> Option<CompactReason> {
    match tag {
        0 => Some(CompactReason::Compactable),
        1 => Some(CompactReason::HintedNever),
        2 => Some(CompactReason::NonUnitStride),
        3 => Some(CompactReason::TightRecurrence),
        _ => None,
    }
}

/// Encodes the spill options into a key blob (also reused inside error
/// payload-free contexts; options never travel in artifact payloads).
pub(crate) fn encode_spill_options(w: &mut Writer, s: &SpillOptions) {
    w.u8(spill_policy_tag(s.policy));
    w.u32(s.max_rounds);
    w.u32(s.max_spills_per_round);
}

pub(crate) fn decode_spill_options(r: &mut Reader<'_>) -> Option<SpillOptions> {
    Some(SpillOptions {
        policy: spill_policy_from(r.u8()?)?,
        max_rounds: r.u32()?,
        max_spills_per_round: r.u32()?,
    })
}

// ---------------------------------------------------------------------
// Graphs.

/// Encodes a dependence graph in its canonical wire form (ops with
/// stride/compactability flags, then edges) — the byte stream
/// [`ddg_fingerprint`] hashes.
pub fn encode_ddg(w: &mut Writer, ddg: &Ddg) {
    w.len(ddg.num_nodes());
    for op in ddg.ops() {
        w.u8(op_kind_tag(op.kind()));
        let never = matches!(op.compactability(), Compactability::Never);
        match op.stride() {
            Some(stride) => {
                w.u8(1 | u8::from(never) << 1);
                w.i64(stride);
            }
            None => w.u8(u8::from(never) << 1),
        }
    }
    w.len(ddg.num_edges());
    for e in ddg.edges() {
        w.u32(e.src.0);
        w.u32(e.dst.0);
        w.u8(edge_kind_tag(e.kind));
        w.u32(e.distance);
    }
}

/// Decodes a dependence graph, re-running full [`Ddg::from_parts`]
/// validation — a corrupt buffer yields `None`, never an invalid graph.
pub fn decode_ddg(r: &mut Reader<'_>) -> Option<Ddg> {
    // An op takes at least 2 bytes (kind, flags) and an edge 13.
    let n = r.len(2)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = op_kind_from(r.u8()?)?;
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return None;
        }
        let has_stride = flags & 1 != 0;
        if has_stride != kind.is_memory() {
            return None;
        }
        let mut op = if has_stride {
            Op::memory(kind, r.i64()?)
        } else {
            Op::new(kind)
        };
        if flags & 0b10 != 0 {
            op = op.never_compactable();
        }
        ops.push(op);
    }
    let m = r.len(13)?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        edges.push(Edge {
            src: NodeId(r.u32()?),
            dst: NodeId(r.u32()?),
            kind: edge_kind_from(r.u8()?)?,
            distance: r.u32()?,
        });
    }
    Ddg::from_parts(ops, edges).ok()
}

// ---------------------------------------------------------------------
// Schedules, lifetimes, allocations.

fn encode_schedule(w: &mut Writer, s: &Schedule) {
    w.u32(s.ii());
    w.len(s.times().len());
    for &t in s.times() {
        w.u32(t);
    }
}

/// Decodes and *re-verifies* a schedule against the graph and machine it
/// claims to schedule: every dependence and resource constraint is
/// checked by [`Schedule::new`], so a stale artifact for a changed graph
/// decodes to `None` rather than an invalid schedule.
fn decode_schedule(
    r: &mut Reader<'_>,
    ddg: &Ddg,
    cfg: &Configuration,
    model: CycleModel,
) -> Option<Schedule> {
    let ii = r.u32()?;
    let n = r.len(4)?;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        times.push(r.u32()?);
    }
    Schedule::new(ddg, cfg, model, ii, times).ok()
}

fn encode_lifetimes(w: &mut Writer, lts: &[Lifetime]) {
    w.len(lts.len());
    for lt in lts {
        w.u32(lt.def.0);
        w.u32(lt.start);
        w.u32(lt.end);
    }
}

fn decode_lifetimes(r: &mut Reader<'_>) -> Option<Vec<Lifetime>> {
    let n = r.len(12)?;
    let mut lts = Vec::with_capacity(n);
    for _ in 0..n {
        let def = NodeId(r.u32()?);
        let start = r.u32()?;
        let end = r.u32()?;
        if end <= start {
            return None;
        }
        lts.push(Lifetime { def, start, end });
    }
    Some(lts)
}

fn encode_allocation(w: &mut Writer, a: &RegisterAllocation) {
    w.u32(a.registers_used());
    w.u32(a.max_lives());
    w.u32(a.kernel_unroll());
    w.len(a.assignment().len());
    for &(lt, reg) in a.assignment() {
        w.u32(lt);
        w.u32(reg);
    }
    w.len(a.locations().len());
    for &reg in a.locations() {
        w.u32(reg);
    }
}

fn decode_allocation(r: &mut Reader<'_>) -> Option<RegisterAllocation> {
    let registers_used = r.u32()?;
    let max_lives = r.u32()?;
    let kernel_unroll = r.u32()?;
    let n = r.len(8)?;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        assignment.push((r.u32()?, r.u32()?));
    }
    let m = r.len(4)?;
    let mut locations = Vec::with_capacity(m);
    for _ in 0..m {
        locations.push(r.u32()?);
    }
    RegisterAllocation::from_parts(
        registers_used,
        max_lives,
        kernel_unroll,
        assignment,
        locations,
    )
}

// ---------------------------------------------------------------------
// Stage 1: widening outcomes.

pub(crate) fn encode_widen(outcome: &WideningOutcome) -> Vec<u8> {
    let mut w = Writer::new();
    encode_ddg(&mut w, outcome.ddg());
    w.u32(outcome.width());
    w.len(outcome.mapping().len());
    for m in outcome.mapping() {
        match m {
            NodeMapping::Wide(id) => {
                w.u8(0);
                w.u32(id.0);
            }
            NodeMapping::Lanes(ids) => {
                w.u8(1);
                w.len(ids.len());
                for id in ids {
                    w.u32(id.0);
                }
            }
        }
    }
    for &reason in outcome.reasons() {
        w.u8(compact_reason_tag(reason));
    }
    w.into_bytes()
}

/// Decodes a widening outcome, checking it is the artifact the caller
/// asked for: built at `width` over a graph with `original_nodes`
/// operations.
pub(crate) fn decode_widen(
    bytes: &[u8],
    original_nodes: usize,
    width: u32,
) -> Option<WideningOutcome> {
    let mut r = Reader::new(bytes);
    let ddg = decode_ddg(&mut r)?;
    if r.u32()? != width {
        return None;
    }
    // A mapping entry takes at least 5 bytes (tag, then a node id or a
    // lane count).
    let n = r.len(5)?;
    if n != original_nodes {
        return None;
    }
    let mut mapping = Vec::with_capacity(n);
    for _ in 0..n {
        mapping.push(match r.u8()? {
            0 => NodeMapping::Wide(NodeId(r.u32()?)),
            1 => {
                let lanes = r.len(4)?;
                let mut ids = Vec::with_capacity(lanes);
                for _ in 0..lanes {
                    ids.push(NodeId(r.u32()?));
                }
                NodeMapping::Lanes(ids)
            }
            _ => return None,
        });
    }
    let mut reasons = Vec::with_capacity(n);
    for _ in 0..n {
        reasons.push(compact_reason_from(r.u8()?)?);
    }
    if !r.exhausted() {
        return None;
    }
    WideningOutcome::from_parts(ddg, width, mapping, reasons)
}

// ---------------------------------------------------------------------
// Stage 2: MII bounds.

pub(crate) fn encode_mii(bounds: &MiiBounds) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(bounds.res_mii());
    w.u32(bounds.rec_mii());
    w.len(bounds.recurrences().len());
    for rec in bounds.recurrences() {
        w.u32(rec.rec_mii);
        w.len(rec.nodes.len());
        for id in &rec.nodes {
            w.u32(id.0);
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_mii(bytes: &[u8], wide_nodes: usize) -> Option<MiiBounds> {
    let mut r = Reader::new(bytes);
    let res_mii = r.u32()?;
    let rec_mii = r.u32()?;
    // A recurrence takes at least 8 bytes (its bound, its node count).
    let n = r.len(8)?;
    let mut recurrences = Vec::with_capacity(n);
    for _ in 0..n {
        let rec = r.u32()?;
        let m = r.len(4)?;
        if m == 0 {
            return None;
        }
        let mut nodes = Vec::with_capacity(m);
        for _ in 0..m {
            let id = NodeId(r.u32()?);
            if id.index() >= wide_nodes {
                return None;
            }
            nodes.push(id);
        }
        recurrences.push(RecurrenceInfo {
            nodes,
            rec_mii: rec,
        });
    }
    if !r.exhausted() {
        return None;
    }
    Some(MiiBounds::from_parts(res_mii, rec_mii, recurrences))
}

// ---------------------------------------------------------------------
// Errors (memoized failures persist too: a warm run must replay the
// paper's pressure failures without re-running the spill engine).

fn encode_schedule_error(w: &mut Writer, e: &ScheduleError) {
    match e {
        ScheduleError::ZeroIi => w.u8(0),
        ScheduleError::WrongLength { got, expected } => {
            w.u8(1);
            w.u64(*got as u64);
            w.u64(*expected as u64);
        }
        ScheduleError::DependenceViolated { src, dst, slack } => {
            w.u8(2);
            w.u64(*src as u64);
            w.u64(*dst as u64);
            w.i64(*slack);
        }
        ScheduleError::ResourceOverflow { node } => {
            w.u8(3);
            w.u64(*node as u64);
        }
        ScheduleError::NoSchedule { max_ii_tried } => {
            w.u8(4);
            w.u32(*max_ii_tried);
        }
        // `ScheduleError` is non_exhaustive: encode unknown future
        // variants as the generic no-schedule case so persisting is
        // total (the cause classification is identical).
        _ => {
            w.u8(4);
            w.u32(0);
        }
    }
}

fn decode_schedule_error(r: &mut Reader<'_>) -> Option<ScheduleError> {
    Some(match r.u8()? {
        0 => ScheduleError::ZeroIi,
        1 => ScheduleError::WrongLength {
            got: r.u64()? as usize,
            expected: r.u64()? as usize,
        },
        2 => ScheduleError::DependenceViolated {
            src: r.u64()? as usize,
            dst: r.u64()? as usize,
            slack: r.i64()?,
        },
        3 => ScheduleError::ResourceOverflow {
            node: r.u64()? as usize,
        },
        4 => ScheduleError::NoSchedule {
            max_ii_tried: r.u32()?,
        },
        _ => return None,
    })
}

fn encode_graph_error(w: &mut Writer, e: &GraphError) {
    match e {
        GraphError::NodeOutOfRange { index, len } => {
            w.u8(0);
            w.u64(*index as u64);
            w.u64(*len as u64);
        }
        GraphError::FlowFromValueless { src } => {
            w.u8(1);
            w.u64(*src as u64);
        }
        GraphError::ZeroDistanceCycle { witness } => {
            w.u8(2);
            w.u64(*witness as u64);
        }
        GraphError::Empty => w.u8(3),
        // `GraphError` is non_exhaustive: encode unknown future variants
        // as the generic empty-graph case (the cause classification —
        // a rewrite defect — is identical).
        _ => w.u8(3),
    }
}

fn decode_graph_error(r: &mut Reader<'_>) -> Option<GraphError> {
    Some(match r.u8()? {
        0 => GraphError::NodeOutOfRange {
            index: r.u64()? as usize,
            len: r.u64()? as usize,
        },
        1 => GraphError::FlowFromValueless {
            src: r.u64()? as usize,
        },
        2 => GraphError::ZeroDistanceCycle {
            witness: r.u64()? as usize,
        },
        3 => GraphError::Empty,
        _ => return None,
    })
}

fn encode_pipeline_error(w: &mut Writer, e: &PipelineError) {
    match e {
        PipelineError::Pressure { needed, available } => {
            w.u8(0);
            w.u32(*needed);
            w.u32(*available);
        }
        PipelineError::Schedule(e) => {
            w.u8(1);
            encode_schedule_error(w, e);
        }
        PipelineError::Rewrite(e) => {
            w.u8(2);
            encode_graph_error(w, e);
        }
    }
}

fn decode_pipeline_error(r: &mut Reader<'_>) -> Option<PipelineError> {
    Some(match r.u8()? {
        0 => PipelineError::Pressure {
            needed: r.u32()?,
            available: r.u32()?,
        },
        1 => PipelineError::Schedule(decode_schedule_error(r)?),
        2 => PipelineError::Rewrite(decode_graph_error(r)?),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Stage 3a: base schedules.

pub(crate) fn encode_base(result: &Result<Arc<BaseSchedule>, PipelineError>) -> Vec<u8> {
    let mut w = Writer::new();
    match result {
        Ok(base) => {
            w.u8(0);
            encode_schedule(&mut w, &base.schedule);
            encode_lifetimes(&mut w, &base.lifetimes);
            encode_allocation(&mut w, &base.allocation);
            w.u32(base.needed);
        }
        Err(e) => {
            w.u8(1);
            encode_pipeline_error(&mut w, e);
        }
    }
    w.into_bytes()
}

/// Decodes a base schedule against the wide graph and machine it was
/// scheduled for (the schedule is re-verified on both).
pub(crate) fn decode_base(
    bytes: &[u8],
    wide: &Ddg,
    cfg: &Configuration,
    model: CycleModel,
) -> Option<Result<Arc<BaseSchedule>, PipelineError>> {
    let mut r = Reader::new(bytes);
    let result = match r.u8()? {
        0 => {
            let schedule = decode_schedule(&mut r, wide, cfg, model)?;
            let lifetimes = decode_lifetimes(&mut r)?;
            let allocation = decode_allocation(&mut r)?;
            let needed = r.u32()?;
            if needed != allocation.registers_used() {
                return None;
            }
            Ok(Arc::new(BaseSchedule::from_parts(
                schedule, allocation, lifetimes, needed,
            )))
        }
        1 => Err(decode_pipeline_error(&mut r)?),
        _ => return None,
    };
    r.exhausted().then_some(result)
}

// ---------------------------------------------------------------------
// Stage 3: scheduled stages (schedule + allocation + final graph with
// spill code).

fn encode_spills(w: &mut Writer, spills: &[SpillRecord]) {
    w.len(spills.len());
    for s in spills {
        w.u32(s.victim.0);
        w.u32(s.store.0);
        w.len(s.reloads.len());
        for &(distance, reload) in &s.reloads {
            w.u32(distance);
            w.u32(reload.0);
        }
    }
}

fn decode_spills(r: &mut Reader<'_>, nodes: usize) -> Option<Vec<SpillRecord>> {
    // A spill takes at least 12 bytes (victim, store, reload count).
    let n = r.len(12)?;
    let mut spills = Vec::with_capacity(n);
    for _ in 0..n {
        let victim = NodeId(r.u32()?);
        let store = NodeId(r.u32()?);
        let m = r.len(8)?;
        let mut reloads = Vec::with_capacity(m);
        for _ in 0..m {
            reloads.push((r.u32()?, NodeId(r.u32()?)));
        }
        if victim.index() >= nodes
            || store.index() >= nodes
            || reloads.iter().any(|&(_, id)| id.index() >= nodes)
        {
            return None;
        }
        spills.push(SpillRecord {
            victim,
            store,
            reloads,
        });
    }
    Some(spills)
}

/// A decoded schedule-stage artifact: either a self-contained stage (or
/// memoized failure), or a marker saying "round 1 of the base schedule
/// fits this register file". Fit stages are shared by every fitting `Z`
/// in memory, so persisting the marker instead of a full copy per `Z`
/// keeps the disk store deduplicated and lets a warm start rebuild the
/// *shared* artifact from the (single) persisted base schedule.
#[derive(Debug)]
pub(crate) enum SchedPayload {
    /// A fully materialized stage or memoized failure.
    Full(Result<Arc<ScheduledStage>, PipelineError>),
    /// The stage is `BaseSchedule::fit_stage` of the point's base.
    FitOfBase,
}

/// The marker payload for a fit-mode stage (see [`SchedPayload`]).
pub(crate) fn encode_sched_fit() -> Vec<u8> {
    vec![2]
}

pub(crate) fn encode_sched(result: &Result<Arc<ScheduledStage>, PipelineError>) -> Vec<u8> {
    let mut w = Writer::new();
    match result {
        Ok(stage) => {
            w.u8(0);
            let p = &stage.result;
            encode_ddg(&mut w, &p.ddg);
            encode_schedule(&mut w, &p.schedule);
            encode_lifetimes(&mut w, &p.lifetimes);
            encode_allocation(&mut w, &p.allocation);
            encode_spills(&mut w, &p.spills);
            w.u32(p.spill_stores);
            w.u32(p.spill_loads);
            w.u32(p.rounds);
            w.u32(stage.final_mii);
        }
        Err(e) => {
            w.u8(1);
            encode_pipeline_error(&mut w, e);
        }
    }
    w.into_bytes()
}

/// Decodes a scheduled stage; the final graph travels in the payload
/// (it may contain spill code), and the schedule is re-verified against
/// it on the point's machine. A fit marker decodes to
/// [`SchedPayload::FitOfBase`] — the caller rebuilds the shared stage
/// from the persisted base schedule.
pub(crate) fn decode_sched(
    bytes: &[u8],
    cfg: &Configuration,
    model: CycleModel,
) -> Option<SchedPayload> {
    let mut r = Reader::new(bytes);
    let result = match r.u8()? {
        2 => {
            return r.exhausted().then_some(SchedPayload::FitOfBase);
        }
        0 => {
            let ddg = decode_ddg(&mut r)?;
            let schedule = decode_schedule(&mut r, &ddg, cfg, model)?;
            let lifetimes = decode_lifetimes(&mut r)?;
            let allocation = decode_allocation(&mut r)?;
            let spills = decode_spills(&mut r, ddg.num_nodes())?;
            let spill_stores = r.u32()?;
            let spill_loads = r.u32()?;
            let rounds = r.u32()?;
            let final_mii = r.u32()?;
            Ok(Arc::new(ScheduledStage {
                result: PressureResult {
                    schedule,
                    allocation,
                    ddg,
                    lifetimes,
                    spills,
                    spill_stores,
                    spill_loads,
                    rounds,
                },
                final_mii,
            }))
        }
        1 => Err(decode_pipeline_error(&mut r)?),
        _ => return None,
    };
    r.exhausted().then_some(SchedPayload::Full(result))
}

// ---- lowered stage (stage 5) -------------------------------------------

/// Encodes a lowered-stage entry. The program payload delegates to the
/// lowering crate's own versioned codec ([`widening_lower::codec`]);
/// this wrapper only adds the ok/error tag so memoized pipeline
/// failures persist exactly like the other stages' do.
pub(crate) fn encode_lowered(
    result: &Result<Arc<widening_lower::WideProgram>, PipelineError>,
) -> Vec<u8> {
    let mut w = Writer::new();
    match result {
        Ok(program) => {
            w.u8(0);
            w.bytes(&widening_lower::codec::encode_program(program));
        }
        Err(e) => {
            w.u8(1);
            encode_pipeline_error(&mut w, e);
        }
    }
    w.into_bytes()
}

/// Decodes a lowered-stage entry. The program codec validates its own
/// version tag and every cross-reference, so a corrupt payload degrades
/// to a miss here like everywhere else.
pub(crate) fn decode_lowered(
    bytes: &[u8],
) -> Option<Result<Arc<widening_lower::WideProgram>, PipelineError>> {
    let mut r = Reader::new(bytes);
    match r.u8()? {
        0 => {
            let program = widening_lower::codec::decode_program(r.take(r.remaining())?)?;
            Some(Ok(Arc::new(program)))
        }
        1 => {
            let e = decode_pipeline_error(&mut r)?;
            r.exhausted().then_some(Err(e))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Disambiguate from `widening_sched::Strategy` (the scheduler enum).
    use proptest::strategy::Strategy;
    use widening_ir::DdgBuilder;

    use crate::stage::{stage_base_schedule, stage_mii, stage_schedule, stage_widen, PointSpec};
    use crate::CompileOptions;

    /// Random loop bodies in the corpus's shape class: a mix of memory
    /// and FPU operations, forward distance-0 flow and loop-carried
    /// edges (recurrences included).
    fn arb_ddg() -> impl Strategy<Value = Ddg> {
        let kinds = prop_oneof![
            4 => Just(OpKind::FAdd),
            4 => Just(OpKind::FMul),
            1 => Just(OpKind::FDiv),
            1 => Just(OpKind::FSqrt),
        ];
        (2usize..14, proptest::collection::vec(kinds, 14))
            .prop_flat_map(|(n, kinds)| {
                let edges = proptest::collection::vec(
                    (0usize..n, 0usize..n, 0u32..3, any::<bool>()),
                    0..2 * n,
                );
                (Just(n), Just(kinds), edges)
            })
            .prop_map(|(n, kinds, edges)| {
                let mut b = DdgBuilder::new();
                let ids: Vec<NodeId> = (0..n)
                    .map(|i| match i % 4 {
                        0 => b.load(if i % 8 == 0 { 1 } else { 2 }),
                        1 => b.store(1),
                        _ => b.add_op(if i % 5 == 2 {
                            Op::new(kinds[i]).never_compactable()
                        } else {
                            Op::new(kinds[i])
                        }),
                    })
                    .collect();
                for (s, d, dist, self_loop) in edges {
                    let (s, d) = (s.min(n - 1), d.min(n - 1));
                    let src_ok = s % 4 != 1;
                    if dist == 0 {
                        if s < d && src_ok {
                            b.flow(ids[s], ids[d]);
                        }
                    } else if src_ok && (self_loop || s != d) {
                        b.carried_flow(ids[s], ids[d], dist);
                    } else if src_ok {
                        b.carried_flow(ids[s], ids[s], dist);
                    }
                }
                b.build().expect("valid by construction")
            })
    }

    fn arb_spec() -> impl Strategy<Value = PointSpec> {
        (0u32..3, 0u32..3, 0usize..4, any::<bool>()).prop_map(|(xs, ys, mi, tight)| {
            let model = [
                CycleModel::Cycles1,
                CycleModel::Cycles2,
                CycleModel::Cycles3,
                CycleModel::Cycles4,
            ][mi];
            let cfg = widening_machine::Configuration::monolithic(
                1 << xs,
                1 << ys,
                if tight { 8 } else { 64 },
            )
            .expect("powers of two");
            PointSpec::scheduled(&cfg, model, CompileOptions::default())
        })
    }

    fn assert_alloc_eq(a: &RegisterAllocation, b: &RegisterAllocation) {
        assert_eq!(a.registers_used(), b.registers_used());
        assert_eq!(a.max_lives(), b.max_lives());
        assert_eq!(a.kernel_unroll(), b.kernel_unroll());
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.locations(), b.locations());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ddg_round_trips(ddg in arb_ddg()) {
            let mut w = Writer::new();
            encode_ddg(&mut w, &ddg);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = decode_ddg(&mut r).expect("decodes");
            prop_assert!(r.exhausted());
            prop_assert_eq!(back, ddg);
        }

        #[test]
        fn widen_artifact_round_trips(ddg in arb_ddg(), wi in 0usize..3) {
            let width = [1u32, 2, 4][wi];
            let outcome = stage_widen(&ddg, width);
            let bytes = encode_widen(&outcome);
            let back = decode_widen(&bytes, ddg.num_nodes(), width).expect("decodes");
            prop_assert_eq!(back.ddg(), outcome.ddg());
            prop_assert_eq!(back.width(), outcome.width());
            prop_assert_eq!(back.mapping(), outcome.mapping());
            prop_assert_eq!(back.reasons(), outcome.reasons());
            // Wrong expectations are rejected, not mis-decoded.
            prop_assert!(decode_widen(&bytes, ddg.num_nodes() + 1, width).is_none());
            prop_assert!(decode_widen(&bytes, ddg.num_nodes(), width + 1).is_none());
        }

        #[test]
        fn mii_artifact_round_trips(ddg in arb_ddg(), spec in arb_spec()) {
            let wide = stage_widen(&ddg, spec.width);
            let bounds = stage_mii(wide.ddg(), &spec.machine(), spec.model);
            let bytes = encode_mii(&bounds);
            let back =
                decode_mii(&bytes, wide.ddg().num_nodes()).expect("decodes");
            prop_assert_eq!(back, bounds);
        }

        #[test]
        fn base_schedule_round_trips(ddg in arb_ddg(), spec in arb_spec()) {
            let wide = stage_widen(&ddg, spec.width);
            let machine = spec.machine();
            let bounds = stage_mii(wide.ddg(), &machine, spec.model);
            let result =
                stage_base_schedule(wide.ddg(), &machine, spec.model, &spec.opts, &bounds)
                    .0
                    .map(Arc::new);
            let bytes = encode_base(&result);
            let back = decode_base(&bytes, wide.ddg(), &machine, spec.model).expect("decodes");
            match (&result, &back) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.schedule, &b.schedule);
                    prop_assert_eq!(&a.lifetimes, &b.lifetimes);
                    prop_assert_eq!(a.needed, b.needed);
                    assert_alloc_eq(&a.allocation, &b.allocation);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "outcome flipped: {:?} vs {:?}", a, b),
            }
        }

        #[test]
        fn scheduled_stage_round_trips(ddg in arb_ddg(), spec in arb_spec()) {
            // Tight register files (8) force the spill engine, so spill
            // records and pressure errors both round-trip here.
            let wide = stage_widen(&ddg, spec.width);
            let machine = spec.machine();
            let result =
                stage_schedule(wide.ddg(), &machine, spec.model, &spec.opts, None).map(Arc::new);
            let bytes = encode_sched(&result);
            let back = match decode_sched(&bytes, &machine, spec.model).expect("decodes") {
                SchedPayload::Full(r) => r,
                SchedPayload::FitOfBase => panic!("full encoding decoded as a fit marker"),
            };
            match (&result, &back) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.result.schedule, &b.result.schedule);
                    prop_assert_eq!(&a.result.ddg, &b.result.ddg);
                    prop_assert_eq!(&a.result.lifetimes, &b.result.lifetimes);
                    prop_assert_eq!(&a.result.spills, &b.result.spills);
                    prop_assert_eq!(a.result.spill_stores, b.result.spill_stores);
                    prop_assert_eq!(a.result.spill_loads, b.result.spill_loads);
                    prop_assert_eq!(a.result.rounds, b.result.rounds);
                    prop_assert_eq!(a.final_mii, b.final_mii);
                    assert_alloc_eq(&a.result.allocation, &b.result.allocation);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "outcome flipped: {:?} vs {:?}", a, b),
            }
        }

        #[test]
        fn corrupt_artifacts_never_panic(ddg in arb_ddg(), spec in arb_spec(), seed in any::<u64>()) {
            // Decoding is total: flipping any byte (or truncating) must
            // yield `None` or a *verified* equal artifact — never a panic.
            let wide = stage_widen(&ddg, spec.width);
            let machine = spec.machine();
            let result =
                stage_schedule(wide.ddg(), &machine, spec.model, &spec.opts, None).map(Arc::new);
            let bytes = encode_sched(&result);
            let mut mutated = bytes.clone();
            let at = (seed as usize) % mutated.len();
            mutated[at] ^= 1 + (seed >> 32) as u8 % 255;
            let _ = decode_sched(&mutated, &machine, spec.model);
            let _ = decode_sched(&bytes[..at], &machine, spec.model);
        }
    }

    #[test]
    fn fit_marker_round_trips() {
        let cfg = widening_machine::Configuration::monolithic(1, 1, 64).unwrap();
        let bytes = encode_sched_fit();
        assert!(matches!(
            decode_sched(&bytes, &cfg, CycleModel::Cycles4),
            Some(SchedPayload::FitOfBase)
        ));
        // Trailing garbage after the marker is rejected.
        assert!(decode_sched(&[2, 0], &cfg, CycleModel::Cycles4).is_none());
    }

    /// The golden sample: `vector_divide` on `4w2(8:1)`, whose file
    /// forces spill code.
    fn golden_point() -> (widening_ir::Loop, WideningOutcome, Configuration) {
        let l = widening_workload::kernels::all().swap_remove(5);
        let wide = stage_widen(l.ddg(), 2);
        (l, wide, "4w2(8:1)".parse().unwrap())
    }

    fn golden_stage() -> Result<ScheduledStage, PipelineError> {
        let (_, wide, cfg) = golden_point();
        let opts = CompileOptions::default();
        stage_schedule(wide.ddg(), &cfg, CycleModel::Cycles4, &opts, None)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Golden formats: each pins the bytes of a fixed sample, so a change
    // to the encoding (or to a primitive under it) fails here first.

    #[test]
    fn golden_widen_record() {
        let (_, wide, _) = golden_point();
        assert_eq!(
            fnv128(&encode_widen(&wide)),
            0x8430_f80a_4120_fe5e_7620_c8af_9f27_e6c0
        );
    }

    #[test]
    fn golden_mii_record() {
        let (_, wide, cfg) = golden_point();
        let bounds = stage_mii(wide.ddg(), &cfg, CycleModel::Cycles4);
        assert_eq!(hex(&encode_mii(&bounds)), "030000000100000000000000");
        // `complex_mac` carries two recurrence circuits.
        let l = widening_workload::kernels::all().swap_remove(9);
        let wide = stage_widen(l.ddg(), 2);
        let bounds = stage_mii(wide.ddg(), &cfg, CycleModel::Cycles4);
        assert_eq!(bounds.recurrences().len(), 2);
        assert_eq!(
            fnv128(&encode_mii(&bounds)),
            0x7197_f5f4_1ca7_c1bc_ee27_4cf0_eee2_1df5
        );
    }

    #[test]
    fn golden_base_record() {
        let (_, wide, cfg) = golden_point();
        let bounds = stage_mii(wide.ddg(), &cfg, CycleModel::Cycles4);
        let opts = CompileOptions::default();
        let base = stage_base_schedule(wide.ddg(), &cfg, CycleModel::Cycles4, &opts, &bounds).0;
        assert_eq!(
            fnv128(&encode_base(&base.map(Arc::new))),
            0xfef9_3b6b_35ee_4317_8711_42ab_d366_e29a
        );
    }

    #[test]
    fn golden_sched_record() {
        let stage = golden_stage().expect("the sample schedules");
        assert!(!stage.result.spills.is_empty());
        assert_eq!(
            fnv128(&encode_sched(&Ok(Arc::new(stage)))),
            0x2d69_77fc_d4a3_b169_437c_2ede_f4b2_06ed
        );
    }

    #[test]
    fn golden_fit_marker_and_pressure_failure() {
        assert_eq!(encode_sched_fit(), [2]);
        let pressure = PipelineError::Pressure {
            needed: 40,
            available: 32,
        };
        assert_eq!(
            hex(&encode_sched(&Err(pressure.clone()))),
            "01002800000020000000"
        );
        assert_eq!(hex(&encode_base(&Err(pressure))), "01002800000020000000");
    }

    #[test]
    fn golden_lowered_record() {
        let (l, wide, _) = golden_point();
        let stage = golden_stage().expect("the sample schedules");
        let program = widening_lower::lower(l.ddg(), &wide, &stage.result);
        assert_eq!(
            fnv128(&encode_lowered(&Ok(Arc::new(program)))),
            0xc26e_b819_4734_3dc2_ca02_f7ba_6531_d655
        );
    }

    #[test]
    fn lifetimes_count_is_bounded_by_the_input() {
        // A lifetime takes 12 bytes: a count the bytes left cannot hold
        // fails at the count, before the decoder preallocates it.
        let lifetime = Lifetime {
            def: NodeId(0),
            start: 1,
            end: 5,
        };
        let counted = |n: usize| {
            let mut w = Writer::new();
            w.len(n);
            w.u32(lifetime.def.0);
            w.u32(lifetime.start);
            w.u32(lifetime.end);
            w.into_bytes()
        };
        assert!(decode_lifetimes(&mut Reader::new(&counted(2))).is_none());
        assert!(decode_lifetimes(&mut Reader::new(&counted(1 << 24))).is_none());
        assert_eq!(
            decode_lifetimes(&mut Reader::new(&counted(1))),
            Some(vec![lifetime])
        );
    }
}
