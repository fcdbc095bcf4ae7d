//! A versioned, self-contained binary codec for [`WideProgram`], so the
//! pipeline's disk tier can persist lowered programs next to schedules
//! and allocations.
//!
//! The format is little-endian, written and read with the shared
//! `widening-wire` codec, and total on decode: every length, index and
//! discriminant is bounds-checked against the header tables, and any
//! truncation, trailing garbage or out-of-range reference returns
//! `None` instead of panicking. Bump [`PROGRAM_VERSION`] on any shape
//! change — old artifacts then decode to `None` and the stage re-lowers.

use widening_ir::OpKind;
use widening_wire::{Reader, Writer};

use crate::program::{Inst, InstOp, OperandDesc, ReadMode, WideProgram};

/// Version tag leading every encoded program.
pub const PROGRAM_VERSION: u16 = 1;

/// Encodes `program` into a self-describing byte buffer.
#[must_use]
pub fn encode_program(program: &WideProgram) -> Vec<u8> {
    let mut w = Writer::with_capacity(program.approx_bytes());
    w.u16(PROGRAM_VERSION);
    for v in [
        program.y,
        program.ii,
        program.k,
        program.max_t,
        program.num_original,
        program.num_final,
        program.ring_depth,
        program.registers,
        program.spill_ops,
    ] {
        w.u32(v);
    }
    w.u8(u8::from(program.track_owners));
    w.len(program.rows.len());
    for &r in &program.rows {
        w.u32(r);
    }
    w.len(program.insts.len());
    for inst in &program.insts {
        w.u32(inst.node);
        match inst.op {
            InstOp::Compute {
                original,
                op,
                produces,
                first_lane,
                lanes,
                ops_start,
                ops_per_lane,
                lt,
            } => {
                w.u8(0);
                w.u32(original);
                w.u8(op_code(op));
                w.u8(u8::from(produces));
                for v in [first_lane, lanes, ops_start, ops_per_lane, lt] {
                    w.u32(v);
                }
            }
            InstOp::SpillStore => w.u8(1),
            InstOp::SpillReload { distance, lt } => {
                w.u8(2);
                w.u32(distance);
                w.u32(lt);
            }
        }
    }
    w.len(program.operands.len());
    for od in &program.operands {
        for v in [
            od.src,
            od.distance,
            od.neg_until,
            od.producer,
            od.lane,
            od.delta,
            od.lt,
        ] {
            w.u32(v);
        }
        w.u8(match od.mode {
            ReadMode::Strict => 0,
            ReadMode::ForwardCheck => 1,
            ReadMode::SpillServed => 2,
            ReadMode::SpillForward => 3,
        });
    }
    w.len(program.reg_table.len());
    for &r in &program.reg_table {
        w.u32(r);
    }
    w.len(program.mem_nodes.len());
    for &(v, is_load) in &program.mem_nodes {
        w.u32(v);
        w.u8(u8::from(is_load));
    }
    w.into_bytes()
}

/// Decodes a program previously produced by [`encode_program`].
/// Returns `None` on any version, shape or bounds mismatch.
#[must_use]
pub fn decode_program(bytes: &[u8]) -> Option<WideProgram> {
    let mut r = Reader::new(bytes);
    if r.u16()? != PROGRAM_VERSION {
        return None;
    }
    let y = r.u32()?;
    let ii = r.u32()?;
    let k = r.u32()?;
    let max_t = r.u32()?;
    let num_original = r.u32()?;
    let num_final = r.u32()?;
    let ring_depth = r.u32()?;
    let registers = r.u32()?;
    let spill_ops = r.u32()?;
    if y == 0 || ii == 0 || k == 0 || ring_depth == 0 || !ring_depth.is_power_of_two() {
        return None;
    }
    let track_owners = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };

    let num_rows = r.len(4)?;
    if num_rows != max_t as usize + 2 {
        return None;
    }
    let mut rows = Vec::with_capacity(num_rows);
    for _ in 0..num_rows {
        rows.push(r.u32()?);
    }
    if rows.windows(2).any(|w| w[0] > w[1]) || rows.first() != Some(&0) {
        return None;
    }

    let num_insts = r.len(5)?;
    if *rows.last()? != num_insts as u32 {
        return None;
    }
    let mut insts = Vec::with_capacity(num_insts);
    for _ in 0..num_insts {
        let node = r.u32()?;
        if node >= num_final {
            return None;
        }
        let op = match r.u8()? {
            0 => {
                let original = r.u32()?;
                let op = op_kind(r.u8()?)?;
                let produces = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let first_lane = r.u32()?;
                let lanes = r.u32()?;
                let ops_start = r.u32()?;
                let ops_per_lane = r.u32()?;
                let lt = r.u32()?;
                if original >= num_original
                    || lanes == 0
                    || u64::from(first_lane) + u64::from(lanes) > u64::from(y)
                {
                    return None;
                }
                InstOp::Compute {
                    original,
                    op,
                    produces,
                    first_lane,
                    lanes,
                    ops_start,
                    ops_per_lane,
                    lt,
                }
            }
            1 => InstOp::SpillStore,
            2 => InstOp::SpillReload {
                distance: r.u32()?,
                lt: r.u32()?,
            },
            _ => return None,
        };
        insts.push(Inst { node, op });
    }

    let num_ops = r.len(29)?;
    let mut operands = Vec::with_capacity(num_ops);
    for _ in 0..num_ops {
        let src = r.u32()?;
        let distance = r.u32()?;
        let neg_until = r.u32()?;
        let producer = r.u32()?;
        let lane = r.u32()?;
        let delta = r.u32()?;
        let lt = r.u32()?;
        let mode = match r.u8()? {
            0 => ReadMode::Strict,
            1 => ReadMode::ForwardCheck,
            2 => ReadMode::SpillServed,
            3 => ReadMode::SpillForward,
            _ => return None,
        };
        if src >= num_original || producer >= num_final || lane >= y {
            return None;
        }
        operands.push(OperandDesc {
            src,
            distance,
            neg_until,
            producer,
            lane,
            delta,
            lt,
            mode,
        });
    }

    let table_len = r.len(4)?;
    let mut reg_table = Vec::with_capacity(table_len);
    for _ in 0..table_len {
        let reg = r.u32()?;
        if reg >= registers {
            return None;
        }
        reg_table.push(reg);
    }
    if table_len % k as usize != 0 {
        return None;
    }
    let num_lifetimes = (table_len / k as usize) as u32;

    let num_mem = r.len(5)?;
    let mut mem_nodes = Vec::with_capacity(num_mem);
    for _ in 0..num_mem {
        let v = r.u32()?;
        let is_load = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        if v >= num_original || mem_nodes.last().is_some_and(|&(p, _)| p >= v) {
            return None;
        }
        mem_nodes.push((v, is_load));
    }
    if !r.exhausted() {
        return None;
    }

    // Cross-table references: every lifetime and operand range an
    // instruction or descriptor names must exist.
    let lt_ok = |lt: u32| lt == u32::MAX || lt < num_lifetimes;
    for inst in &insts {
        match inst.op {
            InstOp::Compute {
                lanes,
                ops_start,
                ops_per_lane,
                lt,
                produces,
                ..
            } => {
                let span = (lanes as u64) * u64::from(ops_per_lane);
                if u64::from(ops_start) + span > operands.len() as u64
                    || !lt_ok(lt)
                    || (produces && lt == u32::MAX)
                {
                    return None;
                }
            }
            InstOp::SpillReload { lt, .. } => {
                if lt >= num_lifetimes {
                    return None;
                }
            }
            InstOp::SpillStore => {}
        }
    }
    for od in &operands {
        let needs_lt = od.mode == ReadMode::ForwardCheck;
        if (needs_lt && od.lt >= num_lifetimes) || (!needs_lt && od.lt != u32::MAX) {
            return None;
        }
    }

    Some(WideProgram {
        y,
        ii,
        k,
        max_t,
        num_original,
        num_final,
        ring_depth,
        registers,
        spill_ops,
        track_owners,
        rows,
        insts,
        operands,
        reg_table,
        mem_nodes,
    })
}

fn op_code(kind: OpKind) -> u8 {
    OpKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ALL") as u8
}

fn op_kind(code: u8) -> Option<OpKind> {
    OpKind::ALL.get(code as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> WideProgram {
        use widening_ir::{DdgBuilder, OpKind};
        use widening_machine::CycleModel;

        // Build a real program through the real pipeline pieces.
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let m = b.op(OpKind::FMul);
        let s = b.store(1);
        b.flow(x, m);
        b.flow(m, s);
        let g = b.build().unwrap();
        let outcome = widening_transform::widen(&g, 2);
        let result = widening_regalloc::schedule_with_registers(
            outcome.ddg(),
            &"2w2(64:1)"
                .parse::<widening_machine::Configuration>()
                .unwrap(),
            CycleModel::Cycles4,
            &Default::default(),
            &Default::default(),
        )
        .unwrap();
        crate::lower(&g, &outcome, &result)
    }

    #[test]
    fn roundtrip_is_identity() {
        let p = sample_program();
        let bytes = encode_program(&p);
        let q = decode_program(&bytes).expect("roundtrip decodes");
        assert_eq!(p, q);
    }

    #[test]
    fn golden_program_bytes() {
        let hex: String = encode_program(&sample_program())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            concat!(
                "0100020000000100000004000000080000000300000003000000100000000800",
                "000000000000000a000000000000000100000001000000010000000100000002",
                "0000000200000002000000020000000300000003000000000000000000000000",
                "0001000000000200000000000000000000000000000001000000000100000004",
                "0100000000020000000000000001000000010000000200000000020000000100",
                "00000000020000000200000001000000ffffffff040000000000000000000000",
                "00000000000000000000000000000000ffffffff000000000000000000000000",
                "00000000000100000000000000ffffffff000100000000000000000000000100",
                "00000000000000000000ffffffff000100000000000000000000000100000001",
                "00000000000000ffffffff000800000000000000020000000400000006000000",
                "010000000300000005000000070000000200000000000000010200000000",
            )
        );
    }

    #[test]
    fn version_and_truncation_are_rejected() {
        let p = sample_program();
        let mut bytes = encode_program(&p);
        assert!(decode_program(&bytes[..bytes.len() - 1]).is_none());
        bytes[0] = bytes[0].wrapping_add(1);
        assert!(decode_program(&bytes).is_none());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let p = sample_program();
        let mut bytes = encode_program(&p);
        bytes.push(0);
        assert!(decode_program(&bytes).is_none());
    }

    #[test]
    fn corrupt_indices_are_rejected() {
        let p = sample_program();
        let bytes = encode_program(&p);
        let mut rejected = 0usize;
        // Flip each byte to 0xFF in turn; decode must never panic and
        // must reject structurally-damaging flips.
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            if b[i] == 0xFF {
                continue;
            }
            b[i] = 0xFF;
            if decode_program(&b).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
    }
}
