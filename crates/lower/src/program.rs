//! Lowering a compiled wide loop to executable bytecode, and the tight
//! exec loop that runs it.
//!
//! [`lower`] consumes exactly what the interpreting simulator consumes —
//! the original graph, the widening outcome and the scheduled+allocated
//! [`PressureResult`] — and emits a [`WideProgram`]: one instruction
//! stream per kernel row, each instruction carrying pre-resolved operand
//! descriptors instead of graph edges. [`WideProgram::exec`] then runs
//! the schedule with no decoding, no mapping lookups and no
//! per-operation allocation — in the interpreter's exact cycle order
//! when forwarded-read counting observes timing, and block-major
//! (whole blocks back to back) when nothing observable depends on the
//! wall-clock interleaving.
//!
//! # Bitwise equivalence
//!
//! The program reproduces the interpreter's [`WideRun`] bit for bit:
//!
//! * **Values.** Operand reads are resolved at lowering time to a
//!   `(producer, lane, block-delta)` ring access. The interpreter's
//!   register file, forwarding buffer and spill slots all hold copies of
//!   the producing instance's committed vector, so every read mode
//!   returns the same bits the interpreter returns.
//! * **`cross_block_reads`.** Whether a non-binding lane read is served
//!   by the register file or the forwarding network depends on machine
//!   *timing* (has a later instance overwritten the register yet?). The
//!   lowered program replays that decision exactly: every register write
//!   updates a register-owner table, owner updates are deferred to the
//!   end of the cycle like the interpreter's commit phase, and each
//!   compiled forward probes the owner entry its pre-resolved location
//!   table names.
//! * **Spill traffic.** A spill slot provably mirrors its victim's value
//!   ring (the store copies the victim's register; the reload returns
//!   that copy), so slots are compiled to counters: stores and in-range
//!   reloads bump `spill_slot_accesses`, reloads update register owners,
//!   and consumers read the victim ring directly.
//!
//! Hard state violations ([`SimError`-class errors] in the interpreter)
//! are *not* re-checked here: the lowered backend executes what a
//! verified schedule promised, and the interpreter remains the
//! differential oracle that catches promise violations.
//!
//! [`SimError`-class errors]: crate::WideProgram#what-the-backend-does-not-check

use widening_ir::{semantics, Ddg, NodeId, OpKind};
use widening_regalloc::PressureResult;
use widening_transform::{NodeMapping, WideningOutcome};

use crate::memory::Memory;
use crate::stats::{checksum_step, SimStats, WideRun};

/// How a pre-resolved operand is served, decided at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadMode {
    /// A binding read: the register file is guaranteed to hold the
    /// instance, so the value comes straight off the producer ring.
    Strict,
    /// A non-binding lane read (wide→wide, original distance not a
    /// multiple of `Y`): probe the register-owner table to decide
    /// whether the interpreter would have counted a forwarded read.
    ForwardCheck,
    /// A spilled producer whose reload covers this block delta: the
    /// reload's register carries the victim's value, uncounted.
    SpillServed,
    /// A spilled producer with no reload at this delta: always a
    /// forwarded (counted) read in the interpreter.
    SpillForward,
}

/// One pre-resolved operand of one consumer lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OperandDesc {
    /// Original producer node id, for pre-loop live-in values.
    pub(crate) src: u32,
    /// Original dependence distance, for `past = i − d`.
    pub(crate) distance: u32,
    /// Blocks `< neg_until` read the live-in stream instead of state.
    pub(crate) neg_until: u32,
    /// Final-graph node whose value ring holds the operand.
    pub(crate) producer: u32,
    /// Lane within the producer's ring entry.
    pub(crate) lane: u32,
    /// Block delta: the operand instance is `block − delta`.
    pub(crate) delta: u32,
    /// Producer lifetime index (owner probes only; `u32::MAX` else).
    pub(crate) lt: u32,
    /// How the read is served and counted.
    pub(crate) mode: ReadMode,
}

/// The operation a lowered instruction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InstOp {
    /// A (possibly wide) instance of an original operation.
    Compute {
        /// Original node id (semantics, memory region, checksum slot).
        original: u32,
        /// Operation kind.
        op: OpKind,
        /// Whether a register write (and owner update) happens.
        produces: bool,
        /// First original lane this instance covers.
        first_lane: u32,
        /// Lane count: `Y` for a packed node, 1 for a scalar instance.
        lanes: u32,
        /// Operand descriptors: `lanes × ops_per_lane` entries starting
        /// here, lane-major, in original in-edge order within a lane.
        ops_start: u32,
        /// Flow in-edges per lane.
        ops_per_lane: u32,
        /// Lifetime index for the register write (`u32::MAX` if none).
        lt: u32,
    },
    /// A spill store: one slot write, counted.
    SpillStore,
    /// A spill reload: an owner update plus a counted slot read once
    /// `block ≥ distance` (earlier blocks reload the live-in stream,
    /// which touches no slot).
    SpillReload {
        /// Victim-relative block distance of the reloaded value.
        distance: u32,
        /// The reload's own lifetime index.
        lt: u32,
    },
}

/// One lowered instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Inst {
    /// Final-graph node id (ring index and owner identity).
    pub(crate) node: u32,
    /// What the instruction does.
    pub(crate) op: InstOp,
}

/// A compiled wide loop as a flat, cache-friendly, trip-independent
/// program: per-row instruction streams plus the tables `exec` indexes.
///
/// # What the backend does not check
///
/// The interpreter validates machine state on every read (register
/// clobbers, premature reads, empty spill slots). The lowered backend
/// assumes the schedule and allocation it was built from are correct —
/// they were verified structurally at compile time — and the
/// differential mode keeps the interpreter around as the oracle that
/// would catch any violated promise.
#[derive(Debug, Clone, PartialEq)]
pub struct WideProgram {
    pub(crate) y: u32,
    pub(crate) ii: u32,
    pub(crate) k: u32,
    pub(crate) max_t: u32,
    pub(crate) num_original: u32,
    pub(crate) num_final: u32,
    /// Value-ring depth in blocks; a power of two.
    pub(crate) ring_depth: u32,
    pub(crate) registers: u32,
    pub(crate) spill_ops: u32,
    /// Whether any owner probes exist (skip owner upkeep otherwise).
    pub(crate) track_owners: bool,
    /// Prefix offsets into `insts`: row `r` spans
    /// `insts[rows[r]..rows[r+1]]`; length `max_t + 2`.
    pub(crate) rows: Vec<u32>,
    pub(crate) insts: Vec<Inst>,
    pub(crate) operands: Vec<OperandDesc>,
    /// Flattened location table: `lifetime·K + phase → register`.
    pub(crate) reg_table: Vec<u32>,
    /// Memory layout of the original loop: `(node, is_load)` in
    /// ascending node-id order.
    pub(crate) mem_nodes: Vec<(u32, bool)>,
}

/// Lowers one compiled loop into an executable [`WideProgram`].
///
/// `outcome` must be the widening of `original` that `result` was
/// scheduled from — the same contract as the interpreter's machine.
/// The program is trip-independent: build once, [`WideProgram::exec`]
/// at any trip count.
///
/// # Panics
///
/// Panics if the inputs are structurally inconsistent (mismatched
/// graphs, a node without a role or a producer without a lifetime).
#[must_use]
pub fn lower(original: &Ddg, outcome: &WideningOutcome, result: &PressureResult) -> WideProgram {
    let y = outcome.width();
    let sched = &result.schedule;
    let alloc = &result.allocation;
    let k = alloc.kernel_unroll();
    let final_ddg = &result.ddg;
    let n = final_ddg.num_nodes();
    assert!(
        n >= outcome.ddg().num_nodes(),
        "result graph must extend the widened graph"
    );

    // Node roles, exactly as the interpreter derives them: widened part
    // from the origin table, spill part from the spill records.
    #[derive(Clone)]
    enum Role {
        Compute { original: NodeId, lane: Option<u32> },
        SpillStore,
        SpillReload { distance: u32 },
    }
    let mut roles: Vec<Option<Role>> = outcome
        .origin_table()
        .into_iter()
        .map(|o| {
            Some(Role::Compute {
                original: o.original,
                lane: o.lane,
            })
        })
        .collect();
    roles.resize(n, None);
    for rec in &result.spills {
        roles[rec.store.index()] = Some(Role::SpillStore);
        for &(distance, reload) in &rec.reloads {
            roles[reload.index()] = Some(Role::SpillReload { distance });
        }
    }

    // Final node -> lifetime index (value producers only).
    let mut lifetime_of: Vec<Option<u32>> = vec![None; n];
    for (i, lt) in result.lifetimes.iter().enumerate() {
        lifetime_of[lt.def.index()] = Some(i as u32);
    }

    // Spilled victim -> spill record index.
    let mut spilled_rec: Vec<Option<u32>> = vec![None; n];
    for (i, rec) in result.spills.iter().enumerate() {
        spilled_rec[rec.victim.index()] = Some(i as u32);
    }

    // Flattened location table.
    let mut reg_table = Vec::with_capacity(result.lifetimes.len() * k as usize);
    for lt in 0..result.lifetimes.len() as u32 {
        for phase in 0..k {
            reg_table.push(
                alloc
                    .register_of(lt, phase)
                    .expect("location table covers every instance"),
            );
        }
    }

    // Ring depth: the interpreter's bound, rounded up to a power of two
    // so `block % depth` is a mask.
    let max_dist = final_ddg
        .edges()
        .iter()
        .map(|e| e.distance)
        .max()
        .unwrap_or(0);
    let ring_depth = (sched.stages() + max_dist + 2).next_power_of_two();

    // Issue buckets: row -> final nodes in ascending id order (the
    // interpreter's within-cycle commit order).
    let max_t = sched.max_time();
    let mut at_row: Vec<Vec<u32>> = vec![Vec::new(); max_t as usize + 1];
    for v in final_ddg.node_ids() {
        at_row[sched.time(v) as usize].push(v.0);
    }

    let mut rows = Vec::with_capacity(max_t as usize + 2);
    let mut insts = Vec::with_capacity(n);
    let mut operands = Vec::new();
    let mut track_owners = false;
    for bucket in &at_row {
        rows.push(insts.len() as u32);
        for &w in bucket {
            let role = roles[w as usize]
                .clone()
                .unwrap_or_else(|| panic!("node n{w} has no role"));
            let inst_op = match role {
                Role::SpillStore => InstOp::SpillStore,
                Role::SpillReload { distance } => InstOp::SpillReload {
                    distance,
                    lt: lifetime_of[w as usize].expect("reloads produce a value"),
                },
                Role::Compute { original: o, lane } => {
                    let op = original.op(o);
                    let produces = op.produces_value();
                    let (first_lane, lanes) = match lane {
                        Some(j) => (j, 1u32),
                        None => (0, y),
                    };
                    let ops_start = operands.len() as u32;
                    let mut ops_per_lane = 0u32;
                    for slot in 0..lanes {
                        let j = first_lane + slot;
                        ops_per_lane = 0;
                        for e in original.in_edges(o).filter(|e| e.kind.is_flow()) {
                            operands.push(lower_operand(
                                outcome,
                                result,
                                &spilled_rec,
                                &lifetime_of,
                                &mut track_owners,
                                e.src,
                                e.distance,
                                j,
                                lane.is_none(),
                            ));
                            ops_per_lane += 1;
                        }
                    }
                    InstOp::Compute {
                        original: o.0,
                        op: op.kind(),
                        produces,
                        first_lane,
                        lanes,
                        ops_start,
                        ops_per_lane,
                        lt: if produces {
                            lifetime_of[w as usize].expect("producers have a lifetime")
                        } else {
                            u32::MAX
                        },
                    }
                }
            };
            insts.push(Inst {
                node: w,
                op: inst_op,
            });
        }
    }
    rows.push(insts.len() as u32);

    let mem_nodes: Vec<(u32, bool)> = original
        .node_ids()
        .filter(|&v| original.op(v).kind().is_memory())
        .map(|v| (v.0, original.op(v).kind() == OpKind::Load))
        .collect();

    WideProgram {
        y,
        ii: sched.ii(),
        k,
        max_t,
        num_original: original.num_nodes() as u32,
        num_final: n as u32,
        ring_depth,
        registers: alloc.registers_used(),
        spill_ops: result.spill_stores + result.spill_loads,
        track_owners,
        rows,
        insts,
        operands,
        reg_table,
        mem_nodes,
    }
}

/// Resolves one `(consumer lane, original in-edge)` pair to a compiled
/// operand descriptor.
#[allow(clippy::too_many_arguments)]
fn lower_operand(
    outcome: &WideningOutcome,
    result: &PressureResult,
    spilled_rec: &[Option<u32>],
    lifetime_of: &[Option<u32>],
    track_owners: &mut bool,
    src: NodeId,
    distance: u32,
    j: u32,
    consumer_is_wide: bool,
) -> OperandDesc {
    let y = outcome.width();
    let dq = distance / y;
    let dr = distance % y;
    // Lane and block of the producing instance: iteration
    // `i − d = Y·(block − delta) + lane`.
    let lane_l = (j + y - dr) % y;
    let delta = dq + u32::from(j < dr);
    let neg_until = if distance > j {
        (distance - j).div_ceil(y)
    } else {
        0
    };
    let (producer, lane, producer_is_wide) = match &outcome.mapping()[src.index()] {
        NodeMapping::Wide(p) => (*p, lane_l, true),
        NodeMapping::Lanes(ids) => (ids[lane_l as usize], 0, false),
    };
    let (mode, lt) = if let Some(rec) = spilled_rec[producer.index()] {
        let rec = &result.spills[rec as usize];
        if rec.reloads.iter().any(|&(dist, _)| dist == delta) {
            (ReadMode::SpillServed, u32::MAX)
        } else {
            (ReadMode::SpillForward, u32::MAX)
        }
    } else if consumer_is_wide && producer_is_wide && j < dr {
        *track_owners = true;
        (
            ReadMode::ForwardCheck,
            lifetime_of[producer.index()].expect("forwarded producers have a lifetime"),
        )
    } else {
        (ReadMode::Strict, u32::MAX)
    };
    OperandDesc {
        src: src.0,
        distance,
        neg_until,
        producer: producer.0,
        lane,
        delta,
        lt,
        mode,
    }
}

impl WideProgram {
    /// Widening degree `Y`.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.y
    }

    /// Initiation interval of the lowered schedule.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Spill operations in the lowered code (stores + reloads).
    #[must_use]
    pub fn spill_ops(&self) -> u32 {
        self.spill_ops
    }

    /// Lowered instructions (all rows).
    #[must_use]
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Rough in-memory footprint, for the store's resident-bytes gauge.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rows.len() * 4
            + self.insts.len() * std::mem::size_of::<Inst>()
            + self.operands.len() * std::mem::size_of::<OperandDesc>()
            + self.reg_table.len() * 4
            + self.mem_nodes.len() * 8
    }

    /// Executes the program for `trip` original iterations: prologue,
    /// parameterized kernel re-entry per block, epilogue. The returned
    /// run is bitwise identical to the interpreter's on the same
    /// compiled loop.
    ///
    /// Programs without owner probes (`track_owners == false`) run
    /// **block-major**: no observable depends on wall-clock interleaving
    /// — ring writes land before every cross-block read (`delta ≥ 1`
    /// producers execute in earlier blocks, same-block reads follow row
    /// order), memory regions are private per original operation, and
    /// checksums fold by XOR — so whole blocks execute back to back
    /// without the per-cycle window bookkeeping. Programs with owner
    /// probes replay the interpreter's exact cycle order, because
    /// forwarded-read counting observes machine *timing*.
    ///
    /// # Panics
    ///
    /// Panics if `trip` is zero.
    #[must_use]
    pub fn exec(&self, trip: u64) -> WideRun {
        assert!(trip > 0, "trip count must be positive");
        let y = u64::from(self.y);
        let y_us = self.y as usize;
        let ii = u64::from(self.ii);
        let max_t = u64::from(self.max_t);
        let blocks = trip.div_ceil(y);
        let total_cycles = ii * (blocks - 1) + max_t + 1;

        // Ring stride per final node, in f64 cells.
        let stride = self.ring_depth as usize * y_us;
        let mut st = ExecState {
            trip,
            y,
            y_us,
            k: u64::from(self.k),
            k_us: self.k as usize,
            stride,
            dmask: self.ring_depth as usize - 1,
            rings: vec![0.0f64; self.num_final as usize * stride],
            owners: vec![(u32::MAX, u64::MAX); self.registers as usize],
            owner_commits: Vec::new(),
            checksums: vec![0u64; self.num_original as usize],
            memory: Memory::from_layout(self.num_original as usize, &self.mem_nodes, trip),
            wide_inputs: Vec::new(),
            stats: SimStats {
                blocks,
                steady_state_cycles: ii * blocks,
                ..SimStats::default()
            },
        };

        // Steady-state guards, one per instruction: full blocks at or
        // past the guard take the uniform fast path.
        let guards: Vec<u64> = self.insts.iter().map(|i| self.steady_guard(i)).collect();

        if self.track_owners {
            self.exec_cycle_major(&mut st, &guards, blocks, total_cycles);
        } else {
            self.exec_block_major(&mut st, &guards, blocks);
        }
        st.stats.cycles = total_cycles;

        WideRun {
            memory: st.memory,
            checksums: st.checksums,
            stats: st.stats,
        }
    }

    /// The interpreter's exact issue order: cycles outermost, the active
    /// block window within a cycle, owner updates committed at end of
    /// cycle. Required whenever forwarded-read counting is in play.
    fn exec_cycle_major(&self, st: &mut ExecState, guards: &[u64], blocks: u64, total_cycles: u64) {
        let ii = u64::from(self.ii);
        let max_t = u64::from(self.max_t);
        // Active block window, maintained incrementally: `raw_hi` is
        // `t / ii` and `b_lo` is `⌈(t − max_t) / ii⌉`, each bumped at
        // its next crossing cycle instead of divided out every cycle.
        let mut raw_hi = 0u64;
        let mut hi_next = ii;
        let mut b_lo = 0u64;
        let mut lo_next = max_t + 1;
        for t in 0..total_cycles {
            if t == hi_next {
                raw_hi += 1;
                hi_next += ii;
            }
            if t == lo_next {
                b_lo += 1;
                lo_next += ii;
            }
            let b_hi = raw_hi.min(blocks - 1);
            st.owner_commits.clear();
            for b in b_lo..=b_hi {
                let row = (t - ii * b) as usize;
                let (lo, hi) = (self.rows[row] as usize, self.rows[row + 1] as usize);
                st.stats.issued_ops += (hi - lo) as u64;
                for (inst, &guard) in self.insts[lo..hi].iter().zip(&guards[lo..hi]) {
                    run_inst(self, st, inst, guard, b);
                }
            }
            // Commit phase: register ownership changes land after every
            // read of the cycle, exactly like the interpreter.
            for i in 0..st.owner_commits.len() {
                let (reg, node, block) = st.owner_commits[i];
                st.owners[reg as usize] = (node, block);
            }
        }
    }

    /// Block-major execution for programs with no owner probes: every
    /// block runs its rows back to back, so the per-cycle window and
    /// commit bookkeeping disappear entirely.
    fn exec_block_major(&self, st: &mut ExecState, guards: &[u64], blocks: u64) {
        // Instructions are stored row-bucketed, so one pass over the
        // flat array IS a block's rows in issue order.
        st.stats.issued_ops += self.insts.len() as u64 * blocks;
        for b in 0..blocks {
            for (inst, &guard) in self.insts.iter().zip(guards) {
                run_inst(self, st, inst, guard, b);
            }
        }
    }

    /// The steady-state guard of one instruction: block `b` of the
    /// instruction may take the uniform fast path iff the block is full
    /// (no masked lanes) and `b >= guard`. `u64::MAX` marks instructions
    /// with no uniform shape at any block.
    ///
    /// An instruction is uniform when every lane reads each operand from
    /// the *same* producer ring entry at consecutive lanes (`lane ==
    /// slot`, equal `delta`) in an uncounted mode — exactly the shape a
    /// wide consumer of wide producers has when the dependence distance
    /// is a multiple of `Y`. Past the guard block no operand reads the
    /// live-in stream and no block-delta subtraction can underflow, so
    /// the per-lane `neg_until` and mode branches vanish.
    fn steady_guard(&self, inst: &Inst) -> u64 {
        let InstOp::Compute {
            first_lane,
            lanes,
            ops_start,
            ops_per_lane,
            ..
        } = inst.op
        else {
            return u64::MAX;
        };
        let npl = ops_per_lane as usize;
        if first_lane != 0
            || lanes != self.y
            || self.y as usize > MAX_UNIFORM_Y
            || npl > MAX_UNIFORM_OPS
        {
            return u64::MAX;
        }
        let start = ops_start as usize;
        let descs = &self.operands[start..start + npl * lanes as usize];
        let mut guard = 0u64;
        for p in 0..npl {
            let od0 = &descs[p];
            for slot in 0..lanes as usize {
                let od = &descs[slot * npl + p];
                if !matches!(od.mode, ReadMode::Strict | ReadMode::SpillServed)
                    || od.producer != od0.producer
                    || od.delta != od0.delta
                    || od.lane != slot as u32
                {
                    return u64::MAX;
                }
                guard = guard.max(u64::from(od.neg_until)).max(u64::from(od.delta));
            }
        }
        guard
    }
}

/// The mutable machine state of one [`WideProgram::exec`] run, shared by
/// the cycle-major and block-major drivers.
struct ExecState {
    trip: u64,
    y: u64,
    y_us: usize,
    k: u64,
    k_us: usize,
    /// Ring stride per final node, in f64 cells.
    stride: usize,
    dmask: usize,
    rings: Vec<f64>,
    owners: Vec<(u32, u64)>,
    owner_commits: Vec<(u32, u32, u64)>,
    checksums: Vec<u64>,
    memory: Memory,
    /// Cold overflow staging for unusually fat operations; small
    /// arities use a stack buffer in [`run_inst`].
    wide_inputs: Vec<f64>,
    stats: SimStats,
}

/// Executes one instruction's instance at block `b` against `st`.
#[inline(always)]
fn run_inst(p: &WideProgram, st: &mut ExecState, inst: &Inst, guard: u64, b: u64) {
    let ring_slot = (b as usize & st.dmask) * st.y_us;
    match inst.op {
        InstOp::SpillStore => {
            st.stats.spill_slot_accesses += 1;
        }
        InstOp::SpillReload { distance, lt } => {
            if b >= u64::from(distance) {
                st.stats.spill_slot_accesses += 1;
            }
            if p.track_owners {
                let reg = p.reg_table[lt as usize * st.k_us + (b % st.k) as usize];
                st.owner_commits.push((reg, inst.node, b));
            }
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
        } => {
            let base = inst.node as usize * st.stride + ring_slot;
            let npl = ops_per_lane as usize;
            let lanes_us = lanes as usize;
            // Masked lanes are a suffix of the instance (iteration
            // grows with the lane slot), so the live lanes are exactly
            // `0..live`.
            let i0 = st.y * b + u64::from(first_lane);
            let live = if i0 >= st.trip {
                0
            } else {
                (st.trip - i0).min(u64::from(lanes)) as usize
            };
            if live < lanes_us {
                st.stats.masked_lanes += (lanes_us - live) as u64;
                if produces {
                    st.rings[base + live..base + lanes_us].fill(0.0);
                }
            }
            if live == lanes_us && b >= guard {
                // Uniform steady-state instance: every lane reads the
                // same producer ring contiguously, so the lane loop
                // runs with const-known arity and semantics.
                let descs = &p.operands[ops_start as usize..ops_start as usize + npl];
                let mut cell = SteadyCell {
                    op,
                    original,
                    produces,
                    base,
                    b,
                    i0,
                    y: st.y_us,
                    stride: st.stride,
                    dmask: st.dmask,
                    rings: &mut st.rings,
                    checksums: &mut st.checksums,
                    memory: &mut st.memory,
                };
                match npl {
                    0 => cell.lanes::<0>(descs),
                    1 => cell.lanes::<1>(descs),
                    2 => cell.lanes::<2>(descs),
                    3 => cell.lanes::<3>(descs),
                    _ => cell.lanes::<MAX_UNIFORM_OPS>(descs),
                }
            } else {
                let mut buf = [0.0f64; 8];
                for slot in 0..live {
                    let i = i0 + slot as u64;
                    let ops = ops_start as usize + slot * npl;
                    let descs = &p.operands[ops..ops + npl];
                    let inputs: &[f64] = if npl <= buf.len() {
                        for (x, od) in buf[..npl].iter_mut().zip(descs) {
                            *x = read_operand(
                                od,
                                b,
                                i,
                                st.stride,
                                st.dmask,
                                st.y_us,
                                st.k,
                                &st.rings,
                                &p.reg_table,
                                &st.owners,
                                &mut st.stats,
                            );
                        }
                        &buf[..npl]
                    } else {
                        st.wide_inputs.clear();
                        for od in descs {
                            let v = read_operand(
                                od,
                                b,
                                i,
                                st.stride,
                                st.dmask,
                                st.y_us,
                                st.k,
                                &st.rings,
                                &p.reg_table,
                                &st.owners,
                                &mut st.stats,
                            );
                            st.wide_inputs.push(v);
                        }
                        &st.wide_inputs
                    };
                    let value = match op {
                        OpKind::Load => {
                            let cell = st.memory.read(NodeId(original), i);
                            semantics::squash(cell + inputs.iter().sum::<f64>())
                        }
                        OpKind::Store => {
                            let v = semantics::eval_op(OpKind::Store, inputs, original, i as i64);
                            st.memory.write(NodeId(original), i, v);
                            v
                        }
                        kind => semantics::eval_op(kind, inputs, original, i as i64),
                    };
                    st.checksums[original as usize] ^= checksum_step(i, value);
                    if produces {
                        st.rings[base + slot] = value;
                    }
                }
            }
            if produces && p.track_owners {
                let reg = p.reg_table[lt as usize * st.k_us + (b % st.k) as usize];
                st.owner_commits.push((reg, inst.node, b));
            }
        }
    }
}

/// Widest instance the uniform fast path handles; wider programs fall
/// back to the general lane loop.
const MAX_UNIFORM_Y: usize = 8;

/// Highest per-lane operand count the uniform fast path handles.
const MAX_UNIFORM_OPS: usize = 4;

/// One uniform steady-state instance, borrowed mutable state included:
/// [`SteadyCell::lanes`] executes it with const-known operand arity.
struct SteadyCell<'a> {
    op: OpKind,
    original: u32,
    produces: bool,
    /// Ring base of the produced entry (`node`, block `b`).
    base: usize,
    b: u64,
    /// Iteration of lane 0.
    i0: u64,
    y: usize,
    stride: usize,
    dmask: usize,
    rings: &'a mut Vec<f64>,
    checksums: &'a mut Vec<u64>,
    memory: &'a mut Memory,
}

impl SteadyCell<'_> {
    /// Executes all `y` lanes: resolves each operand's ring offset once
    /// (lane `j` reads `offset + j` — the uniformity guarantee), then
    /// dispatches the operation kind once so every lane loop runs with
    /// both the arity `N` and the semantics known at compile time.
    #[inline(always)]
    fn lanes<const N: usize>(&mut self, descs: &[OperandDesc]) {
        let mut offs = [0usize; N];
        for (o, od) in offs.iter_mut().zip(descs) {
            let beta = (self.b - u64::from(od.delta)) as usize;
            *o = od.producer as usize * self.stride + (beta & self.dmask) * self.y;
        }
        // Literal kinds at every call: after inlining, `eval_op`'s
        // dispatch constant-folds away inside each lane loop.
        match self.op {
            OpKind::Load => self.load_lanes::<N>(&offs),
            OpKind::Store => self.store_lanes::<N>(&offs),
            OpKind::FAdd => self.arith_lanes::<N>(OpKind::FAdd, &offs),
            OpKind::FSub => self.arith_lanes::<N>(OpKind::FSub, &offs),
            OpKind::FMul => self.arith_lanes::<N>(OpKind::FMul, &offs),
            OpKind::FDiv => self.arith_lanes::<N>(OpKind::FDiv, &offs),
            OpKind::FSqrt => self.arith_lanes::<N>(OpKind::FSqrt, &offs),
            OpKind::FCopy => self.arith_lanes::<N>(OpKind::FCopy, &offs),
        }
    }

    /// Value-producing arithmetic lanes (`kind` is a literal at every
    /// call site). Writing the produced entry lane by lane cannot alias
    /// a gather: a self-referential operand has `delta ≥ 1`, and rings
    /// are deep enough that `b − delta` masks to a different entry.
    #[inline(always)]
    fn arith_lanes<const N: usize>(&mut self, kind: OpKind, offs: &[usize; N]) {
        let mut ck = 0u64;
        for j in 0..self.y {
            let i = self.i0 + j as u64;
            let mut inputs = [0.0f64; N];
            for (x, o) in inputs.iter_mut().zip(offs) {
                *x = self.rings[o + j];
            }
            let value = semantics::eval_op(kind, &inputs, self.original, i as i64);
            ck ^= checksum_step(i, value);
            if self.produces {
                self.rings[self.base + j] = value;
            }
        }
        self.checksums[self.original as usize] ^= ck;
    }

    /// Load lanes: the `y` cells are contiguous in the region, so the
    /// region is resolved once per instance instead of once per lane.
    #[inline(always)]
    fn load_lanes<const N: usize>(&mut self, offs: &[usize; N]) {
        let i0 = self.i0 as usize;
        let region = self.memory.region(NodeId(self.original));
        let mut cells = [0.0f64; MAX_UNIFORM_Y];
        cells[..self.y].copy_from_slice(&region[i0..i0 + self.y]);
        let mut ck = 0u64;
        for (j, &cell) in cells.iter().enumerate().take(self.y) {
            let i = self.i0 + j as u64;
            // The exact fold the general path performs: cell + Σ inputs,
            // summed from 0.0 in operand order.
            let mut sum = 0.0f64;
            for o in offs {
                sum += self.rings[o + j];
            }
            let value = semantics::squash(cell + sum);
            ck ^= checksum_step(i, value);
            if self.produces {
                self.rings[self.base + j] = value;
            }
        }
        self.checksums[self.original as usize] ^= ck;
    }

    /// Store lanes: one region resolution, contiguous writes.
    #[inline(always)]
    fn store_lanes<const N: usize>(&mut self, offs: &[usize; N]) {
        let i0 = self.i0 as usize;
        let mut ck = 0u64;
        let mut values = [0.0f64; MAX_UNIFORM_Y];
        for (j, slot) in values.iter_mut().enumerate().take(self.y) {
            let i = self.i0 + j as u64;
            let mut inputs = [0.0f64; N];
            for (x, o) in inputs.iter_mut().zip(offs) {
                *x = self.rings[o + j];
            }
            let value = semantics::eval_op(OpKind::Store, &inputs, self.original, i as i64);
            *slot = value;
            ck ^= checksum_step(i, value);
            if self.produces {
                self.rings[self.base + j] = value;
            }
        }
        let region = self.memory.region_mut(NodeId(self.original));
        region[i0..i0 + self.y].copy_from_slice(&values[..self.y]);
        self.checksums[self.original as usize] ^= ck;
    }
}

/// Serves one compiled operand read for consumer iteration `i` in block
/// `b`: the live-in stream before `neg_until`, the producer's value ring
/// otherwise, with forwarding accounted per the descriptor's
/// [`ReadMode`]. Kept out of line so the three call sites in the lane
/// loop share one body, and `#[inline(always)]` so none of them pays a
/// call.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn read_operand(
    od: &OperandDesc,
    b: u64,
    i: u64,
    stride: usize,
    dmask: usize,
    y_us: usize,
    k: u64,
    rings: &[f64],
    reg_table: &[u32],
    owners: &[(u32, u64)],
    stats: &mut SimStats,
) -> f64 {
    if b < u64::from(od.neg_until) {
        return semantics::source_value(od.src, i as i64 - i64::from(od.distance));
    }
    let beta = b - u64::from(od.delta);
    let v =
        rings[od.producer as usize * stride + (beta as usize & dmask) * y_us + od.lane as usize];
    match od.mode {
        ReadMode::Strict | ReadMode::SpillServed => {}
        ReadMode::SpillForward => {
            stats.cross_block_reads += 1;
        }
        ReadMode::ForwardCheck => {
            let reg = reg_table[od.lt as usize * k as usize + (beta % k) as usize];
            if owners[reg as usize] != (od.producer, beta) {
                stats.cross_block_reads += 1;
            }
        }
    }
    v
}
