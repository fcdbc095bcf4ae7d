//! Golden simulated values: the scalar reference, the lowered executor
//! and the interpreter must reproduce pinned value digests **bitwise**.
//!
//! The three executors compute every result through one semantics
//! (`widening_ir::semantics`), so the differential checks — simulator
//! against reference, lowered bytecode against interpreter — cannot see
//! a change to what they share: a wrong `squash` remainder moves all
//! three together. These digests can. Each is the `fnv128` of the
//! per-run `fnv128`s of every store cell (as bits), every per-node
//! checksum and, for the wide backends, every memory cell and dynamic
//! counter, over loops at their own trip count and at a short trip on
//! three configurations.
//!
//! Generated loops squash no magnitude of 2⁵⁸ or more (a significand
//! exponent of 6 or more; none in 1000 loops at seed 1998 or 202), so a
//! hand-built loop of wide products covers those.
//!
//! The values were recorded while `squash` still took its remainder
//! with libm's `fmod`; any change to these bits is a change to what the
//! simulated loops compute.

use widening_ir::{DdgBuilder, Loop, LoopBuilder, NodeId, OpKind};
use widening_machine::{Configuration, CycleModel};
use widening_pipeline::{compile_ddg, CompileOptions, PointSpec};
use widening_sim::{run_reference, WideMachine, WideRun};
use widening_wire::{fnv128, Writer};
use widening_workload::corpus::{generate, CorpusSpec};

const CONFIGS: [&str; 3] = ["1w1(128:1)", "2w2(128:1)", "4w2(128:1)"];
const MODEL: CycleModel = CycleModel::Cycles4;
const LOOPS: usize = 40;
const SHORT_TRIP: u64 = 16;

/// `(loops, reference, wide, simulated runs, compile failures)`: the
/// digest of the scalar reference runs, the digest both wide backends
/// must reach, and the counts that show the digests cover real work.
const GOLDEN: [(&str, u128, u128, usize, usize); 3] = [
    (
        "seed 1998",
        0xbadf80bca2c14e7e74490398bded41c2,
        0x597261bc5955b809ec46e4672713ba31,
        240,
        0,
    ),
    (
        "seed 202",
        0x215a0e5b829da97797cca30a4e6f9f74,
        0xcbf8f4bc33710124ee1319e77f3326e8,
        240,
        0,
    ),
    (
        "wide products",
        0x67b07b3ced6dd1700b5c3c6eb71b968a,
        0x969f25e53ed6edc88e5f5e31633d594d,
        6,
        0,
    ),
];

fn loops(name: &str) -> Vec<Loop> {
    match name {
        "seed 1998" => generate(&CorpusSpec::small(LOOPS, 1998)),
        "seed 202" => generate(&CorpusSpec::small(LOOPS, 202)),
        "wide products" => vec![wide_products()],
        _ => unreachable!("no loop set {name}"),
    }
}

/// Products of three and of four recurrences `r = x · r' + y` (`r'` one
/// or two iterations back). Each recurrence wraps through `squash` near
/// ±1e6, so the products reach about 1e17 and 1e23.
fn wide_products() -> Loop {
    let mut b = DdgBuilder::new();
    let recurrences: Vec<NodeId> = (0..4)
        .map(|k| {
            let (x, y) = (b.load(1), b.load(1));
            let m = b.op(OpKind::FMul);
            let r = b.op(OpKind::FAdd);
            b.flow(x, m);
            b.carried_flow(r, m, 1 + k % 2);
            b.flow(m, r);
            b.flow(y, r);
            r
        })
        .collect();
    for factors in [3, 4] {
        let p = b.op(OpKind::FMul);
        for &r in &recurrences[..factors] {
            b.flow(r, p);
        }
        let s = b.store(1);
        b.flow(p, s);
    }
    LoopBuilder::new("wide_products", b.build().expect("valid"))
        .trip_count(300)
        .build()
}

/// Folds one run's encoding into the running list of run digests.
fn push_run(digests: &mut Writer, run: Writer) {
    let h = fnv128(&run.into_bytes());
    digests.u64(h as u64);
    digests.u64((h >> 64) as u64);
}

fn put_wide(digests: &mut Writer, run: &WideRun) {
    let mut w = Writer::new();
    w.len(run.memory.cells().len());
    for c in run.memory.cells() {
        w.u64(c.to_bits());
    }
    w.len(run.checksums.len());
    for &c in &run.checksums {
        w.u64(c);
    }
    let s = &run.stats;
    for v in [
        s.cycles,
        s.blocks,
        s.steady_state_cycles,
        s.issued_ops,
        s.masked_lanes,
        s.cross_block_reads,
        s.spill_slot_accesses,
    ] {
        w.u64(v);
    }
    push_run(digests, w);
}

#[test]
fn simulated_values_match_golden_digests() {
    let configs: Vec<Configuration> = CONFIGS.iter().map(|s| s.parse().unwrap()).collect();
    for (name, want_reference, want_wide, want_runs, want_failed) in GOLDEN {
        let (mut reference, mut lowered, mut interpreted) =
            (Writer::new(), Writer::new(), Writer::new());
        let (mut runs, mut failed) = (0, 0);
        for l in &loops(name) {
            let ddg = l.ddg();
            let compiled: Vec<_> = configs
                .iter()
                .filter_map(|cfg| {
                    let spec = PointSpec::scheduled(cfg, MODEL, CompileOptions::default());
                    let c = compile_ddg(ddg, &spec).ok();
                    failed += usize::from(c.is_none());
                    c
                })
                .collect();
            for trip in [l.trip_count(), SHORT_TRIP] {
                let r = run_reference(ddg, trip);
                let mut w = Writer::new();
                for (v, cells) in r.stores() {
                    w.u32(v.0);
                    w.len(cells.len());
                    for c in cells {
                        w.u64(c.to_bits());
                    }
                }
                w.len(r.checksums().len());
                for &c in r.checksums() {
                    w.u64(c);
                }
                push_run(&mut reference, w);
                for c in &compiled {
                    let result = &c.scheduled().expect("scheduled point").result;
                    let program = widening_lower::lower(ddg, c.wide(), result);
                    put_wide(&mut lowered, &program.exec(trip));
                    let run = WideMachine::new(ddg, c.wide(), result, MODEL, trip)
                        .run()
                        .unwrap_or_else(|e| panic!("{} at trip {trip}: {e}", l.name()));
                    put_wide(&mut interpreted, &run);
                    runs += 1;
                }
            }
        }
        let reference = fnv128(&reference.into_bytes());
        let lowered = fnv128(&lowered.into_bytes());
        let interpreted = fnv128(&interpreted.into_bytes());
        eprintln!(
            "{name}: reference {reference:#034x} lowered {lowered:#034x} \
             interpreted {interpreted:#034x} runs {runs} failed {failed}"
        );
        assert_eq!((runs, failed), (want_runs, want_failed), "{name}: counts");
        assert_eq!(reference, want_reference, "{name}: reference values");
        assert_eq!(lowered, want_wide, "{name}: lowered values");
        assert_eq!(interpreted, want_wide, "{name}: interpreted values");
    }
}
