//! Golden SCC order: the strongly connected components of widened
//! corpus graphs, and the ASAP schedules built from them, must keep
//! their pinned digests **bitwise**.
//!
//! Tarjan's emission order (reverse topological order of the
//! condensation) is observable: the ASAP strategy walks the components
//! in that order to build its placement order, and no golden aggregate
//! covers ASAP. One digest
//! hashes every component's index and sorted members for the widened
//! graphs of a 120-loop corpus at `Y = 1, 2, 4`; the other hashes the
//! ASAP strategy's II and issue times on the same graphs.
//!
//! The values were recorded while components were still one `Vec` per
//! component; any change to these bits is a change to the emission
//! order or to what ASAP schedules.

use widening_ir::StronglyConnectedComponents;
use widening_machine::{Configuration, CycleModel};
use widening_sched::{ModuloScheduler, SchedulerOptions, Strategy};
use widening_transform::widen;
use widening_wire::{fnv128, Writer};
use widening_workload::corpus::{generate, CorpusSpec};

const WIDTHS: [u32; 3] = [1, 2, 4];

/// `fnv128` of every component's index and members, loop-major then
/// width-major.
const GOLDEN_COMPONENTS: u128 = 0x6cb3fefbd3ed407393e8381acf05c907;

/// `fnv128` of every ASAP schedule's II and issue times (or a failure
/// tag) on `1wY(256:1)` under the 4-cycle model, in the same order.
const GOLDEN_ASAP: u128 = 0x872b4568b261a7a059d962a55e16cfc8;

#[test]
fn scc_emission_order_and_asap_schedules_are_pinned() {
    let loops = generate(&CorpusSpec::small(120, 1998));
    let mut components = Writer::new();
    let mut asap = Writer::new();
    let (mut recurrences, mut scheduled) = (0usize, 0usize);
    for l in &loops {
        for width in WIDTHS {
            let wide = widen(l.ddg(), width);
            let sccs = StronglyConnectedComponents::compute(wide.ddg());
            for (i, comp) in sccs.components().enumerate() {
                components.len(i);
                components.len(comp.len());
                for v in comp {
                    components.u32(v.0);
                }
                recurrences += usize::from(comp.len() > 1);
            }
            let cfg = Configuration::monolithic(1, width, 256).expect("valid configuration");
            let opts = SchedulerOptions {
                strategy: Strategy::Asap,
            };
            match ModuloScheduler::with_options(cfg, CycleModel::Cycles4, opts).schedule(wide.ddg())
            {
                Ok(s) => {
                    asap.u8(0);
                    asap.u32(s.ii());
                    asap.len(s.times().len());
                    for &t in s.times() {
                        asap.u32(t);
                    }
                    scheduled += 1;
                }
                Err(_) => asap.u8(1),
            }
        }
    }
    // The digests cover real work: multi-node recurrences and
    // schedules of every graph.
    assert_eq!(recurrences, 45, "multi-node components");
    assert_eq!(scheduled, loops.len() * WIDTHS.len());
    assert_eq!(
        fnv128(&components.into_bytes()),
        GOLDEN_COMPONENTS,
        "SCC emission order moved"
    );
    assert_eq!(
        fnv128(&asap.into_bytes()),
        GOLDEN_ASAP,
        "ASAP schedules moved"
    );
}
