//! The Perfect-Club-surrogate corpus generator.
//!
//! The paper's workload is 1180 inner loops extracted from the Perfect
//! Club with Ictíneo, covering 78% of the benchmarks' execution time. We
//! cannot redistribute those loops, so we generate a synthetic corpus
//! whose *aggregate* properties — operation mix, recurrence prevalence
//! and tightness, stride distribution, loop size, trip counts — are
//! tuned so the headline ILP curves (paper Figure 2) have the published
//! shape: pure replication keeps scaling to ~11× before flattening, pure
//! widening saturates near 5×, `2wY` near 8× (`repro fig2` computes
//! the curves).
//!
//! The generator is fully deterministic: the same [`CorpusSpec`] always
//! produces the same loops, bit for bit.

use widening_ir::{DdgBuilder, Loop, LoopBuilder, NodeId, OpKind};

use crate::rng::Rng;

/// Number of loops in the paper's workbench.
pub const PAPER_LOOP_COUNT: usize = 1180;

/// Parameters of the synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Number of loops to generate.
    pub loops: usize,
    /// PRNG seed; two specs differing only in seed give statistically
    /// equivalent but distinct corpora.
    pub seed: u64,
    /// Class weights: fully vectorizable streams.
    pub vector_weight: f64,
    /// Class weights: vectorizable computation over strided memory.
    pub strided_weight: f64,
    /// Class weights: reductions (sum/product accumulators).
    pub reduction_weight: f64,
    /// Class weights: tight multi-operation recurrences.
    pub recurrence_weight: f64,
    /// Class weights: loops containing divides / square roots.
    pub divsqrt_weight: f64,
    /// Smallest / largest number of FPU operations per loop body.
    pub fpu_ops_range: (u64, u64),
    /// Probability that a memory access is unit stride in the strided
    /// class.
    pub strided_unit_fraction: f64,
}

impl Default for CorpusSpec {
    /// The paper-calibrated surrogate.
    fn default() -> Self {
        CorpusSpec {
            loops: PAPER_LOOP_COUNT,
            seed: 0x1998_0C0D_E5A1_D0C5,
            vector_weight: 0.56,
            strided_weight: 0.14,
            reduction_weight: 0.14,
            recurrence_weight: 0.06,
            divsqrt_weight: 0.10,
            fpu_ops_range: (6, 72),
            strided_unit_fraction: 0.25,
        }
    }
}

impl CorpusSpec {
    /// A small corpus for tests and quick experiments: same mix, fewer
    /// loops.
    #[must_use]
    pub fn small(loops: usize, seed: u64) -> Self {
        CorpusSpec {
            loops,
            seed,
            ..CorpusSpec::default()
        }
    }
}

/// Generates the corpus described by `spec`.
#[must_use]
pub fn generate(spec: &CorpusSpec) -> Vec<Loop> {
    let mut rng = Rng::new(spec.seed);
    let weights = [
        spec.vector_weight,
        spec.strided_weight,
        spec.reduction_weight,
        spec.recurrence_weight,
        spec.divsqrt_weight,
    ];
    (0..spec.loops)
        .map(|i| {
            let class = rng.weighted(&weights);
            let name = match class {
                0 => format!("vec_{i:04}"),
                1 => format!("strided_{i:04}"),
                2 => format!("reduce_{i:04}"),
                3 => format!("recur_{i:04}"),
                _ => format!("divsqrt_{i:04}"),
            };
            let g = LoopGen {
                rng: &mut rng,
                spec,
            };
            let ddg = match class {
                0 => g.vector_loop(false),
                1 => g.vector_loop(true),
                2 => g.reduction_loop(),
                3 => g.recurrence_loop(),
                _ => g.divsqrt_loop(),
            };
            let trip = trip_count(&mut rng);
            let weight = loop_weight(&mut rng);
            LoopBuilder::new(name, ddg)
                .trip_count(trip)
                .weight(weight)
                .build()
        })
        .collect()
}

/// The default 1180-loop surrogate.
#[must_use]
pub fn perfect_club_surrogate() -> Vec<Loop> {
    generate(&CorpusSpec::default())
}

/// Trip counts: mostly tens-to-hundreds of iterations, occasionally
/// thousands (vector lengths of numerical codes).
fn trip_count(rng: &mut Rng) -> u64 {
    match rng.weighted(&[0.25, 0.5, 0.2, 0.05]) {
        0 => rng.range(8, 40),
        1 => rng.range(40, 250),
        2 => rng.range(250, 1200),
        _ => rng.range(1200, 8000),
    }
}

/// Invocation weights: a heavy tail so a minority of loops dominates
/// execution time, as in real programs.
fn loop_weight(rng: &mut Rng) -> f64 {
    let u = rng.next_f64();
    // Pareto-ish: most weights near 1, a few 10-100×.
    (1.0 - u).powf(-0.65)
}

struct LoopGen<'a> {
    rng: &'a mut Rng,
    spec: &'a CorpusSpec,
}

impl LoopGen<'_> {
    /// A vectorizable expression-tree loop: loads feed a random
    /// fan-in-2 DAG of adds/multiplies ending in one or two stores.
    fn vector_loop(mut self, strided: bool) -> widening_ir::Ddg {
        let fpu_ops = self
            .rng
            .skewed(self.spec.fpu_ops_range.0, self.spec.fpu_ops_range.1);
        let loads = (fpu_ops / 2 + 1).clamp(1, 32);
        let mut b = DdgBuilder::new();
        let mut values: Vec<NodeId> = (0..loads)
            .map(|_| {
                let stride = if strided { self.pick_stride() } else { 1 };
                b.load(stride)
            })
            .collect();
        // A minority of "vectorizable" loops still contains an indirect
        // access (table lookups, indexed boundary terms) that no wide
        // bus can compact — §2's versatility argument.
        if self.rng.chance(0.15) {
            for _ in 0..self.rng.range(1, 2) {
                let idx = *values.first().expect("at least one load");
                let gather = b.add_op(widening_ir::Op::memory(OpKind::Load, 1).never_compactable());
                b.flow(idx, gather);
                values.push(gather);
            }
        }
        for _ in 0..fpu_ops {
            let kind = if self.rng.chance(0.55) {
                OpKind::FMul
            } else {
                OpKind::FAdd
            };
            let v = b.op(kind);
            // Operand locality: numerical expressions chain recent
            // values (a*x+b style), keeping the dataflow narrow; only
            // occasional operands reach further back. This is what keeps
            // large loop bodies schedulable in small register files.
            let n = values.len() as u64;
            let recent = n - 1 - self.rng.below(4.min(n));
            let far_window = 12.min(n);
            let far = n - 1 - self.rng.below(far_window);
            b.flow(values[recent as usize], v);
            if far != recent || self.rng.chance(0.5) {
                b.flow(values[far as usize], v);
            }
            values.push(v);
        }
        let stores = if self.rng.chance(0.3) { 2 } else { 1 };
        for _ in 0..stores {
            let stride = if strided { self.pick_stride() } else { 1 };
            let s = b.store(stride);
            let v = values[values.len() - 1 - self.rng.below(3.min(values.len() as u64)) as usize];
            b.flow(v, s);
        }
        b.build().expect("generated vector loop is valid")
    }

    /// A reduction: a vectorizable stream feeding one (sometimes two)
    /// accumulators with distance-1 (occasionally higher) recurrences.
    fn reduction_loop(self) -> widening_ir::Ddg {
        let fpu_ops = self
            .rng
            .skewed(self.spec.fpu_ops_range.0, self.spec.fpu_ops_range.1 / 2);
        let loads = (fpu_ops / 2 + 1).clamp(1, 16);
        let mut b = DdgBuilder::new();
        let mut values: Vec<NodeId> = (0..loads).map(|_| b.load(1)).collect();
        for _ in 0..fpu_ops {
            let kind = if self.rng.chance(0.6) {
                OpKind::FMul
            } else {
                OpKind::FAdd
            };
            let v = b.op(kind);
            let n = values.len() as u64;
            let recent = n - 1 - self.rng.below(4.min(n));
            let far = n - 1 - self.rng.below(12.min(n));
            b.flow(values[recent as usize], v);
            if far != recent || self.rng.chance(0.5) {
                b.flow(values[far as usize], v);
            }
            values.push(v);
        }
        let accs = if self.rng.chance(0.25) { 2 } else { 1 };
        for _ in 0..accs {
            let acc = b.op(OpKind::FAdd);
            b.flow(values[values.len() - 1 - self.rng.below(2) as usize], acc);
            // Partial-sum interleaving shows up as distance > 1.
            let dist = *[1u32, 1, 2, 4]
                .get(self.rng.below(4) as usize)
                .expect("in range");
            b.carried_flow(acc, acc, dist);
        }
        b.build().expect("generated reduction loop is valid")
    }

    /// A recurrence-bound loop: a chain of 2–4 operations closed at
    /// distance 1 (Livermore-style linear recurrences), plus a bit of
    /// vectorizable side work.
    fn recurrence_loop(self) -> widening_ir::Ddg {
        let chain_len = self.rng.range(2, 3);
        let mut b = DdgBuilder::new();
        let c = b.load(1);
        let first = b.op(OpKind::FMul);
        b.flow(c, first);
        let mut prev = first;
        for _ in 1..chain_len {
            let kind = if self.rng.chance(0.5) {
                OpKind::FAdd
            } else {
                OpKind::FMul
            };
            let v = b.op(kind);
            b.flow(prev, v);
            prev = v;
        }
        b.carried_flow(prev, first, 1);
        let st = b.store(1);
        b.flow(prev, st);
        // Vectorizable side work alongside the recurrence (real loops
        // rarely consist of the recurrence alone).
        for _ in 0..self.rng.range(1, 6) {
            let l = b.load(1);
            let m = b.op(OpKind::FMul);
            let s = b.store(1);
            b.flow(l, m);
            b.flow(m, s);
        }
        b.build().expect("generated recurrence loop is valid")
    }

    /// A loop with unpipelined operations: normalisations, Cholesky-ish
    /// inner steps.
    fn divsqrt_loop(self) -> widening_ir::Ddg {
        let mut b = DdgBuilder::new();
        let x = b.load(1);
        let y = b.load(1);
        let m = b.op(OpKind::FMul);
        b.flow(x, m);
        b.flow(y, m);
        let slow = if self.rng.chance(0.5) {
            let d = b.op(OpKind::FDiv);
            b.flow(m, d);
            b.flow(x, d);
            d
        } else {
            let r = b.op(OpKind::FSqrt);
            b.flow(m, r);
            r
        };
        let st = b.store(1);
        b.flow(slow, st);
        // Often paired with a vectorizable tail.
        for _ in 0..self.rng.range(0, 4) {
            let l = b.load(1);
            let a = b.op(OpKind::FAdd);
            let s = b.store(1);
            b.flow(l, a);
            b.flow(slow, a);
            b.flow(a, s);
        }
        b.build().expect("generated div/sqrt loop is valid")
    }

    fn pick_stride(&mut self) -> i64 {
        if self.rng.chance(self.spec.strided_unit_fraction) {
            1
        } else {
            *[2i64, 4, 8, 64, 128]
                .get(self.rng.below(5) as usize)
                .expect("in range")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widening_ir::DdgStats;

    #[test]
    fn deterministic_generation() {
        let a = generate(&CorpusSpec::small(50, 7));
        let b = generate(&CorpusSpec::small(50, 7));
        assert_eq!(a, b);
        let c = generate(&CorpusSpec::small(50, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn default_spec_produces_1180_loops() {
        let spec = CorpusSpec::default();
        assert_eq!(spec.loops, PAPER_LOOP_COUNT);
        // Generating the full corpus is fast (< seconds) and must not
        // panic anywhere.
        let loops = generate(&spec);
        assert_eq!(loops.len(), 1180);
    }

    #[test]
    fn corpus_mixes_classes() {
        let loops = generate(&CorpusSpec::small(400, 3));
        let with_rec = loops
            .iter()
            .filter(|l| !l.ddg().recurrence_nodes().is_empty())
            .count();
        let with_div = loops
            .iter()
            .filter(|l| DdgStats::of(l.ddg()).unpipelined_ops > 0)
            .count();
        let frac_rec = with_rec as f64 / 400.0;
        let frac_div = with_div as f64 / 400.0;
        // reduction + recurrence weights ≈ 0.20 of the corpus.
        assert!(
            (0.12..0.32).contains(&frac_rec),
            "recurrence fraction {frac_rec}"
        );
        assert!(
            (0.04..0.20).contains(&frac_div),
            "div/sqrt fraction {frac_div}"
        );
    }

    #[test]
    fn loops_have_sane_shapes() {
        for l in generate(&CorpusSpec::small(200, 11)) {
            let st = DdgStats::of(l.ddg());
            assert!(st.ops >= 3, "{}: too small", l.name());
            assert!(st.ops <= 140, "{}: too large ({})", l.name(), st.ops);
            assert!(st.memory_ops >= 1, "{}: no memory traffic", l.name());
            assert!(l.trip_count() >= 8);
            assert!(l.weight() >= 1.0);
        }
    }

    #[test]
    fn strided_class_has_non_unit_strides() {
        let loops = generate(&CorpusSpec::small(300, 5));
        let strided: Vec<_> = loops
            .iter()
            .filter(|l| l.name().starts_with("strided_"))
            .collect();
        assert!(!strided.is_empty());
        let any_non_unit = strided.iter().any(|l| {
            DdgStats::of(l.ddg())
                .unit_stride_fraction()
                .is_some_and(|f| f < 1.0)
        });
        assert!(any_non_unit);
    }

    #[test]
    fn weights_have_heavy_tail() {
        let loops = generate(&CorpusSpec::small(1000, 2));
        let mut ws: Vec<f64> = loops.iter().map(Loop::weight).collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ws[500];
        let p99 = ws[990];
        assert!(median < 3.0, "median {median}");
        assert!(p99 > 5.0, "p99 {p99}");
    }
}
