//! The combined cost model and design-space enumeration (Table 5, §5.1).

use widening_machine::{Configuration, CycleModel};

use crate::area::AreaModel;
use crate::sia::Technology;
use crate::timing::TimingModel;

/// Fraction of the die the paper allows for FPUs + register file: "we
/// consider that a configuration is implementable … if the area cost of
/// the FPUs and the register file is smaller than 20% of the total chip
/// area" (§5.1).
pub const IMPLEMENTABLE_BUDGET: f64 = 0.20;

/// A configuration annotated with its modeled costs.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The configuration.
    pub config: Configuration,
    /// Total area (RF + FPUs) in λ².
    pub area: f64,
    /// Cycle time relative to `1w1(32:1)`.
    pub relative_cycle_time: f64,
    /// The latency model this cycle time selects (§5.2).
    pub cycle_model: CycleModel,
}

/// Area + timing in one place, with implementability and design-space
/// enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    area: AreaModel,
    timing: TimingModel,
}

impl CostModel {
    /// The model calibrated exactly as in the paper.
    #[must_use]
    pub fn paper() -> Self {
        CostModel {
            area: AreaModel::new(),
            timing: TimingModel::calibrated(),
        }
    }

    /// The area sub-model.
    #[must_use]
    pub fn area_model(&self) -> &AreaModel {
        &self.area
    }

    /// The timing sub-model.
    #[must_use]
    pub fn timing_model(&self) -> &TimingModel {
        &self.timing
    }

    /// Total modeled area of `cfg` in λ².
    #[must_use]
    pub fn total_area(&self, cfg: &Configuration) -> f64 {
        self.area.total_area(cfg)
    }

    /// Cycle time of `cfg` relative to the baseline: the paper assumes
    /// the processor cycle is the RF access time (§5).
    #[must_use]
    pub fn relative_cycle_time(&self, cfg: &Configuration) -> f64 {
        self.timing.relative_access_time(cfg)
    }

    /// The latency model `cfg` must use at its cycle time (§5.2).
    #[must_use]
    pub fn cycle_model(&self, cfg: &Configuration) -> CycleModel {
        CycleModel::for_relative_cycle_time(self.relative_cycle_time(cfg))
    }

    /// Fraction of `tech`'s die that `cfg` occupies.
    #[must_use]
    pub fn die_fraction(&self, cfg: &Configuration, tech: &Technology) -> f64 {
        self.total_area(cfg) / tech.lambda2_per_chip()
    }

    /// Whether `cfg` fits the 20% budget on `tech` (Table 5).
    #[must_use]
    pub fn is_implementable(&self, cfg: &Configuration, tech: &Technology) -> bool {
        self.die_fraction(cfg, tech) <= IMPLEMENTABLE_BUDGET
    }

    /// Fully-annotated design point.
    #[must_use]
    pub fn design_point(&self, cfg: &Configuration) -> DesignPoint {
        let tc = self.relative_cycle_time(cfg);
        DesignPoint {
            config: *cfg,
            area: self.total_area(cfg),
            relative_cycle_time: tc,
            cycle_model: CycleModel::for_relative_cycle_time(tc),
        }
    }

    /// Enumerates the paper's design space: `X·Y ≤ max_factor` (powers
    /// of two), `Z ∈ {32, 64, 128, 256}`, all valid partitions (capped
    /// at 16). Sorted by `(factor, X, Z, n)`.
    #[must_use]
    pub fn design_space(max_factor: u32) -> Vec<Configuration> {
        let mut out = Vec::new();
        let mut x = 1;
        while x <= max_factor {
            let mut y = 1;
            while x * y <= max_factor {
                for z in [32u32, 64, 128, 256] {
                    let base = Configuration::monolithic(x, y, z).expect("powers of two are valid");
                    for n in base.valid_partitions() {
                        out.push(base.with_partitions(n).expect("valid partition"));
                    }
                }
                y *= 2;
            }
            x *= 2;
        }
        out.sort_by_key(|c| (c.factor(), c.replication(), c.registers(), c.partitions()));
        out
    }

    /// The implementable subset of [`CostModel::design_space`] for a
    /// technology generation.
    #[must_use]
    pub fn implementable_configurations(
        &self,
        tech: &Technology,
        max_factor: u32,
    ) -> Vec<DesignPoint> {
        Self::design_space(max_factor)
            .into_iter()
            .filter(|c| self.is_implementable(c, tech))
            .map(|c| self.design_point(&c))
            .collect()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(s: &str) -> Configuration {
        s.parse().unwrap()
    }

    #[test]
    fn paper_conclusion_4w2_vs_8w1_area_ratio() {
        // §6: "a 4w2 configuration with a 128-RF … occupies only 81% of
        // the area" of 8w1 with a 128-RF. Our extrapolated 40R+24W cell
        // is somewhat larger than the authors' (unpublished) value, so we
        // measure ≈ 0.71; the qualitative conclusion — 4w2 clearly
        // cheaper than 8w1 — is what must hold.
        let m = CostModel::paper();
        let ratio = m.total_area(&cfg("4w2(128:1)")) / m.total_area(&cfg("8w1(128:1)"));
        assert!(
            (0.65..0.85).contains(&ratio),
            "area ratio {ratio} out of the paper's ballpark (0.81)"
        );
    }

    #[test]
    fn section41_08w1_example() {
        // §4.1: at 0.10 µm, 8w1 with 128-RF is implementable but 8w1
        // with 256-RF is not; 4w2 with 256-RF is.
        let m = CostModel::paper();
        let t = Technology::for_lambda(0.10).unwrap();
        assert!(m.is_implementable(&cfg("8w1(128:1)"), &t));
        assert!(!m.is_implementable(&cfg("8w1(256:1)"), &t));
        assert!(m.is_implementable(&cfg("4w2(256:1)"), &t));
    }

    #[test]
    fn table5_first_generation_examples() {
        // 0.25 µm (Table 5, "3" symbols): 1w1 at every RF size; 2w1 and
        // 1w2 at the small files; none of the ×8 configurations.
        let m = CostModel::paper();
        let t = Technology::for_lambda(0.25).unwrap();
        for z in [32, 64, 128, 256] {
            assert!(m.is_implementable(&cfg(&format!("1w1({z}:1)")), &t));
        }
        for z in [32, 64] {
            assert!(m.is_implementable(&cfg(&format!("2w1({z}:1)")), &t));
            assert!(m.is_implementable(&cfg(&format!("1w2({z}:1)")), &t));
        }
        assert!(!m.is_implementable(&cfg("8w1(32:1)"), &t));
        assert!(!m.is_implementable(&cfg("4w2(32:1)"), &t));
    }

    #[test]
    fn table5_later_generation_firsts() {
        // First generation at which each family becomes implementable
        // (32-RF, monolithic), per Table 5: 4w1 at 0.18 ("I"), 8w1 at
        // 0.13 ("o"), 16w1 at 0.07 ("l").
        let m = CostModel::paper();
        let cases = [
            ("4w1(32:1)", 0.18),
            ("8w1(32:1)", 0.13),
            ("16w1(32:1)", 0.07),
        ];
        for (c, first_lambda) in cases {
            for t in &Technology::ALL {
                let expect = t.lambda_um <= first_lambda + 1e-9;
                assert_eq!(m.is_implementable(&cfg(c), t), expect, "{c} at {t}");
            }
        }
    }

    #[test]
    fn later_generations_implement_supersets() {
        let m = CostModel::paper();
        for pair in Technology::ALL.windows(2) {
            for c in CostModel::design_space(16) {
                if m.is_implementable(&c, &pair[0]) {
                    assert!(
                        m.is_implementable(&c, &pair[1]),
                        "{c} lost between {} and {}",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }

    #[test]
    fn design_space_shape() {
        let space = CostModel::design_space(4);
        // Factors 1, 2, 4 with partitions: spot-check membership and
        // ordering invariants.
        assert!(space.contains(&cfg("1w1(32:1)")));
        assert!(space.contains(&cfg("2w2(256:4)")));
        assert!(space.contains(&cfg("4w1(64:8)")));
        assert!(!space.iter().any(|c| c.factor() > 4));
        let factors: Vec<u32> = space.iter().map(Configuration::factor).collect();
        let mut sorted = factors.clone();
        sorted.sort_unstable();
        assert_eq!(factors, sorted);
    }

    #[test]
    fn implementable_configurations_filters_and_annotates() {
        let m = CostModel::paper();
        let t = Technology::for_lambda(0.18).unwrap();
        let pts = m.implementable_configurations(&t, 8);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(p.area <= IMPLEMENTABLE_BUDGET * t.lambda2_per_chip());
            // Partitioned small files can beat the monolithic 1w1(32:1)
            // baseline slightly; anything below ~0.5 would be a bug.
            assert!(p.relative_cycle_time > 0.5);
            assert_eq!(
                p.cycle_model,
                CycleModel::for_relative_cycle_time(p.relative_cycle_time)
            );
        }
    }

    #[test]
    fn partitioning_trades_area_for_cycle_time() {
        let m = CostModel::paper();
        let mono = m.design_point(&cfg("8w1(64:1)"));
        let split = m.design_point(&cfg("8w1(64:4)"));
        assert!(split.area > mono.area);
        assert!(split.relative_cycle_time < mono.relative_cycle_time);
    }
}
