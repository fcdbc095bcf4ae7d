//! Golden tests against the paper's published numbers: everything the
//! text states exactly must reproduce exactly; calibrated models must
//! stay inside their documented tolerance.

use widening::cost::{CostModel, Technology, ACCESS_TIMES, IMPLEMENTABLE_BUDGET};
use widening::machine::{Configuration, CycleModel};

#[test]
fn table1_roadmap_is_exact() {
    let expected: [(u32, f64, f64, f64); 5] = [
        (1998, 0.25, 300.0, 4800.0),
        (2001, 0.18, 360.0, 11111.0),
        (2004, 0.13, 430.0, 25443.0),
        (2007, 0.10, 520.0, 52000.0),
        (2010, 0.07, 620.0, 126530.6),
    ];
    for (t, (year, lambda, size, chip)) in Technology::ALL.iter().zip(expected) {
        assert_eq!(t.year, year);
        assert_eq!(t.lambda_um, lambda);
        assert_eq!(t.chip_mm2, size);
        assert!((t.lambda2_per_chip() / 1e6 - chip).abs() < 1.0);
    }
}

#[test]
fn table2_cell_areas_are_exact() {
    let m = CostModel::paper();
    let cell = m.area_model().cell();
    let expect = [
        ((1u32, 1u32), 2050.0),
        ((2, 1), 2624.0),
        ((5, 3), 13122.0),
        ((10, 6), 45820.0),
        ((20, 12), 145976.0),
    ];
    for ((r, w), area) in expect {
        assert_eq!(
            cell.area(widening::machine::PortCounts {
                reads: r,
                writes: w
            }),
            area
        );
    }
}

#[test]
fn table3_rf_areas_are_exact() {
    let m = CostModel::paper();
    let expect = [
        ("4w1(64:1)", 598.0),
        ("2w2(64:1)", 375.0),
        ("1w4(64:1)", 215.0),
    ];
    for (s, want) in expect {
        let cfg: Configuration = s.parse().unwrap();
        let got = m.area_model().rf_area(&cfg) / 1e6;
        assert!((got - want).abs() < 1.0, "{s}: {got} vs {want}");
    }
}

#[test]
fn table4_fit_within_documented_tolerance() {
    let m = CostModel::paper();
    let (max, mean) = m.timing_model().fit_error();
    assert!(max < 0.06, "worst-case {max}");
    assert!(mean < 0.025, "mean {mean}");
    // Spot-check the §5.2 examples within fit tolerance.
    for (s, want) in [("2w4(32:1)", 1.85), ("2w4(128:1)", 2.09)] {
        let cfg: Configuration = s.parse().unwrap();
        let got = m.relative_cycle_time(&cfg);
        assert!((got - want).abs() / want < 0.06, "{s}: {got} vs {want}");
    }
    // And the full table stays ordered like the paper's columns.
    for rows in ACCESS_TIMES.chunks(4) {
        for pair in rows.windows(2) {
            let a: Configuration =
                Configuration::monolithic(pair[0].buses, pair[0].width, pair[0].registers).unwrap();
            let b: Configuration =
                Configuration::monolithic(pair[1].buses, pair[1].width, pair[1].registers).unwrap();
            assert!(m.relative_cycle_time(&a) < m.relative_cycle_time(&b));
        }
    }
}

#[test]
fn table5_anchor_configurations() {
    let m = CostModel::paper();
    // First implementable generation for the pure-replication family at
    // 32 registers, straight from the paper's symbols.
    let anchors = [
        ("2w1(32:1)", 0.25),
        ("4w1(32:1)", 0.18),
        ("8w1(32:1)", 0.13),
        ("16w1(32:1)", 0.07),
    ];
    for (s, first) in anchors {
        let cfg: Configuration = s.parse().unwrap();
        let got = Technology::ALL
            .iter()
            .find(|t| m.is_implementable(&cfg, t))
            .unwrap_or_else(|| panic!("{s} never implementable"));
        assert_eq!(got.lambda_um, first, "{s}");
    }
    // The paper's "5" symbol: 16w1 with 256 registers fits nowhere.
    let never: Configuration = "16w1(256:1)".parse().unwrap();
    assert!(Technology::ALL
        .iter()
        .all(|t| !m.is_implementable(&never, t)));
}

#[test]
fn table6_cycle_models_are_exact() {
    use widening::ir::OpKind::*;
    let rows = [
        (CycleModel::Cycles4, [1, 4, 19, 27]),
        (CycleModel::Cycles3, [1, 3, 15, 21]),
        (CycleModel::Cycles2, [1, 2, 10, 14]),
        (CycleModel::Cycles1, [1, 1, 5, 7]),
    ];
    for (m, [st, pip, div, sqrt]) in rows {
        assert_eq!(m.latency(Store), st);
        assert_eq!(m.latency(FAdd), pip);
        assert_eq!(m.latency(Load), pip);
        assert_eq!(m.latency(FDiv), div);
        assert_eq!(m.latency(FSqrt), sqrt);
    }
}

#[test]
fn section6_area_claim_direction() {
    // §6: 4w2(128) occupies ~81% of 8w1(128)'s area. Our extrapolated
    // 40R+24W cell is larger than the authors', so we land near 71% —
    // the direction and magnitude class must hold.
    let m = CostModel::paper();
    let a = m.total_area(&"4w2(128:1)".parse().unwrap());
    let b = m.total_area(&"8w1(128:1)".parse().unwrap());
    let ratio = a / b;
    assert!((0.6..0.9).contains(&ratio), "ratio {ratio}");
}

#[test]
fn die_budget_constant_matches_section_5_1() {
    assert_eq!(IMPLEMENTABLE_BUDGET, 0.20);
}
