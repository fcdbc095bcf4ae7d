//! Quickstart: pipeline one loop end to end.
//!
//! Builds the DAXPY kernel, widens it, software-pipelines it on two
//! machines, and prints performance and hardware cost side by side.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use widening_resources::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // y[i] = a * x[i] + y[i] — 3 memory accesses, 2 FP operations.
    let daxpy = kernels::daxpy();
    println!("loop: {daxpy}");

    let cost = CostModel::paper();
    for spec in ["1w1(64:1)", "2w1(64:1)", "1w2(64:1)", "2w2(64:1)"] {
        let cfg: Configuration = spec.parse()?;

        // 1. The widening transform packs compactable operations.
        let wide = widen(daxpy.ddg(), cfg.widening());

        // 2. Lower bounds, then the full schedule → allocate → spill
        //    pipeline.
        let bounds = MiiBounds::compute(wide.ddg(), &cfg, CycleModel::Cycles4);
        let out = schedule_with_registers(
            wide.shared_ddg(),
            &cfg,
            CycleModel::Cycles4,
            &Default::default(),
            &SpillOptions::default(),
        )?;

        // 3. Cost model: area and cycle time.
        let point = cost.design_point(&cfg);

        // One widened iteration covers `Y` original iterations.
        let cycles_per_iter = f64::from(out.schedule.ii()) / f64::from(cfg.widening());
        println!(
            "{spec:>10}: II={} (MII {}), {:.2} cycles/iter, {} regs, \
             area {:.0}e6 l^2, cycle time {:.2}x",
            out.schedule.ii(),
            bounds.mii(),
            cycles_per_iter,
            out.allocation.registers_used(),
            point.area / 1e6,
            point.relative_cycle_time,
        );
    }
    println!();
    println!("note how 1w2 matches 2w1's throughput at a fraction of the cost:");
    println!("that asymmetry, priced over a whole corpus, is the paper's thesis.");
    Ok(())
}
