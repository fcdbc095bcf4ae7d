//! Kernel study: which loops benefit from widening, and which do not.
//!
//! Runs every named kernel through the pipeline on the equal-peak ×4
//! family (4w1 / 2w2 / 1w4) and prints cycles per original iteration.
//! Vectorizable kernels (DAXPY, FIR) ride the wide units; recurrences
//! (Horner, linear recurrence) and strided accesses (column walks) are
//! the paper's "non-compactable" cases that pin pure widening down.
//!
//! ```sh
//! cargo run --release --example kernel_study
//! ```

use widening_resources::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let configs: Vec<Configuration> = ["4w1(64:1)", "2w2(64:1)", "1w4(64:1)"]
        .iter()
        .map(|s| s.parse())
        .collect::<Result<_, _>>()?;

    println!(
        "{:<18} {:>6} {:>10} {:>10} {:>10}   notes",
        "kernel", "ops", "4w1", "2w2", "1w4"
    );
    for kernel in kernels::all() {
        let mut cells = Vec::new();
        let mut packed_at_4 = 0.0;
        for cfg in &configs {
            let wide = widen(kernel.ddg(), cfg.widening());
            if cfg.widening() == 4 {
                packed_at_4 = wide.packed_fraction();
            }
            let out = schedule_with_registers(
                wide.shared_ddg(),
                cfg,
                CycleModel::Cycles4,
                &Default::default(),
                &SpillOptions::default(),
            )?;
            cells.push(f64::from(out.schedule.ii()) / f64::from(cfg.widening()));
        }
        let note = if kernel.ddg().recurrence_nodes().is_empty() {
            if packed_at_4 < 1.0 {
                "partly compactable"
            } else {
                "fully compactable"
            }
        } else {
            "recurrence-bound"
        };
        println!(
            "{:<18} {:>6} {:>10.2} {:>10.2} {:>10.2}   {} ({}% packed at Y=4)",
            kernel.name(),
            kernel.ddg().num_nodes(),
            cells[0],
            cells[1],
            cells[2],
            note,
            (packed_at_4 * 100.0) as u32,
        );
    }
    println!();
    println!("cycles per original iteration; lower is better.");
    Ok(())
}
