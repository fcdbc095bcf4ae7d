//! Compile-cost priority for sweep work units (§ scheduling of the
//! *reproduction's* own parameter studies, not of the paper's machine).
//!
//! A multi-configuration sweep's wall-clock is dominated by its
//! heaviest design points: wide/replicated machines schedule larger
//! modulo-resource tables, and small register files drive the spill
//! engine through many schedule → allocate → spill rounds. A dynamic
//! work queue that hands those units out *first* keeps every worker
//! busy until the very end; FIFO in submission order instead risks a
//! lone worker grinding through `8w1(32:1)` while the rest idle — the
//! classic LPT (longest-processing-time-first) argument.
//!
//! [`sweep_priority`] is that ordering key: a deliberately simple,
//! deterministic surrogate for per-unit compile time. It is *not* a
//! hardware cost — it prices the **compiler's** work, using the same
//! resource-mix intuition as the hardware models (issue bandwidth
//! `X·Y` sets table width; register scarcity sets expected spill
//! rounds). Exact magnitudes are irrelevant; only the induced order
//! matters, and ties fall back to submission order. It has two
//! readers: the in-process sweep, which stably sorts its design points
//! by it before queueing them, and the distributed manifest, which
//! orders each shard's units by it. No result depends on the order.

/// Reference register-file size at which pressure stops being the
/// dominant compile cost (the paper's largest file).
const PRESSURE_REFERENCE_RF: u32 = 256;

/// Relative compile-cost priority of one sweep design point — higher
/// means heavier, schedule first. `registers: None` is peak mode (the
/// pipeline stops after its MII stage), which is far cheaper than any
/// scheduled point of the same resource mix.
///
/// The surrogate is `X·Y · max(1, 256/Z)` scaled so every scheduled
/// point outranks every peak point: issue bandwidth multiplies the
/// scheduler's resource tables, and each halving of the register file
/// below 256 roughly doubles expected spill-engine rounds on
/// pressure-bound loops.
#[must_use]
pub fn sweep_priority(replication: u32, width: u32, registers: Option<u32>) -> u64 {
    let bandwidth = u64::from(replication.max(1)) * u64::from(width.max(1));
    match registers {
        // Peak mode: widen + MII only. Keep the bandwidth ordering but
        // rank below every scheduled point.
        None => bandwidth,
        Some(z) => {
            let scarcity = u64::from(PRESSURE_REFERENCE_RF / z.clamp(1, PRESSURE_REFERENCE_RF));
            // Offset past the peak band (bandwidth is bounded by the
            // machine's factor, far below 1 << 20).
            (1 << 20) + bandwidth * scarcity.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_heavy_points_rank_first() {
        // Small register files outrank large ones at equal bandwidth.
        assert!(sweep_priority(8, 1, Some(32)) > sweep_priority(8, 1, Some(256)));
        // Wider machines outrank narrower ones at equal register file.
        assert!(sweep_priority(4, 2, Some(64)) > sweep_priority(1, 1, Some(64)));
        // The paper's nastiest compile (8w1 on 32 registers) tops its
        // cheapest scheduled point.
        assert!(sweep_priority(8, 1, Some(32)) > sweep_priority(1, 1, Some(256)));
    }

    #[test]
    fn peak_mode_ranks_below_every_scheduled_point() {
        assert!(sweep_priority(16, 16, None) < sweep_priority(1, 1, Some(256)));
        // But keeps the bandwidth order within the peak band.
        assert!(sweep_priority(4, 2, None) > sweep_priority(1, 1, None));
    }
}
