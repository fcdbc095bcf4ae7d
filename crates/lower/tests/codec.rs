//! Never-panic coverage for the lowered-program codec
//! ([`widening_lower::codec`]): the disk tier hands `decode_program`
//! whatever bytes a cache file holds, so arbitrary input must decode or
//! come back `None`. Real programs — every kernel on narrow, wide and
//! register-starved machines — are encoded once and then fed back
//! truncated, byte-flipped or replaced by random bytes.

use std::sync::OnceLock;

use proptest::prelude::*;
use widening_lower::codec::{decode_program, encode_program, PROGRAM_VERSION};
use widening_machine::{Configuration, CycleModel};
use widening_regalloc::schedule_with_registers;
use widening_transform::widen;
use widening_workload::kernels;

/// Encoded programs of every kernel that schedules on each machine;
/// `4w1(32:1)` forces spill code into some of them.
fn corpus() -> &'static [Vec<u8>] {
    static PROGRAMS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let mut out = Vec::new();
        for spec in ["1w1(64:1)", "1w4(64:1)", "2w2(64:1)", "4w1(32:1)"] {
            let cfg: Configuration = spec.parse().unwrap();
            for l in kernels::all() {
                let outcome = widen(l.ddg(), cfg.widening());
                let Ok(result) = schedule_with_registers(
                    outcome.shared_ddg(),
                    &cfg,
                    CycleModel::Cycles4,
                    &Default::default(),
                    &Default::default(),
                ) else {
                    continue;
                };
                let program = widening_lower::lower(l.ddg(), &outcome, &result);
                out.push(encode_program(&program));
            }
        }
        out
    })
}

#[test]
fn every_program_round_trips() {
    assert!(corpus().len() >= 40, "{} programs", corpus().len());
    for bytes in corpus() {
        let program = decode_program(bytes).expect("round trip decodes");
        assert_eq!(&encode_program(&program), bytes);
    }
}

/// A lane range running past `u32::MAX` is rejected: the bounds check
/// must not overflow.
#[test]
fn lane_range_overflow_is_rejected() {
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let bytes = &corpus()[0];
    // Version, nine header words and the owner flag; `max_t` is the
    // fourth header word, and the row table holds `max_t + 2` words.
    let rows = u32_at(bytes, 2 + 3 * 4) as usize + 2;
    let first_inst = 2 + 9 * 4 + 1 + 4 + rows * 4 + 4;
    assert_eq!(bytes[first_inst + 4], 0, "the first instruction computes");
    // node, tag, original, op, produces, then first_lane.
    let first_lane = first_inst + 4 + 1 + 4 + 1 + 1;
    let mut bad = bytes.clone();
    bad[first_lane..first_lane + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_program(&bad).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder. They follow a valid
    /// version tag, so they reach the header and table checks instead
    /// of failing the first read.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut tagged = PROGRAM_VERSION.to_le_bytes().to_vec();
        tagged.extend(bytes);
        let _ = decode_program(&tagged);
    }

    /// Every strict prefix of a valid program is rejected, never a
    /// panic and never a shorter program.
    #[test]
    fn truncation_is_rejected(pick in any::<usize>(), cut in any::<usize>()) {
        let bytes = &corpus()[pick % corpus().len()];
        let at = cut % bytes.len();
        prop_assert!(decode_program(&bytes[..at]).is_none(), "prefix of {} bytes decoded", at);
    }

    /// Flipping one byte never panics, and a flipped program that still
    /// decodes re-encodes to exactly the flipped bytes: the decoder
    /// never silently normalises a field.
    #[test]
    fn single_byte_flips_never_panic(
        pick in any::<usize>(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = corpus()[pick % corpus().len()].clone();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        if let Some(program) = decode_program(&bytes) {
            prop_assert_eq!(encode_program(&program), bytes);
        }
    }
}
