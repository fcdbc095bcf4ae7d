//! Dense bit storage for the scheduler's hot paths.
//!
//! The modulo reservation table keeps one occupancy bit row per unit
//! and probes it 64 slots at a time through the [`words`] helpers; the
//! HRMS path closure keeps node-to-node reachability in a
//! [`BitMatrix`]. Both reset in place, so a scratch arena warmed up once
//! serves every later II attempt without touching the heap.

/// Word-level helpers over `&[u64]` bit storage.
///
/// These operate on raw word slices so callers can pack many fixed-size
/// bit rows into one flat allocation (e.g. one occupancy row per
/// unit, `stride` words each) and still probe them word-at-a-time.
pub(crate) mod words {
    /// Number of `u64` words needed to hold `bits` bits.
    #[must_use]
    pub(crate) const fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    /// Mask with bits `[lo, hi)` of a single word set (`0 ≤ lo ≤ hi ≤ 64`).
    #[inline]
    #[must_use]
    pub(crate) const fn span_mask(lo: usize, hi: usize) -> u64 {
        if lo >= hi {
            return 0;
        }
        let top = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
        top & !((1u64 << lo) - 1)
    }

    /// Whether bit `i` is set.
    #[inline]
    #[must_use]
    pub(crate) fn get(words: &[u64], i: usize) -> bool {
        words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`.
    #[inline]
    pub(crate) fn set(words: &mut [u64], i: usize) {
        words[i / 64] |= 1u64 << (i % 64);
    }

    /// Set the linear run `[start, start + len)`.
    pub(crate) fn set_run(words: &mut [u64], start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let (w0, w1) = (start / 64, (end - 1) / 64);
        if w0 == w1 {
            words[w0] |= span_mask(start % 64, (end - 1) % 64 + 1);
        } else {
            words[w0] |= span_mask(start % 64, 64);
            for w in &mut words[w0 + 1..w1] {
                *w = u64::MAX;
            }
            words[w1] |= span_mask(0, (end - 1) % 64 + 1);
        }
    }

    /// Clear the linear run `[start, start + len)`.
    pub(crate) fn clear_run(words: &mut [u64], start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start + len;
        let (w0, w1) = (start / 64, (end - 1) / 64);
        if w0 == w1 {
            words[w0] &= !span_mask(start % 64, (end - 1) % 64 + 1);
        } else {
            words[w0] &= !span_mask(start % 64, 64);
            for w in &mut words[w0 + 1..w1] {
                *w = 0;
            }
            words[w1] &= !span_mask(0, (end - 1) % 64 + 1);
        }
    }

    /// Whether the linear run `[start, start + len)` is entirely clear.
    #[must_use]
    pub(crate) fn run_is_clear(words: &[u64], start: usize, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let end = start + len;
        let (w0, w1) = (start / 64, (end - 1) / 64);
        if w0 == w1 {
            return words[w0] & span_mask(start % 64, (end - 1) % 64 + 1) == 0;
        }
        if words[w0] & span_mask(start % 64, 64) != 0 {
            return false;
        }
        if words[w0 + 1..w1].iter().any(|&w| w != 0) {
            return false;
        }
        words[w1] & span_mask(0, (end - 1) % 64 + 1) == 0
    }

    /// Set the cyclic run of `run` bits starting at `start` on a circle
    /// of `nbits` bits (`run ≤ nbits`, `start < nbits`).
    pub(crate) fn set_wrapped_run(words: &mut [u64], nbits: usize, start: usize, run: usize) {
        debug_assert!(run <= nbits && (start < nbits || nbits == 0));
        if start + run <= nbits {
            set_run(words, start, run);
        } else {
            set_run(words, start, nbits - start);
            set_run(words, 0, run - (nbits - start));
        }
    }

    /// Whether the cyclic run of `run` bits starting at `start` is
    /// entirely clear (circle of `nbits` bits, `run ≤ nbits`).
    #[must_use]
    pub(crate) fn wrapped_run_is_clear(
        words: &[u64],
        nbits: usize,
        start: usize,
        run: usize,
    ) -> bool {
        debug_assert!(run <= nbits && (start < nbits || nbits == 0));
        if start + run <= nbits {
            run_is_clear(words, start, run)
        } else {
            run_is_clear(words, start, nbits - start)
                && run_is_clear(words, 0, run - (nbits - start))
        }
    }
}

/// A dense boolean matrix (`rows × cols`) over one flat word buffer,
/// with in-place reset. Used for reachability closures where both axes
/// are node ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitMatrix {
    stride: usize,
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Empty matrix; allocates nothing.
    #[must_use]
    pub(crate) fn new() -> Self {
        BitMatrix::default()
    }

    /// Clear all bits and resize to `rows × cols`, keeping capacity.
    pub(crate) fn reset(&mut self, rows: usize, cols: usize) {
        self.stride = words::words_for(cols);
        self.rows = rows;
        self.cols = cols;
        self.bits.clear();
        self.bits.resize(rows * self.stride, 0);
    }

    /// Whether bit `(r, c)` is set.
    #[inline]
    #[must_use]
    pub(crate) fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        words::get(&self.bits[r * self.stride..(r + 1) * self.stride], c)
    }

    /// Set bit `(r, c)`; returns `true` if it was previously clear.
    #[inline]
    pub(crate) fn insert(&mut self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        let row = &mut self.bits[r * self.stride..(r + 1) * self.stride];
        let was = words::get(row, c);
        words::set(row, c);
        !was
    }
}
