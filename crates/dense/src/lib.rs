//! Dense storage primitives for the compile-chain hot paths.
//!
//! Everything in the scheduler is keyed by a small dense integer — a
//! [`NodeId`](https://docs.rs) index, an edge index, a kernel row. This
//! crate provides the flat-table and word-bitset building blocks those
//! hot paths share, all designed around one discipline:
//!
//! * **reset, don't reallocate** — every container has a `reset(..)`
//!   that clears and re-sizes in place, so a scratch arena warmed up
//!   once serves every subsequent II attempt without touching the heap;
//! * **probe words, not elements** — occupancy questions (“is this run
//!   of slots free?”, “do these two coverage sets intersect?”) are
//!   answered 64 slots at a time via the [`words`] helpers.
//!
//! The types here are deliberately minimal: no iterators that allocate,
//! no entry APIs, no hashing. See the `sched` crate's `SchedScratch`
//! for the arena composed from these parts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Word-level helpers over `&[u64]` bit storage.
///
/// These operate on raw word slices so callers can pack many fixed-size
/// bit rows into one flat allocation (e.g. one occupancy row per
/// register, `stride` words each) and still probe them word-at-a-time.
pub mod words {
    /// Number of `u64` words needed to hold `bits` bits.
    #[must_use]
    pub const fn words_for(bits: usize) -> usize {
        bits.div_ceil(64)
    }

    /// Mask with bits `[lo, hi)` of a single word set (`0 ≤ lo ≤ hi ≤ 64`).
    #[inline]
    #[must_use]
    pub const fn span_mask(lo: usize, hi: usize) -> u64 {
        if lo >= hi {
            return 0;
        }
        let top = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
        top & !((1u64 << lo) - 1)
    }

    /// Whether bit `i` is set.
    #[inline]
    #[must_use]
    pub fn get(words: &[u64], i: usize) -> bool {
        words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(words: &mut [u64], i: usize) {
        words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(words: &mut [u64], i: usize) {
        words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Set the linear run `[start, start + len)`.
    pub fn set_run(words: &mut [u64], start: usize, len: usize) {
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
    pub fn clear_run(words: &mut [u64], start: usize, len: usize) {
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
    pub fn run_is_clear(words: &[u64], start: usize, len: usize) -> bool {
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
    pub fn set_wrapped_run(words: &mut [u64], nbits: usize, start: usize, run: usize) {
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
    pub fn wrapped_run_is_clear(words: &[u64], nbits: usize, start: usize, run: usize) -> bool {
        debug_assert!(run <= nbits && (start < nbits || nbits == 0));
        if start + run <= nbits {
            run_is_clear(words, start, run)
        } else {
            run_is_clear(words, start, nbits - start)
                && run_is_clear(words, 0, run - (nbits - start))
        }
    }

    /// Whether two equal-length bit rows share no set bit (word-AND).
    #[must_use]
    pub fn disjoint(a: &[u64], b: &[u64]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).all(|(&x, &y)| x & y == 0)
    }

    /// OR `src` into `dst` (equal length).
    pub fn union_into(dst: &mut [u64], src: &[u64]) {
        debug_assert_eq!(dst.len(), src.len());
        for (d, &s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }
}

/// A dense, index-keyed table — an `ArrayMap` over small integer ids.
///
/// Semantically a `Vec<T>` whose only growth operation is
/// [`Table::reset`]: clear and refill to a new length with a fill
/// value, retaining capacity. Using it instead of a bare `Vec` marks a
/// buffer as *scratch with resettable identity* (keyed by node id,
/// lifetime index, …) rather than an accumulating list.
#[derive(Debug, Clone, Default)]
pub struct Table<T> {
    items: Vec<T>,
}

impl<T> Table<T> {
    /// Empty table; allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        Table { items: Vec::new() }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: Clone> Table<T> {
    /// Clear and refill to `n` copies of `fill`, keeping capacity.
    pub fn reset(&mut self, n: usize, fill: T) {
        self.items.clear();
        self.items.resize(n, fill);
    }
}

impl<T> std::ops::Deref for Table<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T> std::ops::DerefMut for Table<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

/// A fixed-length word bitset with in-place reset.
#[derive(Debug, Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Empty bitset; allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        BitSet {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Clear all bits and resize to `len` bits, keeping capacity.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(words::words_for(len), 0);
        self.len = len;
    }

    /// Number of addressable bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset addresses zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether bit `i` is set.
    #[inline]
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        words::get(&self.words, i)
    }

    /// Set bit `i`; returns `true` if it was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let was = words::get(&self.words, i);
        words::set(&mut self.words, i);
        !was
    }

    /// Clear bit `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.len);
        words::clear(&mut self.words, i);
    }

    /// Zero every bit, keeping the length.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Whether any bit is set in both `self` and `other` (equal length).
    #[must_use]
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        !words::disjoint(&self.words, &other.words)
    }

    /// OR `other` into `self` (equal length).
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        words::union_into(&mut self.words, &other.words);
    }

    /// The backing words (low bit of word 0 is bit 0).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// A dense boolean matrix (`rows × cols`) over one flat word buffer,
/// with in-place reset. Used for reachability closures where both axes
/// are node ids.
#[derive(Debug, Clone, Default)]
pub struct BitMatrix {
    stride: usize,
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Empty matrix; allocates nothing.
    #[must_use]
    pub fn new() -> Self {
        BitMatrix::default()
    }

    /// Clear all bits and resize to `rows × cols`, keeping capacity.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.stride = words::words_for(cols);
        self.rows = rows;
        self.cols = cols;
        self.bits.clear();
        self.bits.resize(rows * self.stride, 0);
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether bit `(r, c)` is set.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        words::get(&self.bits[r * self.stride..(r + 1) * self.stride], c)
    }

    /// Set bit `(r, c)`; returns `true` if it was previously clear.
    #[inline]
    pub fn insert(&mut self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        let row = &mut self.bits[r * self.stride..(r + 1) * self.stride];
        let was = words::get(row, c);
        words::set(row, c);
        !was
    }

    /// The words of row `r`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u64] {
        debug_assert!(r < self.rows);
        &self.bits[r * self.stride..(r + 1) * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_mask_edges() {
        assert_eq!(words::span_mask(0, 64), u64::MAX);
        assert_eq!(words::span_mask(0, 1), 1);
        assert_eq!(words::span_mask(63, 64), 1u64 << 63);
        assert_eq!(words::span_mask(5, 5), 0);
        assert_eq!(words::span_mask(4, 8), 0b1111_0000);
    }

    #[test]
    fn run_ops_match_bit_ops() {
        // Exhaustive-ish cross-check of the word-level run helpers
        // against the obvious bit-at-a-time reference.
        let nbits = 150;
        for &(start, len) in &[
            (0, 1),
            (63, 2),
            (0, 150),
            (149, 1),
            (64, 64),
            (10, 100),
            (70, 5),
        ] {
            let mut w = vec![0u64; words::words_for(nbits)];
            words::set_run(&mut w, start, len.min(nbits - start));
            for i in 0..nbits {
                let expect = i >= start && i < start + len.min(nbits - start);
                assert_eq!(words::get(&w, i), expect, "bit {i} of run {start}+{len}");
            }
            assert!(!words::run_is_clear(&w, start, len.min(nbits - start)));
            words::clear_run(&mut w, start, len.min(nbits - start));
            assert!(w.iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn wrapped_run_wraps() {
        let nbits = 100;
        let mut w = vec![0u64; words::words_for(nbits)];
        words::set_wrapped_run(&mut w, nbits, 90, 20); // [90,100) ∪ [0,10)
        for i in 0..nbits {
            assert_eq!(words::get(&w, i), !(10..90).contains(&i));
        }
        assert!(!words::wrapped_run_is_clear(&w, nbits, 95, 2));
        assert!(words::wrapped_run_is_clear(&w, nbits, 10, 80));
    }

    #[test]
    fn bitset_reset_reuses() {
        let mut b = BitSet::new();
        b.reset(70);
        assert!(b.insert(69));
        assert!(!b.insert(69));
        assert!(b.contains(69));
        b.reset(10);
        assert_eq!(b.len(), 10);
        assert!(!b.contains(9));
    }

    #[test]
    fn bitset_intersects_and_union() {
        let (mut a, mut b) = (BitSet::new(), BitSet::new());
        a.reset(130);
        b.reset(130);
        a.insert(128);
        assert!(!a.intersects(&b));
        b.insert(128);
        assert!(a.intersects(&b));
        let mut c = BitSet::new();
        c.reset(130);
        c.union_with(&a);
        assert!(c.contains(128));
    }

    #[test]
    fn bitmatrix_round_trip() {
        let mut m = BitMatrix::new();
        m.reset(3, 70);
        assert!(m.insert(2, 69));
        assert!(!m.insert(2, 69));
        assert!(m.get(2, 69));
        assert!(!m.get(1, 69));
        assert_eq!(m.row(2)[1], 1u64 << 5);
        m.reset(1, 4);
        assert!(!m.get(0, 3));
    }

    #[test]
    fn table_reset_keeps_capacity() {
        let mut t: Table<u32> = Table::new();
        t.reset(4, 7);
        assert_eq!(&t[..], &[7, 7, 7, 7]);
        t[2] = 9;
        t.reset(2, 0);
        assert_eq!(&t[..], &[0, 0]);
    }
}
