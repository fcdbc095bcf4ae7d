//! **widening-wire** — the one little-endian codec every binary format
//! of the *Widening Resources* reproduction is written with.
//!
//! The environment is offline, so nothing leans on serde: each format
//! is a hand-written sequence of [`Writer`] calls, read back by the
//! mirror-image [`Reader`] calls. The formats carried here are the
//! `WART` container and segment framing, the pipeline's stage records,
//! exchange batches and simulation summaries, the fleet's manifest,
//! lease stamp and shard report, lowered `WideProgram`s and `WTRC`
//! traces. The crate is std-only and sits at the bottom of the crate
//! graph so every one of them, `widening-obs` included, can use it.
//!
//! Reading is *total*: every read returns `Option` and yields `None`
//! past the end of the input, so a decoder built from these reads can
//! fail on corrupt bytes but never panic. Counts follow one rule,
//! [`Reader::len`]: a count of elements that each take at least `k`
//! bytes may describe at most the bytes left, so a decoder may
//! preallocate the count it reads.
//!
//! Two hashes, for two jobs. [`fnv128`] names content: loop
//! fingerprints, record keys, manifest fingerprints. Names are short
//! and their bytes are pinned on disk, so they keep FNV-1a. [`xxh64`]
//! checksums containers: a warm store re-verifies every record it
//! loads, megabytes per sweep, so the checksum must run at memory
//! speed, and XXH64 consumes 32 bytes per step where FNV-1a is
//! byte-serial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty sink.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty sink with room for `bytes` bytes.
    #[inline]
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the sink, returning the encoded bytes.
    #[inline]
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim (length is the caller's business).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The bytes written so far.
    #[inline]
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrites the little-endian `u64` at byte `at` with `v`: a
    /// placeholder written earlier for a field, such as a checksum,
    /// that depends on bytes written after it.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 8 bytes were written from `at` on.
    #[inline]
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends a count (a `u32`), read back by [`Reader::len`].
    #[inline]
    pub fn len(&mut self, n: usize) {
        debug_assert!(u32::try_from(n).is_ok());
        self.u32(n as u32);
    }

    /// Appends a string: its byte length (a `u32`), then its UTF-8
    /// bytes. Read back by [`Reader::str`].
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }
}

/// Cursor over an encoded buffer; every read is bounds-checked and
/// returns `None` past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed: decoders require this so
    /// trailing garbage is rejected.
    #[inline]
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes and returns the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Consumes the next `N` bytes as an array. Unlike `take`, it needs
    /// no `checked_add` (`pos + N` cannot overflow: `pos` is at most a
    /// slice's length); going through `take` measured about 40% slower
    /// on `decode_program`.
    #[inline]
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.buf.get(self.pos..self.pos + N)?;
        self.pos += N;
        bytes.try_into().ok()
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Option<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads a count of elements that each encode to at least
    /// `min_bytes` bytes (at least 1), rejecting a count the bytes left
    /// cannot hold. A decoder may therefore preallocate the count it
    /// reads: the allocation is bounded by the input. (Not a container
    /// size; the emptiness query is [`Reader::exhausted`].)
    #[inline]
    pub fn len(&mut self, min_bytes: usize) -> Option<usize> {
        debug_assert!(min_bytes > 0);
        let n = self.u32()? as usize;
        (n <= self.remaining() / min_bytes).then_some(n)
    }

    /// Reads a string written by [`Writer::str`]; `None` when its
    /// length runs past the end or its bytes are not UTF-8.
    #[inline]
    pub fn str(&mut self) -> Option<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).ok()
    }
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// 128-bit FNV-1a: content fingerprints, record keys and file names.
#[inline]
#[must_use]
pub fn fnv128(bytes: &[u8]) -> u128 {
    bytes.iter().fold(FNV128_OFFSET, |h, &b| {
        (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME)
    })
}

const XXH_PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const XXH_PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

/// The little-endian `u64` in the first 8 bytes of `bytes`.
#[inline]
fn lane(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

#[inline]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

#[inline]
fn xxh_merge(acc: u64, v: u64) -> u64 {
    (acc ^ xxh_round(0, v))
        .wrapping_mul(XXH_PRIME_1)
        .wrapping_add(XXH_PRIME_4)
}

/// XXH64 with seed 0, as the xxHash specification
/// (`doc/xxhash_spec.md`, Yann Collet) defines it: the container
/// checksum. Inputs of 32 bytes or more run four independent
/// accumulators over 32-byte stripes; the tail is folded in by 8-, 4-
/// and 1-byte steps, then avalanched.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut acc = if bytes.len() >= 32 {
        let mut v = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            XXH_PRIME_1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            v[0] = xxh_round(v[0], lane(&stripe[..8]));
            v[1] = xxh_round(v[1], lane(&stripe[8..16]));
            v[2] = xxh_round(v[2], lane(&stripe[16..24]));
            v[3] = xxh_round(v[3], lane(&stripe[24..]));
        }
        let acc = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(acc, xxh_merge)
    } else {
        XXH_PRIME_5
    };
    acc = acc.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        acc = (acc ^ xxh_round(0, lane(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        acc = (acc ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = rest;
    }
    for &byte in tail {
        acc = (acc ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }
    acc ^= acc >> 33;
    acc = acc.wrapping_mul(XXH_PRIME_2);
    acc ^= acc >> 29;
    acc = acc.wrapping_mul(XXH_PRIME_3);
    acc ^ (acc >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count `n` followed by `tail` zero bytes.
    fn counted(n: u32, tail: usize) -> Vec<u8> {
        let mut w = Writer::new();
        w.len(n as usize);
        w.bytes(&vec![0; tail]);
        w.into_bytes()
    }

    #[test]
    fn reader_len_rejects_counts_past_the_input() {
        // A count may describe at most the bytes left after it.
        assert_eq!(Reader::new(&counted(0, 0)).len(1), Some(0));
        assert_eq!(Reader::new(&counted(3, 3)).len(1), Some(3));
        assert_eq!(Reader::new(&counted(4, 3)).len(1), None);
        assert_eq!(Reader::new(&counted(1 << 24, 8)).len(1), None);
        assert_eq!(Reader::new(&counted(u32::MAX, 64)).len(1), None);
        // n elements of at least k bytes pass when n·k equals the bytes
        // left, and fail one byte short.
        for (n, k) in [(1, 1), (5, 4), (3, 13), (7, 33)] {
            let fits = n as usize * k;
            assert_eq!(Reader::new(&counted(n, fits)).len(k), Some(n as usize));
            assert_eq!(Reader::new(&counted(n, fits - 1)).len(k), None);
            assert_eq!(Reader::new(&counted(n + 1, fits)).len(k), None);
        }
        // A truncated count is no count.
        assert_eq!(Reader::new(&[1, 0, 0]).len(1), None);
    }

    #[test]
    fn strings_round_trip_and_fail_closed() {
        let mut w = Writer::new();
        w.str("worker-1");
        w.str("");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str(), Some("worker-1"));
        assert_eq!(r.str(), Some(""));
        assert!(r.exhausted());
        // Bad UTF-8, and a length past the end, read as `None`.
        let mut bad = Writer::new();
        bad.len(2);
        bad.bytes(&[0xc3, 0x28]);
        assert_eq!(Reader::new(&bad.into_bytes()).str(), None);
        assert_eq!(Reader::new(&counted(9, 8)).str(), None);
    }

    #[test]
    fn reads_past_the_end_are_none() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.take(usize::MAX), None);
        assert_eq!(r.take(usize::MAX - 1), None);
        assert_eq!(r.u32(), None);
        assert_eq!(r.u16(), Some(0x0201));
        assert_eq!(r.take(usize::MAX), None);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u8(), Some(3));
        assert!(r.exhausted());
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn primitives_are_little_endian() {
        let mut w = Writer::with_capacity(23);
        w.u8(0xab);
        w.u16(0x0102);
        w.u32(0x0304_0506);
        w.u64(0x0708_090a_0b0c_0d0e);
        w.i64(-2);
        let bytes = w.into_bytes();
        assert_eq!(
            bytes,
            [
                0xab, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03, 0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08,
                0x07, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff
            ]
        );
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Some(0xab));
        assert_eq!(r.u16(), Some(0x0102));
        assert_eq!(r.u32(), Some(0x0304_0506));
        assert_eq!(r.u64(), Some(0x0708_090a_0b0c_0d0e));
        assert_eq!(r.i64(), Some(-2));
        assert!(r.exhausted());
    }

    #[test]
    fn patched_fields_land_in_place() {
        let mut w = Writer::new();
        w.u16(0xabcd);
        w.u64(0);
        w.u8(7);
        w.patch_u64(2, 0x0102_0304_0506_0708);
        assert_eq!(w.as_bytes(), [0xcd, 0xab, 8, 7, 6, 5, 4, 3, 2, 1, 7]);
    }

    #[test]
    fn fnv_matches_published_vectors() {
        // FNV-1a test vectors (Fowler, Noll and Vo).
        assert_eq!(fnv128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(fnv128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn xxh64_matches_known_answers() {
        // Seed 0. The 39-byte input is one 32-byte stripe plus a tail.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn xxh64_matches_the_xxhsum_sanity_table() {
        // xxHash's own self-test buffer (`cli/xsum_sanity_check.c`):
        // byte i is the top byte of 2654435761 · 11400714785074694797^i
        // (mod 2^64). Its published seed-0 XXH64 values; 222 bytes is
        // six stripes and a 30-byte tail.
        let mut state: u64 = 2_654_435_761;
        let buffer: Vec<u8> = (0..222)
            .map(|_| {
                let byte = (state >> 56) as u8;
                state = state.wrapping_mul(11_400_714_785_074_694_797);
                byte
            })
            .collect();
        assert_eq!(xxh64(&buffer[..0]), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(&buffer[..1]), 0xe934_a84a_db05_2768);
        assert_eq!(xxh64(&buffer[..4]), 0x9136_a0dc_a574_57ee);
        assert_eq!(xxh64(&buffer[..14]), 0x8282_dcc4_994e_35c8);
        assert_eq!(xxh64(&buffer), 0xb641_ae8c_b691_c174);
    }

    #[test]
    fn xxh64_is_pinned_across_stripe_and_tail_lengths() {
        // Lengths around the 32-byte stripe and each tail step (8-byte
        // words, a 4-byte half word, single bytes), over the bytes
        // `i * 7 + 3`.
        let input = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 7 + 3) as u8).collect() };
        let pinned = [
            (8, 0xdab9_9d95_c6f9_0092),
            (31, 0xa2aa_5f33_cc4a_6119),
            (32, 0x23c3_c17e_f790_fd97),
            (33, 0x50a7_cfc7_ba58_8784),
            (64, 0x0eb6_4b3e_f6ee_b01f),
            (1000, 0x5f23_5fa0_33f1_a3fb),
        ];
        for (len, want) in pinned {
            assert_eq!(xxh64(&input(len)), want, "length {len}");
        }
    }
}
