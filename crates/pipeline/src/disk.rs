//! The on-disk container format, and the per-file tier the result
//! exchange ([`crate::exchange`]) publishes through.
//!
//! Every persisted artifact is one `WART` container:
//!
//! ```text
//! magic "WART" · u16 format version · u64 XXH64 checksum of the rest
//! · u32 key length · key bytes · u32 payload length · payload bytes
//! ```
//!
//! The key material is echoed verbatim and compared on load, so a hash
//! collision (or a record moved by hand) reads as a miss, not as a wrong
//! artifact; the checksum demotes torn or corrupt containers to misses
//! too. The checksum is XXH64 ([`widening_wire::xxh64`], seed 0): a
//! warm sweep re-verifies every record it loads, tens of megabytes, and
//! XXH64 runs about ten times faster than the byte-serial FNV-1a the
//! version 2 format used. It is written last, patched into its
//! placeholder once the key and payload are in place.
//!
//! Compilation stages append their containers to per-pipeline
//! segments ([`crate::segment`]); the exchange keeps one file per
//! record under `<root>/v<FORMAT_VERSION>/<kind>/<hh>/<32-hex-key>.bin`,
//! where `<hh>` is a two-hex-digit fan-out directory and the key is the
//! 128-bit FNV-1a hash of the record's key material. Per-file writes go
//! through a uniquely-named temp file in the same directory followed by
//! an atomic rename, so concurrent writers (threads or whole processes
//! racing on a shared cache directory) can only ever publish complete
//! files.
//!
//! Both tiers are strictly best-effort: every I/O failure is swallowed
//! (counted, for the curious) and the caller falls back to computing
//! live. A cache directory on a dead disk costs performance, never
//! correctness.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use widening_wire::{xxh64, Reader, Writer};

/// Bump when any codec encoding or the on-disk layout changes shape:
/// old cache directories then read as misses (their `v<N>` subtree is
/// simply ignored, and `cache gc` removes it). Version 3 brought the
/// XXH64 checksum; version 4 dropped the allocations' arc-order
/// assignment list and the graph of schedule records without spill
/// code (a one-byte tag names the point's widened graph instead).
pub(crate) const FORMAT_VERSION: u16 = 4;

const MAGIC: [u8; 4] = *b"WART";

/// Offset of the checksum: after magic and version.
const CHECKSUM_AT: usize = 6;

/// Offset where the checksummed bytes start: after the checksum.
const CHECKED_FROM: usize = CHECKSUM_AT + 8;

/// Bytes of a container before its key: magic, version, checksum and
/// key length.
pub(crate) const HEADER_LEN: usize = CHECKED_FROM + 4;

/// The store of cache directory `cache_dir`: the subtree of the current
/// format version, `<cache_dir>/v<FORMAT_VERSION>`, that every tier
/// reads and writes.
#[must_use]
pub fn store_root(cache_dir: &Path) -> PathBuf {
    cache_dir.join(format!("v{FORMAT_VERSION}"))
}

#[derive(Debug)]
pub(crate) struct DiskTier {
    root: PathBuf,
    /// Monotonic suffix for temp-file names within this process.
    tmp_seq: AtomicU64,
    /// Swallowed I/O or format failures (useful when debugging a cache
    /// directory that mysteriously never warms up).
    errors: AtomicU64,
}

impl DiskTier {
    /// Opens (creating if needed) a cache directory. Returns `None` when
    /// the directory cannot be created — the caller then runs without a
    /// disk tier.
    pub(crate) fn open(root: &Path) -> Option<Self> {
        let root = store_root(root);
        fs::create_dir_all(&root).ok()?;
        Some(DiskTier {
            root,
            tmp_seq: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    fn path_of(&self, kind: &str, key_hash: u128) -> PathBuf {
        let hex = format!("{key_hash:032x}");
        self.root.join(kind).join(&hex[..2]).join(hex + ".bin")
    }

    /// Loads the payload stored under `(kind, key_hash)`, verifying the
    /// container checksum and that the echoed key material equals
    /// `key_bytes`. Any mismatch or I/O failure is a miss. A hit
    /// refreshes the file's mtime — the generation stamp the lifecycle
    /// layer ([`crate::maint`]) prunes by — best-effort.
    pub(crate) fn load(&self, kind: &str, key_hash: u128, key_bytes: &[u8]) -> Option<Vec<u8>> {
        let path = self.path_of(kind, key_hash);
        let bytes = fs::read(&path).ok()?;
        let parsed = parse_container(&bytes, key_bytes);
        if parsed.is_none() && !bytes.is_empty() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        if parsed.is_some() {
            if let Ok(f) = fs::File::options().append(true).open(&path) {
                let _ = f.set_modified(std::time::SystemTime::now());
            }
        }
        parsed.map(<[u8]>::to_vec)
    }

    /// Persists `payload` under `(kind, key_hash)`. Best-effort: errors
    /// are counted and swallowed.
    pub(crate) fn store(&self, kind: &str, key_hash: u128, key_bytes: &[u8], payload: &[u8]) {
        if self.try_store(kind, key_hash, key_bytes, payload).is_none() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_store(
        &self,
        kind: &str,
        key_hash: u128,
        key_bytes: &[u8],
        payload: &[u8],
    ) -> Option<()> {
        let path = self.path_of(kind, key_hash);
        let dir = path.parent()?;
        let file = encode_container(key_bytes, payload);
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        // Optimistically assume the fan-out directory exists (it does
        // for all but the first artifact it receives): a failed create
        // makes the directory and retries once. Saves a `create_dir_all`
        // round-trip per store.
        let mut out = match fs::File::create(&tmp) {
            Ok(f) => f,
            Err(_) => {
                fs::create_dir_all(dir).ok()?;
                fs::File::create(&tmp).ok()?
            }
        };
        let written = out.write_all(&file).and_then(|()| out.flush());
        drop(out);
        if written.is_err() || fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        Some(())
    }

    /// Swallowed I/O/format failures so far.
    pub(crate) fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

/// Encodes `payload` under `key` as one container.
pub(crate) fn encode_container(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(HEADER_LEN + key.len() + 4 + payload.len());
    w.bytes(&MAGIC);
    w.u16(FORMAT_VERSION);
    w.u64(0); // the checksum, patched in below
    w.len(key.len());
    w.bytes(key);
    w.len(payload.len());
    w.bytes(payload);
    // The checksum covers everything after it.
    let checksum = xxh64(&w.as_bytes()[CHECKED_FROM..]);
    w.patch_u64(CHECKSUM_AT, checksum);
    w.into_bytes()
}

/// The checksum a container of this format version announces, leaving
/// `r` at its key length; `None` for any other header.
fn header_checksum(r: &mut Reader<'_>) -> Option<u64> {
    if r.take(4)? != MAGIC || r.u16()? != FORMAT_VERSION {
        return None;
    }
    r.u64()
}

/// The key length a container header announces; `None` when the
/// header is not a container of this format version.
pub(crate) fn header_key_len(header: &[u8; HEADER_LEN]) -> Option<u32> {
    let mut r = Reader::new(header);
    header_checksum(&mut r)?;
    r.u32()
}

/// The payload of container `bytes`, in place, provided its checksum
/// holds and its echoed key equals `expected_key`.
pub(crate) fn parse_container<'a>(bytes: &'a [u8], expected_key: &[u8]) -> Option<&'a [u8]> {
    let mut r = Reader::new(bytes);
    let checksum = header_checksum(&mut r)?;
    let checked = r.take(r.remaining())?;
    if checksum != xxh64(checked) {
        return None;
    }
    let mut r = Reader::new(checked);
    let key_len = r.u32()? as usize;
    if r.take(key_len)? != expected_key {
        return None;
    }
    let payload_len = r.u32()? as usize;
    let payload = r.take(payload_len)?;
    r.exhausted().then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tier() -> (PathBuf, DiskTier) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "widening-disk-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        let t = DiskTier::open(&dir).expect("temp dir creatable");
        (dir, t)
    }

    #[test]
    fn round_trips_payload_under_key() {
        let (dir, t) = tier();
        t.store("result", 42, b"key-material", b"payload");
        assert_eq!(
            t.load("result", 42, b"key-material").as_deref(),
            Some(&b"payload"[..])
        );
        // Missing entries and foreign kinds miss.
        assert_eq!(t.load("result", 43, b"key-material"), None);
        assert_eq!(t.load("batch", 42, b"key-material"), None);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn key_echo_mismatch_is_a_miss() {
        let (dir, t) = tier();
        t.store("batch", 7, b"the-real-key", b"artifact");
        assert_eq!(t.load("batch", 7, b"an-impostor!"), None);
        assert!(t.errors() >= 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn golden_container_bytes() {
        let hex: String = encode_container(b"key", b"payload")
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "574152540400714600bf307e5f76030000006b6579070000007061796c6f6164"
        );
    }

    #[test]
    fn version_2_containers_read_as_misses() {
        // The same record in format version 2 (FNV-1a checksum) and in
        // version 3 (this checksum, older stage codecs): each header
        // names another version, so neither parses, whatever its
        // checksum.
        for hex in [
            "574152540200c0e346ecb6eeaf9c030000006b6579070000007061796c6f6164",
            "574152540300714600bf307e5f76030000006b6579070000007061796c6f6164",
        ] {
            let old: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert_eq!(parse_container(&old, b"key"), None);
            let header: [u8; HEADER_LEN] = old[..HEADER_LEN].try_into().unwrap();
            assert_eq!(header_key_len(&header), None);
        }
        let live = encode_container(b"key", b"payload");
        assert_eq!(parse_container(&live, b"key"), Some(&b"payload"[..]));
    }

    #[test]
    fn corruption_is_a_miss() {
        let (dir, t) = tier();
        t.store("simsum", 9, b"k", b"payload-bytes");
        let path = t.path_of("simsum", 9);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        assert_eq!(t.load("simsum", 9, b"k"), None);
        let _ = fs::remove_dir_all(dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_bit_flip_and_truncation_is_a_miss(
            key in proptest::collection::vec(any::<u8>(), 0..=64),
            payload in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            let bytes = encode_container(&key, &payload);
            prop_assert_eq!(parse_container(&bytes, &key), Some(&payload[..]));
            for cut in 0..bytes.len() {
                prop_assert_eq!(parse_container(&bytes[..cut], &key), None);
            }
            let mut flipped = bytes.clone();
            for bit in 0..bytes.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_eq!(parse_container(&flipped, &key), None);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
