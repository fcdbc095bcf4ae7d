//! The on-disk container format, and the per-file tier the result
//! exchange ([`crate::exchange`]) publishes through.
//!
//! Every persisted artifact is one `WART` container:
//!
//! ```text
//! magic "WART" · u16 format version · u64 FNV-1a checksum(key+payload)
//! · u32 key length · key bytes · u32 payload length · payload bytes
//! ```
//!
//! The key material is echoed verbatim and compared on load, so a hash
//! collision (or a record moved by hand) reads as a miss, not as a wrong
//! artifact; the checksum demotes torn or corrupt containers to misses
//! too. Compilation stages append their containers to per-pipeline
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

use crate::codec::fnv64;

/// Bump when any codec encoding or the on-disk layout changes shape:
/// old cache directories then read as misses (their `v<N>` subtree is
/// simply ignored).
pub(crate) const FORMAT_VERSION: u16 = 2;

const MAGIC: [u8; 4] = *b"WART";

/// Bytes of a container before its key: magic, version, checksum and
/// key length.
pub(crate) const HEADER_LEN: usize = 18;

/// The versioned subtree of cache directory `root` that every tier
/// reads and writes.
pub(crate) fn versioned_root(root: &Path) -> PathBuf {
    root.join(format!("v{FORMAT_VERSION}"))
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
        let root = versioned_root(root);
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
        parsed
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
    let mut out = Vec::with_capacity(HEADER_LEN + key.len() + 4 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    // The checksum (bytes 6..14) covers everything after it.
    let checksum = fnv64(&out[14..]);
    out[6..14].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// The key length a container header announces; `None` when the
/// header is not a container of this format version.
pub(crate) fn header_key_len(header: &[u8; HEADER_LEN]) -> Option<u32> {
    let rest = header.strip_prefix(&MAGIC)?;
    let (version, rest) = rest.split_first_chunk::<2>()?;
    if u16::from_le_bytes(*version) != FORMAT_VERSION {
        return None;
    }
    let (_checksum, key_len) = rest.split_first_chunk::<8>()?;
    Some(u32::from_le_bytes(key_len.try_into().ok()?))
}

/// The payload of container `bytes`, provided its checksum holds and
/// its echoed key equals `expected_key`.
pub(crate) fn parse_container(bytes: &[u8], expected_key: &[u8]) -> Option<Vec<u8>> {
    let rest = bytes.strip_prefix(&MAGIC)?;
    let (version, rest) = rest.split_first_chunk::<2>()?;
    if u16::from_le_bytes(*version) != FORMAT_VERSION {
        return None;
    }
    let (checksum, checked) = rest.split_first_chunk::<8>()?;
    if u64::from_le_bytes(*checksum) != fnv64(checked) {
        return None;
    }
    let (key_len, rest) = checked.split_first_chunk::<4>()?;
    let key_len = u32::from_le_bytes(*key_len) as usize;
    if rest.len() < key_len {
        return None;
    }
    let (key, rest) = rest.split_at(key_len);
    if key != expected_key {
        return None;
    }
    let (payload_len, payload) = rest.split_first_chunk::<4>()?;
    if u32::from_le_bytes(*payload_len) as usize != payload.len() {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
