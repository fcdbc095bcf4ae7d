//! The stage tier of the artifact store: append-only segments.
//!
//! Every [`crate::Pipeline`] with a cache directory appends the stage
//! artifacts it computes to one segment of its own,
//! `<root>/v<FORMAT_VERSION>/segments/<created-ns>-<pid>-<seq>.seg`,
//! created at its first store. Names sort by creation time. A record
//! is one `WART` container ([`crate::disk`]) whose checksummed, echoed
//! key starts with the stage name ([`stage_key`]), so a segment needs
//! no framing of its own and `cache stat` attributes records to stages
//! from their headers alone.
//!
//! Opening a pipeline scans the record headers of every segment
//! present, oldest first, through a bounded buffer (payloads are
//! skipped, never held) into an index `hash(key) → (segment, offset,
//! length)`. A later record for the same key replaces an earlier one:
//! the newest wins. A load reads one record with a positioned read
//! (`pread`, so this tier builds on Unix only) into its thread's
//! reusable record buffer and re-verifies its checksum and key echo, so
//! corruption is a counted miss. It then decodes in place: the stage
//! decoder reads the payload in that buffer, and no payload is copied
//! out or allocated for. A pipeline sees the segments that existed when
//! it opened plus its own appends; an artifact another process writes
//! later is recomputed, which costs work, never bits.
//!
//! A record never repeats a graph another record carries. A `sched`
//! record of a stage without spill code holds a one-byte tag where its
//! graph would be (format version 4); the decoder receives the point's
//! widened graph and shares it. A warm pipeline therefore holds one
//! graph per `(loop, Y)`, as a cold one does. Only spill-engine stages
//! have `sched` records: a stage the base schedule fits is the base's
//! own.
//!
//! A scan stops at the first record it cannot frame: a torn tail (what
//! a live writer's segment looks like mid-append, and what a killed
//! writer leaves behind) or a corrupt length field. Nothing after it is
//! indexed and nothing is counted; the records before it still load.
//!
//! Generations ([`crate::maint`]) are per segment: the first load from
//! a segment refreshes its mtime once per pipeline, appends keep the
//! writer's own segment current, and gc removes whole segments. Reads
//! go through a small LRU of open segments, so a directory of hundreds
//! of segments never runs a process out of file descriptors.

use std::cell::Cell;
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufReader, Read as _, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

use widening_wire::{fnv128, Reader, Writer};

use crate::disk::{self, HEADER_LEN};

/// Stage names: the first field of every stage record's key.
pub(crate) const STAGE_WIDEN: &str = "widen";
pub(crate) const STAGE_MII: &str = "mii";
pub(crate) const STAGE_BASE: &str = "base";
pub(crate) const STAGE_SCHED: &str = "sched";
pub(crate) const STAGE_LOWER: &str = "lower";

/// Directory of the segments inside the versioned root.
pub(crate) const SEGMENT_DIR: &str = "segments";

const SEGMENT_EXT: &str = "seg";

/// Segments a pipeline keeps open for reading at once.
const MAX_OPEN_SEGMENTS: usize = 8;

/// Read buffer of the open-time header scan.
const SCAN_BUFFER: usize = 64 * 1024;

/// A key under construction for a `stage` record: the stage name,
/// length-prefixed. The caller appends the rest of the key material,
/// which the writer's capacity covers (a schedule-stage key, the
/// longest, is about 45 bytes).
pub(crate) fn stage_key(stage: &str) -> Writer {
    let mut w = Writer::with_capacity(64);
    w.u8(stage.len() as u8);
    w.bytes(stage.as_bytes());
    w
}

/// The stage name a record key starts with.
pub(crate) fn stage_of(key: &[u8]) -> Option<&str> {
    let (&len, rest) = key.split_first()?;
    std::str::from_utf8(rest.get(..usize::from(len))?).ok()
}

/// The segment files in segment directory `dir`, oldest first.
pub(crate) fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == SEGMENT_EXT))
        .collect();
    paths.sort();
    paths
}

/// Streams the record headers of segment `path` through a bounded
/// buffer, calling `visit(key, offset, length)` for every record it can
/// frame, in file order. Stops at the first record that runs past the
/// end of the file or is not a container of this format version.
pub(crate) fn scan(path: &Path, mut visit: impl FnMut(&[u8], u64, u32)) {
    let Ok(file) = File::open(path) else {
        return;
    };
    let Ok(size) = file.metadata().map(|m| m.len()) else {
        return;
    };
    let mut reader = BufReader::with_capacity(SCAN_BUFFER, file);
    let mut key = Vec::new();
    let mut offset = 0;
    // `next_record` never returns more than the bytes left, so
    // `offset <= size` throughout.
    while let Some(len) = next_record(&mut reader, size - offset, &mut key) {
        visit(&key, offset, len);
        offset += u64::from(len);
    }
}

/// Reads the next record's header and key (into `key`) and skips its
/// payload, returning the record's length; `None` when the record does
/// not fit in the `left` bytes of the file that remain, or its header is
/// not a container's.
fn next_record(reader: &mut BufReader<File>, left: u64, key: &mut Vec<u8>) -> Option<u32> {
    let mut header = [0; HEADER_LEN];
    reader.read_exact(&mut header).ok()?;
    let key_len = disk::header_key_len(&header)?;
    // Bound each length by the bytes left before reading or skipping.
    let framed = HEADER_LEN as u64 + u64::from(key_len) + 4;
    if framed > left {
        return None;
    }
    key.resize(key_len as usize, 0);
    reader.read_exact(key).ok()?;
    let mut payload_len = [0; 4];
    reader.read_exact(&mut payload_len).ok()?;
    let payload_len = Reader::new(&payload_len).u32()?;
    let len = u32::try_from(framed + u64::from(payload_len))
        .ok()
        .filter(|&len| u64::from(len) <= left)?;
    reader.seek_relative(i64::from(payload_len)).ok()?;
    Some(len)
}

/// One pipeline's view of the segment directory: the index built when
/// it opened, its own appends, and a bounded set of read handles.
#[derive(Debug)]
pub(crate) struct SegmentLog {
    dir: PathBuf,
    index: RwLock<Index>,
    appender: Mutex<Appender>,
    /// Open read handles, least recently used first; at most
    /// [`MAX_OPEN_SEGMENTS`].
    handles: Mutex<Vec<(u32, Arc<File>)>>,
    /// Swallowed I/O or format failures (useful when debugging a cache
    /// directory that mysteriously never warms up).
    errors: AtomicU64,
}

#[derive(Debug, Default)]
struct Index {
    /// Segments in scan order; the pipeline's own segment, once
    /// created, last.
    segments: Vec<Segment>,
    records: HashMap<u128, Loc>,
}

#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// Whether this pipeline has refreshed the segment's mtime.
    touched: AtomicBool,
}

/// Where one record lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: u32,
    len: u32,
    offset: u64,
}

#[derive(Debug)]
enum Appender {
    /// Nothing appended yet: the segment is created at the first store.
    Unopened,
    Open {
        file: File,
        segment: u32,
        end: u64,
    },
    /// A create or write failed. Later appends are dropped (and
    /// counted), so a short write can only ever leave a torn tail.
    Failed,
}

impl SegmentLog {
    /// Opens the segment directory of cache directory `root`, creating
    /// it if needed, and indexes every record present. `None` when the
    /// directory cannot be created: the caller then runs without a disk
    /// tier.
    pub(crate) fn open(root: &Path) -> Option<Self> {
        let dir = disk::store_root(root).join(SEGMENT_DIR);
        fs::create_dir_all(&dir).ok()?;
        let mut index = Index::default();
        for path in segment_paths(&dir) {
            let segment = u32::try_from(index.segments.len()).ok()?;
            scan(&path, |key, offset, len| {
                index.records.insert(
                    fnv128(key),
                    Loc {
                        segment,
                        len,
                        offset,
                    },
                );
            });
            index.segments.push(Segment {
                path,
                touched: AtomicBool::new(false),
            });
        }
        Some(SegmentLog {
            dir,
            index: RwLock::new(index),
            appender: Mutex::new(Appender::Unopened),
            handles: Mutex::new(Vec::new()),
            errors: AtomicU64::new(0),
        })
    }

    /// Decodes the payload of the newest record under `key` with
    /// `decode`, in place: the record is read into this thread's record
    /// buffer, its checksum and key echo are verified, and `decode`
    /// reads the payload there. Any mismatch or read failure is a
    /// counted miss; a segment removed since this pipeline opened, or a
    /// payload `decode` rejects, is a plain miss.
    ///
    /// The buffer is reused by the thread's next load and grows to the
    /// largest record the thread has read. A `decode` that loads again
    /// gets a buffer of its own.
    pub(crate) fn load_with<T>(
        &self,
        key: &[u8],
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        // Reused rather than allocated per load: a fresh buffer per
        // record measured slower on warm sweeps.
        thread_local! {
            static RECORD: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
        }
        let hash = fnv128(key);
        let loc = *self
            .index
            .read()
            .expect("segment index lock")
            .records
            .get(&hash)?;
        let file = self.handle(loc.segment)?;
        let mut buffer = RECORD.take();
        let len = loc.len as usize;
        if buffer.len() < len {
            buffer.resize(len, 0);
        }
        let record = &mut buffer[..len];
        let payload = file
            .read_exact_at(record, loc.offset)
            .ok()
            .and_then(|()| disk::parse_container(record, key));
        let decoded = match payload {
            Some(payload) => {
                self.touch(loc.segment);
                decode(payload)
            }
            None => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        RECORD.set(buffer);
        decoded
    }

    /// Appends `payload` under `key` to this pipeline's own segment.
    /// Best-effort: failures are counted and swallowed.
    pub(crate) fn append(&self, key: &[u8], payload: &[u8]) {
        let record = disk::encode_container(key, payload);
        let mut appender = self.appender.lock().expect("segment appender lock");
        match self.write(&mut appender, &record) {
            Some(loc) => {
                self.index
                    .write()
                    .expect("segment index lock")
                    .records
                    .insert(fnv128(key), loc);
            }
            None => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Swallowed I/O/format failures so far.
    pub(crate) fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    fn write(&self, appender: &mut Appender, record: &[u8]) -> Option<Loc> {
        if let Appender::Unopened = appender {
            *appender = self.create().unwrap_or(Appender::Failed);
        }
        let Appender::Open { file, segment, end } = appender else {
            return None;
        };
        let len = u32::try_from(record.len()).ok()?;
        if file.write_all(record).is_err() {
            *appender = Appender::Failed;
            return None;
        }
        let loc = Loc {
            segment: *segment,
            len,
            offset: *end,
        };
        *end += u64::from(len);
        Some(loc)
    }

    fn create(&self) -> Option<Appender> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos();
        let path = self.dir.join(format!(
            "{created:020}-{}-{}.{SEGMENT_EXT}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::options()
            .append(true)
            .create_new(true)
            .open(&path)
            .ok()?;
        let mut index = self.index.write().expect("segment index lock");
        let segment = u32::try_from(index.segments.len()).ok()?;
        index.segments.push(Segment {
            path,
            touched: AtomicBool::new(true),
        });
        Some(Appender::Open {
            file,
            segment,
            end: 0,
        })
    }

    /// A read handle on `segment`, opened on first use and kept in the
    /// bounded LRU.
    fn handle(&self, segment: u32) -> Option<Arc<File>> {
        let mut handles = self.handles.lock().expect("segment handle lock");
        // Searched from the most recently used end; rotating a hit to
        // that end moves nothing when it is already there.
        if let Some(i) = handles.iter().rposition(|&(s, _)| s == segment) {
            handles[i..].rotate_left(1);
            return handles.last().map(|(_, file)| Arc::clone(file));
        }
        let path = self.index.read().expect("segment index lock").segments[segment as usize]
            .path
            .clone();
        let file = Arc::new(File::open(path).ok()?);
        if handles.len() == MAX_OPEN_SEGMENTS {
            handles.remove(0);
        }
        handles.push((segment, Arc::clone(&file)));
        Some(file)
    }

    /// Refreshes `segment`'s mtime, once per pipeline: the generation
    /// stamp [`crate::maint::gc`] prunes by. Best-effort.
    fn touch(&self, segment: u32) {
        let index = self.index.read().expect("segment index lock");
        let seg = &index.segments[segment as usize];
        if seg.touched.load(Ordering::Relaxed) || seg.touched.swap(true, Ordering::Relaxed) {
            return;
        }
        if let Ok(f) = File::options().append(true).open(&seg.path) {
            let _ = f.set_modified(SystemTime::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_root() -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "widening-segment-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    impl SegmentLog {
        /// The payload of the newest record under `key`, copied out.
        fn load(&self, key: &[u8]) -> Option<Vec<u8>> {
            self.load_with(key, |payload| Some(payload.to_vec()))
        }
    }

    fn key(stage: &str, material: &[u8]) -> Vec<u8> {
        let mut w = stage_key(stage);
        w.bytes(material);
        w.into_bytes()
    }

    fn segments(root: &Path) -> Vec<PathBuf> {
        segment_paths(&disk::store_root(root).join(SEGMENT_DIR))
    }

    /// Three records, appended through one log.
    fn records() -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..3u8)
            .map(|i| (key(STAGE_SCHED, &[i; 5]), vec![i + 1; 9 + usize::from(i)]))
            .collect()
    }

    /// Offset of each record in a segment holding `records` in order.
    fn offsets(records: &[(Vec<u8>, Vec<u8>)]) -> Vec<usize> {
        let mut at = 0;
        records
            .iter()
            .map(|(k, p)| {
                let start = at;
                at += HEADER_LEN + k.len() + 4 + p.len();
                start
            })
            .collect()
    }

    fn write_records(root: &Path, records: &[(Vec<u8>, Vec<u8>)]) -> PathBuf {
        let log = SegmentLog::open(root).expect("temp dir creatable");
        for (k, p) in records {
            log.append(k, p);
        }
        let segs = segments(root);
        assert_eq!(segs.len(), 1);
        segs[0].clone()
    }

    fn loads(log: &SegmentLog, records: &[(Vec<u8>, Vec<u8>)]) -> Vec<bool> {
        records
            .iter()
            .map(|(k, p)| match log.load(k) {
                Some(got) => {
                    assert_eq!(&got, p, "a load returned a wrong payload");
                    true
                }
                None => false,
            })
            .collect()
    }

    #[test]
    fn round_trips_payload_under_key() {
        let root = temp_root();
        let log = SegmentLog::open(&root).expect("temp dir creatable");
        log.append(&key(STAGE_WIDEN, b"key-material"), b"payload");
        assert_eq!(
            log.load(&key(STAGE_WIDEN, b"key-material")).as_deref(),
            Some(&b"payload"[..])
        );
        // Missing entries and foreign stages miss.
        assert_eq!(log.load(&key(STAGE_WIDEN, b"other-material")), None);
        assert_eq!(log.load(&key(STAGE_MII, b"key-material")), None);
        // A pipeline opened later finds the record through its scan.
        let reopened = SegmentLog::open(&root).expect("dir exists");
        assert_eq!(
            reopened.load(&key(STAGE_WIDEN, b"key-material")).as_deref(),
            Some(&b"payload"[..])
        );
        assert_eq!(log.errors() + reopened.errors(), 0);
        assert_eq!(stage_of(&key(STAGE_LOWER, b"x")), Some(STAGE_LOWER));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn key_echo_mismatch_is_a_miss() {
        // A hash collision: the impostor's index entry names the real
        // record, whose echoed key then disagrees.
        let root = temp_root();
        let log = SegmentLog::open(&root).expect("temp dir creatable");
        let (real, impostor) = (
            key(STAGE_SCHED, b"the-real-key"),
            key(STAGE_SCHED, b"impostor"),
        );
        log.append(&real, b"artifact");
        {
            let mut index = log.index.write().unwrap();
            let loc = index.records[&fnv128(&real)];
            index.records.insert(fnv128(&impostor), loc);
        }
        assert_eq!(log.load(&impostor), None);
        assert!(log.errors() >= 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn corruption_is_a_miss() {
        let root = temp_root();
        let k = key(STAGE_BASE, b"k");
        let path = write_records(&root, &[(k.clone(), b"payload-bytes".to_vec())]);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let log = SegmentLog::open(&root).unwrap();
        assert_eq!(log.load(&k), None);
        assert_eq!(log.errors(), 1);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn a_flipped_payload_byte_is_one_counted_miss_between_good_records() {
        let recs = records();
        let at = offsets(&recs);
        let payload_at = at[1] + HEADER_LEN + recs[1].0.len() + 4;
        for i in 0..recs[1].1.len() {
            let root = temp_root();
            let path = write_records(&root, &recs);
            let mut bytes = fs::read(&path).unwrap();
            bytes[payload_at + i] ^= 0x01;
            fs::write(&path, bytes).unwrap();
            let log = SegmentLog::open(&root).unwrap();
            assert_eq!(loads(&log, &recs), [true, false, true], "byte {i}");
            assert_eq!(log.errors(), 1, "byte {i}");
            let _ = fs::remove_dir_all(root);
        }
    }

    #[test]
    fn loads_decode_in_place_and_may_nest() {
        // Records larger and smaller than the thread's buffer, in turn:
        // every decode sees exactly its own payload.
        let root = temp_root();
        let recs: Vec<_> = [4096, 3, 100, 0, 4097]
            .into_iter()
            .enumerate()
            .map(|(i, len)| (key(STAGE_LOWER, &[i as u8]), vec![i as u8 + 1; len]))
            .collect();
        write_records(&root, &recs);
        let log = SegmentLog::open(&root).unwrap();
        for (k, p) in recs.iter().chain(recs.iter().rev()) {
            assert_eq!(log.load_with(k, |got| Some(got == &p[..])), Some(true));
        }
        // A decode that loads again gets a buffer of its own, and its
        // own payload is left intact.
        let nested = log.load_with(&recs[0].0, |outer| {
            let inner = log.load(&recs[2].0)?;
            Some((outer == &recs[0].1[..], inner == recs[2].1))
        });
        assert_eq!(nested, Some((true, true)));
        // A payload the decoder rejects is a plain miss.
        assert_eq!(log.load_with(&recs[1].0, |_| None::<()>), None);
        assert_eq!(log.errors(), 0);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn the_first_load_refreshes_the_segment_mtime() {
        let root = temp_root();
        let recs = records();
        let path = write_records(&root, &recs);
        let long_ago = SystemTime::now() - std::time::Duration::from_secs(1000);
        let mtime = || fs::metadata(&path).unwrap().modified().unwrap();
        let set_mtime = |t| {
            File::options()
                .append(true)
                .open(&path)
                .unwrap()
                .set_modified(t)
                .unwrap();
        };
        set_mtime(long_ago);
        let log = SegmentLog::open(&root).unwrap();
        assert_eq!(mtime(), long_ago, "opening reads, it does not touch");
        assert!(log.load(&recs[0].0).is_some());
        assert!(mtime() > long_ago + std::time::Duration::from_secs(900));
        // Once per pipeline: later loads leave the stamp alone.
        set_mtime(long_ago);
        assert!(log.load(&recs[1].0).is_some());
        assert_eq!(mtime(), long_ago);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn torn_tail_misses_only_the_torn_record() {
        let root = temp_root();
        let recs = records();
        let path = write_records(&root, &recs);
        let len = fs::metadata(&path).unwrap().len();
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 1)
            .unwrap();

        let log = SegmentLog::open(&root).unwrap();
        assert_eq!(loads(&log, &recs), [true, true, false]);
        // A live writer's segment looks the same: not an error.
        assert_eq!(log.errors(), 0);
        // A new writer's records load, in its own segment and after.
        let fresh = (key(STAGE_LOWER, b"fresh"), b"fresh-payload".to_vec());
        log.append(&fresh.0, &fresh.1);
        assert_eq!(log.load(&fresh.0), Some(fresh.1.clone()));
        let later = SegmentLog::open(&root).unwrap();
        assert_eq!(loads(&later, &recs), [true, true, false]);
        assert_eq!(later.load(&fresh.0), Some(fresh.1));
        assert_eq!(log.errors() + later.errors(), 0);
        assert_eq!(segments(&root).len(), 2);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn mid_segment_corruption_never_serves_a_wrong_payload() {
        let recs = records();
        let at = offsets(&recs);
        let payload_len_at = |i: usize| at[i] + HEADER_LEN + recs[i].0.len();
        let corrupt = |edit: &dyn Fn(&mut Vec<u8>)| {
            let root = temp_root();
            let path = write_records(&root, &recs);
            let mut bytes = fs::read(&path).unwrap();
            edit(&mut bytes);
            fs::write(&path, bytes).unwrap();
            let log = SegmentLog::open(&root).unwrap();
            let got = (loads(&log, &recs), log.errors());
            let _ = fs::remove_dir_all(root);
            got
        };

        // A flipped payload byte: that record misses, counted.
        let flip = |b: &mut Vec<u8>| b[payload_len_at(1) + 6] ^= 0x10;
        assert_eq!(corrupt(&flip), (vec![true, false, true], 1));

        // A corrupt length: the rest of the segment misses. A length
        // past the end of the file stops the scan; a short one frames a
        // record whose checksum fails, and then nothing after it.
        let huge = |b: &mut Vec<u8>| {
            let p = payload_len_at(1);
            b[p..p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        };
        assert_eq!(corrupt(&huge), (vec![true, false, false], 0));
        let short = |b: &mut Vec<u8>| {
            let p = payload_len_at(1);
            b[p..p + 4].copy_from_slice(&1u32.to_le_bytes());
        };
        assert_eq!(corrupt(&short), (vec![true, false, false], 1));
        // A key length beyond the file is never allocated for.
        let key_len = |b: &mut Vec<u8>| {
            let p = at[1] + HEADER_LEN - 4;
            b[p..p + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        };
        assert_eq!(corrupt(&key_len), (vec![true, false, false], 0));
    }

    #[test]
    fn more_segments_than_descriptors_serve_every_record() {
        let root = temp_root();
        let n = 5 * MAX_OPEN_SEGMENTS;
        let recs: Vec<_> = (0..n)
            .map(|i| (key(STAGE_MII, &i.to_le_bytes()), i.to_le_bytes().to_vec()))
            .collect();
        for rec in &recs {
            let writer = SegmentLog::open(&root).unwrap();
            writer.append(&rec.0, &rec.1);
        }
        assert_eq!(segments(&root).len(), n);
        let log = SegmentLog::open(&root).unwrap();
        for _ in 0..2 {
            for rec in &recs {
                assert_eq!(log.load(&rec.0).as_ref(), Some(&rec.1));
                assert!(log.handles.lock().unwrap().len() <= MAX_OPEN_SEGMENTS);
            }
        }
        assert_eq!(log.errors(), 0);
        let _ = fs::remove_dir_all(root);
    }

    /// Replaces the one segment under `root` with `bytes`, opens a log
    /// over it and loads every record: each load must return the exact
    /// stored payload or miss.
    fn open_mangled(root: &Path, path: &Path, bytes: &[u8], recs: &[(Vec<u8>, Vec<u8>)]) {
        fs::write(path, bytes).unwrap();
        let log = SegmentLog::open(root).unwrap();
        let _ = loads(&log, recs);
    }

    #[test]
    fn truncations_and_bit_flips_never_panic() {
        let root = temp_root();
        let recs = records();
        let path = write_records(&root, &recs);
        let bytes = fs::read(&path).unwrap();
        let ends: Vec<usize> = offsets(&recs)[1..]
            .iter()
            .copied()
            .chain([bytes.len()])
            .collect();
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let log = SegmentLog::open(&root).unwrap();
            let expected: Vec<bool> = ends.iter().map(|&end| end <= cut).collect();
            assert_eq!(loads(&log, &recs), expected, "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            open_mangled(&root, &path, &flipped, &recs);
        }
        let _ = fs::remove_dir_all(root);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_segments_never_panic(
            noise in proptest::collection::vec(any::<u8>(), 0..512),
            keep in 0usize..4,
        ) {
            // Random bytes alone, and after a valid prefix of records.
            let root = temp_root();
            let recs = records();
            let path = write_records(&root, &recs);
            let mut bytes = fs::read(&path).unwrap();
            bytes.truncate(offsets(&recs).get(keep).copied().unwrap_or(bytes.len()));
            bytes.extend_from_slice(&noise);
            open_mangled(&root, &path, &bytes, &recs);
            open_mangled(&root, &path, &noise, &recs);
            let _ = fs::remove_dir_all(root);
        }
    }
}
