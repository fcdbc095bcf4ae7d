//! Store lifecycle: generation stamps, usage inspection and garbage
//! collection for a content-addressed cache directory.
//!
//! The disk tier grows without bound by itself — every distinct
//! `(loop, design point)` ever compiled leaves artifacts behind. This
//! module bounds it by **generations**:
//!
//! * each cache-consuming *run* (a `repro` invocation with
//!   `--cache-dir`, not each worker it spawns) calls [`record_run`],
//!   which appends a `(generation, start-time)` entry to
//!   `<root>/v<FORMAT_VERSION>/generations`;
//! * every **read or write** refreshes an mtime, so an mtime says which
//!   generation last used what it stamps. Stage artifacts are stamped
//!   per segment file: a pipeline's first load from a segment touches
//!   it, and appends keep the writer's own segment current. Exchange
//!   records are stamped per file, on every load;
//! * [`gc`] with `keep_generations = N` removes whole segments and
//!   exchange files untouched since the start of the `N`-th most recent
//!   generation — those no run of the last `N` used. [`stat`] reports
//!   usage without deleting anything: per-stage artifact counts and
//!   bytes read from segment record headers, per-kind file counts and
//!   bytes for the exchange;
//! * trees an older format version wrote (`<root>/v<N>`, `N` below
//!   `FORMAT_VERSION`) are unreadable to this build: [`gc`] removes each
//!   whole, whatever `keep_generations` says, and [`stat`] reports them
//!   as one [`STALE_TREES`] row. A newer version's tree is never
//!   touched.
//!
//! Everything is best-effort and concurrency-tolerant: a GC racing a
//! live run can at worst delete artifacts the run was about to reuse,
//! which the two-tier store treats as ordinary misses.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::disk::{store_root, FORMAT_VERSION};
use crate::segment::{self, SEGMENT_DIR};

/// Name of the generation log inside the versioned root.
const GENERATIONS_FILE: &str = "generations";

/// The [`stat`] row of the trees older format versions left behind.
pub const STALE_TREES: &str = "stale-trees";

/// One `(generation, start time)` entry of the generation log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Generation {
    /// Monotonic run counter (1-based).
    pub generation: u64,
    /// Start of the run, nanoseconds since the Unix epoch.
    pub started_unix_nanos: u128,
}

fn read_generations(root: &Path) -> Vec<Generation> {
    let Ok(text) = fs::read_to_string(store_root(root).join(GENERATIONS_FILE)) else {
        return Vec::new();
    };
    let mut out: Vec<Generation> = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(g), Some(t)) = (parts.next(), parts.next()) else {
            continue; // torn trailing line: skip, keep the rest
        };
        if let (Ok(generation), Ok(started)) = (g.parse(), t.parse()) {
            // Two runs racing `record_run` (read-then-append is not
            // atomic across processes) can log the same generation
            // number twice. Collapse duplicates onto the *earliest*
            // start time: the racers count as one run, which biases
            // every cutoff computed from this list towards pruning
            // LESS — never violating "keep the last N runs".
            match out.iter_mut().find(|e| e.generation == generation) {
                Some(e) => e.started_unix_nanos = e.started_unix_nanos.min(started),
                None => out.push(Generation {
                    generation,
                    started_unix_nanos: started,
                }),
            }
        }
    }
    out.sort_by_key(|e| e.generation);
    out
}

/// Records the start of a cache-consuming run: bumps the generation
/// counter and stamps its start time. Returns the new generation, or
/// `None` when the log cannot be written (a dead disk — the run then
/// proceeds without lifecycle tracking, like every other disk failure).
pub fn record_run(root: &Path) -> Option<u64> {
    let vroot = store_root(root);
    fs::create_dir_all(&vroot).ok()?;
    let next = read_generations(root)
        .last()
        .map_or(1, |g| g.generation + 1);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos();
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(vroot.join(GENERATIONS_FILE))
        .ok()?;
    writeln!(f, "{next} {now}").ok()?;
    Some(next)
}

/// Usage of one artifact kind: a stage (`widen`, `sched`, …) or an
/// exchange kind (`batch`, `simsum`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindUsage {
    /// Stage or exchange kind name, or [`STALE_TREES`].
    pub kind: String,
    /// Artifacts present: segment records of a stage, files of an
    /// exchange kind, whole trees in the [`STALE_TREES`] row.
    pub files: u64,
    /// Total bytes on disk (container headers included).
    pub bytes: u64,
}

/// A snapshot of a cache directory's contents and generation history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStat {
    /// Latest recorded generation (0 when no run was ever recorded).
    pub generation: u64,
    /// Total runs recorded in the generation log.
    pub runs_recorded: u64,
    /// Per-kind usage, sorted by kind name.
    pub kinds: Vec<KindUsage>,
}

impl CacheStat {
    /// Total artifacts across all kinds.
    #[must_use]
    pub fn total_files(&self) -> u64 {
        self.kinds.iter().map(|k| k.files).sum()
    }

    /// Total bytes across all kinds.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.kinds.iter().map(|k| k.bytes).sum()
    }
}

/// Walks every artifact file under an exchange kind directory, calling
/// `visit` with the path and metadata.
fn walk_kind(dir: &Path, visit: &mut impl FnMut(&Path, &fs::Metadata)) {
    let Ok(fanouts) = fs::read_dir(dir) else {
        return;
    };
    for fanout in fanouts.flatten() {
        let Ok(files) = fs::read_dir(fanout.path()) else {
            continue;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().is_some_and(|e| e == "bin") {
                if let Ok(meta) = file.metadata() {
                    visit(&path, &meta);
                }
            }
        }
    }
}

/// The exchange kind directories under the versioned root, sorted.
fn kind_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(store_root(root)) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| e.file_type().is_ok_and(|t| t.is_dir()) && e.file_name() != SEGMENT_DIR)
        .map(|e| e.path())
        .collect();
    dirs.sort();
    dirs
}

/// The segment files of the store under `root`, oldest first.
fn segment_files(root: &Path) -> Vec<PathBuf> {
    segment::segment_paths(&store_root(root).join(SEGMENT_DIR))
}

/// The trees older format versions wrote under cache directory `root`:
/// directories named `v<N>` with `N < FORMAT_VERSION`, sorted. Newer
/// versions' trees and every other entry are left out.
fn stale_trees(root: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(root) else {
        return Vec::new();
    };
    let older = |name: &str| {
        name.strip_prefix('v')
            .and_then(|digits| {
                digits
                    .parse::<u16>()
                    .ok()
                    .filter(|v| v.to_string() == digits)
            })
            .is_some_and(|version| version < FORMAT_VERSION)
    };
    let mut trees: Vec<PathBuf> = entries
        .flatten()
        .filter(|e| e.file_type().is_ok_and(|t| t.is_dir()))
        .filter(|e| e.file_name().to_str().is_some_and(older))
        .map(|e| e.path())
        .collect();
    trees.sort();
    trees
}

/// Bytes of the files under `dir`, recursively, without following
/// symbolic links.
fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Inspects a cache directory. `None` when `root` holds no store of
/// this format version and no older one.
#[must_use]
pub fn stat(root: &Path) -> Option<CacheStat> {
    let stale = stale_trees(root);
    if !store_root(root).is_dir() && stale.is_empty() {
        return None;
    }
    let generations = read_generations(root);
    let mut usage: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for path in segment_files(root) {
        segment::scan(&path, |key, _, len| {
            let stage = segment::stage_of(key).unwrap_or("?");
            let (files, bytes) = usage.entry(stage.to_owned()).or_default();
            *files += 1;
            *bytes += u64::from(len);
        });
    }
    for dir in kind_dirs(root) {
        let kind = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let (files, bytes) = usage.entry(kind).or_default();
        walk_kind(&dir, &mut |_, meta| {
            *files += 1;
            *bytes += meta.len();
        });
    }
    if !stale.is_empty() {
        let bytes = stale.iter().map(|tree| tree_bytes(tree)).sum();
        usage.insert(STALE_TREES.to_owned(), (stale.len() as u64, bytes));
    }
    let kinds = usage
        .into_iter()
        .map(|(kind, (files, bytes))| KindUsage { kind, files, bytes })
        .collect();
    Some(CacheStat {
        generation: generations.last().map_or(0, |g| g.generation),
        runs_recorded: generations.len() as u64,
        kinds,
    })
}

/// What a garbage collection pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Artifacts examined: segment records and exchange files.
    pub examined: u64,
    /// Artifacts removed (untouched for `keep_generations` runs), with
    /// the whole segment or file that held them.
    pub pruned: u64,
    /// Bytes reclaimed.
    pub pruned_bytes: u64,
    /// The generation whose start time was the keep/prune cutoff (0
    /// when fewer generations are recorded than `keep_generations` —
    /// nothing is old enough to prune yet).
    pub cutoff_generation: u64,
    /// Trees of older format versions removed, each whole.
    pub stale_trees: u64,
    /// Bytes those trees held.
    pub stale_bytes: u64,
}

/// Removes every tree an older format version wrote, then every segment
/// and exchange file untouched since the start of the
/// `keep_generations`-th most recent recorded run. With fewer recorded
/// runs than `keep_generations` only the old trees go. `None` when
/// `root` holds no store of this format version and no older one.
#[must_use]
pub fn gc(root: &Path, keep_generations: u64) -> Option<GcOutcome> {
    let stale = stale_trees(root);
    if !store_root(root).is_dir() && stale.is_empty() {
        return None;
    }
    let mut outcome = GcOutcome {
        examined: 0,
        pruned: 0,
        pruned_bytes: 0,
        cutoff_generation: 0,
        stale_trees: 0,
        stale_bytes: 0,
    };
    for tree in stale {
        let bytes = tree_bytes(&tree);
        if fs::remove_dir_all(&tree).is_ok() {
            outcome.stale_trees += 1;
            outcome.stale_bytes += bytes;
        }
    }
    let generations = read_generations(root);
    let keep = keep_generations.max(1) as usize;
    let cutoff = if generations.len() < keep {
        None
    } else {
        let g = generations[generations.len() - keep];
        outcome.cutoff_generation = g.generation;
        Some(
            UNIX_EPOCH
                + std::time::Duration::from_nanos(
                    u64::try_from(g.started_unix_nanos).unwrap_or(u64::MAX),
                ),
        )
    };
    let mut prune = |path: &Path, meta: &fs::Metadata, artifacts: u64| {
        outcome.examined += artifacts;
        let Some(cutoff) = cutoff else { return };
        let untouched = meta.modified().is_ok_and(|mtime| mtime < cutoff);
        if untouched && fs::remove_file(path).is_ok() {
            outcome.pruned += artifacts;
            outcome.pruned_bytes += meta.len();
        }
    };
    for path in segment_files(root) {
        let Ok(meta) = fs::metadata(&path) else {
            continue;
        };
        let mut records = 0;
        segment::scan(&path, |_, _, _| records += 1);
        prune(&path, &meta, records);
    }
    for dir in kind_dirs(root) {
        walk_kind(&dir, &mut |path, meta| prune(path, meta, 1));
    }
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegmentLog;
    use std::time::Duration;

    fn temp_root(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "widening-maint-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn put_artifact(root: &Path, kind: &str, name: &str, bytes: &[u8]) -> PathBuf {
        let dir = store_root(root).join(kind).join("ab");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.bin"));
        fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn generations_are_monotonic() {
        let root = temp_root("gen");
        assert_eq!(record_run(&root), Some(1));
        assert_eq!(record_run(&root), Some(2));
        assert_eq!(record_run(&root), Some(3));
        let s = stat(&root).unwrap();
        assert_eq!(s.generation, 3);
        assert_eq!(s.runs_recorded, 3);
        let _ = fs::remove_dir_all(root);
    }

    /// Appends one record per `(stage, payload length)` to a fresh
    /// segment under `root`, returning the segment's path.
    fn put_segment(root: &Path, records: &[(&str, usize)]) -> PathBuf {
        let before = segment_files(root);
        let log = SegmentLog::open(root).unwrap();
        for (i, &(stage, len)) in records.iter().enumerate() {
            let mut key = segment::stage_key(stage);
            key.u32(i as u32);
            log.append(&key.into_bytes(), &vec![0u8; len]);
        }
        let mut after = segment_files(root);
        after.retain(|p| !before.contains(p));
        assert_eq!(after.len(), 1);
        after.remove(0)
    }

    #[test]
    fn stat_counts_files_and_bytes_per_kind() {
        let root = temp_root("stat");
        record_run(&root).unwrap();
        put_artifact(&root, "result", "aa", &[0u8; 10]);
        put_artifact(&root, "result", "bb", &[0u8; 20]);
        put_artifact(&root, "batch", "cc", &[0u8; 40]);
        // Stage rows come from segment record headers: two segments,
        // one of them holding two stages.
        put_segment(&root, &[("widen", 3), ("sched", 5)]);
        put_segment(&root, &[("widen", 7)]);
        let s = stat(&root).unwrap();
        assert_eq!(s.total_files(), 6);
        let result = s.kinds.iter().find(|k| k.kind == "result").unwrap();
        assert_eq!((result.files, result.bytes), (2, 30));
        // A stage record: header, key (stage name + u32), length, payload.
        let record = |stage: &str, len: u64| 18 + 1 + stage.len() as u64 + 4 + 4 + len;
        let widen = s.kinds.iter().find(|k| k.kind == "widen").unwrap();
        assert_eq!(
            (widen.files, widen.bytes),
            (2, record("widen", 3) + record("widen", 7))
        );
        let kinds: Vec<&str> = s.kinds.iter().map(|k| k.kind.as_str()).collect();
        assert_eq!(kinds, ["batch", "result", "sched", "widen"]);
        let _ = fs::remove_dir_all(root);
    }

    fn set_mtime(path: &Path, when: SystemTime) {
        fs::File::options()
            .append(true)
            .open(path)
            .unwrap()
            .set_modified(when)
            .unwrap();
    }

    #[test]
    fn gc_prunes_only_artifacts_older_than_the_cutoff_generation() {
        // Fabricated timeline well in the past (immune to filesystem
        // mtime granularity): three generations 10 s apart; `old` was
        // last touched during generation 1, `kept` during generation 3.
        let root = temp_root("gc");
        let t0 = SystemTime::now() - Duration::from_secs(1000);
        let nanos = |t: SystemTime| t.duration_since(UNIX_EPOCH).unwrap().as_nanos();
        fs::create_dir_all(store_root(&root)).unwrap();
        fs::write(
            store_root(&root).join(GENERATIONS_FILE),
            format!(
                "1 {}\n2 {}\n3 {}\n",
                nanos(t0),
                nanos(t0 + Duration::from_secs(10)),
                nanos(t0 + Duration::from_secs(20)),
            ),
        )
        .unwrap();
        let old = put_artifact(&root, "result", "old", &[0u8; 8]);
        let kept = put_artifact(&root, "result", "kept", &[0u8; 8]);
        set_mtime(&old, t0 + Duration::from_secs(5));
        set_mtime(&kept, t0 + Duration::from_secs(25));
        // Segments go whole, with every record they hold.
        let old_segment = put_segment(&root, &[("widen", 4), ("mii", 4)]);
        let kept_segment = put_segment(&root, &[("sched", 4)]);
        set_mtime(&old_segment, t0 + Duration::from_secs(5));
        set_mtime(&kept_segment, t0 + Duration::from_secs(25));
        let old_segment_bytes = fs::metadata(&old_segment).unwrap().len();

        // Keeping 3 generations: the cutoff is gen 1's start, and
        // nothing predates it.
        let g3 = gc(&root, 3).unwrap();
        assert_eq!((g3.pruned, g3.cutoff_generation), (0, 1));
        assert_eq!(g3.examined, 5);
        // Keeping 2: only what was untouched since gen 1 goes.
        let g2 = gc(&root, 2).unwrap();
        assert_eq!(g2.cutoff_generation, 2);
        assert_eq!(g2.pruned, 3);
        assert_eq!(g2.pruned_bytes, 8 + old_segment_bytes);
        assert!(!old.exists());
        assert!(kept.exists());
        assert!(!old_segment.exists());
        assert!(kept_segment.exists());
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn missing_store_reports_none() {
        let root = temp_root("none");
        assert!(stat(&root).is_none());
        assert!(gc(&root, 2).is_none());
    }

    /// Plants a format tree `v<version>` under `root` holding one
    /// segment file of `bytes` bytes; returns the tree.
    fn plant_tree(root: &Path, version: u16, bytes: usize) -> PathBuf {
        let tree = root.join(format!("v{version}"));
        fs::create_dir_all(tree.join(SEGMENT_DIR)).unwrap();
        fs::write(tree.join(SEGMENT_DIR).join("old.seg"), vec![0u8; bytes]).unwrap();
        tree
    }

    #[test]
    fn a_root_holding_only_an_old_tree_is_reported_and_reclaimed() {
        let root = temp_root("old-only");
        let old = plant_tree(&root, FORMAT_VERSION - 1, 100);
        let s = stat(&root).expect("an old tree is a store to report");
        assert_eq!(s.generation, 0);
        let rows: Vec<_> = s
            .kinds
            .iter()
            .map(|k| (k.kind.as_str(), k.files, k.bytes))
            .collect();
        assert_eq!(rows, [(STALE_TREES, 1, 100)]);
        let g = gc(&root, 1).expect("an old tree is a store to collect");
        assert_eq!((g.stale_trees, g.stale_bytes), (1, 100));
        assert_eq!((g.examined, g.pruned), (0, 0));
        assert!(!old.exists());
        assert!(stat(&root).is_none(), "nothing left");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn gc_removes_every_older_tree_and_never_a_newer_one() {
        let root = temp_root("trees");
        let v1 = plant_tree(&root, FORMAT_VERSION - 2, 10);
        let v2 = plant_tree(&root, FORMAT_VERSION - 1, 20);
        let newer = plant_tree(&root, FORMAT_VERSION + 1, 40);
        // Lookalikes that no format version wrote stay too.
        let others: Vec<PathBuf> = ["queue", "v", "v01", "vx", "w1"]
            .into_iter()
            .map(|name| root.join(name))
            .collect();
        for dir in &others {
            fs::create_dir_all(dir).unwrap();
        }
        record_run(&root).unwrap();
        let live = put_segment(&root, &[("widen", 3)]);
        let s = stat(&root).unwrap();
        let stale = s.kinds.iter().find(|k| k.kind == STALE_TREES).unwrap();
        assert_eq!((stale.files, stale.bytes), (2, 30));
        // However many generations are kept, the old trees go whole.
        let g = gc(&root, 1000).unwrap();
        assert_eq!((g.stale_trees, g.stale_bytes), (2, 30));
        assert_eq!((g.examined, g.pruned), (1, 0));
        assert!(!v1.exists() && !v2.exists());
        assert!(store_root(&root).is_dir() && live.exists());
        assert!(newer.join(SEGMENT_DIR).join("old.seg").exists());
        assert!(others.iter().all(|dir| dir.is_dir()));
        assert!(stat(&root)
            .unwrap()
            .kinds
            .iter()
            .all(|k| k.kind != STALE_TREES));
        let _ = fs::remove_dir_all(root);
    }
}
