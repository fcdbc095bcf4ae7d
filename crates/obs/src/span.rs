//! The process-global span recorder.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be free.** Every instrumentation point in the
//!    pipeline hot path starts with one `Relaxed` atomic load; when no
//!    recorder is installed nothing else happens.
//! 2. **Recording must not allocate.** Each thread lazily registers a
//!    `ThreadRing` — a preallocated circular buffer of fixed-size
//!    [`Event`]s. Pushing an event is a push into that buffer under an
//!    uncontended per-thread mutex (only a snapshot ever takes it from
//!    another thread).
//! 3. **Truncation must be loud.** A full ring overwrites its oldest
//!    event and increments a drop counter that is carried into the
//!    exported trace.
//!
//! Timestamps are nanoseconds from a per-recorder monotonic epoch
//! ([`std::time::Instant`]); the recorder also stamps a wall-clock
//! anchor at construction so traces from different *processes* can be
//! aligned onto one timeline (see [`crate::chrome`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Instant, SystemTime};

use crate::trace::{ProcessTrace, TrackTrace};

/// Default per-thread ring capacity (events). At 40 bytes per event a
/// thread costs ~2.5 MiB when recording, nothing when not.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What a span or instant event describes. The discriminant is the wire
/// encoding (see [`crate::trace`]); values must stay stable across
/// versions of the binary format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Live widening-stage execution. `a` = loop index, `b` = width.
    Widen = 0,
    /// Live MII-bound stage execution. `a` = loop, `b` = packed point.
    Mii = 1,
    /// Live base-schedule stage execution. `a` = loop, `b` = packed point.
    BaseSchedule = 2,
    /// Live schedule/allocate/spill stage execution. `a` = loop, `b` = packed point.
    Schedule = 3,
    /// Disk decode of a widening artifact. `a` = loop, `b` = width.
    WidenDecode = 4,
    /// Disk decode of an MII-bound artifact. `a` = loop, `b` = packed point.
    MiiDecode = 5,
    /// Disk decode of a base-schedule artifact. `a` = loop, `b` = packed point.
    BaseDecode = 6,
    /// Disk decode of a schedule artifact. `a` = loop, `b` = packed point.
    SchedDecode = 7,
    /// One `(loop × design point)` sweep unit. `a` = loop, `b` = packed point.
    SweepUnit = 8,
    /// Idle gap between consecutive units on one pool thread.
    /// `a` = loop of the unit about to run, `b` = its packed point.
    QueueWait = 9,
    /// A worker running an owned shard. `a` = shard, `b` = unit count.
    WorkerShard = 10,
    /// A worker running a stolen slice. `a` = shard, `b` = unit count.
    /// No longer emitted (the fleet does not steal); the id stays
    /// reserved because it is part of the trace format.
    WorkerSteal = 11,
    /// Instant: LRU eviction pass. `a` = entries evicted, `b` = resident bytes after.
    Evict = 12,
    /// Instant: surplus published for stealing. `a` = shard, `b` = units
    /// offered. No longer emitted; the id stays reserved.
    StealOffer = 13,
    /// Instant: a thief claimed a surplus. `a` = shard, `b` = units
    /// claimed. No longer emitted; the id stays reserved.
    StealClaim = 14,
    /// Instant: an owner folded a thief's result. `a` = shard, `b` =
    /// units folded. No longer emitted; the id stays reserved.
    StealFold = 15,
    /// Instant: lease heartbeat renewal. `a` = shard, `b` = the beat's
    /// counter value.
    Heartbeat = 16,
    /// Instant: coordinator requeued expired leases. `a` = shards requeued.
    LeaseExpire = 17,
    /// Instant: coordinator autoscaled a worker up. `a` = worker index,
    /// `b` = remaining-work estimate. No longer emitted (a fleet is a
    /// fixed number of workers); the id stays reserved.
    ScaleUp = 18,
    /// Instant: coordinator respawned a worker. `a` = worker index.
    Respawn = 19,
    /// Instant: scale-down — the coordinator posted retirement tokens
    /// (`a` = token total, `b` = mass estimate) or a worker retired on
    /// one (`a` = token claimed, `b` = 0). No longer emitted; the id
    /// stays reserved.
    ScaleDown = 20,
    /// Live lower-stage execution (schedule → wide bytecode).
    /// `a` = loop, `b` = packed point.
    Lower = 21,
    /// Disk decode of a lowered-program artifact. `a` = loop,
    /// `b` = packed point.
    LowerDecode = 22,
}

/// Every kind, in wire order. Kept in sync with the enum by the
/// round-trip test below.
pub(crate) const ALL_KINDS: [SpanKind; 23] = [
    SpanKind::Widen,
    SpanKind::Mii,
    SpanKind::BaseSchedule,
    SpanKind::Schedule,
    SpanKind::WidenDecode,
    SpanKind::MiiDecode,
    SpanKind::BaseDecode,
    SpanKind::SchedDecode,
    SpanKind::SweepUnit,
    SpanKind::QueueWait,
    SpanKind::WorkerShard,
    SpanKind::WorkerSteal,
    SpanKind::Evict,
    SpanKind::StealOffer,
    SpanKind::StealClaim,
    SpanKind::StealFold,
    SpanKind::Heartbeat,
    SpanKind::LeaseExpire,
    SpanKind::ScaleUp,
    SpanKind::Respawn,
    SpanKind::ScaleDown,
    SpanKind::Lower,
    SpanKind::LowerDecode,
];

impl SpanKind {
    /// Wire decoding; `None` for bytes written by a future version.
    #[must_use]
    pub fn from_u8(value: u8) -> Option<Self> {
        ALL_KINDS.get(value as usize).copied()
    }

    /// The event name shown on the timeline and in latency tables.
    /// Stage-run kinds use exactly the stage names of the `repro`
    /// stage-counter table (`widen`, `mii`, `base-schedule`,
    /// `schedule`) so tooling can join the two views.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Widen => "widen",
            SpanKind::Mii => "mii",
            SpanKind::BaseSchedule => "base-schedule",
            SpanKind::Schedule => "schedule",
            SpanKind::WidenDecode => "decode:widen",
            SpanKind::MiiDecode => "decode:mii",
            SpanKind::BaseDecode => "decode:base-schedule",
            SpanKind::SchedDecode => "decode:schedule",
            SpanKind::SweepUnit => "unit",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::WorkerShard => "shard",
            SpanKind::WorkerSteal => "steal",
            SpanKind::Evict => "evict",
            SpanKind::StealOffer => "steal-offer",
            SpanKind::StealClaim => "steal-claim",
            SpanKind::StealFold => "steal-fold",
            SpanKind::Heartbeat => "heartbeat",
            SpanKind::LeaseExpire => "lease-expired",
            SpanKind::ScaleUp => "scale-up",
            SpanKind::Respawn => "respawn",
            SpanKind::ScaleDown => "scale-down",
            SpanKind::Lower => "lower",
            SpanKind::LowerDecode => "decode:lower",
        }
    }

    /// Chrome trace-event category.
    #[must_use]
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Widen
            | SpanKind::Mii
            | SpanKind::BaseSchedule
            | SpanKind::Schedule
            | SpanKind::Lower => "stage",
            SpanKind::WidenDecode
            | SpanKind::MiiDecode
            | SpanKind::BaseDecode
            | SpanKind::SchedDecode
            | SpanKind::LowerDecode => "disk",
            SpanKind::SweepUnit | SpanKind::QueueWait => "sweep",
            SpanKind::WorkerShard
            | SpanKind::WorkerSteal
            | SpanKind::StealOffer
            | SpanKind::StealClaim
            | SpanKind::StealFold
            | SpanKind::Heartbeat => "worker",
            SpanKind::Evict => "store",
            SpanKind::LeaseExpire | SpanKind::ScaleUp | SpanKind::Respawn | SpanKind::ScaleDown => {
                "fleet"
            }
        }
    }

    /// Names for the `a`/`b` labels in exported trace args.
    #[must_use]
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            SpanKind::Widen | SpanKind::WidenDecode => ("loop", "width"),
            SpanKind::Mii
            | SpanKind::MiiDecode
            | SpanKind::BaseSchedule
            | SpanKind::BaseDecode
            | SpanKind::Schedule
            | SpanKind::SchedDecode
            | SpanKind::Lower
            | SpanKind::LowerDecode
            | SpanKind::SweepUnit
            | SpanKind::QueueWait => ("loop", "point"),
            SpanKind::WorkerShard | SpanKind::WorkerSteal => ("shard", "units"),
            SpanKind::Evict => ("evicted", "resident-bytes"),
            SpanKind::StealOffer => ("shard", "offered"),
            SpanKind::StealClaim | SpanKind::StealFold => ("shard", "units"),
            SpanKind::Heartbeat => ("shard", "beat"),
            SpanKind::LeaseExpire => ("requeued", "unused"),
            SpanKind::ScaleUp => ("worker", "mass"),
            SpanKind::Respawn => ("worker", "unused"),
            SpanKind::ScaleDown => ("token", "mass"),
        }
    }

    /// Whether the `b` label is a [`pack_point`]-packed design point
    /// (rendered as `XwY(Z)` in exported args).
    #[must_use]
    pub fn b_is_point(self) -> bool {
        matches!(
            self,
            SpanKind::Mii
                | SpanKind::MiiDecode
                | SpanKind::BaseSchedule
                | SpanKind::BaseDecode
                | SpanKind::Schedule
                | SpanKind::SchedDecode
                | SpanKind::Lower
                | SpanKind::LowerDecode
                | SpanKind::SweepUnit
                | SpanKind::QueueWait
        )
    }
}

/// Pack a design point into one label word: replication `X`, width `Y`
/// and an optional register-file size `Z` (`None` = the paper's *peak*
/// mode, which stops after MII).
#[must_use]
pub fn pack_point(replication: u32, width: u32, registers: Option<u32>) -> u64 {
    let z = registers.map_or(0, |r| u64::from(r) + 1);
    (u64::from(replication) & 0xff) | ((u64::from(width) & 0xff) << 8) | (z << 16)
}

/// Inverse of [`pack_point`].
#[must_use]
pub fn unpack_point(packed: u64) -> (u32, u32, Option<u32>) {
    let replication = (packed & 0xff) as u32;
    let width = ((packed >> 8) & 0xff) as u32;
    let z = packed >> 16;
    let registers = if z == 0 { None } else { Some((z - 1) as u32) };
    (replication, width, registers)
}

/// Render a packed design point as the paper's `XwY(Z)` notation.
#[must_use]
pub fn format_point(packed: u64) -> String {
    let (replication, width, registers) = unpack_point(packed);
    match registers {
        Some(z) => format!("{replication}w{width}({z})"),
        None => format!("{replication}w{width}(peak)"),
    }
}

/// One recorded event: a span (`start_ns < end_ns`) or an instant
/// (`start_ns == end_ns`), with two numeric labels whose meaning is
/// [`SpanKind`]-specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: SpanKind,
    /// Nanoseconds from the recorder's monotonic epoch.
    pub start_ns: u64,
    /// End timestamp; equals `start_ns` for instants.
    pub end_ns: u64,
    /// First label (see [`SpanKind::arg_names`]).
    pub a: u64,
    /// Second label.
    pub b: u64,
}

impl Event {
    /// Whether this is an instant (zero-duration marker) event.
    #[must_use]
    pub fn is_instant(&self) -> bool {
        self.start_ns == self.end_ns
    }
}

/// A bounded circular buffer of events. Preallocated up front; a push
/// beyond capacity overwrites the oldest event and bumps `dropped`.
#[derive(Debug)]
pub(crate) struct Ring {
    cap: usize,
    buf: Vec<Event>,
    head: usize,
    dropped: u64,
}

impl Ring {
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Ring {
            cap,
            buf: Vec::with_capacity(cap),
            head: 0,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events in recording order (oldest surviving first).
    pub(crate) fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// One recording thread's track: a ring plus a human-readable label.
#[derive(Debug)]
struct ThreadRing {
    tid: u32,
    label: Mutex<String>,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    wall_anchor_ns: u64,
    capacity: usize,
    process: String,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl RecorderInner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn register_thread(&self) -> Arc<ThreadRing> {
        let mut rings = self.rings.lock().expect("ring registry lock");
        let tid = u32::try_from(rings.len())
            .unwrap_or(u32::MAX)
            .saturating_add(1);
        let ring = Arc::new(ThreadRing {
            tid,
            label: Mutex::new(format!("thread-{tid}")),
            ring: Mutex::new(Ring::new(self.capacity)),
        });
        rings.push(Arc::clone(&ring));
        ring
    }
}

/// A trace recorder: owns every thread's ring and the time base.
/// Cloning is cheap (shared handle). Install one globally with
/// [`install`]; take the collected events back with
/// [`Recorder::snapshot`].
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Recorder {
    /// A recorder with the default per-thread ring capacity.
    #[must_use]
    pub fn new(process: &str) -> Self {
        Self::with_capacity(process, DEFAULT_RING_CAPACITY)
    }

    /// A recorder whose threads each hold at most `capacity` events
    /// (older events are dropped first, and counted).
    #[must_use]
    pub fn with_capacity(process: &str, capacity: usize) -> Self {
        let wall_anchor_ns = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        Recorder {
            inner: Arc::new(RecorderInner {
                epoch: Instant::now(),
                wall_anchor_ns,
                capacity: capacity.max(1),
                process: process.to_string(),
                rings: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Total events dropped across all threads so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        let rings = self.inner.rings.lock().expect("ring registry lock");
        rings
            .iter()
            .map(|t| t.ring.lock().expect("ring lock").dropped())
            .sum()
    }

    /// Copy out everything recorded so far as one per-process trace.
    /// Threads that never recorded an event are omitted.
    #[must_use]
    pub fn snapshot(&self) -> ProcessTrace {
        let rings = self.inner.rings.lock().expect("ring registry lock");
        let mut dropped = 0;
        let mut tracks = Vec::new();
        for thread in rings.iter() {
            let label = thread.label.lock().expect("label lock").clone();
            let ring = thread.ring.lock().expect("ring lock");
            dropped += ring.dropped();
            let events = ring.events();
            if !events.is_empty() {
                tracks.push(TrackTrace {
                    tid: thread.tid,
                    label,
                    events,
                });
            }
        }
        ProcessTrace {
            process: self.inner.process.clone(),
            wall_anchor_ns: self.inner.wall_anchor_ns,
            dropped,
            tracks,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static CURRENT: RwLock<Option<Recorder>> = RwLock::new(None);

struct TlsSlot {
    generation: u64,
    ring: Option<(Arc<RecorderInner>, Arc<ThreadRing>)>,
}

thread_local! {
    static TLS: RefCell<TlsSlot> = const {
        RefCell::new(TlsSlot { generation: 0, ring: None })
    };
}

/// Install `recorder` as the process-global recorder. Subsequent
/// [`span`]/[`instant`] calls on any thread record into it. The caller
/// keeps its handle for [`Recorder::snapshot`].
pub fn install(recorder: &Recorder) {
    let mut current = CURRENT.write().expect("recorder slot lock");
    *current = Some(recorder.clone());
    GENERATION.fetch_add(1, Ordering::Release);
    ENABLED.store(true, Ordering::Release);
}

/// Disable recording and drop the global handle. Returns the recorder
/// if one was installed (snapshots stay valid — the caller's own clone
/// works equally well).
pub fn uninstall() -> Option<Recorder> {
    ENABLED.store(false, Ordering::Release);
    GENERATION.fetch_add(1, Ordering::Release);
    CURRENT.write().expect("recorder slot lock").take()
}

/// Whether a recorder is currently installed.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` with this thread's ring of the current recorder, if any.
/// Re-resolves the thread-local cache when the installed recorder
/// changed.
fn with_ring(f: impl FnOnce(&RecorderInner, &ThreadRing)) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let generation = GENERATION.load(Ordering::Acquire);
    // try_with: a drop-guard firing during thread teardown must not panic.
    let _ = TLS.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.generation != generation || slot.ring.is_none() {
            slot.generation = generation;
            slot.ring = CURRENT.read().ok().and_then(|current| {
                current.as_ref().map(|recorder| {
                    let ring = recorder.inner.register_thread();
                    (Arc::clone(&recorder.inner), ring)
                })
            });
        }
        if let Some((inner, ring)) = &slot.ring {
            f(inner, ring);
        }
    });
}

/// Nanoseconds from the installed recorder's epoch, or `None` when
/// recording is disabled. Pairs with [`record_span`] for spans whose
/// start is observed before the work (e.g. queue-wait gaps).
#[must_use]
pub fn now_ns() -> Option<u64> {
    let mut out = None;
    with_ring(|inner, _| out = Some(inner.now_ns()));
    out
}

/// Record a complete span from explicit timestamps previously obtained
/// via [`now_ns`]. No-op when recording is disabled.
pub fn record_span(kind: SpanKind, start_ns: u64, end_ns: u64, a: u64, b: u64) {
    with_ring(|_, thread| {
        thread.ring.lock().expect("ring lock").push(Event {
            kind,
            start_ns,
            end_ns: end_ns.max(start_ns),
            a,
            b,
        });
    });
}

/// Record an instant (zero-duration marker) event.
pub fn instant(kind: SpanKind, a: u64, b: u64) {
    with_ring(|inner, thread| {
        let now = inner.now_ns();
        thread.ring.lock().expect("ring lock").push(Event {
            kind,
            start_ns: now,
            end_ns: now,
            a,
            b,
        });
    });
}

/// Label this thread's track in the exported timeline (e.g. the worker
/// tag). No-op when recording is disabled.
pub fn set_thread_label(label: &str) {
    with_ring(|_, thread| {
        *thread.label.lock().expect("label lock") = label.to_string();
    });
}

/// Start a span; the returned guard records it on drop. When recording
/// is disabled this is one atomic load and the guard is inert.
#[must_use]
pub fn span(kind: SpanKind, a: u64, b: u64) -> SpanGuard {
    let mut start = None;
    with_ring(|inner, _| {
        start = Some((GENERATION.load(Ordering::Acquire), inner.now_ns()));
    });
    SpanGuard { kind, a, b, start }
}

/// RAII guard for an in-flight span (see [`span`]).
#[derive(Debug)]
pub struct SpanGuard {
    kind: SpanKind,
    a: u64,
    b: u64,
    /// `(generation at start, start_ns)`; `None` when inert.
    start: Option<(u64, u64)>,
}

impl SpanGuard {
    /// Discard the span instead of recording it (e.g. a disk-decode
    /// probe that found nothing on disk).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((generation, start_ns)) = self.start.take() else {
            return;
        };
        with_ring(|inner, thread| {
            // A recorder swapped in mid-span would give this span a
            // meaningless start offset; drop it instead.
            if GENERATION.load(Ordering::Acquire) != generation {
                return;
            }
            let end_ns = inner.now_ns().max(start_ns);
            thread.ring.lock().expect("ring lock").push(Event {
                kind: self.kind,
                start_ns,
                end_ns,
                a: self.a,
                b: self.b,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_wire_round_trip() {
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(*kind as u8, u8::try_from(i).unwrap());
            assert_eq!(SpanKind::from_u8(*kind as u8), Some(*kind));
        }
        assert_eq!(SpanKind::from_u8(ALL_KINDS.len() as u8), None);
    }

    #[test]
    fn point_packing_round_trips() {
        for (x, y, z) in [
            (1, 1, None),
            (4, 2, Some(0)),
            (8, 1, Some(32)),
            (2, 2, Some(255)),
            (255, 255, Some(1 << 20)),
        ] {
            assert_eq!(unpack_point(pack_point(x, y, z)), (x, y, z));
        }
        assert_eq!(format_point(pack_point(4, 2, Some(128))), "4w2(128)");
        assert_eq!(format_point(pack_point(2, 2, None)), "2w2(peak)");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = Ring::new(4);
        let ev = |n: u64| Event {
            kind: SpanKind::Widen,
            start_ns: n,
            end_ns: n,
            a: n,
            b: 0,
        };
        for n in 0..4 {
            ring.push(ev(n));
        }
        assert_eq!(ring.dropped(), 0);
        for n in 4..10 {
            ring.push(ev(n));
        }
        assert_eq!(ring.dropped(), 6);
        let kept: Vec<u64> = ring.events().iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest events dropped first");
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let mut ring = Ring::new(0);
        ring.push(Event {
            kind: SpanKind::Evict,
            start_ns: 1,
            end_ns: 1,
            a: 0,
            b: 0,
        });
        ring.push(Event {
            kind: SpanKind::Evict,
            start_ns: 2,
            end_ns: 2,
            a: 0,
            b: 0,
        });
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.events().len(), 1);
    }
}
