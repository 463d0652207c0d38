//! Structured tracing & metrics for the visibility engines and simulator.
//!
//! The recorder is built for the measurement loops in `viz-bench`: the
//! instrumented code (engines, `viz_sim::Machine`, the executor) calls the
//! free functions here unconditionally, and they cost one relaxed atomic
//! load while profiling is disabled. When enabled, each thread records
//! into its own fixed-capacity ring buffer (oldest events are overwritten
//! and counted, never reallocated), so recording never blocks another
//! thread and never grows without bound inside a benchmark loop.
//!
//! An event says *when* something happened; how much work it did is counted
//! by the runtime's own counters (`viz_sim::Counters`, `StateSize`,
//! `TracingStats`, `PipelineStats`), never a second time here. Events live
//! on one of four kinds of **track**:
//!
//! * [`Track::Host`] — real wall-clock spans on an OS thread (engine
//!   `analyze` calls, executor phases). Timestamps come from a
//!   process-wide monotonic epoch.
//! * [`Track::SimProgram`], [`Track::SimService`], [`Track::SimGpu`] — the
//!   three per-node timelines of the simulated machine. Timestamps are
//!   *simulated* nanoseconds supplied by the caller.
//!
//! [`take()`] drains every thread's buffer into a [`Profile`], which the
//! [`export`] module renders as a Chrome trace-event JSON (host process +
//! one process per simulated node), a folded-stack flamegraph text, and a
//! metrics TSV.

#![forbid(unsafe_code)]

pub mod export;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Where an event is rendered: a real host thread or one of a simulated
/// node's three timelines.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// A host OS thread (id assigned at first record; see [`Profile::threads`]).
    Host { thread: u32 },
    /// A simulated node's program (analysis) clock.
    SimProgram { node: u32 },
    /// A simulated node's message-service clock.
    SimService { node: u32 },
    /// A simulated node's GPU timeline.
    SimGpu { node: u32 },
}

/// The typed payload of one event. Host tracks carry only [`EventKind::Span`];
/// the other kinds are placed on simulated time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A named host-side phase (engine analyze, executor stage, ...).
    Span { name: &'static str },
    /// One task launch fully analyzed by `engine`.
    LaunchAnalyzed { engine: &'static str, task: u64 },
    /// A message injected by `from` toward `to` (sender-side overhead).
    MsgSend { from: u32, to: u32, bytes: u64 },
    /// A message from `from` served on `to`'s service clock after waiting
    /// `queued_ns` behind earlier messages (the §8.1 bottleneck signal).
    MsgServe { from: u32, to: u32, queued_ns: u64 },
    /// A task occupying a node's GPU.
    GpuTask { task: u64 },
    /// One history-GC sweep: the watermark reached `watermark`, `retired`
    /// ledger entries were reclaimed, and engines dropped `dropped` dead
    /// state entries.
    GcSweep {
        watermark: u64,
        retired: u64,
        dropped: u64,
    },
}

impl EventKind {
    /// Short stable name, used for Chrome event names and metric keys.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Span { name } => name,
            EventKind::LaunchAnalyzed { .. } => "launch_analyzed",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgServe { .. } => "msg_serve",
            EventKind::GpuTask { .. } => "gpu_task",
            EventKind::GcSweep { .. } => "gc_sweep",
        }
    }

    /// The "how much" payload (bytes sent, time queued, entries
    /// reclaimed), summed per metric by the TSV exporter.
    pub fn units(&self) -> u64 {
        match *self {
            EventKind::Span { .. } => 0,
            EventKind::LaunchAnalyzed { .. } => 1,
            EventKind::MsgSend { bytes, .. } => bytes,
            EventKind::MsgServe { queued_ns, .. } => queued_ns,
            EventKind::GpuTask { .. } => 1,
            // A sweep report counts the state entries it reclaimed.
            EventKind::GcSweep {
                retired, dropped, ..
            } => retired + dropped,
        }
    }
}

/// One recorded event. `ts`/`dur` are nanoseconds — wall-clock since the
/// process profiling epoch for host tracks, simulated time for sim tracks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    pub ts: u64,
    pub dur: u64,
    pub track: Track,
    pub kind: EventKind,
}

/// A drained snapshot of everything recorded so far.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// All events, sorted by (`track`, `ts`).
    pub events: Vec<Event>,
    /// Events overwritten because a thread's ring buffer filled.
    pub dropped: u64,
    /// Host thread id → OS thread name, for trace labeling.
    pub threads: Vec<(u32, String)>,
}

impl Profile {
    /// Events on a given track, in time order.
    pub fn on_track(&self, track: Track) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.track == track)
    }
}

// ---------------------------------------------------------------------------
// Recorder internals
// ---------------------------------------------------------------------------

const DEFAULT_RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

struct RingBuf {
    thread: u32,
    name: String,
    cap: usize,
    buf: Vec<Event>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl RingBuf {
    fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> (Vec<Event>, u64) {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        let dropped = std::mem::take(&mut self.dropped);
        (out, dropped)
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<RingBuf>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<RingBuf>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: OnceLock<Arc<Mutex<RingBuf>>> = const { OnceLock::new() };
}

fn with_local(f: impl FnOnce(&mut RingBuf)) {
    LOCAL.with(|cell| {
        let arc = cell.get_or_init(|| {
            let thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{thread}"));
            let buf = Arc::new(Mutex::new(RingBuf {
                thread,
                name,
                cap: RING_CAPACITY.load(Ordering::Relaxed).max(1),
                buf: Vec::new(),
                head: 0,
                dropped: 0,
            }));
            registry().lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        f(&mut arc.lock().unwrap());
    });
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process profiling epoch (first use wins).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// Whether events are currently being recorded. This is the hot-path guard:
/// a single relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Start recording. Also pins the host-time epoch on first call.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording (already-buffered events are kept until [`take`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Per-thread ring-buffer capacity for buffers created *after* this call.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(1), Ordering::Relaxed);
}

/// Record an event with explicit timing on an explicit track (used by the
/// simulator, whose timestamps are simulated nanoseconds).
#[inline]
pub fn sim_event(ts: u64, dur: u64, track: Track, kind: EventKind) {
    if !enabled() {
        return;
    }
    with_local(|ring| {
        ring.push(Event {
            ts,
            dur,
            track,
            kind,
        })
    });
}

/// Open a host-time span; it is recorded when the guard drops. When
/// profiling is disabled at open time this is free and records nothing.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: if enabled() { Some(now_ns()) } else { None },
    }
}

/// RAII guard for a host-time span (see [`span`]).
pub struct SpanGuard {
    name: &'static str,
    start: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            if !enabled() {
                return;
            }
            let dur = now_ns().saturating_sub(start);
            with_local(|ring| {
                let track = Track::Host {
                    thread: ring.thread,
                };
                ring.push(Event {
                    ts: start,
                    dur,
                    track,
                    kind: EventKind::Span { name: self.name },
                });
            });
        }
    }
}

/// Drain every thread's buffer into a [`Profile`]. Buffers stay registered
/// (threads keep recording into them afterwards); call [`disable`] first
/// for a quiescent snapshot.
pub fn take() -> Profile {
    let mut profile = Profile::default();
    let registry = registry().lock().unwrap();
    for buf in registry.iter() {
        let mut ring = buf.lock().unwrap();
        let (events, dropped) = ring.drain();
        profile.dropped += dropped;
        if !events.is_empty() || ring.dropped > 0 {
            profile.threads.push((ring.thread, ring.name.clone()));
        }
        profile.events.extend(events);
    }
    drop(registry);
    profile.threads.sort();
    profile.threads.dedup();
    // Stable: events from one thread are already in record order, and ties
    // across tracks keep a deterministic order for the exporters.
    profile.events.sort_by_key(|e| (e.track, e.ts));
    profile
}

/// Discard everything recorded so far.
pub fn clear() {
    let _ = take();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; tests that toggle it must not
    /// interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn gpu_task(ts: u64, task: u64) {
        sim_event(
            ts,
            1,
            Track::SimGpu { node: 0 },
            EventKind::GpuTask { task },
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        clear();
        disable();
        let _s = span("dead");
        drop(_s);
        sim_event(
            0,
            5,
            Track::SimProgram { node: 0 },
            EventKind::MsgSend {
                from: 0,
                to: 1,
                bytes: 8,
            },
        );
        let p = take();
        assert!(p.events.is_empty(), "disabled recorder must stay empty");
        assert_eq!(p.dropped, 0);
    }

    #[test]
    fn spans_nest() {
        let _g = lock();
        clear();
        enable();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        disable();
        let p = take();
        assert_eq!(p.events.len(), 2);
        let find = |want: &str| {
            p.events
                .iter()
                .find(|e| matches!(e.kind, EventKind::Span { name } if name == want))
                .unwrap_or_else(|| panic!("span {want} recorded"))
        };
        let (outer, inner) = (find("outer"), find("inner"));
        assert!(outer.ts <= inner.ts, "outer opens before inner");
        assert!(
            outer.ts + outer.dur >= inner.ts + inner.dur,
            "outer closes after inner"
        );
        assert!(matches!(inner.track, Track::Host { .. }));
        assert_eq!(inner.track, outer.track, "one thread, one track");
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_drops() {
        let _g = lock();
        clear();
        enable();
        // A fresh thread so the small capacity applies to a new buffer.
        set_ring_capacity(4);
        std::thread::spawn(|| {
            for i in 0..10u64 {
                gpu_task(i, i);
            }
        })
        .join()
        .unwrap();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        disable();
        let p = take();
        let tasks: Vec<u64> = p
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::GpuTask { task } => Some(task),
                _ => None,
            })
            .collect();
        assert_eq!(
            tasks,
            vec![6, 7, 8, 9],
            "oldest events overwritten in order"
        );
        assert_eq!(p.dropped, 6);
    }

    #[test]
    fn sim_events_carry_their_tracks() {
        let _g = lock();
        clear();
        enable();
        sim_event(
            100,
            40,
            Track::SimService { node: 3 },
            EventKind::MsgServe {
                from: 1,
                to: 3,
                queued_ns: 25,
            },
        );
        sim_event(
            10,
            0,
            Track::SimProgram { node: 1 },
            EventKind::MsgSend {
                from: 1,
                to: 3,
                bytes: 64,
            },
        );
        disable();
        let p = take();
        let serve: Vec<_> = p.on_track(Track::SimService { node: 3 }).collect();
        assert_eq!(serve.len(), 1);
        assert_eq!(serve[0].dur, 40);
        assert_eq!(p.on_track(Track::SimProgram { node: 1 }).count(), 1);
    }

    #[test]
    fn take_drains() {
        let _g = lock();
        clear();
        enable();
        drop(span("once"));
        gpu_task(0, 1);
        disable();
        assert_eq!(take().events.len(), 2);
        assert!(
            take().events.is_empty(),
            "second take sees a drained recorder"
        );
    }
}
