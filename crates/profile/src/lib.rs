//! Structured tracing & metrics for the visibility engines and simulator.
//!
//! The recorder is built for the measurement loops in `viz-bench`: the
//! instrumented code (engines, `viz_sim::Machine`, the executor) calls the
//! free functions here unconditionally, and they cost one relaxed atomic
//! load while profiling is disabled — or nothing at all when the crate is
//! built without the `enabled` feature. When enabled, each thread records
//! into its own fixed-capacity ring buffer (oldest events are overwritten
//! and counted, never reallocated), so recording never blocks another
//! thread and never grows without bound inside a benchmark loop.
//!
//! Events live on one of four kinds of **track**:
//!
//! * [`Track::Host`] — real wall-clock spans/instants on an OS thread
//!   (engine `analyze` calls, executor phases). Timestamps come from a
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

/// The typed payload of one event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A named host-side phase (engine analyze, executor stage, ...).
    Span { name: &'static str },
    /// One task launch fully analyzed by `engine`.
    LaunchAnalyzed { engine: &'static str, task: u64 },
    /// A visibility traversal scanned `entries` history entries.
    HistoryScan { entries: u64 },
    /// `count` equivalence sets created.
    EqSetCreated { count: u64 },
    /// `count` equivalence sets refined (split).
    EqSetRefined { count: u64 },
    /// `count` equivalence sets coalesced / retired (dominating writes).
    EqSetCoalesced { count: u64 },
    /// A composite view built capturing `entries` entries.
    CompositeView { entries: u64 },
    /// A spatial-index (refinement tree, anchor buckets, or dynamic BVH)
    /// traversal touching `nodes` nodes.
    BvhTraversal { nodes: u64 },
    /// A message injected by `from` toward `to` (sender-side overhead).
    MsgSend { from: u32, to: u32, bytes: u64 },
    /// A message from `from` served on `to`'s service clock after waiting
    /// `queued_ns` behind earlier messages (the §8.1 bottleneck signal).
    MsgServe { from: u32, to: u32, queued_ns: u64 },
    /// A task occupying a node's GPU.
    GpuTask { task: u64 },
    /// The auto-tracer promoted a repeating launch pattern of `len`
    /// launches into trace `trace`.
    TraceDetect { trace: u32, len: u64 },
    /// Trace `trace` replayed an instance of `launches` launches without
    /// re-analysis.
    TraceReplay { trace: u32, launches: u64 },
    /// The pipeline driver drained `depth` queued launches in one wakeup
    /// (the submission queue depth it observed).
    PipelineDepth { depth: u64 },
    /// A submission blocked `waited_ns` on a full pipeline queue
    /// (backpressure: the application ran a full queue ahead of analysis).
    PipelineStall { waited_ns: u64 },
    /// The combining dispatcher committed `specs` launches from
    /// `producers` contexts, taken from the submission queue at once,
    /// under one core lock acquisition.
    SubmitCombine { producers: u64, specs: u64 },
    /// Memoized set-algebra activity since the last report on the algebra
    /// one shard scan used (its root's, for RayCast and Warnock): `hits`
    /// lookups answered from the cache, `misses` recomputed.
    AlgebraCache { hits: u64, misses: u64 },
    /// Incremental BVH maintenance on one shard since the last report:
    /// `refits` ancestor-refit passes vs `rebuilds` full rebuilds.
    BvhMaintain { refits: u64, rebuilds: u64 },
    /// The oracle's saturation checker judged one history: `pairs`
    /// interfering launch pairs verified against `edges` engine edges.
    OracleCheck { pairs: u64, edges: u64 },
    /// One history-GC sweep: the watermark reached `watermark`, `retired`
    /// ledger entries were reclaimed, and engines dropped `dropped` dead
    /// state entries.
    GcSweep {
        watermark: u64,
        retired: u64,
        dropped: u64,
    },
    /// One launch-analysis scan: the locality index produced `candidates`
    /// candidate sets and the refine loop swept `swept` of them (the
    /// bounded-scan signal — tracks requirement overlap, not live sets).
    ScanSweep { candidates: u64, swept: u64 },
}

impl EventKind {
    /// Short stable name, used for Chrome event names and metric keys.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Span { name } => name,
            EventKind::LaunchAnalyzed { .. } => "launch_analyzed",
            EventKind::HistoryScan { .. } => "history_scan",
            EventKind::EqSetCreated { .. } => "eqset_created",
            EventKind::EqSetRefined { .. } => "eqset_refined",
            EventKind::EqSetCoalesced { .. } => "eqset_coalesced",
            EventKind::CompositeView { .. } => "composite_view",
            EventKind::BvhTraversal { .. } => "bvh_traversal",
            EventKind::MsgSend { .. } => "msg_send",
            EventKind::MsgServe { .. } => "msg_serve",
            EventKind::GpuTask { .. } => "gpu_task",
            EventKind::TraceDetect { .. } => "trace_detect",
            EventKind::TraceReplay { .. } => "trace_replay",
            EventKind::PipelineDepth { .. } => "pipeline_depth",
            EventKind::PipelineStall { .. } => "pipeline_stall",
            EventKind::SubmitCombine { .. } => "submit_combine",
            EventKind::AlgebraCache { .. } => "algebra_cache",
            EventKind::BvhMaintain { .. } => "bvh_maintain",
            EventKind::OracleCheck { .. } => "oracle_check",
            EventKind::GcSweep { .. } => "gc_sweep",
            EventKind::ScanSweep { .. } => "scan_sweep",
        }
    }

    /// The "how much" payload (entries scanned, nodes touched, bytes sent,
    /// sets changed), summed per metric by the TSV exporter.
    pub fn units(&self) -> u64 {
        match *self {
            EventKind::Span { .. } => 0,
            EventKind::LaunchAnalyzed { .. } => 1,
            EventKind::HistoryScan { entries } => entries,
            EventKind::EqSetCreated { count } => count,
            EventKind::EqSetRefined { count } => count,
            EventKind::EqSetCoalesced { count } => count,
            EventKind::CompositeView { entries } => entries,
            EventKind::BvhTraversal { nodes } => nodes,
            EventKind::MsgSend { bytes, .. } => bytes,
            EventKind::MsgServe { queued_ns, .. } => queued_ns,
            EventKind::GpuTask { .. } => 1,
            EventKind::TraceDetect { len, .. } => len,
            EventKind::TraceReplay { launches, .. } => launches,
            EventKind::PipelineDepth { depth } => depth,
            EventKind::PipelineStall { waited_ns } => waited_ns,
            // A combine report counts the specs it committed.
            EventKind::SubmitCombine { specs, .. } => specs,
            // A cache report counts lookups; maintenance counts operations.
            EventKind::AlgebraCache { hits, misses } => hits + misses,
            EventKind::BvhMaintain { refits, rebuilds } => refits + rebuilds,
            // A check report counts the precedence pairs it proved.
            EventKind::OracleCheck { pairs, .. } => pairs,
            // A sweep report counts the state entries it reclaimed.
            EventKind::GcSweep {
                retired, dropped, ..
            } => retired + dropped,
            // A scan report counts the sets it actually swept.
            EventKind::ScanSweep { swept, .. } => swept,
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
/// a single relaxed load, constant `false` without the `enabled` feature.
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "enabled") && ENABLED.load(Ordering::Relaxed)
}

/// Start recording. Also pins the host-time epoch on first call. No-op
/// without the `enabled` feature.
pub fn enable() {
    if cfg!(feature = "enabled") {
        epoch();
        ENABLED.store(true, Ordering::Relaxed);
    }
}

/// Stop recording (already-buffered events are kept until [`take`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Per-thread ring-buffer capacity for buffers created *after* this call.
pub fn set_ring_capacity(events: usize) {
    RING_CAPACITY.store(events.max(1), Ordering::Relaxed);
}

/// Record an instantaneous host-time event on the calling thread.
#[inline]
pub fn instant(kind: EventKind) {
    if !enabled() {
        return;
    }
    let ts = now_ns();
    with_local(|ring| {
        let track = Track::Host {
            thread: ring.thread,
        };
        ring.push(Event {
            ts,
            dur: 0,
            track,
            kind,
        });
    });
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

    #[test]
    fn disabled_records_nothing() {
        let _g = lock();
        clear();
        disable();
        instant(EventKind::EqSetCreated { count: 1 });
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
    fn spans_and_instants_round_trip() {
        let _g = lock();
        clear();
        enable();
        {
            let _s = span("outer");
            instant(EventKind::EqSetRefined { count: 2 });
        }
        disable();
        let p = take();
        assert_eq!(p.events.len(), 2);
        let span_ev = p
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Span { name: "outer" }))
            .expect("span recorded");
        let inst = p
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::EqSetRefined { count: 2 }))
            .expect("instant recorded");
        assert!(span_ev.ts <= inst.ts, "span opens before its contents");
        assert!(
            span_ev.ts + span_ev.dur >= inst.ts,
            "span covers its contents"
        );
        assert!(matches!(inst.track, Track::Host { .. }));
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
                instant(EventKind::HistoryScan { entries: i });
            }
        })
        .join()
        .unwrap();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        disable();
        let p = take();
        let scans: Vec<u64> = p
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::HistoryScan { entries } => Some(entries),
                _ => None,
            })
            .collect();
        assert_eq!(
            scans,
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
        instant(EventKind::EqSetCreated { count: 1 });
        disable();
        assert_eq!(take().events.len(), 1);
        assert!(
            take().events.is_empty(),
            "second take sees a drained recorder"
        );
    }
}
