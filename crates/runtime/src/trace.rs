//! Dynamic tracing: memoization of the dependence/coherence analysis
//! (Lee et al., "Dynamic Tracing: Memoization of Task Graphs for Dynamic
//! Task-Based Runtimes" — the paper's reference \[15\]).
//!
//! The evaluation of the visibility paper *disables* tracing ("these
//! experiments do not measure Legion's peak performance, but rather the
//! performance of the different coherence algorithms", §8). This module
//! implements it as the natural extension: applications wrap the body of a
//! repetitive loop in [`crate::Runtime::try_begin_trace`] /
//! [`crate::Runtime::try_end_trace`]; the runtime
//!
//! 1. analyzes the first instance normally (warm-up: partitions are
//!    discovered, equivalence sets refined, views built);
//! 2. analyzes and *records* the second instance — by then the analysis is
//!    in steady state, so every cross-instance reference lands in the
//!    immediately preceding instance;
//! 3. **replays** instances three onward: launches are validated against
//!    the recorded signature and their dependences/plans are synthesized by
//!    shifting the recorded ones — the visibility engine is not consulted
//!    at all.
//!
//! Soundness rests on instances being *identical* (validated launch by
//! launch; a mismatch is a [`TraceViolation`] — the runtime demotes the
//! trace and recaptures, it never aborts) and *contiguous* (anything
//! launched between instances invalidates the template, which is then
//! recaptured). Because replays do not update the engine's state, the
//! runtime rebases any later engine result that references the recorded
//! instance onto the final replayed instance — valid precisely because the
//! instances are identical.
//!
//! Two properties keep replay O(1) per launch:
//!
//! * Template results are stored behind [`std::sync::Arc`] and **never
//!   deep-cloned on the replay path**: a replayed launch stores the `Arc`
//!   plus a [`TaskShift`] computed once per instance; consumers apply the
//!   shift lazily when they read task references out of the plan.
//! * The rebase map is a sorted, non-overlapping interval map: each
//!   completed replay instance *supersedes* the previous mapping of its
//!   recorded window, so the map stays O(active templates) no matter how
//!   many instances replay (see `push_rebase`).
//!
//! Traces also form without annotations: when auto-tracing is enabled, the
//! auto tracer ([`crate::autotrace`]) watches the launch stream and promotes
//! detected repeats into the same state machine (`Mode::AutoCapture` /
//! `Mode::AutoReplay`), with a demotion path back to normal analysis when
//! the prediction diverges.

use crate::autotrace::{AutoSig, AutoTracer};
use crate::error::RuntimeError;
use crate::plan::{AnalysisResult, Source, StoredResult, TaskShift};
use crate::task::{RegionRequirement, TaskId};
use std::sync::Arc;
use viz_geometry::{FxHashMap, IndexSpace};
use viz_region::{FieldId, Privilege, RegionForest, RegionId};
use viz_sim::NodeId;

/// Application-chosen trace identifier. Ids with [`TraceId::AUTO_BIT`] set
/// are reserved for traces promoted by the auto-tracer.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(pub u32);

impl TraceId {
    /// High bit marks runtime-generated (auto-detected) traces.
    pub const AUTO_BIT: u32 = 1 << 31;

    /// Was this trace detected by the auto-tracer (as opposed to an
    /// explicit `begin_trace` annotation)?
    pub fn is_auto(self) -> bool {
        self.0 & Self::AUTO_BIT != 0
    }
}

/// One recorded launch of a trace template. The analysis result is shared
/// (`Arc`) with every replayed instance — replay never clones it.
#[derive(Clone)]
pub(crate) struct TemplateEntry {
    pub node: NodeId,
    pub reqs: Vec<RegionRequirement>,
    pub result: Arc<AnalysisResult>,
}

/// A captured trace: the launches of one steady-state instance, with their
/// analysis results, based at `base`.
pub(crate) struct Template {
    pub base: u32,
    pub entries: Vec<TemplateEntry>,
}

impl Template {
    pub fn len(&self) -> u32 {
        self.entries.len() as u32
    }

    /// The [`TaskShift`] mapping this template onto an instance starting at
    /// `new_base`: recorded references into `[base - len, base + len)`
    /// (the recorded instance and its immediate predecessor) move with the
    /// instance; pre-trace references stay absolute.
    pub fn shift_to(&self, new_base: u32) -> TaskShift {
        let len = self.len();
        TaskShift {
            lo: self.base.saturating_sub(len),
            hi: self.base + len,
            delta: new_base - self.base,
        }
    }
}

#[derive(Default)]
pub(crate) struct TraceState {
    /// Completed (analyzed) instances so far.
    pub instances: u32,
    pub template: Option<Template>,
    /// Task id one past the end of the last completed instance (for the
    /// contiguity check).
    pub last_end: u32,
}

/// Why a trace prediction failed (see [`TraceViolation`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Requirement `index` of the launch differs from the recording (a
    /// count mismatch reports the first index past the shorter list).
    RequirementMismatch { index: u32 },
    /// The launch targets a different node than the recording.
    NodeMismatch { recorded: NodeId, got: NodeId },
    /// More launches arrived than the recorded instance holds.
    ExtraLaunch { recorded_len: u32 },
    /// `end_trace` arrived before the instance replayed completely.
    ShortInstance { recorded_len: u32 },
    /// A fence or an explicit trace annotation interrupted the instance.
    Interrupted,
}

/// A structured trace-violation report: which trace diverged, at which
/// launch of the instance, and how. Violations demote the trace (recapture
/// for annotated traces, back to observation for auto traces); they never
/// abort the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceViolation {
    pub id: TraceId,
    /// Index of the diverging launch within the instance.
    pub cursor: u32,
    pub kind: ViolationKind,
}

/// What the in-progress instance is doing.
pub(crate) enum Mode {
    /// First instance of an annotated trace: analyze normally.
    Warmup,
    /// Second instance of an annotated trace: analyze and record.
    Capture,
    /// Replaying an annotated trace's template.
    Replay,
    /// Recording a speculated repeat: each launch is validated against the
    /// predicted signatures *before* it is analyzed and recorded.
    AutoCapture { predicted: Vec<AutoSig> },
    /// One more analyzed instance after auto-capture: each result is
    /// compared against the template modulo the instance shift. Signatures
    /// repeating does not imply the *analysis* repeats — pending reductions
    /// can accumulate across instances, for example — and unlike an
    /// annotated trace there is no user promise to lean on. Only a
    /// shift-stationary instance is promoted to replay.
    AutoVerify,
    /// Replaying an auto-detected template; wraps to a new instance every
    /// `len` launches (auto traces have no explicit `end_trace`).
    AutoReplay,
}

pub(crate) struct ActiveTrace {
    pub id: TraceId,
    /// First task id of the current instance.
    pub base: u32,
    pub cursor: u32,
    pub mode: Mode,
    /// Entries recorded by this instance (when capturing).
    pub recording: Vec<TemplateEntry>,
    /// The shift applied to replayed results of this instance (computed
    /// once per instance, not per launch).
    pub shift: TaskShift,
    /// A demoted annotated trace: the rest of the instance is analyzed
    /// normally and the instance does not count toward warm-up/capture.
    pub demoted: bool,
}

impl ActiveTrace {
    fn is_auto(&self) -> bool {
        self.id.is_auto()
    }
}

/// A promotion waiting for its first launch: capture begins at task
/// `base` (the launch right after the detection point).
struct PendingAuto {
    id: TraceId,
    base: u32,
    predicted: Vec<AutoSig>,
}

/// What the runtime should do with the next launch.
pub(crate) enum TraceAction {
    /// Not in a trace (or warming up / capturing): run the engine. The
    /// bool says whether the result must be recorded into the template.
    Analyze { record: bool },
    /// Replay: the recorded result (shared, not cloned) plus the shift
    /// mapping it onto this instance.
    Replay {
        result: Arc<AnalysisResult>,
        shift: TaskShift,
    },
    /// The launch diverges from the prediction: the runtime must call
    /// [`Tracing::demote`] and then analyze the launch normally.
    Violation(TraceViolation),
}

/// The runtime's tracing bookkeeping.
#[derive(Default)]
pub(crate) struct Tracing {
    states: FxHashMap<TraceId, TraceState>,
    active: Option<ActiveTrace>,
    /// Template of the current auto-detected trace (auto traces are
    /// one-shot: a demotion discards the template and detection restarts).
    auto_template: Option<Template>,
    /// Online repeat detector (None when auto-tracing is disabled).
    auto: Option<AutoTracer>,
    pending_auto: Option<PendingAuto>,
    next_auto_id: u32,
    /// Sorted, non-overlapping ranges: later engine references to a task in
    /// `start..end` move by `shift` (the distance from the recorded
    /// instance to its last replayed one).
    rebases: Vec<(u32, u32, u32)>,
    /// Replays cut short leave a soundness hazard the rebase map cannot
    /// express: the engine's frozen state references the *unreplayed
    /// suffix* of the recorded window, whose entries superseded the
    /// replayed prefix's reads and writes. A later raw reference into
    /// `suffix_lo..suffix_hi` (recorded ids, checked before rebasing)
    /// orders the launch after the previous instance but not after the
    /// aborted instance's prefix — so it must additionally depend on
    /// `prefix_lo..prefix_hi` (the replayed tasks of that instance).
    /// Entries: `(suffix_lo, suffix_hi, prefix_lo, prefix_hi)`.
    hazards: Vec<(u32, u32, u32, u32)>,
    /// Every violation observed, in program order.
    violations: Vec<TraceViolation>,
    /// Launches synthesized from templates (statistics).
    pub replayed_launches: u64,
    /// Auto-tracer promotions (detected repeats) and demotions.
    pub auto_promotions: u64,
    pub auto_demotions: u64,
}

/// Is one captured instance *self-superseding* — does replaying it with a
/// shift-rebase preserve every future analysis exactly?
///
/// Replay freezes the engine's retained state at the verification
/// instance; the rebase map then translates stale references onto the
/// latest replayed instance. That translation is exact iff the state is
/// *shift-stationary*: each instance must occlude everything its
/// predecessor left visible. A sufficient, signature-checkable condition:
/// per `(root region, field)`, the union of the instance's write
/// footprints covers every region the instance touches. Then every read
/// epoch, write frontier, and pending reduction an instance creates is
/// superseded wholesale by the next instance's writes. Without coverage,
/// entries *accumulate* (a reduction into cells the loop never reads or
/// overwrites stays pending forever; a read of a constant field leaves an
/// unoccluded epoch per instance) and a post-trace task would need
/// references to every skipped instance — which a shift can't synthesize.
fn instance_is_self_superseding(entries: &[TemplateEntry], forest: &RegionForest) -> bool {
    let mut writes: FxHashMap<(RegionId, FieldId), IndexSpace> = FxHashMap::default();
    for e in entries {
        for r in &e.reqs {
            if matches!(r.privilege, Privilege::ReadWrite) {
                let dom = forest.domain(r.region);
                writes
                    .entry((forest.root_of(r.region), r.field))
                    .and_modify(|w| *w = w.union(dom))
                    .or_insert_with(|| dom.clone());
            }
        }
    }
    entries.iter().all(|e| {
        e.reqs.iter().all(|r| {
            matches!(r.privilege, Privilege::ReadWrite)
                || writes
                    .get(&(forest.root_of(r.region), r.field))
                    .is_some_and(|w| w.contains(forest.domain(r.region)))
        })
    })
}

/// Insert `[start, end) -> +shift` into the sorted interval map,
/// superseding any overlapping older mapping (trimming partial overlaps)
/// and coalescing adjacent ranges with equal shifts. A zero shift clears
/// the range. Keeps the map O(active templates): each completed replay
/// instance *replaces* the previous mapping of its window instead of
/// accumulating alongside it.
fn push_rebase(rebases: &mut Vec<(u32, u32, u32)>, start: u32, end: u32, shift: u32) {
    if start >= end {
        return;
    }
    let mut out: Vec<(u32, u32, u32)> = Vec::with_capacity(rebases.len() + 2);
    for &(s, e, sh) in rebases.iter() {
        if e <= start || s >= end {
            out.push((s, e, sh));
            continue;
        }
        if s < start {
            out.push((s, start, sh));
        }
        if e > end {
            out.push((end, e, sh));
        }
    }
    if shift > 0 {
        out.push((start, end, shift));
    }
    out.sort_unstable_by_key(|r| r.0);
    let mut merged: Vec<(u32, u32, u32)> = Vec::with_capacity(out.len());
    for r in out {
        match merged.last_mut() {
            Some(last) if last.1 == r.0 && last.2 == r.2 => last.1 = r.1,
            _ => merged.push(r),
        }
    }
    *rebases = merged;
}

/// Classify how a launch differs from its recorded counterpart.
fn mismatch_kind(
    want_node: NodeId,
    want_reqs: &[RegionRequirement],
    node: NodeId,
    reqs: &[RegionRequirement],
) -> ViolationKind {
    if want_node != node {
        return ViolationKind::NodeMismatch {
            recorded: want_node,
            got: node,
        };
    }
    let index = want_reqs
        .iter()
        .zip(reqs.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want_reqs.len().min(reqs.len()));
    ViolationKind::RequirementMismatch {
        index: index as u32,
    }
}

impl Tracing {
    pub fn new(auto: Option<AutoTracer>) -> Self {
        Tracing {
            auto,
            ..Tracing::default()
        }
    }

    pub fn begin(&mut self, id: TraceId, next_task: u32) -> Result<(), RuntimeError> {
        if let Some(active) = &self.active {
            if !active.is_auto() {
                return Err(RuntimeError::NestedTrace {
                    active: active.id,
                    requested: id,
                });
            }
            // An explicit annotation takes precedence over a speculated
            // auto trace.
            self.demote_auto();
        }
        self.pending_auto = None;
        if let Some(auto) = &mut self.auto {
            auto.reset();
        }
        let st = self.states.entry(id).or_default();
        // Replay requires a template and contiguity: nothing may have been
        // launched since the previous instance ended.
        let replaying = st.template.is_some() && st.instances >= 2 && st.last_end == next_task;
        if !replaying && st.template.is_some() && st.last_end != next_task {
            // Intervening launches changed the engine state: the template
            // no longer describes reality. Recapture from scratch.
            st.template = None;
            st.instances = 0;
        }
        let (mode, shift) = if replaying {
            let t = st.template.as_ref().unwrap();
            (Mode::Replay, t.shift_to(next_task))
        } else if st.instances == 1 {
            (Mode::Capture, TaskShift::IDENTITY)
        } else {
            (Mode::Warmup, TaskShift::IDENTITY)
        };
        self.active = Some(ActiveTrace {
            id,
            base: next_task,
            cursor: 0,
            mode,
            recording: Vec::new(),
            shift,
            demoted: false,
        });
        Ok(())
    }

    /// Decide how to handle a launch. For replays, validates the signature
    /// and hands back the shared recorded result; for auto-captures,
    /// validates the prediction; outside traces, feeds the repeat detector.
    pub fn on_launch(
        &mut self,
        node: NodeId,
        reqs: &[RegionRequirement],
        next_task: u32,
    ) -> TraceAction {
        if self.active.is_none() {
            if let Some(p) = self.pending_auto.take() {
                if p.base == next_task {
                    self.active = Some(ActiveTrace {
                        id: p.id,
                        base: next_task,
                        cursor: 0,
                        mode: Mode::AutoCapture {
                            predicted: p.predicted,
                        },
                        recording: Vec::new(),
                        shift: TaskShift::IDENTITY,
                        demoted: false,
                    });
                } else if let Some(auto) = &mut self.auto {
                    // Something other than a launch (a fence) intervened:
                    // the prediction no longer lines up with the id stream.
                    auto.reset();
                }
            }
        }
        let Some(active) = self.active.as_mut() else {
            // Observation: feed the detector; a detected repeat schedules
            // capture to start with the *next* launch.
            if let Some(auto) = &mut self.auto {
                if let Some(predicted) = auto.observe(node, reqs) {
                    let id = TraceId(TraceId::AUTO_BIT | self.next_auto_id);
                    self.next_auto_id += 1;
                    self.auto_promotions += 1;
                    if viz_profile::enabled() {
                        viz_profile::instant(viz_profile::EventKind::TraceDetect {
                            trace: id.0,
                            len: predicted.len() as u64,
                        });
                    }
                    self.pending_auto = Some(PendingAuto {
                        id,
                        base: next_task + 1,
                        predicted,
                    });
                }
            }
            return TraceAction::Analyze { record: false };
        };
        match active.mode {
            Mode::Warmup => TraceAction::Analyze { record: false },
            Mode::Capture => TraceAction::Analyze { record: true },
            Mode::AutoCapture { ref predicted } => {
                let want = &predicted[active.cursor as usize];
                if want.node != node || want.reqs != reqs {
                    return TraceAction::Violation(TraceViolation {
                        id: active.id,
                        cursor: active.cursor,
                        kind: mismatch_kind(want.node, &want.reqs, node, reqs),
                    });
                }
                TraceAction::Analyze { record: true }
            }
            Mode::AutoVerify => {
                let t = self
                    .auto_template
                    .as_ref()
                    .expect("verifying without a template");
                let entry = &t.entries[active.cursor as usize];
                if entry.node != node || entry.reqs != reqs {
                    return TraceAction::Violation(TraceViolation {
                        id: active.id,
                        cursor: active.cursor,
                        kind: mismatch_kind(entry.node, &entry.reqs, node, reqs),
                    });
                }
                TraceAction::Analyze { record: true }
            }
            Mode::Replay | Mode::AutoReplay => {
                let is_auto = matches!(active.mode, Mode::AutoReplay);
                let template = if is_auto {
                    self.auto_template.as_ref()
                } else {
                    self.states[&active.id].template.as_ref()
                }
                .expect("replaying without a template");
                let len = template.len();
                if is_auto && active.cursor == len {
                    // Auto traces have no explicit end: completing an
                    // instance rolls straight into the next one, updating
                    // the rebase map the way `end`/`begin` would for an
                    // annotated trace. The engine last *analyzed* the
                    // verification instance (one past the template), so
                    // stale engine references live in that window.
                    push_rebase(
                        &mut self.rebases,
                        template.base + len,
                        template.base + 2 * len,
                        active.base - (template.base + len),
                    );
                    if viz_profile::enabled() {
                        viz_profile::instant(viz_profile::EventKind::TraceReplay {
                            trace: active.id.0,
                            launches: len as u64,
                        });
                    }
                    active.base = next_task;
                    active.cursor = 0;
                    active.shift = template.shift_to(next_task);
                }
                let Some(entry) = template.entries.get(active.cursor as usize) else {
                    return TraceAction::Violation(TraceViolation {
                        id: active.id,
                        cursor: active.cursor,
                        kind: ViolationKind::ExtraLaunch { recorded_len: len },
                    });
                };
                if entry.node != node || entry.reqs != reqs {
                    return TraceAction::Violation(TraceViolation {
                        id: active.id,
                        cursor: active.cursor,
                        kind: mismatch_kind(entry.node, &entry.reqs, node, reqs),
                    });
                }
                active.cursor += 1;
                self.replayed_launches += 1;
                TraceAction::Replay {
                    result: Arc::clone(&entry.result),
                    shift: active.shift,
                }
            }
        }
    }

    /// Record a captured entry (called when `on_launch` said `record`). The
    /// result is shared with the runtime's own storage — no clone.
    pub fn record(
        &mut self,
        node: NodeId,
        reqs: Vec<RegionRequirement>,
        result: Arc<AnalysisResult>,
        forest: &RegionForest,
    ) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        if matches!(active.mode, Mode::AutoVerify) {
            // The analysis ran; check it is the template's result shifted
            // onto this instance. Anything else means the signature repeat
            // was not an *analysis* repeat: failed speculation, demote.
            let t = self
                .auto_template
                .as_ref()
                .expect("verifying without a template");
            let expected = StoredResult::Shared {
                result: Arc::clone(&t.entries[active.cursor as usize].result),
                shift: active.shift,
            }
            .resolve();
            active.cursor += 1;
            if expected != *result {
                self.demote_auto();
                return;
            }
            if active.cursor == t.len() {
                // Shift-stationary across a full instance: replay from the
                // next launch. This instance was *analyzed*, so engine
                // references already point at it — no rebase yet; replays
                // will supersede this window as they complete.
                let len = t.len();
                active.base += len;
                active.cursor = 0;
                active.shift = t.shift_to(active.base);
                active.mode = Mode::AutoReplay;
            }
            return;
        }
        active.cursor += 1;
        active.recording.push(TemplateEntry { node, reqs, result });
        let capture_done = matches!(
            &active.mode,
            Mode::AutoCapture { predicted } if active.recording.len() == predicted.len()
        );
        if capture_done {
            // The whole predicted instance analyzed and recorded: one
            // verification instance follows before any replay.
            let template = Template {
                base: active.base,
                entries: std::mem::take(&mut active.recording),
            };
            if !instance_is_self_superseding(&template.entries, forest) {
                // Replay freezes the engine's state, so it is only sound
                // when each instance fully supersedes its predecessor.
                // This one leaves entries that would accumulate across
                // instances (unflushed reductions, live read epochs on
                // data the loop never overwrites) — give up on the
                // candidate and return to observation.
                self.demote_auto();
                return;
            }
            let active = self.active.as_mut().unwrap();
            let len = template.len();
            active.base += len;
            active.cursor = 0;
            active.shift = template.shift_to(active.base);
            active.mode = Mode::AutoVerify;
            self.auto_template = Some(template);
        }
    }

    /// Count a warm-up launch (first instance; nothing recorded).
    pub fn advance(&mut self) {
        if let Some(active) = &mut self.active {
            active.cursor += 1;
        }
    }

    /// Demote the active trace after a violation: annotated traces fall
    /// back to normal analysis for the rest of the instance and recapture
    /// from scratch; auto traces return to observation. A partially
    /// replayed prefix gets its own rebase mapping (sound because the
    /// replayed prefix is identical to the recorded one), while the
    /// unreplayed suffix keeps the previous instance's mapping.
    pub fn demote(&mut self, violation: TraceViolation) {
        self.violations.push(violation);
        let Some(active) = self.active.as_ref() else {
            return;
        };
        if active.is_auto() {
            self.demote_auto();
            return;
        }
        let active = self.active.as_mut().unwrap();
        if matches!(active.mode, Mode::Replay) && active.cursor > 0 {
            let t = self.states[&active.id]
                .template
                .as_ref()
                .expect("replaying without a template");
            push_rebase(
                &mut self.rebases,
                t.base,
                t.base + active.cursor,
                active.base - t.base,
            );
            self.hazards.push((
                t.base + active.cursor,
                t.base + t.len(),
                active.base,
                active.base + active.cursor,
            ));
        }
        let st = self.states.get_mut(&active.id).unwrap();
        st.template = None;
        st.instances = 0;
        active.mode = Mode::Warmup;
        active.demoted = true;
        active.recording.clear();
    }

    /// Drop the active auto trace (prefix-rebasing any partial replay) and
    /// restart observation.
    fn demote_auto(&mut self) {
        if let Some(active) = &self.active {
            debug_assert!(active.is_auto());
            if matches!(active.mode, Mode::AutoReplay) && active.cursor > 0 {
                if let Some(t) = self.auto_template.as_ref() {
                    // Stale engine references live in the verification
                    // instance's window (the last analyzed one); only the
                    // replayed prefix moves onto this instance.
                    let analyzed = t.base + t.len();
                    push_rebase(
                        &mut self.rebases,
                        analyzed,
                        analyzed + active.cursor,
                        active.base - analyzed,
                    );
                    self.hazards.push((
                        analyzed + active.cursor,
                        analyzed + t.len(),
                        active.base,
                        active.base + active.cursor,
                    ));
                }
            }
        }
        self.active = None;
        self.auto_template = None;
        self.auto_demotions += 1;
        if let Some(auto) = &mut self.auto {
            auto.reset();
        }
    }

    /// An execution fence: fences are not analyzed launches, so they break
    /// both in-flight instances and any detected periodicity.
    pub fn barrier(&mut self) {
        self.pending_auto = None;
        if let Some(active) = &self.active {
            let v = TraceViolation {
                id: active.id,
                cursor: active.cursor,
                kind: ViolationKind::Interrupted,
            };
            self.demote(v);
        } else if let Some(auto) = &mut self.auto {
            auto.reset();
        }
    }

    /// Close an annotated trace instance. A replay that ran short is a
    /// structured violation (the trace recaptures), not an abort; naming
    /// the wrong trace (or none being open) is a [`RuntimeError`] and
    /// leaves the tracing state untouched.
    pub fn end(
        &mut self,
        id: TraceId,
        next_task: u32,
        forest: &RegionForest,
    ) -> Result<Option<TraceViolation>, RuntimeError> {
        let Some(active) = self.active.take() else {
            return Err(RuntimeError::EndWithoutBegin { requested: id });
        };
        if active.id != id {
            let err = RuntimeError::MismatchedTraceEnd {
                active: active.id,
                requested: id,
            };
            self.active = Some(active);
            return Err(err);
        }
        let st = self.states.get_mut(&id).unwrap();
        st.last_end = next_task;
        match active.mode {
            Mode::Replay => {
                let template = st.template.as_ref().unwrap();
                let len = template.len();
                let (t_base, shift) = (template.base, active.base - template.base);
                if active.cursor < len {
                    let v = TraceViolation {
                        id,
                        cursor: active.cursor,
                        kind: ViolationKind::ShortInstance { recorded_len: len },
                    };
                    // Only the replayed prefix moves onto this instance;
                    // the suffix keeps its previous mapping.
                    push_rebase(&mut self.rebases, t_base, t_base + active.cursor, shift);
                    if active.cursor > 0 {
                        self.hazards.push((
                            t_base + active.cursor,
                            t_base + len,
                            active.base,
                            active.base + active.cursor,
                        ));
                    }
                    st.template = None;
                    st.instances = 0;
                    self.violations.push(v.clone());
                    return Ok(Some(v));
                }
                // Later engine-produced references into the *recorded*
                // instance must point at the corresponding task of this
                // (latest) one — superseding the previous instance's entry.
                push_rebase(&mut self.rebases, t_base, t_base + len, shift);
                st.instances += 1;
            }
            Mode::Capture => {
                if instance_is_self_superseding(&active.recording, forest) {
                    st.template = Some(Template {
                        base: active.base,
                        entries: active.recording,
                    });
                    st.instances += 1;
                } else {
                    // Replay freezes the engine's state, which is only
                    // sound when each instance fully supersedes its
                    // predecessor (same condition auto promotion checks).
                    // This instance leaves entries that accumulate across
                    // iterations — reads of data the loop never overwrites,
                    // unflushed reductions — and a later interfering task
                    // would need a dependence on *every* instance's copy,
                    // which the shift-rebase cannot synthesize. Decline the
                    // template: the annotation is a hint, and analysis
                    // keeps running (the next instance re-auditions).
                    st.template = None;
                }
            }
            Mode::Warmup => {
                if active.demoted {
                    st.instances = 0;
                } else {
                    st.instances += 1;
                }
            }
            Mode::AutoCapture { .. } | Mode::AutoVerify | Mode::AutoReplay => {
                unreachable!("auto traces never reach end_trace")
            }
        }
        Ok(None)
    }

    /// Rebase an engine result produced *after* replayed traces: stale
    /// references into a recorded instance move onto its last replay.
    /// Binary search over the sorted interval map.
    pub fn rebase_result(&self, result: &mut AnalysisResult) {
        if self.rebases.is_empty() && self.hazards.is_empty() {
            return;
        }
        // Hazard expansion first: it keys on the *raw* recorded ids, which
        // the rebase map is about to translate away.
        let mut extra: Vec<TaskId> = Vec::new();
        for d in &result.deps {
            for &(slo, shi, plo, phi) in &self.hazards {
                if d.0 >= slo && d.0 < shi {
                    extra.extend((plo..phi).map(TaskId));
                }
            }
        }
        let shift = |t: &mut TaskId| {
            let idx = self.rebases.partition_point(|r| r.1 <= t.0);
            if let Some(&(s, _, sh)) = self.rebases.get(idx) {
                if t.0 >= s {
                    t.0 += sh;
                }
            }
        };
        for d in &mut result.deps {
            shift(d);
        }
        for plan in &mut result.plans {
            for c in &mut plan.copies {
                if let Source::Task(t, _) = &mut c.source {
                    shift(t);
                }
            }
            for r in &mut plan.reductions {
                shift(&mut r.task);
            }
        }
        for e in extra {
            if !result.deps.contains(&e) {
                result.deps.push(e);
            }
        }
    }

    pub fn is_replaying(&self) -> bool {
        self.active
            .as_ref()
            .is_some_and(|a| matches!(a.mode, Mode::Replay | Mode::AutoReplay))
    }

    /// A detected repeat is waiting for its first launch to start capture.
    pub fn capture_pending(&self) -> bool {
        self.pending_auto.is_some()
    }

    /// The batched driver serializes these launches: trace bookkeeping is
    /// per-launch-in-order (replay itself is O(1) per launch, so a
    /// replaying "serial" segment is pure in-order retirement).
    pub fn pending_or_active(&self) -> bool {
        self.active.is_some() || self.pending_auto.is_some()
    }

    /// The lowest task id whose commit-ledger entry trace bookkeeping may
    /// still consult: the base of the in-flight instance (end-of-trace
    /// validation and shift computation look back to it) or of a pending
    /// auto capture. `None` when nothing is pinned. Templates themselves
    /// hold `Arc`s to their recorded results and pin nothing.
    pub fn pin_floor(&self) -> Option<u32> {
        let a = self.active.as_ref().map(|a| a.base);
        let p = self.pending_auto.as_ref().map(|p| p.base);
        match (a, p) {
            (Some(a), Some(p)) => Some(a.min(p)),
            (x, y) => x.or(y),
        }
    }

    pub fn violations(&self) -> &[TraceViolation] {
        &self.violations
    }

    /// Number of ranges in the rebase interval map (bounded by the number
    /// of templates with replays, not by the number of instances).
    pub fn rebase_ranges(&self) -> usize {
        self.rebases.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(v: &[(u32, u32, u32)]) -> Vec<(u32, u32, u32)> {
        let mut r = Vec::new();
        for &(s, e, sh) in v {
            push_rebase(&mut r, s, e, sh);
        }
        r
    }

    #[test]
    fn rebase_map_supersedes_same_window() {
        // 100 replayed instances of one template: the window's mapping is
        // replaced each time, never accumulated.
        let mut r = Vec::new();
        for k in 1..=100u32 {
            push_rebase(&mut r, 10, 20, 10 * k);
        }
        assert_eq!(r, vec![(10, 20, 1000)]);
    }

    #[test]
    fn rebase_map_trims_partial_overlap() {
        let r = ranges(&[(10, 20, 5), (15, 30, 7)]);
        assert_eq!(r, vec![(10, 15, 5), (15, 30, 7)]);
        // A prefix split: the replayed prefix supersedes, the suffix keeps
        // the old mapping.
        let r = ranges(&[(10, 20, 5), (10, 13, 9)]);
        assert_eq!(r, vec![(10, 13, 9), (13, 20, 5)]);
    }

    #[test]
    fn rebase_map_coalesces_equal_neighbors() {
        let r = ranges(&[(10, 20, 5), (20, 30, 5)]);
        assert_eq!(r, vec![(10, 30, 5)]);
    }

    #[test]
    fn rebase_map_zero_shift_clears() {
        let r = ranges(&[(10, 20, 5), (10, 20, 0)]);
        assert!(r.is_empty());
    }

    #[test]
    fn rebase_lookup_uses_latest_mapping() {
        let mut tracing = Tracing::default();
        push_rebase(&mut tracing.rebases, 10, 20, 5);
        push_rebase(&mut tracing.rebases, 30, 40, 100);
        let mut result = AnalysisResult {
            deps: vec![TaskId(9), TaskId(10), TaskId(19), TaskId(20), TaskId(35)],
            plans: vec![],
        };
        tracing.rebase_result(&mut result);
        assert_eq!(
            result.deps,
            vec![TaskId(9), TaskId(15), TaskId(24), TaskId(20), TaskId(135)]
        );
    }

    #[test]
    fn task_shift_moves_only_the_window() {
        let shift = TaskShift {
            lo: 10,
            hi: 30,
            delta: 40,
        };
        assert_eq!(shift.apply(TaskId(9)), TaskId(9));
        assert_eq!(shift.apply(TaskId(10)), TaskId(50));
        assert_eq!(shift.apply(TaskId(29)), TaskId(69));
        assert_eq!(shift.apply(TaskId(30)), TaskId(30));
    }
}
