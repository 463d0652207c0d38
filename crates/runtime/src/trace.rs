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
//! 2. analyzes the second instance normally too and, at its `end_trace`,
//!    reads the template off its committed rows — by then the analysis is
//!    in steady state, so every cross-instance reference lands in the
//!    immediately preceding instance;
//! 3. **replays** instances three onward: launches are validated against
//!    the template's signatures and their dependences/plans are synthesized
//!    by shifting the template's — the visibility engine is not consulted
//!    at all.
//!
//! Soundness rests on instances being *identical* (validated launch by
//! launch; a mismatch is a [`TraceViolation`] — the runtime demotes the
//! trace and recaptures, it never aborts) and *contiguous* (anything
//! launched between instances invalidates the template, which is then
//! recaptured). Because replays do not update the engine's state, the
//! runtime rebases any later engine result that references the last
//! analyzed instance onto the final replayed instance — valid precisely
//! because the instances are identical.
//!
//! Two properties keep replay O(1) per launch:
//!
//! * Template results are stored behind [`std::sync::Arc`] and **never
//!   deep-cloned on the replay path**: a replayed launch stores the `Arc`
//!   plus a [`TaskShift`] computed once per instance; consumers apply the
//!   shift lazily when they read task references out of the plan.
//! * The rebase map is a sorted, non-overlapping interval map: each
//!   completed replay instance *supersedes* the previous mapping of its
//!   analyzed window, so the map stays O(active templates) no matter how
//!   many instances replay (see `push_rebase`).
//!
//! Traces also form without annotations: with auto-tracing on (the
//! default), the detector ([`crate::autotrace`]) promotes a repeat on the
//! launch that completes its second identical block. That launch is
//! analyzed and committed like any other; then `Tracing::promote` builds
//! the template from the block's committed rows and opens a fresh auto
//! [`TraceId`] in `Mode::Verify`. One verified instance precedes replay,
//! which rolls into the next instance every `len` launches (there is no
//! `end_trace`); any divergence drops the template. Capture is retroactive
//! for both kinds: `Template::from_rows` reads a committed instance's rows
//! (`pin_floor` keeps them from GC until then). Both kinds share that one
//! constructor, one template type and one path that cuts a diverging replay.

use crate::autotrace::AutoTracer;
use crate::dag::TaskDag;
use crate::error::RuntimeError;
use crate::ledger::Ledger;
use crate::plan::{AnalysisResult, TaskShift};
use crate::task::{RegionRequirement, TaskId};
use std::sync::Arc;
use viz_geometry::{FxHashMap, SpaceId};
use viz_region::{FieldId, Privilege, RegionForest, RegionId, RootGeometry};
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

/// One launch's signature: everything trace validation compares. Each
/// template entry carries its launch's, read off the committed row.
pub(crate) struct Sig {
    pub node: NodeId,
    pub reqs: Vec<RegionRequirement>,
}

impl Sig {
    /// How a launch differs from this signature (`None` when it matches).
    /// A requirement-count mismatch reports the first index past the
    /// shorter list.
    fn mismatch(&self, node: NodeId, reqs: &[RegionRequirement]) -> Option<ViolationKind> {
        if self.node != node {
            return Some(ViolationKind::NodeMismatch {
                recorded: self.node,
                got: node,
            });
        }
        if self.reqs == reqs {
            return None;
        }
        let index = (self.reqs.iter().zip(reqs))
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| self.reqs.len().min(reqs.len()));
        Some(ViolationKind::RequirementMismatch {
            index: index as u32,
        })
    }
}

/// One launch of a trace template. The analysis result is shared (`Arc`)
/// with every replayed instance — replay never clones it.
pub(crate) struct TemplateEntry {
    pub sig: Sig,
    pub result: Arc<AnalysisResult>,
}

/// A captured trace: the launches of one steady-state instance, with their
/// analysis results, based at `base`.
pub(crate) struct Template {
    pub base: u32,
    /// First task of the instance the engine last *analyzed*, where its
    /// stale references point: `base` for annotated traces, `base + len`
    /// for auto traces (which replay only after analyzing one verification
    /// instance, the one after the block they were built from). Replays
    /// rebase this window.
    pub analyzed: u32,
    pub entries: Vec<TemplateEntry>,
}

impl Template {
    /// The template of the `len` committed launches from `base`: each
    /// entry is its launch's signature and committed result (already
    /// rebased, its DAG row as the dependences). `None` when GC has retired
    /// a row, or when replaying the instance would be unsound.
    pub fn from_rows(
        base: u32,
        len: u32,
        analyzed: u32,
        ledger: &Ledger,
        dag: &TaskDag,
        forest: &RegionForest,
    ) -> Option<Template> {
        if base < ledger.base() {
            return None;
        }
        let launches = (base..base + len).map(|t| ledger.launch(TaskId(t)));
        if !instance_is_self_superseding(launches.clone().flat_map(|l| &l.reqs), forest) {
            return None;
        }
        let entries = launches
            .map(|l| TemplateEntry {
                sig: Sig {
                    node: l.node,
                    reqs: l.reqs.clone(),
                },
                result: Arc::new(ledger.resolve(l.id, dag.preds(l.id))),
            })
            .collect();
        Some(Template {
            base,
            analyzed,
            entries,
        })
    }

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

/// An annotated trace between instances.
#[derive(Default)]
pub(crate) struct TraceState {
    /// Completed instances so far.
    pub instances: u32,
    /// The template, while no instance is open (an open instance holds it
    /// in its `Mode::Replay`).
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

/// What the in-progress instance is doing. The modes that read a template
/// hold it.
pub(crate) enum Mode {
    /// An annotated instance with no template to replay: analyze normally.
    /// The second undemoted one is the capture: `end` reads its committed
    /// rows into the template. A `demoted` instance finishes this way and
    /// does not count toward warm-up/capture.
    Warmup { demoted: bool },
    /// Auto traces only: one more analyzed instance, each launch checked
    /// against the template's signature and each result against the
    /// template's result shifted onto it — repeating signatures do not
    /// imply a repeating analysis, and no user promise vouches for it.
    Verify(Template),
    /// Replaying the template. Auto traces wrap to a new instance every
    /// `len` launches (they have no explicit `end_trace`).
    Replay(Template),
}

pub(crate) struct ActiveTrace {
    pub id: TraceId,
    /// First task id of the current instance.
    pub base: u32,
    pub cursor: u32,
    pub mode: Mode,
    /// The shift applied to replayed results of this instance (computed
    /// once per instance, not per launch).
    pub shift: TaskShift,
}

impl ActiveTrace {
    fn new(id: TraceId, base: u32, mode: Mode, shift: TaskShift) -> Self {
        ActiveTrace {
            id,
            base,
            cursor: 0,
            mode,
            shift,
        }
    }

    /// An auto trace promoted by the previous launch, whose first verify
    /// launch has not arrived: interrupting it drops it silently.
    fn unstarted(&self) -> bool {
        self.cursor == 0 && matches!(self.mode, Mode::Verify(_))
    }

    fn violation(&self, kind: ViolationKind) -> TraceViolation {
        TraceViolation {
            id: self.id,
            cursor: self.cursor,
            kind,
        }
    }
}

/// What the runtime should do with the next launch.
pub(crate) enum TraceAction {
    /// Not in a trace (or warming up / capturing / verifying): run the
    /// engine, and hand the result to [`Tracing::verify`].
    Analyze,
    /// The launch completes a detected repeat of period `len`: run the
    /// engine and commit as for `Analyze`, then hand `len` to
    /// [`Tracing::promote`].
    Promote { len: u32 },
    /// Replay: the recorded result (shared, not cloned) plus the shift
    /// mapping it onto this instance.
    Replay {
        result: Arc<AnalysisResult>,
        shift: TaskShift,
    },
}

/// The runtime's tracing bookkeeping.
#[derive(Default)]
pub(crate) struct Tracing {
    /// Annotated traces' state between instances. An auto trace has no
    /// entry: it lives in `active` from promotion to demotion.
    states: FxHashMap<TraceId, TraceState>,
    active: Option<ActiveTrace>,
    /// Online repeat detector (None when auto-tracing is disabled).
    auto: Option<AutoTracer>,
    next_auto_id: u32,
    /// Sorted, non-overlapping ranges: later engine references to a task in
    /// `start..end` move by `shift` (the distance from the analyzed
    /// instance to its last replayed one).
    rebases: Vec<(u32, u32, u32)>,
    /// Replays cut short leave a soundness hazard the rebase map cannot
    /// express: the engine's frozen state references the *unreplayed
    /// suffix* of the analyzed window, whose entries superseded the
    /// replayed prefix's reads and writes. A later raw reference into
    /// `suffix_lo..suffix_hi` (analyzed ids, checked before rebasing)
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
/// Replay freezes the engine's retained state at the last analyzed
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
///
/// The check runs on the forest's interned domains: per `(root, field)`
/// one `union_all` of the distinct written spaces, then one memoized
/// `contains` per distinct other space, all through the root's algebra.
fn instance_is_self_superseding<'a>(
    reqs: impl IntoIterator<Item = &'a RegionRequirement>,
    forest: &RegionForest,
) -> bool {
    // Per `(root, field)`: the spaces written, and the spaces otherwise
    // accessed.
    type Accesses = (Vec<SpaceId>, Vec<SpaceId>);
    let mut keys: FxHashMap<(RegionId, FieldId), Accesses> = FxHashMap::default();
    for r in reqs {
        let (writes, others) = keys.entry((forest.root_of(r.region), r.field)).or_default();
        match r.privilege {
            Privilege::ReadWrite => writes.push(forest.space(r.region)),
            _ => others.push(forest.space(r.region)),
        }
    }
    for ((root, _), (mut writes, mut others)) in keys {
        if others.is_empty() {
            continue;
        }
        if writes.is_empty() {
            return false;
        }
        for spaces in [&mut writes, &mut others] {
            spaces.sort_unstable();
            spaces.dedup();
        }
        let mut geometry = RootGeometry::lock(forest.geometry(root));
        let alg = &mut geometry.alg;
        let covered = alg.union_all(&writes);
        if !others.iter().all(|&s| alg.contains(covered, s)) {
            return false;
        }
    }
    true
}

/// Insert `[start, end) -> +shift` into the sorted interval map,
/// superseding any overlapping older mapping (trimming partial overlaps)
/// and coalescing adjacent ranges with equal shifts. A zero shift clears
/// the range. Keeps the map O(active templates): each completed replay
/// instance *replaces* the previous mapping of its window instead of
/// accumulating alongside it. Works in place: a rolled instance allocates
/// only when the map outgrows its capacity.
fn push_rebase(rebases: &mut Vec<(u32, u32, u32)>, start: u32, end: u32, shift: u32) {
    if start >= end {
        return;
    }
    // Keep what lies outside `[start, end)` of every older range: a range
    // straddling the whole window splits, its right part appended.
    for i in 0..rebases.len() {
        let (s, e, sh) = rebases[i];
        if s < start && e > end {
            rebases[i].1 = start;
            rebases.push((end, e, sh));
        } else if s < start {
            rebases[i].1 = e.min(start);
        } else {
            rebases[i].0 = s.max(end).min(e);
        }
    }
    rebases.retain(|r| r.0 < r.1);
    if shift > 0 {
        rebases.push((start, end, shift));
    }
    rebases.sort_unstable_by_key(|r| r.0);
    rebases.dedup_by(|r, last| {
        let adjacent = last.1 == r.0 && last.2 == r.2;
        if adjacent {
            last.1 = r.1;
        }
        adjacent
    });
}

impl Tracing {
    pub fn new(auto: Option<AutoTracer>) -> Self {
        Tracing {
            auto,
            ..Tracing::default()
        }
    }

    fn reset_detector(&mut self) {
        if let Some(auto) = &mut self.auto {
            auto.reset();
        }
    }

    pub fn begin(&mut self, id: TraceId, next_task: u32) -> Result<(), RuntimeError> {
        if let Some(active) = &self.active {
            if !active.id.is_auto() {
                return Err(RuntimeError::NestedTrace {
                    active: active.id,
                    requested: id,
                });
            }
            // An explicit annotation takes precedence over a speculated
            // auto trace.
            if active.unstarted() {
                self.active = None;
            } else {
                self.demote_auto();
            }
        }
        self.reset_detector();
        let st = self.states.entry(id).or_default();
        // Replay requires a template and contiguity: launches since the
        // previous instance ended changed the engine state, so the
        // template no longer describes reality. Recapture from scratch.
        if st.last_end != next_task && st.template.is_some() {
            st.template = None;
            st.instances = 0;
        }
        // A template exists only after warm-up and capture completed.
        let (mode, shift) = match st.template.take() {
            Some(t) => {
                let shift = t.shift_to(next_task);
                (Mode::Replay(t), shift)
            }
            None => (Mode::Warmup { demoted: false }, TaskShift::IDENTITY),
        };
        self.active = Some(ActiveTrace::new(id, next_task, mode, shift));
        Ok(())
    }

    /// Decide how to handle a launch. Outside traces, feeds the repeat
    /// detector; inside, validates the launch against the template and,
    /// when replaying, hands back the shared recorded result. A launch that
    /// diverges demotes the trace and is analyzed normally — never an
    /// abort.
    pub fn on_launch(
        &mut self,
        node: NodeId,
        reqs: &[RegionRequirement],
        next_task: u32,
    ) -> TraceAction {
        let Some(active) = self.active.as_mut() else {
            // Observation: feed the detector. The launch that completes a
            // repeat is analyzed like any other, and promotes once it has
            // committed.
            if let Some(len) = self.auto.as_mut().and_then(|a| a.observe(node, reqs)) {
                // The promotion ends the observed stream, and nothing is
                // observed while a trace is open: free the window (a
                // fresh detector allocates nothing until it observes).
                self.auto = Some(AutoTracer::new());
                return TraceAction::Promote { len };
            }
            return TraceAction::Analyze;
        };
        // Every id-consuming non-launch (a fence) drops auto traces first,
        // so an auto trace's instance is never out of step with the ids.
        debug_assert!(!active.id.is_auto() || active.base + active.cursor == next_task);
        let (want, replayed) = match &active.mode {
            Mode::Warmup { .. } => {
                active.cursor += 1;
                return TraceAction::Analyze;
            }
            // Verify ends (and moves to `Replay`) in `verify` after
            // `t.len()` launches.
            Mode::Verify(t) => (&t.entries[active.cursor as usize].sig, None),
            Mode::Replay(t) => {
                let len = t.len();
                if active.id.is_auto() && active.cursor == len {
                    // Auto traces have no `end`: a completed instance
                    // rebases as `end` would and rolls into the next one.
                    push_rebase(
                        &mut self.rebases,
                        t.analyzed,
                        t.analyzed + len,
                        active.base - t.analyzed,
                    );
                    active.base = next_task;
                    active.cursor = 0;
                    active.shift = t.shift_to(next_task);
                }
                let Some(entry) = t.entries.get(active.cursor as usize) else {
                    let v = active.violation(ViolationKind::ExtraLaunch { recorded_len: len });
                    self.demote(v);
                    return self.on_launch(node, reqs, next_task);
                };
                (&entry.sig, Some(&entry.result))
            }
        };
        if let Some(kind) = want.mismatch(node, reqs) {
            let v = active.violation(kind);
            self.demote(v);
            return self.on_launch(node, reqs, next_task);
        }
        let Some(result) = replayed else {
            return TraceAction::Analyze;
        };
        let result = Arc::clone(result);
        active.cursor += 1;
        self.replayed_launches += 1;
        TraceAction::Replay {
            result,
            shift: active.shift,
        }
    }

    /// Promote the repeat of period `len` the launch just committed
    /// completed (`on_launch` said `Promote`). The detected block is the
    /// last `len` committed launches, analyzed as they were observed, so
    /// the template is read off their rows ([`Template::from_rows`]). The
    /// trace opens in `Verify` on the next launch.
    pub fn promote(&mut self, len: u32, ledger: &Ledger, dag: &TaskDag, forest: &RegionForest) {
        let id = TraceId(TraceId::AUTO_BIT | self.next_auto_id);
        self.next_auto_id += 1;
        self.auto_promotions += 1;
        let next = ledger.next_id();
        // `pin_floor` keeps every row a promotion can read; should GC have
        // retired the block anyway, or should replay be unsound, the
        // candidate is given up.
        let template = (next.checked_sub(len))
            .and_then(|base| Template::from_rows(base, len, next, ledger, dag, forest));
        let Some(template) = template else {
            return self.demote_auto();
        };
        let shift = template.shift_to(next);
        self.active = Some(ActiveTrace::new(id, next, Mode::Verify(template), shift));
    }

    /// Check an analyzed launch's result while an auto trace verifies (a
    /// no-op otherwise): it must be the template's result shifted onto this
    /// instance. Anything else means the signature repeat was not an
    /// *analysis* repeat: failed speculation, demote.
    pub fn verify(&mut self, result: &AnalysisResult) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        let Mode::Verify(t) = &active.mode else {
            return;
        };
        let cursor = active.cursor as usize;
        active.cursor += 1;
        if !t.entries[cursor].result.eq_shifted(active.shift, result) {
            return self.demote_auto();
        }
        if active.cursor < t.len() {
            return;
        }
        // Shift-stationary across a full instance: replay from the next
        // launch. This instance was *analyzed*, so engine references
        // already point at it — no rebase yet; replays will supersede this
        // window as they complete.
        active.base += t.len();
        active.cursor = 0;
        active.shift = t.shift_to(active.base);
        let mode = std::mem::replace(&mut active.mode, Mode::Warmup { demoted: false });
        if let Mode::Verify(t) = mode {
            active.mode = Mode::Replay(t);
        }
    }

    /// Forget `active`'s trace state and template. A replay cut short after
    /// `cursor` launches rebases only the replayed prefix onto this
    /// instance; the unreplayed suffix keeps its previous mapping, and a
    /// later reference into it must also order after the prefix.
    fn drop_template(&mut self, active: &ActiveTrace) {
        self.states.remove(&active.id);
        let Mode::Replay(t) = &active.mode else {
            return;
        };
        let (from, cut, base) = (t.analyzed, active.cursor, active.base);
        if cut > 0 {
            push_rebase(&mut self.rebases, from, from + cut, base - from);
            let suffix_then_prefix = (from + cut, from + t.len(), base, base + cut);
            self.hazards.push(suffix_then_prefix);
        }
    }

    /// Demote the active trace after a violation: annotated traces fall
    /// back to normal analysis for the rest of the instance and recapture
    /// from scratch; auto traces return to observation.
    fn demote(&mut self, violation: TraceViolation) {
        self.violations.push(violation);
        if self.active.as_ref().is_some_and(|a| a.id.is_auto()) {
            return self.demote_auto();
        }
        let Some(mut active) = self.active.take() else {
            return;
        };
        self.drop_template(&active);
        active.mode = Mode::Warmup { demoted: true };
        self.active = Some(active);
    }

    /// Drop the active auto trace (if any) and its template, count a
    /// demotion, and restart observation.
    fn demote_auto(&mut self) {
        if let Some(active) = self.active.take() {
            debug_assert!(active.id.is_auto());
            self.drop_template(&active);
        }
        self.auto_demotions += 1;
        self.reset_detector();
    }

    /// An execution fence: fences are not analyzed launches, so they break
    /// both in-flight instances and any detected periodicity.
    pub fn barrier(&mut self) {
        match &self.active {
            Some(active) if !active.unstarted() => {
                let v = active.violation(ViolationKind::Interrupted);
                self.demote(v);
            }
            _ => {
                self.active = None;
                self.reset_detector();
            }
        }
    }

    /// Close an annotated trace instance. A replay that ran short is a
    /// structured violation (the trace recaptures), not an abort; naming
    /// the wrong trace (or none being open — auto traces have no end) is a
    /// [`RuntimeError`] and leaves the tracing state untouched. The capture
    /// instance's template is read off its rows in `ledger` and `dag`.
    pub fn end(
        &mut self,
        id: TraceId,
        ledger: &Ledger,
        dag: &TaskDag,
        forest: &RegionForest,
    ) -> Result<Option<TraceViolation>, RuntimeError> {
        let active = match self.active.take() {
            Some(a) if a.id == id && !id.is_auto() => a,
            other => {
                let err = match &other {
                    Some(a) if !a.unstarted() => RuntimeError::MismatchedTraceEnd {
                        active: a.id,
                        requested: id,
                    },
                    _ => RuntimeError::EndWithoutBegin { requested: id },
                };
                self.active = other;
                return Err(err);
            }
        };
        if let Mode::Replay(t) = &active.mode {
            if active.cursor < t.len() {
                let kind = ViolationKind::ShortInstance {
                    recorded_len: t.len(),
                };
                let v = active.violation(kind);
                self.drop_template(&active);
                self.violations.push(v.clone());
                return Ok(Some(v));
            }
        }
        let st = self.states.entry(id).or_default();
        st.last_end = ledger.next_id();
        match active.mode {
            Mode::Replay(t) => {
                // Later engine-produced references into the analyzed
                // instance must point at the corresponding task of this
                // (latest) one — superseding the previous instance's entry.
                let from = t.analyzed;
                push_rebase(&mut self.rebases, from, from + t.len(), active.base - from);
                st.instances += 1;
                st.template = Some(t);
            }
            Mode::Warmup { demoted: false } if st.instances == 1 => {
                // The capture: the instance just committed is the
                // template. An instance that would make replay unsound
                // declines it: the annotation is a hint, and analysis keeps
                // running (the next instance re-auditions).
                let (base, len) = (active.base, ledger.next_id() - active.base);
                debug_assert_eq!(active.cursor, len, "an instance is contiguous");
                let template = Template::from_rows(base, len, base, ledger, dag, forest);
                if template.is_some() {
                    st.template = template;
                    st.instances += 1;
                }
            }
            Mode::Warmup { demoted: true } => st.instances = 0,
            Mode::Warmup { demoted: false } => st.instances += 1,
            // Only auto traces verify, and they were refused above.
            Mode::Verify(_) => {}
        }
        Ok(None)
    }

    /// Rebase an engine result produced *after* replayed traces: stale
    /// references into an analyzed instance move onto its last replay.
    /// Binary search over the sorted interval map.
    pub fn rebase_result(&self, result: &mut AnalysisResult) {
        if self.rebases.is_empty() && self.hazards.is_empty() {
            return;
        }
        // Hazard expansion first: it keys on the *raw* analyzed ids, which
        // the rebase map is about to translate away.
        let mut extra: Vec<TaskId> = Vec::new();
        for d in &result.deps {
            for &(slo, shi, plo, phi) in &self.hazards {
                if d.0 >= slo && d.0 < shi {
                    extra.extend((plo..phi).map(TaskId));
                }
            }
        }
        result.map_tasks(|t| {
            let idx = self.rebases.partition_point(|r| r.1 <= t.0);
            match self.rebases.get(idx) {
                Some(&(s, _, sh)) if t.0 >= s => TaskId(t.0 + sh),
                _ => t,
            }
        });
        for e in extra {
            if !result.deps.contains(&e) {
                result.deps.push(e);
            }
        }
    }

    pub fn is_replaying(&self) -> bool {
        self.active
            .as_ref()
            .is_some_and(|a| matches!(a.mode, Mode::Replay(_)))
    }

    /// A trace instance is open (or an auto trace awaits its first
    /// launch): the batched driver serializes these launches, since trace
    /// bookkeeping is per-launch-in-order.
    pub fn is_active(&self) -> bool {
        self.active.is_some()
    }

    /// The lowest task id whose commit-ledger entry trace bookkeeping may
    /// still consult, `next` being the next task id: the base of the
    /// in-flight instance (end-of-trace validation and shift computation
    /// look back to it, and an annotated capture reads its rows at `end`),
    /// or while the detector observes, the oldest row a promotion could
    /// build its template from. `None` when nothing is pinned. Built
    /// templates hold `Arc`s to their results and pin nothing.
    pub fn pin_floor(&self, next: u32) -> Option<u32> {
        match (&self.active, &self.auto) {
            (Some(a), _) => Some(a.base),
            (None, Some(auto)) => Some(next.saturating_sub(auto.lookback())),
            (None, None) => None,
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
    use viz_geometry::IndexSpace;
    use viz_region::{PartitionId, RedOpRegistry};

    /// The coverage check as it was before it ran on interned geometry:
    /// per `(root, field)` a chain of `IndexSpace::union`s over the written
    /// domains, then `contains` for every other access.
    fn chained_union_verdict(launches: &[Vec<RegionRequirement>], forest: &RegionForest) -> bool {
        let mut writes: FxHashMap<(RegionId, FieldId), IndexSpace> = FxHashMap::default();
        for r in launches.iter().flatten() {
            if matches!(r.privilege, Privilege::ReadWrite) {
                let dom = forest.domain(r.region);
                writes
                    .entry((forest.root_of(r.region), r.field))
                    .and_modify(|w| *w = w.union(dom))
                    .or_insert_with(|| dom.clone());
            }
        }
        launches.iter().flatten().all(|r| {
            matches!(r.privilege, Privilege::ReadWrite)
                || writes
                    .get(&(forest.root_of(r.region), r.field))
                    .is_some_and(|w| w.contains(forest.domain(r.region)))
        })
    }

    /// Both verdicts on `launches` and on every prefix of it; returns the
    /// verdict on the whole.
    fn same_verdicts(launches: &[Vec<RegionRequirement>], forest: &RegionForest) -> bool {
        for n in 1..=launches.len() {
            let prefix = &launches[..n];
            assert_eq!(
                instance_is_self_superseding(prefix.iter().flatten(), forest),
                chained_union_verdict(prefix, forest),
                "the verdicts differ on the first {n} launches"
            );
        }
        instance_is_self_superseding(launches.iter().flatten(), forest)
    }

    #[test]
    fn interned_coverage_check_gives_the_chained_union_verdict() {
        let mut forest = RegionForest::new();
        let root = forest.create_root_1d("A", 64);
        let (f_in, f_out) = (forest.add_field(root, "in"), forest.add_field(root, "out"));
        let p = forest.create_equal_partition_1d(root, "P", 8);
        let halos: Vec<IndexSpace> = (0..8)
            .map(|i| IndexSpace::span((i * 8 - 2).max(0), (i * 8 + 9).min(63)))
            .collect();
        let h = forest.create_partition(root, "H", halos);
        let piece = |k| forest.subregion(p, k);
        let halo = |k| forest.subregion(h, k);
        let sum = Privilege::Reduce(RedOpRegistry::SUM);

        // A stencil-shaped instance: each piece writes `out` reading its
        // tile and halo of `in`, then rewrites its tile of `in`. Its prefixes
        // read halos before every tile is written: uncovered until the end.
        let mut stencil = Vec::new();
        for k in 0..8 {
            stencil.push(vec![
                RegionRequirement::read_write(piece(k), f_out),
                RegionRequirement::read(piece(k), f_in),
                RegionRequirement::read(halo(k), f_in),
            ]);
        }
        for k in 0..8 {
            stencil.push(vec![RegionRequirement::read_write(piece(k), f_in)]);
        }
        assert!(same_verdicts(&stencil, &forest));

        // Reductions into the halos, which the pieces' writes cover.
        let mut reduce = stencil.clone();
        reduce.push(vec![RegionRequirement::new(halo(3), f_out, sum)]);
        assert!(same_verdicts(&reduce, &forest));

        // Not covering: seven of eight pieces written, the whole read.
        let mut short: Vec<_> = (0..7)
            .map(|k| vec![RegionRequirement::read_write(piece(k), f_in)])
            .collect();
        short.push(vec![RegionRequirement::read(root, f_in)]);
        assert!(!same_verdicts(&short, &forest));

        // Not covering: a field only ever read (a constant), and one only
        // reduced into (pending reductions accumulate).
        let constant = vec![
            vec![RegionRequirement::read_write(root, f_out)],
            vec![RegionRequirement::read(piece(0), f_in)],
        ];
        assert!(!same_verdicts(&constant, &forest));
        let reduced = vec![vec![RegionRequirement::new(piece(2), f_in, sum)]];
        assert!(!same_verdicts(&reduced, &forest));

        // An empty region read on a field nothing writes: not covered.
        let e = forest.create_partition(root, "E", vec![IndexSpace::empty()]);
        let empty = forest.subregion(e, 0);
        let unwritten = vec![vec![RegionRequirement::read(empty, f_in)]];
        assert!(!same_verdicts(&unwritten, &forest));

        // A second root is checked on its own.
        let other = forest.create_root_1d("B", 16);
        let g = forest.add_field(other, "v");
        let mut two_roots = stencil.clone();
        two_roots.push(vec![RegionRequirement::read(other, g)]);
        assert!(!same_verdicts(&two_roots, &forest));
        two_roots.insert(0, vec![RegionRequirement::read_write(other, g)]);
        assert!(same_verdicts(&two_roots, &forest));
    }

    /// A runtime over one 1-D root with `pieces` equal pieces and a halo
    /// around each: the runtime, the root's two fields and the two
    /// partitions.
    fn halo_runtime(auto: bool, pieces: usize) -> (crate::Runtime, [FieldId; 2], [PartitionId; 2]) {
        let cfg = crate::RuntimeConfig::new(crate::EngineKind::RayCast).nodes(2);
        let mut rt = crate::Runtime::new(cfg.auto_trace(auto));
        let n = 8 * pieces as i64;
        let mut forest = rt.forest_mut();
        let root = forest.create_root_1d("A", n);
        let fields = [forest.add_field(root, "in"), forest.add_field(root, "out")];
        let p = forest.create_equal_partition_1d(root, "P", pieces);
        let halos = (0..pieces as i64)
            .map(|i| IndexSpace::span((i * 8 - 2).max(0), (i * 8 + 9).min(n - 1)))
            .collect();
        let h = forest.create_partition(root, "H", halos);
        drop(forest);
        (rt, fields, [p, h])
    }

    /// For a pure period-`L` stream, the launch completing the second block
    /// promotes, that block is the template, the third is verified, and
    /// the first replayed launch is at position `3·L`.
    #[test]
    fn first_replay_is_at_three_periods() {
        for len in [2usize, 5, 8] {
            let (mut rt, [f, _], [p, _]) = halo_runtime(true, len);
            let mut first_replay = None;
            for i in 0..5 * len {
                let piece = rt.forest().subregion(p, i % len);
                rt.task("w").write(piece, f).submit().unwrap();
                if first_replay.is_none() && rt.replayed_launches() == 1 {
                    first_replay = Some(i);
                }
            }
            assert_eq!(first_replay, Some(3 * len), "period {len}");
            assert_eq!(rt.replayed_launches(), 2 * len as u64, "period {len}");
            assert_eq!(
                (rt.auto_traces_detected(), rt.auto_traces_demoted()),
                (1, 0)
            );
        }
    }

    /// The template read off the promoting block's committed rows is, entry
    /// for entry, what the untraced runtime analyzes for that block:
    /// dependences, copies and reductions.
    #[test]
    fn retroactive_template_is_the_untraced_analysis_of_its_block() {
        const PIECES: usize = 4;
        let iteration =
            |rt: &mut crate::Runtime, [f_in, f_out]: [FieldId; 2], [p, h]: [PartitionId; 2]| {
                for k in 0..PIECES {
                    let (piece, halo) = (rt.forest().subregion(p, k), rt.forest().subregion(h, k));
                    rt.task("stencil")
                        .write(piece, f_out)
                        .read(halo, f_in)
                        .submit()
                        .unwrap();
                }
                for k in 0..PIECES {
                    let (piece, halo) = (rt.forest().subregion(p, k), rt.forest().subregion(h, k));
                    rt.task("sum")
                        .reduce(halo, f_in, RedOpRegistry::SUM)
                        .read(piece, f_out)
                        .submit()
                        .unwrap();
                    rt.task("copy")
                        .write(piece, f_in)
                        .read(piece, f_out)
                        .submit()
                        .unwrap();
                }
            };
        let (mut auto, fields, parts) = halo_runtime(true, PIECES);
        let (mut plain, _, _) = halo_runtime(false, PIECES);
        for _ in 0..2 {
            iteration(&mut auto, fields, parts);
            iteration(&mut plain, fields, parts);
        }
        assert_eq!(auto.auto_traces_detected(), 1, "the second block promotes");
        let untraced = plain.results();
        let tracing = auto.tracing();
        let Some(Mode::Verify(t)) = tracing.active.as_ref().map(|a| &a.mode) else {
            panic!("the promoted trace verifies next");
        };
        let len = 3 * PIECES as u32;
        assert_eq!((t.base, t.analyzed, t.len()), (len, 2 * len, len));
        for (k, entry) in t.entries.iter().enumerate() {
            let task = (t.base as usize) + k;
            assert_eq!(*entry.result, untraced[task], "task {task}");
            assert!(
                !entry.result.deps.is_empty(),
                "task {task} depends on the first block"
            );
        }
        assert!(t
            .entries
            .iter()
            .any(|e| e.result.plans.iter().any(|p| !p.copies.is_empty())));
    }

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
        // A window inside an older range splits it.
        let r = ranges(&[(10, 20, 5), (13, 15, 9)]);
        assert_eq!(r, vec![(10, 13, 5), (13, 15, 9), (15, 20, 5)]);
    }

    /// Random pushes against a per-id reference: the map stays sorted,
    /// disjoint, coalesced and free of zero shifts, and maps each id by
    /// its latest push.
    #[test]
    fn rebase_map_matches_pointwise_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut map = Vec::new();
        let mut reference = [0u32; 48];
        for _ in 0..2000 {
            let start = rng.random_range(0..40u32);
            let end = start + rng.random_range(0..9u32);
            let shift = rng.random_range(0..4u32);
            push_rebase(&mut map, start, end, shift);
            reference[start as usize..end as usize].fill(shift);
            let mut pointwise = [0u32; 48];
            for w in map.windows(2) {
                assert!(w[0].1 < w[1].0 || (w[0].1 == w[1].0 && w[0].2 != w[1].2));
            }
            for &(s, e, sh) in &map {
                assert!(s < e && sh > 0, "{map:?}");
                pointwise[s as usize..e as usize].fill(sh);
            }
            assert_eq!(pointwise, reference, "{map:?}");
        }
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
