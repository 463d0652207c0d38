//! Typed errors for the fallible submission API.
//!
//! Historically every misuse of the frontend was a `panic!` deep inside the
//! runtime. The submission redesign (PR 4) surfaces them as values instead:
//! [`crate::Runtime::submit`], [`crate::Runtime::try_set_initial`],
//! [`crate::Runtime::try_begin_trace`] and friends return
//! `Result<_, RuntimeError>`. The panicking wrappers that bridged the old
//! API were removed once every caller migrated (PR 6).

use crate::trace::TraceId;
use viz_region::{FieldId, Privilege, RegionId};

/// Why a submission (or trace annotation) was rejected.
///
/// Marked `#[non_exhaustive]`: later PRs will add variants (e.g. for
/// distributed submission) without a breaking release.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A requirement names a region id the forest has never produced.
    UnknownRegion { region: RegionId },
    /// A requirement names a field that does not belong to the region's
    /// root (fields are declared per root tree).
    UnknownField { region: RegionId, field: FieldId },
    /// Two requirements of one task alias with interfering privileges —
    /// the §4 restriction (intra-task coherence is out of scope).
    InterferingRequirements {
        a: RegionId,
        b: RegionId,
        privilege_a: Privilege,
        privilege_b: Privilege,
    },
    /// `begin_trace` while an annotated trace is already open.
    NestedTrace { active: TraceId, requested: TraceId },
    /// `end_trace` with no trace open.
    EndWithoutBegin { requested: TraceId },
    /// `end_trace` naming a different trace than the open one.
    MismatchedTraceEnd { active: TraceId, requested: TraceId },
    /// Shared runtime state (the core or the region forest) was poisoned
    /// by a panic on another thread — typically an engine bug surfaced on
    /// the pipeline driver or a sharded-analysis worker. The submission is
    /// rejected instead of re-raising the foreign panic on this thread.
    Poisoned { what: &'static str },
    /// The pipeline dispatcher thread panicked. `lost` counts launches
    /// that were queued but will never be analyzed (taken mid-batch or
    /// still sitting in the submission queue). Dropping the runtime re-raises
    /// the dispatcher's original panic payload.
    DriverPanicked { lost: u64 },
    /// A blocking resolve was attempted from inside a runtime worker (the
    /// pipeline dispatcher or a value-executor callback). Waiting there
    /// can never succeed — the waiter is the thread that would have to
    /// make the progress — so the call fails instead of hanging.
    WouldDeadlock,
    /// `rings` producers — the facade and `rings - 1` tenant contexts —
    /// are already live on the submission plane; drop a context (or raise
    /// [`crate::RuntimeConfig::submit_rings`]) before creating more.
    RingsExhausted { rings: usize },
    /// A [`crate::TaskHandle`] this runtime never issued (one from another
    /// runtime): its `seq` is not below the `issued` sequence numbers the
    /// facade has handed out.
    UnknownHandle { seq: u32, issued: u32 },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::UnknownRegion { region } => {
                write!(f, "unknown region {region:?} (not created by this forest)")
            }
            RuntimeError::UnknownField { region, field } => {
                write!(
                    f,
                    "field {field:?} does not belong to the root of region {region:?}"
                )
            }
            RuntimeError::InterferingRequirements {
                a,
                b,
                privilege_a,
                privilege_b,
            } => {
                write!(
                    f,
                    "task region arguments {a:?} and {b:?} alias with interfering \
                     privileges {privilege_a:?}/{privilege_b:?} (intra-task coherence \
                     is out of scope, §4)"
                )
            }
            RuntimeError::NestedTrace { active, requested } => {
                write!(
                    f,
                    "nested or overlapping traces are not supported \
                     (trace {} is open, begin_trace({}) requested)",
                    active.0, requested.0
                )
            }
            RuntimeError::EndWithoutBegin { requested } => {
                write!(f, "end_trace without begin_trace (trace {})", requested.0)
            }
            RuntimeError::MismatchedTraceEnd { active, requested } => {
                write!(
                    f,
                    "mismatched begin/end trace ids (trace {} is open, \
                     end_trace({}) requested)",
                    active.0, requested.0
                )
            }
            RuntimeError::Poisoned { what } => {
                write!(
                    f,
                    "runtime {what} poisoned by a panic on another thread \
                     (engine or driver bug; see its panic message)"
                )
            }
            RuntimeError::DriverPanicked { lost } => {
                write!(
                    f,
                    "pipeline driver panicked with {lost} queued launch(es) \
                     unanalyzed (dropping the runtime re-raises the panic)"
                )
            }
            RuntimeError::WouldDeadlock => {
                write!(
                    f,
                    "blocking resolve from inside a runtime worker would \
                     self-deadlock (the worker is the thread being waited on)"
                )
            }
            RuntimeError::RingsExhausted { rings } => {
                write!(
                    f,
                    "all {rings} producer places on the submission plane are taken \
                     by live contexts (drop a context or raise \
                     RuntimeConfig::submit_rings)"
                )
            }
            RuntimeError::UnknownHandle { seq, issued } => {
                write!(
                    f,
                    "task handle {seq} was not issued by this runtime \
                     (it has issued {issued})"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
