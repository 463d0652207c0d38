//! # viz-runtime
//!
//! An implicitly-parallel task runtime in the style of Legion \[5\], built to
//! reproduce *"Visibility Algorithms for Dynamic Dependence Analysis and
//! Distributed Coherence"* (PPoPP '23).
//!
//! The runtime observes a dynamic stream of task launches, each naming
//! regions (arbitrary, possibly aliased subsets of collections — see
//! `viz-region`) with privileges, and must:
//!
//! 1. compute **dependences** — the partial order that preserves sequential
//!    semantics (§3.2), and
//! 2. solve **coherence** — a plan for assembling each task's input values
//!    from the most recent writes and pending reductions (§3.1).
//!
//! Both are solved by one of four *visibility engines* behind the
//! [`engine::CoherenceEngine`] trait:
//!
//! | Engine | Paper | Module |
//! |---|---|---|
//! | Painter's algorithm (naive, Fig 7) | §5 | [`analysis::paint_naive`] |
//! | Painter's + region-tree composite views | §5.1 | [`analysis::paint`] |
//! | Warnock's algorithm (equivalence sets) | §6 | [`analysis::eqsets`] |
//! | Ray casting (dominating writes) | §7 | [`analysis::eqsets`] |
//!
//! Execution is deferred, Legion-style: [`Runtime::submit`] performs the
//! dynamic analysis immediately; [`Runtime::execute_values`] later runs task bodies
//! in parallel (worker threads, honoring the dependence DAG), and
//! [`exec::TimedSchedule`] replays the same DAG on the simulated machine for
//! the paper's scaling experiments.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod autotrace;
pub mod config;
pub mod dag;
pub mod engine;
pub mod error;
pub mod exec;
pub mod index_launch;
pub mod instance;
mod ledger;
pub mod mapper;
pub mod pipeline;
pub mod plan;
mod runs;
pub mod runtime;
pub mod sharding;
pub mod stats;
pub mod task;
pub mod trace;
pub mod validate;

pub use config::{EnvOverrides, GcConfig, Knob, RuntimeConfig, KNOBS};
pub use dag::TaskDag;
pub use engine::{CoherenceEngine, EngineKind, GcSweep};
pub use error::RuntimeError;
pub use index_launch::{IndexLaunchResult, Projection};
pub use instance::PhysicalRegion;
pub use ledger::{LaunchRecord, RecordedHistory};
pub use mapper::Mapper;
pub use pipeline::PipelineMetrics;
pub use plan::{AnalysisResult, CopyRange, MaterializePlan, ReduceRange, Source, TaskShift};
pub use runtime::{
    Context, CoreRead, CtxHandle, LaunchBuilder, LaunchSpec, Runtime, TaskHandle, CTX_GLOBAL,
    CTX_PRIMARY,
};
pub use sharding::ShardMap;
pub use stats::{DagStats, GcStats, PipelineStats, RuntimeStats, TracingStats};
pub use task::{RegionRequirement, TaskBody, TaskId, TaskLaunch};
pub use trace::{TraceId, TraceViolation, ViolationKind};
