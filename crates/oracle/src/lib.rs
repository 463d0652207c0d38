//! # viz-oracle
//!
//! An external consistency oracle for the visibility engines, in the
//! spirit of black-box database checkers (dbcop): the runtime records
//! what it *claimed* — submitted requirements, emitted dependence edges,
//! retirement order — and an independent polynomial judge re-derives the
//! required precedence relation from sequential semantics and verifies
//! the claims, with no access to the engines' internal analysis state.
//!
//! Three layers:
//!
//! * [`history`] — the portable [`history::History`] model plus a
//!   hand-rolled `VZH1` binary codec (the workspace has no serde;
//!   DESIGN.md §8).
//! * [`checker`] + [`depa`] — the saturation judge: required edges
//!   (interfering pairs per (root, field), fences), forbidden edges
//!   (forward/self), retirement as a linear extension; happens-before
//!   queries answered by DePa-style order-maintenance tags over ancestor
//!   bitsets. Violations return a minimal witness. This path imports only
//!   `viz-geometry` — **never** the runtime or its analysis modules.
//! * [`gen`] + [`record`] — the adversarial side: a seedable generator
//!   biased toward aliased partitions, deep trees, reduction storms,
//!   trace near-repeats and mid-run repartitioning, and the driver that
//!   sweeps generated programs across all four engines × serial/sharded ×
//!   pipeline × auto-trace (the only modules that touch `viz-runtime`).

#![forbid(unsafe_code)]

pub mod checker;
pub mod depa;
pub mod gen;
pub mod history;
pub mod record;

pub use checker::{check, CheckReport, Violation};
pub use depa::Precedence;
pub use gen::{
    drive_matrix, generate, generate_over, run_program, DriveConfig, Forest, GenOp, GenProgram,
    GenRegion, GenReq, Mode, Run, ALL_MODES,
};
pub use history::{DecodeError, HLaunch, HPrivilege, HRequirement, History};
pub use record::{capture, resolve};
