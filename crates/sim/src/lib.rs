//! # viz-sim
//!
//! A distributed-machine simulator standing in for the Piz Daint
//! supercomputer used in the paper's evaluation (§8, \[1\]) and for the Realm
//! low-level runtime \[24\] beneath Legion.
//!
//! The design goal is honesty about *what* is simulated: the coherence
//! engines in `viz-runtime` run their real data structures and perform every
//! intersection test, history scan, equivalence-set refinement and message
//! for real — this crate only converts those operations into simulated time
//! using a LogP-style cost model:
//!
//! * [`Machine`] — per-node logical clocks for the runtime's analysis
//!   processors and GPUs, point-to-point messages with latency + bandwidth,
//!   and log-depth collectives.
//! * [`CostModel`] — calibrated per-operation costs (defaults produce
//!   magnitudes comparable to the paper's single-node measurements).
//! * [`Counters`] — exact operation counts, independent of the time model;
//!   the benchmark harness reports both.
//! * [`event`] — a minimal Realm-like deferred-execution event layer used by
//!   the executor to propagate completion times through task/copy graphs.

#![forbid(unsafe_code)]

pub mod charge;
pub mod cost;
pub mod event;
pub mod machine;

pub use charge::ChargeLog;
pub use cost::{CostModel, Counters, Op};
pub use event::{Event, EventPool};
pub use machine::{Machine, NodeId, SimTime};
