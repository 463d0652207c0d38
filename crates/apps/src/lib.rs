//! # viz-apps
//!
//! The three benchmark applications of the paper's evaluation (§8), built
//! against the `viz-runtime` public API:
//!
//! * [`stencil`] — a 2-D 9-point star stencil on a structured grid,
//!   intermixed with data-parallel computations (the Parallel Research
//!   Kernels stencil \[26\]).
//! * [`circuit`] — an irregular graph-based circuit simulation with
//!   `reduce+` updates to shared voltage nodes \[22\]; the Fig 1 skeleton is
//!   derived from this benchmark.
//! * [`pennant`] — a simplified 2-D Lagrangian hydrodynamics
//!   mini-application on an unstructured-style mesh with several distinct
//!   reduction operators \[12\].
//!
//! Every application comes in two modes:
//!
//! * **value mode** (`with_bodies == true`) — tasks carry real bodies with
//!   exactly-representable (dyadic) arithmetic; results are verified
//!   bit-for-bit against a serial reference implementation;
//! * **timed mode** — bodies are omitted and tasks carry modeled GPU
//!   durations calibrated to the paper's single-node throughputs; this mode
//!   drives the machine-scale figures.

#![forbid(unsafe_code)]

pub mod circuit;
pub mod pennant;
pub mod stencil;
pub mod workload;

pub use circuit::{Circuit, CircuitConfig};
pub use pennant::{Pennant, PennantConfig};
pub use stencil::{Stencil, StencilConfig};
pub use workload::{Workload, WorkloadRun};
