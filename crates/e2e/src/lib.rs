//! # viz-e2e
//!
//! One launch-path benchmark with per-layer attribution: the harness
//! behind the repository's `BENCHMARK.json`. It drives the three paper
//! apps through the whole runtime from `submit_batch` to commit, reports
//! what a user would see (launches per second, initialization time,
//! steady-state cost per launch, set-up time, memory), and splits the
//! cost across the layers by timing each one's public functions from
//! outside over the same captured launch stream. See `README.md`.

pub mod capture;
pub mod clock;
pub mod compare;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
