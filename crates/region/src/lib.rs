//! # viz-region
//!
//! The logical-region data model of the Legion programming system (paper §2,
//! [5, 23, 25]), the substrate on which the visibility algorithms operate:
//!
//! * [`RegionForest`] — a forest of **region trees**. Each tree has a root
//!   region (a whole collection), and regions are recursively divided by
//!   **partitions** into subregions. Subregions are *subsets, not copies* of
//!   their parent's points. Each tree's [`RootGeometry`] interns its region
//!   domains and memoizes the set algebra the analyses run on them (§5.1's
//!   region tree as the shared acceleration structure).
//! * Partitions carry the two properties the analyses exploit:
//!   **disjointness** (no point in two children — e.g. the primary partition
//!   of Fig 2(a)) and **completeness** (every parent point in some child).
//!   Aliased partitions (the ghost partition of Fig 2(b)) are first-class.
//! * [`Privilege`] — `read`, `read-write`, or `reduce_f`; with the
//!   interference relation of §4 (only `read`/`read` and same-operator
//!   `reduce`/`reduce` are non-interfering).
//! * [`ReductionOp`] / [`RedOpRegistry`] — reduction operators with an
//!   identity, supporting the lazy partial accumulation that makes
//!   reductions "semi-transparent" in the visibility reduction (§3.1).

#![forbid(unsafe_code)]

pub mod deppart;
pub mod forest;
pub mod privilege;
pub mod redop;

pub use forest::{FieldId, PartitionId, RegionForest, RegionId, RootGeometry, SharedGeometry};
pub use privilege::Privilege;
pub use redop::{RedOpRegistry, ReductionOp, ReductionOpId};
