//! # viz-geometry
//!
//! Index-space geometry for the visibility-based coherence runtime.
//!
//! Regions in the runtime (see `viz-region`) name *arbitrary subsets* of a
//! collection's index space. This crate provides the machinery those subsets
//! are made of:
//!
//! * [`Point`] — an integer point in a (up to) 2-D index space. One
//!   dimensional spaces are embedded at `y == 0`; two dimensions are
//!   sufficient for every benchmark in the paper (stencil is 2-D, circuit and
//!   Pennant use 1-D element id spaces).
//! * [`Rect`] — a dense, inclusive rectangle of points.
//! * [`IndexSpace`] — a sparse set of points represented as a normalized list
//!   of disjoint rectangles, with the full set algebra the visibility
//!   algorithms need: intersection, difference, union, covering tests.
//! * [`Bvh`] — a static bounding-volume hierarchy used to find overlapping
//!   partition children quickly.
//! * [`DynamicBvh`] — an incrementally maintained BVH (leaf insert/remove
//!   with ancestor refits, rebuild on degradation) for equivalence-set
//!   indexes that churn under refinement.
//! * [`FlatBvh`] — a flattened structure-of-arrays snapshot of a
//!   [`DynamicBvh`] (pre-order nodes with skip offsets, SoA bounds) with a
//!   stackless batched query API for resolving whole shards' candidate
//!   sets in one SIMD-friendly sweep.
//! * [`intern`] — hash-consed index spaces ([`SpaceId`]/[`SpaceInterner`])
//!   and the memoized set algebra ([`SpaceAlgebra`]) the engines route
//!   their hottest domain operations through.
//! * [`hash`] — a fast, non-cryptographic hasher (`FxHashMap`/`FxHashSet`)
//!   for the hot analysis paths.
//!
//! The set operations mirror the auxiliary functions of the paper (§5):
//! `X/Y` is [`IndexSpace::intersect`], `X\Y` is [`IndexSpace::subtract`], and
//! `X ⊕ Y` (union preferring `Y`'s values) is realized at the value layer in
//! `viz-runtime` on top of these domain operations.

#![forbid(unsafe_code)]

pub mod bvh;
pub mod dbvh;
pub mod flat_bvh;
pub mod hash;
pub mod index_space;
pub mod intern;
pub mod point;
pub mod rect;

pub use bvh::Bvh;
pub use dbvh::DynamicBvh;
pub use flat_bvh::FlatBvh;
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use index_space::IndexSpace;
pub use intern::{AlgebraStats, InternConfig, SpaceAlgebra, SpaceId, SpaceInterner};
pub use point::Point;
pub use rect::Rect;
