//! # viz-array
//!
//! Implicitly-distributed 1-D arrays in the style of Legate NumPy (the
//! paper's reference \[3\]): "high-productivity programming models based on
//! automatic discovery of parallelism from computations over
//! implicitly-distributed collection data types, such as arrays and
//! dataframes" (§1).
//!
//! A [`DistArray`] is a root region with one field, block-partitioned into
//! pieces mapped round-robin over the machine. Every operation launches one
//! task per piece; the runtime's visibility analysis discovers the
//! parallelism and the communication:
//!
//! * elementwise ops ([`DistArray::map`], [`DistArray::zip_with`]) are
//!   embarrassingly parallel — disjoint pieces, no dependences across
//!   arrays' pieces of the same index;
//! * [`DistArray::shift_add`] needs each piece's neighbor elements — the
//!   halo partition is *computed* with dependent partitioning
//!   (`image(pieces, i ↦ i±offset) \ pieces`), and the analysis routes the
//!   freshest neighbor values automatically;
//! * [`DistArray::sum`] / [`DistArray::min`] reduce through per-piece
//!   `reduce+`/`reduce min` partials folded by a gather task;
//! * [`DistArray::fill_slice`] names an arbitrary subrange — *aliased* with the
//!   block partition, the case that needs content-based coherence (§2).
//!
//! Execution stays deferred: build a whole computation, then call
//! `Runtime::execute_values` once and resolve [`Scalar`]s and
//! [`ArrayProbe`]s against the returned store.

#![forbid(unsafe_code)]

use std::sync::Arc;
use viz_geometry::{IndexSpace, Point};
use viz_region::{deppart, FieldId, PartitionId, RedOpRegistry, RegionId};
use viz_runtime::exec::ValueStore;
use viz_runtime::{LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, TaskBody, TaskId};

/// A deferred scalar result (from a reduction).
#[derive(Copy, Clone, Debug)]
pub struct Scalar {
    probe: TaskId,
}

impl Scalar {
    /// Resolve against the store returned by `Runtime::execute_values`.
    pub fn get(&self, store: &ValueStore) -> f64 {
        store.inline(self.probe).get(Point::p1(0))
    }
}

/// A deferred snapshot of a whole array.
#[derive(Copy, Clone, Debug)]
pub struct ArrayProbe {
    probe: TaskId,
    len: i64,
}

impl ArrayProbe {
    pub fn get(&self, store: &ValueStore) -> Vec<f64> {
        let r = store.inline(self.probe);
        (0..self.len).map(|i| r.get(Point::p1(i))).collect()
    }
}

/// An implicitly-distributed 1-D `f64` array.
#[derive(Clone, Debug)]
pub struct DistArray {
    root: RegionId,
    field: FieldId,
    part: PartitionId,
    pieces: usize,
    len: i64,
}

impl DistArray {
    /// A zero-filled array of `len` elements in `pieces` blocks.
    pub fn zeros(rt: &mut Runtime, len: i64, pieces: usize) -> Self {
        Self::from_fn(rt, len, pieces, |_| 0.0)
    }

    /// Build from an index function (evaluated in per-piece init tasks).
    pub fn from_fn(
        rt: &mut Runtime,
        len: i64,
        pieces: usize,
        f: impl Fn(i64) -> f64 + Send + Sync + Clone + 'static,
    ) -> Self {
        assert!(len > 0 && pieces > 0 && pieces as i64 <= len);
        let root = rt.forest_mut().create_root_1d("array", len);
        let field = rt.forest_mut().add_field(root, "data");
        let part = rt
            .forest_mut()
            .create_equal_partition_1d(root, "blocks", pieces);
        let arr = DistArray {
            root,
            field,
            part,
            pieces,
            len,
        };
        for i in 0..pieces {
            let piece = rt.forest().subregion(part, i);
            let f = f.clone();
            rt.submit(LaunchSpec::new(
                "array_init",
                arr.node_of(rt, i),
                vec![RegionRequirement::read_write(piece, field)],
                0,
                Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|p, _| f(p.x));
                }) as TaskBody),
            ))
            .unwrap()
            .id();
        }
        arr
    }

    pub fn len(&self) -> i64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn pieces(&self) -> usize {
        self.pieces
    }

    fn node_of(&self, rt: &Runtime, piece: usize) -> usize {
        // `num_nodes` is a cached constant — unlike `machine()`, it does
        // not drain the submission pipeline on every launch.
        piece % rt.num_nodes()
    }

    /// A new array with `f` applied elementwise.
    pub fn map(
        &self,
        rt: &mut Runtime,
        f: impl Fn(f64) -> f64 + Send + Sync + Clone + 'static,
    ) -> DistArray {
        let out = DistArray::zeros(rt, self.len, self.pieces);
        for i in 0..self.pieces {
            let src = rt.forest().subregion(self.part, i);
            let dst = rt.forest().subregion(out.part, i);
            let f = f.clone();
            rt.submit(LaunchSpec::new(
                "array_map",
                self.node_of(rt, i),
                vec![
                    RegionRequirement::read_write(dst, out.field),
                    RegionRequirement::read(src, self.field),
                ],
                0,
                Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                    let (w, r) = rs.split_at_mut(1);
                    w[0].update_all(|p, _| f(r[0].get(p)));
                }) as TaskBody),
            ))
            .unwrap()
            .id();
        }
        out
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(
        &self,
        rt: &mut Runtime,
        f: impl Fn(f64) -> f64 + Send + Sync + Clone + 'static,
    ) {
        for i in 0..self.pieces {
            let piece = rt.forest().subregion(self.part, i);
            let f = f.clone();
            rt.submit(LaunchSpec::new(
                "array_map_inplace",
                self.node_of(rt, i),
                vec![RegionRequirement::read_write(piece, self.field)],
                0,
                Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, v| f(v));
                }) as TaskBody),
            ))
            .unwrap()
            .id();
        }
    }

    /// A new array `f(self[i], other[i])`. Arrays must have equal length
    /// and piece counts.
    pub fn zip_with(
        &self,
        rt: &mut Runtime,
        other: &DistArray,
        f: impl Fn(f64, f64) -> f64 + Send + Sync + Clone + 'static,
    ) -> DistArray {
        assert_eq!(self.len, other.len, "length mismatch");
        assert_eq!(self.pieces, other.pieces, "piece-count mismatch");
        let out = DistArray::zeros(rt, self.len, self.pieces);
        for i in 0..self.pieces {
            let a = rt.forest().subregion(self.part, i);
            let b = rt.forest().subregion(other.part, i);
            let dst = rt.forest().subregion(out.part, i);
            let f = f.clone();
            rt.submit(LaunchSpec::new(
                "array_zip",
                self.node_of(rt, i),
                vec![
                    RegionRequirement::read_write(dst, out.field),
                    RegionRequirement::read(a, self.field),
                    RegionRequirement::read(b, other.field),
                ],
                0,
                Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                    let (w, r) = rs.split_at_mut(1);
                    w[0].update_all(|p, _| f(r[0].get(p), r[1].get(p)));
                }) as TaskBody),
            ))
            .unwrap()
            .id();
        }
        out
    }

    /// `self + other`, elementwise.
    pub fn add(&self, rt: &mut Runtime, other: &DistArray) -> DistArray {
        self.zip_with(rt, other, |a, b| a + b)
    }

    /// `self * other`, elementwise.
    pub fn mul(&self, rt: &mut Runtime, other: &DistArray) -> DistArray {
        self.zip_with(rt, other, |a, b| a * b)
    }

    /// `self += coeff * shifted(self, offset)`, where out-of-range
    /// neighbors contribute 0 — the halo-exchange pattern. Each piece's
    /// needed neighbor cells are computed with dependent partitioning.
    pub fn shift_add(&self, rt: &mut Runtime, offset: i64, coeff: f64) {
        assert!(offset != 0, "offset 0 would alias the write");
        let len = self.len;
        // Halo = image of each piece through i ↦ i+offset, minus the piece.
        let touched = deppart::image(
            &mut rt.forest_mut(),
            self.part,
            self.root,
            format!("shift{offset}"),
            move |p| {
                let q = p.x + offset;
                if q >= 0 && q < len {
                    vec![Point::p1(q)]
                } else {
                    vec![]
                }
            },
        );
        let halo = deppart::difference(&mut rt.forest_mut(), touched, self.part, "halo");
        for i in 0..self.pieces {
            let piece = rt.forest().subregion(self.part, i);
            let h = rt.forest().subregion(halo, i);
            rt.submit(LaunchSpec::new(
                "array_shift_add",
                self.node_of(rt, i),
                vec![
                    RegionRequirement::read_write(piece, self.field),
                    RegionRequirement::read(h, self.field),
                ],
                0,
                Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                    let (w, r) = rs.split_at_mut(1);
                    let dom = w[0].domain().clone();
                    let mut news = Vec::new();
                    for p in dom.points() {
                        let q = Point::p1(p.x + offset);
                        let n = if w[0].contains(q) {
                            // Same piece: read the *pre-update* value — we
                            // buffer updates and apply after the scan.
                            w[0].get(q)
                        } else if r[0].contains(q) {
                            r[0].get(q)
                        } else {
                            0.0
                        };
                        news.push((p, w[0].get(p) + coeff * n));
                    }
                    for (p, v) in news {
                        w[0].set(p, v);
                    }
                }) as TaskBody),
            ))
            .unwrap()
            .id();
        }
    }

    /// Deferred sum of all elements (per-piece `reduce+` partials, one
    /// gather task).
    pub fn sum(&self, rt: &mut Runtime) -> Scalar {
        self.reduce(rt, RedOpRegistry::SUM, 0.0, |acc, v| acc + v)
    }

    /// Deferred minimum.
    pub fn min(&self, rt: &mut Runtime) -> Scalar {
        self.reduce(rt, RedOpRegistry::MIN, f64::INFINITY, f64::min)
    }

    fn reduce(
        &self,
        rt: &mut Runtime,
        op: viz_region::ReductionOpId,
        identity: f64,
        fold: impl Fn(f64, f64) -> f64 + Send + Sync + Clone + 'static,
    ) -> Scalar {
        let partials_root = rt
            .forest_mut()
            .create_root_1d("partials", self.pieces as i64);
        let pf = rt.forest_mut().add_field(partials_root, "p");
        rt.try_set_initial(partials_root, pf, move |_| identity)
            .unwrap();
        let ppart = rt
            .forest_mut()
            .create_equal_partition_1d(partials_root, "pp", self.pieces);
        for i in 0..self.pieces {
            let piece = rt.forest().subregion(self.part, i);
            let slot_region = rt.forest().subregion(ppart, i);
            let slot = Point::p1(i as i64);
            let fold = fold.clone();
            rt.submit(LaunchSpec::new(
                "array_reduce_piece",
                self.node_of(rt, i),
                vec![
                    RegionRequirement::read(piece, self.field),
                    RegionRequirement::reduce(slot_region, pf, op),
                ],
                0,
                Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                    let mut acc = None;
                    for (_, v) in rs[0].iter() {
                        acc = Some(match acc {
                            None => v,
                            Some(a) => fold(a, v),
                        });
                    }
                    if let Some(a) = acc {
                        rs[1].reduce(slot, a);
                    }
                }) as TaskBody),
            ))
            .unwrap()
            .id();
        }
        // Gather: fold the partials into a fresh scalar region.
        let out_root = rt.forest_mut().create_root_1d("scalar", 1);
        let of = rt.forest_mut().add_field(out_root, "v");
        let pieces = self.pieces as i64;
        let fold2 = fold.clone();
        rt.submit(LaunchSpec::new(
            "array_reduce_gather",
            0,
            vec![
                RegionRequirement::read(partials_root, pf),
                RegionRequirement::read_write(out_root, of),
            ],
            0,
            Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                let mut acc = identity;
                for i in 0..pieces {
                    acc = fold2(acc, rs[0].get(Point::p1(i)));
                }
                rs[1].set(Point::p1(0), acc);
            }) as TaskBody),
        ))
        .unwrap()
        .id();
        let probe = rt.inline_read(out_root, of).unwrap();
        Scalar { probe }
    }

    /// Dot product (elementwise multiply then sum).
    pub fn dot(&self, rt: &mut Runtime, other: &DistArray) -> Scalar {
        let prod = self.mul(rt, other);
        prod.sum(rt)
    }

    /// Fill an arbitrary subrange `[lo, hi]` with a value — the slice
    /// *aliases* the block partition, requiring content-based coherence.
    pub fn fill_slice(&self, rt: &mut Runtime, lo: i64, hi: i64, value: f64) {
        assert!(lo <= hi && lo >= 0 && hi < self.len, "slice out of range");
        let slice = rt.forest_mut().create_partition_with_flags(
            self.root,
            format!("slice{lo}_{hi}"),
            vec![IndexSpace::span(lo, hi)],
            true,
            false,
        );
        let region = rt.forest().subregion(slice, 0);
        rt.submit(LaunchSpec::new(
            "array_fill_slice",
            0,
            vec![RegionRequirement::read_write(region, self.field)],
            0,
            Some(Arc::new(move |rs: &mut [PhysicalRegion]| {
                rs[0].update_all(|_, _| value);
            }) as TaskBody),
        ))
        .unwrap()
        .id();
    }

    /// Deferred snapshot of the whole array.
    pub fn probe(&self, rt: &mut Runtime) -> ArrayProbe {
        ArrayProbe {
            probe: rt.inline_read(self.root, self.field).unwrap(),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_runtime::validate::check_sufficiency;
    use viz_runtime::{EngineKind, RuntimeConfig};

    fn rt(engine: EngineKind, nodes: usize) -> Runtime {
        Runtime::new(RuntimeConfig::new(engine).nodes(nodes))
    }

    fn finish(rt: &Runtime) -> ValueStore {
        assert!(
            check_sufficiency(rt.forest(), rt.launches(), rt.dag()).is_empty(),
            "unsound DAG"
        );
        rt.execute_values()
    }

    #[test]
    fn axpy_matches_reference() {
        for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
            let mut rt = rt(engine, 2);
            let x = DistArray::from_fn(&mut rt, 40, 4, |i| i as f64);
            let y = DistArray::from_fn(&mut rt, 40, 4, |i| (i * 2) as f64);
            let ax = x.map(&mut rt, |v| v * 3.0);
            let z = ax.add(&mut rt, &y);
            let probe = z.probe(&mut rt);
            let store = finish(&rt);
            let got = probe.get(&store);
            let expect: Vec<f64> = (0..40).map(|i| 3.0 * i as f64 + 2.0 * i as f64).collect();
            assert_eq!(got, expect, "{engine:?}");
        }
    }

    #[test]
    fn dot_and_sums() {
        let mut rt = rt(EngineKind::RayCast, 3);
        let x = DistArray::from_fn(&mut rt, 30, 3, |i| (i % 5) as f64);
        let y = DistArray::from_fn(&mut rt, 30, 3, |i| ((i + 1) % 3) as f64);
        let d = x.dot(&mut rt, &y);
        let s = x.sum(&mut rt);
        let m = y.min(&mut rt);
        let store = finish(&rt);
        let expect_dot: f64 = (0..30)
            .map(|i| ((i % 5) as f64) * (((i + 1) % 3) as f64))
            .sum();
        let expect_sum: f64 = (0..30).map(|i| (i % 5) as f64).sum();
        assert_eq!(d.get(&store), expect_dot);
        assert_eq!(s.get(&store), expect_sum);
        assert_eq!(m.get(&store), 0.0);
    }

    #[test]
    fn shift_add_crosses_piece_boundaries() {
        for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
            let mut rt = rt(engine, 2);
            let x = DistArray::from_fn(&mut rt, 16, 4, |i| i as f64);
            x.shift_add(&mut rt, 1, 0.5); // x[i] += 0.5 * x[i+1]
            let probe = x.probe(&mut rt);
            let store = finish(&rt);
            let got = probe.get(&store);
            let expect: Vec<f64> = (0..16)
                .map(|i| {
                    let n = if i + 1 < 16 { (i + 1) as f64 } else { 0.0 };
                    i as f64 + 0.5 * n
                })
                .collect();
            assert_eq!(got, expect, "{engine:?}");
        }
    }

    #[test]
    fn slices_alias_the_block_partition() {
        let mut rt = rt(EngineKind::RayCast, 2);
        let x = DistArray::from_fn(&mut rt, 20, 4, |i| i as f64);
        // The slice spans pieces 1 and 2; subsequent ops must see it.
        x.fill_slice(&mut rt, 7, 12, -1.0);
        let s = x.sum(&mut rt);
        let probe = x.probe(&mut rt);
        let store = finish(&rt);
        let got = probe.get(&store);
        for i in 0..20i64 {
            let expect = if (7..=12).contains(&i) {
                -1.0
            } else {
                i as f64
            };
            assert_eq!(got[i as usize], expect);
        }
        let expect_sum: f64 = (0..20)
            .map(|i| {
                if (7..=12).contains(&i) {
                    -1.0
                } else {
                    i as f64
                }
            })
            .sum();
        assert_eq!(s.get(&store), expect_sum);
    }

    #[test]
    fn pipelines_stay_parallel_across_pieces() {
        let mut rt = rt(EngineKind::RayCast, 4);
        let x = DistArray::from_fn(&mut rt, 40, 4, |i| i as f64);
        let y = x.map(&mut rt, |v| v + 1.0);
        let _z = x.add(&mut rt, &y);
        // Waves: 4 inits, then zeros+maps etc. — but nothing within a wave
        // serializes: every wave has multiples of 4 tasks.
        let waves = rt.dag().waves();
        assert!(waves.iter().all(|w| w.len() % 4 == 0 || w.len() == 1));
    }

    #[test]
    fn chained_computation_deep_pipeline() {
        let mut rt = rt(EngineKind::Warnock, 2);
        let x = DistArray::from_fn(&mut rt, 24, 3, |i| (i % 7) as f64);
        for _ in 0..4 {
            x.map_inplace(&mut rt, |v| v * 2.0);
            x.shift_add(&mut rt, -1, 1.0);
        }
        let probe = x.probe(&mut rt);
        let store = finish(&rt);
        // Reference computation, honoring sequential task order: the
        // shift task of piece j runs after piece j-1's (so a cross-piece
        // neighbor read sees the *updated* neighbor), while same-piece
        // reads see the piece's pre-update values (task-local buffering).
        let mut r: Vec<f64> = (0..24).map(|i| (i % 7) as f64).collect();
        for _ in 0..4 {
            for v in r.iter_mut() {
                *v *= 2.0;
            }
            for piece in 0..3usize {
                let lo = piece * 8;
                let old_piece: Vec<f64> = r[lo..lo + 8].to_vec();
                for k in 0..8usize {
                    let i = lo + k;
                    let n = if i == 0 {
                        0.0
                    } else if i > lo {
                        old_piece[i - 1 - lo]
                    } else {
                        r[i - 1]
                    };
                    r[i] += n;
                }
            }
        }
        assert_eq!(probe.get(&store), r);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_length_mismatch_panics() {
        let mut rt = rt(EngineKind::RayCast, 1);
        let x = DistArray::zeros(&mut rt, 10, 2);
        let y = DistArray::zeros(&mut rt, 12, 2);
        x.add(&mut rt, &y);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn bad_slice_panics() {
        let mut rt = rt(EngineKind::RayCast, 1);
        let x = DistArray::zeros(&mut rt, 10, 2);
        x.fill_slice(&mut rt, 5, 10, 0.0);
    }
}
