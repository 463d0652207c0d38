//! The circuit simulation benchmark (§8, \[22\]) — the application Fig 1's
//! skeleton is derived from.
//!
//! An irregular graph: voltage nodes partitioned into `pieces` (the
//! disjoint **private** partition `P`), and wires (circuit elements)
//! connecting random nodes, a fraction of them crossing into neighboring
//! pieces. Each piece's **ghost** subregion `G[i]` names exactly the
//! external nodes its wires touch — an aliased, incomplete, *sparse*
//! partition (two pieces sharing a neighbor both name it), which is the
//! case name-based systems cannot express (§2).
//!
//! Each iteration runs three phases per piece:
//!
//! 1. `calc_new_currents` — read voltages through `P[i]` *and* `G[i]`,
//!    write wire currents;
//! 2. `distribute_charge` — read currents, `reduce+` charge into `P[i]`
//!    and `G[i]` (parallel updates to shared voltage nodes);
//! 3. `update_voltage` — read-write voltage and charge of `P[i]`.
//!
//! All arithmetic is dyadic (×1/4, ×1/2, ×1/8), so value mode verifies
//! bit-exactly against the serial reference.

use crate::workload::{Workload, WorkloadRun};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use viz_geometry::{IndexSpace, Point};
use viz_runtime::{LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, TaskBody};

const CCN_NS_PER_WIRE: f64 = 150.0;
const DC_NS_PER_WIRE: f64 = 50.0;
const UV_NS_PER_NODE: f64 = 200.0;
const INIT_TASK_NS: u64 = 25_000_000;

#[derive(Clone, Debug)]
pub struct CircuitConfig {
    pub pieces: usize,
    pub nodes_per_piece: usize,
    pub wires_per_piece: usize,
    /// Fraction (percent) of wires crossing to a neighboring piece.
    pub pct_external: u32,
    pub iterations: usize,
    pub nodes: usize,
    pub with_bodies: bool,
    /// Wrap each iteration in a runtime trace (\[15\]).
    pub traced: bool,
    pub seed: u64,
}

impl CircuitConfig {
    pub fn small(pieces: usize, iterations: usize) -> Self {
        CircuitConfig {
            pieces,
            nodes_per_piece: 12,
            wires_per_piece: 20,
            pct_external: 20,
            iterations,
            nodes: 1,
            with_bodies: true,
            traced: false,
            seed: 0xC1BC117,
        }
    }

    /// The weak-scaling configuration of Figs 13/16: one piece per node,
    /// ≈ 4.4 ms of modeled GPU work per piece per iteration (≈ 4.5·10⁶
    /// wires/s/node single-node throughput).
    pub fn paper(nodes: usize) -> Self {
        CircuitConfig {
            pieces: nodes,
            nodes_per_piece: 2_000,
            wires_per_piece: 20_000,
            pct_external: 5,
            iterations: 10,
            nodes,
            with_bodies: false,
            traced: false,
            seed: 0xC1BC117,
        }
    }
}

/// The generated circuit topology: wire endpoints as global node ids.
pub struct Circuit {
    pub cfg: CircuitConfig,
    /// Read only by task bodies and [`Workload::reference`], so empty
    /// without bodies (`paper(512)`'s table would be 10 M pairs, 156 MiB).
    wires: Arc<Vec<(i64, i64)>>,
    /// External node ids referenced per piece (the ghost subregions).
    ghosts: Vec<Vec<i64>>,
}

impl Circuit {
    pub fn new(cfg: CircuitConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let npp = cfg.nodes_per_piece as i64;
        // Every wire is drawn either way — the ghosts depend on the draws.
        let kept = if cfg.with_bodies {
            cfg.wires_per_piece
        } else {
            0
        };
        let mut wires = Vec::with_capacity(cfg.pieces * kept);
        let mut ghosts: Vec<Vec<i64>> = vec![Vec::new(); cfg.pieces];
        for piece in 0..cfg.pieces as i64 {
            for _ in 0..cfg.wires_per_piece {
                let src = piece * npp + rng.random_range(0..npp);
                let external = cfg.pieces > 1 && rng.random_range(0..100u32) < cfg.pct_external;
                let dst = if external {
                    // A neighbor piece (clamped at the chain ends, keeping
                    // each piece's ghost set spatially local).
                    let dir: i64 = if rng.random_range(0..2u32) == 0 {
                        1
                    } else {
                        -1
                    };
                    let nb = (piece + dir).clamp(0, cfg.pieces as i64 - 1);
                    if nb == piece {
                        piece * npp + rng.random_range(0..npp)
                    } else {
                        let node = nb * npp + rng.random_range(0..npp);
                        ghosts[piece as usize].push(node);
                        node
                    }
                } else {
                    piece * npp + rng.random_range(0..npp)
                };
                if cfg.with_bodies {
                    wires.push((src, dst));
                }
            }
        }
        for g in &mut ghosts {
            g.sort_unstable();
            g.dedup();
        }
        Circuit {
            cfg,
            wires: Arc::new(wires),
            ghosts,
        }
    }

    pub fn total_nodes(&self) -> i64 {
        (self.cfg.pieces * self.cfg.nodes_per_piece) as i64
    }

    pub fn total_wires(&self) -> i64 {
        (self.cfg.pieces * self.cfg.wires_per_piece) as i64
    }

    fn initial_voltage(node: i64) -> f64 {
        (node % 32) as f64
    }
}

impl Workload for Circuit {
    fn name(&self) -> &'static str {
        "circuit"
    }

    fn unit(&self) -> &'static str {
        "wires"
    }

    fn execute(&self, rt: &mut Runtime) -> WorkloadRun {
        let cfg = &self.cfg;
        let nodes_root = rt.forest_mut().create_root_1d("nodes", self.total_nodes());
        let f_v = rt.forest_mut().add_field(nodes_root, "voltage");
        let f_c = rt.forest_mut().add_field(nodes_root, "charge");
        let wires_root = rt.forest_mut().create_root_1d("wires", self.total_wires());
        let f_i = rt.forest_mut().add_field(wires_root, "current");

        let p = rt
            .forest_mut()
            .create_equal_partition_1d(nodes_root, "P", cfg.pieces);
        let ghost_spaces: Vec<IndexSpace> = self
            .ghosts
            .iter()
            .map(|g| IndexSpace::from_points(g.iter().map(|n| Point::p1(*n))))
            .collect();
        let g = rt.forest_mut().create_partition_with_flags(
            nodes_root,
            "G",
            ghost_spaces,
            false,
            false,
        );
        let w = rt
            .forest_mut()
            .create_equal_partition_1d(wires_root, "W", cfg.pieces);

        let wpp = cfg.wires_per_piece;
        let ccn_ns = (wpp as f64 * CCN_NS_PER_WIRE) as u64;
        let dc_ns = (wpp as f64 * DC_NS_PER_WIRE) as u64;
        let uv_ns = (cfg.nodes_per_piece as f64 * UV_NS_PER_NODE) as u64;
        let mut run = WorkloadRun {
            elements_per_iter: self.total_wires() as u64,
            ..Default::default()
        };

        // Setup: initialize voltages/charges and currents per piece. Each
        // wave goes through the batched driver; with one analysis thread it
        // degenerates to serial launches.
        let mut wave: Vec<LaunchSpec> = Vec::new();
        for i in 0..cfg.pieces {
            let piece = rt.forest().subregion(p, i);
            let wpiece = rt.forest().subregion(w, i);
            let body: Option<TaskBody> = cfg.with_bodies.then(|| {
                Arc::new(move |rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|pt, _| Circuit::initial_voltage(pt.x));
                    rs[1].update_all(|_, _| 0.0);
                }) as TaskBody
            });
            wave.push(LaunchSpec::new(
                "init_nodes",
                i % cfg.nodes,
                vec![
                    RegionRequirement::read_write(piece, f_v),
                    RegionRequirement::read_write(piece, f_c),
                ],
                INIT_TASK_NS,
                body,
            ));
            let body: Option<TaskBody> = cfg.with_bodies.then(|| {
                Arc::new(move |rs: &mut [PhysicalRegion]| {
                    rs[0].update_all(|_, _| 0.0);
                }) as TaskBody
            });
            wave.push(LaunchSpec::new(
                "init_wires",
                i % cfg.nodes,
                vec![RegionRequirement::read_write(wpiece, f_i)],
                INIT_TASK_NS / 4,
                body,
            ));
        }
        rt.submit_batch(wave).expect("valid wave");

        let sum = viz_region::RedOpRegistry::SUM;
        for iter in 0..cfg.iterations {
            if cfg.traced {
                rt.try_begin_trace(0).expect("no trace is open");
            }
            // Phase 1: calc_new_currents.
            let mut wave: Vec<LaunchSpec> = Vec::new();
            for i in 0..cfg.pieces {
                let piece = rt.forest().subregion(p, i);
                let gpiece = rt.forest().subregion(g, i);
                let wpiece = rt.forest().subregion(w, i);
                let wires = Arc::clone(&self.wires);
                let range = (i * wpp) as i64..((i + 1) * wpp) as i64;
                let body: Option<TaskBody> = cfg.with_bodies.then(|| {
                    let range = range.clone();
                    Arc::new(move |rs: &mut [PhysicalRegion]| {
                        // rs[0] = current (rw), rs[1] = voltage P, rs[2] = voltage G.
                        let mut out = Vec::with_capacity(wires.len());
                        {
                            let volt = |n: i64| {
                                let pt = Point::p1(n);
                                if rs[1].contains(pt) {
                                    rs[1].get(pt)
                                } else {
                                    rs[2].get(pt)
                                }
                            };
                            for wid in range.clone() {
                                let (s, d) = wires[wid as usize];
                                out.push((Point::p1(wid), (volt(s) - volt(d)) * 0.25));
                            }
                        }
                        for (pt, v) in out {
                            rs[0].set(pt, v);
                        }
                    }) as TaskBody
                });
                wave.push(LaunchSpec::new(
                    format!("ccn[{iter}]"),
                    i % cfg.nodes,
                    vec![
                        RegionRequirement::read_write(wpiece, f_i),
                        RegionRequirement::read(piece, f_v),
                        RegionRequirement::read(gpiece, f_v),
                    ],
                    ccn_ns,
                    body,
                ));
            }
            rt.submit_batch(wave).expect("valid wave");
            // Phase 2: distribute_charge.
            let mut wave: Vec<LaunchSpec> = Vec::new();
            for i in 0..cfg.pieces {
                let piece = rt.forest().subregion(p, i);
                let gpiece = rt.forest().subregion(g, i);
                let wpiece = rt.forest().subregion(w, i);
                let wires = Arc::clone(&self.wires);
                let range = (i * wpp) as i64..((i + 1) * wpp) as i64;
                let body: Option<TaskBody> = cfg.with_bodies.then(|| {
                    let range = range.clone();
                    Arc::new(move |rs: &mut [PhysicalRegion]| {
                        // rs[0] = current (read), rs[1] = charge P (reduce+),
                        // rs[2] = charge G (reduce+).
                        for wid in range.clone() {
                            let (s, d) = wires[wid as usize];
                            let cur = rs[0].get(Point::p1(wid));
                            for (node, contrib) in [(s, -cur * 0.5), (d, cur * 0.5)] {
                                let pt = Point::p1(node);
                                if rs[1].contains(pt) {
                                    rs[1].reduce(pt, contrib);
                                } else {
                                    rs[2].reduce(pt, contrib);
                                }
                            }
                        }
                    }) as TaskBody
                });
                wave.push(LaunchSpec::new(
                    format!("dc[{iter}]"),
                    i % cfg.nodes,
                    vec![
                        RegionRequirement::read(wpiece, f_i),
                        RegionRequirement::reduce(piece, f_c, sum),
                        RegionRequirement::reduce(gpiece, f_c, sum),
                    ],
                    dc_ns,
                    body,
                ));
            }
            rt.submit_batch(wave).expect("valid wave");
            // Phase 3: update_voltage.
            let mut wave: Vec<LaunchSpec> = Vec::new();
            for i in 0..cfg.pieces {
                let piece = rt.forest().subregion(p, i);
                let body: Option<TaskBody> = cfg.with_bodies.then(|| {
                    Arc::new(move |rs: &mut [PhysicalRegion]| {
                        // rs[0] = voltage (rw), rs[1] = charge (rw).
                        let dom = rs[0].domain().clone();
                        for pt in dom.points() {
                            let v = rs[0].get(pt) + rs[1].get(pt) * 0.125;
                            rs[0].set(pt, v);
                            rs[1].set(pt, 0.0);
                        }
                    }) as TaskBody
                });
                wave.push(LaunchSpec::new(
                    format!("uv[{iter}]"),
                    i % cfg.nodes,
                    vec![
                        RegionRequirement::read_write(piece, f_v),
                        RegionRequirement::read_write(piece, f_c),
                    ],
                    uv_ns,
                    body,
                ));
            }
            let handles = rt.submit_batch(wave).expect("valid wave");
            if cfg.traced {
                rt.try_end_trace(0).expect("trace 0 is open");
            }
            run.iter_end.push(handles.last().unwrap().id());
        }

        if cfg.with_bodies {
            run.probes.push(rt.inline_read(nodes_root, f_v).unwrap());
            run.probes.push(rt.inline_read(nodes_root, f_c).unwrap());
            run.probes.push(rt.inline_read(wires_root, f_i).unwrap());
        }
        run
    }

    /// Without bodies there are no probes, and nothing to compare.
    fn reference(&self) -> Vec<Vec<f64>> {
        let cfg = &self.cfg;
        if !cfg.with_bodies {
            return Vec::new();
        }
        let n = self.total_nodes() as usize;
        let wtot = self.total_wires() as usize;
        let wpp = cfg.wires_per_piece;
        let mut voltage: Vec<f64> = (0..n as i64).map(Circuit::initial_voltage).collect();
        let mut charge = vec![0.0f64; n];
        let mut current = vec![0.0f64; wtot];
        for _ in 0..cfg.iterations {
            for (wid, cur) in current.iter_mut().enumerate() {
                let (s, d) = self.wires[wid];
                *cur = (voltage[s as usize] - voltage[d as usize]) * 0.25;
            }
            // Mirror the lazy-reduction semantics exactly: each dc task
            // accumulates its contributions locally, and the accumulators
            // fold into the charge in task (piece) order.
            for piece in 0..cfg.pieces {
                let mut acc: std::collections::BTreeMap<usize, f64> =
                    std::collections::BTreeMap::new();
                for (wid, cur) in current
                    .iter()
                    .enumerate()
                    .take((piece + 1) * wpp)
                    .skip(piece * wpp)
                {
                    let (s, d) = self.wires[wid];
                    *acc.entry(s as usize).or_insert(0.0) += -cur * 0.5;
                    *acc.entry(d as usize).or_insert(0.0) += cur * 0.5;
                }
                for (node, a) in acc {
                    charge[node] += a;
                }
            }
            for node in 0..n {
                voltage[node] += charge[node] * 0.125;
                charge[node] = 0.0;
            }
        }
        vec![voltage, charge, current]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_runtime::{EngineKind, Runtime, RuntimeConfig};

    fn run_and_verify(engine: EngineKind, cfg: CircuitConfig, nodes: usize, dcr: bool) {
        let app = Circuit::new(CircuitConfig { nodes, ..cfg });
        let mut rt = Runtime::new(RuntimeConfig::new(engine).nodes(nodes).dcr(dcr));
        let run = app.execute(&mut rt);
        let violations =
            viz_runtime::validate::check_sufficiency(rt.forest(), rt.launches(), rt.dag());
        assert!(violations.is_empty(), "{engine:?}: {violations:?}");
        let store = rt.execute_values();
        let expect = app.reference();
        for (k, (probe, exp)) in run.probes.iter().zip(&expect).enumerate() {
            let got: Vec<f64> = store.inline(*probe).iter().map(|(_, v)| v).collect();
            assert_eq!(&got, exp, "{engine:?} probe {k} diverged");
        }
    }

    #[test]
    fn all_engines_match_reference() {
        for engine in EngineKind::all() {
            run_and_verify(engine, CircuitConfig::small(4, 3), 1, false);
        }
    }

    #[test]
    fn multi_node_dcr_matches_reference() {
        for engine in [EngineKind::Paint, EngineKind::Warnock, EngineKind::RayCast] {
            run_and_verify(engine, CircuitConfig::small(4, 2), 4, true);
        }
    }

    #[test]
    fn single_piece_has_no_ghosts() {
        let app = Circuit::new(CircuitConfig::small(1, 2));
        assert!(app.ghosts[0].is_empty());
        run_and_verify(EngineKind::RayCast, CircuitConfig::small(1, 2), 1, false);
    }

    #[test]
    fn ghost_nodes_are_external() {
        let app = Circuit::new(CircuitConfig::small(6, 1));
        let npp = app.cfg.nodes_per_piece as i64;
        for (i, g) in app.ghosts.iter().enumerate() {
            for node in g {
                let owner = node / npp;
                assert_ne!(owner, i as i64, "ghost node inside its own piece");
            }
        }
    }

    #[test]
    fn iterations_serialize_through_ghost_exchanges() {
        let app = Circuit::new(CircuitConfig::small(3, 2));
        let mut rt = Runtime::single_node(EngineKind::RayCast);
        app.execute(&mut rt);
        // ccn of iteration 2 depends on uv of iteration 1 (ghost voltages):
        // at least 3 dependence levels per iteration plus setup.
        assert!(rt.dag().critical_path_len() > 3 * 2);
    }

    /// The ghost partition must equal the dependent-partitioning
    /// construction of Fig 2: ghosts = image(wires, endpoints) \ owned.
    #[test]
    fn ghosts_match_dependent_partitioning() {
        let app = Circuit::new(CircuitConfig::small(5, 1));
        let mut f = viz_region::RegionForest::new();
        let nodes = f.create_root_1d("nodes", app.total_nodes());
        let wires_root = f.create_root_1d("wires", app.total_wires());
        let p = f.create_equal_partition_1d(nodes, "P", app.cfg.pieces);
        let w = f.create_equal_partition_1d(wires_root, "W", app.cfg.pieces);
        let topo = Arc::clone(&app.wires);
        let touched = viz_region::deppart::image(&mut f, w, nodes, "touched", move |pt| {
            let (s, d) = topo[pt.x as usize];
            vec![Point::p1(s), Point::p1(d)]
        });
        let g = viz_region::deppart::difference(&mut f, touched, p, "G");
        for (i, ghost) in app.ghosts.iter().enumerate() {
            let expect = IndexSpace::from_points(ghost.iter().map(|n| Point::p1(*n)));
            let got = f.domain(f.subregion(g, i));
            assert!(
                got.same_points(&expect),
                "piece {i}: deppart {got:?} vs generator {expect:?}"
            );
        }
    }

    /// Dropping the wire table without bodies leaves the ghosts — the only
    /// topology the analysis sees — where the full draw puts them.
    #[test]
    fn ghosts_do_not_depend_on_bodies() {
        let bare = Circuit::new(CircuitConfig::paper(8));
        let full = Circuit::new(CircuitConfig {
            with_bodies: true,
            ..CircuitConfig::paper(8)
        });
        assert!(bare.wires.is_empty());
        assert_eq!(full.wires.len(), full.total_wires() as usize);
        assert!(bare.ghosts.iter().any(|g| !g.is_empty()));
        assert_eq!(bare.ghosts, full.ghosts);
    }

    #[test]
    fn deterministic_topology() {
        let a = Circuit::new(CircuitConfig::small(4, 1));
        let b = Circuit::new(CircuitConfig::small(4, 1));
        assert_eq!(a.wires, b.wires);
    }
}
