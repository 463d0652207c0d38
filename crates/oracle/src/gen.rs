//! The adversarial program generator and the driver that runs generated
//! programs against the engines under every execution strategy.
//!
//! Programs are generated seed-deterministically as plain data
//! ([`GenProgram`]), so one program can be driven through all four engines
//! × serial/sharded analysis × synchronous/pipelined submission ×
//! auto-trace on/off × interning on/off × concurrent producers, and the
//! resulting histories, analysis results and values compared and judged
//! independently. Hand-written programs use the same data
//! ([`GenProgram::fixed`]), so a regression case is a named program, not a
//! second generator.
//! Generation is biased by [`Mode`] toward the runtime's historical soft
//! spots: aliased (non-disjoint) partitions, deep region trees, reduction
//! storms with mixed operators, near-repeating launch sequences with a
//! single mutated instance (speculation stress for the auto-tracer), and
//! mid-run repartitioning.
//!
//! The driver submits with validation on and *skips* launches the §4
//! intra-task aliasing rule rejects. Rejection depends only on the spec
//! and the forest — both identical across configurations — so every
//! configuration sees the same effective program.

use crate::history::History;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::Arc;
use viz_geometry::{IndexSpace, InternConfig, Rect};
use viz_region::{FieldId, Privilege, RedOpRegistry, RegionForest, RegionId};
use viz_runtime::plan::AnalysisResult;
use viz_runtime::validate::{check_sufficiency, Violation};
use viz_runtime::{
    EngineKind, LaunchSpec, PhysicalRegion, RegionRequirement, Runtime, RuntimeConfig, TaskBody,
};

/// What the generator stresses. `Mixed` draws from all of them.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Partitions whose pieces overlap each other (aliased trees).
    AliasedPartitions,
    /// Partitions of partitions, several levels deep.
    DeepTrees,
    /// Many reductions with mixed operators, punctuated by readers.
    ReductionStorms,
    /// A block of launches repeated many times with one mutated instance
    /// (near-repeat): auto-trace promotion, replay, and demotion stress.
    TraceRepeats,
    /// New partitions appear mid-stream and later launches use them.
    Repartition,
    Mixed,
    /// Not generated: a hand-written program ([`GenProgram::fixed`]).
    Fixed,
}

pub const ALL_MODES: [Mode; 6] = [
    Mode::AliasedPartitions,
    Mode::DeepTrees,
    Mode::ReductionStorms,
    Mode::TraceRepeats,
    Mode::Repartition,
    Mode::Mixed,
];

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::AliasedPartitions => "aliased",
            Mode::DeepTrees => "deep-trees",
            Mode::ReductionStorms => "reduction-storms",
            Mode::TraceRepeats => "trace-repeats",
            Mode::Repartition => "repartition",
            Mode::Mixed => "mixed",
            Mode::Fixed => "fixed",
        }
    }
}

/// A region reference inside a generated program, resolved by the driver
/// once the corresponding forest objects exist.
#[derive(Copy, Clone, Debug)]
pub enum GenRegion {
    Root(usize),
    /// Piece `k` of generated partition `p`.
    Piece(usize, usize),
}

/// One generated partition: `parent` must already exist when the
/// program's `Partition(idx)` op runs. Each piece is a list of half-open
/// 1-d spans inside the parent's domain (one span for generated pieces,
/// several for a halo or a sparse piece); pieces may overlap (aliased).
#[derive(Clone, Debug)]
pub struct GenPartition {
    pub parent: GenRegion,
    pub pieces: Vec<Vec<(i64, i64)>>,
}

/// One requirement of a generated launch.
#[derive(Copy, Clone, Debug)]
pub struct GenReq {
    pub region: GenRegion,
    pub field: usize,
    pub privilege: Privilege,
}

impl GenReq {
    pub fn new(region: GenRegion, field: usize, privilege: Privilege) -> Self {
        GenReq {
            region,
            field,
            privilege,
        }
    }
}

/// The linear op stream the driver replays.
#[derive(Clone, Debug)]
pub enum GenOp {
    /// Create generated partition `idx` (mid-run repartitioning when this
    /// appears after launches).
    Partition(usize),
    /// `salt` seeds the launch's value body ([`body`]); it does not
    /// reach the analysis.
    Launch {
        node: usize,
        reqs: Vec<GenReq>,
        salt: u32,
    },
    Fence,
    BeginTrace(u32),
    EndTrace(u32),
}

/// A complete generated program.
#[derive(Clone, Debug)]
pub struct GenProgram {
    pub seed: u64,
    pub mode: Mode,
    pub nodes: usize,
    /// Root sizes (1-d element counts); every root gets `fields` fields.
    pub roots: Vec<i64>,
    pub fields: usize,
    pub partitions: Vec<GenPartition>,
    pub ops: Vec<GenOp>,
}

/// Pick spans for a partition of `[0, n)`: `pieces` spans, aliased
/// (overlapping) with probability ~1/2 when `alias` is set.
fn gen_pieces(rng: &mut StdRng, n: i64, pieces: usize, alias: bool) -> Vec<(i64, i64)> {
    let mut out = Vec::with_capacity(pieces);
    let w = (n / pieces as i64).max(1);
    for k in 0..pieces as i64 {
        let (mut lo, mut hi) = (k * w, ((k + 1) * w).min(n));
        if alias && rng.random_bool() {
            // Stretch into the neighbors: aliasing the tree.
            lo = (lo - rng.random_range(0..w.max(2))).max(0);
            hi = (hi + rng.random_range(0..w.max(2))).min(n);
        }
        if lo < hi {
            out.push((lo, hi));
        }
    }
    if out.is_empty() {
        out.push((0, n));
    }
    out
}

/// Generate one program. Deterministic in `(seed, mode, launches)`.
pub fn generate(seed: u64, mode: Mode, launches: usize, nodes: usize) -> GenProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let fields = 1 + rng.random_range(0..2usize);
    let nroots = match mode {
        Mode::DeepTrees => 1,
        _ => 1 + rng.random_range(0..2usize),
    };
    let roots = (0..nroots)
        .map(|_| 32 + rng.random_range(0..97i64))
        .collect();
    let prog = GenProgram::fixed(nodes, roots, fields);
    grow(rng, GenProgram { seed, mode, ..prog }, launches)
}

/// Generate one program over `forest`'s roots and partitions (e.g.
/// [`GenProgram::aliased`]): the mode's partitions and launches are drawn
/// as [`generate`] draws them, with `forest`'s pieces in the pool too.
/// New partitions only refine the roots and the single-span pieces.
pub fn generate_over(forest: &GenProgram, seed: u64, mode: Mode, launches: usize) -> GenProgram {
    let prog = GenProgram {
        seed,
        mode,
        ..forest.clone()
    };
    grow(StdRng::seed_from_u64(seed), prog, launches)
}

fn grow(mut rng: StdRng, mut prog: GenProgram, launches: usize) -> GenProgram {
    let (mode, nodes) = (prog.mode, prog.nodes);
    // Region pool the launches draw from: roots plus partition pieces,
    // with the span each one can be refined over (empty for a piece of
    // several spans).
    let mut pool: Vec<GenRegion> = (0..prog.roots.len()).map(GenRegion::Root).collect();
    let mut spans: Vec<(usize, i64, i64)> = prog
        .roots
        .iter()
        .enumerate()
        .map(|(r, n)| (r, 0, *n))
        .collect();
    for (p, part) in prog.partitions.iter().enumerate() {
        for (k, piece) in part.pieces.iter().enumerate() {
            pool.push(GenRegion::Piece(p, k));
            let (lo, hi) = if piece.len() == 1 { piece[0] } else { (0, 0) };
            spans.push((prog.root_of(GenRegion::Piece(p, k)), lo, hi));
        }
    }

    let add_partition = |prog: &mut GenProgram,
                         rng: &mut StdRng,
                         pool: &mut Vec<GenRegion>,
                         spans: &mut Vec<(usize, i64, i64)>,
                         parent_idx: usize,
                         alias: bool| {
        let (root, lo, hi) = spans[parent_idx];
        let n = hi - lo;
        if n < 4 {
            return;
        }
        let npieces = 2 + rng.random_range(0..4usize);
        let pieces = gen_pieces(rng, n, npieces, alias)
            .into_iter()
            .map(|(a, b)| (lo + a, lo + b))
            .collect::<Vec<_>>();
        let pidx = prog.partitions.len();
        prog.partitions.push(GenPartition {
            parent: pool[parent_idx],
            pieces: pieces.iter().map(|&span| vec![span]).collect(),
        });
        prog.ops.push(GenOp::Partition(pidx));
        for (k, (a, b)) in pieces.iter().enumerate() {
            pool.push(GenRegion::Piece(pidx, k));
            spans.push((root, *a, *b));
        }
    };

    // Initial partitions.
    let alias = matches!(mode, Mode::AliasedPartitions | Mode::Mixed);
    let depth = if mode == Mode::DeepTrees {
        3 + rng.random_range(0..3usize)
    } else {
        1
    };
    for _ in 0..depth {
        let parent = rng.random_range(0..pool.len());
        add_partition(&mut prog, &mut rng, &mut pool, &mut spans, parent, alias);
    }

    let gen_req = |rng: &mut StdRng, pool: &[GenRegion], fields: usize| -> GenReq {
        let region = pool[rng.random_range(0..pool.len())];
        let field = rng.random_range(0..fields);
        let privilege = match rng.random_range(0..10u32) {
            0..=3 => Privilege::Read,
            4..=6 => Privilege::ReadWrite,
            _ => Privilege::Reduce(match rng.random_range(0..4u32) {
                0 => RedOpRegistry::SUM,
                1 => RedOpRegistry::PROD,
                2 => RedOpRegistry::MIN,
                _ => RedOpRegistry::MAX,
            }),
        };
        GenReq {
            region,
            field,
            privilege,
        }
    };

    match mode {
        Mode::TraceRepeats => {
            // A block repeated `m` times; one instance gets a mutation.
            let block = 2 + rng.random_range(0..4usize);
            let m = (launches / block).max(4);
            let annotated = rng.random_bool();
            let mutated_instance = 2 + rng.random_range(0..(m - 2).max(1));
            let template: Vec<Vec<GenReq>> = (0..block)
                .map(|_| {
                    let nreqs = 1 + rng.random_range(0..2usize);
                    (0..nreqs)
                        .map(|_| gen_req(&mut rng, &pool, prog.fields))
                        .collect()
                })
                .collect();
            for inst in 0..m {
                if annotated {
                    prog.ops.push(GenOp::BeginTrace(7));
                }
                for (b, reqs) in template.iter().enumerate() {
                    let mut reqs = reqs.clone();
                    if inst == mutated_instance && b == 0 {
                        // The near-repeat: one launch differs.
                        reqs[0] = gen_req(&mut rng, &pool, prog.fields);
                    }
                    prog.ops.push(GenOp::Launch {
                        node: rng.random_range(0..nodes),
                        reqs,
                        salt: prog.ops.len() as u32,
                    });
                }
                if annotated {
                    prog.ops.push(GenOp::EndTrace(7));
                }
            }
        }
        _ => {
            let mut emitted = 0usize;
            while emitted < launches {
                let roll = rng.random_range(0..100u32);
                if mode == Mode::Repartition && roll < 6 {
                    let parent = rng.random_range(0..pool.len());
                    add_partition(&mut prog, &mut rng, &mut pool, &mut spans, parent, true);
                    continue;
                }
                if roll < 4 && !matches!(mode, Mode::ReductionStorms) {
                    prog.ops.push(GenOp::Fence);
                    emitted += 1;
                    continue;
                }
                let nreqs = 1 + rng.random_range(0..3usize);
                let reqs: Vec<GenReq> = (0..nreqs)
                    .map(|_| {
                        let mut r = gen_req(&mut rng, &pool, prog.fields);
                        if mode == Mode::ReductionStorms && rng.random_range(0..10u32) < 8 {
                            r.privilege = Privilege::Reduce(match rng.random_range(0..3u32) {
                                0 => RedOpRegistry::SUM,
                                1 => RedOpRegistry::MIN,
                                _ => RedOpRegistry::MAX,
                            });
                        }
                        r
                    })
                    .collect();
                prog.ops.push(GenOp::Launch {
                    node: rng.random_range(0..nodes),
                    reqs,
                    salt: prog.ops.len() as u32,
                });
                emitted += 1;
            }
        }
    }
    prog
}

impl GenProgram {
    /// A hand-written program on `nodes` nodes: 1-d roots of the given
    /// sizes, `fields` fields each, no partitions and no ops yet. Add them
    /// with [`GenProgram::partition`], [`GenProgram::launch`] and by
    /// pushing [`GenOp`]s.
    pub fn fixed(nodes: usize, roots: Vec<i64>, fields: usize) -> Self {
        GenProgram {
            seed: 0,
            mode: Mode::Fixed,
            nodes,
            roots,
            fields,
            partitions: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Fig 2's forest: one root of `n` cells with one field, partition 0
    /// its `k` equal pieces (disjoint and complete) and partition 1 their
    /// halos (two cells on each side of every piece, clipped to the root:
    /// aliased and incomplete).
    pub fn halo(nodes: usize, n: i64, k: usize) -> Self {
        let mut prog = Self::fixed(nodes, vec![n], 1);
        let root = GenRegion::Root(0);
        let primary = equal_pieces(0, n, k);
        let halos = primary
            .iter()
            .map(|piece| {
                let (lo, hi) = piece[0];
                [(lo - 2, lo), (hi, hi + 2)]
                    .into_iter()
                    .map(|(a, b)| (a.max(0), b.min(n)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .collect();
        prog.partition(root, primary);
        prog.partition(root, halos);
        prog
    }

    /// `roots` roots of 48 cells with two fields, each carrying four
    /// sibling partitions: [`GenProgram::halo`]'s primary and halo
    /// partitions, three pieces that overlap each other and straddle the
    /// primary pieces' boundaries, and four incomplete pieces that overlap
    /// pairwise. Most pairs of its regions alias without being equal.
    pub fn aliased(nodes: usize, roots: usize) -> Self {
        let halo = Self::halo(nodes, 48, 4);
        let mut prog = Self::fixed(nodes, vec![48; roots], 2);
        for r in (0..roots).map(GenRegion::Root) {
            for part in &halo.partitions {
                prog.partition(r, part.pieces.clone());
            }
            prog.partition(r, vec![vec![(0, 20)], vec![(10, 36)], vec![(28, 48)]]);
            prog.partition(r, (0..4).map(|i| vec![(8 * i, 8 * i + 16)]).collect());
        }
        prog
    }

    /// Append a partition of `parent` (pieces are lists of half-open
    /// spans) and the op that creates it; returns its index.
    pub fn partition(&mut self, parent: GenRegion, pieces: Vec<Vec<(i64, i64)>>) -> usize {
        let idx = self.partitions.len();
        self.partitions.push(GenPartition { parent, pieces });
        self.ops.push(GenOp::Partition(idx));
        idx
    }

    /// Append a launch.
    pub fn launch(&mut self, node: usize, reqs: Vec<GenReq>, salt: u32) {
        self.ops.push(GenOp::Launch { node, reqs, salt });
    }

    /// The index of the root whose tree `g` lives in.
    pub fn root_of(&self, mut g: GenRegion) -> usize {
        loop {
            match g {
                GenRegion::Root(r) => return r,
                GenRegion::Piece(p, _) => g = self.partitions[p].parent,
            }
        }
    }
}

/// The `k` equal half-open spans of `[lo, hi)`, one per piece (the split
/// `RegionForest::create_equal_partition_1d` makes).
pub fn equal_pieces(lo: i64, hi: i64, k: usize) -> Vec<Vec<(i64, i64)>> {
    let (n, k) = (hi - lo, k as i64);
    (0..k)
        .map(|i| vec![(lo + i * n / k, lo + (i + 1) * n / k)])
        .collect()
}

/// The value body every driven launch runs, a function of its `salt` and
/// the requirement's position: a read-write rewrites each point from its
/// old value, a reduction folds a per-point contribution. Every value is
/// an integer of modest size (a product only ever multiplies by ±1), so
/// any fold order the engines permit gives bit-identical results.
pub fn body(salt: u32) -> TaskBody {
    Arc::new(move |rs: &mut [PhysicalRegion]| {
        for (k, r) in rs.iter_mut().enumerate() {
            let c = i64::from(salt) + k as i64;
            match r.privilege() {
                Privilege::Read => {}
                Privilege::ReadWrite => {
                    r.update_all(|pt, v| ((v * 3.0) as i64 + c + pt.x).rem_euclid(257) as f64)
                }
                Privilege::Reduce(op) => {
                    let dom = r.domain().clone();
                    for pt in dom.points() {
                        let x = c + pt.x;
                        let v = match op {
                            RedOpRegistry::SUM => x % 13,
                            RedOpRegistry::PROD => 1 - 2 * (x % 3 == 0) as i64,
                            _ => x * 7 % 300,
                        };
                        r.reduce(pt, v as f64);
                    }
                }
            }
        }
    })
}

/// A program's forest materialized in one runtime: the region and field
/// ids its [`GenRegion`]s resolve to. Roots get their fields and initial
/// values up front; partitions appear as their ops run.
pub struct Forest {
    pub roots: Vec<RegionId>,
    pub fields: Vec<Vec<FieldId>>,
    /// Piece regions per generated partition (empty until created).
    pub pieces: Vec<Vec<RegionId>>,
    /// Root index of every generated partition.
    part_roots: Vec<usize>,
}

impl Forest {
    /// Create `prog`'s roots and fields in `rt`, each field with initial
    /// contents that differ per root and field.
    pub fn roots(prog: &GenProgram, rt: &mut Runtime) -> Self {
        let mut forest = Forest {
            roots: Vec::new(),
            fields: Vec::new(),
            pieces: vec![Vec::new(); prog.partitions.len()],
            part_roots: (0..prog.partitions.len())
                .map(|p| prog.root_of(GenRegion::Piece(p, 0)))
                .collect(),
        };
        for (ri, n) in prog.roots.iter().enumerate() {
            let r = rt.forest_mut().create_root_1d(format!("R{ri}"), *n);
            let fs: Vec<_> = (0..prog.fields)
                .map(|fi| rt.forest_mut().add_field(r, format!("f{fi}")))
                .collect();
            for (fi, f) in fs.iter().enumerate() {
                let skew = (3 * ri + fi) as i64;
                rt.try_set_initial(r, *f, move |pt| ((pt.x + skew) % 17) as f64)
                    .expect("fresh root field");
            }
            forest.roots.push(r);
            forest.fields.push(fs);
        }
        forest
    }

    /// The roots and every partition: the forest of a program whose
    /// launches the caller submits itself.
    pub fn build(prog: &GenProgram, rt: &mut Runtime) -> Self {
        let mut forest = Self::roots(prog, rt);
        for p in 0..prog.partitions.len() {
            forest.partition(prog, rt, p);
        }
        forest
    }

    /// Create generated partition `p`.
    pub fn partition(&mut self, prog: &GenProgram, rt: &mut Runtime, p: usize) {
        let spec = &prog.partitions[p];
        let parent = self.region(spec.parent);
        // Generator spans are half-open; the geometry layer's bounds are
        // inclusive.
        let subdomains = spec
            .pieces
            .iter()
            .map(|spans| IndexSpace::from_rects(spans.iter().map(|(a, b)| Rect::span(*a, b - 1))))
            .collect();
        let pid = rt
            .forest_mut()
            .create_partition(parent, format!("P{p}"), subdomains);
        self.pieces[p] = rt.forest().children(pid).to_vec();
    }

    pub fn region(&self, g: GenRegion) -> RegionId {
        match g {
            GenRegion::Root(r) => self.roots[r],
            GenRegion::Piece(p, k) => self.pieces[p][k],
        }
    }

    pub fn requirement(&self, q: &GenReq) -> RegionRequirement {
        let root = match q.region {
            GenRegion::Root(r) => r,
            GenRegion::Piece(p, _) => self.part_roots[p],
        };
        RegionRequirement::new(
            self.region(q.region),
            self.fields[root][q.field],
            q.privilege,
        )
    }

    /// The launch of `reqs` on `node`, running [`body`]`(salt)`.
    pub fn spec(&self, node: usize, reqs: &[GenReq], salt: u32) -> LaunchSpec {
        let reqs = reqs.iter().map(|q| self.requirement(q)).collect();
        LaunchSpec::new("gen", node, reqs, 10, Some(body(salt)))
    }

    /// One requirement on `region`'s field 0, on node 0: the launch most
    /// directed tests submit.
    pub fn single(&self, region: GenRegion, privilege: Privilege, salt: u32) -> LaunchSpec {
        self.spec(0, &[GenReq::new(region, 0, privilege)], salt)
    }
}

/// §4's intra-task aliasing rule, as submission validation applies it:
/// two requirements on one field of one tree may overlap only if both read
/// or both reduce with the same operator. The driver skips launches that
/// break it, so every configuration sees the same effective program and
/// batches are never refused whole.
fn admissible(forest: &RegionForest, reqs: &[RegionRequirement]) -> bool {
    reqs.iter().enumerate().all(|(i, a)| {
        reqs[i + 1..].iter().all(|b| {
            a.field != b.field
                || forest.root_of(a.region) != forest.root_of(b.region)
                || !a.privilege.interferes(b.privilege)
                || !forest.domain(a.region).overlaps(forest.domain(b.region))
        })
    })
}

/// One execution strategy a program is driven under.
#[derive(Copy, Clone, Debug)]
pub struct DriveConfig {
    pub engine: EngineKind,
    /// Machine shape `(nodes, dcr)`; `None` runs on the program's own
    /// nodes, with DCR when there are several. Launch nodes wrap.
    pub machine: Option<(usize, bool)>,
    pub analysis_threads: usize,
    /// Launches per `submit_batch` call within a run of consecutive
    /// launches (`1`: one submission per launch, `usize::MAX`: the whole
    /// run at once).
    pub batch: usize,
    pub pipeline: bool,
    pub auto_trace: bool,
    /// Interned geometry with the memoized set algebra (the default), or
    /// the direct sweeps of `InternConfig::disabled()`.
    pub intern: bool,
    /// Number of concurrent producer contexts the driver fans launches
    /// across. `1` drives everything through the facade (the historical
    /// single-producer path); `>1` splits each contiguous launch run over
    /// that many [`viz_runtime::Context`]s submitting from their own
    /// threads.
    pub producers: usize,
    /// With several producers: each one owns the launches whose first
    /// requirement lies in the roots it owns (root index modulo
    /// `producers`), so each root's stream keeps its program order.
    /// Otherwise launches go round-robin and every other producer closes
    /// its run with a scoped fence.
    pub by_root: bool,
    /// Execute the program's values and check the DAG's sufficiency (both
    /// replay the whole history, so not under history GC).
    pub values: bool,
}

impl DriveConfig {
    /// One engine on the program's machine: serial, synchronous, no auto
    /// trace, interned geometry, one producer, no values.
    pub fn new(engine: EngineKind) -> Self {
        DriveConfig {
            engine,
            machine: None,
            analysis_threads: 1,
            batch: 1,
            pipeline: false,
            auto_trace: false,
            intern: true,
            producers: 1,
            by_root: false,
            values: false,
        }
    }

    pub fn label(&self) -> String {
        let mut out = format!("{:?}/t{}", self.engine, self.analysis_threads);
        if let Some((nodes, dcr)) = self.machine {
            out += &format!("/n{nodes}{}", if dcr { "dcr" } else { "" });
        }
        if self.batch > 1 {
            out += &format!("/b{}", self.batch);
        }
        for (on, tag) in [
            (self.pipeline, "/pipe"),
            (self.auto_trace, "/auto"),
            (!self.intern, "/nointern"),
            (self.by_root, "/byroot"),
        ] {
            if on {
                out += tag;
            }
        }
        if self.producers > 1 {
            out += &format!("/mp{}", self.producers);
        }
        out
    }
}

/// The full matrix the fuzzer sweeps: 4 engines × serial/sharded ×
/// {plain, pipeline, auto-trace, pipeline+auto-trace}.
pub fn drive_matrix() -> Vec<DriveConfig> {
    let mut out = Vec::new();
    for engine in EngineKind::all() {
        for analysis_threads in [1, 4] {
            for (pipeline, auto_trace) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                out.push(DriveConfig {
                    analysis_threads,
                    pipeline,
                    auto_trace,
                    ..DriveConfig::new(engine)
                });
            }
        }
    }
    out
}

/// What one driven program left behind. Everything but `values` is read
/// before the value probes (one inline read per root field) are submitted.
pub struct Run {
    pub history: History,
    /// Every launch's analysis result (replayed ones resolved).
    pub results: Vec<AnalysisResult>,
    /// Final contents of every root's fields, root-major (empty unless
    /// [`DriveConfig::values`]).
    pub values: Vec<Vec<f64>>,
    /// Interfering pairs the DAG leaves unordered (empty unless
    /// [`DriveConfig::values`]).
    pub unsound: Vec<Violation>,
    pub replayed: u64,
    pub detected: u64,
    pub equivalence_sets: usize,
}

/// Run a program under one strategy and capture what it did.
pub fn run_program(prog: &GenProgram, cfg: DriveConfig) -> Run {
    let producers = cfg.producers.max(1);
    let (nodes, dcr) = cfg.machine.unwrap_or((prog.nodes, prog.nodes > 1));
    let rc = RuntimeConfig::new(cfg.engine)
        .nodes(nodes)
        .dcr(dcr)
        .analysis_threads(cfg.analysis_threads)
        .pipeline(cfg.pipeline)
        .auto_trace(cfg.auto_trace)
        .intern(if cfg.intern {
            InternConfig::default()
        } else {
            InternConfig::disabled()
        })
        .submit_rings(producers + 1)
        .validate(true);
    let mut rt = Runtime::new(rc);
    let mut forest = Forest::roots(prog, &mut rt);
    // Explicit trace spans must keep their launches on the primary
    // stream: a recording span expects the trace body verbatim.
    let mut in_trace = false;
    let mut i = 0usize;
    while i < prog.ops.len() {
        match &prog.ops[i] {
            GenOp::Launch { .. } => {
                let start = i;
                while matches!(prog.ops.get(i), Some(GenOp::Launch { .. })) {
                    i += 1;
                }
                let lanes = if producers > 1 && !in_trace {
                    producers
                } else {
                    1
                };
                let mut specs: Vec<Vec<LaunchSpec>> = (0..lanes).map(|_| Vec::new()).collect();
                for (k, op) in prog.ops[start..i].iter().enumerate() {
                    let GenOp::Launch { node, reqs, salt } = op else {
                        unreachable!()
                    };
                    let spec = forest.spec(node % nodes, reqs, *salt);
                    if admissible(&rt.forest(), &spec.reqs) {
                        let lane = match reqs.first() {
                            Some(q) if cfg.by_root => prog.root_of(q.region),
                            _ => k,
                        };
                        specs[lane % lanes].push(spec);
                    }
                }
                if lanes == 1 {
                    let mut run = specs.pop().unwrap().into_iter().peekable();
                    while run.peek().is_some() {
                        let batch = run.by_ref().take(cfg.batch.max(1)).collect();
                        rt.submit_batch(batch)
                            .expect("admissible launches are accepted");
                    }
                } else {
                    fan_out(&rt, specs, cfg);
                }
                continue;
            }
            GenOp::Partition(p) => forest.partition(prog, &mut rt, *p),
            GenOp::Fence => {
                rt.fence();
            }
            GenOp::BeginTrace(id) => in_trace = rt.try_begin_trace(*id).is_ok(),
            GenOp::EndTrace(id) => {
                let _ = rt.try_end_trace(*id);
                in_trace = false;
            }
        }
        i += 1;
    }
    let mut run = Run {
        history: crate::record::capture(&rt)
            .expect("the oracle judges whole histories, and history GC has retired rows"),
        results: rt.results(),
        values: Vec::new(),
        unsound: Vec::new(),
        replayed: rt.replayed_launches(),
        detected: rt.auto_traces_detected(),
        equivalence_sets: rt.stats().state.equivalence_sets,
    };
    if cfg.values {
        run.unsound = check_sufficiency(rt.forest(), rt.launches(), rt.dag());
        let mut probes = Vec::new();
        for (root, fields) in forest.roots.iter().zip(&forest.fields) {
            for field in fields {
                probes.push(rt.inline_read(*root, *field).expect("root field exists"));
            }
        }
        let store = rt.execute_values();
        run.values = probes
            .iter()
            .map(|p| store.inline(*p).iter().map(|(_, v)| v).collect())
            .collect();
    }
    run
}

/// Submit one launch run from one thread per producer context.
/// Interleaving is nondeterministic by design: the checker judges whatever
/// history the engine committed.
fn fan_out(rt: &Runtime, lanes: Vec<Vec<LaunchSpec>>, cfg: DriveConfig) {
    let mut ctxs: Vec<_> = (0..lanes.len())
        .map(|_| {
            rt.new_context()
                .expect("submit_rings covers every producer")
        })
        .collect();
    std::thread::scope(|s| {
        for (j, (ctx, specs)) in ctxs.iter_mut().zip(lanes).enumerate() {
            s.spawn(move || {
                for spec in specs {
                    ctx.submit(spec).expect("admissible launches are accepted");
                }
                // Half the round-robin producers close their run with a
                // scoped fence, exercising per-context fence deps.
                if !cfg.by_root && j % 2 == 0 {
                    let _ = ctx.fence();
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, Mode::Mixed, 30, 2);
        let b = generate(42, Mode::Mixed, 30, 2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = generate(43, Mode::Mixed, 30, 2);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    /// The first program of each mode CI's fixed-seed `oracle_fuzz` legs
    /// run (`--seed 12648430`, 28 launches, 2 nodes), pinned by an FNV-1a
    /// digest of its `Debug` rendering: a change to what the fuzzer runs
    /// must update these on purpose.
    #[test]
    fn fuzz_programs_are_pinned() {
        let digest = |s: String| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let got: Vec<u64> = ALL_MODES
            .iter()
            .enumerate()
            .map(|(i, mode)| digest(format!("{:?}", generate(12648430 + i as u64, *mode, 28, 2))))
            .collect();
        assert_eq!(got, PINNED, "{got:#x?}");
    }

    const PINNED: [u64; 6] = [
        0x806b_1443_b9ce_e6fc,
        0x667f_a583_c594_7c13,
        0xf063_e499_363a_6d64,
        0x485a_c313_8930_f3c5,
        0x4396_9298_9723_b344,
        0x149d_0485_f46f_072f,
    ];

    #[test]
    fn halo_pieces_are_fig_2s() {
        let prog = GenProgram::halo(1, 48, 4);
        assert_eq!(prog.partitions[0].pieces, equal_pieces(0, 48, 4));
        assert_eq!(prog.partitions[0].pieces[1], vec![(12, 24)]);
        assert_eq!(prog.partitions[1].pieces[0], vec![(12, 14)]);
        assert_eq!(prog.partitions[1].pieces[1], vec![(10, 12), (24, 26)]);
        assert_eq!(prog.partitions[1].pieces[3], vec![(34, 36)]);
    }

    #[test]
    fn every_mode_runs_clean_on_one_engine() {
        for (i, mode) in ALL_MODES.iter().enumerate() {
            let prog = generate(1000 + i as u64, *mode, 24, 2);
            let run = run_program(
                &prog,
                DriveConfig {
                    auto_trace: *mode == Mode::TraceRepeats,
                    values: true,
                    ..DriveConfig::new(EngineKind::RayCast)
                },
            );
            let report = crate::checker::check(&run.history);
            assert!(
                report.ok(),
                "mode {:?}: {:?}",
                mode,
                report.violations.first()
            );
            assert!(run.unsound.is_empty(), "mode {mode:?}: {:?}", run.unsound);
            assert_eq!(run.values.len(), prog.roots.len() * prog.fields);
        }
    }

    #[test]
    fn multi_producer_histories_pass_the_checker() {
        for pipeline in [false, true] {
            let prog = generate(77, Mode::Mixed, 24, 2);
            let run = run_program(
                &prog,
                DriveConfig {
                    analysis_threads: 2,
                    pipeline,
                    producers: 4,
                    ..DriveConfig::new(EngineKind::RayCast)
                },
            );
            let h = &run.history;
            let report = crate::checker::check(h);
            assert!(
                report.ok(),
                "pipeline {pipeline}: {:?}",
                report.violations.first()
            );
            // The fan-out actually happened: tenant contexts appear.
            assert!(
                h.launches
                    .iter()
                    .any(|l| l.ctx != 0 && l.ctx != crate::history::CTX_GLOBAL),
                "expected tenant-context launches in the history"
            );
        }
    }
}
