//! One measured rep: a fresh runtime, the captured forest installed, the
//! pre-built waves submitted with `submit_batch`, every call timed, then a
//! drain. Closed loop, one caller: the next wave goes in when the previous
//! call returns. Spec construction, runtime construction and drop are
//! outside the timed window. Every duration is at the reference clock
//! ([`crate::clock`]).

use crate::capture::Capture;
use crate::clock::RefClock;
use crate::trace::Tracer;
use crate::workloads::Path;
use std::time::Instant;
use viz_runtime::{Context, LaunchSpec, Runtime, RuntimeError};

/// What a rep submits through: the runtime facade, or a tenant context.
trait Plane {
    fn submit_batch(&mut self, specs: Vec<LaunchSpec>) -> Result<usize, RuntimeError>;
    /// Wait until everything submitted so far has committed.
    fn flush(&mut self) -> Result<(), RuntimeError>;
    /// Does the analysis run on another thread than the submitting one?
    /// Then a rep costs the wall time from first submit to drained, not
    /// the time the submitter was blocked.
    fn concurrent(&self) -> bool;
}

impl Plane for Runtime {
    fn submit_batch(&mut self, specs: Vec<LaunchSpec>) -> Result<usize, RuntimeError> {
        Runtime::submit_batch(self, specs).map(|h| h.len())
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        Runtime::flush(self);
        Ok(())
    }

    fn concurrent(&self) -> bool {
        false
    }
}

impl Plane for Context<'_> {
    fn submit_batch(&mut self, specs: Vec<LaunchSpec>) -> Result<usize, RuntimeError> {
        Context::submit_batch(self, specs).map(|h| h.len())
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        Context::flush(self)
    }

    fn concurrent(&self) -> bool {
        true
    }
}

/// One rep's timed window, in ns at the reference clock.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// First submit until everything has committed.
    pub total_ns: f64,
    /// First submit until the last launch of iteration 0 has committed.
    pub init_ns: f64,
    /// Time blocked in each steady-state `submit_batch` call.
    pub steady_wave_ns: Vec<f64>,
    /// Per steady-state iteration, the time blocked in its `submit_batch`
    /// calls (an iteration's waves differ in kind and cost, so single
    /// calls are not comparable; whole iterations are).
    pub steady_iter_blocked_ns: Vec<f64>,
    /// The final drain.
    pub flush_ns: f64,
    /// Launches whose submission returned `Err`.
    pub refused: u64,
    /// Wall time over reference time of the rep: the clock it ran at.
    pub clock_ratio: f64,
}

impl Timing {
    pub fn steady_ns(&self) -> f64 {
        self.total_ns - self.init_ns
    }
}

pub struct Rep {
    pub timing: Timing,
    /// The drained runtime, for the checks and the layer counters.
    pub rt: Runtime,
}

fn drive(
    plane: &mut dyn Plane,
    cap: &Capture,
    waves: Vec<Vec<LaunchSpec>>,
    mut tracer: Option<&mut Tracer>,
) -> Timing {
    let mut timing = Timing {
        steady_wave_ns: Vec::with_capacity(waves.len()),
        ..Timing::default()
    };
    let init_waves = cap
        .waves
        .iter()
        .take_while(|w| w.range.end <= cap.init_launches())
        .count();
    let run = tracer.as_mut().map(|t| t.begin("run", None));
    let mut iteration = None;
    let mut clock = RefClock::new();
    let start = Instant::now();
    let mut init_wall_ns = 0.0;
    for (k, (specs, wave)) in waves.into_iter().zip(&cap.waves).enumerate() {
        let n = specs.len() as u64;
        let spans = tracer.as_mut().map(|t| {
            if iteration.as_ref().map(|(i, _)| *i) != Some(wave.iteration) {
                if let Some((_, open)) = iteration.take() {
                    t.end(open);
                }
                let open = t.begin(format!("iteration[{}]", wave.iteration), None);
                iteration = Some((wave.iteration, open));
            }
            let w = t.begin(format!("wave[{}]", wave.name), None);
            (w, t.begin("submit_batch", Some(wave.range.start as u32)))
        });
        let (res, blocked) = clock.time(|| plane.submit_batch(specs));
        if let (Some(t), Some((w, s))) = (tracer.as_mut(), spans) {
            t.end(s);
            t.end(w);
        }
        if res.is_err() {
            timing.refused += n;
        }
        if k + 1 == init_waves {
            // Iteration 0 is over once its last launch has *committed*:
            // on the pipelined path that needs a drain.
            if clock.time(|| plane.flush()).0.is_err() {
                timing.refused += 1;
            }
            timing.init_ns = clock.total_ref_ns();
            init_wall_ns = start.elapsed().as_nanos() as f64;
        } else if k >= init_waves {
            timing.steady_wave_ns.push(blocked);
            if cap.waves[k - 1].iteration != wave.iteration {
                timing.steady_iter_blocked_ns.push(0.0);
            }
            *timing
                .steady_iter_blocked_ns
                .last_mut()
                .expect("pushed at the iteration's first wave") += blocked;
        }
    }
    let (res, flush_ns) = clock.time(|| plane.flush());
    if res.is_err() {
        timing.refused += 1;
    }
    timing.flush_ns = flush_ns;
    timing.total_ns = clock.total_ref_ns();
    timing.clock_ratio = clock.mean_ratio();
    if plane.concurrent() {
        timing.init_ns = init_wall_ns / timing.clock_ratio;
        timing.total_ns = start.elapsed().as_nanos() as f64 / timing.clock_ratio;
    }
    if let Some(t) = tracer {
        if let Some((_, open)) = iteration {
            t.end(open);
        }
        if let Some(run) = run {
            t.end(run);
        }
    }
    timing
}

/// Run one rep of the captured stream down `path`.
pub fn run_rep(cap: &Capture, path: Path, tracer: Option<&mut Tracer>) -> Rep {
    let mut rt = Runtime::new(path.config(cap.nodes));
    *rt.forest_mut() = cap.forest.clone();
    let waves = cap.build_specs();
    let timing = if path.pipeline {
        let mut ctx = rt
            .new_context()
            .expect("a fresh pipelined runtime has a free ring for one tenant");
        let timing = std::thread::scope(|s| {
            s.spawn(|| drive(&mut ctx, cap, waves, tracer))
                .join()
                .expect("the submitting thread does not panic")
        });
        drop(ctx);
        timing
    } else {
        drive(&mut rt, cap, waves, tracer)
    };
    rt.flush();
    Rep { timing, rt }
}
