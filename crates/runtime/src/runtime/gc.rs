//! History-GC scheduling: when a collection sweep runs and what it
//! retires. This is the address of the harness's `gc.*` rows; what a sweep
//! *reclaims* is each engine's [`CoherenceEngine::collect`].
//!
//! [`CoherenceEngine::collect`]: crate::engine::CoherenceEngine::collect

use super::core::Core;
use crate::config::GcConfig;
use crate::engine::GcSweep;
use crate::task::TaskId;

/// Collection bookkeeping: configuration plus running counters, surfaced
/// through [`crate::stats::GcStats`].
pub(crate) struct GcState {
    pub(crate) cfg: GcConfig,
    /// Next launch count at which a sweep runs. `run_specs` cuts its input
    /// here, so the check is a compare per chunk and a sweep never lands
    /// past it.
    next_due: u32,
    pub(crate) collections: u64,
    /// Sweeps whose floor was clamped by trace pinning.
    pub(crate) pins: u64,
    pub(crate) retired_launches: u64,
    pub(crate) sweep: GcSweep,
}

impl GcState {
    pub(super) fn new(cfg: GcConfig) -> Self {
        GcState {
            next_due: cfg.interval.max(1),
            cfg,
            collections: 0,
            pins: 0,
            retired_launches: 0,
            sweep: GcSweep::default(),
        }
    }
}

impl Core {
    /// Launches that may run before the next collection is due (unbounded
    /// with GC off).
    pub(super) fn gc_room(&self) -> usize {
        if !self.gc.cfg.enabled {
            return usize::MAX;
        }
        (self.gc.next_due.saturating_sub(self.book.ledger.next_id()) as usize).max(1)
    }

    /// Run a collection sweep if the watermark interval has elapsed:
    /// reclaim dead engine state, then retire ledger entries below
    /// `next_id - retain` (clamped by trace pinning). Called
    /// after every `run_specs` chunk and every fence; chunks end at
    /// `next_due`, so the pipelined and synchronous paths collect at the
    /// same launch counts however their callers batch.
    pub(super) fn maybe_collect(&mut self) {
        if !self.gc.cfg.enabled {
            return;
        }
        let book = &mut self.book;
        let next = book.ledger.next_id();
        if next < self.gc.next_due {
            return;
        }
        self.gc.next_due = next + self.gc.cfg.interval.max(1);
        self.gc.collections += 1;
        let mut floor = next.saturating_sub(self.gc.cfg.retain);
        // Tracing-aware pinning: an in-flight instance keeps everything
        // from its base launch alive — the template's footprint survives as
        // long as it replays — and an observed stream keeps the rows a
        // promotion would build its template from.
        if let Some(pin) = book.tracing.pin_floor(next) {
            if pin < floor {
                self.gc.pins += 1;
                floor = pin;
            }
        }
        // Engines reclaim *unreachable* state (occluded history entries,
        // dead composite chains) — reachability-based, so the sweep is
        // behavior-preserving by construction; `floor` only gates the
        // ledger below.
        let sweep = self.engine.collect(TaskId(floor));
        self.gc.sweep += sweep;
        let mut retired = 0u64;
        if floor > book.ledger.base() {
            retired = book.ledger.retire_to(floor) as u64;
            self.gc.retired_launches += retired;
        }
        if viz_profile::enabled() {
            let origin = self.shards.origin(0);
            viz_profile::sim_event(
                self.machine.now(origin),
                0,
                viz_profile::Track::SimProgram {
                    node: origin as u32,
                },
                viz_profile::EventKind::GcSweep {
                    watermark: book.ledger.base() as u64,
                    retired,
                    dropped: sweep.total() as u64,
                },
            );
        }
    }
}
