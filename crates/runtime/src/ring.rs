//! A wait-free bounded SPSC ring buffer — the per-context submission lane
//! of the multi-producer submission plane (see [`crate::pipeline`]).
//!
//! Each [`SpscRing`] has exactly one producer (the context that claimed
//! the ring slot; exclusivity is enforced structurally, `Context::submit`
//! takes `&mut self`) and exactly one consumer (the combining dispatcher
//! thread). Under that contract both ends are wait-free: a push is one
//! slot write plus one release store of the tail, a drain is one acquire
//! load of the tail plus a batch of slot reads — no locks, no CAS, no
//! producer-side blocking on lock handoff (the delegation argument of
//! *Advanced Synchronization Techniques for Task-based Runtime Systems*).
//!
//! The capacity is a power of two internally, but the *occupancy bound*
//! is the exact `bound` requested — backpressure semantics stay identical
//! to the PR 4 bounded queue ([`crate::RuntimeConfig::pipeline_depth`]).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A 64-byte-aligned wrapper keeps the producer-written tail and the
/// consumer-written head on distinct cache lines, which is the entire point
/// of an SPSC layout.
#[repr(align(64))]
pub(crate) struct CacheAligned<T>(pub T);

/// Bounded single-producer single-consumer ring. `&self` methods are
/// split by role: [`SpscRing::try_push`] must only ever be called by the
/// one producer, [`SpscRing::pop_all`] only by the one consumer.
pub(crate) struct SpscRing<T> {
    /// Exact occupancy bound (the backpressure depth).
    bound: usize,
    /// Power-of-two slot-index mask.
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next index the consumer will pop. Written by the consumer only.
    head: CacheAligned<AtomicUsize>,
    /// Next index the producer will push. Written by the producer only.
    tail: CacheAligned<AtomicUsize>,
}

// SAFETY: the single-producer/single-consumer contract (documented above,
// enforced by the submission plane's ring-claim protocol) means every
// slot is written by exactly one thread before the tail release-store
// publishes it, and read by exactly one thread after an acquire-load
// observes it — the atomics carry all cross-thread ordering.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    pub(crate) fn new(bound: usize) -> Self {
        let bound = bound.max(1);
        let cap = bound.next_power_of_two();
        SpscRing {
            bound,
            mask: cap - 1,
            slots: (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
            head: CacheAligned(AtomicUsize::new(0)),
            tail: CacheAligned(AtomicUsize::new(0)),
        }
    }

    /// Producer side: push one item, or hand it back if the ring is at
    /// its bound (the caller stalls — backpressure).
    pub(crate) fn try_push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.bound {
            return Err(value);
        }
        // SAFETY: `tail - head < bound <= capacity`, so this slot has been
        // consumed (or never used); we are the only producer.
        unsafe { (*self.slots[tail & self.mask].get()).write(value) };
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: drain everything currently published, in FIFO
    /// order, into `out`. Returns the number of items taken.
    pub(crate) fn pop_all(&self, out: &mut Vec<T>) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        let n = tail.wrapping_sub(head);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: indices in `head..tail` were published by the
            // producer's release store; we are the only consumer.
            let v =
                unsafe { (*self.slots[head.wrapping_add(i) & self.mask].get()).assume_init_read() };
            out.push(v);
        }
        self.head.0.store(tail, Ordering::Release);
        n
    }

    /// Approximate occupancy (exact from either endpoint's own thread).
    pub(crate) fn len(&self) -> usize {
        self.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.0.load(Ordering::Acquire))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent ends; drop whatever is still queued.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_roundtrip_across_threads() {
        let ring = SpscRing::<u64>::new(64);
        let total = 10_000u64;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for v in 0..total {
                    let mut item = v;
                    loop {
                        match ring.try_push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
            scope.spawn(|| {
                let mut got = Vec::new();
                while (got.len() as u64) < total {
                    ring.pop_all(&mut got);
                }
                assert_eq!(got, (0..total).collect::<Vec<_>>(), "FIFO preserved");
            });
        });
        assert!(ring.is_empty());
    }

    #[test]
    fn bound_is_exact_not_rounded_up() {
        let ring = SpscRing::<u32>::new(3); // capacity rounds to 4
        assert!(ring.try_push(0).is_ok());
        assert!(ring.try_push(1).is_ok());
        assert!(ring.try_push(2).is_ok());
        assert_eq!(ring.try_push(3), Err(3), "occupancy bound is 3");
        let mut out = Vec::new();
        assert_eq!(ring.pop_all(&mut out), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert!(ring.try_push(3).is_ok());
    }

    #[test]
    fn drop_releases_queued_items() {
        let marker = Arc::new(());
        {
            let ring = SpscRing::new(8);
            for _ in 0..5 {
                ring.try_push(Arc::clone(&marker)).unwrap();
            }
            let mut out = Vec::new();
            ring.pop_all(&mut out);
            for _ in 0..3 {
                ring.try_push(Arc::clone(&marker)).unwrap();
            }
            drop(out);
            // 3 items still queued when the ring drops.
        }
        assert_eq!(Arc::strong_count(&marker), 1, "no queued item leaked");
    }
}
