//! Append-only runs of items in equal-size chunks: the storage behind the
//! commit ledger's plan columns and the DAG's edge lists.
//!
//! Every chunk holds [`CHUNK_BYTES`] of items, and a run never straddles
//! two chunks; a run longer than a chunk gets a chunk of its own. Growth
//! allocates one more chunk and never moves stored items, so no column
//! doubles by copy (DESIGN.md §7l: a doubling column is what let glibc's
//! heap layout pick `peak_rss_mb`). Retiring a prefix frees whole chunks;
//! chunk numbers are absolute, so freeing one renumbers nothing.

use std::collections::VecDeque;

/// Bytes of items in one chunk.
const CHUNK_BYTES: usize = 64 << 10;

/// Where one run sits: `len` items from `start` in chunk `chunk`.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Loc {
    pub chunk: u32,
    pub start: u32,
    pub len: u32,
}

/// A `u32` field of a [`Loc`] or of an offset into a run.
pub(crate) fn to_u32(n: usize) -> u32 {
    // Cannot fire: two consecutive chunks hold over 64 KiB, so 2^32 chunks
    // (or 2^32 items in one run) would be over 128 TiB of runs.
    u32::try_from(n).expect("run offset overflows u32")
}

#[derive(Debug)]
pub(crate) struct Runs<T> {
    /// Chunk `first + i` is `chunks[i]`.
    chunks: VecDeque<Vec<T>>,
    first: u32,
    /// A retired chunk, cleared, kept for the next growth.
    spare: Option<Vec<T>>,
}

impl<T> Runs<T> {
    /// Items per chunk.
    pub(crate) const LEN: usize =
        if std::mem::size_of::<T>() == 0 || std::mem::size_of::<T>() > CHUNK_BYTES {
            1
        } else {
            CHUNK_BYTES / std::mem::size_of::<T>()
        };

    /// Append the run of the `n` items `items` yields.
    pub fn push(&mut self, n: usize, items: impl IntoIterator<Item = T>) -> Loc {
        if n == 0 {
            return Loc::default();
        }
        if self.chunks.back().is_none_or(|c| c.len() + n > Self::LEN) {
            let chunk = match self.spare.take() {
                Some(spare) if n <= Self::LEN => spare,
                _ => Vec::with_capacity(n.max(Self::LEN)),
            };
            self.chunks.push_back(chunk);
        }
        let i = self.chunks.len() - 1;
        let chunk = to_u32(self.first as usize + i);
        let last = &mut self.chunks[i];
        let start = last.len();
        // Within capacity: extending never reallocates the chunk.
        last.extend(items.into_iter().take(n));
        debug_assert_eq!(last.len() - start, n, "the run yielded too few items");
        Loc {
            chunk,
            start: to_u32(start),
            len: to_u32(n),
        }
    }

    pub fn get(&self, loc: Loc) -> &[T] {
        if loc.len == 0 {
            return &[];
        }
        debug_assert!(loc.chunk >= self.first, "run in a retired chunk");
        let chunk = &self.chunks[(loc.chunk - self.first) as usize];
        &chunk[loc.start as usize..(loc.start + loc.len) as usize]
    }

    /// Free every chunk below `chunk` (clamped to the chunks held).
    pub fn retire_before(&mut self, chunk: u32) {
        let k = (chunk.saturating_sub(self.first) as usize).min(self.chunks.len());
        for mut freed in self.chunks.drain(..k) {
            if self.spare.is_none() && freed.capacity() == Self::LEN {
                freed.clear();
                self.spare = Some(freed);
            }
        }
        self.first += to_u32(k);
    }

    /// Chunks currently held.
    #[cfg(test)]
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The lowest chunk held.
    #[cfg(test)]
    pub fn first_chunk(&self) -> u32 {
        self.first
    }
}

impl<T> Default for Runs<T> {
    fn default() -> Self {
        Runs {
            chunks: VecDeque::new(),
            first: 0,
            spare: None,
        }
    }
}

/// Clones keep each chunk's capacity, so a clone grows without copying too.
impl<T: Clone> Clone for Runs<T> {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                let mut copy = Vec::with_capacity(c.capacity());
                copy.extend_from_slice(c);
                copy
            })
            .collect();
        Runs {
            chunks,
            first: self.first,
            spare: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = Runs::<u32>::LEN;

    fn run(from: u32, n: usize) -> std::ops::Range<u32> {
        from..from + to_u32(n)
    }

    #[test]
    fn runs_fill_a_chunk_then_open_the_next() {
        let mut r = Runs::<u32>::default();
        assert_eq!(LEN, 16 << 10);
        let a = r.push(LEN - 1, run(0, LEN - 1));
        let addr = r.chunks[0].as_ptr();
        let b = r.push(1, run(7, 1));
        let c = r.push(1, run(9, 1));
        let d = r.push(2, run(10, 2));
        assert_eq!((a.chunk, b.chunk, c.chunk, d.chunk), (0, 0, 1, 1));
        assert_eq!((b.start, c.start, d.start), (to_u32(LEN - 1), 0, 1));
        assert_eq!(r.chunks[0].as_ptr(), addr, "a full chunk moved");
        assert_eq!(r.get(b), &[7]);
        assert_eq!(r.get(c), &[9]);
        assert_eq!(r.get(d), &[10, 11]);
        assert_eq!(r.get(a).len(), LEN - 1);
        assert_eq!(r.push(0, run(0, 0)).len, 0);
        assert!(r.get(Loc::default()).is_empty());
    }

    #[test]
    fn an_oversized_run_gets_its_own_chunk() {
        let mut r = Runs::<u32>::default();
        let small = r.push(3, run(0, 3));
        let big = r.push(LEN + 5, run(100, LEN + 5));
        let after = r.push(1, run(1, 1));
        assert_eq!((small.chunk, big.chunk, after.chunk), (0, 1, 2));
        assert_eq!(big.start, 0);
        assert_eq!(r.get(big).len(), LEN + 5);
        assert_eq!(r.get(big)[LEN + 4], 100 + to_u32(LEN + 4));
        assert_eq!(r.get(small), &[0, 1, 2]);
        assert_eq!(r.get(after), &[1]);
    }

    #[test]
    fn retire_before_frees_only_whole_chunks() {
        let mut r = Runs::<u32>::default();
        let locs: Vec<Loc> = (0..5).map(|i| r.push(LEN / 2, run(i, LEN / 2))).collect();
        let chunks: Vec<u32> = locs.iter().map(|l| l.chunk).collect();
        assert_eq!(chunks, [0, 0, 1, 1, 2]);
        // Retiring below chunk 1 keeps runs 2.. readable, and renumbers none.
        r.retire_before(1);
        assert_eq!(r.chunks.len(), 2);
        for (i, l) in locs.iter().enumerate().skip(2) {
            assert_eq!(r.get(*l)[0], to_u32(i));
        }
        // Monotone: an older floor frees nothing, a floor past the end
        // frees what is held.
        r.retire_before(0);
        assert_eq!(r.chunks.len(), 2);
        r.retire_before(u32::MAX);
        assert!(r.chunks.is_empty());
        let next = r.push(1, run(42, 1));
        assert_eq!(next.chunk, 3, "chunk numbers stay absolute");
        assert_eq!(r.get(next), &[42]);
    }

    #[test]
    fn a_freed_chunk_is_reused() {
        let mut r = Runs::<u32>::default();
        r.push(LEN, run(0, LEN));
        let addr = r.chunks[0].as_ptr();
        r.retire_before(1);
        let loc = r.push(4, run(5, 4));
        assert_eq!(r.chunks[0].as_ptr(), addr, "the spare chunk was not reused");
        assert_eq!(r.get(loc), &[5, 6, 7, 8]);
        // The standard chunk becomes the spare; the oversized one is freed.
        let big = r.push(2 * LEN, run(0, 2 * LEN));
        r.retire_before(big.chunk + 1);
        assert_eq!(r.spare.as_ref().map(Vec::capacity), Some(LEN));
    }

    #[test]
    fn a_clone_keeps_chunk_capacity() {
        let mut r = Runs::<u32>::default();
        let a = r.push(3, run(0, 3));
        let c = r.clone();
        assert_eq!(c.chunks[0].capacity(), LEN);
        assert_eq!(c.get(a), r.get(a));
    }
}
