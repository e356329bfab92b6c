//! The one block executor: every multi-block driver is a per-block kernel
//! run by [`run`] over a [`BlockSource`], plus one in-order merge.
//!
//! Corra blocks are self-contained — every codec, horizontal ones
//! included, reconstructs from its own block — so an operator never needs
//! more than one block at a time. What differs between drivers is only
//! *which* blocks exist (in-memory blocks, one table file, or a segmented
//! table whose block numbers run through its segments) and how their
//! costs add up. [`BlockSource`] abstracts the first, one fold into
//! [`ScanStats`] is the only place the second happens, and [`run`] is the
//! only morsel loop: serial execution is simply `threads == 1` on the
//! same path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use corra_columnar::error::{Error, Result};

use crate::compressor::BlockView;
use crate::scan::ScanStats;
use crate::store::BlockFooter;

/// Evaluates `f(i)` for every `i` in `0..n` and returns the results in
/// index order.
///
/// `threads.min(n)` workers pull indices off a shared counter and write
/// into indexed slots, so the output is identical for any thread count.
/// With at most one worker, `f` runs inline in index order: no thread is
/// spawned and no slot is allocated.
///
/// # Errors
///
/// When several indices fail, the error of the lowest failing index. On
/// a spawned worker, a panic inside `f` surfaces as
/// [`Error::InvalidData`] for its index (the panic hook still prints
/// the message); inline, it unwinds to the caller as a plain loop's would.
pub fn run<T, F>(n: usize, threads: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    if threads.min(n) <= 1 {
        return run_inline(n, f);
    }
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = catch_unwind(AssertUnwindSafe(|| f(i)))
                    .unwrap_or_else(|_| Err(Error::invalid(format!("morsel {i} panicked"))));
                // Each slot is written once, after `f` returned, so even a
                // poisoned lock holds a whole value.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every index is claimed by exactly one worker")
        })
        .collect()
}

/// [`run`]'s single-worker path: `f` runs inline in index order, so it
/// may mutate state or borrow a source that cannot cross threads. Panics
/// are not caught.
fn run_inline<T>(n: usize, f: impl FnMut(usize) -> Result<T>) -> Result<Vec<T>> {
    (0..n).map(f).collect()
}

/// What loading one block's payloads cost: bytes fetched from the backend,
/// and how an attached cache answered the column loads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadCost {
    /// Payload bytes fetched from the backend.
    pub bytes: u64,
    /// Column loads an attached cache answered.
    pub cache_hits: u64,
    /// Column loads that missed an attached cache.
    pub cache_misses: u64,
}

/// A table-shaped collection of blocks the executor runs over.
///
/// Implemented by in-memory block slices (`[B]` for any [`BlockView`]:
/// no footer, no I/O), by [`crate::store::TableReader`] (footer zones,
/// lazily loaded payloads) and by [`crate::store::SegmentedTable`], whose
/// blocks are numbered globally through its segments in manifest order —
/// a single file is just a one-segment table.
pub trait BlockSource {
    /// A view of one block; lazy sources load payloads on first touch.
    type View<'a>: BlockView
    where
        Self: 'a;

    /// Number of blocks.
    fn n_blocks(&self) -> usize;

    /// Rows in block `block` (`block < n_blocks()`).
    fn block_rows(&self, block: usize) -> usize;

    /// Segments an operation over this source opens: 0 in memory, 1 for a
    /// table file, one per segment for a segmented table.
    fn segments_opened(&self) -> usize;

    /// The footer metadata of `block`, which lets a driver decide the
    /// block without reading payload bytes. `None` in memory.
    fn footer(&self, block: usize) -> Option<BlockFooter<'_>>;

    /// A view of block `block`.
    ///
    /// # Errors
    ///
    /// An out-of-range block index.
    fn view(&self, block: usize) -> Result<Self::View<'_>>;

    /// What `view` has loaded so far.
    fn load_cost(view: &Self::View<'_>) -> LoadCost;
}

impl<B: BlockView> BlockSource for [B] {
    type View<'a>
        = &'a B
    where
        B: 'a;

    fn n_blocks(&self) -> usize {
        self.len()
    }

    fn block_rows(&self, block: usize) -> usize {
        self[block].rows()
    }

    fn segments_opened(&self) -> usize {
        0
    }

    fn footer(&self, _block: usize) -> Option<BlockFooter<'_>> {
        None
    }

    fn view(&self, block: usize) -> Result<&B> {
        self.get(block).ok_or(Error::IndexOutOfBounds {
            index: block,
            len: self.len(),
        })
    }

    fn load_cost(_view: &&B) -> LoadCost {
        LoadCost::default()
    }
}

/// How one block was decided, beside the value its kernel produced.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockCost {
    /// Answered from zone maps: no per-row kernel ran.
    pruned: bool,
    /// Answered from the footer: no payload byte was read.
    skipped_io: bool,
    /// Rows that passed the operation's filter.
    matched: usize,
    /// What the block's view loaded.
    load: LoadCost,
}

impl BlockCost {
    /// A block decided from its footer alone.
    pub(crate) fn footer(matched: usize) -> Self {
        Self {
            pruned: true,
            skipped_io: true,
            matched,
            load: LoadCost::default(),
        }
    }

    /// A block whose kernel ran over `view`.
    pub(crate) fn ran<S: BlockSource + ?Sized>(
        view: &S::View<'_>,
        pruned: bool,
        matched: usize,
    ) -> Self {
        Self {
            pruned,
            skipped_io: false,
            matched,
            load: S::load_cost(view),
        }
    }
}

/// Folds per-block outcomes, in block order, into their values and one
/// [`ScanStats`] — the one place block costs are counted.
fn fold<S: BlockSource + ?Sized, T>(src: &S, outcomes: Vec<(T, BlockCost)>) -> (Vec<T>, ScanStats) {
    let mut stats = ScanStats {
        segments_opened: src.segments_opened(),
        ..ScanStats::default()
    };
    let values = outcomes
        .into_iter()
        .enumerate()
        .map(|(block, (value, cost))| {
            stats.blocks += 1;
            stats.blocks_pruned += usize::from(cost.pruned);
            stats.blocks_skipped_io += usize::from(cost.skipped_io);
            stats.rows_total += src.block_rows(block);
            stats.rows_matched += cost.matched;
            stats.bytes_read += cost.load.bytes;
            stats.cache_hits += cost.load.cache_hits;
            stats.cache_misses += cost.load.cache_misses;
            value
        })
        .collect();
    (values, stats)
}

/// Runs `kernel` over every block of `src` from `threads` workers and
/// folds the outcomes.
///
/// # Errors
///
/// As [`run`].
pub(crate) fn drive<S, T, F>(src: &S, threads: usize, kernel: F) -> Result<(Vec<T>, ScanStats)>
where
    S: BlockSource + Sync + ?Sized,
    T: Send,
    F: Fn(usize) -> Result<(T, BlockCost)> + Sync,
{
    Ok(fold(src, run(src.n_blocks(), threads, kernel)?))
}

/// [`drive`] on the inline path, for sources that are not `Sync` and
/// kernels that mutate state (a join's build table).
///
/// # Errors
///
/// As [`run`].
pub(crate) fn drive_inline<S: BlockSource + ?Sized, T>(
    src: &S,
    kernel: impl FnMut(usize) -> Result<(T, BlockCost)>,
) -> Result<(Vec<T>, ScanStats)> {
    Ok(fold(src, run_inline(src.n_blocks(), kernel)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn results_come_back_in_index_order() {
        for n in [1usize, 2, 7, 64] {
            let want: Vec<usize> = (0..n).map(|i| i * i).collect();
            for threads in [0, 1, 2, 4, n + 3] {
                let got = run(n, threads, |i| Ok(i * i)).unwrap();
                assert_eq!(got, want, "n {n} threads {threads}");
            }
        }
    }

    #[test]
    fn zero_indices_run_nothing() {
        for threads in [1, 2, 4] {
            let got: Vec<()> = run(0, threads, |_| panic!("no index to run")).unwrap();
            assert!(got.is_empty());
        }
    }

    #[test]
    fn serial_run_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        run(5, 1, |_| {
            assert_eq!(std::thread::current().id(), caller);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn a_worker_panic_becomes_invalid_data() {
        for threads in [2, 4, 9] {
            let err = run(6, threads, |i| {
                if i == 3 {
                    panic!("kernel bug");
                }
                Ok(i)
            })
            .unwrap_err();
            assert!(matches!(err, Error::InvalidData(_)), "threads {threads}");
            assert!(err.to_string().contains("morsel 3 panicked"), "{err}");
        }
    }

    #[test]
    fn an_inline_panic_unwinds_to_the_caller() {
        for threads in [0, 1] {
            let unwound = catch_unwind(|| {
                run(6, threads, |i| {
                    if i == 3 {
                        panic!("kernel bug");
                    }
                    Ok(i)
                })
            });
            assert!(unwound.is_err(), "threads {threads}");
        }
    }

    #[test]
    fn the_lowest_failing_index_wins() {
        for threads in [1, 2, 4, 12] {
            // With several workers, index 2 fails only after index 6 has.
            let six_failed = AtomicBool::new(false);
            let err = run(8, threads, |i| match i {
                2 => {
                    while threads > 1 && !six_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Err(Error::invalid("index 2"))
                }
                6 => {
                    six_failed.store(true, Ordering::SeqCst);
                    Err(Error::invalid("index 6"))
                }
                _ => Ok(i),
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("index 2"),
                "threads {threads}: {err}"
            );
        }
    }
}
