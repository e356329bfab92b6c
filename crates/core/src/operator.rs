//! Compressed-domain operators: TOP-K / ORDER BY and dictionary-code hash
//! joins.
//!
//! Both operators follow the same shape as [`mod@crate::aggregate`]: a
//! per-block kernel dispatched through the `IntColumn` visitor (so each
//! codec family contributes one fast path, not seven ladders), run over
//! any [`BlockSource`] by the [`crate::morsel::run`] executor, plus one
//! in-order merge — bit-identical for any thread count.
//!
//! **TOP-K** exploits codec order: sorted int dictionaries select winners
//! in the code domain, RLE folds whole runs, FOR/plain stream through the
//! batched decode, and zone maps prune blocks whose best possible value
//! cannot beat the current k-th bound. The bound is shared across workers
//! as a [`TopKBound`] — pruning uses a *strict* comparison against the
//! k-th value's rank, so a pruned block provably contributes nothing even
//! under tie-breaks, and the result set is deterministic for any morsel
//! interleaving (which blocks get *pruned* vs. merely lose every
//! candidate is timing-dependent, so pruning counters may vary between
//! parallel runs; the rows never do).
//!
//! **Hash joins** build and probe on dictionary *codes*: each block's
//! distinct keys are hashed exactly once into a global key table (int
//! dictionaries directly; string dictionaries through a per-block
//! code→global-id remap, since their codes are first-occurrence-ordered —
//! see [`corra_encodings::CodeOrder`]), after which per-row work is one
//! packed-code read and one array index. Surviving rows late-materialize
//! payload columns through the projection-pushdown [`BlockView`] reads,
//! so only touched blocks and only named columns decode.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::RangeVerdict;
use corra_columnar::selection::SelectionVector;
use corra_columnar::topk::{rank, TopKHeap};
use corra_encodings::{DictStr, IntEncoding, TopKInt};
use rustc_hash::FxHashMap;

use crate::compressor::{BlockView, ColumnCodec};
use crate::morsel::{BlockCost, BlockSource};
use crate::query::{eval_formula_mask, int_column, query_column, IntColumn, QueryOutput};
use crate::scan::{column_bounds, scan_pruned, validate_pred, Predicate, ScanStats};

/// A TOP-K (`ORDER BY <column> LIMIT k`) over one integer column, with an
/// optional pushed-down filter.
#[derive(Debug, Clone)]
pub struct TopKExpr {
    column: String,
    k: usize,
    descending: bool,
    filter: Option<Predicate>,
}

impl TopKExpr {
    /// The `k` smallest values of `column` (ascending order).
    pub fn asc(column: impl Into<String>, k: usize) -> Self {
        Self {
            column: column.into(),
            k,
            descending: false,
            filter: None,
        }
    }

    /// The `k` largest values of `column` (descending order).
    pub fn desc(column: impl Into<String>, k: usize) -> Self {
        Self {
            column: column.into(),
            k,
            descending: true,
            filter: None,
        }
    }

    /// A full ORDER BY: every row, ordered. (`k = usize::MAX`.)
    pub fn order_by(column: impl Into<String>, descending: bool) -> Self {
        Self {
            column: column.into(),
            k: usize::MAX,
            descending,
            filter: None,
        }
    }

    /// Restricts the operator to rows matching `pred`.
    pub fn with_filter(mut self, pred: Predicate) -> Self {
        self.filter = Some(pred);
        self
    }

    /// The ordered column.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The row bound.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether larger values rank first.
    pub fn descending(&self) -> bool {
        self.descending
    }

    /// The pushed-down filter, if any.
    pub fn filter(&self) -> Option<&Predicate> {
        self.filter.as_ref()
    }
}

/// Addresses one row of a multi-block table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId {
    /// Block number (global across segments for segmented drivers).
    pub block: u32,
    /// Row within the block.
    pub row: u32,
}

/// One TOP-K result row: the ordering value plus the row it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKRow {
    /// The value of the ordered column at this row.
    pub value: i64,
    /// Block number the row lives in.
    pub block: u32,
    /// Row within the block.
    pub row: u32,
}

impl TopKRow {
    /// The row's address.
    pub fn id(&self) -> RowId {
        RowId {
            block: self.block,
            row: self.row,
        }
    }
}

/// The k-th bound every TOP-K driver shares across its blocks (at any
/// thread count): a mutex-protected global heap plus a lock-free snapshot
/// of the current k-th value's rank for block-level pruning.
pub struct TopKBound {
    heap: Mutex<TopKHeap>,
    /// Rank of the k-th (worst kept) value once the heap is full;
    /// `u64::MAX` (accept everything) until then.
    worst: AtomicU64,
}

impl TopKBound {
    /// An empty bound for a `k`-row heap. Drivers handle `k == 0`
    /// themselves (nothing can enter, so every block is skippable).
    pub fn new(k: usize, descending: bool) -> Self {
        Self {
            heap: Mutex::new(TopKHeap::new(k, descending)),
            worst: AtomicU64::new(u64::MAX),
        }
    }

    /// Snapshot of the k-th value's rank, present once the heap is full.
    pub fn worst_rank(&self) -> Option<u64> {
        let w = self.worst.load(Ordering::Relaxed);
        (w != u64::MAX).then_some(w)
    }

    /// Folds one block's local heap into the global one and refreshes the
    /// pruning snapshot.
    pub fn merge(&self, local: TopKHeap) {
        let mut heap = self.heap.lock().unwrap();
        for (v, p) in local.into_sorted() {
            heap.offer(v, p);
        }
        if let Some(r) = heap.worst_rank() {
            self.worst.store(r, Ordering::Relaxed);
        }
    }

    /// Consumes the bound, returning the global result best-first.
    pub fn into_rows(self) -> Vec<TopKRow> {
        self.heap
            .into_inner()
            .expect("a worker panicked while merging into the bound")
            .into_sorted()
            .into_iter()
            .map(|(value, pos)| TopKRow {
                value,
                block: (pos >> 32) as u32,
                row: pos as u32,
            })
            .collect()
    }
}

/// Whether the block's value zone proves no row can enter a heap whose
/// k-th value has rank `worst`. Strictness matters: a zone *equal* to the
/// bound may still win on the position tie-break (the heap can hold
/// entries from later-numbered blocks under morsel interleaving), so only
/// a strictly worse zone is skippable.
fn zone_skips_topk(
    zone: Option<corra_columnar::stats::ZoneMap>,
    descending: bool,
    worst: Option<u64>,
) -> bool {
    match (zone, worst) {
        (Some(zone), Some(worst)) => {
            let best = if descending { zone.max } else { zone.min };
            rank(best, descending) > worst
        }
        _ => false,
    }
}

fn offer_selected<B: BlockView + ?Sized>(
    block: &B,
    idx: usize,
    base: u64,
    sel: &SelectionVector,
    heap: &mut TopKHeap,
) -> Result<()> {
    match int_column(block, idx)? {
        IntColumn::Vertical(enc) => enc.top_k_selected(base, sel, heap),
        IntColumn::NonHier { enc, refs } => {
            let mut out = Vec::new();
            enc.gather_map(sel, |i| refs.get(i), &mut out);
            for (&v, &p) in out.iter().zip(sel.positions()) {
                heap.offer(v, base + p as u64);
            }
        }
        IntColumn::Hier { enc, codes } => {
            for &p in sel.positions() {
                let i = p as usize;
                heap.offer(enc.get_unchecked_len(i, codes.code(i)), base + p as u64);
            }
        }
        IntColumn::MultiRef { enc, members } => {
            let mut out = Vec::new();
            enc.gather_masked(
                sel,
                |mask, i| eval_formula_mask(&members, mask, i),
                &mut out,
            );
            for (&v, &p) in out.iter().zip(sel.positions()) {
                heap.offer(v, base + p as u64);
            }
        }
    }
    Ok(())
}

fn offer_full<B: BlockView + ?Sized>(
    block: &B,
    idx: usize,
    base: u64,
    heap: &mut TopKHeap,
) -> Result<()> {
    match int_column(block, idx)? {
        IntColumn::Vertical(enc) => {
            enc.top_k_into(base, heap);
            Ok(())
        }
        IntColumn::Hier { enc, codes } => {
            for i in 0..block.rows() {
                heap.offer(enc.get_unchecked_len(i, codes.code(i)), base + i as u64);
            }
            Ok(())
        }
        // NonHier / MultiRef reconstruction runs through the same gather
        // kernels the query path uses, over a full selection.
        _ => {
            let sel = SelectionVector::new((0..block.rows() as u32).collect());
            offer_selected(block, idx, base, &sel, heap)
        }
    }
}

/// The TOP-K kernel: offers one block's candidates into `bound` through a
/// block-local heap. Blocks whose best possible value ranks strictly worse
/// than the bound's k-th value are skipped — from the footer zone before
/// any payload load when the block has one, else from codec bounds.
fn top_k_block_of<S: BlockSource + ?Sized>(
    src: &S,
    block: usize,
    expr: &TopKExpr,
    bound: &TopKBound,
) -> Result<((), BlockCost)> {
    let footer = src.footer(block);
    if let Some(f) = &footer {
        // Footer-only validation, so skipped blocks report the same errors
        // as evaluated ones.
        if f.is_string(&expr.column)? {
            return Err(Error::TypeMismatch {
                expected: "integer column for TOP-K",
                found: "string column",
            });
        }
        let filtered_out = match &expr.filter {
            Some(pred) => f.verdict(pred)? == RangeVerdict::None,
            None => false,
        };
        if f.rows() == 0
            || expr.k == 0
            || zone_skips_topk(f.zone_of(&expr.column), expr.descending, bound.worst_rank())
            || filtered_out
        {
            return Ok(((), BlockCost::footer(0)));
        }
    }
    let view = src.view(block)?;
    let idx = view.index_of(&expr.column)?;
    if expr.k == 0 {
        // Nothing can enter, but a malformed query must still fail.
        int_column(&view, idx)?;
        if let Some(pred) = &expr.filter {
            validate_pred(&view, pred)?;
        }
        return Ok(((), BlockCost::default()));
    }
    if footer.is_none()
        && zone_skips_topk(
            column_bounds(&view, idx),
            expr.descending,
            bound.worst_rank(),
        )
    {
        return Ok(((), BlockCost::ran::<S>(&view, true, 0)));
    }
    // Candidate positions are `(block << 32) | row`.
    let base = (block as u64) << 32;
    let mut local = TopKHeap::new(expr.k, expr.descending).bounded_by(bound.worst_rank());
    let (pruned, matched) = match &expr.filter {
        None => {
            offer_full(&view, idx, base, &mut local)?;
            (false, view.rows())
        }
        Some(pred) => {
            let (sel, pruned) = scan_pruned(&view, pred)?;
            if sel.is_empty() {
                // Still type-check the target column: a string target must
                // fail identically whether or not the filter matched.
                int_column(&view, idx)?;
            } else if sel.len() == view.rows() {
                // Full-block match: normalize to the unfiltered fast paths.
                offer_full(&view, idx, base, &mut local)?;
            } else {
                offer_selected(&view, idx, base, &sel, &mut local)?;
            }
            (pruned, sel.len())
        }
    };
    bound.merge(local);
    Ok(((), BlockCost::ran::<S>(&view, pruned, matched)))
}

/// TOP-K over every block of `src` on `threads` morsel workers sharing one
/// [`TopKBound`]. Serially, the bound after each block equals a single
/// heap fed every block in order, so serial pruning is deterministic.
pub(crate) fn top_k_source<S: BlockSource + Sync + ?Sized>(
    src: &S,
    expr: &TopKExpr,
    threads: usize,
) -> Result<(Vec<TopKRow>, ScanStats)> {
    let bound = TopKBound::new(expr.k, expr.descending);
    let (_, stats) = crate::morsel::drive(src, threads, |b| top_k_block_of(src, b, expr, &bound))?;
    Ok((bound.into_rows(), stats))
}

/// Serial TOP-K over in-memory blocks (any [`BlockView`] — compressed
/// blocks or store handles).
///
/// Result rows come back best-first with the deterministic tie-break
/// `(value, block, row)`; [`ScanStats::rows_matched`] counts rows that
/// passed the filter in non-pruned blocks.
///
/// # Errors
///
/// Unknown or non-integer target column, or an invalid filter.
pub fn top_k_blocks<B: BlockView>(
    blocks: &[B],
    expr: &TopKExpr,
) -> Result<(Vec<TopKRow>, ScanStats)> {
    // `B` need not be `Sync`, so this takes the executor's inline path.
    let bound = TopKBound::new(expr.k, expr.descending);
    let (_, stats) =
        crate::morsel::drive_inline(blocks, |b| top_k_block_of(blocks, b, expr, &bound))?;
    Ok((bound.into_rows(), stats))
}

/// [`top_k_blocks`] on `threads` morsel workers pruning against one shared
/// [`TopKBound`]. Result rows are bit-identical to [`top_k_blocks`] for
/// any `threads`.
///
/// # Errors
///
/// Everything [`top_k_blocks`] reports, plus a worker panic surfacing as
/// [`Error::InvalidData`].
pub fn top_k_blocks_parallel<B: BlockView + Sync>(
    blocks: &[B],
    expr: &TopKExpr,
    threads: usize,
) -> Result<(Vec<TopKRow>, ScanStats)> {
    top_k_source(blocks, expr, threads)
}

/// An inner equi-join between a build side and a probe side, keyed on
/// dictionary-encoded columns.
#[derive(Debug, Clone)]
pub struct JoinExpr {
    build_key: String,
    probe_key: String,
}

impl JoinExpr {
    /// Joins `build_key` (build side) against `probe_key` (probe side).
    pub fn on(build_key: impl Into<String>, probe_key: impl Into<String>) -> Self {
        Self {
            build_key: build_key.into(),
            probe_key: probe_key.into(),
        }
    }

    /// The build side's key column.
    pub fn build_key(&self) -> &str {
        &self.build_key
    }

    /// The probe side's key column.
    pub fn probe_key(&self) -> &str {
        &self.probe_key
    }
}

/// One matched row pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinPair {
    /// The build-side row.
    pub build: RowId,
    /// The probe-side row.
    pub probe: RowId,
}

/// Counters for one join execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Rows on the build side.
    pub build_rows: usize,
    /// Rows on the probe side.
    pub probe_rows: usize,
    /// Distinct keys in the build table.
    pub distinct_keys: usize,
    /// Matched pairs emitted.
    pub pairs: usize,
    /// Blocks and rows visited on both sides, plus bytes, cache traffic
    /// and segments for store-backed drivers (zero in memory).
    pub io: ScanStats,
}

enum KeySpace {
    Int(FxHashMap<i64, u32>),
    Str(FxHashMap<String, u32>),
}

/// One block's join-key dictionary: its distinct keys, and each row's
/// code into them.
enum BlockKeys<'a> {
    Int(&'a [i64]),
    Str(&'a DictStr),
}

impl<'a> BlockKeys<'a> {
    fn of<B: BlockView + ?Sized>(block: &'a B, key: &str, codes: &mut Vec<u32>) -> Result<Self> {
        match block.view_codec(block.index_of(key)?)? {
            ColumnCodec::Int(IntEncoding::Dict(d)) => {
                d.codes_into(codes);
                Ok(BlockKeys::Int(d.dict()))
            }
            ColumnCodec::Str(d) => {
                d.codes_into(codes);
                Ok(BlockKeys::Str(d))
            }
            other => Err(Error::invalid(format!(
                "join key '{key}' must be dictionary-encoded (got {})",
                other.scheme()
            ))),
        }
    }

    fn len(&self) -> usize {
        match self {
            BlockKeys::Int(values) => values.len(),
            BlockKeys::Str(d) => d.distinct(),
        }
    }
}

fn key_mismatch(expected_int: bool) -> Error {
    let (int, str) = ("int join key", "str join key");
    let (expected, found) = if expected_int { (int, str) } else { (str, int) };
    Error::TypeMismatch { expected, found }
}

/// The build side of a dict-code hash join: a global key table plus, per
/// key id, the build rows holding it (in `(block, row)` insertion order).
/// Each block's *distinct* keys are hashed once (the code→global-id
/// remap), after which per-row work is an array index. String codes are
/// first-occurrence-ordered (`codes_are_ordered() == false`), so nothing
/// compares codes across blocks.
struct BuildTable {
    space: Option<KeySpace>,
    rows_of: Vec<Vec<RowId>>,
    build_rows: usize,
}

impl BuildTable {
    /// Adds one build block's rows under their global key ids.
    fn add_block<B: BlockView + ?Sized>(
        &mut self,
        block: &B,
        block_no: u32,
        key: &str,
    ) -> Result<()> {
        let mut codes = Vec::new();
        let keys = BlockKeys::of(block, key, &mut codes)?;
        if self.space.is_none() && keys.len() == 0 {
            // A block without keys has no rows and does not fix the key type.
            return Ok(());
        }
        let space = self.space.get_or_insert_with(|| match keys {
            BlockKeys::Int(_) => KeySpace::Int(FxHashMap::default()),
            BlockKeys::Str(_) => KeySpace::Str(FxHashMap::default()),
        });
        let rows_of = &mut self.rows_of;
        let mut fresh = || {
            rows_of.push(Vec::new());
            rows_of.len() as u32 - 1
        };
        let remap: Vec<u32> = match (space, keys) {
            (KeySpace::Int(m), BlockKeys::Int(values)) => values
                .iter()
                .map(|&v| *m.entry(v).or_insert_with(&mut fresh))
                .collect(),
            (KeySpace::Str(m), BlockKeys::Str(d)) => (0..d.distinct())
                .map(|c| {
                    let s = d.pool().get(c);
                    match m.get(s) {
                        Some(&id) => id,
                        None => *m.entry(s.to_owned()).or_insert(fresh()),
                    }
                })
                .collect(),
            (_, keys) => return Err(key_mismatch(matches!(keys, BlockKeys::Int(_)))),
        };
        for (i, &c) in codes.iter().enumerate() {
            self.rows_of[remap[c as usize] as usize].push(RowId {
                block: block_no,
                row: i as u32,
            });
        }
        self.build_rows += codes.len();
        Ok(())
    }
}

/// Builds the key table over every block of `src`, serially: key ids are
/// assigned in first-occurrence order.
fn build_table<S: BlockSource + ?Sized>(src: &S, key: &str) -> Result<(BuildTable, ScanStats)> {
    let mut table = BuildTable {
        space: None,
        rows_of: Vec::new(),
        build_rows: 0,
    };
    let (_, io) = crate::morsel::drive_inline(src, |b| {
        let view = src.view(b)?;
        table.add_block(&view, b as u32, key)?;
        Ok(((), BlockCost::ran::<S>(&view, false, 0)))
    })?;
    Ok((table, io))
}

/// One probe block resolved against the build table: per code, the build
/// rows its key matches; the per-row codes; and the pairs they emit.
struct Probed<'t> {
    builds: Vec<&'t [RowId]>,
    codes: Vec<u32>,
    pairs: usize,
}

/// The probe kernel: resolves each *distinct* probe key against the
/// build table once, then counts the block's pairs.
fn probe_block<'t, S: BlockSource + ?Sized>(
    src: &S,
    block: usize,
    table: &'t BuildTable,
    key: &str,
) -> Result<(Probed<'t>, BlockCost)> {
    let view = src.view(block)?;
    let mut codes = Vec::new();
    let keys = BlockKeys::of(&view, key, &mut codes)?;
    let rows_of = |id: Option<&u32>| id.map_or(&[][..], |&id| &table.rows_of[id as usize][..]);
    let builds: Vec<&[RowId]> = match (&table.space, &keys) {
        // Empty build side: shape-check only, nothing matches.
        (None, _) => vec![&[]; keys.len()],
        (Some(KeySpace::Int(m)), BlockKeys::Int(values)) => {
            values.iter().map(|v| rows_of(m.get(v))).collect()
        }
        (Some(KeySpace::Str(m)), BlockKeys::Str(d)) => (0..d.distinct())
            .map(|c| rows_of(m.get(d.pool().get(c))))
            .collect(),
        (Some(space), _) => return Err(key_mismatch(matches!(space, KeySpace::Int(_)))),
    };
    let pairs = codes.iter().map(|&c| builds[c as usize].len()).sum();
    let cost = BlockCost::ran::<S>(&view, false, 0);
    Ok((
        Probed {
            builds,
            codes,
            pairs,
        },
        cost,
    ))
}

/// The join merge: sizes the pair list exactly from the per-block counts,
/// then fills each probe block's slice (pairs in probe-row order) on
/// `threads` morsel workers — no per-block lists to concatenate.
fn join_result(
    table: &BuildTable,
    build_io: ScanStats,
    (probed, probe_io): (Vec<Probed<'_>>, ScanStats),
    threads: usize,
) -> Result<(Vec<JoinPair>, JoinStats)> {
    let mut pairs = vec![JoinPair::default(); probed.iter().map(|p| p.pairs).sum()];
    let mut rest = pairs.as_mut_slice();
    let slices: Vec<Mutex<&mut [JoinPair]>> = probed
        .iter()
        .map(|p| {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(p.pairs);
            rest = tail;
            Mutex::new(out)
        })
        .collect();
    crate::morsel::run(probed.len(), threads, |b| {
        let mut out = slices[b].lock().expect("each slice is filled once");
        let mut next = 0;
        for (row, &c) in probed[b].codes.iter().enumerate() {
            let probe = RowId {
                block: b as u32,
                row: row as u32,
            };
            let builds = probed[b].builds[c as usize];
            for (slot, &build) in out[next..].iter_mut().zip(builds) {
                *slot = JoinPair { build, probe };
            }
            next += builds.len();
        }
        Ok(())
    })?;
    drop(slices);
    let mut io = build_io;
    io.absorb(&probe_io);
    let stats = JoinStats {
        build_rows: table.build_rows,
        probe_rows: probed.iter().map(|p| p.codes.len()).sum(),
        distinct_keys: table.rows_of.len(),
        pairs: pairs.len(),
        io,
    };
    Ok((pairs, stats))
}

/// Dict-code hash join of `build` against `probe`, with probe blocks on
/// `threads` morsel workers.
pub(crate) fn hash_join_source<S1, S2>(
    build: &S1,
    probe: &S2,
    expr: &JoinExpr,
    threads: usize,
) -> Result<(Vec<JoinPair>, JoinStats)>
where
    S1: BlockSource + ?Sized,
    S2: BlockSource + Sync + ?Sized,
{
    let (table, build_io) = build_table(build, &expr.build_key)?;
    let probed = crate::morsel::drive(probe, threads, |b| {
        probe_block(probe, b, &table, &expr.probe_key)
    })?;
    join_result(&table, build_io, probed, threads)
}

/// Serial dict-code hash join: builds over `build`, probes over `probe`.
///
/// Pairs come back in probe order — probe blocks ascending, probe rows
/// ascending within a block, build rows in `(block, row)` order within a
/// key — which is exactly what a decompress-then-hash-join oracle with
/// insertion-ordered buckets produces.
///
/// # Errors
///
/// Unknown key columns, a non-dictionary key codec, or mismatched key
/// types between the two sides.
pub fn hash_join_blocks<B1: BlockView, B2: BlockView>(
    build: &[B1],
    probe: &[B2],
    expr: &JoinExpr,
) -> Result<(Vec<JoinPair>, JoinStats)> {
    // `B2` need not be `Sync`, so the probe takes the executor's inline path.
    let (table, build_io) = build_table(build, &expr.build_key)?;
    let probed =
        crate::morsel::drive_inline(probe, |b| probe_block(probe, b, &table, &expr.probe_key))?;
    join_result(&table, build_io, probed, 1)
}

/// [`hash_join_blocks`] with probe blocks on `threads` morsel workers: the
/// build stays serial (key-table ids are assigned in first-occurrence
/// order) and per-block pair lists concatenate in block order —
/// bit-identical to [`hash_join_blocks`] for any `threads`.
///
/// # Errors
///
/// Everything [`hash_join_blocks`] reports, plus a worker panic surfacing
/// as [`Error::InvalidData`].
pub fn hash_join_blocks_parallel<B1: BlockView, B2: BlockView + Sync>(
    build: &[B1],
    probe: &[B2],
    expr: &JoinExpr,
    threads: usize,
) -> Result<(Vec<JoinPair>, JoinStats)> {
    hash_join_source(build, probe, expr, threads)
}

/// Late materialization for an arbitrary row-id list: `fetch` is called
/// once per *touched block* with a sorted deduplicated selection and the
/// full column list, and the per-block gathers are scattered back into
/// `ids` order. Store-backed callers hand a closure that opens one lazy
/// [`BlockView`] handle per block, so only the named columns load.
///
/// Returns one [`QueryOutput`] per requested column, each aligned with
/// `ids`. An empty `ids` yields empty integer outputs (there is no row to
/// reveal the column type).
///
/// # Errors
///
/// Whatever `fetch` reports (unknown columns, I/O, corruption).
pub fn gather_rows_with<F>(
    ids: &[RowId],
    columns: &[&str],
    mut fetch: F,
) -> Result<Vec<QueryOutput>>
where
    F: FnMut(u32, &SelectionVector, &[&str]) -> Result<Vec<QueryOutput>>,
{
    let mut by_block: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for id in ids {
        by_block.entry(id.block).or_default().push(id.row);
    }
    for rows in by_block.values_mut() {
        rows.sort_unstable();
        rows.dedup();
    }
    let mut fetched: BTreeMap<u32, Vec<QueryOutput>> = BTreeMap::new();
    for (&block, rows) in &by_block {
        let sel = SelectionVector::new(rows.clone());
        let outs = fetch(block, &sel, columns)?;
        debug_assert_eq!(outs.len(), columns.len());
        fetched.insert(block, outs);
    }
    (0..columns.len())
        .map(|ci| {
            // Each id's block output for column `ci`, and its slot in it.
            let at = |id: &RowId| {
                let j = by_block[&id.block].binary_search(&id.row);
                (&fetched[&id.block][ci], j.expect("id grouped above"))
            };
            let is_str = fetched
                .values()
                .next()
                .is_some_and(|outs| matches!(outs[ci], QueryOutput::Str(_)));
            Ok(if is_str {
                let rows = ids.iter().map(|id| {
                    let (out, j) = at(id);
                    Ok(out.as_str_rows()?[j].clone())
                });
                QueryOutput::Str(rows.collect::<Result<_>>()?)
            } else {
                let rows = ids.iter().map(|id| {
                    let (out, j) = at(id);
                    Ok(out.as_int()?[j])
                });
                QueryOutput::Int(rows.collect::<Result<_>>()?)
            })
        })
        .collect()
}

/// [`gather_rows_with`] over any source: one view per touched block.
pub(crate) fn gather_source<S: BlockSource + ?Sized>(
    src: &S,
    ids: &[RowId],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    gather_rows_with(ids, columns, |block, sel, cols| {
        let view = src.view(block as usize)?;
        cols.iter().map(|c| query_column(&view, c, sel)).collect()
    })
}

/// [`gather_rows_with`] over in-memory blocks.
///
/// # Errors
///
/// Unknown columns, or a row id referencing a block outside `blocks`.
pub fn gather_rows<B: BlockView>(
    blocks: &[B],
    ids: &[RowId],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    gather_source(blocks, ids, columns)
}

/// Materializes payload `columns` for TOP-K winners, aligned with `rows`.
///
/// # Errors
///
/// See [`gather_rows`].
pub fn top_k_materialize<B: BlockView>(
    blocks: &[B],
    rows: &[TopKRow],
    columns: &[&str],
) -> Result<Vec<QueryOutput>> {
    let ids: Vec<RowId> = rows.iter().map(TopKRow::id).collect();
    gather_rows(blocks, &ids, columns)
}

/// Materializes both sides of a join result: `build_columns` gather from
/// the build blocks, `probe_columns` from the probe blocks, each aligned
/// with `pairs`.
///
/// # Errors
///
/// See [`gather_rows`].
pub fn join_materialize<B1: BlockView, B2: BlockView>(
    build_blocks: &[B1],
    probe_blocks: &[B2],
    pairs: &[JoinPair],
    build_columns: &[&str],
    probe_columns: &[&str],
) -> Result<(Vec<QueryOutput>, Vec<QueryOutput>)> {
    let build_ids: Vec<RowId> = pairs.iter().map(|p| p.build).collect();
    let probe_ids: Vec<RowId> = pairs.iter().map(|p| p.probe).collect();
    Ok((
        gather_rows(build_blocks, &build_ids, build_columns)?,
        gather_rows(probe_blocks, &probe_ids, probe_columns)?,
    ))
}
