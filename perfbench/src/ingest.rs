//! The `ingest` workload: one writer appending with fsync-before-ack to
//! two `IngestTable`s on a real directory, compacting every
//! [`APPENDS_PER_CYCLE`] appends and verifying each compacted table
//! against running totals.
//!
//! The lineitem table's NonHier plans come from the optimizer
//! (`ColumnGraph::measure_sampled` + `greedy`) on the first batch; the
//! taxi table uses NonHier `dropoff` and MultiRef `total_amount`. Batches
//! are distinct and seeded, generated into a pool the loop cycles through.
//! Every cycle appends the whole pool and runs the same checks, so the
//! n-th sample of a series in a cycle is the same op on the same state in
//! every cycle: samples are keyed by that position and latencies are
//! summarised per request ([`crate::stats::request_mean`]).

use std::sync::Arc;
use std::time::Instant;

use corra_columnar::block::DataBlock;
use corra_core::ingest::{encode_segment, IngestConfig, IngestTable};
use corra_core::store::SegmentedTable;
use corra_core::vfs::{DirVfs, Vfs};
use corra_core::{
    compact, AggExpr, AggFunc, AggResult, AggValue, Assignment, ColumnGraph, CompactionConfig,
    CompressionConfig, TopKExpr,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{
    add_column_bytes, in_window, user_bytes, Family, Phase, SetupFacts, SetupRuns, WorkDir,
};
use crate::data;
use crate::oracle::{best_k, block_starts, Fold, Pred, RawTable, RowSet};
use crate::queries::{range_pred, SELECTIVITIES};
use crate::trace::{TracedVfs, Tracer};

/// Rows per lineitem batch.
pub const LINEITEM_BATCH: usize = 24_576;
/// Rows per taxi batch.
pub const TAXI_BATCH: usize = 12_288;
/// Distinct pre-generated batches per table.
const POOL_BATCHES: usize = 16;
/// Appends between compactions (alternating between the two tables).
pub const APPENDS_PER_CYCLE: usize = 32;
/// Fewest appends a run makes (1,000 samples leave 10 beyond a p99).
const MIN_APPENDS: usize = 1_024;
/// Appends per requested second: about the rate a 2-core box sustains,
/// compactions and verification included. The count is fixed (not the
/// time) so that the exact counters repeat for a seed.
const APPENDS_PER_SECOND: usize = 50;
/// `(k, descending)` of the verification TOP-Ks run on every fresh segment.
const TOPKS: [(usize, bool); 4] = [(10, false), (10, true), (100, false), (100, true)];
/// The largest `k` of [`TOPKS`]: the candidates the oracle keeps.
const TOPK_MAX: usize = 100;
/// Rows per block of a compacted segment.
const COMPACT_BLOCK_ROWS: usize = 65_536;
/// Rows the optimizer samples from the first batch.
const PLAN_SAMPLE_ROWS: usize = 8_192;

/// One pre-generated batch and its oracle summary.
struct Batch {
    blocks: Vec<DataBlock>,
    rows: u64,
    user: u64,
    /// One fold per column, schema order.
    folds: Vec<Fold>,
    /// Rows matching each verification predicate.
    hits: Vec<Vec<u32>>,
    asc: Vec<i64>,
    desc: Vec<i64>,
    /// The TOP-K column's values.
    topk_col: Vec<i64>,
}

/// One table's fixed inputs.
struct Spec {
    name: &'static str,
    columns: Vec<String>,
    plan: CompressionConfig,
    preds: Vec<Pred>,
    topk_col: &'static str,
    batches: Vec<Batch>,
    /// Segments at most this large are merged by compaction: twice a
    /// single append's segment, so merged segments stay out of later runs.
    merge_threshold: u64,
}

/// What a run of acknowledged appends added: rows, per-column folds,
/// the verification scan's matches and the TOP-K candidates.
#[derive(Clone, Default)]
struct Summary {
    rows: u64,
    folds: Vec<Fold>,
    scans: Vec<RowSet>,
    asc: Vec<i64>,
    desc: Vec<i64>,
}

impl Summary {
    fn new(columns: usize) -> Self {
        Self {
            folds: vec![Fold::new(AggFunc::Sum); columns],
            ..Self::default()
        }
    }

    fn add(&mut self, offset: u64, b: &Batch) {
        self.rows += b.rows;
        for (f, g) in self.folds.iter_mut().zip(&b.folds) {
            f.merge(g);
        }
        self.scans.resize(b.hits.len(), RowSet::default());
        for (set, hits) in self.scans.iter_mut().zip(&b.hits) {
            for &i in hits {
                set.add(offset + u64::from(i));
            }
        }
        self.asc = best_k(self.asc.iter().chain(&b.asc).copied(), TOPK_MAX, false);
        self.desc = best_k(self.desc.iter().chain(&b.desc).copied(), TOPK_MAX, true);
    }
}

/// Running truth for one table: the whole table, and the appends since
/// the last compaction.
struct Truth {
    whole: Summary,
    cycle: Summary,
    /// `(first global row, batch index)` of every acknowledged append.
    placed: Vec<(u64, usize)>,
}

impl Truth {
    fn new(columns: usize) -> Self {
        Self {
            whole: Summary::new(columns),
            cycle: Summary::new(columns),
            placed: Vec::new(),
        }
    }

    fn add(&mut self, bi: usize, b: &Batch) {
        let offset = self.whole.rows;
        self.placed.push((offset, bi));
        self.whole.add(offset, b);
        self.cycle.add(offset, b);
    }

    /// The value of the TOP-K column at global row `pos`.
    fn topk_value(&self, spec: &Spec, pos: u64) -> i64 {
        let k = self.placed.partition_point(|&(o, _)| o <= pos) - 1;
        let (offset, bi) = self.placed[k];
        spec.batches[bi].topk_col[(pos - offset) as usize]
    }
}

/// A prepared `ingest` run.
pub struct Ingest {
    work: WorkDir,
    specs: Vec<Spec>,
    cycles: usize,
    /// What set-up and the run measured.
    pub facts: SetupFacts,
}

/// The optimizer's NonHier plan for the first batch's integer columns.
fn optimizer_plan(table: &corra_columnar::block::Table) -> Result<CompressionConfig, String> {
    let cols: Vec<(&str, &[i64])> = table
        .schema()
        .fields()
        .iter()
        .zip(table.columns())
        .filter_map(|(f, c)| c.as_i64().ok().map(|v| (f.name(), v)))
        .collect();
    let graph = ColumnGraph::measure_sampled(&cols, PLAN_SAMPLE_ROWS).map_err(|e| e.to_string())?;
    let mut plan = CompressionConfig::baseline();
    for (i, a) in graph.greedy().into_iter().enumerate() {
        if let Assignment::DiffEncoded { reference } = a {
            plan.set(
                graph.names()[i].as_str(),
                data::nonhier(&graph.names()[reference]),
            );
        }
    }
    Ok(plan)
}

fn ingest_config(plan: &CompressionConfig, block_rows: usize) -> IngestConfig {
    IngestConfig {
        block_rows,
        threads: 1,
        compression: plan.clone(),
        ..IngestConfig::default()
    }
}

impl Ingest {
    /// Generates the batch pools and plans as `runs` asks (reporting the
    /// median as `setup_s`), then summarises every batch for the oracle.
    ///
    /// # Errors
    ///
    /// Library failures during set-up.
    pub fn setup(
        seed: u64,
        seconds: u64,
        runs: SetupRuns,
        tracer: &Arc<Tracer>,
    ) -> Result<(Self, Vec<f64>), String> {
        let work = WorkDir::create("ingest").map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        let mut last = None;
        while runs.again(&times) {
            drop(last.take());
            let t = Instant::now();
            let (li, tx) = {
                let _op = tracer.op("datagen");
                let li: Vec<_> = (0..POOL_BATCHES as u64)
                    .map(|i| {
                        data::lineitem(LINEITEM_BATCH, seed.wrapping_mul(1_000).wrapping_add(i))
                    })
                    .collect();
                let tx: Vec<_> = (0..POOL_BATCHES as u64)
                    .map(|i| data::taxi(TAXI_BATCH, seed.wrapping_mul(1_000).wrapping_add(500 + i)))
                    .collect();
                (li, tx)
            };
            let li_plan = {
                let _op = tracer.op("optimizer");
                optimizer_plan(&li[0])?
            };
            let mut thresholds = Vec::new();
            for (tables, plan, rows) in [
                (&li, &li_plan, LINEITEM_BATCH),
                (&tx, &data::taxi_plan(), TAXI_BATCH),
            ] {
                let _op = tracer.op("compressor");
                let blocks = tables[0].clone().into_blocks(rows);
                let seg = encode_segment(&blocks, &ingest_config(plan, rows))
                    .map_err(|e| e.to_string())?;
                thresholds.push(2 * seg.bytes().len() as u64);
            }
            times.push(t.elapsed().as_secs_f64());
            last = Some((li, tx, li_plan, thresholds));
        }
        let (li, tx, li_plan, thresholds) = last.expect("at least one set-up");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1a9e);
        let mut specs = Vec::new();
        for (name, tables, plan, rows, pred_col, topk_col, threshold) in [
            (
                "lineitem",
                li,
                li_plan,
                LINEITEM_BATCH,
                "l_receiptdate",
                "l_commitdate",
                thresholds[0],
            ),
            (
                "taxi",
                tx,
                data::taxi_plan(),
                TAXI_BATCH,
                "total_amount",
                "dropoff",
                thresholds[1],
            ),
        ] {
            let columns: Vec<String> = tables[0]
                .schema()
                .fields()
                .iter()
                .map(|f| f.name().to_owned())
                .collect();
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            let first = RawTable::keep(&tables[0], &names);
            let preds: Vec<Pred> = SELECTIVITIES
                .iter()
                .map(|&sel| range_pred(&first, pred_col, sel, &mut rng))
                .collect();
            let batches = tables
                .into_iter()
                .map(|t| {
                    let raw = RawTable::keep(&t, &names);
                    let folds = names
                        .iter()
                        .map(|c| {
                            let mut f = Fold::new(AggFunc::Sum);
                            raw.ints(c).iter().for_each(|&v| f.add(v));
                            f
                        })
                        .collect();
                    let hits = preds
                        .iter()
                        .map(|p| {
                            let mask = p.mask(&raw);
                            (0..mask.len() as u32)
                                .filter(|&i| mask[i as usize])
                                .collect()
                        })
                        .collect();
                    let topk_col = raw.ints(topk_col).to_vec();
                    Batch {
                        rows: t.rows() as u64,
                        user: user_bytes(&t),
                        folds,
                        hits,
                        asc: best_k(topk_col.iter().copied(), TOPK_MAX, false),
                        desc: best_k(topk_col.iter().copied(), TOPK_MAX, true),
                        topk_col,
                        blocks: t.into_blocks(rows),
                    }
                })
                .collect();
            specs.push(Spec {
                name,
                columns,
                plan,
                preds,
                topk_col,
                batches,
                merge_threshold: threshold,
            });
        }
        let appends = MIN_APPENDS.max(seconds as usize * APPENDS_PER_SECOND);
        let cycles = appends.div_ceil(APPENDS_PER_CYCLE);
        let facts = SetupFacts {
            context: vec![
                ("lineitem_batch_rows", LINEITEM_BATCH.to_string()),
                ("taxi_batch_rows", TAXI_BATCH.to_string()),
                ("appends", (cycles * APPENDS_PER_CYCLE).to_string()),
                ("appends_per_compaction", APPENDS_PER_CYCLE.to_string()),
                ("compacted_block_rows", COMPACT_BLOCK_ROWS.to_string()),
                (
                    "fsync",
                    "before every ack (segment, manifest, directory)".to_owned(),
                ),
            ],
            ..SetupFacts::default()
        };
        Ok((
            Self {
                work,
                specs,
                cycles,
                facts,
            },
            times,
        ))
    }

    /// Runs the append/compact/verify loop on fresh tables, then recovers
    /// both tables and checks them. `Err` is a wrong answer.
    ///
    /// # Errors
    ///
    /// An answer that differs from the running totals, or a directory
    /// failure.
    pub fn run(&mut self, tracer: &Arc<Tracer>) -> Result<Phase, String> {
        let mut dirs = Vec::new();
        let mut tables = Vec::new();
        for spec in &self.specs {
            let dir = self.work.fresh(spec.name).map_err(|e| e.to_string())?;
            let raw: Arc<dyn Vfs> =
                Arc::new(DirVfs::create(dir.clone()).map_err(|e| e.to_string())?);
            let vfs: Arc<dyn Vfs> = if tracer.enabled() {
                Arc::new(TracedVfs::new(raw, Arc::clone(tracer)))
            } else {
                raw
            };
            let rows = spec.batches[0].rows as usize;
            tables.push(
                IngestTable::create(vfs, ingest_config(&spec.plan, rows))
                    .map_err(|e| e.to_string())?,
            );
            dirs.push(dir);
        }
        let mut truth: Vec<Truth> = self
            .specs
            .iter()
            .map(|s| Truth::new(s.columns.len()))
            .collect();
        let start = Instant::now();
        let mut phase = Phase::default();
        let (result, window) = in_window(tracer, || -> Result<(), String> {
            let mut appended = [0usize; 2];
            for _ in 0..self.cycles {
                phase.start_cycle();
                for j in 0..APPENDS_PER_CYCLE {
                    let ti = j % 2;
                    let bi = appended[ti] % POOL_BATCHES;
                    let batch = &self.specs[ti].batches[bi];
                    let t = Instant::now();
                    let receipt = {
                        let _op = tracer.op("ingest.append");
                        tables[ti].append_blocks(&batch.blocks)
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    if let Some(r) = phase.record(receipt) {
                        if r.rows != batch.rows {
                            return Err(format!(
                                "append acknowledged {} of {} rows",
                                r.rows, batch.rows
                            ));
                        }
                        truth[ti].add(bi, batch);
                        appended[ti] += 1;
                        phase.ops += 1;
                        phase.counters.user_bytes_acked += batch.user;
                        phase.counters.rows_acked += batch.rows;
                        phase.sample("op", ms);
                        phase.sample("append", ms);
                    }
                }
                for ti in 0..tables.len() {
                    self.compact_and_verify(
                        ti,
                        &mut tables[ti],
                        &mut truth[ti],
                        tracer,
                        &mut phase,
                    )?;
                }
            }
            Ok(())
        });
        result?;
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.window = window;

        // Exact stored bytes, then recovery from the directories alone.
        let mut disk = 0u64;
        let mut column_bytes = Default::default();
        for t in &tables {
            disk += t
                .manifest()
                .segments
                .iter()
                .map(|s| s.file_len)
                .sum::<u64>();
            let reader = t.reader().map_err(|e| e.to_string())?;
            for seg in reader.segments() {
                add_column_bytes(seg.footer(), &mut column_bytes);
            }
        }
        drop(tables);
        for (ti, dir) in dirs.into_iter().enumerate() {
            let vfs: Arc<dyn Vfs> = Arc::new(DirVfs::new(dir));
            let spec = &self.specs[ti];
            let cfg = ingest_config(&spec.plan, spec.batches[0].rows as usize);
            let Some(t) = phase.record(IngestTable::open(vfs, cfg)) else {
                continue;
            };
            let whole = &truth[ti].whole;
            if t.rows() != whole.rows {
                return Err(format!(
                    "{}: recovered {} rows, acknowledged {}",
                    spec.name,
                    t.rows(),
                    whole.rows
                ));
            }
            let Some(reader) = phase.record(t.reader()) else {
                continue;
            };
            // Untimed: the checks count as attempted ops but add no samples.
            let mut untimed = Phase::default();
            let funcs = [AggFunc::Sum, AggFunc::Min, AggFunc::Max];
            check_aggregates(
                spec,
                &reader,
                whole,
                &funcs,
                &Tracer::new(false),
                &mut untimed,
            )?;
            phase.attempted += untimed.attempted;
            phase.failed += untimed.failed;
        }
        self.facts.bytes_per_user_byte = disk as f64 / phase.counters.user_bytes_acked as f64;
        self.facts.column_bytes = column_bytes;
        self.facts
            .set("rows", phase.counters.rows_acked.to_string());
        self.facts.set("file_bytes", disk.to_string());
        self.facts
            .set("cache_budget_bytes", "none (no cache)".to_owned());
        Ok(phase)
    }

    /// Compacts the cycle's appended segments into one, then checks the
    /// whole table's `COUNT(*)` and the fresh segment's `COUNT`/`SUM`/
    /// `MIN`/`MAX` of every column, scan and TOP-K against the cycle's
    /// running totals. (Whole-table sums are checked once, after
    /// recovery, so verification work stays constant per cycle.)
    fn compact_and_verify(
        &self,
        ti: usize,
        table: &mut IngestTable,
        truth: &mut Truth,
        tracer: &Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let spec = &self.specs[ti];
        let cfg = CompactionConfig {
            min_segments: 2,
            merge_threshold_bytes: spec.merge_threshold,
            block_rows: COMPACT_BLOCK_ROWS,
            compression: spec.plan.clone(),
            threads: 1,
        };
        let t = Instant::now();
        let result = {
            let _op = tracer.op("compact");
            compact(table, &cfg)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(r) = phase.record(result) {
            if !r.compacted || r.rows != truth.cycle.rows || table.rows() != truth.whole.rows {
                return Err(format!(
                    "{}: compaction did not merge the cycle's appends: {r:?}",
                    spec.name
                ));
            }
            phase.sample("compact", ms);
            let c = &mut phase.counters;
            c.compact_bytes_in += r.bytes_before;
            c.compact_bytes_out += r.bytes_after;
            c.compact_segments += (r.segments_before + 1 - r.segments_after) as u64;
        }
        let reader = {
            let _op = tracer.op("store.open");
            table.reader()
        };
        let Some(reader) = phase.record(reader) else {
            return Ok(());
        };
        check_aggregates(spec, &reader, &truth.whole, &[], tracer, phase)?;

        let cycle = std::mem::replace(&mut truth.cycle, Summary::new(spec.columns.len()));
        let seg = reader
            .segments()
            .last()
            .expect("a compacted table has segments");
        if seg.rows_total() as u64 != cycle.rows {
            return Err(format!(
                "{}: fresh segment holds {} rows, not {}",
                spec.name,
                seg.rows_total(),
                cycle.rows
            ));
        }
        let fresh = SegmentedTable::from_readers(vec![Arc::clone(seg)]);
        let seg_start = truth.whole.rows - cycle.rows;
        check_aggregates(
            spec,
            &fresh,
            &cycle,
            &[AggFunc::Sum, AggFunc::Min, AggFunc::Max],
            tracer,
            phase,
        )?;

        let starts: Vec<u64> = segmented_starts(&fresh)
            .into_iter()
            .map(|s| s + seg_start)
            .collect();
        for (pred, want) in spec.preds.iter().zip(&cycle.scans) {
            let t = Instant::now();
            let scan = {
                let _op = tracer.op("scan");
                fresh.scan_blocks(&pred.to_library())
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let Some((sels, stats)) = phase.record(scan) else {
                continue;
            };
            if RowSet::from_selections(&sels, &starts) != *want {
                return Err(format!(
                    "{}: scan {pred:?} disagrees with the oracle",
                    spec.name
                ));
            }
            phase.counters.absorb(Family::Scan, &stats);
            phase.sample("scan", ms);
        }
        for (k, descending) in TOPKS {
            let expr = if descending {
                TopKExpr::desc(spec.topk_col, k)
            } else {
                TopKExpr::asc(spec.topk_col, k)
            };
            let t = Instant::now();
            let top = {
                let _op = tracer.op("topk");
                fresh.top_k(&expr)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let Some((rows, stats)) = phase.record(top) else {
                continue;
            };
            let best = if descending { &cycle.desc } else { &cycle.asc };
            let want = &best[..k.min(best.len())];
            let got: Vec<i64> = rows.iter().map(|r| r.value).collect();
            if got != want {
                return Err(format!(
                    "{}: top-{k} {got:?} != expected {want:?}",
                    spec.name
                ));
            }
            for r in &rows {
                let pos = starts[r.block as usize] + u64::from(r.row);
                let v = truth.topk_value(spec, pos);
                if v != r.value {
                    return Err(format!(
                        "{}: top-k row {pos} holds {v}, not {}",
                        spec.name, r.value
                    ));
                }
            }
            phase.counters.absorb(Family::TopK, &stats);
            phase.sample("topk", ms);
        }
        Ok(())
    }
}

/// `COUNT(*)` plus each of `funcs` over every column of `reader`, against
/// `want`'s folds.
fn check_aggregates(
    spec: &Spec,
    reader: &SegmentedTable,
    want: &Summary,
    funcs: &[AggFunc],
    tracer: &Tracer,
    phase: &mut Phase,
) -> Result<(), String> {
    let mut exprs = vec![(
        AggExpr::count(),
        AggResult::Scalar(AggValue::Count(want.rows)),
    )];
    for (c, fold) in spec.columns.iter().zip(&want.folds) {
        for &func in funcs {
            exprs.push((
                AggExpr::of(func, c),
                AggResult::Scalar(fold.finish_as(func)),
            ));
        }
    }
    for (expr, expected) in exprs {
        let t = Instant::now();
        let got = {
            let _op = tracer.op("aggregate");
            reader.aggregate(&expr)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Some((got, stats)) = phase.record(got) else {
            continue;
        };
        if got != expected {
            return Err(format!(
                "{}: {expr:?} = {got:?}, expected {expected:?}",
                spec.name
            ));
        }
        phase.counters.absorb(Family::Agg, &stats);
        phase.sample("agg", ms);
    }
    Ok(())
}

/// First global row of every block of a segmented table.
fn segmented_starts(reader: &SegmentedTable) -> Vec<u64> {
    block_starts(
        reader
            .segments()
            .iter()
            .flat_map(|s| s.footer().blocks.iter().map(|b| b.rows as usize)),
    )
}
