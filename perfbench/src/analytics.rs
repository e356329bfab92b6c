//! The `analytics` workload: one client, intra-query parallelism, and a
//! working set four times the program's own cache.
//!
//! Four Table 2 tables of [`ROWS`] rows each (lineitem, taxi, DMV,
//! message) in [`BLOCK_ROWS`]-row blocks, plus four small dimension
//! tables, are written as table files. The timed phase runs a seeded
//! stream of scans, aggregates, TOP-K and dictionary-code joins, one at a
//! time, each on the library's 2-thread `*_parallel` store driver where
//! one exists, through a `ShardedCache` sized at a quarter of the fact
//! files' bytes. Nothing is written while timing.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corra_columnar::column::Column;
use corra_columnar::strings::StringPool;
use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::store::TableReader;
use corra_core::{compress_blocks, AggFunc, ColumnPlan, CompressionConfig, JoinExpr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    add_column_bytes, cache_delta, in_window, user_bytes, Family, Phase, SetupFacts, SetupRuns,
    WorkDir, THREADS,
};
use crate::data;
use crate::oracle::{shuffle, Agg, Pred, RawTable, RowSet, TopK};
use crate::queries::{check_topk, range_pred, Expected, Query, SELECTIVITIES};
use crate::trace::Tracer;

/// Rows per fact table.
pub const ROWS: usize = 1 << 20;
/// Rows per block.
pub const BLOCK_ROWS: usize = 65_536;
/// Fewest ops a run makes, however long they take.
const MIN_OPS: u64 = 1_000;
/// Rounds of the query mix, each shuffled on its own, which the timed
/// phase cycles through until its time is up.
const STREAM_ROUNDS: usize = 16;
/// Cache budget as a share of the fact files' bytes.
const CACHE_SHARE: f64 = 0.25;

const LINEITEM: usize = 0;
const TAXI: usize = 1;
const DMV: usize = 2;
const MESSAGE: usize = 3;
const FACTS: usize = 4;

/// Integer columns each fact table's scans, aggregates and TOP-K use.
const INT_COLUMNS: [&[&str]; FACTS] = [
    &["l_shipdate", "l_commitdate", "l_receiptdate"],
    &[
        "pickup",
        "dropoff",
        "fare_amount",
        "tip_amount",
        "total_amount",
    ],
    &["zip"],
    &["countryid", "ip"],
];

/// A prepared `analytics` run.
pub struct Analytics {
    _work: WorkDir,
    paths: Vec<PathBuf>,
    starts: Vec<Vec<u64>>,
    raw: Vec<RawTable>,
    pool: Vec<(Query, Expected)>,
    rounds: Vec<Vec<usize>>,
    budget: u64,
    /// Length of the timed phase, seconds.
    seconds: f64,
    /// What set-up measured.
    pub facts: SetupFacts,
}

struct Built {
    paths: Vec<PathBuf>,
    file_bytes: Vec<u64>,
    raw: Vec<RawTable>,
    column_bytes: BTreeMap<String, u64>,
    user_bytes: u64,
    /// Time spent copying rows for the oracle: not set-up work.
    oracle: Duration,
}

/// Generates, compresses, writes, opens and warms every table once.
fn build(seed: u64, tracer: &Arc<Tracer>, work: &WorkDir) -> Result<Built, String> {
    let mut built = Built {
        paths: Vec::new(),
        file_bytes: Vec::new(),
        raw: Vec::new(),
        column_bytes: BTreeMap::new(),
        user_bytes: 0,
        oracle: Duration::ZERO,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa11a);
    let add = |name: &str,
               table: corra_columnar::block::Table,
               keep: &[&str],
               plan: &CompressionConfig,
               built: &mut Built|
     -> Result<(), String> {
        let oracle = Instant::now();
        built.raw.push(RawTable::keep(&table, keep));
        let fact = built.paths.len() < FACTS;
        if fact {
            built.user_bytes += user_bytes(&table);
        }
        built.oracle += oracle.elapsed();
        let schema = table.schema().clone();
        let blocks = {
            let _op = tracer.op("compressor");
            compress_blocks(&table.into_blocks(BLOCK_ROWS), plan, THREADS)
                .map_err(|e| e.to_string())?
        };
        let path = work.path().join(format!("{name}.corra"));
        let bytes = data::write_file(&path, schema, &blocks).map_err(|e| e.to_string())?;
        drop(blocks);
        let reader = data::open_reader(&path, None, tracer).map_err(|e| e.to_string())?;
        if fact {
            add_column_bytes(reader.footer(), &mut built.column_bytes);
        }
        for b in 0..reader.n_blocks() {
            reader.read_block(b).map_err(|e| e.to_string())?;
        }
        built.paths.push(path);
        built.file_bytes.push(bytes);
        Ok(())
    };
    let gen = |f: &dyn Fn() -> corra_columnar::block::Table| {
        let _op = tracer.op("datagen");
        f()
    };
    let t = gen(&|| data::sorted_by(data::lineitem(ROWS, seed), "l_shipdate"));
    add(
        "lineitem",
        t,
        INT_COLUMNS[LINEITEM],
        &data::lineitem_plan(),
        &mut built,
    )?;
    let t = gen(&|| data::sorted_by(data::taxi(ROWS, seed ^ 1), "pickup"));
    add("taxi", t, INT_COLUMNS[TAXI], &data::taxi_plan(), &mut built)?;
    let t = gen(&|| data::dmv(ROWS, seed ^ 2));
    add(
        "dmv",
        t,
        &["state", "city", "zip"],
        &data::dmv_plan(),
        &mut built,
    )?;
    let t = gen(&|| data::message(ROWS, seed ^ 3));
    add(
        "message",
        t,
        INT_COLUMNS[MESSAGE],
        &data::message_plan(),
        &mut built,
    )?;

    // Dimension tables: seeded subsets of the countries and cities.
    let dims = {
        let _op = tracer.op("datagen");
        let countries: Vec<i64> = {
            let mut ids: Vec<i64> = built.raw[MESSAGE].ints("countryid").to_vec();
            ids.sort_unstable();
            ids.dedup();
            ids
        };
        let cities: Vec<String> = {
            let Column::Utf8(pool) = built.raw[DMV].col("city") else {
                unreachable!("city is a string column")
            };
            let set: HashSet<&str> = pool.iter().collect();
            let mut v: Vec<String> = set.into_iter().map(str::to_owned).collect();
            v.sort_unstable();
            v
        };
        let mut dims = Vec::new();
        for share in [0.3, 0.7] {
            let keys: Vec<i64> = countries
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(share))
                .collect();
            let weights = keys.iter().map(|_| rng.gen_range(1..1000)).collect();
            dims.push((
                "countryid",
                data::dimension("countryid", Column::Int64(keys), weights),
            ));
        }
        for share in [0.05, 0.5] {
            let mut keys = StringPool::new();
            let mut weights = Vec::new();
            for c in &cities {
                if rng.gen_bool(share) {
                    keys.push(c);
                    weights.push(rng.gen_range(1..1000));
                }
            }
            dims.push(("city", data::dimension("city", Column::Utf8(keys), weights)));
        }
        dims
    };
    for (i, (key, table)) in dims.into_iter().enumerate() {
        let plan = CompressionConfig::baseline().with(key, ColumnPlan::Dict);
        add(&format!("dim{i}"), table, &[key], &plan, &mut built)?;
    }
    Ok(built)
}

/// Times each join runs per round of the stream (the other queries run
/// once), so joins make about a tenth of the ops.
const JOIN_WEIGHT: usize = 4;

/// The query pool over the fact tables (0..4) and the dimension tables
/// (4..8). Its shape is fixed — every (table, column, selectivity)
/// combination of each query template — so the mix of work is the same
/// for every seed; the seed picks only the predicate bounds and the data.
/// Each entry comes with the number of times it runs per round.
fn query_pool(raw: &[RawTable], rng: &mut StdRng) -> Vec<(Query, usize)> {
    let mut pool = Vec::new();
    let mut push = |q: Query, weight: usize| pool.push((q, weight));
    for (table, cols) in INT_COLUMNS.iter().enumerate() {
        let raw = &raw[table];
        for (ci, &col) in cols.iter().enumerate() {
            for sel in SELECTIVITIES {
                let pred = range_pred(raw, col, sel, rng);
                push(Query::Scan { table, pred }, 1);
            }
            // Filters range over the next column of the table, so
            // aggregates mix pushdown on one column with a fold on another.
            let other = cols[(ci + 1) % cols.len()];
            let filtered = |func, sel, rng: &mut StdRng| Agg {
                filter: Some(range_pred(raw, other, sel, rng)),
                ..Agg::plain(func, (func != AggFunc::Count).then_some(col))
            };
            for agg in [
                filtered(AggFunc::Count, 0.1, rng),
                filtered(AggFunc::Sum, 0.01, rng),
                Agg::plain(AggFunc::Sum, Some(col)),
                Agg::plain(AggFunc::Min, Some(col)),
                Agg::plain(AggFunc::Max, Some(col)),
            ] {
                push(Query::Agg { table, agg }, 1);
            }
            for (k, descending, filter) in [
                (10, false, None),
                (100, true, None),
                (10, false, Some(range_pred(raw, other, 0.1, rng))),
            ] {
                let topk = TopK {
                    column: col.to_owned(),
                    k,
                    descending,
                    filter,
                };
                push(Query::TopK { table, topk }, 1);
            }
        }
    }
    for col in ["state", "city"] {
        let Column::Utf8(p) = raw[DMV].col(col) else {
            unreachable!("string column")
        };
        for _ in 0..2 {
            let v = p.get(rng.gen_range(0..p.len())).to_owned();
            push(
                Query::Scan {
                    table: DMV,
                    pred: Pred::StrEq(col.to_owned(), v),
                },
                1,
            );
        }
    }
    let grouped = [
        (DMV, AggFunc::Sum, Some("zip"), "state", None),
        (DMV, AggFunc::Count, None, "city", None),
        (
            DMV,
            AggFunc::Sum,
            Some("zip"),
            "city",
            Some(range_pred(&raw[DMV], "zip", 0.1, rng)),
        ),
        (MESSAGE, AggFunc::Max, Some("ip"), "countryid", None),
        (
            MESSAGE,
            AggFunc::Count,
            None,
            "countryid",
            Some(range_pred(&raw[MESSAGE], "ip", 0.1, rng)),
        ),
    ];
    for (table, func, col, group, filter) in grouped {
        let agg = Agg {
            group_by: Some(group.to_owned()),
            filter,
            ..Agg::plain(func, col)
        };
        push(Query::Agg { table, agg }, 1);
    }
    for dim in 0..4 {
        let (probe, key) = if dim < 2 {
            (MESSAGE, "countryid")
        } else {
            (DMV, "city")
        };
        let q = Query::Join {
            build: FACTS + dim,
            probe,
            key: key.to_owned(),
        };
        push(q, JOIN_WEIGHT);
    }
    pool
}

impl Analytics {
    /// Sets up as `runs` asks (reporting the median as `setup_s`) and
    /// computes the oracle answers once.
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
        let work = WorkDir::create("analytics").map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        let mut last = None;
        while runs.again(&times) {
            drop(last.take());
            let t = Instant::now();
            let built = build(seed, tracer, &work)?;
            times.push((t.elapsed() - built.oracle).as_secs_f64());
            last = Some(built);
        }
        let built = last.expect("at least one set-up");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e11);
        let weighted = query_pool(&built.raw, &mut rng);
        let round: Vec<usize> = weighted
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, w))| std::iter::repeat_n(i, w))
            .collect();
        let pool: Vec<(Query, Expected)> = weighted
            .into_iter()
            .map(|(q, _)| {
                let want = q.expected(&built.raw);
                (q, want)
            })
            .collect();
        let rounds: Vec<Vec<usize>> = (0..STREAM_ROUNDS)
            .map(|_| {
                let mut r = round.clone();
                shuffle(&mut r, &mut rng);
                r
            })
            .collect();
        let round_len = round.len();
        let fact_bytes: u64 = built.file_bytes[..FACTS].iter().sum();
        let budget = (fact_bytes as f64 * CACHE_SHARE) as u64;
        let starts = built
            .raw
            .iter()
            .map(|r| {
                crate::oracle::block_starts(
                    (0..r.rows().div_ceil(BLOCK_ROWS))
                        .map(|b| BLOCK_ROWS.min(r.rows() - b * BLOCK_ROWS)),
                )
            })
            .collect();
        let facts = SetupFacts {
            bytes_per_user_byte: fact_bytes as f64 / built.user_bytes as f64,
            column_bytes: built.column_bytes,
            context: vec![
                ("rows", (ROWS * FACTS).to_string()),
                ("rows_per_table", ROWS.to_string()),
                ("block_rows", BLOCK_ROWS.to_string()),
                ("file_bytes", fact_bytes.to_string()),
                (
                    "dimension_file_bytes",
                    built.file_bytes[FACTS..].iter().sum::<u64>().to_string(),
                ),
                ("cache_budget_bytes", budget.to_string()),
                ("distinct_queries", pool.len().to_string()),
                ("ops_per_round", round_len.to_string()),
            ],
        };
        Ok((
            Self {
                _work: work,
                paths: built.paths,
                starts,
                raw: built.raw,
                pool,
                rounds,
                budget,
                seconds: seconds as f64,
                facts,
            },
            times,
        ))
    }

    /// Runs the timed stream once, with a fresh cache and freshly opened
    /// readers. `Err` is a wrong answer, which aborts the run.
    ///
    /// # Errors
    ///
    /// An answer that differs from the oracle, or a failure to open.
    pub fn run(&self, tracer: &Arc<Tracer>) -> Result<Phase, String> {
        let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(self.budget)));
        let readers: Vec<TableReader> = self
            .paths
            .iter()
            .map(|p| data::open_reader(p, Some(&cache), tracer).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let before = cache.stats();
        let start = Instant::now();
        let mut phase = Phase::default();
        let (result, window) = in_window(tracer, || -> Result<(), String> {
            for round in self.rounds.iter().cycle() {
                for &qi in round {
                    let done =
                        phase.attempted >= MIN_OPS && start.elapsed().as_secs_f64() >= self.seconds;
                    if done {
                        return Ok(());
                    }
                    let (q, want) = &self.pool[qi];
                    self.one(q, want, &readers, tracer, &mut phase)?;
                }
            }
            Ok(())
        });
        result?;
        phase.wall_s = start.elapsed().as_secs_f64();
        phase.window = window;
        phase.cache = Some(cache_delta(&before, &cache.stats()));
        Ok(phase)
    }

    fn one(
        &self,
        q: &Query,
        want: &Expected,
        readers: &[TableReader],
        tracer: &Tracer,
        phase: &mut Phase,
    ) -> Result<(), String> {
        let series = q.series();
        let span = match q {
            Query::Scan { .. } => "scan",
            Query::Agg { .. } => "aggregate",
            Query::TopK { .. } => "topk",
            Query::Join { .. } => "join",
        };
        let mut topk_rows = Vec::new();
        let t = Instant::now();
        let op = tracer.op(span);
        let got = match q {
            Query::Scan { table, pred } => readers[*table]
                .scan_blocks_parallel(&pred.to_library(), THREADS)
                .map(|(sels, stats)| {
                    phase.counters.absorb(Family::Scan, &stats);
                    Expected::Rows(RowSet::from_selections(&sels, &self.starts[*table]))
                }),
            Query::Agg { table, agg } => {
                readers[*table]
                    .aggregate(&agg.to_library())
                    .map(|(res, stats)| {
                        phase.counters.absorb(Family::Agg, &stats);
                        Expected::Agg(res)
                    })
            }
            Query::TopK { table, topk } => readers[*table]
                .top_k_parallel(&topk.to_library(), THREADS)
                .map(|(rows, stats)| {
                    phase.counters.absorb(Family::TopK, &stats);
                    topk_rows = rows;
                    Expected::TopK(topk_rows.iter().map(|r| r.value).collect())
                }),
            Query::Join { build, probe, key } => readers[*build]
                .hash_join_parallel(&readers[*probe], &JoinExpr::on(key, key), THREADS)
                .map(|(pairs, stats)| {
                    phase.counters.absorb_join(&stats);
                    Expected::Rows(RowSet::from_pairs(
                        &pairs,
                        &self.starts[*build],
                        &self.starts[*probe],
                    ))
                }),
        };
        drop(op);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let Some(got) = phase.record(got) else {
            return Ok(());
        };
        if got != *want {
            return Err(format!("analytics {q:?}: got {got:?}, expected {want:?}"));
        }
        if let (Query::TopK { table, topk }, Expected::TopK(w)) = (q, want) {
            check_topk(
                &topk_rows,
                w,
                &self.raw[*table],
                &topk.column,
                &self.starts[*table],
            )
            .map_err(|e| format!("analytics {q:?}: {e}"))?;
        }
        phase.ops += 1;
        phase.sample("op", ms);
        phase.sample(series, ms);
        Ok(())
    }
}
