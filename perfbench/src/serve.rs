//! The `serve` workload: two closed-loop clients against one cached taxi
//! table whose whole working set fits the cache.
//!
//! Each client sends its next request only after the previous one
//! returned, each as its own inline `ServeSession::run` call. About 80 %
//! of requests are `Point` reads of one column of a Zipf-skewed block; the
//! rest are selective time-window scans, aggregates and TOP-K drawn from a
//! seeded pool, each window inside one block. Every point and pool query
//! runs once before timing, so the timed phase is served from the cache.
//! Every request repeats hundreds of times a run, so each latency sample
//! names its request and the latencies are summarised per request
//! ([`crate::stats::request_mean`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::store::TableReader;
use corra_core::{compress_blocks, AggFunc, ServeRequest, ServeResult, ServeSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{
    add_column_bytes, cache_delta, in_window, user_bytes, Family, Phase, SetupFacts, SetupRuns,
    WorkDir, THREADS,
};
use crate::data;
use crate::oracle::{column_checksum, shuffle, Agg, Pred, RawTable, RowSet, TopK};
use crate::queries::{check_topk, Expected, Query};
use crate::trace::Tracer;

/// Rows in the served table.
pub const ROWS: usize = 1 << 20;
/// Rows per block.
pub const BLOCK_ROWS: usize = 65_536;
/// Cache budget as a multiple of the file's bytes.
const CACHE_MULTIPLE: u64 = 4;
/// Point reads per pool query (so 80 % of requests are point reads).
const POINTS_PER_QUERY: usize = 4;
/// Time-window widths of the pool's filters, as shares of the rows.
const WINDOW_WIDTHS: [f64; 2] = [0.001, 0.01];
/// Zipf exponent of the point-read block popularity.
const ZIPF_S: f64 = 1.1;
/// Fewest requests a run makes, however long they take.
const MIN_REQUESTS: u64 = 20_000;
/// Rounds of the request mix, each shuffled on its own; the clients take
/// alternate rounds, cycling until the time is up.
const STREAM_ROUNDS: usize = 64;

/// Integer columns the pool's aggregates and TOP-K target.
const COLUMNS: [&str; 5] = [
    "pickup",
    "dropoff",
    "fare_amount",
    "tip_amount",
    "total_amount",
];
/// Columns the pool's filters range over: time windows, which the table's
/// pickup order lets the footer zones narrow to one block.
const TIME_COLUMNS: [&str; 2] = ["pickup", "dropoff"];
/// Rows kept clear at either edge of a window's block, so that trips
/// spanning the block boundary leave the window inside one zone.
const EDGE_ROWS: usize = BLOCK_ROWS / 8;
/// Draws a window may take before set-up gives up on finding one that
/// overlaps a single block's zone.
const WINDOW_TRIES: usize = 1_000;

/// One request of a client's stream.
#[derive(Debug, Clone, Copy)]
enum Req {
    /// Point read of (block, column index).
    Point(usize, usize),
    /// Index into the query pool.
    Pool(usize),
}

/// A prepared `serve` run.
pub struct Serve {
    _work: WorkDir,
    path: PathBuf,
    names: Vec<String>,
    raw: RawTable,
    starts: Vec<u64>,
    point_sums: Vec<Vec<u64>>,
    pool: Vec<(Query, Expected)>,
    rounds: Vec<Vec<Req>>,
    budget: u64,
    /// Length of the timed phase, seconds.
    seconds: f64,
    /// What set-up measured.
    pub facts: SetupFacts,
}

/// Block ranks drawn with Zipf(`s`) popularity over `n` blocks; rank 0 is
/// the hottest block.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = w.iter().sum();
    w.iter()
        .scan(0.0, |acc, x| {
            *acc += x / total;
            Some(*acc)
        })
        .collect()
}

/// The (min, max) of `column` in each block: the footer's zones.
fn zones(raw: &RawTable, column: &str) -> Vec<(i64, i64)> {
    raw.ints(column)
        .chunks(BLOCK_ROWS)
        .map(|b| {
            b.iter()
                .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        })
        .collect()
}

/// A time window on `column` matching about `share` of the rows: the
/// pickup times of a run of rows inside one seeded block, clear of its
/// edges. A window is kept only when it overlaps that block's zone alone,
/// so every window decodes exactly one block whatever the seed; windows
/// that straddle a boundary would double the cost of some seeds' pools.
///
/// # Errors
///
/// No such window in [`WINDOW_TRIES`] draws.
fn block_window(
    raw: &RawTable,
    column: &str,
    share: f64,
    rng: &mut StdRng,
) -> Result<Pred, String> {
    let pickup = raw.ints("pickup");
    let zones = zones(raw, column);
    let width = ((share * pickup.len() as f64) as usize).max(1);
    for _ in 0..WINDOW_TRIES {
        let b = rng.gen_range(0..zones.len());
        let start = b * BLOCK_ROWS + EDGE_ROWS;
        let end = ((b + 1) * BLOCK_ROWS).min(pickup.len()) - EDGE_ROWS;
        if start + width > end {
            continue;
        }
        let lo = rng.gen_range(start..=end - width);
        let (lo, hi) = (pickup[lo], pickup[lo + width - 1]);
        let touched = zones
            .iter()
            .filter(|&&(z0, z1)| z0 <= hi && z1 >= lo)
            .count();
        if touched == 1 {
            return Ok(Pred::Between(column.to_owned(), lo, hi));
        }
    }
    Err(format!(
        "no {column} window of {width} rows inside one block in {WINDOW_TRIES} draws"
    ))
}

/// The pool of non-point requests. Its shape is fixed — every
/// combination of template, window column and width — so the mix of work
/// is the same for every seed; the seed picks only where the windows lie.
///
/// # Errors
///
/// As [`block_window`].
fn query_pool(raw: &RawTable, rng: &mut StdRng) -> Result<Vec<Query>, String> {
    let mut i = 0;
    let mut next_window = || {
        let col = TIME_COLUMNS[i % TIME_COLUMNS.len()];
        let sel = WINDOW_WIDTHS[(i / TIME_COLUMNS.len()) % WINDOW_WIDTHS.len()];
        i += 1;
        block_window(raw, col, sel, rng)
    };
    let mut pool = Vec::new();
    // Two windows of every (column, width) pair.
    for _ in 0..2 * TIME_COLUMNS.len() * WINDOW_WIDTHS.len() {
        let pred = next_window()?;
        pool.push(Query::Scan { table: 0, pred });
    }
    let mut aggs = vec![Agg::plain(AggFunc::Count, None)];
    for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
        aggs.extend(COLUMNS.iter().map(|c| Agg::plain(func, Some(c))));
    }
    for agg in aggs {
        let filter = Some(next_window()?);
        pool.push(Query::Agg {
            table: 0,
            agg: Agg { filter, ..agg },
        });
    }
    // Every (column, direction) pair under a window on each time column,
    // widths alternating: a TOP-K's cost depends on the values in its
    // window, so one window per pair leaves the mean to a few draws.
    let mut width = WINDOW_WIDTHS.iter().cycle();
    for window_col in TIME_COLUMNS {
        for col in COLUMNS {
            for descending in [false, true] {
                let share = *width.next().expect("endless widths");
                let topk = TopK {
                    column: col.to_owned(),
                    k: 10,
                    descending,
                    filter: Some(block_window(raw, window_col, share, rng)?),
                };
                pool.push(Query::TopK { table: 0, topk });
            }
        }
    }
    Ok(pool)
}

impl Serve {
    /// Sets up as `runs` asks (generate, compress, write, open, warm) and
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
        let work = WorkDir::create("serve").map_err(|e| e.to_string())?;
        let path = work.path().join("taxi.corra");
        let mut times = Vec::new();
        let mut kept = None;
        while runs.again(&times) {
            drop(kept.take());
            let t = Instant::now();
            let table = {
                let _op = tracer.op("datagen");
                data::sorted_by(data::taxi(ROWS, seed), "pickup")
            };
            let names: Vec<String> = table
                .schema()
                .fields()
                .iter()
                .map(|f| f.name().to_owned())
                .collect();
            // The oracle's copy of the rows is not set-up work.
            let oracle = Instant::now();
            let raw = RawTable::keep(
                &table,
                &names.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            let user = user_bytes(&table);
            let oracle = oracle.elapsed();
            let schema = table.schema().clone();
            let blocks = {
                let _op = tracer.op("compressor");
                compress_blocks(&table.into_blocks(BLOCK_ROWS), &data::taxi_plan(), THREADS)
                    .map_err(|e| e.to_string())?
            };
            let bytes = data::write_file(&path, schema, &blocks).map_err(|e| e.to_string())?;
            drop(blocks);
            // Open and warm: every block through a cache sized like the
            // timed phase's.
            let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(
                bytes * CACHE_MULTIPLE,
            )));
            let reader =
                data::open_reader(&path, Some(&cache), tracer).map_err(|e| e.to_string())?;
            for b in 0..reader.n_blocks() {
                let h = reader.block_handle(b).map_err(|e| e.to_string())?;
                for n in &names {
                    h.decompress(n).map_err(|e| e.to_string())?;
                }
            }
            times.push((t.elapsed() - oracle).as_secs_f64());
            let mut column_bytes = Default::default();
            add_column_bytes(reader.footer(), &mut column_bytes);
            kept = Some((names, raw, user, bytes, column_bytes));
        }
        let (names, raw, user, file_bytes, column_bytes) = kept.expect("at least one set-up");

        let n_blocks = ROWS.div_ceil(BLOCK_ROWS);
        let starts = crate::oracle::block_starts(
            (0..n_blocks).map(|b| BLOCK_ROWS.min(ROWS - b * BLOCK_ROWS)),
        );
        let point_sums = (0..n_blocks)
            .map(|b| {
                let lo = b * BLOCK_ROWS;
                let hi = (lo + BLOCK_ROWS).min(ROWS);
                names
                    .iter()
                    .map(|n| column_checksum(&raw.col(n).slice(lo, hi)))
                    .collect()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
        let pool: Vec<(Query, Expected)> = query_pool(&raw, &mut rng)?
            .into_iter()
            .map(|q| {
                let want = q.expected(std::slice::from_ref(&raw));
                (q, want)
            })
            .collect();

        // One round: every pool query once, and POINTS_PER_QUERY point
        // reads per pool query, cycling through the columns, on blocks
        // drawn with Zipf popularity under a seeded rank → block shuffle
        // (so the hot blocks are not simply the earliest rows).
        let cdf = zipf_cdf(n_blocks, ZIPF_S);
        let mut order: Vec<usize> = (0..n_blocks).collect();
        shuffle(&mut order, &mut rng);
        let round = pool.len() * (1 + POINTS_PER_QUERY);
        let mut column = 0;
        let rounds = (0..STREAM_ROUNDS)
            .map(|_| {
                let mut r: Vec<Req> = (0..pool.len()).map(Req::Pool).collect();
                for _ in 0..pool.len() * POINTS_PER_QUERY {
                    let u: f64 = rng.gen();
                    let rank = cdf.partition_point(|&c| c < u).min(n_blocks - 1);
                    r.push(Req::Point(order[rank], column % names.len()));
                    column += 1;
                }
                shuffle(&mut r, &mut rng);
                r
            })
            .collect();
        let budget = file_bytes * CACHE_MULTIPLE;
        let facts = SetupFacts {
            bytes_per_user_byte: file_bytes as f64 / user as f64,
            column_bytes,
            context: vec![
                ("rows", ROWS.to_string()),
                ("block_rows", BLOCK_ROWS.to_string()),
                ("file_bytes", file_bytes.to_string()),
                ("cache_budget_bytes", budget.to_string()),
                ("requests_per_round", round.to_string()),
                ("clients", THREADS.to_string()),
            ],
        };
        Ok((
            Self {
                _work: work,
                path,
                names,
                raw,
                starts,
                point_sums,
                pool,
                rounds,
                budget,
                seconds: seconds as f64,
                facts,
            },
            times,
        ))
    }

    fn request(&self, r: Req) -> ServeRequest {
        match r {
            Req::Point(b, c) => ServeRequest::point(b, &self.names[c]),
            Req::Pool(i) => match &self.pool[i].0 {
                Query::Scan { pred, .. } => ServeRequest::Scan(pred.to_library()),
                Query::Agg { agg, .. } => ServeRequest::Aggregate(agg.to_library()),
                Query::TopK { topk, .. } => ServeRequest::TopK(topk.to_library()),
                Query::Join { .. } => unreachable!("serve pool holds no joins"),
            },
        }
    }

    /// The request's identity among the distinct requests of the mix.
    fn key(&self, r: Req) -> u64 {
        match r {
            Req::Pool(i) => i as u64,
            Req::Point(b, c) => (self.pool.len() + b * self.names.len() + c) as u64,
        }
    }

    /// Checks one result; `Err` is a wrong answer.
    fn check(&self, r: Req, got: &ServeResult) -> Result<(), String> {
        let ok = match (r, got) {
            (Req::Point(b, c), ServeResult::Column(col)) => {
                column_checksum(col) == self.point_sums[b][c]
            }
            (Req::Pool(i), got) => {
                let (q, want) = &self.pool[i];
                match (got, want) {
                    (ServeResult::Scan(sels), Expected::Rows(w)) => {
                        RowSet::from_selections(sels, &self.starts) == *w
                    }
                    (ServeResult::Aggregate(a), Expected::Agg(w)) => a == w,
                    (ServeResult::TopK(rows), Expected::TopK(w)) => {
                        let Query::TopK { topk, .. } = q else {
                            return Err("top-k result for a non-top-k query".into());
                        };
                        check_topk(rows, w, &self.raw, &topk.column, &self.starts)?;
                        true
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("serve request {r:?} answered wrongly"))
        }
    }

    /// Opens the table with a cache of four times its bytes and runs every
    /// point and pool query once, untimed.
    fn open_warm(
        &self,
        tracer: &Arc<Tracer>,
    ) -> Result<(Arc<ShardedCache>, Arc<TableReader>), String> {
        let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(self.budget)));
        let reader = Arc::new(
            data::open_reader(&self.path, Some(&cache), tracer).map_err(|e| e.to_string())?,
        );
        let session = ServeSession::new(Arc::clone(&reader));
        let mut warm: Vec<Req> = (0..self.point_sums.len())
            .flat_map(|b| (0..self.names.len()).map(move |c| Req::Point(b, c)))
            .collect();
        warm.extend((0..self.pool.len()).map(Req::Pool));
        for r in warm {
            let out = session
                .run(&[self.request(r)], 1)
                .map_err(|e| e.to_string())?;
            self.check(r, &out.results[0])?;
        }
        Ok((cache, reader))
    }

    /// Runs both clients' streams once. `Err` is a wrong answer, which
    /// aborts the run.
    ///
    /// # Errors
    ///
    /// An answer that differs from the oracle, or a failure to open.
    pub fn run(&self, tracer: &Arc<Tracer>) -> Result<Phase, String> {
        let (cache, reader) = self.open_warm(tracer)?;
        let before = cache.stats();
        let abort = AtomicBool::new(false);
        let start = Instant::now();
        let (clients, window) = in_window(tracer, || {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|c| {
                        let reader = Arc::clone(&reader);
                        let abort = &abort;
                        s.spawn(move || self.client(c, reader, tracer, abort, start))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err("serve client panicked".into()))
                    })
                    .collect::<Vec<_>>()
            })
        });
        let wall_s = start.elapsed().as_secs_f64();
        let mut phase = Phase::default();
        for c in clients {
            phase.merge_client(c?);
        }
        phase.wall_s = wall_s;
        phase.window = window;
        phase.cache = Some(cache_delta(&before, &cache.stats()));
        Ok(phase)
    }

    /// Client `c` of [`THREADS`]: runs rounds `c`, `c + THREADS`, ... of
    /// the mix, cycling, one request at a time.
    fn client(
        &self,
        c: usize,
        reader: Arc<TableReader>,
        tracer: &Tracer,
        abort: &AtomicBool,
        start: Instant,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let min = MIN_REQUESTS / THREADS as u64;
        let requests = (c..)
            .step_by(THREADS)
            .flat_map(|i| self.rounds[i % self.rounds.len()].iter().copied());
        for r in requests {
            let elapsed = start.elapsed().as_secs_f64();
            let done = phase.attempted >= min && elapsed >= self.seconds;
            if done || abort.load(Ordering::Relaxed) {
                break;
            }
            let request = self.request(r);
            let (span, series, family) = match &request {
                ServeRequest::Point { .. } => ("serve.point", "point", Family::Point),
                ServeRequest::Scan(_) => ("serve.scan", "scan", Family::Scan),
                ServeRequest::Aggregate(_) => ("serve.agg", "agg", Family::Agg),
                ServeRequest::TopK(_) => ("serve.topk", "topk", Family::TopK),
            };
            let t = Instant::now();
            let out = {
                let _op = tracer.op(span);
                ServeSession::new(Arc::clone(&reader)).run(std::slice::from_ref(&request), 1)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let Some(out) = phase.record(out) else {
                continue;
            };
            if let Err(e) = self.check(r, &out.results[0]) {
                abort.store(true, Ordering::Relaxed);
                return Err(e);
            }
            phase.counters.absorb(family, &out.stats);
            phase.ops += 1;
            phase.key = Some(self.key(r));
            phase.sample("op", ms);
            phase.sample(series, ms);
        }
        Ok(phase)
    }
}
