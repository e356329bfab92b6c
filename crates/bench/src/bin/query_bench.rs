//! **Query bench** — compressed-domain TOP-K and dictionary-code hash
//! joins vs their decompress-then-X comparators, plus the store driver's
//! zone-map pruning.
//!
//! Three claims are measured and gated:
//!
//! * a store-backed ascending TOP-K over an ascending timestamp column
//!   skips every block after the first from footer zones alone — strictly
//!   fewer payload bytes than a full read (hard-asserted, always);
//! * the dictionary TOP-K fast path returns exactly what decompress-then-
//!   sort returns (parity asserted before anything is timed);
//! * serial, morsel-parallel, and store-backed joins on dictionary codes
//!   produce identical pair lists.
//!
//! ```sh
//! cargo run --release -p corra-bench --bin query_bench              # full
//! cargo run --release -p corra-bench --bin query_bench -- --quick --json
//! CORRA_QUERY_ROWS=2000000 cargo run --release -p corra-bench --bin query_bench
//! ```

use corra_bench::median_secs;
use corra_columnar::{Column, DataType, Field, Schema, Table};
use corra_core::store::{TableReader, TableWriter};
use corra_core::{
    compress_blocks, hash_join_blocks, hash_join_blocks_parallel, top_k_blocks,
    top_k_blocks_parallel, ColumnPlan, CompressionConfig, JoinExpr, ScanStats, TopKExpr,
};

const TOPK_K: usize = 128;

struct QueryRow {
    name: String,
    secs: f64,
    rows: usize,
    blocks_pruned: usize,
    blocks_skipped_io: usize,
    bytes_read: u64,
}

impl QueryRow {
    /// A series row reporting the counters its driver returned.
    fn new(name: &str, secs: f64, rows: usize, stats: &ScanStats) -> Self {
        Self {
            name: name.into(),
            secs,
            rows,
            blocks_pruned: stats.blocks_pruned,
            blocks_skipped_io: stats.blocks_skipped_io,
            bytes_read: stats.bytes_read,
        }
    }

    fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.secs.max(f64::MIN_POSITIVE)
    }
}

impl serde::Serialize for QueryRow {
    fn to_value(&self) -> serde::Value {
        serde_json::json!({
            "name": self.name,
            "secs": self.secs,
            "rows": self.rows,
            "rows_per_sec": self.rows_per_sec(),
            "blocks_pruned": self.blocks_pruned,
            "blocks_skipped_io": self.blocks_skipped_io,
            "bytes_read": self.bytes_read,
        })
    }
}

/// Builds a single-run table: `ts` strictly ascending (disjoint per-block
/// footer zones — the pruning scenario) and a scrambled `val` payload.
fn topk_table(rows: usize) -> Table {
    let ts: Vec<i64> = (0..rows as i64).collect();
    let val: Vec<i64> = (0..rows as i64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64) % 10_007)
        .collect();
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("val", DataType::Int64),
    ])
    .expect("schema");
    Table::new(schema, vec![Column::Int64(ts), Column::Int64(val)]).expect("table")
}

/// Build side: one row per distinct key, `id` = row index, forced through
/// the dictionary codec so the join probes on codes.
fn build_table(keys: usize) -> Table {
    let id: Vec<i64> = (0..keys as i64).collect();
    let schema = Schema::new(vec![Field::new("id", DataType::Int64)]).expect("schema");
    Table::new(schema, vec![Column::Int64(id)]).expect("table")
}

/// Probe side: every row hits the build side exactly once per key cycle,
/// so the expected pair count is exactly `rows` and each pair's build row
/// equals its probe value.
fn probe_table(rows: usize, keys: usize) -> Table {
    let bucket: Vec<i64> = (0..rows as i64).map(|i| (i * 7) % keys as i64).collect();
    let schema = Schema::new(vec![Field::new("bucket", DataType::Int64)]).expect("schema");
    Table::new(schema, vec![Column::Int64(bucket)]).expect("table")
}

fn write_store(dir: &std::path::Path, name: &str, table: Table, block_rows: usize) -> TableReader {
    let schema = table.schema().clone();
    let blocks = table.into_blocks(block_rows);
    let cfg = CompressionConfig::baseline()
        .with("id", ColumnPlan::Dict)
        .with("bucket", ColumnPlan::Dict);
    let compressed = compress_blocks(&blocks, &cfg, 4).expect("compress");
    let path = dir.join(name);
    let file = std::fs::File::create(&path).expect("create");
    let mut writer = TableWriter::with_schema(file, schema).expect("writer");
    for block in &compressed {
        writer.write_block(block).expect("stream block");
    }
    writer.finish().expect("finish");
    TableReader::open(&path).expect("open")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let rows: usize = std::env::var("CORRA_QUERY_ROWS")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(if quick { 400_000 } else { 2_000_000 });
    let reps = if quick { 5 } else { 9 };
    let keys = 1024usize.min(rows.max(1));
    println!("Query bench at {rows} rows, {reps} reps (quick={quick})");

    let dir = corra_bench::unique_temp_dir("query_bench");

    // ---- Store-backed TOP-K: ascending ts, disjoint footer zones. An
    // ascending TOP-K fills its heap inside the first block; every later
    // block's zone minimum already exceeds the running worst, so the
    // driver decides it from the footer without touching its payload.
    let reader = write_store(&dir, "topk.corra", topk_table(rows), (rows / 8).max(1));
    let n_blocks = reader.n_blocks();
    let expr = TopKExpr::asc("ts", TOPK_K);
    let (top, topk_stats) = reader.top_k(&expr).expect("store top-k");
    // Differential oracle: ts is 0..rows ascending, so the ascending
    // TOP-K is exactly the first k values in order.
    let k = TOPK_K.min(rows);
    assert_eq!(top.len(), k, "store top-k row count");
    for (j, row) in top.iter().enumerate() {
        assert_eq!(row.value, j as i64, "store top-k order");
    }
    // Parallel pruning counters depend on how fast the shared bound
    // tightens; the series reports this parity run's.
    let (ptop, ptop_stats) = reader.top_k_parallel(&expr, 4).expect("parallel top-k");
    assert_eq!(ptop, top, "parallel top-k diverged from serial");

    let full_bytes = {
        let r = TableReader::open(&dir.join("topk.corra")).expect("open");
        for b in 0..n_blocks {
            std::hint::black_box(r.read_block(b).expect("read"));
        }
        r.bytes_read()
    };
    let topk_secs = median_secs(reps, || {
        let r = TableReader::open(&dir.join("topk.corra")).expect("open");
        std::hint::black_box(r.top_k(&expr).expect("store top-k"));
    });
    let topk_par_secs = median_secs(reps, || {
        let r = TableReader::open(&dir.join("topk.corra")).expect("open");
        std::hint::black_box(r.top_k_parallel(&expr, 4).expect("parallel top-k"));
    });

    // ---- In-memory dictionary TOP-K fast path vs decompress-then-sort.
    let dict_values: Vec<i64> = (0..rows as i64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 256) * 1_000)
        .collect();
    let dict_schema = Schema::new(vec![Field::new("v", DataType::Int64)]).expect("schema");
    let dict_table =
        Table::new(dict_schema, vec![Column::Int64(dict_values.clone())]).expect("table");
    let dict_blocks = dict_table.into_blocks((rows / 8).max(1));
    let dict_cfg = CompressionConfig::baseline().with("v", ColumnPlan::Dict);
    let dict_compressed = compress_blocks(&dict_blocks, &dict_cfg, 4).expect("compress");
    let mem_expr = TopKExpr::asc("v", TOPK_K);
    let (mem_top, mem_stats) = top_k_blocks(&dict_compressed, &mem_expr).expect("mem top-k");
    let (mem_ptop, mem_par_stats) =
        top_k_blocks_parallel(&dict_compressed, &mem_expr, 4).expect("parallel mem top-k");
    assert_eq!(mem_ptop, mem_top, "parallel mem top-k diverged from serial");
    // Parity before timing: decompress every block, sort, take k.
    let mut oracle = Vec::with_capacity(rows);
    for block in &dict_compressed {
        match block.decompress("v").expect("decompress") {
            Column::Int64(v) => oracle.extend(v),
            Column::Utf8(_) => unreachable!("v is an integer column"),
        }
    }
    oracle.sort_unstable();
    oracle.truncate(k);
    let got: Vec<i64> = mem_top.iter().map(|r| r.value).collect();
    assert_eq!(got, oracle, "dict top-k diverged from decompress-then-sort");
    let naive_secs = median_secs(reps, || {
        let mut all = Vec::with_capacity(rows);
        for block in &dict_compressed {
            match block.decompress("v").expect("decompress") {
                Column::Int64(v) => all.extend(v),
                Column::Utf8(_) => unreachable!("v is an integer column"),
            }
        }
        all.sort_unstable();
        all.truncate(TOPK_K);
        std::hint::black_box(all);
    });
    let mem_secs = median_secs(reps, || {
        std::hint::black_box(top_k_blocks(&dict_compressed, &mem_expr).expect("mem top-k"));
    });
    let mem_par_secs = median_secs(reps, || {
        std::hint::black_box(
            top_k_blocks_parallel(&dict_compressed, &mem_expr, 4).expect("parallel mem top-k"),
        );
    });

    // ---- Dictionary-code hash join: 1024-key build side probed by every
    // row. Pairs are fully determined: build row == probe value.
    let join_cfg = CompressionConfig::baseline()
        .with("id", ColumnPlan::Dict)
        .with("bucket", ColumnPlan::Dict);
    let build_blocks =
        compress_blocks(&build_table(keys).into_blocks(keys), &join_cfg, 4).expect("compress");
    let probe_blocks = compress_blocks(
        &probe_table(rows, keys).into_blocks((rows / 8).max(1)),
        &join_cfg,
        4,
    )
    .expect("compress");
    let join_expr = JoinExpr::on("id", "bucket");
    let (pairs, join_stats) =
        hash_join_blocks(&build_blocks, &probe_blocks, &join_expr).expect("join");
    assert_eq!(pairs.len(), rows, "every probe row has exactly one match");
    let probe_values: Vec<i64> = (0..rows as i64).map(|i| (i * 7) % keys as i64).collect();
    let probe_block_rows = (rows / 8).max(1);
    for pair in pairs.iter().step_by((rows / 1_000).max(1)) {
        let global = pair.probe.block as usize * probe_block_rows + pair.probe.row as usize;
        assert_eq!(
            pair.build.row as i64, probe_values[global],
            "join pair maps to the wrong build row"
        );
    }
    let (ppairs, join_par_stats) =
        hash_join_blocks_parallel(&build_blocks, &probe_blocks, &join_expr, 4).expect("join");
    assert_eq!(ppairs, pairs, "parallel join diverged from serial");

    let join_secs = median_secs(reps, || {
        std::hint::black_box(hash_join_blocks(&build_blocks, &probe_blocks, &join_expr))
            .expect("join");
    });
    let join_par_secs = median_secs(reps, || {
        std::hint::black_box(hash_join_blocks_parallel(
            &build_blocks,
            &probe_blocks,
            &join_expr,
            4,
        ))
        .expect("join");
    });

    // Store-backed join: both sides on disk, probed through block handles.
    let build_reader = write_store(&dir, "build.corra", build_table(keys), keys);
    let probe_reader = write_store(
        &dir,
        "probe.corra",
        probe_table(rows, keys),
        probe_block_rows,
    );
    let (spairs, store_join_stats) = build_reader
        .hash_join(&probe_reader, &join_expr)
        .expect("store join");
    assert_eq!(spairs, pairs, "store join diverged from in-memory");
    let store_join_secs = median_secs(reps, || {
        let b = TableReader::open(&dir.join("build.corra")).expect("open");
        let p = TableReader::open(&dir.join("probe.corra")).expect("open");
        std::hint::black_box(b.hash_join(&p, &join_expr).expect("store join"));
    });

    let topk_series = [
        QueryRow::new("store_topk/asc_ts", topk_secs, rows, &topk_stats),
        QueryRow::new("store_topk/asc_ts/4t", topk_par_secs, rows, &ptop_stats),
        QueryRow::new("mem_topk/dict_fast_path", mem_secs, rows, &mem_stats),
        QueryRow::new(
            "mem_topk/dict_fast_path/4t",
            mem_par_secs,
            rows,
            &mem_par_stats,
        ),
        // Decompress-then-sort runs no driver: it prunes and reads nothing.
        QueryRow::new(
            "mem_topk/decompress_then_sort",
            naive_secs,
            rows,
            &ScanStats::default(),
        ),
    ];
    let join_series = [
        QueryRow::new("mem_join/dict1024", join_secs, rows, &join_stats.io),
        QueryRow::new(
            "mem_join/dict1024/4t",
            join_par_secs,
            rows,
            &join_par_stats.io,
        ),
        QueryRow::new(
            "store_join/dict1024",
            store_join_secs,
            rows,
            &store_join_stats.io,
        ),
    ];

    println!(
        "\n{:<32} {:>12} {:>12} {:>8} {:>8} {:>12}",
        "series", "time", "rows/sec", "pruned", "skipped", "bytes read"
    );
    for r in topk_series.iter().chain(&join_series) {
        println!(
            "{:<32} {:>10.3}ms {:>11.1}M {:>8} {:>8} {:>12}",
            r.name,
            r.secs * 1e3,
            r.rows_per_sec() / 1e6,
            r.blocks_pruned,
            r.blocks_skipped_io,
            r.bytes_read,
        );
    }

    // The pruning gate, enforced hard: the descending TOP-K must decide at
    // least one block purely from footer zones and touch strictly fewer
    // payload bytes than a full read of the same table.
    assert!(
        topk_stats.blocks_skipped_io >= 1,
        "store top-k skipped no blocks ({n_blocks} blocks, zones should be disjoint)"
    );
    assert!(
        topk_stats.bytes_read < full_bytes,
        "store top-k read {} B >= full read {full_bytes} B",
        topk_stats.bytes_read
    );
    println!(
        "\npruning gate: top-k skipped {}/{n_blocks} blocks from footer zones, \
         read {} B vs {full_bytes} B full ({:.1}%)",
        topk_stats.blocks_skipped_io,
        topk_stats.bytes_read,
        topk_stats.bytes_read as f64 / full_bytes as f64 * 100.0
    );
    println!(
        "join gate: serial == parallel == store-backed over {} pairs ({} distinct keys)",
        pairs.len(),
        join_stats.distinct_keys
    );

    if json {
        let doc = serde_json::json!({
            "bench": "query",
            "rows": rows,
            "reps": reps,
            "quick": quick,
            "n_blocks": n_blocks,
            "k": TOPK_K,
            "join_keys": keys,
            "full_read_bytes": full_bytes,
            "topk": serde::Value::Array(
                topk_series.iter().map(serde::Serialize::to_value).collect()
            ),
            "join": serde::Value::Array(
                join_series.iter().map(serde::Serialize::to_value).collect()
            ),
        });
        let path = "BENCH_query.json";
        let body = serde_json::to_string(&doc).expect("serialize");
        std::fs::write(path, &body).expect("write BENCH_query.json");
        println!("wrote {path} ({} bytes)", body.len());
    }

    std::fs::remove_dir_all(&dir).ok();
}
