//! **Serve bench** — mixed point-read / scan / aggregate traffic from N
//! threads against one shared `TableReader` + `ShardedCache`, measuring
//! p50/p99 request latency, throughput, and cache effectiveness.
//!
//! CI's `serve-smoke` job runs this in quick mode, *asserts* two
//! guarantees on the repeat-heavy mix, and uploads `BENCH_serve.json`:
//!
//! * the cached pass's hit rate is at least 0.5;
//! * the cached pass reads strictly fewer backend bytes than the cold
//!   pass (and in fact zero — every frame is resident).
//!
//! Results are also asserted byte-identical across every thread count, so
//! the concurrency sweep cannot quietly trade correctness for speed.
//!
//! ```sh
//! cargo run --release -p corra-bench --bin serve_bench              # full
//! cargo run --release -p corra-bench --bin serve_bench -- --quick --json
//! CORRA_SERVE_ROWS=2000000 cargo run --release -p corra-bench --bin serve_bench
//! ```

use std::sync::Arc;

use corra_core::cache::{CacheConfig, ShardedCache};
use corra_core::store::{TableReader, TableWriter};
use corra_core::{
    compress_blocks, AggExpr, ColumnPlan, CompressionConfig, Predicate, ServeOutcome, ServeRequest,
    ServeSession,
};
use corra_datagen::LineitemDates;

struct ServeRow {
    name: String,
    threads: usize,
    outcome: ServeOutcome,
}

impl ServeRow {
    fn hit_rate(&self) -> f64 {
        let total = self.outcome.stats.cache_hits + self.outcome.stats.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.outcome.stats.cache_hits as f64 / total as f64
        }
    }
}

impl serde::Serialize for ServeRow {
    fn to_value(&self) -> serde::Value {
        serde_json::json!({
            "name": self.name,
            "threads": self.threads,
            "requests": self.outcome.results.len(),
            "wall_secs": self.outcome.wall.as_secs_f64(),
            "requests_per_sec": self.outcome.requests_per_sec(),
            "p50_us": self.outcome.latency_percentile(0.50).as_secs_f64() * 1e6,
            "p99_us": self.outcome.latency_percentile(0.99).as_secs_f64() * 1e6,
            "bytes_read": self.outcome.stats.bytes_read,
            "cache_hits": self.outcome.stats.cache_hits,
            "cache_misses": self.outcome.stats.cache_misses,
            "hit_rate": self.hit_rate(),
        })
    }
}

/// The repeat-heavy serving mix: every round touches the same few hot
/// columns and predicates, the way dashboards and point lookups do.
fn traffic(n_blocks: usize, rounds: usize) -> Vec<ServeRequest> {
    let columns = ["l_receiptdate", "l_shipdate", "l_commitdate"];
    let mut reqs = Vec::new();
    for round in 0..rounds {
        for b in 0..n_blocks {
            reqs.push(ServeRequest::point(b, columns[(round + b) % columns.len()]));
        }
        reqs.push(ServeRequest::Scan(Predicate::between(
            "l_receiptdate",
            8_100,
            8_350,
        )));
        reqs.push(ServeRequest::Scan(Predicate::ge("l_shipdate", 8_200)));
        reqs.push(ServeRequest::Aggregate(AggExpr::sum("l_receiptdate")));
        reqs.push(ServeRequest::Aggregate(AggExpr::max("l_commitdate")));
    }
    reqs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let rows: usize = std::env::var("CORRA_SERVE_ROWS")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .unwrap_or(if quick { 400_000 } else { 2_000_000 });
    // Eight requests a round (four point reads, four queries): 1,000 a
    // pass, so the p99 is an order statistic of ten samples, not one.
    let rounds = 125;
    println!("Serve bench at {rows} rows, {rounds} traffic rounds (quick={quick})");

    // The store bench's table shape: TPC-H date triple across several
    // blocks, receiptdate diff-encoded against shipdate.
    let table = LineitemDates::generate(rows, 42).into_table();
    let schema = table.schema().clone();
    let blocks = table.into_blocks((rows / 4).max(1));
    let cfg = CompressionConfig::baseline().with(
        "l_receiptdate",
        ColumnPlan::NonHier {
            reference: "l_shipdate".into(),
        },
    );
    let compressed = compress_blocks(&blocks, &cfg, 4).expect("compress");

    let dir = corra_bench::unique_temp_dir("serve_bench");
    let path = dir.join("bench.corra");
    let file = std::fs::File::create(&path).expect("create");
    let mut writer = TableWriter::with_schema(file, schema).expect("writer");
    for block in &compressed {
        writer.write_block(block).expect("stream block");
    }
    writer.finish().expect("finish");

    let cache = Arc::new(ShardedCache::new(CacheConfig::with_budget(256 << 20)));
    let reader = Arc::new(
        TableReader::open(&path)
            .expect("open")
            .with_cache(Arc::clone(&cache)),
    );
    let session = ServeSession::new(Arc::clone(&reader));
    let requests = traffic(reader.n_blocks(), rounds);
    println!(
        "table: {} blocks, {} B on disk; {} requests per pass",
        reader.n_blocks(),
        reader.file_bytes(),
        requests.len()
    );

    // Cold pass: empty cache, serial, every fill is a miss.
    let cold = ServeRow {
        name: "cold/serial".into(),
        threads: 1,
        outcome: session.run(&requests, 1).expect("cold pass"),
    };

    // Cached passes: the same traffic, now resident, across a thread sweep.
    let mut series = vec![cold];
    for threads in [1usize, 2, 4, 8] {
        let outcome = session.run(&requests, threads).expect("cached pass");
        assert_eq!(
            outcome.results, series[0].outcome.results,
            "{threads}-thread cached pass diverged from the cold pass"
        );
        series.push(ServeRow {
            name: format!("cached/{threads}t"),
            threads,
            outcome,
        });
    }

    println!(
        "\n{:<16} {:>8} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "series", "threads", "p50", "p99", "req/sec", "bytes read", "hit rate"
    );
    for r in &series {
        println!(
            "{:<16} {:>8} {:>8.1}us {:>8.1}us {:>12.0} {:>12} {:>8.1}%",
            r.name,
            r.threads,
            r.outcome.latency_percentile(0.50).as_secs_f64() * 1e6,
            r.outcome.latency_percentile(0.99).as_secs_f64() * 1e6,
            r.outcome.requests_per_sec(),
            r.outcome.stats.bytes_read,
            r.hit_rate() * 100.0,
        );
    }

    // The serving gates, enforced hard: a warm cache must serve the
    // repeat-heavy mix mostly from memory (hit rate >= 0.5) and read
    // strictly fewer backend bytes than the cold pass.
    let cold_bytes = series[0].outcome.stats.bytes_read;
    let warm = &series[1];
    let warm_bytes = warm.outcome.stats.bytes_read;
    assert!(
        warm.hit_rate() >= 0.5,
        "cached-pass hit rate {:.3} below the 0.5 floor",
        warm.hit_rate()
    );
    assert!(
        warm_bytes < cold_bytes,
        "cached pass read {warm_bytes} B >= cold pass {cold_bytes} B"
    );
    println!(
        "\nserve gate: hit rate {:.1}% >= 50%, cached bytes {warm_bytes} < cold bytes {cold_bytes}",
        warm.hit_rate() * 100.0
    );

    if json {
        let stats = cache.stats();
        let cache_doc = serde_json::json!({
            "hits": stats.hits,
            "misses": stats.misses,
            "insertions": stats.insertions,
            "evictions": stats.evictions,
            "bytes_cached": stats.bytes_cached,
            "hit_rate": stats.hit_rate(),
        });
        let doc = serde_json::json!({
            "bench": "serve",
            "rows": rows,
            "rounds": rounds,
            "quick": quick,
            "n_blocks": reader.n_blocks(),
            "requests_per_pass": requests.len(),
            "cache_budget_bytes": cache.capacity(),
            "cache": cache_doc,
            "series": serde::Value::Array(
                series.iter().map(serde::Serialize::to_value).collect()
            ),
        });
        let path = "BENCH_serve.json";
        let body = serde_json::to_string(&doc).expect("serialize");
        std::fs::write(path, &body).expect("write BENCH_serve.json");
        println!("wrote {path} ({} bytes)", body.len());
    }

    std::fs::remove_dir_all(&dir).ok();
}
