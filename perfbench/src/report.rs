//! Turning a phase, its spans and the set-up facts into the named metrics
//! of `BENCHMARK.json`, and printing the result lines.

use std::collections::BTreeMap;

use crate::common::{peak_rss_mb, Phase, SetupFacts, TRACKED_COLUMNS};
use crate::stats::{mean, median, quantile, ratio, series_mean, series_quantile};
use crate::trace::{op_coverage, Span};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Contract name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order. Every
/// workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("bytes_per_user_byte", "ratio"),
    ("ops_per_s", "ops/s"),
    ("op_ms_mean", "ms"),
    ("op_ms_p95", "ms"),
    ("agg_ms_mean", "ms"),
    ("scan_ms_mean", "ms"),
    ("topk_ms_mean", "ms"),
];

/// The end-to-end metrics of an untraced run.
///
/// # Errors
///
/// A latency series too short for its percentile.
pub fn end_to_end(
    phase: &Phase,
    setup_times: &[f64],
    facts: &SetupFacts,
) -> Result<Vec<Metric>, String> {
    let q = |series: &str, p: f64| {
        series_quantile(phase.lat.get(series), p)
            .map(|x| x.value)
            .map_err(|e| format!("{series}: {e}"))
    };
    let mean = |series: &str| {
        series_mean(phase.lat.get(series))
            .map(|x| x.value)
            .map_err(|e| format!("{series}: {e}"))
    };
    let values = [
        median(setup_times),
        peak_rss_mb(),
        facts.bytes_per_user_byte,
        ratio(phase.ops as f64, phase.wall_s),
        mean("op")?,
        q("op", 0.95)?,
        mean("agg")?,
        mean("scan")?,
        mean("topk")?,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, v, unit))
        .collect())
}

/// Workload-specific figures printed beside the result (not bound-gated,
/// because not every workload has them): per-type means, medians and
/// tails of all samples (not per request) with their sample counts, ingest
/// throughput, and the failure ratio.
pub fn extras(phase: &Phase) -> Vec<Metric> {
    let mut out = Vec::new();
    for (series, samples) in &phase.lat.0 {
        let unit_name = |q: &str| format!("{series}_ms_{q}");
        out.push(metric(format!("{series}_n"), samples.len() as f64, "count"));
        if let Ok(x) = mean(samples) {
            out.push(metric(unit_name("mean"), x.value, "ms"));
        }
        let values: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        for (label, p) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            if let Ok(x) = quantile(&values, p) {
                out.push(metric(unit_name(label), x.value, "ms"));
            }
        }
    }
    if phase.counters.rows_acked > 0 {
        out.push(metric(
            "ingest_rows_per_s",
            phase.counters.rows_acked as f64 / phase.wall_s,
            "rows/s",
        ));
    }
    out.push(metric(
        "failed_op_ratio",
        ratio(phase.failed as f64, phase.attempted as f64),
        "ratio",
    ));
    out
}

/// Per-layer metric names, units and better direction, in
/// `BENCHMARK.json` order. Every workload reports all of them; a layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, &str); 63] = [
    ("datagen.gen_ms", "ms", "lower"),
    ("optimizer.plan_ms", "ms", "lower"),
    ("compressor.compress_ms", "ms", "lower"),
    ("compressor.bytes.l_commitdate", "bytes", "lower"),
    ("compressor.bytes.l_receiptdate", "bytes", "lower"),
    ("compressor.bytes.dropoff", "bytes", "lower"),
    ("compressor.bytes.total_amount", "bytes", "lower"),
    ("compressor.bytes.zip", "bytes", "lower"),
    ("compressor.bytes.ip", "bytes", "lower"),
    ("ingest.append_self_ms", "ms", "lower"),
    ("ingest.appends", "count", "higher"),
    ("vfs.write_ms", "ms", "lower"),
    ("vfs.fsync_ms", "ms", "lower"),
    ("vfs.fsync_count", "count", "lower"),
    ("vfs.dir_sync_count", "count", "lower"),
    ("vfs.rename_count", "count", "lower"),
    ("vfs.bytes_written", "bytes", "lower"),
    ("vfs.write_amp", "ratio", "lower"),
    ("compact.ms", "ms", "lower"),
    ("compact.self_ms", "ms", "lower"),
    ("compact.calls", "count", "higher"),
    ("compact.bytes_in", "bytes", "lower"),
    ("compact.bytes_out", "bytes", "lower"),
    ("compact.segments_merged", "count", "higher"),
    ("store.open_ms", "ms", "lower"),
    ("store.bytes_read", "bytes", "lower"),
    ("store.blocks_skipped_io", "count", "higher"),
    ("store.segments_opened", "count", "lower"),
    ("io.read_calls", "count", "lower"),
    ("io.read_bytes", "bytes", "lower"),
    ("io.read_ms", "ms", "lower"),
    ("io.read_bytes_per_op", "bytes", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.bytes_evicted", "bytes", "lower"),
    ("cache.oversize", "count", "lower"),
    ("scan.calls", "count", "higher"),
    ("scan.self_ms", "ms", "lower"),
    ("scan.io_ms", "ms", "lower"),
    ("scan.rows_scanned", "count", "lower"),
    ("scan.rows_matched", "count", "higher"),
    ("scan.blocks_pruned_ratio", "ratio", "higher"),
    ("aggregate.calls", "count", "higher"),
    ("aggregate.self_ms", "ms", "lower"),
    ("aggregate.io_ms", "ms", "lower"),
    ("aggregate.zone_answered_ratio", "ratio", "higher"),
    ("topk.calls", "count", "higher"),
    ("topk.self_ms", "ms", "lower"),
    ("topk.io_ms", "ms", "lower"),
    ("topk.blocks_skipped_ratio", "ratio", "higher"),
    ("join.calls", "count", "higher"),
    ("join.self_ms", "ms", "lower"),
    ("join.io_ms", "ms", "lower"),
    ("join.build_rows", "count", "lower"),
    ("join.probe_rows", "count", "lower"),
    ("join.pairs", "count", "higher"),
    ("serve.point.self_ms", "ms", "lower"),
    ("serve.scan.self_ms", "ms", "lower"),
    ("serve.agg.self_ms", "ms", "lower"),
    ("serve.topk.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Span totals by name: op spans carry self and child-covered time,
/// child spans carry bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    count: u64,
    ms: f64,
    self_ms: f64,
    covered_ms: f64,
    bytes: u64,
}

fn totals(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, Totals> {
    let coverage = op_coverage(spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.ms += s.dur_ns() as f64 / 1e6;
        t.bytes += s.bytes;
        if let Some(&(dur, covered)) = coverage.get(&s.id) {
            t.self_ms += (dur - covered) as f64 / 1e6;
            t.covered_ms += covered as f64 / 1e6;
        }
    }
    out
}

/// The per-layer metrics of a traced run. Set-up layers (`datagen`,
/// `optimizer`, `compressor`) total over the whole run; every other layer
/// over the timed phase's window.
pub fn per_layer(
    phase: &Phase,
    spans: &[Span],
    facts: &SetupFacts,
    overhead_ratio: f64,
) -> Vec<Metric> {
    let (w0, w1) = phase.window;
    let all = totals(spans, |_| true);
    let timed = totals(spans, |s| s.start_ns >= w0 && s.start_ns <= w1);
    let get = |m: &BTreeMap<&str, Totals>, names: &[&str]| {
        names.iter().fold(Totals::default(), |mut acc, n| {
            if let Some(t) = m.get(n) {
                acc.count += t.count;
                acc.ms += t.ms;
                acc.self_ms += t.self_ms;
                acc.covered_ms += t.covered_ms;
                acc.bytes += t.bytes;
            }
            acc
        })
    };
    let t = |names: &[&str]| get(&timed, names);
    let k = &phase.counters;
    let cache = phase.cache.unwrap_or_default();
    let (append, compact) = (t(&["ingest.append"]), t(&["compact"]));
    let write = t(&["vfs.write"]);
    let read = t(&["io.read"]);
    let scan = t(&["scan", "serve.scan"]);
    let agg = t(&["aggregate", "serve.agg"]);
    let topk = t(&["topk", "serve.topk"]);
    let join = t(&["join"]);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, v: f64| {
        values.insert(name, v);
    };
    set("datagen.gen_ms", get(&all, &["datagen"]).ms);
    set("optimizer.plan_ms", get(&all, &["optimizer"]).ms);
    set("compressor.compress_ms", get(&all, &["compressor"]).ms);
    for (name, col) in PER_LAYER[3..9].iter().map(|m| m.0).zip(TRACKED_COLUMNS) {
        set(
            name,
            facts.column_bytes.get(col).copied().unwrap_or(0) as f64,
        );
    }
    set("ingest.append_self_ms", append.self_ms);
    set("ingest.appends", append.count as f64);
    set("vfs.write_ms", write.ms);
    set("vfs.fsync_ms", t(&["vfs.fsync"]).ms);
    set("vfs.fsync_count", t(&["vfs.fsync"]).count as f64);
    set("vfs.dir_sync_count", t(&["vfs.sync_dir"]).count as f64);
    set("vfs.rename_count", t(&["vfs.rename"]).count as f64);
    set("vfs.bytes_written", write.bytes as f64);
    set(
        "vfs.write_amp",
        ratio(write.bytes as f64, k.user_bytes_acked as f64),
    );
    set("compact.ms", compact.ms);
    set("compact.self_ms", compact.self_ms);
    set("compact.calls", compact.count as f64);
    set("compact.bytes_in", k.compact_bytes_in as f64);
    set("compact.bytes_out", k.compact_bytes_out as f64);
    set("compact.segments_merged", k.compact_segments as f64);
    set("store.open_ms", t(&["store.open"]).ms);
    set("store.bytes_read", k.store_bytes_read as f64);
    set("store.blocks_skipped_io", k.store_skipped_io as f64);
    set("store.segments_opened", k.store_segments as f64);
    set("io.read_calls", read.count as f64);
    set("io.read_bytes", read.bytes as f64);
    set("io.read_ms", read.ms);
    set(
        "io.read_bytes_per_op",
        ratio(read.bytes as f64, phase.attempted as f64),
    );
    set("cache.hits", cache.hits as f64);
    set("cache.misses", cache.misses as f64);
    set("cache.hit_rate", cache.hit_rate());
    set("cache.evictions", cache.evictions as f64);
    set("cache.bytes_evicted", cache.bytes_evicted as f64);
    set("cache.oversize", cache.oversize as f64);
    set("scan.calls", scan.count as f64);
    set("scan.self_ms", scan.self_ms);
    set("scan.io_ms", scan.covered_ms);
    set("scan.rows_scanned", k.scan_rows as f64);
    set("scan.rows_matched", k.scan_matched as f64);
    set(
        "scan.blocks_pruned_ratio",
        ratio(k.scan_pruned as f64, k.scan_blocks as f64),
    );
    set("aggregate.calls", agg.count as f64);
    set("aggregate.self_ms", agg.self_ms);
    set("aggregate.io_ms", agg.covered_ms);
    set(
        "aggregate.zone_answered_ratio",
        ratio(k.agg_zone as f64, k.agg_blocks as f64),
    );
    set("topk.calls", topk.count as f64);
    set("topk.self_ms", topk.self_ms);
    set("topk.io_ms", topk.covered_ms);
    set(
        "topk.blocks_skipped_ratio",
        ratio(k.topk_skipped as f64, k.topk_blocks as f64),
    );
    set("join.calls", join.count as f64);
    set("join.self_ms", join.self_ms);
    set("join.io_ms", join.covered_ms);
    set("join.build_rows", k.join_build_rows as f64);
    set("join.probe_rows", k.join_probe_rows as f64);
    set("join.pairs", k.join_pairs as f64);
    set("serve.point.self_ms", t(&["serve.point"]).self_ms);
    set("serve.scan.self_ms", t(&["serve.scan"]).self_ms);
    set("serve.agg.self_ms", t(&["serve.agg"]).self_ms);
    set("serve.topk.self_ms", t(&["serve.topk"]).self_ms);
    set("trace.overhead_ratio", overhead_ratio);
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| metric(name, values[name], unit))
        .collect()
}

/// Renders metrics as a JSON object body.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree name for
    /// name, unit for unit.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let squash: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(squash.contains(&entry), "end_to_end entry {entry} missing");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(squash.contains(&entry), "per_layer entry {entry} missing");
        }
        assert_eq!(
            squash.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + 3
        );
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    #[test]
    fn per_layer_reports_every_name_once() {
        let m = per_layer(&Phase::default(), &[], &SetupFacts::default(), 1.0);
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
    }
}
