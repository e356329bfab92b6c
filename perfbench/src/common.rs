//! What every workload shares: the timed-phase outcome, per-layer counters
//! taken from the library's own stats types, exact byte accounting, and
//! the run's environment.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use corra_columnar::block::Table;
use corra_columnar::column::Column;
use corra_core::cache::CacheStats;
use corra_core::store::TableFooter;
use corra_core::{JoinStats, ScanStats};

use crate::stats::Sample;
use crate::trace::Tracer;

/// Worker threads for intra-query parallelism and concurrent clients.
pub const THREADS: usize = 2;

/// Most set-ups one run makes.
const MAX_SETUPS: usize = 64;

/// How many times a run sets up: at least `min` times, and again while
/// the set-ups so far took less than `budget_s` in all (at most
/// [`MAX_SETUPS`]), so that a set-up of milliseconds repeats often enough
/// for a steady median.
#[derive(Debug, Clone, Copy)]
pub struct SetupRuns {
    /// Fewest set-ups.
    pub min: usize,
    /// Seconds of set-up to reach before stopping.
    pub budget_s: f64,
}

impl SetupRuns {
    /// Whether to set up again after the set-ups timed in `times`.
    pub fn again(&self, times: &[f64]) -> bool {
        times.len() < self.min.max(1)
            || (times.iter().sum::<f64>() < self.budget_s && times.len() < MAX_SETUPS)
    }
}

/// Columns whose stored bytes are reported per layer: the paper's Table 2
/// diff-encoded targets.
pub const TRACKED_COLUMNS: [&str; 6] = [
    "l_commitdate",
    "l_receiptdate",
    "dropoff",
    "total_amount",
    "zip",
    "ip",
];

/// Bytes a user handed the system for `table`: 8 per integer value, the
/// UTF-8 length of every string.
pub fn user_bytes(table: &Table) -> u64 {
    table
        .columns()
        .iter()
        .map(|c| match c {
            Column::Int64(v) => v.len() as u64 * 8,
            Column::Utf8(p) => p.iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

/// Adds each tracked column's stored payload bytes (footer `ColumnMeta`
/// spans) in `footer` to `into`.
pub fn add_column_bytes(footer: &TableFooter, into: &mut BTreeMap<String, u64>) {
    for (i, field) in footer.schema.fields().iter().enumerate() {
        if TRACKED_COLUMNS.contains(&field.name()) {
            let bytes: u64 = footer
                .blocks
                .iter()
                .map(|b| u64::from(b.columns[i].span.len))
                .sum();
            *into.entry(field.name().to_owned()).or_default() += bytes;
        }
    }
}

/// Per-layer work counts, folded from the library's `ScanStats`,
/// `JoinStats` and `CompactionResult` over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Rows visited by scans.
    pub scan_rows: u64,
    /// Rows matched by scans.
    pub scan_matched: u64,
    /// Blocks visited by scans.
    pub scan_blocks: u64,
    /// Scan blocks decided from zone maps alone.
    pub scan_pruned: u64,
    /// Blocks visited by aggregates.
    pub agg_blocks: u64,
    /// Aggregate blocks answered from the footer with no payload read.
    pub agg_zone: u64,
    /// Blocks visited by TOP-K.
    pub topk_blocks: u64,
    /// TOP-K blocks skipped without payload I/O.
    pub topk_skipped: u64,
    /// Join build-side rows.
    pub join_build_rows: u64,
    /// Join probe-side rows.
    pub join_probe_rows: u64,
    /// Join pairs emitted.
    pub join_pairs: u64,
    /// Payload bytes the store fetched (backend or cache-miss fills).
    pub store_bytes_read: u64,
    /// Blocks the store answered without payload I/O.
    pub store_skipped_io: u64,
    /// Segments the store's operators touched.
    pub store_segments: u64,
    /// Compaction input bytes.
    pub compact_bytes_in: u64,
    /// Compaction output bytes.
    pub compact_bytes_out: u64,
    /// Segments merged away by compaction (inputs).
    pub compact_segments: u64,
    /// Plain bytes of acknowledged appended rows.
    pub user_bytes_acked: u64,
    /// Acknowledged appended rows.
    pub rows_acked: u64,
}

/// Operator families whose stats feed [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Predicate scan.
    Scan,
    /// Aggregate.
    Agg,
    /// TOP-K.
    TopK,
    /// Point read (store counters only).
    Point,
}

impl Counters {
    /// Folds one operation's `ScanStats`.
    pub fn absorb(&mut self, family: Family, s: &ScanStats) {
        self.store_bytes_read += s.bytes_read;
        self.store_skipped_io += s.blocks_skipped_io as u64;
        self.store_segments += s.segments_opened as u64;
        let blocks = s.blocks as u64;
        match family {
            Family::Scan => {
                self.scan_rows += s.rows_total as u64;
                self.scan_matched += s.rows_matched as u64;
                self.scan_blocks += blocks;
                self.scan_pruned += s.blocks_pruned as u64;
            }
            Family::Agg => {
                self.agg_blocks += blocks;
                self.agg_zone += s.blocks_skipped_io as u64;
            }
            Family::TopK => {
                self.topk_blocks += blocks;
                self.topk_skipped += s.blocks_skipped_io as u64;
            }
            Family::Point => {}
        }
    }

    /// Adds every counter of `o`.
    pub fn merge(&mut self, o: &Counters) {
        self.scan_rows += o.scan_rows;
        self.scan_matched += o.scan_matched;
        self.scan_blocks += o.scan_blocks;
        self.scan_pruned += o.scan_pruned;
        self.agg_blocks += o.agg_blocks;
        self.agg_zone += o.agg_zone;
        self.topk_blocks += o.topk_blocks;
        self.topk_skipped += o.topk_skipped;
        self.join_build_rows += o.join_build_rows;
        self.join_probe_rows += o.join_probe_rows;
        self.join_pairs += o.join_pairs;
        self.store_bytes_read += o.store_bytes_read;
        self.store_skipped_io += o.store_skipped_io;
        self.store_segments += o.store_segments;
        self.compact_bytes_in += o.compact_bytes_in;
        self.compact_bytes_out += o.compact_bytes_out;
        self.compact_segments += o.compact_segments;
        self.user_bytes_acked += o.user_bytes_acked;
        self.rows_acked += o.rows_acked;
    }

    /// Folds one join's stats.
    pub fn absorb_join(&mut self, j: &JoinStats) {
        self.join_build_rows += j.build_rows as u64;
        self.join_probe_rows += j.probe_rows as u64;
        self.join_pairs += j.pairs as u64;
        self.store_bytes_read += j.io.bytes_read;
        self.store_skipped_io += j.io.blocks_skipped_io as u64;
        self.store_segments += j.io.segments_opened as u64;
    }
}

/// Latency samples by series (`op`, `scan`, `append`, ...).
#[derive(Debug, Clone, Default)]
pub struct Latencies(pub BTreeMap<&'static str, Vec<Sample>>);

impl Latencies {
    /// The samples of one series (empty when none were taken).
    pub fn get(&self, series: &str) -> &[Sample] {
        self.0.get(series).map_or(&[], Vec::as_slice)
    }

    /// Moves every sample of `other` in.
    pub fn merge(&mut self, other: Latencies) {
        for (k, mut v) in other.0 {
            self.0.entry(k).or_default().append(&mut v);
        }
    }
}

/// One timed phase's results.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Timed wall time, seconds.
    pub wall_s: f64,
    /// Client operations completed (appends on ingest, queries or
    /// requests elsewhere) — the `ops_per_s` numerator.
    pub ops: u64,
    /// Operations attempted, verification reads included.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Per-series latency samples.
    pub lat: Latencies,
    /// Per-layer counters.
    pub counters: Counters,
    /// Cache counter deltas over the phase (`None` without a cache).
    pub cache: Option<CacheStats>,
    /// The phase's tracer window, nanoseconds.
    pub window: (u64, u64),
    /// The distinct request in progress, on workloads that repeat
    /// requests (`serve`).
    pub key: Option<u64>,
    /// Samples taken so far in the current cycle, by series, on workloads
    /// that repeat one fixed cycle of ops (`ingest`): the n-th sample of a
    /// series in a cycle is the same op in every cycle, and n is its key.
    pub cycle: Option<BTreeMap<&'static str, u64>>,
}

impl Phase {
    /// Starts a cycle: the next sample of each series is the cycle's first.
    pub fn start_cycle(&mut self) {
        self.cycle = Some(BTreeMap::new());
    }

    /// Records one latency sample of `series`, keyed by the current
    /// request, or by its position in the current cycle.
    pub fn sample(&mut self, series: &'static str, ms: f64) {
        let key = match &mut self.cycle {
            Some(taken) => {
                let n = taken.entry(series).or_default();
                *n += 1;
                Some(*n - 1)
            }
            None => self.key,
        };
        self.lat
            .0
            .entry(series)
            .or_default()
            .push(Sample { ms, key });
    }

    /// Folds a concurrent client's counts and samples in (not its wall
    /// time or window).
    pub fn merge_client(&mut self, c: Phase) {
        self.ops += c.ops;
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.lat.merge(c.lat);
        self.counters.merge(&c.counters);
    }

    /// Counts one attempted op; errors count as failed. A wrong answer
    /// is not an error: the caller aborts the run on it.
    pub fn record<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("op failed: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// Cache counters accumulated between two snapshots.
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        bytes_evicted: after.bytes_evicted - before.bytes_evicted,
        oversize: after.oversize - before.oversize,
        bytes_cached: after.bytes_cached,
    }
}

/// What set-up measured once per run, for the report.
#[derive(Debug, Clone, Default)]
pub struct SetupFacts {
    /// Table bytes on disk ÷ plain bytes of the stored rows.
    pub bytes_per_user_byte: f64,
    /// Stored payload bytes of each tracked column.
    pub column_bytes: BTreeMap<String, u64>,
    /// Run context: rows, block rows, cache budget, file bytes, ...
    pub context: Vec<(&'static str, String)>,
}

impl SetupFacts {
    /// Sets one context entry, replacing an earlier value.
    pub fn set(&mut self, key: &'static str, value: String) {
        self.context.retain(|(k, _)| *k != key);
        self.context.push((key, value));
    }
}

/// A scratch directory inside the benchmark's own tree, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<perfbench>/work/<label>-<pid>`, emptying any leftover.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn create(label: &str) -> std::io::Result<Self> {
        let base = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
            .join("work");
        let dir = base.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type holding `path`, from the longest matching mount.
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_owned());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (_, mnt, fs) = (it.next()?, it.next()?, it.next()?);
            abs.starts_with(mnt).then(|| (mnt.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

/// The tracer window of a timed phase: open it, run `f`, close it.
pub fn in_window<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let start = tracer.now_ns();
    let out = f();
    (out, (start, tracer.now_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_runs_reach_the_minimum_then_the_budget() {
        let runs = SetupRuns {
            min: 5,
            budget_s: 2.0,
        };
        // Slow set-ups stop at the minimum.
        assert!(runs.again(&[1.0; 4]));
        assert!(!runs.again(&[1.0; 5]));
        // Fast ones go on until the budget is spent, or the cap is hit.
        assert!(runs.again(&[0.03; 5]));
        assert!(!runs.again(&[0.03; 67]));
        assert!(!runs.again(&[0.001; MAX_SETUPS]));
        // A single set-up (traced runs) never repeats.
        let once = SetupRuns {
            min: 1,
            budget_s: 0.0,
        };
        assert!(once.again(&[]));
        assert!(!once.again(&[0.001]));
    }
}
