//! The read queries the `analytics` and `serve` workloads draw from, with
//! their oracle answers and the check of a library answer against them.

use corra_core::{AggResult, TopKRow};
use rand::rngs::StdRng;
use rand::Rng;

use crate::oracle::{expected_join, expected_scan, Agg, Pred, RawTable, RowSet, TopK};

/// One read query over numbered tables.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Predicate scan returning per-block selections.
    Scan {
        /// Table index.
        table: usize,
        /// Filter.
        pred: Pred,
    },
    /// Aggregate, optionally filtered and grouped.
    Agg {
        /// Table index.
        table: usize,
        /// Expression.
        agg: Agg,
    },
    /// TOP-K / ORDER BY ... LIMIT k.
    TopK {
        /// Table index.
        table: usize,
        /// Expression.
        topk: TopK,
    },
    /// Dictionary-code hash join: build over a small dimension table,
    /// probe a large one.
    Join {
        /// Build-side table index.
        build: usize,
        /// Probe-side table index.
        probe: usize,
        /// Key column on both sides.
        key: String,
    },
}

/// An oracle answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Scan or join: matched rows or pairs.
    Rows(RowSet),
    /// Aggregate result.
    Agg(AggResult),
    /// TOP-K values, best first.
    TopK(Vec<i64>),
}

impl Query {
    /// The latency series this query reports under.
    pub fn series(&self) -> &'static str {
        match self {
            Query::Scan { .. } => "scan",
            Query::Agg { .. } => "agg",
            Query::TopK { .. } => "topk",
            Query::Join { .. } => "join",
        }
    }

    /// The answer computed from raw columns.
    pub fn expected(&self, raw: &[RawTable]) -> Expected {
        match self {
            Query::Scan { table, pred } => Expected::Rows(expected_scan(pred, &raw[*table])),
            Query::Agg { table, agg } => Expected::Agg(agg.expected(&raw[*table])),
            Query::TopK { table, topk } => Expected::TopK(topk.expected(&raw[*table])),
            Query::Join { build, probe, key } => {
                Expected::Rows(expected_join(&raw[*build], key, &raw[*probe], key))
            }
        }
    }
}

/// Checks TOP-K rows against the oracle: the values must equal the
/// expected values, and each row id must address a row holding its value.
///
/// # Errors
///
/// A description of the first mismatch.
pub fn check_topk(
    rows: &[TopKRow],
    want: &[i64],
    raw: &RawTable,
    column: &str,
    block_starts: &[u64],
) -> Result<(), String> {
    let got: Vec<i64> = rows.iter().map(|r| r.value).collect();
    if got != want {
        return Err(format!("top-k values {got:?} != expected {want:?}"));
    }
    let vals = raw.ints(column);
    for r in rows {
        let pos = block_starts[r.block as usize] + u64::from(r.row);
        if vals[pos as usize] != r.value {
            return Err(format!(
                "top-k row {}:{} holds {} not {}",
                r.block, r.row, vals[pos as usize], r.value
            ));
        }
    }
    Ok(())
}

/// A `BETWEEN` over `column` matching about `selectivity` of the rows:
/// the bounds are quantiles of a seeded sample of the column.
pub fn range_pred(raw: &RawTable, column: &str, selectivity: f64, rng: &mut StdRng) -> Pred {
    let vals = raw.ints(column);
    let mut sample: Vec<i64> = (0..4096)
        .map(|_| vals[rng.gen_range(0..vals.len())])
        .collect();
    sample.sort_unstable();
    let n = sample.len();
    let width = ((selectivity * n as f64) as usize).clamp(1, n - 1);
    let lo_idx = rng.gen_range(0..n - width);
    Pred::Between(
        column.to_owned(),
        sample[lo_idx],
        sample[lo_idx + width - 1],
    )
}

/// Selectivities the scan mix draws from: 0.1 % to 50 %.
pub const SELECTIVITIES: [f64; 4] = [0.001, 0.01, 0.1, 0.5];
