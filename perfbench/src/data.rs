//! Seeded inputs and the paper's Table 2 plans, plus writing and opening
//! table files through the library's public store API.

use std::path::Path;
use std::sync::Arc;

use corra_columnar::block::Table;
use corra_columnar::column::{Column, DataType};
use corra_columnar::error::Result;
use corra_columnar::schema::{Field, Schema};
use corra_columnar::strings::StringPool;
use corra_core::cache::ShardedCache;
use corra_core::io::{FileBackend, IoBackend};
use corra_core::store::{TableReader, TableWriter};
use corra_core::{ColumnPlan, CompressionConfig};
use corra_datagen::{
    DmvParams, DmvTable, LineitemDates, MessageParams, MessageTable, TaxiParams, TaxiTable,
};

use crate::trace::{TracedBackend, Tracer};

/// TPC-H lineitem dates.
pub fn lineitem(rows: usize, seed: u64) -> Table {
    LineitemDates::generate(rows, seed).into_table()
}

/// NYC-taxi-like trips.
pub fn taxi(rows: usize, seed: u64) -> Table {
    TaxiTable::generate(
        TaxiParams {
            rows,
            ..Default::default()
        },
        seed,
    )
    .into_table()
}

/// DMV registrations (state, city, zip).
pub fn dmv(rows: usize, seed: u64) -> Table {
    DmvTable::generate(DmvParams::scaled(rows), seed).into_table()
}

/// LDBC messages (countryid, ip).
pub fn message(rows: usize, seed: u64) -> Table {
    MessageTable::generate(MessageParams::scaled(rows), seed).into_table()
}

/// `table` with its rows reordered by ascending `column` (stable), the
/// arrival order of an append-only log keyed by time.
pub fn sorted_by(table: Table, column: &str) -> Table {
    let key = table
        .column(column)
        .expect("sort column exists")
        .as_i64()
        .expect("integer sort column");
    let mut perm: Vec<u32> = (0..key.len() as u32).collect();
    perm.sort_by_key(|&i| key[i as usize]);
    let columns = table
        .columns()
        .iter()
        .map(|c| match c {
            Column::Int64(v) => Column::Int64(perm.iter().map(|&i| v[i as usize]).collect()),
            Column::Utf8(p) => {
                let mut out = StringPool::new();
                for &i in &perm {
                    out.push(p.get(i as usize));
                }
                Column::Utf8(out)
            }
        })
        .collect();
    Table::new(table.schema().clone(), columns).expect("permutation keeps columns aligned")
}

/// Table 2: `l_commitdate` and `l_receiptdate` against `l_shipdate`.
pub fn lineitem_plan() -> CompressionConfig {
    CompressionConfig::baseline()
        .with("l_commitdate", nonhier("l_shipdate"))
        .with("l_receiptdate", nonhier("l_shipdate"))
}

/// Table 2: NonHier `dropoff` against `pickup`, MultiRef `total_amount`.
pub fn taxi_plan() -> CompressionConfig {
    CompressionConfig::baseline()
        .with("dropoff", nonhier("pickup"))
        .with(
            "total_amount",
            ColumnPlan::MultiRef {
                groups: TaxiTable::reference_groups(),
                code_bits: 2,
            },
        )
}

/// Table 2: Hier `zip` under `city`.
pub fn dmv_plan() -> CompressionConfig {
    CompressionConfig::baseline().with(
        "zip",
        ColumnPlan::Hier {
            reference: "city".into(),
        },
    )
}

/// Table 2: Hier `ip` under `countryid`.
pub fn message_plan() -> CompressionConfig {
    CompressionConfig::baseline().with(
        "ip",
        ColumnPlan::Hier {
            reference: "countryid".into(),
        },
    )
}

/// A single-reference diff plan.
pub fn nonhier(reference: &str) -> ColumnPlan {
    ColumnPlan::NonHier {
        reference: reference.into(),
    }
}

/// A small dimension table: one dictionary-encoded key column plus a
/// payload column.
pub fn dimension(key: &str, keys: Column, payload: Vec<i64>) -> Table {
    let key_type = match keys {
        Column::Int64(_) => DataType::Int64,
        Column::Utf8(_) => DataType::Utf8,
    };
    let schema = Schema::new(vec![
        Field::new(key, key_type),
        Field::new("weight", DataType::Int64),
    ])
    .expect("distinct field names");
    Table::new(schema, vec![keys, Column::Int64(payload)]).expect("aligned dimension columns")
}

/// Writes compressed blocks as one table file; returns its size.
///
/// # Errors
///
/// I/O failures.
pub fn write_file(
    path: &Path,
    schema: Schema,
    blocks: &[corra_core::CompressedBlock],
) -> Result<u64> {
    let file = std::fs::File::create(path)
        .map_err(|e| corra_columnar::error::Error::invalid(format!("create {path:?}: {e}")))?;
    let mut writer = TableWriter::with_schema(std::io::BufWriter::new(file), schema)?;
    for b in blocks {
        writer.write_block(b)?;
    }
    let sink = writer.finish()?;
    let file = sink
        .into_inner()
        .map_err(|e| corra_columnar::error::Error::invalid(format!("flush {path:?}: {e}")))?;
    file.sync_all()
        .map_err(|e| corra_columnar::error::Error::invalid(format!("sync {path:?}: {e}")))?;
    Ok(std::fs::metadata(path).map(|m| m.len()).unwrap_or(0))
}

/// Opens a table file; a traced run reads it through a [`TracedBackend`].
///
/// # Errors
///
/// Open or footer failures.
pub fn open_reader(
    path: &Path,
    cache: Option<&Arc<ShardedCache>>,
    tracer: &Arc<Tracer>,
) -> Result<TableReader> {
    let backend: Box<dyn IoBackend> = Box::new(FileBackend::open(path)?);
    let backend = if tracer.enabled() {
        Box::new(TracedBackend::new(backend, Arc::clone(tracer)))
    } else {
        backend
    };
    let reader = TableReader::from_backend(backend)?;
    Ok(match cache {
        Some(c) => reader.with_cache(Arc::clone(c)),
        None => reader,
    })
}
