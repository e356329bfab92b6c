//! Driver-matrix characterization: every operator (scan, scalar and
//! `GROUP BY` aggregate, TOP-K, dict-code hash join) over every block
//! source (in-memory blocks, one `TableReader`, a one-segment and a
//! three-segment `SegmentedTable` holding the same blocks) at thread
//! counts {1, 2, 4, n_blocks + 3}.
//!
//! * Results are equal everywhere.
//! * Scan, aggregate and join counters are equal between the serial and
//!   every parallel run on each source.
//! * Serial TOP-K counters are equal between the `TableReader` and the
//!   one-segment table (parallel TOP-K pruning is timing-dependent).

use std::sync::Arc;

use corra_columnar::block::DataBlock;
use corra_columnar::column::{Column, DataType};
use corra_columnar::schema::{Field, Schema};
use corra_columnar::strings::StringPool;
use corra_core::store::{SegmentedTable, TableReader, TableWriter};
use corra_core::{
    aggregate_blocks, aggregate_blocks_parallel, hash_join_blocks, hash_join_blocks_parallel,
    scan_blocks, scan_blocks_parallel, top_k_blocks, top_k_blocks_parallel, AggExpr, ColumnPlan,
    CompressedBlock, CompressionConfig, JoinExpr, Predicate, TopKExpr,
};

const N_BLOCKS: usize = 6;
const ROWS: usize = 400;
const CITIES: [&str; 4] = ["NYC", "Albany", "Naples", "Boston"];

/// Block `b`: `ship` lives in `[b * 1000, b * 1000 + 699]`, so range
/// predicates prune some blocks, cover others and straddle the rest.
fn raw_block(b: usize) -> DataBlock {
    let city_of = |i: usize| (i + b) % CITIES.len();
    let city = StringPool::from_iter((0..ROWS).map(|i| CITIES[city_of(i)]));
    let zip: Vec<i64> = (0..ROWS)
        .map(|i| 10_000 + city_of(i) as i64 * 100 + (i / 4 % 5) as i64)
        .collect();
    let ship: Vec<i64> = (0..ROWS)
        .map(|i| b as i64 * 1_000 + (i as i64 * 17 % 700))
        .collect();
    let receipt: Vec<i64> = ship
        .iter()
        .enumerate()
        .map(|(i, &s)| s + 1 + (i as i64 % 30))
        .collect();
    let key: Vec<i64> = (0..ROWS).map(|i| ((i * 7 + b) % 23) as i64).collect();
    let fee: Vec<i64> = (0..ROWS).map(|i| 100 + (i % 10 + b) as i64).collect();
    DataBlock::new(
        Schema::new(vec![
            Field::new("city", DataType::Utf8),
            Field::new("zip", DataType::Int64),
            Field::new("ship", DataType::Date),
            Field::new("receipt", DataType::Date),
            Field::new("key", DataType::Int64),
            Field::new("fee", DataType::Int64),
        ])
        .unwrap(),
        vec![
            Column::Utf8(city),
            Column::Int64(zip),
            Column::Int64(ship),
            Column::Int64(receipt),
            Column::Int64(key),
            Column::Int64(fee),
        ],
    )
    .unwrap()
}

fn blocks() -> Vec<CompressedBlock> {
    let cfg = CompressionConfig::baseline()
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
        .with(
            "receipt",
            ColumnPlan::NonHier {
                reference: "ship".into(),
            },
        )
        .with("key", ColumnPlan::Dict);
    (0..N_BLOCKS)
        .map(|b| CompressedBlock::compress(&raw_block(b), &cfg).unwrap())
        .collect()
}

fn reader(blocks: &[CompressedBlock]) -> TableReader {
    let mut writer = TableWriter::new(Vec::new()).unwrap();
    for b in blocks {
        writer.write_block(b).unwrap();
    }
    TableReader::from_bytes(writer.finish().unwrap()).unwrap()
}

/// The four sources over the same blocks.
struct Sources {
    mem: Vec<CompressedBlock>,
    file: TableReader,
    one: SegmentedTable,
    three: SegmentedTable,
}

fn sources() -> Sources {
    let mem = blocks();
    let file = reader(&mem);
    let one = SegmentedTable::from_readers(vec![Arc::new(reader(&mem))]);
    let three = SegmentedTable::from_readers(
        [&mem[..2], &mem[2..3], &mem[3..]]
            .iter()
            .map(|part| Arc::new(reader(part)))
            .collect(),
    );
    assert_eq!(three.n_segments(), 3);
    assert_eq!(three.n_blocks(), N_BLOCKS);
    Sources {
        mem,
        file,
        one,
        three,
    }
}

const THREADS: [usize; 4] = [1, 2, 4, N_BLOCKS + 3];

fn predicates() -> Vec<Predicate> {
    vec![
        Predicate::between("ship", 1_100, 3_300),
        Predicate::lt("ship", 0),
        Predicate::ge("ship", 0),
        Predicate::and(vec![
            Predicate::ge("ship", 2_000),
            Predicate::str_eq("city", "Naples"),
        ]),
        Predicate::or(vec![
            Predicate::lt("ship", 500),
            Predicate::between("receipt", 4_200, 4_400),
        ]),
        Predicate::not(Predicate::between("ship", 1_000, 3_999)),
        Predicate::between("zip", 10_100, 10_202),
    ]
}

#[test]
fn scan_matrix() {
    let s = sources();
    for pred in predicates() {
        let (want, mem_stats) = scan_blocks(&s.mem, &pred).unwrap();
        let (file_sels, file_stats) = s.file.scan_blocks(&pred).unwrap();
        let (one_sels, one_stats) = s.one.scan_blocks(&pred).unwrap();
        let (three_sels, three_stats) = s.three.scan_blocks(&pred).unwrap();
        assert_eq!(file_sels, want, "{pred:?} file");
        assert_eq!(one_sels, want, "{pred:?} one segment");
        assert_eq!(three_sels, want, "{pred:?} three segments");
        for threads in THREADS {
            let ctx = format!("{pred:?} threads {threads}");
            let (sels, stats) = scan_blocks_parallel(&s.mem, &pred, threads).unwrap();
            assert_eq!((sels, stats), (want.clone(), mem_stats), "{ctx} mem");
            let (sels, stats) = s.file.scan_blocks_parallel(&pred, threads).unwrap();
            assert_eq!((sels, stats), (want.clone(), file_stats), "{ctx} file");
            let (sels, stats) = s.one.scan_blocks_parallel(&pred, threads).unwrap();
            assert_eq!((sels, stats), (want.clone(), one_stats), "{ctx} one");
            let (sels, stats) = s.three.scan_blocks_parallel(&pred, threads).unwrap();
            assert_eq!((sels, stats), (want.clone(), three_stats), "{ctx} three");
        }
    }
}

fn aggregates() -> Vec<AggExpr> {
    vec![
        AggExpr::count(),
        AggExpr::count().with_filter(Predicate::between("ship", 1_100, 3_300)),
        AggExpr::sum("fee").with_filter(Predicate::not(Predicate::lt("ship", 2_000))),
        AggExpr::min("ship"),
        AggExpr::max("receipt").with_filter(Predicate::str_eq("city", "Boston")),
        AggExpr::avg("fee"),
        AggExpr::min("city").with_filter(Predicate::ge("ship", 4_000)),
        AggExpr::max("zip").with_filter(Predicate::lt("ship", 0)),
        AggExpr::count().with_group_by("city"),
        AggExpr::sum("fee")
            .with_group_by("key")
            .with_filter(Predicate::between("ship", 1_100, 3_300)),
        AggExpr::max("ship").with_group_by("city"),
        AggExpr::avg("receipt")
            .with_group_by("city")
            .with_filter(Predicate::lt("ship", 0)),
    ]
}

#[test]
fn aggregate_matrix() {
    let s = sources();
    for expr in aggregates() {
        let (want, mem_stats) = aggregate_blocks(&s.mem, &expr).unwrap();
        assert_eq!(s.file.aggregate(&expr).unwrap().0, want, "{expr:?} file");
        assert_eq!(s.one.aggregate(&expr).unwrap().0, want, "{expr:?} one");
        assert_eq!(s.three.aggregate(&expr).unwrap().0, want, "{expr:?} three");
        for threads in THREADS {
            let got = aggregate_blocks_parallel(&s.mem, &expr, threads).unwrap();
            assert_eq!(got, (want.clone(), mem_stats), "{expr:?} threads {threads}");
        }
    }
}

fn top_ks() -> Vec<TopKExpr> {
    vec![
        TopKExpr::asc("ship", 5),
        TopKExpr::desc("ship", 7),
        TopKExpr::asc("receipt", 3).with_filter(Predicate::str_eq("city", "Boston")),
        TopKExpr::desc("fee", 10).with_filter(Predicate::between("ship", 1_100, 3_300)),
        TopKExpr::asc("zip", 4),
        TopKExpr::desc("key", 9).with_filter(Predicate::lt("ship", 0)),
        TopKExpr::order_by("ship", true).with_filter(Predicate::lt("ship", 1_300)),
        TopKExpr::asc("ship", 0),
    ]
}

#[test]
fn top_k_matrix() {
    let s = sources();
    for expr in top_ks() {
        let (want, _) = top_k_blocks(&s.mem, &expr).unwrap();
        let (file_rows, file_stats) = s.file.top_k(&expr).unwrap();
        let (one_rows, one_stats) = s.one.top_k(&expr).unwrap();
        let (three_rows, _) = s.three.top_k(&expr).unwrap();
        assert_eq!(file_rows, want, "{expr:?} file");
        assert_eq!(one_rows, want, "{expr:?} one");
        assert_eq!(three_rows, want, "{expr:?} three");
        assert_eq!(one_stats, file_stats, "{expr:?} serial file vs one segment");
        for threads in THREADS {
            let ctx = format!("{expr:?} threads {threads}");
            assert_eq!(
                top_k_blocks_parallel(&s.mem, &expr, threads).unwrap().0,
                want,
                "{ctx} mem"
            );
            assert_eq!(
                s.file.top_k_parallel(&expr, threads).unwrap().0,
                want,
                "{ctx} file"
            );
            assert_eq!(
                s.one.top_k_parallel(&expr, threads).unwrap().0,
                want,
                "{ctx} one"
            );
            assert_eq!(
                s.three.top_k_parallel(&expr, threads).unwrap().0,
                want,
                "{ctx} three"
            );
        }
    }
}

#[test]
fn hash_join_matrix() {
    let s = sources();
    for expr in [JoinExpr::on("city", "city"), JoinExpr::on("key", "key")] {
        let (want, mem_stats) = hash_join_blocks(&s.mem, &s.mem, &expr).unwrap();
        assert!(!want.is_empty());
        let (file_pairs, file_stats) = s.file.hash_join(&s.file, &expr).unwrap();
        let (one_pairs, one_stats) = s.one.hash_join(&s.one, &expr).unwrap();
        let (three_pairs, three_stats) = s.three.hash_join(&s.three, &expr).unwrap();
        assert_eq!(file_pairs, want, "{expr:?} file");
        assert_eq!(one_pairs, want, "{expr:?} one");
        assert_eq!(three_pairs, want, "{expr:?} three");
        for threads in THREADS {
            let ctx = format!("{expr:?} threads {threads}");
            let got = hash_join_blocks_parallel(&s.mem, &s.mem, &expr, threads).unwrap();
            assert_eq!(got, (want.clone(), mem_stats), "{ctx} mem");
            let got = s.file.hash_join_parallel(&s.file, &expr, threads).unwrap();
            assert_eq!(got, (want.clone(), file_stats), "{ctx} file");
            let got = s.one.hash_join_parallel(&s.one, &expr, threads).unwrap();
            assert_eq!(got, (want.clone(), one_stats), "{ctx} one");
            let got = s
                .three
                .hash_join_parallel(&s.three, &expr, threads)
                .unwrap();
            assert_eq!(got, (want.clone(), three_stats), "{ctx} three");
        }
    }
}
