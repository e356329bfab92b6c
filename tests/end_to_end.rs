//! End-to-end integration tests: dataset generation → configuration →
//! multi-block compression → serialization → independent block decode →
//! queries, for all four paper datasets.

use corra::datagen::{
    DmvParams, DmvTable, LineitemDates, MessageParams, MessageTable, TaxiParams, TaxiTable,
};
use corra::prelude::*;

const BLOCK: usize = 100_000; // small blocks keep the test fast

fn roundtrip_all_columns(blocks: &[DataBlock], compressed: &[CompressedBlock]) {
    for (raw, comp) in blocks.iter().zip(compressed) {
        for field in raw.schema().fields() {
            let got = comp.decompress(field.name()).expect("decompress");
            assert_eq!(
                &got,
                raw.column(field.name()).unwrap(),
                "column {}",
                field.name()
            );
        }
    }
}

#[test]
fn tpch_pipeline() {
    let table = LineitemDates::generate(250_000, 1).into_table();
    let cfg = CompressionConfig::baseline()
        .with(
            "l_commitdate",
            ColumnPlan::NonHier {
                reference: "l_shipdate".into(),
            },
        )
        .with(
            "l_receiptdate",
            ColumnPlan::NonHier {
                reference: "l_shipdate".into(),
            },
        );
    let blocks = table.into_blocks(BLOCK);
    assert_eq!(blocks.len(), 3);
    let compressed = corra::core::compress_blocks(&blocks, &cfg, 3).expect("compress");
    roundtrip_all_columns(&blocks, &compressed);
    // Per-block self-containment through bytes.
    for (raw, comp) in blocks.iter().zip(&compressed) {
        let back = CompressedBlock::from_bytes(&comp.to_bytes().expect("encode")).expect("decode");
        for field in raw.schema().fields() {
            assert_eq!(
                &back.decompress(field.name()).unwrap(),
                raw.column(field.name()).unwrap()
            );
        }
    }
    // Paper saving rates hold per block (bit-width arithmetic is exact).
    for comp in &compressed {
        let ship = comp.column_bytes("l_shipdate").unwrap() as f64;
        let receipt = comp.column_bytes("l_receiptdate").unwrap() as f64;
        let commit = comp.column_bytes("l_commitdate").unwrap() as f64;
        assert!(
            (1.0 - receipt / ship - 0.583).abs() < 0.01,
            "receipt saving"
        );
        assert!((1.0 - commit / ship - 0.333).abs() < 0.01, "commit saving");
    }
}

#[test]
fn dmv_pipeline() {
    let table = DmvTable::generate(DmvParams::scaled(200_000), 2).into_table();
    // The paper's Table 2 evaluates (city -> zip) and (state -> city) as
    // separate configurations: a column cannot be reference and
    // diff-encoded at once (no chains).
    let zip_cfg = CompressionConfig::baseline().with(
        "zip",
        ColumnPlan::Hier {
            reference: "city".into(),
        },
    );
    let city_cfg = CompressionConfig::baseline().with(
        "city",
        ColumnPlan::Hier {
            reference: "state".into(),
        },
    );
    let chained = CompressionConfig::baseline()
        .with(
            "zip",
            ColumnPlan::Hier {
                reference: "city".into(),
            },
        )
        .with(
            "city",
            ColumnPlan::Hier {
                reference: "state".into(),
            },
        );
    let blocks = table.into_blocks(BLOCK);
    assert!(
        CompressedBlock::compress(&blocks[0], &chained).is_err(),
        "chained references must be rejected"
    );
    let zip_comp = corra::core::compress_blocks(&blocks, &zip_cfg, 2).expect("compress zip");
    let city_comp = corra::core::compress_blocks(&blocks, &city_cfg, 2).expect("compress city");
    roundtrip_all_columns(&blocks, &zip_comp);
    roundtrip_all_columns(&blocks, &city_comp);
    // Hierarchical zip must clearly beat the baseline; city only slightly.
    let baseline =
        corra::core::compress_blocks(&blocks, &CompressionConfig::baseline(), 2).expect("baseline");
    let zip_saving = 1.0
        - zip_comp[0].column_bytes("zip").unwrap() as f64
            / baseline[0].column_bytes("zip").unwrap() as f64;
    assert!(zip_saving > 0.25, "zip saving {zip_saving}");
    let city_saving = 1.0
        - city_comp[0].column_bytes("city").unwrap() as f64
            / baseline[0].column_bytes("city").unwrap() as f64;
    assert!(
        city_saving > -0.05 && city_saving < 0.3,
        "city saving {city_saving}"
    );
}

#[test]
fn ldbc_pipeline() {
    let table = MessageTable::generate(MessageParams::scaled(300_000), 3).into_table();
    let cfg = CompressionConfig::baseline().with(
        "ip",
        ColumnPlan::Hier {
            reference: "countryid".into(),
        },
    );
    let blocks = table.into_blocks(BLOCK);
    let compressed = corra::core::compress_blocks(&blocks, &cfg, 4).expect("compress");
    roundtrip_all_columns(&blocks, &compressed);
    let baseline =
        corra::core::compress_blocks(&blocks, &CompressionConfig::baseline(), 4).expect("baseline");
    let saving = 1.0
        - compressed[0].column_bytes("ip").unwrap() as f64
            / baseline[0].column_bytes("ip").unwrap() as f64;
    assert!(saving > 0.05, "ip saving {saving}");
}

#[test]
fn taxi_pipeline() {
    let mut taxi = TaxiTable::generate(
        TaxiParams {
            rows: 200_000,
            ..Default::default()
        },
        4,
    );
    assert_eq!(
        corra::datagen::taxi::clean(&mut taxi),
        0,
        "generator is clean"
    );
    let table = taxi.into_table();
    let cfg = CompressionConfig::baseline()
        .with(
            "dropoff",
            ColumnPlan::NonHier {
                reference: "pickup".into(),
            },
        )
        .with(
            "total_amount",
            ColumnPlan::MultiRef {
                groups: TaxiTable::reference_groups(),
                code_bits: 2,
            },
        );
    let blocks = table.into_blocks(BLOCK);
    let compressed = corra::core::compress_blocks(&blocks, &cfg, 2).expect("compress");
    roundtrip_all_columns(&blocks, &compressed);
    let baseline =
        corra::core::compress_blocks(&blocks, &CompressionConfig::baseline(), 2).expect("baseline");
    let total_saving = 1.0
        - compressed[0].column_bytes("total_amount").unwrap() as f64
            / baseline[0].column_bytes("total_amount").unwrap() as f64;
    assert!(total_saving > 0.75, "total_amount saving {total_saving}");
    let drop_saving = 1.0
        - compressed[0].column_bytes("dropoff").unwrap() as f64
            / baseline[0].column_bytes("dropoff").unwrap() as f64;
    assert!(drop_saving > 0.2, "dropoff saving {drop_saving}");
}

#[test]
fn queries_match_raw_across_selectivities() {
    let table = LineitemDates::generate(120_000, 9).into_table();
    let raw_receipt = table
        .column("l_receiptdate")
        .unwrap()
        .as_i64()
        .unwrap()
        .to_vec();
    let cfg = CompressionConfig::baseline().with(
        "l_receiptdate",
        ColumnPlan::NonHier {
            reference: "l_shipdate".into(),
        },
    );
    let blocks = table.into_blocks(200_000);
    let comp = CompressedBlock::compress(&blocks[0], &cfg).expect("compress");
    for selectivity in [0.001, 0.01, 0.1, 0.5, 1.0] {
        for sel in corra::columnar::selection::workload(comp.rows(), selectivity, 3, 77) {
            let got = corra::core::query_column(&comp, "l_receiptdate", &sel).unwrap();
            let want: Vec<i64> = sel
                .positions()
                .iter()
                .map(|&p| raw_receipt[p as usize])
                .collect();
            assert_eq!(got.as_int().unwrap(), &want[..]);
        }
    }
}

#[test]
fn optimizer_to_block_config_pipeline() {
    // Fig. 2 machinery driving the block compressor end to end.
    let d = LineitemDates::generate(150_000, 5);
    let columns: Vec<(&str, &[i64])> = vec![
        ("l_shipdate", &d.shipdate),
        ("l_commitdate", &d.commitdate),
        ("l_receiptdate", &d.receiptdate),
    ];
    let graph = corra::core::ColumnGraph::measure_sampled(&columns, 50_000).unwrap();
    let assignment = graph.greedy();
    // Convert the optimizer output into a block configuration.
    let mut cfg = CompressionConfig::baseline();
    for (i, a) in assignment.iter().enumerate() {
        if let Assignment::DiffEncoded { reference } = a {
            cfg.set(
                columns[i].0,
                ColumnPlan::NonHier {
                    reference: columns[*reference].0.into(),
                },
            );
        }
    }
    let table = d.into_table();
    let blocks = table.into_blocks(200_000);
    let comp = CompressedBlock::compress(&blocks[0], &cfg).expect("compress");
    let baseline = CompressedBlock::compress(&blocks[0], &CompressionConfig::baseline()).unwrap();
    assert!(comp.total_bytes() < baseline.total_bytes());
    for field in blocks[0].schema().fields() {
        assert_eq!(
            &comp.decompress(field.name()).unwrap(),
            blocks[0].column(field.name()).unwrap()
        );
    }
}

#[test]
fn c3_comparison_pipeline() {
    // Table 3's protocol: C3 chooses its scheme per pair; Corra uses
    // non-hierarchical. Both must decode losslessly and land in the same
    // size ballpark on the date pair.
    let d = LineitemDates::generate(100_000, 12);
    let corra_enc = corra::core::NonHierInt::encode(&d.receiptdate, &d.shipdate).unwrap();
    let c3_enc = corra::c3::choose(&d.receiptdate, &d.shipdate).unwrap();
    let mut a = vec![0; corra_enc.len()];
    corra_enc.decode_into(&d.shipdate, &mut a).unwrap();
    assert_eq!(a, d.receiptdate);
    let mut b = Vec::new();
    c3_enc.decode_into(&d.shipdate, &mut b).unwrap();
    assert_eq!(b, d.receiptdate);
    let ratio = corra_enc.compressed_bytes() as f64 / c3_enc.compressed_bytes() as f64;
    assert!((0.8..1.25).contains(&ratio), "corra vs c3 ratio {ratio}");
}

#[test]
fn failure_injection_corrupt_blocks() {
    let table = LineitemDates::generate(50_000, 6).into_table();
    let cfg = CompressionConfig::baseline().with(
        "l_receiptdate",
        ColumnPlan::NonHier {
            reference: "l_shipdate".into(),
        },
    );
    let blocks = table.into_blocks(100_000);
    let bytes = CompressedBlock::compress(&blocks[0], &cfg)
        .unwrap()
        .to_bytes()
        .unwrap();
    // Bad magic, bad version, truncations: errors, never panics.
    let mut bad = bytes.clone();
    bad[0] = b'!';
    assert!(CompressedBlock::from_bytes(&bad).is_err());
    let mut bad = bytes.clone();
    bad[4] = 0x7F;
    assert!(CompressedBlock::from_bytes(&bad).is_err());
    for cut in [0, 5, 11, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            CompressedBlock::from_bytes(&bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }
}

#[test]
fn taxi_cleaning_failure_injection() {
    let mut taxi = TaxiTable::generate(
        TaxiParams {
            rows: 10_000,
            ..Default::default()
        },
        8,
    );
    taxi.pickup[100] = taxi.dropoff[100] + 1; // dropoff before pickup
    taxi.tip_amount[200] = -1;
    taxi.fare_amount[300] = corra::datagen::taxi::MAX_MONEY_CENTS * 2;
    assert!(corra::datagen::taxi::validate(&taxi).is_err());
    let removed = corra::datagen::taxi::clean(&mut taxi);
    assert_eq!(removed, 3);
    assert!(corra::datagen::taxi::validate(&taxi).is_ok());
    assert_eq!(taxi.rows(), 9_997);
}

/// The C3 comparator end to end, one dataset per C3 scheme family: every
/// scheme the chooser can select is exercised against generator data and
/// checked for losslessness through [`corra::c3::C3Encoding::decode_into`].
///
/// This is Table 3's protocol ("we let C3 choose the encoding scheme for a
/// given pair of columns") driven through all six crates: datagen produces
/// the pairs, encodings supplies the dictionary for the hierarchical pair,
/// core provides the Corra side of the comparison, and c3 picks its scheme.
#[test]
fn c3_scheme_selection_pipeline() {
    // (a) Bounded date diffs — DFOR territory (ties with Numerical at
    // slope 1, so only decode + size are asserted).
    let d = LineitemDates::generate(60_000, 21);
    let enc = corra::c3::choose(&d.receiptdate, &d.shipdate).unwrap();
    let mut out = Vec::new();
    enc.decode_into(&d.shipdate, &mut out).unwrap();
    assert_eq!(out, d.receiptdate);
    assert!(
        enc.compressed_bytes() < 60_000,
        "bounded diffs must pack below 8 bits/row"
    );

    // (b) Affine relation — Numerical must win.
    let base: Vec<i64> = (0..40_000).map(|i| i as i64 % 9_001).collect();
    let affine: Vec<i64> = base
        .iter()
        .enumerate()
        .map(|(i, &r)| 7 * r + (i as i64 % 3))
        .collect();
    let enc = corra::c3::choose(&affine, &base).unwrap();
    assert_eq!(enc.scheme(), "Numerical");
    let mut out = Vec::new();
    enc.decode_into(&base, &mut out).unwrap();
    assert_eq!(out, affine);

    // (c) DMV (city, zip): the same pair Table 3 keys by the city's
    // dictionary code. A near-functional dependency: 1-to-1 or the
    // hierarchical family may win, but never plain DFOR.
    let dmv = DmvTable::generate(DmvParams::scaled(50_000), 11);
    let city_dict = corra::encodings::DictStr::encode_pool(&dmv.city);
    let city_codes: Vec<i64> = (0..dmv.zip.len())
        .map(|i| city_dict.code_at(i) as i64)
        .collect();
    let enc = corra::c3::choose(&dmv.zip, &city_codes).unwrap();
    assert_ne!(
        enc.scheme(),
        "DFOR",
        "hierarchical data must not fall back to plain DFOR"
    );
    let mut out = Vec::new();
    enc.decode_into(&city_codes, &mut out).unwrap();
    assert_eq!(out, dmv.zip);

    // (d) Corra vs C3 on the same pair, sharing one baseline — both must
    // save substantially against the single-column chooser (Table 3 shows
    // 53.7% vs 59.1% at paper scale).
    let baseline = corra::encodings::choose_int_baseline(&dmv.zip).compressed_bytes();
    let parent_codes: Vec<u32> = (0..dmv.zip.len()).map(|i| city_dict.code_at(i)).collect();
    let corra_enc = HierInt::encode(&dmv.zip, &parent_codes, city_dict.distinct()).unwrap();
    for (label, bytes) in [
        ("corra", corra_enc.compressed_bytes()),
        ("c3", enc.compressed_bytes()),
    ] {
        let saving = 1.0 - bytes as f64 / baseline as f64;
        assert!(saving > 0.25, "{label} saving {saving} too small");
    }
}
