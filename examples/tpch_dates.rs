//! TPC-H date-column scenario (paper §2.1 + Fig. 2): measure the column
//! graph, let the optimizer pick the diff-encoding configuration, and
//! verify the end-to-end saving.
//!
//! ```sh
//! cargo run --release --example tpch_dates
//! ```

use corra::core::{apply_assignment, Assignment, ColumnGraph};
use corra::datagen::LineitemDates;

fn main() {
    let rows = 2_000_000;
    let d = LineitemDates::generate(rows, 7);
    println!("TPC-H lineitem dates, {rows} rows (scale with the paper: SF 10 = 59,986,052)");

    // Build the Fig. 2 graph: vertices = columns, edge a -> b = size of a
    // diff-encoded w.r.t. b. Sampled weighting keeps this fast.
    let columns: Vec<(&str, &[i64])> = vec![
        ("l_shipdate", &d.shipdate),
        ("l_commitdate", &d.commitdate),
        ("l_receiptdate", &d.receiptdate),
    ];
    let graph = ColumnGraph::measure_sampled(&columns, 200_000).expect("graph");
    let assignment = graph.greedy();
    println!("\n{}", graph.render(&assignment));

    // Apply the chosen configuration and verify losslessness.
    let encoded = apply_assignment(&columns, &assignment).expect("apply");
    let vertical_total: usize = (0..columns.len()).map(|i| graph.self_cost(i)).sum();
    let corra_total: usize = encoded.iter().map(|e| e.compressed_bytes()).sum();
    println!(
        "vertical total {:.1} MB -> corra total {:.1} MB (saved {:.1} MB, {:.1}%)",
        vertical_total as f64 / 1e6,
        corra_total as f64 / 1e6,
        (vertical_total - corra_total) as f64 / 1e6,
        100.0 * (1.0 - corra_total as f64 / vertical_total as f64),
    );

    // Spot-check decode of each diff-encoded column.
    for (i, enc) in encoded.iter().enumerate() {
        if let corra::core::EncodedColumn::Diff { enc, reference } = enc {
            let mut out = vec![0; enc.len()];
            enc.decode_into(columns[*reference].1, &mut out)
                .expect("decode");
            assert_eq!(out, columns[i].1, "lossless decode of {}", columns[i].0);
            println!(
                "verified lossless: {} (diff vs {}, {} bits/value, {} outliers)",
                columns[i].0,
                columns[*reference].0,
                enc.bits(),
                enc.outliers().len(),
            );
        }
    }

    // The paper's headline numbers at this scale.
    let paper_shape = assignment
        .iter()
        .filter(|a| matches!(a, Assignment::DiffEncoded { .. }))
        .count();
    println!(
        "diff-encoded columns: {paper_shape} of {} (paper: 2 of 3)",
        columns.len()
    );
}
