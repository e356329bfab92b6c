//! Oracle tests for the bulk horizontal decoders: `MultiRefInt::decode_into`
//! and `NonHierInt::decode_into` must equal the row-wise `get` (the
//! paper's §2 decompression procedure, one row at a time) at every row —
//! for every group count and code width, with outliers on the first and
//! last rows, at lengths that end mid-chunk, and on the empty column.

use corra_core::{MultiRefInt, NonHierInt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths around the 1024-value decode chunk, none a multiple of it.
const LENGTHS: [usize; 5] = [1, 2, 1023, 1025, 2_500];

/// A target explained by random group subsets, except for the first row,
/// the last row and about 1 % of the rest, which no subset can produce.
fn multiref_case(rng: &mut StdRng, n: usize, groups: usize) -> (Vec<i64>, Vec<Vec<i64>>) {
    let sums: Vec<Vec<i64>> = (0..groups)
        .map(|g| {
            (0..n)
                .map(|_| rng.gen_range(0..1_000i64) << (5 * g))
                .collect()
        })
        .collect();
    // A handful of popular formulas plus a rare tail, so small code widths
    // leave some explainable rows to the outlier region too.
    let popular: Vec<u8> = (0..4)
        .map(|_| rng.gen_range(1..(1u16 << groups)) as u8)
        .collect();
    let target = (0..n)
        .map(|i| {
            if i == 0 || i + 1 == n || rng.gen_range(0..100u32) == 0 {
                return -1 - i as i64; // sums are never negative
            }
            let mask = if rng.gen_range(0..10u32) == 0 {
                rng.gen_range(1..(1u16 << groups)) as u8
            } else {
                popular[rng.gen_range(0..popular.len())]
            };
            (0..groups)
                .filter(|g| mask >> g & 1 == 1)
                .map(|g| sums[g][i])
                .sum()
        })
        .collect();
    (target, sums)
}

#[test]
fn multiref_bulk_decode_matches_rowwise_get() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for groups in 1..=8 {
        for code_bits in 1..=6u8 {
            for n in LENGTHS {
                let (target, sums) = multiref_case(&mut rng, n, groups);
                let enc = MultiRefInt::encode(&target, &sums, code_bits).unwrap();
                let ctx = format!("groups {groups} code_bits {code_bits} len {n}");
                let outliers: Vec<u32> = enc.outliers().iter().map(|(i, _)| i).collect();
                assert_eq!(outliers.first(), Some(&0), "{ctx}");
                assert_eq!(outliers.last(), Some(&(n as u32 - 1)), "{ctx}");

                let mut bulk = vec![i64::MIN; n];
                enc.decode_into(&sums, &mut bulk).unwrap();
                let mut at_row = vec![0i64; groups];
                for i in 0..n {
                    for (slot, s) in at_row.iter_mut().zip(&sums) {
                        *slot = s[i];
                    }
                    assert_eq!(bulk[i], enc.get(i, &at_row), "{ctx} row {i}");
                }
                assert_eq!(bulk, target, "{ctx}");
                // A mis-sized output is an error, not a partial write.
                assert!(
                    enc.decode_into(&sums, &mut vec![0; n + 1]).is_err(),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn nonhier_bulk_decode_matches_rowwise_get() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for n in LENGTHS {
        let reference: Vec<i64> = (0..n).map(|_| rng.gen_range(-50_000..50_000i64)).collect();
        let mut target: Vec<i64> = reference
            .iter()
            .map(|&r| r + rng.gen_range(-40..200i64))
            .collect();
        // Far-off first and last rows: past a few rows, the cost model
        // stores them verbatim rather than widen every diff to 64 bits.
        target[0] = i64::MAX - 7;
        target[n - 1] = i64::MIN + 7;
        let enc = NonHierInt::encode(&target, &reference).unwrap();
        if n > 2 {
            let outliers: Vec<u32> = enc.outliers().iter().map(|(i, _)| i).collect();
            assert_eq!(outliers.first(), Some(&0), "len {n}");
            assert_eq!(outliers.last(), Some(&(n as u32 - 1)), "len {n}");
        }

        let mut bulk = vec![i64::MIN; n];
        enc.decode_into(&reference, &mut bulk).unwrap();
        for i in 0..n {
            assert_eq!(bulk[i], enc.get(i, reference[i]), "len {n} row {i}");
        }
        assert_eq!(bulk, target, "len {n}");
        assert!(enc.decode_into(&reference, &mut vec![0; n + 1]).is_err());
    }
    // The empty column decodes to nothing.
    let enc = NonHierInt::encode(&[], &[]).unwrap();
    let mut out: Vec<i64> = Vec::new();
    enc.decode_into(&[], &mut out).unwrap();
    assert!(out.is_empty());
}
