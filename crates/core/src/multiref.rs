//! Non-hierarchical encoding with multiple reference columns (paper §2.3).
//!
//! The target column (e.g. Taxi's `total_amount`) is usually *derivable*
//! from a handful of reference-column groups via simple arithmetic: in the
//! paper, `A`, `A + B`, `A + C`, or `A + B + C` (Tab. 1). Instead of the
//! value, each row stores a tiny code identifying which formula reconstructs
//! it; rows following none of the selected formulas go to the outlier region
//! (Fig. 4). Because outliers are identified by their *index*, no sentinel
//! code is needed and 2 bits cover four formulas.
//!
//! Formulas are *discovered from the data*: every non-empty subset of the
//! reference groups is a candidate, and a greedy set-cover pass picks the
//! `2^code_bits` subsets that together explain the most rows.

use bytes::{Buf, BufMut};
use corra_columnar::aggregate::IntAggState;
use corra_columnar::bitpack::{BitPackedVec, UNPACK_CHUNK};
use corra_columnar::error::{Error, Result};
use corra_columnar::selection::SelectionVector;

use crate::outlier::OutlierRegion;

/// Maximum number of reference groups (masks are stored in a `u8`).
pub const MAX_GROUPS: usize = 8;

/// A reconstruction formula: the bit-set of reference groups to sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Formula(pub u8);

impl Formula {
    /// Evaluates the formula given per-group sums at one row.
    #[inline]
    pub fn eval(self, group_sums: &[i64]) -> i64 {
        let mut acc = 0i64;
        let mut mask = self.0;
        while mask != 0 {
            let g = mask.trailing_zeros() as usize;
            acc = acc.wrapping_add(group_sums[g]);
            mask &= mask - 1;
        }
        acc
    }

    /// Formats the formula with group letters, paper-style: `A + B`.
    pub fn describe(self) -> String {
        let mut parts = Vec::new();
        for g in 0..MAX_GROUPS {
            if self.0 & (1 << g) != 0 {
                parts.push(((b'A' + g as u8) as char).to_string());
            }
        }
        if parts.is_empty() {
            "∅".to_owned()
        } else {
            parts.join(" + ")
        }
    }
}

/// Per-formula usage statistics (drives the Table 1 reproduction).
#[derive(Debug, Clone, PartialEq)]
pub struct FormulaStats {
    /// `(formula, rows encoded with it)` in code order.
    pub formulas: Vec<(Formula, usize)>,
    /// Rows stored as outliers.
    pub outliers: usize,
    /// Total rows.
    pub rows: usize,
}

impl FormulaStats {
    /// Fraction of rows covered by formula `k`.
    pub fn probability(&self, k: usize) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.formulas[k].1 as f64 / self.rows as f64
        }
    }

    /// Fraction of rows stored as outliers.
    pub fn outlier_rate(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.outliers as f64 / self.rows as f64
        }
    }
}

/// Multi-reference diff-encoded column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRefInt {
    /// Selected formulas; index = code.
    formulas: Vec<Formula>,
    /// Per-row formula code (bit width = `code_bits`).
    codes: BitPackedVec,
    /// Rows not matching any selected formula.
    outliers: OutlierRegion,
}

impl MultiRefInt {
    /// Encodes `target` against per-group row sums, keeping at most
    /// `2^code_bits` formulas (the paper uses `code_bits = 2`).
    ///
    /// `group_sums[g][i]` must hold the sum of group `g`'s reference columns
    /// at row `i`.
    pub fn encode(target: &[i64], group_sums: &[Vec<i64>], code_bits: u8) -> Result<Self> {
        let n = target.len();
        let g = group_sums.len();
        if g == 0 || g > MAX_GROUPS {
            return Err(Error::invalid(format!(
                "need 1..={MAX_GROUPS} groups, got {g}"
            )));
        }
        if code_bits == 0 || code_bits > 6 {
            return Err(Error::invalid("code_bits must be in 1..=6"));
        }
        for s in group_sums {
            if s.len() != n {
                return Err(Error::LengthMismatch {
                    left: n,
                    right: s.len(),
                });
            }
        }
        let n_masks = (1usize << g) - 1;
        // Per-row bitset of matching candidate masks (mask m, bit m - 1,
        // matches row i if the subset-sum equals target[i]); `wpr` words
        // per row, as 8 groups give 255 candidates.
        let wpr = n_masks.div_ceil(64);
        let matches = |row_matches: &[u64], i: usize, m: usize| {
            row_matches[i * wpr + (m - 1) / 64] >> ((m - 1) % 64) & 1 == 1
        };
        let mut row_matches = vec![0u64; n * wpr];
        let mut sums_at = vec![0i64; g];
        for (i, row) in row_matches.chunks_exact_mut(wpr).enumerate() {
            for (k, s) in group_sums.iter().enumerate() {
                sums_at[k] = s[i];
            }
            // Branch-free: whether a mask matches is data-dependent.
            let mut bits = [0u64; 4];
            for m in 1..=n_masks {
                let hit = Formula(m as u8).eval(&sums_at) == target[i];
                bits[(m - 1) / 64] |= (hit as u64) << ((m - 1) % 64);
            }
            row.copy_from_slice(&bits[..wpr]);
        }
        // Greedy set cover: repeatedly pick the mask covering the most
        // still-uncovered rows.
        let max_formulas = 1usize << code_bits;
        let mut selected: Vec<Formula> = Vec::new();
        let mut covered = vec![false; n];
        for _ in 0..max_formulas {
            let mut counts = vec![0usize; n_masks];
            for (row, _) in row_matches
                .chunks_exact(wpr)
                .zip(&covered)
                .filter(|&(_, &c)| !c)
            {
                for (w, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        counts[64 * w + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            let (best_mask, best_count) = counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(m, &c)| (m, c))
                .unwrap_or((0, 0));
            if best_count == 0 {
                break;
            }
            selected.push(Formula((best_mask + 1) as u8));
            for (i, c) in covered.iter_mut().enumerate() {
                *c |= matches(&row_matches, i, best_mask + 1);
            }
        }
        if selected.is_empty() {
            // Degenerate: nothing matches; keep one formula so codes exist.
            selected.push(Formula(1));
        }
        // Assign codes: first selected formula that matches; else outlier.
        let mut codes = Vec::with_capacity(n);
        let mut outliers = OutlierRegion::new();
        for (i, &t) in target.iter().enumerate() {
            let code = selected
                .iter()
                .position(|f| matches(&row_matches, i, f.0 as usize));
            match code {
                Some(c) => codes.push(c as u64),
                None => {
                    codes.push(0);
                    outliers.push(i as u32, t);
                }
            }
        }
        Ok(Self {
            formulas: selected,
            codes: BitPackedVec::pack(&codes, code_bits)?,
            outliers,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The per-row code width.
    pub fn code_bits(&self) -> u8 {
        self.codes.bits()
    }

    /// The selected formulas (index = code).
    pub fn formulas(&self) -> &[Formula] {
        &self.formulas
    }

    /// The outlier region.
    pub fn outliers(&self) -> &OutlierRegion {
        &self.outliers
    }

    /// Per-formula usage statistics (Table 1).
    pub fn stats(&self) -> FormulaStats {
        let mut counts = vec![0usize; self.formulas.len()];
        let outlier_set = self.outliers.build_map();
        for i in 0..self.len() {
            if !outlier_set.contains_key(&(i as u32)) {
                counts[self.codes.get(i) as usize] += 1;
            }
        }
        FormulaStats {
            formulas: self.formulas.iter().copied().zip(counts).collect(),
            outliers: self.outliers.len(),
            rows: self.len(),
        }
    }

    /// Reconstructs row `i` given that row's per-group sums.
    ///
    /// The decompression procedure of §2.3: check the outlier mapping first;
    /// otherwise evaluate the coded formula over the reference columns.
    #[inline]
    pub fn get(&self, i: usize, group_sums_at_row: &[i64]) -> i64 {
        if let Some(v) = self.outliers.lookup(i as u32) {
            return v;
        }
        self.formulas[self.codes.get(i) as usize].eval(group_sums_at_row)
    }

    /// Bulk decode given full per-group sum columns into `out`, which must
    /// hold exactly [`len`](Self::len) slots (every slot is overwritten).
    ///
    /// Branch-free and chunked: each decoded chunk of codes is first mapped
    /// to its formulas' group bits, then every group adds its sums in one
    /// vectorizable pass, `out[i] += -(bit_g(i)) & sums[g][i]` — the
    /// all-ones/all-zero mask selects the group without a branch.
    pub fn decode_into(&self, group_sums: &[Vec<i64>], out: &mut [i64]) -> Result<()> {
        for len in group_sums.iter().map(Vec::len).chain([out.len()]) {
            if len != self.len() {
                return Err(Error::LengthMismatch {
                    left: len,
                    right: self.len(),
                });
            }
        }
        // Formula bits per code, padded to a power of two so `code & (n - 1)`
        // is always in range. Codes past the formula table cannot occur:
        // `encode` never produces them and `read_from` rejects them.
        let n_codes = self.formulas.len().next_power_of_two();
        let formula_bits: Vec<i64> = (0..n_codes)
            .map(|c| self.formulas.get(c).map_or(0, |f| f.0 as i64))
            .collect();
        let mut bits = [0i64; UNPACK_CHUNK];
        self.codes.unpack_chunks(|start, chunk| {
            let bits = &mut bits[..chunk.len()];
            for (b, &c) in bits.iter_mut().zip(chunk) {
                *b = formula_bits[c as usize & (n_codes - 1)];
            }
            let out = &mut out[start..start + chunk.len()];
            for (g, s) in group_sums.iter().enumerate() {
                let rows = out
                    .iter_mut()
                    .zip(&*bits)
                    .zip(&s[start..start + chunk.len()]);
                if g == 0 {
                    for ((o, &b), &x) in rows {
                        *o = -(b & 1) & x;
                    }
                } else {
                    for ((o, &b), &x) in rows {
                        *o = o.wrapping_add(-(b >> g & 1) & x);
                    }
                }
            }
        });
        self.outliers.patch(out);
        Ok(())
    }

    /// Predicate pushdown: emits the positions (ascending) of all rows whose
    /// reconstructed value matches `range`. Each row evaluates only the
    /// reference groups its coded formula names (`eval_mask(mask, row)`,
    /// like [`gather_masked`](Self::gather_masked)); outlier rows are merged
    /// in by a sorted walk and tested on their verbatim values.
    pub fn filter_masked(
        &self,
        range: &corra_columnar::predicate::IntRange,
        eval_mask: impl Fn(u8, usize) -> i64,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        let mut exc = self.outliers.iter().peekable();
        self.codes.unpack_chunks(|start, chunk| {
            for (j, &c) in chunk.iter().enumerate() {
                let i = start + j;
                let v = match exc.peek() {
                    Some(&(oi, ov)) if oi == i as u32 => {
                        exc.next();
                        ov
                    }
                    _ => eval_mask(self.formulas[c as usize].0, i),
                };
                if range.matches(v) {
                    out.push(i as u32);
                }
            }
        });
    }

    /// Materializes selected rows; `group_sum_at(g, row)` fetches (and
    /// decodes) the sum of reference group `g` at `row` — "reconstructing the
    /// target column requires fetching and computing based on all reference
    /// columns" (§3, Fig. 8 discussion).
    pub fn gather_into(
        &self,
        sel: &SelectionVector,
        n_groups: usize,
        group_sum_at: impl Fn(usize, usize) -> i64,
        out: &mut Vec<i64>,
    ) {
        out.clear();
        out.reserve(sel.len());
        let mut sums_at = vec![0i64; n_groups];
        for &p in sel.positions() {
            let i = p as usize;
            if let Some(v) = self.outliers.lookup(p) {
                out.push(v);
                continue;
            }
            for (g, slot) in sums_at.iter_mut().enumerate() {
                *slot = group_sum_at(g, i);
            }
            out.push(self.formulas[self.codes.get(i) as usize].eval(&sums_at));
        }
    }

    /// Materializes selected rows, evaluating only the reference groups the
    /// row's formula names: `eval_mask(mask, row)` must return the sum of
    /// the groups set in `mask` at `row`. This is the paper's decompression
    /// order — outlier check first, then fetch exactly the needed columns.
    pub fn gather_masked(
        &self,
        sel: &SelectionVector,
        eval_mask: impl Fn(u8, usize) -> i64,
        out: &mut Vec<i64>,
    ) {
        debug_assert!(sel.validate(self.len()));
        out.clear();
        out.reserve(sel.len());
        if self.outliers.is_empty() {
            for &p in sel.positions() {
                let i = p as usize;
                let mask = self.formulas[self.codes.get_unchecked_len(i) as usize].0;
                out.push(eval_mask(mask, i));
            }
        } else {
            for &p in sel.positions() {
                let i = p as usize;
                if let Some(v) = self.outliers.lookup(p) {
                    out.push(v);
                    continue;
                }
                let mask = self.formulas[self.codes.get_unchecked_len(i) as usize].0;
                out.push(eval_mask(mask, i));
            }
        }
    }

    /// Aggregate pushdown: folds every reconstructed value into `state` in
    /// one streaming pass. Each row evaluates only the reference groups its
    /// coded formula names (`eval_mask(mask, row)`), per the §2.3
    /// decompression order; outlier rows are merged in by a sorted walk and
    /// fold their verbatim values.
    pub fn aggregate_masked(&self, eval_mask: impl Fn(u8, usize) -> i64, state: &mut IntAggState) {
        let mut exc = self.outliers.iter().peekable();
        self.codes.unpack_chunks(|start, chunk| {
            for (j, &c) in chunk.iter().enumerate() {
                let i = start + j;
                let v = match exc.peek() {
                    Some(&(oi, ov)) if oi == i as u32 => {
                        exc.next();
                        ov
                    }
                    _ => eval_mask(self.formulas[c as usize].0, i),
                };
                state.update(v);
            }
        });
    }

    /// [`aggregate_masked`](Self::aggregate_masked) over the selected
    /// positions only (the caller validates `sel`).
    pub fn aggregate_selected_masked(
        &self,
        sel: &SelectionVector,
        eval_mask: impl Fn(u8, usize) -> i64,
        state: &mut IntAggState,
    ) {
        debug_assert!(sel.validate(self.len()));
        for &p in sel.positions() {
            let i = p as usize;
            let v = match self.outliers.lookup(p) {
                Some(v) => v,
                None => eval_mask(self.formulas[self.codes.get_unchecked_len(i) as usize].0, i),
            };
            state.update(v);
        }
    }

    /// Grouped aggregate pushdown: folds row `i` into
    /// `states[group_of[i]]`, evaluating only the formula-named groups.
    pub fn aggregate_grouped_masked(
        &self,
        group_of: &[u32],
        eval_mask: impl Fn(u8, usize) -> i64,
        states: &mut [IntAggState],
    ) {
        assert_eq!(group_of.len(), self.len(), "group codes misaligned");
        let mut exc = self.outliers.iter().peekable();
        self.codes.unpack_chunks(|start, chunk| {
            for (j, &c) in chunk.iter().enumerate() {
                let i = start + j;
                let v = match exc.peek() {
                    Some(&(oi, ov)) if oi == i as u32 => {
                        exc.next();
                        ov
                    }
                    _ => eval_mask(self.formulas[c as usize].0, i),
                };
                states[group_of[i] as usize].update(v);
            }
        });
    }

    /// Checks every formula mask only names groups `< n_groups` — the
    /// payload alone cannot know the wiring's group count, so containers
    /// (block deserialization, the table store) call this once both are in
    /// hand. Without it a hostile mask would index past the group-sum
    /// arrays at decode time.
    pub fn validate_groups(&self, n_groups: usize) -> Result<()> {
        let allowed = if n_groups >= 8 {
            u8::MAX
        } else {
            (1u8 << n_groups) - 1
        };
        for f in &self.formulas {
            if f.0 & !allowed != 0 {
                return Err(Error::corrupt(format!(
                    "multiref formula mask {:#b} names a group >= {n_groups}",
                    f.0
                )));
            }
        }
        Ok(())
    }

    /// Compressed size: formula table + packed codes + outliers.
    pub fn compressed_bytes(&self) -> usize {
        self.formulas.len() + 1 + self.codes.tight_bytes() + self.outliers.compressed_bytes()
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        1 + self.formulas.len() + self.codes.serialized_len() + self.outliers.serialized_len()
    }

    /// Writes `n_formulas (u8) | masks | codes | outliers`.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.formulas.len() as u8);
        for f in &self.formulas {
            buf.put_u8(f.0);
        }
        self.codes.write_to(buf);
        self.outliers.write_to(buf);
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 1 {
            return Err(Error::corrupt("multiref header truncated"));
        }
        let n_formulas = buf.get_u8() as usize;
        if n_formulas == 0 {
            return Err(Error::corrupt("multiref formula table empty"));
        }
        if buf.remaining() < n_formulas {
            return Err(Error::corrupt("multiref formula table truncated"));
        }
        let mut formulas = Vec::with_capacity(n_formulas);
        for _ in 0..n_formulas {
            let mask = buf.get_u8();
            if mask == 0 {
                return Err(Error::corrupt("multiref empty formula mask"));
            }
            formulas.push(Formula(mask));
        }
        let codes = BitPackedVec::read_from(buf)?;
        for i in 0..codes.len() {
            if codes.get(i) as usize >= formulas.len() {
                return Err(Error::corrupt("multiref code out of range"));
            }
        }
        let outliers = OutlierRegion::read_from(buf)?;
        if let Some((last, _)) = outliers.iter().last() {
            if last as usize >= codes.len() {
                return Err(Error::corrupt("multiref outlier index out of range"));
            }
        }
        Ok(Self {
            formulas,
            codes,
            outliers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a Taxi-like mixture: target = A, A+B, A+C, A+B+C, or junk.
    fn taxi_like(n: usize) -> (Vec<i64>, Vec<Vec<i64>>) {
        let a: Vec<i64> = (0..n).map(|i| 1_000 + (i as i64 * 37) % 5_000).collect();
        let b: Vec<i64> = (0..n).map(|_| 250).collect();
        let c: Vec<i64> = (0..n).map(|_| 125).collect();
        let target: Vec<i64> = (0..n)
            .map(|i| match i % 1_000 {
                0..=311 => a[i],                 // ~31.2%
                312..=935 => a[i] + b[i],        // ~62.4%
                936..=962 => a[i] + c[i],        // ~2.7%
                963..=995 => a[i] + b[i] + c[i], // ~3.3%
                _ => 999_999 + i as i64,         // ~0.4% outliers
            })
            .collect();
        (target, vec![a, b, c])
    }

    #[test]
    fn formula_eval_and_describe() {
        let sums = [10i64, 100, 1000];
        assert_eq!(Formula(0b001).eval(&sums), 10);
        assert_eq!(Formula(0b011).eval(&sums), 110);
        assert_eq!(Formula(0b101).eval(&sums), 1010);
        assert_eq!(Formula(0b111).eval(&sums), 1110);
        assert_eq!(Formula(0b001).describe(), "A");
        assert_eq!(Formula(0b011).describe(), "A + B");
        assert_eq!(Formula(0b101).describe(), "A + C");
        assert_eq!(Formula(0b111).describe(), "A + B + C");
    }

    #[test]
    fn taxi_mixture_roundtrip() {
        let (target, groups) = taxi_like(10_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        assert_eq!(enc.code_bits(), 2);
        assert_eq!(enc.formulas().len(), 4);
        let stats = enc.stats();
        // ~0.4% outliers by construction.
        assert!(
            (stats.outlier_rate() - 0.004).abs() < 0.001,
            "{}",
            stats.outlier_rate()
        );
        let mut out = vec![0; enc.len()];
        enc.decode_into(&groups, &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn discovers_paper_formulas() {
        let (target, groups) = taxi_like(10_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let masks: Vec<u8> = enc.formulas().iter().map(|f| f.0).collect();
        // The four Table 1 formulas, discovered in coverage order:
        // A+B (62%) first, then A (31%), then the two rare ones.
        assert_eq!(masks[0], 0b011);
        assert_eq!(masks[1], 0b001);
        assert!(masks.contains(&0b101));
        assert!(masks.contains(&0b111));
    }

    #[test]
    fn point_access_including_outliers() {
        let (target, groups) = taxi_like(2_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let mut sums_at = vec![0i64; 3];
        for i in 0..target.len() {
            for g in 0..3 {
                sums_at[g] = groups[g][i];
            }
            assert_eq!(enc.get(i, &sums_at), target[i], "row {i}");
        }
    }

    #[test]
    fn gather_matches_bulk() {
        let (target, groups) = taxi_like(3_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let sel = SelectionVector::new(vec![0, 997, 999, 1_001, 2_999]);
        let mut out = Vec::new();
        enc.gather_into(&sel, 3, |g, i| groups[g][i], &mut out);
        let want: Vec<i64> = sel
            .positions()
            .iter()
            .map(|&p| target[p as usize])
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn single_group_behaves_like_exact_match() {
        let a: Vec<i64> = (0..100).map(|i| i as i64).collect();
        let target = a.clone();
        let enc = MultiRefInt::encode(&target, std::slice::from_ref(&a), 1).unwrap();
        assert!(enc.outliers().is_empty());
        let mut out = vec![0; enc.len()];
        enc.decode_into(&[a], &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn all_outliers_when_nothing_matches() {
        let a = vec![1i64; 50];
        let target: Vec<i64> = (0..50).map(|i| 1_000 + i as i64).collect();
        let enc = MultiRefInt::encode(&target, std::slice::from_ref(&a), 2).unwrap();
        assert_eq!(enc.outliers().len(), 50);
        let mut out = vec![0; enc.len()];
        enc.decode_into(&[a], &mut out).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn rejects_bad_configuration() {
        assert!(MultiRefInt::encode(&[1], &[], 2).is_err());
        assert!(MultiRefInt::encode(&[1], &[vec![1], vec![1, 2]], 2).is_err());
        assert!(MultiRefInt::encode(&[1], &[vec![1]], 0).is_err());
        assert!(MultiRefInt::encode(&[1], &[vec![1]], 7).is_err());
        let nine_groups = vec![vec![1i64]; 9];
        assert!(MultiRefInt::encode(&[1], &nine_groups, 2).is_err());
    }

    #[test]
    fn compression_is_dramatic_on_taxi_shape() {
        // Paper: 85.16% saving for total_amount. With 2-bit codes vs a
        // money column needing ~14 bits, expect > 80%.
        let (target, groups) = taxi_like(50_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let vertical = corra_encodings::ForInt::encode(&target);
        use corra_encodings::IntAccess;
        let saving = 1.0 - enc.compressed_bytes() as f64 / vertical.compressed_bytes() as f64;
        assert!(saving > 0.8, "saving {saving}");
    }

    #[test]
    fn serialization_roundtrip() {
        let (target, groups) = taxi_like(1_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = MultiRefInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        assert!(MultiRefInt::read_from(&mut &buf[..2]).is_err());
    }

    #[test]
    fn stats_probabilities_sum_to_one() {
        let (target, groups) = taxi_like(10_000);
        let enc = MultiRefInt::encode(&target, &groups, 2).unwrap();
        let stats = enc.stats();
        let total: f64 = (0..stats.formulas.len())
            .map(|k| stats.probability(k))
            .sum::<f64>()
            + stats.outlier_rate();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
