//! Plain (uncompressed) encodings — the "uncompressed" comparator in the
//! paper's latency zoom-ins (Fig. 6/7).

use bytes::{Buf, BufMut};
use corra_columnar::error::{Error, Result};
use corra_columnar::predicate::IntRange;
use corra_columnar::stats::ZoneMap;
use corra_columnar::strings::StringPool;

use corra_columnar::aggregate::{IntAggState, StrAggState};
use corra_columnar::selection::SelectionVector;

use crate::aggregate::{AggInt, AggStr};
use crate::filter::{FilterInt, FilterStr};
use crate::traits::{IntAccess, StrAccess};

/// Uncompressed 8-byte-per-value integer column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainInt {
    values: Vec<i64>,
}

impl PlainInt {
    /// Wraps raw values.
    pub fn new(values: Vec<i64>) -> Self {
        Self { values }
    }

    /// Encodes from a slice.
    pub fn encode(values: &[i64]) -> Self {
        Self {
            values: values.to_vec(),
        }
    }

    /// Borrows the underlying values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Serialized length of [`write_to`](Self::write_to).
    pub fn serialized_len(&self) -> usize {
        8 + self.values.len() * 8
    }

    /// Writes `len (u64) | values` little-endian.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.values.len() as u64);
        for &v in &self.values {
            buf.put_i64_le(v);
        }
    }

    /// Reads back a [`write_to`](Self::write_to) payload.
    pub fn read_from(buf: &mut impl Buf) -> Result<Self> {
        if buf.remaining() < 8 {
            return Err(Error::corrupt("plain-int header truncated"));
        }
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len.saturating_mul(8) {
            return Err(Error::corrupt("plain-int payload truncated"));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(buf.get_i64_le());
        }
        Ok(Self { values })
    }
}

impl IntAccess for PlainInt {
    fn len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        self.values[i]
    }

    fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.extend_from_slice(&self.values);
    }

    fn decode_add_into(&self, acc: &mut [i64]) {
        assert_eq!(acc.len(), self.len(), "accumulator length");
        for (a, &x) in acc.iter_mut().zip(&self.values) {
            *a = a.wrapping_add(x);
        }
    }

    fn compressed_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

impl FilterInt for PlainInt {
    /// Direct comparison over raw values — the comparator the compressed
    /// kernels are measured against — through the SIMD range kernel.
    fn filter_into(&self, range: &IntRange, out: &mut Vec<u32>) {
        out.clear();
        crate::filter::filter_i64_slice(&self.values, range, 0, out);
    }

    /// Plain stores no statistics, so bounds would cost the same full pass
    /// as the filter itself — no cheap zone map exists (as with Delta).
    fn value_bounds(&self) -> Option<ZoneMap> {
        None
    }
}

impl AggInt for PlainInt {
    /// Direct fold over raw values — the comparator the compressed kernels
    /// are measured against.
    fn aggregate_into(&self, state: &mut IntAggState) {
        for &v in &self.values {
            state.update(v);
        }
    }

    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut IntAggState) {
        for &p in sel.positions() {
            state.update(self.values[p as usize]);
        }
    }

    fn aggregate_grouped(&self, group_of: &[u32], states: &mut [IntAggState]) {
        assert_eq!(group_of.len(), self.values.len(), "group codes misaligned");
        for (&v, &g) in self.values.iter().zip(group_of) {
            states[g as usize].update(v);
        }
    }

    fn exact_bounds(&self) -> Option<ZoneMap> {
        ZoneMap::from_values(&self.values)
    }
}

impl AggStr for PlainStr {
    fn aggregate_into(&self, state: &mut StrAggState) {
        for s in self.pool.iter() {
            state.update(s);
        }
    }

    fn aggregate_selected(&self, sel: &SelectionVector, state: &mut StrAggState) {
        for &p in sel.positions() {
            state.update(self.pool.get(p as usize));
        }
    }

    fn aggregate_grouped(&self, group_of: &[u32], states: &mut [StrAggState]) {
        assert_eq!(group_of.len(), self.pool.len(), "group codes misaligned");
        for (i, &g) in group_of.iter().enumerate() {
            states[g as usize].update(self.pool.get(i));
        }
    }
}

/// Uncompressed string column (flattened rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainStr {
    pool: StringPool,
}

impl PlainStr {
    /// Wraps a per-row string pool.
    pub fn new(pool: StringPool) -> Self {
        Self { pool }
    }

    /// Encodes from string slices.
    pub fn encode<'a>(values: impl IntoIterator<Item = &'a str>) -> Self {
        Self {
            pool: StringPool::from_iter(values),
        }
    }

    /// Borrows the underlying pool.
    pub fn pool(&self) -> &StringPool {
        &self.pool
    }
}

impl FilterStr for PlainStr {
    /// Direct string comparison per row.
    fn filter_eq_into(&self, value: &str, negate: bool, out: &mut Vec<u32>) {
        out.clear();
        for i in 0..self.pool.len() {
            if (self.pool.get(i) == value) != negate {
                out.push(i as u32);
            }
        }
    }
}

impl StrAccess for PlainStr {
    fn len(&self) -> usize {
        self.pool.len()
    }

    #[inline]
    fn get(&self, i: usize) -> &str {
        self.pool.get(i)
    }

    fn compressed_bytes(&self) -> usize {
        self.pool.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::selection::SelectionVector;

    #[test]
    fn plain_int_access() {
        let enc = PlainInt::encode(&[10, -20, 30]);
        assert_eq!(enc.len(), 3);
        assert_eq!(enc.get(1), -20);
        let mut out = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, vec![10, -20, 30]);
        assert_eq!(enc.compressed_bytes(), 24);
    }

    #[test]
    fn plain_int_gather() {
        let enc = PlainInt::encode(&(0..100i64).collect::<Vec<_>>());
        let sel = SelectionVector::new(vec![3, 97]);
        let mut out = Vec::new();
        enc.gather_into(&sel, &mut out);
        assert_eq!(out, vec![3, 97]);
    }

    #[test]
    fn plain_int_serialization() {
        let enc = PlainInt::encode(&[i64::MIN, 0, i64::MAX]);
        let mut buf = Vec::new();
        enc.write_to(&mut buf);
        assert_eq!(buf.len(), enc.serialized_len());
        let back = PlainInt::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, enc);
        let cut = &buf[..buf.len() - 1];
        assert!(PlainInt::read_from(&mut &cut[..]).is_err());
    }

    #[test]
    fn plain_str_access() {
        let enc = PlainStr::encode(["a", "bb", "a"]);
        assert_eq!(enc.len(), 3);
        assert_eq!(enc.get(2), "a");
        // 4 bytes content + 4 offsets * 4B
        assert_eq!(enc.compressed_bytes(), 4 + 16);
        let sel = SelectionVector::new(vec![0, 1]);
        let mut out = Vec::new();
        enc.gather_into(&sel, &mut out);
        assert_eq!(out, vec!["a".to_owned(), "bb".to_owned()]);
    }

    #[test]
    fn empty_columns() {
        let enc = PlainInt::encode(&[]);
        assert!(enc.is_empty());
        assert!(enc.value_bounds().is_none());
        let enc = PlainStr::encode([]);
        assert!(enc.is_empty());
    }

    #[test]
    fn plain_filters() {
        let values = vec![10i64, -20, 30, 10];
        let enc = PlainInt::encode(&values);
        let mut out = Vec::new();
        enc.filter_into(&IntRange::new(0, 15), &mut out);
        assert_eq!(out, vec![0, 3]);
        enc.filter_into(&IntRange::negated(0, 15), &mut out);
        assert_eq!(out, vec![1, 2]);
        assert!(enc.value_bounds().is_none());
        let enc = PlainStr::encode(["a", "bb", "a"]);
        enc.filter_eq_into("a", false, &mut out);
        assert_eq!(out, vec![0, 2]);
        enc.filter_eq_into("a", true, &mut out);
        assert_eq!(out, vec![1]);
    }
}
