//! Common interface implemented by every single-column encoding.

use corra_columnar::error::Result;
use corra_columnar::selection::SelectionVector;

/// Random-access decompression interface for integer encodings.
///
/// The paper's baseline deliberately restricts itself to schemes that "allow
/// for fast random access into the compressed column" (§3, Baseline); RLE and
/// Delta are included here for completeness and ablations but carry the
/// checkpoint structures that make their random access possible.
pub trait IntAccess {
    /// Number of encoded rows.
    fn len(&self) -> usize;

    /// Whether the column is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the value at row `i`.
    fn get(&self, i: usize) -> i64;

    /// Decodes the whole column into `out` (cleared first).
    fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.get(i));
        }
    }

    /// Adds (wrapping) every decoded value into `acc`, which must hold
    /// exactly [`len`](Self::len) slots: the accumulate form of
    /// [`decode_into`](Self::decode_into) that sums reference columns
    /// without materializing each one. The default decodes into a
    /// temporary; bit-packed codecs override it with a chunked pass.
    fn decode_add_into(&self, acc: &mut [i64]) {
        assert_eq!(acc.len(), self.len(), "accumulator length");
        let mut v = Vec::new();
        self.decode_into(&mut v);
        for (a, x) in acc.iter_mut().zip(v) {
            *a = a.wrapping_add(x);
        }
    }

    /// Materializes the values at the selected positions into `out`
    /// (cleared first). This is the query kernel of the latency experiments.
    fn gather_into(&self, sel: &SelectionVector, out: &mut Vec<i64>) {
        out.clear();
        out.reserve(sel.len());
        for &p in sel.positions() {
            out.push(self.get(p as usize));
        }
    }

    /// Compressed size in bytes as reported in the size experiments:
    /// tightly-packed payload plus all metadata required for self-contained
    /// decompression.
    fn compressed_bytes(&self) -> usize;
}

/// Random-access decompression interface for string encodings.
pub trait StrAccess {
    /// Number of encoded rows.
    fn len(&self) -> usize;

    /// Whether the column is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the string at row `i`.
    fn get(&self, i: usize) -> &str;

    /// Materializes selected strings (as owned copies, matching the paper's
    /// "materialize the query output").
    fn gather_into(&self, sel: &SelectionVector, out: &mut Vec<String>) {
        out.clear();
        out.reserve(sel.len());
        for &p in sel.positions() {
            out.push(self.get(p as usize).to_owned());
        }
    }

    /// Compressed size in bytes including metadata.
    fn compressed_bytes(&self) -> usize;
}

/// Encodings that can verify an encode→decode roundtrip cheaply in tests.
pub trait Validate {
    /// Checks internal invariants, returning a corruption error if violated.
    fn validate(&self) -> Result<()>;
}

/// Order guarantee of a dictionary-style codec's code domain.
///
/// Integer dictionaries keep a *sorted* dictionary, so comparing two rows'
/// codes orders them exactly like comparing their decoded values — range
/// predicates, min/max zones, and TOP-K may run entirely in the code
/// domain. String dictionaries store their pool in *first-occurrence*
/// order, so code comparison is meaningless: every consumer of code order
/// must gate on this capability (and either fall back to a value-domain
/// path or reject the operation) instead of silently assuming sortedness.
pub trait CodeOrder {
    /// `true` iff comparing per-row codes is equivalent to comparing the
    /// values they decode to (i.e. the dictionary is sorted).
    fn codes_are_ordered(&self) -> bool;
}
