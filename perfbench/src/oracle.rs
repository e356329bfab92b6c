//! Output oracles computed from the raw generated columns. Scans and joins
//! are checked by match count plus an order-independent checksum of the
//! matched global row positions ([`RowSet`]); TOP-K by its values;
//! aggregates by the exact `AggResult`; point reads by a checksum of the
//! decoded column.

use std::collections::BTreeMap;

use corra_columnar::column::Column;
use corra_columnar::selection::SelectionVector;
use corra_core::{AggExpr, AggFunc, AggResult, AggValue, GroupKey, JoinPair, Predicate, TopKExpr};

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-dependent checksum of a column's values (point reads):
/// `Σ v_i · (2i + 1)`, wrapping, for integers.
pub fn column_checksum(col: &Column) -> u64 {
    match col {
        Column::Int64(v) => v.iter().zip(0u64..).fold(0, |h, (&x, i)| {
            h.wrapping_add((x as u64).wrapping_mul(2 * i + 1))
        }),
        Column::Utf8(p) => p.iter().fold(0x9e37_79b9_7f4a_7c15, |h, s| {
            s.bytes()
                .fold(mix64(h), |h, b| h.rotate_left(5) ^ u64::from(b))
        }),
    }
}

/// A set of matched rows: how many, and the wrapping sum of the mixed
/// global row positions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowSet {
    /// Matched rows (or pairs).
    pub count: u64,
    /// `Σ mix64(position)`, wrapping.
    pub sum: u64,
}

impl RowSet {
    /// Adds one matched position.
    pub fn add(&mut self, pos: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix64(pos));
    }

    /// The set a scan's per-block selections describe, given each block's
    /// first global row.
    pub fn from_selections(sels: &[SelectionVector], block_starts: &[u64]) -> Self {
        let mut set = RowSet::default();
        for (sel, &start) in sels.iter().zip(block_starts) {
            for &p in sel.positions() {
                set.add(start + u64::from(p));
            }
        }
        set
    }

    /// The set a join's pairs describe (one position per pair, combining
    /// the probe row and the build row).
    pub fn from_pairs(pairs: &[JoinPair], build_starts: &[u64], probe_starts: &[u64]) -> Self {
        let mut set = RowSet::default();
        for p in pairs {
            let b = build_starts[p.build.block as usize] + u64::from(p.build.row);
            let r = probe_starts[p.probe.block as usize] + u64::from(p.probe.row);
            set.add(pair_key(b, r));
        }
        set
    }
}

fn pair_key(build: u64, probe: u64) -> u64 {
    mix64(build) ^ probe
}

/// First global row of each block, from per-block row counts.
pub fn block_starts(rows: impl IntoIterator<Item = usize>) -> Vec<u64> {
    rows.into_iter()
        .scan(0u64, |acc, r| {
            let start = *acc;
            *acc += r as u64;
            Some(start)
        })
        .collect()
}

/// Raw generated columns of one table, by name.
#[derive(Debug, Clone, Default)]
pub struct RawTable {
    columns: Vec<(String, Column)>,
    rows: usize,
}

impl RawTable {
    /// Keeps the named columns of `table`.
    pub fn keep(table: &corra_columnar::block::Table, names: &[&str]) -> Self {
        let columns = names
            .iter()
            .map(|&n| {
                let col = table.column(n).expect("oracle column exists").clone();
                (n.to_owned(), col)
            })
            .collect();
        Self {
            columns,
            rows: table.rows(),
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The named column.
    pub fn col(&self, name: &str) -> &Column {
        &self
            .columns
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("oracle holds no column {name}"))
            .1
    }

    /// The named integer column.
    pub fn ints(&self, name: &str) -> &[i64] {
        self.col(name).as_i64().expect("integer oracle column")
    }
}

/// A filter the oracle can evaluate on raw rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `column BETWEEN lo AND hi` on an integer column.
    Between(String, i64, i64),
    /// `column = value` on a string column.
    StrEq(String, String),
}

impl Pred {
    /// The library predicate.
    pub fn to_library(&self) -> Predicate {
        match self {
            Pred::Between(c, lo, hi) => Predicate::between(c, *lo, *hi),
            Pred::StrEq(c, v) => Predicate::str_eq(c, v),
        }
    }

    /// Per-row match mask over `t`.
    pub fn mask(&self, t: &RawTable) -> Vec<bool> {
        match self {
            Pred::Between(c, lo, hi) => t.ints(c).iter().map(|v| v >= lo && v <= hi).collect(),
            Pred::StrEq(c, v) => match t.col(c) {
                Column::Utf8(p) => p.iter().map(|s| s == v).collect(),
                Column::Int64(_) => panic!("string predicate on integer column {c}"),
            },
        }
    }
}

/// An aggregate the oracle can evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    /// Function (never `Avg`: its float result is not checked exactly).
    pub func: AggFunc,
    /// Target column (`None` for `COUNT`).
    pub column: Option<String>,
    /// Optional filter.
    pub filter: Option<Pred>,
    /// Optional `GROUP BY` column.
    pub group_by: Option<String>,
}

impl Agg {
    /// `func(column)` with no filter or grouping.
    pub fn plain(func: AggFunc, column: Option<&str>) -> Self {
        Self {
            func,
            column: column.map(str::to_owned),
            filter: None,
            group_by: None,
        }
    }

    /// The library expression.
    pub fn to_library(&self) -> AggExpr {
        let mut e = match &self.column {
            None => AggExpr::count(),
            Some(c) => AggExpr::of(self.func, c),
        };
        if let Some(p) = &self.filter {
            e = e.with_filter(p.to_library());
        }
        if let Some(g) = &self.group_by {
            e = e.with_group_by(g);
        }
        e
    }

    /// The exact answer over raw rows.
    pub fn expected(&self, t: &RawTable) -> AggResult {
        let mask = self.filter.as_ref().map(|p| p.mask(t));
        let keep = |i: usize| mask.as_ref().is_none_or(|m| m[i]);
        let rows = (0..t.rows()).filter(|&i| keep(i));
        match &self.group_by {
            None => {
                let mut acc = Fold::new(self.func);
                for i in rows {
                    acc.add(self.value(t, i));
                }
                AggResult::Scalar(acc.finish())
            }
            Some(g) => {
                let mut groups: BTreeMap<GroupKey, Fold> = BTreeMap::new();
                let gcol = t.col(g);
                for i in rows {
                    let key = match gcol {
                        Column::Int64(v) => GroupKey::Int(v[i]),
                        Column::Utf8(p) => GroupKey::Str(p.get(i).to_owned()),
                    };
                    groups
                        .entry(key)
                        .or_insert_with(|| Fold::new(self.func))
                        .add(self.value(t, i));
                }
                AggResult::Grouped(groups.into_iter().map(|(k, f)| (k, f.finish())).collect())
            }
        }
    }

    fn value(&self, t: &RawTable, i: usize) -> i64 {
        self.column.as_ref().map_or(0, |c| t.ints(c)[i])
    }
}

/// Exact running state of one aggregate over integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    func: AggFunc,
    count: u64,
    sum: i128,
    min: Option<i64>,
    max: Option<i64>,
}

impl Fold {
    /// An empty fold.
    pub fn new(func: AggFunc) -> Self {
        Self {
            func,
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Adds one value.
    pub fn add(&mut self, v: i64) {
        self.count += 1;
        self.sum += i128::from(v);
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Merges another fold of the same function.
    pub fn merge(&mut self, o: &Fold) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = match (self.min, o.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, o.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The SQL value of the fold.
    pub fn finish(&self) -> AggValue {
        self.finish_as(self.func)
    }

    /// The SQL value of `func` over the folded values.
    pub fn finish_as(&self, func: AggFunc) -> AggValue {
        match func {
            AggFunc::Count => AggValue::Count(self.count),
            AggFunc::Sum => AggValue::Sum((self.count > 0).then_some(self.sum)),
            AggFunc::Min => AggValue::Int(self.min),
            AggFunc::Max => AggValue::Int(self.max),
            AggFunc::Avg => panic!("AVG is not checked exactly"),
        }
    }
}

/// A TOP-K the oracle can evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Ordered integer column.
    pub column: String,
    /// Rows kept.
    pub k: usize,
    /// Largest first when true.
    pub descending: bool,
    /// Optional filter.
    pub filter: Option<Pred>,
}

impl TopK {
    /// The library expression.
    pub fn to_library(&self) -> TopKExpr {
        let e = if self.descending {
            TopKExpr::desc(&self.column, self.k)
        } else {
            TopKExpr::asc(&self.column, self.k)
        };
        match &self.filter {
            Some(p) => e.with_filter(p.to_library()),
            None => e,
        }
    }

    /// The expected values, best first.
    pub fn expected(&self, t: &RawTable) -> Vec<i64> {
        let mask = self.filter.as_ref().map(|p| p.mask(t));
        let vals = t.ints(&self.column);
        let kept = (0..t.rows())
            .filter(|&i| mask.as_ref().is_none_or(|m| m[i]))
            .map(|i| vals[i]);
        best_k(kept, self.k, self.descending)
    }
}

/// The `k` best of `values`, best first.
pub fn best_k(values: impl Iterator<Item = i64>, k: usize, descending: bool) -> Vec<i64> {
    let mut all: Vec<i64> = values.collect();
    let k = k.min(all.len());
    if k == 0 {
        return Vec::new();
    }
    if descending {
        all.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
        all.truncate(k);
        all.sort_unstable_by(|a, b| b.cmp(a));
    } else {
        all.select_nth_unstable(k - 1);
        all.truncate(k);
        all.sort_unstable();
    }
    all
}

/// Fisher–Yates shuffle driven by a seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The expected scan result over raw rows (positions are table rows).
pub fn expected_scan(pred: &Pred, t: &RawTable) -> RowSet {
    let mut set = RowSet::default();
    for (i, m) in pred.mask(t).into_iter().enumerate() {
        if m {
            set.add(i as u64);
        }
    }
    set
}

/// The expected join result: every (build row, probe row) pair with equal
/// keys, as a [`RowSet`] over [`RowSet::from_pairs`] positions.
pub fn expected_join(
    build: &RawTable,
    build_key: &str,
    probe: &RawTable,
    probe_key: &str,
) -> RowSet {
    fn join<K: std::hash::Hash + Eq>(
        build: impl Iterator<Item = K>,
        probe: impl Iterator<Item = K>,
    ) -> RowSet {
        let mut rows_of: std::collections::HashMap<K, Vec<u64>> = Default::default();
        for (i, k) in build.enumerate() {
            rows_of.entry(k).or_default().push(i as u64);
        }
        let mut set = RowSet::default();
        for (r, k) in probe.enumerate() {
            for &b in rows_of.get(&k).map_or(&[][..], Vec::as_slice) {
                set.add(pair_key(b, r as u64));
            }
        }
        set
    }
    match (build.col(build_key), probe.col(probe_key)) {
        (Column::Int64(b), Column::Int64(p)) => join(b.iter(), p.iter()),
        (Column::Utf8(b), Column::Utf8(p)) => join(b.iter(), p.iter()),
        _ => panic!("join keys {build_key}/{probe_key} differ in type"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corra_columnar::block::Table;
    use corra_columnar::column::DataType;
    use corra_columnar::schema::{Field, Schema};

    fn table() -> RawTable {
        let t = Table::new(
            Schema::new(vec![
                Field::new("g", DataType::Int64),
                Field::new("v", DataType::Int64),
            ])
            .unwrap(),
            vec![
                Column::Int64(vec![1, 2, 1, 2, 3]),
                Column::Int64(vec![10, 20, 30, 40, 50]),
            ],
        )
        .unwrap();
        RawTable::keep(&t, &["g", "v"])
    }

    #[test]
    fn grouped_sum_matches_hand_computation() {
        let agg = Agg {
            func: AggFunc::Sum,
            column: Some("v".into()),
            filter: Some(Pred::Between("v".into(), 15, 50)),
            group_by: Some("g".into()),
        };
        assert_eq!(
            agg.expected(&table()),
            AggResult::Grouped(vec![
                (GroupKey::Int(1), AggValue::Sum(Some(30))),
                (GroupKey::Int(2), AggValue::Sum(Some(60))),
                (GroupKey::Int(3), AggValue::Sum(Some(50))),
            ])
        );
    }

    #[test]
    fn empty_filter_follows_sql() {
        let mut agg = Agg::plain(AggFunc::Min, Some("v"));
        agg.filter = Some(Pred::Between("v".into(), 100, 200));
        assert_eq!(
            agg.expected(&table()),
            AggResult::Scalar(AggValue::Int(None))
        );
    }

    #[test]
    fn topk_both_directions() {
        assert_eq!(best_k([5, 1, 4, 2].into_iter(), 2, false), vec![1, 2]);
        assert_eq!(best_k([5, 1, 4, 2].into_iter(), 3, true), vec![5, 4, 2]);
        assert_eq!(best_k([5].into_iter(), 3, true), vec![5]);
    }

    #[test]
    fn selections_map_to_global_rows() {
        let starts = block_starts([3, 2]);
        assert_eq!(starts, vec![0, 3]);
        let sels = vec![
            SelectionVector::new(vec![1]),
            SelectionVector::new(vec![0, 1]),
        ];
        let got = RowSet::from_selections(&sels, &starts);
        let mut want = RowSet::default();
        for p in [1, 3, 4] {
            want.add(p);
        }
        assert_eq!(got, want);
    }
}
