//! Optimal diff-encoding configuration (paper §2.1, Fig. 2).
//!
//! Columns form a complete weighted digraph: vertex = column, edge `a → b`
//! weighted by the compressed size of `a` diff-encoded w.r.t. reference `b`,
//! and each vertex carries its best single-column ("self") cost. A
//! cost-based greedy pass then decides which columns become reference
//! columns and which are diff-encoded — under the paper's constraint that a
//! diff-encoded column never serves as a reference (chained diff-encoding is
//! explicitly future work).

use corra_columnar::error::{Error, Result};
use corra_columnar::stats::IntStats;
use corra_encodings::chooser::{estimate_dict_bytes, estimate_for_bytes};

use crate::nonhier::{plan_window, NonHierInt};

/// Per-column outcome of the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Compress with the best single-column scheme.
    Vertical,
    /// Diff-encode w.r.t. the column at this index.
    DiffEncoded {
        /// Index of the reference column in the graph.
        reference: usize,
    },
}

/// The weighted column digraph of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnGraph {
    names: Vec<String>,
    /// Best single-column compressed size per column.
    self_cost: Vec<usize>,
    /// `edge_cost[t][r]` = size of column `t` diff-encoded w.r.t. `r`
    /// (`None` on the diagonal).
    edge_cost: Vec<Vec<Option<usize>>>,
}

impl ColumnGraph {
    /// Builds the graph by *measuring* every edge: each pair is actually
    /// diff-encoded (with outlier planning) and its size recorded. Exact but
    /// O(n²) encodes; use [`measure_sampled`](Self::measure_sampled) for
    /// wide tables.
    pub fn measure(columns: &[(&str, &[i64])]) -> Result<Self> {
        Self::measure_inner(columns, None)
    }

    /// Builds the graph from a prefix sample of `sample_rows` rows — edge
    /// weights are scaled up linearly, which is exact for the payload term
    /// (bits/value is scale-free once the diff window stabilizes).
    pub fn measure_sampled(columns: &[(&str, &[i64])], sample_rows: usize) -> Result<Self> {
        Self::measure_inner(columns, Some(sample_rows))
    }

    fn measure_inner(columns: &[(&str, &[i64])], sample: Option<usize>) -> Result<Self> {
        let n = columns.len();
        if n == 0 {
            return Err(Error::invalid("optimizer needs at least one column"));
        }
        let rows = columns[0].1.len();
        for (_, c) in columns {
            if c.len() != rows {
                return Err(Error::LengthMismatch {
                    left: rows,
                    right: c.len(),
                });
            }
        }
        let take = sample.map_or(rows, |s| s.min(rows));
        let scale = if take == 0 {
            1.0
        } else {
            rows as f64 / take as f64
        };

        let mut self_cost = Vec::with_capacity(n);
        for (_, c) in columns {
            let stats = IntStats::compute(&c[..take]);
            let est = estimate_for_bytes(&stats).min(estimate_dict_bytes(&stats));
            self_cost.push((est as f64 * scale) as usize);
        }
        let mut edge_cost = vec![vec![None; n]; n];
        let mut diffs = Vec::with_capacity(take);
        for (t, (_, target)) in columns.iter().enumerate() {
            for (r, (_, reference)) in columns.iter().enumerate() {
                if t == r {
                    continue;
                }
                diffs.clear();
                diffs.extend(
                    target[..take]
                        .iter()
                        .zip(&reference[..take])
                        .map(|(&a, &b)| a.wrapping_sub(b)),
                );
                diffs.sort_unstable();
                let plan = plan_window(&diffs);
                edge_cost[t][r] = Some(((plan.cost + 9) as f64 * scale) as usize);
            }
        }
        Ok(Self {
            names: columns.iter().map(|(n, _)| (*n).to_owned()).collect(),
            self_cost,
            edge_cost,
        })
    }

    /// Builds a graph from externally computed costs (tests, Fig. 2 replays).
    pub fn from_costs(
        names: Vec<String>,
        self_cost: Vec<usize>,
        edge_cost: Vec<Vec<Option<usize>>>,
    ) -> Result<Self> {
        let n = names.len();
        if self_cost.len() != n || edge_cost.len() != n || edge_cost.iter().any(|r| r.len() != n) {
            return Err(Error::invalid("cost matrix shape mismatch"));
        }
        Ok(Self {
            names,
            self_cost,
            edge_cost,
        })
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Best single-column size of column `i`.
    pub fn self_cost(&self, i: usize) -> usize {
        self.self_cost[i]
    }

    /// Size of `t` diff-encoded w.r.t. `r`.
    pub fn edge_cost(&self, t: usize, r: usize) -> Option<usize> {
        self.edge_cost[t][r]
    }

    /// The cost-based greedy configuration selection of Fig. 2.
    ///
    /// Edges are taken in order of decreasing saving
    /// (`self_cost[t] − edge_cost[t][r]`); an edge is accepted iff
    /// * the saving is positive,
    /// * `t` is still vertical and not already someone's reference,
    /// * `r` is not itself diff-encoded.
    pub fn greedy(&self) -> Vec<Assignment> {
        let n = self.names.len();
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for t in 0..n {
            for r in 0..n {
                if let Some(cost) = self.edge_cost[t][r] {
                    let saving = self.self_cost[t] as i64 - cost as i64;
                    if saving > 0 {
                        edges.push((t, r, saving));
                    }
                }
            }
        }
        // Descending saving. Diff ranges are symmetric (diff(a,b) = -diff(b,a)),
        // so reversed edges often tie; break ties toward the smaller
        // *reference* index so earlier-listed columns become hubs (this is
        // also what reproduces the paper's Fig. 2 outcome, where l_shipdate —
        // listed first — anchors both other date columns).
        edges.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.cmp(&b.0)));
        let mut assignment = vec![Assignment::Vertical; n];
        let mut is_diff = vec![false; n];
        let mut is_ref = vec![false; n];
        for (t, r, _) in edges {
            if is_diff[t] || is_ref[t] || is_diff[r] {
                continue;
            }
            assignment[t] = Assignment::DiffEncoded { reference: r };
            is_diff[t] = true;
            is_ref[r] = true;
        }
        assignment
    }

    /// Total compressed size under `assignment`.
    pub fn total_cost(&self, assignment: &[Assignment]) -> usize {
        assignment
            .iter()
            .enumerate()
            .map(|(i, a)| match a {
                Assignment::Vertical => self.self_cost[i],
                Assignment::DiffEncoded { reference } => {
                    self.edge_cost[i][*reference].unwrap_or(self.self_cost[i])
                }
            })
            .sum()
    }

    /// Exhaustive optimum over all valid configurations (no chains), for
    /// validating the greedy heuristic on small graphs. Exponential; only
    /// call with ≤ ~8 columns.
    pub fn exhaustive_best(&self) -> (Vec<Assignment>, usize) {
        let n = self.names.len();
        assert!(n <= 8, "exhaustive search is exponential; got {n} columns");
        let mut best = (
            vec![Assignment::Vertical; n],
            self.total_cost(&vec![Assignment::Vertical; n]),
        );
        // Each column chooses: vertical (n) or one of n-1 references.
        let mut current = vec![Assignment::Vertical; n];
        fn recurse(
            g: &ColumnGraph,
            col: usize,
            n: usize,
            current: &mut Vec<Assignment>,
            best: &mut (Vec<Assignment>, usize),
        ) {
            if col == n {
                // Validate: no diff-encoded column is a reference.
                for a in current.iter() {
                    if let Assignment::DiffEncoded { reference } = a {
                        if matches!(current[*reference], Assignment::DiffEncoded { .. }) {
                            return;
                        }
                    }
                }
                let cost = g.total_cost(current);
                if cost < best.1 {
                    *best = (current.clone(), cost);
                }
                return;
            }
            current[col] = Assignment::Vertical;
            recurse(g, col + 1, n, current, best);
            for r in 0..n {
                if r != col && g.edge_cost[col][r].is_some() {
                    current[col] = Assignment::DiffEncoded { reference: r };
                    recurse(g, col + 1, n, current, best);
                }
            }
            current[col] = Assignment::Vertical;
        }
        recurse(self, 0, n, &mut current, &mut best);
        best
    }

    /// Greedy selection *with chains allowed* — the paper's §2.1 future
    /// work ("considering cases where a diff-encoded column becomes itself
    /// a reference column"). A diff-encoded column may serve as a
    /// reference as long as no reference cycle forms; decompression then
    /// resolves references in topological order.
    ///
    /// This is a cost-model study (the block compressor still enforces the
    /// paper's no-chain configuration); the ablation bench compares the two.
    pub fn greedy_with_chains(&self) -> Vec<Assignment> {
        let n = self.names.len();
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for t in 0..n {
            for r in 0..n {
                if let Some(cost) = self.edge_cost[t][r] {
                    let saving = self.self_cost[t] as i64 - cost as i64;
                    if saving > 0 {
                        edges.push((t, r, saving));
                    }
                }
            }
        }
        edges.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)).then(a.0.cmp(&b.0)));
        let mut assignment = vec![Assignment::Vertical; n];
        let mut reference_of = vec![None::<usize>; n];
        for (t, r, _) in edges {
            if reference_of[t].is_some() {
                continue;
            }
            // Reject if assigning t -> r would close a reference cycle.
            let mut cur = Some(r);
            let mut cyclic = false;
            while let Some(c) = cur {
                if c == t {
                    cyclic = true;
                    break;
                }
                cur = reference_of[c];
            }
            if cyclic {
                continue;
            }
            reference_of[t] = Some(r);
            assignment[t] = Assignment::DiffEncoded { reference: r };
        }
        assignment
    }

    /// Renders the graph and the chosen configuration in the style of
    /// Fig. 2 (sizes in MB).
    pub fn render(&self, assignment: &[Assignment]) -> String {
        let mb = |b: usize| b as f64 / 1_000_000.0;
        let mut out = String::new();
        out.push_str("vertices (best single-column size):\n");
        for (i, name) in self.names.iter().enumerate() {
            out.push_str(&format!("  {name}: {:.1} MB\n", mb(self.self_cost[i])));
        }
        out.push_str("edges (size of t diff-encoded w.r.t. r):\n");
        for t in 0..self.names.len() {
            for r in 0..self.names.len() {
                if let Some(c) = self.edge_cost[t][r] {
                    out.push_str(&format!(
                        "  {} -> {}: {:.1} MB\n",
                        self.names[t],
                        self.names[r],
                        mb(c)
                    ));
                }
            }
        }
        out.push_str("chosen configuration:\n");
        for (i, a) in assignment.iter().enumerate() {
            match a {
                Assignment::Vertical => {
                    out.push_str(&format!(
                        "  {}: vertical ({:.1} MB)\n",
                        self.names[i],
                        mb(self.self_cost[i])
                    ));
                }
                Assignment::DiffEncoded { reference } => {
                    out.push_str(&format!(
                        "  {}: diff-encoded w.r.t. {} ({:.1} MB)\n",
                        self.names[i],
                        self.names[*reference],
                        mb(self.edge_cost[i][*reference].unwrap_or(0))
                    ));
                }
            }
        }
        out
    }
}

/// Applies an assignment, producing the actual encodings (vertical columns
/// keep their best single-column scheme; diff columns get [`NonHierInt`]).
pub fn apply_assignment(
    columns: &[(&str, &[i64])],
    assignment: &[Assignment],
) -> Result<Vec<EncodedColumn>> {
    if columns.len() != assignment.len() {
        return Err(Error::LengthMismatch {
            left: columns.len(),
            right: assignment.len(),
        });
    }
    let mut out = Vec::with_capacity(columns.len());
    for (i, (_, values)) in columns.iter().enumerate() {
        match assignment[i] {
            Assignment::Vertical => {
                out.push(EncodedColumn::Vertical(
                    corra_encodings::choose_int_baseline(values),
                ));
            }
            Assignment::DiffEncoded { reference } => {
                let enc = NonHierInt::encode(values, columns[reference].1)?;
                out.push(EncodedColumn::Diff { enc, reference });
            }
        }
    }
    Ok(out)
}

/// A column encoded according to an optimizer assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedColumn {
    /// Best single-column scheme.
    Vertical(corra_encodings::IntEncoding),
    /// Diff-encoded against the column at `reference`.
    Diff {
        /// The diff encoding.
        enc: NonHierInt,
        /// Graph index of the reference column.
        reference: usize,
    },
}

impl EncodedColumn {
    /// Compressed size in bytes.
    pub fn compressed_bytes(&self) -> usize {
        match self {
            EncodedColumn::Vertical(e) => {
                use corra_encodings::IntAccess;
                e.compressed_bytes()
            }
            EncodedColumn::Diff { enc, .. } => enc.compressed_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 2 cost matrix: ship/commit/receipt at 90 MB each vertical;
    /// edges as printed in the figure.
    fn fig2_graph() -> ColumnGraph {
        let names = vec!["ship".to_owned(), "commit".to_owned(), "receipt".to_owned()];
        let m = 1_000_000usize;
        let self_cost = vec![90 * m, 90 * m, 90 * m];
        // edge[t][r]: ship->commit 60, ship->receipt 60, commit->ship 60,
        // commit->receipt 60, receipt->ship 37.5, receipt->commit 45.
        let edge = vec![
            vec![None, Some(60 * m), Some(60 * m)],
            vec![Some(60 * m), None, Some(60 * m)],
            vec![Some(37 * m + m / 2), Some(45 * m), None],
        ];
        ColumnGraph::from_costs(names, self_cost, edge).unwrap()
    }

    #[test]
    fn fig2_greedy_matches_paper() {
        let g = fig2_graph();
        let a = g.greedy();
        // Paper outcome: ship stays vertical (90 MB), commit diff vs ship
        // (60 MB), receipt diff vs ship (37.5 MB).
        assert_eq!(a[0], Assignment::Vertical);
        assert_eq!(a[1], Assignment::DiffEncoded { reference: 0 });
        assert_eq!(a[2], Assignment::DiffEncoded { reference: 0 });
        // Saving 82.5 MB over 270 MB vertical.
        let total = g.total_cost(&a);
        assert_eq!(total, 187_500_000);
        assert_eq!(270_000_000 - total, 82_500_000);
    }

    #[test]
    fn greedy_matches_exhaustive_on_fig2() {
        let g = fig2_graph();
        let greedy_cost = g.total_cost(&g.greedy());
        let (_, best_cost) = g.exhaustive_best();
        assert_eq!(greedy_cost, best_cost);
    }

    #[test]
    fn no_chains_ever() {
        let g = fig2_graph();
        let a = g.greedy();
        for asn in &a {
            if let Assignment::DiffEncoded { reference } = asn {
                assert!(matches!(a[*reference], Assignment::Vertical));
            }
        }
    }

    #[test]
    fn negative_saving_edges_ignored() {
        let names = vec!["a".to_owned(), "b".to_owned()];
        let g = ColumnGraph::from_costs(
            names,
            vec![100, 100],
            vec![vec![None, Some(150)], vec![Some(150), None]],
        )
        .unwrap();
        let a = g.greedy();
        assert_eq!(a, vec![Assignment::Vertical, Assignment::Vertical]);
    }

    #[test]
    fn measured_graph_on_tpch_shape() {
        // Generate ship/commit/receipt with the TPC-H dependency structure.
        let n = 20_000usize;
        let order: Vec<i64> = (0..n).map(|i| 8_035 + (i as i64 * 13 % 2_400)).collect();
        let ship: Vec<i64> = order
            .iter()
            .enumerate()
            .map(|(i, &o)| o + 1 + (i as i64 % 121))
            .collect();
        let commit: Vec<i64> = order
            .iter()
            .enumerate()
            .map(|(i, &o)| o + 30 + (i as i64 % 61))
            .collect();
        let receipt: Vec<i64> = ship
            .iter()
            .enumerate()
            .map(|(i, &s)| s + 1 + (i as i64 % 30))
            .collect();
        let cols: Vec<(&str, &[i64])> = vec![
            ("l_shipdate", &ship),
            ("l_commitdate", &commit),
            ("l_receiptdate", &receipt),
        ];
        let g = ColumnGraph::measure(&cols).unwrap();
        let a = g.greedy();
        // shipdate must stay vertical and be the reference for both others
        // (receipt strongly prefers ship; commit prefers either ship).
        assert_eq!(a[0], Assignment::Vertical);
        assert!(matches!(a[2], Assignment::DiffEncoded { reference: 0 }));
        assert!(matches!(a[1], Assignment::DiffEncoded { .. }));
        // And the config strictly beats all-vertical.
        assert!(g.total_cost(&a) < g.total_cost(&[Assignment::Vertical; 3]));
    }

    #[test]
    fn sampled_graph_close_to_exact() {
        let n = 50_000usize;
        let a: Vec<i64> = (0..n).map(|i| i as i64 % 4_096).collect();
        let b: Vec<i64> = a
            .iter()
            .enumerate()
            .map(|(i, &v)| v + (i as i64 % 16))
            .collect();
        let cols: Vec<(&str, &[i64])> = vec![("a", &a), ("b", &b)];
        let exact = ColumnGraph::measure(&cols).unwrap();
        let sampled = ColumnGraph::measure_sampled(&cols, 5_000).unwrap();
        let e = exact.edge_cost(1, 0).unwrap() as f64;
        let s = sampled.edge_cost(1, 0).unwrap() as f64;
        assert!((e - s).abs() / e < 0.05, "exact {e} sampled {s}");
    }

    #[test]
    fn apply_assignment_roundtrip() {
        let reference: Vec<i64> = (0..5_000).map(|i| i as i64).collect();
        let target: Vec<i64> = reference.iter().map(|&r| r + (r % 10)).collect();
        let cols: Vec<(&str, &[i64])> = vec![("ref", &reference), ("tgt", &target)];
        let g = ColumnGraph::measure(&cols).unwrap();
        let asn = g.greedy();
        let encoded = apply_assignment(&cols, &asn).unwrap();
        assert_eq!(encoded.len(), 2);
        match (&encoded[0], &encoded[1]) {
            (EncodedColumn::Vertical(_), EncodedColumn::Diff { enc, reference: 0 }) => {
                let mut out = vec![0; enc.len()];
                enc.decode_into(&reference, &mut out).unwrap();
                assert_eq!(out, target);
            }
            other => panic!("unexpected assignment {other:?}"),
        }
    }

    #[test]
    fn chains_never_cycle_and_never_lose() {
        // A -> B -> C chain opportunity: B is best encoded vs C, A vs B.
        let names = vec!["a".to_owned(), "b".to_owned(), "c".to_owned()];
        let g = ColumnGraph::from_costs(
            names,
            vec![100, 100, 100],
            vec![
                vec![None, Some(10), Some(90)],
                vec![Some(90), None, Some(10)],
                vec![Some(95), Some(95), None],
            ],
        )
        .unwrap();
        let chained = g.greedy_with_chains();
        // a -> b and b -> c both accepted (120 total) vs no-chain greedy
        // which must leave one of them vertical.
        assert_eq!(chained[0], Assignment::DiffEncoded { reference: 1 });
        assert_eq!(chained[1], Assignment::DiffEncoded { reference: 2 });
        assert_eq!(chained[2], Assignment::Vertical);
        let no_chain = g.greedy();
        assert!(g.total_cost(&chained) <= g.total_cost(&no_chain));
        // No cycles: following references always terminates at a vertical.
        for (i, _) in chained.iter().enumerate() {
            let mut cur = i;
            let mut steps = 0;
            while let Assignment::DiffEncoded { reference } = chained[cur] {
                cur = reference;
                steps += 1;
                assert!(steps <= chained.len(), "cycle detected");
            }
        }
    }

    #[test]
    fn chains_reject_two_cycles() {
        // Mutually beneficial pair must not form a -> b -> a.
        let names = vec!["a".to_owned(), "b".to_owned()];
        let g = ColumnGraph::from_costs(
            names,
            vec![100, 100],
            vec![vec![None, Some(10)], vec![Some(10), None]],
        )
        .unwrap();
        let chained = g.greedy_with_chains();
        let diffs = chained
            .iter()
            .filter(|a| matches!(a, Assignment::DiffEncoded { .. }))
            .count();
        assert_eq!(diffs, 1, "exactly one column may be diff-encoded");
    }

    #[test]
    fn render_mentions_structure() {
        let g = fig2_graph();
        let a = g.greedy();
        let text = g.render(&a);
        assert!(text.contains("ship: vertical (90.0 MB)"));
        assert!(text.contains("receipt: diff-encoded w.r.t. ship (37.5 MB)"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(ColumnGraph::measure(&[]).is_err());
        let a = vec![1i64, 2];
        let b = vec![1i64];
        let cols: Vec<(&str, &[i64])> = vec![("a", &a), ("b", &b)];
        assert!(ColumnGraph::measure(&cols).is_err());
        assert!(ColumnGraph::from_costs(vec!["x".into()], vec![], vec![]).is_err());
    }
}
