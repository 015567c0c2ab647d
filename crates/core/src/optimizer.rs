//! Cost-based join-strategy selection.
//!
//! §7 lists query optimization as future work; we build the piece the
//! paper itself derives: the §5.5.1 analytical latency model (validated
//! there against Table 4) and a Figure-4-shaped traffic model, and pick
//! the cheapest of the four strategies under a chosen objective.
//!
//! Every plan is costed the same way: each input is a [`TableCard`],
//! one pipeline stage is priced in one place (`JoinStats::stage`), and
//! the stage's output is the next stage's left card — the fold the
//! join-order search ([`greedy_join_order`]), the planner's strategy
//! choice and admission pricing ([`price_query`]) all run.

use crate::plan::{JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_dht::Ns;

/// Network-level parameters of the cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostParams {
    /// Number of nodes in the overlay.
    pub n_nodes: f64,
    /// One overlay-hop latency in seconds (paper baseline: 0.1 s).
    pub hop_latency: f64,
    /// Time for a query multicast to reach all nodes (paper: ≈3 s at
    /// n = 1024).
    pub multicast_time: f64,
    /// CAN dimensionality (lookup path ~ (d/4)·n^(1/d)).
    pub dims: f64,
}

impl CostParams {
    pub fn paper_baseline(n_nodes: f64) -> Self {
        CostParams {
            n_nodes,
            hop_latency: 0.1,
            // The multicast depth grows slowly with n; anchor at the
            // paper's ≈3 s for 1024 nodes and scale with n^(1/d).
            multicast_time: 3.0 * (n_nodes.powf(0.25) / 1024f64.powf(0.25)),
            dims: 4.0,
        }
    }

    /// Average lookup latency: (d/4)·n^(1/d) hops (§3.1.1).
    pub fn lookup_latency(&self) -> f64 {
        (self.dims / 4.0) * self.n_nodes.powf(1.0 / self.dims) * self.hop_latency
    }
}

/// Workload statistics feeding the model (shapes of §5.1 / Fig. 4).
#[derive(Clone, Copy, Debug)]
pub struct JoinStats {
    pub rows_r: f64,
    pub rows_s: f64,
    /// On-the-wire sizes of *full* base tuples — what a Fetch Matches
    /// get or a semi-join fetch moves (those retrieve published rows
    /// whole: no query prunes them).
    pub bytes_r: f64,
    pub bytes_s: f64,
    /// On-the-wire sizes of the *pruned* rehash projections — what the
    /// schema-aware dataflow actually rehashes per tuple (join key ∪
    /// residual-predicate ∪ output columns; see
    /// [`crate::plan::PipelineSchema`]). Equal to `bytes_*` when nothing
    /// can be pruned.
    pub ship_r: f64,
    pub ship_s: f64,
    /// Selectivity of the local predicates.
    pub sel_r: f64,
    pub sel_s: f64,
    /// Fraction of (selected) R rows with a join partner in S.
    pub match_r: f64,
    /// Result tuple wire size.
    pub bytes_result: f64,
    /// Bloom filter size per fragment, bytes.
    pub bloom_bytes: f64,
}

/// Fraction of (selected) left rows assumed to find a join partner —
/// the §5.1 workload's 90 %, used wherever the model has no better
/// estimate.
const MATCH_FRACTION: f64 = 0.9;

/// Selectivity assumed for a predicate the model cannot derive: the
/// classical ½ for a range predicate, 1 when there is none.
pub(crate) fn default_selectivity(has_pred: bool) -> f64 {
    if has_pred {
        0.5
    } else {
        1.0
    }
}

impl JoinStats {
    /// §5.1's synthetic workload at a given S-predicate selectivity.
    pub fn workload(total_bytes: f64, sel_s: f64) -> JoinStats {
        // |R| = 10·|S|; R tuples carry the ~1 KB pad (it is projected
        // into the result, so every strategy must move it); S tuples are
        // ~100 B.
        let rows_s = total_bytes / (10.0 * 1024.0 + 100.0);
        JoinStats {
            rows_r: rows_s * 10.0,
            rows_s,
            bytes_r: 1024.0,
            bytes_s: 100.0,
            // The workload projects R.pad into the result, so pruning
            // cannot drop it: rehashes ship (nearly) full tuples.
            ship_r: 1024.0,
            ship_s: 100.0,
            // R's range predicate keeps half its rows — the case the
            // default is named after.
            sel_r: default_selectivity(true),
            sel_s,
            match_r: MATCH_FRACTION,
            bytes_result: 1024.0,
            bloom_bytes: 8192.0,
        }
    }

    /// One pipeline stage: `left` (a base table, or the intermediate the
    /// previous stage left behind) joined with the base table `right`.
    /// Rehashes move the pruned widths, fetches the full ones, and a
    /// result is as wide as what both sides shipped.
    pub(crate) fn stage(left: &TableCard, right: &TableCard) -> JoinStats {
        JoinStats {
            rows_r: left.rows,
            rows_s: right.rows,
            bytes_r: left.bytes,
            bytes_s: right.bytes,
            ship_r: left.ship_bytes,
            ship_s: right.ship_bytes,
            sel_r: left.sel,
            sel_s: right.sel,
            match_r: MATCH_FRACTION,
            bytes_result: left.ship_bytes + right.ship_bytes,
            bloom_bytes: 2048.0,
        }
    }

    /// What this stage hands the next one as its left input: the
    /// estimated result rows at the result width, already selected (its
    /// local predicates are applied, so `sel = 1`) and with nothing left
    /// to prune.
    pub(crate) fn output(&self) -> TableCard {
        TableCard {
            rows: self.results(),
            bytes: self.bytes_result,
            ship_bytes: self.bytes_result,
            sel: 1.0,
        }
    }

    /// Estimated result cardinality: R rows passing their predicate,
    /// with a partner, whose partner passes the S predicate; the f()
    /// predicate halves again — but a constant factor common to all
    /// strategies can be dropped for strategy *selection* and kept
    /// simple here. Also the per-stage cardinality estimate the greedy
    /// join-order search chains through a pipeline.
    pub fn results(&self) -> f64 {
        self.rows_r * self.sel_r * self.match_r * self.sel_s
    }
}

/// Optimization objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// Minimize time-to-last-tuple in a latency-bound network (§5.5.1).
    Latency,
    /// Minimize aggregate network traffic (Figure 4's metric).
    Traffic,
}

/// Analytical time-to-last-result in a latency-bound (infinite
/// bandwidth) network — the §5.5.1 derivation, which the paper checks
/// against Table 4.
pub fn latency_model(strategy: JoinStrategy, p: &CostParams) -> f64 {
    let lookup = p.lookup_latency();
    let hop = p.hop_latency;
    let mcast = p.multicast_time;
    match strategy {
        // multicast + lookup + put + deliver
        JoinStrategy::SymmetricHash => mcast + lookup + hop + hop,
        // multicast + lookup + request + reply + deliver
        JoinStrategy::FetchMatches => mcast + lookup + 3.0 * hop,
        // multicast + 2 lookups + 4 directs
        JoinStrategy::SymmetricSemiJoin => mcast + 2.0 * lookup + 4.0 * hop,
        // 2 multicasts + 2 lookups + 3 directs
        JoinStrategy::BloomFilter => 2.0 * mcast + 2.0 * lookup + 3.0 * hop,
    }
}

/// Analytical aggregate traffic in bytes (Figure 4's shape).
pub fn traffic_model(strategy: JoinStrategy, s: &JoinStats) -> f64 {
    let result_traffic = s.results() * s.bytes_result;
    const MINI: f64 = 24.0;
    const GET: f64 = 80.0;
    // Every DHT put is a lookup followed by a direct transfer (§3.2.3
    // footnote 6); the lookup hops along the overlay.
    const LOOKUP: f64 = 80.0;
    match strategy {
        JoinStrategy::SymmetricHash => {
            // Both tables rehashed after local selections, pruned to
            // the columns downstream operators read.
            s.rows_r * s.sel_r * (s.ship_r + LOOKUP)
                + s.rows_s * s.sel_s * (s.ship_s + LOOKUP)
                + result_traffic
        }
        JoinStrategy::FetchMatches => {
            // A get per selected R row; the S tuple always comes back
            // ("the S tuple must still be retrieved ... regardless of how
            // selective the predicate is"), so traffic is ~constant in
            // sel_s.
            s.rows_r * s.sel_r * (GET + s.match_r * s.bytes_s) + result_traffic
        }
        JoinStrategy::SymmetricSemiJoin => {
            // Tiny projections rehashed, then only matching full tuples
            // fetched: linear in sel_s.
            let minis = (s.rows_r * s.sel_r + s.rows_s * s.sel_s) * (MINI + LOOKUP);
            let matches = s.rows_r * s.sel_r * s.match_r * s.sel_s;
            minis + matches * (s.bytes_r + s.bytes_s + 2.0 * GET) + result_traffic
        }
        JoinStrategy::BloomFilter => {
            // Filters out, OR-ed filters multicast back, then a filtered
            // rehash: only R rows whose key appears in (the filter of) S
            // survive — plus S's own rehash.
            let filters = 2.0 * s.bloom_bytes * 8.0;
            let r_kept = s.rows_r * s.sel_r * (s.match_r * s.sel_s + 0.03);
            let s_kept = s.rows_s * s.sel_s;
            filters + r_kept * (s.ship_r + LOOKUP) + s_kept * (s.ship_s + LOOKUP) + result_traffic
        }
    }
}

/// Catalog-derived card of one base table, input to the join-order
/// search: row count, average wire bytes per tuple, the wire bytes of
/// the columns the query actually ships (join keys, residual-predicate
/// and output columns — what survives projection pushdown), and the
/// estimated selectivity of its pushed-down local predicates.
#[derive(Clone, Copy, Debug)]
pub struct TableCard {
    pub rows: f64,
    /// Full tuple width on the wire.
    pub bytes: f64,
    /// Pruned width: what a rehash of this table contributes to an
    /// intermediate. `bytes` when the query reads every column.
    pub ship_bytes: f64,
    pub sel: f64,
}

impl TableCard {
    /// Rows surviving the local selection.
    fn effective_rows(&self) -> f64 {
        self.rows * self.sel
    }
}

/// Greedy left-deep join-order search for an N-way equi-join.
///
/// `edges` are the query's equality predicates as table-index pairs.
/// Starting from the table with the smallest effective cardinality that
/// participates in a join edge, the search repeatedly appends the
/// *connected* table whose stage would move the fewest bytes under the
/// symmetric-hash [`traffic_model`] (the §5.5.1-validated latency model
/// is order-insensitive for a pipeline, so traffic is the
/// discriminating objective), chaining each stage's estimated
/// [`JoinStats::results`] cardinality into the next. Byte accounting
/// uses the *pruned* [`TableCard::ship_bytes`] widths, so the order
/// reacts to where wide columns get dropped: a table whose 1 KB pad is
/// projected into the result is expensive to pipeline early, while the
/// same table with the pad pruned is cheap. Disconnected tables, if
/// any, are appended last (lowering will reject the cross product).
/// Returns a permutation of `0..cards.len()`.
pub fn greedy_join_order(cards: &[TableCard], edges: &[(usize, usize)]) -> Vec<usize> {
    let n = cards.len();
    if n <= 2 {
        return (0..n).collect();
    }
    let touches_edge = |i: usize| edges.iter().any(|&(a, b)| a == i || b == i);
    let argmin = |it: &mut dyn Iterator<Item = usize>, key: &dyn Fn(usize) -> f64| {
        it.min_by(|&a, &b| key(a).total_cmp(&key(b)))
    };
    let start = argmin(&mut (0..n).filter(|&i| touches_edge(i)), &|i| {
        cards[i].effective_rows()
    })
    .unwrap_or(0);

    let mut order = vec![start];
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != start).collect();
    // The accumulated intermediate, as a card: the head's selected rows
    // at its pruned width.
    let head = &cards[start];
    let mut acc = TableCard {
        rows: head.effective_rows(),
        bytes: head.ship_bytes,
        ship_bytes: head.ship_bytes,
        sel: 1.0,
    };
    while !remaining.is_empty() {
        let connected = |i: usize| {
            edges
                .iter()
                .any(|&(a, b)| (a == i && order.contains(&b)) || (b == i && order.contains(&a)))
        };
        let stage = |i: usize| JoinStats::stage(&acc, &cards[i]);
        let cost = |i: usize| traffic_model(JoinStrategy::SymmetricHash, &stage(i));
        let next = argmin(
            &mut remaining.iter().copied().filter(|&i| connected(i)),
            &cost,
        )
        .or_else(|| argmin(&mut remaining.iter().copied(), &cost))
        .unwrap();
        acc = stage(next).output();
        order.push(next);
        remaining.retain(|&i| i != next);
    }
    order
}

/// Pick the cheapest strategy for the objective.
pub fn choose_strategy(p: &CostParams, s: &JoinStats, objective: Objective) -> JoinStrategy {
    let cost = |st: JoinStrategy| match objective {
        Objective::Latency => latency_model(st, p),
        Objective::Traffic => traffic_model(st, s),
    };
    JoinStrategy::ALL
        .into_iter()
        .min_by(|a, b| cost(*a).total_cmp(&cost(*b)))
        .unwrap()
}

// ---------------------------------------------------------------------
// Admission pricing (the quota hook of the tenant governor)
// ---------------------------------------------------------------------

/// Publish-rate statistics of one base table — the per-second analogue
/// of the catalog's [`crate::catalog::TableStats`], feeding admission
/// pricing: how fast fresh tuples arrive and how wide they are on the
/// wire. Registered per namespace with the tenant governor
/// ([`crate::tenant::TenantGovernor::set_table_rate`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TableRate {
    /// Fresh publications per second across all publishers.
    pub rows_per_sec: f64,
    /// Average on-the-wire tuple size in bytes.
    pub avg_tuple_bytes: f64,
}

impl Default for TableRate {
    /// Conservative default for tables nobody profiled: one ~100 B
    /// tuple per second (the catalog default's width at a slow trickle).
    fn default() -> Self {
        TableRate {
            rows_per_sec: 1.0,
            avg_tuple_bytes: 100.0,
        }
    }
}

/// Admission price of a query descriptor: modeled steady-state traffic
/// in **bytes per second**, charged against the owning tenant's quota
/// before the descriptor is installed.
///
/// The price reuses the byte-accurate [`traffic_model`] unchanged —
/// feeding it per-*second* arrival rows instead of per-*run* table
/// cardinalities turns its per-run bytes into bytes/sec. Joins are
/// priced under their own strategy; pipelines fold left-deep with each
/// stage's estimated [`JoinStats::results`] rate chained into the next
/// (the same chaining [`greedy_join_order`] uses); scans and
/// aggregations price as their input's selected arrival bytes (what
/// gets shipped or rehashed into the aggregation namespace). Predicate
/// selectivity is the model's default (`default_selectivity`).
pub fn price_query(desc: &QueryDesc, rate_of: &dyn Fn(Ns) -> TableRate) -> f64 {
    // A base-table scan as a card: arrivals per second at full width
    // (the rate book knows no per-column widths, so nothing prunes).
    let card = |s: &ScanSpec| {
        let r = rate_of(s.ns);
        TableCard {
            rows: r.rows_per_sec,
            bytes: r.avg_tuple_bytes,
            ship_bytes: r.avg_tuple_bytes,
            sel: default_selectivity(s.pred.is_some()),
        }
    };
    match &desc.op {
        QueryOp::Scan { scan, .. } | QueryOp::Agg { scan, .. } => {
            let c = card(scan);
            c.effective_rows() * c.bytes
        }
        QueryOp::Join { join: j, .. } => {
            let mut left = card(&j.left);
            let mut total = 0.0;
            for stage in &j.stages {
                let s = JoinStats::stage(&left, &card(&stage.right));
                total += traffic_model(j.strategy, &s);
                left = s.output();
                left.rows = left.rows.max(f64::MIN_POSITIVE);
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_reproduces_table_4_ordering() {
        // Table 4 (n = 1024, 100 ms hops, infinite bandwidth):
        // SHJ 3.73 < FM 3.78 < SSJ 4.47 < Bloom 6.85.
        let p = CostParams::paper_baseline(1024.0);
        let shj = latency_model(JoinStrategy::SymmetricHash, &p);
        let fm = latency_model(JoinStrategy::FetchMatches, &p);
        let ssj = latency_model(JoinStrategy::SymmetricSemiJoin, &p);
        let bloom = latency_model(JoinStrategy::BloomFilter, &p);
        assert!(
            shj < fm && fm < ssj && ssj < bloom,
            "{shj} {fm} {ssj} {bloom}"
        );
        // And the absolute values land near the paper's Table 4.
        assert!((shj - 3.73).abs() < 0.4, "shj {shj}");
        assert!((fm - 3.78).abs() < 0.4, "fm {fm}");
        assert!((ssj - 4.47).abs() < 0.6, "ssj {ssj}");
        assert!((bloom - 6.85).abs() < 1.2, "bloom {bloom}");
    }

    #[test]
    fn traffic_model_reproduces_figure_4_crossovers() {
        let total = 1e9; // ~1 GB of base data
                         // At low selectivity on S, Bloom beats symmetric hash by skipping
                         // most of R's rehash.
        let low = JoinStats::workload(total, 0.1);
        assert!(
            traffic_model(JoinStrategy::BloomFilter, &low)
                < traffic_model(JoinStrategy::SymmetricHash, &low)
        );
        // At high selectivity the filters stop helping (Fig. 4: "the
        // algorithm starts to perform similar to the symmetric join").
        let high = JoinStats::workload(total, 1.0);
        let b = traffic_model(JoinStrategy::BloomFilter, &high);
        let shj = traffic_model(JoinStrategy::SymmetricHash, &high);
        assert!((b - shj).abs() / shj < 0.25, "bloom {b} vs shj {shj}");
        // Fetch Matches is flat in sel_s.
        let fm_low = traffic_model(JoinStrategy::FetchMatches, &JoinStats::workload(total, 0.1));
        let fm_high = traffic_model(JoinStrategy::FetchMatches, &JoinStats::workload(total, 0.9));
        let base_low = JoinStats::workload(total, 0.1).results() * 1024.0;
        let base_high = JoinStats::workload(total, 0.9).results() * 1024.0;
        assert!(((fm_high - base_high) - (fm_low - base_low)).abs() < 1e-3 * fm_low);
        // Semi-join grows linearly and stays below SHJ.
        for sel in [0.2, 0.5, 0.8] {
            let st = JoinStats::workload(total, sel);
            assert!(
                traffic_model(JoinStrategy::SymmetricSemiJoin, &st)
                    < traffic_model(JoinStrategy::SymmetricHash, &st)
            );
        }
    }

    #[test]
    fn chooser_switches_with_objective_and_selectivity() {
        let p = CostParams::paper_baseline(1024.0);
        let s = JoinStats::workload(1e9, 0.5);
        assert_eq!(
            choose_strategy(&p, &s, Objective::Latency),
            JoinStrategy::SymmetricHash
        );
        // Traffic objective never picks plain SHJ when semi-join wins.
        let choice = choose_strategy(&p, &s, Objective::Traffic);
        assert_ne!(choice, JoinStrategy::SymmetricHash);
    }

    /// A card whose query ships every column (no pruning opportunity).
    fn full_card(rows: f64, bytes: f64, sel: f64) -> TableCard {
        TableCard {
            rows,
            bytes,
            ship_bytes: bytes,
            sel,
        }
    }

    #[test]
    fn greedy_order_starts_small_and_stays_connected() {
        // A big R, medium S, tiny T in a chain R — S — T.
        let cards = [
            full_card(100_000.0, 1024.0, 1.0),
            full_card(10_000.0, 100.0, 1.0),
            full_card(100.0, 100.0, 1.0),
        ];
        let order = greedy_join_order(&cards, &[(0, 1), (1, 2)]);
        // T is smallest but only connects to S: start at T, then S, then
        // the expensive R last.
        assert_eq!(order, vec![2, 1, 0]);
        // Two tables: trivial order.
        assert_eq!(greedy_join_order(&cards[..2], &[(0, 1)]), vec![0, 1]);
    }

    #[test]
    fn greedy_order_reacts_to_dropped_wide_columns() {
        // A star centered on S (table 1): R — S — T, where R is wide
        // (1 KB pad) and T has many more rows than R.
        let wide_r = full_card(1000.0, 1024.0, 1.0);
        let s = full_card(100.0, 28.0, 1.0);
        let t = full_card(4000.0, 28.0, 1.0);
        let edges = [(0, 1), (1, 2)];
        // Pad projected into the result: R's rehash ships ~1 KB per
        // row, so the greedy order defers R to the end.
        let order = greedy_join_order(&[wide_r, s, t], &edges);
        assert_eq!(order.len(), 3);
        assert_eq!(*order.last().unwrap(), 0, "wide R pipelines last");
        // Same tables, but the query never reads the pad: R's pruned
        // ship width collapses and T (more rows to move) goes last.
        let narrow_r = TableCard {
            ship_bytes: 20.0,
            ..wide_r
        };
        let order = greedy_join_order(&[narrow_r, s, t], &edges);
        assert_eq!(
            *order.last().unwrap(),
            2,
            "row count dominates once the pad is pruned"
        );
    }

    #[test]
    fn greedy_order_is_always_a_permutation() {
        let cards = [
            full_card(50.0, 10.0, 0.5),
            full_card(5000.0, 10.0, 1.0),
            full_card(500.0, 10.0, 0.5),
            full_card(5.0, 10.0, 1.0),
        ];
        // Star centered on table 1, plus a disconnected table 3.
        let mut order = greedy_join_order(&cards, &[(0, 1), (1, 2)]);
        assert_eq!(order.last(), Some(&3), "disconnected table goes last");
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lookup_latency_follows_fourth_root() {
        let a = CostParams::paper_baseline(16.0).lookup_latency();
        let b = CostParams::paper_baseline(256.0).lookup_latency();
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}
