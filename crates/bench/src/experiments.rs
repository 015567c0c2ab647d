//! The experiments of §5, one function per table/figure, plus ablations.
//! Each prints a table and writes `results/<name>.csv`.

use pier_core::expr::Expr;
use pier_core::metrics::net_stats_json;
use pier_core::plan::{AggCall, AggFunc, AggSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::tenant::{AdmissionError, Quota};
use pier_core::testkit::{
    metrics_snapshot, publish_by_request, publish_round_robin, rows_of, run_query,
    run_query_by_request, settle_publish, stabilized_pier_cluster, stabilized_pier_sharded,
    stabilized_pier_sim, time_to_kth, PierEngine,
};
use pier_core::{optimizer, PierNode, PublishReport, TableRate, Tuple, Value};
use pier_dht::{DhtConfig, OverlayKind};
use pier_simnet::time::{Dur, Time};
use pier_simnet::topology::TransitStub;
use pier_simnet::{Deployment, FaultDriver, FaultScript, NetConfig, NodeId, ShardMap, Sim};
use pier_workload::{intrusion, RsParams, RsWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::{
    average, full_scale, results_dir, run_join, run_multi_join, run_multi_join_pruning,
    strategy_label, JoinRun, ResultTable, RunMetrics,
};

fn seeds() -> Vec<u64> {
    if full_scale() {
        vec![11, 22, 33]
    } else {
        vec![11, 22]
    }
}

fn params_for_nodes(n: usize, seed: u64) -> RsParams {
    // Load proportional to the network size (each node contributes a
    // fixed amount of source data, as in Fig. 3), with a floor so the
    // 30th-tuple metric is defined at small n.
    RsParams {
        // ~20 R tuples (≈20 KB) of source data per node, with a floor so
        // the 30th-tuple metric is defined at small n.
        s_rows: (n as u64 * 2).max(40),
        seed,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// E1 — §5.3 centralized vs distributed
// ---------------------------------------------------------------------

pub fn centralized() {
    let n: u64 = 1024;
    // T = bytes passing the selections. With 50% selectivity on both
    // tables the paper quotes ~0.5 GB for a ~1 GB database.
    let db_bytes = 1e9;
    let t_bytes = 0.5 * db_bytes;
    let mut tab = ResultTable::new(
        "e1_centralized",
        &[
            "computation_nodes",
            "inbound_per_node_MB",
            "time_at_10Mbps_s",
            "bw_for_60s_response_Mbps",
        ],
    );
    for m in [1u64, 2, 8, 16, 64, 256, n] {
        let per_node = t_bytes * (1.0 - (m as f64) / (n as f64)).max(0.0) / m as f64;
        let time_s = per_node * 8.0 / 10e6;
        let bw = per_node * 8.0 / 60.0 / 1e6;
        tab.row(vec![
            m.to_string(),
            ResultTable::fmt_cell(per_node / 1e6),
            ResultTable::fmt_cell(time_s),
            ResultTable::fmt_cell(bw),
        ]);
    }
    tab.emit();

    // Cross-check in the simulator: confining the join to one node
    // concentrates inbound traffic by roughly the node count.
    let n_sim = 32;
    let mk = |m: Option<u32>| {
        let mut run = JoinRun::new(
            n_sim,
            JoinStrategy::SymmetricHash,
            params_for_nodes(n_sim, 7),
            NetConfig::paper_baseline(7),
        );
        run.computation_nodes = m;
        run_join(&run)
    };
    let one = mk(Some(1));
    let all = mk(None);
    let mut tab = ResultTable::new(
        "e1_centralized_simcheck",
        &["computation_nodes", "max_inbound_MB", "time_to_last_s"],
    );
    tab.row(vec![
        "1".into(),
        ResultTable::fmt_cell(one.max_inbound_mb),
        ResultTable::fmt_cell(one.t_last),
    ]);
    tab.row(vec![
        n_sim.to_string(),
        ResultTable::fmt_cell(all.max_inbound_mb),
        ResultTable::fmt_cell(all.t_last),
    ]);
    tab.emit();
}

// ---------------------------------------------------------------------
// E2 — Figure 3: scale-up on the full mesh
// ---------------------------------------------------------------------

pub fn fig3() {
    let node_counts: Vec<usize> = if full_scale() {
        vec![2, 8, 32, 128, 512, 2048, 8192]
    } else {
        vec![2, 8, 32, 128, 512]
    };
    let mut tab = ResultTable::new(
        "fig3_scaleup",
        &["nodes", "m=1", "m=2", "m=8", "m=16", "m=N"],
    );
    for &n in &node_counts {
        let mut cells = vec![n.to_string()];
        for m in [Some(1u32), Some(2), Some(8), Some(16), None] {
            let t = average(&seeds(), |seed| {
                let mut run = JoinRun::new(
                    n,
                    JoinStrategy::SymmetricHash,
                    params_for_nodes(n, seed),
                    NetConfig::paper_baseline(seed),
                );
                run.computation_nodes = m;
                run.settle = Dur::from_secs(1200);
                run_join(&run).t_30th
            });
            cells.push(ResultTable::fmt_cell(t));
        }
        tab.row(cells);
    }
    tab.emit();
}

// ---------------------------------------------------------------------
// E3 — Table 4: join strategies, infinite bandwidth
// ---------------------------------------------------------------------

pub fn table4() {
    let n = if full_scale() { 1024 } else { 256 };
    let mut tab = ResultTable::new(
        "table4_strategies",
        &["strategy", "measured_t_last_s", "analytical_s"],
    );
    let p = optimizer::CostParams::paper_baseline(n as f64);
    for strategy in JoinStrategy::ALL {
        let t = average(&seeds(), |seed| {
            let run = JoinRun::new(
                n,
                strategy,
                RsParams {
                    s_rows: 40,
                    seed,
                    ..Default::default()
                },
                NetConfig::latency_only(seed),
            );
            run_join(&run).t_last
        });
        tab.row(vec![
            strategy_label(strategy).into(),
            ResultTable::fmt_cell(t),
            ResultTable::fmt_cell(optimizer::latency_model(strategy, &p)),
        ]);
    }
    tab.emit();
}

// ---------------------------------------------------------------------
// E4/E5 — Figures 4 & 5: selectivity sweep (traffic & time-to-last)
// ---------------------------------------------------------------------

fn selectivity_sweep() -> Vec<(u32, Vec<RunMetrics>)> {
    let n = if full_scale() { 512 } else { 128 };
    let sels: Vec<u32> = if full_scale() {
        (1..=10).map(|k| k * 10).collect()
    } else {
        vec![10, 40, 70, 100]
    };
    let mut out = Vec::new();
    for &sel in &sels {
        let metrics: Vec<RunMetrics> = JoinStrategy::ALL
            .into_iter()
            .map(|strategy| {
                // The paper joins ~100 GB over 10 Mbps links; we keep the
                // data:bandwidth ratio (hence the bottleneck structure)
                // by scaling both down — ~3 MB of base data over 50 kbps
                // inbound links.
                let net = NetConfig {
                    inbound_bps: Some(50e3),
                    ..NetConfig::paper_baseline(42)
                };
                let mut run = JoinRun::new(
                    n,
                    strategy,
                    RsParams {
                        s_rows: if full_scale() { 600 } else { 300 },
                        sel_s_pct: sel,
                        seed: 42,
                        ..Default::default()
                    },
                    net,
                );
                run.settle = Dur::from_secs(3000);
                run_join(&run)
            })
            .collect();
        out.push((sel, metrics));
    }
    out
}

pub fn fig4_fig5() {
    let sweep = selectivity_sweep();
    let mut t4 = ResultTable::new(
        "fig4_traffic",
        &["sel_s_pct", "shj_MB", "fm_MB", "ssj_MB", "bloom_MB"],
    );
    let mut t5 = ResultTable::new(
        "fig5_time_to_last",
        &["sel_s_pct", "shj_s", "fm_s", "ssj_s", "bloom_s"],
    );
    for (sel, metrics) in &sweep {
        t4.row(
            std::iter::once(sel.to_string())
                .chain(metrics.iter().map(|m| ResultTable::fmt_cell(m.traffic_mb)))
                .collect(),
        );
        t5.row(
            std::iter::once(sel.to_string())
                .chain(metrics.iter().map(|m| ResultTable::fmt_cell(m.t_last)))
                .collect(),
        );
    }
    t4.emit();
    t5.emit();
}

// ---------------------------------------------------------------------
// E6 — Figure 6: recall under churn for different refresh periods
// ---------------------------------------------------------------------

pub fn fig6() {
    let n = if full_scale() { 512 } else { 160 };
    // The paper's x-axis reaches 240 failures/min on 4096 nodes (~5.9 %
    // churn/min). We apply the same *fractional* churn to our smaller
    // network so the soft-state dynamics (loss window vs renewal period)
    // stay comparable; rows are labeled in paper-equivalent rates.
    let rates: Vec<u32> = vec![0, 60, 120, 240];
    let refreshes: Vec<u64> = vec![30, 60, 150, 225];
    let mut tab = ResultTable::new(
        "fig6_recall",
        &[
            "failures_per_min",
            "refresh_30s",
            "refresh_60s",
            "refresh_150s",
            "refresh_225s",
        ],
    );
    for &rate in &rates {
        let scaled =
            ((rate as f64 * n as f64 / 4096.0).round() as u32).max(if rate > 0 { 1 } else { 0 });
        let mut cells = vec![rate.to_string()];
        for &refresh in &refreshes {
            cells.push(format!("{:.1}", churn_recall(n, scaled, refresh) * 100.0));
        }
        tab.row(cells);
    }
    tab.emit();
}

/// Run a churn scenario and return average recall of periodic scans.
fn churn_recall(n: usize, failures_per_min: u32, refresh_s: u64) -> f64 {
    let items_per_node = 4usize;
    let cfg = DhtConfig {
        keepalive: Dur::from_secs(2),
        fail_after: Dur::from_secs(15), // the paper's detection delay
        ..DhtConfig::default()
    };
    let mut sim = stabilized_pier_sim(n, cfg.clone(), NetConfig::latency_only(99));

    // Every node publishes `items_per_node` rows and renews them.
    let lifetime = Dur::from_secs(refresh_s * 2);
    let refresh = Dur::from_secs(refresh_s);
    let mut published: Vec<Vec<i64>> = vec![Vec::new(); n]; // per engine slot
    for (i, slot) in published.iter_mut().enumerate() {
        let rows: Vec<pier_core::Tuple> = (0..items_per_node)
            .map(|k| {
                let pk = (i * 1_000_000 + k) as i64;
                pier_core::tuple::Tuple::new(vec![pier_core::Value::I64(pk)])
            })
            .collect();
        *slot = rows.iter().map(|t| t.get(0).as_i64().unwrap()).collect();
        sim.with_app(i as NodeId, |node, ctx| {
            node.publish_rows(ctx, "T", rows, 0, lifetime);
            node.start_renewals(ctx, refresh);
        });
    }
    settle_publish(&mut sim);

    let mut rng = SmallRng::seed_from_u64(4242);
    let mut recalls = Vec::new();
    let horizon_s = 240u64;
    let fail_gap = if failures_per_min == 0 {
        u64::MAX
    } else {
        (60_000 / failures_per_min as u64).max(1) // ms between failures
    };
    let mut next_fail_ms = fail_gap;
    let mut next_query_ms = 30_000u64;
    let mut qid = 1000u64;
    let mut elapsed_ms = 0u64;
    let mut pending_query: Option<(u64, Vec<i64>)> = None;

    while elapsed_ms < horizon_s * 1000 {
        let next_event = next_fail_ms.min(next_query_ms);
        let advance = next_event.saturating_sub(elapsed_ms).max(1);
        sim.run_for(Dur::from_micros(advance * 1000));
        elapsed_ms += advance;

        if elapsed_ms >= next_fail_ms {
            next_fail_ms += fail_gap;
            // Fail a random live node (never the query node 0) and add a
            // fresh replacement that joins and publishes its own data.
            let victims: Vec<u32> = (1..sim.node_count() as u32)
                .filter(|&i| sim.alive(i))
                .collect();
            if victims.len() > n / 2 {
                let v = victims[rng.gen_range(0..victims.len())];
                sim.fail_node(v);
                published[v as usize].clear();
                let fresh_id = sim.node_count() as NodeId;
                let fresh = sim.add_node(PierNode::new(cfg.clone(), fresh_id, Some(0)));
                debug_assert_eq!(fresh, fresh_id);
                // Publish immediately: puts issued before the join
                // completes are retried by the provider's tick loop.
                let base = (fresh as usize) * 1_000_000 + 500_000;
                let rows: Vec<pier_core::Tuple> = (0..items_per_node)
                    .map(|k| {
                        pier_core::tuple::Tuple::new(vec![pier_core::Value::I64((base + k) as i64)])
                    })
                    .collect();
                published.push(rows.iter().map(|t| t.get(0).as_i64().unwrap()).collect());
                sim.with_app(fresh, |node, ctx| {
                    node.publish_rows(ctx, "T", rows, 0, lifetime);
                    node.start_renewals(ctx, refresh);
                });
            }
        }

        if elapsed_ms >= next_query_ms {
            next_query_ms += 30_000;
            // Harvest the previous query first.
            if let Some((q, truth)) = pending_query.take() {
                let got: Vec<i64> = sim
                    .app(0)
                    .unwrap()
                    .query_results(q)
                    .iter()
                    .filter_map(|(_, t)| t.get(0).as_i64())
                    .collect();
                let hit = got.iter().filter(|pk| truth.contains(pk)).count();
                if !truth.is_empty() {
                    recalls.push(hit as f64 / truth.len() as f64);
                }
            }
            // Reachable snapshot: items published by currently live nodes.
            let truth: Vec<i64> = (0..sim.node_count() as u32)
                .filter(|&i| sim.alive(i))
                .flat_map(|i| published[i as usize].iter().copied())
                .collect();
            qid += 1;
            let scan = ScanSpec::new("T", 1, 0);
            let desc = QueryDesc::one_shot(
                qid,
                0,
                QueryOp::Scan {
                    scan,
                    project: vec![Expr::col(0)],
                },
            );
            sim.with_app(0, |node, ctx| node.submit(ctx, desc));
            pending_query = Some((qid, truth));
        }
    }
    if recalls.is_empty() {
        f64::NAN
    } else {
        recalls.iter().sum::<f64>() / recalls.len() as f64
    }
}

// ---------------------------------------------------------------------
// E7 — Figure 7: transit-stub topology
// ---------------------------------------------------------------------

pub fn fig7() {
    let node_counts: Vec<usize> = if full_scale() {
        vec![2, 8, 32, 128, 512, 2048]
    } else {
        vec![2, 8, 32, 128, 512]
    };
    let mut tab = ResultTable::new("fig7_transit_stub", &["nodes", "m=1", "m=N"]);
    for &n in &node_counts {
        let mut cells = vec![n.to_string()];
        for m in [Some(1u32), None] {
            let t = average(&seeds(), |seed| {
                let net = NetConfig {
                    topology: Arc::new(TransitStub::paper_default(n as u32, seed)),
                    inbound_bps: Some(10e6),
                    seed,
                };
                let mut run = JoinRun::new(
                    n,
                    JoinStrategy::SymmetricHash,
                    params_for_nodes(n, seed),
                    net,
                );
                run.computation_nodes = m;
                run.settle = Dur::from_secs(1200);
                run_join(&run).t_30th
            });
            cells.push(ResultTable::fmt_cell(t));
        }
        tab.row(cells);
    }
    tab.emit();
}

// ---------------------------------------------------------------------
// E8 — Figure 8: real (threaded) deployment
// ---------------------------------------------------------------------

pub fn fig8() {
    let node_counts = [2usize, 4, 8, 16, 32, 64];
    let mut tab = ResultTable::new("fig8_deployment", &["nodes", "t_30th_ms", "results"]);
    for &n in &node_counts {
        let cluster = stabilized_pier_cluster(n, DhtConfig::static_network(), 77);
        let (t30, count) = deployed_join_run(cluster, Dur::from_millis(50));
        tab.row(vec![
            n.to_string(),
            t30.map_or("-".into(), |ms| format!("{ms:.1}")),
            count.to_string(),
        ]);
    }
    tab.emit();
}

/// One run of the workload join on any backend, load scaled with its
/// node count, driven by typed requests; `tick` is the backend's time
/// scale (see [`run_query_by_request`]). Returns (ms to the 30th tuple
/// on the backend's own clock, result count).
pub fn deployed_join_run(mut net: impl Deployment<PierNode>, tick: Dur) -> (Option<f64>, usize) {
    let n = net.node_count();
    let params = params_for_nodes(n.max(64), 5);
    let wl = RsWorkload::generate(RsParams {
        s_rows: ((n as u64) * 4).max(40),
        ..params
    });
    // Publish each partition from its home node.
    publish_by_request(&mut net, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_by_request(&mut net, "S", &wl.s, 0, Dur::from_secs(100_000));
    net.settle(tick.saturating_mul(8));
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let results = run_query_by_request(&mut net, 0, desc, tick);
    let t30 = time_to_kth(&results, 30).map(|t| t.as_secs_f64() * 1e3);
    (t30, results.len())
}

// ---------------------------------------------------------------------
// E9 — multi-way join pipelines (§7 "richer queries", built)
// ---------------------------------------------------------------------

/// Binary workload join vs the 3-way pipeline extension across network
/// sizes: time-to-last, aggregate query traffic, and recall. The
/// pipeline pays one extra rehash per added table but stays fully
/// pipelined, so its latency grows by roughly one stage depth, not
/// multiplicatively.
pub fn multiway() {
    let node_counts: Vec<usize> = if full_scale() {
        vec![16, 64, 256, 1024]
    } else {
        vec![8, 16, 32]
    };
    let mut tab = ResultTable::new(
        "multiway_pipeline",
        &[
            "nodes",
            "2way_t_last_s",
            "3way_t_last_s",
            "2way_traffic_mb",
            "3way_traffic_mb",
            "3way_recall",
        ],
    );
    for &n in &node_counts {
        let cfg = |seed| {
            let mut params = params_for_nodes(n, seed);
            params.t_rows = 80;
            let mut run = JoinRun::new(
                n,
                JoinStrategy::SymmetricHash,
                params,
                NetConfig::paper_baseline(seed),
            );
            run.settle = Dur::from_secs(600);
            run
        };
        let two: Vec<RunMetrics> = seeds().iter().map(|&s| run_join(&cfg(s))).collect();
        let three: Vec<RunMetrics> = seeds().iter().map(|&s| run_multi_join(&cfg(s))).collect();
        let avg = |v: &[RunMetrics], pick: &dyn Fn(&RunMetrics) -> f64| {
            let vals: Vec<f64> = v.iter().map(pick).filter(|x| x.is_finite()).collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        tab.row(vec![
            n.to_string(),
            ResultTable::fmt_cell(avg(&two, &|m| m.t_last)),
            ResultTable::fmt_cell(avg(&three, &|m| m.t_last)),
            ResultTable::fmt_cell(avg(&two, &|m| m.traffic_mb)),
            ResultTable::fmt_cell(avg(&three, &|m| m.traffic_mb)),
            ResultTable::fmt_cell(avg(&three, &|m| m.recall)),
        ]);
    }
    tab.emit();
}

// ---------------------------------------------------------------------
// E9 — schema-aware projection pushdown (the §4.2 byte argument)
// ---------------------------------------------------------------------

/// The 3-way padded workload (`R` carries a 1 KB pad nobody downstream
/// reads) with schema-aware pruning on vs off: aggregate rehash traffic
/// must collapse once intermediates stop carrying the pad. Besides the
/// CSV table, writes machine-readable `results/BENCH_pruning.json` (the
/// repo's perf-trajectory artifact) and hard-asserts the win, so CI
/// fails if the optimization silently regresses.
///
/// `PIER_PRUNE=on|off|both` (default `both`) selects which runs happen;
/// the assertion only fires when both sides are measured.
pub fn pruning() {
    let mode = std::env::var("PIER_PRUNE").unwrap_or_else(|_| "both".into());
    let node_counts: Vec<usize> = if full_scale() {
        vec![16, 64, 256]
    } else {
        vec![8, 16]
    };
    let mut tab = ResultTable::new(
        "e9_pruning",
        &[
            "nodes",
            "pruned_rehash_mb",
            "unpruned_rehash_mb",
            "ratio",
            "pruned_recall",
            "unpruned_recall",
        ],
    );
    let mut json_rows = Vec::new();
    for &n in &node_counts {
        let cfg = |seed| {
            let mut params = params_for_nodes(n, seed);
            params.t_rows = 80;
            let mut run = JoinRun::new(
                n,
                JoinStrategy::SymmetricHash,
                params,
                NetConfig::paper_baseline(seed),
            );
            run.settle = Dur::from_secs(600);
            run
        };
        let measure = |prune: bool| -> Option<Vec<RunMetrics>> {
            let want = mode == "both" || mode == if prune { "on" } else { "off" };
            want.then(|| {
                seeds()
                    .iter()
                    .map(|&s| run_multi_join_pruning(&cfg(s), prune))
                    .collect()
            })
        };
        let pruned = measure(true);
        let unpruned = measure(false);
        let avg = |v: &Option<Vec<RunMetrics>>, pick: &dyn Fn(&RunMetrics) -> f64| {
            v.as_ref().map_or(f64::NAN, |v| {
                v.iter().map(pick).sum::<f64>() / v.len() as f64
            })
        };
        let p_mb = avg(&pruned, &|m| m.rehash_mb);
        let u_mb = avg(&unpruned, &|m| m.rehash_mb);
        let p_rec = avg(&pruned, &|m| m.recall);
        let u_rec = avg(&unpruned, &|m| m.recall);
        let ratio = u_mb / p_mb;
        tab.row(vec![
            n.to_string(),
            ResultTable::fmt_cell(p_mb),
            ResultTable::fmt_cell(u_mb),
            ResultTable::fmt_cell(ratio),
            ResultTable::fmt_cell(p_rec),
            ResultTable::fmt_cell(u_rec),
        ]);
        json_rows.push(format!(
            "    {{\"nodes\": {n}, \"pruned_rehash_mb\": {p_mb:.4}, \
             \"unpruned_rehash_mb\": {u_mb:.4}, \"ratio\": {ratio:.2}, \
             \"pruned_recall\": {p_rec:.4}, \"unpruned_recall\": {u_rec:.4}}}"
        ));
        if let (Some(_), Some(_)) = (&pruned, &unpruned) {
            assert!(
                (p_rec - 1.0).abs() < 1e-9 && (u_rec - 1.0).abs() < 1e-9,
                "pruning must not change results: recall {p_rec} / {u_rec}"
            );
            assert!(
                p_mb < u_mb,
                "pruned rehash traffic ({p_mb:.3} MB) must beat unpruned ({u_mb:.3} MB)"
            );
        }
    }
    tab.emit();
    if mode != "both" {
        // A single-side run has NaN for the unmeasured side; don't
        // clobber the committed artifact with invalid JSON.
        println!("PIER_PRUNE={mode}: BENCH_pruning.json not rewritten (needs both sides)");
        return;
    }
    let json = format!(
        "{{\n  \"experiment\": \"pruning\",\n  \"query\": \
         \"SELECT R.pkey, S.pkey, T.pkey FROM R, S, T (R carries a 1 KB pad)\",\n  \
         \"metric\": \"aggregate DHT-layer rehash traffic, MB\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    std::fs::write(dir.join("BENCH_pruning.json"), json).expect("write BENCH_pruning.json");
}

// ---------------------------------------------------------------------
// E10 — continuous-query soft-state lifecycle (standing triage query)
// ---------------------------------------------------------------------

/// The §2.1 intrusion triage run as a *standing* 3-way join-aggregate:
/// reports trickle in every epoch while the query re-emits per-attacker
/// `count(*)` / `max(severity)` groups, for ≥ 3× the 600 s horizon of
/// unrenewed rehash state. The query's own `RENEW` period keeps
/// advisory/reputation join state alive, so per-epoch recall and
/// precision stay 1.0 against `reference_epochs` — hard-asserted (CI
/// gate; unrenewed, rehashed state ages out and late reports lose
/// their joins). Prints
/// recall and DHT traffic per epoch and writes
/// `results/BENCH_continuous.json`.
pub fn continuous() {
    use pier_core::semantics::{precision, recall, reference_epochs, TimedRows};
    use pier_core::sql::parse_continuous_query;
    use pier_core::Catalog;
    use std::collections::HashMap;

    let n = 16usize;
    let epoch = Dur::from_secs(120);
    // 16 epochs × 120 s = 1920 s ≈ 3.2 × the unrenewed 600 s horizon.
    let n_epochs: usize = if full_scale() { 24 } else { 16 };
    let legacy_horizon_s = 600.0;
    let per_batch = 24usize;
    let distinct_fp = 10u64;
    let distinct_addr = 20u64;
    let seed = 4242u64;

    let catalog = Catalog::intrusion();
    // The query renews its own rehash state; its horizon derives from
    // the period (3 × 150 s = 450 s ≪ the run length).
    let sql = intrusion::triage_standing_sql(None, epoch.as_micros() / 1_000_000);
    let desc = parse_continuous_query(
        &format!("{sql} RENEW 150 SECONDS"),
        &catalog,
        JoinStrategy::SymmetricHash,
        1010,
        0,
    )
    .expect("standing triage SQL");
    let op = desc.op.clone();

    let mut sim: Sim<PierNode> = stabilized_pier_sim(
        n,
        DhtConfig::static_network(),
        NetConfig::latency_only(seed),
    );
    let advisories = intrusion::advisories(distinct_fp, seed);
    let reputation = intrusion::reputations(distinct_addr, seed);
    let batch0 = intrusion::intrusions_from(0, per_batch, distinct_fp, distinct_addr, seed);
    let life = Dur::from_secs(100_000);
    publish_round_robin(&mut sim, "advisories", &advisories, 0, life);
    publish_round_robin(&mut sim, "reputation", &reputation, 0, life);
    publish_round_robin(&mut sim, "intrusions", &batch0, 0, life);
    settle_publish(&mut sim);

    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    let mut timed_reports: TimedRows = batch0.iter().map(|r| (Time::ZERO, r.clone())).collect();
    // Per-epoch traffic: bytes delivered between consecutive boundaries,
    // read from the metrics-registry snapshot (the operator-facing
    // surface) instead of a private engine tally — the parity assert
    // below pins that the two can never drift apart.
    let mut boundary_bytes = vec![metrics_snapshot(&sim).net.bytes];
    for k in 1..=n_epochs {
        sim.run_until(t0 + epoch.saturating_mul(k as u64));
        boundary_bytes.push(metrics_snapshot(&sim).net.bytes);
        if k < n_epochs {
            // A fresh report batch lands shortly after each boundary —
            // the late ones long after unrenewed state would be gone.
            sim.run_for(Dur::from_secs(10));
            let batch = intrusion::intrusions_from(
                (k * per_batch) as i64,
                per_batch,
                distinct_fp,
                distinct_addr,
                seed ^ k as u64,
            );
            publish_round_robin(&mut sim, "intrusions", &batch, 0, life);
            let at = sim.now().since(t0);
            timed_reports.extend(batch.iter().map(|r| (Time::ZERO + at, r.clone())));
        }
    }

    // The snapshot's net section is the engine's ground truth,
    // byte-for-byte — the bench numbers above ARE the observable ones.
    let snap = metrics_snapshot(&sim);
    assert_eq!(snap.net, sim.net_stats(), "metrics snapshot == NetStats");
    assert_eq!(net_stats_json(&snap.net), net_stats_json(&sim.net_stats()));

    let mut timed: HashMap<String, TimedRows> = HashMap::new();
    timed.insert("intrusions".to_string(), timed_reports);
    for (name, rows) in [("advisories", &advisories), ("reputation", &reputation)] {
        timed.insert(
            name.to_string(),
            rows.iter().map(|r| (Time::ZERO, r.clone())).collect(),
        );
    }
    let expected = reference_epochs(&op, &timed, None, epoch, n_epochs);

    let mut got: Vec<Vec<pier_core::Tuple>> = vec![Vec::new(); n_epochs];
    for (at, row) in sim.app(0).unwrap().query_results(1010) {
        let k = (at.since(t0).as_micros() / epoch.as_micros()) as usize;
        if k < n_epochs {
            got[k].push(row.clone());
        }
    }

    let mut tab = ResultTable::new(
        "e10_continuous",
        &["epoch", "t_s", "groups", "recall", "precision", "epoch_mb"],
    );
    let mut json_rows = Vec::new();
    let mut min_recall = f64::INFINITY;
    let mut min_precision = f64::INFINITY;
    for k in 0..n_epochs {
        let r = recall(&expected[k], &got[k]);
        let p = precision(&expected[k], &got[k]);
        min_recall = min_recall.min(r);
        min_precision = min_precision.min(p);
        let mb = (boundary_bytes[k + 1] - boundary_bytes[k]) as f64 / 1e6;
        let t_s = epoch.as_secs_f64() * k as f64;
        tab.row(vec![
            k.to_string(),
            format!("{t_s:.0}"),
            expected[k].len().to_string(),
            ResultTable::fmt_cell(r),
            ResultTable::fmt_cell(p),
            ResultTable::fmt_cell(mb),
        ]);
        json_rows.push(format!(
            "    {{\"epoch\": {k}, \"t_s\": {t_s:.0}, \"groups\": {}, \
             \"recall\": {r:.4}, \"precision\": {p:.4}, \"epoch_mb\": {mb:.4}}}",
            expected[k].len()
        ));
        assert!(!expected[k].is_empty(), "oracle epoch {k} must have groups");
    }
    tab.emit();

    let run_s = epoch.as_secs_f64() * n_epochs as f64;
    assert!(
        run_s >= 3.0 * legacy_horizon_s,
        "the run must cover ≥ 3 legacy horizons ({run_s} s)"
    );
    assert!(
        (min_recall - 1.0).abs() < 1e-9 && (min_precision - 1.0).abs() < 1e-9,
        "a standing query must keep recall/precision 1.0 across every epoch \
         (got min recall {min_recall}, min precision {min_precision})"
    );

    let json = format!(
        "{{\n  \"experiment\": \"continuous\",\n  \"query\": \
         \"standing 3-way intrusion triage: count(*), max(severity) per attacker, EPOCH 120 s\",\n  \
         \"run_s\": {run_s:.0},\n  \"legacy_horizon_s\": {legacy_horizon_s:.0},\n  \
         \"metric\": \"per-epoch recall/precision vs reference_epochs; DHT traffic per epoch, MB\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    std::fs::write(dir.join("BENCH_continuous.json"), json).expect("write BENCH_continuous.json");
}

// ---------------------------------------------------------------------
// E11 — multi-tenant standing-query lifecycle (install → epochs → uninstall)
// ---------------------------------------------------------------------

/// The "millions of users" scale path, miniaturized *and governed*:
/// hundreds of staggered standing queries — flat per-fingerprint
/// aggregates plus 2-way and 3-way join aggregates carrying per-query
/// `RENEW` periods — are installed in waves, live for 3–5 epochs while
/// reports stream in, and are uninstalled again, continuously, over a
/// shared 12-node DHT with *no* node-global renewal loop. Every tenant
/// carries a [`Quota`] priced by the PR 3 cost model and installs
/// through the typed admission surface ([`PierNode::try_submit`]).
/// Hard-asserts (CI gate):
///
/// * ≥ 500 quota-governed tenants, per-epoch recall and precision 1.0
///   for every tenant while it is live (oracle:
///   [`pier_core::semantics::reference_epochs_at`] restricted to each
///   query's own install→uninstall span);
/// * a greedy tenant whose budget undercuts its query's price is
///   refused with a typed [`AdmissionError::PricedTraffic`] — no
///   multicast, no partial install;
/// * a hot tenant flooding a noise table mid-run has the overflow shed
///   at ingress by its token bucket ([`PierNode::publish_rows_from`])
///   with co-tenant recall untouched — slow-tenant isolation;
/// * zero residual soft state in every tenant's `qns::*` namespaces one
///   lifetime after its uninstall (per-namespace storage audit) — the
///   §3.3 reclamation-by-expiry answer to distributed garbage
///   collection, now driven by explicit teardown;
/// * the final [`pier_core::MetricsSnapshot`] matches the engine's
///   [`pier_simnet::NetStats`] byte-for-byte
///   ([`net_stats_json`]) and its governance counters match the
///   harness-observed rejection/shed tallies exactly.
///
/// Writes `results/BENCH_multitenant.json` (headlines: `min_recall`,
/// `fairness_min_recall`, `traffic_mb`) for the bench-trajectory gate.
pub fn multitenant() {
    use pier_core::semantics::{precision, recall, reference_epochs_at, TimedRows};
    use pier_core::sql::parse_continuous_query;
    use pier_core::Catalog;
    use std::collections::HashMap;

    let n = 12usize;
    let epoch = Dur::from_secs(30);
    let per_wave = 12usize;
    let n_tenants: usize = if full_scale() { 1000 } else { 516 };
    let distinct_fp = 10u64;
    let distinct_addr = 16u64;
    let renew_secs = 40u64; // per-query horizon: 3 × 40 = 120 s
    let reclaim = Dur::from_secs(130); // one horizon + sweep margin
    let rows_per_batch = 16usize;
    let seed = 7171u64;

    let catalog = Catalog::intrusion();
    let strategy = JoinStrategy::SymmetricHash;
    // Tenant i: fingerprint i % distinct_fp; one in twenty runs the full
    // 3-way triage, two in twenty the 2-way severity join (both with
    // per-query renewal), the rest the flat per-address count.
    let class_of = |i: usize| match i % 20 {
        0 => "3way",
        1 | 2 => "2way",
        _ => "flat",
    };
    let sql_of = |i: usize| {
        let fp = i as u64 % distinct_fp;
        match class_of(i) {
            "3way" => intrusion::tenant_triage_sql(fp, 30, renew_secs),
            "2way" => intrusion::tenant_severity_sql(fp, 30, renew_secs),
            _ => intrusion::tenant_count_sql(fp, 30),
        }
    };
    let qid_of = |i: usize| 5000 + i as u64;
    // Lifetimes: 3, 4, or 5 epochs, staggered across install waves.
    let epochs_of = |i: usize| 3 + (i % 3);

    let mut sim: Sim<PierNode> = stabilized_pier_sim(
        n,
        DhtConfig::static_network(),
        NetConfig::latency_only(seed),
    );
    let life = Dur::from_secs(100_000);
    let advisories = intrusion::advisories(distinct_fp, seed);
    let reputation = intrusion::reputations(distinct_addr, seed);
    let batch0 = intrusion::intrusions_from(0, rows_per_batch, distinct_fp, distinct_addr, seed);
    publish_round_robin(&mut sim, "advisories", &advisories, 0, life);
    publish_round_robin(&mut sim, "reputation", &reputation, 0, life);
    publish_round_robin(&mut sim, "intrusions", &batch0, 0, life);
    settle_publish(&mut sim);

    // ---- governance setup -------------------------------------------
    // Tenant ids are 1-based (tenant 0 is the unmetered default the
    // harness publishes under). Every node gets the same table-rate
    // catalog and quota book, so the install multicast converges on the
    // same admission verdict overlay-wide.
    let tenant_of = |i: usize| (i + 1) as u32;
    let greedy_tenant = (n_tenants + 1) as u32;
    let flood_tenant = (n_tenants + 2) as u32;
    let avg_bytes =
        |rows: &[Tuple]| rows.iter().map(|r| r.wire_size() as f64).sum::<f64>() / rows.len() as f64;
    let table_rates = [
        // The stream: one batch per epoch.
        (
            "intrusions",
            TableRate {
                rows_per_sec: rows_per_batch as f64 / epoch.as_secs_f64(),
                avg_tuple_bytes: avg_bytes(&batch0),
            },
        ),
        // Static side tables: published once, renewed never.
        (
            "advisories",
            TableRate {
                rows_per_sec: 0.05,
                avg_tuple_bytes: avg_bytes(&advisories),
            },
        ),
        (
            "reputation",
            TableRate {
                rows_per_sec: 0.05,
                avg_tuple_bytes: avg_bytes(&reputation),
            },
        ),
    ];
    for id in 0..n as NodeId {
        sim.with_app(id, |node, _| {
            for (table, rate) in table_rates {
                node.governor.set_table_rate(pier_dht::ns_of(table), rate);
            }
        });
    }
    // Price each class once (fingerprint choice does not move the
    // price — the cost model sees the same shape and rates) and give
    // every tenant ~30% headroom over its own class's price.
    let price_of = |sim: &Sim<PierNode>, i: usize| {
        let desc = parse_continuous_query(&sql_of(i), &catalog, strategy, 4000, 0).unwrap();
        sim.app(0).unwrap().governor.price(&desc)
    };
    let class_price = [price_of(&sim, 0), price_of(&sim, 1), price_of(&sim, 3)];
    assert!(
        class_price.iter().all(|p| *p > 0.0),
        "every query class must price > 0 B/s (got {class_price:?})"
    );
    let price_by_class = |i: usize| match class_of(i) {
        "3way" => class_price[0],
        "2way" => class_price[1],
        _ => class_price[2],
    };
    for id in 0..n as NodeId {
        sim.with_app(id, |node, _| {
            for i in 0..n_tenants {
                node.governor.set_quota(
                    tenant_of(i),
                    Quota {
                        max_standing: 2,
                        max_priced_bytes_per_sec: price_by_class(i) * 1.3,
                        ..Quota::unlimited()
                    },
                );
            }
            // The greedy tenant's budget undercuts the cheapest class.
            node.governor.set_quota(
                greedy_tenant,
                Quota {
                    max_priced_bytes_per_sec: class_price[2] * 0.5,
                    ..Quota::unlimited()
                },
            );
            // The flood tenant may publish 200 B/s sustained, 2 KB burst.
            node.governor.set_quota(
                flood_tenant,
                Quota {
                    publish_bytes_per_sec: 200.0,
                    publish_burst_bytes: 2_000.0,
                    ..Quota::unlimited()
                },
            );
        });
    }
    // Admission control refuses the greedy tenant up front: typed
    // rejection, nothing multicast, nothing installed anywhere.
    let greedy_desc = parse_continuous_query(&sql_of(3), &catalog, strategy, 4999, 0)
        .unwrap()
        .with_tenant(greedy_tenant);
    let verdict = sim
        .with_app(0, |node, ctx| node.try_submit(ctx, greedy_desc))
        .unwrap();
    match verdict {
        Err(AdmissionError::PricedTraffic { tenant, .. }) => assert_eq!(tenant, greedy_tenant),
        other => panic!("greedy tenant must be refused on price, got {other:?}"),
    }

    let t0 = sim.now();
    let bytes0 = metrics_snapshot(&sim).net.bytes;

    // Timeline: tenant i installs at wave i / per_wave (every 30 s, on
    // the epoch grid so its flush instants stay ≥ 5 s clear of the
    // publish instants at +10), is uninstalled 10 s past its last
    // epoch boundary, and is audited one reclamation horizon later.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Publish,
        Uninstall(usize),
        Install(usize),
        Audit(usize),
        Flood,
    }
    let install_at = |i: usize| t0 + epoch.saturating_mul((i / per_wave) as u64);
    let uninstall_at =
        |i: usize| install_at(i) + epoch.saturating_mul(epochs_of(i) as u64) + Dur::from_secs(10);
    let mut events: Vec<(Time, Ev)> = (0..n_tenants)
        .flat_map(|i| {
            [
                (install_at(i), Ev::Install(i)),
                (uninstall_at(i), Ev::Uninstall(i)),
                (uninstall_at(i) + reclaim, Ev::Audit(i)),
            ]
        })
        .collect();
    let last_wave = (n_tenants - 1) / per_wave;
    for k in 0..last_wave + 6 {
        events.push((
            t0 + epoch.saturating_mul(k as u64) + Dur::from_secs(10),
            Ev::Publish,
        ));
    }
    // The hot-tenant flood lands mid-run, clear of both the epoch grid
    // and the publish instants.
    events.push((t0 + epoch.saturating_mul(2) + Dur::from_secs(18), Ev::Flood));
    events.sort();

    let mut timed_reports: TimedRows = batch0.iter().map(|r| (Time::ZERO, r.clone())).collect();
    let mut next_batch = 1usize;
    let mut peak_installed = 0usize;
    let mut audited = 0usize;
    let mut flood_report = PublishReport::default();
    for (at, ev) in events {
        sim.run_until(at);
        match ev {
            Ev::Install(i) => {
                let desc = parse_continuous_query(&sql_of(i), &catalog, strategy, qid_of(i), 0)
                    .expect("tenant SQL")
                    .with_tenant(tenant_of(i));
                let priced = sim
                    .with_app(0, |node, ctx| node.try_submit(ctx, desc))
                    .unwrap()
                    .unwrap_or_else(|e| panic!("tenant {i} ({}) refused: {e}", class_of(i)));
                assert!(priced > 0.0);
                peak_installed =
                    peak_installed.max(sim.app(0).map_or(0, |nd| nd.installed_query_count()) + 1);
            }
            Ev::Flood => {
                // 600 rows against a 2 KB burst + 200 B/s refill: the
                // token bucket admits a sliver and sheds the rest at
                // ingress — nothing shed ever reaches the wire. The
                // noise table is outside every oracle, and its 60 s
                // lifetime expires the admitted sliver long before the
                // final occupancy audit.
                let rows: Vec<Tuple> = (0..600)
                    .map(|j| Tuple::new(vec![Value::I64(j), Value::I64(j * 7)]))
                    .collect();
                flood_report = sim
                    .with_app(0, |node, ctx| {
                        node.publish_rows_from(
                            ctx,
                            flood_tenant,
                            "floodnoise",
                            rows,
                            0,
                            Dur::from_secs(60),
                        )
                    })
                    .unwrap();
                assert!(
                    flood_report.accepted > 0 && flood_report.shed > 400,
                    "the flood must be clipped at ingress, not admitted \
                     ({flood_report:?})"
                );
            }
            Ev::Publish => {
                let batch = intrusion::intrusions_from(
                    (next_batch * rows_per_batch) as i64,
                    rows_per_batch,
                    distinct_fp,
                    distinct_addr,
                    seed ^ next_batch as u64,
                );
                next_batch += 1;
                publish_round_robin(&mut sim, "intrusions", &batch, 0, life);
                let rel = sim.now().since(t0);
                timed_reports.extend(batch.iter().map(|r| (Time::ZERO + rel, r.clone())));
            }
            Ev::Uninstall(i) => {
                let qid = qid_of(i);
                sim.with_app(0, |node, ctx| node.cancel(ctx, qid));
            }
            Ev::Audit(i) => {
                // Per-namespace storage audit one lifetime after the
                // uninstall: the tenant must have left nothing behind.
                let now = sim.now();
                let left: usize = (0..n as NodeId)
                    .filter_map(|id| sim.app(id))
                    .map(|node| node.query_soft_state(now, qid_of(i), 2))
                    .sum();
                audited += 1;
                assert_eq!(
                    left,
                    0,
                    "tenant {i} ({}) left {left} soft-state items one lifetime after uninstall",
                    class_of(i)
                );
            }
        }
    }
    assert_eq!(audited, n_tenants);
    // Whole-system occupancy audit: with every tenant audited, the only
    // namespaces still holding live items anywhere are the three base
    // tables — no query left soft state in *any* namespace, known or
    // not (stronger than the per-tenant qns::* checks above).
    let base_ns: Vec<pier_dht::Ns> = ["intrusions", "advisories", "reputation"]
        .iter()
        .map(|t| pier_dht::ns_of(t))
        .collect();
    let end = sim.now();
    for id in 0..n as NodeId {
        for (ns, count) in sim.app(id).unwrap().dht.store.occupancy(end) {
            assert!(
                base_ns.contains(&ns),
                "node {id}: namespace {ns:#x} still holds {count} live items after all uninstalls"
            );
        }
    }
    // Read traffic through the metrics registry, not the engine: the
    // snapshot's net section must BE the engine's ground truth —
    // typed and byte-for-byte through the canonical JSON rendering.
    let snap = metrics_snapshot(&sim);
    assert_eq!(snap.net, sim.net_stats(), "metrics snapshot == NetStats");
    assert_eq!(
        net_stats_json(&snap.net),
        net_stats_json(&sim.net_stats()),
        "canonical JSON renders identically for snapshot and engine"
    );
    // Governance counters line up with what the harness saw happen:
    // exactly one refused install (the greedy tenant, on node 0) and
    // exactly the flood's shed rows.
    assert_eq!(snap.rejected_installs(), 1, "one greedy rejection");
    assert_eq!(snap.shed_publishes(), flood_report.shed as u64);
    let traffic_mb = (snap.net.bytes - bytes0) as f64 / 1e6;
    let run_s = sim.now().since(t0).as_secs_f64();

    // Ground truth per tenant, restricted to its live span: epochs are
    // relative to its own install; rows that predate it count from its
    // epoch 0.
    let mut timed: HashMap<String, TimedRows> = HashMap::new();
    timed.insert("intrusions".to_string(), timed_reports);
    for (name, rows) in [("advisories", &advisories), ("reputation", &reputation)] {
        timed.insert(
            name.to_string(),
            rows.iter().map(|r| (Time::ZERO, r.clone())).collect(),
        );
    }
    let mut per_class: HashMap<&str, (usize, f64, f64)> = HashMap::new();
    let mut nonempty = 0usize;
    let mut tenant_epochs = 0usize;
    for i in 0..n_tenants {
        let desc = parse_continuous_query(&sql_of(i), &catalog, strategy, qid_of(i), 0).unwrap();
        let install = install_at(i);
        let rel_tables: HashMap<String, TimedRows> = timed
            .iter()
            .map(|(name, rows)| {
                let shifted: TimedRows = rows
                    .iter()
                    .map(|(t, r)| {
                        (
                            Time::ZERO + t.since(Time::ZERO + install.since(t0)),
                            r.clone(),
                        )
                    })
                    .collect();
                (name.clone(), shifted)
            })
            .collect();
        let k = epochs_of(i);
        let instants: Vec<Time> = (0..k)
            .map(|e| Time::ZERO + epoch.saturating_mul(e as u64))
            .collect();
        let expected = reference_epochs_at(&desc.op, &rel_tables, None, &instants);
        let mut got: Vec<Vec<pier_core::Tuple>> = vec![Vec::new(); k];
        for (t, row) in sim.app(0).unwrap().query_results(qid_of(i)) {
            let e = (t.since(install).as_micros() / epoch.as_micros()) as usize;
            if *t >= install && e < k {
                got[e].push(row.clone());
            }
        }
        let entry = per_class
            .entry(class_of(i))
            .or_insert((0, f64::INFINITY, f64::INFINITY));
        entry.0 += 1;
        for e in 0..k {
            let r = recall(&expected[e], &got[e]);
            let p = precision(&expected[e], &got[e]);
            entry.1 = entry.1.min(r);
            entry.2 = entry.2.min(p);
            tenant_epochs += 1;
            if !expected[e].is_empty() {
                nonempty += 1;
            }
            assert!(
                (r - 1.0).abs() < 1e-9 && (p - 1.0).abs() < 1e-9,
                "tenant {i} ({}) epoch {e}: recall {r} precision {p}, \
                 expected {:?} got {:?}",
                class_of(i),
                expected[e],
                got[e]
            );
        }
    }
    assert!(n_tenants >= 500, "the scale path needs ≥ 500 tenants");
    assert!(
        nonempty * 10 >= tenant_epochs * 3,
        "the workload must keep most tenants busy ({nonempty}/{tenant_epochs} non-empty)"
    );

    let mut tab = ResultTable::new(
        "e11_multitenant",
        &["class", "tenants", "min_recall", "min_precision"],
    );
    let mut json_rows = Vec::new();
    let mut min_recall = f64::INFINITY;
    let mut min_precision = f64::INFINITY;
    for class in ["flat", "2way", "3way"] {
        let (count, r, p) = per_class[class];
        min_recall = min_recall.min(r);
        min_precision = min_precision.min(p);
        tab.row(vec![
            class.into(),
            count.to_string(),
            ResultTable::fmt_cell(r),
            ResultTable::fmt_cell(p),
        ]);
        json_rows.push(format!(
            "    {{\"class\": \"{class}\", \"tenants\": {count}, \
             \"min_recall\": {r:.4}, \"min_precision\": {p:.4}}}"
        ));
    }
    tab.emit();
    println!(
        "multitenant: {n_tenants} quota-governed tenants over {run_s:.0} s, \
         peak {peak_installed} concurrent, {traffic_mb:.2} MB, \
         1 rejected install, {} shed publishes",
        flood_report.shed
    );

    let json = format!(
        "{{\n  \"experiment\": \"multitenant\",\n  \"workload\": \
         \"{n_tenants} staggered quota-governed standing queries \
         (flat / 2-way / 3-way, per-query RENEW) over {n} nodes, EPOCH 30 s\",\n  \
         \"run_s\": {run_s:.0},\n  \"peak_concurrent\": {peak_installed},\n  \
         \"traffic_mb\": {traffic_mb:.4},\n  \
         \"fairness_min_recall\": {min_recall:.4},\n  \
         \"rejected_installs\": {},\n  \"shed_publishes\": {},\n  \
         \"metric\": \"per-tenant per-epoch recall/precision over each live span; \
         typed admission rejection; token-bucket shed flood; \
         zero residual soft state one lifetime after uninstall\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        snap.rejected_installs(),
        flood_report.shed,
        json_rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    std::fs::write(dir.join("BENCH_multitenant.json"), json).expect("write BENCH_multitenant.json");
}

// ---------------------------------------------------------------------
// E12 — churn SLO: scan recall under scripted kills, k = 1 vs k ≥ 2
// ---------------------------------------------------------------------

/// One churn tier at one replication factor: a seeded [`FaultScript`]
/// kills nodes of a 48-node CAN holding 192 once-published items (long
/// lifetime, *no* renewal loop — replication is the only durability
/// channel), with a one-shot scan issued between kill slots and after
/// the final repair. Scans are scheduled clear of the detection blind
/// window (a dead-but-undetected node's zone is dark to `lscan` until
/// takeover promotes the replicas), so what they measure is durability,
/// not detection latency. Returns the worst-case scan recall against
/// the full published set and the total duplicate rows across scans.
fn churn_slo_run(k: usize, kills: usize, seed: u64) -> (f64, usize) {
    const N: usize = 48;
    const ITEMS_PER_NODE: usize = 4;
    let slot = Dur::from_secs(24);
    let span = slot.saturating_mul(kills as u64 + 1);
    let cfg = DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_replication(k);
    let mut sim = stabilized_pier_sim(N, cfg, NetConfig::latency_only(seed));

    let mut truth: std::collections::HashSet<i64> = std::collections::HashSet::new();
    for i in 0..N {
        let rows: Vec<pier_core::Tuple> = (0..ITEMS_PER_NODE)
            .map(|j| {
                let pk = (i * 1_000_000 + j) as i64;
                pier_core::tuple::Tuple::new(vec![pier_core::Value::I64(pk)])
            })
            .collect();
        truth.extend(rows.iter().filter_map(|t| t.get(0).as_i64()));
        sim.with_app(i as NodeId, |node, ctx| {
            node.publish_rows(ctx, "T", rows, 0, Dur::from_secs(3600));
        });
    }
    settle_publish(&mut sim);

    // Kills are centered at slot·(i+1) with ±slot/5 jitter; scans run
    // 10 s before each center (≥ 9 s after the latest possible previous
    // kill — past detection + takeover + anti-entropy — and complete
    // ≥ 1 s before the earliest possible next kill), plus a final scan
    // after the last repair has settled.
    let candidates: Vec<NodeId> = (1..N as NodeId).collect();
    let script = FaultScript::churn(seed, span, kills, &candidates);
    let mut drv = FaultDriver::new(script);
    let mut scan_at: Vec<Dur> = (0..kills as u64)
        .map(|i| slot.saturating_mul(i + 1) - Dur::from_secs(10))
        .collect();
    scan_at.push(span + Dur::from_secs(6));

    let t0 = sim.now();
    let mut qid = 5000u64;
    let mut worst_recall = f64::INFINITY;
    let mut duplicates = 0usize;
    let mut scans = scan_at.into_iter().peekable();
    loop {
        let target = match (drv.next_at(), scans.peek().copied()) {
            (Some(f), Some(s)) => f.min(s),
            (Some(f), None) => f,
            (None, Some(s)) => s,
            (None, None) => break,
        };
        sim.run_until(t0 + target);
        let elapsed = sim.now().since(t0);
        drv.advance(elapsed, |f| {
            sim.apply(f, |_| unreachable!("kill-only script"))
        });
        if scans.peek().is_some_and(|&s| elapsed >= s) {
            scans.next();
            qid += 1;
            let scan = ScanSpec::new("T", 1, 0);
            let desc = QueryDesc::one_shot(
                qid,
                0,
                QueryOp::Scan {
                    scan,
                    project: vec![Expr::col(0)],
                },
            );
            sim.with_app(0, |node, ctx| node.submit(ctx, desc));
            sim.run_for(Dur::from_secs(4));
            let got: Vec<i64> = sim
                .app(0)
                .unwrap()
                .query_results(qid)
                .iter()
                .filter_map(|(_, t)| t.get(0).as_i64())
                .collect();
            let distinct: std::collections::HashSet<i64> = got.iter().copied().collect();
            duplicates += got.len() - distinct.len();
            let hits = distinct.iter().filter(|pk| truth.contains(pk)).count();
            worst_recall = worst_recall.min(hits as f64 / truth.len() as f64);
        }
    }
    (worst_recall, duplicates)
}

/// E12 — the recall-vs-churn SLO (§5.9 resilience, replicated): three
/// churn tiers × k ∈ {1, 2, 3} over the *same* seeded kill schedule per
/// tier, so the only variable across k is the replication factor. The
/// SLO this repo commits to (and the bench gate enforces): worst-case
/// scan recall ≥ 0.99 at k = 2 under the mid tier — where the k = 1
/// soft-state baseline measurably degrades — and zero duplicate scan
/// rows at every k.
pub fn churn_slo() {
    let tiers: &[(&str, usize, u64)] = &[("low", 2, 71), ("mid", 4, 72), ("high", 8, 73)];
    let mut tab = ResultTable::new(
        "e12_churn_slo",
        &["tier", "kills", "k", "min_recall", "duplicates"],
    );
    let mut json_rows = Vec::new();
    for &(tier, kills, seed) in tiers {
        for k in 1..=3usize {
            let (recall, dups) = churn_slo_run(k, kills, seed);
            assert_eq!(
                dups, 0,
                "{tier} tier, k={k}: scans must never return duplicate rows"
            );
            if tier == "mid" {
                if k == 1 {
                    assert!(
                        recall < 0.99,
                        "mid tier k=1 must degrade below the SLO (got {recall:.4}); \
                         if churn no longer bites, raise the tier"
                    );
                }
                if k == 2 {
                    assert!(
                        recall >= 0.99,
                        "mid tier k=2 must hold the 0.99 recall SLO (got {recall:.4})"
                    );
                }
            }
            tab.row(vec![
                tier.into(),
                kills.to_string(),
                k.to_string(),
                ResultTable::fmt_cell(recall),
                dups.to_string(),
            ]);
            // `slo_recall` appears only in k ≥ 2 rows: the gate's Min
            // fold then tracks exactly the replicated frontier, while
            // the k = 1 baseline stays visible under plain `recall`.
            let slo = if k >= 2 {
                format!(", \"slo_recall\": {recall:.4}")
            } else {
                String::new()
            };
            json_rows.push(format!(
                "    {{\"tier\": \"{tier}\", \"kills\": {kills}, \"k\": {k}, \
                 \"recall\": {recall:.4}{slo}, \"duplicates\": {dups}}}"
            ));
        }
    }
    tab.emit();

    let json = format!(
        "{{\n  \"experiment\": \"churn_slo\",\n  \"workload\": \
         \"48-node CAN, 192 once-published items (no renewals), seeded kill scripts \
         (2/4/8 kills) x replication k in 1..3; one-shot scans between kill slots\",\n  \
         \"metric\": \"worst-case scan recall vs all published items; duplicates across \
         all scans; SLO: recall >= 0.99 at k=2 under mid churn, 0 duplicates at every k\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    std::fs::write(dir.join("BENCH_churn_slo.json"), json).expect("write BENCH_churn_slo.json");
}

// ---------------------------------------------------------------------
// E13 — engine scale-up: the Fig. 3 ladder pushed to 10^4 nodes
// ---------------------------------------------------------------------

/// One scale-up measurement: build an `n`-node overlay, run one full
/// workload round (publish + settle + symmetric-hash join) and report
/// engine throughput as events processed per wall-clock second, with
/// recall against the reference evaluator as the correctness guard.
///
/// The workload is ~1 R tuple per node (with a floor), so the event
/// count grows roughly linearly with `n` and the 10^4 point stays a
/// smoke-sized run.
struct ScaleupRun {
    events: u64,
    wall: f64,
    rows: Vec<pier_core::Tuple>,
    recall: f64,
}

fn scaleup_drive(sim: &mut impl PierEngine, n: usize, seed: u64) -> ScaleupRun {
    let params = RsParams {
        s_rows: (n as u64 / 10).max(40),
        seed,
        ..Default::default()
    };
    let wl = RsWorkload::generate(params);

    let e0 = sim.events_processed();
    let t0 = std::time::Instant::now();
    publish_round_robin(sim, "R", &wl.r, 0, Dur::from_secs(100_000));
    publish_round_robin(sim, "S", &wl.s, 0, Dur::from_secs(100_000));
    settle_publish(sim);
    sim.run_for(Dur::from_secs(30));

    let expected = wl.expected(JoinStrategy::SymmetricHash);
    let mut desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    desc.n_nodes = n as u32;
    let results = run_query(sim, 0, desc, Dur::from_secs(120));
    let wall = t0.elapsed().as_secs_f64();
    let events = sim.events_processed() - e0;

    let rows = rows_of(&results);
    let recall = pier_core::semantics::recall(&expected, &rows);
    assert!(
        recall > 0.999,
        "scale-up at n={n} must stay correct (recall {recall:.4})"
    );
    ScaleupRun {
        events,
        wall,
        rows,
        recall,
    }
}

/// One ladder point on `w` cores, best-of-reps: the first run's
/// outcomes (every rep must repeat them), the rep count, and the
/// fastest wall time. Reps scale inversely with the per-rep event count.
fn scaleup_point(n: usize, seed: u64, w: usize) -> (ScaleupRun, u64, f64) {
    let run = || {
        let (dht, net) = (DhtConfig::static_network(), NetConfig::latency_only(seed));
        let mut sim = stabilized_pier_sharded(n, dht, net, ShardMap::round_robin(w));
        scaleup_drive(&mut sim, n, seed)
    };
    let first = run();
    let reps = (2_000_000 / first.events.max(1)).clamp(2, 64);
    let mut best = first.wall;
    for _ in 1..reps {
        let rerun = run();
        assert_eq!(
            (rerun.events, rerun.rows.len()),
            (first.events, first.rows.len()),
            "reps must be deterministic (n={n}, W={w})"
        );
        best = best.min(rerun.wall);
    }
    (first, reps, best)
}

/// E13: engine throughput across 10^2 → 10^4 nodes. The default preset
/// IS the committed preset — `bench_gate` compares the `events` and
/// `results` of every row exactly against the committed artifact, so
/// the ladder must match row-for-row between CI smoke and the baseline.
/// (`events_per_sec` is printed and recorded, not gated: it is the
/// host's speed, not the code's.)
///
/// Each point is measured best-of-reps: the run is deterministic, so
/// every rep processes identical events and the *fastest* rep is the
/// engine's throughput with the one-sided OS noise (scheduling, page
/// faults, cold caches) filtered out. Reps scale inversely with the
/// per-rep event count so small ladder points aggregate enough work to
/// be stable.
pub fn scaleup() {
    scaleup_with_shards(4);
}

/// E13 with an explicit worker-sweep width: after the one-core ladder,
/// the top (10^4-node) point is re-run on W ∈ {2, 4, …, `shards`}
/// cores (W = 1 *is* the ladder row: a one-shard engine runs the same
/// inline loop). Every sharded run must reproduce the one-core result
/// rows and event count bit-for-bit (the conservative time-window
/// barrier is exact, not approximate), and the W-sweep table reports
/// speedup over one core.
///
/// On hosts with ≥ 4 cores the W = 4 point must reach ≥ 2.5× sequential
/// throughput; on smaller hosts (CI smoke boxes are often 1–2 cores) the
/// sweep still runs — the bit-identity asserts are the point there — but
/// the speedup floor is skipped because there is no parallelism to buy.
pub fn scaleup_with_shards(shards: usize) {
    let ladder: &[usize] = &[100, 1_000, 10_000];
    let seed = 11u64;
    let mut tab = ResultTable::new(
        "e13_scaleup",
        &[
            "nodes",
            "events",
            "reps",
            "best_wall_s",
            "events_per_sec",
            "results",
            "recall",
        ],
    );
    let mut json_rows = Vec::new();
    let mut top = None;
    for &n in ladder {
        let (first, reps, best) = scaleup_point(n, seed, 1);
        let eps = first.events as f64 / best;
        tab.row(vec![
            n.to_string(),
            first.events.to_string(),
            reps.to_string(),
            ResultTable::fmt_cell(best),
            format!("{eps:.0}"),
            first.rows.len().to_string(),
            ResultTable::fmt_cell(first.recall),
        ]);
        json_rows.push(format!(
            "    {{\"nodes\": {n}, \"events\": {events}, \"reps\": {reps}, \
             \"best_wall_s\": {best:.3}, \"events_per_sec\": {eps:.0}, \
             \"results\": {results}, \"recall\": {recall:.4}}}",
            events = first.events,
            results = first.rows.len(),
            recall = first.recall,
        ));
        if n == *ladder.last().unwrap() {
            top = Some((first, eps));
        }
    }
    tab.emit();

    // W-sweep at the top ladder point: widths 2, 4, … up to `shards`.
    let (seq, seq_eps) = top.expect("ladder is non-empty");
    let n = *ladder.last().unwrap();
    let mut widths: Vec<usize> = vec![2, 4];
    widths.retain(|&w| w <= shards);
    if shards > 1 && !widths.contains(&shards) {
        widths.push(shards);
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut sh_tab = ResultTable::new(
        "e13_scaleup_sharded",
        &[
            "w",
            "events",
            "reps",
            "best_wall_s",
            "events_per_sec",
            "speedup_vs_seq",
            "identical",
        ],
    );
    for &w in &widths {
        let (first, reps, best) = scaleup_point(n, seed, w);
        assert_eq!(
            first.events, seq.events,
            "sharded W={w} must process the same events as sequential"
        );
        assert_eq!(
            first.rows, seq.rows,
            "sharded W={w} must reproduce the sequential result rows bit-for-bit"
        );
        let eps = first.events as f64 / best;
        let speedup = eps / seq_eps;
        if w >= 4 && cores >= 4 {
            assert!(
                speedup >= 2.5,
                "W={w} on a {cores}-core host must reach >= 2.5x sequential \
                 throughput (got {speedup:.2}x)"
            );
        }
        sh_tab.row(vec![
            w.to_string(),
            first.events.to_string(),
            reps.to_string(),
            ResultTable::fmt_cell(best),
            format!("{eps:.0}"),
            format!("{speedup:.2}"),
            "yes".to_string(),
        ]);
        json_rows.push(format!(
            "    {{\"nodes\": {n}, \"w\": {w}, \"events\": {events}, \"reps\": {reps}, \
             \"best_wall_s\": {best:.3}, \"events_per_sec_sharded\": {eps:.0}, \
             \"speedup_vs_seq\": {speedup:.3}, \"identical\": true}}",
            events = first.events,
        ));
    }
    sh_tab.emit();

    let json = format!(
        "{{\n  \"experiment\": \"scaleup\",\n  \"workload\": \
         \"static CAN overlay at 100/1000/10000 nodes, ~1 R tuple per node (floor 400), \
         publish + symmetric-hash join, latency-only network; plus a W-sweep from \
         W = 2 at the 10000-node point (bit-identical to one core at every W; W = 1 is \
         the ladder row itself, the same inline loop)\",\n  \
         \"metric\": \"gated exactly, row for row: events, results, identical. Recorded \
         but not gated (host speed): engine events processed per wall-clock second, \
         best-of-reps per row; events_per_sec_sharded is the same through the windowed \
         loop. Recall vs the reference evaluator must stay 1.0\",\n  \
         \"host_cores\": {cores},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let dir = results_dir();
    let _ = std::fs::create_dir_all(&dir);
    std::fs::write(dir.join("BENCH_scaleup.json"), json).expect("write BENCH_scaleup.json");
}

// ---------------------------------------------------------------------
// A1 — ablation: CAN dimensionality
// ---------------------------------------------------------------------

pub fn ablation_dims() {
    let mut tab = ResultTable::new(
        "a1_can_dims",
        &["d", "avg_hops_n1024", "expected_n^(1/d)", "t_30th_n128_s"],
    );
    for d in [2usize, 3, 4, 6] {
        // Measured average greedy path length on a balanced 1024 overlay.
        let states = pier_dht::can::balanced_overlay(1024, d, Time::ZERO);
        let mut total = 0u64;
        let mut cnt = 0u64;
        for key in 0..400u64 {
            let p = pier_dht::geom::Point::from_key(key.wrapping_mul(0x9E37_79B9), d);
            let mut cur = (key as usize * 131) % 1024;
            let mut hops = 0u64;
            while !states[cur].owns_point(p) && hops < 4096 {
                cur = states[cur].next_hop(p).unwrap() as usize;
                hops += 1;
            }
            total += hops;
            cnt += 1;
        }
        let measured = total as f64 / cnt as f64;
        let expected = (d as f64 / 4.0) * 1024f64.powf(1.0 / d as f64);

        let t = {
            let mut run = JoinRun::new(
                128,
                JoinStrategy::SymmetricHash,
                params_for_nodes(128, 13),
                NetConfig::paper_baseline(13),
            );
            run.dht = DhtConfig::static_network().with_dims(d);
            run_join(&run).t_30th
        };
        tab.row(vec![
            d.to_string(),
            ResultTable::fmt_cell(measured),
            ResultTable::fmt_cell(expected),
            ResultTable::fmt_cell(t),
        ]);
    }
    tab.emit();
}

// ---------------------------------------------------------------------
// A2 — ablation: CAN vs Chord (§3.2 validation)
// ---------------------------------------------------------------------

pub fn chord_vs_can() {
    let n = 128;
    let mut tab = ResultTable::new(
        "a2_chord_vs_can",
        &[
            "strategy",
            "can_t_last_s",
            "chord_t_last_s",
            "can_MB",
            "chord_MB",
        ],
    );
    for strategy in JoinStrategy::ALL {
        let mut vals = Vec::new();
        for overlay in [OverlayKind::Can, OverlayKind::Chord] {
            let mut run = JoinRun::new(
                n,
                strategy,
                RsParams {
                    s_rows: 40,
                    seed: 17,
                    ..Default::default()
                },
                NetConfig::latency_only(17),
            );
            run.dht = DhtConfig::static_network().with_overlay(overlay);
            let m = run_join(&run);
            vals.push(m);
        }
        tab.row(vec![
            strategy_label(strategy).into(),
            ResultTable::fmt_cell(vals[0].t_last),
            ResultTable::fmt_cell(vals[1].t_last),
            ResultTable::fmt_cell(vals[0].traffic_mb),
            ResultTable::fmt_cell(vals[1].traffic_mb),
        ]);
    }
    tab.emit();
}

// ---------------------------------------------------------------------
// A3 — extension: flat vs hierarchical aggregation
// ---------------------------------------------------------------------

pub fn agg_flat_vs_hier() {
    let mut tab = ResultTable::new(
        "a3_aggregation",
        &["nodes", "mode", "t_last_s", "max_inbound_KB", "groups"],
    );
    for n in [64usize, 192] {
        for hier in [false, true] {
            let rows = intrusion::intrusions(n * 6, 24, 64, 3);
            let mut sim: Sim<PierNode> =
                stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::paper_baseline(3));
            publish_round_robin(&mut sim, "intrusions", &rows, 0, Dur::from_secs(100_000));
            settle_publish(&mut sim);
            let pre = sim.stats();
            let mut agg = AggSpec::new(
                vec![1],
                vec![AggCall {
                    func: AggFunc::Count,
                    arg: None,
                }],
            );
            agg.hierarchical = hier;
            agg.harvest = Dur::from_secs(10);
            let scan = ScanSpec::new("intrusions", 3, 0);
            let mut desc = QueryDesc::one_shot(9, 0, QueryOp::Agg { scan, agg });
            desc.n_nodes = n as u32;
            let results = run_query(&mut sim, 0, desc, Dur::from_secs(60));
            let stats = sim.stats().since(&pre);
            tab.row(vec![
                n.to_string(),
                if hier { "hierarchical" } else { "flat" }.into(),
                results
                    .iter()
                    .map(|(t, _)| t.as_secs_f64())
                    .fold(0.0f64, f64::max)
                    .to_string(),
                ResultTable::fmt_cell(stats.max_inbound() as f64 / 1e3),
                results.len().to_string(),
            ]);
        }
    }
    tab.emit();
}
