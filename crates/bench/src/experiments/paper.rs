//! The paper's own results: §5.3 and Table 4, Figures 3–8.

use pier_core::expr::Expr;
use pier_core::plan::{JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::testkit::{
    publish_by_request, run_query_by_request, settle_publish, stabilized_pier_cluster,
    stabilized_pier_sim, time_to_kth,
};
use pier_core::{optimizer, PierNode, Tuple, Value};
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::topology::TransitStub;
use pier_simnet::{Deployment, NetConfig, NodeId};
use pier_workload::{RsParams, RsWorkload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use super::{params_for_nodes, SEEDS};
use crate::{average, run_join, strategy_label, Artifact, Cell, JoinRun};

/// §5.3, centralized vs distributed: the analytic inbound load per
/// computation node, then a simulator cross-check (the rows with
/// `max_inbound_MB`).
pub fn centralized() {
    let n: u64 = 1024;
    // T = bytes passing the selections. With 50% selectivity on both
    // tables the paper quotes ~0.5 GB for a ~1 GB database.
    let db_bytes = 1e9;
    let t_bytes = 0.5 * db_bytes;
    let mut art = Artifact::new("centralized");
    for m in [1u64, 2, 8, 16, 64, 256, n] {
        let per_node = t_bytes * (1.0 - (m as f64) / (n as f64)).max(0.0) / m as f64;
        let time_s = per_node * 8.0 / 10e6;
        let bw = per_node * 8.0 / 60.0 / 1e6;
        art.row([
            ("computation_nodes", m.into()),
            ("inbound_per_node_MB", Cell::f(per_node / 1e6, 2)),
            ("time_at_10Mbps_s", Cell::f(time_s, 2)),
            ("bw_for_60s_response_Mbps", Cell::f(bw, 2)),
        ]);
    }

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
    for (m, confined) in [(1, Some(1)), (n_sim, None)] {
        let run = mk(confined);
        art.row([
            ("computation_nodes", m.into()),
            ("max_inbound_MB", Cell::f(run.max_inbound_mb, 2)),
            ("time_to_last_s", Cell::f(run.t_last, 2)),
        ]);
    }
    art.emit();
}

/// Figure 3: scale-up on the full mesh, the join confined to `m`
/// computation nodes.
pub fn fig3() {
    let confined = [
        (Some(1), "m=1"),
        (Some(2), "m=2"),
        (Some(8), "m=8"),
        (Some(16), "m=16"),
        (None, "m=N"),
    ];
    scaleup_sweep("fig3", &confined, |_, seed| NetConfig::paper_baseline(seed));
}

/// Figure 7: the same sweep on the transit-stub topology.
pub fn fig7() {
    let confined = [(Some(1), "m=1"), (None, "m=N")];
    scaleup_sweep("fig7", &confined, |n, seed| NetConfig {
        topology: Arc::new(TransitStub::paper_default(n as u32, seed)),
        inbound_bps: Some(10e6),
        seed,
    });
}

/// Time to the 30th tuple per node count (load proportional to nodes)
/// and per computation-node limit, on the network `net(n, seed)` builds.
fn scaleup_sweep(
    name: &'static str,
    confined: &[(Option<u32>, &'static str)],
    net: impl Fn(usize, u64) -> NetConfig,
) {
    let mut art = Artifact::new(name);
    for n in [2usize, 8, 32, 128, 512, 2048] {
        let mut cells = vec![("nodes", n.into())];
        for &(m, col) in confined {
            let t = average(SEEDS, |seed| {
                let mut run = JoinRun::new(
                    n,
                    JoinStrategy::SymmetricHash,
                    params_for_nodes(n, seed),
                    net(n, seed),
                );
                run.computation_nodes = m;
                // The metric is fixed once the 30th result lands, a few
                // seconds in; the assert keeps `average` from dropping a
                // run that never got there.
                run.settle = Dur::from_secs(30);
                let t_30th = run_join(&run).t_30th;
                assert!(
                    t_30th.is_finite(),
                    "{name}: no 30th result within {:?} at n = {n}, {col}, seed {seed}",
                    run.settle
                );
                t_30th
            });
            cells.push((col, Cell::f(t, 2)));
        }
        art.row(cells);
    }
    art.emit();
}

/// Table 4: the join strategies at infinite bandwidth, measured time to
/// the last tuple against the optimizer's analytical latency model.
pub fn table4() {
    let n = 1024;
    let mut art = Artifact::new("table4");
    let p = optimizer::CostParams::paper_baseline(n as f64);
    for strategy in JoinStrategy::ALL {
        let t = average(SEEDS, |seed| {
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
        art.row([
            ("strategy", strategy_label(strategy).into()),
            ("measured_t_last_s", Cell::f(t, 2)),
            (
                "analytical_s",
                Cell::f(optimizer::latency_model(strategy, &p), 2),
            ),
        ]);
    }
    art.emit();
}

/// Figures 4 and 5, one row per S-selectivity: aggregate traffic
/// (`*_MB`) and time to the last tuple (`*_s`) for each strategy, from
/// the same runs.
pub fn fig4_5() {
    let n = 512;
    let mut art = Artifact::new("fig4_5");
    for sel in (1..=10).map(|k| k * 10) {
        let metrics = JoinStrategy::ALL.map(|strategy| {
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
                    s_rows: 600,
                    sel_s_pct: sel,
                    seed: 42,
                    ..Default::default()
                },
                net,
            );
            run.settle = Dur::from_secs(3000);
            run_join(&run)
        });
        let traffic = ["shj_MB", "fm_MB", "ssj_MB", "bloom_MB"]
            .into_iter()
            .zip(&metrics);
        let t_last = ["shj_s", "fm_s", "ssj_s", "bloom_s"]
            .into_iter()
            .zip(&metrics);
        art.row(
            std::iter::once(("sel_s_pct", sel.into()))
                .chain(traffic.map(|(col, m)| (col, Cell::f(m.traffic_mb, 2))))
                .chain(t_last.map(|(col, m)| (col, Cell::f(m.t_last, 2)))),
        );
    }
    art.emit();
}

/// Figure 6: recall under churn for different soft-state refresh periods.
/// Asserts the paper's shape: recall never rises with a longer refresh
/// period (along a row) or with a higher failure rate (down a column).
pub fn fig6() {
    let n = 512;
    // The paper's x-axis reaches 240 failures/min on 4096 nodes (~5.9 %
    // churn/min). We apply the same *fractional* churn to our smaller
    // network so the soft-state dynamics (loss window vs renewal period)
    // stay comparable; rows are labeled in paper-equivalent rates.
    let rates = [0u32, 60, 120, 240];
    let refreshes = [30u64, 60, 150, 225];
    let cols = ["refresh_30s", "refresh_60s", "refresh_150s", "refresh_225s"];
    let recall = rates.map(|rate| {
        let scaled =
            ((rate as f64 * n as f64 / 4096.0).round() as u32).max(if rate > 0 { 1 } else { 0 });
        refreshes.map(|refresh| churn_recall(n, scaled, refresh) * 100.0)
    });
    for (r, row) in recall.iter().enumerate() {
        for c in 0..cols.len() {
            let at = format!("{} failures/min, {}", rates[r], cols[c]);
            assert!(
                c == 0 || row[c] <= row[c - 1],
                "fig6: recall rises with the refresh period at {at}: {row:?}"
            );
            assert!(
                r == 0 || row[c] <= recall[r - 1][c],
                "fig6: recall rises with the failure rate at {at}: {recall:?}"
            );
        }
    }
    let mut art = Artifact::new("fig6");
    for (rate, row) in rates.into_iter().zip(recall) {
        let cells = cols
            .into_iter()
            .zip(row)
            .map(|(col, v)| (col, Cell::f(v, 1)));
        art.row(std::iter::once(("failures_per_min", rate.into())).chain(cells));
    }
    art.emit();
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
        let rows: Vec<Tuple> = (0..items_per_node)
            .map(|k| Tuple::new(vec![Value::I64((i * 1_000_000 + k) as i64)]))
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
                let rows: Vec<Tuple> = (0..items_per_node)
                    .map(|k| Tuple::new(vec![Value::I64((base + k) as i64)]))
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
    average(&recalls, |r| r)
}

/// Figure 8: the workload join on the wall-clock `Cluster`, from the
/// paper's 64 nodes up to 1 024. Its milliseconds are this host's
/// scheduler, so they are a host cell; the result count is the
/// backend-independent answer, asserted equal to the simulator's on
/// the same nodes and workload.
pub fn fig8() {
    let mut art = Artifact::new("fig8");
    for n in [2usize, 4, 8, 16, 32, 64, 256, 1024] {
        let cluster = stabilized_pier_cluster(n, DhtConfig::static_network(), 77);
        let (t30, count) = deployed_join_run(cluster, Dur::from_millis(50));
        let sim = stabilized_pier_sim(n, DhtConfig::static_network(), NetConfig::latency_only(77));
        let (_, expected) = deployed_join_run(sim, Dur::from_secs(1));
        assert_eq!(count, expected, "Cluster and Sim disagree at {n} nodes");
        art.row([
            ("nodes", n.into()),
            ("t_30th_ms", Cell::f(t30.unwrap_or(f64::NAN), 1).host()),
            ("results", count.into()),
        ]);
    }
    art.emit();
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
