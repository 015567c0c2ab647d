//! Multi-tenant standing-query lifecycle (install → epochs → uninstall).

use pier_core::metrics::net_stats_json;
use pier_core::plan::JoinStrategy;
use pier_core::semantics::{precision, recall, reference_epochs_at, TimedRows};
use pier_core::sql::parse_continuous_query;
use pier_core::tenant::{AdmissionError, Quota};
use pier_core::testkit::{
    metrics_snapshot, publish_round_robin, settle_publish, stabilized_pier_sim, PierEngine,
};
use pier_core::{Catalog, PierNode, PublishReport, TableRate, Tuple, Value};
use pier_dht::DhtConfig;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NodeId, Sim};
use pier_workload::intrusion;
use std::collections::BTreeMap;

use super::intrusion_tables;
use crate::{Artifact, Cell};

/// The "millions of users" scale path, miniaturized *and governed*:
/// a thousand staggered standing queries — flat per-fingerprint
/// aggregates plus 2-way and 3-way join aggregates carrying per-query
/// `RENEW` periods — are installed in waves, live for 3–5 epochs while
/// reports stream in, and are uninstalled again, continuously, over a
/// shared 12-node DHT with *no* node-global renewal loop. Every tenant
/// carries a [`Quota`] priced by the PR 3 cost model and installs
/// through the typed admission surface ([`PierNode::try_submit`]).
/// Hard-asserts (CI gate):
///
/// * 1 000 quota-governed tenants, per-epoch recall and precision 1.0
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
pub fn multitenant() {
    let n = 12usize;
    let epoch = Dur::from_secs(30);
    let per_wave = 12usize;
    let n_tenants: usize = 1000;
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
    // epoch 0. Unwindowed, a row published at `t` is live at epoch `e` of
    // a tenant installed at `I` iff `max(t − I, 0) ≤ e·epoch`, that is iff
    // `t ≤ I + e·epoch`, so the tenant's instants are taken on the
    // tables' own clock and no row is shifted or copied.
    let timed = intrusion_tables(timed_reports, &advisories, &reputation);
    let mut per_class: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    let mut nonempty = 0usize;
    let mut tenant_epochs = 0usize;
    for i in 0..n_tenants {
        let desc = parse_continuous_query(&sql_of(i), &catalog, strategy, qid_of(i), 0).unwrap();
        let install = install_at(i);
        let k = epochs_of(i);
        let instants: Vec<Time> = (0..k)
            .map(|e| Time::ZERO + install.since(t0) + epoch.saturating_mul(e as u64))
            .collect();
        let expected = reference_epochs_at(&desc.op, &timed, None, &instants);
        let mut got: Vec<Vec<Tuple>> = vec![Vec::new(); k];
        for (t, row) in sim.app(0).unwrap().query_results(qid_of(i)) {
            let e = (t.since(install).as_micros() / epoch.as_micros()) as usize;
            if *t >= install && e < k {
                got[e].push(row);
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
    assert!(
        nonempty * 10 >= tenant_epochs * 3,
        "the workload must keep most tenants busy ({nonempty}/{tenant_epochs} non-empty)"
    );

    let fairness_min_recall = per_class
        .values()
        .map(|c| c.1)
        .fold(f64::INFINITY, f64::min);
    let mut art = Artifact::new("multitenant");
    art.meta(
        "workload",
        format!(
            "{n_tenants} staggered quota-governed standing queries \
             (flat / 2-way / 3-way, per-query RENEW) over {n} nodes, EPOCH 30 s"
        ),
    );
    art.meta("run_s", Cell::f(run_s, 0));
    art.meta("peak_concurrent", peak_installed);
    art.meta("traffic_mb", Cell::f(traffic_mb, 4));
    art.meta("fairness_min_recall", Cell::f(fairness_min_recall, 4));
    art.meta("rejected_installs", snap.rejected_installs());
    art.meta("shed_publishes", flood_report.shed);
    art.meta(
        "metric",
        "per-tenant per-epoch recall/precision over each live span; \
         typed admission rejection; token-bucket shed flood; \
         zero residual soft state one lifetime after uninstall",
    );
    for class in ["flat", "2way", "3way"] {
        let (count, r, p) = per_class[class];
        art.row([
            ("class", class.into()),
            ("tenants", count.into()),
            ("min_recall", Cell::f(r, 4)),
            ("min_precision", Cell::f(p, 4)),
        ]);
    }
    art.emit();
}
