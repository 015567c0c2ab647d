//! Continuous-query soft-state lifecycle (standing triage query).

use pier_core::metrics::net_stats_json;
use pier_core::plan::JoinStrategy;
use pier_core::semantics::{precision, recall, reference_epochs, TimedRows};
use pier_core::sql::parse_continuous_query;
use pier_core::testkit::{
    metrics_snapshot, publish_round_robin, settle_publish, stabilized_pier_sim, PierEngine,
};
use pier_core::{Catalog, PierNode, Tuple};
use pier_dht::DhtConfig;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, Sim};
use pier_workload::intrusion;

use super::intrusion_tables;
use crate::{Artifact, Cell};

/// The §2.1 intrusion triage run as a *standing* 3-way join-aggregate:
/// reports trickle in every epoch while the query re-emits per-attacker
/// `count(*)` / `max(severity)` groups, for ≥ 3× the 600 s horizon of
/// unrenewed rehash state. The query's own `RENEW` period keeps
/// advisory/reputation join state alive, so per-epoch recall and
/// precision stay 1.0 against `reference_epochs` — hard-asserted (CI
/// gate; unrenewed, rehashed state ages out and late reports lose
/// their joins). Reports recall, precision and DHT traffic per epoch.
pub fn continuous() {
    let n = 16usize;
    let epoch = Dur::from_secs(120);
    // 24 epochs × 120 s = 2880 s = 4.8 × the unrenewed 600 s horizon.
    let n_epochs: usize = 24;
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

    let timed = intrusion_tables(timed_reports, &advisories, &reputation);
    let expected = reference_epochs(&op, &timed, None, epoch, n_epochs);

    let mut got: Vec<Vec<Tuple>> = vec![Vec::new(); n_epochs];
    for (at, row) in sim.app(0).unwrap().query_results(1010) {
        let k = (at.since(t0).as_micros() / epoch.as_micros()) as usize;
        if k < n_epochs {
            got[k].push(row);
        }
    }

    let run_s = epoch.as_secs_f64() * n_epochs as f64;
    let mut art = Artifact::new("continuous");
    art.meta(
        "query",
        "standing 3-way intrusion triage: count(*), max(severity) per attacker, EPOCH 120 s",
    );
    art.meta("run_s", Cell::f(run_s, 0));
    art.meta("legacy_horizon_s", Cell::f(legacy_horizon_s, 0));
    art.meta(
        "metric",
        "per-epoch recall/precision vs reference_epochs; DHT traffic per epoch, MB",
    );
    let mut min_recall = f64::INFINITY;
    let mut min_precision = f64::INFINITY;
    for k in 0..n_epochs {
        let r = recall(&expected[k], &got[k]);
        let p = precision(&expected[k], &got[k]);
        min_recall = min_recall.min(r);
        min_precision = min_precision.min(p);
        let mb = (boundary_bytes[k + 1] - boundary_bytes[k]) as f64 / 1e6;
        art.row([
            ("epoch", k.into()),
            ("t_s", Cell::f(epoch.as_secs_f64() * k as f64, 0)),
            ("groups", expected[k].len().into()),
            ("recall", Cell::f(r, 4)),
            ("precision", Cell::f(p, 4)),
            ("epoch_mb", Cell::f(mb, 4)),
        ]);
        assert!(!expected[k].is_empty(), "oracle epoch {k} must have groups");
    }
    art.emit();

    assert!(
        run_s >= 3.0 * legacy_horizon_s,
        "the run must cover ≥ 3 legacy horizons ({run_s} s)"
    );
    assert!(
        (min_recall - 1.0).abs() < 1e-9 && (min_precision - 1.0).abs() < 1e-9,
        "a standing query must keep recall/precision 1.0 across every epoch \
         (got min recall {min_recall}, min precision {min_precision})"
    );
}
