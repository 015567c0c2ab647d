//! Churn SLO: scan recall under scripted kills, k = 1 vs k ≥ 2.

use pier_core::expr::Expr;
use pier_core::plan::{QueryDesc, QueryOp, ScanSpec};
use pier_core::testkit::{settle_publish, stabilized_pier_sim};
use pier_core::{Tuple, Value};
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{Deployment, FaultDriver, FaultScript, NetConfig, NodeId};
use std::collections::HashSet;

use crate::{Artifact, Cell};

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

    let mut truth: HashSet<i64> = HashSet::new();
    for i in 0..N {
        let rows: Vec<Tuple> = (0..ITEMS_PER_NODE)
            .map(|j| Tuple::new(vec![Value::I64((i * 1_000_000 + j) as i64)]))
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
            let distinct: HashSet<i64> = got.iter().copied().collect();
            duplicates += got.len() - distinct.len();
            let hits = distinct.iter().filter(|pk| truth.contains(pk)).count();
            worst_recall = worst_recall.min(hits as f64 / truth.len() as f64);
        }
    }
    (worst_recall, duplicates)
}

/// The recall-vs-churn SLO (§5.9 resilience, replicated): three churn
/// tiers × k ∈ {1, 2, 3} over the *same* seeded kill schedule per tier,
/// so the only variable across k is the replication factor. The SLO
/// this repo commits to, hard-asserted here: worst-case scan recall
/// ≥ 0.99 at k = 2 under the mid tier — where the k = 1 soft-state
/// baseline measurably degrades — and zero duplicate scan rows at
/// every k.
pub fn churn_slo() {
    let tiers: &[(&str, usize, u64)] = &[("low", 2, 71), ("mid", 4, 72), ("high", 8, 73)];
    let mut art = Artifact::new("churn_slo");
    art.meta(
        "workload",
        "48-node CAN, 192 once-published items (no renewals), seeded kill scripts \
         (2/4/8 kills) x replication k in 1..3; one-shot scans between kill slots",
    );
    art.meta(
        "metric",
        "worst-case scan recall vs all published items; duplicates across \
         all scans; SLO: recall >= 0.99 at k=2 under mid churn, 0 duplicates at every k",
    );
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
            art.row([
                ("tier", tier.into()),
                ("kills", kills.into()),
                ("k", k.into()),
                ("recall", Cell::f(recall, 4)),
                ("duplicates", dups.into()),
            ]);
        }
    }
    art.emit();
}
