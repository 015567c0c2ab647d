//! Ablations and extensions beyond the paper's figures.

use pier_core::plan::{AggCall, AggFunc, AggSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::testkit::{publish_round_robin, run_query, settle_publish, stabilized_pier_sim};
use pier_core::PierNode;
use pier_dht::{DhtConfig, OverlayKind};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, Sim};
use pier_workload::{intrusion, RsParams};

use super::params_for_nodes;
use crate::{run_join, strategy_label, Artifact, Cell, JoinRun};

/// CAN dimensionality: measured greedy path length against the
/// (d/4)·n^(1/d) expectation, and its effect on time to the 30th tuple.
pub fn ablation_dims() {
    let mut art = Artifact::new("ablation_dims");
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
        art.row([
            ("d", d.into()),
            ("avg_hops_n1024", Cell::f(measured, 2)),
            ("expected_n^(1/d)", Cell::f(expected, 2)),
            ("t_30th_n128_s", Cell::f(t, 2)),
        ]);
    }
    art.emit();
}

/// CAN vs Chord as the routing layer under every join strategy (§3.2:
/// the query processor is DHT-agnostic).
pub fn chord() {
    let n = 128;
    let mut art = Artifact::new("chord");
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
        art.row([
            ("strategy", strategy_label(strategy).into()),
            ("can_t_last_s", Cell::f(vals[0].t_last, 2)),
            ("chord_t_last_s", Cell::f(vals[1].t_last, 2)),
            ("can_MB", Cell::f(vals[0].traffic_mb, 2)),
            ("chord_MB", Cell::f(vals[1].traffic_mb, 2)),
        ]);
    }
    art.emit();
}

/// Flat vs hierarchical DHT aggregation: the tree spreads the inbound
/// load a single collector would take.
pub fn agg() {
    let mut art = Artifact::new("agg");
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
            let t_last = results.iter().map(|(t, _)| t.as_secs_f64());
            art.row([
                ("nodes", n.into()),
                ("mode", if hier { "hierarchical" } else { "flat" }.into()),
                ("t_last_s", Cell::f(t_last.fold(0.0, f64::max), 2)),
                (
                    "max_inbound_KB",
                    Cell::f(stats.max_inbound() as f64 / 1e3, 2),
                ),
                ("groups", results.len().into()),
            ]);
        }
    }
    art.emit();
}
