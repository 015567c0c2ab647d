//! Soft-state lifecycle properties: for random windows × sweep lags ×
//! arrival orders, the engine's continuous windowed joins (binary and
//! multiway) produce exactly the co-live reference multiset — however
//! stale the expired-but-unswept state in the stores is — and NULL-
//! bearing aggregate columns match SQL semantics for every [`AggFunc`],
//! centrally and end-to-end.
//!
//! Publish instants sit on a 10 s grid while windows are ≡ 5 (mod 10),
//! so every gap is ≥ 5 s away from the window boundary — far above the
//! simulated routing skew — and the oracle is exact, not approximate.

use std::collections::HashMap;

use pier_core::expr::Expr;
use pier_core::plan::{
    AggCall, AggFunc, AggSpec, JoinSpec, JoinStage, JoinStrategy, QueryDesc, QueryOp, ScanSpec,
};
use pier_core::semantics::{
    reference_eval, reference_windowed_join, reference_windowed_multijoin, same_multiset, TimedRows,
};
use pier_core::testkit::*;
use pier_core::tuple::Tuple;
use pier_core::value::Value;
use pier_core::PierNode;
use pier_dht::DhtConfig;
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NodeId, Sim};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random sweep cadence: from eager (1 s) to very lazy (61 s), so the
/// amount of expired-but-unswept state in the stores varies wildly.
fn random_cfg(rng: &mut SmallRng) -> DhtConfig {
    let mut cfg = DhtConfig::static_network();
    cfg.tick = Dur::from_secs([1, 7, 33, 61][rng.gen_range(0..4usize)]);
    cfg
}

/// A window that is never within 5 s of any grid-aligned gap.
fn random_window(rng: &mut SmallRng) -> Dur {
    Dur::from_secs([15, 25, 35, 45][rng.gen_range(0..4usize)])
}

/// Timed single-row publications for one table: (grid instant, row).
type Schedule = Vec<(Dur, String, Tuple)>;

/// Drive a schedule through a simulation: submit the standing query,
/// publish each row from a pseudo-random node at its instant, then let
/// the final window close. Returns the initiator's result rows.
fn run_schedule(
    sim: &mut Sim<PierNode>,
    desc: QueryDesc,
    schedule: &Schedule,
    rng: &mut SmallRng,
) -> Vec<Tuple> {
    let qid = desc.qid;
    let n = sim.node_count();
    sim.run_for(Dur::from_secs(2));
    let t0 = sim.now();
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    for (at, table, row) in schedule {
        sim.run_until(t0 + *at);
        let publisher = rng.gen_range(0..n) as NodeId;
        let (table, row) = (table.clone(), row.clone());
        sim.with_app(publisher, |node, ctx| {
            node.publish_rows(ctx, &table, vec![row], 0, Dur::from_secs(100_000));
        });
    }
    sim.run_for(Dur::from_secs(70));
    sim.app(0)
        .unwrap()
        .query_results(qid)
        .iter()
        .map(|(_, r)| r)
        .collect()
}

fn timed_rows(schedule: &Schedule, table: &str) -> TimedRows {
    schedule
        .iter()
        .filter(|(_, t, _)| t == table)
        .map(|(at, _, r)| (Time::ZERO + *at, r.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Continuous windowed binary joins emit exactly the pairs that
    /// were co-live inside the window, independent of sweep lag and
    /// arrival order.
    #[test]
    fn windowed_binary_join_matches_co_live_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB1AA);
        let left = ScanSpec::new("A", 2, 0).with_join_col(1);
        let right = ScanSpec::new("B", 2, 0).with_join_col(1);
        let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        j.project = vec![Expr::col(0), Expr::col(2)];
        let window = random_window(&mut rng);
        let desc = QueryDesc::standing(70, 0, QueryOp::Join { join: j.clone(), agg: None }, Some(window));

        let n_events = rng.gen_range(5..10usize);
        let mut schedule: Schedule = (0..n_events)
            .map(|i| {
                let at = Dur::from_secs(10 * rng.gen_range(1..10u64));
                let table = if rng.gen_range(0..2) == 0 { "A" } else { "B" };
                let key = rng.gen_range(0..3i64);
                (at, table.to_string(), pier_core::tuple![i as i64, key])
            })
            .collect();
        schedule.sort_by_key(|(at, _, _)| *at);

        let mut sim = stabilized_pier_sim(8, random_cfg(&mut rng), NetConfig::latency_only(seed));
        let got = run_schedule(&mut sim, desc, &schedule, &mut rng);
        let expected = reference_windowed_join(
            &j,
            &timed_rows(&schedule, "A"),
            &timed_rows(&schedule, "B"),
            window,
        );
        prop_assert!(
            same_multiset(&expected, &got),
            "seed {seed}, window {window:?}: expected {expected:?} got {got:?}"
        );
    }

    /// The same co-live law holds across multiway pipelines: a result
    /// exists iff all constituents' span fits in the window.
    #[test]
    fn windowed_multiway_join_matches_co_live_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x3A11);
        let base = ScanSpec::new("A", 2, 0);
        let s1 = JoinStage {
            right: ScanSpec::new("B", 2, 0).with_join_col(0),
            left_col: 1,
            stage_pred: None,
        };
        let s2 = JoinStage {
            right: ScanSpec::new("C", 2, 0).with_join_col(0),
            left_col: 3,
            stage_pred: None,
        };
        let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
        m.project = vec![Expr::col(0), Expr::col(5)];
        let window = random_window(&mut rng);
        let desc = QueryDesc::standing(71, 0, QueryOp::Join { join: m.clone(), agg: None }, Some(window));

        // Join values from tiny domains so chains actually form:
        // A(id, x), B(x, y) keyed on x, C(y, v) keyed on y.
        let n_events = rng.gen_range(6..12usize);
        let mut schedule: Schedule = (0..n_events)
            .map(|i| {
                let at = Dur::from_secs(10 * rng.gen_range(1..10u64));
                let id = 1000 + i as i64;
                match rng.gen_range(0..3u8) {
                    0 => (at, "A".to_string(), pier_core::tuple![id, rng.gen_range(0..2i64)]),
                    1 => (
                        at,
                        "B".to_string(),
                        pier_core::tuple![rng.gen_range(0..2i64), rng.gen_range(0..2i64)],
                    ),
                    _ => (at, "C".to_string(), pier_core::tuple![rng.gen_range(0..2i64), id]),
                }
            })
            .collect();
        schedule.sort_by_key(|(at, _, _)| *at);

        let mut sim = stabilized_pier_sim(8, random_cfg(&mut rng), NetConfig::latency_only(seed));
        let got = run_schedule(&mut sim, desc, &schedule, &mut rng);
        let mut tables: HashMap<String, TimedRows> = HashMap::new();
        for t in ["A", "B", "C"] {
            tables.insert(t.to_string(), timed_rows(&schedule, t));
        }
        let expected = reference_windowed_multijoin(&m, &tables, window);
        prop_assert!(
            same_multiset(&expected, &got),
            "seed {seed}, window {window:?}: expected {expected:?} got {got:?}"
        );
    }
}

/// Naively computed SQL aggregate over (group, value) pairs.
fn naive_agg(func: AggFunc, vals: &[Value]) -> Value {
    let non_null: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
    match func {
        AggFunc::Count => Value::I64(vals.len() as i64),
        AggFunc::Sum => Value::I64(non_null.iter().filter_map(|v| v.as_i64()).sum()),
        AggFunc::Min => non_null.iter().min().map_or(Value::Null, |v| (*v).clone()),
        AggFunc::Max => non_null.iter().max().map_or(Value::Null, |v| (*v).clone()),
        AggFunc::Avg => {
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::F64(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
    }
}

fn all_calls() -> Vec<AggCall> {
    [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ]
    .into_iter()
    .map(|func| AggCall {
        func,
        arg: (func != AggFunc::Count).then(|| Expr::col(1)),
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Central: for random null densities and random partial splits,
    /// every aggregate matches the naive SQL fold — merging partials
    /// included (the distributed path is a merge tree).
    #[test]
    fn null_bearing_aggregates_match_naive_fold(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9011_u64 ^ 0xAB);
        let calls = all_calls();
        let n = rng.gen_range(1..30usize);
        let null_pct = rng.gen_range(0..=100u32);
        let rows: Vec<Tuple> = (0..n)
            .map(|i| {
                let v = if rng.gen_range(0..100u32) < null_pct {
                    Value::Null
                } else {
                    Value::I64(rng.gen_range(-50..50i64))
                };
                pier_core::tuple![i as i64, v]
            })
            .collect();
        // Split into random partials, update each, merge pairwise.
        let mut parts: Vec<pier_core::agg::GroupAccs> =
            (0..rng.gen_range(1..4usize)).map(|_| pier_core::agg::GroupAccs::new(&calls)).collect();
        for row in &rows {
            let k = rng.gen_range(0..parts.len());
            parts[k].update(&calls, row);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        let mut out = Tuple::default();
        merged.output_row(&[], &mut out);
        let vals: Vec<Value> = rows.iter().map(|r| r.get(1).clone()).collect();
        for (i, call) in calls.iter().enumerate() {
            let expect = naive_agg(call.func, &vals);
            let gotv = out.get(i).clone();
            let close = match (&expect, &gotv) {
                (Value::F64(a), Value::F64(b)) => (a - b).abs() < 1e-9,
                (a, b) => a == b,
            };
            prop_assert!(close, "seed {seed} {:?}: got {gotv} expected {expect}", call.func);
        }
    }
}

// ---------------------------------------------------------------------
// Lifecycle: random install/uninstall interleavings reclaim everything
// ---------------------------------------------------------------------

/// The query shapes a tenant can take in the lifecycle interleavings.
#[derive(Clone, Copy)]
enum TenantKind {
    /// 2-way standing join (windowed or renewed).
    Binary,
    /// 3-way standing pipeline.
    MultiWay,
    /// Flat epoch-driven aggregate.
    Aggregate,
}

/// Build one standing tenant query over tables A(pk, x), B(x, y),
/// C(y, v). `scale` stretches every duration (1 = seconds for the Sim
/// engine; sub-second values drive the wall-clock Cluster engine).
fn tenant_desc(kind: TenantKind, qid: u64, rng: &mut SmallRng, scale_us: u64) -> QueryDesc {
    let d = |units: u64| Dur::from_micros(units * scale_us);
    let windowed = rng.gen_range(0..2) == 0;
    let window = windowed.then(|| d(rng.gen_range(10..30u64)));
    let renew = (!windowed).then(|| d(rng.gen_range(5..15u64)));
    let desc = match kind {
        TenantKind::Binary => {
            let l = ScanSpec::new("A", 2, 0).with_join_col(1);
            let r = ScanSpec::new("B", 2, 0).with_join_col(0);
            let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, l, r);
            j.project = vec![Expr::col(0), Expr::col(3)];
            QueryDesc::standing(qid, 0, QueryOp::Join { join: j, agg: None }, window)
        }
        TenantKind::MultiWay => {
            let base = ScanSpec::new("A", 2, 0);
            let s1 = JoinStage {
                right: ScanSpec::new("B", 2, 0).with_join_col(0),
                left_col: 1,
                stage_pred: None,
            };
            let s2 = JoinStage {
                right: ScanSpec::new("C", 2, 0).with_join_col(0),
                left_col: 3,
                stage_pred: None,
            };
            let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
            m.project = vec![Expr::col(0), Expr::col(5)];
            QueryDesc::standing(qid, 0, QueryOp::Join { join: m, agg: None }, window)
        }
        TenantKind::Aggregate => {
            let agg = AggSpec::new(
                vec![1],
                vec![AggCall {
                    func: AggFunc::Count,
                    arg: None,
                }],
            )
            .with_epoch(d(rng.gen_range(8..16u64)));
            QueryDesc::standing(
                qid,
                0,
                QueryOp::Agg {
                    scan: ScanSpec::new("A", 2, 0),
                    agg,
                },
                window,
            )
        }
    };
    match renew {
        Some(every) => desc.with_renewal(every),
        None => desc,
    }
}

/// The longest soft-state lifetime any tenant built by [`tenant_desc`]
/// can put into the DHT: window ≤ 30, 3 × renew ≤ 45, epoch ≤ 16 (agg
/// partials), in `scale_us` units. One sweep past this and every
/// uninstalled query's namespaces must read zero.
const TENANT_HORIZON_UNITS: u64 = 50;

#[derive(Clone, Copy)]
enum LifecycleEvent {
    Install(usize),
    Publish,
    Uninstall(usize),
}

/// A random interleaving: every tenant is installed, rows trickle in
/// between, and every tenant is eventually uninstalled.
fn interleaving(rng: &mut SmallRng, n_tenants: usize) -> Vec<LifecycleEvent> {
    let mut events = Vec::new();
    for t in 0..n_tenants {
        events.push(LifecycleEvent::Install(t));
        for _ in 0..rng.gen_range(1..3usize) {
            events.push(LifecycleEvent::Publish);
        }
    }
    // Uninstalls land in shuffled order, interleaved with more traffic.
    let mut order: Vec<usize> = (0..n_tenants).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    for t in order {
        if rng.gen_range(0..2) == 0 {
            events.push(LifecycleEvent::Publish);
        }
        events.push(LifecycleEvent::Uninstall(t));
    }
    events
}

fn random_row(rng: &mut SmallRng, next_id: &mut i64) -> (String, Tuple) {
    let id = *next_id;
    *next_id += 1;
    match rng.gen_range(0..3u8) {
        0 => ("A".into(), pier_core::tuple![id, rng.gen_range(0..2i64)]),
        1 => (
            "B".into(),
            pier_core::tuple![rng.gen_range(0..2i64), rng.gen_range(0..2i64)],
        ),
        _ => ("C".into(), pier_core::tuple![rng.gen_range(0..2i64), id]),
    }
}

const KINDS: [TenantKind; 3] = [
    TenantKind::Binary,
    TenantKind::MultiWay,
    TenantKind::Aggregate,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Sim engine: after a random install/publish/uninstall
    /// interleaving of 2-way, N-way, and aggregate standing queries,
    /// one sweep horizon past the last uninstall every `qns::*`
    /// namespace of every tenant reads zero on every node, the
    /// registries are empty, and no deferred-work timer remains.
    #[test]
    fn lifecycle_interleaving_reclaims_all_soft_state(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x71FE);
        let n_tenants = rng.gen_range(3..6usize);
        let kinds: Vec<TenantKind> =
            (0..n_tenants).map(|t| KINDS[(t + rng.gen_range(0..3usize)) % 3]).collect();
        let scale_us = 1_000_000; // tenant units are seconds on the Sim
        let mut sim = stabilized_pier_sim(8, random_cfg(&mut rng), NetConfig::latency_only(seed));
        sim.run_for(Dur::from_secs(2));
        let mut next_id = 0i64;
        for ev in interleaving(&mut rng, n_tenants) {
            sim.run_for(Dur::from_secs(rng.gen_range(1..6u64)));
            match ev {
                LifecycleEvent::Install(t) => {
                    let desc = tenant_desc(kinds[t], 300 + t as u64, &mut rng, scale_us);
                    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
                }
                LifecycleEvent::Publish => {
                    let (table, row) = random_row(&mut rng, &mut next_id);
                    let publisher = rng.gen_range(0..8) as NodeId;
                    sim.with_app(publisher, |node, ctx| {
                        node.publish_rows(ctx, &table, vec![row], 0, Dur::from_secs(100_000));
                    });
                }
                LifecycleEvent::Uninstall(t) => {
                    sim.with_app(0, |node, ctx| node.cancel(ctx, 300 + t as u64));
                }
            }
        }
        // One horizon (50 units) plus the laziest sweep tick (61 s).
        sim.run_for(Dur::from_micros(TENANT_HORIZON_UNITS * scale_us) + Dur::from_secs(65));
        let now = sim.now();
        for i in 0..8 as NodeId {
            let node = sim.app(i).unwrap();
            prop_assert_eq!(node.installed_query_count(), 0, "node {} registry", i);
            prop_assert_eq!(node.outstanding_requests(), 0, "node {} requests", i);
            for t in 0..n_tenants {
                let left = node.query_soft_state(now, 300 + t as u64, 2);
                prop_assert_eq!(left, 0, "node {} tenant {} residual {}", i, t, left);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Cluster engine: the same reclamation law holds on the wall-clock
    /// actor-runtime deployment (sub-second windows/epochs/renewals).
    #[test]
    fn lifecycle_interleaving_reclaims_on_cluster(seed in any::<u64>()) {
        use pier_core::NodeRequest;
        use pier_simnet::{Cluster, Deployment};
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC1C5);
        let n = 3usize;
        let n_tenants = 3usize;
        let kinds: Vec<TenantKind> =
            (0..n_tenants).map(|t| KINDS[(t + rng.gen_range(0..3usize)) % 3]).collect();
        let scale_us = 20_000; // tenant units are 20 ms wall-clock
        let mut cfg = DhtConfig::static_network();
        cfg.tick = Dur::from_millis(100);
        let states = pier_dht::can::balanced_overlay(n, cfg.dims, Time::ZERO);
        let apps: Vec<PierNode> = states
            .into_iter()
            .enumerate()
            .map(|(i, st)| {
                PierNode::with_dht(pier_dht::Dht::with_can(cfg.clone(), i as NodeId, st), None)
            })
            .collect();
        let mut cluster = Cluster::spawn(apps, seed);
        let mut next_id = 0i64;
        for ev in interleaving(&mut rng, n_tenants) {
            cluster.settle(Dur::from_millis(rng.gen_range(20..60u64)));
            match ev {
                LifecycleEvent::Install(t) => {
                    let desc = tenant_desc(kinds[t], 400 + t as u64, &mut rng, scale_us);
                    cluster.cast(0, NodeRequest::Submit(Box::new(desc)));
                }
                LifecycleEvent::Publish => {
                    let (table, row) = random_row(&mut rng, &mut next_id);
                    let publisher = rng.gen_range(0..n) as NodeId;
                    cluster.cast(publisher, NodeRequest::PublishRowsFor {
                        tenant: 0,
                        table,
                        rows: vec![row],
                        pkey_col: 0,
                        lifetime: Dur::from_secs(100_000),
                    });
                }
                LifecycleEvent::Uninstall(t) => {
                    cluster.cast(0, NodeRequest::Cancel(400 + t as u64));
                }
            }
        }
        // One horizon (50 × 20 ms = 1 s) plus sweep ticks and margin.
        cluster.settle(Dur::from_millis(TENANT_HORIZON_UNITS * 20 + 500));
        for i in 0..n as NodeId {
            let (installed, requests, residuals) = cluster
                .request(i, NodeRequest::LifecycleAudit {
                    qids: (0..n_tenants).map(|t| 400 + t as u64).collect(),
                    max_stages: 2,
                })
                .expect("node alive")
                .into_audit();
            prop_assert_eq!(installed, 0, "node {} registry", i);
            prop_assert_eq!(requests, 0, "node {} requests", i);
            for (t, left) in residuals.into_iter().enumerate() {
                prop_assert_eq!(left, 0, "node {} tenant {} residual {}", i, t, left);
            }
        }
        cluster.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// End-to-end: a grouped aggregate over a NULL-bearing column,
    /// executed on a simulated overlay with every AggFunc at once,
    /// equals the centralized reference.
    #[test]
    fn null_bearing_aggregates_end_to_end(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE2E);
        let rows: Vec<Tuple> = (0..rng.gen_range(10..40i64))
            .map(|i| {
                let v = if rng.gen_range(0..3) == 0 {
                    Value::Null
                } else {
                    Value::I64(rng.gen_range(-20..20i64))
                };
                pier_core::tuple![i, i % 3, v]
            })
            .collect();
        let scan = ScanSpec::new("vals", 3, 0);
        let mut calls = all_calls();
        for c in &mut calls {
            if let Some(arg) = &mut c.arg {
                *arg = Expr::col(2);
            }
        }
        let agg = AggSpec::new(vec![1], calls);
        let op = QueryOp::Agg { scan, agg };
        let mut tables = HashMap::new();
        tables.insert("vals".to_string(), rows.clone());
        let expected = reference_eval(&op, &tables);

        let mut sim =
            stabilized_pier_sim(8, DhtConfig::static_network(), NetConfig::latency_only(seed));
        publish_round_robin(&mut sim, "vals", &rows, 0, Dur::from_secs(100_000));
        settle_publish(&mut sim);
        let desc = QueryDesc::one_shot(72, 0, op);
        let results = rows_of(&run_query(&mut sim, 0, desc, Dur::from_secs(30)));
        prop_assert!(
            same_multiset(&expected, &results),
            "seed {seed}: expected {expected:?} got {results:?}"
        );
    }
}
