//! Per-layer micro-operations: the unit costs under the end-to-end
//! numbers, each measured on inputs shaped like the workloads'. Every
//! figure is CPU time (steal-free), the minimum over at least twenty
//! batches — interference only adds, so the minimum is the cost.

use std::hint::black_box;

use pier_core::agg::GroupAccs;
use pier_core::optimizer::{CostParams, Objective};
use pier_core::plan::{AggCall, AggFunc, JoinStrategy};
use pier_core::sql::parse_continuous_query;
use pier_core::tuple::FlatRow;
use pier_core::{plan_sql, price_query, BloomFilter, Catalog, Expr, TableRate, Tuple};
use pier_dht::can::balanced_overlay;
use pier_dht::chord::{balanced_chord_overlay, ring_of_key};
use pier_dht::geom::Point;
use pier_dht::harness::{stabilized_can_sim, DhtNode};
use pier_dht::{CtxEnv, Dht, DhtConfig, Entry, RecordingEnv, StorageManager, DHT_TICK_TOKEN};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{App, Cluster, Ctx, NetConfig, NodeId, Service, ShardMap, ShardedSim, Sim, Wire};
use pier_workload::{intrusion, RsParams, RsWorkload};

use crate::host::{cpu_seconds, Stamp};

const BATCHES: usize = 24;

/// Minimum CPU nanoseconds per operation over [`BATCHES`] batches;
/// `batch` returns how many operations it performed.
fn min_ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    min_ns_per_op_with(|| (), |()| batch())
}

/// [`min_ns_per_op`] with an untimed per-batch set-up.
fn min_ns_per_op_with<S>(mut setup: impl FnMut() -> S, mut batch: impl FnMut(S) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let input = setup();
        let t0 = cpu_seconds();
        let ops = batch(input);
        let dt = cpu_seconds() - t0;
        best = best.min(dt * 1e9 / ops.max(1) as f64);
    }
    best
}

// ---------------------------------------------------------------------
// pier_simnet
// ---------------------------------------------------------------------

/// A message of fixed wire size and no content.
#[derive(Clone)]
struct Blank(usize);

impl Wire for Blank {
    fn wire_size(&self) -> usize {
        self.0
    }
}

/// The null application: every node keeps one message bouncing to a
/// fixed partner (or one timer re-arming), so the engine's queue,
/// dispatch and link model are all the work there is.
struct Echo {
    partner: NodeId,
    bytes: usize,
    timers: bool,
}

impl App for Echo {
    type Msg = Blank;

    fn on_start(&mut self, ctx: &mut Ctx<Blank>) {
        if self.timers {
            ctx.set_timer(Dur::from_millis(100), 0);
        } else {
            ctx.send(self.partner, Blank(self.bytes));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<Blank>, _from: NodeId, msg: Blank) {
        ctx.send(self.partner, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Blank>, token: u64) {
        ctx.set_timer(Dur::from_millis(100), token);
    }
}

impl Service for Echo {
    type Req = ();
    type Resp = ();

    fn on_request(&mut self, _ctx: &mut Ctx<Blank>, _req: ()) {}
}

fn echo_nodes(n: usize, bytes: usize, timers: bool) -> impl Iterator<Item = Echo> {
    // A node must not be its own partner: loopback has no latency, so
    // the bounce would never let the clock advance.
    assert!(timers || n > 2);
    (0..n).map(move |i| Echo {
        // A fixed far partner at an odd offset: traffic crosses the id
        // space and, on a round-robin sharded engine, the shards.
        partner: ((i + n / 2 + 1) % n) as NodeId,
        bytes,
        timers,
    })
}

fn echo_sim(n: usize, net: NetConfig, bytes: usize, timers: bool) -> Sim<Echo> {
    let mut sim = Sim::new(net);
    for node in echo_nodes(n, bytes, timers) {
        sim.add_node(node);
    }
    sim
}

/// CPU ns per engine event of an `n`-node echo run; each batch advances
/// the clock far enough for about 10^5 events.
fn event_ns(n: usize, net: NetConfig, bytes: usize, timers: bool) -> f64 {
    let mut sim = echo_sim(n, net, bytes, timers);
    // One event per node per 100 ms of simulated time.
    let step = Dur::from_millis((100_000 / n as u64).max(1) * 100);
    sim.run_for(step);
    min_ns_per_op(|| {
        let before = sim.events_processed();
        sim.run_for(step);
        sim.events_processed() - before
    })
}

/// CPU (`.0`) and wall (`.1`) ratios of the sharded engine to the
/// sequential one on the same 10^4-node echo run, at W = 1 and W = 2.
fn sharded_ratios() -> (f64, f64) {
    const N: usize = 10_000;
    let step = Dur::from_secs(1);
    let best = |run: &mut dyn FnMut() -> u64| {
        let (mut cpu, mut wall, mut events) = (f64::INFINITY, f64::INFINITY, 0);
        for _ in 0..8 {
            let t0 = Stamp::now();
            events = run();
            let t1 = Stamp::now();
            cpu = cpu.min(t1.cpu_since(&t0));
            wall = wall.min(t1.wall_since(&t0));
        }
        (cpu, wall, events)
    };
    let mut seq = echo_sim(N, NetConfig::latency_only(1), 64, false);
    let (seq_cpu, seq_wall, seq_events) = best(&mut || {
        let before = seq.events_processed();
        seq.run_for(step);
        seq.events_processed() - before
    });
    let sharded = |w: usize| {
        let mut sim = ShardedSim::new(NetConfig::latency_only(1), ShardMap::round_robin(w));
        for node in echo_nodes(N, 64, false) {
            sim.add_node(node);
        }
        let (cpu, wall, events) = best(&mut || {
            let before = sim.events_processed();
            sim.run_for(step);
            sim.events_processed() - before
        });
        assert_eq!(events, seq_events, "W={w} must process the same events");
        (cpu, wall)
    };
    (sharded(1).0 / seq_cpu, sharded(2).1 / seq_wall)
}

/// Median round trip of 10 000 typed requests to one actor of a 2-node
/// `Cluster`, wall µs (a thread hand-off has no CPU-time meaning).
fn cluster_request_rtt_us() -> f64 {
    let cluster = Cluster::spawn(echo_nodes(2, 64, true).collect(), 1);
    let handle = cluster.handle(1).expect("node 1 exists");
    let mut rtts: Vec<f64> = (0..10_000)
        .map(|_| {
            let t0 = std::time::Instant::now();
            handle.request(()).expect("live node answers");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    cluster.shutdown();
    rtts.sort_by(f64::total_cmp);
    rtts[rtts.len() / 2]
}

// ---------------------------------------------------------------------
// pier_dht
// ---------------------------------------------------------------------

/// `join_wan` stores 45 056 base rows on 256 nodes.
const ITEMS_PER_NODE: u64 = 176;
const BASE_NS: u64 = 0xBA5E;

fn entries() -> Vec<Entry<Vec<u8>>> {
    (0..ITEMS_PER_NODE)
        .map(|k| Entry {
            ns: BASE_NS,
            rid: k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            iid: k as u32,
            key: k,
            expires: Time::MAX,
            val: vec![0u8; 1000],
        })
        .collect()
}

fn filled_store() -> StorageManager<Vec<u8>> {
    let mut store = StorageManager::new();
    for e in entries() {
        store.store(e);
    }
    store
}

/// A static overlay whose maintenance tick never fires inside a
/// measurement, so a DHT-only sim does nothing but the operation timed
/// (`dht.idle_tick_ns` prices the tick on its own).
fn tickless() -> DhtConfig {
    DhtConfig {
        tick: Dur::from_secs(1_000_000),
        ..DhtConfig::static_network()
    }
}

/// A routed put on a 256-node DHT-only sim: CPU µs per put, from the
/// provider call to the last event it causes.
fn put_e2e_us() -> f64 {
    const PUTS: u64 = 200;
    let mut sim: Sim<DhtNode<Vec<u8>>> =
        stabilized_can_sim(256, tickless(), NetConfig::paper_baseline(1));
    let mut rid = 0u64;
    min_ns_per_op(|| {
        for k in 0..PUTS {
            rid += 1;
            sim.with_app((k % 256) as NodeId, |node, ctx| {
                let mut env = CtxEnv { ctx };
                let mut events = Vec::new();
                node.dht.put(
                    &mut env,
                    BASE_NS,
                    rid,
                    0,
                    vec![0u8; 1000],
                    Dur::from_secs(100_000),
                    &mut events,
                );
            });
        }
        sim.run_for(Dur::from_secs(10));
        PUTS
    }) / 1e3
}

/// The measured unit costs, by metric name (units are the catalogue's).
pub struct Micro {
    rows: Vec<(&'static str, f64)>,
}

impl Micro {
    pub fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

/// Measure every micro-operation. Takes a few seconds.
pub fn measure() -> Micro {
    // -- pier_simnet --------------------------------------------------
    let latency_only = || NetConfig::latency_only(1);
    let mut rows = vec![
        (
            "simnet.event_ns_n100",
            event_ns(100, latency_only(), 64, false),
        ),
        (
            "simnet.event_ns_n10000",
            event_ns(10_000, latency_only(), 64, false),
        ),
        ("simnet.timer_ns", event_ns(100, latency_only(), 64, true)),
        (
            "simnet.bw_event_ns",
            event_ns(100, NetConfig::paper_baseline(1), 1000, false),
        ),
    ];
    let (w1_cpu, w2_wall) = sharded_ratios();
    rows.push(("simnet.sharded.w1_cpu_ratio", w1_cpu));
    rows.push(("simnet.sharded.w2_wall_ratio", w2_wall));
    rows.push(("simnet.cluster.request_rtt_us", cluster_request_rtt_us()));

    // -- pier_dht -----------------------------------------------------
    let mut build_ms = f64::INFINITY;
    let mut can = Vec::new();
    for _ in 0..3 {
        let t0 = cpu_seconds();
        can = balanced_overlay(10_000, 4, Time::ZERO);
        build_ms = build_ms.min((cpu_seconds() - t0) * 1e3);
    }
    rows.push(("dht.overlay_build_ms_10k", build_ms));
    let mut key = 0u64;
    rows.push((
        "dht.can_next_hop_ns",
        min_ns_per_op(|| {
            let mut hops = 0u64;
            for _ in 0..200 {
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let p = Point::from_key(key, 4);
                let mut cur = 0usize;
                while !can[cur].owns_point(p) {
                    cur = can[cur].next_hop(p).expect("a balanced overlay routes") as usize;
                    hops += 1;
                }
            }
            black_box(hops)
        }),
    ));
    // One maintenance tick of an idle node of that overlay — the handler
    // alone, no engine: on a static network it sweeps the (empty) store
    // and re-arms itself. All 10^4 nodes tick in turn, as they do twice
    // a simulated second in the workloads, so each tick finds its node's
    // state cold.
    let mut idle: Vec<Dht<Vec<u8>>> = can
        .drain(..)
        .enumerate()
        .map(|(id, state)| Dht::with_can(DhtConfig::static_network(), id as NodeId, state))
        .collect();
    let mut env = RecordingEnv::new(0);
    let mut events = Vec::new();
    rows.push((
        "dht.idle_tick_ns",
        min_ns_per_op(|| {
            env.timers.clear();
            for dht in &mut idle {
                assert!(dht.handle_timer(&mut env, DHT_TICK_TOKEN, &mut events));
            }
            idle.len() as u64
        }),
    ));
    drop(idle);
    let ring = balanced_chord_overlay(10_000, Time::ZERO);
    rows.push((
        "dht.chord_step_ns",
        min_ns_per_op(|| {
            let mut steps = 0u64;
            for _ in 0..200 {
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let pos = ring_of_key(key);
                let mut cur = 0usize;
                loop {
                    steps += 1;
                    match ring[cur].find_succ_step(pos) {
                        Ok(found) => {
                            black_box(found);
                            break;
                        }
                        Err(next) => cur = next as usize,
                    }
                }
            }
            steps
        }),
    ));
    drop(ring);
    rows.push((
        "dht.store_put_ns",
        min_ns_per_op_with(entries, |batch| {
            let mut store = StorageManager::new();
            for e in batch {
                store.store(e);
            }
            black_box(store.len()) as u64
        }),
    ));
    let mut store = filled_store();
    rows.push((
        "dht.store_get_ns",
        min_ns_per_op(|| {
            let mut found = 0;
            for k in 0..ITEMS_PER_NODE {
                found += store
                    .get(BASE_NS, black_box(k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .len();
            }
            assert_eq!(found as u64, ITEMS_PER_NODE);
            ITEMS_PER_NODE
        }),
    ));
    rows.push((
        "dht.store_lscan_ns_per_item",
        min_ns_per_op(|| {
            store
                .lscan(black_box(BASE_NS))
                .map(|e| black_box(e).val.len().min(1) as u64)
                .sum()
        }),
    ));
    // The maintenance tick's sweep in its common case: every item is
    // visited and none has expired.
    rows.push((
        "dht.store_sweep_ns_per_item",
        min_ns_per_op(|| {
            let removed = store.sweep_expired(black_box(Time::ZERO + Dur::from_secs(1)));
            assert_eq!(removed, 0);
            ITEMS_PER_NODE
        }),
    ));
    rows.push(("dht.put_e2e_us", put_e2e_us()));
    let mut mcast_sim: Sim<DhtNode<Vec<u8>>> =
        stabilized_can_sim(10_000, tickless(), NetConfig::latency_only(1));
    rows.push((
        "dht.mcast_e2e_ms_10k",
        min_ns_per_op(|| {
            mcast_sim.with_app(0, |node, ctx| {
                let mut env = CtxEnv { ctx };
                node.dht.multicast(&mut env, vec![1, 2, 3], &mut Vec::new());
            });
            mcast_sim.run_for(Dur::from_secs(30));
            1
        }) / 1e6,
    ));
    drop(mcast_sim);

    // -- pier_core ----------------------------------------------------
    let wl = RsWorkload::generate(RsParams {
        s_rows: 40,
        ..Default::default()
    });
    let n_rows = wl.r.len() as u64;
    let mut buf = Vec::new();
    rows.push((
        "core.tuple_encode_ns",
        min_ns_per_op(|| {
            for t in &wl.r {
                buf.clear();
                t.encode_into(&mut buf);
                black_box(&buf);
            }
            n_rows
        }),
    ));
    let flat: Vec<FlatRow> = wl.r.iter().map(FlatRow::from_tuple).collect();
    rows.push((
        "core.tuple_decode_ns",
        min_ns_per_op(|| {
            for f in &flat {
                black_box(Tuple::decode_from(f.encoded()));
            }
            n_rows
        }),
    ));
    rows.push((
        "core.flatrow_from_tuple_ns",
        min_ns_per_op(|| {
            for t in &wl.r {
                black_box(FlatRow::from_tuple(t));
            }
            n_rows
        }),
    ));
    let spec = wl.join_spec(JoinStrategy::SymmetricHash);
    let pred = spec.left.pred.clone().expect("the workload filters R");
    rows.push((
        "core.expr_matches_ns",
        min_ns_per_op(|| {
            let hits = wl.r.iter().filter(|t| pred.matches(black_box(t))).count();
            black_box(hits);
            n_rows
        }),
    ));
    // The tenant triage aggregate: count(*), max(severity).
    let calls = [
        AggCall {
            func: AggFunc::Count,
            arg: None,
        },
        AggCall {
            func: AggFunc::Max,
            arg: Some(Expr::col(2)),
        },
    ];
    rows.push((
        "core.agg_update_ns",
        min_ns_per_op(|| {
            let mut accs = GroupAccs::new(&calls);
            for t in &wl.r {
                accs.update(&calls, black_box(t));
            }
            black_box(accs);
            n_rows
        }),
    ));
    let mut partial = GroupAccs::new(&calls);
    partial.update(&calls, &wl.r[0]);
    rows.push((
        "core.agg_merge_ns",
        min_ns_per_op(|| {
            let mut accs = GroupAccs::new(&calls);
            for _ in 0..n_rows {
                accs.merge(black_box(&partial));
            }
            black_box(accs);
            n_rows
        }),
    ));
    let mut bloom = BloomFilter::for_capacity(10_000);
    rows.push((
        "core.bloom_insert_ns",
        min_ns_per_op(|| {
            for _ in 0..1000 {
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                bloom.insert(black_box(key));
            }
            1000
        }),
    ));
    rows.push((
        "core.bloom_contains_ns",
        min_ns_per_op(|| {
            let mut hits = 0u64;
            for _ in 0..1000 {
                key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                hits += bloom.contains(black_box(key)) as u64;
            }
            black_box(hits);
            1000
        }),
    ));
    let workload_catalog = Catalog::workload();
    let cost = CostParams::paper_baseline(256.0);
    rows.push((
        "core.sql_plan_us",
        min_ns_per_op(|| {
            for _ in 0..20 {
                black_box(
                    plan_sql(
                        "SELECT R.pkey, S.pkey, R.pad FROM R, S \
                         WHERE R.num1 = S.pkey AND R.num2 > 50 AND S.num2 > 50 \
                         AND f(R.num3, S.num3) > 30",
                        &workload_catalog,
                        &cost,
                        Objective::Latency,
                    )
                    .expect("the workload join plans"),
                );
            }
            20
        }) / 1e3,
    ));
    let intrusion_catalog = Catalog::intrusion();
    let triage = intrusion::tenant_triage_sql(3, 30, 40);
    let parse_triage = || {
        parse_continuous_query(
            &triage,
            &intrusion_catalog,
            JoinStrategy::SymmetricHash,
            1,
            0,
        )
        .expect("tenant SQL")
    };
    rows.push((
        "core.sql_continuous_us",
        min_ns_per_op(|| {
            for _ in 0..20 {
                black_box(parse_triage());
            }
            20
        }) / 1e3,
    ));
    let desc = parse_triage();
    rows.push((
        "core.price_query_us",
        min_ns_per_op(|| {
            for _ in 0..100 {
                black_box(price_query(black_box(&desc), &|_| TableRate::default()));
            }
            100
        }) / 1e3,
    ));
    let wl100 = RsWorkload::generate(RsParams::default());
    let spec100 = wl100.join_spec(JoinStrategy::SymmetricHash);
    rows.push((
        "core.reference_join_ms",
        min_ns_per_op(|| {
            black_box(pier_core::semantics::reference_join(
                &spec100, &wl100.r, &wl100.s,
            ));
            1
        }) / 1e6,
    ));

    Micro { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_run_is_one_event_per_node_per_latency() {
        let mut sim = echo_sim(10, NetConfig::latency_only(1), 64, false);
        sim.run_for(Dur::from_secs(10));
        // 100 ms links: each node's message is delivered 100 times.
        assert_eq!(sim.events_processed(), 10 * 100);
        let mut timers = echo_sim(10, NetConfig::latency_only(1), 64, true);
        timers.run_for(Dur::from_secs(10));
        assert_eq!(timers.events_processed(), 10 * 100);
        assert_eq!(timers.stats().messages, 0);
    }

    #[test]
    fn timing_helper_reports_the_fastest_batch_per_op() {
        let mut calls = 0;
        let ns = min_ns_per_op(|| {
            calls += 1;
            let mut x = 0u64;
            for i in 0..10_000u64 {
                x = black_box(x.wrapping_add(i));
            }
            black_box(x);
            10_000
        });
        assert_eq!(calls, BATCHES);
        assert!(ns > 0.0 && ns < 1000.0, "{ns} ns per add");
    }

    #[test]
    fn store_fixture_has_the_stated_shape() {
        let store = filled_store();
        assert_eq!(store.len() as u64, ITEMS_PER_NODE);
        assert_eq!(store.lscan(BASE_NS).count() as u64, ITEMS_PER_NODE);
    }
}
