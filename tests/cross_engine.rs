//! Cross-engine parity: the same seeded run must come out the same on
//! every backend — the one-core simulator, the simulator partitioned
//! over several cores, and the wall-clock actor-runtime cluster. All of
//! them drive the same `PierNode` automaton, so any divergence is an
//! engine bug, not query-processor behavior.
//!
//! Each test is one body, generic over [`Deployment`], instantiated per
//! backend; nodes are reached through typed requests only.

use pier::qp::plan::JoinStrategy;
use pier::qp::semantics::same_multiset;
use pier::qp::testkit::*;
use pier::qp::{NodeRequest, PierNode, Tuple};
use pier::simnet::time::{Dur, Time};
use pier::simnet::{
    App, Cluster, Ctx, Deployment, FaultDriver, FaultScript, NetConfig, NetStats, NodeId,
    Scheduled, Service, ShardMap, ShardedSim, Sim, Wire,
};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::DhtConfig;

fn lifetime() -> Dur {
    Dur::from_secs(100_000)
}

fn sim(n: usize, seed: u64) -> Sim<PierNode> {
    stabilized_pier_sim(
        n,
        DhtConfig::static_network(),
        NetConfig::latency_only(seed),
    )
}

fn sharded(n: usize, seed: u64, w: usize) -> Sim<PierNode> {
    stabilized_pier_sharded(
        n,
        DhtConfig::static_network(),
        NetConfig::latency_only(seed),
        ShardMap::round_robin(w),
    )
}

fn cluster(n: usize, seed: u64) -> Cluster<PierNode> {
    stabilized_pier_cluster(n, DhtConfig::static_network(), seed)
}

/// Publish the workload's tables from their home nodes, run its join
/// from node 0, and return the rows. `tick` is the backend's time
/// scale: how long a publish or a result needs to cross the network.
fn workload_join(mut net: impl Deployment<PierNode>, wl: &RsWorkload, tick: Dur) -> Vec<Tuple> {
    publish_by_request(&mut net, "R", &wl.r, 0, lifetime());
    publish_by_request(&mut net, "S", &wl.s, 0, lifetime());
    net.settle(tick.saturating_mul(8));
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    rows_of(&run_query_by_request(&mut net, 0, desc, tick))
}

#[test]
fn sim_and_cluster_agree_on_the_workload_join() {
    let wl = RsWorkload::generate(RsParams {
        s_rows: 15,
        seed: 77,
        ..Default::default()
    });
    let n = 6;
    let expected = wl.expected(JoinStrategy::SymmetricHash);
    assert!(!expected.is_empty());
    // Simulated links take 100 ms, channels microseconds.
    let second = Dur::from_secs(1);
    let runs = [
        ("sim", workload_join(sim(n, 77), &wl, second)),
        ("sim W=2", workload_join(sharded(n, 77, 2), &wl, second)),
        (
            "cluster",
            workload_join(cluster(n, 77), &wl, Dur::from_millis(50)),
        ),
    ];
    // Each backend matches the centralized reference, and therefore
    // every other: identical multisets across engines.
    for (backend, rows) in &runs {
        assert!(
            same_multiset(&expected, rows),
            "{backend} vs reference: {} vs {}",
            rows.len(),
            expected.len()
        );
    }
}

/// A replacement automaton for `id` — a fresh process at the same
/// address, the newcomer of a `Fault::Join` on any backend.
fn replacement_node(id: NodeId, n: usize) -> PierNode {
    stabilized_pier_nodes(n, &DhtConfig::static_network()).swap_remove(id as usize)
}

/// Replay `script` to its end on idle PIER nodes (no query traffic
/// needed) and return the driver's trace.
fn replayed_trace(mut net: impl Deployment<PierNode>, script: &FaultScript) -> Vec<Scheduled> {
    let n = net.node_count();
    let mut drv = FaultDriver::new(script.clone());
    let t0 = net.now();
    drv.replay(&mut net, t0, |id| replacement_node(id, n));
    for v in script.killed() {
        assert!(net.alive(v), "node {v} must be back up after its Join");
    }
    drv.trace().to_vec()
}

/// The same seeded fault script, replayed on the virtual-clock simulator
/// (at any width) and on the wall-clock cluster, must leave
/// byte-identical traces: the trace records *script* time, so neither
/// the backend's clock nor its scheduling shows through. This is what
/// makes a churn experiment reproducible across the paper's "same code,
/// simulated or deployed" split.
#[test]
fn fault_scripts_replay_identically_on_both_engines() {
    let candidates: Vec<NodeId> = (1..6).collect();
    // Kills with scheduled rejoins of replacement nodes, plus a drop
    // window — all three fault kinds replay on every backend.
    let script = FaultScript::churn_with_rejoin(
        4242,
        Dur::from_secs(2),
        3,
        &candidates,
        Dur::from_millis(450),
    )
    .with_drop_window(0, Dur::from_millis(300), Dur::from_millis(700));
    assert_eq!(script.killed().len(), 3);
    assert_eq!(script.joined().len(), 3);

    let sim_trace = replayed_trace(sim(6, 1), &script);
    assert_eq!(sim_trace.len(), script.events().len());
    for w in [2, 4] {
        assert_eq!(
            sim_trace,
            replayed_trace(sharded(6, 1, w), &script),
            "W={w}"
        );
    }
    assert_eq!(
        sim_trace,
        replayed_trace(cluster(6, 1), &script),
        "identical seed + script must trace identically on both engines"
    );
}

/// A silent automaton: it never sends on its own, so in the parity test
/// below every counter movement is caused by an explicit probe.
struct Quiet;

#[derive(Clone, Debug)]
struct Probe;
impl Wire for Probe {
    fn wire_size(&self) -> usize {
        64
    }
}

impl App for Quiet {
    type Msg = Probe;
    fn on_start(&mut self, _ctx: &mut Ctx<Probe>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<Probe>, _from: NodeId, _msg: Probe) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<Probe>, _token: u64) {}
}

/// The one probe request: emit a `Probe` toward each destination, from
/// inside the node — so the sends cross the network exactly as
/// automaton traffic does.
impl Service for Quiet {
    type Req = Vec<NodeId>;
    type Resp = ();

    fn on_request(&mut self, ctx: &mut Ctx<Probe>, dsts: Vec<NodeId>) {
        for dst in dsts {
            ctx.send(dst, Probe);
        }
    }
}

/// One scripted kill of node 2, plus a drop window [300 ms, 700 ms) on
/// node 3. Probes: node 0 sends into the open window at script time
/// 500 ms, then to a live node and the dead node at the end.
fn classified(mut net: impl Deployment<Quiet>) -> NetStats {
    let script = FaultScript::churn(4242, Dur::from_secs(1), 1, &[2]).with_drop_window(
        3,
        Dur::from_millis(300),
        Dur::from_millis(400),
    );
    assert_eq!(script.killed(), vec![2]);
    let no_joins = |_| -> Quiet { unreachable!("script schedules no joins") };
    let mut drv = FaultDriver::new(script);
    let t0 = net.now();
    let mid = Dur::from_millis(500);
    net.settle(mid);
    drv.advance(mid, |f| net.apply(f, no_joins));
    net.request(0, vec![3]).unwrap();
    // The rest of the script: settling to the window's end classifies
    // the probe before the window heals.
    drv.replay(&mut net, t0, no_joins);
    net.request(0, vec![1, 2]).unwrap();
    net.settle(Dur::from_millis(200));
    net.stats()
}

/// Every backend must *classify* identical sends identically under the
/// same seeded `FaultScript`: a send to a live peer is traffic, a send
/// to a killed node is `dropped_to_failed`, a send into an open drop
/// window is `dropped_in_window`.
#[test]
fn stats_classify_identically_on_both_engines() {
    let quiet_sim = |mut sim: Sim<Quiet>| {
        for _ in 0..4 {
            sim.add_node(Quiet);
        }
        sim
    };
    let counts = |s: NetStats| {
        (
            s.messages,
            s.bytes,
            s.dropped_to_failed,
            s.dropped_in_window,
        )
    };
    let one_core = classified(quiet_sim(Sim::new(NetConfig::latency_only(7))));
    let two_cores = classified(quiet_sim(ShardedSim::new(
        NetConfig::latency_only(7),
        ShardMap::round_robin(2),
    )));
    let threads = classified(Cluster::spawn(vec![Quiet, Quiet, Quiet, Quiet], 7));
    assert_eq!(counts(one_core.clone()), (1, 64, 1, 1));
    assert_eq!(one_core, two_cores);
    assert_eq!(one_core, threads);
}

/// Everything observable of one scripted run: the fault trace, result
/// rows, traffic counters, and the final clock.
type Observed = (Vec<Scheduled>, Vec<Tuple>, NetStats, Time);

/// A live query workload under a churn script, driven through typed
/// requests only.
fn churned_join(
    mut net: impl Deployment<PierNode>,
    wl: &RsWorkload,
    script: &FaultScript,
) -> Observed {
    let n = net.node_count();
    publish_by_request(&mut net, "R", &wl.r, 0, lifetime());
    publish_by_request(&mut net, "S", &wl.s, 0, lifetime());
    net.settle(Dur::from_secs(8));
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    net.request(0, NodeRequest::Submit(Box::new(desc)));
    let mut drv = FaultDriver::new(script.clone());
    let t0 = net.now();
    drv.replay(&mut net, t0, |id| replacement_node(id, n));
    net.settle(Dur::from_secs(20));
    let rows = net
        .request(0, NodeRequest::TimedResults(1))
        .map(|r| r.into_timed_results())
        .unwrap_or_default()
        .into_iter()
        .map(|(_, row)| row)
        .collect();
    (drv.trace().to_vec(), rows, net.stats(), net.now())
}

/// The sharded engine's determinism pin: one seeded churn-with-rejoin
/// script over a live query workload must produce **byte-identical**
/// stats, fault traces, and result rows under W ∈ {1, 2, 4} shards and
/// on the one-core `Sim`. This is the contract that lets the scale-up
/// benchmarks swap engines freely.
#[test]
fn churn_scripts_are_byte_identical_under_sharding() {
    const N: usize = 12;
    let wl = RsWorkload::generate(RsParams {
        s_rows: 12,
        seed: 99,
        ..Default::default()
    });
    let script = FaultScript::churn_with_rejoin(
        7,
        Dur::from_secs(40),
        3,
        &(1..N as NodeId).collect::<Vec<_>>(),
        Dur::from_secs(6),
    )
    .with_drop_window(0, Dur::from_secs(10), Dur::from_secs(5));

    let seq = churned_join(sim(N, 5), &wl, &script);
    assert!(!seq.1.is_empty(), "workload must produce results");
    assert_eq!(seq.0.len(), script.events().len());

    for w in [1usize, 2, 4] {
        let sharded = churned_join(sharded(N, 5, w), &wl, &script);
        assert_eq!(seq.0, sharded.0, "fault traces diverge at W={w}");
        assert_eq!(seq.1, sharded.1, "result rows diverge at W={w}");
        assert_eq!(seq.2, sharded.2, "traffic counters diverge at W={w}");
        assert_eq!(seq.3, sharded.3, "clocks diverge at W={w}");
    }
}
