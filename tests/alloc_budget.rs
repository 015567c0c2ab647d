//! Allocation budgets of the message plane, counted by this binary's own
//! `#[global_allocator]`: the engine's steady state allocates nothing, a
//! burst of sends holds one copy of each message, a query install
//! multicast shares one descriptor among all nodes, a CAN
//! keepalive shares one neighbour map among all neighbours and allocates
//! nothing else, a node's zone list is one allocation however many
//! neighbours and maps hold it, a resting overlay stays inside a
//! bytes-per-node budget, a small join inside a pinned bytes-per-event
//! budget, a row is read where it lies — a scan
//! allocates nothing for a row its predicate turns away, and a `newData`
//! upcall nobody registered for is not built — a group is built once
//! and handed on: renewing an unchanged group's partial allocates
//! nothing, a changed one copies its accumulators once, and a harvested
//! result costs the row that leaves — and rows stay encoded from the
//! store to the sink: a rehashed row costs the row it ships, a probe
//! match what it republishes, and a row folded into an existing group
//! nothing — and a query has one plan: a node installing a join does
//! not build it, and a Bloom filter is set and tested in place — and an
//! upcall is drained, not dropped: its list comes from a per-thread
//! pool, and a probe walks its partners where they lie — and a stored
//! item costs its slot in the store's one ordered map, with no container
//! of its own — and rows encoded together share one buffer: a rehash, a
//! publish and an emission cost a buffer each, not a row each, and an
//! empty batch costs nothing — and an oracle reads rows where they lie:
//! the epoch oracle copies no row its scan rejects — and the initiator
//! keeps its results encoded until a client drains them: a standing
//! query drained every epoch holds the initiator's live bytes flat —
//! and a provider's tables hold what is in them: a node whose lookups
//! were answered and which heard a multicast holds not a byte more for
//! either.
//!
//! The counters are per thread. The test harness runs every test on a
//! thread of its own and a one-core `Sim` runs on its caller's, so the
//! tests of this binary do not see each other's allocations. A node's
//! scratch buffers are per thread too, so a test that compares two sims
//! runs [`warm_up`] first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pier::qp::agg::GroupAccs;
use pier::qp::expr::{Expr, Func};
use pier::qp::plan::{
    qns, AggCall, AggFunc, AggSpec, JoinSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec, Tenure,
};
use pier::qp::semantics::{reference_epochs_at, same_multiset, TimedRows};
use pier::qp::sql::parse_continuous_query;
use pier::qp::testkit::*;
use pier::qp::tuple::{FlatRow, RowBatch};
use pier::qp::{
    tuple, BloomFilter, Catalog, NodeRequest, PierMsg, PierNode, QpItem, Side, Tuple, Value,
};
use pier::simnet::time::{Dur, Time};
use pier::simnet::topology::FullMesh;
use pier::simnet::{App, Ctx, Deployment, NetConfig, NodeId, ShardMap, ShardedSim, Sim, Wire};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::can::CanState;
use pier_dht::harness::{stabilized_can_sim, DhtNode};
use pier_dht::{key_of, ns_of, CtxEnv, DhtConfig, DhtEvent, DhtMsg, Entry, Overlay};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: requested minus released (wrapping, so a
    /// block freed on another thread than it came from cannot panic).
    static LIVE: Cell<u64> = const { Cell::new(0) };
    /// `LIVE` when [`peak_held`] started, and the most `LIVE` has risen
    /// above it since.
    static BASE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocator request. `try_with`: the allocator still runs
/// while a thread tears down, after its thread-locals are gone.
fn note(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = LIVE.try_with(|c| {
        c.set(c.get().wrapping_add(size as u64));
        let above = c.get().wrapping_sub(BASE.get()) as i64;
        PEAK.set(PEAK.get().max(above));
    });
}

fn note_freed(size: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get().wrapping_sub(size as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised `Cell` thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_freed(layout.size());
        // SAFETY: `ptr` and `layout` come from this allocator, that is
        // from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_freed(layout.size());
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations + reallocations, bytes requested)` by this thread while
/// `f` ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.get(), BYTES.get());
    let r = f();
    (r, ALLOCS.get() - a0, BYTES.get() - b0)
}

// ---------------------------------------------------------------------
// (i) the engine's steady state
// ---------------------------------------------------------------------

/// The DHT's maintenance period: 30.5 calendar-queue buckets (2^14 µs
/// each), so successive firings land in slots of the 4096-slot ring that
/// no earlier one touched, for 1024 periods on end.
const PERIOD: Dur = Dur(500_000);
const LATENCY: Dur = Dur(100_000);

#[derive(Clone, Debug)]
enum Ball {
    Ping,
    Pong,
}

impl Wire for Ball {
    fn wire_size(&self) -> usize {
        100
    }
}

/// Every period: ping the partner and re-arm; pings are echoed.
struct TimerEcho {
    partner: NodeId,
}

impl App for TimerEcho {
    type Msg = Ball;
    fn on_start(&mut self, ctx: &mut Ctx<Ball>) {
        ctx.set_timer(PERIOD, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<Ball>, from: NodeId, msg: Ball) {
        if let Ball::Ping = msg {
            ctx.send(from, Ball::Pong);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<Ball>, token: u64) {
        ctx.send(self.partner, Ball::Ping);
        ctx.set_timer(PERIOD, token);
    }
}

/// The steady state of an engine built by `build`: once every buffer
/// has been round once, nothing is allocated and nothing is released,
/// however many fresh ring slots the run goes on to touch.
fn steady_state_allocates_nothing(build: impl FnOnce(NetConfig) -> Sim<TimerEcho>) {
    const N: u32 = 64;
    let mut sim = build(NetConfig {
        topology: Arc::new(FullMesh { latency: LATENCY }),
        inbound_bps: None,
        seed: 5,
    });
    for i in 0..N {
        sim.add_node(TimerEcho {
            partner: (i + 1) % N,
        });
    }
    // Warm-up: two periods. The queue's blocks for three buckets (next
    // timers, pings, pongs) go back to its pool as each bucket is
    // reached and are drawn again for the next; they, the sorted current
    // bucket, the slab's one chunk and the send buffer have all reached
    // their capacity.
    sim.run_for(Dur(2 * PERIOD.0));
    let (before, live) = (sim.events_processed(), LIVE.get());
    let ((), allocs, bytes) = counted(|| sim.run_for(Dur::from_secs(199)));
    let events = sim.events_processed() - before;
    // 398 periods × (timer + ping + pong) per node.
    assert_eq!(events, 398 * 3 * N as u64);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "{allocs} allocations ({bytes} B) over {events} steady-state events"
    );
    assert_eq!(LIVE.get(), live, "live bytes moved over 199 s at rest");
}

#[test]
fn steady_state_event_loop_allocates_nothing() {
    steady_state_allocates_nothing(Sim::new);
}

/// A one-shard engine is the same inline loop: a `run_for` sets up no
/// channel and spawns no worker (either would allocate on this thread),
/// and every event is counted here because it runs here.
#[test]
fn one_shard_event_loop_allocates_nothing() {
    steady_state_allocates_nothing(|cfg| ShardedSim::new(cfg, ShardMap::round_robin(1)));
}

/// The most bytes this thread held at once while `f` ran, above what it
/// held when `f` started.
fn peak_held<R>(f: impl FnOnce() -> R) -> (R, u64) {
    BASE.set(LIVE.get());
    PEAK.set(0);
    let r = f();
    (r, PEAK.get() as u64)
}

/// Says nothing and answers nothing: what an engine holds for the
/// messages sent to it is the engine's alone.
struct Mute;

impl App for Mute {
    type Msg = PierMsg;
    fn on_start(&mut self, _ctx: &mut Ctx<PierMsg>) {}
    fn on_message(&mut self, _ctx: &mut Ctx<PierMsg>, _from: NodeId, _msg: PierMsg) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<PierMsg>, _token: u64) {}
}

/// A burst of same-instant sends is held in one copy per message, from
/// the handler's send through routing: the message in its event-slab
/// slot, a send key while it waits to be routed, and the queue entry
/// that replaces the key. That holds whether each send is a handler of
/// its own, as when many nodes send at one instant, or one handler
/// makes the whole burst. A second copy of the message in a send buffer
/// fails here by name.
#[test]
fn a_send_burst_holds_one_copy_per_message() {
    const SENDS: u64 = 20_000;
    let msg = |token| PierMsg::Dht(DhtMsg::LookupReply { token, key: token });
    for one_handler in [false, true] {
        let mut sim: Sim<Mute> = Sim::new(NetConfig::paper_baseline(3));
        let (from, to) = (sim.add_node(Mute), sim.add_node(Mute));
        let ((), held) = peak_held(|| {
            if one_handler {
                sim.with_app(from, |_, ctx| (0..SENDS).for_each(|t| ctx.send(to, msg(t))));
            } else {
                for token in 0..SENDS {
                    sim.with_app(from, |_, ctx| ctx.send(to, msg(token)));
                }
            }
            // Routes the burst; the deliveries lie one latency ahead.
            sim.run_until(sim.now());
        });
        assert_eq!(sim.stats().messages, 0, "routed, not yet delivered");
        let per_send = held as f64 / SENDS as f64;
        assert!(
            per_send <= BURST_BYTES_PER_SEND,
            "{per_send:.0} bytes held per send of a {SENDS}-send burst ({held} B), \
             one handler: {one_handler}"
        );
        assert!(sim.run_idle(2 * SENDS));
        assert_eq!(sim.stats().messages, SENDS);
    }
}

/// Measured: 238 in debug and release builds, for either burst. The
/// peak falls at the send-key buffer's last doubling, which holds its
/// old and new buffers (16 384 and 32 768 keys of 32 bytes) beside the
/// slab's 20 chunks of 1 024 slots of 152 bytes. While the slab was one
/// `Vec` that doubled, its last doubling held 16 384 and 32 768 slots at
/// once and the burst held 400; with each message copied into a 168-byte
/// send record besides its slot, the engine held 680; with a handler's
/// sends buffered as actions until it returned, one handler's burst held
/// 649. The budget is 20 % above the one copy and well below the two.
const BURST_BYTES_PER_SEND: f64 = 286.0;

// ---------------------------------------------------------------------
// (ii) the install multicast
// ---------------------------------------------------------------------

#[test]
fn install_multicast_shares_one_descriptor() {
    const N: usize = 256;
    // Maintenance ticks beyond the measurement: the run below is the
    // multicast and the installs, nothing else.
    let cfg = DhtConfig {
        tick: Dur::from_secs(3600),
        ..DhtConfig::default()
    };
    let mut sim = stabilized_pier_sim(N, cfg, NetConfig::latency_only(17));
    let wl = RsWorkload::generate(RsParams {
        s_rows: 8,
        seed: 3,
        ..Default::default()
    });
    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let (_, deep_copy, _) = counted(|| desc.clone());
    let ((), allocs, _) = counted(|| {
        sim.with_app(0, |node, ctx| node.submit(ctx, desc));
        sim.run_for(Dur::from_secs(30));
    });

    let shared = sim.app(0).unwrap().query_desc(1).expect("installed at 0");
    for id in 0..N as NodeId {
        let held = sim.app(id).unwrap().query_desc(1).expect("installed");
        assert!(Arc::ptr_eq(&shared, &held), "node {id} holds a deep copy");
    }
    // The flood is over, so the holders are the N instances and `shared`.
    assert_eq!(Arc::strong_count(&shared), N + 1);
    // What is left per node is the install itself: a slot in the
    // registry, the route and the metrics lists; the multicast dedup
    // record sits in place (section (xi)). The pruned plan is the
    // descriptor's, built once (section (viii)).
    let per_node = allocs as f64 / N as f64;
    assert!(
        per_node <= INSTALL_ALLOCS_PER_NODE,
        "{per_node:.1} allocations per receiving node"
    );
    // ...and the budget is tight enough that one deep copy of the
    // descriptor per node would break it.
    assert!(per_node + deep_copy as f64 > INSTALL_ALLOCS_PER_NODE);
}

/// Measured: 3.2 (4.2 with the multicast dedup records in an ordered
/// map, one leaf a node; 9.2 with the registry, the routes and the
/// metrics in ordered maps too; 28.2 while every node built its own
/// plan); the budget is about 20 % above.
const INSTALL_ALLOCS_PER_NODE: f64 = 3.8;

// ---------------------------------------------------------------------
// (iii) the CAN neighbour maps
// ---------------------------------------------------------------------

/// Node `id`'s CAN routing state.
fn can_of(sim: &Sim<PierNode>, id: NodeId) -> &CanState {
    match &sim.app(id).expect("alive").dht.overlay {
        Overlay::Can(can) => can,
        Overlay::Chord(_) => unreachable!("a CAN deployment"),
    }
}

/// For every node: each neighbour's second-hop view of it is one and the
/// same allocation, held by the neighbours and nobody else; and its zone
/// list is one allocation too, the node's own, held by each neighbour's
/// entry for it and by every second-hop map that names it.
fn assert_one_map_per_node(sim: &Sim<PierNode>) {
    let nodes = 0..sim.node_count() as NodeId;
    for sender in nodes.clone() {
        let own = &can_of(sim, sender).zones;
        let hearers: Vec<NodeId> = can_of(sim, sender).neighbors.keys().copied().collect();
        let view = |hearer: NodeId| &can_of(sim, hearer).neighbors[&sender].their_neighbors;
        let shared = Arc::clone(view(hearers[0]));
        for &hearer in &hearers {
            let info = &can_of(sim, hearer).neighbors[&sender];
            assert!(
                Arc::ptr_eq(&shared, &info.their_neighbors),
                "node {hearer} holds a deep copy of node {sender}'s map"
            );
            assert!(
                Arc::ptr_eq(own, &info.zones),
                "node {hearer} holds a copy of node {sender}'s zones"
            );
        }
        assert_eq!(Arc::strong_count(&shared), hearers.len() + 1);
        assert!(shared.iter().map(|(id, _)| *id).eq(hearers));
    }
    for holder in nodes {
        for (&via, info) in &can_of(sim, holder).neighbors {
            for (id, zones) in info.their_neighbors.iter() {
                assert!(
                    Arc::ptr_eq(&can_of(sim, *id).zones, zones),
                    "node {via}'s map at node {holder} copies node {id}'s zones"
                );
            }
        }
    }
}

/// The heartbeat twin of `install_multicast_shares_one_descriptor`: a
/// keepalive builds the sender's map once, and what its N neighbours
/// keep of it is N references.
#[test]
fn keepalive_shares_one_neighbour_map() {
    let mut sim = stabilized_pier_sim(64, DhtConfig::default(), NetConfig::latency_only(17));
    assert_one_map_per_node(&sim);
    let first_view = |sim: &Sim<PierNode>| {
        let first = can_of(sim, 0)
            .neighbors
            .values()
            .next()
            .expect("has neighbours");
        Arc::clone(&first.their_neighbors)
    };
    let at_rest = first_view(&sim);
    // One keepalive: sent by the tick at 2 s, heard one latency later.
    sim.run_for(Dur::from_millis(2_200));
    assert!(
        !Arc::ptr_eq(&at_rest, &first_view(&sim)),
        "no heartbeat yet"
    );
    drop(at_rest);
    assert_one_map_per_node(&sim);
}

/// What a keepalive allocates is the sender's one neighbour map: the
/// heartbeats and everything their hearers keep of them are refcounts.
/// A heartbeat that copied the sender's zone list, or a hearer that kept
/// a copy of it, fails here.
#[test]
fn keepalive_allocates_one_map_per_node() {
    const N: usize = 2_000;
    const PERIODS: u64 = 5;
    let cfg = DhtConfig::default();
    let mut sim = stabilized_pier_sim(N, cfg.clone(), NetConfig::latency_only(17));
    let ((), allocs, _) = counted(|| sim.run_for(Dur(PERIODS * cfg.keepalive.0)));
    let per_node = allocs as f64 / (N as u64 * PERIODS) as f64;
    assert!(
        per_node <= KEEPALIVE_ALLOCS_PER_NODE,
        "{per_node:.2} allocations per node per keepalive ({allocs} over {PERIODS} periods)"
    );
}

/// Measured: 1.0, in debug and release builds (17.3 while every holder
/// and every heartbeat had a copy of each zone list); the budget is
/// 25 % above.
const KEEPALIVE_ALLOCS_PER_NODE: f64 = 1.25;

/// A reintroduced per-neighbour copy of the second-hop maps or of the
/// zone lists fails here by name, at a size a test can afford.
#[test]
fn resting_overlay_stays_inside_its_bytes_per_node_budget() {
    const N: usize = 2_000;
    let before = LIVE.get();
    let sim = stabilized_pier_sim(N, DhtConfig::default(), NetConfig::latency_only(17));
    let per_node = LIVE.get().wrapping_sub(before) as f64 / N as f64;
    assert!(
        per_node <= REST_BYTES_PER_NODE,
        "{per_node:.0} bytes live per node of a resting {N}-node overlay"
    );
    drop(sim);
}

/// Building a sim seats each node as it is built: the build holds at
/// most [`BUILD_BYTES_PER_NODE`] a node above what the sim keeps. A list
/// of every built node beside the sim's own held each twice at the peak.
#[test]
fn building_a_stabilized_sim_holds_each_node_once() {
    const N: usize = 10_000;
    let before = LIVE.get();
    let (sim, peak) =
        peak_held(|| stabilized_pier_sim(N, DhtConfig::default(), NetConfig::latency_only(17)));
    let kept = LIVE.get().wrapping_sub(before);
    let per_node = peak.saturating_sub(kept) as f64 / N as f64;
    assert!(
        per_node <= BUILD_BYTES_PER_NODE,
        "building a {N}-node sim held {per_node:.0} bytes a node above what it keeps"
    );
    drop(sim);
}

/// Measured: 112, the routing states the balanced bootstrap builds all
/// at once (`size_of::<Overlay>()`); 1 024 (`size_of::<PierNode>()`) more
/// with every node built before the first was seated.
const BUILD_BYTES_PER_NODE: f64 = 128.0;

/// Measured: 2 139 in debug and release builds, with one zone list per
/// node and room in place for two ops in flight and two multicast dedup
/// records (1 868 with both tables empty ordered maps; 3 052 with a copy
/// of each zone list at every holder; 4 232 with 128-byte zones; with a
/// copy of its map at every neighbour, 13 784 then); the budget was
/// set about 20 % above 1 868.
const REST_BYTES_PER_NODE: f64 = 2_250.0;

// ---------------------------------------------------------------------
// (iv) a small join
// ---------------------------------------------------------------------

#[test]
fn small_join_stays_inside_its_byte_budget() {
    let mut sim = stabilized_pier_sim(16, DhtConfig::default(), NetConfig::paper_baseline(23));
    let wl = RsWorkload::generate(RsParams {
        s_rows: 64,
        seed: 9,
        ..Default::default()
    });
    let life = Dur::from_secs(100_000);
    publish_round_robin(&mut sim, "R", &wl.r, 0, life);
    publish_round_robin(&mut sim, "S", &wl.s, 0, life);
    settle_publish(&mut sim);

    let desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let before = sim.events_processed();
    let (results, _, bytes) = counted(|| run_query(&mut sim, 0, desc, Dur::from_secs(60)));
    let events = sim.events_processed() - before;
    assert!(same_multiset(
        &wl.expected(JoinStrategy::SymmetricHash),
        &rows_of(&results)
    ));
    let per_event = bytes as f64 / events as f64;
    assert!(
        per_event <= JOIN_BYTES_PER_EVENT,
        "{per_event:.0} bytes allocated per event ({bytes} B over {events} events)"
    );
}

/// Measured: 98 with 64-byte zones and 24-byte queue entries (145 with
/// 128-byte zones and 32-byte entries); the budget is about 20 % above.
const JOIN_BYTES_PER_EVENT: f64 = 120.0;

// ---------------------------------------------------------------------
// (v) rows are read where they lie
// ---------------------------------------------------------------------

/// One node that owns every key: a put, a publish and a query install
/// all run to completion inside the call that makes them, so what is
/// counted around the call is the query processor's and not the event
/// queue's.
fn lone_node() -> Sim<PierNode> {
    let cfg = DhtConfig {
        tick: Dur::from_secs(3600),
        ..DhtConfig::static_network()
    };
    stabilized_pier_sim(1, cfg, NetConfig::latency_only(5))
}

/// Fill this thread's buffers before anything is counted: a rehash (a
/// join's install over a stored row), a delivery (a report arriving as a
/// put), and the probe its upcall sets off, which matches and
/// republishes — the deepest nesting of provider calls any count here
/// reaches. A node keeps no scratch of its own: the upcall lists, bulk
/// put lists and encode buffers it works with belong to the thread,
/// so the first sim on a thread pays for them and a later one does not.
/// Warmed up, every sim a test compares pays alike.
fn warm_up() {
    let mut sim = lone_node();
    deliver_rows(&mut sim, "advisories", vec![tuple!["sig-0001", 1i64]]);
    install(&mut sim, standing_join(1, true));
    deliver_rows(
        &mut sim,
        "intrusions",
        vec![tuple![1i64, "sig-0001", "10.0.0.7"]],
    );
    let stage_1 = qns::stage_of(1, 2, 1);
    assert_eq!(
        sim.app(0).unwrap().dht.lscan(stage_1).count(),
        1,
        "republished"
    );
}

/// Store `rows` of `table` on a lone node as puts arriving from the
/// network: keyed by column 0, as `publish_rows` keys them, but kept
/// out of the node's renewal ledger, whose growth would show in what a
/// later publish costs.
fn deliver_rows(sim: &mut Sim<PierNode>, table: &str, rows: Vec<Tuple>) {
    let ns = ns_of(table);
    for (i, row) in rows.iter().enumerate() {
        let put = put_of(ns, i, row);
        sim.with_app(0, |node, ctx| node.on_message(ctx, 0, put));
    }
}

/// Row `i` of namespace `ns` as a put arriving from the network.
fn put_of(ns: u64, i: usize, row: &Tuple) -> PierMsg {
    let rid = row.get(0).hash64();
    let entry = Entry {
        ns,
        rid,
        iid: u32::MAX - i as u32,
        key: key_of(ns, rid),
        expires: Time::ZERO + Dur::from_secs(100_000),
        val: QpItem::Row(FlatRow::from_tuple(row)),
    };
    PierMsg::Dht(DhtMsg::Put { entry })
}

/// `standing_tenants`' rows: an id and two strings.
fn intrusion_rows(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let (fp, addr) = (format!("sig-{:04}", i % 97), format!("10.0.{}.7", i % 13));
            tuple![i as i64, fp.as_str(), addr.as_str()]
        })
        .collect()
}

const COUNT_STAR: AggCall = AggCall {
    func: AggFunc::Count,
    arg: None,
};

/// `SELECT address, count(*) FROM intrusions WHERE fingerprint = ..
/// GROUP BY address`, standing, its first epoch an hour away.
fn standing_count(qid: u64, fingerprint: &str) -> QueryDesc {
    let scan =
        ScanSpec::new("intrusions", 3, 0).with_pred(Expr::eq(Expr::col(1), Expr::lit(fingerprint)));
    let agg = AggSpec::new(vec![2], vec![COUNT_STAR]).with_epoch(Dur::from_secs(3600));
    QueryDesc::standing(qid, 0, QueryOp::Agg { scan, agg }, None)
}

fn publish(sim: &mut Sim<PierNode>, rows: Vec<Tuple>) {
    let life = Dur::from_secs(100_000);
    sim.with_app(0, |node, ctx| {
        node.publish_rows(ctx, "intrusions", rows, 0, life)
    });
}

fn install(sim: &mut Sim<PierNode>, desc: QueryDesc) {
    let qid = desc.qid;
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    assert!(sim.app(0).unwrap().has_query(qid));
}

/// Install scans every stored row of the table. A row the predicate
/// turns away is looked at in its encoding and never decoded, so what
/// the install allocates does not depend on how many there are. (Decoded
/// first and asked second, each cost its two strings.)
#[test]
fn install_over_rows_that_do_not_match_allocates_nothing_per_row() {
    warm_up();
    let install_allocs = |rows: usize| {
        let mut sim = lone_node();
        publish(&mut sim, intrusion_rows(rows));
        assert_eq!(
            sim.app(0).unwrap().dht.lscan(ns_of("intrusions")).count(),
            rows
        );
        let desc = standing_count(1, "no such signature");
        let ((), allocs, _) = counted(|| install(&mut sim, desc));
        allocs
    };
    assert_eq!(install_allocs(100), install_allocs(1_000));
}

/// A published row is offered to every standing query over its table;
/// each asks its predicate of the encoded row, and only one that says
/// yes decodes it. (Decoded per query before the predicate was asked:
/// a `Vec` and two strings for each of them.)
#[test]
fn a_row_no_standing_query_wants_costs_the_same_under_5_as_under_50() {
    warm_up();
    let publish_allocs = |queries: u64| {
        let mut sim = lone_node();
        for q in 0..queries {
            install(&mut sim, standing_count(q + 1, &format!("sig-{q:04}")));
        }
        // The first row pays for the table's index in the store; the
        // second is the one counted.
        publish(&mut sim, vec![tuple![1i64, "sig-9999", "10.0.0.7"]]);
        let rows = vec![tuple![2i64, "sig-9999", "10.0.0.8"]];
        let ((), allocs, _) = counted(|| publish(&mut sim, rows));
        allocs
    };
    assert_eq!(publish_allocs(5), publish_allocs(50));
}

/// A put arriving for a namespace no query routed is stored and that is
/// all, and the same put into a routed namespace costs no more: the
/// copy of the entry its upcall carries is two reference counts — a
/// partial shares its group and its states — and the list that carries
/// it comes drained from the thread's pool. Checked over 100 puts.
/// (Before the pool, each routed put cost its list.)
#[test]
fn a_put_nobody_subscribed_to_builds_no_upcall() {
    warm_up();
    let ns = ns_of("intrusions");
    let partial = |rid: u64| {
        let entry = Entry {
            ns,
            rid,
            iid: 0,
            key: key_of(ns, rid),
            expires: Time::ZERO + Dur::from_secs(3_000),
            val: QpItem::Partial {
                qid: 9,
                group: [Value::str("10.0.0.7")].into(),
                accs: GroupAccs::new(&[COUNT_STAR]).into(),
            },
        };
        PierMsg::Dht(DhtMsg::Put { entry })
    };
    let put_allocs = |routed: bool| {
        let mut sim = lone_node();
        if routed {
            // Routes the table's namespace; a partial is not a row, so
            // the upcall is dispatched and then ignored.
            install(&mut sim, standing_count(1, "sig-0001"));
        }
        let mut deliver = |msg| sim.with_app(0, |node, ctx| node.on_message(ctx, 0, msg));
        deliver(partial(0)); // the namespace's first item pays for its index
        let puts: Vec<PierMsg> = (1..=100).map(partial).collect();
        let (_, allocs, _) = counted(|| puts.into_iter().map(&mut deliver).count());
        allocs
    };
    let original = partial(1);
    let (_, copy, _) = counted(|| original.clone());
    assert_eq!(copy, 0, "a partial's copy shares its group and its states");
    assert_eq!(put_allocs(true), put_allocs(false));
}

/// The evaluator borrows columns and literals and computes scalars: a
/// string equality and the §5.1 `f(R.num3, S.num3) > c` allocate nothing,
/// over a decoded tuple or over the encoded row.
#[test]
fn predicates_allocate_nothing_on_either_row_kind() {
    let row = tuple![7i64, "sig-0001", 60i64, 70i64];
    let flat = FlatRow::from_tuple(&row);
    let view = flat.view();
    let f = Expr::Call(Func::WorkloadF, vec![Expr::col(2), Expr::col(3)]);
    for (pred, want) in [
        (Expr::eq(Expr::col(1), Expr::lit("sig-0001")), true),
        (Expr::eq(Expr::col(1), Expr::lit("sig-0002")), false),
        (Expr::gt(f, Expr::lit(29i64)), true),
    ] {
        let (hits, allocs, _) = counted(|| (pred.matches(&row), pred.matches(&view)));
        assert_eq!(hits, (want, want), "{pred}");
        assert_eq!(allocs, 0, "{pred}");
    }
}

// ---------------------------------------------------------------------
// (vi) a group is built once and handed on
// ---------------------------------------------------------------------

/// Rows of fingerprint `sig-0001` from `groups` addresses, one each, with
/// ids from `id0`.
fn one_per_group(groups: usize, id0: i64) -> Vec<Tuple> {
    (0..groups)
        .map(|k| tuple![id0 + k as i64, "sig-0001", format!("10.0.{k}.7").as_str()])
        .collect()
}

/// A lone node holding one row in each of `groups` groups of an
/// installed `standing_count(1, "sig-0001")`: its epoch is an hour, so
/// its partials are flushed at 5 s, 3 605 s, 7 205 s.. and harvested at
/// 1 800 s, 5 400 s..; the node's maintenance tick falls on the hours.
fn standing_groups(groups: usize) -> Sim<PierNode> {
    let mut sim = lone_node();
    publish(&mut sim, one_per_group(groups, 0));
    install(&mut sim, standing_count(1, "sig-0001"));
    sim
}

fn run_to(sim: &mut Sim<PierNode>, secs: u64) {
    sim.run_for(Dur::from_secs(secs) - sim.now().since(Time::ZERO));
}

/// What the epoch flush after the hour `hour` allocates.
fn flush_allocs(sim: &mut Sim<PierNode>, hour: u64) -> u64 {
    run_to(sim, 3600 * hour + 1);
    let ((), allocs, _) = counted(|| run_to(sim, 3600 * hour + 10));
    allocs
}

/// §3.2.3's renewal of a group nothing happened to: the put shares the
/// group's key and its accumulators as they stand and replaces what the
/// store held, so a flush allocates nothing, whether it renews 4 groups
/// or 64. (Before, each group cost a copy of its key, a copy of its
/// states and its share of a scratch map: 9 and 138.)
#[test]
fn renewing_unchanged_groups_allocates_nothing_per_group() {
    warm_up();
    let idle_flush = |groups: usize| {
        let mut sim = standing_groups(groups);
        let stored = sim.app(0).unwrap().dht.lscan(ns_of("intrusions")).count();
        assert_eq!(stored, groups);
        // The third flush: the first two stored and then replaced what
        // an earlier epoch had not yet put.
        flush_allocs(&mut sim, 2)
    };
    assert_eq!((idle_flush(4), idle_flush(64)), (0, 0));
}

/// A group's running totals are shared with the partial last put from
/// them until a row arrives: that row copies the accumulators, once, in
/// one allocation (their states are the `Arc`'s own slice), and the rows
/// after it write in place. The flush that follows hands the new ones on
/// as it would have the old. (With the states in a `Vec` behind the
/// `Arc`, the copy was two allocations.)
#[test]
fn a_row_copies_its_groups_accumulators_once_per_epoch() {
    const GROUPS: usize = 16;
    warm_up();
    // Two rows into one group, the first before or after the flush at
    // 7 205 s; what the second costs.
    let second_row = |first_at: u64| {
        let mut sim = standing_groups(GROUPS);
        run_to(&mut sim, first_at);
        publish(&mut sim, one_per_group(1, 100));
        run_to(&mut sim, 7210);
        let ((), allocs, _) = counted(|| publish(&mut sim, one_per_group(1, 200)));
        (allocs, sim)
    };
    let (into_shared, mut sim) = second_row(7203);
    let (into_own, _) = second_row(7207);
    assert_eq!(
        into_shared,
        into_own + 1,
        "the one copy of the accumulators"
    );

    let idle = flush_allocs(&mut standing_groups(GROUPS), 3);
    assert_eq!(flush_allocs(&mut sim, 3), idle);
}

/// A harvest reads the stored partials where they lie, finalizes every
/// group into one reused virtual row and encodes its output into one
/// batch, which is what leaves (here, into the initiator's own log,
/// which keeps it encoded): a result costs the group's share of the
/// log's growth, drained before the harvest: 0.07 a group. (Before: the
/// key, the states, the grown virtual row and the output row, each per
/// group; then the row decoded into the log, 1.1; then a share of the
/// harvest's merge map, a node per six to eleven groups, 0.17.)
#[test]
fn a_harvested_result_costs_the_row_that_leaves() {
    warm_up();
    let harvest = |groups: usize| {
        let mut sim = standing_groups(groups);
        // The first harvest grew what the second reuses; the drain frees
        // the log, so the counted harvest regrows it.
        run_to(&mut sim, 5399);
        sim.with_app(0, |node, _| assert_eq!(node.drain_results(1).len(), groups));
        let ((), allocs, _) = counted(|| run_to(&mut sim, 5401));
        assert_eq!(sim.app(0).unwrap().query_results(1).len(), groups);
        allocs
    };
    let per_group = (harvest(64) - harvest(4)) as f64 / 60.0;
    assert!(
        per_group <= 0.09,
        "{per_group:.2} allocations per harvested group"
    );
}

/// Four nodes that each hold one row in each of `groups` groups of an
/// installed `standing_count(1, "sig-0001")`, initiated at node 0: every
/// group's owner stores four partials of it after each flush. Installed
/// at 1 s, so harvested at 1 801 s, 5 401 s.. (a few milliseconds
/// later on the nodes the install multicast reaches).
fn four_publishers(groups: usize) -> Sim<PierNode> {
    let cfg = DhtConfig {
        tick: Dur::from_secs(3600),
        ..DhtConfig::static_network()
    };
    let mut sim = stabilized_pier_sim(4, cfg, NetConfig::latency_only(5));
    let ns = ns_of("intrusions");
    let mut rows = Vec::new();
    let mut id = 0i64;
    for node in 0..4 {
        let dht = &sim.app(node).unwrap().dht;
        for mut row in one_per_group(groups, 0) {
            while !dht.owns_key(key_of(ns, Value::I64(id).hash64())) {
                id += 1;
            }
            row.vals[0] = Value::I64(id);
            rows.push(row);
            id += 1;
        }
    }
    publish(&mut sim, rows);
    run_to(&mut sim, 1);
    let desc = standing_count(1, "sig-0001");
    sim.with_app(0, |node, ctx| node.submit(ctx, desc));
    run_to(&mut sim, 2);
    assert!((0..4).all(|id| sim.app(id).unwrap().has_query(1)));
    sim
}

/// An owner harvests a group's partials where they lie: it merges the
/// four publishers' partials into a reused buffer and keeps no
/// map of its own, so a harvest over 64 groups costs what one over 4
/// does but for the initiator's log regrowing after its drain: 0.08 a
/// group. (Merged into a scratch map, a group cost that map's node share
/// and a copy of its first partial's accumulators, an `Arc` and a `Vec`:
/// 2.23.)
#[test]
fn a_harvest_over_many_publishers_copies_nothing() {
    warm_up();
    let harvest = |groups: usize| {
        let mut sim = four_publishers(groups);
        let stored = |sim: &Sim<PierNode>| {
            let at = |id| sim.app(id).unwrap().dht.lscan(qns::agg(1)).count();
            (0..4).map(at).sum::<usize>()
        };
        // The first harvest grew what the second reuses; the drain frees
        // the log, so the counted harvest regrows it.
        run_to(&mut sim, 5400);
        assert_eq!(stored(&sim), 4 * groups, "four partials a group");
        sim.with_app(0, |node, _| assert_eq!(node.drain_results(1).len(), groups));
        let ((), allocs, _) = counted(|| run_to(&mut sim, 5410));
        assert_eq!(sim.app(0).unwrap().query_results(1).len(), groups);
        allocs
    };
    let per_group = (harvest(64) - harvest(4)) as f64 / 60.0;
    assert!(
        per_group <= 0.2,
        "{per_group:.2} allocations per harvested group"
    );
}

/// What a standing aggregate's initiator holds is what it has not handed
/// over: drained every epoch, it holds no more live bytes at any epoch
/// up to the 100th than after the 10th. Never drained, its log keeps
/// every epoch's 16 rows: 94 096 bytes more after the 100th epoch than
/// after the 10th: 90 batches of 16 rows, 440 bytes each, and the log's
/// doubling, 57 344, less the 2 848 bytes both runs free at the 28th
/// epoch, just after the published rows' 100 000 s lifetime.
#[test]
fn a_drained_standing_query_keeps_the_initiator_flat() {
    const GROUPS: usize = 16;
    // The most the live bytes rose above the 10th epoch's, and where
    // they stood at the 100th.
    let growth = |drain: bool| {
        let mut sim = standing_groups(GROUPS);
        let mut live = Vec::with_capacity(100);
        for epoch in 0..100 {
            // Past the epoch's harvest, 1 800 s into it.
            run_to(&mut sim, 3600 * epoch + 1810);
            if drain {
                let rows = sim.request(0, NodeRequest::Drain(1)).unwrap();
                assert_eq!(rows.into_timed_results().len(), GROUPS);
            }
            live.push(LIVE.get());
        }
        let above = |l: &u64| l.wrapping_sub(live[9]) as i64;
        (live[9..].iter().map(above).max().unwrap(), above(&live[99]))
    };
    let (rose, _) = growth(true);
    assert_eq!(rose, 0, "live bytes at the initiator, drained every epoch");
    // Each row is 26 bytes encoded.
    let (_, kept) = growth(false);
    assert!(
        kept > 90 * GROUPS as i64 * 26,
        "{kept} B kept at the initiator over 90 undrained epochs"
    );
}

/// An epoch's results bound for an initiator elsewhere are encoded into
/// one batch, so a harvest emitting 64 groups costs what one emitting 4
/// does: nothing a group. (Each in a `FlatRow` of its own, a group cost
/// 1.10; with a merge map, its share of the map's nodes, a node per six
/// to eleven groups, 0.10.)
#[test]
fn an_emission_to_a_remote_initiator_costs_no_row_per_group() {
    warm_up();
    let harvest = |groups: usize| {
        let mut sim = lone_node();
        publish(&mut sim, one_per_group(groups, 0));
        // The initiator is a node this overlay does not have: what is
        // sent to it is dropped on arrival, and nothing is decoded.
        let mut desc = standing_count(1, "sig-0001");
        desc.initiator = 1;
        install(&mut sim, desc);
        // The first harvest grew what the second reuses.
        run_to(&mut sim, 5399);
        let ((), allocs, _) = counted(|| run_to(&mut sim, 5401));
        let shipped = sim
            .app(0)
            .unwrap()
            .metrics
            .query(1)
            .unwrap()
            .results_shipped;
        assert_eq!(shipped, 2 * groups as u64);
        allocs
    };
    let per_group = (harvest(64) - harvest(4)) as f64 / 60.0;
    assert!(
        per_group <= 0.05,
        "{per_group:.2} allocations per emitted group"
    );
}

// ---------------------------------------------------------------------
// (vii) rows stay encoded from the store to the sink
// ---------------------------------------------------------------------

/// `L(k, j)` rows, every one on join value 7, so that all of them rehash
/// under one resourceID.
fn join_rows(n: usize) -> Vec<Tuple> {
    (0..n).map(|k| tuple![k as i64, 7i64]).collect()
}

/// A join's install rehashes the stored rows of its tables, the kept
/// columns encoded straight from the stored bytes into the table's one
/// batch: a row costs its share of a leaf of the store's map, where its
/// put stores it beside the earlier rows of its resourceID (its upcall
/// probes a side with no partners). Rows arriving in key order leave
/// each leaf about half full, five or six items, so the share is about a
/// sixth. (Each row in a `FlatRow` of its own, it cost 1.18; projected
/// into a `Tuple` first, a `Vec` more; stored in a bucket `Vec` of its
/// own, that `Vec`'s doublings instead of a leaf share.)
#[test]
fn rehashing_a_stored_row_costs_the_row_it_ships() {
    warm_up();
    let install_allocs = |rows: usize| {
        let mut sim = lone_node();
        sim.with_app(0, |node, ctx| {
            node.publish_rows(ctx, "L", join_rows(rows), 0, Dur::from_secs(100_000))
        });
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
        let mut join = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        join.project = vec![Expr::col(0), Expr::col(2)];
        let desc = QueryDesc::one_shot(1, 0, QueryOp::Join { join, agg: None });
        let ((), allocs, _) = counted(|| install(&mut sim, desc));
        allocs
    };
    let per_row = (install_allocs(1_000) - install_allocs(100)) as f64 / 900.0;
    assert!(
        per_row <= BULK_ALLOCS_PER_ROW,
        "{per_row:.3} allocations per rehashed row"
    );
}

/// What a row of a bulk rehash, publish or fetch may allocate: its share
/// of the store's leaves and of its lists' doublings, and no row of its
/// own. Measured: 0.173 a rehashed row, 0.160 a published one, 0.179 a
/// probing one.
const BULK_ALLOCS_PER_ROW: f64 = 0.25;

/// A publish encodes its rows into one batch, so a row costs its share
/// of a store leaf and of the renewal ledger's doublings. (Each row in a
/// `FlatRow` of its own, it cost 1.140.)
#[test]
fn publishing_a_row_costs_no_row_of_its_own() {
    warm_up();
    let publish_allocs = |rows: usize| {
        let mut sim = lone_node();
        let rows = intrusion_rows(rows);
        let ((), allocs, _) = counted(|| publish(&mut sim, rows));
        allocs
    };
    let per_row = (publish_allocs(1_000) - publish_allocs(100)) as f64 / 900.0;
    assert!(
        per_row <= BULK_ALLOCS_PER_ROW,
        "{per_row:.3} allocations per published row"
    );
}

/// Fetch Matches keeps each probing row across its `get` as the store
/// holds it (a refcount), not as a copy. Probing a table with no rows,
/// a row costs its share of the fetches' map and lists. (Re-encoded, it
/// cost 1.179.)
#[test]
fn fetch_matches_keeps_its_probing_rows_as_stored() {
    warm_up();
    let install_allocs = |rows: usize| {
        let mut sim = lone_node();
        sim.with_app(0, |node, ctx| {
            node.publish_rows(ctx, "L", join_rows(rows), 0, Dur::from_secs(100_000))
        });
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("Rt", 2, 1).with_join_col(1);
        let mut join = JoinSpec::new(JoinStrategy::FetchMatches, left, right);
        join.project = vec![Expr::col(0), Expr::col(2)];
        let desc = QueryDesc::one_shot(1, 0, QueryOp::Join { join, agg: None });
        let ((), allocs, _) = counted(|| install(&mut sim, desc));
        allocs
    };
    let per_row = (install_allocs(1_000) - install_allocs(100)) as f64 / 900.0;
    assert!(
        per_row <= BULK_ALLOCS_PER_ROW,
        "{per_row:.3} allocations per probing row"
    );
}

/// A batch that is sealed with no row in it shares nothing, so it makes
/// no allocation: a rehash that selects nothing costs nothing. (Sealed
/// into an empty `Arc`, the 10^4-node join's install paid one on most
/// nodes.)
#[test]
fn sealing_an_empty_batch_allocates_nothing() {
    warm_up();
    let (rows, allocs, _) = counted(|| RowBatch::default().seal());
    assert_eq!(allocs, 0);
    assert_eq!(rows.iter().count(), 0);
}

/// `intrusions ⋈ advisories` on the fingerprint, per address — the
/// severity tenant of `standing_tenants` — and with `reputation` joined
/// in on the address, its triage tenant; both standing, unwindowed,
/// their first epoch an hour away.
fn standing_join(qid: u64, triage: bool) -> QueryDesc {
    let sql = if triage {
        "SELECT I.address, count(*), max(A.severity) \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         GROUP BY I.address EPOCH 3600 SECONDS"
    } else {
        "SELECT I.address, count(*), max(A.severity) FROM intrusions I, advisories A \
         WHERE I.fingerprint = A.fingerprint GROUP BY I.address EPOCH 3600 SECONDS"
    };
    let catalog = Catalog::intrusion();
    parse_continuous_query(sql, &catalog, JoinStrategy::SymmetricHash, qid, 0).unwrap()
}

/// What publishing one `sig-0001` report from 10.0.0.7 costs on a lone
/// node running `desc`, with `partners` advisories of that fingerprint
/// stored (and one of `sig-0002`) and `strangers` earlier `sig-0001`
/// reports from 10.0.0.8 — rows on the report's own side, under its
/// resourceID, that it does not match — after a `sig-0002` report from
/// 10.0.0.7 when `grouped`, which starts the address's group. The rows
/// stored before the install arrive as puts, so only the reports join
/// the renewal ledger; up to three rows beside it, nothing the report
/// touches outgrows its first buffer.
fn report_allocs(desc: QueryDesc, partners: usize, strangers: i64, grouped: bool) -> u64 {
    let mut sim = lone_node();
    let mut advisories: Vec<Tuple> = (0..partners)
        .map(|s| tuple!["sig-0001", s as i64])
        .collect();
    advisories.push(tuple!["sig-0002", 9i64]);
    deliver_rows(&mut sim, "advisories", advisories);
    let earlier = (0..strangers).map(|id| tuple![10 + id, "sig-0001", "10.0.0.8"]);
    deliver_rows(&mut sim, "intrusions", earlier.collect());
    install(&mut sim, desc);
    let report = |id: i64, fp: &str| vec![tuple![id, fp, "10.0.0.7"]];
    if grouped {
        publish(&mut sim, report(1, "sig-0002"));
    }
    let ((), allocs, _) = counted(|| publish(&mut sim, report(2, "sig-0001")));
    allocs
}

/// A report probing stage 0 of the triage pipeline matches each stored
/// advisory, and each match is encoded once, as what it republishes into
/// stage 1 (where nothing waits for it yet): a match costs that row and
/// its share of a leaf of the store's map, taken over 64 matches so that
/// the share shows as a fraction; its join value there, the address, is
/// the node's shared string. Measured at 1.172. A final match folds into
/// its group where it lies: into a group that exists and was not handed
/// on since its last row, it allocates nothing. (Decoded first, each
/// partner cost a `Vec` and a string and joining it two `Vec`s more,
/// concatenated and projected: a republishing match cost 6, a folded one
/// 5 with its output row. With a fresh upcall list for each put, a
/// republishing match cost 3; with its own copy of the address, 2.172.)
#[test]
fn a_probe_match_costs_what_it_republishes_and_a_folded_one_nothing() {
    warm_up();
    let per_match = |triage: bool, grouped: bool| {
        let one = report_allocs(standing_join(1, triage), 1, 0, grouped);
        let many = report_allocs(standing_join(1, triage), 65, 0, grouped);
        (many - one) as f64 / 64.0
    };
    let republished = per_match(true, false);
    assert!(
        (1.0..=1.25).contains(&republished),
        "{republished:.3} allocations per republished intermediate"
    );
    assert_eq!(per_match(false, true), 0.0, "a folded match");
}

/// A probe reads its partners where they lie in the store, holding only
/// the partner's row (a reference count) while its match goes on: a
/// report matching three stored advisories, each match folding into an
/// existing group, costs exactly what a report landing beside three rows
/// it does not match costs — three earlier reports of its fingerprint,
/// on its own side. (Copied into a list first, the three partners cost
/// the list.)
#[test]
fn a_probe_walks_its_partners_where_they_lie() {
    warm_up();
    let matching = report_allocs(standing_join(1, false), 3, 0, true);
    let beside = report_allocs(standing_join(1, false), 0, 3, true);
    assert_eq!(matching, beside);
}

/// What a row of `L` arriving from the network costs a lone node running
/// `op` standing, its initiator elsewhere, with one `Rt` row on the
/// join value every `L` row carries: over 100 → 1 000 rows, a row.
fn per_arriving_row(op: impl Fn() -> QueryOp) -> f64 {
    let arrivals = |rows: usize| {
        let mut sim = lone_node();
        deliver_rows(&mut sim, "Rt", vec![tuple![0i64, 7i64]]);
        install(&mut sim, QueryDesc::standing(1, 1, op(), None));
        let ns = ns_of("L");
        let rows = join_rows(rows);
        let puts: Vec<PierMsg> = (rows.iter().enumerate())
            .map(|(i, row)| put_of(ns, i, row))
            .collect();
        let ((), allocs, _) = counted(|| {
            for put in puts {
                sim.with_app(0, |node, ctx| node.on_message(ctx, 0, put));
            }
        });
        allocs
    };
    arrivals(1); // fills this thread's buffers for what follows
    (arrivals(1_000) - arrivals(100)) as f64 / 900.0
}

/// A row arriving at a standing query enters it by the function the
/// query's install took the stored rows by. At a standing scan it costs
/// its slot in the store and the row that ships; at a standing join its
/// slot, the row it rehashes, that row's slot in the stage and the
/// result its match ships. Measured while arrivals took a path of their
/// own: 1.138 at the scan and 2.308 at the join, the bounds here. (The
/// scan staging its rows' instanceIDs in a fresh list costs 2.138.)
#[test]
fn an_arriving_row_costs_what_it_did() {
    warm_up();
    let scan = per_arriving_row(|| QueryOp::Scan {
        scan: ScanSpec::new("L", 2, 0),
        project: vec![Expr::col(0)],
    });
    let join = per_arriving_row(|| {
        let left = ScanSpec::new("L", 2, 0).with_join_col(1);
        let right = ScanSpec::new("Rt", 2, 0).with_join_col(1);
        let mut join = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
        join.project = vec![Expr::col(0), Expr::col(2)];
        QueryOp::Join { join, agg: None }
    });
    assert!(
        scan <= 1.138,
        "{scan:.3} allocations per row at a standing scan"
    );
    assert!(
        join <= 2.308,
        "{join:.3} allocations per row at a standing join"
    );
}

/// A standing aggregate's install folds every stored row its predicate
/// selects, each read where it lies and its group found by the columns
/// as they lie: over 1 000 matching rows in four groups it allocates
/// what it does over 100. (Decoded first, each row cost its two
/// strings.)
#[test]
fn an_install_scan_folds_matching_rows_without_allocating() {
    warm_up();
    let install_allocs = |rows: usize| {
        let mut sim = lone_node();
        publish(&mut sim, four_groups(rows));
        let ((), allocs, _) = counted(|| install(&mut sim, standing_count(1, "sig-0001")));
        allocs
    };
    assert_eq!(install_allocs(100), install_allocs(1_000));
}

/// `rows` rows `standing_count(_, "sig-0001")` selects, in four groups.
fn four_groups(rows: usize) -> Vec<Tuple> {
    (0..rows)
        .map(|i| tuple![i as i64, "sig-0001", format!("10.0.{}.7", i % 4).as_str()])
        .collect()
}

/// The same install under a two-hour window: a row folds, where it lies,
/// into the pane of the flush it stops counting at, so over 1 000
/// matching rows the install allocates, and holds, what it does over
/// 100. (With every live row buffered as a tuple until the flush
/// re-folded it, each cost about three allocations and 152 B held.)
#[test]
fn a_windowed_install_scan_folds_matching_rows_without_buffering_them() {
    warm_up();
    let install_cost = |rows: usize| {
        let mut sim = lone_node();
        publish(&mut sim, four_groups(rows));
        let mut desc = standing_count(1, "sig-0001");
        desc.tenure = Tenure::Windowed(Dur::from_secs(7200));
        let before = LIVE.get();
        let ((), allocs, _) = counted(|| install(&mut sim, desc));
        (allocs, LIVE.get().wrapping_sub(before))
    };
    assert_eq!(install_cost(100), install_cost(1_000));
}

// ---------------------------------------------------------------------
// (viii) one plan per query
// ---------------------------------------------------------------------

/// What the install multicast of `desc` allocates on an `n`-node overlay
/// that stores no rows, from the submit to every node holding it: the
/// allocations, and the bytes still held once it is done.
fn overlay_install(n: usize, desc: &QueryDesc) -> (u64, u64) {
    let cfg = DhtConfig {
        tick: Dur::from_secs(3600),
        ..DhtConfig::default()
    };
    let mut sim = stabilized_pier_sim(n, cfg, NetConfig::latency_only(17));
    let desc = desc.clone();
    let before = LIVE.get();
    let ((), allocs, _) = counted(|| {
        sim.with_app(0, |node, ctx| node.submit(ctx, desc));
        sim.run_for(Dur::from_secs(30));
    });
    let held = LIVE.get().wrapping_sub(before);
    assert!((0..n as NodeId).all(|id| sim.app(id).unwrap().has_query(1)));
    (allocs, held)
}

/// The nodes a 16 → 64 comparison adds.
const EXTRA_NODES: u64 = 48;

/// What [`EXTRA_NODES`] more nodes cost to install `desc`, over 16 → 64
/// nodes: allocations, and bytes held.
fn extra_nodes_cost(desc: &QueryDesc) -> (u64, u64) {
    let ((a16, b16), (a64, b64)) = (overlay_install(16, desc), overlay_install(64, desc));
    (a64 - a16, b64.wrapping_sub(b16))
}

fn rs_workload() -> RsWorkload {
    RsWorkload::generate(RsParams {
        s_rows: 8,
        seed: 3,
        ..Default::default()
    })
}

/// A join's plan is compiled once per query, beside the descriptor, and
/// every node shares it, so what one more node costs to install a join
/// does not depend on the plan: a three-table pipeline's two more routed
/// namespaces land in the node's one route list, which grows once, and
/// that is all it costs over a two-table join. (Each node building its
/// own plan, the pipeline's longer plan cost every node its extra
/// stage's vectors as well; with a route list per namespace, each
/// namespace cost its list.)
#[test]
fn a_node_installs_a_join_without_building_its_plan() {
    warm_up();
    let wl = rs_workload();
    let join = wl.query(1, 0, JoinStrategy::SymmetricHash);
    let pipeline = wl.multi_query(1, 0);
    let ((two, _), (three, _)) = (extra_nodes_cost(&join), extra_nodes_cost(&pipeline));
    assert_eq!(
        three - two,
        EXTRA_NODES,
        "{EXTRA_NODES} more nodes install a 2-table join with {two} allocations, a 3-table pipeline with {three}"
    );
}

/// An installed query is one slot in each of the node's per-query lists
/// — the registry's instances, its routes, its metrics — and a node
/// holding one join holds those slots, and the multicast's dedup record
/// in place, not a map node per list and a list per routed namespace.
/// (With the registry, the routes and the metrics in ordered maps, a
/// route list per namespace and a committed-budget ledger beside the
/// registry, a node paid 8.19 allocations and held 4 520 B.)
#[test]
fn a_node_holds_an_installed_join_in_one_slot_per_list() {
    warm_up();
    let join = rs_workload().query(1, 0, JoinStrategy::SymmetricHash);
    let (allocs, held) = extra_nodes_cost(&join);
    let per_node = |total: u64| total as f64 / EXTRA_NODES as f64;
    let (allocs, held) = (per_node(allocs), per_node(held));
    assert!(
        allocs <= SLOT_ALLOCS_PER_NODE,
        "{allocs:.2} allocations per extra node"
    );
    assert!(
        held <= SLOT_BYTES_PER_NODE,
        "{held:.0} bytes held per extra node"
    );
}

/// Measured: 3.17 allocations and 764 B (4.19 and 1 184 B while the
/// dedup record took a map leaf of its own); the budgets are about 20 %
/// above.
const SLOT_ALLOCS_PER_NODE: f64 = 3.8;
const SLOT_BYTES_PER_NODE: f64 = 920.0;

// ---------------------------------------------------------------------
// (ix) one map per store
// ---------------------------------------------------------------------

/// An item stored under a resourceID of its own costs its slot in a
/// leaf of the store's one ordered map and nothing else: no allocation
/// of its own, and in bytes held its share of the map's nodes — a leaf
/// is 11 slots of a 24-byte key and a 104-byte entry, about seven of them
/// full when keys arrive in hash order. The puts are built before the
/// count, so what is counted is the store's and not the row's.
#[test]
fn a_stored_item_costs_no_allocation_of_its_own() {
    warm_up();
    let stored = |rows: usize| {
        let mut sim = lone_node();
        let ns = ns_of("intrusions");
        let rows = intrusion_rows(rows);
        let mut puts: Vec<PierMsg> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| put_of(ns, i, row))
            .collect();
        let before = LIVE.get();
        let ((), allocs, _) = counted(|| {
            for put in puts.drain(..) {
                sim.with_app(0, |node, ctx| node.on_message(ctx, 0, put));
            }
        });
        let held = LIVE.get().wrapping_sub(before);
        assert_eq!(sim.app(0).unwrap().dht.store.ns_len(ns), rows.len());
        (allocs, held)
    };
    let ((a100, b100), (a1000, b1000)) = (stored(100), stored(1_000));
    let per_item = (a1000 - a100) as f64 / 900.0;
    let bytes_per_item = b1000.wrapping_sub(b100) as f64 / 900.0;
    assert!(
        per_item <= STORED_ITEM_ALLOCS,
        "{per_item:.3} allocations per stored item"
    );
    assert!(
        bytes_per_item <= STORED_ITEM_BYTES,
        "{bytes_per_item:.0} bytes held per stored item"
    );
}

/// Measured: 0.137 allocations (a leaf split per seven items) and 196 B;
/// in a bucket `Vec` of its own (room for four entries, 416 B) an item
/// cost 1.137 and held 468 B. The byte budget is about 10 % above.
const STORED_ITEM_ALLOCS: f64 = 0.25;
const STORED_ITEM_BYTES: f64 = 215.0;

/// Setting and testing a Bloom filter's bits only computes positions.
#[test]
fn bloom_insert_and_contains_allocate_nothing() {
    let mut filter = BloomFilter::new(1 << 16, 4);
    let ((), allocs, _) = counted(|| (0..1_000u64).for_each(|k| filter.insert(k)));
    assert_eq!(allocs, 0, "insert");
    let (hits, allocs, _) = counted(|| (0..2_000u64).filter(|&k| filter.contains(k)).count());
    assert_eq!(allocs, 0, "contains");
    assert!((1_000..1_100).contains(&hits), "{hits} hits");
}

// ---------------------------------------------------------------------
// (x) the oracles read rows where they lie
// ---------------------------------------------------------------------

/// The epoch oracle applies each scan's predicate once per call, to rows
/// read where they lie, and evaluates every instant over references to
/// the rows that passed: a count query whose predicate turns away every
/// row allocates, at four instants, what it does over 100 rows. (With a
/// copy of every live row per instant, each rejected row cost its clone
/// at every instant.)
#[test]
fn an_epoch_oracle_allocates_nothing_for_a_row_its_scan_rejects() {
    let desc = standing_count(1, "sig-none");
    let instants: Vec<Time> = (0..4).map(|k| Time(k * 30_000_000)).collect();
    let oracle_allocs = |rows: usize| {
        let timed: TimedRows = intrusion_rows(rows)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (Time(i as u64 * 1_000), r))
            .collect();
        let tables = std::collections::BTreeMap::from([("intrusions".to_string(), timed)]);
        let (epochs, allocs, _) =
            counted(|| reference_epochs_at(&desc.op, &tables, None, &instants));
        assert!(epochs.iter().all(Vec::is_empty));
        allocs
    };
    assert_eq!(oracle_allocs(100), oracle_allocs(1_000));
}

// ---------------------------------------------------------------------
// (xi) a provider's tables hold what is in them
// ---------------------------------------------------------------------

/// A node whose two puts resolve at remote owners, and which hears one
/// multicast, holds not a byte more once its puts have left: its ops in
/// flight and its multicast dedup record sit in place, and nothing of
/// them outlives them. The provider runs bare (`DhtNode`) so that
/// nothing but its tables can stay behind: the owners already hold both
/// items, so each put renews the same bytes; a burst of gets grew the
/// engine's buffers beforehand; and every upcall log has room for the
/// multicast. (With both tables `BTreeMap`s, the node kept an emptied
/// 1 512 B leaf of ops and a 192 B leaf of dedup records, and every
/// other node that heard the multicast a 192 B leaf.)
#[test]
fn an_answered_lookup_and_a_seen_multicast_hold_nothing() {
    const N: NodeId = 16;
    let (me, ns, life) = (1, ns_of("minis"), Dur::from_secs(3600));
    let cfg = DhtConfig {
        tick: Dur::from_secs(3600),
        ..DhtConfig::static_network()
    };
    let mut sim = stabilized_can_sim::<QpItem>(N as usize, cfg, NetConfig::latency_only(17));
    let owner = |sim: &Sim<DhtNode<QpItem>>, rid: u64| {
        let owns = |id: &NodeId| sim.app(*id).unwrap().dht.owns_key(key_of(ns, rid));
        (0..N).find(owns).expect("every key has an owner")
    };
    let rids: Vec<u64> = (0..)
        .filter(|&rid| owner(&sim, rid) != me)
        .take(2)
        .collect();
    let mini = |rid: u64| {
        let key = Value::I64(rid as i64);
        QpItem::Mini {
            qid: 1,
            side: Side::Left,
            pkey: key.clone(),
            join: key,
        }
    };
    for &rid in &rids {
        let to = owner(&sim, rid);
        let entry = Entry {
            ns,
            rid,
            iid: 0,
            key: key_of(ns, rid),
            expires: Time::ZERO + life,
            val: mini(rid),
        };
        sim.with_app(0, |_, ctx| ctx.send(to, DhtMsg::Put { entry }));
    }
    for origin in 0..N {
        sim.with_app(origin, |_, ctx| {
            for to in 0..N {
                let (rid, token) = (0, 0); // a token no node has issued
                ctx.send(
                    to,
                    DhtMsg::Get {
                        ns,
                        rid,
                        token,
                        origin,
                    },
                );
            }
        });
    }
    sim.run_for(Dur::from_secs(10));
    for id in 0..N {
        sim.with_app(id, |node, _| node.events.reserve(1));
    }
    let mut origin_events = Vec::with_capacity(1);

    let before = LIVE.get();
    sim.with_app(me, |node, ctx| {
        let (mut env, events) = (CtxEnv { ctx }, &mut Vec::new());
        for &rid in &rids {
            node.dht.put(&mut env, ns, rid, 0, mini(rid), life, events);
        }
        assert!(events.is_empty(), "resolved remotely");
    });
    sim.with_app(0, |node, ctx| {
        let cancel = QpItem::Cancel { qid: 1 };
        node.dht
            .multicast(&mut CtxEnv { ctx }, cancel, &mut origin_events);
    });
    sim.run_for(Dur::from_secs(10));
    let held = LIVE.get().wrapping_sub(before) as i64;

    for id in 1..N {
        let heard = sim.app(id).unwrap().events.iter();
        let heard = heard.filter(|(_, e)| matches!(e, DhtEvent::Multicast { .. }));
        assert_eq!(heard.count(), 1, "node {id} heard the multicast once");
    }
    for &rid in &rids {
        let stored = sim
            .app(owner(&sim, rid))
            .unwrap()
            .dht
            .store
            .get(ns, rid)
            .count();
        assert_eq!(stored, 1, "the put renewed the owner's item");
    }
    assert_eq!(held, 0, "bytes held after the lookups and the multicast");
    drop(origin_events);
}

// ---------------------------------------------------------------------
// (xii) a node holds each string and group key once
// ---------------------------------------------------------------------

/// `tenants` count tenants of one fingerprint, as `standing_tenants` runs
/// them, on a lone node: what one report from a new address costs, once
/// a report from another address has started each tenant's first group,
/// and every tenant's key for the new group, read off the partials its
/// first flush (at 5 s) put.
fn tenants_fold_one_report(tenants: u64) -> (u64, Vec<Arc<[Value]>>) {
    let mut sim = lone_node();
    for q in 1..=tenants {
        install(&mut sim, standing_count(q, "sig-0001"));
    }
    publish(&mut sim, vec![tuple![1i64, "sig-0001", "10.0.0.6"]]);
    let report = vec![tuple![2i64, "sig-0001", "10.0.0.7"]];
    let ((), allocs, _) = counted(|| publish(&mut sim, report));
    run_to(&mut sim, 6);
    let node = sim.app(0).unwrap();
    let keys = (1..=tenants)
        .map(|q| {
            let mut keys = node.dht.lscan(qns::agg(q)).filter_map(|e| match &e.val {
                QpItem::Partial { group, .. } if group[0] == Value::str("10.0.0.7") => {
                    Some(Arc::clone(group))
                }
                _ => None,
            });
            keys.next().expect("the new group's partial")
        })
        .collect();
    (allocs, keys)
}

/// Tenants that watch one fingerprint fold one report into one group
/// each, and they share the group's key: the first tenant to fold it
/// allocates the key and its address string, and every tenant after it
/// allocates only its group's accumulators. All sixteen groups hold one
/// key. (Each tenant built its own key and copied the address out of
/// the row: two allocations more per tenant, and sixteen keys.)
#[test]
fn tenants_of_one_fingerprint_share_the_group_key_they_fold() {
    warm_up();
    let (one, _) = tenants_fold_one_report(1);
    let (many, keys) = tenants_fold_one_report(16);
    assert_eq!(many - one, 15, "one allocation per extra tenant");
    assert!(keys.iter().all(|k| Arc::ptr_eq(k, &keys[0])), "one key");
}
