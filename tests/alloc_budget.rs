//! Allocation budgets of the message plane, counted by this binary's own
//! `#[global_allocator]`: the engine's steady state allocates nothing, a
//! query install multicast shares one descriptor among all nodes, a CAN
//! keepalive shares one neighbour map among all neighbours, a resting
//! overlay stays inside a bytes-per-node budget, and a small join inside
//! a pinned bytes-per-event budget.
//!
//! The counters are per thread. The test harness runs every test on a
//! thread of its own and a one-core `Sim` runs on its caller's, so the
//! tests of this binary do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pier::qp::plan::JoinStrategy;
use pier::qp::semantics::same_multiset;
use pier::qp::testkit::*;
use pier::qp::PierNode;
use pier::simnet::time::Dur;
use pier::simnet::topology::FullMesh;
use pier::simnet::{App, Ctx, NetConfig, NodeId, ShardMap, ShardedSim, Sim, Wire};
use pier::workload::{RsParams, RsWorkload};
use pier_dht::can::CanState;
use pier_dht::{DhtConfig, Overlay};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: requested minus released (wrapping, so a
    /// block freed on another thread than it came from cannot panic).
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocator request. `try_with`: the allocator still runs
/// while a thread tears down, after its thread-locals are gone.
fn note(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = LIVE.try_with(|c| c.set(c.get().wrapping_add(size as u64)));
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
    // Warm-up: two periods. The queue holds three bucket buffers (next
    // timers, pings, pongs) and hands them from drained slot to fresh
    // slot; they, the event slab and the send/action/batch buffers have
    // all reached their capacity.
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
    // What is left per node is the install itself: registry and routing
    // entries, the pruned schema, metrics, the multicast dedup record.
    let per_node = allocs as f64 / N as f64;
    assert!(
        per_node <= INSTALL_ALLOCS_PER_NODE,
        "{per_node:.1} allocations per receiving node"
    );
    // ...and the budget is tight enough that one deep copy of the
    // descriptor per node would break it.
    assert!(per_node + deep_copy as f64 > INSTALL_ALLOCS_PER_NODE);
}

/// Measured: 28.2; the budget is about 20 % above.
const INSTALL_ALLOCS_PER_NODE: f64 = 34.0;

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
/// same allocation, held by the neighbours and nobody else.
fn assert_one_map_per_node(sim: &Sim<PierNode>) {
    for sender in 0..sim.node_count() as NodeId {
        let hearers: Vec<NodeId> = can_of(sim, sender).neighbors.keys().copied().collect();
        let view = |hearer: NodeId| &can_of(sim, hearer).neighbors[&sender].their_neighbors;
        let shared = Arc::clone(view(hearers[0]));
        for &hearer in &hearers {
            assert!(
                Arc::ptr_eq(&shared, view(hearer)),
                "node {hearer} holds a deep copy of node {sender}'s map"
            );
        }
        assert_eq!(Arc::strong_count(&shared), hearers.len() + 1);
        assert!(shared.iter().map(|(id, _)| *id).eq(hearers));
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

/// A reintroduced per-neighbour copy of the second-hop maps fails here
/// by name, at a size a test can afford.
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

/// Measured: 4 280 (with a copy of its map at every neighbour: 13 784);
/// the budget is about 20 % above.
const REST_BYTES_PER_NODE: f64 = 5_200.0;

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

/// Measured: 531; the budget is about 20 % above.
const JOIN_BYTES_PER_EVENT: f64 = 640.0;
