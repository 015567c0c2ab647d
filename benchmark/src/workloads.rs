//! The three workloads. Each is one fixed job; a *rep* is a fresh set-up
//! followed by the measured phase, and returns the job's exact outcomes
//! next to what the host spent on it. The product crates are driven
//! only through their public API.

use std::collections::HashMap;

use pier_core::plan::JoinStrategy;
use pier_core::semantics::{reference_epochs_at, TimedRows};
use pier_core::sql::parse_continuous_query;
use pier_core::tenant::{AdmissionError, Quota};
use pier_core::testkit::{
    metrics_snapshot, publish_round_robin, settle_publish, stabilized_pier_sharded,
    stabilized_pier_sim, PierEngine,
};
use pier_core::{Catalog, PierNode, TableRate, Tuple, Value};
use pier_dht::{DhtConfig, TrafficMeter};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NetStats, NodeId, ShardMap, Sim};
use pier_workload::{intrusion, RsParams, RsWorkload};

use crate::alloc::HEAP;
use crate::host::{steal_seconds, Stamp};
use crate::trace::{EngineCounts, Tracer};

pub const WORKLOADS: [&str; 3] = ["join_wan", "scaleup_10k", "standing_tenants"];

/// Outcomes of one rep that a deterministic job must reproduce exactly,
/// on any host, in any process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exact {
    /// Engine events processed in the measured phase.
    pub events: u64,
    /// Simulated µs from submit to the 30th result.
    pub sim_t30_us: u64,
    /// Simulated µs from submit to the last result.
    pub sim_tlast_us: u64,
    /// Query traffic of the measured phase, bytes.
    pub traffic_bytes: u64,
    /// Result rows the oracle expects / the system produced / both.
    pub expected: u64,
    pub got: u64,
    pub matched: u64,
}

impl Exact {
    /// Operations attempted: every expected row, and every row produced
    /// beyond them.
    pub fn attempted(&self) -> u64 {
        self.expected.max(self.got)
    }

    pub fn ops_ok_share(&self) -> f64 {
        self.matched as f64 / self.attempted().max(1) as f64
    }
}

/// Heap traffic of one rep — exact like [`Exact`], but a property of
/// the binary rather than of the simulation, so a traced rep (whose
/// spans allocate) is not held to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heap {
    pub alloc_count: u64,
    pub alloc_bytes: u64,
    /// Peak live bytes over set-up and measured phase, above what was
    /// live when the rep began (the harness's own records).
    pub peak_live: u64,
}

/// What the host spent on one rep.
#[derive(Clone, Copy, Debug)]
pub struct HostCost {
    pub setup_cpu_s: f64,
    pub cpu_s: f64,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Wall seconds of the whole rep.
    pub rep_wall_s: f64,
    /// Steal over the whole rep as a share of its wall time.
    pub steal_share: f64,
}

/// Exact per-layer counters of the measured phase, read from the
/// layers' public counters (traced rep only).
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    pub net: NetStats,
    pub meter: TrafficMeter,
    pub store_items_end: u64,
    pub store_items_peak: u64,
    pub rehash_bytes: u64,
    pub rehash_puts: u64,
    pub results_shipped: u64,
    pub result_bytes: u64,
    pub renewals: u64,
    pub admitted_installs: u64,
    pub rejected_installs: u64,
    pub shed_publishes: u64,
    pub installed_peak: u64,
    /// Items in all stores when the measured phase began.
    pub store_items_start: u64,
}

/// CPU seconds of the measured phase before the 30th result, from there
/// to the last result, and after it (traced rep only).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryPhases {
    pub first30_cpu_s: f64,
    pub drain_cpu_s: f64,
    pub idle_tail_cpu_s: f64,
}

/// (span name, CPU seconds, wall seconds) of one set-up phase.
pub type SetupPhase = (&'static str, f64, f64);

/// CPU seconds between consecutive checkpoints of one rep: the end of
/// every set-up phase (and, inside the long ones, of every tenant's
/// oracle and every simulated second of settling), then the end of every
/// simulated second of the measured phase. The checkpoints fall at the
/// same places in every rep of a job, so the host estimators compare
/// reps segment by segment.
#[derive(Clone, Debug, Default)]
pub struct Segments {
    pub setup: Vec<f64>,
    pub measured: Vec<f64>,
}

/// Room for the checkpoints of the longest timeline, reserved before
/// the rep's heap accounting starts so that recording them is not
/// counted as the job's allocations.
const SEGMENT_CAPACITY: usize = 4096;

/// Records a rep's checkpoints: each closes the segment that began at
/// the one before.
struct Marks {
    /// CPU clock at the last checkpoint.
    last: f64,
    measuring: bool,
    segments: Segments,
}

impl Marks {
    fn at(&mut self, cpu: f64) {
        let segment = cpu - self.last;
        self.last = cpu;
        if self.measuring {
            self.segments.measured.push(segment);
        } else {
            self.segments.setup.push(segment);
        }
    }

    fn now(&mut self) {
        self.at(crate::host::cpu_seconds());
    }
}

pub struct Rep {
    pub exact: Exact,
    pub heap: Heap,
    pub host: HostCost,
    /// CPU and wall seconds of each set-up phase, by span name.
    pub setup_phases: Vec<SetupPhase>,
    pub segments: Segments,
    /// Events of the set-up (publish and settle), for the continuity
    /// checks against the committed `results/BENCH_*.json` rows.
    pub setup_events: u64,
    pub nodes: usize,
    /// Simulated seconds the measured phase covers.
    pub measured_sim_s: f64,
    pub bandwidth_limited: bool,
    /// Installs that went through the SQL front end.
    pub sql_installs: u64,
    pub workload_rows: u64,
    pub workload_bytes: u64,
    pub layers: Option<LayerCounts>,
    pub query_phases: Option<QueryPhases>,
}

fn counts(sim: &impl PierEngine) -> EngineCounts {
    let net = sim.net_stats();
    EngineCounts {
        events: sim.events_processed(),
        messages: net.messages,
        bytes: net.bytes,
    }
}

/// Bookkeeping of one rep: the root span, the set-up phases, the
/// checkpoints, the measured window and the per-slice samples of a
/// traced rep.
struct RepMeter<'t> {
    tracer: &'t mut Tracer,
    root: crate::trace::SpanId,
    start: Stamp,
    steal_at_start: f64,
    live_at_start: u64,
    setup_phases: Vec<SetupPhase>,
    marks: Marks,
    measured_from: Option<(Stamp, crate::alloc::HeapReading, u64)>,
    slice: usize,
    /// (simulated start of slice, CPU seconds) per `query.run[k]`.
    slices: Vec<(Time, f64)>,
    store_items_peak: u64,
    installed_peak: u64,
}

impl<'t> RepMeter<'t> {
    fn begin(tracer: &'t mut Tracer) -> Self {
        let steal_at_start = steal_seconds().unwrap_or(0.0);
        let segments = Segments {
            setup: Vec::with_capacity(SEGMENT_CAPACITY),
            measured: Vec::with_capacity(SEGMENT_CAPACITY),
        };
        HEAP.reset_peak();
        let live_at_start = HEAP.read().live;
        let root = tracer.open("rep", EngineCounts::default);
        let start = Stamp::now();
        RepMeter {
            tracer,
            root,
            start,
            steal_at_start,
            live_at_start,
            setup_phases: Vec::new(),
            marks: Marks {
                last: start.cpu,
                measuring: false,
                segments,
            },
            measured_from: None,
            slice: 0,
            slices: Vec::new(),
            store_items_peak: 0,
            installed_peak: 0,
        }
    }

    /// A set-up phase that runs before any engine exists. A long one
    /// sets checkpoints of its own through the `Marks` it is handed.
    fn host_phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Marks) -> R) -> R {
        let id = self.tracer.open(name, EngineCounts::default);
        let t0 = Stamp::now();
        let out = f(&mut self.marks);
        let t1 = Stamp::now();
        self.setup_phases
            .push((name, t1.cpu_since(&t0), t1.wall_since(&t0)));
        self.marks.at(t1.cpu);
        self.tracer.close(id, EngineCounts::default);
        out
    }

    /// A set-up phase that drives the engine.
    fn sim_phase<E: PierEngine, R>(
        &mut self,
        name: &'static str,
        sim: &mut E,
        f: impl FnOnce(&mut E, &mut Marks) -> R,
    ) -> R {
        let id = self.tracer.open(name, || counts(sim));
        let t0 = Stamp::now();
        let out = f(sim, &mut self.marks);
        let t1 = Stamp::now();
        self.tracer.close(id, || counts(sim));
        self.setup_phases
            .push((name, t1.cpu_since(&t0), t1.wall_since(&t0)));
        self.marks.at(t1.cpu);
        out
    }

    fn start_measured(&mut self, sim: &impl PierEngine) {
        let from = Stamp::now();
        // What set-up spent between its last phase and here.
        self.marks.at(from.cpu);
        self.marks.measuring = true;
        self.measured_from = Some((from, HEAP.read(), sim.events_processed()));
    }

    /// A harness call into the system (submit, publish, cancel, audit),
    /// recorded as one span.
    fn act<E: PierEngine, R>(&mut self, name: &str, sim: &mut E, f: impl FnOnce(&mut E) -> R) -> R {
        let id = self.tracer.open(name, || counts(sim));
        let out = f(sim);
        self.tracer.close(id, || counts(sim));
        out
    }

    /// Run the engine to `deadline` in slices of one simulated second,
    /// with a checkpoint after each. A traced rep also records one
    /// `query.run[k]` span per slice and samples the gauges between
    /// spans.
    fn advance(&mut self, sim: &mut impl PierEngine, deadline: Time) {
        let traced = self.tracer.enabled();
        while sim.now() < deadline {
            let step = Dur::from_secs(1).min(deadline.since(sim.now()));
            if !traced {
                sim.run_for(step);
                self.marks.now();
                continue;
            }
            let id = self
                .tracer
                .open(&format!("query.run[{}]", self.slice), || counts(sim));
            let (begins, t0) = (sim.now(), Stamp::now());
            sim.run_for(step);
            let t1 = Stamp::now();
            self.tracer.close(id, || counts(sim));
            self.slice += 1;
            self.slices.push((begins, t1.cpu_since(&t0)));
            self.sample_gauges(sim);
            self.marks.now();
        }
    }

    fn sample_gauges(&mut self, sim: &impl PierEngine) {
        self.store_items_peak = self.store_items_peak.max(store_items(sim));
        let installed = sim.node(0).map_or(0, PierNode::installed_query_count) as u64;
        self.installed_peak = self.installed_peak.max(installed);
    }

    /// Close the measured window and open the `verify` span.
    fn finish(mut self, sim: &impl PierEngine) -> Measured<'t> {
        let end = Stamp::now();
        self.marks.at(end.cpu);
        let heap_end = HEAP.read();
        let (from, heap_from, events_from) = self.measured_from.expect("measured phase started");
        let events = sim.events_processed() - events_from;
        let verify = self.tracer.open("verify", || counts(sim));
        let wall = end.wall_since(&self.start);
        Measured {
            heap: Heap {
                alloc_count: heap_end.calls - heap_from.calls,
                alloc_bytes: heap_end.bytes - heap_from.bytes,
                // Saturating for the unit tests' sake, which run reps on
                // several threads over the one global counter.
                peak_live: heap_end.peak.saturating_sub(self.live_at_start),
            },
            host: HostCost {
                setup_cpu_s: from.cpu_since(&self.start),
                cpu_s: end.cpu_since(&from),
                wall_s: end.wall_since(&from),
                rep_wall_s: wall,
                steal_share: if wall > 0.0 {
                    (steal_seconds().unwrap_or(0.0) - self.steal_at_start) / wall
                } else {
                    0.0
                },
            },
            events,
            setup_phases: self.setup_phases,
            segments: self.marks.segments,
            log: SliceLog {
                traced: self.tracer.enabled(),
                slices: self.slices,
                store_items_peak: self.store_items_peak,
                installed_peak: self.installed_peak,
            },
            spans: OpenSpans {
                tracer: self.tracer,
                verify,
                root: self.root,
            },
        }
    }
}

/// What [`RepMeter::finish`] hands back.
struct Measured<'t> {
    heap: Heap,
    host: HostCost,
    /// Engine events of the measured phase.
    events: u64,
    setup_phases: Vec<SetupPhase>,
    segments: Segments,
    log: SliceLog,
    spans: OpenSpans<'t>,
}

/// The `verify` and root spans, still open while the answer is checked.
struct OpenSpans<'t> {
    tracer: &'t mut Tracer,
    verify: crate::trace::SpanId,
    root: crate::trace::SpanId,
}

impl OpenSpans<'_> {
    fn close(self, sim: &impl PierEngine) {
        self.tracer.close(self.verify, || counts(sim));
        self.tracer.close(self.root, || counts(sim));
    }
}

struct SliceLog {
    traced: bool,
    slices: Vec<(Time, f64)>,
    store_items_peak: u64,
    installed_peak: u64,
}

impl SliceLog {
    /// Split the slices' CPU at the simulated instants of the 30th and
    /// the last result.
    fn query_phases(&self, t30: Time, tlast: Time) -> Option<QueryPhases> {
        if !self.traced {
            return None;
        }
        let mut p = QueryPhases::default();
        for &(begins, cpu) in &self.slices {
            // A slice belongs to the phase its first instant falls in.
            if begins < t30 {
                p.first30_cpu_s += cpu;
            } else if begins < tlast {
                p.drain_cpu_s += cpu;
            } else {
                p.idle_tail_cpu_s += cpu;
            }
        }
        Some(p)
    }
}

fn store_items(sim: &impl PierEngine) -> u64 {
    (0..sim.node_count() as NodeId)
        .filter_map(|id| sim.node(id))
        .map(|n| n.dht.store.len() as u64)
        .sum()
}

fn meter_sum(sim: &impl PierEngine) -> TrafficMeter {
    let mut total = TrafficMeter::default();
    for node in (0..sim.node_count() as NodeId).filter_map(|id| sim.node(id)) {
        total.merge(&node.dht.meter);
    }
    total
}

/// The layers' public counters at one instant.
struct LayerSnapshot {
    net: NetStats,
    meter: TrafficMeter,
    core: [u64; 8],
    store_items: u64,
}

impl LayerSnapshot {
    fn take(sim: &impl PierEngine) -> LayerSnapshot {
        let snap = metrics_snapshot(sim);
        LayerSnapshot {
            core: [
                snap.total(|q| q.rehash_bytes),
                snap.total(|q| q.rehash_puts),
                snap.total(|q| q.results_shipped),
                snap.total(|q| q.result_bytes),
                snap.total(|q| q.renewals),
                snap.nodes
                    .iter()
                    .map(|n| n.registry.admitted_installs)
                    .sum(),
                snap.rejected_installs(),
                snap.shed_publishes(),
            ],
            net: snap.net,
            meter: meter_sum(sim),
            store_items: store_items(sim),
        }
    }

    fn since(&self, pre: &LayerSnapshot, log: &SliceLog) -> LayerCounts {
        let d = |i: usize| self.core[i] - pre.core[i];
        LayerCounts {
            net: self.net.since(&pre.net),
            meter: self.meter.since(&pre.meter),
            store_items_start: pre.store_items,
            store_items_end: self.store_items,
            store_items_peak: log.store_items_peak.max(self.store_items),
            rehash_bytes: d(0),
            rehash_puts: d(1),
            results_shipped: d(2),
            result_bytes: d(3),
            renewals: d(4),
            admitted_installs: d(5),
            // Rejections and sheds are totals: the one rejected install
            // is issued before the timeline starts.
            rejected_installs: self.core[6],
            shed_publishes: self.core[7],
            installed_peak: log.installed_peak,
        }
    }
}

/// |expected ∩ got| as multisets.
pub fn multiset_overlap(expected: &[Tuple], got: &[Tuple]) -> u64 {
    let mut want: HashMap<&Tuple, u64> = HashMap::new();
    for row in expected {
        *want.entry(row).or_insert(0) += 1;
    }
    let mut hit = 0;
    for row in got {
        if let Some(left) = want.get_mut(row) {
            if *left > 0 {
                *left -= 1;
                hit += 1;
            }
        }
    }
    hit
}

// ---------------------------------------------------------------------
// The §5.1 join, on either engine
// ---------------------------------------------------------------------

/// One distributed symmetric-hash join of the §5.1 tables.
#[derive(Clone, Copy)]
pub struct JoinJob {
    pub nodes: usize,
    pub s_rows: u64,
    /// 10 Mbps inbound links (`paper_baseline`) or latency only.
    pub bandwidth_limited: bool,
    /// Simulated seconds the query runs for.
    pub horizon_s: u64,
    /// Run on `ShardedSim` with this many shards instead of `Sim`.
    pub shards: Option<usize>,
}

pub const JOIN_WAN: JoinJob = JoinJob {
    nodes: 256,
    s_rows: 4096,
    bandwidth_limited: true,
    horizon_s: 300,
    shards: None,
};

pub const SCALEUP_10K: JoinJob = JoinJob {
    nodes: 10_000,
    s_rows: 1000,
    bandwidth_limited: false,
    horizon_s: 120,
    shards: None,
};

/// `scaleup_10k`'s job on the windowed `ShardedSim` engine at one shard.
/// Not a workload of its own: it is the same job, as memory-bound and so
/// as noisy on a shared host, and every `run_for` of that engine spawns
/// its workers anew, so the per-second checkpoints would put a varying
/// handful of allocations into `alloc_count`. The traced `scaleup_10k`
/// run makes one rep of it and holds it to the same simulated outcomes.
const SHARDED_10K_W1: JoinJob = JoinJob {
    shards: Some(1),
    ..SCALEUP_10K
};

/// One untraced rep of `scaleup_10k`'s job on `ShardedSim` at one shard.
pub fn sharded_twin_of_scaleup(seed: u64) -> Rep {
    SHARDED_10K_W1.rep(seed, &mut Tracer::off())
}

impl JoinJob {
    pub fn rep(&self, seed: u64, tracer: &mut Tracer) -> Rep {
        let net = if self.bandwidth_limited {
            NetConfig::paper_baseline(seed)
        } else {
            NetConfig::latency_only(seed)
        };
        let dht = DhtConfig::static_network();
        let mut meter = RepMeter::begin(tracer);
        let wl = meter.host_phase("setup.gen", |_| {
            RsWorkload::generate(RsParams {
                s_rows: self.s_rows,
                seed,
                ..Default::default()
            })
        });
        let expected =
            meter.host_phase("setup.oracle", |_| wl.expected(JoinStrategy::SymmetricHash));
        match self.shards {
            None => {
                let sim = meter.host_phase("setup.overlay", |_| {
                    stabilized_pier_sim(self.nodes, dht, net)
                });
                self.drive(sim, &wl, &expected, meter)
            }
            Some(w) => {
                let sim = meter.host_phase("setup.overlay", |_| {
                    stabilized_pier_sharded(self.nodes, dht, net, ShardMap::round_robin(w))
                });
                self.drive(sim, &wl, &expected, meter)
            }
        }
    }

    fn drive<E: PierEngine>(
        &self,
        mut sim: E,
        wl: &RsWorkload,
        expected: &[Tuple],
        mut meter: RepMeter,
    ) -> Rep {
        let life = Dur::from_secs(100_000);
        meter.sim_phase("setup.publish", &mut sim, |sim, _| {
            publish_round_robin(sim, "R", &wl.r, 0, life);
            publish_round_robin(sim, "S", &wl.s, 0, life);
        });
        meter.sim_phase("setup.settle", &mut sim, |sim, marks| {
            settle_publish(sim);
            for _ in 0..30 {
                marks.now();
                sim.run_for(Dur::from_secs(1));
            }
        });
        let setup_events = sim.events_processed();
        let traced = meter.tracer.enabled();
        let layers_pre = traced.then(|| LayerSnapshot::take(&sim));
        let query_bytes_pre = meter_sum(&sim).query_traffic();

        let mut desc = wl.query(1, 0, JoinStrategy::SymmetricHash);
        desc.n_nodes = self.nodes as u32;
        let qid = desc.qid;
        let submitted = sim.now();
        meter.start_measured(&sim);
        meter.act("query.submit", &mut sim, |sim| {
            sim.with_node(0, |node, ctx| node.submit(ctx, desc));
        });
        meter.advance(&mut sim, submitted + Dur::from_secs(self.horizon_s));
        let Measured {
            heap,
            host,
            events,
            setup_phases,
            segments,
            log,
            spans,
        } = meter.finish(&sim);

        // Verification and read-out: outside both timed phases.
        let results: Vec<(Time, Tuple)> = sim
            .node(0)
            .map(|n| n.query_results(qid).to_vec())
            .unwrap_or_default();
        let mut arrivals: Vec<Time> = results.iter().map(|(t, _)| *t).collect();
        arrivals.sort_unstable();
        assert!(
            arrivals.len() >= 30,
            "the workload must yield at least 30 results (got {})",
            arrivals.len()
        );
        let (t30, tlast) = (arrivals[29], arrivals[arrivals.len() - 1]);
        let rows: Vec<Tuple> = results.into_iter().map(|(_, r)| r).collect();
        // Query traffic as `pier_bench::RunMetrics::traffic_mb` defines
        // it: DHT-layer query bytes plus direct result delivery.
        let result_bytes: u64 = rows
            .iter()
            .map(|r| (pier_dht::msg::HEADER_BYTES + 8 + r.wire_size()) as u64)
            .sum();
        let traffic_bytes = meter_sum(&sim).query_traffic() - query_bytes_pre + result_bytes;
        let rep = Rep {
            exact: Exact {
                events,
                sim_t30_us: t30.since(submitted).as_micros(),
                sim_tlast_us: tlast.since(submitted).as_micros(),
                traffic_bytes,
                expected: expected.len() as u64,
                got: rows.len() as u64,
                matched: multiset_overlap(expected, &rows),
            },
            heap,
            host,
            setup_phases,
            segments,
            setup_events,
            nodes: self.nodes,
            measured_sim_s: self.horizon_s as f64,
            bandwidth_limited: self.bandwidth_limited,
            sql_installs: 0,
            workload_rows: (wl.r.len() + wl.s.len()) as u64,
            workload_bytes: wl.total_bytes(),
            query_phases: log.query_phases(t30, tlast),
            layers: layers_pre.map(|pre| LayerSnapshot::take(&sim).since(&pre, &log)),
        };
        spans.close(&sim);
        rep
    }
}

// ---------------------------------------------------------------------
// The multi-tenant standing-query timeline
// ---------------------------------------------------------------------

/// `exp_multitenant`'s `PIER_FULL=1` timeline: quota-governed standing
/// queries installed in waves over a small overlay, report batches
/// published every epoch, uninstalls and reclamation audits.
#[derive(Clone, Copy)]
pub struct TenantsJob {
    pub nodes: usize,
    pub tenants: usize,
    pub per_wave: usize,
}

pub const STANDING_TENANTS: TenantsJob = TenantsJob {
    nodes: 12,
    tenants: 1000,
    per_wave: 12,
};

const EPOCH: Dur = Dur(30_000_000);
const DISTINCT_FP: u64 = 10;
const DISTINCT_ADDR: u64 = 16;
/// Per-query renewal period; the soft-state horizon is three of them.
const RENEW_SECS: u64 = 40;
/// One horizon plus sweep margin: when a torn-down tenant is audited.
const RECLAIM: Dur = Dur(130_000_000);
const ROWS_PER_BATCH: usize = 16;
const FLOOD_ROWS: i64 = 600;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Step {
    Publish,
    Uninstall(usize),
    Install(usize),
    Audit(usize),
    Flood,
}

impl TenantsJob {
    // Tenant i watches fingerprint i % DISTINCT_FP; one in twenty runs
    // the 3-way triage, two in twenty the 2-way severity join (both with
    // per-query renewal), the rest the flat per-address count.
    fn sql_of(i: usize) -> String {
        let fp = i as u64 % DISTINCT_FP;
        match i % 20 {
            0 => intrusion::tenant_triage_sql(fp, 30, RENEW_SECS),
            1 | 2 => intrusion::tenant_severity_sql(fp, 30, RENEW_SECS),
            _ => intrusion::tenant_count_sql(fp, 30),
        }
    }

    fn qid_of(i: usize) -> u64 {
        5000 + i as u64
    }

    /// Lifetimes of 3, 4 or 5 epochs, staggered across install waves.
    fn epochs_of(i: usize) -> usize {
        3 + i % 3
    }

    pub fn rep(&self, seed: u64, tracer: &mut Tracer) -> Rep {
        let n = self.nodes;
        let catalog = Catalog::intrusion();
        let strategy = JoinStrategy::SymmetricHash;
        let life = Dur::from_secs(100_000);
        // Offsets from the first install. Tenant i installs at wave
        // i / per_wave (on the epoch grid), is uninstalled 10 s past its
        // last epoch boundary and audited one reclamation horizon later.
        let install_at = |i: usize| EPOCH.saturating_mul((i / self.per_wave) as u64);
        let uninstall_at = |i: usize| {
            install_at(i) + EPOCH.saturating_mul(Self::epochs_of(i) as u64) + Dur::from_secs(10)
        };
        let n_batches = (self.tenants - 1) / self.per_wave + 6;
        let publish_at = |k: usize| EPOCH.saturating_mul(k as u64) + Dur::from_secs(10);

        let mut meter = RepMeter::begin(tracer);
        let (advisories, reputation, batch0, batches) = meter.host_phase("setup.gen", |_| {
            let batch = |k: usize| {
                intrusion::intrusions_from(
                    (k * ROWS_PER_BATCH) as i64,
                    ROWS_PER_BATCH,
                    DISTINCT_FP,
                    DISTINCT_ADDR,
                    seed ^ k as u64,
                )
            };
            (
                intrusion::advisories(DISTINCT_FP, seed),
                intrusion::reputations(DISTINCT_ADDR, seed),
                batch(0),
                (1..=n_batches).map(batch).collect::<Vec<_>>(),
            )
        });

        // Ground truth per tenant over its own live span: epochs are
        // relative to its install; rows that predate it count from its
        // epoch 0.
        let expected: Vec<Vec<Vec<Tuple>>> = meter.host_phase("setup.oracle", |marks| {
            let mut reports: TimedRows = batch0.iter().map(|r| (Time::ZERO, r.clone())).collect();
            for (k, batch) in batches.iter().enumerate() {
                reports.extend(
                    batch
                        .iter()
                        .map(|r| (Time::ZERO + publish_at(k), r.clone())),
                );
            }
            let fixed = |rows: &[Tuple]| -> TimedRows {
                rows.iter().map(|r| (Time::ZERO, r.clone())).collect()
            };
            let (adv, rep) = (fixed(&advisories), fixed(&reputation));
            (0..self.tenants)
                .map(|i| {
                    let desc = parse_continuous_query(
                        &Self::sql_of(i),
                        &catalog,
                        strategy,
                        Self::qid_of(i),
                        0,
                    )
                    .expect("tenant SQL");
                    let shifted: TimedRows = reports
                        .iter()
                        .map(|(t, r)| (Time::ZERO + t.since(Time::ZERO + install_at(i)), r.clone()))
                        .collect();
                    let tables: HashMap<String, TimedRows> = [
                        ("intrusions".to_string(), shifted),
                        ("advisories".to_string(), adv.clone()),
                        ("reputation".to_string(), rep.clone()),
                    ]
                    .into();
                    let instants: Vec<Time> = (0..Self::epochs_of(i))
                        .map(|e| Time::ZERO + EPOCH.saturating_mul(e as u64))
                        .collect();
                    let epochs = reference_epochs_at(&desc.op, &tables, None, &instants);
                    marks.now();
                    epochs
                })
                .collect()
        });

        let mut sim: Sim<PierNode> = meter.host_phase("setup.overlay", |_| {
            stabilized_pier_sim(
                n,
                DhtConfig::static_network(),
                NetConfig::latency_only(seed),
            )
        });
        meter.sim_phase("setup.publish", &mut sim, |sim, _| {
            publish_round_robin(sim, "advisories", &advisories, 0, life);
            publish_round_robin(sim, "reputation", &reputation, 0, life);
            publish_round_robin(sim, "intrusions", &batch0, 0, life);
        });
        meter.sim_phase("setup.settle", &mut sim, |sim, _| settle_publish(sim));

        // Governance: every node gets the same table rates and quota
        // book, so the install multicast reaches one verdict everywhere.
        // Tenant ids are 1-based; tenant 0 is the unmetered default.
        let tenant_of = |i: usize| (i + 1) as u32;
        let greedy_tenant = (self.tenants + 1) as u32;
        let flood_tenant = (self.tenants + 2) as u32;
        meter.sim_phase("setup.governance", &mut sim, |sim, _| {
            let avg_bytes = |rows: &[Tuple]| {
                rows.iter().map(|r| r.wire_size() as f64).sum::<f64>() / rows.len() as f64
            };
            let rates = [
                (
                    "intrusions",
                    TableRate {
                        rows_per_sec: ROWS_PER_BATCH as f64 / EPOCH.as_secs_f64(),
                        avg_tuple_bytes: avg_bytes(&batch0),
                    },
                ),
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
                    for (table, rate) in rates {
                        node.governor.set_table_rate(pier_dht::ns_of(table), rate);
                    }
                });
            }
            // One price per class (the fingerprint does not move it);
            // every tenant gets 30 % headroom over its class's price.
            let price_of = |sim: &Sim<PierNode>, i: usize| {
                let desc =
                    parse_continuous_query(&Self::sql_of(i), &catalog, strategy, 4000, 0).unwrap();
                sim.app(0).unwrap().governor.price(&desc)
            };
            let class_price = [price_of(sim, 0), price_of(sim, 1), price_of(sim, 3)];
            assert!(class_price.iter().all(|p| *p > 0.0), "{class_price:?}");
            let price_by_class = |i: usize| match i % 20 {
                0 => class_price[0],
                1 | 2 => class_price[1],
                _ => class_price[2],
            };
            for id in 0..n as NodeId {
                sim.with_app(id, |node, _| {
                    for i in 0..self.tenants {
                        node.governor.set_quota(
                            tenant_of(i),
                            Quota {
                                max_standing: 2,
                                max_priced_bytes_per_sec: price_by_class(i) * 1.3,
                                ..Quota::unlimited()
                            },
                        );
                    }
                    // The greedy tenant's budget undercuts the cheapest
                    // class; the flood tenant may publish 200 B/s with a
                    // 2 KB burst.
                    node.governor.set_quota(
                        greedy_tenant,
                        Quota {
                            max_priced_bytes_per_sec: class_price[2] * 0.5,
                            ..Quota::unlimited()
                        },
                    );
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
            let greedy = parse_continuous_query(&Self::sql_of(3), &catalog, strategy, 4999, 0)
                .unwrap()
                .with_tenant(greedy_tenant);
            match sim
                .with_app(0, |node, ctx| node.try_submit(ctx, greedy))
                .unwrap()
            {
                Err(AdmissionError::PricedTraffic { tenant, .. }) => {
                    assert_eq!(tenant, greedy_tenant)
                }
                other => panic!("greedy tenant must be refused on price, got {other:?}"),
            }
        });

        let mut steps: Vec<(Dur, Step)> = (0..self.tenants)
            .flat_map(|i| {
                [
                    (install_at(i), Step::Install(i)),
                    (uninstall_at(i), Step::Uninstall(i)),
                    (uninstall_at(i) + RECLAIM, Step::Audit(i)),
                ]
            })
            .collect();
        steps.extend((0..n_batches).map(|k| (publish_at(k), Step::Publish)));
        // The hot tenant's flood lands clear of the epoch grid and of
        // the publish instants.
        steps.push((EPOCH.saturating_mul(2) + Dur::from_secs(18), Step::Flood));
        steps.sort();

        let setup_events = sim.events_processed();
        let traced = meter.tracer.enabled();
        let layers_pre = traced.then(|| LayerSnapshot::take(&sim));
        let net_bytes_pre = sim.stats().bytes;
        let t0 = sim.now();
        let mut batches = batches.into_iter();
        let mut flood_shed = 0usize;
        let mut residual_items = 0usize;

        meter.start_measured(&sim);
        for (offset, step) in steps {
            meter.advance(&mut sim, t0 + offset);
            match step {
                Step::Install(i) => meter.act("tenant.install", &mut sim, |sim| {
                    let desc = parse_continuous_query(
                        &Self::sql_of(i),
                        &catalog,
                        strategy,
                        Self::qid_of(i),
                        0,
                    )
                    .expect("tenant SQL")
                    .with_tenant(tenant_of(i));
                    sim.with_app(0, |node, ctx| node.try_submit(ctx, desc))
                        .unwrap()
                        .unwrap_or_else(|e| panic!("tenant {i} refused: {e}"));
                }),
                Step::Publish => meter.act("tenant.publish", &mut sim, |sim| {
                    let batch = batches.next().expect("one batch per publish step");
                    publish_round_robin(sim, "intrusions", &batch, 0, life);
                }),
                Step::Flood => meter.act("tenant.flood", &mut sim, |sim| {
                    // The bucket admits a sliver and sheds the rest at
                    // ingress; the noise table is outside every oracle
                    // and its 60 s lifetime expires the sliver.
                    let rows: Vec<Tuple> = (0..FLOOD_ROWS)
                        .map(|j| Tuple::new(vec![Value::I64(j), Value::I64(j * 7)]))
                        .collect();
                    let report = sim
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
                    flood_shed = report.shed;
                }),
                Step::Uninstall(i) => meter.act("tenant.uninstall", &mut sim, |sim| {
                    sim.with_app(0, |node, ctx| node.cancel(ctx, Self::qid_of(i)));
                }),
                Step::Audit(i) => meter.act("tenant.audit", &mut sim, |sim| {
                    let now = sim.now();
                    residual_items += (0..n as NodeId)
                        .filter_map(|id| sim.app(id))
                        .map(|node| node.query_soft_state(now, Self::qid_of(i), 2))
                        .sum::<usize>();
                }),
            }
        }
        let Measured {
            heap,
            host,
            events,
            setup_phases,
            segments,
            log,
            spans,
        } = meter.finish(&sim);

        // Verification and read-out: outside both timed phases.
        assert_eq!(
            residual_items, 0,
            "tenants left soft state one lifetime after uninstall"
        );
        assert!(
            flood_shed > 400,
            "the flood must be clipped at ingress ({flood_shed} shed)"
        );
        let mut exact = Exact {
            events,
            sim_t30_us: 0,
            sim_tlast_us: 0,
            traffic_bytes: sim.stats().bytes - net_bytes_pre,
            expected: 0,
            got: 0,
            matched: 0,
        };
        let mut arrivals: Vec<Time> = Vec::new();
        for (i, expected) in expected.iter().enumerate() {
            let install = t0 + install_at(i);
            let k = Self::epochs_of(i);
            let mut got: Vec<Vec<Tuple>> = vec![Vec::new(); k];
            for (t, row) in sim.app(0).unwrap().query_results(Self::qid_of(i)) {
                arrivals.push(*t);
                let since = t.since(install).as_micros();
                let e = (since / EPOCH.as_micros()) as usize;
                if *t >= install && e < k {
                    got[e].push(row.clone());
                    // Worst lag of a row behind its epoch boundary.
                    exact.sim_tlast_us = exact.sim_tlast_us.max(since % EPOCH.as_micros());
                } else {
                    // A row outside the tenant's live span is spurious.
                    exact.got += 1;
                }
            }
            for e in 0..k {
                exact.expected += expected[e].len() as u64;
                exact.got += got[e].len() as u64;
                exact.matched += multiset_overlap(&expected[e], &got[e]);
            }
        }
        arrivals.sort_unstable();
        assert!(
            arrivals.len() >= 30,
            "the timeline must yield 30 result rows"
        );
        exact.sim_t30_us = arrivals[29].since(t0).as_micros();
        let base_rows = advisories.len() + reputation.len() + (n_batches + 1) * ROWS_PER_BATCH;
        let base_bytes: u64 = [&advisories, &reputation, &batch0]
            .iter()
            .flat_map(|rows| rows.iter())
            .map(|r| r.wire_size() as u64)
            .sum();
        let rep = Rep {
            exact,
            heap,
            host,
            setup_phases,
            segments,
            setup_events,
            nodes: n,
            measured_sim_s: sim.now().since(t0).as_secs_f64(),
            bandwidth_limited: false,
            sql_installs: self.tenants as u64,
            workload_rows: base_rows as u64,
            // Report batches are all the width of the first.
            workload_bytes: base_bytes
                + n_batches as u64 * batch0.iter().map(|r| r.wire_size() as u64).sum::<u64>(),
            query_phases: log.query_phases(arrivals[29], arrivals[arrivals.len() - 1]),
            layers: layers_pre.map(|pre| LayerSnapshot::take(&sim).since(&pre, &log)),
        };
        spans.close(&sim);
        rep
    }
}

/// Run one rep of the named workload.
pub fn run_rep(workload: &str, seed: u64, tracer: &mut Tracer) -> Rep {
    match workload {
        "join_wan" => JOIN_WAN.rep(seed, tracer),
        "scaleup_10k" => SCALEUP_10K.rep(seed, tracer),
        // Offset so that the default seed 11 is `exp_multitenant`'s own
        // seed 7171, whose committed figures the continuity check pins.
        "standing_tenants" => STANDING_TENANTS.rep(seed + 7160, tracer),
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §5.1 join in miniature: seconds of debug-build time.
    const MINI: JoinJob = JoinJob {
        nodes: 8,
        s_rows: 80,
        bandwidth_limited: true,
        horizon_s: 60,
        shards: None,
    };

    #[test]
    fn overlap_counts_missing_duplicate_and_spurious_rows() {
        let row = |k: i64| Tuple::new(vec![Value::I64(k)]);
        let expected = vec![row(1), row(2), row(2), row(3)];
        let share = |got: &[Tuple]| {
            let e = Exact {
                events: 0,
                sim_t30_us: 0,
                sim_tlast_us: 0,
                traffic_bytes: 0,
                expected: expected.len() as u64,
                got: got.len() as u64,
                matched: multiset_overlap(&expected, got),
            };
            e.ops_ok_share()
        };
        assert_eq!(share(&expected), 1.0);
        // One row missing: 3 of 4 operations succeeded.
        assert_eq!(share(&[row(1), row(2), row(3)]), 0.75);
        // A duplicate beyond the expected multiplicity is a failed op.
        assert_eq!(share(&[row(1), row(2), row(2), row(2), row(3)]), 0.8);
        // So is a row the oracle never produced.
        assert_eq!(share(&[row(1), row(2), row(2), row(3), row(9)]), 0.8);
        assert_eq!(share(&[]), 0.0);
    }

    #[test]
    fn miniature_join_repeats_exactly_traced_or_not() {
        let a = MINI.rep(5, &mut Tracer::off());
        let b = MINI.rep(5, &mut Tracer::off());
        let mut tracer = Tracer::on();
        let c = MINI.rep(5, &mut tracer);
        assert_eq!(a.exact, b.exact, "two reps of one job");
        assert_eq!(a.exact, c.exact, "slicing the run must not perturb it");
        assert_eq!(a.exact.ops_ok_share(), 1.0);
        assert!(a.exact.events > 0 && a.exact.sim_t30_us <= a.exact.sim_tlast_us);
        assert!(a.layers.is_none() && a.query_phases.is_none());

        let layers = c.layers.expect("a traced rep reads the layer counters");
        assert!(layers.net.messages > 0 && layers.rehash_puts > 0);
        assert_eq!(layers.results_shipped, c.exact.got);
        assert!(layers.store_items_peak >= layers.store_items_end);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name.as_str()).collect();
        for want in [
            "rep",
            "setup.gen",
            "setup.oracle",
            "setup.overlay",
            "setup.publish",
            "setup.settle",
            "query.submit",
            "query.run[0]",
            "query.run[59]",
            "verify",
        ] {
            assert!(names.contains(&want), "span {want} missing from {names:?}");
        }
        // Another seed is another job, still answered correctly.
        let d = MINI.rep(6, &mut Tracer::off());
        assert_ne!(d.exact, a.exact);
        assert_eq!(d.exact.ops_ok_share(), 1.0);
    }

    #[test]
    fn miniature_sharded_join_matches_the_sequential_engine() {
        let seq = MINI.rep(5, &mut Tracer::off());
        let sharded = JoinJob {
            shards: Some(1),
            ..MINI
        }
        .rep(5, &mut Tracer::off());
        assert_eq!(seq.exact, sharded.exact);
    }

    #[test]
    fn miniature_tenant_timeline_is_answered_exactly() {
        let job = TenantsJob {
            nodes: 6,
            tenants: 40,
            per_wave: 8,
        };
        let a = job.rep(3, &mut Tracer::off());
        let b = job.rep(3, &mut Tracer::on());
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.exact.ops_ok_share(), 1.0);
        assert!(a.exact.expected > 0);
        let layers = b.layers.unwrap();
        assert_eq!(
            layers.admitted_installs,
            40 * 6,
            "every node admits every tenant"
        );
        assert_eq!(layers.rejected_installs, 1);
        assert!(layers.shed_publishes > 400 && layers.renewals > 0);
    }
}
