//! The metric catalogue and the arithmetic from reps to reported values.

use pier_dht::msg::CanMsg;
use pier_dht::{DhtConfig, DhtMsg};
use pier_simnet::Wire;

use crate::estimate::{estimate, iqr_share, segmented_estimate, steal_filter};
use crate::micro::Micro;
use crate::workloads::Rep;

/// A reported value: (name, value, unit).
pub type Row = (&'static str, f64, &'static str);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A count or a simulated outcome: identical on every rep and every
    /// host for one seed.
    Exact,
    /// Host time or memory: estimated, noisy.
    Host,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub kind: Kind,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (`BENCHMARK.json`).
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, kind: Kind, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        kind,
        bound,
    }
}

/// The end-to-end metrics, in reporting order. Bounds leave room for the
/// spread *across seeds* (the driver varies the seed between runs), which
/// for the exact metrics is the only spread there is.
///
/// CPU seconds of the measured phase are not among them: on the shared
/// host this runs on, memory-bound work slows by 1.4 – 2× for minutes at
/// a time, which no bound the contract allows can absorb. They are the
/// per-layer `bench.cpu_s`; the gated price of a job is its exact heap
/// and event counts.
pub const END_TO_END: [MetricDef; 10] = [
    lower("setup_s", "s", Kind::Host, 0.25),
    lower("events", "count", Kind::Exact, 0.03),
    lower("alloc_count", "count", Kind::Exact, 0.04),
    lower("alloc_mb", "MB", Kind::Exact, 0.06),
    lower("peak_live_mb", "MB", Kind::Exact, 0.05),
    lower("sim_t30_s", "sim_s", Kind::Exact, 0.10),
    lower("sim_tlast_s", "sim_s", Kind::Exact, 0.15),
    lower("traffic_mb", "MB", Kind::Exact, 0.06),
    MetricDef {
        name: "ops_ok_share",
        unit: "ratio",
        higher_is_better: true,
        kind: Kind::Exact,
        bound: 0.01,
    },
    lower("peak_rss_mb", "MB", Kind::Host, 0.10),
];

/// Host-side summary of the timed reps of one run.
pub struct RunSummary {
    pub keep: Vec<bool>,
    pub reps_run: usize,
    pub reps_kept: usize,
    /// Mean steal share over all timed reps.
    pub steal_share: f64,
    pub cpu_s: f64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_iqr_share: f64,
}

impl RunSummary {
    /// `reps` are the timed reps, warm-up already removed.
    pub fn of(reps: &[Rep]) -> RunSummary {
        let column = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
        let rows = |f: fn(&Rep) -> &Vec<f64>| -> Vec<&[f64]> {
            reps.iter().map(|r| f(r).as_slice()).collect()
        };
        let steal = column(|r| r.host.steal_share);
        let keep = steal_filter(&steal);
        let cpu = column(|r| r.host.cpu_s);
        let kept_cpu: Vec<f64> = cpu
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&c, _)| c)
            .collect();
        RunSummary {
            reps_run: reps.len(),
            reps_kept: kept_cpu.len(),
            steal_share: steal.iter().sum::<f64>() / steal.len().max(1) as f64,
            cpu_s: segmented_estimate(&rows(|r| &r.segments.measured), &keep),
            setup_s: segmented_estimate(&rows(|r| &r.segments.setup), &keep),
            wall_s: estimate(&column(|r| r.host.wall_s), &keep),
            cpu_iqr_share: iqr_share(&kept_cpu),
            keep,
        }
    }
}

/// Every end-to-end metric of a run. The exact ones come from `rep`
/// (any timed rep: the harness has already checked they all agree).
pub fn end_to_end(rep: &Rep, run: &RunSummary, peak_rss_mb: f64) -> Vec<Row> {
    let values = [
        run.setup_s,
        rep.exact.events as f64,
        rep.heap.alloc_count as f64,
        rep.heap.alloc_bytes as f64 / 1e6,
        rep.heap.peak_live as f64 / 1e6,
        rep.exact.sim_t30_us as f64 / 1e6,
        rep.exact.sim_tlast_us as f64 / 1e6,
        rep.exact.traffic_bytes as f64 / 1e6,
        rep.exact.ops_ok_share(),
        peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, v)| (def.name, v, def.unit))
        .collect()
}

/// Names and units of the per-layer metrics, in reporting order.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("simnet.messages", "count"),
    ("simnet.bytes_mb", "MB"),
    ("simnet.max_inbound_mb", "MB"),
    ("simnet.dropped", "count"),
    ("simnet.event_ns_n100", "ns"),
    ("simnet.event_ns_n10000", "ns"),
    ("simnet.timer_ns", "ns"),
    ("simnet.bw_event_ns", "ns"),
    ("simnet.sharded.w1_cpu_ratio", "ratio"),
    ("simnet.sharded.w2_wall_ratio", "ratio"),
    ("simnet.cluster.request_rtt_us", "us"),
    ("simnet.est_share", "ratio"),
    ("dht.lookup_mb", "MB"),
    ("dht.mcast_mb", "MB"),
    ("dht.data_mb", "MB"),
    ("dht.maintenance_mb", "MB"),
    ("dht.replication_mb", "MB"),
    ("dht.store_items_end", "count"),
    ("dht.store_items_peak", "count"),
    ("dht.overlay_build_ms_10k", "ms"),
    ("dht.can_next_hop_ns", "ns"),
    ("dht.idle_tick_ns", "ns"),
    ("dht.chord_step_ns", "ns"),
    ("dht.store_put_ns", "ns"),
    ("dht.store_get_ns", "ns"),
    ("dht.store_lscan_ns_per_item", "ns"),
    ("dht.store_sweep_ns_per_item", "ns"),
    ("dht.put_e2e_us", "us"),
    ("dht.mcast_e2e_ms_10k", "ms"),
    ("dht.est_share", "ratio"),
    ("core.rehash_mb", "MB"),
    ("core.rehash_puts", "count"),
    ("core.results_shipped", "count"),
    ("core.result_mb", "MB"),
    ("core.renewals", "count"),
    ("core.admitted_installs", "count"),
    ("core.rejected_installs", "count"),
    ("core.shed_publishes", "count"),
    ("core.installed_peak", "count"),
    ("core.tuple_encode_ns", "ns"),
    ("core.tuple_decode_ns", "ns"),
    ("core.flatrow_from_tuple_ns", "ns"),
    ("core.expr_matches_ns", "ns"),
    ("core.agg_update_ns", "ns"),
    ("core.agg_merge_ns", "ns"),
    ("core.bloom_insert_ns", "ns"),
    ("core.bloom_contains_ns", "ns"),
    ("core.sql_plan_us", "us"),
    ("core.sql_continuous_us", "us"),
    ("core.price_query_us", "us"),
    ("core.reference_join_ms", "ms"),
    ("core.cpu_per_result_us", "us"),
    ("core.est_share", "ratio"),
    ("workload.gen_ms", "ms"),
    ("workload.rows", "count"),
    ("workload.bytes_mb", "MB"),
    ("bench.cpu_s", "s"),
    ("bench.wall_s", "s"),
    ("bench.events_per_sec", "1/s"),
    ("bench.results_per_sec", "1/s"),
    ("bench.reps_run", "count"),
    ("bench.reps_kept", "count"),
    ("bench.steal_share", "ratio"),
    ("bench.cpu_iqr_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.unattributed_share", "ratio"),
    ("phase.gen_cpu_s", "s"),
    ("phase.oracle_cpu_s", "s"),
    ("phase.overlay_cpu_s", "s"),
    ("phase.publish_cpu_s", "s"),
    ("phase.first30_cpu_s", "s"),
    ("phase.drain_cpu_s", "s"),
    ("phase.idle_tail_cpu_s", "s"),
];

/// Every per-layer metric: exact counters and phase CPU from the traced
/// rep, unit costs from the micro-operations, throughput from the timed
/// reps, and the `est_share` attribution row derived from all three.
///
/// `traced_query_cpu_s` is the CPU inside the traced rep's measured-phase
/// spans (sampling between spans excluded).
pub fn per_layer(
    traced: &Rep,
    traced_query_cpu_s: f64,
    run: &RunSummary,
    timed: &[Rep],
    micro: &Micro,
) -> Vec<Row> {
    let layers = traced.layers.as_ref().expect("traced rep reads the layers");
    let phases = traced.query_phases.expect("traced rep splits the query");
    let mb = |bytes: u64| bytes as f64 / 1e6;
    let setup_cpu = |prefix: &str| -> f64 {
        traced
            .setup_phases
            .iter()
            .filter(|(name, _, _)| name.starts_with(prefix))
            .map(|(_, cpu, _)| cpu)
            .sum()
    };

    // Throughput over publish + settle + query, as `BENCH_scaleup.json`
    // counts it, on the fastest kept rep's wall clock.
    let loaded_wall = |r: &Rep| -> f64 {
        r.host.wall_s
            + r.setup_phases
                .iter()
                .filter(|(n, _, _)| matches!(*n, "setup.publish" | "setup.settle"))
                .map(|(_, _, wall)| wall)
                .sum::<f64>()
    };
    let best_wall = timed
        .iter()
        .zip(&run.keep)
        .filter(|(_, &k)| k)
        .map(|(r, _)| loaded_wall(r))
        .fold(f64::INFINITY, f64::min);
    let exact = &traced.exact;

    // Attribution estimates: unit cost × public operation count, over
    // the job's CPU. Rough by construction; the remainder is reported.
    let event_ns = if traced.bandwidth_limited {
        micro.get("simnet.bw_event_ns")
    } else if traced.nodes >= 1000 {
        micro.get("simnet.event_ns_n10000")
    } else {
        micro.get("simnet.event_ns_n100")
    };
    let job_ns = run.cpu_s * 1e9;
    let simnet_share = event_ns * exact.events as f64 / job_ns;
    let lookup_msg_bytes = DhtMsg::<Vec<u8>>::Can(CanMsg::Lookup {
        key: 0,
        token: 0,
        origin: 0,
        ttl: 0,
    })
    .wire_size() as f64;
    let route_steps = layers.meter.lookup as f64 / lookup_msg_bytes;
    let installs_per_node = layers.admitted_installs as f64 / traced.nodes as f64;
    let scanned_items = installs_per_node * layers.store_items_start as f64;
    // Every node ticks, and every tick sweeps that node's store.
    let ticks = traced.measured_sim_s / DhtConfig::static_network().tick.as_secs_f64();
    let swept_items = ticks * (layers.store_items_start + layers.store_items_end) as f64 / 2.0;
    let node_ticks = ticks * traced.nodes as f64;
    let dht_share = (route_steps * micro.get("dht.can_next_hop_ns")
        + layers.rehash_puts as f64 * micro.get("dht.store_put_ns")
        + scanned_items * micro.get("dht.store_lscan_ns_per_item")
        + swept_items * micro.get("dht.store_sweep_ns_per_item")
        + node_ticks * micro.get("dht.idle_tick_ns"))
        / job_ns;
    let core_share = (layers.rehash_puts as f64
        * (micro.get("core.expr_matches_ns") + micro.get("core.flatrow_from_tuple_ns"))
        + layers.results_shipped as f64
            * (2.0 * micro.get("core.tuple_decode_ns")
                + micro.get("core.expr_matches_ns")
                + micro.get("core.tuple_encode_ns"))
        + traced.sql_installs as f64 * micro.get("core.sql_continuous_us") * 1e3
        + layers.admitted_installs as f64 * micro.get("core.price_query_us") * 1e3)
        / job_ns;

    let value_of = |name: &str| -> f64 {
        match name {
            "simnet.messages" => layers.net.messages as f64,
            "simnet.bytes_mb" => mb(layers.net.bytes),
            "simnet.max_inbound_mb" => mb(layers.net.max_inbound()),
            "simnet.dropped" => {
                (layers.net.dropped_to_failed + layers.net.dropped_in_window) as f64
            }
            "simnet.est_share" => simnet_share,
            "dht.lookup_mb" => mb(layers.meter.lookup),
            "dht.mcast_mb" => mb(layers.meter.mcast),
            "dht.data_mb" => mb(layers.meter.data),
            "dht.maintenance_mb" => mb(layers.meter.maintenance),
            "dht.replication_mb" => mb(layers.meter.replication),
            "dht.store_items_end" => layers.store_items_end as f64,
            "dht.store_items_peak" => layers.store_items_peak as f64,
            "dht.est_share" => dht_share,
            "core.rehash_mb" => mb(layers.rehash_bytes),
            "core.rehash_puts" => layers.rehash_puts as f64,
            "core.results_shipped" => layers.results_shipped as f64,
            "core.result_mb" => mb(layers.result_bytes),
            "core.renewals" => layers.renewals as f64,
            "core.admitted_installs" => layers.admitted_installs as f64,
            "core.rejected_installs" => layers.rejected_installs as f64,
            "core.shed_publishes" => layers.shed_publishes as f64,
            "core.installed_peak" => layers.installed_peak as f64,
            "core.cpu_per_result_us" => run.cpu_s * 1e6 / exact.got.max(1) as f64,
            "core.est_share" => core_share,
            "workload.gen_ms" => setup_cpu("setup.gen") * 1e3,
            "workload.rows" => traced.workload_rows as f64,
            "workload.bytes_mb" => mb(traced.workload_bytes),
            "bench.cpu_s" => run.cpu_s,
            "bench.wall_s" => run.wall_s,
            "bench.events_per_sec" => (traced.setup_events + exact.events) as f64 / best_wall,
            "bench.results_per_sec" => exact.got as f64 / best_wall,
            "bench.reps_run" => run.reps_run as f64,
            "bench.reps_kept" => run.reps_kept as f64,
            "bench.steal_share" => run.steal_share,
            "bench.cpu_iqr_share" => run.cpu_iqr_share,
            "bench.trace_overhead_share" => traced_query_cpu_s / run.cpu_s - 1.0,
            "bench.unattributed_share" => 1.0 - simnet_share - dht_share - core_share,
            "phase.gen_cpu_s" => setup_cpu("setup.gen"),
            "phase.oracle_cpu_s" => setup_cpu("setup.oracle"),
            "phase.overlay_cpu_s" => setup_cpu("setup.overlay"),
            // Publish, settle and (tenants) the quota-book install.
            "phase.publish_cpu_s" => {
                setup_cpu("setup.publish") + setup_cpu("setup.settle") + setup_cpu("setup.gov")
            }
            "phase.first30_cpu_s" => phases.first30_cpu_s,
            "phase.drain_cpu_s" => phases.drain_cpu_s,
            "phase.idle_tail_cpu_s" => phases.idle_tail_cpu_s,
            micro_op => micro.get(micro_op),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, value_of(name), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary emits. They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items.clone(),
                other => panic!("{key}: {other:?}"),
            }
        };
        let field = |item: &Json, k: &str| item.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name"), def.name);
            assert_eq!(field(item, "unit"), def.unit, "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(item, "better"), better, "{}", def.name);
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(def.bound));
            assert!(def.bound > 0.0 && def.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name"), *name);
            assert_eq!(field(item, "unit"), *unit, "{name}");
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|d| d.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
