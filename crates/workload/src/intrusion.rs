//! Network-monitoring data behind the §2.1 example queries.
//!
//! The paper's application pull is in-situ querying of widely deployed
//! monitoring tools (Snort/TBIT/tcpdump wrappers). We synthesize their
//! outputs: intrusion fingerprints with Zipf-ish popularity (a few
//! attacks seen by many nodes), per-address reputations, spam-gateway
//! and web-robot sightings sharing domains, and packet-header traces.

use pier_core::tuple::Tuple;
use pier_core::value::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Zipf-like index in `0..n`: rank-skewed so low indices dominate.
fn zipfish(rng: &mut SmallRng, n: u64) -> u64 {
    let u: f64 = rng.gen_range(0.0001..1.0);
    let idx = (n as f64).powf(u) - 1.0;
    (idx as u64).min(n - 1)
}

/// `intrusions(id, fingerprint, address)`: attack reports published by
/// victim nodes; fingerprints are skewed so widespread attacks recur.
pub fn intrusions(n: usize, distinct_fp: u64, distinct_addr: u64, seed: u64) -> Vec<Tuple> {
    intrusions_from(0, n, distinct_fp, distinct_addr, seed)
}

/// [`intrusions`] with ids starting at `start_id` — the batched form a
/// *standing* query consumes: batch `b` of a report stream uses
/// `start_id = b * n` so primary keys (and hence DHT resourceIDs) never
/// collide across batches.
pub fn intrusions_from(
    start_id: i64,
    n: usize,
    distinct_fp: u64,
    distinct_addr: u64,
    seed: u64,
) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fp = zipfish(&mut rng, distinct_fp);
            let addr = rng.gen_range(0..distinct_addr);
            Tuple::new(vec![
                Value::I64(start_id + i as i64),
                Value::str(&format!("sig-{fp:04}")),
                Value::str(&format!(
                    "10.{}.{}.{}",
                    addr >> 16 & 255,
                    addr >> 8 & 255,
                    addr & 255
                )),
            ])
        })
        .collect()
}

/// The paper's intrusion-detection scenario (§2.1) run as a *standing*
/// query: per-attacker triage — how many reports and the worst advisory
/// severity per reported address, weighted by the reporter being known
/// to the reputation table — re-emitted every `epoch_secs`, optionally
/// over a sliding `window_secs` so stale reports age out.
pub fn triage_standing_sql(window_secs: Option<u64>, epoch_secs: u64) -> String {
    let window = window_secs.map_or(String::new(), |w| format!(" WINDOW {w} SECONDS"));
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         GROUP BY I.address{window} EPOCH {epoch_secs} SECONDS"
    )
}

/// One tenant of a multi-tenant standing-query workload: a flat
/// per-epoch aggregate watching a single attack fingerprint — hundreds
/// of these coexist, each with its own lifecycle (install → epochs →
/// uninstall).
pub fn tenant_count_sql(fp: u64, epoch_secs: u64) -> String {
    format!(
        "SELECT I.address, count(*) AS reports FROM intrusions I \
         WHERE I.fingerprint = 'sig-{fp:04}' \
         GROUP BY I.address EPOCH {epoch_secs} SECONDS"
    )
}

/// A join-shaped tenant: reports for one fingerprint joined with its
/// advisory, carrying a per-query `RENEW` period so the standing join's
/// rehash soft state outlives the fallback horizon without any
/// node-global renewal loop.
pub fn tenant_severity_sql(fp: u64, epoch_secs: u64, renew_secs: u64) -> String {
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A \
         WHERE I.fingerprint = A.fingerprint AND I.fingerprint = 'sig-{fp:04}' \
         GROUP BY I.address EPOCH {epoch_secs} SECONDS RENEW {renew_secs} SECONDS"
    )
}

/// A 3-way tenant: the full triage pipeline (reports ⨝ advisories ⨝
/// reputations) for one fingerprint, with a per-query renewal period.
pub fn tenant_triage_sql(fp: u64, epoch_secs: u64, renew_secs: u64) -> String {
    format!(
        "SELECT I.address, count(*) AS reports, max(A.severity) AS sev \
         FROM intrusions I, advisories A, reputation R \
         WHERE I.fingerprint = A.fingerprint AND I.address = R.address \
         AND I.fingerprint = 'sig-{fp:04}' \
         GROUP BY I.address EPOCH {epoch_secs} SECONDS RENEW {renew_secs} SECONDS"
    )
}

/// `reputation(address, weight)`: an organization's stored judgment of
/// reporters (§2.1's weighted query).
pub fn reputations(distinct_addr: u64, seed: u64) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0002);
    (0..distinct_addr)
        .map(|addr| {
            Tuple::new(vec![
                Value::str(&format!(
                    "10.{}.{}.{}",
                    addr >> 16 & 255,
                    addr >> 8 & 255,
                    addr & 255
                )),
                Value::I64(rng.gen_range(0..5)),
            ])
        })
        .collect()
}

/// `advisories(fingerprint, severity)`: one security-advisory row per
/// known attack fingerprint, for the 3-way triage query joining reports
/// with advisories and reporter reputations:
///
/// ```sql
/// SELECT I.address, A.severity, R.weight
/// FROM intrusions I, advisories A, reputation R
/// WHERE I.fingerprint = A.fingerprint AND I.address = R.address
///   AND A.severity > 6
/// ```
pub fn advisories(distinct_fp: u64, seed: u64) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0005);
    (0..distinct_fp)
        .map(|fp| {
            Tuple::new(vec![
                Value::str(&format!("sig-{fp:04}")),
                Value::I64(rng.gen_range(0..10)),
            ])
        })
        .collect()
}

/// `spamGateways(id, source, smtpGWDomain)` and
/// `robots(id, clientDomain)` with controlled domain overlap, so the
/// compromised-subnet join (§2.1's first query) has answers.
pub fn gateways_and_robots(
    n_gw: usize,
    n_robots: usize,
    domains: u64,
    seed: u64,
) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0003);
    let gw = (0..n_gw)
        .map(|i| {
            let d = zipfish(&mut rng, domains);
            Tuple::new(vec![
                Value::I64(i as i64),
                Value::str(&format!("mail{}.d{d}.example", i)),
                Value::str(&format!("d{d}.example")),
            ])
        })
        .collect();
    let robots = (0..n_robots)
        .map(|i| {
            let d = zipfish(&mut rng, domains);
            Tuple::new(vec![
                Value::I64(i as i64),
                Value::str(&format!("d{d}.example")),
            ])
        })
        .collect();
    (gw, robots)
}

/// `packets(id, src, dst, port, bytes)`: a tcpdump-style header trace
/// for bandwidth-utilization aggregates.
pub fn packet_trace(n: usize, hosts: u64, seed: u64) -> Vec<Tuple> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0004);
    let ports = [22i64, 25, 53, 80, 443, 6881];
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::I64(i as i64),
                Value::str(&format!("h{}", zipfish(&mut rng, hosts))),
                Value::str(&format!("h{}", rng.gen_range(0..hosts))),
                Value::I64(ports[rng.gen_range(0..ports.len())]),
                Value::I64(rng.gen_range(40..1500)),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn fingerprints_are_skewed() {
        let rows = intrusions(2000, 50, 100, 1);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for t in &rows {
            *counts.entry(t.get(1).to_string()).or_insert(0) += 1;
        }
        let max = *counts.values().max().unwrap();
        let avg = 2000 / counts.len();
        assert!(max > 3 * avg, "head fingerprint dominates: {max} vs {avg}");
    }

    #[test]
    fn batched_streams_never_collide_on_ids() {
        let b0 = intrusions_from(0, 50, 10, 20, 5);
        let b1 = intrusions_from(50, 50, 10, 20, 6);
        let ids: std::collections::HashSet<i64> = b0
            .iter()
            .chain(&b1)
            .map(|t| t.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(ids.len(), 100, "unique across batches");
        // Fingerprints stay compatible with the advisories generator.
        let advs = advisories(10, 5);
        let names: std::collections::HashSet<String> =
            advs.iter().map(|t| t.get(0).to_string()).collect();
        assert!(b1.iter().all(|t| names.contains(&t.get(1).to_string())));
    }

    #[test]
    fn triage_standing_sql_parses_against_the_catalog() {
        use pier_core::plan::QueryOp;
        let catalog = pier_core::catalog::Catalog::intrusion();
        let desc = pier_core::sql::parse_continuous_query(
            &triage_standing_sql(Some(120), 30),
            &catalog,
            pier_core::plan::JoinStrategy::SymmetricHash,
            1,
            0,
        )
        .unwrap();
        assert!(desc.tenure.window().is_some());
        let QueryOp::Join {
            join,
            agg: Some(agg),
        } = &desc.op
        else {
            panic!("expected a 3-way join aggregate")
        };
        assert_eq!(join.n_tables(), 3);
        assert_eq!(agg.aggs.len(), 2, "count(*) and max(severity)");
        assert!(agg.epoch.is_some());
        // The unwindowed form parses too.
        assert!(pier_core::sql::parse_continuous_query(
            &triage_standing_sql(None, 60),
            &catalog,
            pier_core::plan::JoinStrategy::SymmetricHash,
            2,
            0,
        )
        .is_ok());
    }

    #[test]
    fn tenant_sql_parses_with_per_query_renewal() {
        use pier_core::plan::{QueryOp, Tenure};
        let catalog = pier_core::catalog::Catalog::intrusion();
        let parse = |sql: &str, qid| {
            pier_core::sql::parse_continuous_query(
                sql,
                &catalog,
                pier_core::plan::JoinStrategy::SymmetricHash,
                qid,
                0,
            )
            .unwrap()
        };
        let flat = parse(&tenant_count_sql(3, 30), 1);
        assert_eq!(flat.tenure, Tenure::Unwindowed { renew_every: None });
        assert!(matches!(flat.op, QueryOp::Agg { .. }));
        let two = parse(&tenant_severity_sql(3, 30, 40), 2);
        assert_eq!(two.tenure.renew_every().unwrap().as_secs_f64(), 40.0);
        assert!(matches!(two.op, QueryOp::Join { agg: Some(_), .. }));
        let three = parse(&tenant_triage_sql(3, 30, 40), 3);
        assert_eq!(three.tenure.renew_every().unwrap().as_secs_f64(), 40.0);
        let QueryOp::Join { join, agg: Some(_) } = &three.op else {
            panic!("expected a 3-way join aggregate")
        };
        assert_eq!(join.n_tables(), 3);
    }

    #[test]
    fn reputations_cover_every_address_exactly_once() {
        let reps = reputations(64, 2);
        assert_eq!(reps.len(), 64);
        let distinct: std::collections::HashSet<String> =
            reps.iter().map(|t| t.get(0).to_string()).collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn advisories_cover_every_fingerprint_once() {
        let advs = advisories(50, 7);
        assert_eq!(advs.len(), 50);
        let distinct: std::collections::HashSet<String> =
            advs.iter().map(|t| t.get(0).to_string()).collect();
        assert_eq!(distinct.len(), 50);
        // Fingerprints line up with the intrusions generator's naming.
        let reports = intrusions(100, 50, 20, 7);
        let names: std::collections::HashSet<String> =
            advs.iter().map(|t| t.get(0).to_string()).collect();
        assert!(reports
            .iter()
            .all(|t| names.contains(&t.get(1).to_string())));
    }

    #[test]
    fn gateway_and_robot_domains_overlap() {
        let (gw, robots) = gateways_and_robots(100, 100, 20, 3);
        let gw_domains: std::collections::HashSet<String> =
            gw.iter().map(|t| t.get(2).to_string()).collect();
        let overlap = robots
            .iter()
            .filter(|t| gw_domains.contains(&t.get(1).to_string()))
            .count();
        assert!(overlap > 10, "join has answers: {overlap}");
    }

    #[test]
    fn packet_trace_fields_in_range() {
        let pkts = packet_trace(500, 20, 4);
        assert_eq!(pkts.len(), 500);
        for p in &pkts {
            let bytes = p.get(4).as_i64().unwrap();
            assert!((40..1500).contains(&bytes));
        }
    }
}
