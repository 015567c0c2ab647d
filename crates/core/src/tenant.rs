//! Tenancy governance: per-tenant quotas, admission control, and
//! publish backpressure.
//!
//! PIER is designed to run "with no DBA in the loop" (paper §1), which
//! cuts both ways: nobody provisions capacity per query, so the system
//! itself must refuse work it cannot afford. This module supplies the
//! three governance primitives the node core wires in:
//!
//! * a [`Quota`] — per-tenant limits on standing queries and on
//!   *priced* traffic, where pricing reuses the byte-accurate PR 3
//!   cost model via [`crate::optimizer::price_query`]. A query's
//!   admission cost is the bytes/sec the optimizer predicts it will
//!   put on the wire, not a guess;
//! * a [`TenantGovernor`] — quotas, table rates and buckets, which turn
//!   into decisions through [`TenantGovernor::check`]: a side-effect-free
//!   verdict on one query against what is already committed, which the
//!   caller passes in. A node's committed budget is its query registry
//!   (every installed query and its price), so the governor keeps no
//!   per-query state of its own;
//! * a deterministic [`TokenBucket`] per tenant — publish-side
//!   backpressure. A tenant whose publish rate outruns its
//!   `publish_bytes_per_sec` has the overflow *shed* at the
//!   `NodeHandle` boundary instead of admitted into the overlay,
//!   so one hot fingerprint cannot starve co-tenants.
//!
//! All container state is `BTreeMap`-backed and all arithmetic is
//! driven by engine [`Time`], so governance decisions are bit-identical
//! across `Sim` (at any shard count) and `Cluster` runs of the same trace.

use std::collections::BTreeMap;
use std::fmt;

use pier_dht::Ns;
use pier_simnet::time::Time;

use crate::optimizer::{price_query, TableRate};
use crate::plan::QueryDesc;

/// Tenant identifier. Tenant 0 is the default tenant; quotas are
/// opt-in, and a tenant with no registered [`Quota`] is unlimited.
pub type TenantId = u32;

/// Per-tenant resource limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Maximum simultaneously-installed standing queries.
    pub max_standing: usize,
    /// Budget for the sum of priced bytes/sec over the tenant's
    /// installed queries (the PR 3 cost model's prediction).
    pub max_priced_bytes_per_sec: f64,
    /// Sustained publish rate (bytes/sec) refilling the tenant's
    /// token bucket.
    pub publish_bytes_per_sec: f64,
    /// Bucket capacity: the largest burst (bytes) a tenant may
    /// publish instantaneously from a full bucket.
    pub publish_burst_bytes: f64,
}

impl Quota {
    /// No limits — the behaviour of a tenant with no quota registered.
    pub fn unlimited() -> Self {
        Quota {
            max_standing: usize::MAX,
            max_priced_bytes_per_sec: f64::INFINITY,
            publish_bytes_per_sec: f64::INFINITY,
            publish_burst_bytes: f64::INFINITY,
        }
    }
}

/// Typed admission rejection — what `try_submit` returns instead of
/// silently installing an over-budget query.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// The tenant is at its standing-query limit.
    StandingQueries {
        tenant: TenantId,
        installed: usize,
        limit: usize,
    },
    /// Admitting the query would push the tenant's committed priced
    /// traffic over budget.
    PricedTraffic {
        tenant: TenantId,
        /// Priced cost of the rejected query (bytes/sec).
        priced: f64,
        /// Already-committed bytes/sec across the tenant's queries.
        committed: f64,
        /// The tenant's `max_priced_bytes_per_sec`.
        budget: f64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::StandingQueries {
                tenant,
                installed,
                limit,
            } => write!(
                f,
                "tenant {tenant}: standing-query quota exhausted ({installed}/{limit})"
            ),
            AdmissionError::PricedTraffic {
                tenant,
                priced,
                committed,
                budget,
            } => write!(
                f,
                "tenant {tenant}: priced traffic over budget \
                 ({priced:.1} B/s on top of {committed:.1} committed, budget {budget:.1})"
            ),
        }
    }
}

/// Deterministic token bucket: refills continuously at `rate`
/// bytes/sec up to `burst` capacity, driven entirely by engine time.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Time,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: Time(0),
        }
    }

    fn refill(&mut self, now: Time) {
        if now.0 > self.last.0 {
            let dt = (now.0 - self.last.0) as f64 / 1_000_000.0;
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Take `cost` tokens if available. Returns `true` on success;
    /// on refusal no tokens are consumed (shed, don't penalise).
    pub fn try_take(&mut self, now: Time, cost: f64) -> bool {
        self.refill(now);
        if self.tokens + 1e-9 >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after a refill to `now`).
    pub fn available(&mut self, now: Time) -> f64 {
        self.refill(now);
        self.tokens
    }
}

/// Per-node tenancy governor: prices queries, enforces quotas, and
/// meters publishes. Owned by each `PierNode`; decisions are local,
/// but because every node sees the same install multicast and the same
/// quota table, the whole overlay converges on the same verdict.
/// What is committed is the caller's to say ([`Self::check`]).
#[derive(Debug, Clone, Default)]
pub struct TenantGovernor {
    /// Base-table arrival rates used to price queries. Keyed by the
    /// table's publish namespace.
    rates: BTreeMap<Ns, TableRate>,
    /// Pricing fallback for tables with no registered rate.
    default_rate: TableRate,
    /// Registered quotas; absent tenants are unlimited.
    quotas: BTreeMap<TenantId, Quota>,
    /// Publish-side token buckets, created lazily per tenant.
    buckets: BTreeMap<TenantId, TokenBucket>,
}

impl TenantGovernor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a tenant's quota.
    pub fn set_quota(&mut self, tenant: TenantId, quota: Quota) {
        self.quotas.insert(tenant, quota);
        // The bucket's shape follows the quota; reset it full so a
        // re-quota'd tenant starts from a clean burst allowance.
        self.buckets.insert(
            tenant,
            TokenBucket::new(quota.publish_bytes_per_sec, quota.publish_burst_bytes),
        );
    }

    /// The tenant's quota, or unlimited if none is registered.
    pub fn quota(&self, tenant: TenantId) -> Quota {
        self.quotas
            .get(&tenant)
            .copied()
            .unwrap_or_else(Quota::unlimited)
    }

    /// Register the arrival rate of a base table for pricing.
    pub fn set_table_rate(&mut self, ns: Ns, rate: TableRate) {
        self.rates.insert(ns, rate);
    }

    /// Price a query with the PR 3 cost model: predicted bytes/sec.
    pub fn price(&self, desc: &QueryDesc) -> f64 {
        price_query(desc, &|ns| {
            self.rates.get(&ns).copied().unwrap_or(self.default_rate)
        })
    }

    /// Would `desc` be admitted beside `committed` — the tenant and
    /// priced bytes/sec of every query already installed, in qid order?
    /// Returns the query's price. No state changes: the same verdict
    /// serves `try_submit`'s dry run and the install itself.
    pub fn check(
        &self,
        desc: &QueryDesc,
        committed: impl IntoIterator<Item = (TenantId, f64)>,
    ) -> Result<f64, AdmissionError> {
        let tenant = desc.tenant;
        let quota = self.quota(tenant);
        let mut installed = 0;
        let committed: f64 = committed
            .into_iter()
            .filter(|&(t, _)| t == tenant)
            .inspect(|_| installed += 1)
            .map(|(_, b)| b)
            .sum();
        if installed >= quota.max_standing {
            return Err(AdmissionError::StandingQueries {
                tenant,
                installed,
                limit: quota.max_standing,
            });
        }
        let priced = self.price(desc);
        if committed + priced > quota.max_priced_bytes_per_sec {
            return Err(AdmissionError::PricedTraffic {
                tenant,
                priced,
                committed,
                budget: quota.max_priced_bytes_per_sec,
            });
        }
        Ok(priced)
    }

    /// Publish-side backpressure: may `tenant` publish `bytes` now?
    /// `true` admits the publish (consuming tokens); `false` means the
    /// caller must shed it. Tenants without quotas always pass.
    pub fn try_publish(&mut self, tenant: TenantId, now: Time, bytes: f64) -> bool {
        match self.buckets.get_mut(&tenant) {
            Some(bucket) => bucket.try_take(now, bytes),
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{QueryDesc, QueryOp, ScanSpec};
    use pier_dht::ns_of;

    fn scan_desc(qid: u64, tenant: TenantId) -> QueryDesc {
        let scan = ScanSpec::new("t", 2, 0);
        QueryDesc::standing(
            qid,
            0,
            QueryOp::Scan {
                scan,
                project: vec![],
            },
            None,
        )
        .with_tenant(tenant)
    }

    #[test]
    fn token_bucket_refills_deterministically() {
        let mut b = TokenBucket::new(100.0, 200.0);
        // Full bucket: a 200-byte burst passes, the next byte doesn't.
        assert!(b.try_take(Time(0), 200.0));
        assert!(!b.try_take(Time(0), 1.0));
        // 1 s refills 100 tokens.
        assert!(b.try_take(Time(1_000_000), 100.0));
        assert!(!b.try_take(Time(1_000_000), 1.0));
        // Capacity clamps: 10 s later the bucket holds 200, not 1000.
        assert!((b.available(Time(11_000_000)) - 200.0).abs() < 1e-6);
    }

    #[test]
    fn standing_query_quota_rejects_typed() {
        let mut g = TenantGovernor::new();
        g.set_quota(
            7,
            Quota {
                max_standing: 1,
                ..Quota::unlimited()
            },
        );
        // Another tenant's queries do not count against tenant 7.
        let others = [(3, 10.0), (8, 10.0)];
        g.check(&scan_desc(1, 7), others)
            .expect("first query admitted");
        let err = g.check(&scan_desc(2, 7), [(3, 10.0), (7, 0.0), (8, 10.0)]);
        assert_eq!(
            err.unwrap_err(),
            AdmissionError::StandingQueries {
                tenant: 7,
                installed: 1,
                limit: 1
            }
        );
        // A query gone from what is committed frees its slot.
        g.check(&scan_desc(2, 7), others)
            .expect("admitted once the first is gone");
    }

    #[test]
    fn priced_traffic_quota_rejects_typed() {
        let mut g = TenantGovernor::new();
        g.set_table_rate(
            ns_of("t"),
            TableRate {
                rows_per_sec: 10.0,
                avg_tuple_bytes: 100.0,
            },
        );
        let priced = g.price(&scan_desc(1, 3));
        assert!(priced > 0.0);
        g.set_quota(
            3,
            Quota {
                max_priced_bytes_per_sec: priced * 1.5,
                ..Quota::unlimited()
            },
        );
        assert_eq!(g.check(&scan_desc(1, 3), []), Ok(priced), "within budget");
        // What is committed is summed over the tenant's own queries only.
        let committed = [(3, priced * 0.25), (4, priced), (3, priced * 0.5)];
        let err = g.check(&scan_desc(2, 3), committed).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::PricedTraffic {
                tenant: 3,
                priced,
                committed: priced * 0.75,
                budget: priced * 1.5,
            }
        );
        // Display is operator-readable.
        assert!(err.to_string().contains("over budget"));
    }

    /// The governor holds nothing per query: a verdict is a function of
    /// the quota table and what the caller says is committed, so checking
    /// a query any number of times commits nothing and leaves the next
    /// verdict as it was. (Re-delivered installs are idempotent in the
    /// node, whose registry holds a qid once.)
    #[test]
    fn readmitting_a_committed_qid_is_idempotent() {
        let mut g = TenantGovernor::new();
        g.set_quota(
            1,
            Quota {
                max_standing: 1,
                ..Quota::unlimited()
            },
        );
        for _ in 0..3 {
            g.check(&scan_desc(9, 1), [])
                .expect("nothing committed yet");
        }
        let err = g.check(&scan_desc(9, 1), [(1, 0.0)]).unwrap_err();
        assert!(matches!(
            err,
            AdmissionError::StandingQueries { installed: 1, .. }
        ));
    }

    #[test]
    fn unquotad_tenants_are_unlimited() {
        let mut g = TenantGovernor::new();
        let committed: Vec<(TenantId, f64)> = (0..100).map(|_| (42, 1e12)).collect();
        g.check(&scan_desc(100, 42), committed)
            .expect("no quota, no limit");
        assert!(g.try_publish(42, Time(0), 1e12));
    }
}
