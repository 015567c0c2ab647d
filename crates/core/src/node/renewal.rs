//! Publishing base rows, and soft-state renewal (§3.2.3 / Fig. 6) with
//! one owner per job: the node loop ([`PierNode::start_renewals`])
//! republishes the base rows this node published and nothing else; a
//! standing query's rehash and stage state is renewed only by its own
//! [`TimerAction::RenewQuery`] loop, at the period its descriptor
//! carries.

use pier_dht::{Dht, Ns, Rid};
use pier_simnet::app::Ctx;
use pier_simnet::time::Dur;
use pier_simnet::Wire;

use super::BULK_PUTS;
use super::{give_back, take, NodeEnv, Pending, PierNode, PublishReport, TimerAction, Upcalls};
use crate::item::{row_item_wire, PierMsg, QpItem};
use crate::plan::{QueryDesc, Tenure};
use crate::tuple::{RowBatch, Tuple};

/// A put this node renews: a base row it published (with the lifetime
/// it was published for), or rehash / stage soft state of a standing
/// query that renews its own ([`Tenure::Unwindowed`]).
pub(super) struct SoftPub {
    ns: Ns,
    rid: Rid,
    iid: u32,
    item: QpItem,
}

/// Renew each record for its lifetime, in order.
fn renew_each<'a>(
    dht: &mut Dht<QpItem>,
    env: &mut NodeEnv,
    recs: impl Iterator<Item = (Dur, &'a SoftPub)>,
    events: &mut Upcalls,
) {
    for (lifetime, rec) in recs {
        let item = rec.item.clone();
        dht.renew(env, rec.ns, rec.rid, rec.iid, item, lifetime, events);
    }
}

/// Lifetime of rehash-layer soft state of a query that carries neither
/// a window nor a renewal period: long enough for any one-shot.
const REHASH_HORIZON: Dur = Dur(600_000_000);

impl PierNode {
    /// Publish rows of a table into the DHT, resourceID = primary key.
    /// Retains the rows so the renewal loop can republish them.
    /// Unmetered (tenant 0 — backpressure never sheds the default
    /// tenant unless a quota is registered for it).
    pub fn publish_rows(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        table: &str,
        rows: Vec<Tuple>,
        pkey_col: usize,
        lifetime: Dur,
    ) {
        self.publish_rows_from(ctx, 0, table, rows, pkey_col, lifetime);
    }

    /// Tenant-attributed publish with token-bucket backpressure: each
    /// row's wire bytes are charged against `tenant`'s bucket
    /// ([`crate::tenant::TenantGovernor::try_publish`]); rows the
    /// bucket refuses are *shed* — they never enter the DHT, never
    /// join the renewal ledger, and are tallied in the node's
    /// [`crate::MetricsRegistry`] (`shed_publishes` / `shed_bytes`). This is
    /// the slow-tenant isolation boundary: a hot tenant's flood is
    /// clipped here, at ingress, before it can occupy the overlay.
    pub fn publish_rows_from(
        &mut self,
        ctx: &mut Ctx<PierMsg>,
        tenant: u32,
        table: &str,
        rows: Vec<Tuple>,
        pkey_col: usize,
        lifetime: Dur,
    ) -> PublishReport {
        let ns = pier_dht::ns_of(table);
        let mut report = PublishReport::default();
        // Pass one encodes the rows into one batch and asks the governor
        // of each; a row it sheds is taken back out, so it costs nothing.
        let (mut batch, mut puts) = (RowBatch::default(), take(&BULK_PUTS));
        for row in &rows {
            let slot = batch.push(row);
            let bytes = row_item_wire(slot.wire());
            if !self.governor.try_publish(tenant, ctx.now, bytes as f64) {
                batch.pop(slot);
                self.metrics.on_shed(bytes);
                report.shed += 1;
                continue;
            }
            let rid = row.get(pkey_col).hash64();
            puts.push((rid, self.fresh_iid(), Pending::Row(slot)));
        }
        let rows = batch.seal();
        self.dht_op(ctx, |node, ctx, events| {
            for (rid, iid, item) in puts.drain(..) {
                let item = item.item(&rows);
                let env = &mut node.reg.env(ctx);
                node.dht
                    .put(env, ns, rid, iid, item.clone(), lifetime, events);
                node.published
                    .push((lifetime, SoftPub { ns, rid, iid, item }));
                report.accepted += 1;
            }
            give_back(&BULK_PUTS, puts);
        });
        report
    }

    /// Start the renewal loop: republish every published base row every
    /// `every`.
    pub fn start_renewals(&mut self, ctx: &mut Ctx<PierMsg>, every: Dur) {
        self.arm_timer(ctx, every, TimerAction::Renew { every });
    }

    pub(super) fn renew_all(&mut self, ctx: &mut Ctx<PierMsg>, every: Dur) {
        self.dht_op(ctx, |node, ctx, events| {
            let recs = node.published.iter().map(|(life, rec)| (*life, rec));
            renew_each(&mut node.dht, &mut node.reg.env(ctx), recs, events);
            node.start_renewals(ctx, every);
        });
    }

    /// Lifetime of rehash / stage / semi-join soft state for a query:
    /// the sliding window (windowed state must age out), else three of
    /// its own renewal periods (state must comfortably outlive the gap
    /// between renewals), else the fixed [`REHASH_HORIZON`].
    pub(super) fn soft_lifetime(desc: &QueryDesc) -> Dur {
        match desc.tenure {
            Tenure::Windowed(window) => window,
            tenure => tenure
                .renew_every()
                .map_or(REHASH_HORIZON, |every| every.saturating_mul(3)),
        }
    }

    /// Account a rehash-layer put, and retain it when the query will
    /// renew it.
    pub(super) fn record_rehash(&mut self, qid: u64, ns: Ns, rid: Rid, iid: u32, item: &QpItem) {
        self.metrics.on_rehash(qid, item.wire_size());
        let Some(inst) = self.reg.get_mut(qid) else {
            return;
        };
        if inst.desc.tenure.renew_every().is_some() {
            inst.rehash_pubs.push(SoftPub {
                ns,
                rid,
                iid,
                item: item.clone(),
            });
        }
    }

    /// Per-query renewal ([`TimerAction::RenewQuery`]): republish this
    /// standing query's rehash soft state with its own 3× horizon and
    /// re-arm. Renewal replaces the same (ns, rid, iid) without
    /// re-firing `newData`, so no probe runs twice.
    pub(super) fn renew_query(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        self.dht_op(ctx, |node, ctx, events| {
            let Some(inst) = node.reg.get(qid) else {
                return; // uninstalled between arm and fire
            };
            let Some(every) = inst.desc.tenure.renew_every() else {
                return;
            };
            let horizon = Self::soft_lifetime(&inst.desc);
            let recs = inst.rehash_pubs.iter().map(|rec| (horizon, rec));
            renew_each(&mut node.dht, &mut node.reg.env(ctx), recs, events);
            node.metrics.on_renewal(qid, ctx.now);
            node.arm_timer(ctx, every, TimerAction::RenewQuery { qid });
        });
    }
}
