//! One combine tree (DESIGN rule 13), after SDIMS and TAG: a query
//! gathers one part per node — a Bloom join's two filters, a
//! hierarchical aggregate's groups of one epoch — along the overlay.
//! A node's parent is its greedy next hop toward the query's root key
//! ([`qns::tree`]). It reports to its parent once it holds its own part
//! and a report from every child it can name, or once the round is due.
//! The root finishes a round — multicasts the OR-ed filters, or emits
//! the groups — as soon as the key-space shares of what it holds sum to
//! the whole, so no node needs to know how many nodes there are. At a
//! deadline the root waits one grace, or one epoch, more than the other
//! nodes, so what they report at the same deadline still counts.

use std::collections::VecDeque;

use pier_dht::overlay::TreeSeat;
use pier_simnet::app::Ctx;
use pier_simnet::time::Dur;
use pier_simnet::NodeId;

use super::bloom::BLOOM_HASHES;
use super::{agg, PierNode, TimerAction};
use crate::item::{Part, PierMsg, QpItem, Report, Side};
use crate::plan::{qns, JoinStrategy, QueryDesc, QueryOp};

/// How long past a deadline the root waits to finish a round that is
/// not whole: other nodes report at their own deadline, which the
/// install multicast's spread puts seconds after the root's.
const ROOT_GRACE: Dur = Dur(10 * 1_000_000);

/// How many early reports a node keeps. A CAN node names at most nine
/// children at up to 1 024 nodes (`tree_props`), so 64 hold a round's
/// early reports for seven queries installing at once; a Bloom report
/// holds two filters of 8 KB at the default shape, so about 1 MB at most.
const EARLY_REPORTS: usize = 64;

/// Reports that arrived before their query's install, with their
/// senders, oldest first.
pub(super) type Early = VecDeque<(NodeId, Box<Report>)>;

/// A query's combine-tree state at one node: boxed, so a query that
/// runs no tree pays one word for it.
#[derive(Default)]
pub(super) struct Tree {
    /// The rounds open here, by epoch.
    rounds: Vec<Round>,
    /// Every round below this epoch has been reported (at the root,
    /// finished); a report for one goes on alone.
    closed: u32,
    /// How many parts of its own this node has added.
    flushes: u32,
    /// Whether the OR-ed Bloom filter over each side has arrived.
    pub(super) got_filter: [bool; 2],
    /// Whether the root has taken its grace past the deadline.
    graced: bool,
}

/// One open round: whether this node's own part is in, whose reports
/// are, and everything merged so far, shares summed.
struct Round {
    own: bool,
    heard: Vec<NodeId>,
    report: Box<Report>,
}

/// OR `from` into `into`, or merge its groups in. Parts of two kinds
/// never meet: ingress refuses a part its query cannot take ([`fits`]).
fn merge(into: &mut Part, from: Part) {
    match (into, from) {
        (Part::Bloom(ours), Part::Bloom(theirs)) => {
            ours.iter_mut().zip(&theirs).for_each(|(o, t)| o.union(t))
        }
        (Part::Groups(ours), Part::Groups(theirs)) => {
            theirs.iter().for_each(|(g, a)| agg::merge(ours, g, a))
        }
        _ => {}
    }
}

/// Does a part from the network fit the installed query: a Bloom join's
/// filter shape, or a hierarchical aggregate's group arity and states?
/// One that does not is refused whole, share included: OR-ed in, a
/// filter of another shape trips `BloomFilter::union`'s assertion, and
/// counted, its share would finish a round without the parts it claims.
fn fits(desc: &QueryDesc, part: &Part) -> bool {
    match (&desc.op, part) {
        (QueryOp::Join { join: j, .. }, Part::Bloom(f)) => {
            j.strategy == JoinStrategy::BloomFilter
                && f.iter().all(|f| f.has_shape(j.bloom_bits, BLOOM_HASHES))
        }
        (QueryOp::Agg { agg, .. }, Part::Groups(groups)) => {
            agg.hierarchical && groups.iter().all(|(g, a)| agg::fits(agg, g, a))
        }
        _ => false,
    }
}

impl PierNode {
    fn seat(&self, qid: u64) -> TreeSeat {
        self.dht.overlay.tree_seat(qns::tree(qid))
    }

    pub(super) fn tree(&mut self, qid: u64) -> Option<&mut Tree> {
        let inst = self.reg.get_mut(qid)?;
        Some(inst.tree.get_or_insert_with(Box::default))
    }

    /// Add this node's own part as its next round. Every round below it
    /// is due: a round waits at most one epoch for late children, and at
    /// the root one epoch more, for the reports they hold back.
    pub(super) fn contribute(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, part: Part) {
        let TreeSeat { parent, share, .. } = self.seat(qid);
        let Some(tree) = self.tree(qid) else { return };
        let epoch = tree.flushes;
        tree.flushes += 1;
        let due = match parent {
            Some(_) => epoch,
            None => epoch.saturating_sub(1),
        };
        self.report_rounds(ctx, qid, due);
        let own = Report {
            qid,
            epoch,
            share,
            part,
        };
        self.take_in(ctx, None, Box::new(own));
    }

    /// A report arrived. One for a query this node cancelled, retired or
    /// refused goes on to its parent; one for a query not installed here
    /// yet is kept (a bounded FIFO) until the install: a child can hear
    /// the install multicast first.
    pub(super) fn on_report(&mut self, ctx: &mut Ctx<PierMsg>, from: NodeId, report: Box<Report>) {
        let qid = report.qid;
        match self.reg.get(qid) {
            Some(inst) if fits(&inst.desc, &report.part) => self.take_in(ctx, Some(from), report),
            Some(_) => {}
            None if self.cancelled.contains(&qid) => self.pass_on(ctx, report),
            None => {
                let early = self.early.get_or_insert_with(Box::default);
                if early.len() == EARLY_REPORTS {
                    early.pop_front();
                }
                early.push_back((from, report));
            }
        }
    }

    /// Send a report this node does not merge on to its parent. The root
    /// has nowhere to send it.
    fn pass_on(&mut self, ctx: &mut Ctx<PierMsg>, report: Box<Report>) {
        if let Some(parent) = self.seat(report.qid).parent {
            ctx.send(parent, PierMsg::Report(report));
        }
    }

    /// At install, or at a refused one: the query's reports that arrived
    /// before it are taken in, or go on.
    pub(super) fn take_early(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        while let Some((from, report)) = self.early.as_mut().and_then(|early| {
            let at = early.iter().position(|(_, r)| r.qid == qid)?;
            early.remove(at)
        }) {
            self.on_report(ctx, from, report);
        }
    }

    /// This node refused to install `desc`. A tree of it is tombstoned
    /// here, so the reports kept for it, and any that come later, go on
    /// to the parent and the live subtree below this node still counts.
    pub(super) fn refuse(&mut self, ctx: &mut Ctx<PierMsg>, desc: &QueryDesc) {
        let tree = match &desc.op {
            QueryOp::Join { join: j, .. } => j.strategy == JoinStrategy::BloomFilter,
            QueryOp::Agg { agg, .. } => agg.hierarchical,
            QueryOp::Scan { .. } => false,
        };
        if tree {
            self.tombstone(desc.qid);
            self.take_early(ctx, desc.qid);
        }
    }

    /// A part from `from` (`None`: this node's own) joins its round. One
    /// for a round already reported goes on alone, unless this node is
    /// the root: past its grace it has nothing left to add it to.
    fn take_in(&mut self, ctx: &mut Ctx<PierMsg>, from: Option<NodeId>, report: Box<Report>) {
        let (qid, epoch) = (report.qid, report.epoch);
        let Some(tree) = self.tree(qid) else { return };
        if epoch < tree.closed {
            return self.pass_on(ctx, report);
        }
        let at = match tree.rounds.binary_search_by_key(&epoch, |r| r.report.epoch) {
            Ok(at) => {
                let ours = &mut tree.rounds[at].report;
                ours.share = ours.share.saturating_add(report.share);
                merge(&mut ours.part, report.part);
                at
            }
            Err(at) => {
                let (own, heard) = (false, Vec::new());
                tree.rounds.insert(at, Round { own, heard, report });
                at
            }
        };
        let round = &mut tree.rounds[at];
        match from {
            None => round.own = true,
            Some(child) => round.heard.push(child),
        }
        self.report_rounds(ctx, qid, 0);
    }

    /// A round's deadline (a Bloom join's, a one-shot aggregate's
    /// harvest): report what it holds. The root first waits
    /// [`ROOT_GRACE`] once, if a round is still open. A one-shot
    /// aggregate retires here, as a flat one does at its harvest.
    pub(super) fn tree_due(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64) {
        let root = self.seat(qid).parent.is_none();
        let Some(tree) = self.tree(qid) else { return };
        if root && !tree.rounds.is_empty() && !std::mem::replace(&mut tree.graced, true) {
            return self.arm_timer(ctx, ROOT_GRACE, TimerAction::TreeDue { qid });
        }
        self.report_rounds(ctx, qid, u32::MAX);
        if self
            .reg
            .get(qid)
            .is_some_and(|i| matches!(i.desc.op, QueryOp::Agg { .. }))
        {
            self.retire_if_one_shot(qid);
        }
    }

    /// Report every round that is ready, lowest first: one below `due`
    /// as it stands, any other once it holds this node's own part and —
    /// at the root — shares summing to the whole, or elsewhere a report
    /// from every child this node can name. The root finishes a round
    /// where another node sends it to its parent.
    fn report_rounds(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, due: u32) {
        let seat = self.seat(qid);
        while let Some(tree) = self.tree(qid) {
            let Some(r) = tree.rounds.first() else { return };
            let whole = match seat.parent {
                None => r.report.share >= seat.whole,
                Some(_) => seat.children.iter().all(|c| r.heard.contains(c)),
            };
            if r.report.epoch >= due && !(r.own && whole) {
                return;
            }
            let report = tree.rounds.remove(0).report;
            tree.closed = report.epoch + 1;
            match seat.parent {
                Some(parent) => ctx.send(parent, PierMsg::Report(report)),
                None => self.finish_round(ctx, qid, report.part),
            }
        }
    }

    /// The root's end of a round: multicast each side's OR-ed filter, or
    /// emit the groups.
    fn finish_round(&mut self, ctx: &mut Ctx<PierMsg>, qid: u64, part: Part) {
        match part {
            Part::Bloom(filters) => {
                // "The filters are OR-ed together and then multicast to
                // all nodes storing the opposite table" — our multicast
                // reaches all nodes; non-holders have nothing to rehash.
                for (side, filter) in [Side::Left, Side::Right].into_iter().zip(filters) {
                    self.multicast(ctx, QpItem::Bloom { qid, side, filter });
                }
            }
            Part::Groups(groups) => {
                let Some(desc) = self.query_desc(qid) else {
                    return;
                };
                let Some(agg) = desc.op.agg() else { return };
                let pairs = groups.iter().map(|(group, accs)| (&group[..], &accs[..]));
                self.emit_groups(ctx, &desc, agg, pairs);
            }
        }
    }
}
