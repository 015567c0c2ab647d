//! Query descriptors: the "boxes and arrows" shipped to every node.
//!
//! A query is disseminated by DHT multicast (§3.3); each node receives the
//! same [`QueryDesc`] and plays its part — scanning local fragments,
//! rehashing, probing, fetching, aggregating — with results flowing
//! directly to the initiator. Expressions in a descriptor are indexed
//! over the *full* concatenation of the base schemas; the schema-aware
//! dataflow layer ([`PipelineSchema`]) computes, per dataflow edge, the
//! minimal column set any downstream operator still reads, and remaps
//! every expression onto that pruned layout (what those columns weigh
//! on the wire is [`crate::catalog::TableDef::ship_bytes`]'s job). The
//! §4.2 lesson — on a DHT, *what bytes you rehash* dominates cost — is
//! thereby an architectural invariant: no operator ships a column
//! nobody downstream reads. The plan is a function of the descriptor
//! alone, so it is compiled once per query, beside the descriptor
//! ([`QueryDesc::certified`]), and every node shares it.

use std::sync::{Arc, OnceLock};

use pier_dht::{ns_of, Ns};
use pier_simnet::time::Dur;
use pier_simnet::NodeId;

use crate::expr::Expr;
use crate::item::Side;
use crate::tuple::Columns;

/// The four distributed equi-join strategies of §4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// DHT-based pipelining symmetric hash join (§4.1).
    SymmetricHash,
    /// Fetch Matches: right table already hashed on the join key (§4.1).
    FetchMatches,
    /// Symmetric semi-join rewrite (§4.2).
    SymmetricSemiJoin,
    /// Bloom-filter rewrite (§4.2).
    BloomFilter,
}

impl JoinStrategy {
    pub const ALL: [JoinStrategy; 4] = [
        JoinStrategy::SymmetricHash,
        JoinStrategy::FetchMatches,
        JoinStrategy::SymmetricSemiJoin,
        JoinStrategy::BloomFilter,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            JoinStrategy::SymmetricHash => "symmetric hash",
            JoinStrategy::FetchMatches => "fetch matches",
            JoinStrategy::SymmetricSemiJoin => "symmetric semi-join",
            JoinStrategy::BloomFilter => "bloom filter",
        }
    }
}

/// One base-table access within a query.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// Application-level table (namespace) name.
    pub table: String,
    /// Hashed namespace.
    pub ns: Ns,
    /// Local selection predicate over the base schema (pushed to the
    /// data's home node where the strategy allows).
    pub pred: Option<Expr>,
    /// Primary-key column: the table's default resourceID (§3.2.3).
    pub pkey_col: usize,
    /// Join column (None for single-table scans).
    pub join_col: Option<usize>,
    /// Base-schema arity (needed to index the concatenated join schema).
    pub arity: usize,
}

impl ScanSpec {
    pub fn new(table: &str, arity: usize, pkey_col: usize) -> Self {
        ScanSpec {
            table: table.to_string(),
            ns: ns_of(table),
            pred: None,
            pkey_col,
            join_col: None,
            arity,
        }
    }

    pub fn with_pred(mut self, pred: Expr) -> Self {
        self.pred = Some(pred);
        self
    }

    pub fn with_join_col(mut self, col: usize) -> Self {
        self.join_col = Some(col);
        self
    }

    /// Does every index the scan carries fit its base schema?
    fn check(&self) -> Result<(), &'static str> {
        if self.pkey_col >= self.arity || self.join_col.is_some_and(|c| c >= self.arity) {
            return Err("key or join column out of range");
        }
        if !self.pred.as_ref().is_none_or(|p| p.cols_within(self.arity)) {
            return Err("scan predicate column out of range");
        }
        Ok(())
    }
}

/// One stage of a left-deep join pipeline.
///
/// Stage `k` joins the accumulated intermediate relation (the
/// concatenation of every table joined so far) with one more base table:
/// intermediates arrive tagged [`crate::item::Side::Left`] in the stage's
/// namespace ([`qns::stage_of`]), the base table's fragments are rehashed
/// into the same namespace tagged `Right`, and matches are concatenated
/// and fed to stage `k + 1` — the §4.1 pipelining symmetric hash join,
/// chained.
#[derive(Clone, Debug)]
pub struct JoinStage {
    /// The base table joined in at this stage; `join_col` names the
    /// equi-join column within its own schema.
    pub right: ScanSpec,
    /// Equi-join column within the accumulated intermediate schema (the
    /// concatenation of all preceding tables) — any earlier table may
    /// supply it, so star as well as chain queries lower to a pipeline.
    pub left_col: usize,
    /// Predicate over `accumulated ++ right`, applied to each stage
    /// output: the conjuncts that first become evaluable here (for a
    /// two-table join, e.g. the workload's `f(R.num3, S.num3) >
    /// constant3`).
    pub stage_pred: Option<Expr>,
}

/// A left-deep equi-join pipeline over `1 + stages.len()` base-table
/// accesses. A two-table join is the one-stage pipeline
/// ([`JoinSpec::new`]) and may run under any of the four §4 strategies;
/// longer pipelines chain symmetric-hash stages.
///
/// Expressions (`stage_pred`, `project`) are indexed over the *full*
/// concatenation of the constituent tuples; the executed dataflow ships
/// pruned tuples under [`PipelineSchema`], which keeps per stage only
/// the join keys still needed later, the columns of not-yet-evaluable
/// predicates, and the final SELECT columns — so wide pass-through
/// columns (e.g. the workload's `R.pad`) stop riding stages that never
/// read them.
#[derive(Clone, Debug)]
pub struct JoinSpec {
    /// One-stage joins only; pipelines are always `SymmetricHash`.
    pub strategy: JoinStrategy,
    /// The pipeline head: the first table, scanned and rehashed into
    /// stage 0 on `stages[0].left_col`.
    pub left: ScanSpec,
    /// The remaining tables, joined in left-deep order.
    pub stages: Vec<JoinStage>,
    /// Output expressions over the full concatenation of all tables.
    pub project: Vec<Expr>,
    /// Restrict each rehash namespace to this many buckets, confining
    /// the join computation to ≤ m nodes (the Fig. 3 "computation nodes").
    pub computation_nodes: Option<u32>,
    /// Bloom strategy: filter shape (bits), sized for the table.
    pub bloom_bits: u32,
}

impl JoinSpec {
    /// A two-table join: `left` and `right` joined on their `join_col`s.
    pub fn new(strategy: JoinStrategy, left: ScanSpec, right: ScanSpec) -> Self {
        let stage = JoinStage {
            right,
            left_col: left.join_col.expect("left join column"),
            stage_pred: None,
        };
        Self::checked(strategy, left, vec![stage])
    }

    /// A symmetric-hash pipeline: `head` joined with each stage's table
    /// in order.
    pub fn pipeline(head: ScanSpec, stages: Vec<JoinStage>) -> Self {
        Self::checked(JoinStrategy::SymmetricHash, head, stages)
    }

    fn checked(strategy: JoinStrategy, left: ScanSpec, stages: Vec<JoinStage>) -> Self {
        let j = JoinSpec {
            strategy,
            left,
            stages,
            project: Vec::new(),
            computation_nodes: None,
            bloom_bits: 1 << 16,
        };
        if let Err(why) = j.check() {
            panic!("malformed join spec: {why}");
        }
        j
    }

    /// Is the spec executable — the join shape sound, and every index it
    /// carries (join columns, primary keys, the columns of scan and
    /// stage predicates and of the projection) inside the arity it is
    /// evaluated over? The constructors assert it; a descriptor arriving
    /// from the network is checked once per query, for every node
    /// ([`QueryDesc::certified`]), so no handler re-checks per event.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.stages.is_empty() {
            return Err("a join needs at least two tables");
        }
        self.left.check()?;
        let mut arity = self.left.arity;
        for st in &self.stages {
            st.right.check()?;
            if st.left_col >= arity {
                return Err("left join column out of range");
            }
            if st.right.join_col.is_none() {
                return Err("right join column missing");
            }
            arity += st.right.arity;
            if !st.stage_pred.as_ref().is_none_or(|p| p.cols_within(arity)) {
                return Err("stage predicate column out of range");
            }
        }
        if !self.project.iter().all(|e| e.cols_within(arity)) {
            return Err("projected column out of range");
        }
        if self.strategy != JoinStrategy::SymmetricHash && self.stages.len() > 1 {
            return Err("only symmetric hash joins chain into pipelines");
        }
        let right = &self.stages[0].right;
        if self.strategy == JoinStrategy::FetchMatches && right.join_col != Some(right.pkey_col) {
            return Err("Fetch Matches requires the fetched table hashed on the join key");
        }
        Ok(())
    }

    /// Number of base tables in the pipeline.
    pub fn n_tables(&self) -> usize {
        1 + self.stages.len()
    }

    /// Pipeline table `t`: the head for `t = 0`, else stage `t - 1`'s
    /// right input.
    pub fn table(&self, t: usize) -> &ScanSpec {
        match t.checked_sub(1) {
            None => &self.left,
            Some(k) => &self.stages[k].right,
        }
    }

    /// Arity of the accumulated schema after stage `k` completes (the
    /// concatenation of tables `0 ..= k + 1`).
    pub fn arity_after(&self, k: usize) -> usize {
        (0..=k + 1).map(|t| self.table(t).arity).sum()
    }

    /// Arity of the full concatenation of every table.
    pub fn arity(&self) -> usize {
        self.arity_after(self.stages.len() - 1)
    }
}

/// Aggregate functions (§3.3 lists grouping and aggregation among the
/// initial operators; the intrusion queries of §2.1 use count and sum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// One aggregate call: `func(arg)`; `Count` may have no argument.
#[derive(Clone, Debug)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

/// Grouped aggregation over the input rows (base scan or join output).
///
/// `output` and `having` are indexed over the virtual row
/// `[group values..., aggregate results...]`.
#[derive(Clone, Debug)]
pub struct AggSpec {
    pub group_cols: Vec<usize>,
    pub aggs: Vec<AggCall>,
    pub output: Vec<Expr>,
    pub having: Option<Expr>,
    /// In-network hierarchical aggregation (§7 future work, built as an
    /// extension): partials climb a binary tree over node ids instead of
    /// all landing on the group owner.
    pub hierarchical: bool,
    /// How long owners wait before finalizing groups (one-shot queries).
    pub harvest: Dur,
    /// Continuous aggregation (§3.2.3 soft state + §7 "continuous
    /// queries over streams"): when set, the flush/harvest timers re-arm
    /// every epoch and every surviving group is re-emitted, instead of
    /// the query tearing down after one harvest. Combined with
    /// [`Tenure::Windowed`], contributions age out of the sliding
    /// window between epochs; without a window the aggregate is a
    /// running total over everything the standing query has seen.
    pub epoch: Option<Dur>,
}

impl AggSpec {
    pub fn new(group_cols: Vec<usize>, aggs: Vec<AggCall>) -> Self {
        let out: Vec<Expr> = (0..group_cols.len() + aggs.len()).map(Expr::col).collect();
        AggSpec {
            group_cols,
            aggs,
            output: out,
            having: None,
            hierarchical: false,
            harvest: Dur::from_secs(5),
            epoch: None,
        }
    }

    /// Turn this spec into an epoch-driven continuous aggregation.
    pub fn with_epoch(mut self, epoch: Dur) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Does the spec only read columns that exist — groups and
    /// aggregate arguments within its `input_arity`-column input,
    /// `output` and `having` within `[groups..., aggregates...]`?
    fn check(&self, input_arity: usize) -> Result<(), &'static str> {
        let args = self.aggs.iter().filter_map(|call| call.arg.as_ref());
        if !self.group_cols.iter().all(|&g| g < input_arity)
            || !args.into_iter().all(|a| a.cols_within(input_arity))
        {
            return Err("aggregation input column out of range");
        }
        let virt = self.group_cols.len() + self.aggs.len();
        if !self
            .output
            .iter()
            .chain(&self.having)
            .all(|e| e.cols_within(virt))
        {
            return Err("aggregation output column out of range");
        }
        Ok(())
    }
}

/// The operator tree variants PIER ships.
#[derive(Clone, Debug)]
pub enum QueryOp {
    /// Scan-select-project: results flow straight to the initiator.
    Scan { scan: ScanSpec, project: Vec<Expr> },
    /// Single-table grouped aggregation.
    Agg { scan: ScanSpec, agg: AggSpec },
    /// Distributed equi-join over two or more tables, optionally feeding
    /// a grouped aggregation (e.g. §2.1's weighted query).
    Join {
        join: JoinSpec,
        agg: Option<AggSpec>,
    },
}

impl QueryOp {
    /// The join this operator runs, if it is one.
    pub fn join(&self) -> Option<&JoinSpec> {
        match self {
            QueryOp::Join { join, .. } => Some(join),
            _ => None,
        }
    }

    /// The aggregation this operator ends in, whatever feeds it.
    pub fn agg(&self) -> Option<&AggSpec> {
        match self {
            QueryOp::Agg { agg, .. } => Some(agg),
            QueryOp::Join { agg, .. } => agg.as_ref(),
            QueryOp::Scan { .. } => None,
        }
    }
}

/// How long a query runs and its rehashed soft state lives. A standing
/// query stays installed, and rows published after install flow through
/// it (§7 "continuous queries over streams").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tenure {
    /// Runs once over the tables at rest; its state lives 600 s.
    OneShot,
    /// Standing; rehashed state ages out this long after its put.
    Windowed(Dur),
    /// Standing (SQL `RENEW n SECONDS`): rehashed state is republished
    /// every `renew_every` with a 3× horizon; unrenewed, it lives 600 s.
    Unwindowed { renew_every: Option<Dur> },
}

impl Tenure {
    pub fn window(self) -> Option<Dur> {
        match self {
            Tenure::Windowed(window) => Some(window),
            _ => None,
        }
    }

    pub fn renew_every(self) -> Option<Dur> {
        match self {
            Tenure::Unwindowed { renew_every } => renew_every,
            _ => None,
        }
    }

    /// Can `op` run this long? Only the symmetric hash join has an
    /// arrival path; the other three strategies run once over tables at
    /// rest. An epoch re-emits a standing aggregate.
    pub fn check(self, op: &QueryOp) -> Result<(), &'static str> {
        let standing = self != Tenure::OneShot;
        if standing
            && op
                .join()
                .is_some_and(|j| j.strategy != JoinStrategy::SymmetricHash)
        {
            Err("a standing join runs only under symmetric hash")
        } else if !standing && op.agg().is_some_and(|a| a.epoch.is_some()) {
            Err("an aggregation epoch needs a standing query")
        } else {
            Ok(())
        }
    }
}

/// What [`QueryDesc::certified`] yields: the reason a descriptor is
/// refused, or the join's shared plan (`None` for a scan or a flat
/// aggregate).
pub type Certified = Result<Option<Arc<PipelineSchema>>, &'static str>;

/// A complete query as multicast to all nodes.
#[derive(Debug)]
pub struct QueryDesc {
    pub qid: u64,
    pub initiator: NodeId,
    pub op: QueryOp,
    /// One-shot, or standing and how its soft state lives.
    pub tenure: Tenure,
    /// How many nodes participate (used by hierarchical aggregation to
    /// shape its tree; harnesses set it when building the query).
    pub n_nodes: u32,
    /// Owning tenant, for admission control and per-tenant metrics
    /// ([`crate::tenant::TenantGovernor`]). Tenant 0 is the default;
    /// tenants without a registered quota are unlimited.
    pub tenant: u32,
    /// The certificate and plan, filled by the first [`Self::certified`]
    /// call. Derived, so it is not on the wire.
    plan: OnceLock<Certified>,
}

/// A copy starts with an empty plan cell: its fields are public and may
/// be edited, so it certifies from what it holds, never from the
/// original's cached plan.
impl Clone for QueryDesc {
    fn clone(&self) -> Self {
        QueryDesc {
            qid: self.qid,
            initiator: self.initiator,
            op: self.op.clone(),
            tenure: self.tenure,
            n_nodes: self.n_nodes,
            tenant: self.tenant,
            plan: OnceLock::new(),
        }
    }
}

impl QueryDesc {
    pub fn one_shot(qid: u64, initiator: NodeId, op: QueryOp) -> Self {
        QueryDesc {
            qid,
            initiator,
            op,
            tenure: Tenure::OneShot,
            n_nodes: 0,
            tenant: 0,
            plan: OnceLock::new(),
        }
    }

    /// A standing query, [`Tenure::Windowed`] by `window` or else
    /// [`Tenure::Unwindowed`] without renewal ([`Self::with_renewal`]).
    pub fn standing(qid: u64, initiator: NodeId, op: QueryOp, window: Option<Dur>) -> Self {
        QueryDesc {
            tenure: window.map_or(Tenure::Unwindowed { renew_every: None }, Tenure::Windowed),
            ..Self::one_shot(qid, initiator, op)
        }
    }

    /// Assign the query to a tenant (admission control and metrics
    /// attribute it there; tenant 0 is the default tenant).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Give a standing unwindowed query its own renewal period. Panics on
    /// any other tenure: windowed state must age out.
    pub fn with_renewal(mut self, every: Dur) -> Self {
        let Tenure::Unwindowed { renew_every } = &mut self.tenure else {
            panic!("malformed tenure: renewal on a {:?} query", self.tenure);
        };
        *renew_every = Some(every);
        self
    }

    /// The certificate a node demands of a descriptor off the network
    /// before installing it: every index the descriptor carries — key
    /// and join columns, group columns, every column of every predicate,
    /// projection, aggregate argument, output and `HAVING` expression —
    /// lies inside the arity of the tuple it will be evaluated over, and
    /// a join's shape is executable ([`JoinSpec::check`]). Past it, no
    /// handler can index a tuple out of range on this descriptor's
    /// account, nor run an operator longer than it can ([`Tenure::check`]).
    pub fn check(&self) -> Result<(), &'static str> {
        self.tenure.check(&self.op)?;
        match &self.op {
            QueryOp::Scan { scan, project } => {
                scan.check()?;
                if !project.iter().all(|e| e.cols_within(scan.arity)) {
                    return Err("projected column out of range");
                }
                Ok(())
            }
            QueryOp::Agg { scan, agg } => {
                scan.check()?;
                agg.check(scan.arity)
            }
            QueryOp::Join { join, agg } => {
                join.check()?;
                agg.as_ref().map_or(Ok(()), |a| a.check(join.project.len()))
            }
        }
    }

    /// The descriptor's certificate ([`Self::check`]) and, for a join,
    /// its [`PipelineSchema`], in one pass that checks the join once.
    /// Computed at the first call and cached: a multicast delivers one
    /// `Arc<QueryDesc>` to every node, so the first node to install it
    /// compiles the plan and every other node clones the `Arc` (on
    /// `Sim`, `ShardedSim` and `Cluster` alike). Refusal stays per node:
    /// each reads the same cached `Err` and counts its own drop.
    ///
    /// The cell is meant to be filled only through that shared multicast
    /// `Arc`, which nobody can edit. An owned descriptor certified and
    /// then edited keeps the stale plan; a clone starts with an empty
    /// cell and certifies from what it holds.
    pub fn certified(&self) -> Certified {
        let plan = self.plan.get_or_init(|| {
            self.check()?;
            let build = |j| Arc::new(PipelineSchema::build(j));
            Ok(self.op.join().map(build))
        });
        plan.clone()
    }

    /// Rough wire size of the descriptor for the multicast payload.
    pub fn wire_size(&self) -> usize {
        fn scan_sz(s: &ScanSpec) -> usize {
            32 + s.table.len() + s.pred.as_ref().map_or(0, Expr::wire_size)
        }
        fn join_sz(j: &JoinSpec) -> usize {
            // Pipelines frame each stage (its `left_col`); the two-table
            // encoding predates them and carries none.
            let framing = if j.stages.len() > 1 { 8 } else { 0 };
            16 + scan_sz(&j.left)
                + j.stages
                    .iter()
                    .map(|s| {
                        framing
                            + scan_sz(&s.right)
                            + s.stage_pred.as_ref().map_or(0, Expr::wire_size)
                    })
                    .sum::<usize>()
                + j.project.iter().map(Expr::wire_size).sum::<usize>()
        }
        fn agg_sz(a: &AggSpec) -> usize {
            16 + a.group_cols.len() * 2
                + a.aggs
                    .iter()
                    .map(|c| 2 + c.arg.as_ref().map_or(0, Expr::wire_size))
                    .sum::<usize>()
                + a.output.iter().map(Expr::wire_size).sum::<usize>()
                + a.having.as_ref().map_or(0, Expr::wire_size)
                + if a.epoch.is_some() { 8 } else { 0 }
        }
        24 + 8 * self.tenure.renew_every().is_some() as usize
            + match &self.op {
                QueryOp::Scan { scan, project } => {
                    scan_sz(scan) + project.iter().map(Expr::wire_size).sum::<usize>()
                }
                QueryOp::Agg { scan, agg } => scan_sz(scan) + agg_sz(agg),
                QueryOp::Join { join, agg } => join_sz(join) + agg.as_ref().map_or(0, agg_sz),
            }
    }
}

/// Derived namespaces for a query's intermediate state.
pub mod qns {
    use pier_dht::geom::hash2;
    use pier_dht::Ns;

    /// Rehash namespace `NQ` of a two-table join (§4.1).
    pub fn rehash(qid: u64) -> Ns {
        hash2(0x4e51, qid) // "NQ"
    }

    /// Rehash namespace `NS_k` for stage `k` of a longer pipeline: each
    /// stage's intermediate state lives in its own namespace so probes
    /// never cross stages.
    pub fn stage(qid: u64, k: usize) -> Ns {
        hash2(0x4e53_0000 + k as u64, qid) // "NS" + stage index
    }

    /// Where stage `k` of an `n_stages`-stage join keeps its state. The
    /// naming is frozen wire format — the byte-exact traffic pins hash
    /// these namespaces into overlay keys — so the one-stage join keeps
    /// `NQ` rather than becoming `NS_0`.
    pub fn stage_of(qid: u64, n_stages: usize, k: usize) -> Ns {
        if n_stages == 1 {
            rehash(qid)
        } else {
            stage(qid, k)
        }
    }

    /// Bloom collector namespace for one side.
    pub fn bloom(qid: u64, side_right: bool) -> Ns {
        hash2(0x4e42 + side_right as u64, qid)
    }

    /// Aggregation partials namespace `NA`.
    pub fn agg(qid: u64) -> Ns {
        hash2(0x4e41, qid)
    }

    /// Every namespace a query of at most `n_stages` stages may have
    /// derived state in — what uninstall purges and the storage audit
    /// counts.
    pub fn all(qid: u64, n_stages: usize) -> impl Iterator<Item = Ns> {
        [rehash(qid), agg(qid), bloom(qid, false), bloom(qid, true)]
            .into_iter()
            .chain((0..n_stages).map(move |k| stage(qid, k)))
    }
}

/// One stage of a [`PipelineSchema`]: what the stage's right input
/// ships, where the join values sit in the pruned layouts, the stage
/// predicate over the pruned concatenation, and the projection applied
/// to matches before they are republished (or shipped to the initiator).
#[derive(Clone, Debug)]
pub struct StageView {
    /// Columns of the stage's right base table kept when rehashing
    /// (local indices, ascending).
    pub keep_right: Vec<usize>,
    /// Position of the join value within the pruned left intermediate.
    pub join_idx_left: usize,
    /// Position of the join value within the pruned right projection.
    pub join_idx_right: usize,
    /// The join column within the right table's own (unpruned) schema.
    pub join_col_right: usize,
    /// Stage predicate remapped over `pruned_left ++ pruned_right`.
    pub pred: Option<Expr>,
    /// Positions of `pruned_left ++ pruned_right` that survive into the
    /// outgoing intermediate, ascending by global column.
    pub emit: Vec<usize>,
    /// Global columns of the outgoing intermediate (what `emit` keeps).
    pub out_globals: Vec<usize>,
}

impl StageView {
    /// A pair whose join values already matched, as `pruned_left ++
    /// pruned_right` — a concatenated tuple, or two stored rows read side
    /// by side: whether the stage predicate passes it, and if so which of
    /// its columns leave as the outgoing intermediate.
    pub fn pass<R: Columns + ?Sized>(&self, joined: &R) -> Option<&[usize]> {
        self.pred
            .as_ref()
            .is_none_or(|p| p.matches(joined))
            .then_some(&self.emit)
    }
}

/// Schema-aware projection plan for a join pipeline — the one pruning
/// mechanism behind every strategy and every pipeline stage, with one
/// [`StageView`] per [`JoinStage`].
///
/// The minimal column set per edge is: join keys still needed by later
/// stages ∪ columns of not-yet-evaluable residual predicates ∪ final
/// SELECT (or GROUP BY / aggregate-argument) columns — computed by a
/// backward pass, then every expression is remapped onto the pruned
/// layouts by a forward pass. Built deterministically from the shipped
/// spec, so every node would derive the same layouts without
/// coordination — and so none has to: [`QueryDesc::certified`] builds it
/// once per descriptor and every node shares it.
///
/// Holding one also certifies the spec it was built from: construction
/// runs after [`JoinSpec::check`], so the executor reads join columns
/// from here instead of re-validating the descriptor on every event.
#[derive(Clone, Debug)]
pub struct PipelineSchema {
    /// Columns of the pipeline head (the base / left table) kept when
    /// rehashing into stage 0 (local indices, ascending).
    pub keep_base: Vec<usize>,
    pub stages: Vec<StageView>,
    /// Output expressions remapped over the final pruned intermediate.
    pub project: Vec<Expr>,
    /// The stage-0 join column within the head's own (unpruned) schema.
    pub join_col_base: usize,
}

impl PipelineSchema {
    /// The pruning plan of a join. Refuses a spec that fails
    /// [`JoinSpec::check`].
    pub fn new(j: &JoinSpec) -> Result<PipelineSchema, &'static str> {
        j.check()?;
        Ok(Self::build(j))
    }

    /// [`Self::new`] past the check: `j` must have passed
    /// [`JoinSpec::check`], or a join column it names may be missing.
    fn build(j: &JoinSpec) -> PipelineSchema {
        let n = j.stages.len();
        let right_col = |k: usize| j.stages[k].right.join_col.expect("checked");
        // Global offset of each stage's right table.
        let offsets: Vec<usize> = (0..n)
            .map(|k| j.arity_after(k) - j.stages[k].right.arity)
            .collect();

        // Backward pass: `needed_after[k]` = global columns the
        // intermediate republished after stage k must carry.
        let mut needed_after: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut keep_right: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut keep_base: Vec<usize> = Vec::new();
        for e in &j.project {
            e.columns(&mut needed_after[n - 1]);
        }
        for k in (0..n).rev() {
            let st = &j.stages[k];
            let mut in_play = needed_after[k].clone();
            if let Some(p) = &st.stage_pred {
                p.columns(&mut in_play);
            }
            in_play.push(st.left_col);
            in_play.push(offsets[k] + right_col(k));
            in_play.sort_unstable();
            in_play.dedup();
            keep_right[k] = in_play
                .iter()
                .copied()
                .filter(|&c| c >= offsets[k])
                .map(|c| c - offsets[k])
                .collect();
            let need_left: Vec<usize> = in_play.into_iter().filter(|&c| c < offsets[k]).collect();
            if k > 0 {
                needed_after[k - 1] = need_left;
            } else {
                keep_base = need_left;
            }
        }

        // Forward pass: remap every expression onto the pruned layouts.
        let mut in_left: Vec<usize> = keep_base.clone();
        let mut views = Vec::with_capacity(n);
        for k in 0..n {
            let st = &j.stages[k];
            let basis: Vec<usize> = in_left
                .iter()
                .copied()
                .chain(keep_right[k].iter().map(|&c| c + offsets[k]))
                .collect();
            let pos = |g: usize| basis.iter().position(|&b| b == g);
            let mut out_globals = std::mem::take(&mut needed_after[k]);
            out_globals.sort_unstable();
            views.push(StageView {
                join_idx_left: in_left
                    .iter()
                    .position(|&c| c == st.left_col)
                    .expect("left join column kept"),
                join_idx_right: keep_right[k]
                    .iter()
                    .position(|&c| c == right_col(k))
                    .expect("right join column kept"),
                join_col_right: right_col(k),
                pred: st
                    .stage_pred
                    .as_ref()
                    .map(|p| p.remap_cols(&pos).expect("stage pred columns kept")),
                emit: out_globals
                    .iter()
                    .map(|&g| pos(g).expect("emitted column kept"))
                    .collect(),
                keep_right: std::mem::take(&mut keep_right[k]),
                out_globals: out_globals.clone(),
            });
            in_left = out_globals;
        }
        let pos = |g: usize| in_left.iter().position(|&b| b == g);
        PipelineSchema {
            keep_base,
            project: j
                .project
                .iter()
                .map(|e| e.remap_cols(&pos).expect("projected column kept"))
                .collect(),
            stages: views,
            join_col_base: j.stages[0].left_col,
        }
    }

    /// How pipeline table `t` enters the dataflow: the stage whose
    /// namespace it is rehashed into, the side it is tagged with there,
    /// and its join column within its own (unpruned) schema.
    pub fn table_role(&self, t: usize) -> (usize, Side, usize) {
        match t.checked_sub(1) {
            None => (0, Side::Left, self.join_col_base),
            Some(k) => (k, Side::Right, self.stages[k].join_col_right),
        }
    }

    /// Kept columns of pipeline table `t` (local indices): `t = 0` is
    /// the base; `t >= 1` is stage `t - 1`'s right input.
    pub fn keep_for_table(&self, t: usize) -> &[usize] {
        if t == 0 {
            &self.keep_base
        } else {
            &self.stages[t - 1].keep_right
        }
    }

    /// How many columns a row tagged `side` in stage `k`'s namespace
    /// has: the pruned intermediate on the left (the head's kept columns
    /// at stage 0), the pruned right input on the right.
    pub fn width(&self, k: usize, side: Side) -> usize {
        match (side, k.checked_sub(1)) {
            (Side::Right, _) => self.stages[k].keep_right.len(),
            (Side::Left, None) => self.keep_base.len(),
            (Side::Left, Some(prev)) => self.stages[prev].emit.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Func;

    fn workload_join(strategy: JoinStrategy) -> JoinSpec {
        // R(pkey, num1, num2, num3, pad) ⨝ S(pkey, num2, num3) on
        // R.num1 = S.pkey, with preds on num2 and f(R.num3, S.num3).
        let left = ScanSpec::new("R", 5, 0)
            .with_pred(Expr::gt(Expr::col(2), Expr::lit(50i64)))
            .with_join_col(1);
        let right = ScanSpec::new("S", 3, 0)
            .with_pred(Expr::gt(Expr::col(1), Expr::lit(50i64)))
            .with_join_col(0);
        let mut j = JoinSpec::new(strategy, left, right);
        j.stages[0].stage_pred = Some(Expr::gt(
            Expr::Call(Func::WorkloadF, vec![Expr::col(3), Expr::col(7)]),
            Expr::lit(30i64),
        ));
        j.project = vec![Expr::col(0), Expr::col(5), Expr::col(4)];
        j
    }

    /// `j` with a SELECT over every column of its tables.
    fn every_column(mut j: JoinSpec) -> JoinSpec {
        j.project = (0..j.arity()).map(Expr::col).collect();
        j
    }

    #[test]
    fn binary_schema_keeps_only_relevant_columns() {
        let j = workload_join(JoinStrategy::SymmetricHash);
        let v = PipelineSchema::new(&j).unwrap();
        // Left keeps pkey(0), num1(1, join), num3(3), pad(4).
        assert_eq!(v.keep_base, vec![0, 1, 3, 4]);
        // Right keeps pkey(0, join+projected), num3(2).
        assert_eq!(v.stages[0].keep_right, vec![0, 2]);
        assert_eq!(v.stages[0].join_idx_left, 1);
        assert_eq!(v.stages[0].join_idx_right, 0);
        // A SELECT over every column keeps everything in place.
        let every = every_column(j);
        let full = PipelineSchema::new(&every).unwrap();
        assert_eq!(full.keep_base, vec![0, 1, 2, 3, 4]);
        assert_eq!(full.stages[0].keep_right, vec![0, 1, 2]);
        assert_eq!(full.project, every.project);
    }

    #[test]
    fn binary_schema_remaps_exprs_consistently() {
        let j = workload_join(JoinStrategy::SymmetricHash);
        let v = PipelineSchema::new(&j).unwrap();
        // Build a full joined row and its projected counterpart; both
        // evaluations must agree.
        let full = crate::tuple![1i64, 10i64, 60i64, 7i64, 1000i64, 10i64, 60i64, 8i64];
        let st = &v.stages[0];
        let narrow_vals: Vec<crate::value::Value> = v
            .keep_base
            .iter()
            .map(|&c| full.vals[c].clone())
            .chain(st.keep_right.iter().map(|&c| full.vals[c + 5].clone()))
            .collect();
        let narrow = crate::tuple::Tuple::new(narrow_vals);
        let full_pred = j.stages[0].stage_pred.as_ref().unwrap();
        let narrow_pred = st.pred.as_ref().unwrap();
        assert_eq!(full_pred.matches(&full), narrow_pred.matches(&narrow));
        // The initiator ship: emit the surviving columns, then project.
        let out = narrow.project(&st.emit);
        for (fe, ne) in j.project.iter().zip(&v.project) {
            assert_eq!(fe.eval(&full), ne.eval(&out));
        }
    }

    #[test]
    fn pipeline_schema_drops_pad_nobody_reads() {
        // workload_multi projects R.pkey, S.pkey, T.num2 — never R.pad.
        let m = workload_multi();
        let v = PipelineSchema::new(&m).unwrap();
        // R ships only pkey (projected) and num1 (stage-0 join key).
        assert_eq!(v.keep_base, vec![0, 1]);
        // S ships pkey (join + projected) and num3 (stage-1 join key).
        assert_eq!(v.stages[0].keep_right, vec![0, 2]);
        // T ships pkey (join + projected) and num2 (stage predicate).
        assert_eq!(v.stages[1].keep_right, vec![0, 1]);
        // The stage-0 intermediate carries R.pkey, S.pkey, S.num3 only;
        // the stage-0 join key R.num1 is dropped once consumed.
        assert_eq!(v.stages[0].out_globals, vec![0, 5, 7]);
        // After stage 1 the predicate column T.num2 is dropped too.
        assert_eq!(v.stages[1].out_globals, vec![0, 5, 8]);
        assert_eq!(v.stages[1].join_idx_left, 2, "S.num3 within [0, 5, 7]");
    }

    #[test]
    fn pipeline_schema_matches_full_evaluation() {
        let m = workload_multi();
        let v = PipelineSchema::new(&m).unwrap();
        // One full R ++ S ++ T row that survives the stage predicate.
        let full = crate::tuple![
            1i64, 10i64, 60i64, 7i64, 1000i64, // R
            10i64, 60i64, 8i64, // S
            8i64, 70i64, 3i64 // T
        ];
        // Walk the pruned dataflow by hand.
        let base = full.project(&v.keep_base);
        let s_row = crate::tuple::Tuple::new(
            v.stages[0]
                .keep_right
                .iter()
                .map(|&c| full.vals[c + 5].clone())
                .collect(),
        );
        let mid = base.concat(&s_row).project(&v.stages[0].emit);
        let t_row = crate::tuple::Tuple::new(
            v.stages[1]
                .keep_right
                .iter()
                .map(|&c| full.vals[c + 8].clone())
                .collect(),
        );
        let joined = mid.concat(&t_row);
        assert_eq!(
            v.stages[1].pred.as_ref().unwrap().matches(&joined),
            m.stages[1].stage_pred.as_ref().unwrap().matches(&full)
        );
        let out = joined.project(&v.stages[1].emit);
        for (fe, ne) in m.project.iter().zip(&v.project) {
            assert_eq!(fe.eval(&full), ne.eval(&out));
        }
    }

    #[test]
    fn stage_schema_predicts_wire_bytes() {
        use crate::catalog::{Catalog, TableStats};
        use crate::tuple::{ColType, TUPLE_HEADER_BYTES};
        let m = workload_multi();
        let v = PipelineSchema::new(&m).unwrap();
        // A catalog whose R statistics equal the real row: the residual
        // of `avg_tuple_bytes` lands on the pad, so every width is exact.
        let mut catalog = Catalog::workload();
        let stats = TableStats {
            rows: 1,
            avg_tuple_bytes: 4 + 32 + 1000,
        };
        catalog.set_stats("R", stats);
        let def = |t: usize| catalog.get(&m.table(t).table).unwrap();
        // Predicted wire bytes of an intermediate carrying the global
        // columns `cols`: each table's share, under one header.
        let mid_bytes = |cols: &[usize]| {
            let mut offset = 0;
            let mut bytes = TUPLE_HEADER_BYTES;
            for t in 0..m.n_tables() {
                let own = offset..offset + m.table(t).arity;
                let cols = cols.iter().filter(|c| own.contains(c));
                let cols: Vec<usize> = cols.map(|c| c - offset).collect();
                bytes += def(t).ship_bytes(&cols) as usize - TUPLE_HEADER_BYTES;
                offset = own.end;
            }
            bytes
        };
        // R's rehash ships two i64 columns — the 1 KB pad is dropped.
        let r_ship = def(0).ship_bytes(v.keep_for_table(0)) as usize;
        assert_eq!(v.keep_for_table(0).len(), 2);
        assert_eq!(r_ship, 4 + 16);
        assert_eq!(def(0).schema.fields[v.keep_base[0]].ty, ColType::I64);
        // And the prediction matches the actual projected tuple.
        let r_row = crate::tuple![3i64, 4i64, 5i64, 6i64, crate::value::Value::Pad(1000)];
        assert_eq!(r_row.project(&v.keep_base).wire_size(), r_ship);
        // Stage intermediates stay three i64 columns wide.
        for k in 0..2 {
            let mid = &v.stages[k].out_globals;
            assert_eq!(mid_bytes(mid), 4 + 24, "stage {k}");
            assert!(!mid.contains(&4), "pad is on no edge");
        }
        // Read every column, and the same edges carry the pad.
        let full = PipelineSchema::new(&every_column(m.clone())).unwrap();
        assert_eq!(def(0).ship_bytes(full.keep_for_table(0)), 4 + 32 + 1000);
        assert!(full.stages[0].out_globals.contains(&4));
    }

    fn join_desc(join: JoinSpec) -> QueryDesc {
        QueryDesc::one_shot(9, 0, QueryOp::Join { join, agg: None })
    }

    #[test]
    fn certified_plan_is_built_once_and_shared() {
        let d = join_desc(workload_join(JoinStrategy::SymmetricHash));
        let first = d.certified().unwrap().expect("a join has a plan");
        let second = d.certified().unwrap().expect("a join has a plan");
        assert!(Arc::ptr_eq(&first, &second));
        // It is the plan `PipelineSchema::new` builds from the same spec.
        let fresh = PipelineSchema::new(d.op.join().unwrap()).unwrap();
        assert_eq!(format!("{first:?}"), format!("{fresh:?}"));
        let scan = QueryOp::Scan {
            scan: ScanSpec::new("R", 5, 0),
            project: vec![Expr::col(4)],
        };
        assert!(QueryDesc::one_shot(10, 0, scan)
            .certified()
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_malformed_descriptor_caches_the_refusal_check_gives() {
        let mut j = workload_join(JoinStrategy::SymmetricHash);
        j.project.push(Expr::col(8)); // one past R ++ S
        let d = join_desc(j);
        let why = d.check().expect_err("malformed");
        assert_eq!(d.certified().err(), Some(why));
        let cached = d.plan.get().and_then(|c| c.as_ref().err().copied());
        assert_eq!(cached, Some(why), "the refusal is cached");
        assert_eq!(d.certified().err(), Some(why));
    }

    #[test]
    fn a_clone_certifies_from_its_own_op() {
        let d = join_desc(workload_join(JoinStrategy::SymmetricHash));
        let plan = d.certified().unwrap().unwrap();
        let mut copy = d.clone();
        assert!(
            copy.plan.get().is_none(),
            "a clone starts with an empty cell"
        );
        let QueryOp::Join { join, .. } = &mut copy.op else {
            unreachable!()
        };
        join.project = vec![Expr::col(0)];
        let edited = copy.certified().unwrap().unwrap();
        assert!(!Arc::ptr_eq(&plan, &edited));
        // Nothing projects R.pad any more, so R stops shipping it.
        assert_eq!(plan.keep_base, vec![0, 1, 3, 4]);
        assert_eq!(edited.keep_base, vec![0, 1, 3]);
        // The original still holds its own plan.
        assert!(Arc::ptr_eq(&plan, &d.certified().unwrap().unwrap()));
    }

    #[test]
    fn query_namespaces_are_distinct_per_query() {
        assert_ne!(qns::rehash(1), qns::rehash(2));
        assert_ne!(qns::rehash(1), qns::agg(1));
        assert_ne!(qns::bloom(1, false), qns::bloom(1, true));
        assert_ne!(qns::stage(1, 0), qns::stage(1, 1));
        assert_ne!(qns::stage(1, 0), qns::stage(2, 0));
        assert_ne!(qns::stage(1, 0), qns::rehash(1));
        // The frozen naming: one stage lives in NQ, more in NS_k.
        assert_eq!(qns::stage_of(1, 1, 0), qns::rehash(1));
        assert_eq!(qns::stage_of(1, 2, 1), qns::stage(1, 1));
        assert_eq!(qns::all(1, 2).count(), 6);
    }

    fn workload_multi() -> JoinSpec {
        // R ⨝ S on R.num1 = S.pkey, then (R ++ S) ⨝ T on S.num3 = T.pkey.
        let base = ScanSpec::new("R", 5, 0);
        let s1 = JoinStage {
            right: ScanSpec::new("S", 3, 0).with_join_col(0),
            left_col: 1, // R.num1
            stage_pred: None,
        };
        let s2 = JoinStage {
            right: ScanSpec::new("T", 3, 0).with_join_col(0),
            left_col: 7, // S.num3 within R ++ S
            stage_pred: Some(Expr::gt(Expr::col(9), Expr::lit(50i64))),
        };
        let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
        m.project = vec![Expr::col(0), Expr::col(5), Expr::col(8)];
        m
    }

    #[test]
    fn multi_join_arities_accumulate() {
        let m = workload_multi();
        assert_eq!(m.n_tables(), 3);
        assert_eq!(m.arity_after(0), 8);
        assert_eq!(m.arity_after(1), 11);
        assert_eq!(m.arity(), 11);
    }

    #[test]
    fn multi_join_descriptor_wire_size_is_modest() {
        let d = QueryDesc::one_shot(
            11,
            0,
            QueryOp::Join {
                join: workload_multi(),
                agg: None,
            },
        );
        let sz = d.wire_size();
        assert!(sz > 80 && sz < 1500, "desc size {sz}");
    }

    #[test]
    #[should_panic]
    fn multi_join_requires_at_least_one_stage() {
        let _ = JoinSpec::pipeline(ScanSpec::new("R", 5, 0), Vec::new());
    }

    #[test]
    fn descriptor_wire_size_is_modest() {
        let j = workload_join(JoinStrategy::BloomFilter);
        let d = QueryDesc::one_shot(9, 0, QueryOp::Join { join: j, agg: None });
        let sz = d.wire_size();
        assert!(sz > 50 && sz < 1000, "desc size {sz}");
    }

    #[test]
    fn strategy_table() {
        assert_eq!(JoinStrategy::ALL.len(), 4);
        assert_eq!(JoinStrategy::SymmetricHash.name(), "symmetric hash");
    }

    #[test]
    fn default_agg_output_echoes_groups_and_aggs() {
        let spec = AggSpec::new(
            vec![1],
            vec![AggCall {
                func: AggFunc::Count,
                arg: None,
            }],
        );
        assert_eq!(spec.output.len(), 2);
        assert_eq!(spec.output[0], Expr::Col(0));
        assert_eq!(spec.output[1], Expr::Col(1));
    }

    #[test]
    #[should_panic(expected = "malformed tenure")]
    fn windowed_state_is_never_renewed() {
        let d = join_desc(workload_join(JoinStrategy::SymmetricHash));
        let windowed = QueryDesc::standing(9, 0, d.op, Some(Dur::from_secs(30)));
        let _ = windowed.with_renewal(Dur::from_secs(10));
    }

    #[test]
    #[should_panic]
    fn join_spec_requires_join_columns() {
        let left = ScanSpec::new("R", 2, 0);
        let right = ScanSpec::new("S", 2, 0);
        let _ = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    }
}
