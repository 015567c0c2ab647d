//! Wire byte-size audit: the §4.2 argument is about *bytes rehashed*,
//! so the byte model must be exact. These tests pin the precise wire
//! size of what each strategy ships for the §5.1 workload join — with
//! `Value::Pad(n)` contributing its full `n` bytes and projected tuples
//! reflecting every dropped column — and check the catalog's byte
//! predictions (`TableDef::ship_bytes` over the [`PipelineSchema`]'s
//! kept columns) against the actual shipped items.

use pier_core::catalog::{Catalog, TableStats};
use pier_core::expr::{Expr, Func};
use pier_core::item::{QpItem, Side};
use pier_core::plan::{JoinSpec, JoinStage, JoinStrategy, PipelineSchema, ScanSpec};
use pier_core::tuple;
use pier_core::tuple::{FlatRow, Tuple, TUPLE_HEADER_BYTES};
use pier_core::value::Value;
use pier_simnet::Wire;

/// The §5.1 workload join: R(pkey,num1,num2,num3,pad) ⨝ S(pkey,num2,
/// num3) on R.num1 = S.pkey, SELECT R.pkey, S.pkey, R.pad.
fn workload_join(strategy: JoinStrategy) -> JoinSpec {
    let left = ScanSpec::new("R", 5, 0)
        .with_pred(Expr::gt(Expr::col(2), Expr::lit(49i64)))
        .with_join_col(1);
    let right = ScanSpec::new("S", 3, 0)
        .with_pred(Expr::gt(Expr::col(1), Expr::lit(49i64)))
        .with_join_col(0);
    let mut j = JoinSpec::new(strategy, left, right);
    j.stages[0].stage_pred = Some(Expr::gt(
        Expr::Call(Func::WorkloadF, vec![Expr::col(3), Expr::col(7)]),
        Expr::lit(49i64),
    ));
    j.project = vec![Expr::col(0), Expr::col(5), Expr::col(4)];
    j
}

fn r_row() -> Tuple {
    tuple![7i64, 3i64, 60i64, 12i64, Value::Pad(1000)]
}

fn s_row() -> Tuple {
    tuple![3i64, 70i64, 21i64]
}

#[test]
fn pad_value_contributes_exact_wire_bytes() {
    assert_eq!(Value::Pad(1000).wire_size(), 1000);
    assert_eq!(Value::I64(7).wire_size(), 8);
    // Full base tuples: header 4 + values.
    assert_eq!(r_row().wire_size(), 4 + 4 * 8 + 1000);
    assert_eq!(s_row().wire_size(), 4 + 3 * 8);
}

#[test]
fn symmetric_hash_rehash_bytes_reflect_dropped_columns() {
    let j = workload_join(JoinStrategy::SymmetricHash);
    let v = PipelineSchema::new(&j).unwrap();
    // R keeps pkey, num1, num3, pad (num2 was consumed by the pushed
    // scan predicate): 4 + 3·8 + 1000 bytes projected.
    let projected = r_row().project(&v.keep_base);
    assert_eq!(projected.wire_size(), 4 + 3 * 8 + 1000);
    // The rehashed DHT item: 11-byte Tagged header + 8-byte join value.
    let item = QpItem::Tagged {
        qid: 1,
        side: Side::Left,
        join: Value::I64(3),
        row: FlatRow::from_tuple(&projected),
    };
    assert_eq!(item.wire_size(), 11 + 8 + (4 + 3 * 8 + 1000));
    // S keeps pkey and num3: a 39-byte item instead of 47 unpruned.
    let s_proj = s_row().project(&v.stages[0].keep_right);
    let s_item = QpItem::Tagged {
        qid: 1,
        side: Side::Right,
        join: Value::I64(3),
        row: FlatRow::from_tuple(&s_proj),
    };
    assert_eq!(s_item.wire_size(), 11 + 8 + (4 + 2 * 8));
}

#[test]
fn semi_join_minis_are_constant_24_bytes_of_payload() {
    // The §4.2 rewrite ships (pkey, join) only, whatever the schema.
    let mini = QpItem::Mini {
        qid: 1,
        side: Side::Left,
        pkey: Value::I64(7),
        join: Value::I64(3),
    };
    assert_eq!(mini.wire_size(), 11 + 8 + 8);
    // >37× smaller than the padded Tagged rehash of the same row.
    assert!(mini.wire_size() * 37 < 11 + 8 + 4 + 3 * 8 + 1000);
}

#[test]
fn fetch_matches_moves_full_base_tuples() {
    // A get returns published rows; the query cannot prune those.
    let fetched = QpItem::Row(FlatRow::from_tuple(&s_row()));
    assert_eq!(fetched.wire_size(), 2 + (4 + 3 * 8));
}

/// The narrow 3-way pipeline: R ⨝ S ⨝ T with SELECT R.pkey, S.pkey,
/// T.pkey — pad read by nobody.
fn narrow_multi() -> JoinSpec {
    let base = ScanSpec::new("R", 5, 0);
    let s1 = JoinStage {
        right: ScanSpec::new("S", 3, 0).with_join_col(0),
        left_col: 1,
        stage_pred: None,
    };
    let s2 = JoinStage {
        right: ScanSpec::new("T", 3, 0).with_join_col(0),
        left_col: 7,
        stage_pred: None,
    };
    let mut m = JoinSpec::pipeline(base, vec![s1, s2]);
    m.project = vec![Expr::col(0), Expr::col(5), Expr::col(8)];
    m
}

#[test]
fn stage_republish_bytes_exclude_the_pad() {
    let m = narrow_multi();
    let v = PipelineSchema::new(&m).unwrap();
    // R's rehash: pkey + num1 only — 1008 bytes lighter than unpruned.
    let projected = r_row().project(&v.keep_base);
    assert_eq!(projected.wire_size(), 4 + 2 * 8);
    let mut every_column = m.clone();
    every_column.project = (0..m.arity()).map(Expr::col).collect();
    let full = PipelineSchema::new(&every_column).unwrap();
    assert_eq!(
        r_row().project(&full.keep_base).wire_size(),
        4 + 4 * 8 + 1000
    );
    // The stage-0 intermediate (R.pkey, S.pkey, S.num3): 28 bytes.
    let s_proj = s_row().project(&v.stages[0].keep_right);
    let mid = projected.concat(&s_proj).project(&v.stages[0].emit);
    assert_eq!(mid.wire_size(), 4 + 3 * 8);
    let republished = QpItem::Tagged {
        qid: 1,
        side: Side::Left,
        join: mid.get(2).clone(),
        row: FlatRow::from_tuple(&mid),
    };
    assert_eq!(republished.wire_size(), 11 + 8 + (4 + 3 * 8));
}

#[test]
fn stage_schema_predictions_match_shipped_bytes() {
    let m = narrow_multi();
    let v = PipelineSchema::new(&m).unwrap();
    // A catalog whose R statistics equal the real row: the residual of
    // `avg_tuple_bytes` lands on the pad, so every width is exact.
    let mut catalog = Catalog::workload();
    let stats = TableStats {
        rows: 1,
        avg_tuple_bytes: r_row().wire_size() as u64,
    };
    catalog.set_stats("R", stats);
    let def = |t: usize| catalog.get(&m.table(t).table).unwrap();
    assert_eq!(
        def(0).ship_bytes(v.keep_for_table(0)) as usize,
        r_row().project(&v.keep_base).wire_size()
    );
    assert_eq!(
        def(1).ship_bytes(v.keep_for_table(1)) as usize,
        s_row().project(&v.stages[0].keep_right).wire_size()
    );
    let s_proj = s_row().project(&v.stages[0].keep_right);
    let mid = r_row()
        .project(&v.keep_base)
        .concat(&s_proj)
        .project(&v.stages[0].emit);
    // The stage-0 intermediate: each table's share of `out_globals`,
    // under one header.
    let mut offset = 0;
    let mut predicted = TUPLE_HEADER_BYTES;
    for t in 0..m.n_tables() {
        let own = offset..offset + m.table(t).arity;
        let cols = v.stages[0].out_globals.iter().filter(|c| own.contains(c));
        let cols: Vec<usize> = cols.map(|c| c - offset).collect();
        predicted += def(t).ship_bytes(&cols) as usize - TUPLE_HEADER_BYTES;
        offset = own.end;
    }
    assert_eq!(predicted, mid.wire_size());
}
