//! The wire model must not follow the memory layout: `wire_size()` of one
//! exemplar of every `QpItem`, `PierMsg`, `DhtMsg` and `CanMsg` variant,
//! pinned to the byte. Simulated delivery times and every traffic figure
//! are functions of these numbers alone, so a change to how a message is
//! *held* (boxed, shared, reordered) that moves one of them has changed
//! the model, not just the representation.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use std::sync::Arc;

use pier_core::agg::GroupAccs;
use pier_core::expr::Expr;
use pier_core::item::{Part, PierMsg, QpItem, Report, Side};
use pier_core::plan::{AggCall, AggFunc, JoinSpec, JoinStrategy, QueryDesc, QueryOp, ScanSpec};
use pier_core::tuple;
use pier_core::tuple::FlatRow;
use pier_core::value::Value;
use pier_core::BloomFilter;
use pier_dht::geom::{Point, Zone};
use pier_dht::msg::{CanMsg, ChordMsg, DhtMsg, Entry, RepairScope, Zones};
use pier_simnet::time::Time;
use pier_simnet::Wire;

/// A 1 036-byte R row of the §5.1 workload.
fn wide_row() -> FlatRow {
    FlatRow::from_tuple(&tuple![7i64, 3i64, 60i64, 12i64, Value::Pad(1000)])
}

/// A 28-byte S row.
fn narrow_row() -> FlatRow {
    FlatRow::from_tuple(&tuple![3i64, 70i64, 21i64])
}

fn tagged() -> QpItem {
    QpItem::Tagged {
        qid: 1,
        side: Side::Right,
        join: Value::I64(3),
        row: narrow_row(),
    }
}

fn accs() -> GroupAccs {
    GroupAccs::new(&[
        AggCall {
            func: AggFunc::Count,
            arg: None,
        },
        AggCall {
            func: AggFunc::Max,
            arg: Some(Expr::col(1)),
        },
    ])
}

fn group() -> Vec<Value> {
    vec![Value::I64(1), Value::str("ab")]
}

/// The workload join as a one-shot descriptor.
fn query() -> QpItem {
    let left = ScanSpec::new("R", 5, 0)
        .with_pred(Expr::gt(Expr::col(2), Expr::lit(49i64)))
        .with_join_col(1);
    let right = ScanSpec::new("S", 3, 0)
        .with_pred(Expr::gt(Expr::col(1), Expr::lit(49i64)))
        .with_join_col(0);
    let mut j = JoinSpec::new(JoinStrategy::SymmetricHash, left, right);
    j.project = vec![Expr::col(0), Expr::col(5), Expr::col(4)];
    QpItem::Query(Arc::new(QueryDesc::one_shot(
        1,
        0,
        QueryOp::Join { join: j, agg: None },
    )))
}

fn entry(val: QpItem) -> Entry<QpItem> {
    Entry {
        ns: 1,
        rid: 2,
        iid: 3,
        key: 4,
        expires: Time::ZERO,
        val,
    }
}

fn two_entries() -> Vec<Entry<QpItem>> {
    vec![entry(QpItem::Row(wide_row())), entry(tagged())]
}

fn neighbors() -> Vec<(u32, Zones)> {
    vec![
        (1, vec![Zone::whole(4)].into()),
        (2, vec![Zone::whole(4); 2].into()),
    ]
}

#[test]
fn every_variant_keeps_its_wire_size() {
    let table: Vec<(&str, usize)> = vec![
        // ---- QpItem
        ("QpItem::Row", QpItem::Row(wide_row()).wire_size()),
        ("QpItem::Tagged", tagged().wire_size()),
        (
            "QpItem::Mini",
            QpItem::Mini {
                qid: 1,
                side: Side::Left,
                pkey: Value::I64(7),
                join: Value::I64(3),
            }
            .wire_size(),
        ),
        (
            "QpItem::Bloom",
            QpItem::Bloom {
                qid: 1,
                side: Side::Left,
                filter: BloomFilter::new(1024, 4),
            }
            .wire_size(),
        ),
        (
            "QpItem::Partial",
            QpItem::Partial {
                qid: 1,
                group: group().into(),
                accs: accs().into(),
            }
            .wire_size(),
        ),
        ("QpItem::Query", query().wire_size()),
        ("QpItem::Cancel", QpItem::Cancel { qid: 1 }.wire_size()),
        // ---- PierMsg
        (
            "PierMsg::Dht",
            PierMsg::Dht(DhtMsg::Put {
                entry: entry(tagged()),
            })
            .wire_size(),
        ),
        (
            "PierMsg::Result",
            PierMsg::Result {
                qid: 1,
                ident: 9,
                row: wide_row(),
            }
            .wire_size(),
        ),
        (
            "PierMsg::Report",
            PierMsg::Report(Box::new(Report {
                qid: 1,
                epoch: 2,
                share: 1 << 64,
                part: Part::Groups([(group().into(), accs().into())].into()),
            }))
            .wire_size(),
        ),
        // ---- DhtMsg
        (
            "DhtMsg::Can",
            DhtMsg::<QpItem>::Can(CanMsg::Lookup {
                key: 1,
                token: 2,
                origin: 0,
                ttl: 64,
            })
            .wire_size(),
        ),
        (
            "DhtMsg::Chord",
            DhtMsg::Chord(ChordMsg::Bcast {
                id: 1,
                origin: 0,
                payload: query(),
                limit: 7,
            })
            .wire_size(),
        ),
        (
            "DhtMsg::LookupReply",
            DhtMsg::<QpItem>::LookupReply { token: 1, key: 2 }.wire_size(),
        ),
        (
            "DhtMsg::Put",
            DhtMsg::Put {
                entry: entry(QpItem::Row(wide_row())),
            }
            .wire_size(),
        ),
        (
            "DhtMsg::Get",
            DhtMsg::<QpItem>::Get {
                ns: 1,
                rid: 2,
                token: 3,
                origin: 0,
            }
            .wire_size(),
        ),
        (
            "DhtMsg::GetReply",
            DhtMsg::GetReply {
                token: 3,
                items: two_entries(),
            }
            .wire_size(),
        ),
        (
            "DhtMsg::MoveItems",
            DhtMsg::MoveItems {
                items: two_entries(),
            }
            .wire_size(),
        ),
        (
            "DhtMsg::Replicate",
            DhtMsg::Replicate {
                entry: entry(tagged()),
            }
            .wire_size(),
        ),
        (
            "DhtMsg::RepairRequest (zones)",
            DhtMsg::<QpItem>::RepairRequest {
                scope: RepairScope::Zones(vec![Zone::whole(4); 3].into()),
            }
            .wire_size(),
        ),
        (
            "DhtMsg::RepairRequest (ring)",
            DhtMsg::<QpItem>::RepairRequest {
                scope: RepairScope::Ring { from: 1, to: 2 },
            }
            .wire_size(),
        ),
        (
            "DhtMsg::RepairReply",
            DhtMsg::RepairReply {
                items: two_entries(),
            }
            .wire_size(),
        ),
        // ---- CanMsg
        (
            "CanMsg::JoinLocate",
            CanMsg::<QpItem>::JoinLocate {
                joiner: 1,
                p: Point::from_key(5, 4),
                ttl: 64,
            }
            .wire_size(),
        ),
        (
            "CanMsg::JoinOffer",
            CanMsg::JoinOffer {
                zone: Zone::whole(4),
                neighbors: neighbors(),
                items: two_entries(),
            }
            .wire_size(),
        ),
        (
            "CanMsg::NeighborUpdate",
            CanMsg::<QpItem>::NeighborUpdate {
                zones: vec![Zone::whole(4); 2].into(),
            }
            .wire_size(),
        ),
        (
            "CanMsg::Heartbeat",
            CanMsg::<QpItem>::Heartbeat {
                zones: vec![Zone::whole(4)].into(),
                neighbors: neighbors().into(),
            }
            .wire_size(),
        ),
        (
            "CanMsg::Takeover",
            CanMsg::<QpItem>::Takeover {
                dead: 3,
                zones: vec![Zone::whole(4); 2].into(),
            }
            .wire_size(),
        ),
        (
            "CanMsg::Leave",
            CanMsg::Leave {
                zones: vec![Zone::whole(4)].into(),
                items: two_entries(),
                neighbors: vec![1, 2, 3],
            }
            .wire_size(),
        ),
        (
            "CanMsg::Lookup",
            CanMsg::<QpItem>::Lookup {
                key: 1,
                token: 2,
                origin: 0,
                ttl: 64,
            }
            .wire_size(),
        ),
        (
            "CanMsg::Mcast",
            CanMsg::Mcast {
                id: 1,
                origin: 0,
                rect: Zone::whole(4),
                payload: query(),
                ttl: 64,
            }
            .wire_size(),
        ),
    ];
    let sizes: Vec<String> = table
        .iter()
        .map(|(name, bytes)| format!("{name} {bytes}"))
        .collect();
    pin!("every_variant_keeps_its_wire_size", sizes.join("\n"));
}
