//! A harvest's merge against its definition: for random lists of
//! partials (keys that tie across kinds, NaN keys, integers past 2^53;
//! sums whose float result depends on the order they are added in),
//! `agg::Harvest` returns what merging the partials, in the order pushed,
//! into a map keyed by group returns — the first partial of a group
//! shared, the rest merged into a copy of it made on write — in the
//! map's order. Keys, states and finalized values compare exactly: kinds
//! apart, every `F64` by its bits.

use std::collections::BTreeMap;
use std::sync::Arc;

use pier_core::agg::{Accs, AggState, Harvest};
use pier_core::Value;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Key values that tie in `Value`'s order without being the same value:
/// `I64(3)` and `F64(3.0)`, `Bool(true)` and `I64(1)`, `0.0` and `-0.0`,
/// two NaNs, and integers past 2^53 that round to one `f64`.
fn key_value(rng: &mut SmallRng) -> Value {
    const BIG: i64 = 1 << 53;
    let pool = [
        Value::I64(3),
        Value::F64(3.0),
        Value::I64(1),
        Value::Bool(true),
        Value::F64(0.0),
        Value::F64(-0.0),
        Value::I64(0),
        Value::F64(f64::NAN),
        Value::F64(-f64::NAN),
        Value::I64(BIG),
        Value::I64(BIG + 1),
        Value::F64(BIG as f64),
        Value::Null,
        Value::str("x"),
    ];
    pool[rng.gen_range(0..pool.len())].clone()
}

/// A float whose sum with others depends on the order of addition.
fn float(rng: &mut SmallRng) -> f64 {
    [1e16, -1e16, 1.0, 0.5, 0.1, -0.0, 3.0][rng.gen_range(0..7usize)]
}

/// A MIN or MAX partial: empty, or any key value (NaN and NULL too).
fn extreme(rng: &mut SmallRng) -> Option<Value> {
    rng.gen_bool(0.8).then(|| key_value(rng))
}

/// One partial state of the same kind as `like`.
fn state(rng: &mut SmallRng, like: &AggState) -> AggState {
    match like {
        AggState::Count(_) => AggState::Count(rng.gen_range(0..5)),
        AggState::SumF(_) => AggState::SumF(float(rng)),
        AggState::Min(_) => AggState::Min(extreme(rng)),
        AggState::Max(_) => AggState::Max(extreme(rng)),
        AggState::Avg { .. } => AggState::Avg {
            sum: float(rng),
            n: rng.gen_range(0..5),
        },
    }
}

type Partial = (Arc<[Value]>, Arc<[AggState]>);

/// Up to 64 partials of one shape, past the 20 a sort takes by
/// insertion, where an unstable sort would show: keys of one or two
/// columns, one to four states.
fn partials(rng: &mut SmallRng) -> Vec<Partial> {
    let kinds = [
        AggState::Count(0),
        AggState::SumF(0.0),
        AggState::Min(None),
        AggState::Max(None),
        AggState::Avg { sum: 0.0, n: 0 },
    ];
    let shape: Vec<AggState> = (0..rng.gen_range(1..5))
        .map(|_| kinds[rng.gen_range(0..kinds.len())].clone())
        .collect();
    let arity = rng.gen_range(1..3);
    (0..rng.gen_range(0..65))
        .map(|_| {
            let key: Arc<[Value]> = (0..arity).map(|_| key_value(rng)).collect();
            let accs: Arc<[AggState]> = shape.iter().map(|s| state(rng, s)).collect();
            (key, accs)
        })
        .collect()
}

/// The map a harvest once built: a group not there yet shares the
/// partial's key and states; the next partial of the group copies the
/// states on write and merges into the copy.
fn model(partials: &[Partial]) -> Vec<(Vec<Value>, Vec<AggState>)> {
    let mut groups: BTreeMap<Arc<[Value]>, Arc<[AggState]>> = BTreeMap::new();
    for (key, accs) in partials {
        match groups.get_mut(&**key) {
            Some(states) => Arc::make_mut(states).merge(accs),
            None => {
                groups.insert(Arc::clone(key), Arc::clone(accs));
            }
        }
    }
    groups
        .iter()
        .map(|(key, accs)| (key.to_vec(), accs.to_vec()))
        .collect()
}

fn harvested(harvest: &mut Harvest, partials: &[Partial]) -> Vec<(Vec<Value>, Vec<AggState>)> {
    for (key, accs) in partials {
        harvest.push(key, accs);
    }
    let out = harvest
        .groups()
        .map(|(key, states)| (key.to_vec(), states.to_vec()))
        .collect();
    harvest.clear();
    out
}

/// A value as exact text: its kind, and an `F64`'s bits.
fn exact(v: &Value) -> String {
    match v {
        Value::F64(x) => format!("F64({:#x})", x.to_bits()),
        v => format!("{v:?}"),
    }
}

/// Each group as exact text: its key, its states, and what they
/// finalize to.
fn exact_groups(groups: &[(Vec<Value>, Vec<AggState>)]) -> Vec<String> {
    let float = |x: &f64| format!("{:#x}", x.to_bits());
    let state = |s: &AggState| match s {
        AggState::Count(c) => format!("Count({c})"),
        AggState::SumF(x) => format!("SumF({})", float(x)),
        AggState::Min(m) => format!("Min({:?})", m.as_ref().map(exact)),
        AggState::Max(m) => format!("Max({:?})", m.as_ref().map(exact)),
        AggState::Avg { sum, n } => format!("Avg({}, {n})", float(sum)),
    };
    groups
        .iter()
        .map(|(key, states)| {
            let key: Vec<String> = key.iter().map(exact).collect();
            let kept: Vec<String> = states.iter().map(state).collect();
            let out: Vec<String> = states.iter().map(|s| exact(&s.finalize())).collect();
            format!("{key:?} {kept:?} -> {out:?}")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_harvest_merges_as_the_map_did(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let partials = partials(&mut rng);
        let want = exact_groups(&model(&partials));
        let mut harvest = Harvest::default();
        // Twice over one `Harvest`: what the first pass leaves behind
        // changes nothing.
        for pass in 0..2 {
            let got = exact_groups(&harvested(&mut harvest, &partials));
            prop_assert_eq!(&got, &want, "pass {}", pass);
        }
    }
}

/// The cases the property draws at random, written out: ties across
/// kinds keep the first key pushed, and a group's sum is added in push
/// order (1e16 + 1 is 1e16).
#[test]
fn tied_keys_keep_the_first_and_merge_in_push_order() {
    let key = |v: Value| -> Arc<[Value]> { [v].into() };
    let sum = |x: f64| -> Arc<[AggState]> { [AggState::SumF(x)].into() };
    let partials = [
        (key(Value::F64(3.0)), sum(1e16)),
        (key(Value::I64(7)), sum(2.0)),
        (key(Value::I64(3)), sum(1.0)),
        (key(Value::F64(3.0)), sum(-1e16)),
        (key(Value::I64(3)), sum(0.5)),
    ];
    let got = harvested(&mut Harvest::default(), &partials);
    let want = vec![
        (vec![Value::F64(3.0)], vec![AggState::SumF(0.5)]),
        (vec![Value::I64(7)], vec![AggState::SumF(2.0)]),
    ];
    assert_eq!(exact_groups(&got), exact_groups(&want));
    assert_eq!(exact_groups(&model(&partials)), exact_groups(&want));
}
