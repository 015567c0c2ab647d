//! The node's shared values: every string and group key its queries copy
//! out of a row, held once. Where the query processor turns a column
//! read in place into an owned value — a new group's key in
//! `agg::fold`, a join value in `rehash_table`, `advance` and
//! `semi_rehash`, a semi-join mini's primary key — it asks
//! [`SharedValues`], and a value some holder already has costs a
//! reference count. Values compare, order, hash and size by content, so
//! what is shared changes no byte that leaves and no answer; it changes
//! what aggregate state and join values cost, from one copy per query
//! and epoch to one per distinct value.

use std::collections::BTreeSet;
use std::mem::discriminant;
use std::sync::Arc;

use super::agg::GroupKey;
use crate::value::{ValRef, Value};

/// The fewest entries a table's prune threshold is set from. Without it
/// a table left nearly empty by a prune would prune again within a few
/// inserts, and a node cycling through a handful of values would walk
/// its table at almost every miss; at 32 a prune is at most one walk
/// per 32 misses.
const FLOOR: usize = 32;

/// One node's tables, allocated on first use: a node whose queries copy
/// no string and build no group key holds one null pointer.
#[derive(Default)]
pub(super) struct SharedValues(Option<Box<Tables>>);

#[derive(Default)]
struct Tables {
    strs: Table<str>,
    keys: Table<[Value]>,
}

/// Shared values of one kind. An entry lives while something besides
/// the table holds it: when the table reaches twice the size its last
/// prune left (and at least twice [`FLOOR`]), the next insert first
/// drops every entry only the table holds. So it holds at most twice its
/// live entries plus the floor, and a prune costs O(1) a miss amortised.
struct Table<U: ?Sized> {
    set: BTreeSet<Arc<U>>,
    /// The size at which the next insert prunes first.
    limit: usize,
}

impl<U: ?Sized> Default for Table<U> {
    fn default() -> Self {
        Table {
            set: BTreeSet::new(),
            limit: 2 * FLOOR,
        }
    }
}

impl<U: ?Sized + Ord> Table<U> {
    /// Hold `v`, which the table does not hold yet, and hand it back.
    fn insert(&mut self, v: Arc<U>) -> Arc<U> {
        if self.set.len() >= self.limit {
            self.set.retain(|e| Arc::strong_count(e) > 1);
            self.limit = 2 * self.set.len().max(FLOOR);
        }
        self.set.insert(Arc::clone(&v));
        v
    }
}

impl SharedValues {
    fn tables(&mut self) -> &mut Tables {
        self.0.get_or_insert_with(Box::default)
    }

    /// `v`, owned: a string shared with every other holder on this node.
    pub(super) fn share(&mut self, v: ValRef<'_>) -> Value {
        match v {
            ValRef::Str(_) => self.tables().share(v),
            v => v.to_value(),
        }
    }

    /// The group key `key` reads, owned: shared with every other group
    /// on this node that holds the same values of the same kinds, its
    /// strings shared as [`Self::share`] shares them.
    pub(super) fn share_key(&mut self, key: &dyn GroupKey) -> Arc<[Value]> {
        let t = self.tables();
        // The groups' order ties `I64(3)` with `F64(3.0)` and −0.0 with
        // 0.0; a query gets back the very values it folded, or a key
        // of its own.
        let found = t.keys.set.get(key);
        let exact = found.filter(|k| (0..key.len()).all(|i| identical(k[i].as_ref(), key.at(i))));
        if let Some(k) = exact {
            return Arc::clone(k);
        }
        let fresh = found.is_none();
        let owned: Arc<[Value]> = (0..key.len()).map(|i| t.share(key.at(i))).collect();
        if fresh {
            t.keys.insert(owned)
        } else {
            owned
        }
    }
}

impl Tables {
    fn share(&mut self, v: ValRef<'_>) -> Value {
        let ValRef::Str(s) = v else {
            return v.to_value();
        };
        Value::Str(match self.strs.set.get(s) {
            Some(held) => Arc::clone(held),
            None => self.strs.insert(Arc::from(s)),
        })
    }
}

/// The same kind holding the same bits: stricter than `==`, which is
/// numeric across kinds.
fn identical(a: ValRef<'_>, b: ValRef<'_>) -> bool {
    match (a, b) {
        (ValRef::I64(x), ValRef::I64(y)) => x == y,
        (ValRef::F64(x), ValRef::F64(y)) => x.to_bits() == y.to_bits(),
        (a, b) => discriminant(&a) == discriminant(&b) && a == b,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    fn held(shared: &SharedValues) -> (usize, usize) {
        shared
            .0
            .as_ref()
            .map_or((0, 0), |t| (t.strs.set.len(), t.keys.set.len()))
    }

    /// 10 000 distinct strings, only the last `k` held by the caller:
    /// the table never holds more than twice the larger of `k` and the
    /// floor (plus the one being inserted), and a prune, the only time
    /// it lets go of anything, never lets go of a string someone holds.
    #[test]
    fn the_table_holds_at_most_twice_its_live_entries_plus_the_floor() {
        for k in [0, 1, 31, 32, 33, 100, 1_000] {
            let mut shared = SharedValues::default();
            let mut last: VecDeque<Value> = VecDeque::new();
            let bound = 2 * k.max(FLOOR) + 1;
            let mut before = 0;
            for i in 0..10_000 {
                let s = format!("10.0.{i}.7");
                last.push_back(shared.share(ValRef::Str(&s)));
                if last.len() > k {
                    last.pop_front();
                }
                let (strs, _) = held(&shared);
                assert!(strs <= bound, "k = {k}: {strs} entries after {i}");
                if strs <= before {
                    for v in &last {
                        let again = shared.share(v.as_ref());
                        let (Value::Str(a), Value::Str(b)) = (v, &again) else {
                            unreachable!()
                        };
                        assert!(Arc::ptr_eq(a, b), "k = {k}: {a} dropped while held");
                    }
                }
                before = strs;
            }
        }
    }

    #[test]
    fn a_node_that_shares_no_string_allocates_no_table() {
        let mut shared = SharedValues::default();
        assert_eq!(shared.share(ValRef::I64(7)), Value::I64(7));
        assert!(shared.0.is_none());
    }

    /// Keys are shared by value and kind: `[I64(3)]` and `[F64(3.0)]`
    /// order as one group, yet each query gets back the kind it folded.
    #[test]
    fn a_key_is_shared_only_with_an_identical_one() {
        let mut shared = SharedValues::default();
        let key = |vals: Vec<Value>| -> Arc<[Value]> { vals.into() };
        let a = shared.share_key(&key(vec![Value::I64(3), Value::str("x")]));
        let b = shared.share_key(&key(vec![Value::I64(3), Value::str("x")]));
        assert!(Arc::ptr_eq(&a, &b));
        let f = shared.share_key(&key(vec![Value::F64(3.0), Value::str("x")]));
        assert!(matches!(f[0], Value::F64(_)), "{:?}", f[0]);
        let (Value::Str(sa), Value::Str(sf)) = (&a[1], &f[1]) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(sa, sf), "the string is shared all the same");
        assert_eq!(held(&shared), (1, 1));
    }
}
