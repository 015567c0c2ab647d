//! A small ordered table: the provider's ops in flight and its multicast
//! dedup records, by `u64` key.
//!
//! Most nodes hold one or two entries at a time and none at rest, so a
//! table keeps its first [`INLINE`] entries in place and allocates
//! nothing for them. The entry past that moves them all into a
//! `BTreeMap`, and the table stays one: a node that holds hundreds of
//! lookups at once allocates its leaves once, as it always did, and
//! keeps them for its next burst. Either way the entries are read in key
//! order, so whoever walks the table sees what a `BTreeMap` would show.

use std::collections::BTreeMap;

/// Entries kept in place. Two: a publishing node holds at most two ops
/// at once on a 10^4-node overlay (a rehash holds two), and a node
/// holds at most two multicast ids inside the dedup horizon. A third
/// slot would cost every resting node another op's bytes.
pub(crate) const INLINE: usize = 2;

/// An ordered map from `u64` keys, in place up to [`INLINE`] entries.
pub(crate) enum SmallMap<V> {
    /// Sorted by key, the occupied slots first.
    Inline([Option<(u64, V)>; INLINE]),
    /// Past [`INLINE`] entries once; never goes back.
    Spilled(BTreeMap<u64, V>),
}

impl<V> Default for SmallMap<V> {
    fn default() -> Self {
        SmallMap::Inline([const { None }; INLINE])
    }
}

impl<V> SmallMap<V> {
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            SmallMap::Inline(slots) => slots[0].is_none(),
            SmallMap::Spilled(map) => map.is_empty(),
        }
    }

    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        match self {
            SmallMap::Inline(slots) => slots.iter().flatten().find(|e| e.0 == key).map(|e| &e.1),
            SmallMap::Spilled(map) => map.get(&key),
        }
    }

    /// Insert `val` under `key`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: u64, val: V) -> Option<V> {
        let slots = match self {
            SmallMap::Inline(slots) => slots,
            SmallMap::Spilled(map) => return map.insert(key, val),
        };
        if let Some(e) = slots.iter_mut().flatten().find(|e| e.0 == key) {
            return Some(std::mem::replace(&mut e.1, val));
        }
        let Some(mut at) = slots.iter().position(Option::is_none) else {
            // One by one: `collect` would sort through a `Vec` first, an
            // allocation more per spill.
            let mut map = BTreeMap::new();
            for (k, v) in slots.iter_mut().filter_map(Option::take) {
                map.insert(k, v);
            }
            map.insert(key, val);
            *self = SmallMap::Spilled(map);
            return None;
        };
        slots[at] = Some((key, val));
        while at > 0 && slots[at - 1].as_ref().is_some_and(|e| e.0 > key) {
            slots.swap(at - 1, at);
            at -= 1;
        }
        None
    }

    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        match self {
            SmallMap::Inline(slots) => {
                let at = slots
                    .iter()
                    .position(|s| s.as_ref().is_some_and(|e| e.0 == key))?;
                let (_, val) = slots[at].take()?;
                slots[at..].rotate_left(1);
                Some(val)
            }
            SmallMap::Spilled(map) => map.remove(&key),
        }
    }

    /// Keep the entries `keep` says yes to.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        match self {
            SmallMap::Inline(slots) => {
                // Slots `kept..at` are empty: a kept entry moves down
                // into the first of them.
                let mut kept = 0;
                for at in 0..INLINE {
                    let Some((key, val)) = &mut slots[at] else {
                        break;
                    };
                    if keep(*key, val) {
                        slots.swap(kept, at);
                        kept += 1;
                    } else {
                        slots[at] = None;
                    }
                }
            }
            SmallMap::Spilled(map) => map.retain(|&key, val| keep(key, val)),
        }
    }

    /// The entries in key order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        let (inline, spilled) = match self {
            SmallMap::Inline(slots) => (Some(slots.iter().flatten()), None),
            SmallMap::Spilled(map) => (None, Some(map.iter())),
        };
        let inline = inline.into_iter().flatten().map(|(key, val)| (*key, val));
        inline.chain(spilled.into_iter().flatten().map(|(&key, val)| (key, val)))
    }

    /// The entries in key order, values mutable.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> {
        let (inline, spilled) = match self {
            SmallMap::Inline(slots) => (Some(slots.iter_mut().flatten()), None),
            SmallMap::Spilled(map) => (None, Some(map.iter_mut())),
        };
        let inline = inline.into_iter().flatten().map(|(key, val)| (*key, val));
        inline.chain(spilled.into_iter().flatten().map(|(&key, val)| (key, val)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a random sequence: its low two bits pick the
    /// operation, the next three the key (eight keys, so sequences both
    /// stay inline and spill), the rest the value.
    fn apply(step: u64, table: &mut SmallMap<u64>, model: &mut BTreeMap<u64, u64>) {
        let (key, val) = ((step >> 2) & 7, step >> 5);
        match step & 3 {
            0 => assert_eq!(
                table.insert(key, val),
                model.insert(key, val),
                "insert {key}"
            ),
            1 => assert_eq!(table.remove(key), model.remove(&key), "remove {key}"),
            2 => assert_eq!(table.get(key), model.get(&key), "get {key}"),
            _ => {
                // Drops the entries whose value, bumped, shares the key's
                // parity: retain hands every value over mutably.
                fn keep(key: u64, val: &mut u64) -> bool {
                    *val += 1;
                    (*val ^ key) & 1 == 1
                }
                table.retain(keep);
                model.retain(|&key, val| keep(key, val));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever is inserted, removed, read and retained, the table
        /// holds what a `BTreeMap` holds, in the same key order, inline
        /// and past the spill alike.
        #[test]
        fn agrees_with_a_btree_map(steps in prop::collection::vec(any::<u64>(), 0..48)) {
            let (mut table, mut model) = (SmallMap::default(), BTreeMap::new());
            let mut most = 0;
            for step in steps {
                apply(step, &mut table, &mut model);
                most = most.max(model.len());
                let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                let held: Vec<(u64, u64)> = table.iter().map(|(k, &v)| (k, v)).collect();
                prop_assert_eq!(&held, &expected);
                let held: Vec<(u64, u64)> = table.iter_mut().map(|(k, v)| (k, *v)).collect();
                prop_assert_eq!(&held, &expected);
                prop_assert_eq!(table.is_empty(), model.is_empty());
                // Spilled exactly when it has ever held more than fits.
                prop_assert_eq!(matches!(table, SmallMap::Spilled(_)), most > INLINE);
            }
        }
    }

    /// Up to [`INLINE`] entries allocate nothing; the one past them
    /// moves them all into a map, which a table keeps once it drains.
    #[test]
    fn spills_once_and_stays_spilled() {
        let mut table = SmallMap::default();
        for key in [5, 1] {
            table.insert(key, ());
        }
        assert!(matches!(table, SmallMap::Inline(_)));
        table.insert(3, ());
        assert!(matches!(table, SmallMap::Spilled(_)));
        assert_eq!(table.iter().map(|(k, _)| k).collect::<Vec<_>>(), [1, 3, 5]);
        table.retain(|_, _| false);
        assert!(table.is_empty());
        assert!(matches!(table, SmallMap::Spilled(_)));
    }
}
