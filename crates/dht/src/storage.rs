//! The storage manager (Table 2): node-local, main-memory soft state.
//!
//! The paper deliberately uses a simple main-memory store ("all we expect
//! of the storage manager is to provide performance that is reasonably
//! efficient relative to network bottlenecks", §3.2.2). Items are indexed
//! by namespace and resourceID; items sharing both are distinguished by
//! instanceID. Every item carries a soft-state expiry (§3.2.3).

use std::collections::BTreeMap;

use crate::msg::Entry;
use crate::{Ns, Rid};
use pier_simnet::time::Time;

/// Main-memory storage manager for one node.
#[derive(Debug, Clone)]
pub struct StorageManager<V> {
    by_ns: BTreeMap<Ns, BTreeMap<Rid, Vec<Entry<V>>>>,
    len: usize,
    /// A lower bound on the earliest stored expiry, so that a sweep with
    /// nothing due is one comparison. Every store lowers it, a sweep's
    /// pass recomputes it, and removals leave it alone: a bound that is
    /// stale-low costs one real sweep, one that is high would keep an
    /// expired item — so it is never raised except by that pass.
    next_expiry: Time,
}

impl<V> Default for StorageManager<V> {
    fn default() -> Self {
        StorageManager {
            by_ns: BTreeMap::new(),
            len: 0,
            next_expiry: Time::MAX,
        }
    }
}

impl<V> StorageManager<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored items across all namespaces.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Store an item. If an item with the same (ns, rid, iid) exists it is
    /// replaced and its lifetime extended — this is `renew` (§3.2.3).
    /// Returns `true` when the item is new (not a renewal), which is what
    /// drives `newData` callbacks.
    pub fn store(&mut self, entry: Entry<V>) -> bool {
        self.store_new(entry).is_some()
    }

    /// [`Self::store`], returning the stored copy when the item is new —
    /// so the caller clones for its `newData` upcall only then, and a
    /// renewal moves straight into place.
    pub fn store_new(&mut self, entry: Entry<V>) -> Option<&Entry<V>> {
        // New or renewed alike: `store` may also shorten a lifetime.
        self.next_expiry = self.next_expiry.min(entry.expires);
        let bucket = self
            .by_ns
            .entry(entry.ns)
            .or_default()
            .entry(entry.rid)
            .or_default();
        if let Some(existing) = bucket.iter_mut().find(|e| e.iid == entry.iid) {
            *existing = entry;
            None
        } else {
            bucket.push(entry);
            self.len += 1;
            bucket.last()
        }
    }

    /// Store `entry` unless an existing copy of the same instance already
    /// has an equal or later expiry. Replica fan-out and anti-entropy
    /// repair use this instead of [`Self::store`]: a copy arriving late
    /// (or pulled from a peer that missed a renewal) must never *shorten*
    /// the soft-state lifetime the holder already granted. Returns
    /// `Some(is_new)` when stored, `None` when the stale copy was skipped.
    pub fn store_no_regress(&mut self, entry: Entry<V>) -> Option<bool> {
        let current = self
            .get(entry.ns, entry.rid)
            .iter()
            .find(|e| e.iid == entry.iid)
            .map(|e| e.expires);
        match current {
            Some(expires) if expires >= entry.expires => None,
            _ => Some(self.store(entry)),
        }
    }

    /// All live items under (ns, rid) — `get` is key-based, not
    /// instance-based, and may return multiple items.
    pub fn get(&self, ns: Ns, rid: Rid) -> &[Entry<V>] {
        self.by_ns
            .get(&ns)
            .and_then(|m| m.get(&rid))
            .map_or(&[], |v| v.as_slice())
    }

    /// Remove every item in a namespace (query teardown reclaims the
    /// local share of a query's derived namespaces immediately; remote
    /// shares on unreachable peers still age out by expiry). Returns
    /// how many items were removed.
    pub fn remove_ns(&mut self, ns: Ns) -> usize {
        let removed = self
            .by_ns
            .remove(&ns)
            .map_or(0, |m| m.values().map(Vec::len).sum());
        self.len -= removed;
        removed
    }

    /// Remove every item under (ns, rid). Returns how many were removed.
    pub fn remove(&mut self, ns: Ns, rid: Rid) -> usize {
        let Some(m) = self.by_ns.get_mut(&ns) else {
            return 0;
        };
        let removed = m.remove(&rid).map_or(0, |v| v.len());
        self.len -= removed;
        if m.is_empty() {
            // Namespaces are destroyed when their last item expires.
            self.by_ns.remove(&ns);
        }
        removed
    }

    /// Iterate all items in a namespace (the provider's `lscan`).
    pub fn lscan(&self, ns: Ns) -> impl Iterator<Item = &Entry<V>> {
        self.by_ns
            .get(&ns)
            .into_iter()
            .flat_map(|m| m.values().flatten())
    }

    /// Iterate all items in all namespaces.
    pub fn iter_all(&self) -> impl Iterator<Item = &Entry<V>> {
        self.by_ns.values().flat_map(|m| m.values().flatten())
    }

    /// Namespaces currently holding data.
    pub fn namespaces(&self) -> impl Iterator<Item = Ns> + '_ {
        self.by_ns.keys().copied()
    }

    /// Count of items in one namespace.
    pub fn ns_len(&self, ns: Ns) -> usize {
        self.by_ns
            .get(&ns)
            .map_or(0, |m| m.values().map(Vec::len).sum())
    }

    /// Count of *live* items in one namespace — expired-but-unswept
    /// entries (the sweep runs on the maintenance tick) are excluded,
    /// so an audit right after an expiry horizon is exact.
    pub fn ns_len_live(&self, ns: Ns, now: Time) -> usize {
        self.by_ns.get(&ns).map_or(0, |m| {
            m.values().flatten().filter(|e| e.expires > now).count()
        })
    }

    /// Per-namespace occupancy audit: every namespace holding at least
    /// one live item, with its live count — the reclamation invariant's
    /// measurement unit (a torn-down query must leave all of its
    /// derived namespaces at zero within one soft-state lifetime).
    pub fn occupancy(&self, now: Time) -> Vec<(Ns, usize)> {
        let mut out: Vec<(Ns, usize)> = self
            .by_ns
            .keys()
            .map(|&ns| (ns, self.ns_len_live(ns, now)))
            .filter(|&(_, n)| n > 0)
            .collect();
        out.sort_unstable();
        out
    }

    /// Drop expired items (soft-state aging, §3.2.3). Returns the number
    /// discarded.
    pub fn sweep_expired(&mut self, now: Time) -> usize {
        if now < self.next_expiry {
            return 0;
        }
        let mut removed = 0;
        let mut next = Time::MAX;
        self.by_ns.retain(|_, m| {
            m.retain(|_, v| {
                let before = v.len();
                v.retain(|e| {
                    let live = e.expires > now;
                    if live {
                        next = next.min(e.expires);
                    }
                    live
                });
                removed += before - v.len();
                !v.is_empty()
            });
            !m.is_empty()
        });
        self.len -= removed;
        self.next_expiry = next;
        removed
    }

    /// Extract (remove and return) all items whose routing key fails the
    /// ownership predicate — used for zone handoff when a zone is split
    /// and for re-homing after overlay churn.
    pub fn extract_not_owned(&mut self, owns: impl Fn(u64) -> bool) -> Vec<Entry<V>> {
        let mut out = Vec::new();
        self.by_ns.retain(|_, m| {
            m.retain(|_, v| {
                let mut i = 0;
                while i < v.len() {
                    if owns(v[i].key) {
                        i += 1;
                    } else {
                        out.push(v.swap_remove(i));
                    }
                }
                !v.is_empty()
            });
            !m.is_empty()
        });
        self.len -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(ns: Ns, rid: Rid, iid: u32, key: u64, expires: u64, val: u32) -> Entry<u32> {
        Entry {
            ns,
            rid,
            iid,
            key,
            expires: Time(expires),
            val,
        }
    }

    #[test]
    fn store_get_remove_roundtrip() {
        let mut s = StorageManager::new();
        assert!(s.store(entry(1, 10, 0, 99, 1000, 7)));
        assert!(s.store(entry(1, 10, 1, 99, 1000, 8)));
        assert_eq!(s.get(1, 10).len(), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(1, 10), 2);
        assert!(s.is_empty());
        assert_eq!(s.get(1, 10).len(), 0);
    }

    #[test]
    fn same_instance_replaces_and_renews() {
        let mut s = StorageManager::new();
        assert!(s.store(entry(1, 10, 5, 99, 1000, 7)));
        // Renewal: same (ns, rid, iid), later expiry, is not "new data".
        assert!(!s.store(entry(1, 10, 5, 99, 5000, 9)));
        assert_eq!(s.len(), 1);
        let items = s.get(1, 10);
        assert_eq!(items[0].val, 9);
        assert_eq!(items[0].expires, Time(5000));
    }

    #[test]
    fn store_no_regress_never_shortens_a_lifetime() {
        let mut s = StorageManager::new();
        assert_eq!(s.store_no_regress(entry(1, 10, 5, 99, 1000, 7)), Some(true));
        // A stale copy (earlier expiry) is skipped outright…
        assert_eq!(s.store_no_regress(entry(1, 10, 5, 99, 500, 8)), None);
        assert_eq!(s.get(1, 10)[0].val, 7);
        // …while a fresher copy renews like a normal store.
        assert_eq!(
            s.store_no_regress(entry(1, 10, 5, 99, 2000, 9)),
            Some(false)
        );
        assert_eq!(s.get(1, 10)[0].expires, Time(2000));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lscan_iterates_one_namespace_only() {
        let mut s = StorageManager::new();
        s.store(entry(1, 10, 0, 1, 1000, 1));
        s.store(entry(1, 11, 0, 2, 1000, 2));
        s.store(entry(2, 10, 0, 3, 1000, 3));
        let mut ns1: Vec<u32> = s.lscan(1).map(|e| e.val).collect();
        ns1.sort_unstable();
        assert_eq!(ns1, vec![1, 2]);
        assert_eq!(s.ns_len(1), 2);
        assert_eq!(s.ns_len(2), 1);
        assert_eq!(s.lscan(3).count(), 0);
    }

    #[test]
    fn remove_ns_drops_a_whole_namespace() {
        let mut s = StorageManager::new();
        s.store(entry(1, 10, 0, 1, 1000, 1));
        s.store(entry(1, 11, 0, 2, 1000, 2));
        s.store(entry(2, 10, 0, 3, 1000, 3));
        assert_eq!(s.remove_ns(1), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.ns_len(1), 0);
        assert_eq!(s.ns_len(2), 1);
        assert_eq!(s.remove_ns(7), 0);
    }

    #[test]
    fn live_occupancy_excludes_expired_unswept_items() {
        let mut s = StorageManager::new();
        s.store(entry(1, 10, 0, 1, 100, 1));
        s.store(entry(1, 11, 0, 2, 400, 2));
        s.store(entry(2, 20, 0, 3, 50, 3));
        // No sweep has run: raw counts still see everything…
        assert_eq!(s.ns_len(1), 2);
        assert_eq!(s.ns_len(2), 1);
        // …but the live audit is expiry-exact.
        assert_eq!(s.ns_len_live(1, Time(150)), 1);
        assert_eq!(s.ns_len_live(2, Time(150)), 0);
        assert_eq!(s.occupancy(Time(150)), vec![(1, 1)]);
        assert_eq!(s.occupancy(Time(500)), vec![]);
    }

    #[test]
    fn sweep_discards_only_expired() {
        let mut s = StorageManager::new();
        s.store(entry(1, 10, 0, 1, 100, 1));
        s.store(entry(1, 10, 1, 1, 300, 2));
        s.store(entry(2, 20, 0, 2, 50, 3));
        assert_eq!(s.sweep_expired(Time(150)), 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1, 10).len(), 1);
        // Namespace 2 disappeared with its last item.
        assert_eq!(s.namespaces().count(), 1);
    }

    #[test]
    fn extract_not_owned_partitions_by_key() {
        let mut s = StorageManager::new();
        for k in 0..10u64 {
            s.store(entry(1, k, 0, k, 1000, k as u32));
        }
        let moved = s.extract_not_owned(|k| k % 2 == 0);
        assert_eq!(moved.len(), 5);
        assert!(moved.iter().all(|e| e.key % 2 == 1));
        assert_eq!(s.len(), 5);
        assert!(s.iter_all().all(|e| e.key % 2 == 0));
    }

    /// The store without its bound: a flat list, swept unconditionally.
    #[derive(Default)]
    struct FlatStore(Vec<Entry<u32>>);

    impl FlatStore {
        fn store(&mut self, e: Entry<u32>) {
            let same = |x: &Entry<u32>| (x.ns, x.rid, x.iid) == (e.ns, e.rid, e.iid);
            match self.0.iter().position(same) {
                Some(i) => self.0[i] = e,
                None => self.0.push(e),
            }
        }

        /// Remove what `gone` selects; how many went.
        fn remove(&mut self, gone: impl Fn(&Entry<u32>) -> bool) -> usize {
            let before = self.0.len();
            self.0.retain(|e| !gone(e));
            before - self.0.len()
        }
    }

    fn sorted(mut items: Vec<Entry<u32>>) -> Vec<Entry<u32>> {
        items.sort_by_key(|e| (e.ns, e.rid, e.iid));
        items
    }

    proptest! {
        /// Under any sequence of stores, renewals (later *and* earlier
        /// expiries), removals, hand-offs and sweeps, `next_expiry` never
        /// exceeds the earliest stored expiry — so the early return can
        /// never keep an expired item — and every sweep removes exactly
        /// what the unconditional pass over a flat list removes.
        #[test]
        fn sweep_bound_is_a_lower_bound_and_sweeps_are_exact(
            draws in prop::collection::vec(any::<u64>(), 1..300),
        ) {
            let mut s = StorageManager::new();
            let mut flat = FlatStore::default();
            let mut now = 0u64;
            for draw in draws {
                let r = draw / 8;
                let (ns, rid, iid) = (r % 3, (r >> 8) % 4, ((r >> 16) % 2) as u32);
                match draw % 8 {
                    // Few distinct names, so many stores are renewals;
                    // expiries fall on both sides of the clock's pace.
                    0..=2 => {
                        let e = entry(ns, rid, iid, r >> 24, now + (r >> 32) % 40, 0);
                        flat.store(e.clone());
                        s.store(e);
                    }
                    3 => {
                        let n = flat.remove(|e| (e.ns, e.rid) == (ns, rid));
                        prop_assert_eq!(s.remove(ns, rid), n);
                    }
                    4 => {
                        let n = flat.remove(|e| e.ns == ns);
                        prop_assert_eq!(s.remove_ns(ns), n);
                    }
                    5 => {
                        let n = flat.remove(|e| e.key % 2 == 1);
                        prop_assert_eq!(s.extract_not_owned(|k| k % 2 == 0).len(), n);
                    }
                    _ => {
                        now += (r >> 40) % 12;
                        let n = flat.remove(|e| e.expires <= Time(now));
                        prop_assert_eq!(s.sweep_expired(Time(now)), n);
                    }
                }
                prop_assert_eq!(s.len(), flat.0.len());
                prop_assert_eq!(
                    sorted(s.iter_all().cloned().collect()),
                    sorted(flat.0.clone())
                );
                if let Some(earliest) = flat.0.iter().map(|e| e.expires).min() {
                    prop_assert!(s.next_expiry <= earliest);
                }
            }
        }
    }

    #[test]
    fn sweep_bound_follows_stores_and_sweeps_not_removals() {
        let mut s = StorageManager::new();
        s.store(entry(1, 10, 0, 1, 100, 1));
        s.store(entry(2, 20, 0, 2, 300, 2));
        assert_eq!(s.next_expiry, Time(100));
        assert_eq!(s.sweep_expired(Time(99)), 0);
        // The pass that removes the earliest item re-derives the bound…
        assert_eq!(s.sweep_expired(Time(100)), 1);
        assert_eq!(s.next_expiry, Time(300));
        // …a removal leaves it (stale-low: one real sweep finds nothing)…
        s.remove(2, 20);
        assert_eq!(s.next_expiry, Time(300));
        assert_eq!(s.sweep_expired(Time(300)), 0);
        // …and an empty store has nothing to wait for.
        assert_eq!(s.next_expiry, Time::MAX);
    }
}
