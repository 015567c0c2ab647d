//! The storage manager (Table 2): node-local, main-memory soft state.
//!
//! The paper deliberately uses a simple main-memory store ("all we expect
//! of the storage manager is to provide performance that is reasonably
//! efficient relative to network bottlenecks", §3.2.2). Items are indexed
//! by namespace and resourceID; items sharing both are distinguished by
//! instanceID. Every item carries a soft-state expiry (§3.2.3).
//!
//! One ordered map holds every item, keyed by (namespace, resourceID,
//! arrival): a bucket is a run of keys in arrival order, a namespace a
//! run of buckets, and an item costs a leaf slot, no container of its own.

use std::collections::btree_map::{BTreeMap, Range};
use std::ops::RangeInclusive;

use crate::msg::Entry;
use crate::{Ns, Rid};
use pier_simnet::time::Time;

/// (namespace, resourceID, arrival number).
type Key = (Ns, Rid, u64);

/// Main-memory storage manager for one node.
#[derive(Debug, Clone)]
pub struct StorageManager<V> {
    items: BTreeMap<Key, Entry<V>>,
    /// The next new item's arrival number (a renewal keeps its item's).
    next_seq: u64,
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
            items: BTreeMap::new(),
            next_seq: 0,
            next_expiry: Time::MAX,
        }
    }
}

/// The keys of bucket (ns, rid) from arrival number `from` on.
fn bucket(ns: Ns, rid: Rid, from: u64) -> RangeInclusive<Key> {
    (ns, rid, from)..=(ns, rid, u64::MAX)
}

/// The keys of namespace `ns`.
fn namespace(ns: Ns) -> RangeInclusive<Key> {
    (ns, 0, 0)..=(ns, Rid::MAX, u64::MAX)
}

/// The items under one (ns, rid), in arrival order: what `get` returns.
pub struct Bucket<'a, V>(Range<'a, Key, Entry<V>>);

impl<V> Bucket<'_, V> {
    /// How many items the bucket holds (a walk of the bucket).
    pub fn len(&self) -> usize {
        self.0.clone().count()
    }

    pub fn is_empty(&self) -> bool {
        self.0.clone().next().is_none()
    }
}

impl<'a, V> Iterator for Bucket<'a, V> {
    type Item = &'a Entry<V>;
    fn next(&mut self) -> Option<&'a Entry<V>> {
        self.0.next().map(|(_, e)| e)
    }
}

impl<V> StorageManager<V> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored items across all namespaces.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
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
        let (ns, rid) = (entry.ns, entry.rid);
        let mut same = self.items.range_mut(bucket(ns, rid, 0)).map(|(_, e)| e);
        if let Some(existing) = same.find(|e| e.iid == entry.iid) {
            *existing = entry;
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(self.items.entry((ns, rid, seq)).or_insert(entry))
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
            .find(|e| e.iid == entry.iid)
            .map(|e| e.expires);
        match current {
            Some(expires) if expires >= entry.expires => None,
            _ => Some(self.store(entry)),
        }
    }

    /// All live items under (ns, rid) — `get` is key-based, not
    /// instance-based, and may return multiple items.
    pub fn get(&self, ns: Ns, rid: Rid) -> Bucket<'_, V> {
        Bucket(self.items.range(bucket(ns, rid, 0)))
    }

    /// A cursor over bucket (ns, rid) for a caller that stores while it
    /// walks: the first item at or after `cursor` (start at 0) that `pick`
    /// maps to `Some`, with that value and the cursor after the item. A
    /// call is one descent of the map and holds nothing once it returns;
    /// an item stored meanwhile is keyed after every one already there.
    pub fn next_in<T, F>(&self, ns: Ns, rid: Rid, cursor: u64, mut pick: F) -> Option<(u64, T)>
    where
        F: FnMut(&Entry<V>) -> Option<T>,
    {
        let mut rest = self.items.range(bucket(ns, rid, cursor));
        rest.find_map(|(&(.., seq), e)| Some((seq + 1, pick(e)?)))
    }

    /// Remove every item in a namespace (query teardown reclaims the
    /// local share of a query's derived namespaces immediately; remote
    /// shares on unreachable peers still age out by expiry). Returns
    /// how many items were removed.
    pub fn remove_ns(&mut self, ns: Ns) -> usize {
        self.items.extract_if(namespace(ns), |_, _| true).count()
    }

    /// Iterate all items in a namespace (the provider's `lscan`).
    pub fn lscan(&self, ns: Ns) -> impl Iterator<Item = &Entry<V>> {
        self.items.range(namespace(ns)).map(|(_, e)| e)
    }

    /// Iterate all items in all namespaces.
    pub fn iter_all(&self) -> impl Iterator<Item = &Entry<V>> {
        self.items.values()
    }

    /// Count of items in one namespace.
    pub fn ns_len(&self, ns: Ns) -> usize {
        self.lscan(ns).count()
    }

    /// Count of *live* items in one namespace — expired-but-unswept
    /// entries (the sweep runs on the maintenance tick) are excluded,
    /// so an audit right after an expiry horizon is exact.
    pub fn ns_len_live(&self, ns: Ns, now: Time) -> usize {
        self.lscan(ns).filter(|e| e.expires > now).count()
    }

    /// Per-namespace occupancy audit: every namespace holding at least
    /// one live item, with its live count — the reclamation invariant's
    /// measurement unit (a torn-down query must leave all of its
    /// derived namespaces at zero within one soft-state lifetime).
    pub fn occupancy(&self, now: Time) -> Vec<(Ns, usize)> {
        let mut out = Vec::new();
        for e in self.items.values().filter(|e| e.expires > now) {
            match out.last_mut() {
                Some((ns, n)) if *ns == e.ns => *n += 1,
                _ => out.push((e.ns, 1)),
            }
        }
        out
    }

    /// Drop expired items (soft-state aging, §3.2.3). Returns the number
    /// discarded.
    pub fn sweep_expired(&mut self, now: Time) -> usize {
        if now < self.next_expiry {
            return 0;
        }
        let before = self.items.len();
        let mut next = Time::MAX;
        self.items.retain(|_, e| {
            let live = e.expires > now;
            if live {
                next = next.min(e.expires);
            }
            live
        });
        self.next_expiry = next;
        before - self.items.len()
    }

    /// Extract (remove and return) all items whose routing key fails the
    /// ownership predicate — used for zone handoff when a zone is split
    /// and for re-homing after overlay churn.
    ///
    /// Buckets leave in key order, each whole (it has one routing key):
    /// its first arrival, then the rest last-first — the order the
    /// hand-off's sends are pinned to.
    pub fn extract_not_owned(&mut self, owns: impl Fn(u64) -> bool) -> Vec<Entry<V>> {
        let mut out: Vec<Entry<V>> = self
            .items
            .extract_if(.., |_, e| !owns(e.key))
            .map(|(_, e)| e)
            .collect();
        for run in out.chunk_by_mut(|a, b| (a.ns, a.rid) == (b.ns, b.rid)) {
            run[1..].reverse();
        }
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
        assert!(s.store(entry(1, 11, 0, 99, 1000, 9)));
        let vals: Vec<u32> = s.get(1, 10).map(|e| e.val).collect();
        assert_eq!(vals, vec![7, 8]);
        assert_eq!(s.get(1, 10).len(), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove_ns(1), 3);
        assert!(s.is_empty());
        assert!(s.get(1, 10).is_empty());
    }

    #[test]
    fn a_cursor_walks_a_bucket_and_sees_what_is_stored_meanwhile() {
        let mut s = StorageManager::new();
        s.store(entry(1, 10, 0, 99, 1000, 7));
        s.store(entry(1, 11, 0, 99, 1000, 0));
        s.store(entry(1, 10, 1, 99, 1000, 8));
        let (mut cursor, mut seen) = (0, Vec::new());
        while let Some((next, val)) = s.next_in(1, 10, cursor, |e| Some(e.val)) {
            cursor = next;
            seen.push(val);
            if val == 7 {
                s.store(entry(1, 10, 2, 99, 1000, 9));
            }
        }
        assert_eq!(seen, vec![7, 8, 9]);
        // `pick` passes over what it does not want.
        let odd = |e: &Entry<u32>| (e.val % 2 == 1).then_some(e.iid);
        assert_eq!(s.next_in(1, 10, 0, odd), Some((1, 0)));
        assert_eq!(s.next_in(1, 10, 1, odd), Some((4, 2)));
        assert_eq!(s.next_in(1, 10, 4, odd), None);
        assert_eq!(s.next_in(1, 12, 0, odd), None);
    }

    #[test]
    fn same_instance_replaces_and_renews() {
        let mut s = StorageManager::new();
        assert!(s.store(entry(1, 10, 5, 99, 1000, 7)));
        // Renewal: same (ns, rid, iid), later expiry, is not "new data".
        assert!(!s.store(entry(1, 10, 5, 99, 5000, 9)));
        assert_eq!(s.len(), 1);
        let item = s.get(1, 10).next().unwrap();
        assert_eq!(item.val, 9);
        assert_eq!(item.expires, Time(5000));
    }

    #[test]
    fn store_no_regress_never_shortens_a_lifetime() {
        let mut s = StorageManager::new();
        assert_eq!(s.store_no_regress(entry(1, 10, 5, 99, 1000, 7)), Some(true));
        // A stale copy (earlier expiry) is skipped outright…
        assert_eq!(s.store_no_regress(entry(1, 10, 5, 99, 500, 8)), None);
        assert_eq!(s.get(1, 10).next().unwrap().val, 7);
        // …while a fresher copy renews like a normal store.
        assert_eq!(
            s.store_no_regress(entry(1, 10, 5, 99, 2000, 9)),
            Some(false)
        );
        assert_eq!(s.get(1, 10).next().unwrap().expires, Time(2000));
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
        assert_eq!(s.occupancy(Time(150)), vec![(1, 1)]);
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

    /// The store without its bound or its index: a flat list in arrival
    /// order, a renewal replacing its item in place, swept
    /// unconditionally.
    #[derive(Default)]
    struct FlatStore(Vec<Entry<u32>>);

    impl FlatStore {
        /// The index of (e.ns, e.rid, e.iid), if stored.
        fn find(&self, e: &Entry<u32>) -> Option<usize> {
            let same = |x: &Entry<u32>| (x.ns, x.rid, x.iid) == (e.ns, e.rid, e.iid);
            self.0.iter().position(same)
        }

        fn store(&mut self, e: Entry<u32>) {
            match self.find(&e) {
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

        /// What the store yields: bucket by bucket, in (ns, rid) order,
        /// each in arrival order.
        fn by_bucket(&self) -> Vec<Entry<u32>> {
            let mut items = self.0.clone();
            items.sort_by_key(|e| (e.ns, e.rid)); // stable
            items
        }
    }

    proptest! {
        /// Under any sequence of stores, renewals (later *and* earlier
        /// expiries), stale and fresh `store_no_regress` copies, removals,
        /// hand-offs and sweeps, `next_expiry` never exceeds the earliest
        /// stored expiry — so the early return can never keep an expired
        /// item — every sweep removes exactly what the unconditional pass
        /// over a flat list removes, and the store yields its items in
        /// the flat list's arrival order, bucket by bucket.
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
                // Few distinct names, so many stores are renewals;
                // expiries fall on both sides of the clock's pace.
                let e = entry(ns, rid, iid, r >> 24, now + (r >> 32) % 40, 0);
                match draw % 8 {
                    0..=2 => {
                        let is_new = flat.find(&e).is_none();
                        flat.store(e.clone());
                        prop_assert_eq!(s.store(e), is_new);
                    }
                    3 => {
                        let held = flat.find(&e).map(|i| flat.0[i].expires);
                        let want = match held {
                            Some(expires) if expires >= e.expires => None,
                            _ => Some(held.is_none()),
                        };
                        if want.is_some() {
                            flat.store(e.clone());
                        }
                        prop_assert_eq!(s.store_no_regress(e), want);
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
                prop_assert_eq!(s.iter_all().cloned().collect::<Vec<_>>(), flat.by_bucket());
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
        s.remove_ns(2);
        assert_eq!(s.next_expiry, Time(300));
        assert_eq!(s.sweep_expired(Time(300)), 0);
        // …and an empty store has nothing to wait for.
        assert_eq!(s.next_expiry, Time::MAX);
    }
}
