//! What the storage manager returns, as text: one scripted sequence over
//! a `StorageManager<u32>` — stores into buckets of one and of several
//! instances, renewals to a later and to an earlier expiry,
//! `store_no_regress` skipping a stale copy and taking a fresh one,
//! sweeps, `remove_ns` and two hand-offs by `extract_not_owned` — and
//! after each step every return value, the order `get` yields each
//! bucket in, `lscan` of every namespace, `iter_all` and `occupancy`.
//!
//! The query processor reads buckets, namespaces and hand-offs in the
//! order the store yields them, and the order it sends and joins in is
//! what the simulated outcomes are pinned to; the oracle suites compare
//! answers as multisets and cannot see it. As in the DHT, an item's
//! routing key is a function of its (namespace, resourceID), so a
//! hand-off moves whole buckets.
//!
//! Taken on the three-level store (a `Vec` per bucket), before the store
//! became one ordered map.

#[macro_use]
#[path = "../../../tests/pin/mod.rs"]
mod pin;

use std::fmt::Write;

use pier_dht::{Entry, Ns, Rid, StorageManager};
use pier_simnet::time::Time;

const NAMESPACES: [Ns; 4] = [1, 2, 3, 9];
const BUCKETS: [(Ns, Rid); 6] = [(1, 3), (1, 10), (2, 5), (2, 6), (3, 7), (9, 1)];

fn entry(ns: Ns, rid: Rid, iid: u32, expires: u64, val: u32) -> Entry<u32> {
    Entry {
        ns,
        rid,
        iid,
        key: ns * 100 + rid,
        expires: Time(expires),
        val,
    }
}

fn show(e: &Entry<u32>) -> String {
    format!(
        "{}/{}/{} key {} exp {} val {}",
        e.ns, e.rid, e.iid, e.key, e.expires.0, e.val
    )
}

fn list<'a>(items: impl IntoIterator<Item = &'a Entry<u32>>) -> String {
    let items: Vec<String> = items.into_iter().map(show).collect();
    format!("[{}]", items.join(", "))
}

/// Everything the store shows at `now`.
fn state(s: &StorageManager<u32>, now: u64, out: &mut String) {
    let now = Time(now);
    writeln!(out, "  len {} empty {}", s.len(), s.is_empty()).unwrap();
    for (ns, rid) in BUCKETS {
        let mut bucket = Vec::new();
        for e in s.get(ns, rid) {
            bucket.push(e);
        }
        let n = s.get(ns, rid).len();
        writeln!(out, "  get {ns}/{rid} ({n}): {}", list(bucket)).unwrap();
    }
    for ns in NAMESPACES {
        let (n, live) = (s.ns_len(ns), s.ns_len_live(ns, now));
        writeln!(
            out,
            "  lscan {ns} ({n}, {live} live): {}",
            list(s.lscan(ns))
        )
        .unwrap();
    }
    writeln!(out, "  iter_all: {}", list(s.iter_all())).unwrap();
    writeln!(out, "  occupancy at {}: {:?}", now.0, s.occupancy(now)).unwrap();
}

fn transcript() -> String {
    let mut s = StorageManager::new();
    let mut out = String::new();
    let mut val = 0;
    let mut next = || {
        val += 1;
        val
    };

    writeln!(out, "stores").unwrap();
    for (ns, rid, iid, expires) in [
        (1, 10, 0, 500),
        (1, 10, 1, 300),
        (2, 5, 0, 800),
        (1, 10, 2, 700),
        (1, 3, 0, 200),
        (1, 10, 3, 400),
        (3, 7, 0, 900),
        (2, 5, 1, 100),
        (1, 10, 4, 600),
        (2, 6, 0, 250),
        (3, 7, 1, 350),
    ] {
        let e = entry(ns, rid, iid, expires, next());
        let stored = s.store_new(e).map(show);
        writeln!(out, "  store_new {ns}/{rid}/{iid} -> {stored:?}").unwrap();
    }
    state(&s, 0, &mut out);

    writeln!(out, "renewals").unwrap();
    for (ns, rid, iid, expires) in [(1, 10, 1, 1_000), (1, 10, 2, 150), (2, 5, 0, 800)] {
        let renewed = s.store(entry(ns, rid, iid, expires, next()));
        writeln!(out, "  store {ns}/{rid}/{iid} exp {expires} -> {renewed}").unwrap();
    }
    let stored = s.store_new(entry(1, 10, 3, 450, next())).map(show);
    writeln!(out, "  store_new 1/10/3 exp 450 -> {stored:?}").unwrap();
    state(&s, 0, &mut out);

    writeln!(out, "store_no_regress").unwrap();
    for (ns, rid, iid, expires) in [
        (1, 10, 0, 400),
        (1, 10, 0, 500),
        (1, 10, 0, 550),
        (2, 6, 1, 50),
        (9, 1, 0, 1_200),
    ] {
        let got = s.store_no_regress(entry(ns, rid, iid, expires, next()));
        writeln!(out, "  {ns}/{rid}/{iid} exp {expires} -> {got:?}").unwrap();
    }
    state(&s, 120, &mut out);

    for now in [99, 100, 160, 160, 260] {
        let swept = s.sweep_expired(Time(now));
        writeln!(out, "sweep at {now} -> {swept}").unwrap();
        state(&s, now, &mut out);
    }

    writeln!(out, "stores after the sweeps").unwrap();
    for (ns, rid, iid, expires) in [(1, 10, 2, 800), (1, 3, 1, 900), (2, 6, 0, 900)] {
        let e = entry(ns, rid, iid, expires, next());
        let stored = s.store_new(e).map(show);
        writeln!(out, "  store_new {ns}/{rid}/{iid} -> {stored:?}").unwrap();
    }
    state(&s, 260, &mut out);

    for ns in [2, 4] {
        let removed = s.remove_ns(ns);
        writeln!(out, "remove_ns {ns} -> {removed}").unwrap();
    }
    state(&s, 260, &mut out);

    let moved = s.extract_not_owned(|key| key != 110 && key != 307);
    writeln!(
        out,
        "extract_not_owned (moves 1/10, 3/7) -> {}",
        list(&moved)
    )
    .unwrap();
    state(&s, 260, &mut out);

    let moved = s.extract_not_owned(|_| false);
    writeln!(
        out,
        "extract_not_owned (moves the rest) -> {}",
        list(&moved)
    )
    .unwrap();
    state(&s, 260, &mut out);
    writeln!(out, "sweep at 2000 -> {}", s.sweep_expired(Time(2_000))).unwrap();
    out
}

#[test]
fn one_scripted_sequence() {
    pin!("one_scripted_sequence", transcript());
}
