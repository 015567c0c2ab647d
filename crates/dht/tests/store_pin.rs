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
    let got = transcript();
    assert!(
        got == TRANSCRIPT,
        "the transcript moved; it now reads:\n{got}"
    );
}

const TRANSCRIPT: &str = r#"stores
  store_new 1/10/0 -> Some("1/10/0 key 110 exp 500 val 1")
  store_new 1/10/1 -> Some("1/10/1 key 110 exp 300 val 2")
  store_new 2/5/0 -> Some("2/5/0 key 205 exp 800 val 3")
  store_new 1/10/2 -> Some("1/10/2 key 110 exp 700 val 4")
  store_new 1/3/0 -> Some("1/3/0 key 103 exp 200 val 5")
  store_new 1/10/3 -> Some("1/10/3 key 110 exp 400 val 6")
  store_new 3/7/0 -> Some("3/7/0 key 307 exp 900 val 7")
  store_new 2/5/1 -> Some("2/5/1 key 205 exp 100 val 8")
  store_new 1/10/4 -> Some("1/10/4 key 110 exp 600 val 9")
  store_new 2/6/0 -> Some("2/6/0 key 206 exp 250 val 10")
  store_new 3/7/1 -> Some("3/7/1 key 307 exp 350 val 11")
  len 11 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (5): [1/10/0 key 110 exp 500 val 1, 1/10/1 key 110 exp 300 val 2, 1/10/2 key 110 exp 700 val 4, 1/10/3 key 110 exp 400 val 6, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (2): [2/5/0 key 205 exp 800 val 3, 2/5/1 key 205 exp 100 val 8]
  get 2/6 (1): [2/6/0 key 206 exp 250 val 10]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (0): []
  lscan 1 (6, 6 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 500 val 1, 1/10/1 key 110 exp 300 val 2, 1/10/2 key 110 exp 700 val 4, 1/10/3 key 110 exp 400 val 6, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (3, 3 live): [2/5/0 key 205 exp 800 val 3, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (0, 0 live): []
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 500 val 1, 1/10/1 key 110 exp 300 val 2, 1/10/2 key 110 exp 700 val 4, 1/10/3 key 110 exp 400 val 6, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 3, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  occupancy at 0: [(1, 6), (2, 3), (3, 2)]
renewals
  store 1/10/1 exp 1000 -> false
  store 1/10/2 exp 150 -> false
  store 2/5/0 exp 800 -> false
  store_new 1/10/3 exp 450 -> None
  len 11 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (5): [1/10/0 key 110 exp 500 val 1, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (2): [2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8]
  get 2/6 (1): [2/6/0 key 206 exp 250 val 10]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (0): []
  lscan 1 (6, 6 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 500 val 1, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (3, 3 live): [2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (0, 0 live): []
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 500 val 1, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  occupancy at 0: [(1, 6), (2, 3), (3, 2)]
store_no_regress
  1/10/0 exp 400 -> None
  1/10/0 exp 500 -> None
  1/10/0 exp 550 -> Some(false)
  2/6/1 exp 50 -> Some(true)
  9/1/0 exp 1200 -> Some(true)
  len 13 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (5): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (2): [2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8]
  get 2/6 (2): [2/6/0 key 206 exp 250 val 10, 2/6/1 key 206 exp 50 val 19]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (6, 6 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (4, 2 live): [2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10, 2/6/1 key 206 exp 50 val 19]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10, 2/6/1 key 206 exp 50 val 19, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 120: [(1, 6), (2, 2), (3, 2), (9, 1)]
sweep at 99 -> 1
  len 12 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (5): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (2): [2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8]
  get 2/6 (1): [2/6/0 key 206 exp 250 val 10]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (6, 6 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (3, 3 live): [2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 2/5/1 key 205 exp 100 val 8, 2/6/0 key 206 exp 250 val 10, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 99: [(1, 6), (2, 3), (3, 2), (9, 1)]
sweep at 100 -> 1
  len 11 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (5): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (1): [2/5/0 key 205 exp 800 val 14]
  get 2/6 (1): [2/6/0 key 206 exp 250 val 10]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (6, 6 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (2, 2 live): [2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 250 val 10]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/2 key 110 exp 150 val 13, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 250 val 10, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 100: [(1, 6), (2, 2), (3, 2), (9, 1)]
sweep at 160 -> 1
  len 10 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (4): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (1): [2/5/0 key 205 exp 800 val 14]
  get 2/6 (1): [2/6/0 key 206 exp 250 val 10]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (5, 5 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (2, 2 live): [2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 250 val 10]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 250 val 10, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 160: [(1, 5), (2, 2), (3, 2), (9, 1)]
sweep at 160 -> 0
  len 10 empty false
  get 1/3 (1): [1/3/0 key 103 exp 200 val 5]
  get 1/10 (4): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (1): [2/5/0 key 205 exp 800 val 14]
  get 2/6 (1): [2/6/0 key 206 exp 250 val 10]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (5, 5 live): [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (2, 2 live): [2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 250 val 10]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/0 key 103 exp 200 val 5, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 250 val 10, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 160: [(1, 5), (2, 2), (3, 2), (9, 1)]
sweep at 260 -> 2
  len 8 empty false
  get 1/3 (0): []
  get 1/10 (4): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  get 2/5 (1): [2/5/0 key 205 exp 800 val 14]
  get 2/6 (0): []
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (4, 4 live): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9]
  lscan 2 (1, 1 live): [2/5/0 key 205 exp 800 val 14]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 2/5/0 key 205 exp 800 val 14, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 260: [(1, 4), (2, 1), (3, 2), (9, 1)]
stores after the sweeps
  store_new 1/10/2 -> Some("1/10/2 key 110 exp 800 val 21")
  store_new 1/3/1 -> Some("1/3/1 key 103 exp 900 val 22")
  store_new 2/6/0 -> Some("2/6/0 key 206 exp 900 val 23")
  len 11 empty false
  get 1/3 (1): [1/3/1 key 103 exp 900 val 22]
  get 1/10 (5): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 1/10/2 key 110 exp 800 val 21]
  get 2/5 (1): [2/5/0 key 205 exp 800 val 14]
  get 2/6 (1): [2/6/0 key 206 exp 900 val 23]
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (6, 6 live): [1/3/1 key 103 exp 900 val 22, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 1/10/2 key 110 exp 800 val 21]
  lscan 2 (2, 2 live): [2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 900 val 23]
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/1 key 103 exp 900 val 22, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 1/10/2 key 110 exp 800 val 21, 2/5/0 key 205 exp 800 val 14, 2/6/0 key 206 exp 900 val 23, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 260: [(1, 6), (2, 2), (3, 2), (9, 1)]
remove_ns 2 -> 2
remove_ns 4 -> 0
  len 9 empty false
  get 1/3 (1): [1/3/1 key 103 exp 900 val 22]
  get 1/10 (5): [1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 1/10/2 key 110 exp 800 val 21]
  get 2/5 (0): []
  get 2/6 (0): []
  get 3/7 (2): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (6, 6 live): [1/3/1 key 103 exp 900 val 22, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 1/10/2 key 110 exp 800 val 21]
  lscan 2 (0, 0 live): []
  lscan 3 (2, 2 live): [3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/1 key 103 exp 900 val 22, 1/10/0 key 110 exp 550 val 18, 1/10/1 key 110 exp 1000 val 12, 1/10/3 key 110 exp 450 val 15, 1/10/4 key 110 exp 600 val 9, 1/10/2 key 110 exp 800 val 21, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 260: [(1, 6), (3, 2), (9, 1)]
extract_not_owned (moves 1/10, 3/7) -> [1/10/0 key 110 exp 550 val 18, 1/10/2 key 110 exp 800 val 21, 1/10/4 key 110 exp 600 val 9, 1/10/3 key 110 exp 450 val 15, 1/10/1 key 110 exp 1000 val 12, 3/7/0 key 307 exp 900 val 7, 3/7/1 key 307 exp 350 val 11]
  len 2 empty false
  get 1/3 (1): [1/3/1 key 103 exp 900 val 22]
  get 1/10 (0): []
  get 2/5 (0): []
  get 2/6 (0): []
  get 3/7 (0): []
  get 9/1 (1): [9/1/0 key 901 exp 1200 val 20]
  lscan 1 (1, 1 live): [1/3/1 key 103 exp 900 val 22]
  lscan 2 (0, 0 live): []
  lscan 3 (0, 0 live): []
  lscan 9 (1, 1 live): [9/1/0 key 901 exp 1200 val 20]
  iter_all: [1/3/1 key 103 exp 900 val 22, 9/1/0 key 901 exp 1200 val 20]
  occupancy at 260: [(1, 1), (9, 1)]
extract_not_owned (moves the rest) -> [1/3/1 key 103 exp 900 val 22, 9/1/0 key 901 exp 1200 val 20]
  len 0 empty true
  get 1/3 (0): []
  get 1/10 (0): []
  get 2/5 (0): []
  get 2/6 (0): []
  get 3/7 (0): []
  get 9/1 (0): []
  lscan 1 (0, 0 live): []
  lscan 2 (0, 0 live): []
  lscan 3 (0, 0 live): []
  lscan 9 (0, 0 live): []
  iter_all: []
  occupancy at 260: []
sweep at 2000 -> 0
"#;
