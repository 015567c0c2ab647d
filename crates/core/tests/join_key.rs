//! `Value::join_key`, the key the join oracles index by, agrees with
//! `==` on the value zoo: two values share a key exactly when they are
//! equal, and NaN, equal to nothing, has none. (`Hash` does not agree:
//! `I64(3) == F64(3.0)`, yet they hash apart.)

mod common;

#[test]
fn join_keys_agree_with_equality() {
    let zoo = common::zoo();
    for a in &zoo {
        let nan = a.as_f64().is_some_and(f64::is_nan);
        assert_eq!(a.join_key().is_none(), nan, "{a:?}");
        for b in &zoo {
            let same = a.join_key().is_some() && a.join_key() == b.join_key();
            assert_eq!(same, a == b, "{a:?} vs {b:?}");
        }
    }
    // The zoo holds the cross-kind equalities this is about.
    let keyed = |i: usize| zoo[i].join_key();
    assert_eq!(keyed(1), keyed(8)); // Bool(false), F64(-0.0)
    assert_eq!(keyed(4), keyed(8)); // I64(0), F64(-0.0)
    assert_eq!(keyed(11), keyed(12)); // I64(2^53), I64(2^53 + 1)
    assert_eq!(keyed(12), keyed(13)); // I64(2^53 + 1), F64(2^53)
    assert_eq!(keyed(6), keyed(7)); // I64(3), F64(3.0)
    assert_ne!(zoo[6].hash64(), zoo[7].hash64());
}
