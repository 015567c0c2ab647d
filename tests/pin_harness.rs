//! The pin check itself (tests/pin/mod.rs), run against a temporary
//! directory so no test here touches `tests/pins/`.

mod pin;

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

/// A fresh directory under the system's temporary directory.
fn fresh_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pin_harness_{}_{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the check fails");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast::<&str>().unwrap().to_string(),
    }
}

#[test]
fn a_mismatch_writes_the_text_beside_the_pin_and_names_the_first_moved_line() {
    let dir = fresh_dir("mismatch");
    fs::write(dir.join("t.txt"), "one\ntwo\nthree\n").unwrap();
    fs::write(dir.join("u.txt"), "old\n").unwrap();
    let now = "one\n2\nthree\nfour\n";
    // Both pins of one check are compared before it fails.
    let msg = panic_message(|| pin::check(&dir, &[("t", now), ("u", "new\n")]));
    assert_eq!(fs::read_to_string(dir.join("t.txt.new")).unwrap(), now);
    assert_eq!(fs::read_to_string(dir.join("u.txt.new")).unwrap(), "new\n");
    assert_eq!(
        fs::read_to_string(dir.join("t.txt")).unwrap(),
        "one\ntwo\nthree\n"
    );
    assert!(
        msg.contains("t.txt moved: 3 lines expected, 4 now"),
        "{msg}"
    );
    assert!(
        msg.contains("first difference at line 2:\n  expected: two\n  now:      2"),
        "{msg}"
    );
    // The expected text passes and clears the leftover.
    pin::check(&dir, &[("t", "one\ntwo\nthree")]);
    assert!(!dir.join("t.txt.new").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_missing_pin_fails_and_writes_no_expected_file() {
    let dir = fresh_dir("missing");
    let msg = panic_message(|| pin::check(&dir, &[("absent", "text")]));
    assert!(msg.contains("absent.txt is missing"), "{msg}");
    assert!(!dir.join("absent.txt").exists());
    assert_eq!(
        fs::read_to_string(dir.join("absent.txt.new")).unwrap(),
        "text\n"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pin_hash_is_fnv1a_64() {
    let mut h = pin::Fnv::default();
    h.bytes(b"a");
    assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
}
