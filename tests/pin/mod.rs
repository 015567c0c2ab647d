//! One way to pin a rendered surface: `pin!(name, text)` compares `text`
//! with `<crate>/tests/pins/<test file stem>/<name>.txt`, which holds the
//! text ending in one newline (added when the text has none).
//!
//! On a mismatch or a missing file it writes the text to `<name>.txt.new`
//! beside the expected file and panics, naming the file, both line counts
//! and the first line that differs. A test never writes an expected file:
//! `ci/retake_pins.sh` re-takes by moving every `.txt.new` over its
//! `.txt`, so a re-take is a reviewable `git diff -- '*tests/pins/*'`.
//!
//! `pin!(a, text_a; b, text_b)` checks several pins of one test and
//! fails once, after writing a `.txt.new` for each that moved, so one
//! re-take catches them all.
//!
//! Included by every test tree: `tests/*.rs` as `mod pin;`,
//! `crates/*/tests/*.rs` through `#[path = "../../../tests/pin/mod.rs"]`.
// Each test crate includes the whole module and uses a part of it.
#![allow(dead_code, unused_macros)]

use std::fs;
use std::path::{Path, PathBuf};

/// `pin!(name, text)`, or several `name, text` pairs separated by `;`.
macro_rules! pin {
    ($($name:expr, $text:expr);+ $(;)?) => {
        $crate::pin::check(
            &$crate::pin::dir(env!("CARGO_MANIFEST_DIR"), file!()),
            &[$(($name, &*$text)),+],
        )
    };
}

/// `<manifest>/tests/pins/<stem of the test file>`.
pub fn dir(manifest: &str, test_file: &str) -> PathBuf {
    let stem = Path::new(test_file)
        .file_stem()
        .expect("a test file has a name");
    Path::new(manifest).join("tests").join("pins").join(stem)
}

/// Compares each `(name, text)` with `dir/<name>.txt`; writes
/// `dir/<name>.txt.new` for each that differs or is missing, and removes
/// a stale one for each that matches. Panics once if any differed.
#[track_caller]
pub fn check(dir: &Path, pins: &[(&str, &str)]) {
    let mut failures = Vec::new();
    for &(name, text) in pins {
        let text = with_final_newline(text);
        let path = dir.join(format!("{name}.txt"));
        let new = dir.join(format!("{name}.txt.new"));
        let want = fs::read_to_string(&path).ok();
        if want.as_deref() == Some(text.as_str()) {
            let _ = fs::remove_file(&new);
            continue;
        }
        fs::create_dir_all(dir).expect("create the pins directory");
        fs::write(&new, &text).expect("write the .txt.new file");
        failures.push(match want {
            None => format!(
                "{} is missing; the text now reads {} lines\n  new text: {}",
                path.display(),
                text.lines().count(),
                new.display()
            ),
            Some(want) => format!(
                "{} moved: {} lines expected, {} now; {}\n  new text: {}",
                path.display(),
                want.lines().count(),
                text.lines().count(),
                first_difference(&want, &text),
                new.display()
            ),
        });
    }
    if !failures.is_empty() {
        panic!(
            "{}\n(ci/retake_pins.sh moves every .txt.new over its .txt)",
            failures.join("\n")
        );
    }
}

fn with_final_newline(text: &str) -> String {
    let mut text = text.to_string();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

/// The first line at which `want` and `now` differ, both sides shown.
fn first_difference(want: &str, now: &str) -> String {
    let (mut want, mut now) = (want.lines(), now.lines());
    for line in 1.. {
        match (want.next(), now.next()) {
            (Some(w), Some(n)) if w == n => continue,
            (None, None) => break,
            (w, n) => {
                return format!(
                    "first difference at line {line}:\n  expected: {}\n  now:      {}",
                    w.unwrap_or("<end of file>"),
                    n.unwrap_or("<end of text>")
                )
            }
        }
    }
    "the lines agree, the line endings do not".to_string()
}

/// FNV-1a 64 over bytes: stable across platforms and toolchains. A word
/// is hashed as its eight little-endian bytes.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
