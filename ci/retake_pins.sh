#!/usr/bin/env bash
# Re-take every pin: run the whole suite, then move each `.txt.new` a
# failing `pin!` wrote over its `.txt` (tests/pin/mod.rs). There is no
# switch that makes a test write an expected file; this move is the
# re-take, and `git diff -- '*tests/pins/*'` is what it changed.
#
# Run it only for a change that moves a pinned surface on purpose, and
# read the diff before committing it. Tests that fail for any other
# reason still fail afterwards; the script prints the pins it moved and
# the suite's result, and exits non-zero if the suite failed.
set -uo pipefail

cd "$(dirname "$0")/.."

# Every `.txt.new` under a test tree's `pins/`, NUL-separated.
new_files() {
    find tests crates/*/tests -path '*tests/pins/*' -name '*.txt.new' -print0
}

# A `.txt.new` left by an earlier run is not this run's text.
new_files | xargs -0 rm -f

cargo test -q --no-fail-fast
suite=$?

moved=0
while IFS= read -r -d '' new; do
    mv "$new" "${new%.new}"
    moved=$((moved + 1))
done < <(new_files)

echo "retake: moved $moved .txt.new file(s) over their .txt" >&2
git status --short -- '*tests/pins/*'
if [ "$suite" -ne 0 ]; then
    echo "retake: the suite failed; run it again to see what a re-take does not fix" >&2
fi
exit "$suite"
