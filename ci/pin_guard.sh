#!/usr/bin/env bash
# Pin guard: every expected file is read by a test, and no re-take
# leftover is committed.
#
# A pin's expected text is `<crate>/tests/pins/<stem>/<name>.txt`, read
# by `pin!("<name>", ...)` in `<crate>/tests/<stem>.rs`
# (tests/pin/mod.rs). A file no test names would stay green whatever
# it says, so a `.txt` whose test file does not name `"<name>"` fails
# here; delete it, or name it. A failing `pin!` writes `<name>.txt.new`
# beside the expected file; `ci/retake_pins.sh` moves it over the `.txt`,
# and git must never track one.
set -euo pipefail

cd "$(dirname "$0")/.."

status=0

orphans=""
while IFS= read -r txt; do
    if [[ $txt =~ ^(.*tests)/pins/([^/]+)/([^/]+)\.txt$ ]]; then
        src="${BASH_REMATCH[1]}/${BASH_REMATCH[2]}.rs"
        name="${BASH_REMATCH[3]}"
        if [ -f "$src" ] && grep -qF "\"$name\"" "$src"; then
            continue
        fi
    fi
    orphans+="$txt"$'\n'
done < <(find tests crates/*/tests -path '*tests/pins/*' -name '*.txt' | sort)

if [ -n "$orphans" ]; then
    echo "pin guard: expected files no test names — each tests/pins/<stem>/<name>.txt is read by pin!(\"<name>\", ...) in tests/<stem>.rs of its crate" >&2
    echo -n "$orphans" >&2
    status=1
fi

tracked=$(git ls-files -- '*.txt.new')
if [ -n "$tracked" ]; then
    echo "pin guard: git tracks a .txt.new — move it over its .txt with ci/retake_pins.sh, or unstage it" >&2
    echo "$tracked" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "pin guard: OK ($(find tests crates/*/tests -path '*tests/pins/*' -name '*.txt' | wc -l) expected files, each named by its test; no .txt.new tracked)"
fi
exit "$status"
