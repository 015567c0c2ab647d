#!/usr/bin/env bash
# Determinism guard: no raw std HashMap in emission-driving modules.
#
# The cross-engine pins (tests/cross_engine.rs) promise bit-identical
# traces, stats, and result rows between the sequential Sim, the
# ShardedSim at any width, and scripted replays. HashMap's randomized
# iteration order is the classic way to silently break that promise:
# iterate one to decide what to send, and the emission order varies per
# process. This guard fails CI on any `HashMap` mention in the
# emission-driving source trees unless the file is explicitly listed in
# ci/determinism_allowlist.txt with a justification. The experiment
# harness is one of those trees: its committed artifacts are compared
# byte for byte (`git diff -- results/`), so a row order taken from a
# HashMap would fail the gate at random.
set -euo pipefail

cd "$(dirname "$0")/.."

ALLOWLIST=ci/determinism_allowlist.txt
TREES=(crates/core/src crates/dht/src crates/simnet/src crates/bench/src)

allowed() {
    local file=$1
    while IFS= read -r line; do
        line="${line%%#*}"
        line="$(echo "$line" | tr -d '[:space:]')"
        [ -z "$line" ] && continue
        [ "$line" = "$file" ] && return 0
    done <"$ALLOWLIST"
    return 1
}

status=0
while IFS= read -r file; do
    if ! allowed "$file"; then
        echo "determinism guard: $file uses HashMap but is not in $ALLOWLIST" >&2
        grep -n "HashMap" "$file" | head -5 >&2
        status=1
    fi
done < <(grep -rl "HashMap" "${TREES[@]}" --include='*.rs' | sort)

# Stale allowlist entries are noise that hides real hits: prune them.
while IFS= read -r line; do
    entry="${line%%#*}"
    entry="$(echo "$entry" | tr -d '[:space:]')"
    [ -z "$entry" ] && continue
    if [ ! -f "$entry" ] || ! grep -q "HashMap" "$entry"; then
        echo "determinism guard: stale allowlist entry $entry (no HashMap use)" >&2
        status=1
    fi
done <"$ALLOWLIST"

if [ "$status" -eq 0 ]; then
    echo "determinism guard: OK (only allowlisted files use HashMap)"
fi
exit "$status"
