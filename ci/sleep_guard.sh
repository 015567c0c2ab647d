#!/usr/bin/env bash
# Sleep guard: `thread::sleep` only inside the engine crate, and there
# only in `Deployment::settle` and in unit tests.
#
# Harness code waits for a deployment through `Deployment::settle` —
# virtual time on `Sim`, the one wall-clock wait on `Cluster` — so the
# same test body runs on every backend and no test hand-rolls a
# sleep-and-poll loop. The wait itself and the engine's unit tests live
# under crates/simnet/src/; a `sleep(` anywhere else in the Rust
# sources fails CI. Inside the crate the `Cluster`'s workers wait in
# `recv_timeout`, never in a sleep-and-poll, so the one `sleep(` above
# the test modules is `settle`'s own.
set -euo pipefail

cd "$(dirname "$0")/.."

hits=$(grep -rn 'sleep(' --include='*.rs' crates src tests examples |
    grep -v '^crates/simnet/src/' || true)

if [ -n "$hits" ]; then
    echo "sleep guard: sleep( outside crates/simnet/src/ — use Deployment::settle" >&2
    echo "$hits" >&2
    exit 1
fi
engine=$(for f in crates/simnet/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /sleep\(/ { print f ":" FNR ":" $0 }' "$f"
done)

if [ "$(echo "$engine" | grep -c .)" -ne 1 ] || [[ "$engine" != crates/simnet/src/deployment.rs:* ]]; then
    echo "sleep guard: the only non-test sleep( under crates/simnet/src/ is Deployment::settle's" >&2
    echo "$engine" >&2
    exit 1
fi
echo "sleep guard: OK (no sleep( outside crates/simnet/src/; inside, only Deployment::settle's)"
