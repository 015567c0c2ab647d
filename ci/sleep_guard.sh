#!/usr/bin/env bash
# Sleep guard: `thread::sleep` only inside the engine crate.
#
# Harness code waits for a deployment through `Deployment::settle` —
# virtual time on `Sim`, the one wall-clock wait on `Cluster` — so the
# same test body runs on every backend and no test hand-rolls a
# sleep-and-poll loop. The wait itself, the actor runtime, and their
# unit tests live under crates/simnet/src/; a `sleep(` anywhere else in
# the Rust sources fails CI.
set -euo pipefail

cd "$(dirname "$0")/.."

hits=$(grep -rn 'sleep(' --include='*.rs' crates src tests examples |
    grep -v '^crates/simnet/src/' || true)

if [ -n "$hits" ]; then
    echo "sleep guard: sleep( outside crates/simnet/src/ — use Deployment::settle" >&2
    echo "$hits" >&2
    exit 1
fi
echo "sleep guard: OK (no sleep( outside crates/simnet/src/)"
