#!/bin/sh
# Simulated behaviour is part of the result: a change that only makes
# the host faster must leave every workload's `sim_digest` — a digest
# of each query's simulated response time, event count, packets and
# wire bytes — exactly where it was. This runs the fvbench smoke set at
# seed 5 and diffs the four digests against the committed list. A change
# that *means* to move simulated behaviour updates
# scripts/sim-digests.seed5.txt in the same diff, and says why.
set -eu
cd "$(dirname "$0")/.."

want=scripts/sim-digests.seed5.txt
out=$(mktemp)
got=$(mktemp)
trap 'rm -f "$out" "$got"' EXIT

cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    run --smoke --seed 5 --out "$out" >/dev/null

# The result file is pretty-printed, one field per line; a workload's
# "name" precedes its "sim_digest".
sed -n \
    -e 's/^ *"name": "\([a-z_]*\)",\{0,1\}$/\1/p' \
    -e 's/^ *"sim_digest": "\([0-9a-f]*\)",\{0,1\}$/\1/p' "$out" |
    paste -d ' ' - - >"$got"

if ! diff -u "$want" "$got"; then
    echo "sim-identity: simulated behaviour moved (seed 5); if that is the point of the change, update $want" >&2
    exit 1
fi
echo "sim-identity: ok  $(wc -l <"$want" | tr -d ' ') workloads, digests equal"
