#!/bin/sh
# The benchmark contract, exercised the way the driver exercises it:
# the literal BENCHMARK.json command, one short pass per workload with
# tracing off and one with tracing on. Each pass must exit 0 and end
# its stdout with a single JSON object that says the results were
# correct and nothing failed — the line the driver parses. (`fvbench
# run --smoke` goes through `run`, which never prints that line.)
# An untraced pass (the one that reports `peak_rss_mib`) must also stay
# under 64 MiB: node memory is resident only where written and every
# workload peaks below 20 MiB, so more means someone allocates a node's
# capacity eagerly again.
set -eu
cd "$(dirname "$0")/.."

# The command below is BENCHMARK.json's; refuse to check a stale copy.
tr -d ' \n' <BENCHMARK.json | grep -qF \
    '"command":["cargo","run","--release","--quiet","--manifest-path","benchmark/Cargo.toml","--","bench"]' || {
    echo "bench-contract: BENCHMARK.json's command changed; update $0" >&2
    exit 1
}

# One JSON object with "correct":true and "failed":0 (not 0.5, not 07).
is_result_line() {
    case "$1" in
    '{'*'"correct":true'*'}') ;;
    *) return 1 ;;
    esac
    case "$1" in
    *'"failed":0,'* | *'"failed":0}'*) ;;
    *) return 1 ;;
    esac
}

# Whole MiB of the line's `peak_rss_mib`; empty if it has none.
peak_rss_mib() {
    rss=${1#*'"peak_rss_mib":{"value":'}
    printf '%s' "${rss%%[!0-9]*}"
}

for workload in scan_wire agg_batch serve_fleet tier_churn; do
    for trace in 0 1; do
        what="bench --workload $workload --seed 1 --seconds 2 --trace $trace"
        # shellcheck disable=SC2086 # $what is the argument list
        out=$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- $what) || {
            echo "bench-contract: '$what' exited non-zero" >&2
            exit 1
        }
        last=$(printf '%s\n' "$out" | tail -n 1)
        is_result_line "$last" || {
            echo "bench-contract: '$what' did not end in a correct, failure-free JSON line:" >&2
            printf '%s\n' "$last" | cut -c1-300 >&2
            exit 1
        }
        if [ "$trace" = 0 ]; then
            rss=$(peak_rss_mib "$last")
            [ "${rss:-64}" -lt 64 ] || {
                echo "bench-contract: '$what' peaked at ${rss:-?} MiB of RSS (limit 64)" >&2
                exit 1
            }
        fi
        echo "bench-contract: ok  $what"
    done
done
