#!/bin/sh
# Alternating A/B pairs of the benchmark: the base commit against the
# checkout, on one workload.
#
#   sh scripts/ab-pairs.sh WORKLOAD [PAIRS] [SECONDS]     (default 10 pairs of 20 s)
#
# The base is HEAD when the tracked files have uncommitted changes (the
# change is the working tree's tracked files, taken as an unreferenced
# `git stash create` commit), else HEAD^ (the change is HEAD). Both
# sides are built and run the same way: each side's files are exported
# with `git archive` into a temporary directory — no file in this
# checkout and no ref in its .git is touched — and its fvbench is built
# there, into target/ab-base or target/ab-change (kept between
# invocations so a rebuild is incremental).
#
# Every run, on either side, is the literal BENCHMARK.json command,
# untraced, from the root of that side's export:
#   cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
#       bench --workload W --seed N --seconds S --trace 0
# Pair i runs both sides on seed N = T+i, where T is the clock at start,
# so every invocation uses fresh seeds; each pair prints its seed, which
# is all a replay of it with the command above needs. The side that goes
# first alternates from pair to pair.
#
# Prints each pair's end-to-end metrics and whether its simulated
# metrics (the `sim_*` ones) are identical on both sides — the two runs
# share a seed, so a host-speed change must leave them equal — then per
# metric each side's median and quartiles, how many pairs the change
# won, whether the medians are further apart than the base's
# inter-quartile distance, and whether the change's median is within
# the metric's no-regression bound. Each metric's direction (`better`)
# and bound come from BENCHMARK.json's `end_to_end` list, read with jq
# (never written).
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || {
    echo "usage: $0 WORKLOAD [PAIRS] [SECONDS]" >&2
    exit 2
}
workload=$1
pairs=${2:-10}
seconds=${3:-20}

# The command below is BENCHMARK.json's; refuse to time a stale copy.
tr -d ' \n' <BENCHMARK.json | grep -qF \
    '"command":["cargo","run","--release","--quiet","--manifest-path","benchmark/Cargo.toml","--","bench"]' || {
    echo "ab-pairs: BENCHMARK.json's command changed; update $0" >&2
    exit 1
}

command -v jq >/dev/null || {
    echo "ab-pairs: needs jq to read BENCHMARK.json" >&2
    exit 1
}
# "name:better:bound" per end-to-end metric, space-separated.
bounds=$(jq -r '[.end_to_end[] | "\(.name):\(.better):\(.bound)"] | join(" ")' BENCHMARK.json)
metrics=$(printf '%s\n' "$bounds" | tr ' ' '\n' | cut -d: -f1 | tr '\n' ' ')
sim_metrics=$(printf '%s\n' $metrics | grep '^sim_' | tr '\n' ' ')

if git diff --quiet HEAD --; then
    base=HEAD^
    change=HEAD
    change_name="HEAD"
else
    base=HEAD
    change=$(git stash create)
    change_name="the working tree"
fi
base_rev=$(git rev-parse --short "$base")
seed0=$(date +%s)
targets="$(pwd)/target"

# Building fvbench rewrites its benchmark/Cargo.lock, which still lists
# shim crates the workspace dropped. Both sides build in their exports,
# and the checkout's lock is still copied aside and put back on exit, so
# a run leaves the checkout as it found it.
tmp=$(mktemp -d)
cp benchmark/Cargo.lock "$tmp/Cargo.lock"
trap 'cp "$tmp/Cargo.lock" benchmark/Cargo.lock; rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base" "$tmp/change"
git archive "$base" | tar -x -C "$tmp/base"
git archive "$change" | tar -x -C "$tmp/change"

echo "ab-pairs: $workload, $pairs pairs of ${seconds} s, seeds $seed0+i; base $base ($base_rev) vs $change_name"
echo "ab-pairs: building both sides' fvbench"
for side in base change; do
    (cd "$tmp/$side" && CARGO_TARGET_DIR="$targets/ab-$side" \
        cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
done

# One run of side $1 ("base" or "change") on seed $2: its metrics on
# one line, "side seed name=value ...", appended to $tmp/runs.
run() {
    last=$(cd "$tmp/$1" && CARGO_TARGET_DIR="$targets/ab-$1" \
        cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        bench --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
    case "$last" in
    *'"correct":true'*'"failed":0'*) ;;
    *)
        echo "ab-pairs: $1 on seed $2 was not correct and failure-free:" >&2
        printf '%s\n' "$last" | cut -c1-300 >&2
        exit 1
        ;;
    esac
    line="$1 $2"
    for m in $metrics; do
        v=$(printf '%s\n' "$last" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
        line="$line $m=${v:-nan}"
    done
    echo "$line" >>"$tmp/runs"
    echo "  $line"
}

# "yes" when both sides of the pair on seed $1 report the same value for
# every simulated metric, else "no" and the metrics that differ.
sim_identical() {
    awk -v seed="$1" -v names="$sim_metrics" '
    $2 == seed { for (f = 3; f <= NF; f++) { split($f, kv, "="); v[$1, kv[1]] = kv[2] } }
    END {
        n = split(names, m, " ")
        for (k = 1; k <= n; k++)
            if (v["base", m[k]] != v["change", m[k]] || v["base", m[k]] == "nan") differ = differ " " m[k]
        print (differ == "" ? "yes" : "no (" substr(differ, 2) ")")
    }' "$tmp/runs"
}

i=1
sim_moved=0
while [ "$i" -le "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 1 ]; then
        first=base second=change
    else
        first=change second=base
    fi
    echo "pair $i (seed $seed, $first first)"
    run "$first" "$seed"
    run "$second" "$seed"
    verdict=$(sim_identical "$seed")
    echo "  sim identical: $verdict"
    case "$verdict" in yes) ;; *) sim_moved=$((sim_moved + 1)) ;; esac
    i=$((i + 1))
done

# Per metric: both sides' median [q1, q3] (linear interpolation), the
# pairs the change won and tied, whether the medians clear the base's
# IQR, and whether the change's median is worse than the base's by no
# more than the metric's bound.
awk -v bounds="$bounds" '
function quantile(a, n, p,    pos, lo) {
    pos = (n - 1) * p
    lo = int(pos)
    return lo + 1 < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[lo]
}
function sorted(src, n, dst,    i, j, t) {
    for (i = 0; i < n; i++) dst[i] = src[i]
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && dst[j - 1] > dst[j]; j--) {
            t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
        }
}
{
    side = $1; seed = $2
    for (f = 3; f <= NF; f++) {
        split($f, kv, "=")
        val[side, seed, kv[1]] = kv[2] + 0
    }
    if (side == "base") seeds[nseeds++] = seed
}
END {
    nm = split(bounds, specs, " ")
    printf "%-22s %-34s %-34s %-9s %-16s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "won/tied", "gap > base IQR", "bound verdict"
    for (k = 1; k <= nm; k++) {
        split(specs[k], spec, ":")
        m = spec[1]; higher = (spec[2] == "higher"); bound = spec[3] + 0
        n = 0; wins = 0; ties = 0
        for (s = 0; s < nseeds; s++) {
            b[n] = val["base", seeds[s], m]; c[n] = val["change", seeds[s], m]
            if (higher ? c[n] > b[n] : c[n] < b[n]) wins++
            if (c[n] == b[n]) ties++
            n++
        }
        sorted(b, n, bs); sorted(c, n, cs)
        bm = quantile(bs, n, 0.5); cm = quantile(cs, n, 0.5)
        iqr = quantile(bs, n, 0.75) - quantile(bs, n, 0.25)
        gap = cm - bm; if (gap < 0) gap = -gap
        change = (bm != 0 ? (cm - bm) / bm : 0)
        worse = (higher ? -change : change)
        printf "%-22s %10.4g [%10.4g, %10.4g] %10.4g [%10.4g, %10.4g] %2d/%2d/%-2d %-3s (%+6.1f%%)   %s %g%%\n", m,
            bm, quantile(bs, n, 0.25), quantile(bs, n, 0.75),
            cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75),
            wins, ties, n, (gap > iqr ? "yes" : "no"), 100 * change,
            (worse > bound ? "OUT of bound" : "within bound"), 100 * bound
    }
}' "$tmp/runs"
if [ "$sim_moved" -eq 0 ]; then
    echo "sim identical: yes, on all $pairs pairs (${sim_metrics% })"
else
    echo "sim identical: no, $sim_moved of $pairs pairs differ in a sim_* metric"
fi
