#!/bin/sh
# Each mechanism of the serving front end (crates/core/src/serve.rs) is
# there for the guarantee one test names. This plants each mechanism's
# removal — one line changed — and fails unless the mechanism's test
# passes without the plant and fails with it.
#
#   sh scripts/plant-serve.sh [REV]        (default HEAD)
#
# REV's files are exported with `git archive` into a temporary
# directory, so nothing in this checkout is touched; the plants are
# built there, one at a time, into target/plant-serve (kept between
# invocations so a rebuild is incremental). One rebuild per plant: a
# few minutes in all, which is why CI does not run it.
set -eu
cd "$(dirname "$0")/.."

rev=${1:-HEAD}
file=crates/core/src/serve.rs
target="$(pwd)/target/plant-serve"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
git archive "$rev" | tar -x -C "$tmp"
cp "$tmp/$file" "$tmp/serve.rs.clean"

# mechanism|test named for its guarantee|text as written|text planted
plants='token bucket|an_uncontended_over_demander_completes_at_most_its_bucket_allowance|if f.tokens < 1.0 {|if false {
shed|a_gold_arrival_at_a_full_queue_is_admitted_while_bronze_is_above_its_floor|>= self.config.queue_capacity && !self.shed_for(class) {|>= self.config.queue_capacity {
shed floor|no_class_is_locked_out_by_higher_class_pressure|(self.config.queue_capacity / 8).max(1)|0
retry_after|a_rejected_query_waits_for_the_drain_instead_of_spending_its_retries|self.now + retry_after,|self.now,
deadline drop|no_query_is_dispatched_after_its_deadline|if self.now >= job.deadline {|if false {
weighted DRR|backlogged_tenants_complete_in_proportion_to_their_weights|share(f.stats.weight).max(floor)|quantum'

# Exit status of the one named serve test in the exported tree.
run_test() {
    (cd "$tmp" && CARGO_TARGET_DIR="$target" \
        cargo test -q -p farview-core --lib -- --exact "serve::tests::$1" >"$tmp/log" 2>&1)
}

tests=$(printf '%s\n' "$plants" | cut -d'|' -f2)
echo "plant-serve: $rev, $(printf '%s\n' "$tests" | wc -l | tr -d ' ') mechanisms"
for t in $tests; do
    if ! run_test "$t"; then
        echo "plant-serve: $t fails with no plant:" >&2
        cat "$tmp/log" >&2
        exit 1
    fi
done

failed=0
printf '%s\n' "$plants" | {
    while IFS='|' read -r mechanism test from to; do
        cp "$tmp/serve.rs.clean" "$tmp/$file"
        n=$(grep -cF -- "$from" "$tmp/$file" || true)
        if [ "$n" != 1 ]; then
            echo "plant-serve: $mechanism: '$from' appears $n times in $file" >&2
            failed=1
            continue
        fi
        awk -v from="$from" -v to="$to" '{
            i = index($0, from)
            if (i) $0 = substr($0, 1, i - 1) to substr($0, i + length(from))
            print
        }' "$tmp/serve.rs.clean" >"$tmp/$file"
        if run_test "$test"; then
            verdict="PASSED under the plant: the mechanism is not needed"
            failed=1
        elif grep -q '^test result: FAILED' "$tmp/log"; then
            verdict="fails under the plant"
        else
            verdict="does not build under the plant"
            failed=1
        fi
        printf '%-14s %-76s %s\n' "$mechanism" "$test" "$verdict"
    done
    cp "$tmp/serve.rs.clean" "$tmp/$file"
    exit "$failed"
}
