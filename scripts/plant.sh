#!/bin/sh
# Each mechanism listed in scripts/plants.txt is there for what one
# command checks. This plants each mechanism's removal, a single edit,
# and fails unless the command passes without the plant and fails with
# it.
#
#   sh scripts/plant.sh [REV]        (default HEAD)
#
# REV's files are exported with `git archive` into a temporary
# directory, so nothing in this checkout is touched, and the registry is
# read from that export, so the plants always match the code they edit.
# Everything builds there into target/plants (kept between invocations
# so a rebuild is incremental), one rebuild per plant. To check the
# working tree: `git add -A && sh scripts/plant.sh "$(git stash create)"`.
#
# Exits non-zero if a command fails with no plant, if a plant's text as
# written does not appear exactly once in its file, or if a plant passes
# its command or does not build.
set -eu
cd "$(dirname "$0")/.."

rev=${1:-HEAD}
target="$(pwd)/target/plants"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/tree" "$tmp/clean"
git archive "$rev" | tar -x -C "$tmp/tree"
registry="$tmp/registry"
grep -v -e '^#' -e '^$' "$tmp/tree/scripts/plants.txt" >"$registry" || true
tab=$(printf '\t')

# Exit status of command $1 run at the root of the exported tree; its
# output is left in $tmp/log.
run() {
    (cd "$tmp/tree" && CARGO_TARGET_DIR="$target" sh -c "$1" >"$tmp/log" 2>&1 </dev/null)
}

echo "plants: $rev, $(wc -l <"$registry" | tr -d ' ') plants"

# Keep a clean copy of every file a plant edits, and check that every
# command passes with no plant.
cut -f2 "$registry" | sort -u | while IFS= read -r file; do
    mkdir -p "$tmp/clean/$(dirname "$file")"
    cp "$tmp/tree/$file" "$tmp/clean/$file"
done
cut -f5 "$registry" | sort -u | while IFS= read -r cmd; do
    if ! run "$cmd"; then
        echo "plants: fails with no plant: $cmd" >&2
        cat "$tmp/log" >&2
        exit 1
    fi
done

failed=0
caught=0
while IFS="$tab" read -r name file from to cmd; do
    count=$(FROM="$from" awk '{
        s = $0
        while ((i = index(s, ENVIRON["FROM"])) > 0) { n++; s = substr(s, i + length(ENVIRON["FROM"])) }
    } END { print n + 0 }' "$tmp/clean/$file")
    if [ "$count" != 1 ]; then
        verdict="its text as written appears $count times in $file"
        failed=1
    else
        FROM="$from" TO="$to" awk '{
            i = index($0, ENVIRON["FROM"])
            if (i) $0 = substr($0, 1, i - 1) ENVIRON["TO"] substr($0, i + length(ENVIRON["FROM"]))
            print
        }' "$tmp/clean/$file" >"$tmp/tree/$file"
        if run "$cmd"; then
            verdict="PASSED under the plant: the mechanism is not needed"
            failed=1
        elif grep -q 'could not compile' "$tmp/log"; then
            verdict="does not build under the plant"
            failed=1
        else
            verdict="fails under the plant"
            caught=$((caught + 1))
        fi
        cp "$tmp/clean/$file" "$tmp/tree/$file"
    fi
    printf '%-18s %-22s %s\n' "$name" "$(basename "$file")" "$verdict"
done <"$registry"

echo "plants: $caught of $(wc -l <"$registry" | tr -d ' ') caught"
exit "$failed"
