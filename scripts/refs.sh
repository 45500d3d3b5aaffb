#!/bin/sh
# The docs name only what exists: every backticked `just <recipe>` must
# be a recipe in the justfile, and every backticked repo path (under
# crates/, scripts/, tests/, examples/, docs/ or src/) must exist.
#
#   sh scripts/refs.sh
#
# Scans README.md, docs/ARCHITECTURE.md, the verify skill and the `//!`
# doc comments of examples/*.rs. A code span may wrap across lines;
# fenced code blocks are not scanned, nor is a `<placeholder>` after
# `just`. A path is cut at its first character outside
# [A-Za-z0-9_./*-] (so `plan.rs:233` checks `plan.rs`), and a glob
# passes when it matches a file.
#
# Prints one line per dangling reference and exits non-zero if there is
# any.
set -eu
cd "$(dirname "$0")/.."

awk '
    # Recipe names: a line that starts with a name, then its parameters,
    # then a colon that is not the `:=` of an assignment.
    FILENAME == "justfile" {
        if (match($0, /^[A-Za-z_][A-Za-z0-9_-]*/) &&
            substr($0, RLENGTH + 1) ~ /^([ \t][^:]*)?:([^=]|$)/)
            recipes[substr($0, 1, RLENGTH)] = 1
        next
    }
    FNR == 1 { check(); doc = FILENAME; fenced = 0 }
    FILENAME ~ /\.rs$/ {
        if ($0 !~ /^\/\/!/) next
        sub(/^\/\/! ?/, "")
    }
    /^[ \t]*```/ { fenced = !fenced; next }
    !fenced { text = text " " $0 }
    END { check(); exit bad }

    function check(   n, spans, i, m, words, j, w) {
        n = split(text, spans, "`")
        for (i = 2; i <= n; i += 2) {
            m = split(spans[i], words, /[ \t]+/)
            for (j = 1; j <= m; j++) {
                w = words[j]
                if (w == "just" && j < m && words[j + 1] !~ /^</ && !(words[j + 1] in recipes)) {
                    printf "%s: `just %s` is not a recipe in the justfile\n", doc, words[j + 1]
                    bad = 1
                }
                if (w ~ /^(crates|scripts|tests|examples|docs|src)\//) {
                    sub(/[^A-Za-z0-9_.\/*-].*$/, "", w)
                    if (system("for f in " w "; do [ -e \"$f\" ] && exit 0; done; exit 1") != 0) {
                        printf "%s: `%s` does not exist\n", doc, w
                        bad = 1
                    }
                }
            }
        }
        text = ""
    }
' justfile README.md docs/ARCHITECTURE.md .claude/skills/verify/SKILL.md examples/*.rs
