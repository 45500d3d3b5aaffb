# Local mirror of .github/workflows/ci.yml (the build environment has no
# CI runner; `just ci` is the full gate, `just verify` the tier-1 check).

# Tier-1 verification: what the project gates on.
verify:
    cargo build --release
    cargo test -q

# Rustdoc with warnings denied.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Formatting gate.
fmt-check:
    cargo fmt --check

# Lint gate: warnings are errors. This is also the panic gate: the
# datapath crates deny every panic-style lint ([workspace.lints] in
# Cargo.toml) except at sites held under a reasoned `#[expect]`.
clippy:
    cargo clippy --workspace -- -D warnings

# The repo's benchmark (fvbench, `benchmark/`): the BENCHMARK.json
# command; the driver appends one workload's arguments, e.g.
# `just bench --workload scan_wire --seed 1 --seconds 20 --trace 0`.
bench *ARGS:
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- bench {{ARGS}}

# `benchmark/` is a detached workspace on the `farview` facade, so an
# API break only surfaces here: build + unit-test it, then smoke-run
# every workload with tracing on.
bench-check:
    cargo test --manifest-path benchmark/Cargo.toml
    cargo run --release --manifest-path benchmark/Cargo.toml -- run --smoke --trace

# What the driver actually runs: the literal BENCHMARK.json command,
# every workload for 2 s with tracing off and on; each pass must exit 0
# and end its stdout with one JSON object carrying `"correct":true` and
# `"failed":0`.
bench-contract:
    sh scripts/bench-contract.sh

# Alternating A/B pairs of one workload — the base commit against the
# change, each side exported with `git archive`, built in its own target
# directory and run by the literal BENCHMARK.json command on fresh
# seeds — with each side's median and quartiles and the change's win
# count. The base is HEAD and the change the working tree's tracked
# files when they have uncommitted changes, else HEAD^ and HEAD.
ab-pairs WORKLOAD PAIRS="10" SECONDS="20":
    sh scripts/ab-pairs.sh {{WORKLOAD}} {{PAIRS}} {{SECONDS}}

# Simulated behaviour did not move: the fvbench smoke set at seed 5
# must reproduce the four `sim_digest`s in scripts/sim-digests.seed5.txt
# (a change that means to move them updates that file in the same diff).
sim-identity:
    sh scripts/sim-identity.sh

# Each registered mechanism earns its place (scripts/plants.txt): plant
# its one-edit removal in an exported copy of HEAD and fail unless the
# command named for it fails under the plant and passes without it.
plants:
    sh scripts/plant.sh

# The docs name only what exists: every backticked `just <recipe>` in
# README.md, docs/ARCHITECTURE.md, the verify skill and the examples'
# doc comments is a recipe here, and every backticked repo path exists.
refs:
    sh scripts/refs.sh

# Every example in release mode. Each one asserts its own claims, so a
# non-zero exit from any of them fails the recipe.
examples:
    for e in examples/*.rs; do cargo run -q --release --example "$(basename "$e" .rs)" || exit 1; done

# Everything CI runs, job for job (.github/workflows/ci.yml).
ci: verify examples doc refs fmt-check clippy bench-smoke bench-check bench-contract sim-identity chaos plants

# Reproduce every table/figure of the paper plus the scale-out sweep.
figures:
    cargo run -q --release -p fv-bench --bin figures all

# Every custom experiment (scaleout/qdepth/plan_ablation/elasticity/
# chaos/overload) at its smallest config — the CI gate that keeps the
# harness from rotting — then the chaos and overload sweeps at full
# size, which must rewrite the committed BENCH_PR6.json and
# BENCH_PR10.json byte for byte.
bench-smoke:
    cargo run -q --release -p fv-bench --bin figures smoke
    cargo run -q --release -p fv-bench --bin figures chaos
    cargo run -q --release -p fv-bench --bin figures overload
    git diff --exit-code BENCH_PR6.json BENCH_PR10.json

# Tail latency per fault class under deterministic fault injection.
# Rewrites BENCH_PR6.json.
bench-chaos:
    cargo run -q --release -p fv-bench --bin figures chaos

# Graceful degradation past saturation: the multi-tenant serving sweep
# (token buckets, weighted DRR, shedding, bounded retry).
# Rewrites BENCH_PR10.json.
bench-overload:
    cargo run -q --release -p fv-bench --bin figures overload

# The chaos suite over its fixed seed matrix (64 composed schedules +
# every fault-class property), then one randomized seed — printed so a
# failure can be replayed with `CHAOS_SEED=<n> just chaos`.
chaos:
    cargo test -q --test chaos_props --test topology_props
    seed=${CHAOS_SEED:-$(date +%s)}; echo "randomized CHAOS_SEED=$seed"; CHAOS_SEED=$seed cargo test -q --test chaos_props chaos_scenario_replays_at_env_seed

# Dump optimizer explain() output for the standard figure queries.
explain:
    cargo run -q --release -p fv-bench --bin figures explain
