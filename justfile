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

# Lint gate: warnings are errors.
clippy:
    cargo clippy --workspace -- -D warnings --force-warn clippy::unwrap_used --force-warn clippy::expect_used

# Static analysis gate: the panic-freedom ratchet against
# analyze/baseline.toml, the typed-error audit, and the IR verifier
# smoke corpus. Improvements auto-tighten the baseline (commit it).
analyze:
    cargo run -q --release -p fv-analyze --bin fv-analyze

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

# The fleet scatter seam (ordered join, panic containment, the size
# gate) uncontended, then with the other test threads competing for the
# host's CPUs.
scatter:
    RUST_TEST_THREADS=1 cargo test -q -p farview-core scatter
    cargo test -q -p farview-core scatter

# The packet seam on its own: `Bytes` views must outlive nothing but
# their `Arc`, packets cut from one drain share it, reassembly keeps
# every protocol check on its in-order fast path.
packet-seam:
    cargo test -q -p fv-net -p bytes

# The two operator kernels against the references they replaced: the
# AES round tables against the byte-wise FIPS-197 rounds (NIST vectors,
# random blocks, CTR strides across every counter carry), the byte-class
# DFA against the per-byte subset construction (table for table over
# the pattern corpus, `TooComplex` at the same limit).
kernels:
    cargo test -q -p fv-crypto -p fv-regex

# Everything CI runs.
ci: verify scatter packet-seam kernels doc fmt-check clippy analyze bench-check

# Reproduce every table/figure of the paper plus the scale-out sweep.
figures:
    cargo run -q --release -p fv-bench --bin figures all

# Every custom experiment (scaleout/qdepth/plan_ablation/elasticity/
# hotpath/chaos) at its smallest config — the CI gate that keeps the
# harness from rotting.
bench-smoke:
    cargo run -q --release -p fv-bench --bin figures smoke

# Wall-clock microbench of the host hot path: vectorized block datapath
# vs the per-tuple reference, the size-gated fleet scatter vs its serial
# reference (64 KiB and 4 MiB tables), the replica-dedup win over the
# seed model, the whole-query result path (µs per `far_view` of a
# 1 MiB table and per response packet), and the operator kernels
# (AES-CTR ns/B, regex-spec compile µs, whole `decrypt → group_by` and
# `regex10` queries). Rewrites BENCH_PR8.json; refuses on a 1-CPU host.
# The two variables are the env-var form of the `mallopt` pin fvbench
# applies (benchmark/README.md, "Allocator pinned"): unpinned, glibc
# settles at random into recycling MiB-sized buffers on the heap or
# mmapping each one, and the same binary reads 1.07 or 1.63 ms per
# `read`.
bench-hotpath:
    MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=4294967295 cargo run -q --release -p fv-bench --bin figures hotpath

# Tail latency per fault class under deterministic fault injection.
# Rewrites BENCH_PR6.json.
bench-chaos:
    cargo run -q --release -p fv-bench --bin figures chaos

# Graceful degradation past saturation: the multi-tenant serving sweep
# (admission control, weighted DRR, shed ladder, bounded retry).
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
