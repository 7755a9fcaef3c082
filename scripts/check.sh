#!/usr/bin/env bash
# Full local gate, identical to CI: release build, tests, clippy.
# The dependency graph is path-only, so everything here runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy perf lints (enforcing for the compile pipeline and optimizer crates)"
cargo clippy -p tbaa-ir -p tbaa-incr -p tbaa-opt --all-targets -- -D warnings -D clippy::perf

echo "== rustfmt (enforcing for the compile pipeline and optimizer crates)"
cargo fmt -p tbaa-ir -p tbaa-incr -p tbaa-opt -- --check

echo "== cargo clippy perf lints (advisory elsewhere: reported, never fails the gate)"
cargo clippy --workspace --all-targets -- -W clippy::perf || true

echo "== bench targets compile (feature bench-deps)"
cargo build --release -p tbaa-bench --benches --features bench-deps

echo "== benchmark package builds and passes its tests (perfbench/, own lockfile)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== tbaad server smoke test"
scripts/server_smoke.sh

echo "== alias-query bench smoke (engines agree, harness runs)"
scripts/bench_alias.sh --smoke --out target/bench_alias_smoke.json

echo "== cold-compile bench smoke (parallel lowering byte-identical, alloc gate)"
scripts/compile_smoke.sh --smoke --out target/bench_compile_smoke.json

echo "== loadgen smoke (chaos on, differential gates)"
scripts/load_smoke.sh

echo "== router smoke (2 shards, backend kill, differential gates)"
scripts/router_smoke.sh

echo "== incremental smoke (mutate workload, reuse + differential gates)"
scripts/incr_smoke.sh

echo "== census smoke (pairs verb == paper-tables table5, dense kernel)"
scripts/census_smoke.sh

echo "== journal smoke (kill -9, restart, byte-identical recovery)"
scripts/journal_smoke.sh

echo "All checks passed."
