#!/usr/bin/env bash
# Builds tbaad, tbaac and the benchmark client from source, then runs one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result object.
#
# The client and every server it spawns are pinned to the host's last
# CPU. On a small virtual machine a wakeup that crosses CPUs costs
# whatever the host is doing with the other CPU at that moment, which
# moved latencies by a fifth to a half from run to run; on one CPU every
# request is two same-CPU context switches.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p tbaa-server --bin tbaad -p tbaa-repro --bin tbaac >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cpus=$(nproc --all)
cpu=$((cpus - 1))
exec taskset -c "$cpu" "$CARGO_TARGET_DIR/release/perfbench" \
    --bin-dir "$CARGO_TARGET_DIR/release" --pinned "cpu $cpu of $cpus" "$@"
