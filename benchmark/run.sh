#!/usr/bin/env bash
# Builds the benchmark and runs it. Arguments go to the program:
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run of one workload
#   run.sh [--seed N] [--seconds S]        every workload, a fresh process each
#   run.sh --trace 1                       ... the traced runs (per-layer metrics)
#   run.sh --repeat                        the set twice, run A tabled against run B
#   run.sh --quick ...                     a one-second pass, not comparable
#
# The last line a single-workload run prints is its result as JSON.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Two benchmarks at once measure each other.
for comm in /proc/[0-9]*/comm; do
    if [ "$(cat "$comm" 2>/dev/null)" = rvm_benchmark ]; then
        echo "run.sh: another rvm_benchmark process is running (${comm%/comm})" >&2
        exit 3
    fi
done

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --locked --release --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

cores="$(nproc)"
export RVM_BENCH_OUT="$here/out"
export RVM_BENCH_SPEC="$here/../BENCHMARK.json"
RVM_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export RVM_BENCH_COMMIT
# T client threads: one per host core, at most 4.
exec "$target/release/rvm_benchmark" --threads "$((cores < 4 ? cores : 4))" "$@"
