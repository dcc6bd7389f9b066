#!/usr/bin/env bash
# The AddressSanitizer tier: the workspace's unit tests and the
# concurrency, superpage, fault-injection, oracle, backend-conformance
# and VM-semantics integration tests, built with ASan on the nightly
# toolchain (no rust-src needed: the standard library stays
# uninstrumented). LeakSanitizer runs with it, so a test that leaks
# fails here too; the last two suites drop every backend, the
# no-collapse ablation included, so a tree whose drop leaves nodes
# behind when its Refcache goes is reported there.
#
#   scripts/sanitize.sh [extra cargo test arguments]
#
# `--cfg rvm_asan` (set here and nowhere else) makes
# `rvm_sync::asan_poison` call into ASan, so memory a structure keeps for
# reuse instead of freeing (the radix tree's spare leaf arrays, the
# frame pool's free frames) is reported when touched while it waits.
# Takes about 40 s on a 2-vCPU host, build included.
#
# Every report is also written to target/asan/report.<pid> (appended to
# any ASAN_OPTIONS the caller set), so one that a test harness swallows
# is not lost; the script prints them all before it exits.
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS="-Zsanitizer=address --cfg rvm_asan"
rm -rf target/asan
mkdir -p target/asan
export ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}log_path=$PWD/target/asan/report"
status=0
cargo +nightly test --offline --target x86_64-unknown-linux-gnu \
    --workspace --lib --test concurrency --test superpage \
    --test fault_injection --test proptest_oracle \
    --test backend_conformance --test vm_semantics "$@" || status=$?
shopt -s nullglob
for report in target/asan/report.*; do
    echo "=== $report" >&2
    cat "$report" >&2
done
exit "$status"
