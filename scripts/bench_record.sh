#!/usr/bin/env bash
# Regenerates the checked-in perf records so successive PRs have a
# trajectory to compare against:
#
#   BENCH_fastpath.json — single-core fault fast path: virtual-time cost
#     of repeated same-block single-page faults (leaf hints on vs off),
#     hint hit rate, and a wall-clock 1-core fault-fill loop.
#   BENCH_scale.json    — multicore disjoint-ops sweep (Fig. 5 local): ops/sec
#     and per-core retention for every backend on 1..16 simulated cores,
#     remote cache-line transfers and shootdown IPIs per op; the
#     contended-range sweep (persistent shared mapping, periodic remap,
#     real shootdown IPIs); the overlap-degree sweep (multi-page ops
#     colliding with probability 0/10/50/100% on both the list-based
#     range-lock substrate and the slotspin baseline); plus the
#     scaling/contended/overlap gate verdicts (bench_scale exits
#     non-zero on regression).
#   BENCH_huge.json     — huge-mapping (superpage) populate: faults,
#     superpage installs/demotions/promotions, index and page-table
#     bytes for every backend with and without the huge hint
#     (hint-ignoring backends get one 4 KiB row); the
#     demote-then-converge promotion gate (every block re-folds, probe
#     faults and index bytes within 1.25x of never-demoted); the
#     16-core span-shootdown sweep (span vs per-page IPI pricing by
#     sharer count); plus the gate verdicts (≥ 8x fewer faults,
#     strictly smaller index; bench_huge exits non-zero if any gate
#     regresses).
#   BENCH_refcount.json — frame-table ownership: cold + warm fault
#     loops with zero Refcache-object heap allocations, frame-table
#     cell activation/release balance, and remote-line transfers by
#     category (frame-table vs anonymous heap); bench_refcount exits
#     non-zero on regression.
#   BENCH_numa.json     — NUMA placement sweep: disjoint / contended /
#     index-churn workloads on 1/2/4-node machines (cores striped
#     across nodes, nodes on a line) under
#     first-touch, interleave, and replicate-read-only placement, with
#     every cache-line transfer priced by hop distance; records per-label
#     per-node-pair cross-socket attribution, on-node vs cross-node frees
#     and fault frames, plus the placement gate verdict (bench_numa exits
#     non-zero on regression).
#   BENCH_pressure.json — memory pressure: the OOM-tolerant local cycle
#     on a frame-capped two-node machine at 0/50/90% pre-fill
#     utilization (throughput, stalls, pressure-tier drains/steals),
#     the fragmentation point (huge-hinted populate degrading to
#     scattered 4 KiB pages under squeezed headroom), plus the pressure
#     gate verdict (bench_pressure exits non-zero on regression).
#
# Run from the repository root; commit the refreshed files.
#
# `--check` regenerates nothing: it re-runs all six records and holds
# each against the checked-in file. The simulator is deterministic, so a
# refactor that claims to preserve behaviour must reproduce them.
#
# By value — fastpath, huge, refcount, pressure, whose simulator runs
# have stable line ids: every field must be equal, except that
#   - virtual-time fields (VIRT_FIELDS: times, rates, and the pressure
#     gate's ratio of two rates) may move by VIRT_TOL: they jitter by a
#     few ppm from one build to the next with where the heap lands,
#     because the simulator keys cache lines by address;
#   - SKIP_FIELDS are not compared: host wall-clock numbers, and the
#     count of remote transfers on anonymous *heap* lines, which depends
#     on the same heap layout (labelled lines — frame table, radix
#     nodes — are compared exactly).
#
# By shape — scale and numa, a third of whose scalars move from run to
# run with the heap layout, so their values wait for layout-independent
# line ids (ROADMAP's simulator item): the sorted key paths of every
# scalar must be the same, which catches a renamed, dropped, re-nested
# or re-typed field and a sweep of another length. numa's
# `points[].attribution[]` is left out: one entry per label that saw
# cross-node traffic, so its length follows the heap layout too.
set -euo pipefail
cd "$(dirname "$0")/.."

VIRT_FIELDS='["virt_ns", "pages_per_sec", "ops_per_sec", "pressured_over_baseline"]'
VIRT_TOL=0.001
SKIP_FIELDS='[
  "real_fault_fill_loop_1core.ops_per_sec",
  "real_fault_fill_loop_1core.ns_per_op",
  "remote_transfers_by_category.heap"
]'

# The simulator keys cache lines by address, so where the kernel puts the
# heap moves virtual time: with address-space randomization, one
# bench_pressure run in five departs from the others (by up to 0.2 % in
# one ops_per_sec, 40 runs); without it every run of one binary prints
# the same bytes, scale and numa included. So both modes run the binaries
# unrandomized where the kernel allows it (containers often do not).
NO_ASLR=()
if setarch "$(uname -m)" -R true 2>/dev/null; then
    NO_ASLR=(setarch "$(uname -m)" -R)
fi

# fresh NAME: run bench_NAME, print the file its record went to.
fresh() {
    local out
    out=$(mktemp)
    "${NO_ASLR[@]}" cargo run --release -p rvm_bench --bin "bench_$1" > "$out"
    echo "$out"
}

# check NAME: run bench_NAME and compare its output with BENCH_NAME.json
# value by value.
check() {
    local name=$1 new diffs
    new=$(fresh "$name")
    diffs=$(jq -rn --slurpfile old "BENCH_$name.json" --slurpfile new "$new" \
        --argjson virt "$VIRT_FIELDS" --argjson tol "$VIRT_TOL" --argjson skip "$SKIP_FIELDS" '
        def flat: [paths(type != "object" and type != "array") as $p
                   | {key: ($p | map(tostring) | join(".")), value: getpath($p)}] | from_entries;
        ($old[0] | flat) as $o | ($new[0] | flat) as $n
        | ($o + $n | keys[]) as $k
        | select($skip | index($k) | not)
        | ($k | split(".") | last) as $field
        | select(if ($virt | index($field)) and $o[$k] != null and $n[$k] != null
                 then (($n[$k] - $o[$k]) | fabs) > $tol * $o[$k]
                 else $o[$k] != $n[$k] end)
        | "  \($k): recorded \($o[$k]), now \($n[$k])"')
    rm -f "$new"
    if [[ -n "$diffs" ]]; then
        echo "bench_record --check: bench_$name departs from BENCH_$name.json:" >&2
        echo "$diffs" >&2
        return 1
    fi
    echo "bench_record --check: BENCH_$name.json reproduced" >&2
}

# shape NAME [FILTER]: run bench_NAME and compare the key path and JSON
# type of every scalar with BENCH_NAME.json's, both after the jq FILTER.
shape() {
    local name=$1 filter=${2:-.} new diffs
    new=$(fresh "$name")
    diffs=$(jq -rn --slurpfile old "BENCH_$name.json" --slurpfile new "$new" '
        def shape: '"$filter"'
            | [paths(type != "object" and type != "array") as $p
               | "\($p | map(tostring) | join(".")): \(getpath($p) | type)"];
        ($old[0] | shape) as $o | ($new[0] | shape) as $n
        | (($o - $n)[] | "  recorded only: \(.)"), (($n - $o)[] | "  now only: \(.)")')
    rm -f "$new"
    if [[ -n "$diffs" ]]; then
        echo "bench_record --check: bench_$name has another shape than BENCH_$name.json:" >&2
        echo "$diffs" >&2
        return 1
    fi
    echo "bench_record --check: BENCH_$name.json's shape reproduced" >&2
}

if [[ "${1:-}" == "--check" ]]; then
    check fastpath
    check huge
    check refcount
    check pressure
    shape scale
    shape numa 'del(.points[].attribution)'
    exit 0
fi

# Regenerate exactly as --check runs, through `fresh`; `cat >` rather
# than `mv` keeps each record's file mode.
for name in fastpath scale huge refcount numa pressure; do
    new=$(fresh "$name")
    cat "$new" > "BENCH_$name.json"
    rm -f "$new"
    echo "wrote $(pwd)/BENCH_$name.json:" >&2
    cat "BENCH_$name.json"
done
