//! Emits the NUMA placement record (`BENCH_numa.json`) to stdout and
//! enforces the placement gate.
//!
//! The sweep drives the disjoint, contended, and index-churn workloads
//! on the Radix backend across 1/2/4-node machines × the
//! three placement policies (first-touch, interleave,
//! replicate-read-only), with the simulator pricing every cache-line
//! transfer and page of allocator work by hop distance. The gate
//! (first-touch ≥ 1.2× interleave on disjoint ops at 4 nodes,
//! replicate-read-only cutting cross-node `radix-index` traffic, and
//! non-empty cross-node attribution under contention) exits non-zero on
//! regression, so the CI smoke step fails loudly.
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_numa [--quick]`
//! (or `scripts/bench_record.sh`, which redirects into the checked-in
//! JSON). Env: `RVM_CORES=8,...`, `RVM_DUR_MS`.

use rvm_bench::json::{array, fixed, Json};
use rvm_bench::numa::{
    check_numa, numa_core_counts, numa_point, policy_name, NumaPoint, NumaWorkload,
    FT_OVER_INTERLEAVE_FLOOR, NODE_COUNTS, POLICIES,
};
use rvm_bench::{duration_ns, obj, Gate};
use rvm_hw::PlacementPolicy;

const WORKLOADS: [NumaWorkload; 3] = [
    NumaWorkload::Disjoint,
    NumaWorkload::Contended,
    NumaWorkload::IndexChurn,
];

fn point(p: &NumaPoint) -> Json {
    // Per-node-pair attribution: one flattened source→destination
    // matrix per label with any cross-node traffic.
    let live = p
        .attribution
        .iter()
        .filter(|(_, m)| m.iter().any(|&v| v > 0));
    obj! {
        "workload" => p.workload,
        "cores" => p.cores,
        "nnodes" => p.nnodes,
        "policy" => p.policy,
        "ops_per_sec" => fixed(p.ops_per_sec(), 0),
        "cross_node_transfers" => p.cross_node_transfers,
        "index_cross" => p.index_cross,
        "on_node_frees" => p.on_node_frees,
        "cross_node_frees" => p.cross_node_frees,
        "fault_frames_on_node" => p.fault_frames_on_node,
        "fault_frames_cross_node" => p.fault_frames_cross_node,
        "attribution" => array(live.map(|(label, m)| obj! {
            "label" => *label,
            "total" => m.iter().sum::<u64>(),
            "matrix" => array(m.iter().copied()),
        })),
    }
}

fn main() {
    let cores = numa_core_counts();
    let dur = duration_ns();
    let mut points: Vec<NumaPoint> = Vec::new();
    for &ncores in &cores {
        for &nnodes in &NODE_COUNTS {
            for policy in POLICIES {
                for w in WORKLOADS {
                    let p = numa_point(w, ncores, nnodes, policy, dur);
                    eprintln!(
                        "  {:>12} {:>2} cores {} nodes {:>20}: {:>12.0} ops/s \
                         ({} cross-node lines, {} index, {} cross frees)",
                        p.workload,
                        p.cores,
                        p.nnodes,
                        p.policy,
                        p.ops_per_sec(),
                        p.cross_node_transfers,
                        p.index_cross,
                        p.cross_node_frees,
                    );
                    points.push(p);
                }
            }
        }
    }
    // Gate on the largest core count's 4-node points.
    let gate_cores = *cores.last().expect("at least one core count");
    let find = |w: NumaWorkload, policy: PlacementPolicy| {
        points
            .iter()
            .find(|p| {
                p.workload == w.name()
                    && p.cores == gate_cores
                    && p.nnodes == 4
                    && p.policy == policy_name(policy)
            })
            .expect("gate point missing from sweep")
    };
    let report = check_numa(
        find(NumaWorkload::Disjoint, PlacementPolicy::FirstTouch),
        find(NumaWorkload::Disjoint, PlacementPolicy::Interleave),
        find(NumaWorkload::IndexChurn, PlacementPolicy::FirstTouch),
        find(NumaWorkload::IndexChurn, PlacementPolicy::ReplicateReadOnly),
        find(NumaWorkload::Contended, PlacementPolicy::FirstTouch),
    );

    let record = obj! {
        "schema" => 1,
        "bench" => "numa",
        "workloads" => "disjoint local cycles / contended 4-page range / \
            index churn through one hot interior node",
        "cores" => array(cores.iter().copied()),
        "node_counts" => array(NODE_COUNTS),
        "policies" => array(POLICIES.map(policy_name)),
        "points" => array(points.iter().map(point)),
        "gate" => obj! {
            "cores" => report.cores,
            "nnodes" => report.nnodes,
            "ft_over_interleave_floor" => FT_OVER_INTERLEAVE_FLOOR,
            "ft_over_interleave" => fixed(report.ft_over_interleave, 4),
            "ft_index_cross" => report.ft_index_cross,
            "replicate_index_cross" => report.replicate_index_cross,
            "contended_labels" => report.contended_labels,
            "passed" => report.gate.passed(),
        },
    };
    println!("{record}");
    Gate::enforce(&[&report.gate]);
    eprintln!(
        "numa gate passed: first-touch {:.3}x interleave at {} cores / {} nodes; \
         index cross-node lines {} (first-touch) vs {} (replicated); \
         {} labels attributed under contention",
        report.ft_over_interleave,
        report.cores,
        report.nnodes,
        report.ft_index_cross,
        report.replicate_index_cross,
        report.contended_labels
    );
}
