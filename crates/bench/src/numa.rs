//! The NUMA placement sweep: distance-priced workloads across
//! node counts × placement policies, and the gates `bench_numa` /
//! `BENCH_numa.json` enforce.
//!
//! The simulator prices every cache-line transfer and every page of
//! allocator work by the hop distance it crosses (`rvm_sync::model`),
//! so frame *placement* becomes measurable: this module runs the
//! disjoint, contended, and index-churn workloads on 1/2/4-node machines
//! under each [`PlacementPolicy`] and records throughput,
//! on-node vs cross-node allocator traffic, and the per-label
//! cross-node transfer attribution.
//!
//! Three things are gated (ISSUE 7's acceptance bar):
//!
//! 1. on 4 nodes, first-touch beats interleave by ≥
//!    [`FT_OVER_INTERLEAVE_FLOOR`]× on disjoint ops — local placement
//!    must actually win once remote pages cost hops;
//! 2. replicate-read-only cuts the cross-node transfers attributed to
//!    `radix-index` lines vs first-touch on the index-churn workload —
//!    replicas must absorb the remote descent reads;
//! 3. the contended workload's [`sim::cross_node_transfers_by_label`]
//!    attribution is non-empty — the *where does cross-socket traffic
//!    live* view works end-to-end.

use rvm_hw::{Machine, MachineConfig, PlacementPolicy};
use rvm_sync::{sim, CostModel};

use crate::{build, run_sim_collect, workloads, BackendKind, Gate};

/// Workloads the NUMA sweep drives (on the Radix backend).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NumaWorkload {
    /// Per-core private mmap+touch+munmap cycles ([`workloads::local`]).
    Disjoint,
    /// All cores hammering one persistent 4-page range
    /// ([`workloads::contended`]).
    Contended,
    /// Read-mostly descents through one hot interior node with a
    /// sibling-slot writer ([`workloads::index_churn`]).
    IndexChurn,
}

impl NumaWorkload {
    /// JSON / display name.
    pub fn name(self) -> &'static str {
        match self {
            NumaWorkload::Disjoint => "disjoint",
            NumaWorkload::Contended => "contended",
            NumaWorkload::IndexChurn => "index-churn",
        }
    }
}

/// Display name of a placement policy (JSON keys).
pub fn policy_name(p: PlacementPolicy) -> &'static str {
    match p {
        PlacementPolicy::FirstTouch => "first-touch",
        PlacementPolicy::Interleave => "interleave",
        PlacementPolicy::ReplicateReadOnly => "replicate-read-only",
    }
}

/// Policies the sweep records.
pub const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::FirstTouch,
    PlacementPolicy::Interleave,
    PlacementPolicy::ReplicateReadOnly,
];

/// Node counts the sweep records.
pub const NODE_COUNTS: [usize; 3] = [1, 2, 4];

/// One measured point of the NUMA sweep.
#[derive(Clone, Debug)]
pub struct NumaPoint {
    /// Workload driven.
    pub workload: &'static str,
    /// Virtual cores.
    pub cores: usize,
    /// NUMA nodes.
    pub nnodes: usize,
    /// Placement policy name.
    pub policy: &'static str,
    /// Completed work units.
    pub ops: u64,
    /// Virtual nanoseconds elapsed.
    pub virt_ns: u64,
    /// Cross-node cache-line transfers, all labels summed.
    pub cross_node_transfers: u64,
    /// Cross-node transfers attributed to `radix-index` lines.
    pub index_cross: u64,
    /// Per-label cross-node totals plus flattened `nnodes × nnodes`
    /// source→destination matrices, sorted by total descending.
    pub attribution: Vec<(&'static str, Vec<u64>)>,
    /// Frees returned to a list/reservoir of the freeing core's node.
    pub on_node_frees: u64,
    /// Frees that had to travel to another node's reservoir.
    pub cross_node_frees: u64,
    /// Fault-installed frames homed on the faulting core's node.
    pub fault_frames_on_node: u64,
    /// Fault-installed frames homed on a remote node.
    pub fault_frames_cross_node: u64,
}

impl NumaPoint {
    /// Work units per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.virt_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.virt_ns as f64
        }
    }
}

/// Runs one workload on the Radix backend at one (cores, nodes, policy)
/// configuration and captures the cross-node attribution before the
/// simulator tears down. The pool and the simulator see the same
/// `nnodes`.
pub fn numa_point(
    workload: NumaWorkload,
    ncores: usize,
    nnodes: usize,
    policy: PlacementPolicy,
    duration_ns: u64,
) -> NumaPoint {
    let machine = Machine::with_config(MachineConfig {
        ncores,
        placement: policy,
        nnodes,
    });
    let vm = build(&machine, BackendKind::Radix);
    let make = |core: usize| -> Box<dyn FnMut() -> u64> {
        match workload {
            NumaWorkload::Disjoint => workloads::local(machine.clone(), vm.clone(), core),
            NumaWorkload::Contended => workloads::contended(machine.clone(), vm.clone(), core),
            NumaWorkload::IndexChurn => workloads::index_churn(machine.clone(), vm.clone(), core),
        }
    };
    let (point, attribution) = run_sim_collect(
        ncores,
        duration_ns,
        CostModel::new(nnodes),
        make,
        sim::cross_node_transfers_by_label,
    );
    let pool = machine.pool().stats();
    let op = vm.op_stats();
    let total = |m: &[u64]| m.iter().sum::<u64>();
    NumaPoint {
        workload: workload.name(),
        cores: ncores,
        nnodes,
        policy: policy_name(policy),
        ops: point.units,
        virt_ns: point.virt_ns,
        cross_node_transfers: attribution.iter().map(|(_, m)| total(m)).sum(),
        index_cross: attribution
            .iter()
            .find(|(l, _)| *l == "radix-index")
            .map(|(_, m)| total(m))
            .unwrap_or(0),
        attribution,
        on_node_frees: pool.on_node_frees,
        cross_node_frees: pool.cross_node_frees,
        fault_frames_on_node: op.fault_frames_on_node,
        fault_frames_cross_node: op.fault_frames_cross_node,
    }
}

/// First-touch must beat interleave by at least this factor on disjoint
/// ops at 4 nodes: every interleaved allocation that leaves the node
/// pays hop-priced zeroing and drags remote page lines behind it.
pub const FT_OVER_INTERLEAVE_FLOOR: f64 = 1.2;

/// Verdict of the NUMA placement gate.
#[derive(Clone, Debug)]
pub struct NumaReport {
    /// Cores the gate ran on.
    pub cores: usize,
    /// Nodes the gate ran on.
    pub nnodes: usize,
    /// Disjoint-ops throughput ratio, first-touch over interleave.
    pub ft_over_interleave: f64,
    /// `radix-index` cross-node transfers under first-touch (index churn).
    pub ft_index_cross: u64,
    /// Same under replicate-read-only.
    pub replicate_index_cross: u64,
    /// Labels with non-zero cross-node traffic in the contended run.
    pub contended_labels: usize,
    /// The verdict.
    pub gate: Gate,
}

/// Evaluates the three NUMA gate conditions from measured points.
pub fn check_numa(
    disjoint_ft: &NumaPoint,
    disjoint_il: &NumaPoint,
    churn_ft: &NumaPoint,
    churn_rep: &NumaPoint,
    contended: &NumaPoint,
) -> NumaReport {
    let mut gate = Gate::new("NUMA");
    let il = disjoint_il.ops_per_sec();
    let ft_over_interleave = if il > 0.0 {
        disjoint_ft.ops_per_sec() / il
    } else {
        0.0
    };
    if ft_over_interleave < FT_OVER_INTERLEAVE_FLOOR {
        gate.fail(format!(
            "first-touch is only {ft_over_interleave:.3}x interleave on disjoint ops at \
             {} nodes < floor {FT_OVER_INTERLEAVE_FLOOR}",
            disjoint_ft.nnodes
        ));
    }
    if churn_rep.index_cross >= churn_ft.index_cross {
        gate.fail(format!(
            "replicate-read-only moved {} cross-node radix-index lines vs first-touch's {} \
             on index churn — replication did not cut index traffic",
            churn_rep.index_cross, churn_ft.index_cross
        ));
    }
    let contended_labels = contended
        .attribution
        .iter()
        .filter(|(_, m)| m.iter().any(|&v| v > 0))
        .count();
    if contended_labels == 0 {
        gate.fail(
            "contended workload produced no cross-node transfer attribution (labels empty)"
                .to_string(),
        );
    }
    NumaReport {
        cores: disjoint_ft.cores,
        nnodes: disjoint_ft.nnodes,
        ft_over_interleave,
        ft_index_cross: churn_ft.index_cross,
        replicate_index_cross: churn_rep.index_cross,
        contended_labels,
        gate,
    }
}

/// Runs the five gate points at `ncores` on a 4-node machine
/// and evaluates the gate (the entry point both the unit test and
/// `bench_numa` use).
pub fn run_numa_gate(ncores: usize, duration_ns: u64) -> NumaReport {
    const GATE_NODES: usize = 4;
    let disjoint_ft = numa_point(
        NumaWorkload::Disjoint,
        ncores,
        GATE_NODES,
        PlacementPolicy::FirstTouch,
        duration_ns,
    );
    let disjoint_il = numa_point(
        NumaWorkload::Disjoint,
        ncores,
        GATE_NODES,
        PlacementPolicy::Interleave,
        duration_ns,
    );
    let churn_ft = numa_point(
        NumaWorkload::IndexChurn,
        ncores,
        GATE_NODES,
        PlacementPolicy::FirstTouch,
        duration_ns,
    );
    let churn_rep = numa_point(
        NumaWorkload::IndexChurn,
        ncores,
        GATE_NODES,
        PlacementPolicy::ReplicateReadOnly,
        duration_ns,
    );
    let contended = numa_point(
        NumaWorkload::Contended,
        ncores,
        GATE_NODES,
        PlacementPolicy::FirstTouch,
        duration_ns,
    );
    check_numa(
        &disjoint_ft,
        &disjoint_il,
        &churn_ft,
        &churn_rep,
        &contended,
    )
}

/// Core counts for the NUMA sweep: `RVM_CORES` override, 8 for
/// `--quick`, 16 otherwise (cores stripe across up to 4 nodes, so both
/// put multiple cores on every node).
pub fn numa_core_counts() -> Vec<usize> {
    crate::sweep_cores(&[8], &[16])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in NUMA placement gate at 8 cores / 4 nodes:
    /// first-touch ≥ 1.2× interleave on disjoint ops, replication cuts
    /// cross-node radix-index traffic, and contended attribution is
    /// non-empty. Deterministic — not a flaky perf test.
    #[test]
    fn numa_placement_gate() {
        let report = run_numa_gate(8, 3_000_000);
        assert!(report.gate.passed(), "{}", report.gate);
    }

    /// `nnodes = 1` degenerates to the flat model: no cross-node
    /// transfers, no cross-node frees, identical pricing (the existing
    /// BENCH gates verify the numbers themselves stay put).
    #[test]
    fn single_node_is_flat() {
        for policy in POLICIES {
            let p = numa_point(NumaWorkload::Disjoint, 4, 1, policy, 1_000_000);
            assert!(p.ops > 0, "{}: no progress", p.policy);
            assert_eq!(
                p.cross_node_transfers, 0,
                "{}: cross-node on 1 node",
                p.policy
            );
            assert_eq!(
                p.cross_node_frees, 0,
                "{}: cross-node frees on 1 node",
                p.policy
            );
            assert_eq!(
                p.fault_frames_cross_node, 0,
                "{}: cross-node fault frames on 1 node",
                p.policy
            );
        }
    }

    /// Disjoint ops under first-touch stay node-local even on 4 nodes:
    /// every fault frame is homed where it faulted.
    #[test]
    fn first_touch_disjoint_is_node_local() {
        let p = numa_point(
            NumaWorkload::Disjoint,
            8,
            4,
            PlacementPolicy::FirstTouch,
            1_000_000,
        );
        assert!(p.ops > 0);
        assert_eq!(
            p.fault_frames_cross_node, 0,
            "first-touch faulted remote frames"
        );
        assert!(p.fault_frames_on_node > 0);
    }

    /// Interleave actually spreads: a 4-node run places roughly 3/4 of
    /// fault frames off-node.
    #[test]
    fn interleave_spreads_fault_frames() {
        let p = numa_point(
            NumaWorkload::Disjoint,
            8,
            4,
            PlacementPolicy::Interleave,
            1_000_000,
        );
        let total = p.fault_frames_on_node + p.fault_frames_cross_node;
        assert!(total > 0);
        let remote_share = p.fault_frames_cross_node as f64 / total as f64;
        assert!(
            remote_share > 0.5,
            "interleave placed only {remote_share:.2} of frames remotely"
        );
    }
}
