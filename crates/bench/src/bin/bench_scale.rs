//! Emits the multicore scalability record (`BENCH_scale.json`) to
//! stdout and enforces the disjoint-ops scaling gate.
//!
//! The sweep drives every backend through `rvm_backend::build()` over
//! the disjoint mmap/touch/munmap workload on 1..N simulated cores
//! (Figure 5's local experiment), recording ops per virtual second, per-core
//! retention vs. 1 core, remote cache-line transfers per op, and
//! shootdown IPIs per op. The gate (radix retention ≥ 70 % at max
//! cores, O(1) remote traffic per op, a strictly better slope than the
//! Bonsai/Linux baselines, and 1-core throughput ≥ 0.92 × Linux's)
//! exits non-zero on regression, so the CI smoke step fails loudly.
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_scale [--quick]`
//! (or `scripts/bench_record.sh`, which redirects into the checked-in
//! JSON). Env: `RVM_CORES=1,4,...`, `RVM_DUR_MS`.

use rvm_bench::json::{array, fixed, object, Json};
use rvm_bench::scale::{
    check_contended, check_gate, check_overlap, contended_sweep, disjoint_sweep, first_rate,
    overlap_sweep, retention, scale_core_counts, OverlapSweep, ScalePoint,
    CONTENDED_DEGRADATION_FLOOR, CONTENDED_REMOTE_PER_OP_CEIL, OVERLAP_DEGRADATION_FLOOR,
    OVERLAP_DEGREES, OVERLAP_RETENTION_FLOOR, RADIX_REMOTE_PER_OP_CEIL, RADIX_RETENTION_FLOOR,
    RADIX_VS_LINUX_1C_FLOOR,
};
use rvm_bench::{duration_ns, obj, BackendKind, Gate};

/// One point of a contended or overlap sweep: throughput, and that
/// against the sweep's 1-core rate.
fn point_vs(p: &ScalePoint, serial: f64) -> Json {
    obj! {
        "cores" => p.cores,
        "ops_per_sec" => fixed(p.ops_per_sec(), 0),
        "vs_serial" => fixed(p.ops_per_sec() / serial.max(1e-9), 4),
        "remote_per_op" => fixed(p.remote_per_op(), 4),
        "ipis_per_op" => fixed(p.ipis_per_op(), 4),
    }
}

fn backend(points: &[ScalePoint]) -> Json {
    obj! {
        "retention_at_max_cores" => fixed(retention(points), 4),
        "points" => array(points.iter().map(|p| obj! {
            "cores" => p.cores,
            "ops_per_sec" => fixed(p.ops_per_sec(), 0),
            "per_core_ops_per_sec" => fixed(p.per_core_ops_per_sec(), 0),
            "remote_per_op" => fixed(p.remote_per_op(), 4),
            "ipis_per_op" => fixed(p.ipis_per_op(), 4),
            "on_node_frees" => p.on_node_frees,
            "cross_node_frees" => p.cross_node_frees,
        })),
    }
}

fn main() {
    let cores = scale_core_counts();
    let dur = duration_ns();
    let mut sweeps: Vec<(BackendKind, Vec<ScalePoint>)> = Vec::new();
    for kind in BackendKind::ALL {
        eprintln!("sweeping {kind} over {cores:?} cores...");
        let points = disjoint_sweep(kind, &cores, dur);
        for p in &points {
            eprintln!(
                "  {kind:>20} {:>3} cores: {:>12.0} ops/s ({:>10.0}/core, \
                 {:.3} remote/op, {:.3} ipi/op)",
                p.cores,
                p.ops_per_sec(),
                p.per_core_ops_per_sec(),
                p.remote_per_op(),
                p.ipis_per_op(),
            );
        }
        sweeps.push((kind, points));
    }
    let get = |k: BackendKind| {
        &sweeps
            .iter()
            .find(|(kind, _)| *kind == k)
            .unwrap_or_else(|| panic!("{k} sweep missing from results"))
            .1
    };
    let report = check_gate(
        get(BackendKind::Radix),
        get(BackendKind::Bonsai),
        get(BackendKind::Linux),
    );
    // The adversarial companion sweep: all cores hammering one range
    // (graceful-degradation gate; ROADMAP's contended-range item).
    eprintln!("sweeping contended range on RadixVM over {cores:?} cores...");
    let contended = contended_sweep(BackendKind::Radix, &cores, dur);
    for p in &contended {
        eprintln!(
            "  {:>20} {:>3} cores: {:>12.0} ops/s ({:.3} remote/op, {:.3} ipi/op)",
            "RadixVM/contended",
            p.cores,
            p.ops_per_sec(),
            p.remote_per_op(),
            p.ipis_per_op(),
        );
    }
    let contended_report = check_contended(&contended);

    // The range-lock substrate sweep: multi-page ops colliding with
    // probability 0/10/50/100 %, on both the list-based lock (the
    // default) and the slot-CAS-only baseline. The gate judges List.
    let mut overlap: Vec<(BackendKind, Vec<OverlapSweep>)> = Vec::new();
    for kind in [BackendKind::Radix, BackendKind::RadixSlotSpin] {
        eprintln!("sweeping overlap degrees on {kind} over {cores:?} cores...");
        let sweeps = overlap_sweep(kind, &OVERLAP_DEGREES, &cores, dur);
        for s in &sweeps {
            for p in &s.points {
                eprintln!(
                    "  {kind:>20} {:>3}% {:>3} cores: {:>12.0} ops/s \
                     ({:.3} remote/op, {:.3} ipi/op)",
                    s.degree,
                    p.cores,
                    p.ops_per_sec(),
                    p.remote_per_op(),
                    p.ipis_per_op(),
                );
            }
        }
        overlap.push((kind, sweeps));
    }
    let overlap_report = check_overlap(&overlap[0].1);

    let record = obj! {
        "schema" => 1,
        "bench" => "scale",
        "workload" => "disjoint mmap+touch+munmap per core (Fig. 5 local)",
        "cores" => array(cores.iter().copied()),
        "backends" => object(sweeps.iter().map(|(kind, points)| (kind.name(), backend(points)))),
        "contended" => obj! {
            "workload" => "all cores touch ONE persistently mapped 4-page range, \
                remapping it every 16th cycle (a map-unmap-per-cycle shape privatizes the \
                range each op and measures ipis_per_op=0)",
            "points" =>
                array(contended.iter().map(|p| point_vs(p, first_rate(&contended)))),
            "degradation_floor" => CONTENDED_DEGRADATION_FLOOR,
            "remote_per_op_ceiling" => CONTENDED_REMOTE_PER_OP_CEIL,
            "worst_vs_serial" => fixed(contended_report.worst_ratio, 4),
            "worst_remote_per_op" => fixed(contended_report.worst_remote_per_op, 4),
            "passed" => contended_report.gate.passed(),
        },
        "overlap" => obj! {
            "workload" => "16-page mmap+touch+munmap; each op collides on a shared \
                slice with probability <degree>%",
            "degrees" => array(OVERLAP_DEGREES),
            "substrates" => object(overlap.iter().map(|(kind, sweeps)| {
                let by_degree = sweeps.iter().map(|s| {
                    let points = s.points.iter().map(|p| point_vs(p, first_rate(&s.points)));
                    (s.degree, array(points))
                });
                (kind.radix_config().expect("a RadixVM kind").range_lock.name(), object(by_degree))
            })),
            "retention_floor_at_0" => OVERLAP_RETENTION_FLOOR,
            "degradation_floor_at_100" => OVERLAP_DEGRADATION_FLOOR,
            "list_disjoint_retention" => fixed(overlap_report.disjoint_retention, 4),
            "list_full_overlap_worst_vs_serial" =>
                fixed(overlap_report.full_overlap_worst_ratio, 4),
            "passed" => overlap_report.gate.passed(),
        },
        "gate" => obj! {
            "radix_retention_floor" => RADIX_RETENTION_FLOOR,
            "radix_remote_per_op_ceiling" => RADIX_REMOTE_PER_OP_CEIL,
            "radix_retention" => fixed(report.radix_retention, 4),
            "bonsai_retention" => fixed(report.bonsai_retention, 4),
            "linux_retention" => fixed(report.linux_retention, 4),
            "radix_remote_per_op" => fixed(report.radix_remote_per_op, 4),
            "radix_vs_linux_1c_floor" => RADIX_VS_LINUX_1C_FLOOR,
            "radix_vs_linux_1c" => fixed(report.radix_vs_linux_1c, 4),
            "passed" => report.gate.passed(),
        },
    };
    println!("{record}");
    Gate::enforce(&[&report.gate, &contended_report.gate, &overlap_report.gate]);
    eprintln!(
        "scaling gate passed: radix retention {:.3} at {} cores \
         (bonsai {:.3}, linux {:.3}), {:.3} remote lines/op, \
         {:.3}x linux at 1 core; \
         contended worst {:.3}x serial; overlap 0% retention {:.3}, \
         100% worst {:.3}x serial",
        report.radix_retention,
        report.max_cores,
        report.bonsai_retention,
        report.linux_retention,
        report.radix_remote_per_op,
        report.radix_vs_linux_1c,
        contended_report.worst_ratio,
        overlap_report.disjoint_retention,
        overlap_report.full_overlap_worst_ratio
    );
}
