//! Emits the memory-pressure record (`BENCH_pressure.json`) to stdout
//! and enforces the pressure gate.
//!
//! The sweep runs the OOM-tolerant local cycle on a frame-capped
//! two-node machine at 0/50/90% pre-fill utilization, plus the
//! fragmentation point (headroom squeezed below one 2 MiB block, so
//! huge-hinted populates must degrade to scattered 4 KiB pages). The
//! gate (90%-utilization throughput ≥ 0.5× the unpressured baseline;
//! `block_fallbacks > 0` with zero OOM faults under fragmentation)
//! exits non-zero on regression, so the CI smoke step fails loudly.
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_pressure
//! [--quick]` (or `scripts/bench_record.sh`, which redirects into the
//! checked-in JSON). Env: `RVM_CORES=8,...`, `RVM_DUR_MS`.

use rvm_bench::json::{array, fixed, Json};
use rvm_bench::pressure::{
    check_pressure, fragmentation_point, pressure_core_counts, pressure_point, PressurePoint,
    FRAME_LIMIT, PRESSURE_THROUGHPUT_FLOOR, UTILIZATIONS,
};
use rvm_bench::{duration_ns, obj, Gate};

fn point(p: &PressurePoint) -> Json {
    obj! {
        "cores" => p.cores,
        "utilization_pct" => p.utilization_pct,
        "frame_limit" => p.frame_limit,
        "prefilled" => p.prefilled,
        "ops_per_sec" => fixed(p.ops_per_sec(), 0),
        "oom_stalls" => p.oom_stalls,
        "reclaim_drains" => p.reclaim_drains,
        "remote_steals" => p.remote_steals,
        "oom_faults" => p.oom_faults,
    }
}

fn main() {
    let cores = pressure_core_counts();
    let dur = duration_ns();
    let mut points: Vec<PressurePoint> = Vec::new();
    for &ncores in &cores {
        for &util in &UTILIZATIONS {
            let p = pressure_point(ncores, util, dur);
            eprintln!(
                "  {:>2} cores {:>3}% utilization: {:>12.0} cycles/s \
                 ({} stalls, {} drains, {} steals)",
                p.cores,
                p.utilization_pct,
                p.ops_per_sec(),
                p.oom_stalls,
                p.reclaim_drains,
                p.remote_steals,
            );
            points.push(p);
        }
    }
    let frag = fragmentation_point();
    eprintln!(
        "  fragmentation: {} touched, {} block fallbacks, {} oom faults",
        frag.touched, frag.block_fallbacks, frag.oom_faults
    );
    // Gate on the largest core count's 0% and 90% points.
    let gate_cores = *cores.last().expect("at least one core count");
    let find = |util: u64| {
        points
            .iter()
            .find(|p| p.cores == gate_cores && p.utilization_pct == util)
            .expect("gate point missing from sweep")
    };
    let report = check_pressure(find(0), find(90), &frag);

    let record = obj! {
        "schema" => 1,
        "bench" => "pressure",
        "workload" => "OOM-tolerant per-core mmap+touch+munmap cycles on a \
            frame-capped two-node machine; huge-hinted populate under squeezed headroom",
        "frame_limit" => FRAME_LIMIT,
        "cores" => array(cores.iter().copied()),
        "utilizations_pct" => array(UTILIZATIONS),
        "points" => array(points.iter().map(point)),
        "fragmentation" => obj! {
            "frame_limit" => frag.frame_limit,
            "prefilled" => frag.prefilled,
            "touched" => frag.touched,
            "block_fallbacks" => frag.block_fallbacks,
            "oom_faults" => frag.oom_faults,
            "superpage_installs" => frag.superpage_installs,
        },
        "gate" => obj! {
            "cores" => report.cores,
            "throughput_floor" => PRESSURE_THROUGHPUT_FLOOR,
            "pressured_over_baseline" => fixed(report.pressured_over_baseline, 4),
            "block_fallbacks" => report.block_fallbacks,
            "frag_oom_faults" => report.frag_oom_faults,
            "passed" => report.gate.passed(),
        },
    };
    println!("{record}");
    Gate::enforce(&[&report.gate]);
    eprintln!(
        "pressure gate passed: {:.3}x baseline at 90% utilization on {} cores; \
         {} block fallbacks, {} oom faults under fragmentation",
        report.pressured_over_baseline,
        report.cores,
        report.block_fallbacks,
        report.frag_oom_faults
    );
}
