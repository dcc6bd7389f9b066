//! Emits the huge-mapping (superpage) record (`BENCH_huge.json`) to
//! stdout and enforces the variable-granularity gates.
//!
//! Three sections:
//!
//! * `backends` — every backend populates an aligned multi-block
//!   anonymous mapping with and without the `MapFlags::HUGE` hint on the
//!   deterministic simulator (hint-ignoring backends behave identically
//!   either way, so they get a single row). Per row: faults-to-populate,
//!   superpage installs/demotions/promotions, index and page-table
//!   bytes, populate throughput.
//! * `converge` — the demote-then-converge workload: every block is
//!   demoted by a protection round-trip and re-touched; the promotion
//!   gate requires the fault path's fill counters to re-fold each block
//!   and a fresh core's probe faults and the index bytes to land within
//!   1.25x of a never-demoted run.
//! * `shootdown_sweep` — 16 simulated cores: one demotes and promotes a
//!   shared block while the non-sharing cores fault disjoint pages;
//!   records the span-invalidation IPI cost against per-page pricing
//!   per sharer count.
//!
//! Any gate failure exits non-zero, so the CI smoke step fails loudly.
//!
//! Usage: `cargo run --release -p rvm_bench --bin bench_huge [--quick]`
//! (or `scripts/bench_record.sh`, which redirects into the checked-in
//! JSON).

use rvm_bench::huge::{
    check_gate, check_sweep, huge_blocks, populate_point, run_converge_gate, shootdown_sweep,
    HugePoint, CONVERGE_RATIO_CEIL, HUGE_FAULT_RATIO_FLOOR,
};
use rvm_bench::json::{array, fixed, object, Json};
use rvm_bench::{obj, BackendKind, Gate};

fn point(p: &HugePoint) -> Json {
    obj! {
        "mode" => if p.hinted { "huge" } else { "4k" },
        "faults" => p.faults,
        "superpage_installs" => p.superpage_installs,
        "superpage_demotions" => p.superpage_demotions,
        "superpage_promotions" => p.superpage_promotions,
        "index_bytes" => p.index_bytes,
        "pagetable_bytes" => p.pagetable_bytes,
        "pages_per_sec" => fixed(p.pages_per_sec(), 0),
    }
}

fn main() {
    let blocks = huge_blocks();
    let mut sweeps: Vec<(BackendKind, Vec<HugePoint>)> = Vec::new();
    for kind in BackendKind::ALL {
        // Hint-ignoring backends produce identical hinted/unhinted
        // points; one 4 KiB row says everything.
        let points = if kind.is_radix() {
            eprintln!("populating {blocks} blocks on {kind} (huge + 4k)...");
            vec![
                populate_point(kind, true, blocks),
                populate_point(kind, false, blocks),
            ]
        } else {
            eprintln!("populating {blocks} blocks on {kind} (hint-ignoring, 4k only)...");
            vec![populate_point(kind, false, blocks)]
        };
        for p in &points {
            let mode = if p.hinted { "huge" } else { "  4k" };
            eprintln!(
                "  {kind:>20} {mode}: {} faults / {} idx B",
                p.faults, p.index_bytes
            );
        }
        sweeps.push((kind, points));
    }
    let radix = sweeps
        .iter()
        .find(|(k, _)| *k == BackendKind::Radix)
        .expect("Radix sweep missing from results");
    let report = check_gate(&radix.1[0], &radix.1[1]);

    eprintln!("demote-then-converge on RadixVM ({blocks} blocks)...");
    let converge = run_converge_gate(blocks);
    eprintln!(
        "  promotions {}/{}, probe faults {} vs {}, index {} B vs {} B",
        converge.promotions,
        converge.blocks,
        converge.probe_faults,
        converge.probe_faults_baseline,
        converge.index_bytes,
        converge.index_bytes_baseline
    );
    eprintln!("span-shootdown sweep (16 cores)...");
    let sweep = shootdown_sweep();
    let sweep_gate = check_sweep(&sweep);

    let record = obj! {
        "schema" => 2,
        "bench" => "huge",
        "workload" => format!(
            "populate {blocks} aligned 2 MiB anonymous blocks, huge hint vs 4 KiB; \
             demote-then-converge promotion gate; 16-core span-shootdown sweep"
        ),
        "blocks" => blocks,
        "backends" => object(
            sweeps.iter().map(|(kind, points)| (kind.name(), array(points.iter().map(point)))),
        ),
        "converge" => obj! {
            "ratio_ceil" => CONVERGE_RATIO_CEIL,
            "demotions" => converge.demotions,
            "promotions" => converge.promotions,
            "converge_faults" => converge.converge_faults,
            "probe_faults" => converge.probe_faults,
            "probe_faults_baseline" => converge.probe_faults_baseline,
            "index_bytes" => converge.index_bytes,
            "index_bytes_baseline" => converge.index_bytes_baseline,
            "passed" => converge.gate.passed(),
        },
        "shootdown_sweep" => array(sweep.iter().map(|p| obj! {
            "sharers" => p.sharers,
            "span_ipis" => p.span_ipis,
            "per_page_ipis" => p.per_page_ipis,
            "promotions" => p.promotions,
            "bg_faults" => p.bg_faults,
            "virt_ns" => p.virt_ns,
        })),
        "gate" => obj! {
            "fault_ratio_floor" => HUGE_FAULT_RATIO_FLOOR,
            "fault_ratio" => fixed(report.fault_ratio, 1),
            "faults_huge" => report.faults_huge,
            "faults_4k" => report.faults_4k,
            "index_bytes_huge" => report.index_bytes_huge,
            "index_bytes_4k" => report.index_bytes_4k,
            "superpage_installs" => report.superpage_installs,
            "passed" => report.gate.passed(),
        },
    };
    println!("{record}");
    Gate::enforce(&[&report.gate, &converge.gate, &sweep_gate]);
    eprintln!(
        "huge gates passed: {:.0}x fewer populate faults, {} promotions recovered \
         span faults ({} vs {}), span shootdown beat per-page at every sharer count",
        report.fault_ratio,
        converge.promotions,
        converge.probe_faults,
        converge.probe_faults_baseline
    );
}
