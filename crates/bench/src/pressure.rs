//! Memory-pressure benchmark: throughput near pool exhaustion and the
//! superpage fallback behavior gate (`bench_pressure` /
//! `BENCH_pressure.json`).
//!
//! Two questions, two measurements:
//!
//! 1. **What does running near the frame limit cost?** The pool is
//!    capped at [`FRAME_LIMIT`] frames, a fraction of it is pre-filled
//!    with long-lived mappings, and the per-core mmap+touch+munmap cycle
//!    (the `local` workload shape, made OOM-tolerant) runs in whatever
//!    headroom is left. Allocation then rides the pressure tiers of
//!    DESIGN.md §11 — magazine drain, remote-reservoir steal, partial
//!    growth — instead of the unpressured batch-grow fast path. The gate
//!    holds throughput at 90% utilization to
//!    [`PRESSURE_THROUGHPUT_FLOOR`]× the 0%-utilization baseline on the
//!    same capped machine.
//! 2. **Does superpage allocation degrade instead of fail?** With
//!    headroom squeezed below a 2 MiB block, a huge-hinted touch cannot
//!    grow a contiguous block; the fault must fall back to scattered
//!    4 KiB pages and *succeed*. The gate requires `block_fallbacks > 0`
//!    and `oom_faults == 0` on that run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rvm_hw::{
    Backing, Machine, MachineConfig, MapFlags, PlacementPolicy, Prot, VmError, VmSystem,
    BLOCK_PAGES, PAGE_SIZE,
};
use rvm_sync::CostModel;

use crate::{build, run_sim, BackendKind, Gate};

/// Frame-table cap for every pressure run: small enough that the
/// pre-fill reaches real exhaustion quickly, large enough that the
/// workload's live frames fit in the 10% headroom.
pub const FRAME_LIMIT: u64 = 2048;

/// Throughput at 90% utilization must stay within this factor of the
/// unpressured (0% pre-fill) baseline on the same capped machine.
pub const PRESSURE_THROUGHPUT_FLOOR: f64 = 0.5;

/// Pre-fill levels the sweep records, in percent of [`FRAME_LIMIT`].
pub const UTILIZATIONS: [u64; 3] = [0, 50, 90];

/// Region bases (clear of the workload bases in `workloads.rs`).
const FILL_BASE: u64 = 0xA00_0000_0000;
const CYCLE_BASE: u64 = 0xB00_0000_0000;
const HUGE_BASE: u64 = 0xC00_0000_0000;

/// One measured point of the utilization sweep.
#[derive(Clone, Debug)]
pub struct PressurePoint {
    /// Virtual cores.
    pub cores: usize,
    /// Pre-fill level in percent of the frame limit.
    pub utilization_pct: u64,
    /// The frame-table cap the run used.
    pub frame_limit: u64,
    /// Long-lived frames held by the pre-fill mapping.
    pub prefilled: u64,
    /// Completed mmap+touch+munmap cycles.
    pub ops: u64,
    /// Virtual nanoseconds elapsed.
    pub virt_ns: u64,
    /// Cycles whose fault returned `OutOfMemory` (tolerated, retried
    /// next cycle after a maintenance tick).
    pub oom_stalls: u64,
    /// Pressure-tier magazine drains (pool counter).
    pub reclaim_drains: u64,
    /// Pressure-tier remote-reservoir steals (pool counter).
    pub remote_steals: u64,
    /// OOM faults surfaced through the VM during the measured window.
    pub oom_faults: u64,
}

impl PressurePoint {
    /// Cycles per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.virt_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.virt_ns as f64
        }
    }
}

/// The fragmentation / superpage-fallback measurement.
#[derive(Clone, Debug)]
pub struct FragmentationPoint {
    /// The frame-table cap the run used.
    pub frame_limit: u64,
    /// Long-lived 4 KiB frames squeezing the headroom below one block.
    pub prefilled: u64,
    /// Pages of the huge-hinted region touched.
    pub touched: u64,
    /// Faults that degraded from a 2 MiB block to scattered 4 KiB pages.
    pub block_fallbacks: u64,
    /// OOM faults surfaced (must be zero — fallback, not failure).
    pub oom_faults: u64,
    /// Superpages actually installed (must be zero under the squeeze).
    pub superpage_installs: u64,
}

/// NUMA nodes of every pressure machine, and of the simulator pricing it.
const NNODES: usize = 2;

/// First-touch [`NNODES`]-node machine capped at `frame_limit` frames.
fn capped_machine(ncores: usize, frame_limit: u64) -> Arc<Machine> {
    let machine = Machine::with_config(MachineConfig {
        ncores,
        placement: PlacementPolicy::FirstTouch,
        nnodes: NNODES,
    });
    machine.pool().set_frame_limit(frame_limit);
    machine
}

/// Maps and touches `frames` long-lived pages, round-robining the
/// faulting core so first-touch homes them across both nodes.
fn prefill(machine: &Arc<Machine>, vm: &Arc<dyn VmSystem>, ncores: usize, frames: u64) {
    if frames == 0 {
        return;
    }
    vm.mmap(0, FILL_BASE, frames * PAGE_SIZE, Prot::RW, Backing::Anon)
        .expect("pre-fill mmap");
    for p in 0..frames {
        let core = (p % ncores as u64) as usize;
        machine
            .touch_page(core, &**vm, FILL_BASE + p * PAGE_SIZE, 1)
            .expect("pre-fill fits under the frame limit");
    }
}

/// Runs the OOM-tolerant local cycle at one pre-fill level.
pub fn pressure_point(ncores: usize, utilization_pct: u64, duration_ns: u64) -> PressurePoint {
    let machine = capped_machine(ncores, FRAME_LIMIT);
    let vm = build(&machine, BackendKind::Radix);
    let prefilled = FRAME_LIMIT * utilization_pct / 100;
    prefill(&machine, &vm, ncores, prefilled);
    let base_pool = machine.pool().stats();
    let base_op = vm.op_stats();
    let stalls = Arc::new(AtomicU64::new(0));
    let point = run_sim(ncores, duration_ns, CostModel::new(NNODES), |core| {
        let (machine, vm, stalls) = (machine.clone(), vm.clone(), stalls.clone());
        vm.attach_core(core);
        let base = CYCLE_BASE + core as u64 * (1 << 30);
        let mut i = 0u64;
        Box::new(move || {
            let addr = base + (i % 64) * PAGE_SIZE;
            i += 1;
            vm.mmap(core, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
                .expect("mmap allocates no frames");
            let units = match machine.touch_page(core, &*vm, addr, i as u8) {
                Ok(()) => 1,
                Err(VmError::OutOfMemory) => {
                    // Tolerated: give reclaim a tick and retry the
                    // slot on a later cycle.
                    stalls.fetch_add(1, Ordering::Relaxed);
                    vm.maintain(core);
                    0
                }
                Err(e) => panic!("pressure cycle: unexpected {e}"),
            };
            vm.munmap(core, addr, PAGE_SIZE).expect("munmap");
            // Tick maintenance more often than the unpressured
            // workloads do: near the cap, frames parked in deferred
            // refcache frees are the difference between a pressure
            // stall and a free-list hit.
            if i.is_multiple_of(32) {
                vm.maintain(core);
            }
            units
        })
    });
    let pool = machine.pool().stats().since(&base_pool);
    PressurePoint {
        cores: ncores,
        utilization_pct,
        frame_limit: FRAME_LIMIT,
        prefilled,
        ops: point.units,
        virt_ns: point.virt_ns,
        oom_stalls: stalls.load(Ordering::Relaxed),
        reclaim_drains: pool.reclaim_drains,
        remote_steals: pool.remote_steals,
        oom_faults: vm.op_stats().since(&base_op).oom_faults,
    }
}

/// Squeezes the headroom below one 2 MiB block with long-lived 4 KiB
/// pages, then touches half a huge-hinted block: every populate must
/// degrade to scattered pages and succeed.
pub fn fragmentation_point() -> FragmentationPoint {
    const PREFILL: u64 = 600; // headroom ≈ 1024 − 640 < BLOCK_PAGES
    const TOUCH: u64 = BLOCK_PAGES / 2;
    let ncores = 2;
    let machine = capped_machine(ncores, 1024);
    let vm = build(&machine, BackendKind::Radix);
    prefill(&machine, &vm, ncores, PREFILL);
    vm.mmap_flags(
        0,
        HUGE_BASE,
        BLOCK_PAGES * PAGE_SIZE,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .expect("huge mmap");
    for p in 0..TOUCH {
        machine
            .touch_page(0, &*vm, HUGE_BASE + p * PAGE_SIZE, 2)
            .expect("fallback populate must succeed, not OOM");
    }
    let op = vm.op_stats();
    FragmentationPoint {
        frame_limit: 1024,
        prefilled: PREFILL,
        touched: TOUCH,
        block_fallbacks: op.block_fallbacks,
        oom_faults: op.oom_faults,
        superpage_installs: op.superpage_installs,
    }
}

/// Verdict of the pressure gate.
#[derive(Clone, Debug)]
pub struct PressureReport {
    /// Cores the throughput points ran on.
    pub cores: usize,
    /// Throughput ratio, 90% utilization over 0% baseline.
    pub pressured_over_baseline: f64,
    /// Block fallbacks on the fragmentation run.
    pub block_fallbacks: u64,
    /// OOM faults on the fragmentation run (must be 0).
    pub frag_oom_faults: u64,
    /// The verdict.
    pub gate: Gate,
}

/// Evaluates the pressure gate from measured points.
pub fn check_pressure(
    baseline: &PressurePoint,
    pressured: &PressurePoint,
    frag: &FragmentationPoint,
) -> PressureReport {
    let mut gate = Gate::new("PRESSURE");
    if baseline.ops == 0 {
        gate.fail("baseline run made no progress");
    }
    if pressured.ops == 0 {
        gate.fail("pressured run made no progress");
    }
    let base = baseline.ops_per_sec();
    let ratio = if base > 0.0 {
        pressured.ops_per_sec() / base
    } else {
        0.0
    };
    if ratio < PRESSURE_THROUGHPUT_FLOOR {
        gate.fail(format!(
            "throughput at {}% utilization is only {ratio:.3}x the unpressured baseline \
             < floor {PRESSURE_THROUGHPUT_FLOOR}",
            pressured.utilization_pct
        ));
    }
    if frag.block_fallbacks == 0 {
        gate.fail(
            "fragmented huge-page run recorded no block fallbacks — the squeeze never \
             exercised the degradation path"
                .to_string(),
        );
    }
    if frag.oom_faults != 0 {
        gate.fail(format!(
            "fragmented huge-page run surfaced {} OOM faults — fallback must succeed, \
             not fail",
            frag.oom_faults
        ));
    }
    if frag.superpage_installs != 0 {
        gate.fail(format!(
            "fragmented run installed {} superpages with headroom below one block",
            frag.superpage_installs
        ));
    }
    PressureReport {
        cores: baseline.cores,
        pressured_over_baseline: ratio,
        block_fallbacks: frag.block_fallbacks,
        frag_oom_faults: frag.oom_faults,
        gate,
    }
}

/// Runs the gate points at `ncores` (the entry point both the unit test
/// and `bench_pressure` use).
pub fn run_pressure_gate(ncores: usize, duration_ns: u64) -> PressureReport {
    let baseline = pressure_point(ncores, 0, duration_ns);
    let pressured = pressure_point(ncores, 90, duration_ns);
    let frag = fragmentation_point();
    check_pressure(&baseline, &pressured, &frag)
}

/// Core counts for the pressure sweep: `RVM_CORES` override, else 4 for
/// `--quick`, 8 otherwise (both stripe across the 2 nodes).
pub fn pressure_core_counts() -> Vec<usize> {
    crate::sweep_cores(&[4], &[8])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in pressure gate at 4 cores: 90%-utilization
    /// throughput within the floor of baseline, and the fragmented
    /// huge-page run degrades (block fallbacks, zero OOM faults).
    /// Deterministic — the simulator interleaving is fixed.
    #[test]
    fn pressure_gate() {
        let report = run_pressure_gate(4, 2_000_000);
        assert!(report.gate.passed(), "{}", report.gate);
    }

    /// The 90% point actually runs *pressured*: the pre-fill holds 90%
    /// of the cap and the run finishes without leaking its stalls (every
    /// cycle unmapped its page whether or not the fault succeeded).
    #[test]
    fn pressured_point_accounts_exactly() {
        let p = pressure_point(2, 90, 1_000_000);
        assert_eq!(p.prefilled, FRAME_LIMIT * 90 / 100);
        assert!(p.ops > 0, "no cycles completed at 90% utilization");
    }

    /// The fragmentation squeeze never installs a superpage and never
    /// surfaces an OOM: every touched page arrives via scattered 4 KiB
    /// fallback.
    #[test]
    fn fragmentation_degrades_without_failing() {
        let f = fragmentation_point();
        assert!(f.block_fallbacks > 0, "block path never fell back: {f:?}");
        assert_eq!(f.oom_faults, 0, "{f:?}");
        assert_eq!(f.superpage_installs, 0, "{f:?}");
    }
}
