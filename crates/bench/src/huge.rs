//! The huge-mapping (superpage) workload: 4 KiB vs. variable-granularity
//! fault throughput and index size.
//!
//! RadixVM's radix tree folds a whole aligned 2 MiB mapping into one
//! interior slot; with variable-granularity support that fold now reaches
//! the hardware: one block PTE, one span TLB entry, one contiguous frame
//! block, one Refcache object. This module measures what that buys on the
//! workload the fold was designed for — populating large aligned
//! anonymous mappings — by driving every backend through the same
//! mmap→touch-every-page cycle twice, with and without the
//! [`MapFlags::HUGE`] hint, on the deterministic simulator.
//!
//! Per point it records faults-to-populate (the hinted radix path takes
//! **one** fault per 2 MiB instead of 512), superpage installs/demotions,
//! index bytes (the fold keeps one folded value where the 4 KiB path
//! expands 512 leaf copies), page-table bytes, and virtual time.
//! [`check_gate`] turns the hinted/unhinted pair into the acceptance bar
//! recorded in `BENCH_huge.json`: ≥ [`HUGE_FAULT_RATIO_FLOOR`]× fewer
//! faults and strictly smaller index bytes, enforced by `bench_huge` in
//! CI alongside the fastpath and scale gates.

use rvm_hw::{Backing, Machine, MapFlags, Prot, BLOCK_PAGES, PAGE_SIZE};
use rvm_sync::{sim, CostModel};

use crate::{build, BackendKind, Gate};

/// Virtual-address base of the huge workload (2 MiB aligned, clear of
/// the other workloads' regions).
const HUGE_BASE: u64 = 0x500_0000_0000;

/// Bytes of one superpage block.
pub const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;

/// One measured populate run.
#[derive(Clone, Debug)]
pub struct HugePoint {
    /// Backend measured.
    pub backend: BackendKind,
    /// Whether the mapping carried the huge-page hint.
    pub hinted: bool,
    /// 2 MiB blocks mapped and touched.
    pub blocks: u64,
    /// Page faults taken to populate every page.
    pub faults: u64,
    /// Superpage PTE installs reported by the backend.
    pub superpage_installs: u64,
    /// Superpage demotions reported by the backend.
    pub superpage_demotions: u64,
    /// Superpage promotions reported by the backend.
    pub superpage_promotions: u64,
    /// Index (metadata) bytes after populating.
    pub index_bytes: u64,
    /// Hardware page-table bytes after populating.
    pub pagetable_bytes: u64,
    /// Virtual nanoseconds for the whole populate.
    pub virt_ns: u64,
}

impl HugePoint {
    /// Pages touched.
    pub fn pages(&self) -> u64 {
        self.blocks * BLOCK_PAGES
    }

    /// Pages populated per virtual second.
    pub fn pages_per_sec(&self) -> f64 {
        if self.virt_ns == 0 {
            0.0
        } else {
            self.pages() as f64 * 1e9 / self.virt_ns as f64
        }
    }
}

/// Maps `blocks` aligned 2 MiB blocks (hinted or not) and touches every
/// page, on one simulated core. Deterministic: same inputs, same point.
pub fn populate_point(kind: BackendKind, hinted: bool, blocks: u64) -> HugePoint {
    let guard = sim::install(1, CostModel::default());
    sim::switch(0);
    let machine = Machine::new(1);
    let vm = build(&machine, kind);
    vm.attach_core(0);
    let flags = if hinted {
        MapFlags::HUGE
    } else {
        MapFlags::NONE
    };
    vm.mmap_flags(
        0,
        HUGE_BASE,
        blocks * BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        flags,
    )
    .expect("mmap");
    let faults_before = {
        let st = vm.op_stats();
        st.faults_alloc + st.faults_fill + st.faults_cow
    };
    for page in 0..blocks * BLOCK_PAGES {
        machine
            .touch_page(0, &*vm, HUGE_BASE + page * PAGE_SIZE, 1)
            .expect("touch");
    }
    let st = vm.op_stats();
    let usage = vm.space_usage();
    let stats = guard.finish();
    HugePoint {
        backend: kind,
        hinted,
        blocks,
        faults: st.faults_alloc + st.faults_fill + st.faults_cow - faults_before,
        superpage_installs: st.superpage_installs,
        superpage_demotions: st.superpage_demotions,
        superpage_promotions: st.superpage_promotions,
        index_bytes: usage.index_bytes,
        pagetable_bytes: usage.pagetable_bytes,
        virt_ns: stats.max_clock(),
    }
}

/// The huge-mapping gate's verdict.
#[derive(Clone, Debug)]
pub struct HugeGateReport {
    /// Blocks per run.
    pub blocks: u64,
    /// Unhinted (4 KiB) faults to populate.
    pub faults_4k: u64,
    /// Hinted (superpage) faults to populate.
    pub faults_huge: u64,
    /// `faults_4k / faults_huge`.
    pub fault_ratio: f64,
    /// Unhinted index bytes.
    pub index_bytes_4k: u64,
    /// Hinted index bytes.
    pub index_bytes_huge: u64,
    /// Superpage installs observed on the hinted run.
    pub superpage_installs: u64,
    /// The verdict.
    pub gate: Gate,
}

/// Populating a hinted aligned region must take at least this many times
/// fewer faults than the 4 KiB path (acceptance bar; the actual ratio is
/// the full 512 when every block folds).
pub const HUGE_FAULT_RATIO_FLOOR: f64 = 8.0;

/// Evaluates the huge-mapping gate from a hinted/unhinted pair.
///
/// Conditions:
/// 1. faults(4 KiB) / faults(huge) ≥ [`HUGE_FAULT_RATIO_FLOOR`];
/// 2. hinted `index_bytes` strictly smaller than unhinted (the fold
///    survives population instead of expanding into 512 leaf copies);
/// 3. the hinted run actually installed superpages.
pub fn check_gate(huge: &HugePoint, four_k: &HugePoint) -> HugeGateReport {
    let fault_ratio = if huge.faults == 0 {
        f64::INFINITY
    } else {
        four_k.faults as f64 / huge.faults as f64
    };
    let mut gate = Gate::new("HUGE-MAPPING");
    if fault_ratio < HUGE_FAULT_RATIO_FLOOR {
        gate.fail(format!(
            "fault ratio {fault_ratio:.1} ({} vs {}) < floor {HUGE_FAULT_RATIO_FLOOR}",
            four_k.faults, huge.faults
        ));
    }
    if huge.index_bytes >= four_k.index_bytes {
        gate.fail(format!(
            "hinted index bytes {} not strictly smaller than 4 KiB {}",
            huge.index_bytes, four_k.index_bytes
        ));
    }
    if huge.superpage_installs == 0 {
        gate.fail("hinted run installed no superpages");
    }
    HugeGateReport {
        blocks: huge.blocks,
        faults_4k: four_k.faults,
        faults_huge: huge.faults,
        fault_ratio,
        index_bytes_4k: four_k.index_bytes,
        index_bytes_huge: huge.index_bytes,
        superpage_installs: huge.superpage_installs,
        gate,
    }
}

/// Blocks per run: trimmed for `--quick` CI smoke runs.
pub fn huge_blocks() -> u64 {
    if crate::quick() {
        2
    } else {
        8
    }
}

/// Runs the gated backend (full RadixVM) hinted and unhinted and
/// evaluates the gate (entry point for the unit test and `bench_huge`).
pub fn run_gate(blocks: u64) -> HugeGateReport {
    let huge = populate_point(BackendKind::Radix, true, blocks);
    let four_k = populate_point(BackendKind::Radix, false, blocks);
    check_gate(&huge, &four_k)
}

// --- Demote-then-converge: the promotion gate (DESIGN.md §12) ---

/// A converged (promoted) address space may cost at most this factor
/// more than one that never demoted, in probe faults and index bytes.
pub const CONVERGE_RATIO_CEIL: f64 = 1.25;

/// The demote-then-converge verdict: does opportunistic promotion
/// actually recover folded-state faults and index size?
#[derive(Clone, Debug)]
pub struct ConvergeReport {
    /// 2 MiB blocks in the run.
    pub blocks: u64,
    /// Demotions taken by the mprotect round-trips (one per block).
    pub demotions: u64,
    /// Promotions the fault path's fill counters triggered.
    pub promotions: u64,
    /// Faults the convergence sweep itself took (the promotion price:
    /// ~threshold faults per block, then the span entry serves the rest).
    pub converge_faults: u64,
    /// Fresh-core probe faults after convergence (1 per block when the
    /// fold is back; 512 per block if promotion failed).
    pub probe_faults: u64,
    /// Fresh-core probe faults on the never-demoted baseline.
    pub probe_faults_baseline: u64,
    /// Index bytes after convergence (severed leaves drained).
    pub index_bytes: u64,
    /// Index bytes of the never-demoted baseline.
    pub index_bytes_baseline: u64,
    /// The verdict.
    pub gate: Gate,
}

/// One populate-(demote-converge)-probe run on full RadixVM: two
/// simulated cores, core 0 drives, core 1 probes at the end. Returns
/// (probe faults, index bytes, promotions, demotions, converge faults).
fn converge_run(demote: bool, blocks: u64) -> (u64, u64, u64, u64, u64) {
    let _guard = sim::install(2, CostModel::default());
    sim::switch(0);
    let machine = Machine::new(2);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    vm.attach_core(1);
    vm.mmap_flags(
        0,
        HUGE_BASE,
        blocks * BLOCK_BYTES,
        Prot::RW,
        Backing::Anon,
        MapFlags::HUGE,
    )
    .expect("mmap");
    for page in 0..blocks * BLOCK_PAGES {
        machine
            .touch_page(0, &*vm, HUGE_BASE + page * PAGE_SIZE, 1)
            .expect("populate");
    }
    let mut converge_faults = 0;
    if demote {
        // Demote every block with a sub-block protection round-trip
        // (revoke-and-restore, e.g. a GC write barrier), then touch the
        // whole region again: the fill counters re-fold each block from
        // the fault path — no background thread.
        for b in 0..blocks {
            let base = HUGE_BASE + b * BLOCK_BYTES;
            vm.mprotect(0, base, 8 * PAGE_SIZE, Prot::READ)
                .expect("revoke");
            vm.mprotect(0, base, 8 * PAGE_SIZE, Prot::RW)
                .expect("restore");
        }
        let faults0 = {
            let st = vm.op_stats();
            st.faults_alloc + st.faults_fill + st.faults_cow
        };
        for page in 0..blocks * BLOCK_PAGES {
            machine
                .touch_page(0, &*vm, HUGE_BASE + page * PAGE_SIZE, 2)
                .expect("converge");
        }
        let st = vm.op_stats();
        converge_faults = st.faults_alloc + st.faults_fill + st.faults_cow - faults0;
    }
    // Drain deferred reclamation (severed leaves, surrendered refs) so
    // the index measurement reflects the converged steady state.
    vm.quiesce();
    let index_bytes = vm.space_usage().index_bytes;
    let faults0 = {
        let st = vm.op_stats();
        st.faults_alloc + st.faults_fill + st.faults_cow
    };
    for page in 0..blocks * BLOCK_PAGES {
        machine
            .touch_page(1, &*vm, HUGE_BASE + page * PAGE_SIZE, 3)
            .expect("probe");
    }
    let st = vm.op_stats();
    let probe_faults = st.faults_alloc + st.faults_fill + st.faults_cow - faults0;
    (
        probe_faults,
        index_bytes,
        st.superpage_promotions,
        st.superpage_demotions,
        converge_faults,
    )
}

/// Runs the demote-then-converge workload against a never-demoted
/// baseline and evaluates the promotion gate:
///
/// 1. the fill counters actually promoted (one per demoted block);
/// 2. a fresh core's probe faults are within [`CONVERGE_RATIO_CEIL`] of
///    the never-demoted run (the span fault path is back);
/// 3. index bytes are within [`CONVERGE_RATIO_CEIL`] of the
///    never-demoted run (the 512 leaf copies re-folded and freed).
pub fn run_converge_gate(blocks: u64) -> ConvergeReport {
    let (probe_b, index_b, _, _, _) = converge_run(false, blocks);
    let (probe, index, promotions, demotions, converge_faults) = converge_run(true, blocks);
    let mut gate = Gate::new("PROMOTION");
    if promotions < blocks {
        gate.fail(format!(
            "only {promotions}/{blocks} demoted blocks promoted back"
        ));
    }
    if (probe as f64) > probe_b as f64 * CONVERGE_RATIO_CEIL {
        gate.fail(format!(
            "post-promotion probe faults {probe} exceed {CONVERGE_RATIO_CEIL}x \
             never-demoted {probe_b}"
        ));
    }
    if (index as f64) > index_b as f64 * CONVERGE_RATIO_CEIL {
        gate.fail(format!(
            "post-promotion index bytes {index} exceed {CONVERGE_RATIO_CEIL}x \
             never-demoted {index_b}"
        ));
    }
    ConvergeReport {
        blocks,
        demotions,
        promotions,
        converge_faults,
        probe_faults: probe,
        probe_faults_baseline: probe_b,
        index_bytes: index,
        index_bytes_baseline: index_b,
        gate,
    }
}

// --- The 16-core span-shootdown sweep ---

/// Cores in the shootdown sweep.
pub const SWEEP_CORES: usize = 16;

/// One point of the span-shootdown sweep.
#[derive(Clone, Debug)]
pub struct ShootdownPoint {
    /// Cores sharing the block's span TLB entry (including the driver).
    pub sharers: usize,
    /// IPIs one demote + converge + promote cycle actually sent: span
    /// protocol, one invalidation message per *sharing* core per round.
    pub span_ipis: u64,
    /// What the same cycle would send invalidating page-by-page: both
    /// span teardowns (demote and promote) priced at one message per
    /// 4 KiB entry per remote sharer.
    pub per_page_ipis: u64,
    /// Promotions observed (the cycle must re-fold the block).
    pub promotions: u64,
    /// Disjoint pages the non-sharing cores faulted during the cycle —
    /// targeted shootdown means none of them receives an IPI.
    pub bg_faults: u64,
    /// Virtual nanoseconds for the whole cycle (max over cores).
    pub virt_ns: u64,
}

/// Drives the span-shootdown sweep: on a [`SWEEP_CORES`]-core machine,
/// `sharers` cores map one hinted block into their TLBs, core 0 then
/// demotes it (protection round-trip) and promotes it back through the
/// fault path, while every non-sharing core faults disjoint private
/// pages. Records the actual span-invalidation IPI cost against the
/// per-page-priced equivalent, per sharer count.
pub fn shootdown_sweep() -> Vec<ShootdownPoint> {
    let mut points = Vec::new();
    for sharers in [1usize, 2, 4, 8, SWEEP_CORES] {
        let guard = sim::install(SWEEP_CORES, CostModel::default());
        sim::switch(0);
        let machine = Machine::new(SWEEP_CORES);
        let vm = build(&machine, BackendKind::Radix);
        for c in 0..SWEEP_CORES {
            vm.attach_core(c);
        }
        vm.mmap_flags(
            0,
            HUGE_BASE,
            BLOCK_BYTES,
            Prot::RW,
            Backing::Anon,
            MapFlags::HUGE,
        )
        .expect("mmap");
        // Private disjoint regions for the background cores.
        const BG_PAGES: u64 = 64;
        let bg_base = |c: usize| HUGE_BASE + (1 + c as u64) * (1 << 30);
        for c in sharers..SWEEP_CORES {
            sim::switch(c);
            vm.mmap(
                c,
                bg_base(c),
                2 * BG_PAGES * PAGE_SIZE,
                Prot::RW,
                Backing::Anon,
            )
            .expect("bg mmap");
        }
        // Every sharer pulls the span entry into its TLB.
        for c in 0..sharers {
            sim::switch(c);
            machine.touch_page(c, &*vm, HUGE_BASE, 1).expect("share");
        }
        sim::switch(0);
        let ipis0 = machine.stats().shootdown_ipis;
        let promotions0 = vm.op_stats().superpage_promotions;
        let clock0 = (0..SWEEP_CORES).map(sim::clock).max().unwrap();
        let mut bg_faults = 0u64;
        let mut bg_batch = |phase: u64| {
            for c in sharers..SWEEP_CORES {
                sim::switch(c);
                for p in 0..BG_PAGES {
                    machine
                        .touch_page(c, &*vm, bg_base(c) + (phase * BG_PAGES + p) * PAGE_SIZE, 1)
                        .expect("bg touch");
                    bg_faults += 1;
                }
            }
            sim::switch(0);
        };
        // Demote: span shootdown to the sharing cores only.
        vm.mprotect(0, HUGE_BASE, 8 * PAGE_SIZE, Prot::READ)
            .expect("revoke");
        vm.mprotect(0, HUGE_BASE, 8 * PAGE_SIZE, Prot::RW)
            .expect("restore");
        bg_batch(0);
        // Converge: the fill counter promotes the block back; the refold
        // shoots the 4 KiB entries down, again span-priced.
        for page in 0..BLOCK_PAGES {
            machine
                .touch_page(0, &*vm, HUGE_BASE + page * PAGE_SIZE, 2)
                .expect("converge");
        }
        bg_batch(1);
        let span_ipis = machine.stats().shootdown_ipis - ipis0;
        let promotions = vm.op_stats().superpage_promotions - promotions0;
        let virt_ns = (0..SWEEP_CORES).map(sim::clock).max().unwrap() - clock0;
        let per_page_ipis = 2 * (sharers as u64 - 1) * BLOCK_PAGES;
        drop(vm);
        let _ = guard.finish();
        points.push(ShootdownPoint {
            sharers,
            span_ipis,
            per_page_ipis,
            promotions,
            bg_faults,
            virt_ns,
        });
    }
    points
}

/// Sanity conditions for the sweep (CI smoke): every point promoted,
/// and with remote sharers the span protocol beat per-page pricing.
pub fn check_sweep(points: &[ShootdownPoint]) -> Gate {
    let mut gate = Gate::new("SHOOTDOWN SWEEP");
    for p in points {
        if p.promotions == 0 {
            gate.fail(format!("{} sharers: no promotion", p.sharers));
        }
        if p.sharers > 1 && p.span_ipis >= p.per_page_ipis {
            gate.fail(format!(
                "{} sharers: span shootdown sent {} IPIs, not fewer than \
                 per-page {}",
                p.sharers, p.span_ipis, p.per_page_ipis
            ));
        }
    }
    gate
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in huge-mapping gate: populating an aligned
    /// 2 MiB-hinted region takes ≥ 8× fewer faults (actually 512×) and
    /// strictly less index memory than 4 KiB mappings. Deterministic.
    #[test]
    fn huge_mapping_gate() {
        let report = run_gate(2);
        assert!(report.gate.passed(), "{}", report.gate);
        // The ratio is not marginal: one fault per block.
        assert_eq!(report.faults_huge, report.blocks);
        assert_eq!(report.faults_4k, report.blocks * BLOCK_PAGES);
    }

    #[test]
    fn hint_is_harmless_on_every_backend() {
        // Every backend completes the hinted populate; results match the
        // unhinted run page-for-page (faults may differ, contents not).
        for kind in BackendKind::ALL {
            let p = populate_point(kind, true, 1);
            assert_eq!(p.pages(), BLOCK_PAGES, "{kind}");
            assert!(p.faults >= 1, "{kind}");
        }
    }

    #[test]
    fn hint_ignoring_backends_match_their_4k_run() {
        // The dedup in `bench_huge` is sound: a hint-ignoring backend
        // produces identical points hinted and unhinted.
        for kind in BackendKind::ALL {
            if kind.is_radix() {
                continue;
            }
            let hinted = populate_point(kind, true, 1);
            let plain = populate_point(kind, false, 1);
            assert_eq!(hinted.faults, plain.faults, "{kind}");
            assert_eq!(hinted.index_bytes, plain.index_bytes, "{kind}");
            assert_eq!(hinted.superpage_installs, 0, "{kind}");
        }
    }

    /// The checked-in promotion gate: after demoting every block and
    /// re-touching, the fill counters promote each block back, and a
    /// fresh core pays span-fault prices again. Deterministic.
    #[test]
    fn promotion_gate() {
        let report = run_converge_gate(2);
        assert!(report.gate.passed(), "{}", report.gate);
        assert_eq!(report.demotions, report.blocks);
        assert_eq!(report.promotions, report.blocks);
        // The probe is not marginal: one fault per block on both sides.
        assert_eq!(report.probe_faults, report.probe_faults_baseline);
    }

    #[test]
    fn shootdown_sweep_spans_beat_per_page() {
        let points = shootdown_sweep();
        assert_eq!(points.len(), 5);
        let gate = check_sweep(&points);
        assert!(gate.passed(), "{gate}");
        // Background cores never stall: every disjoint fault completed.
        for p in &points {
            assert_eq!(
                p.bg_faults,
                2 * 64 * (SWEEP_CORES - p.sharers) as u64,
                "{} sharers",
                p.sharers
            );
        }
    }
}
