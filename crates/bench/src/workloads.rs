//! The paper's three microbenchmark workloads (§5.1).
//!
//! * **local** — each core repeatedly mmaps a private 4 KB region in the
//!   shared address space, writes it, and munmaps it (the per-thread
//!   memory-pool pattern of concurrent allocators).
//! * **pipeline** — each core mmaps a region, writes it, and passes it to
//!   the next core, which writes it again and munmaps it (streaming /
//!   Map→Reduce handoff).
//! * **global** — each core mmaps a 64 KB slice of one large shared
//!   region; all cores then write every page of the whole region in a
//!   random order (shared library / shared hash table).
//!
//! Each workload is expressed as a per-core closure for
//! [`crate::run_sim`]; closures count *pages written* (Figure 5's
//! y-axis) and run Refcache maintenance every few hundred operations, as
//! a kernel timer tick would.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use rvm_hw::{Backing, Machine, Prot, VmSystem, PAGE_SIZE};
use rvm_sync::sim;

/// Virtual-address region bases keep workloads clear of each other.
const LOCAL_BASE: u64 = 0x200_0000_0000;
const PIPE_BASE: u64 = 0x300_0000_0000;
const GLOBAL_BASE: u64 = 0x400_0000_0000;
const CONTENDED_BASE: u64 = 0x500_0000_0000;
const OVERLAP_BASE: u64 = 0x600_0000_0000;
/// Base of the index-churn region; its VPN is 2^18-aligned, so the
/// whole region sits under a single level-2 interior node of the radix
/// tree and the churned sibling slot is block-aligned.
const INDEX_BASE: u64 = 0x700_0000_0000;

/// Operations between Refcache maintenance ticks.
const MAINTAIN_EVERY: u64 = 128;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the **local** workload closure for one core.
///
/// One op = mmap 4 KB + write the page + munmap (3 syscalls, 1 fault).
pub fn local(machine: Arc<Machine>, vm: Arc<dyn VmSystem>, core: usize) -> Box<dyn FnMut() -> u64> {
    vm.attach_core(core);
    // Each core cycles through a few slots of its private gigabyte.
    let base = LOCAL_BASE + core as u64 * (1 << 30);
    let mut i = 0u64;
    Box::new(move || {
        let addr = base + (i % 64) * PAGE_SIZE;
        i += 1;
        vm.mmap(core, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
            .expect("mmap");
        machine
            .touch_page(core, &*vm, addr, i as u8)
            .expect("touch");
        vm.munmap(core, addr, PAGE_SIZE).expect("munmap");
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(core);
        }
        1
    })
}

/// Builds the **contended** workload closure for one core: every core
/// hammers the *same* 4-page range — the adversarial inverse of `local`,
/// where all mutations serialize on one range lock and every remap must
/// shoot down whichever cores faulted the pages. No design scales this
/// (the operations genuinely conflict); the question the sweep answers
/// is whether throughput *degrades gracefully* toward the serial rate
/// instead of collapsing below it under coherence and IPI storms.
///
/// One cycle = touch all 4 pages; every [`CONTENDED_REMAP_EVERY`]-th
/// cycle additionally remaps the range (munmap + mmap). The mapping
/// *persists across cycles*: under the op-at-a-time simulator, TLB
/// residency on a remote core can only exist if a mapping outlives the
/// op that faulted it. The previous shape of this workload (mmap →
/// touch → munmap every cycle) privatized the range each op, so the
/// munmap's fault-coreset was always `{self}` and the sweep measured
/// `ipis_per_op = 0` — targeted shootdown had nothing to shoot. With a
/// persistent mapping, other cores' touches accumulate in the per-page
/// coresets and the periodic remap pays the real multi-target IPI bill.
///
/// Errors are tolerated (another core may remap the range mid-cycle
/// under real threads); a cycle counts once either way.
pub fn contended(
    machine: Arc<Machine>,
    vm: Arc<dyn VmSystem>,
    core: usize,
) -> Box<dyn FnMut() -> u64> {
    vm.attach_core(core);
    const PAGES: u64 = 4;
    let mut i = 0u64;
    Box::new(move || {
        i += 1;
        if i % CONTENDED_REMAP_EVERY == 1 {
            let _ = vm.munmap(core, CONTENDED_BASE, PAGES * PAGE_SIZE);
            let _ = vm.mmap(
                core,
                CONTENDED_BASE,
                PAGES * PAGE_SIZE,
                Prot::RW,
                Backing::Anon,
            );
        }
        for p in 0..PAGES {
            let _ = machine.touch_page(core, &*vm, CONTENDED_BASE + p * PAGE_SIZE, core as u8);
        }
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(core);
        }
        1
    })
}

/// Cycles between remaps of the contended range (per core). Tuned so
/// shootdown IPIs are a steady presence in the sweep without the IPI
/// bill alone dwarfing the serialized work the gate compares against.
pub const CONTENDED_REMAP_EVERY: u64 = 16;

/// Pages per overlap-workload operation (large enough that the range is
/// unambiguously multi-page, so the List substrate fronts it).
pub const OVERLAP_PAGES: u64 = 16;

/// Builds the **overlap** workload closure for one core: each op mmaps,
/// touches, and munmaps a [`OVERLAP_PAGES`]-page range, and with
/// probability `degree`% that range is the *shared* slice every core
/// collides on (otherwise a private, per-core slice). `degree = 0` is
/// pure disjoint multi-page traffic — the scaling case the list-based
/// range lock must not tax; `degree = 100` makes every op conflict —
/// the serialization case it must degrade gracefully on. Intermediate
/// degrees dial contention continuously between the two.
///
/// Only the first page is written: the point of the workload is the
/// multi-page *lock* traffic, not page-fill work.
///
/// Errors are tolerated (cores racing on the shared slice legitimately
/// observe each other's unmaps under real threads); a cycle counts once
/// either way.
pub fn overlap(
    machine: Arc<Machine>,
    vm: Arc<dyn VmSystem>,
    core: usize,
    degree: u32,
) -> Box<dyn FnMut() -> u64> {
    assert!(degree <= 100, "overlap degree is a percentage");
    vm.attach_core(core);
    let shared = OVERLAP_BASE;
    let private = OVERLAP_BASE + (core as u64 + 1) * (1 << 30);
    let mut rng = splitmix((core as u64) << 32 | (degree as u64 + 1));
    let mut i = 0u64;
    Box::new(move || {
        i += 1;
        rng = splitmix(rng);
        let base = if rng % 100 < degree as u64 {
            shared
        } else {
            // Cycle a few private slots so the tree sees churn, not one
            // hot leaf.
            private + (i % 8) * OVERLAP_PAGES * PAGE_SIZE
        };
        let _ = vm.mmap(
            core,
            base,
            OVERLAP_PAGES * PAGE_SIZE,
            Prot::RW,
            Backing::Anon,
        );
        let _ = machine.touch_page(core, &*vm, base, core as u8);
        let _ = vm.munmap(core, base, OVERLAP_PAGES * PAGE_SIZE);
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(core);
        }
        1
    })
}

/// Leaf blocks the index-churn readers cycle through (interior slots
/// 0..7 of one level-2 node; slot words 0..7 share one cache line).
pub const INDEX_CHURN_SLOTS: u64 = 7;
/// Pages per level-2 interior slot (the radix fanout).
pub const INDEX_SLOT_PAGES: u64 = 512;
/// Reader ops between the writer's fold/clear churns of the sibling
/// slot.
pub const INDEX_CHURN_EVERY: u64 = 8;

/// Builds the **index-churn** workload closure for one core: the
/// adversarial read-mostly pattern replicate-read-only placement exists
/// for. All cores fault pages cycling across [`INDEX_CHURN_SLOTS`] leaf
/// blocks that live under *one* level-2 interior node of the radix tree
/// — a different block every op. The seven blocks fit a core's hint
/// set, so after the first lap a fault does not descend, but every
/// fault still reads its block's slot word in that interior node (the
/// hinted path's linkage check, and the descents after each flush;
/// words 0..7 share one cache line). Core 0 additionally mmaps + munmaps the
/// empty block-aligned sibling slot 7 every [`INDEX_CHURN_EVERY`]-th
/// op: the fold install and clear *write* that same line, forcing every
/// reader's next fault to re-fetch it. Under first-touch the line
/// lives on one node and remote readers pay a cross-node transfer per
/// churn; with replicated index nodes the reads stay node-local and
/// only the writer pays a broadcast invalidation.
///
/// Core 0's first op maps the shared read region (the simulator drives
/// core 0 first at virtual time zero, so the mapping exists before any
/// reader touches it); faults before/during remaps are tolerated.
pub fn index_churn(
    machine: Arc<Machine>,
    vm: Arc<dyn VmSystem>,
    core: usize,
) -> Box<dyn FnMut() -> u64> {
    vm.attach_core(core);
    let churn_base = INDEX_BASE + INDEX_CHURN_SLOTS * INDEX_SLOT_PAGES * PAGE_SIZE;
    let mut i = 0u64;
    let mut mapped = false;
    Box::new(move || {
        i += 1;
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(core);
        }
        if !mapped {
            mapped = true;
            if core == 0 {
                vm.mmap(
                    core,
                    INDEX_BASE,
                    INDEX_CHURN_SLOTS * INDEX_SLOT_PAGES * PAGE_SIZE,
                    Prot::RW,
                    Backing::Anon,
                )
                .expect("mmap index region");
                return 0;
            }
        }
        if core == 0 && i.is_multiple_of(INDEX_CHURN_EVERY) {
            // Fold and clear the sibling slot: two writes to the
            // interior node's slot-word line.
            let _ = vm.mmap(
                core,
                churn_base,
                INDEX_SLOT_PAGES * PAGE_SIZE,
                Prot::RW,
                Backing::Anon,
            );
            let _ = vm.munmap(core, churn_base, INDEX_SLOT_PAGES * PAGE_SIZE);
            return 1;
        }
        // Read path: a different leaf block every op defeats the leaf
        // hint, so the descent reads the interior slot words each time.
        let slot = i % INDEX_CHURN_SLOTS;
        let page = (i / INDEX_CHURN_SLOTS) % INDEX_SLOT_PAGES;
        let addr = INDEX_BASE + (slot * INDEX_SLOT_PAGES + page) * PAGE_SIZE;
        let _ = machine.touch_page(core, &*vm, addr, core as u8);
        1
    })
}

/// Shared state for the pipeline workload: one handoff queue per core.
pub struct PipelineQueues {
    queues: Vec<RefCell<VecDeque<u64>>>,
    cap: usize,
}

impl PipelineQueues {
    /// Creates queues for `ncores` cores.
    pub fn new(ncores: usize) -> Rc<PipelineQueues> {
        Rc::new(PipelineQueues {
            queues: (0..ncores).map(|_| RefCell::new(VecDeque::new())).collect(),
            cap: 4,
        })
    }
}

/// Builds the **pipeline** workload closure for one core.
///
/// Each op either produces (mmap + write + hand to the next core) or
/// consumes (write + munmap) a 4 KB region. Queues are bounded so the
/// pipeline stays coupled.
pub fn pipeline(
    machine: Arc<Machine>,
    vm: Arc<dyn VmSystem>,
    queues: Rc<PipelineQueues>,
    core: usize,
    ncores: usize,
) -> Box<dyn FnMut() -> u64> {
    vm.attach_core(core);
    let base = PIPE_BASE + core as u64 * (1 << 30);
    let mut i = 0u64;
    // Separate produce counter: region slots must only advance when a
    // region is actually produced, or a backed-up pipeline could remap a
    // slot that is still queued downstream.
    let mut produced = 0u64;
    Box::new(move || {
        i += 1;
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(core);
        }
        // Prefer consuming a region handed to us.
        let handed = queues.queues[core].borrow_mut().pop_front();
        if let Some(addr) = handed {
            machine
                .touch_page(core, &*vm, addr, core as u8)
                .expect("touch");
            vm.munmap(core, addr, PAGE_SIZE).expect("munmap");
            return 1;
        }
        // Otherwise produce one for the next core, if there is room.
        let next = (core + 1) % ncores;
        if queues.queues[next].borrow().len() >= queues.cap {
            // Downstream is backed up; model a brief poll.
            sim::charge(200);
            return 0;
        }
        produced += 1;
        let addr = base + (produced % 64) * PAGE_SIZE;
        vm.mmap(core, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
            .expect("mmap");
        machine
            .touch_page(core, &*vm, addr, core as u8)
            .expect("touch");
        queues.queues[next].borrow_mut().push_back(addr);
        1
    })
}

/// Builds the **global** workload closure for one core.
///
/// Setup: the core mmaps its 64 KB slice of the shared region. Steady
/// state: every op writes one random page of the whole region (which is
/// `16 × ncores` pages). Slices are remapped periodically so munmap and
/// its shootdowns stay in the mix, as in the paper's description.
pub fn global(
    machine: Arc<Machine>,
    vm: Arc<dyn VmSystem>,
    core: usize,
    ncores: usize,
) -> Box<dyn FnMut() -> u64> {
    vm.attach_core(core);
    const SLICE_PAGES: u64 = 16; // 64 KB
    let slice = GLOBAL_BASE + core as u64 * SLICE_PAGES * PAGE_SIZE;
    let total_pages = SLICE_PAGES * ncores as u64;
    let mut rng = splitmix(core as u64 + 7);
    let mut i = 0u64;
    let mut mapped = false;
    // Remap own slice every this many writes (keeps munmap in the mix
    // at a rate that amortizes like the paper's: the shared region is
    // large relative to map/unmap traffic).
    let remap_every = total_pages * 4;
    Box::new(move || {
        i += 1;
        if i.is_multiple_of(MAINTAIN_EVERY) {
            vm.maintain(core);
        }
        if !mapped {
            vm.mmap(
                core,
                slice,
                SLICE_PAGES * PAGE_SIZE,
                Prot::RW,
                Backing::Anon,
            )
            .expect("mmap slice");
            mapped = true;
            return 0;
        }
        if i.is_multiple_of(remap_every) {
            vm.munmap(core, slice, SLICE_PAGES * PAGE_SIZE)
                .expect("munmap");
            mapped = false;
            return 0;
        }
        rng = splitmix(rng);
        let page = rng % total_pages;
        let addr = GLOBAL_BASE + page * PAGE_SIZE;
        match machine.touch_page(core, &*vm, addr, core as u8) {
            Ok(()) => 1,
            // Another core's slice is mid-remap; skip this write.
            Err(_) => {
                sim::charge(100);
                0
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, run_sim, BackendKind};
    use rvm_sync::CostModel;

    fn radix_vm(ncores: usize) -> (Arc<Machine>, Arc<dyn VmSystem>) {
        let machine = Machine::new(ncores);
        let vm = build(&machine, BackendKind::Radix);
        (machine, vm)
    }

    #[test]
    fn local_scales_on_radixvm() {
        let (m1, v1) = radix_vm(1);
        let p1 = run_sim(1, 2_000_000, CostModel::default(), |c| {
            local(m1.clone(), v1.clone(), c)
        });
        let (m8, v8) = radix_vm(8);
        let p8 = run_sim(8, 2_000_000, CostModel::default(), |c| {
            local(m8.clone(), v8.clone(), c)
        });
        let speedup = p8.per_sec() / p1.per_sec();
        assert!(speedup > 6.0, "local must scale near-linearly: {speedup}");
        // And with zero shootdown IPIs.
        assert_eq!(m8.stats().shootdown_ipis, 0);
    }

    #[test]
    fn pipeline_produces_and_consumes() {
        let (m, v) = radix_vm(4);
        let queues = PipelineQueues::new(4);
        let p = run_sim(4, 2_000_000, CostModel::default(), |c| {
            pipeline(m.clone(), v.clone(), queues.clone(), c, 4)
        });
        assert!(p.units > 100, "pipeline made progress: {}", p.units);
        // Every munmap of a handed-off page shoots exactly one remote TLB.
        assert!(m.stats().shootdown_ipis > 0);
        assert!(m.stats().shootdown_ipis <= m.stats().shootdown_rounds);
    }

    /// The reason `ipis_per_op` was 0 before the contended rework: TLB
    /// residency on a remote core requires a mapping that outlives the
    /// op that faulted it. The persistent-mapping shape must make the
    /// periodic remaps actually shoot down remote TLBs.
    #[test]
    fn contended_remaps_send_ipis() {
        let (m, v) = radix_vm(4);
        let p = run_sim(4, 2_000_000, CostModel::default(), |c| {
            contended(m.clone(), v.clone(), c)
        });
        assert!(p.units > 0, "no contended progress");
        assert!(
            m.stats().shootdown_ipis > 0,
            "contended remaps sent no IPIs — the mapping is not persisting across ops"
        );
    }

    #[test]
    fn overlap_extremes_behave() {
        // Degree 0: disjoint multi-page ops, no shootdown traffic.
        let (m0, v0) = radix_vm(4);
        let p0 = run_sim(4, 2_000_000, CostModel::default(), |c| {
            overlap(m0.clone(), v0.clone(), c, 0)
        });
        assert!(p0.units > 100, "0% overlap made progress: {}", p0.units);
        assert_eq!(m0.stats().shootdown_ipis, 0, "disjoint overlap sent IPIs");
        // Degree 100: every op collides on the shared slice, yet each
        // cycle still completes.
        let (m1, v1) = radix_vm(4);
        let p1 = run_sim(4, 2_000_000, CostModel::default(), |c| {
            overlap(m1.clone(), v1.clone(), c, 100)
        });
        assert!(p1.units > 0, "100% overlap made no progress");
    }

    #[test]
    fn global_touches_shared_region() {
        let (m, v) = radix_vm(4);
        let p = run_sim(4, 2_000_000, CostModel::default(), |c| {
            global(m.clone(), v.clone(), c, 4)
        });
        assert!(p.units > 100, "global made progress: {}", p.units);
    }
}
