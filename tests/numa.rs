//! NUMA placement-policy conformance (DESIGN.md §10).
//!
//! Frame accounting is placement-independent: after unmap, quiesce, and
//! magazine flush, `outstanding_frames() == 0` on every backend × every
//! placement policy, even when frees travel through per-node
//! reservoirs.

use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{
    Backing, Machine, MachineConfig, PlacementPolicy, Prot, VmError, VmSystem, PAGE_SIZE,
};

const BASE: u64 = 0x51_0000_0000;

const POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::FirstTouch,
    PlacementPolicy::Interleave,
    PlacementPolicy::ReplicateReadOnly,
];

/// Mixed mmap/write/read/munmap traffic from all cores on a 4-node
/// machine: frees flow through node-tagged magazines into per-node
/// reservoirs, and the pool must still account for every frame.
#[test]
fn no_policy_leaks_frames_across_nodes() {
    for kind in BackendKind::ALL {
        for policy in POLICIES {
            let ncores = 4;
            let mut cfg = MachineConfig::new(ncores);
            cfg.placement = policy;
            cfg.nnodes = 4;
            let machine = Machine::with_config(cfg);
            {
                let vm: Arc<dyn VmSystem> = build(&machine, kind);
                for core in 0..ncores {
                    vm.attach_core(core);
                }
                // Each core maps and touches its own range (first-touch
                // homes locally, interleave scatters), then unmaps half
                // and lets drop reclaim the rest.
                for core in 0..ncores {
                    let base = BASE + core as u64 * (1 << 30);
                    vm.mmap(core, base, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
                        .unwrap_or_else(|e| panic!("{kind}/{policy:?}: mmap: {e}"));
                    for p in 0..16 {
                        machine
                            .write_u64(core, &*vm, base + p * PAGE_SIZE, p)
                            .unwrap_or_else(|e| panic!("{kind}/{policy:?}: write: {e}"));
                    }
                }
                // Cross-node reads, then cross-node *frees*: each core
                // unmaps its right neighbor's range, so the freed frames
                // are homed on a different node than the freeing core.
                for core in 0..ncores {
                    let victim = (core + 1) % ncores;
                    let base = BASE + victim as u64 * (1 << 30);
                    machine
                        .read_u64(core, &*vm, base)
                        .unwrap_or_else(|e| panic!("{kind}/{policy:?}: read: {e}"));
                    vm.munmap(core, base, 8 * PAGE_SIZE)
                        .unwrap_or_else(|e| panic!("{kind}/{policy:?}: munmap: {e}"));
                    assert_eq!(
                        machine.read_u64(core, &*vm, base),
                        Err(VmError::NoMapping),
                        "{kind}/{policy:?}: page survived munmap"
                    );
                }
                vm.quiesce();
                drop(vm);
            }
            machine.pool().flush_magazines();
            assert_eq!(
                machine.pool().outstanding_frames(),
                0,
                "{kind}/{policy:?}: frames leaked across node reservoirs"
            );
        }
    }
}
