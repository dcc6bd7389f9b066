//! The backend layer: every VM system in the workspace behind one enum,
//! one factory, and one table of RadixVM's ablations.
//!
//! The paper's evaluation compares RadixVM (and three ablations of it)
//! against Linux-style and Bonsai-style baselines. This crate makes the
//! set of backends a first-class concept:
//!
//! * [`BackendKind`] — the closed set of VM systems,
//! * [`BackendKind::radix_config`] — the one table of RadixVM's
//!   variants: each ablation is a [`RadixVmConfig`] with one field
//!   changed, and its display name is that config's,
//! * [`build`] — the one factory producing an `Arc<dyn VmSystem>`,
//! * [`ToyVm`] — the simplest possible correct backend, kept as the
//!   reference implementation of the [`VmSystem`] contract and as the
//!   conformance suite's baseline.
//!
//! Everything outside this crate — bench binaries, workloads,
//! integration tests, examples — goes through [`BackendKind`] and
//! [`build`]; no other code constructs a concrete VM type. New backends
//! (sharded, async, alternative range locks) plug in here.

pub mod toy;

use std::sync::Arc;

use rvm_baselines::{BonsaiVm, LinuxVm};
use rvm_core::{RadixVm, RadixVmConfig};
use rvm_hw::{Machine, MmuKind, VmSystem};
use rvm_sync::RangeLockKind;

pub use toy::ToyVm;

/// The VM systems under test.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BackendKind {
    /// RadixVM, full design (per-core tables, collapse on).
    Radix,
    /// RadixVM with a shared page table (Figure 9 ablation).
    RadixSharedPt,
    /// RadixVM without radix-node collapsing (paper's prototype config).
    RadixNoCollapse,
    /// RadixVM with multi-page range locks realized purely by slot CAS
    /// spinning (no list-based range lock; the original substrate).
    RadixSlotSpin,
    /// The Linux baseline (address-space lock, shared table, broadcast).
    Linux,
    /// The Bonsai baseline (lock-free faults, serialized mutations).
    Bonsai,
    /// The reference backend: one big lock, per-page map ([`ToyVm`]).
    Toy,
}

impl BackendKind {
    /// Every backend, in the order tables and sweeps present them.
    pub const ALL: [BackendKind; 7] = [
        BackendKind::Radix,
        BackendKind::RadixSharedPt,
        BackendKind::RadixNoCollapse,
        BackendKind::RadixSlotSpin,
        BackendKind::Linux,
        BackendKind::Bonsai,
        BackendKind::Toy,
    ];

    /// The one table of RadixVM's variants: the configuration each
    /// RadixVM kind builds, `None` for the baselines. Each ablation is
    /// the full design with one field changed.
    pub fn radix_config(self) -> Option<RadixVmConfig> {
        let full = RadixVmConfig::default();
        match self {
            BackendKind::Radix => Some(full),
            BackendKind::RadixSharedPt => Some(RadixVmConfig {
                mmu: MmuKind::Shared,
                ..full
            }),
            BackendKind::RadixNoCollapse => Some(RadixVmConfig {
                collapse: false,
                ..full
            }),
            BackendKind::RadixSlotSpin => Some(RadixVmConfig {
                range_lock: RangeLockKind::SlotSpin,
                ..full
            }),
            BackendKind::Linux | BackendKind::Bonsai | BackendKind::Toy => None,
        }
    }

    /// Whether this is a RadixVM variant. Exactly these act on the
    /// [`rvm_hw::MapFlags::HUGE`] hint (the others behave identically
    /// hinted and unhinted, so sweeps that vary the hint need one run
    /// for them) and implement fork.
    pub fn is_radix(self) -> bool {
        self.radix_config().is_some()
    }

    /// Display name (matches the paper's figure legends).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Linux => "Linux",
            BackendKind::Bonsai => "Bonsai",
            BackendKind::Toy => "Toy",
            radix => radix.radix_config().expect("a RadixVM kind").name(),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Instantiates a VM system of the given kind on `machine`.
///
/// This is the only constructor of concrete VM types outside their own
/// crates; everything else in the workspace goes through it.
pub fn build(machine: &Arc<Machine>, kind: BackendKind) -> Arc<dyn VmSystem> {
    match kind {
        BackendKind::Linux => LinuxVm::new(machine.clone()),
        BackendKind::Bonsai => BonsaiVm::new(machine.clone()),
        BackendKind::Toy => ToyVm::new(machine.clone()),
        radix => RadixVm::new(
            machine.clone(),
            radix.radix_config().expect("a RadixVM kind"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_hw::{Backing, Prot, PAGE_SIZE};

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = BackendKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), BackendKind::ALL.len());
    }

    #[test]
    fn build_produces_working_backends() {
        for kind in BackendKind::ALL {
            let machine = Machine::new(2);
            let vm = build(&machine, kind);
            assert_eq!(vm.name(), kind.name());
            assert_eq!(vm.as_any().is::<RadixVm>(), kind.is_radix());
            vm.attach_core(0);
            let addr = 0x9_0000_0000u64;
            vm.mmap(0, addr, 2 * PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            machine.write_u64(0, &*vm, addr, 11).unwrap();
            assert_eq!(machine.read_u64(0, &*vm, addr).unwrap(), 11);
            vm.munmap(0, addr, 2 * PAGE_SIZE).unwrap();
            assert!(machine.read_u64(0, &*vm, addr).is_err(), "{kind}");
        }
    }
}
