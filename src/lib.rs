//! RadixVM: scalable address spaces for multithreaded applications.
//!
//! A comprehensive Rust reproduction of Clements, Kaashoek & Zeldovich,
//! ["RadixVM: Scalable address spaces for multithreaded applications"]
//! (EuroSys 2013): the radix-tree virtual memory system, Refcache, and
//! targeted TLB shootdown, together with every substrate and baseline the
//! paper's evaluation depends on, and a benchmark harness regenerating
//! each of its tables and figures.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`sync`] — instrumented synchronization + virtual-time multicore
//!   simulator,
//! * [`refcache`] — scalable lazy reference counting (+SNZI, shared
//!   counter baselines),
//! * [`mem`] — physical frame pool,
//! * [`hw`] — machine, TLBs, page tables, MMU abstraction, shootdown,
//! * [`radix`] — the range-locked, folding radix tree,
//! * [`core_vm`] — the RadixVM address space (mmap/munmap/pagefault,
//!   mprotect, fork with copy-on-write),
//! * [`baselines`] — Linux-style and Bonsai-style VMs, lock-free skip
//!   list,
//! * [`backend`] — the backend layer: [`BackendKind`] + [`build`], the
//!   one seam through which every VM system is constructed, and
//!   [`BackendKind::radix_config`], the one table of RadixVM's ablations,
//! * [`metis`] — MapReduce workload with a VM-backed allocator.
//!
//! # Quickstart
//!
//! Every VM system — RadixVM, its ablations, the baselines — is built
//! through the backend layer and driven through the `VmSystem` trait:
//!
//! ```
//! use radixvm::backend::{build, BackendKind};
//! use radixvm::hw::{Backing, Machine, Prot, PAGE_SIZE};
//!
//! let machine = Machine::new(8);
//! let vm = build(&machine, BackendKind::Radix);
//! vm.attach_core(0);
//! vm.mmap(0, 0x1000_0000, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
//!     .unwrap();
//! machine.write_u64(0, &*vm, 0x1000_0000, 7).unwrap();
//! assert_eq!(machine.read_u64(0, &*vm, 0x1000_0000).unwrap(), 7);
//! vm.munmap(0, 0x1000_0000, 16 * PAGE_SIZE).unwrap();
//!
//! // Same code, different backend:
//! let vm = build(&machine, BackendKind::Linux);
//! assert_eq!(vm.name(), "Linux");
//! ```
//!
//! ["RadixVM: Scalable address spaces for multithreaded applications"]:
//! https://pdos.csail.mit.edu/papers/radixvm:eurosys13.pdf

pub use rvm_backend as backend;
pub use rvm_baselines as baselines;
pub use rvm_core as core_vm;
pub use rvm_hw as hw;
pub use rvm_mem as mem;
pub use rvm_metis as metis;
pub use rvm_radix as radix;
pub use rvm_refcache as refcache;
pub use rvm_sync as sync;

pub use rvm_backend::{build, BackendKind};
