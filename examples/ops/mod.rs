//! The repo benchmark's four op workloads (`benchmark/src/workloads.rs`:
//! same constants, same picks from the same splitmix stream) as one
//! core's op stream: what `examples/hot_loop.rs` profiles and
//! `tests/locked_instructions.rs` counts locked instructions in. Not an
//! example itself; both include it as a module.
//!
//! A stream ([`Ops::on`]) is one core of a machine ([`machine`]) the
//! caller may share between streams, and every core of that machine needs
//! a stream that runs: on a two-core machine whose second core never
//! calls `maintain` the Refcache epoch never advances. A frame only the
//! ticking core added references to still comes back at its tick, but
//! radix nodes and every frame another core added to are never freed,
//! and the loop measures their growth, not the op.

use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{Asid, Backing, Machine, MapFlags, Prot, VmSystem, BLOCK_PAGES, PAGE_SIZE};

const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;
/// Each core's private gigabyte for `disjoint` and `refault`.
const PRIVATE_BASE: u64 = 0x200_0000_0000;
const PRIVATE_STRIDE: u64 = 1 << 30;
/// Page slots `disjoint` draws from, all in one leaf block.
const DISJOINT_SLOTS: usize = 64;
/// Ops between Refcache ticks (`superpage`: 8).
pub const MAINTAIN_EVERY: u64 = 128;
/// Leaf blocks `refault` maps and faults over.
const REFAULT_BLOCKS: u64 = 8;
const SHARED_BASE: u64 = 0x500_0000_0000;
const SHARED_PAGES: u64 = 16;
const SHARED_TOUCHES: u64 = 4;
const SHARED_REMAP_EVERY: u64 = 16;
/// Each core's private terabyte of never-reused `superpage` blocks.
const SUPER_BASE: u64 = 0x1000_0000_0000;
const SUPER_STRIDE: u64 = 1 << 40;
const SUPER_MAINTAIN_EVERY: u64 = 8;
const SUPER_FAR_PAGE: u64 = 300;
const SUPER_HOLE_PAGE: u64 = 100;
const SUPER_HOLE_PAGES: u64 = 16;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// mmap 4 KiB at one of 64 private slots, fill the page, munmap.
    Disjoint,
    /// Drop one resident page's TLB entry and read it back (a fill
    /// fault); seven in eight stay in the current leaf block.
    Refault,
    /// Touch four pages of one 16-page mapping; every sixteenth op first
    /// replaces the mapping in place.
    SharedRemap,
    /// Map a fresh 2 MiB block with the huge hint, write two words 300
    /// pages apart, on a quarter of ops punch a 16-page hole and read the
    /// first word back, unmap.
    Superpage,
}

/// A fresh `ncores`-core machine with a RadixVM address space, every
/// core attached.
pub fn machine(ncores: usize) -> (Arc<Machine>, Arc<dyn VmSystem>) {
    let machine = Machine::new(ncores);
    let vm = build(&machine, BackendKind::Radix);
    for core in 0..ncores {
        vm.attach_core(core);
    }
    (machine, vm)
}

/// One workload's op stream on one core of a machine.
pub struct Ops {
    pub machine: Arc<Machine>,
    pub vm: Arc<dyn VmSystem>,
    core: usize,
    asid: Asid,
    kind: Kind,
    rng: u64,
    i: u64,
    /// `refault`: the leaf block the stream is currently in.
    block: u64,
    /// `disjoint`: the page slots the stream rotates through.
    slots: Vec<u64>,
}

impl Ops {
    /// The stream of `core` on a machine (from [`machine`]) shared with
    /// other streams. Does the core's share of the workload's set-up
    /// (`refault` maps and writes the core's pages, `shared_remap`'s core
    /// 0 maps the region).
    pub fn on(machine: Arc<Machine>, vm: Arc<dyn VmSystem>, core: usize, kind: Kind) -> Ops {
        let mut o = Ops {
            asid: vm.asid(),
            machine,
            vm,
            core,
            kind,
            rng: splitmix(((core as u64) << 32) + kind as u64 + 1),
            i: 0,
            block: 0,
            slots: Vec::new(),
        };
        match kind {
            Kind::Disjoint => {
                // The first 64 of a seeded shuffle of the block's pages.
                let mut pages: Vec<u64> = (0..BLOCK_PAGES).collect();
                for k in 0..DISJOINT_SLOTS {
                    o.rng = splitmix(o.rng);
                    let pick = k + (o.rng % (BLOCK_PAGES - k as u64)) as usize;
                    pages.swap(k, pick);
                }
                pages.truncate(DISJOINT_SLOTS);
                o.slots = pages;
            }
            Kind::Refault => {
                let base = o.private_base();
                o.map(base, REFAULT_BLOCKS * BLOCK_BYTES);
                for p in 0..REFAULT_BLOCKS * BLOCK_PAGES {
                    o.write(base + p * PAGE_SIZE, p);
                }
            }
            Kind::SharedRemap if core == 0 => o.map(SHARED_BASE, SHARED_PAGES * PAGE_SIZE),
            Kind::SharedRemap | Kind::Superpage => {}
        }
        o
    }

    fn private_base(&self) -> u64 {
        PRIVATE_BASE + self.core as u64 * PRIVATE_STRIDE
    }

    fn map(&self, addr: u64, len: u64) {
        self.vm
            .mmap(self.core, addr, len, Prot::RW, Backing::Anon)
            .expect("mmap");
    }

    fn unmap(&self, addr: u64, len: u64) {
        self.vm.munmap(self.core, addr, len).expect("munmap");
    }

    fn write(&self, addr: u64, val: u64) {
        self.machine
            .write_u64(self.core, &*self.vm, addr, val)
            .expect("write");
    }

    fn tick(&self, every: u64) {
        if self.i.is_multiple_of(every) {
            self.vm.maintain(self.core);
        }
    }

    /// Issues one op.
    #[inline]
    pub fn op(&mut self) {
        self.i += 1;
        self.rng = splitmix(self.rng);
        let (m, vm, core, r) = (&*self.machine, &*self.vm, self.core, self.rng);
        match self.kind {
            Kind::Disjoint => {
                let slot = self.slots[r as usize % DISJOINT_SLOTS];
                let addr = self.private_base() + slot * PAGE_SIZE;
                self.map(addr, PAGE_SIZE);
                m.touch_page(core, vm, addr, self.i as u8).expect("touch");
                self.unmap(addr, PAGE_SIZE);
                self.tick(MAINTAIN_EVERY);
            }
            Kind::Refault => {
                if r.is_multiple_of(8) {
                    self.block =
                        (self.block + 1 + (r >> 8) % (REFAULT_BLOCKS - 1)) % REFAULT_BLOCKS;
                }
                let page = self.block * BLOCK_PAGES + (r >> 16) % BLOCK_PAGES;
                let addr = self.private_base() + page * PAGE_SIZE;
                m.invalidate_local(core, self.asid, addr / PAGE_SIZE, 1);
                assert_eq!(m.read_u64(core, vm, addr), Ok(page));
            }
            Kind::SharedRemap => {
                if self.i.is_multiple_of(SHARED_REMAP_EVERY) {
                    self.map(SHARED_BASE, SHARED_PAGES * PAGE_SIZE);
                }
                for k in 0..SHARED_TOUCHES {
                    let page = (r >> (8 * k)) % SHARED_PAGES;
                    m.touch_page(core, vm, SHARED_BASE + page * PAGE_SIZE, core as u8)
                        .expect("touch");
                }
                self.tick(MAINTAIN_EVERY);
            }
            Kind::Superpage => {
                let addr = SUPER_BASE + core as u64 * SUPER_STRIDE + self.i * BLOCK_BYTES;
                let val = r | 1;
                vm.mmap_flags(
                    core,
                    addr,
                    BLOCK_BYTES,
                    Prot::RW,
                    Backing::Anon,
                    MapFlags::HUGE,
                )
                .expect("mmap");
                self.write(addr, val);
                self.write(addr + SUPER_FAR_PAGE * PAGE_SIZE, !val);
                if r >> 60 < 4 {
                    self.unmap(
                        addr + SUPER_HOLE_PAGE * PAGE_SIZE,
                        SUPER_HOLE_PAGES * PAGE_SIZE,
                    );
                    assert_eq!(m.read_u64(core, vm, addr), Ok(val));
                }
                self.unmap(addr, BLOCK_BYTES);
                self.tick(SUPER_MAINTAIN_EVERY);
            }
        }
    }
}
