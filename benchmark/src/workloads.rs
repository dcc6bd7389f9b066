//! The five workloads: what one op is, and what a correct VM must have
//! done by the end. README.md says why each was chosen.
//!
//! Every address, page and slot choice comes from a splitmix stream
//! seeded by `--seed`; the VM only ever sees the generated addresses.

use std::sync::Arc;

use crate::layers::{Counters, Env, BLOCK_PAGES, PAGE_SIZE, VA_LIMIT};
use crate::trace::{Name, Tracer};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Disjoint,
    Refault,
    SharedRemap,
    Superpage,
    Metis,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Disjoint,
        Kind::Refault,
        Kind::SharedRemap,
        Kind::Superpage,
        Kind::Metis,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Disjoint => "disjoint",
            Kind::Refault => "refault",
            Kind::SharedRemap => "shared_remap",
            Kind::Superpage => "superpage",
            Kind::Metis => "metis",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;

/// Each thread's private gigabyte for `disjoint` and `refault`.
const PRIVATE_BASE: u64 = 0x200_0000_0000;
const PRIVATE_STRIDE: u64 = 1 << 30;
/// Page slots a `disjoint` thread draws from: a seeded choice of distinct
/// pages, all in the first leaf block of its gigabyte.
const DISJOINT_SLOTS: usize = 64;
/// Ops between Refcache ticks, as a kernel timer would deliver them.
const MAINTAIN_EVERY: u64 = 128;

/// Leaf blocks each `refault` thread maps and faults over.
const REFAULT_BLOCKS: u64 = 8;

/// The one mapping every `shared_remap` thread touches and replaces.
const SHARED_BASE: u64 = 0x500_0000_0000;
const SHARED_PAGES: u64 = 16;
const SHARED_TOUCHES: u64 = 4;
const SHARED_REMAP_EVERY: u64 = 16;

/// Each thread's private terabyte of never-reused `superpage` blocks.
const SUPER_BASE: u64 = 0x1000_0000_0000;
const SUPER_STRIDE: u64 = 1 << 40;
/// Blocks are freed two Refcache epochs after their munmap, so every
/// thread keeps about three ticks' worth of 2 MiB blocks in flight. A
/// tick every 8 ops holds that to ~50 MiB per thread (0.8 GiB and 2 s of
/// host time at 16 virtual cores); the issue's 32 needs 3 GiB and 15 s.
const SUPER_MAINTAIN_EVERY: u64 = 8;
/// The second written word's page, and the interior pages a demoting op
/// unmaps.
const SUPER_FAR_PAGE: u64 = 300;
const SUPER_HOLE_PAGE: u64 = 100;
const SUPER_HOLE_PAGES: u64 = 16;

/// Calls into the VM and what came of them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Fallible VM calls issued.
    pub attempted: u64,
    pub failed: u64,
    /// Verified reads that returned something other than what was written.
    pub bad_reads: u64,
    pub mmaps: u64,
    pub munmaps: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.bad_reads += o.bad_reads;
        self.mmaps += o.mmaps;
        self.munmaps += o.munmaps;
    }

    #[inline]
    fn call(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    #[inline]
    fn verify(&mut self, got: Option<u64>, want: u64) {
        self.call(got.is_some());
        self.bad_reads += (got.is_some() && got != Some(want)) as u64;
    }
}

/// The value `refault` writes to, and expects back from, page `vpn`.
fn page_value(seed: u64, vpn: u64) -> u64 {
    splitmix(seed ^ vpn.wrapping_mul(0x5851_F42D_4C95_7F2D))
}

/// One client of the closed loop: the op stream of one thread, which is
/// one virtual core.
pub struct CoreLoop {
    env: Arc<Env>,
    kind: Kind,
    core: usize,
    seed: u64,
    rng: u64,
    i: u64,
    /// `refault`: the leaf block the thread is currently in.
    block: u64,
    /// `disjoint`: the page slots the thread rotates through.
    slots: Vec<u64>,
    pub tally: Tally,
}

impl CoreLoop {
    /// Creates the client and does its share of the workload's set-up.
    pub fn new(env: Arc<Env>, kind: Kind, core: usize, seed: u64) -> CoreLoop {
        let mut l = CoreLoop {
            env,
            kind,
            core,
            seed,
            rng: splitmix(seed ^ ((core as u64 + 1) << 32) ^ kind as u64),
            i: 0,
            block: 0,
            slots: Vec::new(),
            tally: Tally::default(),
        };
        match kind {
            Kind::Disjoint => {
                // The first 64 of a seeded shuffle of the block's pages.
                let mut pages: Vec<u64> = (0..BLOCK_PAGES).collect();
                for k in 0..DISJOINT_SLOTS {
                    l.rng = splitmix(l.rng);
                    let pick = k + (l.rng % (BLOCK_PAGES - k as u64)) as usize;
                    pages.swap(k, pick);
                }
                pages.truncate(DISJOINT_SLOTS);
                l.slots = pages;
            }
            Kind::Refault => {
                let base = l.private_base();
                l.map(base, REFAULT_BLOCKS * BLOCK_BYTES);
                for p in 0..REFAULT_BLOCKS * BLOCK_PAGES {
                    let addr = base + p * PAGE_SIZE;
                    let ok = l
                        .env
                        .write_u64(core, addr, page_value(seed, addr / PAGE_SIZE));
                    l.tally.call(ok);
                }
            }
            Kind::SharedRemap if core == 0 => l.map(SHARED_BASE, SHARED_PAGES * PAGE_SIZE),
            _ => {}
        }
        l
    }

    pub fn core(&self) -> usize {
        self.core
    }

    fn private_base(&self) -> u64 {
        PRIVATE_BASE + self.core as u64 * PRIVATE_STRIDE
    }

    #[inline]
    fn map(&mut self, addr: u64, len: u64) {
        let ok = self.env.mmap(self.core, addr, len);
        self.tally.mmaps += 1;
        self.tally.call(ok);
    }

    #[inline]
    fn unmap(&mut self, addr: u64, len: u64) {
        let ok = self.env.munmap(self.core, addr, len);
        self.tally.munmaps += 1;
        self.tally.call(ok);
    }

    #[inline]
    fn tick<T: Tracer>(&mut self, every: u64, tr: &mut T) {
        if self.i.is_multiple_of(every) {
            tr.child(Name::Maintain, || self.env.maintain(self.core));
        }
    }

    /// Issues one op.
    #[inline]
    pub fn op<T: Tracer>(&mut self, tr: &mut T) {
        self.i += 1;
        self.rng = splitmix(self.rng);
        tr.begin_op(self.i);
        match self.kind {
            Kind::Disjoint => self.disjoint(tr),
            Kind::Refault => self.refault(tr),
            Kind::SharedRemap => self.shared_remap(tr),
            Kind::Superpage => self.superpage(tr),
            Kind::Metis => unreachable!("metis is driven by jobs, not ops"),
        }
        tr.end_op(true);
    }

    /// mmap 4 KiB at a private slot, fill the page, munmap.
    #[inline]
    fn disjoint<T: Tracer>(&mut self, tr: &mut T) {
        let slot = self.slots[self.rng as usize % DISJOINT_SLOTS];
        let addr = self.private_base() + slot * PAGE_SIZE;
        tr.child(Name::Mmap, || self.map(addr, PAGE_SIZE));
        let ok = tr.child(Name::Fault, || {
            self.env.touch_page(self.core, addr, self.i as u8)
        });
        self.tally.call(ok);
        tr.child(Name::Munmap, || self.unmap(addr, PAGE_SIZE));
        self.tick(MAINTAIN_EVERY, tr);
    }

    /// Drop one resident page's TLB entry and read it back: a fill fault.
    /// Seven accesses in eight stay in the current leaf block. (The fault
    /// span starts at the op's start, so it includes the invalidation.)
    #[inline]
    fn refault<T: Tracer>(&mut self, tr: &mut T) {
        let r = self.rng;
        if r.is_multiple_of(8) {
            self.block = (self.block + 1 + (r >> 8) % (REFAULT_BLOCKS - 1)) % REFAULT_BLOCKS;
        }
        let page = self.block * BLOCK_PAGES + (r >> 16) % BLOCK_PAGES;
        let addr = self.private_base() + page * PAGE_SIZE;
        self.env.invalidate_local(self.core, addr);
        let got = tr.child(Name::Fault, || self.env.read_u64(self.core, addr));
        self.tally
            .verify(got, page_value(self.seed, addr / PAGE_SIZE));
    }

    /// Touch four pages of the shared mapping; every sixteenth op first
    /// replaces the whole mapping in place.
    #[inline]
    fn shared_remap<T: Tracer>(&mut self, tr: &mut T) {
        if self.i.is_multiple_of(SHARED_REMAP_EVERY) {
            tr.child(Name::Mmap, || {
                self.map(SHARED_BASE, SHARED_PAGES * PAGE_SIZE)
            });
        }
        for k in 0..SHARED_TOUCHES {
            let page = (self.rng >> (8 * k)) % SHARED_PAGES;
            let ok = tr.child(Name::Access, || {
                self.env
                    .touch_page(self.core, SHARED_BASE + page * PAGE_SIZE, self.core as u8)
            });
            self.tally.call(ok);
        }
        self.tick(MAINTAIN_EVERY, tr);
    }

    /// Map a fresh 2 MiB block with the huge hint, write two words 300
    /// pages apart (one block fault), on a quarter of ops punch a 16-page
    /// hole (demotion) and read the first word back, then unmap the block.
    #[inline]
    fn superpage<T: Tracer>(&mut self, tr: &mut T) {
        let core = self.core;
        let addr = SUPER_BASE + core as u64 * SUPER_STRIDE + self.i * BLOCK_BYTES;
        let val = self.rng | 1;
        let ok = tr.child(Name::Mmap, || self.env.mmap_huge(core, addr, BLOCK_BYTES));
        self.tally.mmaps += 1;
        self.tally.call(ok);
        let ok = tr.child(Name::Fault, || self.env.write_u64(core, addr, val));
        self.tally.call(ok);
        let far = addr + SUPER_FAR_PAGE * PAGE_SIZE;
        let ok = tr.child(Name::Access, || self.env.write_u64(core, far, !val));
        self.tally.call(ok);
        if self.rng >> 60 < 4 {
            let hole = addr + SUPER_HOLE_PAGE * PAGE_SIZE;
            tr.child(Name::Munmap, || {
                self.unmap(hole, SUPER_HOLE_PAGES * PAGE_SIZE)
            });
            let got = tr.child(Name::Access, || self.env.read_u64(core, addr));
            self.tally.verify(got, val);
        }
        tr.child(Name::Munmap, || self.unmap(addr, BLOCK_BYTES));
        self.tick(SUPER_MAINTAIN_EVERY, tr);
    }
}

/// Output checks after a phase: `before`/`after` bracket the phase's
/// ops, `tally` is every call made on `env` since it was built. Returns
/// the violated checks by name.
pub fn check_phase(
    kind: Kind,
    threads: usize,
    tally: &Tally,
    before: &Counters,
    after: &Counters,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    let d = after.since(before);
    check(
        tally.failed == 0,
        format!("{} of {} VM calls failed", tally.failed, tally.attempted),
    );
    check(
        tally.bad_reads == 0,
        format!("{} verified reads returned a wrong value", tally.bad_reads),
    );
    check(
        after.mmaps == tally.mmaps && after.munmaps == tally.munmaps,
        format!(
            "op_stats counts {}/{} mmaps/munmaps, {}/{} were issued",
            after.mmaps, after.munmaps, tally.mmaps, tally.munmaps
        ),
    );
    match kind {
        Kind::Disjoint | Kind::Refault => check(
            d.ipis == 0,
            format!("{} sent {} shootdown IPIs", kind.name(), d.ipis),
        ),
        Kind::SharedRemap if threads >= 2 => check(
            d.ipis > 0,
            "shared_remap sent no shootdown IPIs".to_string(),
        ),
        Kind::Superpage => {
            check(
                d.superpage_installs as f64 >= 0.9 * d.mmaps as f64,
                format!(
                    "superpage installed {} blocks for {} hinted mmaps",
                    d.superpage_installs, d.mmaps
                ),
            );
            check(
                d.block_fallbacks == 0 && d.oom_faults == 0,
                format!(
                    "superpage saw {} block fallbacks, {} OOM faults",
                    d.block_fallbacks, d.oom_faults
                ),
            );
        }
        _ => {}
    }
    bad
}

/// Unmaps the whole address space from core 0, drains deferred frees and
/// checks that no frame is still allocated.
pub fn check_teardown(env: &Env, tally: &mut Tally) -> Vec<String> {
    let ok = env.munmap(0, 0, VA_LIMIT);
    tally.munmaps += 1;
    tally.call(ok);
    let left = env.quiesce_outstanding();
    let mut bad = Vec::new();
    if !ok {
        bad.push("teardown munmap failed".to_string());
    }
    if left != 0 {
        bad.push(format!("{left} frames outstanding after teardown"));
    }
    bad
}
