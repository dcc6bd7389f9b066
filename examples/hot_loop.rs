//! One-thread op loops for profiling: the repo benchmark's five workloads
//! (`benchmark/src/workloads.rs`), each as a bare loop on one host thread
//! with nothing else in the process, so a sampling profiler
//! (`scripts/sample_prof.sh`) sees only the op.
//!
//! The machine has **one** core. On a two-core machine whose second core
//! never calls `maintain`, the Refcache epoch never advances, no frame is
//! ever freed, and the loop measures frame-pool growth (24 µs/op), not
//! the op.
//!
//! Run with: `cargo run --release --example hot_loop -- <disjoint|refault|shared|superpage|metis> <seconds>`

use std::sync::Arc;
use std::time::{Duration, Instant};

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{Backing, Machine, MapFlags, Prot, VmSystem, BLOCK_PAGES, PAGE_SIZE};
use radixvm::metis::{run_to_completion, Metis, MetisConfig, VmArena};

const BASE: u64 = 0x200_0000_0000;
const BLOCK_BYTES: u64 = BLOCK_PAGES * PAGE_SIZE;
/// Ops between Refcache ticks (`superpage`: 8, as in the benchmark).
const MAINTAIN_EVERY: u64 = 128;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn machine() -> (Arc<Machine>, Arc<dyn VmSystem>) {
    let machine = Machine::new(1);
    let vm = build(&machine, BackendKind::Radix);
    vm.attach_core(0);
    (machine, vm)
}

/// Calls `op(i, rng)` until `budget` has passed; returns the ops done
/// and the seconds they took.
fn spin(budget: Duration, mut op: impl FnMut(u64, u64)) -> (u64, f64) {
    let t0 = Instant::now();
    let (mut i, mut rng) = (0u64, 1u64);
    while t0.elapsed() < budget {
        for _ in 0..256 {
            i += 1;
            rng = splitmix(rng);
            op(i, rng);
        }
    }
    (i, t0.elapsed().as_secs_f64())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: hot_loop <disjoint|refault|shared|superpage|metis> <seconds>";
    let workload = args.next().expect(usage);
    let seconds: f64 = args.next().and_then(|s| s.parse().ok()).expect(usage);
    let budget = Duration::from_secs_f64(seconds);
    let (m, vm) = machine();
    let (ops, dt) = match workload.as_str() {
        // mmap 4 KiB at one of 64 private slots, fill the page, munmap.
        "disjoint" => spin(budget, |i, rng| {
            let addr = BASE + (rng % 64) * 8 * PAGE_SIZE;
            vm.mmap(0, addr, PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            m.touch_page(0, &*vm, addr, i as u8).unwrap();
            vm.munmap(0, addr, PAGE_SIZE).unwrap();
            if i.is_multiple_of(MAINTAIN_EVERY) {
                vm.maintain(0);
            }
        }),
        // Drop one resident page's TLB entry and read it back.
        "refault" => {
            let pages = 8 * BLOCK_PAGES;
            vm.mmap(0, BASE, pages * PAGE_SIZE, Prot::RW, Backing::Anon)
                .unwrap();
            for p in 0..pages {
                m.write_u64(0, &*vm, BASE + p * PAGE_SIZE, p).unwrap();
            }
            let mut block = 0;
            spin(budget, |_, rng| {
                if rng.is_multiple_of(8) {
                    block = (block + 1 + (rng >> 8) % 7) % 8;
                }
                let page = block * BLOCK_PAGES + (rng >> 16) % BLOCK_PAGES;
                m.invalidate_local(0, vm.asid(), (BASE >> 12) + page, 1);
                assert_eq!(m.read_u64(0, &*vm, BASE + page * PAGE_SIZE), Ok(page));
            })
        }
        // Touch four pages of one 16-page mapping; every 16th op first
        // replaces the mapping in place.
        "shared" => {
            let map = || {
                vm.mmap(0, BASE, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
                    .unwrap();
            };
            map();
            spin(budget, |i, rng| {
                if i.is_multiple_of(16) {
                    map();
                }
                for k in 0..4 {
                    let page = (rng >> (8 * k)) % 16;
                    m.touch_page(0, &*vm, BASE + page * PAGE_SIZE, 1).unwrap();
                }
                if i.is_multiple_of(MAINTAIN_EVERY) {
                    vm.maintain(0);
                }
            })
        }
        // Map a fresh 2 MiB block with the huge hint, write two words 300
        // pages apart, on a quarter of ops punch a 16-page hole, unmap.
        "superpage" => spin(budget, |i, rng| {
            let addr = 0x1000_0000_0000 + i * BLOCK_BYTES;
            vm.mmap_flags(
                0,
                addr,
                BLOCK_BYTES,
                Prot::RW,
                Backing::Anon,
                MapFlags::HUGE,
            )
            .unwrap();
            m.write_u64(0, &*vm, addr, rng).unwrap();
            m.write_u64(0, &*vm, addr + 300 * PAGE_SIZE, !rng).unwrap();
            if rng >> 60 < 4 {
                vm.munmap(0, addr + 100 * PAGE_SIZE, 16 * PAGE_SIZE)
                    .unwrap();
                assert_eq!(m.read_u64(0, &*vm, addr), Ok(rng));
            }
            vm.munmap(0, addr, BLOCK_BYTES).unwrap();
            if i.is_multiple_of(8) {
                vm.maintain(0);
            }
        }),
        // One-worker word-index jobs, 64 KiB allocation unit, each on a
        // fresh machine (the arena never frees).
        "metis" => {
            const WORDS: u64 = 1_000_000;
            let t0 = Instant::now();
            let mut words = 0;
            while t0.elapsed() < budget {
                let (m, vm) = machine();
                let arena = Arc::new(VmArena::new(m, vm, 16));
                let cfg = MetisConfig {
                    total_words: WORDS,
                    ..MetisConfig::small(1)
                };
                words += run_to_completion(&Metis::new(arena, cfg), 1).pairs;
            }
            (words, t0.elapsed().as_secs_f64())
        }
        _ => panic!("{usage}"),
    };
    let unit = if workload == "metis" { "words" } else { "ops" };
    println!(
        "{workload}: {ops} {unit} in {dt:.2} s = {:.0} {unit}/s, {:.1} ns each",
        ops as f64 / dt,
        dt * 1e9 / ops as f64
    );
}
