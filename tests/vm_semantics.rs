//! Cross-system semantic equivalence: every backend must implement the
//! same POSIX-ish VM contract. A deterministic random workload of
//! mmap/munmap/write/read operations is run against every `BackendKind`
//! plus a pure model; every observable result must agree.

use std::collections::HashMap;
use std::sync::Arc;

use radixvm::backend::{build, BackendKind};
use radixvm::core_vm::RadixVm;
use radixvm::hw::{Backing, Machine, Prot, VmError, VmSystem, PAGE_SIZE};

const BASE: u64 = 0x40_0000_0000;
const PAGES: u64 = 96;

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A pure model of the VM contract over one small window of pages.
#[derive(Default)]
struct Model {
    /// Mapped pages → last written value (None = untouched, reads zero).
    mapped: HashMap<u64, Option<u64>>,
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Ok(Option<u64>),
    NoMapping,
}

fn run_sequence(vm: Arc<dyn VmSystem>, machine: Arc<Machine>, seed: u64) -> Vec<Outcome> {
    vm.attach_core(0);
    let mut model = Model::default();
    let mut rng = seed;
    let mut log = Vec::new();
    for step in 0..600u64 {
        let r = splitmix(&mut rng);
        let page = r % PAGES;
        let len_pages = 1 + (r >> 8) % 8;
        let lo = page.min(PAGES - len_pages);
        let addr = BASE + lo * PAGE_SIZE;
        match (r >> 16) % 4 {
            0 => {
                // mmap: model marks pages mapped and zeroed.
                vm.mmap(0, addr, len_pages * PAGE_SIZE, Prot::RW, Backing::Anon)
                    .unwrap();
                for p in lo..lo + len_pages {
                    model.mapped.insert(p, None);
                }
            }
            1 => {
                vm.munmap(0, addr, len_pages * PAGE_SIZE).unwrap();
                for p in lo..lo + len_pages {
                    model.mapped.remove(&p);
                }
            }
            2 => {
                // Write a word.
                let val = step + 1;
                let res = machine.write_u64(0, &*vm, addr, val);
                match (res, model.mapped.contains_key(&lo)) {
                    (Ok(()), true) => {
                        model.mapped.insert(lo, Some(val));
                        log.push(Outcome::Ok(Some(val)));
                    }
                    (Err(VmError::NoMapping), false) => log.push(Outcome::NoMapping),
                    (got, expected_mapped) => {
                        panic!("write mismatch at step {step}: {got:?}, mapped={expected_mapped}")
                    }
                }
            }
            _ => {
                // Read a word.
                let res = machine.read_u64(0, &*vm, addr);
                match (res, model.mapped.get(&lo)) {
                    (Ok(v), Some(val)) => {
                        assert_eq!(v, val.unwrap_or(0), "read value at step {step}");
                        log.push(Outcome::Ok(Some(v)));
                    }
                    (Err(VmError::NoMapping), None) => log.push(Outcome::NoMapping),
                    (got, expected) => {
                        panic!("read mismatch at step {step}: {got:?} vs {expected:?}")
                    }
                }
            }
        }
    }
    log
}

#[test]
fn all_backends_agree_on_random_workloads() {
    for seed in [1u64, 42, 1234, 98765] {
        let mut logs: Vec<(BackendKind, Vec<Outcome>)> = Vec::new();
        for kind in BackendKind::ALL {
            let machine = Machine::new(2);
            logs.push((kind, run_sequence(build(&machine, kind), machine, seed)));
        }
        let (first_kind, reference) = &logs[0];
        for (kind, log) in &logs[1..] {
            assert_eq!(reference, log, "seed {seed}: {first_kind} vs {kind}");
        }
    }
}

#[test]
fn no_leaks_after_random_workload() {
    let machine = Machine::new(2);
    let vm = build(&machine, BackendKind::Radix);
    let cache = vm
        .as_any()
        .downcast_ref::<RadixVm>()
        .expect("Radix backend is a RadixVm")
        .cache()
        .clone();
    run_sequence(vm, machine.clone(), 7);
    // All spaces dropped: every frame must be back in the pool and every
    // radix node collapsed.
    cache.quiesce();
    assert_eq!(cache.live_objects(), 0, "radix nodes / pages leaked");
}

#[test]
fn mprotect_agrees_across_backends() {
    // Every backend implements mprotect and must enforce it identically.
    for kind in BackendKind::ALL {
        let machine = Machine::new(1);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        vm.mmap(0, BASE, 4 * PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(0, &*vm, BASE + PAGE_SIZE, 5).unwrap();
        vm.mprotect(0, BASE, 4 * PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(
            machine.write_u64(0, &*vm, BASE, 1),
            Err(VmError::ProtViolation),
            "{kind}"
        );
        vm.mprotect(0, BASE, 4 * PAGE_SIZE, Prot::RW).unwrap();
        machine.write_u64(0, &*vm, BASE, 1).unwrap();
        // Partial coverage: protecting a half-mapped range succeeds and
        // affects the mapped subset, on every backend alike.
        let base2 = BASE + (1 << 26);
        vm.mmap(0, base2, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        vm.mprotect(0, base2, 2 * PAGE_SIZE, Prot::READ).unwrap();
        assert_eq!(
            machine.write_u64(0, &*vm, base2, 1),
            Err(VmError::ProtViolation),
            "{kind}: partial-range mprotect must cover the mapped page"
        );
        // A fully-unmapped range still errors.
        assert_eq!(
            vm.mprotect(0, base2 + (1 << 20), PAGE_SIZE, Prot::READ),
            Err(VmError::NoMapping),
            "{kind}"
        );
    }
}

#[test]
fn fork_support_matches_radix_kinds() {
    // The RadixVM kinds are exactly the set of backends whose trait fork
    // succeeds.
    for kind in BackendKind::ALL {
        let machine = Machine::new(2);
        let vm = build(&machine, kind);
        vm.attach_core(0);
        vm.mmap(0, BASE, PAGE_SIZE, Prot::RW, Backing::Anon)
            .unwrap();
        machine.write_u64(0, &*vm, BASE, 9).unwrap();
        match vm.fork(0) {
            Ok(child) => {
                assert!(kind.is_radix(), "{kind} forked unexpectedly");
                child.attach_core(1);
                assert_eq!(machine.read_u64(1, &*child, BASE).unwrap(), 9);
            }
            Err(VmError::Unsupported) => {
                assert!(!kind.is_radix(), "{kind} should fork");
            }
            Err(e) => panic!("{kind}: unexpected fork error {e}"),
        }
    }
}

#[test]
fn metis_identical_across_all_systems() {
    use radixvm::metis::{run_to_completion, Metis, MetisConfig, VmArena};
    let mut digests = Vec::new();
    for kind in [BackendKind::Radix, BackendKind::Linux, BackendKind::Bonsai] {
        let machine = Machine::new(3);
        let vm = build(&machine, kind);
        for c in 0..3 {
            vm.attach_core(c);
        }
        let arena = Arc::new(VmArena::new(machine.clone(), vm, 16));
        let job = Metis::new(arena, MetisConfig::small(3));
        let st = run_to_completion(&job, 3);
        digests.push((st.pairs, st.distinct_words, st.outputs));
    }
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[0], digests[2]);
}
