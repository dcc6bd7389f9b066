//! Fork with copy-on-write: the paper motivates Refcache with pages
//! shared between address spaces ("two virtual memory regions may share
//! the same physical pages, such as when forking a process", §3.1). This
//! example forks an address space, shows sharing, triggers copy-on-write
//! from both sides, and verifies the frame accounting.
//!
//! Run with: `cargo run --example fork_cow`

use radixvm::backend::{build, BackendKind};
use radixvm::hw::{Backing, Machine, Prot, PAGE_SIZE};

fn main() {
    let machine = Machine::new(2);
    let parent = build(&machine, BackendKind::Radix);
    parent.attach_core(0);
    parent.attach_core(1);

    // Parent maps and fills 16 pages.
    let addr = 0x5000_0000u64;
    parent
        .mmap(0, addr, 16 * PAGE_SIZE, Prot::RW, Backing::Anon)
        .unwrap();
    for p in 0..16u64 {
        machine
            .write_u64(0, &*parent, addr + p * PAGE_SIZE, 100 + p)
            .unwrap();
    }
    let frames_before = machine.pool().stats().fresh;

    // Fork: child shares every frame copy-on-write. (`fork` is part of
    // the VmSystem trait; backends without it return Unsupported.)
    let child = parent.fork(0).expect("RadixVM supports fork");
    child.attach_core(0);
    child.attach_core(1);
    println!(
        "forked; fresh frames unchanged: {}",
        machine.pool().stats().fresh == frames_before
    );

    // Child reads see the parent's data without copying.
    for p in 0..16u64 {
        let v = machine.read_u64(1, &*child, addr + p * PAGE_SIZE).unwrap();
        assert_eq!(v, 100 + p);
    }
    println!("child reads parent data through shared frames");

    // Child writes one page: copy-on-write isolates it.
    machine.write_u64(1, &*child, addr, 999).unwrap();
    assert_eq!(machine.read_u64(1, &*child, addr).unwrap(), 999);
    assert_eq!(machine.read_u64(0, &*parent, addr).unwrap(), 100);
    println!(
        "child CoW write isolated (child=999, parent=100); cow faults: {}",
        child.op_stats().faults_cow
    );

    // Parent writes another page: also copies.
    machine
        .write_u64(0, &*parent, addr + PAGE_SIZE, 555)
        .unwrap();
    assert_eq!(
        machine.read_u64(1, &*child, addr + PAGE_SIZE).unwrap(),
        101,
        "child keeps the pre-fork value"
    );
    println!(
        "parent CoW write isolated; parent cow faults: {}",
        parent.op_stats().faults_cow
    );

    // Tear down both spaces; every frame must return to the pool.
    drop(child);
    drop(parent);
    let st = machine.pool().stats();
    println!(
        "teardown: {} frames freed ({} fresh allocated in total)",
        st.free_pages, st.fresh
    );
    assert_eq!(st.free_pages, 18, "16 shared + 2 copies");
}
