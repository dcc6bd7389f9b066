//! Cost model for the virtual-time multicore simulator.
//!
//! All costs are in abstract nanoseconds of virtual time. The prices are
//! calibrated to a large cache-coherent x86 NUMA machine of the kind used
//! in the paper's evaluation (8-socket Intel E7-8870): an L1/L2 hit costs a
//! few nanoseconds, a cross-socket cache-line transfer on the order of a
//! hundred, and an IPI a few microseconds. The absolute values only set
//! the scale of reported throughput; the *shape* of scalability curves is
//! determined by which events a design triggers.
//!
//! The machine itself is one number, its NUMA node count ([`CostModel`]).
//! Cores are striped across the nodes ([`node_of`]) and the nodes sit on
//! a line ([`hops`]), so one node is the flat model.

/// Cost of an instrumented access that hits in the local cache.
pub const LOCAL_NS: u64 = 2;

/// Cost of fetching a cache line last written by another core.
pub const REMOTE_NS: u64 = 120;

/// Serialization window occupied at the line's home node per transfer.
///
/// Transfers of the same line are serialized: each occupies the line
/// for this long, so many cores hammering one line queue up behind each
/// other. This is the paper's "typically serializes at the cache
/// line's home node" (§3).
pub const LINE_SERVICE_NS: u64 = 60;

/// Extra cost charged to a writer per *other* sharer that must be
/// invalidated when taking a line exclusive.
pub const INVAL_PER_SHARER_NS: u64 = 40;

/// Cost of a read that misses everywhere (first touch).
pub const COLD_NS: u64 = 90;

/// Sender-side cost to deliver one IPI (serialized per target at the
/// sender, modeling non-scalable APIC delivery, §5.3).
pub const IPI_SEND_NS: u64 = 1_500;

/// Receiver-side cost to handle a shootdown IPI (interrupt entry, TLB
/// invalidation, acknowledgement).
pub const IPI_HANDLE_NS: u64 = 2_500;

/// Global interconnect serialization window per IPI. Concurrent
/// shootdown rounds from different senders queue here, reproducing the
/// paper's observation that IPI delivery time grows with core count.
pub const IPI_BUS_NS: u64 = 600;

/// Cost to zero / write a full 4 KB page (the paper observes ~64 cache
/// misses from page zeroing per iteration, §5.3).
pub const PAGE_WORK_NS: u64 = 1_300;

/// Fixed per-operation software cost (instruction execution not
/// attributable to instrumented shared-memory accesses).
pub const OP_BASE_NS: u64 = 150;

/// Cost of one heap allocation on a hot path (allocator bookkeeping
/// plus the shared allocator state it touches). Charged explicitly by
/// code that allocates where it matters — radix-node expansion,
/// Refcache object allocation, and [`crate::InlineVec`] spills — so
/// "allocation-free" designs show their advantage in virtual time.
pub const ALLOC_NS: u64 = 90;

/// Extra cost per interconnect hop for a cache-line transfer that
/// crosses NUMA nodes. Added on top of [`REMOTE_NS`]/[`COLD_NS`]
/// according to the [`hops`] between the line's source node and the
/// requester's node. Same-node transfers pay nothing extra, so a
/// one-node machine reproduces the flat model.
pub const HOP_NS: u64 = 60;

/// Extra cost per interconnect hop for a page of allocator work
/// (zeroing/filling) done against a frame homed on a remote node.
pub const PAGE_HOP_NS: u64 = 800;

// A refit that breaks the ordering the model's story rests on fails the
// build: a hit is cheaper than a transfer, a transfer cheaper than an
// IPI, and a first touch no dearer than a transfer.
const _: () = assert!(LOCAL_NS < REMOTE_NS && REMOTE_NS < IPI_SEND_NS);
const _: () = assert!(COLD_NS <= REMOTE_NS);

/// NUMA node of `core` on an `nnodes`-node machine: cores are striped
/// across the nodes.
#[inline]
pub fn node_of(core: usize, nnodes: usize) -> usize {
    core % nnodes
}

/// Interconnect hops between nodes `a` and `b`: the nodes sit on a line.
#[inline]
pub fn hops(a: usize, b: usize) -> u64 {
    a.abs_diff(b) as u64
}

/// The simulated machine: its NUMA node count. Every price is a constant
/// of this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Number of NUMA nodes (≥ 1).
    pub(crate) nnodes: usize,
}

impl Default for CostModel {
    /// The flat one-node machine.
    fn default() -> Self {
        CostModel::new(1)
    }
}

impl CostModel {
    /// An `nnodes`-node machine.
    pub fn new(nnodes: usize) -> Self {
        assert!(nnodes >= 1, "the simulated machine needs a node");
        CostModel { nnodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_stripe_across_nodes_on_a_line() {
        for n in 1..=8 {
            assert_eq!(node_of(0, n), 0);
            assert_eq!(node_of(n, n), 0);
            assert_eq!(node_of(n + 1, n), 1 % n);
            for a in 0..n {
                assert_eq!(hops(a, a), 0);
                for b in 0..n {
                    assert_eq!(hops(a, b), hops(b, a));
                    if a != b {
                        assert!(hops(a, b) >= 1);
                    }
                }
            }
            assert_eq!(hops(0, n - 1), (n - 1) as u64);
        }
    }

    #[test]
    #[should_panic(expected = "needs a node")]
    fn a_machine_without_nodes_panics() {
        CostModel::new(0);
    }
}
