//! Cost model for the virtual-time multicore simulator.
//!
//! All costs are in abstract nanoseconds of virtual time. The defaults are
//! calibrated to a large cache-coherent x86 NUMA machine of the kind used
//! in the paper's evaluation (8-socket Intel E7-8870): an L1/L2 hit costs a
//! few nanoseconds, a cross-socket cache-line transfer on the order of a
//! hundred, and an IPI a few microseconds. The absolute values only set
//! the scale of reported throughput; the *shape* of scalability curves is
//! determined by which events a design triggers.

/// NUMA topology of the simulated machine: which node each core lives on
/// and how far apart the nodes are.
///
/// Distances are abstract hop counts: `distance[i][j]` (stored flattened,
/// row-major) is the number of interconnect hops between nodes `i` and `j`.
/// The simulator prices every cross-node cache-line transfer and every
/// cross-node page of allocator work at `hops × hop_ns` (respectively
/// `hops × page_hop_ns`) *on top of* the flat MESI costs, so a
/// single-node topology reproduces the flat model exactly.
///
/// A valid matrix has a zero diagonal (a node is 0 hops from itself),
/// is symmetric, and has every off-diagonal entry ≥ 1 (a remote node is
/// never cheaper than the local one). [`Topology::validate`] enforces
/// this; the constructors below only build valid topologies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of NUMA nodes.
    pub nnodes: usize,
    /// Node id for each core; cores beyond the vector's length are mapped
    /// by `core % nnodes` (so one topology serves any simulated core count).
    pub core_to_node: Vec<u16>,
    /// Flattened row-major `nnodes × nnodes` hop-distance matrix.
    pub distance: Vec<u64>,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::single()
    }
}

impl Topology {
    /// The flat single-node topology: all cores on node 0, zero distance.
    pub fn single() -> Self {
        Topology {
            nnodes: 1,
            core_to_node: Vec::new(),
            distance: vec![0],
        }
    }

    /// A linear topology of `nnodes` nodes with cores striped across them
    /// (`core % nnodes`) and `distance[i][j] = |i - j|` hops.
    pub fn striped(nnodes: usize) -> Self {
        assert!(nnodes >= 1, "topology needs at least one node");
        let mut distance = vec![0u64; nnodes * nnodes];
        for i in 0..nnodes {
            for j in 0..nnodes {
                distance[i * nnodes + j] = (i as i64 - j as i64).unsigned_abs();
            }
        }
        Topology {
            nnodes,
            core_to_node: Vec::new(),
            distance,
        }
    }

    /// Builds a topology from explicit parts, panicking if invalid.
    pub fn new(nnodes: usize, core_to_node: Vec<u16>, distance: Vec<u64>) -> Self {
        let t = Topology {
            nnodes,
            core_to_node,
            distance,
        };
        if let Err(e) = t.validate() {
            panic!("invalid topology: {e}");
        }
        t
    }

    /// Checks the topology invariants: at least one node, a full
    /// `nnodes × nnodes` matrix with zero diagonal, symmetry, every
    /// off-diagonal entry ≥ 1 (local is never dearer than remote), and
    /// every explicit core→node entry in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.nnodes == 0 {
            return Err("nnodes must be >= 1".into());
        }
        if self.distance.len() != self.nnodes * self.nnodes {
            return Err(format!(
                "distance matrix has {} entries, expected {}",
                self.distance.len(),
                self.nnodes * self.nnodes
            ));
        }
        for i in 0..self.nnodes {
            for j in 0..self.nnodes {
                let d = self.distance[i * self.nnodes + j];
                if i == j && d != 0 {
                    return Err(format!("distance[{i}][{i}] = {d}, diagonal must be 0"));
                }
                if i != j && d == 0 {
                    return Err(format!("distance[{i}][{j}] = 0, off-diagonal must be >= 1"));
                }
                if d != self.distance[j * self.nnodes + i] {
                    return Err(format!("distance matrix not symmetric at [{i}][{j}]"));
                }
            }
        }
        for (core, &node) in self.core_to_node.iter().enumerate() {
            if (node as usize) >= self.nnodes {
                return Err(format!(
                    "core {core} mapped to node {node} >= {}",
                    self.nnodes
                ));
            }
        }
        Ok(())
    }

    /// Node id of `core`: the explicit mapping if present, else striped.
    #[inline]
    pub fn node_of(&self, core: usize) -> usize {
        match self.core_to_node.get(core) {
            Some(&n) => n as usize,
            None => core % self.nnodes,
        }
    }

    /// Hop distance between two nodes.
    #[inline]
    pub fn dist(&self, a: usize, b: usize) -> u64 {
        self.distance[a * self.nnodes + b]
    }
}

/// Virtual-time costs charged by the simulator for instrumented events.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cost of an instrumented access that hits in the local cache.
    pub local_ns: u64,
    /// Cost of fetching a cache line last written by another core.
    pub remote_ns: u64,
    /// Serialization window occupied at the line's home node per transfer.
    ///
    /// Transfers of the same line are serialized: each occupies the line
    /// for this long, so many cores hammering one line queue up behind each
    /// other. This is the paper's "typically serializes at the cache
    /// line's home node" (§3).
    pub line_service_ns: u64,
    /// Extra cost charged to a writer per *other* sharer that must be
    /// invalidated when taking a line exclusive.
    pub inval_per_sharer_ns: u64,
    /// Cost of a read that misses everywhere (first touch).
    pub cold_ns: u64,
    /// Sender-side cost to deliver one IPI (serialized per target at the
    /// sender, modeling non-scalable APIC delivery, §5.3).
    pub ipi_send_ns: u64,
    /// Receiver-side cost to handle a shootdown IPI (interrupt entry, TLB
    /// invalidation, acknowledgement).
    pub ipi_handle_ns: u64,
    /// Global interconnect serialization window per IPI. Concurrent
    /// shootdown rounds from different senders queue here, reproducing the
    /// paper's observation that IPI delivery time grows with core count.
    pub ipi_bus_ns: u64,
    /// Cost to zero / write a full 4 KB page (the paper observes ~64 cache
    /// misses from page zeroing per iteration, §5.3).
    pub page_work_ns: u64,
    /// Fixed per-operation software cost (instruction execution not
    /// attributable to instrumented shared-memory accesses).
    pub op_base_ns: u64,
    /// Cost of one heap allocation on a hot path (allocator bookkeeping
    /// plus the shared allocator state it touches). Charged explicitly by
    /// code that allocates where it matters — radix-node expansion,
    /// Refcache object allocation, and [`crate::InlineVec`] spills — so
    /// "allocation-free" designs show their advantage in virtual time.
    pub alloc_ns: u64,
    /// Extra cost per interconnect hop for a cache-line transfer that
    /// crosses NUMA nodes. Added on top of `remote_ns`/`cold_ns` according
    /// to the hop distance between the line's source node and the
    /// requester's node. Zero-distance (same-node) transfers pay nothing
    /// extra, so a [`Topology::single`] machine reproduces the flat model.
    pub hop_ns: u64,
    /// Extra cost per interconnect hop for a page of allocator work
    /// (zeroing/filling) done against a frame homed on a remote node.
    pub page_hop_ns: u64,
    /// NUMA topology of the simulated machine.
    pub topology: Topology,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            local_ns: 2,
            remote_ns: 120,
            line_service_ns: 60,
            inval_per_sharer_ns: 40,
            cold_ns: 90,
            ipi_send_ns: 1_500,
            ipi_handle_ns: 2_500,
            ipi_bus_ns: 600,
            page_work_ns: 1_300,
            op_base_ns: 150,
            alloc_ns: 90,
            hop_ns: 60,
            page_hop_ns: 800,
            topology: Topology::single(),
        }
    }
}

impl CostModel {
    /// Returns `self` with the given topology installed.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered() {
        let m = CostModel::default();
        assert!(m.local_ns < m.remote_ns);
        assert!(m.remote_ns < m.ipi_send_ns);
        assert!(m.cold_ns <= m.remote_ns);
    }

    #[test]
    fn default_topology_is_flat() {
        let t = Topology::default();
        assert_eq!(t.nnodes, 1);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(77), 0);
        assert_eq!(t.dist(0, 0), 0);
        t.validate().unwrap();
    }

    #[test]
    fn striped_topology_is_valid() {
        for n in 1..=8 {
            let t = Topology::striped(n);
            t.validate().unwrap();
            assert_eq!(t.node_of(0), 0);
            assert_eq!(t.node_of(n), 0);
            if n > 1 {
                assert_eq!(t.node_of(1), 1);
                assert_eq!(t.dist(0, n - 1), (n - 1) as u64);
            }
        }
    }

    #[test]
    fn validate_rejects_bad_matrices() {
        // Non-zero diagonal.
        let t = Topology {
            nnodes: 2,
            core_to_node: Vec::new(),
            distance: vec![1, 1, 1, 0],
        };
        assert!(t.validate().is_err());
        // Asymmetric.
        let t = Topology {
            nnodes: 2,
            core_to_node: Vec::new(),
            distance: vec![0, 1, 2, 0],
        };
        assert!(t.validate().is_err());
        // Free remote hop (off-diagonal zero).
        let t = Topology {
            nnodes: 2,
            core_to_node: Vec::new(),
            distance: vec![0, 0, 0, 0],
        };
        assert!(t.validate().is_err());
        // Core mapped out of range.
        let t = Topology {
            nnodes: 2,
            core_to_node: vec![0, 1, 2],
            distance: vec![0, 1, 1, 0],
        };
        assert!(t.validate().is_err());
        // Wrong matrix size.
        let t = Topology {
            nnodes: 2,
            core_to_node: Vec::new(),
            distance: vec![0, 1, 1],
        };
        assert!(t.validate().is_err());
    }
}
