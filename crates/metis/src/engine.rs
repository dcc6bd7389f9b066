//! A Metis-style single-server MapReduce engine (word position index).
//!
//! Metis is the application benchmark of the paper's §5.2 (Figure 4): a
//! multithreaded MapReduce library computing a word position index over a
//! large in-memory text. Its VM-relevant behaviour, which this engine
//! reproduces:
//!
//! * every worker allocates intermediate buffers from a contention-free
//!   allocator ([`crate::VmArena`]) that mmaps fixed-size blocks and never
//!   unmaps — the allocation unit decides whether the job stresses
//!   `mmap` (64 KB blocks, ~hundreds of thousands of calls) or
//!   `pagefault` (8 MB blocks, a few thousand calls);
//! * Map tasks write per-(map, reduce) buffers — core-local faults;
//! * Reduce tasks read every map worker's buffer for their partition —
//!   pairwise sharing, so each page is faulted on a second core.
//!
//! The input is a synthetic word stream (seeded per worker, skewed
//! vocabulary), so no multi-gigabyte corpus is needed; words are carried
//! as 64-bit hashes. The engine is *chunk-steppable*: the virtual-time
//! harness interleaves `step(core)` calls across simulated cores, and
//! real threads can drive the same method.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rvm_sync::{CachePadded, Mutex};

use crate::alloc::VmArena;

/// Pairs per intermediate buffer block.
const CHAIN_PAIRS: u64 = 1024;
/// Block header: [next block va][pair count].
const CHAIN_HDR: u64 = 16;

/// Job configuration.
#[derive(Clone, Debug)]
pub struct MetisConfig {
    /// Worker count (one per core).
    pub workers: usize,
    /// Total words across all workers.
    pub total_words: u64,
    /// Words processed per `step` call.
    pub chunk: u64,
    /// Hot vocabulary size (85 % of draws).
    pub hot_vocab: u64,
    /// Cold vocabulary size (15 % of draws).
    pub cold_vocab: u64,
}

impl MetisConfig {
    /// A small default job for `workers` cores.
    pub fn small(workers: usize) -> MetisConfig {
        MetisConfig {
            workers,
            total_words: 64_000,
            chunk: 512,
            hot_vocab: 1_000,
            cold_vocab: 65_536,
        }
    }
}

/// One intermediate buffer chain (single writer: its map worker).
#[derive(Clone, Copy, Default)]
struct Chain {
    head: u64,
    cur: u64,
    in_block: u64,
}

/// Per-worker map state.
struct MapState {
    rng: u64,
    produced: u64,
    quota: u64,
    next_pos: u64,
    out: Vec<Chain>,
}

/// Per-worker reduce state.
struct ReduceState {
    /// Next source map worker to consume.
    src: usize,
    /// Current block within the source chain (0 = advance to next source).
    block: u64,
    /// Accumulated word → positions.
    index: HashMap<u64, Vec<u64>>,
}

enum WorkerState {
    Mapping(MapState),
    WaitingReduce,
    Reducing(ReduceState),
    Finished,
}

/// Result of one scheduling step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Progress was made.
    Worked,
    /// Blocked on a phase barrier (other workers still mapping).
    Idle,
    /// This worker is done.
    Done,
}

/// Aggregate job statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MetisStats {
    /// (word, position) pairs emitted by map.
    pub pairs: u64,
    /// Distinct words found across all reduce partitions.
    pub distinct_words: u64,
    /// Output records written.
    pub outputs: u64,
    /// mmap calls issued by the arena.
    pub mmaps: u64,
}

/// A running MapReduce job.
pub struct Metis {
    cfg: MetisConfig,
    arena: Arc<VmArena>,
    workers: Vec<CachePadded<Mutex<WorkerState>>>,
    /// `heads[m][r]`: head block of map worker m's chain for partition r.
    /// Written once when worker m passes the map barrier; read-only after
    /// (reducers take one shared read per source — scales, unlike a lock).
    heads: Vec<Vec<rvm_sync::Atomic64>>,
    maps_done: AtomicUsize,
    reducers_done: AtomicUsize,
    pairs: AtomicU64,
    distinct: AtomicU64,
    outputs: AtomicU64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Metis {
    /// Prepares a job over `arena`.
    pub fn new(arena: Arc<VmArena>, cfg: MetisConfig) -> Metis {
        let per_worker = cfg.total_words / cfg.workers as u64;
        let workers = (0..cfg.workers)
            .map(|w| {
                CachePadded::new(Mutex::new(WorkerState::Mapping(MapState {
                    rng: splitmix(w as u64 + 1),
                    produced: 0,
                    quota: per_worker,
                    next_pos: w as u64 * per_worker,
                    out: vec![Chain::default(); cfg.workers],
                })))
            })
            .collect();
        Metis {
            heads: (0..cfg.workers)
                .map(|_| {
                    (0..cfg.workers)
                        .map(|_| rvm_sync::Atomic64::new(0))
                        .collect()
                })
                .collect(),
            cfg,
            arena,
            workers,
            maps_done: AtomicUsize::new(0),
            reducers_done: AtomicUsize::new(0),
            pairs: AtomicU64::new(0),
            distinct: AtomicU64::new(0),
            outputs: AtomicU64::new(0),
        }
    }

    /// Draws the next word for a map worker (15 % cold, 85 % hot).
    fn next_word(&self, rng: &mut u64) -> u64 {
        *rng = splitmix(*rng);
        let r = *rng;
        let id = if r % 100 < 15 {
            self.cfg.hot_vocab + (r >> 8) % self.cfg.cold_vocab
        } else {
            (r >> 8) % self.cfg.hot_vocab
        };
        splitmix(id.wrapping_mul(0x5851_F42D_4C95_7F2D))
    }

    /// Appends one (word, pos) pair to a chain owned by worker `core`.
    fn emit(&self, core: usize, chain: &mut Chain, word: u64, pos: u64) {
        if chain.cur == 0 || chain.in_block == CHAIN_PAIRS {
            let block = self.arena.alloc(core, CHAIN_HDR + CHAIN_PAIRS * 16);
            self.arena.write_u64(core, block, 0); // next = none
            self.arena.write_u64(core, block + 8, 0); // count
            if chain.cur == 0 {
                chain.head = block;
            } else {
                self.arena.write_u64(core, chain.cur, block); // link
            }
            chain.cur = block;
            chain.in_block = 0;
        }
        let at = chain.cur + CHAIN_HDR + chain.in_block * 16;
        self.arena.write_u64(core, at, word);
        self.arena.write_u64(core, at + 8, pos);
        chain.in_block += 1;
        self.arena.write_u64(core, chain.cur + 8, chain.in_block);
    }

    /// Runs one scheduling quantum for worker `core`.
    pub fn step(&self, core: usize) -> Step {
        let mut slot = self.workers[core].lock();
        match &mut *slot {
            WorkerState::Mapping(ms) => {
                let n = self.cfg.chunk.min(ms.quota - ms.produced);
                for _ in 0..n {
                    let word = self.next_word(&mut ms.rng);
                    let pos = ms.next_pos;
                    ms.next_pos += 1;
                    let part = (word as usize) % self.cfg.workers;
                    let mut chain = ms.out[part];
                    self.emit(core, &mut chain, word, pos);
                    ms.out[part] = chain;
                }
                ms.produced += n;
                self.pairs.fetch_add(n, Ordering::Relaxed);
                if ms.produced == ms.quota {
                    // Publish chain heads and pass the barrier.
                    for (r, chain) in ms.out.iter().enumerate() {
                        self.heads[core][r].store(chain.head, std::sync::atomic::Ordering::Release);
                    }
                    *slot = WorkerState::WaitingReduce;
                    self.maps_done.fetch_add(1, Ordering::SeqCst);
                }
                Step::Worked
            }
            WorkerState::WaitingReduce => {
                if self.maps_done.load(Ordering::SeqCst) < self.cfg.workers {
                    return Step::Idle;
                }
                *slot = WorkerState::Reducing(ReduceState {
                    src: 0,
                    block: 0,
                    index: HashMap::new(),
                });
                Step::Worked
            }
            WorkerState::Reducing(rs) => {
                if rs.src < self.cfg.workers {
                    if rs.block == 0 {
                        let head =
                            self.heads[rs.src][core].load(std::sync::atomic::Ordering::Acquire);
                        if head == 0 {
                            rs.src += 1;
                            return Step::Worked;
                        }
                        rs.block = head;
                    }
                    // Consume one block per step.
                    let block = rs.block;
                    let count = self.arena.read_u64(core, block + 8);
                    for i in 0..count {
                        let at = block + CHAIN_HDR + i * 16;
                        let word = self.arena.read_u64(core, at);
                        let pos = self.arena.read_u64(core, at + 8);
                        rs.index.entry(word).or_default().push(pos);
                    }
                    let next = self.arena.read_u64(core, block);
                    rs.block = next;
                    if next == 0 {
                        rs.src += 1;
                    }
                    return Step::Worked;
                }
                // Emit the partition's index into arena memory, in key
                // order: the map's iteration order differs from run to
                // run, and the arena's placement (so what the simulator
                // prices) would follow it.
                let words = rs.index.len() as u64;
                let mut emitted = 0u64;
                let mut drained: Vec<_> = rs.index.drain().collect();
                drained.sort_unstable_by_key(|&(word, _)| word);
                for (word, positions) in drained {
                    let rec = self.arena.alloc(core, 16 + positions.len() as u64 * 8);
                    self.arena.write_u64(core, rec, word);
                    self.arena.write_u64(core, rec + 8, positions.len() as u64);
                    for (i, p) in positions.iter().enumerate() {
                        self.arena.write_u64(core, rec + 16 + i as u64 * 8, *p);
                    }
                    emitted += 1;
                }
                self.distinct.fetch_add(words, Ordering::Relaxed);
                self.outputs.fetch_add(emitted, Ordering::Relaxed);
                *slot = WorkerState::Finished;
                self.reducers_done.fetch_add(1, Ordering::SeqCst);
                Step::Worked
            }
            WorkerState::Finished => Step::Done,
        }
    }

    /// True when every worker has finished.
    pub fn done(&self) -> bool {
        self.reducers_done.load(Ordering::SeqCst) == self.cfg.workers
    }

    /// Job statistics.
    pub fn stats(&self) -> MetisStats {
        MetisStats {
            pairs: self.pairs.load(Ordering::Relaxed),
            distinct_words: self.distinct.load(Ordering::Relaxed),
            outputs: self.outputs.load(Ordering::Relaxed),
            mmaps: self.arena.mmap_count(),
        }
    }
}
