//! Running a workload: the closed loop on real host threads, the same op
//! stream on the virtual-time simulator, and Metis jobs on either.
//!
//! Closed loop: T client threads, each issuing its next op when the
//! previous one returns; thread *i* is virtual core *i*.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::layers::{Counters, Env, MetisJob, MetisTotals, Sim, SimTotals, StepOutcome, VA_LIMIT};
use crate::trace::{Name, NoTrace, SpanTrace, Tracer};
use crate::workloads::{check_phase, check_teardown, CoreLoop, Kind, Tally};

/// The value three quarters of the way up the sorted `values`. Window
/// and job rates are summarised by it, not by the median: on a shared
/// host interference only ever subtracts, in episodes that can outlast
/// half a run, so the upper quartile is the steadier estimate of what
/// the system sustains when left alone.
pub fn upper_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(3 * v.len()).div_ceil(4) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Binds the calling thread to the `index`-th CPU this process may run
/// on, counting down from the last (CPU 0 takes most interrupts), so the
/// scheduler cannot stack two clients on one CPU (seen on the 2-core
/// sandbox: whole windows at the 1-thread rate). Best effort: a refusal
/// leaves the thread unbound.
#[cfg(target_os = "linux")]
fn pin_to_cpu(index: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..WORDS * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[cpus.len() - 1 - index % cpus.len()];
    let mut only = [0u64; WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_index: usize) {}

/// Tells glibc's allocator never to hand freed memory back to the
/// system. Otherwise whether a phase page-faults its memory in afresh
/// depends on whether the free before it happened to trim the heap, and
/// on this kind of sandbox (a microVM whose memory the host backs
/// lazily) a fresh page costs 2 to 40 microseconds: set-up times came
/// out bimodal (0.044 s or 0.115 s on `superpage`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    // SAFETY: `mallopt` only stores the tuning value; called before any
    // other thread exists.
    unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

/// A machine with the workload set up on it and its clients warmed by a
/// fixed number of ops each.
pub struct Prepared {
    pub env: Arc<Env>,
    pub loops: Vec<CoreLoop>,
}

/// Ops each client runs before anything is timed (fills the frame pool's
/// free lists, the radix spine, the Refcache and the TLBs).
pub fn warm_ops(kind: Kind) -> u64 {
    match kind {
        Kind::Superpage => 64,
        _ => 20_000,
    }
}

pub fn prepare(kind: Kind, ncores: usize, seed: u64, warm: u64) -> Prepared {
    let env = Arc::new(Env::new(ncores));
    let mut loops: Vec<CoreLoop> = (0..ncores)
        .map(|core| CoreLoop::new(env.clone(), kind, core, seed))
        .collect();
    for l in &mut loops {
        for _ in 0..warm {
            l.op(&mut NoTrace);
        }
    }
    Prepared { env, loops }
}

/// What a phase on one machine produced.
pub struct PhaseResult {
    /// Ops per wall second, one entry per timed window (untraced windows
    /// only, in a traced phase).
    pub windows: Vec<f64>,
    /// The traced windows of a traced phase.
    pub traced_windows: Vec<f64>,
    pub tally: Tally,
    /// Counter deltas over the threads' whole run (warm-up window
    /// included), and the ops they ran in it.
    pub counters: Counters,
    pub counted_ops: u64,
    pub tracers: Vec<SpanTrace>,
    pub violations: Vec<String>,
}

const STOP: u32 = u32::MAX;

/// Runs `prepared`'s clients on one host thread each: a warm-up window,
/// then `nwin` timed windows, all `window` long. With `TRACED`, odd windows run the ops
/// through a [`SpanTrace`] and even ones through [`NoTrace`], so the two
/// throughputs come from the same machine in the same state.
pub fn wall_phase<const TRACED: bool>(
    kind: Kind,
    prepared: Prepared,
    window: Duration,
    nwin: usize,
) -> PhaseResult {
    let Prepared { env, loops } = prepared;
    let threads = loops.len();
    let epoch = AtomicU32::new(0);
    let barrier = Barrier::new(threads + 1);
    let base = Instant::now();
    let before = env.counters();
    let mut marks = Vec::with_capacity(nwin + 1);
    let mut done: Vec<(CoreLoop, Vec<u64>, SpanTrace)> = std::thread::scope(|s| {
        let handles: Vec<_> = loops
            .into_iter()
            .map(|mut l| {
                let (epoch, barrier) = (&epoch, &barrier);
                s.spawn(move || {
                    let mut counts = vec![0u64; nwin + 1];
                    let mut tracer = SpanTrace::new(base, Name::Op);
                    pin_to_cpu(l.core());
                    barrier.wait();
                    loop {
                        let e = epoch.load(Ordering::Relaxed);
                        if e == STOP {
                            break;
                        }
                        if TRACED && e % 2 == 1 {
                            l.op(&mut tracer);
                        } else {
                            l.op(&mut NoTrace);
                        }
                        counts[e as usize] += 1;
                    }
                    (l, counts, tracer)
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(window);
        for w in 1..=nwin {
            marks.push(Instant::now());
            epoch.store(w as u32, Ordering::Relaxed);
            std::thread::sleep(window);
        }
        marks.push(Instant::now());
        epoch.store(STOP, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = env.counters();
    let mut tally = Tally::default();
    for (l, _, _) in &done {
        tally.add(&l.tally);
    }
    let (mut windows, mut traced_windows) = (Vec::new(), Vec::new());
    for w in 1..=nwin {
        let ops: u64 = done.iter().map(|(_, c, _)| c[w]).sum();
        let rate = ops as f64 / (marks[w] - marks[w - 1]).as_secs_f64();
        if TRACED && w % 2 == 1 {
            traced_windows.push(rate);
        } else {
            windows.push(rate);
        }
    }
    let mut violations = check_phase(kind, threads, &tally, &before, &after);
    violations.extend(check_teardown(&env, &mut tally));
    PhaseResult {
        windows,
        traced_windows,
        tally,
        counters: after.since(&before),
        counted_ops: done.iter().map(|(_, c, _)| c.iter().sum::<u64>()).sum(),
        tracers: done.drain(..).map(|(_, _, t)| t).collect(),
        violations,
    }
}

/// What a run on the simulator produced.
pub struct VirtResult {
    pub ops: u64,
    /// Virtual time the measured ops took (slowest core), ns.
    pub virt_ns: u64,
    /// Host time the measured ops took, ns.
    pub host_ns: u64,
    pub sim: SimTotals,
    pub tally: Tally,
    pub violations: Vec<String>,
}

impl VirtResult {
    pub fn ops_per_virt_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.virt_ns as f64
    }

    /// Of a one-core run.
    pub fn virt_ns_per_op(&self) -> f64 {
        self.virt_ns as f64 / self.ops as f64
    }
}

/// Index of the smallest clock among cores with `left[core] > 0`.
fn next_core(sim: &Sim, left: &[u64]) -> Option<usize> {
    (0..left.len())
        .filter(|&c| left[c] > 0)
        .min_by_key(|&c| sim.clock(c))
}

/// Runs `ops_per_core` ops on each of `ncores` virtual cores, always
/// advancing the core whose clock is lowest. Set-up runs under the
/// simulator too (its cache lines must be known to it) but is excluded
/// from the measured virtual time; caches start cold.
pub fn virt_phase(kind: Kind, ncores: usize, seed: u64, ops_per_core: u64) -> VirtResult {
    let env = Arc::new(Env::new(ncores));
    let sim = Sim::install(ncores);
    let mut loops: Vec<CoreLoop> = (0..ncores)
        .map(|core| {
            sim.switch(core);
            CoreLoop::new(env.clone(), kind, core, seed)
        })
        .collect();
    sim.align_clocks();
    let (sim0, before, host0) = (sim.totals(), env.counters(), Instant::now());
    let mut left = vec![ops_per_core; ncores];
    while let Some(core) = next_core(&sim, &left) {
        sim.switch(core);
        loops[core].op(&mut NoTrace);
        left[core] -= 1;
    }
    let host_ns = host0.elapsed().as_nanos() as u64;
    let (totals, after) = (sim.totals().since(&sim0), env.counters());
    let mut tally = Tally::default();
    for l in &loops {
        tally.add(&l.tally);
    }
    // At one core nothing can be remote, so nothing is shot down.
    let mut violations = check_phase(kind, ncores, &tally, &before, &after);
    sim.switch(0);
    violations.extend(check_teardown(&env, &mut tally));
    VirtResult {
        ops: ops_per_core * ncores as u64,
        virt_ns: totals.max_clock,
        host_ns,
        sim: totals,
        tally,
        violations,
    }
}

/// One finished Metis job.
pub struct JobResult {
    pub words_per_s: f64,
    pub totals: MetisTotals,
    pub counters: Counters,
}

/// Words of the warm-up job that [`prepare_metis`] runs.
const METIS_WARM_WORDS: u64 = 16_384;

fn metis_check(
    totals: &MetisTotals,
    workers: usize,
    words: u64,
    counters: &Counters,
) -> Vec<String> {
    let mut bad = Vec::new();
    let want_pairs = words / workers as u64 * workers as u64;
    if totals.pairs != want_pairs {
        bad.push(format!(
            "metis emitted {} pairs for {want_pairs} words",
            totals.pairs
        ));
    }
    if totals.outputs != totals.distinct_words {
        bad.push(format!(
            "metis wrote {} records for {} distinct words",
            totals.outputs, totals.distinct_words
        ));
    }
    if counters.ipis != 0 || counters.munmaps != 0 {
        bad.push(format!(
            "metis never unmaps, yet {} munmaps and {} IPIs were counted",
            counters.munmaps, counters.ipis
        ));
    }
    bad
}

/// A fresh machine (the Metis arena never frees) on which a small
/// warm-up job ran and was unmapped again: the frame pool is grown, the
/// address space is empty (every job's arena starts at the same address).
pub fn prepare_metis(workers: usize) -> Arc<Env> {
    let env = Arc::new(Env::new(workers));
    let job = MetisJob::new(&env, workers, METIS_WARM_WORDS);
    while !job.done() {
        for core in 0..workers {
            job.step(core);
        }
    }
    assert!(env.munmap(0, 0, VA_LIMIT), "unmapping the warm-up job");
    env.quiesce_outstanding();
    env
}

/// Runs one job of `words` words with one host thread per worker, each
/// calling `step(core)` until done. Every step is a span when `tracers`
/// is given.
pub fn metis_job(
    env: &Arc<Env>,
    workers: usize,
    words: u64,
    mut tracers: Option<&mut Vec<SpanTrace>>,
    violations: &mut Vec<String>,
) -> JobResult {
    fn drive<T: Tracer>(job: &MetisJob, core: usize, tr: &mut T) {
        let mut n = 0u64;
        loop {
            n += 1;
            tr.begin_op(n);
            let outcome = job.step(core);
            // Polls at the barrier and after the end are not work.
            tr.end_op(outcome == StepOutcome::Worked);
            match outcome {
                StepOutcome::Worked => {}
                StepOutcome::Idle => std::thread::yield_now(),
                StepOutcome::Done => break,
            }
        }
    }
    let before = env.counters();
    let job = MetisJob::new(env, workers, words);
    let barrier = Barrier::new(workers + 1);
    let mut own: Vec<Option<SpanTrace>> = match tracers.as_deref_mut() {
        Some(t) => t.drain(..).map(Some).collect(),
        None => (0..workers).map(|_| None).collect(),
    };
    let elapsed = std::thread::scope(|s| {
        let handles: Vec<_> = own
            .iter_mut()
            .enumerate()
            .map(|(core, tr)| {
                let (job, barrier) = (&job, &barrier);
                s.spawn(move || {
                    pin_to_cpu(core);
                    barrier.wait();
                    match tr {
                        Some(tr) => drive(job, core, tr),
                        None => drive(job, core, &mut NoTrace),
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("metis worker panicked");
        }
        t0.elapsed()
    });
    if let Some(t) = tracers {
        t.extend(own.into_iter().flatten());
    }
    let counters = env.counters().since(&before);
    let totals = job.totals();
    violations.extend(metis_check(&totals, workers, words, &counters));
    if counters.mmaps != totals.mmaps {
        violations.push(format!(
            "op_stats counts {} mmaps, the arena issued {}",
            counters.mmaps, totals.mmaps
        ));
    }
    JobResult {
        words_per_s: words as f64 / elapsed.as_secs_f64(),
        totals,
        counters,
    }
}

/// Runs one job on `ncores` virtual cores, lowest clock first.
pub fn metis_virt(ncores: usize, words: u64) -> VirtResult {
    let env = Arc::new(Env::new(ncores));
    let sim = Sim::install(ncores);
    let before = env.counters();
    let job = MetisJob::new(&env, ncores, words);
    let host0 = Instant::now();
    let mut left = vec![1u64; ncores];
    while let Some(core) = next_core(&sim, &left) {
        sim.switch(core);
        match job.step(core) {
            StepOutcome::Worked => {}
            // Waiting at the map/reduce barrier: poll again a little later.
            StepOutcome::Idle => sim.charge(1_000),
            StepOutcome::Done => left[core] = 0,
        }
    }
    let host_ns = host0.elapsed().as_nanos() as u64;
    let totals = sim.totals();
    let counters = env.counters().since(&before);
    let mut violations = metis_check(&job.totals(), ncores, words, &counters);
    let mut tally = Tally {
        attempted: words,
        ..Tally::default()
    };
    sim.switch(0);
    violations.extend(check_teardown(&env, &mut tally));
    VirtResult {
        ops: words,
        virt_ns: totals.max_clock,
        host_ns,
        sim: totals,
        tally,
        violations,
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
