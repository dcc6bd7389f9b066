//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::harness::{
    median, metis_job, metis_virt, peak_rss_mib, prepare, prepare_metis, upper_quartile,
    virt_phase, wall_phase, warm_ops, VirtResult,
};
use crate::layers::{Counters, MetisTotals};
use crate::probes;
use crate::report::{Metrics, RunOutput, END_TO_END, SIM_LABELS, SPAN_METRICS};
use crate::trace::{phase_cover_pct, write_spans, Hist, Name, SpanTrace};
use crate::workloads::{check_teardown, Kind, Tally};

/// Virtual cores of the multi-core simulator runs.
const VIRT_CORES: usize = 16;
/// Timed windows of one wall-clock phase of an untraced run.
const WINDOWS: usize = 19;
/// Machines set up per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Metis jobs per simulator run; the median one is reported.
const METIS_VIRT_JOBS: usize = 5;
/// In-process repeats of the 16-core simulator run in a traced run.
const VIRT_REPEATS: usize = 5;

pub struct Params {
    pub seed: u64,
    /// Wall-clock seconds the run measures for.
    pub seconds: f64,
    /// Client threads T of the multi-thread phase.
    pub threads: usize,
    /// A short pass whose numbers are not comparable with a full run's.
    pub quick: bool,
    /// Where span files go; `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl Params {
    fn shrink(&self, n: u64) -> u64 {
        if self.quick {
            (n / 10).max(16)
        } else {
            n
        }
    }

    /// Ops per core of a simulator run (words per worker on `metis`):
    /// fixed counts, sized to about a second of host time at either
    /// core count.
    fn virt_ops(&self, kind: Kind, ncores: usize) -> u64 {
        let (one, per_core) = match kind {
            Kind::Disjoint => (100_000, 10_000),
            Kind::Refault => (200_000, 20_000),
            Kind::SharedRemap => (100_000, 5_000),
            Kind::Superpage => (1_024, 128),
            Kind::Metis => (131_072, 16_384),
        };
        self.shrink(if ncores == 1 { one } else { per_core })
    }

    /// Words of one wall-clock Metis job.
    fn metis_words(&self) -> u64 {
        self.shrink(4_000_000)
    }

    /// Length of the warm-up window and of each timed window: a phase of
    /// 1 + [`WINDOWS`] of them takes half the run's seconds.
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 40.0)
    }
}

/// Violated checks and call totals, accumulated over a run's phases.
#[derive(Default)]
struct Verdict {
    tally: Tally,
    violations: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, phase: &str, tally: &Tally, violations: Vec<String>) {
        self.tally.add(tally);
        self.violations
            .extend(violations.into_iter().map(|v| format!("[{phase}] {v}")));
    }

    fn finish(self, metrics: Metrics) -> (RunOutput, Vec<String>) {
        let out = RunOutput {
            correct: self.violations.is_empty(),
            attempted: self.tally.attempted.max(1),
            failed: self.tally.failed,
            metrics: metrics.0,
        };
        (out, self.violations)
    }
}

/// Wall-clock Metis jobs at one thread count.
#[derive(Default)]
struct MetisPhase {
    /// Words per second of each untraced job.
    rates: Vec<f64>,
    traced_rates: Vec<f64>,
    /// Seconds each job's machine took to prepare.
    setups: Vec<f64>,
    counters: Counters,
    words: u64,
    tracers: Vec<SpanTrace>,
}

/// Runs jobs back to back, each on a fresh machine, for `budget` (at
/// least three; with `traced`, every other one records its steps).
fn metis_phase(
    p: &Params,
    threads: usize,
    budget: Duration,
    traced: bool,
    verdict: &mut Verdict,
) -> MetisPhase {
    let words = p.metis_words();
    let mut ph = MetisPhase::default();
    let base = Instant::now();
    if traced {
        ph.tracers = (0..threads)
            .map(|_| SpanTrace::new(base, Name::Step))
            .collect();
    }
    let mut first: Option<MetisTotals> = None;
    let mut n = 0;
    while n < 3 || base.elapsed() < budget {
        let t0 = Instant::now();
        let env = prepare_metis(threads);
        ph.setups.push(t0.elapsed().as_secs_f64());
        let trace_this = traced && n % 2 == 1;
        let mut violations = Vec::new();
        let job = metis_job(
            &env,
            threads,
            words,
            trace_this.then_some(&mut ph.tracers),
            &mut violations,
        );
        // (The arena's mmap count depends on the order a HashMap drains in.)
        let same = |a: &MetisTotals, b: &MetisTotals| {
            (a.pairs, a.distinct_words, a.outputs) == (b.pairs, b.distinct_words, b.outputs)
        };
        if !same(first.get_or_insert(job.totals), &job.totals) {
            violations.push(format!(
                "metis job {n} produced {:?}, job 0 {:?}",
                job.totals, first
            ));
        }
        let mut tally = Tally {
            attempted: words,
            ..Tally::default()
        };
        violations.extend(check_teardown(&env, &mut tally));
        verdict.absorb(&format!("metis {threads}t job {n}"), &tally, violations);
        if trace_this {
            ph.traced_rates.push(job.words_per_s);
        } else {
            ph.rates.push(job.words_per_s);
        }
        ph.counters = ph.counters.plus(&job.counters);
        ph.words += words;
        n += 1;
    }
    eprintln!("# {threads}t jobs, words/s: {:.0?}", ph.rates);
    ph
}

fn virt(p: &Params, kind: Kind, ncores: usize, verdict: &mut Verdict) -> VirtResult {
    let ops_per_core = p.virt_ops(kind, ncores);
    let t0 = Instant::now();
    let mut r = if kind == Kind::Metis {
        // A job's virtual time depends on the order its hash maps drain
        // in, which differs from job to job: take the median job.
        let mut jobs: Vec<VirtResult> = (0..METIS_VIRT_JOBS)
            .map(|_| metis_virt(ncores, ops_per_core * ncores as u64))
            .collect();
        jobs.sort_by_key(|r| r.virt_ns);
        jobs.swap_remove(METIS_VIRT_JOBS / 2)
    } else {
        virt_phase(kind, ncores, p.seed, ops_per_core)
    };
    verdict.absorb(
        &format!("virtual {ncores}c"),
        &r.tally,
        std::mem::take(&mut r.violations),
    );
    eprintln!(
        "# virtual {ncores}c: {} ops in {:.2} s of host time; lock-wait share {:.3}, {:.3} remote lines/op",
        r.ops,
        t0.elapsed().as_secs_f64(),
        ratio(r.sim.lock_wait_ns, r.sim.clock_sum),
        ratio(r.sim.remote_lines, r.ops),
    );
    r
}

/// The untraced run: every end-to-end metric.
///
/// The simulator runs come first, while the heap is as fresh as the
/// process start left it: simulated cache-line identity comes from real
/// heap addresses, and after the threaded phases those differ from run
/// to run. `peak_rss_mib` is read right after them, over fixed work: how
/// much memory the timed phases touch depends on how fast the host runs
/// them and on how long the scheduler stalls a thread (Refcache frees
/// wait for the slowest core's tick).
pub fn run_untraced(kind: Kind, p: &Params) -> (RunOutput, Vec<String>) {
    let mut verdict = Verdict::default();
    let v1 = virt(p, kind, 1, &mut verdict);
    let v16 = virt(p, kind, VIRT_CORES, &mut verdict);
    let rss = peak_rss_mib();

    let half = Duration::from_secs_f64(p.seconds / 2.0);
    let (wall_1t, wall, setups) = if kind == Kind::Metis {
        let one = metis_phase(p, 1, half, false, &mut verdict);
        let many = metis_phase(p, p.threads, half, false, &mut verdict);
        (
            upper_quartile(&one.rates),
            upper_quartile(&many.rates),
            many.setups,
        )
    } else {
        let warm = warm_ops(kind);
        let one = wall_phase::<false>(kind, prepare(kind, 1, p.seed, warm), p.window(), WINDOWS);
        verdict.absorb("wall 1t", &one.tally, one.violations);
        eprintln!("# 1t windows, ops/s: {:.0?}", one.windows);
        let mut setups = Vec::new();
        let mut prepared = None;
        for _ in 0..SETUPS {
            drop(prepared.take());
            let t0 = Instant::now();
            prepared = Some(prepare(kind, p.threads, p.seed, warm));
            setups.push(t0.elapsed().as_secs_f64());
        }
        eprintln!("# set-ups, s: {setups:.3?}");
        let prepared = prepared.expect("SETUPS > 0");
        let many = wall_phase::<false>(kind, prepared, p.window(), WINDOWS);
        verdict.absorb("wall Tt", &many.tally, many.violations);
        eprintln!("# {}t windows, ops/s: {:.0?}", p.threads, many.windows);
        (
            upper_quartile(&one.windows),
            upper_quartile(&many.windows),
            setups,
        )
    };

    let values = [
        wall,
        wall_1t,
        v16.ops_per_virt_s(),
        v1.virt_ns_per_op(),
        rss,
        median(&setups),
    ];
    let mut m = Metrics::default();
    for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
        m.put(name, unit, value);
    }
    verdict.finish(m)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: every per-layer metric. Spans and counters come from
/// the T-thread closed loop, the `sync.sim.*` figures from the 16-core
/// simulator run, the rest from the layer probes.
pub fn run_traced(kind: Kind, p: &Params) -> (RunOutput, Vec<String>) {
    let mut verdict = Verdict::default();
    let budget = Duration::from_secs_f64(p.seconds);
    let (plain, traced, counters, ops, tracers) = if kind == Kind::Metis {
        let ph = metis_phase(p, p.threads, budget, true, &mut verdict);
        (ph.rates, ph.traced_rates, ph.counters, ph.words, ph.tracers)
    } else {
        let prepared = prepare(kind, p.threads, p.seed, warm_ops(kind));
        let r = wall_phase::<true>(kind, prepared, p.window(), 2 * WINDOWS + 1);
        verdict.absorb("wall Tt traced", &r.tally, r.violations);
        (
            r.windows,
            r.traced_windows,
            r.counters,
            r.counted_ops,
            r.tracers,
        )
    };

    let mut m = Metrics::default();
    for (prefix, name) in SPAN_METRICS {
        let mut h = Hist::new();
        for t in &tracers {
            h.merge(&t.hists[name as usize]);
        }
        let (p50, upper) = h.percentiles();
        m.put(format!("{prefix}_ns.p50"), "ns", p50);
        m.put(format!("{prefix}_ns.p99"), "ns", upper);
        m.put(format!("{prefix}_ns.n"), "count", h.n() as f64);
    }
    m.put("trace.phase_cover_pct", "%", phase_cover_pct(&tracers));
    let (plain, traced) = (upper_quartile(&plain), upper_quartile(&traced));
    m.put("trace.overhead_pct", "%", 100.0 * (plain - traced) / plain);
    if let Some(dir) = &p.out_dir {
        let path = dir.join(format!("spans-{}.jsonl", kind.name()));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| write_spans(&path, &tracers)) {
            verdict
                .violations
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let c = &counters;
    let per_op = |n: u64| ratio(n, ops);
    let per_kop = |n: u64| 1_000.0 * ratio(n, ops);
    m.put("core.faults_alloc_per_op", "1/op", per_op(c.faults_alloc));
    m.put("core.faults_fill_per_op", "1/op", per_op(c.faults_fill));
    let hinted = if kind == Kind::Superpage { c.mmaps } else { 0 };
    m.put(
        "core.superpage_install_ratio",
        "ratio",
        ratio(c.superpage_installs, hinted),
    );
    m.put(
        "core.superpage_demotions_per_op",
        "1/op",
        per_op(c.superpage_demotions),
    );
    m.put(
        "core.superpage_promotions_per_op",
        "1/op",
        per_op(c.superpage_promotions),
    );
    m.put("core.block_fallbacks", "count", c.block_fallbacks as f64);
    m.put("core.oom_faults", "count", c.oom_faults as f64);
    m.put(
        "radix.hint_hit_rate",
        "ratio",
        ratio(c.hint_hits, c.hint_hits + c.hint_misses),
    );
    m.put("radix.slot_spins_per_op", "1/op", per_op(c.slot_spins));
    m.put("radix.guard_spills_per_op", "1/op", per_op(c.guard_spills));
    m.put(
        "hw.tlb.miss_rate",
        "ratio",
        ratio(c.tlb_misses, c.tlb_hits + c.tlb_misses),
    );
    m.put("hw.machine.ipis_per_op", "1/op", per_op(c.ipis));
    m.put(
        "hw.machine.shootdown_rounds_per_op",
        "1/op",
        per_op(c.shootdown_rounds),
    );
    m.put(
        "mem.reuse_rate",
        "ratio",
        ratio(c.pool_reused, c.pool_reused + c.pool_fresh),
    );
    m.put("mem.fresh_frames", "count", c.pool_fresh as f64);
    m.put(
        "mem.magazine_flushes_per_kop",
        "1/kop",
        per_kop(c.magazine_flushes),
    );
    m.put("mem.block_allocs_per_op", "1/op", per_op(c.block_allocs));
    m.put("refcache.flushes_per_kop", "1/kop", per_kop(c.rc_flushes));
    m.put(
        "refcache.dirty_zeros_per_kop",
        "1/kop",
        per_kop(c.rc_dirty_zeros),
    );
    m.put(
        "refcache.conflicts_per_kop",
        "1/kop",
        per_kop(c.rc_conflicts),
    );

    let v1 = virt(p, kind, 1, &mut verdict);
    let repeats = if p.quick { 1 } else { VIRT_REPEATS };
    let runs: Vec<VirtResult> = (0..repeats)
        .map(|_| virt(p, kind, VIRT_CORES, &mut verdict))
        .collect();
    let med = |f: &dyn Fn(&VirtResult) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let remote: Vec<f64> = runs
        .iter()
        .map(|r| ratio(r.sim.remote_lines, r.ops))
        .collect();
    let remote_med = median(&remote);
    m.put("sync.sim.remote_lines_per_op_16c", "1/op", remote_med);
    let (lo, hi) = remote
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    m.put(
        "sync.sim.remote_lines_per_op_16c.spread",
        "ratio",
        (hi - lo) / remote_med,
    );
    for label in SIM_LABELS {
        let of = |r: &VirtResult| {
            let n = r.sim.remote_by_label.iter().find(|(l, _)| *l == label);
            ratio(n.map_or(0, |(_, v)| *v), r.ops)
        };
        m.put(
            format!("sync.sim.remote_lines_per_op_16c.{label}"),
            "1/op",
            med(&of),
        );
    }
    m.put(
        "sync.sim.ipis_per_op_16c",
        "1/op",
        med(&|r| ratio(r.sim.ipis, r.ops)),
    );
    m.put(
        "sync.sim.lock_wait_share_16c",
        "ratio",
        med(&|r| ratio(r.sim.lock_wait_ns, r.sim.clock_sum)),
    );
    m.put(
        "sync.sim.heap_allocs_per_op_16c",
        "1/op",
        med(&|r| ratio(r.sim.heap_allocs, r.ops)),
    );
    let per_core_16 = med(&|r| r.ops_per_virt_s()) / VIRT_CORES as f64;
    m.put(
        "sync.sim.retention_16c",
        "ratio",
        per_core_16 * v1.virt_ns_per_op() / 1e9,
    );
    m.put(
        "sync.sim.host_ns_per_virt_op",
        "ns/op",
        med(&|r| ratio(r.host_ns, r.ops)),
    );

    for (name, ns) in probes::run_all() {
        m.put(name, "ns", ns);
    }
    verdict.finish(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::parse_result;

    fn quick() -> Params {
        Params {
            seed: 7,
            seconds: 1.0,
            threads: 2,
            quick: true,
            out_dir: None,
        }
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// A one-second pass of a workload meets its output checks, and what
    /// it reports parses back with well-formed names.
    fn quick_pass(kind: Kind) {
        let (out, violations) = run_untraced(kind, &quick());
        assert!(violations.is_empty(), "{}: {violations:?}", kind.name());
        assert!(out.correct && out.failed == 0 && out.attempted > 1);
        let (correct, metrics) = parse_result(&out.to_json()).unwrap();
        assert!(correct);
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        for (name, value) in &metrics {
            assert!(name_ok(name), "bad metric name {name}");
            assert!(*value > 0.0, "{}: {name} = {value}", kind.name());
        }
    }

    #[test]
    fn quick_disjoint() {
        quick_pass(Kind::Disjoint);
    }

    #[test]
    fn quick_refault() {
        quick_pass(Kind::Refault);
    }

    #[test]
    fn quick_shared_remap() {
        quick_pass(Kind::SharedRemap);
    }

    #[test]
    fn quick_superpage() {
        quick_pass(Kind::Superpage);
    }

    #[test]
    fn quick_metis() {
        quick_pass(Kind::Metis);
    }

    /// The traced run reports exactly the per-layer metrics BENCHMARK.json
    /// lists, and the untraced one its end-to-end metrics, units included.
    #[test]
    fn reported_metrics_match_benchmark_json() {
        let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec =
            crate::report::Json::parse(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let (out, violations) = run_traced(Kind::Disjoint, &quick());
        assert!(violations.is_empty(), "{violations:?}");
        let got: Vec<(String, String)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(got, listed("per_layer"));
        assert!(got.iter().all(|(n, _)| name_ok(n)));
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, listed("end_to_end"));
        let workloads: Vec<String> = spec
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let kinds: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(workloads, kinds);
    }
}
