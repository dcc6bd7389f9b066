//! Spans recorded by the benchmark around its calls into the VM.
//!
//! Workload ops are generic over [`Tracer`]. The untraced run
//! instantiates them with [`NoTrace`], whose methods are empty and
//! inline, so its loops contain no tracing code at all. The traced run
//! uses [`SpanTrace`]: every [`SAMPLE_EVERY`]-th op is timed as one `op`
//! span with a child span per call into the VM. Every sampled duration
//! feeds a fixed-size histogram (constant memory and constant cost for
//! the whole run, so the measured overhead is that of tracing throughout);
//! the first [`SPAN_CAP`] spans per thread are also kept whole and written
//! out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One op in this many is sampled. A prime, so that ops carrying a
/// periodic Refcache tick (every 32nd or 128th) are sampled in proportion;
/// the issue's 16 would sample every one of them.
pub const SAMPLE_EVERY: u64 = 17;
/// Whole spans kept per thread.
pub const SPAN_CAP: usize = 20_000;

/// What a span covers. `Op` is the parent of the others; `Step` (one
/// Metis scheduling quantum) stands alone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Name {
    Op,
    Mmap,
    /// An access call that misses the TLB by construction.
    Fault,
    /// An access call that may hit.
    Access,
    Munmap,
    Maintain,
    Step,
}

impl Name {
    pub const COUNT: usize = 7;

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Mmap => "mmap",
            Name::Fault => "fault",
            Name::Access => "access",
            Name::Munmap => "munmap",
            Name::Maintain => "maintain",
            Name::Step => "step",
        }
    }
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// The op's sequence number on its thread: shared by an op span and
    /// its children.
    pub op: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub trait Tracer {
    /// Starts op number `op`; the spans until [`Tracer::end_op`] belong
    /// to it.
    fn begin_op(&mut self, op: u64);
    /// Runs `f`, as a child span of the current op if it is sampled. A
    /// child starts where the previous one ended, the first where the op
    /// began (one clock read serves both spans), so the few instructions
    /// of bookkeeping between two calls into the VM count towards the
    /// later one.
    fn child<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R;
    /// Ends the op; with `keep` false its root span is dropped.
    fn end_op(&mut self, keep: bool);
}

/// The tracer of untraced runs: records nothing.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin_op(&mut self, _op: u64) {}

    #[inline(always)]
    fn child<R>(&mut self, _name: Name, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn end_op(&mut self, _keep: bool) {}
}

/// Per-thread span recorder.
pub struct SpanTrace {
    base: Instant,
    sampled: bool,
    root: Name,
    op: u64,
    op_id: u32,
    op_start: u64,
    /// Where the op's next child starts: the op's start, then the end of
    /// its latest child.
    boundary: u64,
    next_id: u32,
    pub spans: Vec<Span>,
    pub hists: Vec<Hist>,
}

impl SpanTrace {
    /// `base` is the instant all threads' timestamps count from; `root`
    /// names the top-level spans (`Op`, or `Step` for Metis, where every
    /// quantum is sampled).
    pub fn new(base: Instant, root: Name) -> SpanTrace {
        SpanTrace {
            base,
            sampled: false,
            root,
            op: 0,
            op_id: 0,
            op_start: 0,
            boundary: 0,
            next_id: 0,
            spans: Vec::with_capacity(SPAN_CAP),
            hists: (0..Name::COUNT).map(|_| Hist::new()).collect(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    #[inline]
    fn record(&mut self, id: u32, parent: u32, name: Name, start_ns: u64, end_ns: u64) {
        self.hists[name as usize].add(end_ns - start_ns);
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id,
                parent,
                op: self.op,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

impl Tracer for SpanTrace {
    #[inline]
    fn begin_op(&mut self, op: u64) {
        self.sampled = self.root == Name::Step || op.is_multiple_of(SAMPLE_EVERY);
        if self.sampled {
            self.op = op;
            self.op_id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1);
            self.op_start = self.now();
            self.boundary = self.op_start;
        }
    }

    #[inline]
    fn child<R>(&mut self, name: Name, f: impl FnOnce() -> R) -> R {
        if !self.sampled {
            return f();
        }
        let start = self.boundary;
        let r = f();
        let end = self.now();
        self.boundary = end;
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.record(id, self.op_id, name, start, end);
        r
    }

    #[inline]
    fn end_op(&mut self, keep: bool) {
        if self.sampled && keep {
            let end = self.now();
            self.record(self.op_id, NO_PARENT, self.root, self.op_start, end);
        }
        self.sampled = false;
    }
}

/// Sub-buckets per power of two: values land within 1/32 of their bucket.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    n: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            buckets: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            n: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let mant = (v >> (exp - SUB_BITS)) & (SUB - 1);
        ((exp - SUB_BITS + 1) as u64 * SUB + mant) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let (row, mant) = (i as u64 / SUB, i as u64 % SUB);
        if row == 0 {
            return mant as f64;
        }
        let shift = row - 1;
        let lo = (SUB + mant) << shift;
        lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    #[inline]
    pub fn add(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    /// The value of the sample at 0-based sorted position `rank`.
    pub fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::value(i);
            }
        }
        0.0
    }

    /// `(p50, upper)`: the median and the [`upper_rank`] sample; zeros
    /// when there are too few samples for either.
    pub fn percentiles(&self) -> (f64, f64) {
        if self.n == 0 {
            return (0.0, 0.0);
        }
        let p50 = self.at_rank((self.n - 1) / 2);
        let upper = upper_rank(self.n).map_or(0.0, |r| self.at_rank(r));
        (p50, upper)
    }
}

/// Fewest samples that must lie beyond a reported upper percentile.
pub const MIN_BEYOND: u64 = 10;

/// 0-based sorted position of the upper percentile of `n` samples: the
/// 99th, or with fewer than 1 000 samples the highest position that
/// still has [`MIN_BEYOND`] samples beyond it; `None` below 11 samples.
pub fn upper_rank(n: u64) -> Option<u64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    Some(p99.min(n - 1 - MIN_BEYOND))
}

/// A span's self time: its duration minus the part of its interval that
/// `children` (as `(start, end)`, any order, may overlap) cover.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Self time of every root span among `spans`, as `(span, self_ns)`.
pub fn root_self_times(spans: &[Span]) -> Vec<(Span, u64)> {
    let mut out = Vec::new();
    // A root is recorded after its children, which are contiguous.
    let mut pending: Vec<(u64, u64)> = Vec::new();
    let mut pending_parent = NO_PARENT;
    for s in spans {
        if s.parent == NO_PARENT {
            if pending_parent != s.id {
                pending.clear();
            }
            out.push((*s, self_time(s.start_ns, s.end_ns, &mut pending)));
            pending.clear();
        } else {
            if s.parent != pending_parent {
                pending.clear();
                pending_parent = s.parent;
            }
            pending.push((s.start_ns, s.end_ns));
        }
    }
    out
}

/// Share of root-span time covered by child spans, in percent.
pub fn phase_cover_pct(threads: &[SpanTrace]) -> f64 {
    let (mut total, mut own) = (0u64, 0u64);
    for t in threads {
        for (s, self_ns) in root_self_times(&t.spans) {
            total += s.end_ns - s.start_ns;
            own += self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * (total - own) as f64 / total as f64
    }
}

/// Writes the kept spans as JSON lines, one file for all threads.
pub fn write_spans(path: &std::path::Path, threads: &[SpanTrace]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, t) in threads.iter().enumerate() {
        let self_ns: std::collections::HashMap<u32, u64> = root_self_times(&t.spans)
            .into_iter()
            .map(|(s, own)| (s.id, own))
            .collect();
        for s in &t.spans {
            write!(w, "{{\"thread\":{thread},\"id\":{},\"parent\":", s.id)?;
            if s.parent == NO_PARENT {
                write!(w, "null")?;
            } else {
                write!(w, "{}", s.parent)?;
            }
            write!(
                w,
                ",\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.op,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
            if let Some(own) = self_ns.get(&s.id) {
                write!(w, ",\"self_ns\":{own}")?;
            }
            writeln!(w, "}}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_percentile_keeps_ten_samples_beyond() {
        assert_eq!(upper_rank(0), None);
        assert_eq!(upper_rank(10), None);
        // 11 samples: only the smallest has ten beyond it.
        assert_eq!(upper_rank(11), Some(0));
        for n in [11u64, 50, 200, 999, 1_000, 1_001, 5_000, 1_000_000] {
            let r = upper_rank(n).unwrap();
            assert!(n - 1 - r >= MIN_BEYOND, "n={n} rank={r}");
            // Never above the 99th percentile.
            assert!((r + 1) * 100 <= n * 99 + 99, "n={n} rank={r}");
        }
        // From 1 000 samples on it is the 99th percentile itself.
        assert_eq!(upper_rank(1_000), Some(989));
        assert_eq!(upper_rank(2_000), Some(1_979));
        // Below, it is capped by the ten-beyond rule.
        assert_eq!(upper_rank(500), Some(489));
    }

    #[test]
    fn histogram_ranks_within_resolution() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.add(v);
        }
        assert_eq!(h.n(), 10_000);
        for rank in [0u64, 99, 4_999, 9_899, 9_999] {
            let got = h.at_rank(rank);
            let want = (rank + 1) as f64;
            assert!(
                (got - want).abs() <= want / 32.0 + 1.0,
                "rank {rank}: {got} vs {want}"
            );
        }
        let (p50, upper) = h.percentiles();
        assert!((p50 - 5_000.0).abs() < 5_000.0 / 32.0);
        assert!((upper - 9_900.0).abs() < 9_900.0 / 32.0);
        // Exact below the first octave boundary.
        let mut small = Hist::new();
        small.add(7);
        assert_eq!(small.at_rank(0), 7.0);
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // No children: all of it.
        assert_eq!(self_time(100, 200, &mut []), 100);
        // Two disjoint children.
        assert_eq!(self_time(100, 200, &mut [(110, 130), (150, 160)]), 70);
        // Overlapping and out-of-order children count their union once.
        assert_eq!(self_time(100, 200, &mut [(150, 170), (110, 160)]), 40);
        // Children are clipped to the parent's interval.
        assert_eq!(self_time(100, 200, &mut [(90, 120), (190, 250)]), 70);
        // Fully covered.
        assert_eq!(self_time(100, 200, &mut [(100, 200)]), 0);
    }

    #[test]
    fn tracer_samples_one_op_in_seventeen_with_children() {
        let mut t = SpanTrace::new(Instant::now(), Name::Op);
        for op in 0..4 * SAMPLE_EVERY {
            t.begin_op(op);
            t.child(Name::Mmap, || std::hint::black_box(op));
            t.child(Name::Munmap, || std::hint::black_box(op));
            t.end_op(true);
        }
        assert_eq!(t.hists[Name::Op as usize].n(), 4);
        assert_eq!(t.hists[Name::Mmap as usize].n(), 4);
        assert_eq!(t.spans.len(), 12);
        let roots = root_self_times(&t.spans);
        assert_eq!(roots.len(), 4);
        for (root, own) in roots {
            assert_eq!(root.parent, NO_PARENT);
            assert_eq!(root.op % SAMPLE_EVERY, 0);
            assert!(own <= root.end_ns - root.start_ns);
            let kids: Vec<_> = t.spans.iter().filter(|s| s.parent == root.id).collect();
            assert_eq!(kids.len(), 2);
            assert!(kids.iter().all(|k| k.op == root.op
                && k.start_ns >= root.start_ns
                && k.end_ns <= root.end_ns));
        }
        let cover = phase_cover_pct(&[t]);
        assert!((0.0..=100.0).contains(&cover));
    }
}
