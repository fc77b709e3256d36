//! The traced run's span recorder, kept in the benchmark: spans are timed
//! from outside, around calls into each layer's public functions, and
//! held in memory until the run writes them out.
//!
//! A span records its name, start, end, parent, the process CPU time
//! spent between its start and end, and a request id for query spans. A
//! layer's self time is its duration minus the part of its interval its
//! child spans cover.

use std::io::Write as _;
use std::time::Instant;

/// Linux reports `/proc/self/stat` times in USER_HZ ticks, which is 100
/// per second on every architecture Rust targets there.
const TICKS_PER_SEC: f64 = 100.0;

/// Process CPU time (user + system, all threads, live and exited) in
/// seconds, from `/proc/self/stat`. Resolution is one tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after it start
    // past the last ')'. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    (tick(11) + tick(12)) as f64 / TICKS_PER_SEC
}

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Request id (query spans only).
    pub req: Option<u64>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Process CPU seconds over the span (0 for query spans).
    pub cpu_s: f64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with one time origin.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span named `name` under `parent`, with process CPU.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let cpu0 = process_cpu_s();
        let (out, id) = self.span_wall(name, parent, f);
        self.spans[id].cpu_s = process_cpu_s() - cpu0;
        (out, id)
    }

    /// Time `f` as a span without reading CPU time: for spans of a few
    /// microseconds, where a `/proc` read would cost more than the work.
    pub fn span_wall<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let id = self.record(Span {
            name,
            parent,
            req: None,
            start_ns: self.ns(t0),
            end_ns: self.ns(t1),
            cpu_s: 0.0,
        });
        (out, id)
    }

    /// Open a span whose end is set later with [`Tracer::close`] (a root
    /// around other spans).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        let cpu = process_cpu_s();
        self.record(Span { name, parent, req: None, start_ns: now, end_ns: now, cpu_s: cpu })
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.cpu_s = process_cpu_s() - span.cpu_s;
    }

    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append spans recorded elsewhere (a client thread's query spans),
    /// re-basing their parent ids.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"req\":{req},\"start_ns\":{},\"end_ns\":{},\"cpu_s\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cpu_s
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Children that overlap each
/// other (threads) are not double-subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a span log: calls, wall, self, CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub wall_s: f64,
    pub self_s: f64,
    pub cpu_s: f64,
}

pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, LayerTotals)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(&'static str, LayerTotals)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let i = match out.iter().position(|(n, _)| *n == s.name) {
            Some(i) => i,
            None => {
                out.push((s.name, LayerTotals::default()));
                out.len() - 1
            }
        };
        let t = &mut out[i].1;
        t.calls += 1;
        t.wall_s += s.dur_ns() as f64 * 1e-9;
        t.self_s += self_ns as f64 * 1e-9;
        t.cpu_s += s.cpu_s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, req: None, start_ns, end_ns, cpu_s: 0.0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            span("b.inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads' spans overlap inside one parent.
        let spans = vec![
            span("root", None, 0, 100),
            span("q", Some(0), 10, 60),
            span("q", Some(0), 40, 80),
            span("q", Some(0), 70, 75),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", None, 50, 100), span("late", Some(0), 90, 130)];
        assert_eq!(self_times_ns(&spans), vec![40, 40]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", None, 0, 1_000_000_000),
            span("leaf", Some(0), 0, 250_000_000),
            span("leaf", Some(0), 500_000_000, 750_000_000),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "root");
        assert!((totals[0].1.self_s - 0.5).abs() < 1e-9);
        assert_eq!(totals[1].1.calls, 2);
        assert!((totals[1].1.wall_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut t = Tracer::new(Instant::now());
        t.record(span("root", None, 0, 10));
        t.absorb(vec![span("q", None, 1, 2), span("q.connect", Some(0), 1, 2)]);
        assert_eq!(t.spans[2].parent, Some(1));
    }

    #[test]
    fn process_cpu_reads_and_grows() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > before, "60 ms of spinning shows in /proc/self/stat");
    }
}
