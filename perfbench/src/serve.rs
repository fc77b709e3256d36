//! The serving side: the daemon's feed, its ingest (plain and traced),
//! a running `dnsimpactd` server, and an open-loop query generator.
//!
//! The generator is open-loop and corrected for coordinated omission:
//! query `k` is due at `k / rate` seconds after the phase starts, whether
//! or not earlier queries have returned, and its latency runs from that
//! due time. Client threads (at most nproc, each with one connection at a
//! time) take the due queries round-robin; a thread that falls behind
//! sends late, and the lateness is recorded.

use crate::stats::Samples;
use crate::trace::{Span, SpanId, Tracer};
use dnsimpactd::feed::{self, FeedConfig, FeedSource};
use dnsimpactd::{
    DomainDir, IndexSnapshot, IndexState, IngestConfig, Ingestor, Server, ServerConfig,
};
use simcore::dist::Zipf;
use simcore::rng::RngFactory;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamproc::{reliable_stream, SwapCell};

/// Zipf exponent of domain popularity over the directory's name order.
pub const ZIPF_S: f64 = 1.1;
/// A query with no complete answer after this long is a failure.
const QUERY_TIMEOUT: Duration = Duration::from_secs(2);
/// Every this-many-th query's body is parsed in full and compared field
/// by field; the rest are checked on status and NSSet id.
const FULL_CHECK_EVERY: u64 = 64;

/// The daemon's pinned feed at `attacks` scale (`FeedConfig::pinned`:
/// its own fixed seed and calibrated gap and outage schedules), so every
/// run serves the same index; the benchmark seed varies the query draw.
pub fn build_feed(attacks: u64, jobs: usize) -> FeedSource {
    feed::build(&FeedConfig::pinned(attacks), jobs)
}

/// The index an in-process replay of the whole feed arrives at.
pub fn replay(source: &FeedSource) -> IndexState {
    let mut state = IndexState::default();
    for batch in &source.batches {
        state.apply(&source.world, batch);
    }
    state
}

/// A started server with everything a query check needs.
pub struct Daemon {
    pub server: Server,
    pub cell: Arc<SwapCell<IndexSnapshot>>,
    pub dir: Arc<DomainDir>,
    /// Directory names in rank order, and each name's NSSet id.
    pub names: Vec<String>,
    pub nssets: Vec<u32>,
}

pub fn start_daemon(source: &FeedSource) -> Daemon {
    let dir = Arc::new(DomainDir::build(&source.world.infra));
    let names: Vec<String> = dir.names().map(str::to_string).collect();
    let nssets = names
        .iter()
        .map(|n| dir.lookup(n).expect("a directory name looks itself up").1 .0)
        .collect();
    let cell = Arc::new(SwapCell::new(IndexSnapshot::default()));
    let server = Server::start(&ServerConfig::default(), Arc::clone(&cell), Arc::clone(&dir), None)
        .expect("bind a loopback port for dnsimpactd");
    Daemon { server, cell, dir, names, nssets }
}

/// `Ingestor::run` over the whole feed into `cell`, timed. Returns the
/// wall time and the full fingerprint the final publish carries.
pub fn ingest(source: &FeedSource, cell: &Arc<SwapCell<IndexSnapshot>>) -> (f64, Option<u64>) {
    let mut ingestor = Ingestor::new(source, IngestConfig::default(), Arc::clone(cell));
    let t0 = Instant::now();
    ingestor.run();
    let wall = t0.elapsed().as_secs_f64();
    (wall, cell.load().full_fp)
}

/// The traced replica of `Ingestor::run` (no chaos, no checkpoints, no
/// pacing): per segment `reliable_stream`, then per batch
/// `IndexState::apply` → `IndexState::snapshot` → `SwapCell::store`.
/// Returns the root span and the final state's full fingerprint.
pub fn ingest_traced(
    source: &FeedSource,
    cell: &SwapCell<IndexSnapshot>,
    tracer: &mut Tracer,
) -> (SpanId, u64) {
    let cfg = IngestConfig::default();
    let total = source.batches.len();
    let mut state = IndexState::default();
    let root = tracer.open("dnsimpactd.ingest", None);
    let p = Some(root);
    for start in (0..total).step_by(cfg.segment.max(1)) {
        let end = (start + cfg.segment.max(1)).min(total);
        let (delivered, _) = tracer.span_wall("streamproc.transport", p, || {
            reliable_stream(
                "dnsimpactd-feed",
                source.batches[start..end].to_vec(),
                None,
                &cfg.supervisor,
            )
            .0
        });
        for batch in &delivered {
            tracer.span_wall("dnsimpactd.apply", p, || state.apply(&source.world, batch));
            let (snap, _) =
                tracer.span_wall("dnsimpactd.snapshot", p, || state.snapshot(total as u64, false));
            tracer.span_wall("streamproc.swap.store", p, || cell.store(snap));
        }
    }
    let (snap, _) =
        tracer.span_wall("dnsimpactd.snapshot", p, || state.snapshot(total as u64, true));
    tracer.span_wall("streamproc.swap.store", p, || cell.store(snap));
    tracer.close(root);
    (root, state.full_fingerprint())
}

/// How one query ended. Every query due gets exactly one outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// 200 with the right answer.
    Ok,
    /// 200 with an answer that does not match the directory or snapshot.
    Wrong,
    /// 404 for a directory name.
    NotFound,
    /// 503: shed at admission.
    Shed,
    /// Any other status.
    OtherStatus,
    /// Connect, write or read failed, or the answer took too long.
    Error,
}

/// One query's timeline, in nanoseconds since the phase start.
#[derive(Clone, Copy, Debug)]
pub struct QueryRec {
    pub k: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub connected_ns: u64,
    pub written_ns: u64,
    pub first_byte_ns: u64,
    pub done_ns: u64,
    /// `SwapCell::load` time measured just before sending (traced runs).
    pub load_ns: u64,
    pub outcome: Outcome,
}

impl QueryRec {
    /// Latency from the due time, in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }
    pub fn late_us(&self) -> u64 {
        (self.sent_ns - self.due_ns) / 1000
    }
}

/// What answers are checked against: the NSSet of every name, and the
/// attack counts of the fully ingested index.
pub struct Expect<'a> {
    pub nssets: &'a [u32],
    pub final_attacks: &'a BTreeMap<u32, u64>,
    /// Read-only phases serve the final index, so attack counts must
    /// match exactly; during ingest they may only be at most final.
    pub exact: bool,
}

/// A load phase's shape.
pub struct LoadSpec<'a> {
    pub addr: SocketAddr,
    pub rate: u64,
    pub threads: usize,
    /// Draws differ per phase tag, repeat per seed.
    pub rngs: RngFactory,
    pub tag: &'static str,
    pub names: &'a [String],
    pub zipf: &'a Zipf,
    pub expect: Expect<'a>,
    /// Time `SwapCell::load` on this cell before each query (traced runs).
    pub cell: Option<&'a SwapCell<IndexSnapshot>>,
}

/// Stops an open-ended phase: queries due at or after the end are not sent.
pub struct PhaseEnd(AtomicU64);

impl PhaseEnd {
    pub fn after(d: Duration) -> PhaseEnd {
        PhaseEnd(AtomicU64::new(d.as_nanos() as u64))
    }
    pub fn open() -> PhaseEnd {
        PhaseEnd(AtomicU64::new(u64::MAX))
    }
    pub fn stop_at(&self, ns: u64) {
        self.0.store(ns, Ordering::SeqCst);
    }
    fn get(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Run the load from `start` until `end`, concurrently with `during`
/// (which runs on the calling thread and may stop the phase). Returns
/// every query's record in due order, and `during`'s result.
pub fn run_load<T>(
    spec: &LoadSpec,
    start: Instant,
    end: &PhaseEnd,
    during: impl FnOnce() -> T,
) -> (Vec<QueryRec>, T) {
    let threads = spec.threads.max(1) as u64;
    let (mut recs, out) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut rng = spec.rngs.stream_indexed(spec.tag, t);
                scope.spawn(move || {
                    let mut recs = Vec::new();
                    let mut k = t;
                    loop {
                        let due_ns = (k as u128 * 1_000_000_000 / spec.rate as u128) as u64;
                        if due_ns >= end.get() {
                            break;
                        }
                        let rank = spec.zipf.sample(&mut rng);
                        let ahead = (start + Duration::from_nanos(due_ns))
                            .saturating_duration_since(Instant::now());
                        if !ahead.is_zero() {
                            std::thread::sleep(ahead);
                        }
                        recs.push(query(spec, start, k, due_ns, rank - 1));
                        k += threads;
                    }
                    recs
                })
            })
            .collect();
        // If `during` panics before ending an open phase, end it anyway so
        // the load threads stop and the scope can unwind.
        struct EndOnUnwind<'a>(&'a PhaseEnd);
        impl Drop for EndOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.stop_at(0);
                }
            }
        }
        let guard = EndOnUnwind(end);
        let out = during();
        drop(guard);
        let recs: Vec<QueryRec> =
            handles.into_iter().flat_map(|h| h.join().expect("a load thread panicked")).collect();
        (recs, out)
    });
    recs.sort_by_key(|r| r.k);
    (recs, out)
}

fn query(spec: &LoadSpec, start: Instant, k: u64, due_ns: u64, idx: usize) -> QueryRec {
    let ns = |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
    let load_ns = spec.cell.map_or(0, |cell| {
        let t = Instant::now();
        std::hint::black_box(cell.load());
        t.elapsed().as_nanos() as u64
    });
    let mut rec = QueryRec {
        k,
        due_ns,
        sent_ns: ns(Instant::now()),
        connected_ns: 0,
        written_ns: 0,
        first_byte_ns: 0,
        done_ns: 0,
        load_ns,
        outcome: Outcome::Error,
    };
    let name = &spec.names[idx];
    let result = (|| -> std::io::Result<(u16, Vec<u8>)> {
        let mut conn = TcpStream::connect_timeout(&spec.addr, QUERY_TIMEOUT)?;
        rec.connected_ns = ns(Instant::now());
        conn.set_read_timeout(Some(QUERY_TIMEOUT))?;
        conn.set_write_timeout(Some(QUERY_TIMEOUT))?;
        conn.write_all(
            format!("GET /query?domain={name} HTTP/1.1\r\nHost: dnsimpactd\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )?;
        rec.written_ns = ns(Instant::now());
        let mut raw = Vec::with_capacity(1024);
        let mut chunk = [0u8; 1024];
        loop {
            let n = conn.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            if raw.is_empty() {
                rec.first_byte_ns = ns(Instant::now());
            }
            raw.extend_from_slice(&chunk[..n]);
        }
        let status = raw
            .split(|&b| b == b' ')
            .nth(1)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::other("malformed status line"))?;
        Ok((status, raw))
    })();
    rec.done_ns = ns(Instant::now());
    rec.outcome = match result {
        Ok((200, raw)) => {
            if answer_matches(&raw, name, idx, k, &spec.expect) {
                Outcome::Ok
            } else {
                Outcome::Wrong
            }
        }
        Ok((404, _)) => Outcome::NotFound,
        Ok((503, _)) => Outcome::Shed,
        Ok(_) => Outcome::OtherStatus,
        Err(_) => Outcome::Error,
    };
    if rec.done_ns - due_ns > QUERY_TIMEOUT.as_nanos() as u64 && rec.outcome == Outcome::Ok {
        rec.outcome = Outcome::Error;
    }
    rec
}

/// Check one 200 answer: always the NSSet id; every
/// `FULL_CHECK_EVERY`-th query, the whole body.
fn answer_matches(raw: &[u8], name: &str, idx: usize, k: u64, expect: &Expect) -> bool {
    let Some(body) = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| &raw[i + 4..]) else {
        return false;
    };
    let Ok(body) = std::str::from_utf8(body) else { return false };
    let nsset = expect.nssets[idx];
    if !k.is_multiple_of(FULL_CHECK_EVERY) {
        return field_u64(body, "nsset") == Some(nsset as u64);
    }
    let Ok(doc) = obs::Json::parse(body) else { return false };
    let attacks = doc.get("attacks_seen").and_then(|v| v.as_u64());
    let want = expect.final_attacks.get(&nsset).copied().unwrap_or(0);
    doc.get("domain").and_then(|v| v.as_str()) == Some(name)
        && doc.get("nsset").and_then(|v| v.as_u64()) == Some(nsset as u64)
        && doc.get("staleness_s").and_then(|v| v.as_u64()).is_some()
        && attacks.is_some_and(|a| if expect.exact { a == want } else { a <= want })
}

/// The unsigned integer after `"key":` in a JSON text, without a parse.
fn field_u64(body: &str, key: &str) -> Option<u64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String =
        body[at..].trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// The outcome tally of a set of queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub due: u64,
    /// Queries whose request was written.
    pub sent: u64,
    pub ok: u64,
    pub wrong: u64,
    pub not_found: u64,
    pub shed: u64,
    pub other_status: u64,
    pub errors: u64,
    /// Queries whose connect succeeded: each is one connection the
    /// server's accept loop counts as received.
    pub connected: u64,
}

impl Tally {
    pub fn of(recs: &[QueryRec]) -> Tally {
        let mut t = Tally::default();
        for r in recs {
            t.due += 1;
            if r.written_ns > 0 {
                t.sent += 1;
            }
            if r.connected_ns > 0 {
                t.connected += 1;
            }
            match r.outcome {
                Outcome::Ok => t.ok += 1,
                Outcome::Wrong => t.wrong += 1,
                Outcome::NotFound => t.not_found += 1,
                Outcome::Shed => t.shed += 1,
                Outcome::OtherStatus => t.other_status += 1,
                Outcome::Error => t.errors += 1,
            }
        }
        t
    }

    pub fn failed(&self) -> u64 {
        self.due - self.ok
    }

    pub fn add(&mut self, o: &Tally) {
        self.due += o.due;
        self.sent += o.sent;
        self.ok += o.ok;
        self.wrong += o.wrong;
        self.not_found += o.not_found;
        self.shed += o.shed;
        self.other_status += o.other_status;
        self.errors += o.errors;
        self.connected += o.connected;
    }
}

/// Latencies in nanoseconds (from the due time) of queries due in
/// `[from_ns, to_ns)`.
pub fn latencies_between(recs: &[QueryRec], from_ns: u64, to_ns: u64) -> Samples {
    Samples::new(
        recs.iter()
            .filter(|r| r.due_ns >= from_ns && r.due_ns < to_ns)
            .map(QueryRec::latency_ns)
            .collect(),
    )
}

/// The daemon's own books, from `/statz`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Books {
    pub received: u64,
    pub served: u64,
    pub shed: u64,
    pub errors: u64,
}

/// Read `/statz` once the daemon is quiet. The `/statz` request itself is
/// received but not yet served while it renders, so a quiet daemon shows
/// `received == served + shed + errors + 1`; poll briefly until it does
/// (a worker counts a query served just after writing its answer).
/// Returns the books and the number of `/statz` requests made.
pub fn read_books(addr: SocketAddr) -> Result<(Books, u64), String> {
    let mut last = Books::default();
    for polls in 1..=50 {
        let (status, body) = dnsimpactd::http_get(addr, "/statz", QUERY_TIMEOUT)
            .map_err(|e| format!("/statz: {e}"))?;
        if status != 200 {
            return Err(format!("/statz answered {status}"));
        }
        let doc = obs::Json::parse(&body).map_err(|e| format!("/statz body: {e}"))?;
        let field = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        last = Books {
            received: field("queries_received"),
            served: field("queries_served"),
            shed: field("queries_shed"),
            errors: field("query_errors"),
        };
        if last.received == last.served + last.shed + last.errors + 1 {
            return Ok((last, polls));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Err(format!("/statz never balanced: {last:?}"))
}

/// Query spans for a traced run: one `query` span per query (from send
/// to done, carrying the query's request id) with `http.connect`,
/// `http.ttfb` and `http.body` children. `base_ns` re-bases the phase's
/// clock onto the tracer's.
pub fn query_spans(recs: &[QueryRec], base_ns: u64, limit: usize) -> Vec<Span> {
    let mut spans = Vec::new();
    for r in recs.iter().filter(|r| r.first_byte_ns > 0).take(limit) {
        let at = |ns: u64| base_ns + ns;
        let parent = spans.len();
        let mk = |name, parent, a, b| Span {
            name,
            parent,
            req: Some(r.k),
            start_ns: at(a),
            end_ns: at(b),
            cpu_s: 0.0,
        };
        spans.push(mk("query", None, r.sent_ns, r.done_ns));
        spans.push(mk("http.connect", Some(parent), r.sent_ns, r.connected_ns));
        spans.push(mk("http.ttfb", Some(parent), r.written_ns, r.first_byte_ns));
        spans.push(mk("http.body", Some(parent), r.first_byte_ns, r.done_ns));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_u64_reads_compact_and_pretty_json() {
        assert_eq!(field_u64("{\"nsset\":17,\"x\":1}", "nsset"), Some(17));
        assert_eq!(field_u64("{\n  \"nsset\": 4021,\n}", "nsset"), Some(4021));
        assert_eq!(field_u64("{\"other\":1}", "nsset"), None);
    }

    fn rec(k: u64, outcome: Outcome, connected: bool) -> QueryRec {
        QueryRec {
            k,
            due_ns: k * 1000,
            sent_ns: k * 1000 + 10,
            connected_ns: if connected { k * 1000 + 20 } else { 0 },
            written_ns: k * 1000 + 30,
            first_byte_ns: k * 1000 + 40,
            done_ns: k * 1000 + 5000,
            load_ns: 0,
            outcome,
        }
    }

    #[test]
    fn every_query_is_classified_once() {
        let recs = vec![
            rec(0, Outcome::Ok, true),
            rec(1, Outcome::Shed, true),
            rec(2, Outcome::Error, false),
            rec(3, Outcome::Wrong, true),
            rec(4, Outcome::NotFound, true),
        ];
        let t = Tally::of(&recs);
        let classified = t.ok + t.wrong + t.not_found + t.shed + t.other_status + t.errors;
        assert_eq!(classified, t.due);
        assert_eq!((t.due, t.failed(), t.connected), (5, 4, 4));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let r = rec(3, Outcome::Ok, true);
        assert_eq!(r.latency_ns(), 5000);
        assert_eq!(r.late_us(), 0);
        let s = latencies_between(&[rec(0, Outcome::Ok, true), rec(9, Outcome::Ok, true)], 0, 5000);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn query_spans_nest_phases_under_the_query() {
        let spans = query_spans(&[rec(2, Outcome::Ok, true)], 100, 10);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.req == Some(2)));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].start_ns, 100 + 2010);
    }
}
