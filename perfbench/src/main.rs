//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs both halves of the system on generated inputs: the
//! batch join (`core::longitudinal::run`) on one attack mix, and
//! `dnsimpactd` serving an open-loop Zipf query load over one pinned feed.
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! runs the traced replicas and reports per-layer numbers. The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Any correctness mismatch (a fingerprint, an answer, the
//! daemon's books) makes the exit code non-zero.

mod pipeline;
mod serve;
mod stats;
mod trace;

use pipeline::{Inputs, Mix};
use serve::{Daemon, Expect, LoadSpec, PhaseEnd, QueryRec, Tally};
use simcore::dist::Zipf;
use simcore::rng::RngFactory;
use stats::{median, Probe, Samples};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use telescope::Darknet;
use trace::{totals_by_name, Tracer};

/// Base ("low") and high query rates, about 1/4 and 0.6 of the capacity
/// measured on a 2-vCPU host. The high rate is rung 38 of the capacity
/// ladder.
const LOW_QPS: u64 = 2_500;
const HIGH_QPS: u64 = 6_385;
/// The capacity rule's p99 limit (latency from the due time).
const P99_LIMIT_US: u64 = 10_000;
/// Backlog test slack: lateness may drift up this much across a probe.
const BACKLOG_SLACK_US: u64 = 1_000;
/// Capacity probe: a warm-up, then the measured span, cut into windows.
const PROBE_WARM: Duration = Duration::from_millis(250);
const PROBE_SPAN: Duration = Duration::from_millis(1000);
const PROBE_WINDOW: Duration = Duration::from_millis(500);
/// Fixed-rate phases are cut into windows of this length; a phase's
/// percentiles are the medians of its windows' exact percentiles, so a
/// host stall that spoils one window does not move them. A read-only
/// phase's first window is a warm-up.
const WINDOW: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The seed of the batch join's world and attack catalog: pinned, like
/// the daemon's feed, so every run does the same work. `--seed` seeds the
/// join's own sampling and measurement streams and the query draw.
const INPUT_SEED: u64 = 42;
/// Shares of `--seconds` each phase measures for, and the least it
/// measures whatever the budget: pipeline pairs (jobs=nproc, jobs=1)
/// after one warm-up run, ingests, and read-only windows after one
/// warm-up window.
const PIPELINE_SHARE: f64 = 0.6;
const INGEST_SHARE: f64 = 0.15;
const READ_ONLY_SHARE: f64 = 0.2;
const MIN_PAIRS: usize = 2;
const MIN_INGESTS: usize = 2;
const MIN_WINDOWS: usize = 6;
/// Query spans kept in a traced run's span file.
const QUERY_SPAN_LIMIT: usize = 20_000;

/// The end-to-end metrics an untraced run reports, in order, with units
/// (`BENCHMARK.json`'s `end_to_end`).
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics a traced run reports, in order, with units
/// (`BENCHMARK.json`'s `per_layer`).
const PER_LAYER: [(&str, &str); 53] = [
    ("scenarios.world.wall_s", "s"),
    ("attack.schedule.wall_s", "s"),
    ("dnsimpactd.feed.wall_s", "s"),
    ("attack.loads.wall_s", "s"),
    ("telescope.backscatter.wall_s", "s"),
    ("telescope.backscatter.cpu_s", "s"),
    ("telescope.backscatter.obs", "count"),
    ("telescope.classify.wall_s", "s"),
    ("telescope.classify.records", "count"),
    ("telescope.episodes.wall_s", "s"),
    ("telescope.episodes.episodes", "count"),
    ("core.join.wall_s", "s"),
    ("core.join.cpu_s", "s"),
    ("core.join.par_eff", "ratio"),
    ("core.join.rows", "count"),
    ("core.join.hit_ratio", "ratio"),
    ("core.impact.wall_s", "s"),
    ("core.impact.cpu_s", "s"),
    ("core.impact.par_eff", "ratio"),
    ("core.impact.impacts", "count"),
    ("core.impact.records_measured", "count"),
    ("core.impact.yield", "ratio"),
    ("core.summaries.wall_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.serial_share", "ratio"),
    ("pipeline.front_share", "ratio"),
    ("pipeline.join_impact_share", "ratio"),
    ("pipeline.trace_overhead", "ratio"),
    ("streamproc.transport.wall_s", "s"),
    ("dnsimpactd.apply.wall_s", "s"),
    ("dnsimpactd.apply.p99_us", "us"),
    ("dnsimpactd.snapshot.wall_s", "s"),
    ("dnsimpactd.snapshot.p99_us", "us"),
    ("dnsimpactd.snapshot.share", "ratio"),
    ("streamproc.swap.store_us", "us"),
    ("streamproc.swap.load_us", "us"),
    ("dnsimpactd.ingest.self_s", "s"),
    ("dnsimpactd.ingest.trace_overhead", "ratio"),
    ("dnsimpactd.lookup.ns", "ns"),
    ("http.connect_us.p50", "us"),
    ("http.connect_us.p99", "us"),
    ("http.ttfb_us.p50", "us"),
    ("http.ttfb_us.p99", "us"),
    ("http.body_us.p99", "us"),
    ("http.capacity_qps", "1/s"),
    ("dnsimpactd.received", "count"),
    ("dnsimpactd.served", "count"),
    ("dnsimpactd.shed", "count"),
    ("dnsimpactd.errors", "count"),
    ("loadgen.due", "count"),
    ("loadgen.sent", "count"),
    ("loadgen.late_p99_us", "us"),
    ("proc.cpu_s", "s"),
];

/// One workload: an attack mix for the batch join and a feed scale for
/// the daemon.
struct Workload {
    name: &'static str,
    mix: Mix,
    feed_attacks: u64,
    /// Whether the feed is ingested under the base-rate query load, and
    /// `query_p50_us`/`query_p90_us` come from that load (true), or is
    /// ingested alone and they come from the read-only index (false).
    ingest_under_load: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper-150k.serve-zipf",
        mix: Mix { attacks: 150_000, dns_share_factor: 1.0 },
        feed_attacks: 15_000,
        ingest_under_load: false,
    },
    Workload {
        name: "dns-heavy-50k.serve-ingest",
        mix: Mix { attacks: 50_000, dns_share_factor: 20.0 },
        feed_attacks: 150_000,
        ingest_under_load: true,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 36.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?} or all"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// What one workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Correctness mismatches: fingerprints, wrong answers, books.
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
    /// Printed by name in the table but not in the result line: too noisy
    /// across runs on a shared host to hold a regression bound (README).
    printed: Vec<Metric>,
    /// Extra human-readable lines (sample counts, tables).
    notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: Vec::new(),
            printed: Vec::new(),
            notes: Vec::new(),
        }
    }
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
    fn printed(&mut self, name: &str, value: f64, unit: &'static str) {
        self.printed.push((name.to_string(), value, unit));
    }
    /// The metrics reported must be exactly the declared set.
    fn check_declared(&mut self, declared: &[(&str, &str)]) {
        let got: Vec<(String, &str)> =
            self.metrics.iter().map(|(n, _, u)| (n.clone(), *u)).collect();
        let ok = got.len() == declared.len()
            && declared.iter().all(|&(n, u)| got.iter().any(|(gn, gu)| gn == n && *gu == u));
        self.check(ok, || {
            format!("reported metrics {got:?} differ from the declared {declared:?}")
        });
    }
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }
}

/// Everything set up once per run.
struct Setup {
    inputs: Inputs,
    feed: dnsimpactd::FeedSource,
    daemon: Daemon,
    zipf: Zipf,
    /// In-process replay of the feed: the served index must equal it.
    replay_fp: u64,
    final_attacks: BTreeMap<u32, u64>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Build the run's inputs and start the daemon; with a tracer, each
/// layer call is a span.
fn set_up(w: &Workload, seed: u64, mut tracer: Option<&mut Tracer>) -> Setup {
    fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tracer {
            Some(t) => t.span(name, None, f).0,
            None => f(),
        }
    }
    let input_rngs = RngFactory::new(INPUT_SEED);
    let world = timed(&mut tracer, "scenarios.world", || pipeline::build_world(&input_rngs));
    let (attacks, months) = timed(&mut tracer, "attack.schedule", || {
        pipeline::build_schedule(&world, w.mix, &input_rngs)
    });
    let feed = timed(&mut tracer, "dnsimpactd.feed", || serve::build_feed(w.feed_attacks, nproc()));
    let daemon = serve::start_daemon(&feed);
    Setup {
        inputs: Inputs {
            world,
            attacks,
            months,
            darknet: Darknet::ucsd_like(),
            rngs: RngFactory::new(seed),
        },
        zipf: Zipf::new(daemon.names.len(), serve::ZIPF_S),
        feed,
        daemon,
        replay_fp: 0,
        final_attacks: BTreeMap::new(),
    }
}

/// The correctness references: an in-process replay of the feed.
fn add_references(s: &mut Setup) {
    let state = serve::replay(&s.feed);
    s.replay_fp = state.full_fingerprint();
    s.final_attacks = state.nssets.iter().map(|(&k, v)| (k, v.attacks_seen)).collect();
}

fn load_spec<'a>(s: &'a Setup, rate: u64, tag: &'static str, exact: bool) -> LoadSpec<'a> {
    LoadSpec {
        addr: s.daemon.server.addr(),
        rate,
        threads: nproc(),
        rngs: s.inputs.rngs.fork("perfbench-queries"),
        tag,
        names: &s.daemon.names,
        zipf: &s.zipf,
        expect: Expect { nssets: &s.daemon.nssets, final_attacks: &s.final_attacks, exact },
        cell: None,
    }
}

/// Percentiles of a phase: the median over its windows (after the
/// warm-up window) of each window's exact p50, p90 and p99, in
/// microseconds.
struct PhaseLatency {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    /// Latencies (ns) pooled over the measured windows, for the notes.
    pooled: Samples,
}

/// `[from_ns, to_ns)` cut into windows of `len`; a tail shorter than half
/// a window is dropped, and a span shorter than one window is one window.
fn windows_of(from_ns: u64, to_ns: u64, len: Duration) -> Vec<(u64, u64)> {
    let len = len.as_nanos() as u64;
    if to_ns - from_ns < len {
        return vec![(from_ns, to_ns)];
    }
    (from_ns..to_ns)
        .step_by(len as usize)
        .map(|a| (a, (a + len).min(to_ns)))
        .filter(|(a, b)| b - a >= len / 2)
        .collect()
}

/// Each window of `windows` over the one record set `recs`.
fn windows_over<'a>(
    recs: &'a [QueryRec],
    windows: &[(u64, u64)],
) -> Vec<(&'a [QueryRec], (u64, u64))> {
    windows.iter().map(|&w| (recs, w)).collect()
}

fn windowed_latency(parts: &[(&[QueryRec], (u64, u64))]) -> PhaseLatency {
    let mut per_q: [Vec<f64>; 3] = Default::default();
    let mut pooled = Vec::new();
    for &(recs, (a, b)) in parts {
        let s = serve::latencies_between(recs, a, b);
        for (v, q) in per_q.iter_mut().zip([0.5, 0.9, 0.99]) {
            v.extend(s.percentile(q).map(|ns| ns as f64 / 1e3));
        }
        pooled.extend(
            recs.iter().filter(|r| r.due_ns >= a && r.due_ns < b).map(QueryRec::latency_ns),
        );
    }
    let [p50, p90, p99] = per_q.map(|v| median(&v).unwrap_or(f64::NAN));
    PhaseLatency { p50_us: p50, p90_us: p90, p99_us: p99, pooled: Samples::new(pooled) }
}

/// Sample counts behind a phase's percentiles: the windows' medians, and
/// the pooled percentiles with how many samples lie beyond each.
fn latency_note(label: &str, rate: u64, lat: &PhaseLatency, windows: usize) -> String {
    let s = &lat.pooled;
    let (p50, p99) = (s.percentile(0.5).unwrap_or(0), s.percentile(0.99).unwrap_or(0));
    let us = |ns: u64| ns as f64 / 1e3;
    format!(
        "{label} @ {rate} qps: median of {windows} windows p50 {:.1} us, p90 {:.1} us, p99 {:.1} us; pooled n={} p50 {:.1} us ({} beyond) p99 {:.1} us ({} beyond) max {:.1} us",
        lat.p50_us,
        lat.p90_us,
        lat.p99_us,
        s.len(),
        us(p50),
        s.beyond(p50),
        us(p99),
        s.beyond(p99),
        us(s.max().unwrap_or(0))
    )
}

/// A read-only phase at a fixed rate: one warm-up window plus at least
/// `MIN_WINDOWS` measured windows, as many as `budget` seconds allow.
/// Returns the queries, the measured windows and the phase's start.
fn read_only_phase(
    s: &Setup,
    rate: u64,
    tag: &'static str,
    budget: f64,
) -> (Vec<QueryRec>, Vec<(u64, u64)>, Instant) {
    let n = MIN_WINDOWS.max((budget / WINDOW.as_secs_f64()).floor() as usize);
    let spec = load_spec(s, rate, tag, true);
    let end = PhaseEnd::after(WINDOW * (n as u32 + 1));
    let start = Instant::now();
    let (recs, ()) = serve::run_load(&spec, start, &end, || ());
    let w = WINDOW.as_nanos() as u64;
    (recs, windows_of(w, w * (n as u64 + 1), WINDOW), start)
}

/// What the capacity rule sees of a fixed-rate run: the queries due in
/// `windows`, their median window p99, failures and backlog.
fn probe_of(rate: u64, recs: &[QueryRec], windows: &[(u64, u64)]) -> Probe {
    let from = windows.first().map_or(0, |w| w.0);
    let measured: Vec<QueryRec> = recs.iter().filter(|r| r.due_ns >= from).copied().collect();
    let lateness: Vec<u64> = measured.iter().map(QueryRec::late_us).collect();
    let p99_us = windowed_latency(&windows_over(recs, windows)).p99_us;
    Probe {
        rate,
        p99_us: if p99_us.is_finite() { p99_us as u64 } else { u64::MAX },
        failed: Tally::of(&measured).failed(),
        backlog_grew: stats::backlog_grows(&lateness, BACKLOG_SLACK_US),
    }
}

/// One capacity probe at `rate`: warm-up, then the measured window.
fn probe(s: &Setup, rate: u64) -> (Probe, Tally) {
    let spec = load_spec(s, rate, "perfbench-capacity", true);
    let end = PhaseEnd::after(PROBE_WARM + PROBE_SPAN);
    let (recs, ()) = serve::run_load(&spec, Instant::now(), &end, || ());
    let warm = PROBE_WARM.as_nanos() as u64;
    let windows = windows_of(warm, warm + PROBE_SPAN.as_nanos() as u64, PROBE_WINDOW);
    // Let the server drain before the next probe.
    std::thread::sleep(Duration::from_millis(100));
    (probe_of(rate, &recs, &windows), Tally::of(&recs))
}

/// The capacity search on the read-only index, starting at the high
/// rate, whose phase (`high_recs` over `high_windows`) is the first probe.
/// A rung that misses only the latency limit, with no failures and no
/// backlog growth, may have met a host stall: it is probed once more and
/// holds if either probe held. The starting rung gets that second probe
/// whatever it missed. Returns the capacity (0 if no rung held) and a note.
fn capacity_search(
    s: &Setup,
    high_recs: &[QueryRec],
    high_windows: &[(u64, u64)],
    queries: &mut Tally,
) -> (u64, String) {
    let mut first = Some(probe_of(HIGH_QPS, high_recs, high_windows));
    let mut probes = Vec::new();
    let high_rung = stats::rung_at_or_below(HIGH_QPS);
    let (rung, n_rungs) = stats::search_capacity(high_rung, |rung| {
        for attempt in 0..2 {
            let p = match first.take().filter(|_| rung == high_rung) {
                Some(p) => p,
                None => {
                    let (p, t) = probe(s, stats::ladder_rate(rung));
                    queries.add(&t);
                    p
                }
            };
            probes.push(p);
            if stats::rung_holds(&p, P99_LIMIT_US) {
                return true;
            }
            if attempt == 1 || rung != high_rung && (p.backlog_grew || p.failed > 0) {
                break;
            }
        }
        false
    });
    let capacity = rung.map_or(0, stats::ladder_rate);
    let note = format!(
        "capacity: {capacity} qps after {n_rungs} rungs, {} probes (p99 limit {P99_LIMIT_US} us): {}",
        probes.len(),
        probes
            .iter()
            .map(|p| {
                let backlog = if p.backlog_grew { "/backlog" } else { "" };
                format!("{}:{}us/{}f{backlog}", p.rate, p.p99_us, p.failed)
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
    (capacity, note)
}

/// The untraced run: every end-to-end metric.
fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let jobs = nproc();
    let run_start = Instant::now();
    let phase_clock = run_start;
    let mut phases: Vec<(&str, f64)> = Vec::new();

    // Set-up, several times; the median is `setup_s`.
    let mut setup_times = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = setup.take() {
            old.daemon.server.shutdown();
        }
        let t0 = Instant::now();
        let s = set_up(w, seed, None);
        setup_times.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let mut s = setup.expect("at least one set-up");
    out.metric("setup_s", median(&setup_times).unwrap_or(f64::NAN), "s");
    phases.push(("setup", phase_clock.elapsed().as_secs_f64()));

    let secs = |v: &[f64]| v.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" ");

    // Phase 1: ingest the whole feed, alone or under the base-rate load.
    // The in-process replay that every ingest must reach (fingerprint)
    // runs first and stands in for a warm-up: it grows the same index
    // without the per-batch snapshots.
    add_references(&mut s);
    let budget = Duration::from_secs_f64(seconds * INGEST_SHARE);
    let start = Instant::now();
    let end = PhaseEnd::open();
    let ingests = || {
        let mut iters = Vec::new();
        while iters.len() < MIN_INGESTS || start.elapsed() < budget {
            let from = start.elapsed().as_nanos() as u64;
            let (wall, fp) = serve::ingest(&s.feed, &s.daemon.cell);
            iters.push((from, start.elapsed().as_nanos() as u64, wall, fp));
        }
        end.stop_at(start.elapsed().as_nanos() as u64);
        iters
    };
    let (recs, iters) = if w.ingest_under_load {
        serve::run_load(&load_spec(&s, LOW_QPS, "perfbench-ingest", false), start, &end, ingests)
    } else {
        (Vec::new(), ingests())
    };
    for &(_, _, _, fp) in &iters {
        out.check(fp == Some(s.replay_fp), || {
            format!("served full_fingerprint {fp:?} != replay {:#018x}", s.replay_fp)
        });
    }
    let walls: Vec<f64> = iters.iter().map(|i| i.2).collect();
    out.printed("ingest_s", median(&walls).unwrap_or(f64::NAN), "s");
    out.notes.push(format!(
        "ingest{}: {} batches, {} records; ingests took {}",
        if w.ingest_under_load { format!(" under {LOW_QPS} qps") } else { String::new() },
        s.feed.batches.len(),
        s.feed.total_records,
        secs(&walls)
    ));
    let mut fixed = Tally::of(&recs);
    let mut lateness: Vec<u64> = recs.iter().map(QueryRec::late_us).collect();

    phases.push(("ingest", phase_clock.elapsed().as_secs_f64()));

    // Phase 2: the batch join. One warm-up run at jobs=nproc, then pairs
    // of jobs=nproc and jobs=1, alternating which goes first.
    let phase = Instant::now();
    let budget = Duration::from_secs_f64(seconds * PIPELINE_SHARE);
    let (mut walls_n, mut walls_1) = (Vec::new(), Vec::new());
    let mut reference = None;
    let mut counts = None;
    let mut check_run = |out: &mut Outcome, j: usize| {
        let r = pipeline::run_untraced(&s.inputs, j);
        let fp = *reference.get_or_insert(r.fingerprint);
        counts.get_or_insert(r.counts);
        out.check(r.fingerprint == fp, || {
            format!("pipeline jobs={j} fingerprint {:#018x} != {fp:#018x}", r.fingerprint)
        });
        r.wall_s
    };
    check_run(&mut out, jobs);
    while walls_1.len() < MIN_PAIRS || phase.elapsed() < budget {
        let order = if walls_1.len() % 2 == 0 { [jobs, 1] } else { [1, jobs] };
        for j in order {
            let wall = check_run(&mut out, j);
            if j == 1 { &mut walls_1 } else { &mut walls_n }.push(wall);
        }
    }
    let c = counts.expect("the pipeline ran");
    out.printed("pipeline_jobs1_s", median(&walls_1).unwrap_or(f64::NAN), "s");
    out.printed("pipeline_s", median(&walls_n).unwrap_or(f64::NAN), "s");
    out.notes.push(format!(
        "pipeline: {} attacks; {} episodes, {} DNS events, {} impacts; jobs={jobs} took {}, jobs=1 took {}",
        s.inputs.attacks.len(),
        c.episodes,
        c.dns_events,
        c.impacts,
        secs(&walls_n),
        secs(&walls_1)
    ));

    phases.push(("pipeline", phase_clock.elapsed().as_secs_f64()));

    // Phase 3: the base-rate latency (read-only unless it was measured
    // during the ingests), then the high rate, read-only.
    let base = if w.ingest_under_load {
        let windows: Vec<(u64, u64)> =
            iters.iter().flat_map(|i| windows_of(i.0, i.1, WINDOW)).collect();
        let lat = windowed_latency(&windows_over(&recs, &windows));
        out.notes.push(latency_note("during ingest", LOW_QPS, &lat, windows.len()));
        lat
    } else {
        let (recs, windows, _) =
            read_only_phase(&s, LOW_QPS, "perfbench-low", seconds * READ_ONLY_SHARE);
        let lat = windowed_latency(&windows_over(&recs, &windows));
        out.notes.push(latency_note("read-only", LOW_QPS, &lat, windows.len()));
        fixed.add(&Tally::of(&recs));
        lateness.extend(recs.iter().map(QueryRec::late_us));
        lat
    };
    out.printed("query_p50_us", base.p50_us, "us");
    out.printed("query_p90_us", base.p90_us, "us");
    out.printed("query_p99_us", base.p99_us, "us");
    let (recs, windows, _) =
        read_only_phase(&s, HIGH_QPS, "perfbench-high", seconds * READ_ONLY_SHARE);
    let high = windowed_latency(&windows_over(&recs, &windows));
    out.notes.push(latency_note("read-only", HIGH_QPS, &high, windows.len()));
    fixed.add(&Tally::of(&recs));
    lateness.extend(recs.iter().map(QueryRec::late_us));
    out.printed("query_p50_us.high", high.p50_us, "us");
    out.printed("query_p90_us.high", high.p90_us, "us");
    out.printed("query_p99_us.high", high.p99_us, "us");
    phases.push(("serve", phase_clock.elapsed().as_secs_f64()));

    // The daemon's books against the loader's.
    check_books(&mut out, &s, &fixed);
    out.check(fixed.wrong == 0, || format!("{} wrong answers", fixed.wrong));
    // Fixed-rate queries that did not get a correct 200 are failures.
    out.attempted += fixed.due;
    out.failed += fixed.failed();
    let late = Samples::new(lateness);
    out.notes.push(format!(
        "fixed-rate queries: {} due, {} ok, {} shed, {} errors, {} not found; generator lateness p99 {} us",
        fixed.due,
        fixed.ok,
        fixed.shed,
        fixed.errors,
        fixed.not_found,
        late.percentile(0.99).unwrap_or(0)
    ));

    out.metric("peak_rss_mb", obs::rss::peak_rss_kb() as f64 / 1024.0, "MB");
    out.printed("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    let mut last = 0.0;
    let split: Vec<String> = phases
        .iter()
        .map(|&(name, at)| {
            let d = at - last;
            last = at;
            format!("{name} {d:.1} s")
        })
        .collect();
    out.notes.push(format!(
        "run took {:.1} s ({}); fail_ratio {}/{}",
        run_start.elapsed().as_secs_f64(),
        split.join(", "),
        out.failed,
        out.attempted
    ));
    s.daemon.server.shutdown();
    out.check_declared(&END_TO_END);
    out
}

/// `/statz` must balance, and agree with the loader's own books.
fn check_books(out: &mut Outcome, s: &Setup, queries: &Tally) -> serve::Books {
    match serve::read_books(s.daemon.server.addr()) {
        Ok((books, polls)) => {
            out.check(books.received == queries.connected + polls, || {
                format!(
                    "/statz received {} != loader connections {} + {polls} /statz polls",
                    books.received, queries.connected
                )
            });
            out.check(books.shed == queries.shed, || {
                format!("/statz shed {} != loader saw {} 503s", books.shed, queries.shed)
            });
            books
        }
        Err(e) => {
            out.check(false, || e);
            serve::Books::default()
        }
    }
}

/// The traced run: per-layer metrics, with fingerprints equal to the
/// untraced calls'.
fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::new();
    let jobs = nproc();
    let cpu0 = trace::process_cpu_s();
    let mut tracer = Tracer::new(Instant::now());

    let mut s = set_up(w, seed, Some(&mut tracer));
    add_references(&mut s);

    // Pipeline: untraced, traced, untraced; the overhead compares the
    // traced total with the untraced mean.
    let u1 = pipeline::run_untraced(&s.inputs, jobs);
    let traced = pipeline::run_traced(&s.inputs, jobs, &mut tracer);
    let u2 = pipeline::run_untraced(&s.inputs, jobs);
    for (label, fp) in [("traced", traced.fingerprint), ("repeat", u2.fingerprint)] {
        out.check(fp == u1.fingerprint, || {
            format!("pipeline {label} fingerprint {fp:#018x} != untraced {:#018x}", u1.fingerprint)
        });
    }
    let c = traced.counts;
    out.check(
        (c.episodes, c.dns_events, c.impacts)
            == (u1.counts.episodes, u1.counts.dns_events, u1.counts.impacts),
        || "traced pipeline counts differ from the untraced run's".into(),
    );

    // Ingest under the base-rate load: untraced, then the traced replica,
    // both into the served cell. Queries time `SwapCell::load` first.
    let mut spec = load_spec(&s, LOW_QPS, "perfbench-ingest", false);
    spec.cell = Some(&s.daemon.cell);
    let start = Instant::now();
    let start_ns = tracer.ns(start);
    let end = PhaseEnd::open();
    let (ingest_recs, (plain_wall, plain_fp, ingest_root, traced_fp)) =
        serve::run_load(&spec, start, &end, || {
            let (wall, fp) = serve::ingest(&s.feed, &s.daemon.cell);
            let (root, traced_fp) = serve::ingest_traced(&s.feed, &s.daemon.cell, &mut tracer);
            end.stop_at(start.elapsed().as_nanos() as u64);
            (wall, fp, root, traced_fp)
        });
    out.check(plain_fp == Some(s.replay_fp), || {
        format!("Ingestor full_fingerprint {plain_fp:?} != replay {:#018x}", s.replay_fp)
    });
    out.check(traced_fp == s.replay_fp, || {
        format!("traced ingest fingerprint {traced_fp:#018x} != replay {:#018x}", s.replay_fp)
    });
    tracer.absorb(serve::query_spans(&ingest_recs, start_ns, QUERY_SPAN_LIMIT / 2));

    // Read-only at the base rate: the client-side HTTP phases. Then the
    // high rate and the capacity search from it.
    let (ro_recs, _, ro_start) =
        read_only_phase(&s, LOW_QPS, "perfbench-low", seconds * READ_ONLY_SHARE);
    tracer.absorb(serve::query_spans(&ro_recs, tracer.ns(ro_start), QUERY_SPAN_LIMIT / 2));
    let mut queries = Tally::of(&ingest_recs);
    queries.add(&Tally::of(&ro_recs));
    let (high_recs, high_windows, _) =
        read_only_phase(&s, HIGH_QPS, "perfbench-high", seconds * READ_ONLY_SHARE);
    // Failures at the high rate are the capacity rule's business; only
    // wrong answers there count (below, through `all_queries.wrong`).
    let mut probed = Tally::of(&high_recs);
    let (capacity, capacity_note) = capacity_search(&s, &high_recs, &high_windows, &mut probed);
    out.notes.push(capacity_note);

    // `DomainDir::lookup` over the same Zipf draw.
    let lookup_ns = {
        let mut rng = s.inputs.rngs.fork("perfbench-queries").stream_indexed("perfbench-lookup", 0);
        let idx: Vec<usize> = (0..200_000).map(|_| s.zipf.sample(&mut rng) - 1).collect();
        let t0 = Instant::now();
        for &i in &idx {
            std::hint::black_box(s.daemon.dir.lookup(std::hint::black_box(&s.daemon.names[i])));
        }
        t0.elapsed().as_nanos() as f64 / idx.len() as f64
    };

    let mut all_queries = queries;
    all_queries.add(&probed);
    let books = check_books(&mut out, &s, &all_queries);
    out.check(all_queries.wrong == 0, || format!("{} wrong answers", all_queries.wrong));
    out.attempted += queries.due;
    out.failed += queries.failed();
    s.daemon.server.shutdown();

    // Per-layer table.
    let totals: BTreeMap<&str, trace::LayerTotals> =
        totals_by_name(&tracer.spans).into_iter().collect();
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let pipe_wall = tracer.spans[traced.root].dur_ns() as f64 * 1e-9;
    let ingest_wall = tracer.spans[ingest_root].dur_ns() as f64 * 1e-9;
    let share = |names: &[&str]| names.iter().map(|n| t(n).wall_s).sum::<f64>() / pipe_wall;
    let par_eff = |name: &str| t(name).cpu_s / (t(name).wall_s * jobs as f64);
    let spans_of = |name: &str, parent: usize| {
        Samples::new(
            tracer
                .spans
                .iter()
                .filter(|x| x.name == name && x.parent == Some(parent))
                .map(|x| x.dur_ns() / 1000)
                .collect(),
        )
    };
    let p99 = |s: &Samples| s.percentile(0.99).unwrap_or(0) as f64;
    let phase_us = |f: fn(&QueryRec) -> u64, q: f64| {
        let v: Vec<u64> = ro_recs.iter().filter(|r| r.first_byte_ns > 0).map(f).collect();
        Samples::new(v).percentile(q).unwrap_or(0) as f64
    };
    let connect = |r: &QueryRec| (r.connected_ns - r.sent_ns) / 1000;
    let ttfb = |r: &QueryRec| (r.first_byte_ns - r.written_ns) / 1000;
    let body = |r: &QueryRec| (r.done_ns - r.first_byte_ns) / 1000;
    let load_ns = Samples::new(ingest_recs.iter().map(|r| r.load_ns).collect());
    let lateness =
        Samples::new(ingest_recs.iter().chain(&ro_recs).map(QueryRec::late_us).collect());
    let untraced_mean = (u1.wall_s + u2.wall_s) / 2.0;

    let m = &mut out;
    m.metric("scenarios.world.wall_s", t("scenarios.world").wall_s, "s");
    m.metric("attack.schedule.wall_s", t("attack.schedule").wall_s, "s");
    m.metric("dnsimpactd.feed.wall_s", t("dnsimpactd.feed").wall_s, "s");
    m.metric("attack.loads.wall_s", t("attack.loads").wall_s, "s");
    m.metric("telescope.backscatter.wall_s", t("telescope.backscatter").wall_s, "s");
    m.metric("telescope.backscatter.cpu_s", t("telescope.backscatter").cpu_s, "s");
    m.metric("telescope.backscatter.obs", traced.backscatter_obs as f64, "count");
    m.metric("telescope.classify.wall_s", t("telescope.classify").wall_s, "s");
    m.metric("telescope.classify.records", traced.classified_records as f64, "count");
    m.metric("telescope.episodes.wall_s", t("telescope.episodes").wall_s, "s");
    m.metric("telescope.episodes.episodes", c.episodes as f64, "count");
    m.metric("core.join.wall_s", t("core.join").wall_s, "s");
    m.metric("core.join.cpu_s", t("core.join").cpu_s, "s");
    m.metric("core.join.par_eff", par_eff("core.join"), "ratio");
    m.metric("core.join.rows", traced.joined_rows as f64, "count");
    m.metric("core.join.hit_ratio", traced.joined_episodes as f64 / c.episodes as f64, "ratio");
    m.metric("core.impact.wall_s", t("core.impact").wall_s, "s");
    m.metric("core.impact.cpu_s", t("core.impact").cpu_s, "s");
    m.metric("core.impact.par_eff", par_eff("core.impact"), "ratio");
    m.metric("core.impact.impacts", c.impacts as f64, "count");
    m.metric("core.impact.records_measured", c.records_measured as f64, "count");
    m.metric("core.impact.yield", c.impacts as f64 / traced.joined_rows as f64, "ratio");
    m.metric("core.summaries.wall_s", t("core.summaries").wall_s, "s");
    m.metric("pipeline.self_s", t("pipeline").self_s, "s");
    m.metric("pipeline.serial_share", share(&pipeline::SERIAL_LAYERS), "ratio");
    m.metric(
        "pipeline.front_share",
        share(&["telescope.backscatter", "attack.loads", "telescope.episodes"]),
        "ratio",
    );
    m.metric("pipeline.join_impact_share", share(&["core.join", "core.impact"]), "ratio");
    m.metric("pipeline.trace_overhead", pipe_wall / untraced_mean, "ratio");
    m.metric("streamproc.transport.wall_s", t("streamproc.transport").wall_s, "s");
    m.metric("dnsimpactd.apply.wall_s", t("dnsimpactd.apply").wall_s, "s");
    m.metric("dnsimpactd.apply.p99_us", p99(&spans_of("dnsimpactd.apply", ingest_root)), "us");
    m.metric("dnsimpactd.snapshot.wall_s", t("dnsimpactd.snapshot").wall_s, "s");
    m.metric(
        "dnsimpactd.snapshot.p99_us",
        p99(&spans_of("dnsimpactd.snapshot", ingest_root)),
        "us",
    );
    m.metric("dnsimpactd.snapshot.share", t("dnsimpactd.snapshot").wall_s / ingest_wall, "ratio");
    m.metric(
        "streamproc.swap.store_us",
        p99(&spans_of("streamproc.swap.store", ingest_root)),
        "us",
    );
    m.metric(
        "streamproc.swap.load_us",
        load_ns.percentile(0.99).unwrap_or(0) as f64 / 1000.0,
        "us",
    );
    m.metric("dnsimpactd.ingest.self_s", t("dnsimpactd.ingest").self_s, "s");
    m.metric("dnsimpactd.ingest.trace_overhead", ingest_wall / plain_wall, "ratio");
    m.metric("dnsimpactd.lookup.ns", lookup_ns, "ns");
    m.metric("http.connect_us.p50", phase_us(connect, 0.5), "us");
    m.metric("http.connect_us.p99", phase_us(connect, 0.99), "us");
    m.metric("http.ttfb_us.p50", phase_us(ttfb, 0.5), "us");
    m.metric("http.ttfb_us.p99", phase_us(ttfb, 0.99), "us");
    m.metric("http.body_us.p99", phase_us(body, 0.99), "us");
    m.metric("http.capacity_qps", capacity as f64, "1/s");
    m.metric("dnsimpactd.received", books.received as f64, "count");
    m.metric("dnsimpactd.served", books.served as f64, "count");
    m.metric("dnsimpactd.shed", books.shed as f64, "count");
    m.metric("dnsimpactd.errors", books.errors as f64, "count");
    m.metric("loadgen.due", all_queries.due as f64, "count");
    m.metric("loadgen.sent", all_queries.sent as f64, "count");
    m.metric("loadgen.late_p99_us", lateness.percentile(0.99).unwrap_or(0) as f64, "us");
    m.metric("proc.cpu_s", trace::process_cpu_s() - cpu0, "s");

    out.check_declared(&PER_LAYER);
    out.notes.push(layer_table(&tracer, jobs));
    out.notes.push(format!(
        "tracing overhead: pipeline {pipe_wall:.3} s traced / {untraced_mean:.3} s untraced; ingest {ingest_wall:.3} s traced / {plain_wall:.3} s untraced"
    ));
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}-seed{seed}.jsonl", w.name));
    match tracer.write_jsonl(&path) {
        Ok(()) => {
            out.notes.push(format!("{} spans written to {}", tracer.spans.len(), path.display()))
        }
        Err(e) => out.notes.push(format!("span file {} not written: {e}", path.display())),
    }
    out
}

/// The per-layer table of a traced run: wall, CPU, self, calls, par_eff.
fn layer_table(tracer: &Tracer, jobs: usize) -> String {
    let mut t = format!(
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>8}\n",
        "layer", "calls", "wall_s", "cpu_s", "self_s", "par_eff"
    );
    for (name, l) in totals_by_name(&tracer.spans) {
        if name.starts_with("http.") || name == "query" {
            continue;
        }
        let _ = writeln!(
            t,
            "{name:<24} {:>7} {:>10.4} {:>10.2} {:>10.4} {:>8.2}",
            l.calls,
            l.wall_s,
            l.cpu_s,
            l.self_s,
            l.cpu_s / (l.wall_s * jobs as f64)
        );
    }
    t.pop();
    t
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_outcome(name: &str, out: &Outcome) {
    println!("== {name}");
    for (n, v, u) in &out.metrics {
        println!("  {n:<32} {v:>14.4} {u}");
    }
    for (n, v, u) in &out.printed {
        println!("  {n:<32} {v:>14.4} {u}  (printed, not gated)");
    }
    for note in &out.notes {
        for line in note.lines() {
            println!("  {line}");
        }
    }
    for m in &out.mismatches {
        println!("  MISMATCH: {m}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> =
        WORKLOADS.iter().filter(|w| args.workload == "all" || w.name == args.workload).collect();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics = Vec::new();
    for w in &chosen {
        eprintln!(
            "perfbench: {} seed={} seconds={} trace={} nproc={}",
            w.name,
            args.seed,
            args.seconds,
            args.trace as u8,
            nproc()
        );
        let out = if args.trace {
            run_traced(w, args.seed, args.seconds)
        } else {
            run_untraced(w, args.seed, args.seconds)
        };
        print_outcome(w.name, &out);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.mismatches.is_empty();
        for (n, v, u) in out.metrics {
            let name = if chosen.len() > 1 { format!("{}/{n}", w.name) } else { n };
            metrics.push((name, v, u));
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = obs::Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, declared) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let declared: Vec<(String, String)> =
                declared.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, declared, "{key}");
        }
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_string()));
    }

    #[test]
    fn the_high_rate_is_a_ladder_rung() {
        assert_eq!(stats::ladder_rate(stats::rung_at_or_below(HIGH_QPS)), HIGH_QPS);
        const { assert!(LOW_QPS < HIGH_QPS) };
    }

    #[test]
    fn windows_cover_a_span_and_drop_short_tails() {
        let s = Duration::from_secs(1);
        assert_eq!(windows_of(0, 3_000_000_000, s).len(), 3);
        assert_eq!(
            windows_of(0, 2_600_000_000, s),
            vec![
                (0, 1_000_000_000),
                (1_000_000_000, 2_000_000_000),
                (2_000_000_000, 2_600_000_000)
            ]
        );
        assert_eq!(
            windows_of(0, 2_400_000_000, s).len(),
            2,
            "a tail under half a window is dropped"
        );
        assert_eq!(
            windows_of(5, 700_000_005, s),
            vec![(5, 700_000_005)],
            "a short span is one window"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 1, &[("x_s".into(), 1.25, "s")]);
        let doc = obs::Json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let x = doc.get("metrics").and_then(|m| m.get("x_s")).unwrap();
        assert_eq!(x.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(x.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
