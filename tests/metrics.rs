//! The observability layer's headline invariants (DESIGN §9):
//!
//! - the deterministic metric namespace (everything not prefixed `time.`
//!   or `sched.`) is identical across `--jobs` counts;
//! - pipeline counters are identical across chaos seeds (recovery is
//!   exact), and the fault accounting balances: every injected fault is
//!   repaired;
//! - span timers and scheduling metrics exist, but are excluded from the
//!   deterministic snapshot that comparisons run on;
//! - a run report built from a live registry snapshot round-trips through
//!   its JSON text byte-identically and passes schema validation.
//!
//! One `#[test]` only: the metrics registry is process-global, so the
//! scenarios below run sequentially in a single function and reset the
//! registry between runs.

use bench_support::{run_catalog_checkpointed, run_experiments_chaos};
use scenarios::{PaperScale, WorldConfig};

const IDS: &[&str] = &["table1", "table3", "table5", "fig5", "fig8", "fig11", "ablate"];

/// Reset the registry, run the longitudinal pipeline + catalog at the
/// given worker count and chaos seed, and return the final snapshot.
fn run_and_snapshot(jobs: usize, chaos_seed: Option<u64>) -> obs::Snapshot {
    obs::registry().reset();
    let cfg = WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() };
    let ex = run_experiments_chaos(42, PaperScale { divisor: 400 }, &cfg, jobs, chaos_seed);
    let ids: Vec<String> = IDS.iter().map(|s| s.to_string()).collect();
    let fault = chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(
            cs,
            "experiment-catalog",
            streamproc::ChaosConfig::CALIBRATED,
        )
    });
    let (_, _) = run_catalog_checkpointed(Some(&ex), 42, &ids, jobs, fault.as_ref(), None, &|_| {});
    obs::registry().snapshot()
}

/// The non-chaos deterministic counters: what must agree between a chaos
/// run and a fault-free run (chaos accounting itself obviously differs).
fn pipeline_counters(s: &obs::Snapshot) -> Vec<(String, u64)> {
    s.deterministic().counters.into_iter().filter(|(k, _)| !k.starts_with("chaos.")).collect()
}

#[test]
fn metrics_are_out_of_band_and_deterministic() {
    // --- jobs 1 vs jobs 8, fault-free -----------------------------------
    let seq = run_and_snapshot(1, None);
    let par = run_and_snapshot(8, None);

    // Wall-clock and scheduling metrics exist in the raw snapshot...
    assert!(
        seq.histograms.keys().any(|k| k.starts_with("time.span.")),
        "span timers recorded: {:?}",
        seq.histograms.keys().collect::<Vec<_>>()
    );
    assert!(par.gauges.contains_key("sched.pool.jobs_max"));

    // ...and are exactly what the deterministic filter strips.
    let (d_seq, d_par) = (seq.deterministic(), par.deterministic());
    for s in [&d_seq, &d_par] {
        let nondet = s
            .counters
            .keys()
            .chain(s.gauges.keys())
            .chain(s.histograms.keys())
            .filter(|k| k.starts_with("time.") || k.starts_with("sched."))
            .count();
        assert_eq!(nondet, 0, "time./sched. leaked into the deterministic snapshot");
    }

    // The deterministic namespace is identical whatever the worker count.
    for k in d_seq.counters.keys().chain(d_par.counters.keys()) {
        let (a, b) = (d_seq.counters.get(k), d_par.counters.get(k));
        if a != b {
            eprintln!("DIFF {k}: jobs1={a:?} jobs8={b:?}");
        }
    }
    assert_eq!(d_seq.counters, d_par.counters, "counters differ across --jobs");
    assert_eq!(d_seq.gauges, d_par.gauges, "gauges differ across --jobs");
    assert_eq!(d_seq.histograms, d_par.histograms, "histograms differ across --jobs");
    assert!(
        d_seq.counters.get("join.rows_joined").copied().unwrap_or(0) > 0,
        "pipeline actually counted work"
    );

    // --- chaos runs: exact recovery, balanced fault accounting ----------
    let baseline = pipeline_counters(&seq);
    let mut total_injected = 0;
    for chaos_seed in [1337, 4242] {
        let snap = run_and_snapshot(8, Some(chaos_seed));
        let injected = snap.counters.get("chaos.faults_injected").copied().unwrap_or(0);
        let repaired = snap.counters.get("chaos.faults_repaired").copied().unwrap_or(0);
        assert_eq!(
            injected, repaired,
            "fault accounting out of balance under chaos seed {chaos_seed}"
        );
        total_injected += injected;
        // Whatever the chaos seed injected, the pipeline's own counters
        // match a fault-free run exactly: recovery leaves no trace.
        assert_eq!(
            pipeline_counters(&snap),
            baseline,
            "pipeline counters perturbed by chaos seed {chaos_seed}"
        );
    }
    assert!(total_injected > 0, "calibrated chaos injected nothing at this scale");

    // --- report round-trip from a live snapshot -------------------------
    let report = obs::RunReport {
        meta: obs::RunMeta {
            seed: 42,
            scale: 400,
            jobs: 8,
            run: 1,
            chaos_seed: Some(4242),
            bench: false,
            date: obs::report::today_utc(),
            experiments: IDS.iter().map(|s| s.to_string()).collect(),
        },
        total_wall_ms: 1,
        peak_rss_kb: obs::rss::peak_rss_kb(),
        stages: vec![obs::StageWall { name: "test".into(), wall_ms: 1 }],
        metrics: obs::registry().snapshot(),
        trace: obs::trace::summary(),
    };
    let doc = report.to_json();
    let read = obs::RunReport::from_json(&doc).expect("live report validates");
    read.check_invariants().expect("live report invariants hold");
    let text = doc.pretty();
    let back = obs::RunReport::from_json(&obs::Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, report, "report round-trips through JSON text");
    assert_eq!(back.to_json().pretty(), text, "re-serialization is byte-identical");
}
