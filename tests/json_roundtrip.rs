//! Edge-case and property tests for the zero-dependency JSON layer in
//! `obs::json` — the carrier for run reports, BENCH baselines, and the
//! Chrome trace export. The layer's contract is byte-stable round-trips:
//! `parse(v.pretty()) == v` and `parse(text).pretty() == text`, so a
//! baseline written by one run diffs clean against a re-serialization by
//! another. The report readers built on it (`from_json`,
//! `obs::read_report`) must reject every malformed field, wrapped
//! arithmetic and non-hex fingerprint, and accept every committed report.

use obs::metrics::HistogramSnapshot;
use obs::suite::{Percentiles, SuiteACell, SuiteBScale, Verdict};
use obs::{
    DaemonMeta, DaemonReport, Hist, Json, LiveFinal, LiveMeta, RunMeta, RunReport, SloSet,
    Snapshot, StageWall, SuiteMeta, SuiteReport, SweepCell, SweepMeta, SweepReport, TraceSummary,
    TsStore,
};
use proptest::prelude::*;
use proptest::{Strategy, TestRng};

#[test]
fn escape_edge_cases() {
    // Every escape the writer emits parses back to the same string.
    let gauntlet = [
        "",
        "\"",
        "\\",
        "\\\\\"\"",
        "a\"b\\c/d",
        "line\nfeed\rreturn\ttab",
        "\u{8}\u{c}\u{1}\u{1f}", // backspace, formfeed, raw controls
        "mixed \u{0} nul and text",
        "ünïcode — ελληνικά — 日本語 — 🦀",
        "trailing backslash\\",
    ];
    for s in gauntlet {
        let doc = Json::Str(s.to_string());
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(parsed, doc, "escape round-trip for {s:?}");
    }

    // Escapes the parser accepts beyond what the writer emits.
    assert_eq!(Json::parse(r#""\/""#).unwrap(), Json::Str("/".into()));
    assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    // Unpaired surrogates map to U+FFFD rather than erroring.
    assert_eq!(Json::parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
    // Unknown escapes are rejected.
    assert!(Json::parse(r#""\q""#).is_err());
}

#[test]
fn deep_nesting_round_trips() {
    // 500 levels of alternating arrays and single-key objects: recursion
    // in the parser, the writer, and the recursive Drop all survive it.
    let mut v = Json::U64(7);
    for depth in 0..500u32 {
        v = if depth % 2 == 0 {
            Json::Array(vec![v])
        } else {
            let mut o = Json::obj();
            o.set("k", v);
            o
        };
    }
    let text = v.pretty();
    let parsed = Json::parse(&text).expect("deeply nested document parses");
    assert_eq!(parsed, v);
    assert_eq!(parsed.pretty(), text);
}

#[test]
fn truncated_input_is_rejected() {
    // A document that ends in a closing brace has no valid proper prefix,
    // so every truncation point must be a parse error — never a silent
    // partial value (a truncated BENCH baseline must fail loudly).
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("x/v1".into()));
    doc.set("list", Json::Array(vec![Json::U64(1), Json::Bool(true), Json::Null]));
    doc.set("nested", {
        let mut o = Json::obj();
        o.set("f", Json::F64(2.5));
        o
    });
    let text = doc.pretty();
    let text = text.trim_end(); // the trailing newline is a valid suffix to drop
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed as a complete document"
        );
    }

    // Truncation inside escapes and literals.
    for bad in ["\"\\", "\"\\u", "\"\\u00", "\"abc", "tru", "nul", "fals", "-", "[1,", "{\"a\":"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn number_edge_cases() {
    // u64 boundary values stay exact; past the boundary falls to f64.
    assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
    assert!(matches!(Json::parse("18446744073709551616").unwrap(), Json::F64(_)));
    assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
    assert_eq!(Json::parse("-0.25").unwrap(), Json::F64(-0.25));
    // Whitespace tolerance around every token.
    let spaced = " { \"a\" :\t[ 1 ,\n null , \"s\" ] } ";
    let mut want = Json::obj();
    want.set("a", Json::Array(vec![Json::U64(1), Json::Null, Json::Str("s".into())]));
    assert_eq!(Json::parse(spaced).unwrap(), want);
}

/// A minimal valid `dnsimpact-suite/v1` report: two Suite A cells, one
/// Suite B scale with a single process, accounting consistent.
fn tiny_suite_report() -> SuiteReport {
    let cell = |jobs: u64, wall: u64| SuiteACell {
        cell: format!("A/repro/scale750/jobs{jobs}"),
        kind: "repro".into(),
        scale: 750,
        jobs,
        wall_ms: wall,
        peak_rss_kb: 4_096,
        records: 1_000,
        records_per_sec: 1_000.0 * 1_000.0 / wall as f64,
        fingerprint: "0x00c5330b6d65f1a2".into(),
    };
    let mut one = Hist::new();
    one.record(17);
    SuiteReport {
        meta: SuiteMeta { seed: 1, date: "2026-08-08".into(), suites: "all".into(), processes: 3 },
        suite_a: vec![cell(1, 200), cell(2, 100)],
        suite_b: vec![SuiteBScale {
            scale: 750,
            processes: 1,
            wall_ms: Percentiles::of(&one),
            peak_rss_kb: Percentiles::of(&one),
            records_per_sec: Percentiles::of(&one),
            merged: [("time.span.join".to_string(), one.clone())].into_iter().collect(),
        }],
        verdicts: vec![Verdict {
            cell: "A/repro/scale750".into(),
            pass: true,
            detail: "fingerprints agree".into(),
        }],
    }
}

#[test]
fn suite_report_round_trips_byte_stable() {
    // The suite summary is a fixed point of parse ∘ pretty, and the
    // parsed structs match the originals — same contract as the BENCH
    // baseline files.
    let report = tiny_suite_report();
    let text = report.to_json().pretty();
    let doc = Json::parse(&text).expect("suite report parses");
    let back = SuiteReport::from_json(&doc).expect("suite report validates");
    assert_eq!(back, report);
    assert_eq!(back.to_json().pretty(), text);
}

#[test]
fn truncated_suite_report_is_rejected() {
    // Every proper prefix of the on-disk form must fail to parse — a
    // torn SUITE_*.json write can never validate as a smaller report.
    let text = report_text_trimmed();
    for cut in (0..text.len()).step_by(7) {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "prefix of {cut} bytes parsed as a complete suite report"
        );
    }
}

fn report_text_trimmed() -> String {
    let text = tiny_suite_report().to_json().pretty();
    text.trim_end().to_string()
}

#[test]
fn malformed_suite_reports_name_their_defects() {
    // Structurally valid JSON with broken semantics is rejected with an
    // error that names the offending field, never accepted quietly.
    type Mutation = fn(&mut SuiteReport);
    let mutations: &[(&str, Mutation)] = &[
        ("meta.processes", |r| r.meta.processes = 99),
        ("suite_a duplicate cells", |r| {
            let dup = r.suite_a[1].cell.clone();
            r.suite_a[0].cell = dup;
        }),
        // NaN serializes as null, so the document is valid JSON with a
        // non-numeric rate.
        ("records_per_sec", |r| r.suite_a[0].records_per_sec = f64::NAN),
        ("suite B percentile/process mismatch", |r| r.suite_b[0].processes = 7),
        ("meta.suites vocabulary", |r| r.meta.suites = "everything".into()),
    ];
    for (what, mutate) in mutations {
        let mut report = tiny_suite_report();
        mutate(&mut report);
        let doc = report.to_json();
        let errors = SuiteReport::from_json(&doc).expect_err(&format!("{what} accepted"));
        assert!(!errors.is_empty(), "{what}: no error reported");
    }

    // A merged histogram whose claimed p99 disagrees with its buckets —
    // mutated at the text level, the way a corrupted file would arrive.
    let text = tiny_suite_report().to_json().pretty();
    assert!(text.contains("\"p99\": 31"), "fixture drifted: {text}");
    let lying = text.replace("\"p99\": 31", "\"p99\": 1000000");
    let doc = Json::parse(&lying).expect("still valid JSON");
    let errors = SuiteReport::from_json(&doc).expect_err("lying merged p99 accepted");
    assert!(
        errors.iter().any(|e| e.contains("p99")),
        "errors do not name the lying percentile: {errors:?}"
    );
}

#[test]
fn unknown_schema_suite_report_is_rejected() {
    // A future or typo'd schema id must fail validation outright — the
    // validator owns exactly `dnsimpact-suite/v1`.
    for bad in ["dnsimpact-suite/v2", "dnsimpact-sweep/v1", ""] {
        let mut doc = tiny_suite_report().to_json();
        doc.set("schema", Json::Str(bad.into()));
        let errors = SuiteReport::from_json(&doc).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("schema")),
            "schema {bad:?}: errors do not mention the schema field: {errors:?}"
        );
    }
    let mut doc = tiny_suite_report().to_json();
    let Json::Object(pairs) = std::mem::replace(&mut doc, Json::Null) else { unreachable!() };
    let doc = Json::Object(pairs.into_iter().filter(|(k, _)| k != "schema").collect());
    assert!(SuiteReport::from_json(&doc).is_err(), "schema-less report accepted");
}

/// A valid `dnsimpact-metrics/v2` report with one histogram whose
/// buckets account for its count.
fn sample_run_report() -> RunReport {
    let hist = HistogramSnapshot {
        count: 3,
        sum: 7,
        min: 1,
        max: 4,
        p50: 3,
        p90: 7,
        p95: 7,
        p99: 7,
        buckets: vec![0, 1, 1, 1],
    };
    RunReport {
        meta: RunMeta {
            seed: 42,
            scale: 1_500,
            jobs: 2,
            run: 1,
            chaos_seed: Some(9),
            bench: true,
            date: "2026-08-08".into(),
            experiments: vec!["table1".into()],
        },
        total_wall_ms: 120,
        peak_rss_kb: 4_096,
        stages: vec![StageWall { name: "longitudinal".into(), wall_ms: 100 }],
        metrics: Snapshot {
            counters: [("join.rows_joined".to_string(), 5)].into_iter().collect(),
            gauges: [("reactive.probe_round_max_probes".to_string(), 50)].into_iter().collect(),
            histograms: [("time.pool.task_ms".to_string(), hist)].into_iter().collect(),
        },
        trace: TraceSummary { events: 4, dropped: 0, by_kind: vec![("AttackOnset".into(), 4)] },
    }
}

fn sample_sweep_report() -> SweepReport {
    SweepReport {
        meta: SweepMeta { seed: 42, chaos_seed: Some(9), date: "2026-08-08".into(), heavy: 0 },
        cells: vec![SweepCell {
            scale: 1_500,
            jobs: 1,
            episodes: 10,
            joined_rows: 5,
            records_measured: 85,
            records: 100,
            wall_ms: 40,
            peak_rss_kb: 4_096,
            records_per_sec: 2_500.5,
            speedup_vs_jobs1: 1.0,
        }],
    }
}

fn sample_daemon_report() -> DaemonReport {
    DaemonReport {
        meta: DaemonMeta {
            seed: 42,
            scale: 1_500,
            months: 2,
            jobs: 2,
            date: "2026-08-08".into(),
            clients: 4,
            zipf_s: 1.1,
            staleness_bound_s: 1_800,
        },
        batches: 21,
        records: 512,
        episodes: 43,
        ingest_wall_ms: 183,
        fingerprint: "0x9f2a6c41d0e8b753".into(),
        queries_sent: 200,
        ok: 180,
        not_found: 1,
        shed: 9,
        errors: 10,
        qps: 512.4,
        p50_us: 180.5,
        p95_us: 420.5,
        p99_us: 900.5,
        staleness_s: 0,
    }
}

/// A valid `dnsimpactd-live/v1` report: two ticks of one deterministic
/// delta series (`live.records`), no SLOs.
fn sample_live_report() -> Json {
    let mut store = TsStore::new(4);
    for tick in 1..=2u64 {
        let counters = [("live.records".to_string(), tick * 10)].into_iter().collect();
        store.observe(tick, tick * 100, &counters, &Default::default());
    }
    let meta = LiveMeta {
        seed: 7,
        scale: 1_500,
        months: 2,
        jobs: 2,
        date: "2026-08-08".into(),
        chaos_seed: None,
        tick_cap: 4,
    };
    let fin = LiveFinal {
        applied_seq: 2,
        total_batches: 2,
        records_applied: 20,
        episodes: 3,
        joined_rows: 4,
        staleness_s: 0,
        full_fp: "0x9f2a6c41d0e8b753".into(),
    };
    let snap = Snapshot {
        counters: Default::default(),
        gauges: Default::default(),
        histograms: Default::default(),
    };
    let slos = SloSet::new(Vec::new());
    obs::live::build(&meta, &fin, &store, &slos, &|n| n.starts_with("live."), &snap)
}

/// `doc` with the value at `steps` replaced by `f(value)`.
fn edit(doc: &Json, steps: &[Step], f: impl FnOnce(&mut Json)) -> Json {
    let mut doc = doc.clone();
    let mut v = &mut doc;
    for step in steps {
        v = match (v, step) {
            (Json::Object(pairs), Step::Key(k)) => {
                &mut pairs.iter_mut().find(|(key, _)| key == k).expect("path exists").1
            }
            (Json::Array(items), Step::Index(i)) => &mut items[*i],
            _ => panic!("path does not match the document"),
        };
    }
    f(v);
    doc
}

#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// One node below the root: its JSONPath, its parent's, and the steps
/// that reach it.
struct Node {
    path: String,
    parent: String,
    steps: Vec<Step>,
}

/// Every node below the root, in document order.
fn nodes(v: &Json, path: &str, steps: &[Step], out: &mut Vec<Node>) {
    let children: Vec<(String, Step, &Json)> = match v {
        Json::Object(pairs) => {
            pairs.iter().map(|(k, c)| (format!("{path}.{k}"), Step::Key(k.clone()), c)).collect()
        }
        Json::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, c)| (format!("{path}[{i}]"), Step::Index(i), c))
            .collect(),
        _ => Vec::new(),
    };
    for (p, step, child) in children {
        let mut s = steps.to_vec();
        s.push(step);
        nodes(child, &p, &s, out);
        out.push(Node { path: p, parent: path.to_string(), steps: s });
    }
}

/// True when some violation names `path` (or, for an array element, the
/// array it sits in): the path followed by the end of the message or a
/// non-name character.
fn names_path(errors: &[String], path: &str) -> bool {
    let owner = path.rsplit_once('[').map_or(path, |(array, _)| array);
    errors.iter().any(|e| {
        [path, owner].iter().any(|p| {
            e.match_indices(p).any(|(at, _)| {
                !e[at + p.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        })
    })
}

#[test]
fn every_field_is_checked_by_its_reader() {
    // Each typed schema's reader must notice a defect in any field: for
    // every node of a valid sample document, deleting it, replacing it by
    // a value of the wrong type (a string; a number for string fields) or
    // by null must fail with a violation naming that path. What may
    // legitimately vary is skipped: array elements and the entries of
    // name-keyed maps (counters, gauges, trace kinds, histograms) are
    // data, not fields, so they are not deleted; histogram `buckets` in a
    // run report is optional; `chaos_seed` may be null.
    type Reader = fn(&Json) -> Result<(), Vec<String>>;
    let schemas: [(&str, Json, Reader); 4] = [
        ("run", sample_run_report().to_json(), |d| RunReport::from_json(d).map(drop)),
        ("sweep", sample_sweep_report().to_json(), |d| SweepReport::from_json(d).map(drop)),
        ("suite", tiny_suite_report().to_json(), |d| SuiteReport::from_json(d).map(drop)),
        ("daemon", sample_daemon_report().to_json(), |d| DaemonReport::from_json(d).map(drop)),
    ];
    let maps = ["$.counters", "$.gauges", "$.histograms", "$.trace.by_kind"];
    let mut checked = 0;
    for (schema, doc, read) in schemas {
        read(&doc).unwrap_or_else(|e| panic!("{schema}: sample rejected: {e:?}"));
        let mut all = Vec::new();
        nodes(&doc, "$", &[], &mut all);
        for Node { path, parent, steps } in &all {
            let mut mutations = Vec::new();
            let is_map_entry = maps.contains(&parent.as_str()) || parent.ends_with(".merged");
            let optional = schema == "run" && path.ends_with(".buckets");
            if let (Some(Step::Key(key)), false, false) = (steps.last(), is_map_entry, optional) {
                let deleted = edit(&doc, &steps[..steps.len() - 1], |o| {
                    if let Json::Object(pairs) = o {
                        pairs.retain(|(k, _)| k != key);
                    }
                });
                mutations.push(("deleted", deleted));
            }
            let wrong = edit(&doc, steps, |v| {
                *v = match v {
                    Json::Str(_) => Json::U64(7),
                    _ => Json::Str("wrong".into()),
                }
            });
            mutations.push(("replaced by the wrong type", wrong));
            if !path.ends_with(".chaos_seed") {
                mutations.push(("replaced by null", edit(&doc, steps, |v| *v = Json::Null)));
            }
            for (how, mutated) in mutations {
                let errors = read(&mutated)
                    .err()
                    .unwrap_or_else(|| panic!("{schema}: {path} {how} was accepted"));
                assert!(
                    names_path(&errors, path),
                    "{schema}: {path} {how}: no violation names it: {errors:?}"
                );
                checked += 1;
            }
        }
    }
    // Every schema's sample has dozens of fields; a walk that visits
    // next to nothing is a broken walk, not a passing one.
    assert!(checked > 300, "only {checked} mutations checked");
}

#[test]
fn run_report_bucket_overflow_is_a_violation() {
    // Buckets whose counts wrap around u64 to equal `count` must not pass
    // the `sum == count` accounting.
    let mut report = sample_run_report();
    let h = report.metrics.histograms.get_mut("time.pool.task_ms").unwrap();
    (h.count, h.buckets) = (0, vec![u64::MAX, 1]);
    let errors = RunReport::from_json(&report.to_json()).unwrap_err();
    assert!(
        errors.iter().any(|e| e.contains("$.histograms.time.pool.task_ms.buckets sum overflows")),
        "{errors:?}"
    );
}

#[test]
fn sweep_records_overflow_is_a_violation() {
    // episodes + joined_rows + records_measured wraps to 0 == records.
    let mut report = sample_sweep_report();
    let c = &mut report.cells[0];
    (c.episodes, c.joined_rows, c.records_measured, c.records) = (u64::MAX, 1, 0, 0);
    let errors = SweepReport::from_json(&report.to_json()).unwrap_err();
    assert!(errors.iter().any(|e| e.contains("$.cells[0].records") && e.contains("overflows")));
}

#[test]
fn suite_process_total_overflow_is_a_violation() {
    // One Suite B row of u64::MAX processes: Σ suite B is fine, but adding
    // the Suite A cells wraps around.
    let mut report = tiny_suite_report();
    let max = u64::MAX;
    let pct = Percentiles { count: max, min: 1, p50: 1, p95: 1, p99: 1, max: 1 };
    let row = &mut report.suite_b[0];
    row.processes = max;
    (row.wall_ms, row.peak_rss_kb, row.records_per_sec) = (pct.clone(), pct.clone(), pct);
    report.meta.processes = 1;
    let errors = SuiteReport::from_json(&report.to_json()).unwrap_err();
    assert!(
        errors.iter().any(|e| e.contains("$.meta.processes") && e.contains("overflows")),
        "{errors:?}"
    );

    // Two rows whose process counts together wrap around.
    let mut second = report.suite_b[0].clone();
    second.scale += 1;
    second.processes = 2;
    report.suite_b.push(second);
    let errors = SuiteReport::from_json(&report.to_json()).unwrap_err();
    assert!(
        errors.iter().any(|e| e.contains("$.suite_b[1].processes") && e.contains("overflows")),
        "{errors:?}"
    );
}

#[test]
fn daemon_shed_accounting_overflow_is_a_violation() {
    // ok + not_found wraps around to queries_sent.
    let mut report = sample_daemon_report();
    (report.queries_sent, report.ok, report.not_found, report.shed, report.errors) =
        (5, u64::MAX, 6, 0, 0);
    let errors = DaemonReport::from_json(&report.to_json()).unwrap_err();
    assert!(
        errors.iter().any(|e| e.contains("$.serving.queries_sent") && e.contains("overflows")),
        "{errors:?}"
    );
}

#[test]
fn live_conservation_overflow_is_a_violation() {
    let doc = sample_live_report();
    obs::live::validate(&doc).expect("sample live report validates");
    let series = [Step::Key("deterministic".into()), Step::Key("series".into()), Step::Index(0)];
    // The window values themselves wrap around...
    let wrapped = edit(&doc, &series, |s| {
        s.set("values", Json::Array(vec![Json::U64(u64::MAX), Json::U64(11)]));
        s.set("evicted_sum", Json::U64(0));
        s.set("cumulative", Json::U64(10));
    });
    let errors = obs::live::validate(&wrapped).unwrap_err();
    assert!(errors.iter().any(|e| e.contains("series[0].values sum overflows")), "{errors:?}");
    // ...and so does evicted_sum + window sum.
    let wrapped = edit(&doc, &series, |s| {
        s.set("values", Json::Array(vec![Json::U64(u64::MAX), Json::U64(0)]));
        s.set("evicted_sum", Json::U64(2));
        s.set("cumulative", Json::U64(1));
    });
    let errors = obs::live::validate(&wrapped).unwrap_err();
    assert!(
        errors.iter().any(|e| e.contains("series[0].evicted_sum") && e.contains("overflows")),
        "{errors:?}"
    );
}

#[test]
fn fingerprints_must_be_hex() {
    // "0x" followed by anything but hex digits is not a fingerprint.
    for bad in ["0xZZ", "0x", "9f2a", "0x12g4"] {
        let mut report = sample_daemon_report();
        report.fingerprint = bad.into();
        let errors = DaemonReport::from_json(&report.to_json()).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("$.ingest.fingerprint") && e.contains("hex")),
            "{bad:?}: {errors:?}"
        );

        let path = [Step::Key("deterministic".into()), Step::Key("final".into())];
        let live = edit(&sample_live_report(), &path, |f| {
            f.set("full_fp", Json::Str(bad.into()));
        });
        let errors = obs::live::validate(&live).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("full_fp") && e.contains("hex")),
            "{bad:?}: {errors:?}"
        );
    }
    for good in ["0x9f2a6c41d0e8b753", "0x00C5"] {
        let mut report = sample_daemon_report();
        report.fingerprint = good.into();
        DaemonReport::from_json(&report.to_json()).expect(good);
    }
}

#[test]
fn read_report_accepts_every_committed_result() {
    // Every committed machine-readable report reads under its schema, the
    // same check the CI results gate makes through `repro validate-metrics`.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut read = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report =
            obs::read_report(&doc).unwrap_or_else(|e| panic!("{} rejected: {e:?}", path.display()));
        assert!(report.describe("f").starts_with("f is a valid "));
        read += 1;
    }
    assert!(read > 0, "no results/*.json found");

    // A document naming no known schema is one violation naming it.
    let errors = obs::read_report(&Json::obj()).unwrap_err();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].starts_with("unknown schema <missing>; known schemas: "), "{errors:?}");
    assert_eq!(obs::schema_label(&Json::obj()), None);
}

/// Generator for arbitrary `Json` trees, depth-bounded so generation
/// terminates. Floats are kept finite and non-integral: non-finite
/// values serialize as `null` and integral floats print without a '.'
/// and legitimately re-parse as `U64` — both are intentional one-way
/// normalizations, not round-trip targets.
struct ArbJson {
    depth: u32,
}

fn gen_string(rng: &mut TestRng) -> String {
    Strategy::generate(&"[ -~\n\t]{0,12}", rng)
}

fn gen_json(rng: &mut TestRng, depth: u32) -> Json {
    let leaf_only = depth == 0;
    let pick = rng.next_u64() % if leaf_only { 5 } else { 7 };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next_u64().is_multiple_of(2)),
        2 => Json::U64(rng.next_u64()),
        3 => {
            let f = Strategy::generate(&(0.0f64..1.0), rng) + 0.5;
            Json::F64(if f.fract() == 0.0 { 0.25 } else { f })
        }
        4 => Json::Str(gen_string(rng)),
        5 => {
            let n = rng.next_u64() % 4;
            Json::Array((0..n).map(|_| gen_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.next_u64() % 4;
            Json::Object((0..n).map(|_| (gen_string(rng), gen_json(rng, depth - 1))).collect())
        }
    }
}

impl Strategy for ArbJson {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        gen_json(rng, self.depth)
    }
}

proptest! {
    #[test]
    fn arbitrary_documents_round_trip(doc in ArbJson { depth: 4 }) {
        let text = doc.pretty();
        let parsed = Json::parse(&text)
            .map_err(|e| proptest::test_runner::TestCaseError::fail(format!("{text:?}: {e}")))?;
        prop_assert_eq!(&parsed, &doc);
        // Re-serialization is byte-identical: the on-disk form is a
        // fixed point of parse ∘ pretty.
        prop_assert_eq!(parsed.pretty(), text);
    }
}
