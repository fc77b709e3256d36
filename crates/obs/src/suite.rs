//! The process-suite report: schema `dnsimpact-suite/v1`.
//!
//! Emitted by `repro bench --suite A|B|all` (DESIGN §14), the orchestrator
//! that measures release-built binaries as OS processes. One document per
//! suite run:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-suite/v1",
//!   "meta": { "seed": 42, "date": "2026-08-08", "suites": "all",
//!             "processes": 12 },
//!   "suite_a": [
//!     { "cell": "A/repro/scale750/jobs1", "kind": "repro",
//!       "scale": 750, "jobs": 1, "wall_ms": 412, "peak_rss_kb": 43000,
//!       "records": 7184, "records_per_sec": 17436.9,
//!       "fingerprint": "0x00c5330b6d65f1a2" }, ...
//!   ],
//!   "suite_b": [
//!     { "scale": 750, "processes": 3,
//!       "wall_ms":         { "count": 3, "min": 390, "p50": 511,
//!                            "p95": 511, "p99": 511, "max": 402 },
//!       "peak_rss_kb":     { ... },
//!       "records_per_sec": { ... },
//!       "merged": { "time.pool.task_ms": { "count": 24, "sum": 90,
//!                   "min": 0, "max": 11, "p50": 3, "p95": 15, "p99": 15,
//!                   "buckets": [2, 3, 4, 6, 9] } } }, ...
//!   ],
//!   "verdicts": [
//!     { "cell": "A/repro/scale750", "pass": true,
//!       "detail": "fingerprints agree across jobs {1, 2}" }, ...
//!   ]
//! }
//! ```
//!
//! Suite A cells are single-process measurements whose deterministic
//! fingerprint must agree across processes of the same scale — exact, no
//! envelopes. Suite B rows aggregate several chaos-seeded processes per
//! scale: `wall_ms`/`peak_rss_kb`/`records_per_sec` are percentile blocks
//! over one sample per process, and `merged` holds the per-process log2
//! histograms fused bucket-wise by [`crate::hist::merge`] — exact, as if
//! one process had observed every sample. Percentiles are log2-bucket
//! upper bounds, so `p99` may exceed the exact `max`; `min`/`max` are
//! exact. The `verdicts` table names every enforced check so a CI failure
//! points at a cell, not a blanket diff.

use crate::check::{
    check_schema, checked_sum, ok_if_clean, require, require_array, require_bool, require_date,
    require_object, require_str, require_u64,
};
use crate::hist::Hist;
use crate::json::Json;
use std::collections::BTreeMap;

/// Schema identifier carried in every suite report.
pub const SUITE_SCHEMA_ID: &str = "dnsimpact-suite/v1";

/// Suite-run identity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SuiteMeta {
    pub seed: u64,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Which suites ran: `"A"`, `"B"`, or `"all"`.
    pub suites: String,
    /// Total OS processes spawned (must equal `suite_a` cells plus the sum
    /// of `suite_b` per-scale process counts).
    pub processes: u64,
}

/// One Suite A cell: a single deterministic process measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteACell {
    /// Unique label, e.g. `A/repro/scale750/jobs1` or `A/daemon/clean`.
    pub cell: String,
    /// Which binary ran: `"repro"` or `"daemon"`.
    pub kind: String,
    pub scale: u64,
    pub jobs: u64,
    pub wall_ms: u64,
    pub peak_rss_kb: u64,
    pub records: u64,
    pub records_per_sec: f64,
    /// Deterministic-state fingerprint (`{:#018x}`) compared exactly
    /// across processes.
    pub fingerprint: String,
}

/// Percentile block over one sample per process (Suite B). `p50`/`p95`/
/// `p99` are log2-bucket upper bounds; `min`/`max` are exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Percentiles {
    pub count: u64,
    pub min: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub max: u64,
}

impl Percentiles {
    /// Summarize a histogram holding one sample per process.
    pub fn of(h: &Hist) -> Percentiles {
        Percentiles {
            count: h.count(),
            min: h.min(),
            p50: h.percentile(0.50),
            p95: h.percentile(0.95),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", Json::U64(self.count));
        o.set("min", Json::U64(self.min));
        o.set("p50", Json::U64(self.p50));
        o.set("p95", Json::U64(self.p95));
        o.set("p99", Json::U64(self.p99));
        o.set("max", Json::U64(self.max));
        o
    }
}

/// One Suite B row: several chaos-seeded processes at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteBScale {
    pub scale: u64,
    pub processes: u64,
    pub wall_ms: Percentiles,
    pub peak_rss_kb: Percentiles,
    pub records_per_sec: Percentiles,
    /// Per-process report histograms merged bucket-wise, by name.
    pub merged: BTreeMap<String, Hist>,
}

/// One enforced check and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub cell: String,
    pub pass: bool,
    pub detail: String,
}

/// A complete suite report, convertible to and from schema-`v1` JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    pub meta: SuiteMeta,
    pub suite_a: Vec<SuiteACell>,
    pub suite_b: Vec<SuiteBScale>,
    pub verdicts: Vec<Verdict>,
}

impl SuiteReport {
    pub fn to_json(&self) -> Json {
        let mut meta = Json::obj();
        meta.set("seed", Json::U64(self.meta.seed));
        meta.set("date", Json::Str(self.meta.date.clone()));
        meta.set("suites", Json::Str(self.meta.suites.clone()));
        meta.set("processes", Json::U64(self.meta.processes));

        let suite_a = Json::Array(
            self.suite_a
                .iter()
                .map(|c| {
                    let mut o = Json::obj();
                    o.set("cell", Json::Str(c.cell.clone()));
                    o.set("kind", Json::Str(c.kind.clone()));
                    o.set("scale", Json::U64(c.scale));
                    o.set("jobs", Json::U64(c.jobs));
                    o.set("wall_ms", Json::U64(c.wall_ms));
                    o.set("peak_rss_kb", Json::U64(c.peak_rss_kb));
                    o.set("records", Json::U64(c.records));
                    o.set("records_per_sec", Json::F64(c.records_per_sec));
                    o.set("fingerprint", Json::Str(c.fingerprint.clone()));
                    o
                })
                .collect(),
        );
        let suite_b = Json::Array(
            self.suite_b
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("scale", Json::U64(s.scale));
                    o.set("processes", Json::U64(s.processes));
                    o.set("wall_ms", s.wall_ms.to_json());
                    o.set("peak_rss_kb", s.peak_rss_kb.to_json());
                    o.set("records_per_sec", s.records_per_sec.to_json());
                    let mut merged = Json::obj();
                    for (name, h) in &s.merged {
                        merged.set(name, h.to_json());
                    }
                    o.set("merged", merged);
                    o
                })
                .collect(),
        );
        let verdicts = Json::Array(
            self.verdicts
                .iter()
                .map(|v| {
                    let mut o = Json::obj();
                    o.set("cell", Json::Str(v.cell.clone()));
                    o.set("pass", Json::Bool(v.pass));
                    o.set("detail", Json::Str(v.detail.clone()));
                    o
                })
                .collect(),
        );

        let mut doc = Json::obj();
        doc.set("schema", Json::Str(SUITE_SCHEMA_ID.into()));
        doc.set("meta", meta);
        doc.set("suite_a", suite_a);
        doc.set("suite_b", suite_b);
        doc.set("verdicts", verdicts);
        doc
    }

    /// Read a suite report back: the one pass that checks and reads the
    /// document, collecting every violation. Beyond field shapes this
    /// enforces the cross-field accounting:
    ///
    /// - `meta.suites` ∈ {`A`, `B`, `all`}, and the populated sections
    ///   match (`A` → no `suite_b` rows, `B` → no `suite_a` cells, `all` →
    ///   both);
    /// - `meta.processes` = suite A cells + Σ suite B per-scale processes;
    /// - suite A cell labels unique, rates finite, `kind` ∈ {repro, daemon};
    /// - suite B rows strictly sorted by scale, percentile blocks counting
    ///   one sample per process, merged histograms internally consistent
    ///   ([`Hist::from_json`]: bucket accounting and honest percentiles).
    pub fn from_json(doc: &Json) -> Result<SuiteReport, Vec<String>> {
        let mut errors = Vec::new();
        let e = &mut errors;
        check_schema(doc, SUITE_SCHEMA_ID, e);

        let mut meta = SuiteMeta::default();
        let mut meta_processes = None;
        let mut suites_kind = None;
        if let Some(m) = require(doc, "meta", "$", e) {
            meta.seed = require_u64(m, "seed", "$.meta", e).unwrap_or_default();
            meta_processes = require_u64(m, "processes", "$.meta", e);
            meta.date = require_date(m, "$.meta", e).unwrap_or_default().to_string();
            if let Some(s) = require_str(m, "suites", "$.meta", e) {
                meta.suites = s.to_string();
                if matches!(s, "A" | "B" | "all") {
                    suites_kind = Some(s);
                } else {
                    e.push(format!("$.meta.suites {s:?} must be \"A\", \"B\", or \"all\""));
                }
            }
            if meta_processes == Some(0) {
                e.push("$.meta.processes must be at least 1".into());
            }
            meta.processes = meta_processes.unwrap_or_default();
        }

        let mut suite_a = Vec::new();
        let mut labels = Vec::new();
        for (i, c) in require_array(doc, "suite_a", "$", e).unwrap_or_default().iter().enumerate() {
            let path = format!("$.suite_a[{i}]");
            let cell = require_str(c, "cell", &path, e);
            if let Some(label) = cell {
                if labels.contains(&label) {
                    e.push(format!("{path}.cell {label:?} duplicates an earlier cell"));
                }
                labels.push(label);
            }
            let kind = require_str(c, "kind", &path, e);
            if let Some(kind) = kind.filter(|k| !matches!(*k, "repro" | "daemon")) {
                e.push(format!("{path}.kind {kind:?} must be \"repro\" or \"daemon\""));
            }
            let u = |key: &str, e: &mut Vec<String>| require_u64(c, key, &path, e);
            let (scale, jobs, wall_ms, peak_rss_kb, records) = (
                u("scale", e),
                u("jobs", e),
                u("wall_ms", e),
                u("peak_rss_kb", e),
                u("records", e),
            );
            if jobs == Some(0) {
                e.push(format!("{path}.jobs must be at least 1"));
            }
            let rate = require(c, "records_per_sec", &path, e).map(Json::as_f64);
            match rate {
                Some(Some(r)) if !(r.is_finite() && r >= 0.0) => {
                    e.push(format!("{path}.records_per_sec {r} must be finite and >= 0"))
                }
                Some(None) => e.push(format!("{path}.records_per_sec must be a number")),
                _ => {}
            }
            suite_a.push(SuiteACell {
                cell: cell.unwrap_or_default().to_string(),
                kind: kind.unwrap_or_default().to_string(),
                scale: scale.unwrap_or_default(),
                jobs: jobs.unwrap_or_default(),
                wall_ms: wall_ms.unwrap_or_default(),
                peak_rss_kb: peak_rss_kb.unwrap_or_default(),
                records: records.unwrap_or_default(),
                records_per_sec: rate.flatten().unwrap_or_default(),
                fingerprint: require_str(c, "fingerprint", &path, e)
                    .unwrap_or_default()
                    .to_string(),
            });
        }

        // Σ suite B processes; `None` once the sum has overflowed.
        let mut b_processes = Some(0u64);
        let mut suite_b = Vec::new();
        let mut prev_scale: Option<u64> = None;
        for (i, s) in require_array(doc, "suite_b", "$", e).unwrap_or_default().iter().enumerate() {
            let path = format!("$.suite_b[{i}]");
            let scale = require_u64(s, "scale", &path, e);
            if let (Some(prev), Some(cur)) = (prev_scale, scale) {
                if cur <= prev {
                    e.push(format!(
                        "{path}.scale {cur} must exceed the previous row's {prev} \
                         (rows strictly sorted by scale)"
                    ));
                }
            }
            prev_scale = scale.or(prev_scale);
            let procs = require_u64(s, "processes", &path, e);
            match procs {
                Some(0) => e.push(format!("{path}.processes must be at least 1")),
                Some(p) => {
                    let what = format!("{path}.processes: suite_b process total");
                    b_processes = b_processes.and_then(|t| checked_sum([t, p], &what, e));
                }
                None => {}
            }
            let block = |key: &str, e: &mut Vec<String>| match require(s, key, &path, e) {
                Some(b) if b.as_object().is_some() => {
                    read_percentiles(b, &format!("{path}.{key}"), procs, e)
                }
                Some(_) => {
                    e.push(format!("{path}.{key} must be an object"));
                    Percentiles::default()
                }
                None => Percentiles::default(),
            };
            let (wall_ms, peak_rss_kb, records_per_sec) =
                (block("wall_ms", e), block("peak_rss_kb", e), block("records_per_sec", e));
            let mut merged = BTreeMap::new();
            for (name, h) in require_object(s, "merged", &path, e).unwrap_or_default() {
                match Hist::from_json(h, &format!("{path}.merged.{name}")) {
                    Ok(h) => {
                        merged.insert(name.clone(), h);
                    }
                    Err(mut hist_errors) => e.append(&mut hist_errors),
                }
            }
            suite_b.push(SuiteBScale {
                scale: scale.unwrap_or_default(),
                processes: procs.unwrap_or_default(),
                wall_ms,
                peak_rss_kb,
                records_per_sec,
                merged,
            });
        }

        if let Some(kind) = suites_kind {
            let a_cells = suite_a.len();
            if (kind == "A" || kind == "all") && a_cells == 0 {
                e.push(format!("$.meta.suites is {kind:?} but $.suite_a is empty"));
            }
            if kind == "A" && b_processes != Some(0) {
                e.push("$.meta.suites is \"A\" but $.suite_b has rows".into());
            }
            if (kind == "B" || kind == "all") && b_processes == Some(0) {
                e.push(format!("$.meta.suites is {kind:?} but $.suite_b is empty"));
            }
            if kind == "B" && a_cells > 0 {
                e.push("$.meta.suites is \"B\" but $.suite_a has cells".into());
            }
        }
        if let (Some(total), Some(b_processes)) = (meta_processes, b_processes) {
            let a_cells = suite_a.len() as u64;
            if e.is_empty() {
                let what = "$.meta.processes: suite_a cells + suite_b processes";
                if checked_sum([a_cells, b_processes], what, e).is_some_and(|n| n != total) {
                    e.push(format!(
                        "$.meta.processes is {total} but suite_a has {a_cells} cell(s) and \
                         suite_b accounts for {b_processes} process(es)"
                    ));
                }
            }
        }

        let mut verdicts = Vec::new();
        for (i, v) in require_array(doc, "verdicts", "$", e).unwrap_or_default().iter().enumerate()
        {
            let path = format!("$.verdicts[{i}]");
            verdicts.push(Verdict {
                cell: require_str(v, "cell", &path, e).unwrap_or_default().to_string(),
                detail: require_str(v, "detail", &path, e).unwrap_or_default().to_string(),
                pass: require_bool(v, "pass", &path, e).unwrap_or_default(),
            });
        }

        let report = SuiteReport { meta, suite_a, suite_b, verdicts };
        ok_if_clean(report, errors)
    }

    /// True when every verdict passed.
    pub fn all_pass(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    /// Human-readable summary: the Suite A cell table, the Suite B
    /// percentile table, then the verdict table (stderr, like the sweep
    /// summary).
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "suite: seed={} date={} suites={} processes={}",
            self.meta.seed, self.meta.date, self.meta.suites, self.meta.processes
        );
        if !self.suite_a.is_empty() {
            let _ = writeln!(out, "{:-<76}", "");
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>10} {:>10} {:>14}",
                "suite A cell", "wall_ms", "rss_kb", "records", "rec/s"
            );
            for c in &self.suite_a {
                let _ = writeln!(
                    out,
                    "{:<28} {:>8} {:>10} {:>10} {:>14.1}",
                    c.cell, c.wall_ms, c.peak_rss_kb, c.records, c.records_per_sec
                );
            }
        }
        if !self.suite_b.is_empty() {
            let _ = writeln!(out, "{:-<76}", "");
            let _ = writeln!(
                out,
                "{:<20} {:>6} {:>10} {:>10} {:>10} {:>14}",
                "suite B scale", "procs", "wall p50", "wall p99", "rss p99", "rec/s p50"
            );
            for s in &self.suite_b {
                let _ = writeln!(
                    out,
                    "{:<20} {:>6} {:>10} {:>10} {:>10} {:>14}",
                    s.scale,
                    s.processes,
                    s.wall_ms.p50,
                    s.wall_ms.p99,
                    s.peak_rss_kb.p99,
                    s.records_per_sec.p50
                );
            }
        }
        let _ = writeln!(out, "{:-<76}", "");
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "{} {:<28} {}",
                if v.pass { "PASS" } else { "FAIL" },
                v.cell,
                v.detail
            );
        }
        out
    }
}

/// One Suite B percentile block at `path`, expecting `processes` samples.
fn read_percentiles(
    doc: &Json,
    path: &str,
    processes: Option<u64>,
    e: &mut Vec<String>,
) -> Percentiles {
    let u = |key: &str, e: &mut Vec<String>| require_u64(doc, key, path, e);
    let (count, min, p50, p95, p99, max) =
        (u("count", e), u("min", e), u("p50", e), u("p95", e), u("p99", e), u("max", e));
    if let (Some(c), Some(p)) = (count, processes) {
        if c != p {
            e.push(format!("{path}.count is {c}, expected one sample per process ({p})"));
        }
    }
    if let (Some(min), Some(max)) = (min, max) {
        if min > max {
            e.push(format!("{path}: min {min} > max {max}"));
        }
    }
    // p50/p95/p99 are bucket upper bounds — ordered among themselves and
    // never below min, but p99 may legitimately exceed the exact max.
    if let (Some(min), Some(p50), Some(p95), Some(p99)) = (min, p50, p95, p99) {
        if !(min <= p50 && p50 <= p95 && p95 <= p99) {
            e.push(format!("{path}: percentiles out of order ({min}/{p50}/{p95}/{p99})"));
        }
    }
    Percentiles {
        count: count.unwrap_or_default(),
        min: min.unwrap_or_default(),
        p50: p50.unwrap_or_default(),
        p95: p95.unwrap_or_default(),
        p99: p99.unwrap_or_default(),
        max: max.unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> Hist {
        let mut h = Hist::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    fn sample_report() -> SuiteReport {
        let walls = hist_of(&[390, 402, 511]);
        let rss = hist_of(&[41_000, 41_200, 43_000]);
        let rates = hist_of(&[17_000, 17_400, 18_100]);
        let mut merged = BTreeMap::new();
        merged.insert("time.pool.task_ms".to_string(), hist_of(&[1, 2, 2, 3, 9, 15]));
        SuiteReport {
            meta: SuiteMeta {
                seed: 42,
                date: "2026-08-08".into(),
                suites: "all".into(),
                processes: 5,
            },
            suite_a: vec![
                SuiteACell {
                    cell: "A/repro/scale750/jobs1".into(),
                    kind: "repro".into(),
                    scale: 750,
                    jobs: 1,
                    wall_ms: 412,
                    peak_rss_kb: 43_000,
                    records: 7184,
                    records_per_sec: 17_436.9,
                    fingerprint: "0x00c5330b6d65f1a2".into(),
                },
                SuiteACell {
                    cell: "A/repro/scale750/jobs2".into(),
                    kind: "repro".into(),
                    scale: 750,
                    jobs: 2,
                    wall_ms: 398,
                    peak_rss_kb: 43_550,
                    records: 7184,
                    records_per_sec: 18_050.3,
                    fingerprint: "0x00c5330b6d65f1a2".into(),
                },
            ],
            suite_b: vec![SuiteBScale {
                scale: 750,
                processes: 3,
                wall_ms: Percentiles::of(&walls),
                peak_rss_kb: Percentiles::of(&rss),
                records_per_sec: Percentiles::of(&rates),
                merged,
            }],
            verdicts: vec![Verdict {
                cell: "A/repro/scale750".into(),
                pass: true,
                detail: "fingerprints agree across jobs {1, 2}".into(),
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = SuiteReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let mut doc = sample_report().to_json();
        doc.set("schema", Json::Str("dnsimpact-sweep/v1".into()));
        let errors = SuiteReport::from_json(&doc).unwrap_err();
        assert!(errors[0].contains("expected"), "{errors:?}");
    }

    #[test]
    fn from_json_enforces_process_accounting() {
        let mut report = sample_report();
        report.meta.processes = 9;
        let errors = SuiteReport::from_json(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("processes is 9")), "{errors:?}");
    }

    #[test]
    fn from_json_enforces_suites_section_match() {
        let mut only_a = sample_report();
        only_a.meta.suites = "A".into();
        let errors = SuiteReport::from_json(&only_a.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_b has rows")), "{errors:?}");

        let mut only_b = sample_report();
        only_b.meta.suites = "B".into();
        let errors = SuiteReport::from_json(&only_b.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_a has cells")), "{errors:?}");

        let mut empty_b = sample_report();
        empty_b.suite_b.clear();
        empty_b.meta.processes = 2;
        let errors = SuiteReport::from_json(&empty_b.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("suite_b is empty")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_duplicate_cells_and_unsorted_scales() {
        let mut dup = sample_report();
        dup.suite_a[1].cell = dup.suite_a[0].cell.clone();
        let errors = SuiteReport::from_json(&dup.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("duplicates")), "{errors:?}");

        let mut unsorted = sample_report();
        let mut row = unsorted.suite_b[0].clone();
        row.scale = 750; // equal, not strictly greater
        unsorted.suite_b.push(row);
        unsorted.meta.processes += 3;
        let errors = SuiteReport::from_json(&unsorted.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("strictly sorted")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_inconsistent_merged_histogram() {
        let mut doc = sample_report().to_json();
        let mut suite_b = doc.get("suite_b").unwrap().clone();
        let Json::Array(rows) = &mut suite_b else { unreachable!() };
        let mut merged = rows[0].get("merged").unwrap().clone();
        let mut h = merged.get("time.pool.task_ms").unwrap().clone();
        h.set("p99", Json::U64(1));
        merged.set("time.pool.task_ms", h);
        rows[0].set("merged", merged);
        doc.set("suite_b", suite_b);
        let errors = SuiteReport::from_json(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("p99 claims 1")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_nonfinite_rate_and_zero_jobs() {
        let mut report = sample_report();
        report.suite_a[0].records_per_sec = f64::NAN;
        report.suite_a[1].jobs = 0;
        // Non-finite f64 serializes to null, so the error is the type check.
        let errors = SuiteReport::from_json(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("records_per_sec")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("jobs must be at least 1")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_percentile_count_mismatch() {
        let mut report = sample_report();
        report.suite_b[0].wall_ms.count = 7;
        let errors = SuiteReport::from_json(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("one sample per process")), "{errors:?}");
    }

    #[test]
    fn summary_table_names_cells_and_verdicts() {
        let table = sample_report().summary_table();
        assert!(table.contains("A/repro/scale750/jobs1"));
        assert!(table.contains("PASS"));
        assert!(table.contains("fingerprints agree"));
        let mut failing = sample_report();
        failing.verdicts[0].pass = false;
        assert!(failing.summary_table().contains("FAIL"));
        assert!(!failing.all_pass());
        assert!(sample_report().all_pass());
    }
}
