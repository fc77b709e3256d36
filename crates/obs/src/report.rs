//! The machine-readable run report: schema `dnsimpact-metrics/v2`.
//!
//! One JSON document per run, emitted by `repro --metrics-json PATH` and
//! by `repro bench` (as `BENCH_<date>[_runN].json`). The schema is stable
//! and validated in CI:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-metrics/v2",
//!   "meta": {
//!     "seed": 42, "scale": 1500, "jobs": 2,
//!     "run": 1,                    // same-day bench run counter
//!     "chaos_seed": null,          // or a u64
//!     "bench": false,
//!     "date": "2026-08-05",        // UTC
//!     "experiments": ["table1", "..."]
//!   },
//!   "total_wall_ms": 1234,
//!   "peak_rss_kb": 56789,
//!   "stages": [ { "name": "longitudinal", "wall_ms": 400 }, ... ],
//!   "counters":   { "join.rows_joined": 100, ... },
//!   "gauges":     { "reactive.trigger_latency_max_secs": 480, ... },
//!   "histograms": { "time.pool.task_ms": { "count": 8, "sum": 10,
//!                   "min": 0, "max": 4, "p50": 1, "p90": 3,
//!                   "p95": 3, "p99": 3, "buckets": [1, 2, 2, 3] } },
//!   "trace": { "events": 512, "dropped": 0,
//!              "by_kind": { "AttackOnset": 100, ... } }
//! }
//! ```
//!
//! `counters`/`gauges`/`histograms` are name-sorted; `stages` is in
//! execution order; `trace` summarizes the causal event ring ([`crate::trace`]),
//! its `by_kind` keys drawn from the event taxonomy. Wall times, RSS, and
//! `time.`/`sched.`-prefixed metrics vary run to run by design — consumers
//! comparing runs must restrict themselves to the deterministic namespace,
//! as the CI metrics gate, [`compare_reports`], and the determinism tests
//! do.
//!
//! v1 → v2: added `meta.run`, histogram `p95`, and the `trace` block.
//! Histogram `buckets` (raw log2 bucket counts, trailing zeros trimmed)
//! were added within v2 as an *optional* field — older committed reports
//! without it stay valid; the suite orchestrator requires it to merge
//! per-process distributions exactly ([`crate::hist`]).

use crate::check::{
    check_schema, checked_sum, ok_if_clean, require, require_array, require_bool, require_date,
    require_object, require_opt_u64, require_str, require_u64, u64_array,
};
use crate::json::Json;
use crate::metrics::{HistogramSnapshot, Snapshot};
use crate::trace::{EventKind, TraceSummary};
use std::collections::BTreeMap;

/// Schema identifier carried in every report.
pub const SCHEMA_ID: &str = "dnsimpact-metrics/v2";

/// The pre-trace schema id. Reports committed under `results/` before the
/// v2 bump still read — under the field set of their day ([`RunReport::from_json`]).
pub const LEGACY_SCHEMA_ID: &str = "dnsimpact-metrics/v1";

/// Run identity: the inputs that determine the deterministic metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    pub seed: u64,
    pub scale: u64,
    pub jobs: u64,
    /// Same-day run counter (bench artifacts: `BENCH_<date>_run<N>.json`
    /// from the second run of a date on; plain runs report 1).
    pub run: u64,
    pub chaos_seed: Option<u64>,
    pub bench: bool,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    pub experiments: Vec<String>,
}

/// One named stage and its wall time, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageWall {
    pub name: String,
    pub wall_ms: u64,
}

/// A complete run report, convertible to and from schema-`v2` JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub meta: RunMeta,
    pub total_wall_ms: u64,
    pub peak_rss_kb: u64,
    pub stages: Vec<StageWall>,
    pub metrics: Snapshot,
    /// Summary of the causal event trace ([`crate::trace::summary`]).
    pub trace: TraceSummary,
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        let mut meta = Json::obj();
        meta.set("seed", Json::U64(self.meta.seed));
        meta.set("scale", Json::U64(self.meta.scale));
        meta.set("jobs", Json::U64(self.meta.jobs));
        meta.set("run", Json::U64(self.meta.run));
        meta.set("chaos_seed", self.meta.chaos_seed.map_or(Json::Null, Json::U64));
        meta.set("bench", Json::Bool(self.meta.bench));
        meta.set("date", Json::Str(self.meta.date.clone()));
        meta.set(
            "experiments",
            Json::Array(self.meta.experiments.iter().map(|e| Json::Str(e.clone())).collect()),
        );

        let stages = Json::Array(
            self.stages
                .iter()
                .map(|s| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(s.name.clone()));
                    o.set("wall_ms", Json::U64(s.wall_ms));
                    o
                })
                .collect(),
        );

        let mut counters = Json::obj();
        for (k, v) in &self.metrics.counters {
            counters.set(k, Json::U64(*v));
        }
        let mut gauges = Json::obj();
        for (k, v) in &self.metrics.gauges {
            gauges.set(k, Json::U64(*v));
        }
        let mut histograms = Json::obj();
        for (k, h) in &self.metrics.histograms {
            let mut o = Json::obj();
            o.set("count", Json::U64(h.count));
            o.set("sum", Json::U64(h.sum));
            o.set("min", Json::U64(h.min));
            o.set("max", Json::U64(h.max));
            o.set("p50", Json::U64(h.p50));
            o.set("p90", Json::U64(h.p90));
            o.set("p95", Json::U64(h.p95));
            o.set("p99", Json::U64(h.p99));
            o.set("buckets", Json::Array(h.buckets.iter().map(|&b| Json::U64(b)).collect()));
            histograms.set(k, o);
        }

        let mut trace = Json::obj();
        trace.set("events", Json::U64(self.trace.events));
        trace.set("dropped", Json::U64(self.trace.dropped));
        let mut by_kind = Json::obj();
        for (k, n) in &self.trace.by_kind {
            by_kind.set(k, Json::U64(*n));
        }
        trace.set("by_kind", by_kind);

        let mut doc = Json::obj();
        doc.set("schema", Json::Str(SCHEMA_ID.into()));
        doc.set("meta", meta);
        doc.set("total_wall_ms", Json::U64(self.total_wall_ms));
        doc.set("peak_rss_kb", Json::U64(self.peak_rss_kb));
        doc.set("stages", stages);
        doc.set("counters", counters);
        doc.set("gauges", gauges);
        doc.set("histograms", histograms);
        doc.set("trace", trace);
        doc
    }

    /// Read a run report back: the one pass that both checks the schema
    /// and reads every field. Every violation is collected, not just the
    /// first, and the report comes back only when there are none. A legacy
    /// `dnsimpact-metrics/v1` document reads under the v1 field set: it has
    /// no `meta.run`, histogram `p95` or `trace` block, which read as 0 /
    /// empty.
    pub fn from_json(doc: &Json) -> Result<RunReport, Vec<String>> {
        let legacy = doc.get("schema").and_then(Json::as_str) == Some(LEGACY_SCHEMA_ID);
        let mut errors = Vec::new();
        let e = &mut errors;
        check_schema(doc, if legacy { LEGACY_SCHEMA_ID } else { SCHEMA_ID }, e);
        let meta = require(doc, "meta", "$", e).map(|m| read_meta(m, legacy, e));
        let total_wall_ms = require_u64(doc, "total_wall_ms", "$", e).unwrap_or_default();
        let peak_rss_kb = require_u64(doc, "peak_rss_kb", "$", e).unwrap_or_default();
        let mut stages = Vec::new();
        for (i, s) in require_array(doc, "stages", "$", e).unwrap_or_default().iter().enumerate() {
            let path = format!("$.stages[{i}]");
            stages.push(StageWall {
                name: require_str(s, "name", &path, e).unwrap_or_default().to_string(),
                wall_ms: require_u64(s, "wall_ms", &path, e).unwrap_or_default(),
            });
        }
        let metrics = Snapshot {
            counters: read_u64_map(doc, "counters", "$", e).into_iter().collect(),
            gauges: read_u64_map(doc, "gauges", "$", e).into_iter().collect(),
            histograms: read_histograms(doc, legacy, e),
        };
        let trace = if legacy {
            TraceSummary::default()
        } else {
            require(doc, "trace", "$", e).map(|t| read_trace(t, e)).unwrap_or_default()
        };
        let report = RunReport {
            meta: meta.unwrap_or_default(),
            total_wall_ms,
            peak_rss_kb,
            stages,
            metrics,
            trace,
        };
        ok_if_clean(report, errors)
    }

    /// Check the cross-counter invariants CI gates on. Assumes a
    /// *completed* run (every injected fault has had its repair window):
    ///
    /// - `chaos.faults_injected > 0` ⇒ `chaos.faults_repaired` equals it;
    /// - `reactive.trigger_latency_max_secs` ≤ 10 minutes;
    /// - `reactive.probe_round_max_probes` ≤ 50.
    pub fn check_invariants(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let counter = |name: &str| self.metrics.counters.get(name).copied().unwrap_or(0);
        let gauge = |name: &str| self.metrics.gauges.get(name).copied().unwrap_or(0);

        let injected = counter("chaos.faults_injected");
        let repaired = counter("chaos.faults_repaired");
        if injected > 0 && repaired != injected {
            errors.push(format!(
                "chaos.faults_repaired ({repaired}) != chaos.faults_injected ({injected})"
            ));
        }
        let latency = gauge("reactive.trigger_latency_max_secs");
        if latency > MAX_TRIGGER_LATENCY_SECS {
            errors.push(format!(
                "reactive.trigger_latency_max_secs ({latency}) exceeds the \
                 {MAX_TRIGGER_LATENCY_SECS}s bound"
            ));
        }
        let probes = gauge("reactive.probe_round_max_probes");
        if probes > MAX_PROBES_PER_ROUND {
            errors.push(format!(
                "reactive.probe_round_max_probes ({probes}) exceeds the \
                 {MAX_PROBES_PER_ROUND}-domain budget"
            ));
        }
        ok_if_clean((), errors)
    }

    /// Human-readable summary for `--metrics-summary` (stderr). Shows the
    /// run identity, per-stage wall times, the deterministic counters and
    /// gauges, latency histograms collapsed to count/p50/p95/p99, and the
    /// trace-event accounting.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let chaos = self.meta.chaos_seed.map_or("off".to_string(), |s| format!("{s}"));
        let _ = writeln!(
            out,
            "run: seed={} scale={} jobs={} chaos={} date={} run#{}  wall={}ms rss={}kB",
            self.meta.seed,
            self.meta.scale,
            self.meta.jobs,
            chaos,
            self.meta.date,
            self.meta.run,
            self.total_wall_ms,
            self.peak_rss_kb
        );
        let _ = writeln!(out, "{:-<72}", "");
        let _ = writeln!(out, "{:<40} {:>12}", "stage", "wall_ms");
        for s in &self.stages {
            let _ = writeln!(out, "{:<40} {:>12}", s.name, s.wall_ms);
        }
        let _ = writeln!(out, "{:-<72}", "");
        let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
        for (k, v) in &self.metrics.counters {
            let _ = writeln!(out, "{k:<40} {v:>12}");
        }
        for (k, v) in &self.metrics.gauges {
            let _ = writeln!(out, "{:<40} {:>12}", format!("{k} (gauge)"), v);
        }
        if !self.metrics.histograms.is_empty() {
            let _ = writeln!(out, "{:-<72}", "");
            let _ = writeln!(
                out,
                "{:<36} {:>8} {:>8} {:>8} {:>8}",
                "histogram", "count", "p50", "p95", "p99"
            );
            for (k, h) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "{:<36} {:>8} {:>8} {:>8} {:>8}",
                    k, h.count, h.p50, h.p95, h.p99
                );
            }
        }
        let _ = writeln!(out, "{:-<72}", "");
        let _ = writeln!(
            out,
            "trace: {} event(s) retained, {} dropped",
            self.trace.events, self.trace.dropped
        );
        for (kind, n) in &self.trace.by_kind {
            let _ = writeln!(out, "  {kind:<38} {n:>12}");
        }
        out
    }
}

fn read_meta(m: &Json, legacy: bool, e: &mut Vec<String>) -> RunMeta {
    const P: &str = "$.meta";
    RunMeta {
        seed: require_u64(m, "seed", P, e).unwrap_or_default(),
        scale: require_u64(m, "scale", P, e).unwrap_or_default(),
        jobs: require_u64(m, "jobs", P, e).unwrap_or_default(),
        run: if legacy { 0 } else { require_u64(m, "run", P, e).unwrap_or_default() },
        chaos_seed: require_opt_u64(m, "chaos_seed", P, e).flatten(),
        bench: require_bool(m, "bench", P, e).unwrap_or_default(),
        date: require_date(m, P, e).unwrap_or_default().to_string(),
        experiments: {
            let items = require_array(m, "experiments", P, e).unwrap_or_default();
            let names: Option<Vec<String>> =
                items.iter().map(|x| x.as_str().map(str::to_string)).collect();
            if names.is_none() {
                e.push("$.meta.experiments entries must be strings".into());
            }
            names.unwrap_or_default()
        },
    }
}

/// The name → unsigned-integer object at `{path}.{key}` (counters,
/// gauges, trace kinds).
fn read_u64_map(obj: &Json, key: &str, path: &str, e: &mut Vec<String>) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, v) in require_object(obj, key, path, e).unwrap_or_default() {
        match v.as_u64() {
            Some(n) => out.push((name.clone(), n)),
            None => e.push(format!("{path}.{key}.{name} must be an unsigned integer")),
        }
    }
    out
}

/// `$.histograms`: summary objects (v1 wrote them without `p95`). The
/// `buckets` array is optional (pre-buckets reports), but when present
/// its counts must sum to `count` — the suite merge relies on it.
fn read_histograms(
    doc: &Json,
    legacy: bool,
    e: &mut Vec<String>,
) -> BTreeMap<String, HistogramSnapshot> {
    let mut out = BTreeMap::new();
    for (name, h) in require_object(doc, "histograms", "$", e).unwrap_or_default() {
        let path = format!("$.histograms.{name}");
        if h.as_object().is_none() {
            e.push(format!("{path} must be an object"));
            continue;
        }
        let u = |key: &str, e: &mut Vec<String>| require_u64(h, key, &path, e);
        let count = u("count", e);
        let mut snap = HistogramSnapshot {
            count: count.unwrap_or_default(),
            sum: u("sum", e).unwrap_or_default(),
            min: u("min", e).unwrap_or_default(),
            max: u("max", e).unwrap_or_default(),
            p50: u("p50", e).unwrap_or_default(),
            p90: u("p90", e).unwrap_or_default(),
            p95: if legacy { 0 } else { u("p95", e).unwrap_or_default() },
            p99: u("p99", e).unwrap_or_default(),
            buckets: Vec::new(),
        };
        if let Some(b) = h.get("buckets") {
            let buckets = u64_array(b, &format!("{path}.buckets"), e);
            let total = buckets
                .as_ref()
                .and_then(|b| checked_sum(b.iter().copied(), &format!("{path}.buckets sum"), e));
            if let (Some(total), Some(count)) = (total, count) {
                if total != count {
                    e.push(format!("{path}.buckets sum to {total} but count is {count}"));
                }
            }
            snap.buckets = buckets.unwrap_or_default();
        }
        out.insert(name.clone(), snap);
    }
    out
}

fn read_trace(t: &Json, e: &mut Vec<String>) -> TraceSummary {
    let events = require_u64(t, "events", "$.trace", e).unwrap_or_default();
    let dropped = require_u64(t, "dropped", "$.trace", e).unwrap_or_default();
    for (kind, _) in t.get("by_kind").and_then(Json::as_object).unwrap_or_default() {
        if EventKind::parse(kind).is_none() {
            e.push(format!("$.trace.by_kind key {kind:?} is not an event kind"));
        }
    }
    TraceSummary { events, dropped, by_kind: read_u64_map(t, "by_kind", "$.trace", e) }
}

/// Reactive trigger bound from the paper: ≤ 10 minutes.
pub const MAX_TRIGGER_LATENCY_SECS: u64 = 600;
/// Reactive probe budget from the paper: ≤ 50 domains per 5-minute round.
pub const MAX_PROBES_PER_ROUND: u64 = 50;

/// `repro bench --compare` wall-clock regression threshold: fail when the
/// new run exceeds baseline × factor + floor. Generous on purpose — the
/// baseline may come from a different machine; this catches order-of-
/// magnitude regressions, not noise.
pub const WALL_REGRESSION_FACTOR: f64 = 3.0;
/// Absolute slack added to the wall-clock limit (protects tiny baselines).
pub const WALL_REGRESSION_FLOOR_MS: u64 = 2_000;
/// Peak-RSS regression threshold factor.
pub const RSS_REGRESSION_FACTOR: f64 = 2.0;
/// Absolute slack added to the RSS limit, in kB.
pub const RSS_REGRESSION_FLOOR_KB: u64 = 131_072;

/// Diff a fresh bench report against a baseline report (`repro bench
/// --compare`). Returns `(failures, warnings)`:
///
/// - wall clock / peak RSS beyond the generous regression thresholds
///   **fail**;
/// - deterministic counters, gauges, and histogram shapes (names not
///   prefixed `time.`/`sched.`) present in *both* reports must match
///   **exactly** — any drift fails, because for a pinned bench
///   seed/scale/chaos configuration they are pure functions of the code;
/// - names present in only one report (new or retired metrics) **warn**;
/// - a baseline with a different seed/scale/chaos configuration warns and
///   skips the drift check (the counters are incomparable).
///
/// Reads both documents leniently through raw JSON, so a schema-`v1`
/// baseline (no `meta.run`, no `p95`, no `trace` block) remains usable.
pub fn compare_reports(current: &Json, baseline: &Json) -> (Vec<String>, Vec<String>) {
    let mut failures = Vec::new();
    let mut warnings = Vec::new();
    let top = |doc: &Json, key: &str| doc.get(key).and_then(|v| v.as_u64());

    match (top(current, "total_wall_ms"), top(baseline, "total_wall_ms")) {
        (Some(cur), Some(base)) => {
            let limit = (base as f64 * WALL_REGRESSION_FACTOR) as u64 + WALL_REGRESSION_FLOOR_MS;
            if cur > limit {
                failures.push(format!(
                    "wall-clock regression: {cur} ms vs baseline {base} ms (limit {limit} ms)"
                ));
            }
        }
        _ => warnings.push("total_wall_ms missing; wall-clock comparison skipped".into()),
    }
    match (top(current, "peak_rss_kb"), top(baseline, "peak_rss_kb")) {
        (Some(cur), Some(base)) => {
            let limit = (base as f64 * RSS_REGRESSION_FACTOR) as u64 + RSS_REGRESSION_FLOOR_KB;
            if cur > limit {
                failures.push(format!(
                    "peak-RSS regression: {cur} kB vs baseline {base} kB (limit {limit} kB)"
                ));
            }
        }
        _ => warnings.push("peak_rss_kb missing; RSS comparison skipped".into()),
    }

    // Drift is only meaningful for an identical run configuration.
    let meta = |doc: &Json, key: &str| doc.get("meta").and_then(|m| m.get(key)).cloned();
    let mut config_matches = true;
    for key in ["seed", "scale", "chaos_seed", "experiments"] {
        if meta(current, key) != meta(baseline, key) {
            warnings.push(format!(
                "baseline meta.{key} differs from this run; deterministic drift check skipped"
            ));
            config_matches = false;
        }
    }
    if !config_matches {
        return (failures, warnings);
    }

    let deterministic = |name: &str| !name.starts_with("time.") && !name.starts_with("sched.");
    for section in ["counters", "gauges"] {
        let (Some(cur), Some(base)) = (
            current.get(section).and_then(|s| s.as_object()),
            baseline.get(section).and_then(|s| s.as_object()),
        ) else {
            warnings.push(format!("{section} missing; drift check skipped for it"));
            continue;
        };
        for (name, value) in cur {
            if !deterministic(name) {
                continue;
            }
            match base.iter().find(|(k, _)| k == name) {
                Some((_, b)) if b == value => {}
                Some((_, b)) => failures.push(format!(
                    "deterministic drift: {section}.{name} = {value:?} vs baseline {b:?}"
                )),
                None => warnings.push(format!("{section}.{name} absent from baseline")),
            }
        }
        for (name, _) in base {
            if deterministic(name) && !cur.iter().any(|(k, _)| k == name) {
                warnings.push(format!("{section}.{name} present in baseline only"));
            }
        }
    }
    // Deterministic histograms compare field-by-field over the fields both
    // documents carry (a v1 baseline lacks p95).
    if let (Some(cur), Some(base)) = (
        current.get("histograms").and_then(|s| s.as_object()),
        baseline.get("histograms").and_then(|s| s.as_object()),
    ) {
        for (name, h) in cur {
            if !deterministic(name) {
                continue;
            }
            let Some((_, bh)) = base.iter().find(|(k, _)| k == name) else {
                warnings.push(format!("histograms.{name} absent from baseline"));
                continue;
            };
            for field in ["count", "sum", "min", "max", "p50", "p90", "p95", "p99"] {
                if let (Some(a), Some(b)) =
                    (h.get(field).and_then(|v| v.as_u64()), bh.get(field).and_then(|v| v.as_u64()))
                {
                    if a != b {
                        failures.push(format!(
                            "deterministic drift: histograms.{name}.{field} = {a} vs baseline {b}"
                        ));
                    }
                }
            }
        }
    }
    (failures, warnings)
}

/// Today's date in UTC as `YYYY-MM-DD`, from the system clock. Uses the
/// days-to-civil algorithm (Howard Hinnant's `civil_from_days`), so no
/// date dependency is needed.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample_report() -> RunReport {
        let mut counters = BTreeMap::new();
        counters.insert("chaos.faults_injected".to_string(), 12);
        counters.insert("chaos.faults_repaired".to_string(), 12);
        counters.insert("join.rows_joined".to_string(), 345);
        let mut gauges = BTreeMap::new();
        gauges.insert("reactive.trigger_latency_max_secs".to_string(), 480);
        gauges.insert("reactive.probe_round_max_probes".to_string(), 50);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "time.pool.task_ms".to_string(),
            crate::metrics::HistogramSnapshot {
                count: 8,
                sum: 40,
                min: 1,
                max: 15,
                p50: 3,
                p90: 15,
                p95: 15,
                p99: 15,
                // Values {1, 2, 2, 3, 4, 4, 9, 15} — consistent with the
                // count/sum/percentiles above.
                buckets: vec![0, 1, 3, 2, 2],
            },
        );
        RunReport {
            meta: RunMeta {
                seed: 42,
                scale: 1500,
                jobs: 2,
                run: 1,
                chaos_seed: Some(9),
                bench: true,
                date: "2026-08-05".into(),
                experiments: vec!["table1".into(), "fig5".into()],
            },
            total_wall_ms: 1234,
            peak_rss_kb: 56_789,
            stages: vec![
                StageWall { name: "longitudinal".into(), wall_ms: 800 },
                StageWall { name: "catalog".into(), wall_ms: 400 },
            ],
            metrics: Snapshot { counters, gauges, histograms },
            trace: TraceSummary {
                events: 400,
                dropped: 0,
                by_kind: vec![("AttackOnset".into(), 300), ("JoinMatched".into(), 100)],
            },
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = RunReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        // Re-serialization is byte-identical.
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn from_json_accepts_sample_and_reports_all_errors() {
        let mut doc = sample_report().to_json();
        assert!(RunReport::from_json(&doc).is_ok());
        doc.set("schema", Json::Str("bogus/v9".into()));
        doc.set("total_wall_ms", Json::Str("fast".into()));
        let errors = RunReport::from_json(&doc).unwrap_err();
        assert!(errors.len() >= 2, "{errors:?}");
    }

    #[test]
    fn from_json_rejects_bad_date_and_meta() {
        let mut doc = sample_report().to_json();
        let mut meta = doc.get("meta").unwrap().clone();
        meta.set("date", Json::Str("08/05/2026".into()));
        meta.set("chaos_seed", Json::Str("nine".into()));
        doc.set("meta", meta);
        let errors = RunReport::from_json(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("date")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("chaos_seed")), "{errors:?}");
    }

    #[test]
    fn from_json_checks_bucket_accounting_but_tolerates_absence() {
        let mut doc = sample_report().to_json();
        let mut histograms = doc.get("histograms").unwrap().clone();
        let mut h = histograms.get("time.pool.task_ms").unwrap().clone();

        // Pre-buckets reports (no `buckets` field at all) stay valid.
        let Json::Object(pairs) = h.clone() else { unreachable!() };
        let legacy_h = Json::Object(pairs.into_iter().filter(|(k, _)| k != "buckets").collect());
        let mut legacy_hists = histograms.clone();
        legacy_hists.set("time.pool.task_ms", legacy_h);
        let mut legacy = doc.clone();
        legacy.set("histograms", legacy_hists);
        let parsed = RunReport::from_json(&legacy).unwrap();
        assert!(parsed.metrics.histograms["time.pool.task_ms"].buckets.is_empty());

        // Buckets that disagree with count are rejected.
        h.set("buckets", Json::Array(vec![Json::U64(1)]));
        histograms.set("time.pool.task_ms", h);
        doc.set("histograms", histograms);
        let errors = RunReport::from_json(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("buckets sum to 1 but count is 8")), "{errors:?}");
    }

    #[test]
    fn invariants_catch_unrepaired_faults_and_latency() {
        assert!(sample_report().check_invariants().is_ok());

        let mut bad = sample_report();
        bad.metrics.counters.insert("chaos.faults_repaired".into(), 7);
        let errors = bad.check_invariants().unwrap_err();
        assert!(errors[0].contains("faults_repaired"), "{errors:?}");

        let mut slow = sample_report();
        slow.metrics.gauges.insert("reactive.trigger_latency_max_secs".into(), 601);
        slow.metrics.gauges.insert("reactive.probe_round_max_probes".into(), 51);
        let errors = slow.check_invariants().unwrap_err();
        assert_eq!(errors.len(), 2, "{errors:?}");
    }

    #[test]
    fn from_json_rejects_bad_trace_block() {
        let mut doc = sample_report().to_json();
        let mut trace = doc.get("trace").unwrap().clone();
        let mut by_kind = Json::obj();
        by_kind.set("NotAKind", Json::U64(1));
        by_kind.set("AttackOnset", Json::Str("three".into()));
        trace.set("by_kind", by_kind);
        doc.set("trace", trace);
        let errors = RunReport::from_json(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("NotAKind")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("by_kind.AttackOnset")), "{errors:?}");
    }

    #[test]
    fn compare_flags_regressions_and_drift_only() {
        let base = sample_report().to_json();
        // Identical reports: clean.
        let (failures, warnings) = compare_reports(&base, &base);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.is_empty(), "{warnings:?}");

        // Wall/RSS regressions beyond the generous thresholds fail; a new
        // counter only warns; drift on a shared counter fails exactly.
        let mut cur = sample_report();
        cur.total_wall_ms = 1234 * 4 + WALL_REGRESSION_FLOOR_MS;
        cur.peak_rss_kb = 56_789 * 3 + RSS_REGRESSION_FLOOR_KB;
        cur.metrics.counters.insert("trace.events".into(), 400);
        *cur.metrics.counters.get_mut("join.rows_joined").unwrap() = 346;
        let (failures, warnings) = compare_reports(&cur.to_json(), &base);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|e| e.contains("wall-clock regression")));
        assert!(failures.iter().any(|e| e.contains("peak-RSS regression")));
        assert!(failures.iter().any(|e| e.contains("counters.join.rows_joined")));
        assert!(warnings.iter().any(|w| w.contains("trace.events absent from baseline")));

        // Faster runs never fail; nondeterministic sections are ignored.
        let mut fast = sample_report();
        fast.total_wall_ms = 1;
        fast.metrics.histograms.get_mut("time.pool.task_ms").unwrap().p50 = 999;
        let (failures, _) = compare_reports(&fast.to_json(), &base);
        assert!(failures.is_empty(), "{failures:?}");

        // A baseline from a different configuration skips the drift check.
        let mut other = sample_report();
        other.meta.scale = 40;
        *other.metrics.counters.get_mut("join.rows_joined").unwrap() = 9;
        let (failures, warnings) = compare_reports(&cur.to_json(), &other.to_json());
        assert!(failures.iter().all(|e| !e.contains("drift")), "{failures:?}");
        assert!(warnings.iter().any(|w| w.contains("meta.scale")), "{warnings:?}");
    }

    #[test]
    fn civil_from_days_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        // 2026-08-05 is 20_670 days after the epoch.
        assert_eq!(civil_from_days(20_670), (2026, 8, 5));
        let today = today_utc();
        assert_eq!(today.len(), 10);
    }

    #[test]
    fn summary_table_mentions_stages_and_counters() {
        let table = sample_report().summary_table();
        assert!(table.contains("longitudinal"));
        assert!(table.contains("join.rows_joined"));
        assert!(table.contains("time.pool.task_ms"));
    }
}
