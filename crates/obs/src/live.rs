//! The live-telemetry report: schema `dnsimpactd-live/v1`.
//!
//! One JSON document per daemon run (`dnsimpactd serve --live-report`),
//! committed under `results/LIVE_<date>[_runN].json` and accepted by
//! `repro validate-metrics`. Unlike the end-of-run reports, this one
//! carries *trajectories*: the retained tick window of every series the
//! live plane sampled, plus the SLO verdict sequence.
//!
//! The document is split at the top level by determinism, so a replay
//! harness can byte-diff exactly the right half:
//!
//! - `deterministic` — tick-indexed series derived from the index state
//!   (pure functions of the feed prefix), the deterministic SLO specs and
//!   their transition log, and the final state scalars with the full
//!   fingerprint. Two runs over the same feed prefix must produce this
//!   object byte-for-byte, whatever the chaos seed or `--jobs`.
//! - `annotation` — wall timestamps, scheduling-dependent series
//!   (queries served/shed, per-route latency), serving-side SLO state,
//!   and the diagnosis. Present for humans, never diffed.
//!
//! [`validate`] re-checks the structural invariants from the outside:
//! strictly increasing ticks, aligned array lengths, legal kinds and
//! statuses — and the delta-conservation law
//! `evicted_sum + Σ values == cumulative` for every delta series, which
//! is how a committed report proves no sample was dropped or
//! double-counted across ring wrap.

use crate::check::{
    check_schema, checked_sum, ok_if_clean, require, require_date, require_hex_fp, require_u64,
    u64_array,
};
use crate::hist::Hist;
use crate::json::Json;
use crate::metrics::Snapshot;
use crate::slo::{SloSet, SloStatusView};
use crate::timeseries::TsStore;

/// Schema identifier carried in every live report.
pub const LIVE_SCHEMA_ID: &str = "dnsimpactd-live/v1";

/// Run identity for the live report.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveMeta {
    pub seed: u64,
    pub scale: u64,
    pub months: u64,
    pub jobs: u64,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    pub chaos_seed: Option<u64>,
    pub tick_cap: u64,
}

/// Final deterministic state scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveFinal {
    pub applied_seq: u64,
    pub total_batches: u64,
    pub records_applied: u64,
    pub episodes: u64,
    pub joined_rows: u64,
    pub staleness_s: u64,
    /// `0x`-prefixed full index fingerprint.
    pub full_fp: String,
}

fn series_json(store: &TsStore, name: &str, with_wall: bool) -> Option<Json> {
    let w = store.series(name, usize::MAX)?;
    let mut o = Json::obj();
    o.set("name", Json::Str(w.name.clone()));
    o.set("kind", Json::Str(w.kind.as_str().into()));
    o.set("ticks", Json::Array(w.ticks.iter().map(|&t| Json::U64(t)).collect()));
    o.set("values", Json::Array(w.values.iter().map(|&v| Json::U64(v)).collect()));
    o.set("evicted_sum", Json::U64(w.evicted_sum));
    o.set("cumulative", Json::U64(w.cumulative));
    if with_wall {
        o.set("wall_ms", Json::Array(w.wall_ms.iter().map(|&m| Json::U64(m)).collect()));
    }
    Some(o)
}

fn status_json(v: &SloStatusView) -> Json {
    let mut o = Json::obj();
    o.set("name", Json::Str(v.name.clone()));
    o.set("series", Json::Str(v.series.clone()));
    o.set("status", Json::Str(v.status.as_str().into()));
    o.set("burn_permille", Json::U64(v.burn_permille));
    o.set("max", Json::U64(v.max));
    match v.last_value {
        Some(x) => o.set("last_value", Json::U64(x)),
        None => o.set("last_value", Json::Null),
    };
    o.set("deterministic", Json::Bool(v.deterministic));
    o
}

/// Assemble a live report. `is_det` decides which stored series are
/// deterministic (the daemon derives those from index state only); the
/// rest land in annotation. `snap` supplies the scheduling-dependent
/// extras (sched counters, per-route latency histograms).
pub fn build(
    meta: &LiveMeta,
    fin: &LiveFinal,
    store: &TsStore,
    slos: &SloSet,
    is_det: &dyn Fn(&str) -> bool,
    snap: &Snapshot,
) -> Json {
    let mut m = Json::obj();
    m.set("seed", Json::U64(meta.seed));
    m.set("scale", Json::U64(meta.scale));
    m.set("months", Json::U64(meta.months));
    m.set("jobs", Json::U64(meta.jobs));
    m.set("date", Json::Str(meta.date.clone()));
    match meta.chaos_seed {
        Some(s) => m.set("chaos_seed", Json::U64(s)),
        None => m.set("chaos_seed", Json::Null),
    };
    m.set("tick_cap", Json::U64(meta.tick_cap));
    m.set("ticks_total", Json::U64(store.ticks_total()));
    m.set("ticks_retained", Json::U64(store.len() as u64));

    let mut f = Json::obj();
    f.set("applied_seq", Json::U64(fin.applied_seq));
    f.set("total_batches", Json::U64(fin.total_batches));
    f.set("records_applied", Json::U64(fin.records_applied));
    f.set("episodes", Json::U64(fin.episodes));
    f.set("joined_rows", Json::U64(fin.joined_rows));
    f.set("staleness_s", Json::U64(fin.staleness_s));
    f.set("full_fp", Json::Str(fin.full_fp.clone()));

    let names: Vec<String> = store.names().map(|(n, _)| n.to_string()).collect();
    let det_series: Vec<Json> =
        names.iter().filter(|n| is_det(n)).filter_map(|n| series_json(store, n, false)).collect();
    let ann_series: Vec<Json> =
        names.iter().filter(|n| !is_det(n)).filter_map(|n| series_json(store, n, false)).collect();

    let mut det_specs = Vec::new();
    for s in slos.specs().filter(|s| s.deterministic) {
        let mut o = Json::obj();
        o.set("name", Json::Str(s.name.clone()));
        o.set("series", Json::Str(s.series.clone()));
        o.set("max", Json::U64(s.max));
        o.set("window", Json::U64(s.window as u64));
        det_specs.push(o);
    }
    let det_transitions: Vec<Json> = slos
        .deterministic_transitions()
        .iter()
        .map(|t| {
            let mut o = Json::obj();
            o.set("tick", Json::U64(t.tick));
            o.set("slo", Json::Str(t.slo.clone()));
            o.set("status", Json::Str(t.status.as_str().into()));
            o
        })
        .collect();

    let mut det = Json::obj();
    det.set("final", f);
    det.set("series", Json::Array(det_series));
    det.set("slo_specs", Json::Array(det_specs));
    det.set("slo_transitions", Json::Array(det_transitions));

    // Annotation: the wall clock per retained tick, the nondeterministic
    // series, serving-side SLO state, and the sched extras.
    let mut wall = Json::obj();
    wall.set("ticks", Json::Array(store.ticks().map(|t| Json::U64(t.tick)).collect()));
    wall.set("ms", Json::Array(store.ticks().map(|t| Json::U64(t.wall_ms)).collect()));

    let statuses: Vec<Json> = slos.statuses().iter().map(status_json).collect();

    let mut sched_counters = Json::obj();
    for (name, &v) in &snap.counters {
        if name.starts_with("sched.") {
            sched_counters.set(name, Json::U64(v));
        }
    }
    let mut route_latency = Json::obj();
    for (name, hs) in &snap.histograms {
        if let Some(route) = name.strip_prefix("sched.daemon.http.latency_us.") {
            if let Ok(h) = Hist::from_snapshot(hs) {
                route_latency.set(route, h.to_json());
            }
        }
    }

    let mut ann = Json::obj();
    ann.set("wall", wall);
    ann.set("series", Json::Array(ann_series));
    ann.set("slo_statuses", Json::Array(statuses));
    ann.set("diagnosis", Json::Str(slos.diagnose().into()));
    ann.set("sched_counters", sched_counters);
    ann.set("route_latency_us", route_latency);

    let mut doc = Json::obj();
    doc.set("schema", Json::Str(LIVE_SCHEMA_ID.into()));
    doc.set("meta", m);
    doc.set("deterministic", det);
    doc.set("annotation", ann);
    doc
}

fn validate_series(list: &Json, path: &str, errors: &mut Vec<String>) {
    let Some(items) = list.as_array() else {
        errors.push(format!("{path} must be an array"));
        return;
    };
    let mut seen = Vec::new();
    for (i, s) in items.iter().enumerate() {
        let p = format!("{path}[{i}]");
        let name = match s.get("name").and_then(|n| n.as_str()) {
            Some(n) if !n.is_empty() => n.to_string(),
            _ => {
                errors.push(format!("{p}.name must be a non-empty string"));
                continue;
            }
        };
        if seen.contains(&name) {
            errors.push(format!("{p}: duplicate series name {name:?}"));
        }
        seen.push(name.clone());
        let kind = s.get("kind").and_then(|k| k.as_str()).unwrap_or("");
        if !matches!(kind, "delta" | "level") {
            errors.push(format!("{p}.kind {kind:?} must be \"delta\" or \"level\""));
        }
        let ticks = s.get("ticks").and_then(|t| u64_array(t, &format!("{p}.ticks"), errors));
        let values = s.get("values").and_then(|t| u64_array(t, &format!("{p}.values"), errors));
        if s.get("ticks").is_none() {
            errors.push(format!("missing field {p}.ticks"));
        }
        if s.get("values").is_none() {
            errors.push(format!("missing field {p}.values"));
        }
        let evicted = require_u64(s, "evicted_sum", &p, errors);
        let cumulative = require_u64(s, "cumulative", &p, errors);
        if let (Some(ticks), Some(values)) = (ticks.as_ref(), values.as_ref()) {
            if ticks.len() != values.len() {
                errors.push(format!("{p}: {} ticks but {} values", ticks.len(), values.len()));
            }
            if ticks.windows(2).any(|w| w[0] >= w[1]) {
                errors.push(format!("{p}.ticks must be strictly increasing"));
            }
            if kind == "delta" {
                let window_sum =
                    checked_sum(values.iter().copied(), &format!("{p}.values sum"), errors);
                if let (Some(e), Some(c), Some(window_sum)) = (evicted, cumulative, window_sum) {
                    let what = format!("{p}.evicted_sum + window sum");
                    if checked_sum([e, window_sum], &what, errors).is_some_and(|total| total != c) {
                        errors.push(format!(
                            "{p} ({name:?}): evicted_sum {e} + window sum {window_sum} != \
                             cumulative {c} — a sample was dropped or double-counted"
                        ));
                    }
                }
            }
        }
    }
}

/// Validate a document against schema `dnsimpactd-live/v1`. Collects all
/// violations (see module docs for what is enforced).
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    check_schema(doc, LIVE_SCHEMA_ID, &mut errors);
    if let Some(meta) = require(doc, "meta", "$", &mut errors) {
        for key in ["seed", "scale", "months", "jobs", "tick_cap"] {
            require_u64(meta, key, "$.meta", &mut errors);
        }
        let total = require_u64(meta, "ticks_total", "$.meta", &mut errors);
        let retained = require_u64(meta, "ticks_retained", "$.meta", &mut errors);
        if let (Some(t), Some(r)) = (total, retained) {
            if r > t {
                errors.push(format!("$.meta.ticks_retained {r} > ticks_total {t}"));
            }
        }
        match meta.get("chaos_seed") {
            Some(Json::U64(_)) | Some(Json::Null) => {}
            Some(_) => errors.push("$.meta.chaos_seed must be an unsigned integer or null".into()),
            None => errors.push("missing field $.meta.chaos_seed".into()),
        }
        require_date(meta, "$.meta", &mut errors);
    }
    if let Some(det) = require(doc, "deterministic", "$", &mut errors) {
        if let Some(fin) = require(det, "final", "$.deterministic", &mut errors) {
            for key in [
                "applied_seq",
                "total_batches",
                "records_applied",
                "episodes",
                "joined_rows",
                "staleness_s",
            ] {
                require_u64(fin, key, "$.deterministic.final", &mut errors);
            }
            require_hex_fp(fin, "full_fp", "$.deterministic.final", &mut errors);
        }
        if let Some(series) = require(det, "series", "$.deterministic", &mut errors) {
            validate_series(series, "$.deterministic.series", &mut errors);
        }
        let mut spec_names = Vec::new();
        if let Some(specs) = require(det, "slo_specs", "$.deterministic", &mut errors) {
            match specs.as_array() {
                Some(items) => {
                    for (i, s) in items.iter().enumerate() {
                        let p = format!("$.deterministic.slo_specs[{i}]");
                        match s.get("name").and_then(|n| n.as_str()) {
                            Some(n) if !n.is_empty() => {
                                if spec_names.contains(&n.to_string()) {
                                    errors.push(format!("{p}: duplicate SLO name {n:?}"));
                                }
                                spec_names.push(n.to_string());
                            }
                            _ => errors.push(format!("{p}.name must be a non-empty string")),
                        }
                        require_u64(s, "max", &p, &mut errors);
                        if require_u64(s, "window", &p, &mut errors) == Some(0) {
                            errors.push(format!("{p}.window must be at least 1"));
                        }
                    }
                }
                None => errors.push("$.deterministic.slo_specs must be an array".into()),
            }
        }
        if let Some(trans) = require(det, "slo_transitions", "$.deterministic", &mut errors) {
            match trans.as_array() {
                Some(items) => {
                    let mut last_tick = 0u64;
                    for (i, t) in items.iter().enumerate() {
                        let p = format!("$.deterministic.slo_transitions[{i}]");
                        if let Some(tick) = require_u64(t, "tick", &p, &mut errors) {
                            if tick < last_tick {
                                errors.push(format!("{p}.tick {tick} goes backwards"));
                            }
                            last_tick = tick;
                        }
                        match t.get("slo").and_then(|s| s.as_str()) {
                            Some(n) if spec_names.iter().any(|s| s == n) => {}
                            Some(n) => errors.push(format!("{p}.slo {n:?} not in slo_specs")),
                            None => errors.push(format!("missing field {p}.slo")),
                        }
                        match t.get("status").and_then(|s| s.as_str()) {
                            Some("ok") | Some("warn") | Some("breach") => {}
                            Some(s) => {
                                errors.push(format!("{p}.status {s:?} is not ok|warn|breach"))
                            }
                            None => errors.push(format!("missing field {p}.status")),
                        }
                    }
                }
                None => errors.push("$.deterministic.slo_transitions must be an array".into()),
            }
        }
    }
    if let Some(ann) = require(doc, "annotation", "$", &mut errors) {
        if let Some(series) = ann.get("series") {
            validate_series(series, "$.annotation.series", &mut errors);
        }
        match ann.get("diagnosis").and_then(|d| d.as_str()) {
            Some(_) => {}
            None => errors.push("missing string field $.annotation.diagnosis".into()),
        }
        if let Some(wall) = ann.get("wall") {
            let t = wall.get("ticks").and_then(|v| v.as_array()).map(|a| a.len());
            let m = wall.get("ms").and_then(|v| v.as_array()).map(|a| a.len());
            if let (Some(t), Some(m)) = (t, m) {
                if t != m {
                    errors.push(format!("$.annotation.wall: {t} ticks but {m} ms entries"));
                }
            }
        }
    }
    ok_if_clean((), errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{SloKind, SloSpec};
    use std::collections::BTreeMap;

    fn sample_report() -> Json {
        let mut store = TsStore::new(4);
        let mut slos = SloSet::new(vec![
            SloSpec {
                name: "ingest_lag".into(),
                series: "live.ingest_lag".into(),
                max: 2,
                window: 3,
                kind: SloKind::Ingest,
                deterministic: true,
            },
            SloSpec {
                name: "shed".into(),
                series: "sched.shed_permille".into(),
                max: 100,
                window: 3,
                kind: SloKind::Serving,
                deterministic: false,
            },
        ]);
        for tick in 1..=6u64 {
            let counters = BTreeMap::from([
                ("live.records".to_string(), tick * 10),
                ("sched.served".to_string(), tick * 3),
            ]);
            let levels = BTreeMap::from([
                ("live.ingest_lag".to_string(), 6 - tick),
                ("sched.shed_permille".to_string(), 0),
            ]);
            store.observe(tick, tick * 100, &counters, &levels);
            let t = store.ticks().last().unwrap().clone();
            slos.observe_tick(tick, |name| {
                t.levels.get(name).copied().or_else(|| t.deltas.get(name).copied())
            });
        }
        let meta = LiveMeta {
            seed: 7,
            scale: 15_000,
            months: 2,
            jobs: 2,
            date: "2026-08-08".into(),
            chaos_seed: Some(11),
            tick_cap: 4,
        };
        let fin = LiveFinal {
            applied_seq: 6,
            total_batches: 6,
            records_applied: 60,
            episodes: 9,
            joined_rows: 12,
            staleness_s: 0,
            full_fp: "0x9f2a6c41d0e8b753".into(),
        };
        let snap = Snapshot {
            counters: BTreeMap::from([("sched.daemon.queries_shed".into(), 4)]),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        build(&meta, &fin, &store, &slos, &|n| n.starts_with("live."), &snap)
    }

    #[test]
    fn built_report_validates_and_round_trips() {
        let doc = sample_report();
        validate(&doc).unwrap();
        let text = doc.pretty();
        let parsed = Json::parse(&text).unwrap();
        validate(&parsed).unwrap();
        assert_eq!(parsed.pretty(), text);
    }

    #[test]
    fn deterministic_half_excludes_wall_and_sched() {
        let doc = sample_report();
        let det = doc.get("deterministic").unwrap().pretty();
        assert!(!det.contains("wall_ms"), "wall clock leaked into deterministic half");
        assert!(!det.contains("sched."), "sched series leaked into deterministic half");
        // The lag SLO starts breached (lag 5 > 2) and recovers — verdicts
        // present and deterministic.
        let trans = doc
            .get("deterministic")
            .and_then(|d| d.get("slo_transitions"))
            .and_then(|t| t.as_array())
            .unwrap();
        assert!(!trans.is_empty());
    }

    #[test]
    fn validate_catches_conservation_violation() {
        let mut doc = sample_report();
        // Corrupt one delta value: the conservation law must notice.
        let det = doc.get("deterministic").unwrap().clone();
        let mut series = det.get("series").unwrap().as_array().unwrap().to_vec();
        let idx = series
            .iter()
            .position(|s| s.get("kind").and_then(|k| k.as_str()) == Some("delta"))
            .expect("a delta series");
        let mut s0 = series[idx].clone();
        let mut values = s0.get("values").unwrap().as_array().unwrap().to_vec();
        let Some(Json::U64(v)) = values.first().cloned() else { panic!("no values") };
        values[0] = Json::U64(v + 1);
        s0.set("values", Json::Array(values));
        series[idx] = s0;
        let mut det2 = det;
        det2.set("series", Json::Array(series));
        doc.set("deterministic", det2);
        let errors = validate(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("double-counted")), "{errors:?}");
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let mut doc = sample_report();
        doc.set("schema", Json::Str("nope/v9".into()));
        assert!(validate(&doc).is_err());

        let empty = Json::obj();
        let errors = validate(&empty).unwrap_err();
        for field in ["$.schema", "$.meta", "$.deterministic", "$.annotation"] {
            assert!(errors.iter().any(|e| e.contains(field)), "{field}: {errors:?}");
        }
    }
}
