//! The scale-sweep report: schema `dnsimpact-sweep/v1`.
//!
//! One JSON document per `repro bench --scale-sweep` run, committed under
//! `results/SWEEP_<date>[_runN].json`. Each cell is one (scale, jobs)
//! point of the sweep grid; scale is the *target attack count* the pinned
//! catalog is divided down (or up) to, jobs the worker count:
//!
//! ```json
//! {
//!   "schema": "dnsimpact-sweep/v1",
//!   "meta": { "seed": 42, "chaos_seed": 9, "date": "2026-08-08",
//!             "heavy": 0 },
//!   "cells": [
//!     { "scale": 1500, "jobs": 1,
//!       "episodes": 1700, "joined_rows": 950, "records_measured": 80000,
//!       "records": 82650, "wall_ms": 412, "peak_rss_kb": 91234,
//!       "records_per_sec": 200606.8, "speedup_vs_jobs1": 1.0 },
//!     { "scale": 1500, "jobs": 8, "...": "..." }
//!   ]
//! }
//! ```
//!
//! `records` is the cell's total streamed record count (episodes
//! ingested plus join rows emitted plus sweep measurements taken) — the
//! numerator of `records_per_sec`. `speedup_vs_jobs1` divides the jobs=1
//! wall time of the same scale by this cell's wall time (1.0 for the
//! jobs=1 cell itself). Cells are strictly sorted by `(scale, jobs)`;
//! [`SweepReport::from_json`] rejects unsorted or duplicate cells and any
//! non-finite float, so a NaN throughput can never reach a committed
//! artifact.

use crate::check::{
    check_schema, checked_sum, ok_if_clean, require, require_array, require_date,
    require_finite_f64, require_opt_u64, require_u64,
};
use crate::json::Json;

/// Schema identifier carried in every sweep report.
pub const SWEEP_SCHEMA_ID: &str = "dnsimpact-sweep/v1";

/// Sweep identity: the inputs shared by every cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepMeta {
    pub seed: u64,
    pub chaos_seed: Option<u64>,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// `DNSIMPACT_SCALE_HEAVY` level the sweep ran at (0 = smoke cells).
    pub heavy: u64,
}

/// One (scale, jobs) point of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Target attack count (the pinned catalog divided to ≈ this many).
    pub scale: u64,
    pub jobs: u64,
    /// Attack episodes ingested from the telescope feed.
    pub episodes: u64,
    /// DNS attack events the (open-resolver-filtered) RSDoS×NSSet join
    /// emitted.
    pub joined_rows: u64,
    /// Domain measurements behind the reported impact events
    /// (Σ `domains_measured`).
    pub records_measured: u64,
    /// Total streamed records: `episodes + joined_rows + records_measured`.
    pub records: u64,
    pub wall_ms: u64,
    pub peak_rss_kb: u64,
    pub records_per_sec: f64,
    /// jobs=1 wall time at this scale / this cell's wall time.
    pub speedup_vs_jobs1: f64,
}

/// A complete sweep report, convertible to and from schema-`v1` JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    pub meta: SweepMeta,
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    pub fn to_json(&self) -> Json {
        let mut meta = Json::obj();
        meta.set("seed", Json::U64(self.meta.seed));
        meta.set("chaos_seed", self.meta.chaos_seed.map_or(Json::Null, Json::U64));
        meta.set("date", Json::Str(self.meta.date.clone()));
        meta.set("heavy", Json::U64(self.meta.heavy));

        let cells = Json::Array(
            self.cells
                .iter()
                .map(|c| {
                    let mut o = Json::obj();
                    o.set("scale", Json::U64(c.scale));
                    o.set("jobs", Json::U64(c.jobs));
                    o.set("episodes", Json::U64(c.episodes));
                    o.set("joined_rows", Json::U64(c.joined_rows));
                    o.set("records_measured", Json::U64(c.records_measured));
                    o.set("records", Json::U64(c.records));
                    o.set("wall_ms", Json::U64(c.wall_ms));
                    o.set("peak_rss_kb", Json::U64(c.peak_rss_kb));
                    o.set("records_per_sec", Json::F64(c.records_per_sec));
                    o.set("speedup_vs_jobs1", Json::F64(c.speedup_vs_jobs1));
                    o
                })
                .collect(),
        );

        let mut doc = Json::obj();
        doc.set("schema", Json::Str(SWEEP_SCHEMA_ID.into()));
        doc.set("meta", meta);
        doc.set("cells", cells);
        doc
    }

    /// Read a sweep report back: the one pass that checks and reads the
    /// document, collecting every violation. Beyond field shape this
    /// enforces the artifact invariants: cells strictly sorted by
    /// `(scale, jobs)` (which also forbids duplicates), all floats finite,
    /// and `records` consistent with its breakdown.
    pub fn from_json(doc: &Json) -> Result<SweepReport, Vec<String>> {
        let mut errors = Vec::new();
        let e = &mut errors;
        check_schema(doc, SWEEP_SCHEMA_ID, e);
        let meta = require(doc, "meta", "$", e).map(|m| SweepMeta {
            seed: require_u64(m, "seed", "$.meta", e).unwrap_or_default(),
            heavy: require_u64(m, "heavy", "$.meta", e).unwrap_or_default(),
            chaos_seed: require_opt_u64(m, "chaos_seed", "$.meta", e).flatten(),
            date: require_date(m, "$.meta", e).unwrap_or_default().to_string(),
        });
        let items = require_array(doc, "cells", "$", e);
        if items.is_some_and(<[Json]>::is_empty) {
            e.push("$.cells must not be empty".into());
        }
        let mut cells = Vec::new();
        let mut prev: Option<(u64, u64)> = None;
        for (i, c) in items.unwrap_or_default().iter().enumerate() {
            let path = format!("$.cells[{i}]");
            let u = |key: &str, e: &mut Vec<String>| require_u64(c, key, &path, e);
            let (scale, jobs, episodes, joined_rows, records_measured, records) = (
                u("scale", e),
                u("jobs", e),
                u("episodes", e),
                u("joined_rows", e),
                u("records_measured", e),
                u("records", e),
            );
            let (wall_ms, peak_rss_kb) = (u("wall_ms", e), u("peak_rss_kb", e));
            let records_per_sec = require_finite_f64(c, "records_per_sec", &path, e);
            let speedup_vs_jobs1 = require_finite_f64(c, "speedup_vs_jobs1", &path, e);
            if let (Some(ep), Some(j), Some(m), Some(r)) =
                (episodes, joined_rows, records_measured, records)
            {
                let what = format!("{path}.records: episodes + joined_rows + records_measured");
                if let Some(sum) = checked_sum([ep, j, m], &what, e).filter(|&sum| sum != r) {
                    e.push(format!(
                        "{path}.records ({r}) != episodes + joined_rows + records_measured ({sum})"
                    ));
                }
            }
            if jobs == Some(0) {
                e.push(format!("{path}.jobs must be >= 1"));
            }
            if let (Some(scale), Some(jobs)) = (scale, jobs) {
                if let Some(p) = prev.filter(|&p| (scale, jobs) <= p) {
                    e.push(format!(
                        "{path} (scale={scale}, jobs={jobs}) is not strictly after \
                         (scale={}, jobs={}) — cells must be sorted, without duplicates",
                        p.0, p.1
                    ));
                }
                prev = Some((scale, jobs));
            }
            cells.push(SweepCell {
                scale: scale.unwrap_or_default(),
                jobs: jobs.unwrap_or_default(),
                episodes: episodes.unwrap_or_default(),
                joined_rows: joined_rows.unwrap_or_default(),
                records_measured: records_measured.unwrap_or_default(),
                records: records.unwrap_or_default(),
                wall_ms: wall_ms.unwrap_or_default(),
                peak_rss_kb: peak_rss_kb.unwrap_or_default(),
                records_per_sec: records_per_sec.unwrap_or_default(),
                speedup_vs_jobs1: speedup_vs_jobs1.unwrap_or_default(),
            });
        }
        let report = SweepReport { meta: meta.unwrap_or_default(), cells };
        ok_if_clean(report, errors)
    }

    /// Human-readable table for stderr: one line per cell.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let chaos = self.meta.chaos_seed.map_or("off".to_string(), |s| format!("{s}"));
        let _ = writeln!(
            out,
            "sweep: seed={} chaos={} date={} heavy={}",
            self.meta.seed, chaos, self.meta.date, self.meta.heavy
        );
        let _ = writeln!(out, "{:-<78}", "");
        let _ = writeln!(
            out,
            "{:>9} {:>5} {:>10} {:>10} {:>10} {:>14} {:>8}",
            "scale", "jobs", "records", "wall_ms", "rss_kb", "rec/s", "speedup"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:>9} {:>5} {:>10} {:>10} {:>10} {:>14.1} {:>8.2}",
                c.scale,
                c.jobs,
                c.records,
                c.wall_ms,
                c.peak_rss_kb,
                c.records_per_sec,
                c.speedup_vs_jobs1
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scale: u64, jobs: u64, wall_ms: u64, speedup: f64) -> SweepCell {
        let (episodes, joined_rows, records_measured) = (1_700, 950, 80_000);
        let records = episodes + joined_rows + records_measured;
        SweepCell {
            scale,
            jobs,
            episodes,
            joined_rows,
            records_measured,
            records,
            wall_ms,
            peak_rss_kb: 91_234,
            records_per_sec: records as f64 * 1_000.0 / wall_ms as f64,
            speedup_vs_jobs1: speedup,
        }
    }

    fn sample_report() -> SweepReport {
        SweepReport {
            meta: SweepMeta { seed: 42, chaos_seed: Some(9), date: "2026-08-08".into(), heavy: 0 },
            cells: vec![
                cell(1_500, 1, 400, 1.0),
                cell(1_500, 8, 150, 400.0 / 150.0),
                cell(15_000, 1, 3_600, 1.0),
                cell(15_000, 8, 1_100, 3_600.0 / 1_100.0),
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = SweepReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_fields() {
        let mut doc = sample_report().to_json();
        doc.set("schema", Json::Str("dnsimpact-metrics/v2".into()));
        let errors = SweepReport::from_json(&doc).unwrap_err();
        assert!(errors[0].contains("dnsimpact-sweep/v1"), "{errors:?}");

        let empty = Json::obj();
        let errors = SweepReport::from_json(&empty).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("$.schema")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("$.meta")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("$.cells")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_unsorted_and_duplicate_cells() {
        let mut unsorted = sample_report();
        unsorted.cells.swap(1, 2);
        let errors = SweepReport::from_json(&unsorted.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("sorted")), "{errors:?}");

        let mut duped = sample_report();
        let c = duped.cells[0].clone();
        duped.cells.insert(1, c);
        let errors = SweepReport::from_json(&duped.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("duplicates")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_nan_and_inconsistent_records() {
        let mut report = sample_report();
        report.cells[0].records_per_sec = f64::NAN;
        report.cells[1].speedup_vs_jobs1 = f64::INFINITY;
        report.cells[2].records += 1;
        // NaN/inf serialize to null; from_json flags both cells either way.
        let text = report.to_json().pretty();
        let doc = Json::parse(&text).unwrap();
        let errors = SweepReport::from_json(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("cells[0].records_per_sec")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("cells[1].speedup_vs_jobs1")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("cells[2].records")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_empty_cells_and_zero_jobs() {
        let mut report = sample_report();
        report.cells.clear();
        let errors = SweepReport::from_json(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("must not be empty")), "{errors:?}");

        let mut zero = sample_report();
        zero.cells[0].jobs = 0;
        let errors = SweepReport::from_json(&zero.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("jobs must be >= 1")), "{errors:?}");
    }

    #[test]
    fn summary_table_lists_cells() {
        let table = sample_report().summary_table();
        assert!(table.contains("1500"));
        assert!(table.contains("15000"));
        assert!(table.contains("speedup"));
    }
}
