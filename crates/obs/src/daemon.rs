//! The daemon serving-benchmark report: schema `dnsimpactd-report/v1`.
//!
//! One JSON document per `repro daemon-bench` run, committed under
//! `results/DAEMON_<date>[_runN].json`. It captures both sides of the
//! daemon's contract in one artifact: the ingest side (batches, records,
//! the replay-determinism fingerprint) and the serving side (offered
//! query load, what was answered vs shed, and tail latency):
//!
//! ```json
//! {
//!   "schema": "dnsimpactd-report/v1",
//!   "meta": { "seed": 42, "scale": 1500, "months": 2, "jobs": 2,
//!             "date": "2026-08-08", "clients": 4, "zipf_s": 1.1,
//!             "staleness_bound_s": 1800 },
//!   "ingest": { "batches": 210, "records": 5120, "episodes": 430,
//!               "wall_ms": 1830, "fingerprint": "0x9f2a..." },
//!   "serving": { "queries_sent": 2000, "ok": 1890, "not_found": 0,
//!                "shed": 90, "errors": 20, "qps": 5120.4,
//!                "p50_us": 180.0, "p95_us": 420.0, "p99_us": 900.0,
//!                "staleness_s": 0 }
//! }
//! ```
//!
//! [`DaemonReport::from_json`] enforces the shed-accounting identity the
//! overload contract promises — `queries_sent == ok + not_found + shed +
//! errors`, every offered query accounted for exactly once — plus finite
//! floats, a `0x`-prefixed hex fingerprint, and a well-formed date.

use crate::check::{
    check_schema, checked_sum, ok_if_clean, require, require_date, require_finite_f64,
    require_hex_fp, require_u64,
};
use crate::json::Json;

/// Schema identifier carried in every daemon report.
pub const DAEMON_SCHEMA_ID: &str = "dnsimpactd-report/v1";

/// Run identity: the knobs that shaped the feed and the query load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonMeta {
    pub seed: u64,
    /// Target attack count the pinned catalog was divided to.
    pub scale: u64,
    /// Months of the paper interval ingested (0 = all 17).
    pub months: u64,
    pub jobs: u64,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Concurrent query clients.
    pub clients: u64,
    /// Zipf exponent of the domain popularity draw.
    pub zipf_s: f64,
    pub staleness_bound_s: u64,
}

/// A complete daemon report, convertible to and from schema-`v1` JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonReport {
    pub meta: DaemonMeta,
    // Ingest side.
    pub batches: u64,
    pub records: u64,
    pub episodes: u64,
    pub ingest_wall_ms: u64,
    /// Full index fingerprint after ingest, `0x`-prefixed hex — the value
    /// the replay-determinism gate diffs.
    pub fingerprint: String,
    // Serving side.
    pub queries_sent: u64,
    pub ok: u64,
    pub not_found: u64,
    pub shed: u64,
    pub errors: u64,
    pub qps: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    /// Served staleness at measurement time (post-ingest: 0 unless the
    /// feed ended inside a gap).
    pub staleness_s: u64,
}

impl DaemonReport {
    pub fn to_json(&self) -> Json {
        let mut meta = Json::obj();
        meta.set("seed", Json::U64(self.meta.seed));
        meta.set("scale", Json::U64(self.meta.scale));
        meta.set("months", Json::U64(self.meta.months));
        meta.set("jobs", Json::U64(self.meta.jobs));
        meta.set("date", Json::Str(self.meta.date.clone()));
        meta.set("clients", Json::U64(self.meta.clients));
        meta.set("zipf_s", Json::F64(self.meta.zipf_s));
        meta.set("staleness_bound_s", Json::U64(self.meta.staleness_bound_s));

        let mut ingest = Json::obj();
        ingest.set("batches", Json::U64(self.batches));
        ingest.set("records", Json::U64(self.records));
        ingest.set("episodes", Json::U64(self.episodes));
        ingest.set("wall_ms", Json::U64(self.ingest_wall_ms));
        ingest.set("fingerprint", Json::Str(self.fingerprint.clone()));

        let mut serving = Json::obj();
        serving.set("queries_sent", Json::U64(self.queries_sent));
        serving.set("ok", Json::U64(self.ok));
        serving.set("not_found", Json::U64(self.not_found));
        serving.set("shed", Json::U64(self.shed));
        serving.set("errors", Json::U64(self.errors));
        serving.set("qps", Json::F64(self.qps));
        serving.set("p50_us", Json::F64(self.p50_us));
        serving.set("p95_us", Json::F64(self.p95_us));
        serving.set("p99_us", Json::F64(self.p99_us));
        serving.set("staleness_s", Json::U64(self.staleness_s));

        let mut doc = Json::obj();
        doc.set("schema", Json::Str(DAEMON_SCHEMA_ID.into()));
        doc.set("meta", meta);
        doc.set("ingest", ingest);
        doc.set("serving", serving);
        doc
    }

    /// Read a daemon report back: the one pass that checks and reads the
    /// document, collecting every violation. Beyond field shape this
    /// enforces the shed-accounting identity (`queries_sent == ok +
    /// not_found + shed + errors`) and a `0x`-prefixed hex fingerprint.
    pub fn from_json(doc: &Json) -> Result<DaemonReport, Vec<String>> {
        let mut errors = Vec::new();
        let e = &mut errors;
        let mut r = DaemonReport::default();
        check_schema(doc, DAEMON_SCHEMA_ID, e);
        if let Some(m) = require(doc, "meta", "$", e) {
            let u = |key: &str, e: &mut Vec<String>| {
                require_u64(m, key, "$.meta", e).unwrap_or_default()
            };
            r.meta = DaemonMeta {
                seed: u("seed", e),
                scale: u("scale", e),
                months: u("months", e),
                jobs: u("jobs", e),
                clients: u("clients", e),
                staleness_bound_s: u("staleness_bound_s", e),
                zipf_s: require_finite_f64(m, "zipf_s", "$.meta", e).unwrap_or_default(),
                date: require_date(m, "$.meta", e).unwrap_or_default().to_string(),
            };
        }
        if let Some(i) = require(doc, "ingest", "$", e) {
            let u = |key: &str, e: &mut Vec<String>| {
                require_u64(i, key, "$.ingest", e).unwrap_or_default()
            };
            r.batches = u("batches", e);
            r.records = u("records", e);
            r.episodes = u("episodes", e);
            r.ingest_wall_ms = u("wall_ms", e);
            r.fingerprint =
                require_hex_fp(i, "fingerprint", "$.ingest", e).unwrap_or_default().to_string();
        }
        if let Some(s) = require(doc, "serving", "$", e) {
            let u = |key: &str, e: &mut Vec<String>| require_u64(s, key, "$.serving", e);
            let (sent, ok, not_found, shed, errs) =
                (u("queries_sent", e), u("ok", e), u("not_found", e), u("shed", e), u("errors", e));
            r.staleness_s = u("staleness_s", e).unwrap_or_default();
            let f = |key: &str, e: &mut Vec<String>| {
                require_finite_f64(s, key, "$.serving", e).unwrap_or_default()
            };
            (r.qps, r.p50_us, r.p95_us, r.p99_us) =
                (f("qps", e), f("p50_us", e), f("p95_us", e), f("p99_us", e));
            if let (Some(sent), Some(ok), Some(nf), Some(shed), Some(errs)) =
                (sent, ok, not_found, shed, errs)
            {
                let what = "$.serving.queries_sent: ok + not_found + shed + errors";
                if let Some(sum) = checked_sum([ok, nf, shed, errs], what, e).filter(|&n| n != sent)
                {
                    e.push(format!(
                        "$.serving.queries_sent ({sent}) != ok + not_found + shed + errors \
                         ({sum}) — every offered query must be accounted for exactly once"
                    ));
                }
            }
            r.queries_sent = sent.unwrap_or_default();
            r.ok = ok.unwrap_or_default();
            r.not_found = not_found.unwrap_or_default();
            r.shed = shed.unwrap_or_default();
            r.errors = errs.unwrap_or_default();
        }
        ok_if_clean(r, errors)
    }

    /// Human-readable summary for stderr.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "daemon: seed={} scale={} months={} jobs={} clients={} date={}",
            self.meta.seed,
            self.meta.scale,
            self.meta.months,
            self.meta.jobs,
            self.meta.clients,
            self.meta.date
        );
        let _ = writeln!(out, "{:-<78}", "");
        let _ = writeln!(
            out,
            "ingest : {} batches / {} records / {} episodes in {} ms  fp {}",
            self.batches, self.records, self.episodes, self.ingest_wall_ms, self.fingerprint
        );
        let _ = writeln!(
            out,
            "serving: {} sent = {} ok + {} not_found + {} shed + {} errors  ({:.1} qps)",
            self.queries_sent, self.ok, self.not_found, self.shed, self.errors, self.qps
        );
        let _ = writeln!(
            out,
            "latency: p50 {:.0} us  p95 {:.0} us  p99 {:.0} us  staleness {} s",
            self.p50_us, self.p95_us, self.p99_us, self.staleness_s
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> DaemonReport {
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
            batches: 210,
            records: 5_120,
            episodes: 430,
            ingest_wall_ms: 1_830,
            fingerprint: "0x9f2a6c41d0e8b753".into(),
            queries_sent: 2_000,
            ok: 1_890,
            not_found: 0,
            shed: 90,
            errors: 20,
            qps: 5_120.4,
            p50_us: 180.0,
            p95_us: 420.0,
            p99_us: 900.0,
            staleness_s: 0,
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = DaemonReport::from_json(&parsed).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_sections() {
        let mut doc = sample_report().to_json();
        doc.set("schema", Json::Str("dnsimpact-sweep/v1".into()));
        let errors = DaemonReport::from_json(&doc).unwrap_err();
        assert!(errors[0].contains(DAEMON_SCHEMA_ID), "{errors:?}");

        let empty = Json::obj();
        let errors = DaemonReport::from_json(&empty).unwrap_err();
        for field in ["$.schema", "$.meta", "$.ingest", "$.serving"] {
            assert!(errors.iter().any(|e| e.contains(field)), "{field}: {errors:?}");
        }
    }

    #[test]
    fn from_json_enforces_shed_accounting_identity() {
        let mut report = sample_report();
        report.shed += 1;
        let errors = DaemonReport::from_json(&report.to_json()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("accounted for exactly once")), "{errors:?}");
    }

    #[test]
    fn from_json_rejects_bad_fingerprint_and_nan() {
        let mut report = sample_report();
        report.fingerprint = "9f2a".into();
        report.qps = f64::NAN;
        let text = report.to_json().pretty();
        let doc = Json::parse(&text).unwrap();
        let errors = DaemonReport::from_json(&doc).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("0x-prefixed")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("$.serving.qps")), "{errors:?}");
    }

    #[test]
    fn summary_table_shows_both_sides() {
        let table = sample_report().summary_table();
        assert!(table.contains("ingest"));
        assert!(table.contains("serving"));
        assert!(table.contains("p99"));
    }
}
