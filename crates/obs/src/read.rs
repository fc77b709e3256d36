//! One entry point for every report schema. [`read_report`] dispatches on
//! `$.schema` to that schema's reader — [`RunReport::from_json`] (v2 and
//! legacy v1, plus the counter invariants), [`SweepReport::from_json`],
//! [`SuiteReport::from_json`], [`DaemonReport::from_json`], or
//! [`live::validate`] for the live report, which has no typed form — so
//! `repro validate-metrics`, `repro bench --trajectory` and the report
//! writers all check a document the same way.

use crate::daemon::{DaemonReport, DAEMON_SCHEMA_ID};
use crate::json::Json;
use crate::live::{self, LIVE_SCHEMA_ID};
use crate::report::{RunReport, LEGACY_SCHEMA_ID, SCHEMA_ID};
use crate::suite::{SuiteReport, SUITE_SCHEMA_ID};
use crate::sweep::{SweepReport, SWEEP_SCHEMA_ID};

/// A report that passed its schema's reader.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// `dnsimpact-metrics/v2`, counter invariants included.
    Run(RunReport),
    /// `dnsimpact-metrics/v1`, read under the v1 field set.
    LegacyRun(RunReport),
    Sweep(SweepReport),
    Suite(SuiteReport),
    Daemon(DaemonReport),
    /// `dnsimpactd-live/v1`: the validated document itself.
    Live(Json),
}

type Reader = fn(&Json) -> Result<Report, Vec<String>>;

/// Every schema [`read_report`] reads: its id, the label its violations
/// are reported under, and its reader.
const SCHEMAS: [(&str, &str, Reader); 6] = [
    (SCHEMA_ID, "metrics", |d| read_run(d).map(Report::Run)),
    (LEGACY_SCHEMA_ID, "legacy metrics", |d| read_run(d).map(Report::LegacyRun)),
    (SWEEP_SCHEMA_ID, "sweep", |d| SweepReport::from_json(d).map(Report::Sweep)),
    (SUITE_SCHEMA_ID, "suite", |d| SuiteReport::from_json(d).map(Report::Suite)),
    (DAEMON_SCHEMA_ID, "daemon", |d| DaemonReport::from_json(d).map(Report::Daemon)),
    (LIVE_SCHEMA_ID, "live", |d| live::validate(d).map(|()| Report::Live(d.clone()))),
];

fn read_run(doc: &Json) -> Result<RunReport, Vec<String>> {
    let r = RunReport::from_json(doc)?;
    r.check_invariants()?;
    Ok(r)
}

fn schema_of(doc: &Json) -> Option<&'static (&'static str, &'static str, Reader)> {
    let id = doc.get("schema")?.as_str()?;
    SCHEMAS.iter().find(|(s, ..)| *s == id)
}

/// `doc`'s schema label (`metrics`, `sweep`, …), or `None` when
/// `$.schema` is missing or names no known schema.
pub fn schema_label(doc: &Json) -> Option<&'static str> {
    schema_of(doc).map(|&(_, label, _)| label)
}

/// Read `doc` under the schema its `$.schema` names. Returns every
/// violation, not just the first; an unknown or missing schema is one
/// violation naming it and the known schemas.
pub fn read_report(doc: &Json) -> Result<Report, Vec<String>> {
    if let Some((_, _, read)) = schema_of(doc) {
        return read(doc);
    }
    // Legacy v1 is read but not listed: no new report may use it.
    let known: Vec<&str> =
        SCHEMAS.iter().map(|&(id, ..)| id).filter(|&id| id != LEGACY_SCHEMA_ID).collect();
    let schema = doc.get("schema").and_then(Json::as_str);
    Err(vec![format!(
        "unknown schema {}; known schemas: {}",
        schema.map_or("<missing>".to_string(), |s| format!("{s:?}")),
        known.join(", "),
    )])
}

impl Report {
    /// The one-line verdict `repro validate-metrics` prints for `file`.
    pub fn describe(&self, file: &str) -> String {
        match self {
            Report::Run(r) => format!(
                "{file} is a valid {SCHEMA_ID} report ({} counters, {} gauges, {} histograms); \
                 invariants hold",
                r.metrics.counters.len(),
                r.metrics.gauges.len(),
                r.metrics.histograms.len(),
            ),
            Report::LegacyRun(_) => {
                format!("{file} is a valid legacy {LEGACY_SCHEMA_ID} report; invariants hold")
            }
            Report::Sweep(r) => format!(
                "{file} is a valid {SWEEP_SCHEMA_ID} report ({} cell(s), sorted, finite)",
                r.cells.len()
            ),
            Report::Suite(r) => format!(
                "{file} is a valid {SUITE_SCHEMA_ID} report ({} suite A cell(s), {} suite B \
                 scale(s), {} verdict(s))",
                r.suite_a.len(),
                r.suite_b.len(),
                r.verdicts.len(),
            ),
            Report::Daemon(_) => format!(
                "{file} is a valid {DAEMON_SCHEMA_ID} report (shed accounting balances, floats \
                 finite)"
            ),
            Report::Live(doc) => {
                let n = |key: &str| {
                    doc.get("deterministic")
                        .and_then(|d| d.get(key))
                        .and_then(Json::as_array)
                        .map_or(0, <[Json]>::len)
                };
                format!(
                    "{file} is a valid {LIVE_SCHEMA_ID} report ({} deterministic series, {} SLO \
                     transition(s); delta conservation holds)",
                    n("series"),
                    n("slo_transitions"),
                )
            }
        }
    }
}
