//! Step 4 of the methodology: the per-(attack, NSSet) impact events.
//!
//! For every joined attack event and every NSSet it touches, measure the
//! domains OpenINTEL would have measured in the attack's windows, build the
//! previous-day baseline, and compute `Impact_on_RTT` (Equation 1) plus
//! failure rates. NSSets with fewer than five domains measured during the
//! attack are discarded as noise, exactly as §6.3 does.

use crate::columnar::JoinTable;
use attack::Protocol;
use census::{AnycastCensus, AnycastClass};
use dnssim::{Infra, LoadBook, NsSetId, Resolver};
use openintel::{measure::measure_domains, MeasurementStore, OutageModel, SweepSchedule};
use simcore::rng::RngFactory;
use std::collections::HashSet;
use telescope::EpisodeColumns;

/// Which baseline day the denominator of Equation 1 came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineSource {
    /// The normal case: the sweep of the day before the attack.
    DayBefore,
    /// Degraded: the day-before sweep was lost to a sensor outage, so the
    /// week-before day substitutes (§4.1's ablation: the two baselines
    /// correlate at r = 0.999).
    WeekBefore,
    /// No usable baseline day (day-zero attack, or both candidate sweeps
    /// lost) — `impact_on_rtt` is `None`.
    Missing,
}

/// One row of the paper's impact analysis: an attack on one NSSet, with
/// its measured consequences and the deployment metadata the resilience
/// analyses slice by.
#[derive(Clone, Debug)]
pub struct ImpactEvent {
    pub episode_idx: usize,
    pub nsset: NsSetId,
    /// Domains OpenINTEL measured during the attack windows.
    pub domains_measured: u64,
    /// Equation 1; `None` when no usable baseline exists.
    pub impact_on_rtt: Option<f64>,
    /// Where the baseline denominator came from (degradation accounting).
    pub baseline_source: BaselineSource,
    /// Fraction of measured domains that failed to resolve.
    pub failure_rate: f64,
    pub timeouts: u64,
    pub servfails: u64,
    /// Domains hosted by the NSSet (the size classes of Figures 7–8).
    pub nsset_domains: u64,
    /// Attack attributes from the feed.
    pub protocol: Protocol,
    pub first_port: u16,
    pub peak_ppm: f64,
    pub duration_min: f64,
    /// Deployment metadata (Figures 11–13).
    pub anycast: AnycastClass,
    pub asn_count: usize,
    pub prefix_count: usize,
}

impl ImpactEvent {
    /// Complete resolution failure: every measured domain failed.
    pub fn complete_failure(&self) -> bool {
        self.domains_measured > 0 && self.failure_rate >= 1.0
    }
}

/// Tunables of the impact computation.
#[derive(Clone, Copy, Debug)]
pub struct ImpactConfig {
    /// Minimum domains measured during the attack (the paper uses 5).
    pub min_domains_measured: u64,
    /// Baseline sampling cap: at most this many of the NSSet's domains are
    /// measured on the previous day to form the denominator of Equation 1.
    pub baseline_sample_cap: usize,
    /// Simulated sensor outages: daily sweeps on missed days produce no
    /// measurements, and baselines falling on them trigger the week-before
    /// fallback. `None` (the default) models a lossless platform.
    pub sweep_outage: Option<OutageModel>,
    /// When set, the measurement phase runs under chaos: injected task
    /// crashes, supervised with bounded restarts. The impacts are
    /// byte-identical to a fault-free run — this knob only exercises the
    /// recovery machinery.
    pub chaos_seed: Option<u64>,
    /// Trace scope for `BaselineFallback`/`ImpactComputed` events (see
    /// `obs::trace`); `None` disables emission. Both emission sites sit in
    /// the sequential plan/aggregate phases, so the event stream is
    /// `--jobs`- and chaos-independent.
    pub trace_scope: Option<&'static str>,
}

impl Default for ImpactConfig {
    fn default() -> ImpactConfig {
        ImpactConfig {
            min_domains_measured: 5,
            baseline_sample_cap: 200,
            sweep_outage: None,
            chaos_seed: None,
            trace_scope: None,
        }
    }
}

/// One unit of OpenINTEL measurement work, planned sequentially and
/// executed on any worker. Tasks never share RNG state: `measure_domains`
/// derives a fresh stream per `(domain, window)` from the factory, so a
/// task's records depend only on its inputs — not on which thread ran it
/// or when.
enum MeasureTask {
    /// One deduplicated (NSSet, window) attack-measurement cell.
    Cell { nsset: NsSetId, window: u64, domains: Vec<dnssim::DomainId> },
    /// The sampled previous-day baseline for one (NSSet, day), each probe
    /// in its own scheduled window.
    Baseline { nsset: NsSetId, probes: Vec<(dnssim::DomainId, simcore::time::Window)> },
}

/// Compute the impact events for every row of a [`JoinTable`], plus the
/// filled measurement store (per-window aggregates) for time-series
/// rendering. The measurement phase fans out over up to `jobs` worker
/// threads (`0` → available parallelism).
///
/// Three phases keep the output independent of `jobs` and of the chaos
/// seed:
///
/// 1. **Plan** (sequential): walk the rows in order and emit a canonical,
///    deduplicated task list — attack-window cells and sampled baselines.
///    Each NSSet's sweep measurements stream
///    ([`SweepSchedule::for_each_in_window_range`]) straight into the
///    per-window buckets, so the `(domain, window)` cross-product is never
///    materialized or sorted; cells another row already claimed are
///    counted but not buffered.
/// 2. **Measure** (parallel): run the tasks on a shared-queue worker pool,
///    supervised with injected crashes when `config.chaos_seed` is set;
///    [`streamproc::parallel_map_supervised`] returns the record batches in
///    plan order regardless of scheduling or restarts.
/// 3. **Merge + aggregate** (sequential): ingest the batches in plan order
///    (fixing the f64 summation order inside the store), then derive every
///    row's statistics from the fully-populated store.
///
/// [`crate::reference::compute_impacts`] is the sequential oracle: the
/// differential suite in `tests/columnar_equivalence.rs` holds this
/// function to its impacts, store, counters and trace stream exactly.
#[allow(clippy::too_many_arguments)]
pub fn compute_impacts_columnar(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    episodes: &EpisodeColumns,
    table: &JoinTable,
    census: &AnycastCensus,
    rngs: &RngFactory,
    config: &ImpactConfig,
    jobs: usize,
) -> (Vec<ImpactEvent>, MeasurementStore) {
    // Phase 1: plan.
    let mut lost_days: HashSet<u64> = HashSet::new();
    let mut measured_cells: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut baseline_days: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut tasks: Vec<MeasureTask> = Vec::new();
    // One entry per (row, NSSet) pair passing the ≥5-domains filter, in
    // row order, carrying the global episode index — phase 3 emits exactly
    // one ImpactEvent per entry.
    let mut rows: Vec<(usize, NsSetId, Option<u64>, BaselineSource)> = Vec::new();
    let mut by_window: std::collections::BTreeMap<u64, Vec<dnssim::DomainId>> =
        std::collections::BTreeMap::new();

    for r in 0..table.len() {
        let episode_idx = table.episode_idx[r] as usize;
        let (first, last) =
            (episodes.first_windows[episode_idx], episodes.last_windows[episode_idx]);
        for &nsset in table.nssets.row(r) {
            // Stream the sweep: count every surviving measurement, buffer
            // only windows no earlier event already claimed. Domain-major
            // visiting fills each window's bucket in ascending domain id
            // order — the per-window order of the reference path's
            // `(window, domain)`-sorted materialized list.
            let mut measured: u64 = 0;
            by_window.clear();
            schedule.for_each_in_window_range(infra, nsset, first, last, |d, w| {
                let day = w.day();
                let swept = config.sweep_outage.is_none_or(|o| !o.day_missed(day));
                if !swept {
                    lost_days.insert(day);
                    return;
                }
                measured += 1;
                if !measured_cells.contains(&(nsset, w.0)) {
                    by_window.entry(w.0).or_default().push(d);
                }
            });
            if measured < config.min_domains_measured {
                continue;
            }
            let attack_day = first.day();
            let mut day_swept = |day: u64| {
                let swept = config.sweep_outage.is_none_or(|o| !o.day_missed(day));
                if !swept {
                    lost_days.insert(day);
                }
                swept
            };
            let (base_day, base_source) = match attack_day.checked_sub(1) {
                Some(d) if day_swept(d) => (Some(d), BaselineSource::DayBefore),
                _ => match attack_day.checked_sub(7) {
                    Some(d) if day_swept(d) => (Some(d), BaselineSource::WeekBefore),
                    _ => (None, BaselineSource::Missing),
                },
            };
            if let (Some(scope), BaselineSource::WeekBefore) = (config.trace_scope, base_source) {
                obs::trace::emit(
                    obs::EventKind::BaselineFallback,
                    scope,
                    Some(episode_idx as u64),
                    Some(first.start().secs()),
                    format!(
                        "nsset {nsset:?}: day-before sweep lost, week-before day {} substitutes",
                        base_day.unwrap_or(0)
                    ),
                    base_day,
                );
            }
            rows.push((episode_idx, nsset, base_day, base_source));
            for (w, ds) in std::mem::take(&mut by_window) {
                if measured_cells.insert((nsset, w)) {
                    tasks.push(MeasureTask::Cell { nsset, window: w, domains: ds });
                }
            }
            if let Some(day) = base_day {
                if baseline_days.insert((nsset, day)) {
                    let all = infra.domains_of_nsset(nsset);
                    let step = (all.len() / config.baseline_sample_cap).max(1);
                    let probes: Vec<(dnssim::DomainId, simcore::time::Window)> = all
                        .iter()
                        .step_by(step)
                        .take(config.baseline_sample_cap)
                        .map(|&d| (d, schedule.window_on_day(d, day)))
                        .collect();
                    tasks.push(MeasureTask::Baseline { nsset, probes });
                }
            }
        }
    }

    obs::counter("impact.rows").add(rows.len() as u64);
    obs::counter("impact.windows_computed").add(measured_cells.len() as u64);
    obs::counter("impact.baselines").add(baseline_days.len() as u64);
    obs::counter("impact.baseline_fallbacks")
        .add(rows.iter().filter(|(_, _, _, s)| *s == BaselineSource::WeekBefore).count() as u64);
    obs::counter("impact.baselines_missing")
        .add(rows.iter().filter(|(_, _, _, s)| *s == BaselineSource::Missing).count() as u64);
    obs::counter("outage.sweep_days_lost").add(lost_days.len() as u64);

    // Phase 2: measure on the worker pool. Tasks never share RNG state, so
    // crashed-and-retried tasks return the same batches.
    let run_task = |task: &MeasureTask| match task {
        MeasureTask::Cell { nsset, window, domains } => measure_domains(
            infra,
            resolver,
            domains,
            *nsset,
            simcore::time::Window(*window),
            loads,
            rngs,
        ),
        MeasureTask::Baseline { nsset, probes } => {
            let mut recs = Vec::new();
            for (d, w) in probes {
                recs.extend(measure_domains(infra, resolver, &[*d], *nsset, *w, loads, rngs));
            }
            recs
        }
    };
    let plan = config.chaos_seed.map(|cs| {
        streamproc::FaultPlan::from_seed(cs, "impact-measure", streamproc::ChaosConfig::SPARSE)
    });
    let (batches, _chaos) = streamproc::parallel_map_supervised(
        jobs,
        tasks,
        plan.as_ref(),
        &streamproc::SupervisorConfig::default(),
        |_, task| run_task(task),
    );

    // Phase 3: merge in plan order, then aggregate per row.
    let mut store = MeasurementStore::new();
    for batch in &batches {
        obs::counter("openintel.records_measured").add(batch.len() as u64);
        store.ingest(batch);
    }
    let mut out = Vec::with_capacity(rows.len());
    for (episode_idx, nsset, base_day, base_source) in rows {
        let (first, last) =
            (episodes.first_windows[episode_idx], episodes.last_windows[episode_idx]);
        let during = store.range_stats(nsset, first, last);
        let impact = base_day.and_then(|day| store.impact_on_rtt_from_day(nsset, first, last, day));
        let (asns, prefixes) = (infra.nsset_asns(nsset).len(), infra.nsset_slash24s(nsset).len());
        if let Some(scope) = config.trace_scope {
            obs::trace::emit(
                obs::EventKind::ImpactComputed,
                scope,
                Some(episode_idx as u64),
                Some(first.start().secs()),
                format!(
                    "nsset {nsset:?} ({:?} baseline), failure rate {:.4}",
                    base_source,
                    during.failure_rate()
                ),
                Some(during.domains_measured),
            );
        }
        out.push(ImpactEvent {
            episode_idx,
            nsset,
            domains_measured: during.domains_measured,
            impact_on_rtt: impact,
            baseline_source: base_source,
            failure_rate: during.failure_rate(),
            timeouts: during.timeout,
            servfails: during.servfail,
            nsset_domains: infra.domains_of_nsset(nsset).len() as u64,
            protocol: episodes.protocols[episode_idx],
            first_port: episodes.first_ports[episode_idx],
            peak_ppm: episodes.peak_ppm[episode_idx],
            duration_min: ((last.0 - first.0 + 1) * 300) as f64 / 60.0,
            anycast: census.classify(infra, nsset, first.start()),
            asn_count: asns,
            prefix_count: prefixes,
        });
    }
    (out, store)
}
