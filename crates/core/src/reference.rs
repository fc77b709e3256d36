//! The sequential reference implementation of steps 2–4: the §4.2
//! previous-day join of victim IPs to nameservers, its expansion to
//! NSSets and domains, and Equation-1 impact.
//!
//! Production runs the columnar path ([`crate::JoinTable::build`], then
//! [`crate::compute_impacts_columnar`]) sharded over `--jobs`. This module
//! is its differential oracle: one episode, one NSSet, one measurement at
//! a time, with no worker pool, no sharding and no `jobs` argument.
//! `tests/columnar_equivalence.rs` and `crates/core/tests/join_sharding.rs`
//! hold the columnar path equal to it — events, impacts, measurement
//! stores, deterministic counters (`join.*`, `impact.*`,
//! `openintel.records_measured`, `outage.sweep_days_lost`) and the
//! `JoinMatched` / `BaselineFallback` / `ImpactComputed` trace streams.

use crate::impact::{BaselineSource, ImpactConfig, ImpactEvent};
use crate::join::{DnsAttackEvent, NsDirectory};
use census::{AnycastCensus, OpenResolverList};
use dnssim::{Infra, LoadBook, NsSetId, Resolver};
use openintel::{measure::measure_domains, MeasurementStore, SweepSchedule};
use simcore::rng::RngFactory;
use simcore::time::Window;
use std::collections::{BTreeMap, HashSet};
use telescope::AttackEpisode;

/// The paper's join: against the previous day's nameserver list.
pub fn join_episodes(
    infra: &Infra,
    directory: &dyn NsDirectory,
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
) -> Vec<DnsAttackEvent> {
    join_episodes_traced(infra, directory, episodes, open_resolvers, include_collateral, 1, None)
}

/// Join RSDoS episodes against the nameserver directory, using the list
/// as it stood `day_offset` days before each attack (§4.2: the paper uses
/// 1 — "the day before the attack" — so an attack that knocks a
/// nameserver out of the measured list is still joined). With a
/// `trace_scope`, every joined row also emits a `JoinMatched` trace event
/// under that scope.
pub fn join_episodes_traced(
    infra: &Infra,
    directory: &dyn NsDirectory,
    episodes: &[AttackEpisode],
    open_resolvers: &OpenResolverList,
    include_collateral: bool,
    day_offset: u64,
    trace_scope: Option<&str>,
) -> Vec<DnsAttackEvent> {
    let mut out = Vec::new();
    for (idx, ep) in episodes.iter().enumerate() {
        if open_resolvers.contains(ep.victim) {
            continue;
        }
        let day = ep.first_window.day().saturating_sub(day_offset);
        let mut ns_direct = Vec::new();
        let mut ns_collateral = Vec::new();
        if let Some(ns) = directory.ns_at(ep.victim, day) {
            ns_direct.push(ns);
        } else if include_collateral {
            let prefix = netbase::Slash24::of(ep.victim);
            for ns in infra.nameservers_in_slash24(prefix) {
                if directory.ns_at(infra.nameserver(ns).addr, day).is_some() {
                    ns_collateral.push(ns);
                }
            }
        }
        if ns_direct.is_empty() && ns_collateral.is_empty() {
            continue;
        }
        let mut nssets: HashSet<NsSetId> = HashSet::new();
        for &ns in ns_direct.iter().chain(&ns_collateral) {
            nssets.extend(infra.nssets_of_ns(ns).iter().copied());
        }
        let mut domains: HashSet<u32> = HashSet::new();
        for &set in &nssets {
            domains.extend(infra.domains_of_nsset(set).iter().map(|d| d.0));
        }
        let mut nssets: Vec<NsSetId> = nssets.into_iter().collect();
        nssets.sort();
        if let Some(scope) = trace_scope {
            obs::trace::emit(
                obs::EventKind::JoinMatched,
                scope,
                Some(idx as u64),
                Some(ep.first_window.start().secs()),
                format!(
                    "victim {} → {} direct + {} collateral ns, {} nsset(s)",
                    ep.victim,
                    ns_direct.len(),
                    ns_collateral.len(),
                    nssets.len()
                ),
                Some(domains.len() as u64),
            );
        }
        out.push(DnsAttackEvent {
            episode_idx: idx,
            ns_direct,
            ns_collateral,
            nssets,
            domains_affected: domains.len() as u64,
            month: ep.first_window.start().month(),
        });
    }
    obs::counter("join.episodes_in").add(episodes.len() as u64);
    obs::counter("join.rows_joined").add(out.len() as u64);
    out
}

/// Compute the impact events for all joined attacks, plus the filled
/// measurement store (per-window aggregates) for time-series rendering.
///
/// For every event and every NSSet it touches: measure the domains
/// OpenINTEL would have measured in the attack's windows, drop the pair
/// when fewer than `min_domains_measured` were measured (§6.3), pick the
/// baseline day (day before; week before when a sensor outage lost it,
/// §4.1), and measure a sampled baseline. Each `(NSSet, window)` cell and
/// `(NSSet, day)` baseline is measured once, at the point it is first
/// planned, and ingested right away — the same order the columnar path's
/// plan fixes, so the store's f64 sums are identical. `config.chaos_seed`
/// is ignored: there is no worker pool to crash.
#[allow(clippy::too_many_arguments)]
pub fn compute_impacts(
    infra: &Infra,
    schedule: &SweepSchedule,
    resolver: &Resolver,
    loads: &LoadBook,
    episodes: &[AttackEpisode],
    events: &[DnsAttackEvent],
    census: &AnycastCensus,
    rngs: &RngFactory,
    config: &ImpactConfig,
) -> (Vec<ImpactEvent>, MeasurementStore) {
    let mut store = MeasurementStore::new();
    let mut measure = |domains: &[dnssim::DomainId], nsset: NsSetId, window: Window| {
        let recs = measure_domains(infra, resolver, domains, nsset, window, loads, rngs);
        obs::counter("openintel.records_measured").add(recs.len() as u64);
        store.ingest(&recs);
    };
    let mut lost_days: HashSet<u64> = HashSet::new();
    let mut day_swept = |day: u64| {
        let swept = config.sweep_outage.is_none_or(|o| !o.day_missed(day));
        if !swept {
            lost_days.insert(day);
        }
        swept
    };
    let mut measured_cells: HashSet<(NsSetId, u64)> = HashSet::new();
    let mut baseline_days: HashSet<(NsSetId, u64)> = HashSet::new();
    // The (event, NSSet) pairs that pass the ≥5-domains filter, in event
    // order, with their resolved baseline day.
    let mut rows: Vec<(&DnsAttackEvent, NsSetId, Option<u64>, BaselineSource)> = Vec::new();

    for ev in events {
        let ep = &episodes[ev.episode_idx];
        for &nsset in &ev.nssets {
            let mut measured =
                schedule.domains_in_window_range(infra, nsset, ep.first_window, ep.last_window);
            // A sweep outage during the attack loses those windows' probes.
            measured.retain(|(_, w)| day_swept(w.day()));
            if (measured.len() as u64) < config.min_domains_measured {
                continue;
            }
            let attack_day = ep.first_window.day();
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
                    Some(ev.episode_idx as u64),
                    Some(ep.first_window.start().secs()),
                    format!(
                        "nsset {nsset:?}: day-before sweep lost, week-before day {} substitutes",
                        base_day.unwrap_or(0)
                    ),
                    base_day,
                );
            }
            rows.push((ev, nsset, base_day, base_source));
            // Measure the attack windows, once per (nsset, window) cell
            // even when episodes overlap.
            let mut by_window: BTreeMap<u64, Vec<dnssim::DomainId>> = BTreeMap::new();
            for (d, w) in measured {
                by_window.entry(w.0).or_default().push(d);
            }
            for (w, ds) in by_window {
                if measured_cells.insert((nsset, w)) {
                    measure(&ds, nsset, Window(w));
                }
            }
            // Measure the sampled baseline day, each probe in its own
            // scheduled window.
            if let Some(day) = base_day {
                if baseline_days.insert((nsset, day)) {
                    let all = infra.domains_of_nsset(nsset);
                    let step = (all.len() / config.baseline_sample_cap).max(1);
                    for &d in all.iter().step_by(step).take(config.baseline_sample_cap) {
                        measure(&[d], nsset, schedule.window_on_day(d, day));
                    }
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

    let mut out = Vec::with_capacity(rows.len());
    for (ev, nsset, base_day, base_source) in rows {
        let ep = &episodes[ev.episode_idx];
        let during = store.range_stats(nsset, ep.first_window, ep.last_window);
        let impact = base_day.and_then(|day| {
            store.impact_on_rtt_from_day(nsset, ep.first_window, ep.last_window, day)
        });
        if let Some(scope) = config.trace_scope {
            obs::trace::emit(
                obs::EventKind::ImpactComputed,
                scope,
                Some(ev.episode_idx as u64),
                Some(ep.first_window.start().secs()),
                format!(
                    "nsset {nsset:?} ({:?} baseline), failure rate {:.4}",
                    base_source,
                    during.failure_rate()
                ),
                Some(during.domains_measured),
            );
        }
        out.push(ImpactEvent {
            episode_idx: ev.episode_idx,
            nsset,
            domains_measured: during.domains_measured,
            impact_on_rtt: impact,
            baseline_source: base_source,
            failure_rate: during.failure_rate(),
            timeouts: during.timeout,
            servfails: during.servfail,
            nsset_domains: infra.domains_of_nsset(nsset).len() as u64,
            protocol: ep.protocol,
            first_port: ep.first_port,
            peak_ppm: ep.peak_ppm,
            duration_min: ep.duration().secs() as f64 / 60.0,
            anycast: census.classify(infra, nsset, ep.first_window.start()),
            asn_count: infra.nsset_asns(nsset).len(),
            prefix_count: infra.nsset_slash24s(nsset).len(),
        });
    }
    (out, store)
}

#[cfg(test)]
mod join_tests {
    use super::*;
    use crate::join::ChangingDirectory;
    use attack::Protocol;
    use dnssim::{Deployment, NsId};
    use netbase::Asn;
    use simcore::time::Month;
    use std::net::Ipv4Addr;

    fn episode(victim: &str, w: u64) -> AttackEpisode {
        AttackEpisode {
            victim: victim.parse().unwrap(),
            first_window: Window(w),
            last_window: Window(w + 2),
            packets: 1_000,
            peak_ppm: 100.0,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            slash16s: 10,
        }
    }

    fn world() -> (Infra, NsId, NsId) {
        let mut infra = Infra::new();
        let a = infra.add_nameserver(
            "ns0.transip.net".parse().unwrap(),
            "195.135.195.195".parse().unwrap(),
            Asn(20857),
            Deployment::Unicast,
            10_000.0,
            100.0,
            15.0,
        );
        let b = infra.add_nameserver(
            "ns1.other.net".parse().unwrap(),
            "203.0.113.53".parse().unwrap(),
            Asn(64500),
            Deployment::Unicast,
            10_000.0,
            100.0,
            15.0,
        );
        let set_ab = infra.intern_nsset(vec![a, b]);
        let set_a = infra.intern_nsset(vec![a]);
        for i in 0..100 {
            infra.add_domain(format!("ab{i}.nl").parse().unwrap(), set_ab);
        }
        for i in 0..40 {
            infra.add_domain(format!("a{i}.nl").parse().unwrap(), set_a);
        }
        (infra, a, b)
    }

    #[test]
    fn direct_hit_joins_all_nssets_and_domains() {
        let (infra, a, _) = world();
        let eps = vec![episode("195.135.195.195", 288 * 3)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.ns_direct, vec![a]);
        assert!(e.is_direct());
        assert_eq!(e.nssets.len(), 2, "ns A serves two NSSets");
        assert_eq!(e.domains_affected, 140);
    }

    #[test]
    fn non_dns_victim_produces_no_event() {
        let (infra, ..) = world();
        let eps = vec![episode("8.100.2.3", 288)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert!(events.is_empty());
    }

    #[test]
    fn open_resolver_victims_filtered() {
        let (mut infra, ..) = world();
        let g = infra.add_nameserver(
            "dns.google".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            Asn(15169),
            Deployment::Anycast { sites: 30 },
            10_000_000.0,
            100_000.0,
            5.0,
        );
        infra.mark_open_resolver(g);
        let set = infra.intern_nsset(vec![g]);
        infra.add_domain("misconfigured.com".parse().unwrap(), set);
        let mut resolvers = OpenResolverList::new();
        resolvers.extend_from_infra(&infra);
        let eps = vec![episode("8.8.8.8", 288)];
        let with_filter = join_episodes(&infra, &infra, &eps, &resolvers, false);
        assert!(with_filter.is_empty(), "8.8.8.8 attacks are not DNS-infra attacks");
        let without = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(without.len(), 1, "without the filter the join would count it");
    }

    #[test]
    fn collateral_join_via_slash24() {
        let (infra, a, _) = world();
        // Victim is the web server next to ns0 (same /24, different host).
        let eps = vec![episode("195.135.195.80", 288)];
        let none = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert!(none.is_empty(), "headline join is direct-only");
        let with = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), true);
        assert_eq!(with.len(), 1);
        assert_eq!(with[0].ns_collateral, vec![a]);
        assert!(!with[0].is_direct());
        assert_eq!(with[0].all_ns(), vec![a]);
    }

    #[test]
    fn month_bucketing_follows_start_window() {
        let (infra, ..) = world();
        // Window on 2020-12-01: day 30.
        let eps = vec![episode("195.135.195.195", 30 * 288 + 5)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(events[0].month, Month::new(2020, 12));
    }

    #[test]
    fn previous_day_join_survives_attack_day_withdrawal() {
        // §4.2's rationale: the operator withdraws the attacked address on
        // the attack day (day 5). A same-day join misses the event; the
        // paper's previous-day join still catches it.
        let (infra, a, _) = world();
        let addr: Ipv4Addr = "195.135.195.195".parse().unwrap();
        let dir = ChangingDirectory::new(&infra).change(5, addr, None);
        let eps = vec![episode("195.135.195.195", 5 * 288 + 10)];
        let same_day =
            join_episodes_traced(&infra, &dir, &eps, &OpenResolverList::new(), false, 0, None);
        assert!(same_day.is_empty(), "same-day list no longer names the victim");
        let prev_day = join_episodes(&infra, &dir, &eps, &OpenResolverList::new(), false);
        assert_eq!(prev_day.len(), 1);
        assert_eq!(prev_day[0].ns_direct, vec![a]);
    }

    #[test]
    fn changing_directory_day_semantics() {
        let (infra, a, b) = world();
        let addr: Ipv4Addr = "195.135.195.195".parse().unwrap();
        // Renumbered to ns B's identity on day 3, withdrawn on day 8.
        let dir = ChangingDirectory::new(&infra).change(3, addr, Some(b)).change(8, addr, None);
        assert_eq!(dir.ns_at(addr, 0), Some(a));
        assert_eq!(dir.ns_at(addr, 2), Some(a));
        assert_eq!(dir.ns_at(addr, 3), Some(b));
        assert_eq!(dir.ns_at(addr, 7), Some(b));
        assert_eq!(dir.ns_at(addr, 8), None);
        assert_eq!(dir.ns_at(addr, 100), None);
    }

    #[test]
    fn domains_not_double_counted_across_nssets() {
        let (infra, ..) = world();
        let eps = vec![episode("195.135.195.195", 288), episode("203.0.113.53", 288)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        // Each event counts its own reachable domains without dupes.
        assert_eq!(events[0].domains_affected, 140);
        assert_eq!(events[1].domains_affected, 100);
    }
}

#[cfg(test)]
mod impact_tests {
    use super::*;
    use crate::columnar::JoinTable;
    use crate::impact::compute_impacts_columnar;
    use attack::Protocol;
    use census::AnycastClass;
    use dnssim::Deployment;
    use netbase::Asn;
    use std::net::Ipv4Addr;
    use telescope::EpisodeColumns;

    fn world(domains: u32) -> (Infra, Vec<Ipv4Addr>) {
        let mut infra = Infra::new();
        let addrs: Vec<Ipv4Addr> = vec![
            "195.135.195.195".parse().unwrap(),
            "195.8.195.195".parse().unwrap(),
            "37.97.199.195".parse().unwrap(),
        ];
        let ids: Vec<_> = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                infra.add_nameserver(
                    format!("ns{i}.transip.net").parse().unwrap(),
                    a,
                    Asn(20857),
                    Deployment::Unicast,
                    50_000.0,
                    1_000.0,
                    15.0,
                )
            })
            .collect();
        let set = infra.intern_nsset(ids);
        for i in 0..domains {
            infra.add_domain(format!("klant{i}.nl").parse().unwrap(), set);
        }
        (infra, addrs)
    }

    fn census_of(infra: &Infra) -> AnycastCensus {
        AnycastCensus::from_ground_truth(
            infra,
            AnycastCensus::paper_snapshot_dates(),
            1.0,
            &RngFactory::new(1),
        )
    }

    fn episode(victim: Ipv4Addr, first: u64, last: u64) -> AttackEpisode {
        AttackEpisode {
            victim,
            first_window: Window(first),
            last_window: Window(last),
            packets: 100_000,
            peak_ppm: 20_000.0,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            slash16s: 100,
        }
    }

    #[test]
    fn heavy_attack_produces_high_impact_event() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(11);
        let schedule = SweepSchedule::new(1);
        // Attack all three nameservers for 2 hours on day 3: ρ ≈ 0.96.
        let first = 3 * 288 + 100;
        let last = first + 23;
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 47_000.0);
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        assert_eq!(events.len(), 3);
        let (impacts, _store) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &loads,
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert!(!impacts.is_empty());
        let e = &impacts[0];
        assert!(e.domains_measured >= 5);
        let impact = e.impact_on_rtt.expect("baseline exists on day 2");
        assert!(impact > 5.0, "expected ≈10x+ inflation, got {impact}");
        assert_eq!(e.anycast, AnycastClass::Unicast);
        assert_eq!(e.asn_count, 1);
        assert_eq!(e.prefix_count, 3);
        assert!((e.duration_min - 120.0).abs() < 1e-9);
    }

    #[test]
    fn small_nsset_filtered_by_min_domains() {
        let (infra, addrs) = world(20); // 20 domains → ≈0.07/window
        let rngs = RngFactory::new(2);
        let schedule = SweepSchedule::new(1);
        let eps = vec![episode(addrs[0], 3 * 288, 3 * 288 + 2)]; // 15 min
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert!(impacts.is_empty(), "fewer than 5 measured domains → no event");
    }

    #[test]
    fn unattacked_nsset_has_unit_impact() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(3);
        let schedule = SweepSchedule::new(1);
        // Episode exists but we put no load in the book (e.g. attack too
        // small to matter).
        let eps = vec![episode(addrs[0], 3 * 288, 3 * 288 + 11)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert_eq!(impacts.len(), 1);
        let impact = impacts[0].impact_on_rtt.unwrap();
        assert!((impact - 1.0).abs() < 0.5, "no attack → impact ≈ 1, got {impact}");
        assert!(impacts[0].failure_rate < 0.01);
        assert!(!impacts[0].complete_failure());
    }

    #[test]
    fn day_zero_attack_lacks_baseline() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(4);
        let schedule = SweepSchedule::new(1);
        let eps = vec![episode(addrs[0], 10, 40)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        assert_eq!(impacts.len(), 1);
        assert!(impacts[0].impact_on_rtt.is_none());
    }

    #[test]
    fn sweep_outage_falls_back_to_week_before_baseline() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(7);
        let schedule = SweepSchedule::new(1);
        // Attack on day 8 so a week-before baseline (day 1) exists.
        let first = 8 * 288 + 100;
        let last = first + 23;
        let eps = vec![episode(addrs[0], first, last)];
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let census = census_of(&infra);
        // Find an outage draw that loses exactly the day-before sweep
        // (day 7) while keeping the attack day and the week-before day.
        let outage = (0u64..)
            .map(|s| openintel::OutageModel::from_seed(s, 0.5))
            .find(|o| o.day_missed(7) && !o.day_missed(8) && !o.day_missed(1))
            .unwrap();
        let config = ImpactConfig { sweep_outage: Some(outage), ..ImpactConfig::default() };
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census,
            &rngs,
            &config,
        );
        assert_eq!(impacts.len(), 1);
        let e = &impacts[0];
        assert_eq!(e.baseline_source, BaselineSource::WeekBefore);
        let impact = e.impact_on_rtt.expect("week-before sweep provides a baseline");
        assert!((impact - 1.0).abs() < 0.5, "no load → impact ≈ 1, got {impact}");
        // The same attack without the outage uses the day before.
        let (clean, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &LoadBook::new(),
            &eps,
            &events,
            &census,
            &rngs,
            &ImpactConfig::default(),
        );
        assert_eq!(clean[0].baseline_source, BaselineSource::DayBefore);
    }

    #[test]
    fn columnar_impacts_equal_reference_for_any_jobs_and_chaos() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(11);
        let schedule = SweepSchedule::new(1);
        let first = 3 * 288 + 100;
        let last = first + 23;
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 47_000.0);
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let open = OpenResolverList::new();
        let events = join_episodes(&infra, &infra, &eps, &open, false);
        let census = census_of(&infra);
        let (want, want_store) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &loads,
            &eps,
            &events,
            &census,
            &rngs,
            &ImpactConfig::default(),
        );
        assert!(!want.is_empty());
        let cols = EpisodeColumns::from_episodes(&eps);
        let table = JoinTable::build(&infra, &infra, &cols, &open, false, 1, 1, None);
        for (chaos_seed, jobs) in [(None, 1), (None, 2), (None, 8), (Some(42), 1), (Some(7), 4)] {
            let config = ImpactConfig { chaos_seed, ..ImpactConfig::default() };
            let (got, store) = compute_impacts_columnar(
                &infra,
                &schedule,
                &Resolver::default(),
                &loads,
                &cols,
                &table,
                &census,
                &rngs,
                &config,
                jobs,
            );
            let ctx = format!("chaos={chaos_seed:?} jobs={jobs}");
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{ctx}: bit-identical impacts");
            let (s, p) = (
                want_store.range_stats(want[0].nsset, Window(first), Window(last)),
                store.range_stats(want[0].nsset, Window(first), Window(last)),
            );
            assert_eq!(s.domains_measured, p.domains_measured, "{ctx}");
            assert_eq!(s.avg_rtt().to_bits(), p.avg_rtt().to_bits(), "{ctx}: f64 merge order");
        }
    }

    #[test]
    fn saturating_attack_causes_failures() {
        let (infra, addrs) = world(6_000);
        let rngs = RngFactory::new(5);
        let schedule = SweepSchedule::new(1);
        let first = 3 * 288;
        let last = first + 35; // 3 hours
        let mut loads = LoadBook::new();
        for w in first..=last {
            for a in &addrs {
                loads.add(*a, Window(w), 5_000_000.0); // 100x capacity
            }
        }
        let eps: Vec<AttackEpisode> = addrs.iter().map(|&a| episode(a, first, last)).collect();
        let events = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
        let (impacts, _) = compute_impacts(
            &infra,
            &schedule,
            &Resolver::default(),
            &loads,
            &eps,
            &events,
            &census_of(&infra),
            &rngs,
            &ImpactConfig::default(),
        );
        let e = &impacts[0];
        assert!(e.failure_rate > 0.8, "failure rate {}", e.failure_rate);
        assert!(e.timeouts > e.servfails, "timeouts dominate (92/8 split)");
    }
}
