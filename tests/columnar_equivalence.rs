//! Differential lock between the sequential reference pipeline
//! (`dnsimpact_core::reference`) and the sharded columnar production path
//! (DESIGN §11).
//!
//! The columnar join/impact path is only allowed to differ in layout and
//! parallelism: for any feed, any NSSet table, any worker count, and any
//! chaos seed, `JoinTable::build(..).to_events()` must equal
//! `reference::join_episodes_traced(..)` byte-for-byte (f64s included —
//! `Debug` prints the shortest round-tripping form),
//! `compute_impacts_columnar` must equal `reference::compute_impacts`, and
//! the two paths must emit identical deterministic metrics deltas and
//! causal-trace event streams.
//! Proptest generates the worlds and feeds; fixed seeds make every case
//! reproducible.
//!
//! The metrics registry and trace ring are process-global, so every test
//! in this binary serializes on [`LOCK`] — counter deltas taken inside a
//! test would otherwise see a concurrent test's increments.

use std::net::Ipv4Addr;
use std::sync::{Mutex, MutexGuard, OnceLock};

use dnsimpact::prelude::*;
use dnsimpact_core::columnar::JoinTable;
use dnsimpact_core::impact::compute_impacts_columnar;
use dnsimpact_core::reference::{compute_impacts, join_episodes_traced};
use proptest::prelude::*;
use telescope::{AttackEpisode, EpisodeColumns};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A test that panicked while holding the lock has already failed;
    // later tests may still run on fresh state.
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A generated authoritative world: which /24 each nameserver sits in,
/// how NSSets draw from the nameserver pool, and how many domains each
/// set serves (0 domains is a valid, join-relevant edge).
#[derive(Clone, Debug)]
struct WorldSpec {
    ns: Vec<(bool, u8)>,
    nssets: Vec<Vec<usize>>,
    domains: Vec<u8>,
}

fn world_spec() -> impl Strategy<Value = WorldSpec> {
    (
        prop::collection::vec((any::<bool>(), 0u8..3), 1..5),
        prop::collection::vec(prop::collection::vec(0usize..8, 1..4), 1..5),
        prop::collection::vec(0u8..25, 1..5),
    )
        .prop_map(|(ns, nssets, domains)| WorldSpec { ns, nssets, domains })
}

/// One generated episode: victim kind (0 = nameserver address, 1 = same
/// /24 as the clustered nameservers, anything else = non-DNS noise), a
/// pick within the kind, the onset window, and the duration in windows.
type EpisodeSpec = (u8, u8, u64, u64);

fn episode_spec() -> impl Strategy<Value = EpisodeSpec> {
    // Windows span day 0 (exercising `day.saturating_sub(day_offset)`)
    // through day ~37, inside the measurement sweep's range.
    (0u8..4, any::<u8>(), 0u64..288 * 37, 0u64..6)
}

/// Deterministically build the world a [`WorldSpec`] describes.
fn build_world(spec: &WorldSpec) -> (Infra, Vec<Ipv4Addr>, Vec<NsSetId>) {
    let mut infra = Infra::new();
    let mut addrs: Vec<Ipv4Addr> = Vec::new();
    let mut ids: Vec<NsId> = Vec::new();
    for (i, &(clustered, asn)) in spec.ns.iter().enumerate() {
        // Clustered nameservers share 195.135.195.0/24 (the collateral
        // neighbourhood); the rest are spread across distinct /24s.
        let addr: Ipv4Addr = if clustered {
            format!("195.135.195.{}", 10 + i).parse().unwrap()
        } else {
            format!("203.0.{}.53", 100 + i).parse().unwrap()
        };
        ids.push(infra.add_nameserver(
            format!("ns{i}.example.net").parse().unwrap(),
            addr,
            Asn(64_500 + asn as u32),
            Deployment::Unicast,
            10_000.0,
            100.0,
            15.0,
        ));
        addrs.push(addr);
    }
    let mut sets = Vec::new();
    for (si, members) in spec.nssets.iter().enumerate() {
        let mut m: Vec<NsId> = members.iter().map(|&j| ids[j % ids.len()]).collect();
        m.sort_unstable();
        m.dedup();
        let set = infra.intern_nsset(m);
        sets.push(set);
        for d in 0..spec.domains.get(si).copied().unwrap_or(5) {
            infra.add_domain(format!("s{si}d{d}.nl").parse().unwrap(), set);
        }
    }
    (infra, addrs, sets)
}

/// Materialize the episode feed against a world's address plan.
fn build_feed(specs: &[EpisodeSpec], addrs: &[Ipv4Addr]) -> Vec<AttackEpisode> {
    specs
        .iter()
        .map(|&(kind, pick, w, dur)| {
            let victim: Ipv4Addr = match kind {
                0 | 3 => addrs[pick as usize % addrs.len()],
                1 => format!("195.135.195.{}", 200 + pick % 50).parse().unwrap(),
                _ => format!("8.{pick}.{}.1", pick ^ 0x5a).parse().unwrap(),
            };
            AttackEpisode {
                victim,
                first_window: Window(w),
                last_window: Window(w + dur),
                packets: 1_000 + pick as u64,
                peak_ppm: 100.0 + pick as f64,
                protocol: if pick % 2 == 0 { Protocol::Tcp } else { Protocol::Udp },
                first_port: 53,
                unique_ports: 1 + (pick % 3) as u16,
                slash16s: 10,
            }
        })
        .collect()
}

fn census_of(infra: &Infra) -> AnycastCensus {
    AnycastCensus::from_ground_truth(
        infra,
        AnycastCensus::paper_snapshot_dates(),
        1.0,
        &RngFactory::new(1),
    )
}

/// Offered load for the impact model: every episode loads its victim over
/// its own windows, hard enough to matter when the victim is a nameserver.
fn loads_for(eps: &[AttackEpisode]) -> LoadBook {
    let mut loads = LoadBook::new();
    for e in eps {
        for w in e.first_window.0..=e.last_window.0 {
            loads.add(e.victim, Window(w), 47_000.0);
        }
    }
    loads
}

// ---------------------------------------------------------------------
// Satellite 1a: the join is a pure layout change
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn columnar_join_equals_row_join(
        wspec in world_spec(),
        especs in prop::collection::vec(episode_spec(), 0..12),
        mark_open_resolver in any::<bool>(),
    ) {
        let _guard = lock();
        let (infra, addrs, _) = build_world(&wspec);
        let eps = build_feed(&especs, &addrs);
        let cols = EpisodeColumns::from_episodes(&eps);
        let mut open = OpenResolverList::new();
        if mark_open_resolver {
            open.add(addrs[0]);
        }
        for include_collateral in [false, true] {
            for day_offset in [0u64, 1] {
                let reference = join_episodes_traced(
                    &infra, &infra, &eps, &open, include_collateral, day_offset, None,
                );
                for jobs in [1usize, 2, 8] {
                    let table = JoinTable::build(
                        &infra, &infra, &cols, &open, include_collateral, day_offset, jobs, None,
                    );
                    let events = table.to_events();
                    prop_assert_eq!(
                        format!("{events:?}"),
                        format!("{reference:?}"),
                        "collateral={} day_offset={} jobs={}",
                        include_collateral, day_offset, jobs
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 1b: impacts and measurement stores agree, bit for bit
// ---------------------------------------------------------------------

/// Compare two measurement stores over every (NSSet, window) cell and
/// (NSSet, day) aggregate either run could have touched. The stores are
/// HashMap-backed, so equality is checked cell-wise through the stats
/// accessors (whose `Debug` includes the RTT moment sums — f64 bits).
fn assert_stores_match(
    a: &MeasurementStore,
    b: &MeasurementStore,
    sets: &[NsSetId],
    eps: &[AttackEpisode],
    ctx: &str,
) -> Result<(), TestCaseError> {
    let last = eps.iter().map(|e| e.last_window.0).max().unwrap_or(0);
    for &set in sets {
        for w in 0..=last {
            let (x, y) = (a.window_stats(set, Window(w)), b.window_stats(set, Window(w)));
            prop_assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "window cell ({:?}, {}) differs: {}",
                set,
                w,
                ctx
            );
        }
        for day in 0..=Window(last).day() {
            let (x, y) = (a.day_stats(set, day), b.day_stats(set, day));
            prop_assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "day aggregate ({:?}, {}) differs: {}",
                set,
                day,
                ctx
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn columnar_impacts_equal_row_impacts(
        wspec in world_spec(),
        especs in prop::collection::vec(episode_spec(), 0..8),
        seed in 0u64..1_000,
        chaos in prop_oneof![Just(None), (1u64..100).prop_map(Some)],
    ) {
        let _guard = lock();
        let (infra, addrs, sets) = build_world(&wspec);
        let eps = build_feed(&especs, &addrs);
        let cols = EpisodeColumns::from_episodes(&eps);
        let open = OpenResolverList::new();
        let loads = loads_for(&eps);
        let census = census_of(&infra);
        let schedule = SweepSchedule::new(1);
        let rngs = RngFactory::new(seed);
        let config = ImpactConfig {
            min_domains_measured: 1, // surface even tiny NSSets as events
            chaos_seed: chaos,
            ..ImpactConfig::default()
        };

        let events = join_episodes_traced(&infra, &infra, &eps, &open, true, 1, None);
        let table = JoinTable::build(&infra, &infra, &cols, &open, true, 1, 1, None);

        let (ref_impacts, ref_store) = compute_impacts(
            &infra, &schedule, &Resolver::default(), &loads, &eps, &events,
            &census, &rngs, &config,
        );
        for jobs in [1usize, 8] {
            let (impacts, store) = compute_impacts_columnar(
                &infra, &schedule, &Resolver::default(), &loads, &cols, &table,
                &census, &rngs, &config, jobs,
            );
            let ctx = format!("jobs={jobs} chaos={chaos:?}");
            prop_assert_eq!(
                format!("{impacts:?}"),
                format!("{ref_impacts:?}"),
                "impact rows differ: {}",
                &ctx
            );
            assert_stores_match(&store, &ref_store, &sets, &eps, &ctx)?;
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 1c: deterministic metrics deltas and trace streams agree
// ---------------------------------------------------------------------

/// Deterministic counter increments between two registry snapshots.
fn det_counter_delta(before: &obs::Snapshot, after: &obs::Snapshot) -> Vec<(String, u64)> {
    let (b, a) = (before.deterministic(), after.deterministic());
    a.counters
        .into_iter()
        .map(|(k, v)| {
            let d = v - b.counters.get(&k).copied().unwrap_or(0);
            (k, d)
        })
        .filter(|&(_, d)| d != 0)
        .collect()
}

/// Run one full join+impact pass (row or columnar) under a trace scope
/// and return (event debug, impact debug, deterministic counter deltas,
/// deterministic trace lines).
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    columnar: bool,
    infra: &Infra,
    eps: &[AttackEpisode],
    loads: &LoadBook,
    census: &AnycastCensus,
    schedule: &SweepSchedule,
    rngs: &RngFactory,
    config: &ImpactConfig,
) -> (String, String, Vec<(String, u64)>, Vec<String>) {
    const SCOPE: &str = "diff";
    let open = OpenResolverList::new();
    obs::trace::reset();
    let before = obs::registry().snapshot();
    let (events_dbg, impacts_dbg) = if columnar {
        let cols = EpisodeColumns::from_episodes(eps);
        let table = JoinTable::build(infra, infra, &cols, &open, true, 1, 8, Some(SCOPE));
        let (impacts, _) = compute_impacts_columnar(
            infra,
            schedule,
            &Resolver::default(),
            loads,
            &cols,
            &table,
            census,
            rngs,
            config,
            8,
        );
        (format!("{:?}", table.to_events()), format!("{impacts:?}"))
    } else {
        let events = join_episodes_traced(infra, infra, eps, &open, true, 1, Some(SCOPE));
        let (impacts, _) = compute_impacts(
            infra,
            schedule,
            &Resolver::default(),
            loads,
            eps,
            &events,
            census,
            rngs,
            config,
        );
        (format!("{events:?}"), format!("{impacts:?}"))
    };
    let after = obs::registry().snapshot();
    let lines: Vec<String> =
        obs::trace::snapshot().iter().map(|e| e.deterministic_line()).collect();
    (events_dbg, impacts_dbg, det_counter_delta(&before, &after), lines)
}

#[test]
fn metrics_and_trace_streams_match_reference() {
    let _guard = lock();
    // A fixed mid-size world: clustered + spread nameservers, overlapping
    // NSSets, and a feed mixing direct hits, /24 collateral, repeats, and
    // noise — every join/impact trace emission site fires.
    let spec = WorldSpec {
        ns: vec![(true, 0), (true, 1), (false, 2)],
        nssets: vec![vec![0, 1], vec![0], vec![1, 2]],
        domains: vec![20, 8, 12],
    };
    let (infra, addrs, _) = build_world(&spec);
    let mut especs: Vec<EpisodeSpec> = vec![
        (0, 0, 3 * 288 + 100, 5), // direct hit, day 3
        (0, 1, 4 * 288, 3),       // direct hit, day 4
        (1, 7, 5 * 288 + 10, 2),  // /24 collateral neighbour
        (2, 9, 288, 1),           // noise
        (0, 0, 9 * 288, 4),       // repeat victim, day 9
    ];
    // Enough extra episodes that the jobs=8 join actually shards.
    for i in 0..12u8 {
        especs.push((2, i, 288 * (6 + i as u64), 1));
    }
    let eps = build_feed(&especs, &addrs);
    let loads = loads_for(&eps);
    let census = census_of(&infra);
    let schedule = SweepSchedule::new(1);
    let rngs = RngFactory::new(42);
    let config = ImpactConfig {
        min_domains_measured: 1,
        trace_scope: Some("diff"),
        ..ImpactConfig::default()
    };

    let run =
        |columnar| traced_pass(columnar, &infra, &eps, &loads, &census, &schedule, &rngs, &config);
    let (ref_events, ref_impacts, ref_counters, ref_lines) = run(false);
    let (col_events, col_impacts, col_counters, col_lines) = run(true);

    assert!(!ref_impacts.is_empty() && ref_impacts != "[]", "scenario produced impact events");
    assert!(
        ref_lines.iter().any(|l| l.contains("JoinMatched") || l.contains("join")),
        "join emitted trace events: {ref_lines:?}"
    );
    assert_eq!(col_events, ref_events, "joined events differ");
    assert_eq!(col_impacts, ref_impacts, "impact rows differ");
    assert_eq!(
        col_counters, ref_counters,
        "deterministic counter deltas differ between row and columnar paths"
    );
    assert!(
        ref_counters.iter().any(|(k, v)| k == "join.rows_joined" && *v > 0),
        "the pass actually joined rows: {ref_counters:?}"
    );
    assert_eq!(col_lines, ref_lines, "deterministic trace streams differ");

    // The chaos knob may not alter any of it: same columnar pass, faults
    // injected and recovered, byte-identical outputs and deterministic
    // deltas (chaos accounting itself lives under `chaos.` and is ignored
    // here by comparing only the non-chaos names).
    let chaos_config = ImpactConfig { chaos_seed: Some(1337), ..config };
    let (ch_events, ch_impacts, ch_counters, ch_lines) =
        traced_pass(true, &infra, &eps, &loads, &census, &schedule, &rngs, &chaos_config);
    let strip_chaos = |v: &[(String, u64)]| -> Vec<(String, u64)> {
        v.iter().filter(|(k, _)| !k.starts_with("chaos.")).cloned().collect()
    };
    assert_eq!(ch_events, ref_events, "chaos changed the joined events");
    assert_eq!(ch_impacts, ref_impacts, "chaos changed the impact rows");
    assert_eq!(strip_chaos(&ch_counters), strip_chaos(&col_counters), "chaos perturbed counters");
    assert_eq!(ch_lines, ref_lines, "chaos changed the trace stream");
}
