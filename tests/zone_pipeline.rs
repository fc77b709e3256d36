//! The downstream-adoption path end to end: build the world from an RFC
//! 1035 zone file (instead of the synthetic generator) and run the full
//! paper pipeline against it.

use dnsimpact::core::reference::compute_impacts;
use dnsimpact::prelude::*;
use dnssim::ZoneLoader;
use dnswire::zonefile::parse_zone;

fn zone_text() -> String {
    // One mid-size provider (two NS, two /24s) with many delegations, one
    // single-NS shop.
    let mut z = String::from(
        "$TTL 3600\n\
         ns0.provider.net. IN A 198.51.100.53\n\
         ns1.provider.net. IN A 203.0.113.53\n\
         ns.small.nl.      IN A 198.18.4.53\n\
         shop IN NS ns.small.nl.\n",
    );
    for i in 0..3_000 {
        z.push_str(&format!("klant{i} IN NS ns0.provider.net.\n"));
        z.push_str(&format!("klant{i} IN NS ns1.provider.net.\n"));
    }
    z
}

#[test]
fn zone_loaded_world_through_full_pipeline() {
    let rngs = RngFactory::new(2023);
    let origin: Name = "nl".parse().unwrap();
    let records = parse_zone(&zone_text(), &origin).expect("zone parses");

    let mut prefix2as = Prefix2As::new();
    prefix2as.announce("198.51.100.0/24".parse().unwrap(), Asn(64_501));
    prefix2as.announce("203.0.113.0/24".parse().unwrap(), Asn(64_501));
    prefix2as.announce("198.18.0.0/15".parse().unwrap(), Asn(64_502));

    let mut infra = Infra::new();
    let loader = ZoneLoader { capacity_pps: 60_000.0, ..ZoneLoader::default() };
    let domains = loader.load(&mut infra, &records, Some(&prefix2as)).expect("zone loads");
    assert_eq!(domains.len(), 3_001);
    assert_eq!(infra.nameservers().len(), 3);

    // Attack the provider's two nameservers for two hours on day 5
    // (ρ ≈ 0.95 each → strong RTT inflation, no blackout).
    let start = SimTime::from_days(5) + SimDuration::from_hours(10);
    let attacks: Vec<Attack> = ["198.51.100.53", "203.0.113.53"]
        .iter()
        .enumerate()
        .map(|(i, addr)| Attack {
            id: AttackId(i as u64),
            target: addr.parse().unwrap(),
            start,
            duration: SimDuration::from_hours(2),
            vectors: vec![VectorSpec {
                kind: VectorKind::RandomSpoofed,
                protocol: Protocol::Tcp,
                ports: vec![53],
                victim_pps: 55_000.0,
                source_count: 3_000_000,
            }],
        })
        .collect();

    // Telescope → feed → episodes.
    let darknet = Darknet::ucsd_like();
    let obs = BackscatterSampler::new(&darknet).sample(&attacks, &rngs);
    let classifier = RsdosClassifier::default();
    let feed_records = classifier.classify(&obs);
    let episodes = classifier.episodes(&feed_records);
    assert_eq!(episodes.len(), 2, "both nameservers inferred under attack");

    // Join → impacts.
    let mut loads = LoadBook::new();
    for (addr, w, pps) in accumulate_windows(&attacks) {
        loads.add(addr, w, pps);
    }
    let events = join_episodes(&infra, &infra, &episodes, &OpenResolverList::new(), false);
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].domains_affected, 3_000, "the provider's whole portfolio");

    let census =
        AnycastCensus::from_ground_truth(&infra, AnycastCensus::paper_snapshot_dates(), 1.0, &rngs);
    let (impacts, _store) = compute_impacts(
        &infra,
        &SweepSchedule::new(rngs.seed()),
        &Resolver::default(),
        &loads,
        &episodes,
        &events,
        &census,
        &rngs,
        &ImpactConfig::default(),
    );
    assert!(!impacts.is_empty(), "impact events materialize from zone data");
    let worst = impacts.iter().filter_map(|e| e.impact_on_rtt).fold(0.0f64, f64::max);
    assert!(worst > 5.0, "the attack is visible in Impact_on_RTT: {worst:.1}x");
    // The untouched small shop never enters the analysis.
    let shop_set = infra.domain(domains[0]).nsset;
    let provider_set = infra.domain(domains[1]).nsset;
    assert_ne!(shop_set, provider_set);
    assert!(impacts.iter().all(|e| e.nsset == provider_set));
}
