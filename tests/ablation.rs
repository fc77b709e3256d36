//! Semantic ablations of the methodology's design choices (§4.1–§4.2):
//! what changes when the knobs move.

use dnsimpact::core::reference::compute_impacts;
use dnsimpact::prelude::*;
use scenarios::{paper_longitudinal_config, world, PaperScale, WorldConfig};

struct Fixture {
    built: world::BuiltWorld,
    feed: RsdosFeed,
    loads: LoadBook,
    rngs: RngFactory,
}

fn fixture(seed: u64) -> Fixture {
    let rngs = RngFactory::new(seed);
    let built = world::build(
        &WorldConfig { providers: 30, domains: 12_000, ..WorldConfig::default() },
        &rngs,
    );
    let mut cfg = paper_longitudinal_config(PaperScale { divisor: 400 });
    // Three months are enough for the ablation comparisons.
    cfg.months.truncate(3);
    cfg.attacks_per_month.truncate(3);
    cfg.dns_share_per_month.truncate(3);
    let attacks = AttackScheduler::new(cfg).generate(&built.target_pool(), &rngs);
    let mut loads = LoadBook::new();
    for (addr, w, pps) in accumulate_windows(&attacks) {
        loads.add(addr, w, pps);
    }
    let darknet = Darknet::ucsd_like();
    let obs = BackscatterSampler::new(&darknet).sample(&attacks, &rngs);
    let classifier = RsdosClassifier::default();
    let records = classifier.classify(&obs);
    let episodes = classifier.episodes(&records);
    Fixture { built, feed: RsdosFeed::new(records, episodes), loads, rngs }
}

fn impacts_with(fx: &Fixture, config: &ImpactConfig) -> Vec<dnsimpact::core::impact::ImpactEvent> {
    let events = join_episodes(
        &fx.built.infra,
        &fx.built.infra,
        &fx.feed.episodes,
        &fx.built.meta.open_resolvers,
        false,
    );
    let schedule = SweepSchedule::new(fx.rngs.seed());
    let (impacts, _) = compute_impacts(
        &fx.built.infra,
        &schedule,
        &Resolver::default(),
        &fx.loads,
        &fx.feed.episodes,
        &events,
        &fx.built.meta.census,
        &fx.rngs,
        config,
    );
    impacts
}

/// §6.3: the ≥5-domain filter removes noisy low-coverage events but keeps
/// every well-measured one.
#[test]
fn min_domain_filter_removes_only_thin_events() {
    let fx = fixture(21);
    let strict = impacts_with(&fx, &ImpactConfig::default());
    let loose =
        impacts_with(&fx, &ImpactConfig { min_domains_measured: 1, ..ImpactConfig::default() });
    assert!(
        loose.len() >= strict.len(),
        "loosening the filter can only add events: {} vs {}",
        loose.len(),
        strict.len()
    );
    // Every strict event appears in the loose set (same episode, same
    // NSSet).
    let loose_keys: std::collections::HashSet<(usize, NsSetId)> =
        loose.iter().map(|e| (e.episode_idx, e.nsset)).collect();
    for e in &strict {
        assert!(loose_keys.contains(&(e.episode_idx, e.nsset)));
    }
    // Everything the filter removed really was thin.
    let strict_keys: std::collections::HashSet<(usize, NsSetId)> =
        strict.iter().map(|e| (e.episode_idx, e.nsset)).collect();
    for e in &loose {
        if !strict_keys.contains(&(e.episode_idx, e.nsset)) {
            assert!(e.domains_measured < 5, "removed event was not thin: {e:?}");
        }
    }
}

/// §4.1: the baseline sampling cap barely moves the impact estimates —
/// the denominator is an average over an unattacked day, so a modest
/// sample suffices.
#[test]
fn baseline_sample_cap_is_stable() {
    let fx = fixture(22);
    let small =
        impacts_with(&fx, &ImpactConfig { baseline_sample_cap: 50, ..ImpactConfig::default() });
    let large =
        impacts_with(&fx, &ImpactConfig { baseline_sample_cap: 500, ..ImpactConfig::default() });
    assert_eq!(small.len(), large.len());
    let mut compared = 0;
    for (a, b) in small.iter().zip(&large) {
        if let (Some(x), Some(y)) = (a.impact_on_rtt, b.impact_on_rtt) {
            // Identical attacks; only the baseline sample differs. The
            // ratio of the two impact estimates stays near 1.
            let ratio = x / y;
            assert!(
                (0.5..2.0).contains(&ratio),
                "baseline sampling changed an impact estimate {x:.2} → {y:.2}"
            );
            compared += 1;
        }
    }
    assert!(compared > 0, "nothing compared");
}

/// §4.2: including /24-collateral joins can only widen the set of
/// attack→DNS events — and every extra event is a collateral (not direct)
/// hit.
#[test]
fn collateral_join_widens_monotonically() {
    let fx = fixture(23);
    let direct = join_episodes(
        &fx.built.infra,
        &fx.built.infra,
        &fx.feed.episodes,
        &fx.built.meta.open_resolvers,
        false,
    );
    let with_collateral = join_episodes(
        &fx.built.infra,
        &fx.built.infra,
        &fx.feed.episodes,
        &fx.built.meta.open_resolvers,
        true,
    );
    assert!(with_collateral.len() >= direct.len());
    let direct_eps: std::collections::HashSet<usize> =
        direct.iter().map(|e| e.episode_idx).collect();
    for e in &with_collateral {
        if !direct_eps.contains(&e.episode_idx) {
            assert!(!e.is_direct(), "extra events must be collateral hits");
            assert!(!e.ns_collateral.is_empty());
        }
    }
}

/// The RSDoS thresholds trade sensitivity for noise: lowering them admits
/// more (smaller) episodes, never fewer.
#[test]
fn classifier_thresholds_are_monotone() {
    let fx = fixture(24);
    let default_classifier = RsdosClassifier::default();
    let sensitive = RsdosClassifier::new(RsdosThresholds {
        min_packets: 5,
        min_slash16s: 1,
        max_gap_windows: 1,
    });
    // Re-derive observations deterministically.
    let darknet = Darknet::ucsd_like();
    let built = &fx.built;
    let cfg = {
        let mut c = paper_longitudinal_config(PaperScale { divisor: 400 });
        c.months.truncate(3);
        c.attacks_per_month.truncate(3);
        c.dns_share_per_month.truncate(3);
        c
    };
    let attacks = AttackScheduler::new(cfg).generate(&built.target_pool(), &fx.rngs);
    let obs = BackscatterSampler::new(&darknet).sample(&attacks, &fx.rngs);
    let strict_records = default_classifier.classify(&obs);
    let loose_records = sensitive.classify(&obs);
    assert!(loose_records.len() >= strict_records.len());
    let strict_eps = default_classifier.episodes(&strict_records);
    let loose_eps = sensitive.episodes(&loose_records);
    assert!(loose_eps.len() >= strict_eps.len());
}
