//! Shard-boundary behaviour of the production RSDoS×NSSet join
//! ([`JoinTable::build`]): for every worker count the sharded columnar
//! join must reproduce the sequential reference join exactly — including
//! episodes of one NSSet split across shards, attacks starting exactly on
//! a day boundary window, and shards that come up empty because there are
//! more workers than episodes.

use attack::Protocol;
use census::OpenResolverList;
use dnsimpact_core::columnar::JoinTable;
use dnsimpact_core::join::{ChangingDirectory, DnsAttackEvent, NsDirectory};
use dnsimpact_core::reference::join_episodes;
use dnssim::{Deployment, Infra, NsId};
use netbase::Asn;
use simcore::time::Window;
use std::net::Ipv4Addr;
use telescope::{AttackEpisode, EpisodeColumns};

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

/// Two nameservers sharing one NSSet, plus a solo NSSet, and 100+40
/// domains behind them.
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

/// The production join of `eps` on `jobs` workers, in row form.
fn sharded(
    infra: &Infra,
    directory: &(dyn NsDirectory + Sync),
    eps: &[AttackEpisode],
    jobs: usize,
) -> Vec<DnsAttackEvent> {
    let cols = EpisodeColumns::from_episodes(eps);
    JoinTable::build(infra, directory, &cols, &OpenResolverList::new(), false, 1, jobs, None)
        .to_events()
}

fn assert_same(seq: &[DnsAttackEvent], par: &[DnsAttackEvent], what: &str) {
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "{what}: sharded output must equal the sequential reference"
    );
}

#[test]
fn sharded_join_equals_sequential_for_any_worker_count() {
    let (infra, ..) = world();
    // A mixed feed: DNS victims, non-DNS victims, repeats — long enough
    // that every tested worker count produces multiple shards.
    let mut eps = Vec::new();
    for i in 0..97u64 {
        let victim = match i % 4 {
            0 => "195.135.195.195",
            1 => "203.0.113.53",
            2 => "8.100.2.3", // not DNS infrastructure
            _ => "195.135.195.195",
        };
        eps.push(episode(victim, 288 + i * 7));
    }
    let seq = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
    assert!(!seq.is_empty());
    for jobs in [1, 2, 3, 5, 8, 64] {
        assert_same(&seq, &sharded(&infra, &infra, &eps, jobs), &format!("jobs={jobs}"));
    }
}

#[test]
fn nsset_straddling_two_shards_yields_both_events() {
    let (infra, a, b) = world();
    // Episodes 0 and 3 hit the two members of the shared NSSet; with
    // jobs=2 (shard length 2) they land in different shards.
    let eps = vec![
        episode("195.135.195.195", 288),
        episode("8.100.2.3", 300),
        episode("9.100.2.3", 310),
        episode("203.0.113.53", 320),
    ];
    let par = sharded(&infra, &infra, &eps, 2);
    assert_eq!(par.len(), 2);
    assert_eq!(par[0].episode_idx, 0, "global indices survive sharding");
    assert_eq!(par[0].ns_direct, vec![a]);
    assert_eq!(par[1].episode_idx, 3);
    assert_eq!(par[1].ns_direct, vec![b]);
    // Both events name the shared NSSet even though each shard only saw
    // one of its members.
    let shared: Vec<_> = par[0].nssets.iter().filter(|s| par[1].nssets.contains(s)).collect();
    assert!(!shared.is_empty(), "the straddling NSSet appears in both events");
    let seq = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
    assert_same(&seq, &par, "straddling NSSet");
}

#[test]
fn day_boundary_window_joins_identically_across_shards() {
    // An attack whose first window sits exactly on the day-1 boundary
    // (window 288 = day 1, 00:00) joins against day 0's list under the
    // paper's previous-day rule. The victim is withdrawn from the
    // directory on day 1, so the join only succeeds through that rule —
    // and must do so identically whether or not the episode sits on a
    // shard boundary.
    let (infra, a, _) = world();
    let addr: Ipv4Addr = "195.135.195.195".parse().unwrap();
    let dir = ChangingDirectory::new(&infra).change(1, addr, None);
    let eps = vec![
        episode("8.100.2.3", 280),
        episode("195.135.195.195", 288), // exactly on the boundary
        episode("9.100.2.3", 290),
        episode("195.135.195.195", 287), // last window of day 0
    ];
    let seq = join_episodes(&infra, &dir, &eps, &OpenResolverList::new(), false);
    assert_eq!(seq.len(), 2);
    assert_eq!(seq[0].episode_idx, 1, "day-boundary attack joined via day 0's list");
    assert_eq!(seq[0].ns_direct, vec![a]);
    assert_eq!(seq[1].episode_idx, 3, "same-day (day 0) attack also joined");
    for jobs in [1, 2, 3, 4] {
        let par = sharded(&infra, &dir, &eps, jobs);
        assert_same(&seq, &par, &format!("day boundary, jobs={jobs}"));
    }
}

#[test]
fn more_workers_than_episodes_handles_empty_shards() {
    let (infra, ..) = world();
    let eps = vec![episode("195.135.195.195", 288), episode("203.0.113.53", 300)];
    let seq = join_episodes(&infra, &infra, &eps, &OpenResolverList::new(), false);
    assert_same(&seq, &sharded(&infra, &infra, &eps, 64), "jobs=64 over 2 episodes");
    // Degenerate inputs: one episode and none at all.
    let one = sharded(&infra, &infra, &eps[..1], 8);
    assert_eq!(one.len(), 1);
    assert_same(
        &join_episodes(&infra, &infra, &eps[..1], &OpenResolverList::new(), false),
        &one,
        "one episode",
    );
    let empty = sharded(&infra, &infra, &[], 8);
    assert!(empty.is_empty());
}
