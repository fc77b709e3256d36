//! The simulation front: attack loads, the telescope's backscatter view,
//! RSDoS classification and episodes. The batch pipeline
//! ([`crate::longitudinal::run`]) and the daemon's feed source both start
//! here, so the two can never drift apart.
//!
//! Every output is byte-identical for any `jobs`: backscatter samples on
//! contiguous attack shards with per-attack RNG streams and merges in
//! attack order (see `telescope::BackscatterSampler::sample_sharded`),
//! while the load book fills beside the shards in attack order.

use attack::Attack;
use dnssim::LoadBook;
use simcore::rng::RngFactory;
use telescope::{
    AttackEpisode, BackscatterSampler, Darknet, RecordBlock, RsdosClassifier, RsdosThresholds,
};

/// What the front hands the join: the offered load the measurement side
/// reads, the qualifying feed records, and the episodes built from them.
pub struct Front {
    pub loads: LoadBook,
    /// Qualifying RSDoS records packed into one arena block.
    pub records: RecordBlock,
    /// Episodes decoded straight out of `records`.
    pub episodes: Vec<AttackEpisode>,
}

/// Run the front over `attacks` on up to `jobs` workers (`0` = available
/// parallelism, `1` = no threads at all).
pub fn simulate(
    attacks: &[Attack],
    darknet: &Darknet,
    thresholds: RsdosThresholds,
    rngs: &RngFactory,
    jobs: usize,
) -> Front {
    // The load book fills on the calling thread while the backscatter
    // shards sample: long-lived allocations stay off the worker threads
    // (see `BackscatterSampler::sample_sharded`).
    let sampler = BackscatterSampler::new(darknet);
    let shards = streamproc::effective_jobs(jobs);
    let (obs, loads) = sampler.sample_sharded(attacks, rngs, shards, || attack_loads(attacks));
    let classifier = RsdosClassifier::new(thresholds);
    let records = classifier.classify_into_block(&obs);
    drop(obs);
    let episodes = classifier.episodes_from_block(&records);
    Front { loads, records, episodes }
}

/// Offered load: every vector of every attack loads its victim. The same
/// cells and sums, added in the same order, as folding
/// `attack::accumulate_windows` into a book, without the intermediate
/// tuple `Vec`.
pub fn attack_loads(attacks: &[Attack]) -> LoadBook {
    let mut loads = LoadBook::new();
    for a in attacks {
        let pps = a.total_pps();
        for (w, frac) in a.window_overlaps() {
            loads.add(a.target, w, pps * frac);
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::{AttackScheduler, ScheduleConfig, TargetPool};
    use simcore::time::Month;
    use std::net::Ipv4Addr;

    fn attacks() -> Vec<Attack> {
        let months = Month::new(2020, 11).through(Month::new(2020, 12));
        let cfg = ScheduleConfig {
            months: months.clone(),
            attacks_per_month: vec![600; months.len()],
            dns_share_per_month: vec![0.2; months.len()],
            ..ScheduleConfig::default()
        };
        let targets: Vec<Ipv4Addr> = (0..40u32).map(|i| Ipv4Addr::from(0xC633_6400 + i)).collect();
        AttackScheduler::new(cfg)
            .generate(&TargetPool::uniform(targets, vec![]), &RngFactory::new(3))
    }

    #[test]
    fn loads_equal_accumulated_windows() {
        let attacks = attacks();
        let book = attack_loads(&attacks);
        let mut reference = LoadBook::new();
        for (addr, w, pps) in attack::accumulate_windows(&attacks) {
            reference.add(addr, w, pps);
        }
        assert_eq!(book.len(), reference.len());
        for (addr, w, _) in attack::accumulate_windows(&attacks) {
            let (a, b) = (book.attack_on_addr(addr, w), reference.attack_on_addr(addr, w));
            assert_eq!(a.to_bits(), b.to_bits());
            let prefix = netbase::Slash24::of(addr);
            let (a, b) =
                (book.attack_on_slash24(prefix, w), reference.attack_on_slash24(prefix, w));
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn front_is_jobs_invariant() {
        let attacks = attacks();
        let (darknet, rngs) = (Darknet::ucsd_like(), RngFactory::new(9));
        let base = simulate(&attacks, &darknet, RsdosThresholds::default(), &rngs, 1);
        assert!(!base.episodes.is_empty());
        for jobs in [2, 3, 8] {
            let f = simulate(&attacks, &darknet, RsdosThresholds::default(), &rngs, jobs);
            assert!(f.records == base.records, "records differ at jobs={jobs}");
            assert_eq!(format!("{:?}", f.episodes), format!("{:?}", base.episodes), "jobs={jobs}");
            assert_eq!(f.loads.len(), base.loads.len(), "jobs={jobs}");
        }
    }
}
