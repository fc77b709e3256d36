//! The batch side: the paper's RSDoS × OpenINTEL join computed by
//! `core::longitudinal::run`, its inputs, its fingerprint, and a traced
//! replica that calls the same public layer functions in the same order.

use crate::trace::{SpanId, Tracer};
use dnsimpact_core::columnar::JoinTable;
use dnsimpact_core::impact::{compute_impacts_columnar, ImpactConfig, ImpactEvent};
use dnsimpact_core::join::DnsAttackEvent;
use dnsimpact_core::longitudinal::{self, LongitudinalConfig};
use dnsimpact_core::{correlate, failures, ports, resilience};
use dnssim::LoadBook;
use openintel::SweepSchedule;
use scenarios::{divisor_for_target, paper_longitudinal_config, world, BuiltWorld, PaperScale};
use simcore::rng::RngFactory;
use simcore::time::Month;
use std::collections::HashSet;
use std::fmt::Write as _;
use telescope::{
    AttackEpisode, BackscatterSampler, Darknet, EpisodeColumns, RsdosClassifier, RsdosFeed,
};

/// The trace scope `longitudinal::run` attributes its feed to.
const TRACE_SCOPE: &str = "rsdos";

/// An attack mix: the paper's Table-3 catalog scaled to `attacks`, with
/// every month's DNS share multiplied by `dns_share_factor`.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub attacks: u64,
    pub dns_share_factor: f64,
}

/// Everything the pipeline reads: world, catalog, months, telescope.
pub struct Inputs {
    pub world: BuiltWorld,
    pub attacks: Vec<attack::Attack>,
    pub months: Vec<Month>,
    pub darknet: Darknet,
    pub rngs: RngFactory,
}

/// Build the default world (120k domains).
pub fn build_world(rngs: &RngFactory) -> BuiltWorld {
    world::build(&scenarios::WorldConfig::default(), rngs)
}

/// Generate the attack catalog of `mix` against `world`.
pub fn build_schedule(
    world: &BuiltWorld,
    mix: Mix,
    rngs: &RngFactory,
) -> (Vec<attack::Attack>, Vec<Month>) {
    let mut cfg =
        paper_longitudinal_config(PaperScale { divisor: divisor_for_target(mix.attacks) });
    for share in &mut cfg.dns_share_per_month {
        *share *= mix.dns_share_factor;
    }
    let months = cfg.months.clone();
    (attack::AttackScheduler::new(cfg).generate(&world.target_pool(), rngs), months)
}

/// Fingerprint of the artifacts the traced replica also produces: the
/// episode feed, the joined DNS attack events and the impact rows. FNV-1a
/// over their `Debug` output, which prints the shortest round-trip form of
/// every f64, so equal fingerprints mean equal artifacts to the bit.
pub fn fingerprint(
    episodes: &[AttackEpisode],
    dns_events: &[DnsAttackEvent],
    impacts: &[ImpactEvent],
) -> u64 {
    let mut w = dnsimpactd::index::FnvWriter::new();
    let _ = write!(w, "{episodes:?}|{dns_events:?}|{impacts:?}");
    w.finish()
}

/// Counts taken from the values a run returns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub episodes: u64,
    pub dns_events: u64,
    pub impacts: u64,
    pub records_measured: u64,
}

pub struct RunOutcome {
    pub wall_s: f64,
    pub fingerprint: u64,
    pub counts: Counts,
}

/// One untraced `longitudinal::run`, timed; fingerprinting is outside the
/// timed region.
pub fn run_untraced(inputs: &Inputs, jobs: usize) -> RunOutcome {
    let config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    let t0 = std::time::Instant::now();
    let report = longitudinal::run(
        &inputs.world.infra,
        &inputs.darknet,
        &inputs.attacks,
        &inputs.months,
        &inputs.world.meta,
        &config,
        &inputs.rngs,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let report = std::hint::black_box(report);
    RunOutcome {
        wall_s,
        fingerprint: fingerprint(&report.feed.episodes, &report.dns_events, &report.impacts),
        counts: Counts {
            episodes: report.feed.episodes.len() as u64,
            dns_events: report.dns_events.len() as u64,
            impacts: report.impacts.len() as u64,
            records_measured: report.impacts.iter().map(|e| e.domains_measured).sum(),
        },
    }
}

/// What the traced replica reports beyond its spans.
pub struct TracedOutcome {
    pub root: SpanId,
    pub fingerprint: u64,
    pub counts: Counts,
    pub backscatter_obs: u64,
    pub classified_records: u64,
    pub joined_rows: u64,
    pub joined_episodes: u64,
}

/// The traced replica of `longitudinal::run`: the same public layer calls
/// in the same order, each wrapped in a span. The private table helpers
/// `run` ends with (Tables 3–6 rows) have no public entry point and are
/// left out; everything the fingerprint covers is produced here.
pub fn run_traced(inputs: &Inputs, jobs: usize, tracer: &mut Tracer) -> TracedOutcome {
    let config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    let (infra, meta, rngs) = (&inputs.world.infra, &inputs.world.meta, &inputs.rngs);
    let root = tracer.open("pipeline", None);
    let p = Some(root);

    let (loads, _) = tracer.span("attack.loads", p, || {
        let mut loads = LoadBook::new();
        for (addr, w, pps) in attack::accumulate_windows(&inputs.attacks) {
            loads.add(addr, w, pps);
        }
        loads
    });
    let (obs, _) = tracer.span("telescope.backscatter", p, || {
        BackscatterSampler::new(&inputs.darknet).sample(&inputs.attacks, rngs)
    });
    let classifier = RsdosClassifier::new(config.thresholds);
    let (block, _) = tracer.span("telescope.classify", p, || classifier.classify_into_block(&obs));
    let (feed, _) = tracer.span("telescope.episodes", p, || {
        let episodes = classifier.episodes_from_block(&block);
        let feed = RsdosFeed::new(block.iter().collect(), episodes);
        feed.trace_onsets(TRACE_SCOPE);
        feed
    });
    let ((columns, join_table, dns_events), _) = tracer.span("core.join", p, || {
        let columns = EpisodeColumns::from_episodes(&feed.episodes);
        let table = JoinTable::build(
            infra,
            infra,
            &columns,
            &meta.open_resolvers,
            config.include_collateral,
            1,
            config.jobs,
            Some(TRACE_SCOPE),
        );
        let events = table.to_events();
        let unfiltered = JoinTable::build(
            infra,
            infra,
            &columns,
            &census::OpenResolverList::new(),
            config.include_collateral,
            1,
            config.jobs,
            None,
        );
        std::hint::black_box(unfiltered.to_events());
        (columns, table, events)
    });
    let ((impacts, _store), _) = tracer.span("core.impact", p, || {
        let schedule = SweepSchedule::new(rngs.seed());
        let impact_config = ImpactConfig {
            trace_scope: config.impact.trace_scope.or(Some(TRACE_SCOPE)),
            ..config.impact
        };
        compute_impacts_columnar(
            infra,
            &schedule,
            &config.resolver,
            &loads,
            &columns,
            &join_table,
            &meta.census,
            rngs,
            &impact_config,
            config.jobs,
        )
    });
    tracer.span("core.summaries", p, || {
        let idxs: HashSet<usize> = dns_events.iter().map(|e| e.episode_idx).collect();
        std::hint::black_box((
            ports::breakdown_episodes(idxs.iter().map(|&i| &feed.episodes[i])),
            ports::breakdown_successful(&impacts),
            failures::summarize(&impacts),
            correlate::intensity_vs_impact(&impacts),
            correlate::duration_vs_impact(&impacts),
            resilience::by_anycast(&impacts),
            resilience::by_as_diversity(&impacts),
            resilience::by_prefix_diversity(&impacts),
        ));
    });
    tracer.close(root);

    let joined_episodes =
        dns_events.iter().map(|e| e.episode_idx).collect::<HashSet<_>>().len() as u64;
    TracedOutcome {
        root,
        fingerprint: fingerprint(&feed.episodes, &dns_events, &impacts),
        counts: Counts {
            episodes: feed.episodes.len() as u64,
            dns_events: dns_events.len() as u64,
            impacts: impacts.len() as u64,
            records_measured: impacts.iter().map(|e| e.domains_measured).sum(),
        },
        backscatter_obs: obs.len() as u64,
        classified_records: block.len() as u64,
        joined_rows: join_table.len() as u64,
        joined_episodes,
    }
}

/// Layers whose work ignores `jobs` (everything but the join and impact).
pub const SERIAL_LAYERS: [&str; 5] = [
    "attack.loads",
    "telescope.backscatter",
    "telescope.classify",
    "telescope.episodes",
    "core.summaries",
];
