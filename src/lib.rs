//! `dnsimpact` — a from-scratch reproduction of *"Investigating the impact
//! of DDoS attacks on DNS infrastructure"* (IMC 2022).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`simcore`] | virtual time, seeded RNG fan-out, distributions, stats |
//! | [`netbase`] | IPv4 prefixes, LPM trie, ASN/org registries, prefix2as |
//! | [`dnswire`] | DNS wire format (names, compression, records, messages) |
//! | [`pcap`] | pcap files + Ethernet/IPv4/UDP/TCP/ICMP frames |
//! | [`dnssim`] | authoritative-DNS world: NSSets, capacity model, resolver |
//! | [`attack`] | calibrated DDoS workload generation |
//! | [`telescope`] | darknet, backscatter, RSDoS inference, the feed |
//! | [`openintel`] | daily active measurement platform |
//! | [`census`] | anycast census + open-resolver lists |
//! | [`streamproc`] | topics, threaded stages, worker pools, chaos + supervision |
//! | [`core`] | **the paper's data-join pipeline and analyses** |
//! | [`reactive`] | RSDoS-triggered NS-exhaustive probing |
//! | [`scenarios`] | world generator + TransIP / mil.ru / RDZ case studies |
//!
//! Start with [`prelude`], the `examples/` directory, and the `repro`
//! binary (`cargo run --release -p dnsimpact-bench --bin repro`).

pub use attack;
pub use census;
pub use dnsimpact_core as core;
pub use dnssim;
pub use dnswire;
pub use netbase;
pub use openintel;
pub use pcap;
pub use reactive;
pub use scenarios;
pub use simcore;
pub use streamproc;
pub use telescope;

/// The items almost every experiment touches.
pub mod prelude {
    pub use attack::{
        accumulate_windows, Attack, AttackId, AttackScheduler, Protocol, ScheduleConfig,
        TargetPool, VectorKind, VectorSpec,
    };
    pub use census::{AnycastCensus, AnycastClass, OpenResolverList};
    pub use dnsimpact_core::impact::{ImpactConfig, ImpactEvent};
    pub use dnsimpact_core::join::ChangingDirectory;
    pub use dnsimpact_core::longitudinal::{
        run as run_longitudinal, LongitudinalConfig, MetaTables,
    };
    pub use dnsimpact_core::reference::join_episodes;
    pub use dnssim::{
        Deployment, DomainId, Infra, LoadBook, NsId, NsSetId, QueryOutcome, QueryStatus, Resolver,
        Uplink,
    };
    pub use dnswire::{Message, Name, RData, Rcode, Record, RrType};
    pub use netbase::{Asn, Ipv4Net, Prefix2As, Slash16, Slash24};
    pub use openintel::{MeasurementStore, SweepSchedule};
    pub use reactive::{
        probe_from_fleet, MultiVantageProbe, ProbePlan, ReactivePlatform, TriggerConfig,
        VantagePoint,
    };
    pub use simcore::rng::RngFactory;
    pub use simcore::time::{CivilDate, Month, SimDuration, SimTime, Window};
    pub use telescope::{
        BackscatterSampler, Darknet, RsdosClassifier, RsdosFeed, RsdosRecord, RsdosThresholds,
    };
}
