//! The infrastructure registry: domains, NSSets, nameservers, /24 uplinks,
//! and the per-window attack-load book.

use crate::deploy::{Deployment, Nameserver, Uplink};
use crate::ids::{DomainId, NsId, NsSet, NsSetId};
use crate::load::{LoadModel, ServiceState};
use dnswire::Name;
use netbase::{Asn, Slash24};
use simcore::rng::splitmix64;
use simcore::time::Window;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;

/// A registered domain: its name and the NSSet it delegates to.
///
/// `nsset` is the *child* (authoritative-zone) NS set — what an explicit
/// NS query answered by the authoritative servers returns, and what
/// OpenINTEL records (it "prefers the authoritative answer", §3.2).
/// `parent_nsset`, when present, is an *inconsistent parent-side
/// delegation* (the TLD zone lists different servers): resolution must
/// reach the parent-listed servers first, so their health — not the child
/// set's — gates reachability.
#[derive(Clone, Debug)]
pub struct DomainRec {
    pub name: Name,
    pub nsset: NsSetId,
    /// Parent-zone delegation when it disagrees with the child (lame or
    /// stale delegations à la Sommese et al. "When Parents and Children
    /// Disagree"). `None` = consistent.
    pub parent_nsset: Option<NsSetId>,
}

impl DomainRec {
    /// The NS set a resolver actually has to query through: the parent
    /// delegation when inconsistent, else the (identical) child set.
    pub fn query_nsset(&self) -> NsSetId {
        self.parent_nsset.unwrap_or(self.nsset)
    }

    pub fn is_inconsistent(&self) -> bool {
        self.parent_nsset.is_some_and(|p| p != self.nsset)
    }
}

/// Default uplink capacity (pps) given to a /24 that was not configured
/// explicitly: generous enough that only volumetric attacks congest it.
pub const DEFAULT_UPLINK_PPS: f64 = 2_000_000.0;

/// The simulated authoritative-DNS world.
#[derive(Clone, Debug, Default)]
pub struct Infra {
    nameservers: Vec<Nameserver>,
    by_addr: HashMap<Ipv4Addr, NsId>,
    nssets: Vec<NsSet>,
    nsset_ids: HashMap<NsSet, NsSetId>,
    /// For each nameserver, the NSSets it belongs to.
    sets_of_ns: Vec<Vec<NsSetId>>,
    domains: Vec<DomainRec>,
    domains_of_set: Vec<Vec<DomainId>>,
    uplinks: HashMap<Slash24, Uplink>,
    pub load_model: LoadModel,
}

impl Infra {
    pub fn new() -> Infra {
        Infra::default()
    }

    /// Register a nameserver. The service address must be unique.
    #[allow(clippy::too_many_arguments)]
    pub fn add_nameserver(
        &mut self,
        name: Name,
        addr: Ipv4Addr,
        asn: Asn,
        deployment: Deployment,
        capacity_pps: f64,
        legit_pps: f64,
        base_rtt_ms: f64,
    ) -> NsId {
        assert!(!self.by_addr.contains_key(&addr), "nameserver address {addr} already registered");
        let id = NsId(self.nameservers.len() as u32);
        self.nameservers.push(Nameserver {
            id,
            name,
            addr,
            asn,
            deployment,
            capacity_pps,
            legit_pps,
            base_rtt_ms,
            open_resolver: false,
            dual_stack_shared: None,
        });
        self.sets_of_ns.push(Vec::new());
        self.by_addr.insert(addr, id);
        id
    }

    /// Mark an address as an open resolver (misconfigured domains point NS
    /// records at these; the paper filters them out of the analysis, §6.1).
    pub fn mark_open_resolver(&mut self, ns: NsId) {
        self.nameservers[ns.0 as usize].open_resolver = true;
    }

    /// Declare the nameserver dual-stack: `shared = true` when IPv4 and
    /// IPv6 terminate on the same servers/links, `false` when IPv6 runs on
    /// separate infrastructure.
    pub fn set_dual_stack(&mut self, ns: NsId, shared: bool) {
        self.nameservers[ns.0 as usize].dual_stack_shared = Some(shared);
    }

    /// Intern an NSSet, returning a stable id for the canonical member set.
    pub fn intern_nsset(&mut self, members: Vec<NsId>) -> NsSetId {
        let set = NsSet::new(members);
        if let Some(&id) = self.nsset_ids.get(&set) {
            return id;
        }
        let id = NsSetId(self.nssets.len() as u32);
        for &ns in set.members() {
            self.sets_of_ns[ns.0 as usize].push(id);
        }
        self.nsset_ids.insert(set.clone(), id);
        self.nssets.push(set);
        self.domains_of_set.push(Vec::new());
        id
    }

    /// Register a domain with a consistent delegation to `nsset`.
    pub fn add_domain(&mut self, name: Name, nsset: NsSetId) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(DomainRec { name, nsset, parent_nsset: None });
        self.domains_of_set[nsset.0 as usize].push(id);
        id
    }

    /// Register a domain whose parent-zone delegation disagrees with the
    /// authoritative (child) NS set. Measurement attribution follows the
    /// child set (the authoritative answer OpenINTEL prefers);
    /// reachability follows the parent.
    pub fn add_domain_inconsistent(
        &mut self,
        name: Name,
        child: NsSetId,
        parent: NsSetId,
    ) -> DomainId {
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(DomainRec { name, nsset: child, parent_nsset: Some(parent) });
        self.domains_of_set[child.0 as usize].push(id);
        id
    }

    /// Configure the shared uplink of a /24 explicitly.
    pub fn set_uplink(&mut self, uplink: Uplink) {
        self.uplinks.insert(uplink.prefix, uplink);
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    pub fn nameserver(&self, id: NsId) -> &Nameserver {
        &self.nameservers[id.0 as usize]
    }
    pub fn nameservers(&self) -> &[Nameserver] {
        &self.nameservers
    }
    pub fn ns_by_addr(&self, addr: Ipv4Addr) -> Option<NsId> {
        self.by_addr.get(&addr).copied()
    }
    pub fn nsset(&self, id: NsSetId) -> &NsSet {
        &self.nssets[id.0 as usize]
    }
    pub fn nsset_count(&self) -> usize {
        self.nssets.len()
    }
    pub fn nssets_of_ns(&self, ns: NsId) -> &[NsSetId] {
        &self.sets_of_ns[ns.0 as usize]
    }
    pub fn domain(&self, id: DomainId) -> &DomainRec {
        &self.domains[id.0 as usize]
    }
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }
    pub fn domains_of_nsset(&self, id: NsSetId) -> &[DomainId] {
        &self.domains_of_set[id.0 as usize]
    }
    pub fn uplink_capacity(&self, prefix: Slash24) -> f64 {
        self.uplinks.get(&prefix).map(|u| u.capacity_pps).unwrap_or(DEFAULT_UPLINK_PPS)
    }

    /// All nameservers in a /24 (the subnet-level join the longitudinal
    /// analysis performs).
    pub fn nameservers_in_slash24(&self, prefix: Slash24) -> Vec<NsId> {
        self.nameservers.iter().filter(|n| n.slash24() == prefix).map(|n| n.id).collect()
    }

    // ------------------------------------------------------------------
    // NSSet deployment metadata (the resilience dimensions of §6.6)
    // ------------------------------------------------------------------

    /// Distinct origin ASes of the set's nameservers.
    pub fn nsset_asns(&self, id: NsSetId) -> Vec<Asn> {
        let mut v: Vec<Asn> =
            self.nsset(id).members().iter().map(|&n| self.nameserver(n).asn).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct /24 prefixes of the set's nameservers.
    pub fn nsset_slash24s(&self, id: NsSetId) -> Vec<Slash24> {
        let mut v: Vec<Slash24> =
            self.nsset(id).members().iter().map(|&n| self.nameserver(n).slash24()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Anycast adoption inside the set: `(anycast_members, total_members)`.
    pub fn nsset_anycast(&self, id: NsSetId) -> (usize, usize) {
        let set = self.nsset(id);
        let any =
            set.members().iter().filter(|&&n| self.nameserver(n).deployment.is_anycast()).count();
        (any, set.len())
    }

    // ------------------------------------------------------------------
    // Service quality under load
    // ------------------------------------------------------------------

    /// Service state of `ns` in `window` given the attack-load book, as
    /// seen from the default vantage point (uniform anycast catchment).
    pub fn service_state(&self, ns: NsId, window: Window, loads: &LoadBook) -> ServiceState {
        let n = self.nameserver(ns);
        self.service_state_with_dilution(ns, window, loads, n.deployment.attack_dilution())
    }

    /// Service state with an explicit attack-dilution factor — the share
    /// of the attack absorbed by the anycast site that answers *this*
    /// vantage point. Multi-vantage measurement (the paper's §9 future
    /// work) probes the same deployment with different catchment shares.
    pub fn service_state_with_dilution(
        &self,
        ns: NsId,
        window: Window,
        loads: &LoadBook,
        dilution: f64,
    ) -> ServiceState {
        let n = self.nameserver(ns);
        let direct_attack = loads.attack_on_addr(n.addr, window);
        let offered = n.legit_pps + direct_attack * dilution;
        let prefix = n.slash24();
        let uplink_attack = loads.attack_on_slash24(prefix, window);
        // The uplink carries the prefix's aggregate legitimate traffic too;
        // approximate it with this server's share since co-hosted services
        // are not modeled individually.
        let uplink_offered = n.legit_pps + uplink_attack * dilution;
        self.load_model.evaluate(
            n.capacity_pps,
            offered,
            self.uplink_capacity(prefix),
            uplink_offered,
        )
    }

    /// Service quality of the nameserver's IPv6 path during an IPv4
    /// attack (limitation 2 of §4.3). The RSDoS feed is IPv4-only, so the
    /// attack load book describes IPv4 traffic: a *shared* dual-stack
    /// deployment degrades identically; *separate* IPv6 infrastructure
    /// stays healthy; an IPv4-only server has no IPv6 path (`None`).
    pub fn service_state_v6(
        &self,
        ns: NsId,
        window: Window,
        loads: &LoadBook,
    ) -> Option<ServiceState> {
        let n = self.nameserver(ns);
        match n.dual_stack_shared {
            None => None,
            Some(true) => Some(self.service_state(ns, window, loads)),
            Some(false) => Some(self.load_model.evaluate_server_only(n.capacity_pps, n.legit_pps)),
        }
    }
}

/// Attack traffic offered per window, by exact address and aggregated per
/// /24 (for uplink collateral). Filled in by the attack scheduler; read by
/// both simulation fidelities.
///
/// Keys are packed `(id << 32) | window` u64s: a full-feed 17-month run
/// carries tens of millions of cells, and the packed keys keep it inside
/// laptop memory. (The 17-month interval spans ≈150 K windows, far below
/// the 2³² packing limit.) The maps hash those keys with a SplitMix64
/// finalizer (`PackedKeyHasher`) instead of SipHash; nothing iterates
/// them, so the hasher only changes where a cell lives, never what a
/// lookup returns.
#[derive(Clone, Debug, Default)]
pub struct LoadBook {
    by_addr: PackedMap,
    by_slash24: PackedMap,
}

type PackedMap = HashMap<u64, f64, BuildHasherDefault<PackedKeyHasher>>;

/// Hasher for the book's packed `u64` keys. Keys are attacker-independent
/// simulation state, so a fixed, fast finalizer is enough.
#[derive(Default)]
struct PackedKeyHasher(u64);

impl Hasher for PackedKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// SplitMix64 of the id, plus the window: an address's (or /24's)
    /// consecutive windows land in neighbouring buckets, so an attack's
    /// run of windows shares cache lines on fill and on lookup.
    fn write_u64(&mut self, key: u64) {
        let mut id = key >> 32;
        self.0 = splitmix64(&mut id).wrapping_add(key & 0xFFFF_FFFF);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[inline]
fn pack(id: u32, window: Window) -> u64 {
    debug_assert!(window.0 < u32::MAX as u64, "window beyond packing range");
    ((id as u64) << 32) | (window.0 & 0xFFFF_FFFF)
}

/// Attack load on one address in one window, in packets per second.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttackLoad {
    pub addr: Ipv4Addr,
    pub window: Window,
    pub pps: f64,
}

impl LoadBook {
    pub fn new() -> LoadBook {
        LoadBook::default()
    }

    /// Add `pps` of attack traffic toward `addr` during `window`.
    pub fn add(&mut self, addr: Ipv4Addr, window: Window, pps: f64) {
        assert!(pps >= 0.0);
        *self.by_addr.entry(pack(u32::from(addr), window)).or_insert(0.0) += pps;
        *self.by_slash24.entry(pack(Slash24::of(addr).0, window)).or_insert(0.0) += pps;
    }

    pub fn attack_on_addr(&self, addr: Ipv4Addr, window: Window) -> f64 {
        self.by_addr.get(&pack(u32::from(addr), window)).copied().unwrap_or(0.0)
    }

    pub fn attack_on_slash24(&self, prefix: Slash24, window: Window) -> f64 {
        self.by_slash24.get(&pack(prefix.0, window)).copied().unwrap_or(0.0)
    }

    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }

    /// Number of (addr, window) cells carrying load.
    pub fn len(&self) -> usize {
        self.by_addr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }
    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn build_world() -> (Infra, NsId, NsId, NsSetId) {
        let mut infra = Infra::new();
        let a = infra.add_nameserver(
            name("ns0.transip.net"),
            ip("195.135.195.195"),
            Asn(20857),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            15.0,
        );
        let b = infra.add_nameserver(
            name("ns1.transip.nl"),
            ip("195.8.195.195"),
            Asn(20857),
            Deployment::Unicast,
            50_000.0,
            1_000.0,
            15.0,
        );
        let set = infra.intern_nsset(vec![a, b]);
        for i in 0..10 {
            infra.add_domain(name(&format!("klant{i}.nl")), set);
        }
        (infra, a, b, set)
    }

    #[test]
    fn interning_dedupes_nssets() {
        let (mut infra, a, b, set) = build_world();
        assert_eq!(infra.intern_nsset(vec![b, a]), set);
        assert_eq!(infra.intern_nsset(vec![a, b, b]), set);
        assert_eq!(infra.nsset_count(), 1);
        let solo = infra.intern_nsset(vec![a]);
        assert_ne!(solo, set);
        assert_eq!(infra.nsset_count(), 2);
    }

    #[test]
    fn reverse_indexes() {
        let (infra, a, b, set) = build_world();
        assert_eq!(infra.nssets_of_ns(a), &[set]);
        assert_eq!(infra.nssets_of_ns(b), &[set]);
        assert_eq!(infra.domains_of_nsset(set).len(), 10);
        assert_eq!(infra.ns_by_addr(ip("195.135.195.195")), Some(a));
        assert_eq!(infra.ns_by_addr(ip("1.1.1.1")), None);
        assert_eq!(infra.domain(DomainId(0)).nsset, set);
    }

    #[test]
    #[should_panic]
    fn duplicate_address_panics() {
        let mut infra = Infra::new();
        infra.add_nameserver(
            name("a.x"),
            ip("1.2.3.4"),
            Asn(1),
            Deployment::Unicast,
            1.0,
            0.0,
            1.0,
        );
        infra.add_nameserver(
            name("b.x"),
            ip("1.2.3.4"),
            Asn(2),
            Deployment::Unicast,
            1.0,
            0.0,
            1.0,
        );
    }

    #[test]
    fn metadata_dimensions() {
        let (mut infra, a, b, set) = build_world();
        assert_eq!(infra.nsset_asns(set), vec![Asn(20857)]);
        assert_eq!(infra.nsset_slash24s(set).len(), 2);
        assert_eq!(infra.nsset_anycast(set), (0, 2));
        // Add an anycast member → partial anycast.
        let c = infra.add_nameserver(
            name("ns2.transip.net"),
            ip("37.97.199.195"),
            Asn(20857),
            Deployment::Anycast { sites: 10 },
            500_000.0,
            1_000.0,
            8.0,
        );
        let set3 = infra.intern_nsset(vec![a, b, c]);
        assert_eq!(infra.nsset_anycast(set3), (1, 3));
    }

    #[test]
    fn loadbook_accumulates_and_aggregates() {
        let mut book = LoadBook::new();
        let w = Window(100);
        book.add(ip("10.0.0.1"), w, 1_000.0);
        book.add(ip("10.0.0.1"), w, 500.0);
        book.add(ip("10.0.0.200"), w, 300.0);
        assert_eq!(book.attack_on_addr(ip("10.0.0.1"), w), 1_500.0);
        assert_eq!(book.attack_on_addr(ip("10.0.0.200"), w), 300.0);
        assert_eq!(book.attack_on_addr(ip("10.0.0.1"), Window(101)), 0.0);
        // /24 aggregation sums both victims.
        assert_eq!(book.attack_on_slash24(Slash24::of(ip("10.0.0.9")), w), 1_800.0);
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn service_state_responds_to_attack() {
        let (infra, a, _, _) = build_world();
        let mut book = LoadBook::new();
        let w = Window(50);
        let idle = infra.service_state(a, w, &book);
        assert!(idle.rtt_mult < 1.1);
        assert_eq!(idle.answer_prob, 1.0);
        // 45 kpps of attack on a 50 kpps server with 1 kpps legit → ρ=0.92.
        book.add(ip("195.135.195.195"), w, 45_000.0);
        let loaded = infra.service_state(a, w, &book);
        assert!(loaded.rtt_mult > 8.0, "rtt_mult {}", loaded.rtt_mult);
        // 200 kpps → saturated, most queries lost.
        book.add(ip("195.135.195.195"), w, 155_000.0);
        let sat = infra.service_state(a, w, &book);
        assert!(sat.answer_prob < 0.3, "answer_prob {}", sat.answer_prob);
    }

    #[test]
    fn collateral_hits_same_slash24() {
        let mut infra = Infra::new();
        let ns = infra.add_nameserver(
            name("ns1.mil.ru"),
            ip("188.128.110.5"),
            Asn(8342),
            Deployment::Unicast,
            100_000.0,
            1_000.0,
            40.0,
        );
        infra.set_uplink(Uplink::new(Slash24::of(ip("188.128.110.5")), 200_000.0));
        let mut book = LoadBook::new();
        let w = Window(7);
        // Attack the *web server* on the same /24, not the nameserver.
        book.add(ip("188.128.110.70"), w, 600_000.0);
        let s = infra.service_state(ns, w, &book);
        assert!(
            s.answer_prob < 0.5,
            "shared uplink congestion should degrade the nameserver: {s:?}"
        );
    }

    #[test]
    fn anycast_dilutes_attack() {
        let mut infra = Infra::new();
        let uni = infra.add_nameserver(
            name("ns1.uni.net"),
            ip("192.0.2.1"),
            Asn(1),
            Deployment::Unicast,
            100_000.0,
            1_000.0,
            20.0,
        );
        let any = infra.add_nameserver(
            name("ns1.any.net"),
            ip("198.51.100.1"),
            Asn(2),
            Deployment::Anycast { sites: 20 },
            100_000.0,
            1_000.0,
            20.0,
        );
        let mut book = LoadBook::new();
        let w = Window(1);
        for addr in ["192.0.2.1", "198.51.100.1"] {
            book.add(ip(addr), w, 95_000.0);
        }
        let s_uni = infra.service_state(uni, w, &book);
        let s_any = infra.service_state(any, w, &book);
        assert!(s_uni.rtt_mult > 10.0);
        assert!(s_any.rtt_mult < 1.2, "anycast absorbs the spoofed attack: {s_any:?}");
    }

    #[test]
    fn open_resolver_flag() {
        let (mut infra, a, _, _) = build_world();
        assert!(!infra.nameserver(a).open_resolver);
        infra.mark_open_resolver(a);
        assert!(infra.nameserver(a).open_resolver);
    }

    #[test]
    fn slash24_member_listing() {
        let (infra, a, _, _) = build_world();
        let p = infra.nameserver(a).slash24();
        assert_eq!(infra.nameservers_in_slash24(p), vec![a]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The /24 aggregate always equals the sum of its member-address
        /// loads, per window.
        #[test]
        fn loadbook_slash24_is_sum_of_members(
            adds in prop::collection::vec(
                (0u8..4, 0u8..8, 0u64..5, 0.0f64..10_000.0),
                1..100,
            ),
        ) {
            let mut book = LoadBook::new();
            let mut manual: HashMap<(u32, u64), f64> = HashMap::new();
            let mut manual24: HashMap<(Slash24, u64), f64> = HashMap::new();
            for (net, host, w, pps) in adds {
                let addr = Ipv4Addr::new(10, 0, net, host);
                book.add(addr, Window(w), pps);
                *manual.entry((u32::from(addr), w)).or_insert(0.0) += pps;
                *manual24.entry((Slash24::of(addr), w)).or_insert(0.0) += pps;
            }
            for ((addr, w), pps) in &manual {
                let got = book.attack_on_addr(Ipv4Addr::from(*addr), Window(*w));
                prop_assert!((got - pps).abs() < 1e-9);
            }
            for ((p24, w), pps) in &manual24 {
                let got = book.attack_on_slash24(*p24, Window(*w));
                prop_assert!((got - pps).abs() < 1e-6);
            }
        }

        /// Service quality is monotone in direct attack load.
        #[test]
        fn service_state_monotone_in_load(loads in prop::collection::vec(0.0f64..1e6, 2..10)) {
            let mut infra = Infra::new();
            let ns = infra.add_nameserver(
                "ns.mono.net".parse().unwrap(),
                "198.51.100.1".parse().unwrap(),
                Asn(1),
                Deployment::Unicast,
                50_000.0,
                1_000.0,
                20.0,
            );
            let mut sorted = loads.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last_ans = 1.1f64;
            let mut last_mult = 0.0f64;
            for (i, pps) in sorted.iter().enumerate() {
                let mut book = LoadBook::new();
                book.add("198.51.100.1".parse().unwrap(), Window(i as u64), *pps);
                let s = infra.service_state(ns, Window(i as u64), &book);
                prop_assert!(s.answer_prob <= last_ans + 1e-12);
                prop_assert!(s.rtt_mult >= last_mult - 1e-12);
                last_ans = s.answer_prob;
                last_mult = s.rtt_mult;
            }
        }
    }
}
