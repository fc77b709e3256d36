//! Steps 2–3 of the methodology: victim IPs → nameservers under attack →
//! NSSets and domains under attack. This module holds the join's types;
//! [`crate::columnar::JoinTable::build`] runs it and
//! [`crate::reference::join_episodes`] is its sequential oracle.
//!
//! The paper joins each attack against the nameserver list *of the day
//! before the attack* so that nameservers rendered unreachable by the
//! attack itself are not missing from the join (§4.2). The
//! [`NsDirectory`] abstraction captures that day-indexed view; with a
//! static simulated infrastructure every day resolves identically, but the
//! previous-day semantics (and the ablation bench that flips it) go
//! through this interface.

use dnssim::{Infra, NsId, NsSetId};
use simcore::time::Month;
use std::net::Ipv4Addr;

/// Day-indexed view of "which nameserver answers at this IP?".
pub trait NsDirectory {
    /// The nameserver successfully observed at `addr` on `day`, if any.
    fn ns_at(&self, addr: Ipv4Addr, day: u64) -> Option<NsId>;
}

/// The static simulated infrastructure as a directory: every day's list is
/// the registry itself.
impl NsDirectory for Infra {
    fn ns_at(&self, addr: Ipv4Addr, _day: u64) -> Option<NsId> {
        self.ns_by_addr(addr)
    }
}

/// A day-indexed directory over a base registry, with scheduled changes —
/// the situation §4.2's previous-day join is designed for: a nameserver
/// that an operator renumbers or withdraws *during* an attack is missing
/// from that day's list, but still present in yesterday's.
pub struct ChangingDirectory<'a> {
    base: &'a Infra,
    /// `(effective_day, addr, mapping)`: from `effective_day` onward,
    /// `addr` maps to `mapping` (`None` = withdrawn). Later entries win.
    changes: Vec<(u64, Ipv4Addr, Option<NsId>)>,
}

impl<'a> ChangingDirectory<'a> {
    pub fn new(base: &'a Infra) -> ChangingDirectory<'a> {
        ChangingDirectory { base, changes: Vec::new() }
    }

    /// From `day` onward, `addr` resolves to `mapping`.
    pub fn change(mut self, day: u64, addr: Ipv4Addr, mapping: Option<NsId>) -> Self {
        self.changes.push((day, addr, mapping));
        self.changes.sort_by_key(|&(d, a, _)| (a, d));
        self
    }
}

impl NsDirectory for ChangingDirectory<'_> {
    fn ns_at(&self, addr: Ipv4Addr, day: u64) -> Option<NsId> {
        // The latest change for this address effective at `day` wins.
        let mut current = self.base.ns_by_addr(addr);
        for &(d, a, mapping) in &self.changes {
            if a == addr && d <= day {
                current = mapping;
            }
        }
        current
    }
}

/// One RSDoS episode joined to the DNS: the nameservers whose service
/// addresses were attacked, the NSSets they serve, and the domains behind
/// them.
#[derive(Clone, Debug)]
pub struct DnsAttackEvent {
    /// Index into the feed's episode list.
    pub episode_idx: usize,
    /// Nameservers directly attacked (victim IP == service address).
    pub ns_direct: Vec<NsId>,
    /// Nameservers hit via collateral (victim in the same /24 but not a
    /// nameserver itself).
    pub ns_collateral: Vec<NsId>,
    /// Every NSSet containing an attacked nameserver.
    pub nssets: Vec<NsSetId>,
    /// Count of distinct registered domains delegating to those NSSets —
    /// the "potentially affected domains" of Figure 5.
    pub domains_affected: u64,
    /// Calendar month of the attack start (Table 3 bucketing).
    pub month: Month,
}

impl DnsAttackEvent {
    pub fn all_ns(&self) -> Vec<NsId> {
        let mut v = self.ns_direct.clone();
        v.extend(self.ns_collateral.iter().copied());
        v.sort();
        v.dedup();
        v
    }

    pub fn is_direct(&self) -> bool {
        !self.ns_direct.is_empty()
    }
}
