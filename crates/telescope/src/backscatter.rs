//! Backscatter sampling: thinning victim responses into the darknet.

use crate::darknet::Darknet;
use attack::{Attack, Protocol, VectorKind};
use rand::rngs::SmallRng;
use simcore::dist::poisson;
use simcore::rng::RngFactory;
use simcore::time::Window;
use std::net::Ipv4Addr;

/// What the telescope aggregates for one victim in one 5-minute window.
#[derive(Clone, Debug, PartialEq)]
pub struct BackscatterObs {
    pub victim: Ipv4Addr,
    pub window: Window,
    /// Backscatter packets captured in the window.
    pub packets: u64,
    /// Distinct telescope /16s that received packets.
    pub slash16s: u32,
    /// Protocol of the dominant visible vector.
    pub protocol: Protocol,
    /// First destination port observed on the victim (source port of the
    /// backscatter).
    pub first_port: u16,
    /// Distinct targeted ports observed.
    pub unique_ports: u16,
    /// Peak packet rate within the window, packets/minute (the feed's
    /// `max_ppm`; approximated as the mean ppm with Poisson spread).
    pub max_ppm: f64,
}

/// Samples backscatter observations from an attack population.
pub struct BackscatterSampler<'a> {
    pub darknet: &'a Darknet,
    /// Victims answer at most this many packets per second (a saturated
    /// host stops producing backscatter — one reason successful attacks can
    /// *shorten* inferred durations, §6.5).
    pub victim_response_cap_pps: f64,
}

impl<'a> BackscatterSampler<'a> {
    pub fn new(darknet: &'a Darknet) -> BackscatterSampler<'a> {
        BackscatterSampler { darknet, victim_response_cap_pps: 2_000_000.0 }
    }

    /// Sample the telescope's view of `attacks`. Only randomly-spoofed
    /// vectors generate backscatter toward the darknet. This is the
    /// one-shard case of [`sample_sharded`](Self::sample_sharded).
    pub fn sample(&self, attacks: &[Attack], rngs: &RngFactory) -> Vec<BackscatterObs> {
        self.sample_sharded(attacks, rngs, 1, || ()).0
    }

    /// [`sample`](Self::sample) on `shards` threads, byte-identical for any
    /// shard count, running `beside` on the calling thread meanwhile. Each
    /// attack draws from its own stream (`stream_indexed("backscatter",
    /// id)`), so contiguous attack shards sample independently; their
    /// observations are concatenated in shard order, which is attack
    /// order, and cells merge on the calling thread.
    pub fn sample_sharded<R>(
        &self,
        attacks: &[Attack],
        rngs: &RngFactory,
        shards: usize,
        beside: impl FnOnce() -> R,
    ) -> (Vec<BackscatterObs>, R) {
        // Each shard's buffer is allocated here, on the calling thread, at
        // its upper bound (one observation per attack window), so the
        // shard threads never allocate: glibc keeps what a worker thread
        // allocated in that thread's own arena after it is freed. For the
        // same reason the merge's sort runs here, not on the shards.
        let sample_into = |shard: &[Attack], mut out: Vec<BackscatterObs>| {
            for a in shard {
                let mut rng = rngs.stream_indexed("backscatter", a.id.0);
                self.sample_attack(a, &mut rng, &mut out);
            }
            out
        };
        let buffer = |shard: &[Attack]| Vec::with_capacity(shard.iter().map(window_count).sum());
        let (runs, beside): (Vec<Vec<BackscatterObs>>, R) = if shards <= 1 {
            (vec![sample_into(attacks, buffer(attacks))], beside())
        } else {
            let sample_into = &sample_into;
            std::thread::scope(|scope| {
                let shard_len = attacks.len().div_ceil(shards).max(1);
                let handles: Vec<_> = attacks
                    .chunks(shard_len)
                    .map(|shard| {
                        let out = buffer(shard);
                        scope.spawn(move || sample_into(shard, out))
                    })
                    .collect();
                let beside = beside();
                let runs = handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                    .collect();
                (runs, beside)
            })
        };
        let mut runs = runs.into_iter();
        let mut obs = runs.next().unwrap_or_default();
        for run in runs {
            obs.extend(run);
        }
        // Multiple attacks on the same victim in the same window merge, as
        // the real aggregation cannot tell them apart.
        (merge_same_cell(obs), beside)
    }

    fn sample_attack(&self, a: &Attack, rng: &mut SmallRng, out: &mut Vec<BackscatterObs>) {
        // A NaN/infinite rate would poison the pps sum and the dominant-vector
        // comparison; such a vector cannot deliver packets, so it is simply
        // not visible.
        let visible: Vec<_> = a
            .vectors
            .iter()
            .filter(|v| v.kind == VectorKind::RandomSpoofed && v.victim_pps.is_finite())
            .collect();
        let Some(dominant) = visible.iter().max_by(|x, y| x.victim_pps.total_cmp(&y.victim_pps))
        else {
            return; // nothing spoofed → nothing reaches the telescope
        };
        let spoofed_pps: f64 = visible.iter().map(|v| v.victim_pps).sum();
        let response_pps = spoofed_pps.min(self.victim_response_cap_pps);
        let unique_ports: u16 = visible.iter().map(|v| v.ports.len() as u16).sum::<u16>().max(1);
        for (w, frac) in a.window_overlaps() {
            let mean_pkts = response_pps * frac * 300.0 * self.darknet.coverage();
            let packets = poisson(rng, mean_pkts);
            if packets == 0 {
                continue;
            }
            let slash16s = self.sample_distinct_slash16s(packets, rng);
            // Peak rate within the window: mean ppm inflated by Poisson
            // relative spread (bounded below by the mean).
            let mean_ppm = packets as f64 / (5.0 * frac.max(1e-9));
            let max_ppm = mean_ppm * (1.0 + 1.0 / (packets as f64).sqrt());
            out.push(BackscatterObs {
                victim: a.target,
                window: w,
                packets,
                slash16s,
                protocol: dominant.protocol,
                first_port: dominant.first_port(),
                unique_ports,
                max_ppm,
            });
        }
    }

    /// Distinct /16s via the exact expectation + binomial noise (cheap and
    /// accurate for both tiny and huge packet counts).
    fn sample_distinct_slash16s(&self, packets: u64, rng: &mut SmallRng) -> u32 {
        let n = self.darknet.slash16s().len() as f64;
        let expect = self.darknet.expected_distinct_slash16s(packets);
        // Variance of distinct-bins is ≤ expectation; approximate with a
        // small binomial jitter around the expectation.
        let p = (expect / n).clamp(0.0, 1.0);
        let sampled = simcore::dist::binomial(rng, n as u64, p);
        (sampled.max(1)).min(packets) as u32
    }
}

/// Upper bound on the windows `a` can be observed in:
/// `Attack::window_overlaps` yields at most one per started window.
fn window_count(a: &Attack) -> usize {
    (a.duration.secs() / simcore::time::WINDOW_SECS) as usize + 2
}

/// The merge key: cells sort by window, then victim.
fn cell_key(o: &BackscatterObs) -> (Window, u32) {
    (o.window, u32::from(o.victim))
}

/// Fold every (window, victim) cell into one observation, sorted by
/// [`cell_key`]. The sort is stable, so the observations of one cell stay
/// in attack order and fold left to right: the `max_ppm` f64 sum adds in
/// the same order for any sharding. Packets and ports add, `slash16s`
/// takes the max, and the first-seen attack's protocol and first port win.
fn merge_same_cell(mut obs: Vec<BackscatterObs>) -> Vec<BackscatterObs> {
    obs.sort_by_key(cell_key);
    obs.dedup_by(|later, kept| {
        if cell_key(later) != cell_key(kept) {
            return false;
        }
        kept.packets += later.packets;
        kept.slash16s = kept.slash16s.max(later.slash16s);
        kept.unique_ports = kept.unique_ports.saturating_add(later.unique_ports);
        kept.max_ppm += later.max_ppm;
        true
    });
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use attack::{AttackId, VectorSpec};
    use simcore::time::{SimDuration, SimTime};

    fn spoofed_attack(pps: f64, mins: u64) -> Attack {
        Attack {
            id: AttackId(1),
            target: "203.0.113.5".parse().unwrap(),
            start: SimTime(0),
            duration: SimDuration::from_mins(mins),
            vectors: vec![VectorSpec {
                kind: VectorKind::RandomSpoofed,
                protocol: Protocol::Tcp,
                ports: vec![53],
                victim_pps: pps,
                source_count: 1_000,
            }],
        }
    }

    #[test]
    fn sampling_rate_matches_coverage() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // 124 kpps victim-side (TransIP December) → ≈21.8 kppm telescope.
        let obs = s.sample(&[spoofed_attack(124_000.0, 60)], &RngFactory::new(1));
        assert_eq!(obs.len(), 12, "every window observed at this rate");
        let mean_ppm: f64 =
            obs.iter().map(|o| o.packets as f64 / 5.0).sum::<f64>() / obs.len() as f64;
        assert!(
            (mean_ppm - 21_800.0).abs() / 21_800.0 < 0.05,
            "telescope ppm {mean_ppm} vs expected ≈21800"
        );
    }

    #[test]
    fn invisible_attack_produces_nothing() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let mut a = spoofed_attack(1_000_000.0, 60);
        a.vectors[0].kind = VectorKind::Reflection;
        assert!(s.sample(&[a], &RngFactory::new(1)).is_empty());
    }

    #[test]
    fn tiny_attack_often_missed() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // 1 pps → expected 0.88 packets/window: many windows empty.
        let obs = s.sample(&[spoofed_attack(1.0, 60)], &RngFactory::new(2));
        assert!(obs.len() < 12, "sub-threshold attacks are partially invisible");
    }

    #[test]
    fn response_cap_limits_backscatter() {
        let d = Darknet::ucsd_like();
        let mut s = BackscatterSampler::new(&d);
        s.victim_response_cap_pps = 10_000.0;
        let obs = s.sample(&[spoofed_attack(10_000_000.0, 30)], &RngFactory::new(3));
        let mean_ppm: f64 =
            obs.iter().map(|o| o.packets as f64 / 5.0).sum::<f64>() / obs.len() as f64;
        let expect = 10_000.0 * 60.0 * d.coverage();
        assert!((mean_ppm - expect).abs() / expect < 0.1, "{mean_ppm} vs {expect}");
    }

    #[test]
    fn slash16s_grow_with_rate() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let small = s.sample(&[spoofed_attack(300.0, 60)], &RngFactory::new(4));
        let big = s.sample(&[spoofed_attack(500_000.0, 60)], &RngFactory::new(4));
        let avg16 = |v: &[BackscatterObs]| {
            v.iter().map(|o| o.slash16s as f64).sum::<f64>() / v.len() as f64
        };
        assert!(avg16(&big) > avg16(&small));
        assert!(avg16(&big) > 150.0, "large attacks light up most /16s: {}", avg16(&big));
        for o in big.iter().chain(&small) {
            assert!(o.slash16s >= 1 && o.slash16s as usize <= d.slash16s().len());
        }
    }

    #[test]
    fn same_victim_same_window_merges() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let a1 = spoofed_attack(50_000.0, 10);
        let mut a2 = spoofed_attack(50_000.0, 10);
        a2.id = AttackId(2);
        let obs = s.sample(&[a1, a2], &RngFactory::new(5));
        // Two attacks, same victim, same 2 windows → 2 merged cells.
        assert_eq!(obs.len(), 2);
        // Merged packet counts are roughly double a single attack's.
        let single = s.sample(&[spoofed_attack(50_000.0, 10)], &RngFactory::new(5));
        assert!(obs[0].packets > single[0].packets * 3 / 2);
    }

    #[test]
    fn nan_rate_vector_never_aborts_sampling() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // One poisoned vector plus one healthy one: the healthy vector must
        // still be sampled (previously the NaN comparison aborted).
        let mut a = spoofed_attack(50_000.0, 30);
        a.vectors.push(VectorSpec {
            kind: VectorKind::RandomSpoofed,
            protocol: Protocol::Udp,
            ports: vec![123],
            victim_pps: f64::NAN,
            source_count: 10,
        });
        let obs = s.sample(&[a], &RngFactory::new(6));
        assert!(!obs.is_empty(), "healthy vector still observed");
        assert!(obs.iter().all(|o| o.packets > 0 && o.max_ppm.is_finite()));
        // An attack whose only vector is poisoned is invisible, not fatal.
        let mut lone = spoofed_attack(1.0, 10);
        lone.vectors[0].victim_pps = f64::NAN;
        assert!(s.sample(&[lone], &RngFactory::new(6)).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        let a = vec![spoofed_attack(10_000.0, 30)];
        assert_eq!(s.sample(&a, &RngFactory::new(9)), s.sample(&a, &RngFactory::new(9)));
    }

    #[test]
    fn sharded_sampling_equals_sequential() {
        let d = Darknet::ucsd_like();
        let s = BackscatterSampler::new(&d);
        // Three victims hit by overlapping attacks, so cells merge across
        // shard boundaries for every shard count.
        let attacks: Vec<Attack> = (0..40u64)
            .map(|i| {
                let mut a = spoofed_attack(200.0 + 900.0 * (i % 7) as f64, 10 + 5 * (i % 5));
                a.id = AttackId(i);
                a.target = Ipv4Addr::from(0xCB00_7100 + (i % 3) as u32);
                a.start = SimTime(60 * (i % 9));
                a
            })
            .collect();
        let rngs = RngFactory::new(11);
        let sequential = s.sample(&attacks, &rngs);
        assert!(sequential.len() < attacks.len() * 2, "cells merged across attacks");
        for shards in 1..=8 {
            let (sharded, ()) = s.sample_sharded(&attacks, &rngs, shards, || ());
            assert_eq!(sharded.len(), sequential.len(), "shards={shards}");
            for (a, b) in sharded.iter().zip(&sequential) {
                assert_eq!(a, b, "shards={shards}");
                assert_eq!(a.max_ppm.to_bits(), b.max_ppm.to_bits(), "shards={shards}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The hash-map merge the sort-and-fold merge replaced, kept as its
    /// differential oracle.
    fn merge_same_cell_oracle(mut obs: Vec<BackscatterObs>) -> Vec<BackscatterObs> {
        use std::collections::HashMap;
        let mut map: HashMap<(Ipv4Addr, Window), BackscatterObs> = HashMap::new();
        for o in obs.drain(..) {
            match map.entry((o.victim, o.window)) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(o);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let m = e.get_mut();
                    m.packets += o.packets;
                    m.slash16s = m.slash16s.max(o.slash16s);
                    m.unique_ports = m.unique_ports.saturating_add(o.unique_ports);
                    m.max_ppm += o.max_ppm;
                }
            }
        }
        let mut out: Vec<BackscatterObs> = map.into_values().collect();
        out.sort_by_key(|o| (o.window, u32::from(o.victim)));
        out
    }

    fn arb_obs() -> impl Strategy<Value = BackscatterObs> {
        // Three victims × four windows: most lists put several
        // observations in one cell. Rates span six orders of magnitude so
        // the `max_ppm` sum rounds differently in any other fold order;
        // port counts reach the u16 saturation point.
        (0u32..3, 0u64..4, 1u64..5_000, 1u32..300, 0u8..3, any::<u16>(), 1u16..40_000, 0.0f64..6.0)
            .prop_map(|(v, w, packets, slash16s, proto, first_port, unique_ports, mag)| {
                BackscatterObs {
                    victim: Ipv4Addr::from(0x0A00_0000 | v),
                    window: Window(w),
                    packets,
                    slash16s,
                    protocol: [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][proto as usize],
                    first_port,
                    unique_ports,
                    max_ppm: packets as f64 * 10f64.powf(mag) / 7.0,
                }
            })
    }

    proptest! {
        /// Sort-and-fold ≡ the hash-map merge, field for field, f64 bits
        /// included.
        #[test]
        fn sort_merge_equals_hash_merge(observations in prop::collection::vec(arb_obs(), 0..80)) {
            let merged = merge_same_cell(observations.clone());
            let oracle = merge_same_cell_oracle(observations);
            prop_assert_eq!(merged.len(), oracle.len());
            for (m, o) in merged.iter().zip(&oracle) {
                prop_assert_eq!((m.victim, m.window, m.packets, m.slash16s), (o.victim, o.window, o.packets, o.slash16s));
                prop_assert_eq!((m.protocol, m.first_port, m.unique_ports), (o.protocol, o.first_port, o.unique_ports));
                prop_assert_eq!(m.max_ppm.to_bits(), o.max_ppm.to_bits());
            }
        }
    }
}
