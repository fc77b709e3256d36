//! RSDoS inference: thresholds over backscatter observations, and episode
//! (attack) extraction.
//!
//! Follows the Moore et al. backscatter methodology the CAIDA feed uses:
//! a victim qualifies as "under randomly-spoofed attack" in a window only
//! if the backscatter is strong and spread enough to rule out scanning
//! noise and misconfiguration. Consecutive qualifying windows (with a small
//! gap tolerance) form one *attack episode* — the unit Table 1 and Table 3
//! count.

use crate::backscatter::BackscatterObs;
use crate::block::{RecordBlock, RecordBlockBuilder};
use crate::feed::RsdosRecord;
use attack::Protocol;
use simcore::time::{SimDuration, Window};
use std::collections::hash_map::{Entry, HashMap};
use std::net::Ipv4Addr;

/// Classifier thresholds (defaults follow the conservative Moore-style
/// criteria).
#[derive(Clone, Copy, Debug)]
pub struct RsdosThresholds {
    /// Minimum backscatter packets in a 5-minute window.
    pub min_packets: u64,
    /// Minimum distinct telescope /16s reached (uniform spoofing sprays
    /// widely; scans and misconfigurations don't).
    pub min_slash16s: u32,
    /// Maximum number of silent windows bridged inside one episode.
    pub max_gap_windows: u64,
}

impl Default for RsdosThresholds {
    fn default() -> RsdosThresholds {
        RsdosThresholds { min_packets: 25, min_slash16s: 2, max_gap_windows: 1 }
    }
}

/// An inferred attack: a maximal run of qualifying windows for one victim.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackEpisode {
    pub victim: Ipv4Addr,
    pub first_window: Window,
    pub last_window: Window,
    /// Total backscatter packets over the episode.
    pub packets: u64,
    /// Peak per-window `max_ppm`.
    pub peak_ppm: f64,
    /// Dominant protocol over the episode.
    pub protocol: Protocol,
    /// First port of the first qualifying window.
    pub first_port: u16,
    /// Max distinct ports seen in any window.
    pub unique_ports: u16,
    /// Max distinct /16s seen in any window.
    pub slash16s: u32,
}

impl AttackEpisode {
    /// Inferred duration: number of windows × 5 minutes.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs((self.last_window.0 - self.first_window.0 + 1) * 300)
    }

    /// A one-window episode opened by `r`.
    fn starting_at(r: &RsdosRecord) -> AttackEpisode {
        AttackEpisode {
            victim: r.victim,
            first_window: r.window,
            last_window: r.window,
            packets: r.packets,
            peak_ppm: r.max_ppm,
            protocol: r.protocol,
            first_port: r.first_port,
            unique_ports: r.unique_ports,
            slash16s: r.slash16s,
        }
    }

    /// Whether the episode overlaps `w`.
    pub fn covers_window(&self, w: Window) -> bool {
        w >= self.first_window && w <= self.last_window
    }
}

/// The classifier.
#[derive(Clone, Debug, Default)]
pub struct RsdosClassifier {
    pub thresholds: RsdosThresholds,
}

impl RsdosClassifier {
    pub fn new(thresholds: RsdosThresholds) -> RsdosClassifier {
        RsdosClassifier { thresholds }
    }

    /// Filter observations into qualifying feed records.
    pub fn classify(&self, obs: &[BackscatterObs]) -> Vec<RsdosRecord> {
        obs.iter()
            .filter(|o| {
                o.packets >= self.thresholds.min_packets
                    && o.slash16s >= self.thresholds.min_slash16s
            })
            .map(RsdosRecord::from_obs)
            .collect()
    }

    /// Classify observations straight into an arena-backed block: the
    /// same filter as [`classify`](RsdosClassifier::classify), but
    /// qualifying records are packed into one shared buffer instead of a
    /// `Vec` of row structs. Block-fed and row-fed paths are held
    /// identical by the differential tests below.
    pub fn classify_into_block(&self, obs: &[BackscatterObs]) -> RecordBlock {
        let mut b = RecordBlockBuilder::new();
        for o in obs {
            if o.packets >= self.thresholds.min_packets
                && o.slash16s >= self.thresholds.min_slash16s
            {
                b.push(&RsdosRecord::from_obs(o));
            }
        }
        b.finish()
    }

    /// Group qualifying records into per-victim episodes.
    pub fn episodes(&self, records: &[RsdosRecord]) -> Vec<AttackEpisode> {
        self.episodes_from_rows(|| records.iter().cloned())
    }

    /// Episode extraction over an arena-backed block — rows decode on the
    /// fly out of the shared buffer; output is identical to
    /// [`episodes`](RsdosClassifier::episodes) over the same rows.
    pub fn episodes_from_block(&self, block: &RecordBlock) -> Vec<AttackEpisode> {
        self.episodes_from_rows(|| block.iter())
    }

    /// Replay the records in window order: straight from `rows()` when it
    /// already yields them that way (the classifier's output does), else
    /// from a stable sort, so same-window records keep their input order.
    fn episodes_from_rows<I, F>(&self, rows: F) -> Vec<AttackEpisode>
    where
        I: Iterator<Item = RsdosRecord>,
        F: Fn() -> I,
    {
        if rows().is_sorted_by_key(|r| r.window) {
            return self.episodes_in_window_order(rows());
        }
        let mut recs: Vec<RsdosRecord> = rows().collect();
        recs.sort_by_key(|r| r.window);
        self.episodes_in_window_order(recs.into_iter())
    }

    /// Group window-ordered records into episodes: each victim's open
    /// episode waits in the map until a gap closes it.
    fn episodes_in_window_order(
        &self,
        rows: impl Iterator<Item = RsdosRecord>,
    ) -> Vec<AttackEpisode> {
        let mut open: HashMap<Ipv4Addr, AttackEpisode> = HashMap::new();
        let mut out = Vec::new();
        for r in rows {
            match open.entry(r.victim) {
                Entry::Occupied(mut e) => {
                    let ep = e.get_mut();
                    if r.window.0 - ep.last_window.0 <= self.thresholds.max_gap_windows + 1 {
                        ep.last_window = r.window;
                        ep.packets += r.packets;
                        ep.peak_ppm = ep.peak_ppm.max(r.max_ppm);
                        ep.unique_ports = ep.unique_ports.max(r.unique_ports);
                        ep.slash16s = ep.slash16s.max(r.slash16s);
                    } else {
                        out.push(std::mem::replace(ep, AttackEpisode::starting_at(&r)));
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(AttackEpisode::starting_at(&r));
                }
            }
        }
        out.extend(open.into_values());
        out.sort_by_key(|e| (e.first_window, u32::from(e.victim)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(victim: &str, w: u64, packets: u64, slash16s: u32) -> BackscatterObs {
        BackscatterObs {
            victim: victim.parse().unwrap(),
            window: Window(w),
            packets,
            slash16s,
            protocol: Protocol::Tcp,
            first_port: 53,
            unique_ports: 1,
            max_ppm: packets as f64 / 5.0,
        }
    }

    #[test]
    fn thresholds_filter_noise() {
        let c = RsdosClassifier::default();
        let records = c.classify(&[
            obs("1.1.1.1", 0, 24, 10), // too few packets
            obs("2.2.2.2", 0, 25, 1),  // too concentrated
            obs("3.3.3.3", 0, 25, 2),  // qualifies exactly
            obs("4.4.4.4", 0, 10_000, 150),
        ]);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].victim, "3.3.3.3".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    fn consecutive_windows_form_one_episode() {
        let c = RsdosClassifier::default();
        let records = c.classify(&[
            obs("9.9.9.9", 10, 100, 5),
            obs("9.9.9.9", 11, 200, 8),
            obs("9.9.9.9", 12, 150, 6),
        ]);
        let eps = c.episodes(&records);
        assert_eq!(eps.len(), 1);
        let e = &eps[0];
        assert_eq!(e.first_window, Window(10));
        assert_eq!(e.last_window, Window(12));
        assert_eq!(e.packets, 450);
        assert_eq!(e.duration(), SimDuration::from_mins(15));
        assert!((e.peak_ppm - 40.0).abs() < 1e-9);
        assert!(e.covers_window(Window(11)));
        assert!(!e.covers_window(Window(13)));
    }

    #[test]
    fn single_gap_bridged_double_gap_splits() {
        let c = RsdosClassifier::default();
        let records = c.classify(&[
            obs("9.9.9.9", 10, 100, 5),
            obs("9.9.9.9", 12, 100, 5), // one silent window bridged
            obs("9.9.9.9", 15, 100, 5), // two silent windows: new episode
        ]);
        let eps = c.episodes(&records);
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].last_window, Window(12));
        assert_eq!(eps[1].first_window, Window(15));
    }

    #[test]
    fn distinct_victims_distinct_episodes() {
        let c = RsdosClassifier::default();
        let records = c.classify(&[obs("1.1.1.1", 5, 100, 5), obs("2.2.2.2", 5, 100, 5)]);
        let eps = c.episodes(&records);
        assert_eq!(eps.len(), 2);
    }

    #[test]
    fn custom_thresholds() {
        let c = RsdosClassifier::new(RsdosThresholds {
            min_packets: 1,
            min_slash16s: 1,
            max_gap_windows: 0,
        });
        let records = c.classify(&[obs("1.1.1.1", 0, 1, 1)]);
        assert_eq!(records.len(), 1);
        // Zero gap tolerance: windows 0 and 2 split.
        let recs = c.classify(&[obs("1.1.1.1", 0, 5, 1), obs("1.1.1.1", 2, 5, 1)]);
        assert_eq!(c.episodes(&recs).len(), 2);
    }

    #[test]
    fn episode_duration_single_window() {
        let c = RsdosClassifier::default();
        let recs = c.classify(&[obs("1.1.1.1", 7, 100, 5)]);
        let eps = c.episodes(&recs);
        assert_eq!(eps[0].duration(), SimDuration::from_mins(5));
    }

    #[test]
    fn block_path_matches_row_path() {
        let c = RsdosClassifier::default();
        let observations = vec![
            obs("1.1.1.1", 0, 24, 10), // filtered
            obs("9.9.9.9", 10, 100, 5),
            obs("9.9.9.9", 11, 200, 8),
            obs("9.9.9.9", 14, 150, 6), // gap splits
            obs("2.2.2.2", 10, 500, 9),
        ];
        let records = c.classify(&observations);
        let block = c.classify_into_block(&observations);
        assert_eq!(block.iter().collect::<Vec<_>>(), records, "classification differs");
        assert_eq!(c.episodes_from_block(&block), c.episodes(&records), "episodes differ");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_obs() -> impl Strategy<Value = BackscatterObs> {
        // Small victim/window pools force collisions: multi-window
        // episodes, gap bridging, and same-window multi-victim cases.
        (0u32..6, 0u64..12, 0u64..80, 0u32..6, 0u8..3, any::<u16>(), 1u16..5).prop_map(
            |(v, w, packets, slash16s, proto, first_port, unique_ports)| BackscatterObs {
                victim: Ipv4Addr::from(0x0A00_0000 | v),
                window: Window(w),
                packets,
                slash16s,
                protocol: [Protocol::Tcp, Protocol::Udp, Protocol::Icmp][proto as usize],
                first_port,
                unique_ports,
                max_ppm: packets as f64 / 5.0,
            },
        )
    }

    /// The per-victim hash-map grouping the window-order grouping replaced,
    /// kept as its differential oracle.
    fn episodes_oracle(c: &RsdosClassifier, records: &[RsdosRecord]) -> Vec<AttackEpisode> {
        let mut per_victim: HashMap<Ipv4Addr, Vec<RsdosRecord>> = HashMap::new();
        for r in records {
            per_victim.entry(r.victim).or_default().push(r.clone());
        }
        let mut out = Vec::new();
        for (_, mut recs) in per_victim {
            recs.sort_by_key(|r| r.window);
            let mut rows = recs.into_iter();
            let Some(first) = rows.next() else { continue };
            let mut ep = AttackEpisode::starting_at(&first);
            for r in rows {
                if r.window.0 - ep.last_window.0 <= c.thresholds.max_gap_windows + 1 {
                    ep.last_window = r.window;
                    ep.packets += r.packets;
                    ep.peak_ppm = ep.peak_ppm.max(r.max_ppm);
                    ep.unique_ports = ep.unique_ports.max(r.unique_ports);
                    ep.slash16s = ep.slash16s.max(r.slash16s);
                } else {
                    out.push(ep);
                    ep = AttackEpisode::starting_at(&r);
                }
            }
            out.push(ep);
        }
        out.sort_by_key(|e| (e.first_window, u32::from(e.victim)));
        out
    }

    proptest! {
        /// Window-order grouping ≡ the per-victim hash-map grouping, on
        /// unsorted and sorted record lists with duplicate windows.
        #[test]
        fn sorted_grouping_equals_hash_grouping(observations in prop::collection::vec(arb_obs(), 0..60)) {
            let c = RsdosClassifier::new(RsdosThresholds {
                min_packets: 10,
                min_slash16s: 2,
                max_gap_windows: 1,
            });
            let mut records = c.classify(&observations);
            let got = c.episodes(&records);
            let want = episodes_oracle(&c, &records);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            // Window-ordered input takes the path that skips the sort.
            records.sort_by_key(|r| r.window);
            let got = c.episodes(&records);
            let want = episodes_oracle(&c, &records);
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }

        /// classify→block→episodes ≡ classify→rows→episodes on arbitrary
        /// observation mixes: the arena path may never change the feed.
        #[test]
        fn block_and_row_paths_agree(observations in prop::collection::vec(arb_obs(), 0..60)) {
            let c = RsdosClassifier::new(RsdosThresholds {
                min_packets: 10,
                min_slash16s: 2,
                max_gap_windows: 1,
            });
            let records = c.classify(&observations);
            let block = c.classify_into_block(&observations);
            prop_assert_eq!(block.len(), records.len());
            prop_assert_eq!(block.iter().collect::<Vec<_>>(), records.clone());
            prop_assert_eq!(c.episodes_from_block(&block), c.episodes(&records));
        }
    }
}
