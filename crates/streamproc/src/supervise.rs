//! Supervised delivery and execution: at-least-once transport with
//! idempotent dedup, and bounded restarts.
//!
//! Recovery is layered the way the paper's stack layers Kafka under Spark
//! (§4.3.1):
//!
//! 1. **Transport repair** ([`reliable_stream`]): records cross a lossy
//!    chaos channel sequence-stamped; the sink dedups and re-orders, detects
//!    gaps, and retransmits the missing sequences in bounded repair rounds.
//!    The final round is fault-free, so delivery always terminates with the
//!    exact input batch, in order.
//! 2. **Task supervision** ([`crate::pool::parallel_map_supervised`]): each
//!    task runs in a retry loop that is restarted (bounded, with
//!    exponential backoff) when it panics — whether the panic is an
//!    injected [`crate::fault::InjectedCrash`] or a real bug. Tasks are
//!    pure in their inputs, so a retried task returns the same result.
//!
//! Together these give the headline invariant: for a deterministic stage
//! body, *fault-free output ≡ faulted-and-recovered output*.

use crate::exec::{sink_to_vec, spawn_stage};
use crate::fault::{spawn_chaos_stage, FaultPlan, Seq};
use crate::topic::Topic;
use std::collections::BTreeMap;

/// Restart and delivery policy for supervised tasks and transports.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Restart budget per task; the panic propagates once it is exhausted.
    /// Keep `>= ChaosConfig::max_crashes` so injected crashes always recover.
    pub max_restarts: u32,
    /// Exponential backoff between restarts: `base << attempt`, capped.
    pub backoff_base_ms: u64,
    pub backoff_cap_ms: u64,
    /// Chaos repair rounds before the transport falls back to a fault-free
    /// retransmission, bounding delivery time.
    pub max_repair_rounds: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_restarts: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 16,
            max_repair_rounds: 8,
        }
    }
}

/// What the recovery machinery observed and repaired. All counters are
/// deterministic for a given plan + input (they never depend on thread
/// timing), so chaos runs can assert on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SuperviseStats {
    /// Records dropped in transit (each retransmitted later).
    pub dropped: u64,
    /// Duplicate deliveries collapsed by sequence-number dedup.
    pub duplicated: u64,
    /// Records that arrived out of order and were re-sequenced.
    pub reordered: u64,
    /// Transport repair rounds that had to retransmit missing sequences.
    pub repair_rounds: u64,
    /// Task attempts restarted after a panic.
    pub restarts: u64,
    /// Total restart backoff slept, in milliseconds.
    pub backoff_ms: u64,
}

impl SuperviseStats {
    pub fn merge(&mut self, other: &SuperviseStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.repair_rounds += other.repair_rounds;
        self.restarts += other.restarts;
        self.backoff_ms += other.backoff_ms;
    }

    /// True when no fault of any kind was observed.
    pub fn is_clean(&self) -> bool {
        *self == SuperviseStats::default()
    }
}

/// Deliver `items` across a chaos transport with at-least-once semantics
/// and return them exactly, in order, plus what it took to get there.
///
/// With `plan: None` this is free: the batch is returned untouched.
pub fn reliable_stream<T>(
    name: &str,
    items: Vec<T>,
    plan: Option<&FaultPlan>,
    cfg: &SupervisorConfig,
) -> (Vec<T>, SuperviseStats)
where
    T: Clone + Send + 'static,
{
    let mut stats = SuperviseStats::default();
    let Some(&plan) = plan else { return (items, stats) };
    let total = items.len();
    let mut received: BTreeMap<u64, T> = BTreeMap::new();
    let mut pending: Vec<Seq<T>> = crate::fault::seq_stamp(items);
    let mut round = 0u64;
    while !pending.is_empty() {
        if round > 0 {
            // This round's retransmission is the repair of the previous
            // round's drops (records dropped again re-inject and get a
            // further round, so the totals balance exactly).
            obs::counter("chaos.drops_repaired").add(pending.len() as u64);
            obs::counter("chaos.faults_repaired").add(pending.len() as u64);
            for m in &pending {
                obs::trace::emit(
                    obs::EventKind::FaultRepaired,
                    name,
                    None,
                    None,
                    format!("drop seq={}", m.seq),
                    None,
                );
            }
        }
        let src: Topic<Seq<T>> = Topic::new(&format!("{name}:replay"));
        let out: Topic<Seq<T>> = Topic::new(&format!("{name}:delivered"));
        // Bounded repair: after `max_repair_rounds` faulty rounds the
        // retransmission is fault-free, so delivery always terminates.
        let stage = if round < cfg.max_repair_rounds as u64 {
            spawn_chaos_stage(name, plan, round, src.subscribe(), out.clone())
        } else {
            spawn_stage(&format!("replay:{name}"), src.subscribe(), out.clone(), |m| vec![m])
        };
        let sink = sink_to_vec(out.subscribe());
        for m in &pending {
            src.publish(m.clone());
        }
        src.close();
        stage.join();
        // Sink-side dedup + re-sequencing.
        let mut high_water = None;
        for m in sink.join().expect("reliable_stream sink") {
            if high_water.is_some_and(|hw| m.seq < hw) {
                stats.reordered += 1;
                obs::counter("chaos.reordered_observed").incr();
            }
            high_water = Some(high_water.map_or(m.seq, |hw: u64| hw.max(m.seq)));
            if received.insert(m.seq, m.payload).is_some() {
                stats.duplicated += 1;
                // Sink-side dedup repairs exactly the duplicate copies the
                // chaos stage injected.
                obs::counter("chaos.dups_repaired").incr();
                obs::counter("chaos.faults_repaired").incr();
                obs::trace::emit(
                    obs::EventKind::FaultRepaired,
                    name,
                    None,
                    None,
                    format!("dup seq={}", m.seq),
                    None,
                );
            }
        }
        // Gap detection: whatever is still missing goes into the next
        // retransmission round.
        pending.retain(|m| !received.contains_key(&m.seq));
        stats.dropped += pending.len() as u64;
        if !pending.is_empty() {
            stats.repair_rounds += 1;
            obs::counter("chaos.retransmit_rounds").incr();
        }
        round += 1;
    }
    debug_assert_eq!(received.len(), total);
    (received.into_values().collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ChaosConfig;
    use simcore::rng::RngFactory;

    fn plan(cfg: ChaosConfig) -> FaultPlan {
        FaultPlan::new(&RngFactory::new(11), "supervise-test", cfg)
    }

    #[test]
    fn reliable_stream_is_exactly_once_end_to_end() {
        let items: Vec<u64> = (0..700).collect();
        let p = plan(ChaosConfig::CALIBRATED);
        let (got, stats) =
            reliable_stream("t", items.clone(), Some(&p), &SupervisorConfig::default());
        assert_eq!(got, items, "dedup + reorder + retransmit restores the batch");
        assert!(stats.dropped > 0, "chaos actually dropped records: {stats:?}");
        assert!(stats.duplicated > 0);
        assert!(stats.reordered > 0);
        assert!(stats.repair_rounds > 0);
    }

    #[test]
    fn reliable_stream_stats_are_deterministic() {
        let p = plan(ChaosConfig::CALIBRATED);
        let run =
            || reliable_stream("t", (0..300u64).collect(), Some(&p), &SupervisorConfig::default());
        assert_eq!(run(), run());
    }

    #[test]
    fn reliable_stream_without_plan_is_identity() {
        let (got, stats) = reliable_stream("t", vec![1, 2, 3], None, &SupervisorConfig::default());
        assert_eq!(got, vec![1, 2, 3]);
        assert!(stats.is_clean());
    }

    #[test]
    fn reliable_stream_terminates_even_at_full_drop_rate() {
        // Every chaos round drops everything; the bounded fault-free round
        // must still deliver.
        let cfg = ChaosConfig {
            drop_prob: 1.0,
            dup_prob: 0.0,
            hold_prob: 0.0,
            max_hold: 0,
            crash_prob: 0.0,
            max_crashes: 0,
        };
        let p = plan(cfg);
        let sup = SupervisorConfig { max_repair_rounds: 3, ..SupervisorConfig::default() };
        let (got, stats) = reliable_stream("t", (0..50u32).collect(), Some(&p), &sup);
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
        assert_eq!(stats.repair_rounds, 3);
        assert_eq!(stats.dropped, 150);
    }
}
