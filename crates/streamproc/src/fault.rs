//! Deterministic fault injection ("chaos") for stream stages.
//!
//! The paper's production pipeline (Kafka + Spark + Flume, §4.3.1) is built
//! on the assumption that telemetry transport is lossy: records drop, arrive
//! twice, arrive out of order or long after their window's watermark, and
//! whole stages crash. This module injects exactly those faults — but
//! *deterministically*, from a [`FaultPlan`] derived off the experiment's
//! [`RngFactory`] — so a chaos run is reproducible bit-for-bit and the
//! recovery machinery in [`crate::supervise`] can be held to the invariant
//! *fault-free output ≡ faulted-and-recovered output*.
//!
//! Every fault decision is a pure function of `(plan seed, round, sequence
//! number)` or `(plan seed, task, attempt)` — never of thread timing — which
//! is what makes the injected schedule independent of `--jobs`.

use crate::exec::StageHandle;
use crate::topic::{Consumer, Topic};
use simcore::rng::{hash_label, splitmix64, RngFactory};

/// A sequence-numbered envelope: the unit of at-least-once delivery.
///
/// Sequence numbers are assigned once, at the stream source, and survive
/// duplication/reordering so sinks can dedup and restore order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seq<T> {
    pub seq: u64,
    pub payload: T,
}

/// Stamp a batch with consecutive sequence numbers starting at 0.
pub fn seq_stamp<T>(items: impl IntoIterator<Item = T>) -> Vec<Seq<T>> {
    items.into_iter().enumerate().map(|(i, payload)| Seq { seq: i as u64, payload }).collect()
}

/// What the chaos layer does to one delivered record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Drop on the floor (a repair round must retransmit it).
    Drop,
    /// Deliver twice back-to-back (sinks must dedup).
    Duplicate,
    /// Hold back until `lag` further records have passed, then deliver late
    /// — past the watermark if the stream ends first.
    Hold(u32),
}

/// Fault intensity knobs. All probabilities are per-record (or per-attempt
/// for `crash_prob`).
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    pub drop_prob: f64,
    pub dup_prob: f64,
    pub hold_prob: f64,
    /// Maximum records a held message waits before late delivery.
    pub max_hold: u32,
    /// Probability that a task attempt is crashed before finishing.
    pub crash_prob: f64,
    /// Hard cap on planned crashes per task, so the supervisor's bounded
    /// restart budget always suffices and chaos runs always terminate.
    pub max_crashes: u32,
}

impl ChaosConfig {
    /// No faults at all (a plan with this config is a no-op).
    pub const DISABLED: ChaosConfig = ChaosConfig {
        drop_prob: 0.0,
        dup_prob: 0.0,
        hold_prob: 0.0,
        max_hold: 0,
        crash_prob: 0.0,
        max_crashes: 0,
    };

    /// The default intensity for stream transports and coarse-grained task
    /// sets (e.g. the experiment catalog): every fault class fires visibly
    /// on streams of a few hundred records.
    pub const CALIBRATED: ChaosConfig = ChaosConfig {
        drop_prob: 0.06,
        dup_prob: 0.06,
        hold_prob: 0.08,
        max_hold: 12,
        crash_prob: 0.6,
        max_crashes: 2,
    };

    /// A sparse profile for very large task sets (e.g. per-cell measurement
    /// tasks), where per-task restart backoff would otherwise dominate the
    /// wall clock.
    pub const SPARSE: ChaosConfig = ChaosConfig {
        drop_prob: 0.02,
        dup_prob: 0.02,
        hold_prob: 0.03,
        max_hold: 8,
        crash_prob: 0.01,
        max_crashes: 1,
    };
}

/// A deterministic schedule of faults for one named stage/transport.
///
/// The plan is `Copy` and carries only a seed + config; all decisions are
/// recomputed on demand from hashes, so plans can be shared freely across
/// worker threads without any state.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    seed: u64,
    pub cfg: ChaosConfig,
}

impl FaultPlan {
    /// Derive the plan for the stage named `stage` from an experiment RNG
    /// factory. Distinct stages get independent fault schedules.
    pub fn new(rngs: &RngFactory, stage: &str, cfg: ChaosConfig) -> FaultPlan {
        FaultPlan { seed: rngs.fork_indexed("chaos", hash_label(stage)).seed(), cfg }
    }

    /// Convenience: derive from a bare chaos seed (the `--chaos-seed` flag).
    pub fn from_seed(chaos_seed: u64, stage: &str, cfg: ChaosConfig) -> FaultPlan {
        FaultPlan::new(&RngFactory::new(chaos_seed), stage, cfg)
    }

    /// A sub-plan for the `idx`-th logical sub-stream of this stage.
    pub fn for_substream(&self, idx: u64) -> FaultPlan {
        FaultPlan {
            seed: RngFactory::new(self.seed).fork_indexed("chaos-substream", idx).seed(),
            cfg: self.cfg,
        }
    }

    /// A uniform draw in `[0, 1)`, pure in `(seed, tag, a, b)`.
    fn unit(&self, tag: u64, a: u64, b: u64) -> f64 {
        let mut s = self.seed
            ^ tag
            ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The fault applied to sequence number `seq` during delivery round
    /// `round` (repair rounds re-roll, so a record dropped in round 0 is
    /// usually delivered in round 1).
    pub fn action(&self, round: u64, seq: u64) -> FaultAction {
        let c = self.cfg;
        let u = self.unit(hash_label("action"), round, seq);
        if u < c.drop_prob {
            FaultAction::Drop
        } else if u < c.drop_prob + c.dup_prob {
            FaultAction::Duplicate
        } else if u < c.drop_prob + c.dup_prob + c.hold_prob && c.max_hold > 0 {
            let lag = 1 + (self.unit(hash_label("hold"), round, seq) * c.max_hold as f64) as u32;
            FaultAction::Hold(lag)
        } else {
            FaultAction::Deliver
        }
    }

    /// How many attempts of logical task `task` are crashed before one
    /// is allowed to finish. Always `<= cfg.max_crashes`, so a supervisor
    /// with `max_restarts >= max_crashes` is guaranteed to terminate.
    pub fn planned_crashes(&self, task: u64) -> u32 {
        let mut n = 0;
        while n < self.cfg.max_crashes
            && self.unit(hash_label("crash"), task, n as u64) < self.cfg.crash_prob
        {
            n += 1;
        }
        n
    }
}

/// Marker payload carried by injected panics, so supervisors (and tests)
/// can tell a planned chaos crash from a real stage failure.
#[derive(Clone, Copy, Debug)]
pub struct InjectedCrash;

/// Unwind with an [`InjectedCrash`] payload. Uses `resume_unwind` rather
/// than `panic!` so the process-global panic hook stays quiet — injected
/// crashes are expected and would otherwise spam stderr on every chaos run.
pub fn injected_crash() -> ! {
    obs::counter("chaos.crashes_injected").incr();
    obs::counter("chaos.faults_injected").incr();
    std::panic::resume_unwind(Box::new(InjectedCrash))
}

/// Spawn a chaos transport stage: applies the plan's per-record fault
/// actions to a sequence-stamped stream. Held records are delivered late
/// (after `lag` subsequent deliveries, or at end-of-stream past the
/// watermark); drops simply vanish, for a repair round to retransmit.
///
/// The stage is single-threaded and keyed purely by `(round, seq)`, so its
/// output for a given input batch is deterministic.
pub fn spawn_chaos_stage<T>(
    name: &str,
    plan: FaultPlan,
    round: u64,
    input: Consumer<Seq<T>>,
    out: Topic<Seq<T>>,
) -> StageHandle
where
    T: Clone + Send + 'static,
{
    let site = name.to_string();
    StageHandle::spawn(&format!("chaos:{name}"), move || {
        // Fault accounting (out-of-band, see `obs`): injections counted
        // here at the moment each fault is applied; repairs counted where
        // the recovery machinery undoes them — holds at release (below),
        // drops at retransmission, duplicates at sink dedup, crashes at
        // supervisor restart. For a completed run every class balances, so
        // `chaos.faults_repaired == chaos.faults_injected` exactly. Trace
        // events mirror the counters with matching detail keys, so
        // `obs::trace::check_causality` can pair each injection with its
        // repair per `(site, detail)`.
        let injected = obs::counter("chaos.faults_injected");
        let repaired = obs::counter("chaos.faults_repaired");
        let mut emitted = 0u64;
        let mut held: Vec<(u32, Seq<T>)> = Vec::new();
        while let Some(msg) = input.recv() {
            match plan.action(round, msg.seq) {
                FaultAction::Deliver => {
                    out.publish(msg);
                    emitted += 1;
                }
                FaultAction::Drop => {
                    obs::counter("chaos.drops_injected").incr();
                    injected.incr();
                    obs::trace::emit(
                        obs::EventKind::FaultInjected,
                        &site,
                        None,
                        None,
                        format!("drop seq={}", msg.seq),
                        None,
                    );
                }
                FaultAction::Duplicate => {
                    obs::counter("chaos.dups_injected").incr();
                    injected.incr();
                    obs::trace::emit(
                        obs::EventKind::FaultInjected,
                        &site,
                        None,
                        None,
                        format!("dup seq={}", msg.seq),
                        None,
                    );
                    out.publish(msg.clone());
                    out.publish(msg);
                    emitted += 2;
                }
                FaultAction::Hold(lag) => {
                    obs::counter("chaos.holds_injected").incr();
                    injected.incr();
                    obs::trace::emit(
                        obs::EventKind::FaultInjected,
                        &site,
                        None,
                        None,
                        format!("hold seq={}", msg.seq),
                        Some(lag as u64),
                    );
                    held.push((lag, msg));
                }
            }
            // Age held records; release the due ones (late, out of order).
            let mut due = Vec::new();
            held.retain_mut(|h| {
                h.0 -= 1;
                if h.0 == 0 {
                    due.push(h.1.clone());
                    false
                } else {
                    true
                }
            });
            for m in due {
                obs::counter("chaos.holds_repaired").incr();
                repaired.incr();
                obs::trace::emit(
                    obs::EventKind::FaultRepaired,
                    &site,
                    None,
                    None,
                    format!("hold seq={}", m.seq),
                    None,
                );
                out.publish(m);
                emitted += 1;
            }
        }
        // End of input: whatever is still held arrives past the stream's
        // watermark, in (remaining lag, seq) order.
        held.sort_by_key(|(lag, m)| (*lag, m.seq));
        for (_, m) in held {
            obs::counter("chaos.holds_repaired").incr();
            repaired.incr();
            obs::trace::emit(
                obs::EventKind::FaultRepaired,
                &site,
                None,
                None,
                format!("hold seq={}", m.seq),
                None,
            );
            out.publish(m);
            emitted += 1;
        }
        out.close();
        emitted
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::sink_to_vec;

    fn plan(cfg: ChaosConfig) -> FaultPlan {
        FaultPlan::new(&RngFactory::new(7), "test-stage", cfg)
    }

    #[test]
    fn actions_are_deterministic_and_varied() {
        let p = plan(ChaosConfig::CALIBRATED);
        let a: Vec<FaultAction> = (0..500).map(|s| p.action(0, s)).collect();
        let b: Vec<FaultAction> = (0..500).map(|s| p.action(0, s)).collect();
        assert_eq!(a, b, "same plan, same decisions");
        assert!(a.contains(&FaultAction::Drop));
        assert!(a.contains(&FaultAction::Duplicate));
        assert!(a.iter().any(|x| matches!(x, FaultAction::Hold(_))));
        assert!(a.contains(&FaultAction::Deliver));
        // Repair rounds re-roll: round 1 differs from round 0.
        let r1: Vec<FaultAction> = (0..500).map(|s| p.action(1, s)).collect();
        assert_ne!(a, r1);
    }

    #[test]
    fn distinct_stages_get_distinct_schedules() {
        let rngs = RngFactory::new(7);
        let a = FaultPlan::new(&rngs, "stage-a", ChaosConfig::CALIBRATED);
        let b = FaultPlan::new(&rngs, "stage-b", ChaosConfig::CALIBRATED);
        let sa: Vec<FaultAction> = (0..200).map(|s| a.action(0, s)).collect();
        let sb: Vec<FaultAction> = (0..200).map(|s| b.action(0, s)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn planned_crashes_are_bounded() {
        let p = plan(ChaosConfig::CALIBRATED);
        for task in 0..200 {
            assert!(p.planned_crashes(task) <= ChaosConfig::CALIBRATED.max_crashes);
        }
        assert!(
            (0..200).any(|t| p.planned_crashes(t) > 0),
            "calibrated profile crashes some tasks"
        );
    }

    #[test]
    fn disabled_config_is_a_no_op() {
        let p = plan(ChaosConfig::DISABLED);
        assert!((0..1000).all(|s| p.action(0, s) == FaultAction::Deliver));
        assert!((0..1000).all(|t| p.planned_crashes(t) == 0));
    }

    #[test]
    fn chaos_stage_drops_dups_and_reorders_deterministically() {
        let run = || {
            let p = plan(ChaosConfig::CALIBRATED);
            let src: Topic<Seq<u64>> = Topic::new("src");
            let out: Topic<Seq<u64>> = Topic::new("out");
            let stage = spawn_chaos_stage("t", p, 0, src.subscribe(), out.clone());
            let sink = sink_to_vec(out.subscribe());
            for m in seq_stamp(0..400u64) {
                src.publish(m);
            }
            src.close();
            stage.join();
            sink.join().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "chaos stage output is reproducible");
        let seqs: Vec<u64> = a.iter().map(|m| m.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        sorted.dedup();
        assert!(sorted.len() < 400, "some records dropped");
        assert!(seqs.len() > sorted.len(), "some records duplicated");
        assert!(seqs.windows(2).any(|w| w[0] > w[1]), "some records reordered");
        // Payloads survive intact.
        assert!(a.iter().all(|m| m.payload == m.seq));
    }

    #[test]
    fn held_records_flush_at_end_of_stream() {
        // With hold probability 1 everything is held and must still come out.
        let cfg = ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            hold_prob: 1.0,
            max_hold: 100,
            crash_prob: 0.0,
            max_crashes: 0,
        };
        let p = plan(cfg);
        let src: Topic<Seq<u32>> = Topic::new("src");
        let out: Topic<Seq<u32>> = Topic::new("out");
        let stage = spawn_chaos_stage("t", p, 0, src.subscribe(), out.clone());
        let sink = sink_to_vec(out.subscribe());
        for m in seq_stamp(0..20u32) {
            src.publish(m);
        }
        src.close();
        stage.join();
        let mut got: Vec<u64> = sink.join().unwrap().iter().map(|m| m.seq).collect();
        got.sort();
        assert_eq!(got, (0..20).collect::<Vec<u64>>(), "nothing lost to the watermark");
    }
}
