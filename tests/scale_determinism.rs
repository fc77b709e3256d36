//! Scale-parameterized determinism: the byte-equality contract holds at
//! sweep scale, not just on toy feeds.
//!
//! The tier-1 cell runs the longitudinal pipeline at the sweep's 15k
//! target (divisor 269) and byte-compares jobs=1 against jobs=8 and a
//! chaos run against the fault-free run. The 150k and 1.5M cells are the
//! same check at `repro bench --scale-sweep`'s heavy scales, gated behind
//! `DNSIMPACT_SCALE_HEAVY=1` / `=2` (they are minutes of debug-build work,
//! and the release-built sweep already enforces the same fingerprints on
//! every run that emits a report).

use bench_support::divisor_for_target;
use dnsimpact::prelude::*;
use dnsimpactd::index::FnvWriter;
use scenarios::{paper_longitudinal_config, world, PaperScale, WorldConfig};
use std::fmt::Write as _;

/// Run the pinned longitudinal pipeline at a sweep scale target and
/// fingerprint every deterministic artifact layer: the episode CSV, the
/// joined events, the impact rows (f64 bits included via `Debug`), and
/// the monthly table.
fn run_at(scale_target: u64, jobs: usize, chaos_seed: Option<u64>) -> (String, String, String) {
    let rngs = RngFactory::new(42);
    let built = world::build(
        &WorldConfig { providers: 20, domains: 6_000, ..WorldConfig::default() },
        &rngs,
    );
    let cfg = paper_longitudinal_config(PaperScale { divisor: divisor_for_target(scale_target) });
    let months = cfg.months.clone();
    let attacks = AttackScheduler::new(cfg).generate(&built.target_pool(), &rngs);
    let mut config = LongitudinalConfig { jobs, ..LongitudinalConfig::default() };
    config.impact.chaos_seed = chaos_seed;
    let report = run_longitudinal(
        &built.infra,
        &Darknet::ucsd_like(),
        &attacks,
        &months,
        &built.meta,
        &config,
        &rngs,
    );
    (
        report.feed.episodes_csv(),
        format!("{:?}", report.dns_events),
        format!("{:?}{:?}", report.impacts, report.monthly),
    )
}

/// FNV-1a over the three artifact layers `run_at` returns.
fn artifact_fingerprint(artifacts: &(String, String, String)) -> u64 {
    let mut w = FnvWriter::new();
    write!(w, "{}|{}|{}", artifacts.0, artifacts.1, artifacts.2).expect("hashing never fails");
    w.finish()
}

fn assert_scale_deterministic(scale_target: u64) -> (String, String, String) {
    let base = run_at(scale_target, 1, None);
    assert!(!base.0.is_empty(), "scale {scale_target} produced episodes");

    let par = run_at(scale_target, 8, None);
    assert_eq!(base.0, par.0, "episode CSV differs across jobs at scale {scale_target}");
    assert_eq!(base.1, par.1, "joined events differ across jobs at scale {scale_target}");
    assert_eq!(base.2, par.2, "impacts/monthly differ across jobs at scale {scale_target}");

    let chaos = run_at(scale_target, 8, Some(1337));
    assert_eq!(base.0, chaos.0, "chaos changed the episode CSV at scale {scale_target}");
    assert_eq!(base.1, chaos.1, "chaos changed the joined events at scale {scale_target}");
    assert_eq!(base.2, chaos.2, "chaos changed the impacts at scale {scale_target}");
    base
}

fn heavy_level() -> u64 {
    match std::env::var("DNSIMPACT_SCALE_HEAVY").ok().as_deref() {
        None | Some("") | Some("0") => 0,
        Some("1") => 1,
        Some(_) => 2,
    }
}

/// The 15k artifacts are also pinned to what the pipeline produced
/// before its simulation front was sharded: jobs and chaos invariance
/// alone could not show that the artifacts themselves never changed.
#[test]
fn sweep_scale_15k_is_jobs_and_chaos_invariant() {
    let base = assert_scale_deterministic(15_000);
    assert_eq!(artifact_fingerprint(&base), 0x74ad_a70b_5d78_b7c6, "15k artifacts changed");
}

#[test]
fn sweep_scale_150k_is_jobs_and_chaos_invariant_heavy() {
    if heavy_level() < 1 {
        eprintln!("skipped: set DNSIMPACT_SCALE_HEAVY=1 to run the 150k cell");
        return;
    }
    let _ = assert_scale_deterministic(150_000);
}

#[test]
fn sweep_scale_1m5_is_jobs_and_chaos_invariant_heavy() {
    if heavy_level() < 2 {
        eprintln!("skipped: set DNSIMPACT_SCALE_HEAVY=2 to run the 1.5M cell");
        return;
    }
    let _ = assert_scale_deterministic(1_500_000);
}
