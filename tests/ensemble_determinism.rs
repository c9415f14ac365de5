//! Determinism under parallelism — the ensemble engine's core contract.
//!
//! The executor may only change *which thread* runs a scenario, never a
//! single output bit: per-scenario RNG streams are keyed by scenario
//! index, results land in index-ordered slots, and every reduction folds
//! those slots sequentially. These tests pin that contract at the twin's
//! hottest ensemble path (§IV Monte-Carlo UQ) and check that a panicking
//! scenario propagates to the caller instead of wedging the pool.

use exadigit_raps::config::SystemConfig;
use exadigit_raps::job::Job;
use exadigit_raps::uq::{run_ensemble, UqPerturbations, UqSummary};
use exadigit_sim::EnsembleRunner;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a-64 (see `fnv_bits`) of every number of the 64-draw summary.
const PIN_UQ_SUMMARY: u64 = 0xe9d2_23cb_0cf0_1200;

/// FNV-1a-64 over the little-endian bytes of every value's `to_bits`.
fn fnv_bits(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn tiny_system() -> SystemConfig {
    let mut cfg = SystemConfig::frontier();
    cfg.partitions[0].nodes = 256;
    cfg.cooling.num_cdus = 1;
    cfg.cooling.racks_per_cdu = 2;
    cfg
}

fn run_uq(threads: usize) -> UqSummary {
    let cfg = tiny_system();
    let jobs = vec![Job::new(1, "load", 128, 900, 1, 0.8, 0.8)];
    let runner = EnsembleRunner::new(2024).threads(threads);
    run_ensemble(&runner, &cfg, &jobs, 900, 64, &UqPerturbations::default())
}

/// Bit-compare two summaries field by field, so a failure names the first
/// quantity that drifted rather than dumping two whole structs.
fn assert_bits_identical(seq: &UqSummary, par: &UqSummary, width: usize) {
    let pairs = [
        ("power_mean_mw", seq.power_mean_mw, par.power_mean_mw),
        ("power_std_mw", seq.power_std_mw, par.power_std_mw),
        ("power_ci90_lo", seq.power_ci90_mw.0, par.power_ci90_mw.0),
        ("power_ci90_hi", seq.power_ci90_mw.1, par.power_ci90_mw.1),
        ("loss_mean_mw", seq.loss_mean_mw, par.loss_mean_mw),
        ("loss_std_mw", seq.loss_std_mw, par.loss_std_mw),
        ("loss_ci90_lo", seq.loss_ci90_mw.0, par.loss_ci90_mw.0),
        ("loss_ci90_hi", seq.loss_ci90_mw.1, par.loss_ci90_mw.1),
    ];
    for (name, a, b) in pairs {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} drifted at pool width {width}: {a} vs {b}"
        );
    }
    assert_eq!(seq.raw.len(), par.raw.len());
    for (i, (a, b)) in seq.raw.iter().zip(&par.raw).enumerate() {
        assert_eq!(
            a.avg_power_mw.to_bits(),
            b.avg_power_mw.to_bits(),
            "member {i} power drifted at pool width {width}"
        );
        assert_eq!(
            a.energy_mwh.to_bits(),
            b.energy_mwh.to_bits(),
            "member {i} energy drifted at pool width {width}"
        );
    }
}

#[test]
fn uq_64_draws_bit_identical_on_1_and_n_threads() {
    let seq = run_uq(1);
    assert_eq!(seq.members, 64);
    let pin = fnv_bits(
        [
            seq.members as f64,
            seq.power_mean_mw,
            seq.power_std_mw,
            seq.power_ci90_mw.0,
            seq.power_ci90_mw.1,
            seq.loss_mean_mw,
            seq.loss_std_mw,
            seq.loss_ci90_mw.0,
            seq.loss_ci90_mw.1,
        ]
        .into_iter()
        .chain(seq.raw.iter().flat_map(|m| [m.avg_power_mw, m.avg_loss_mw, m.energy_mwh])),
    );
    assert_eq!(pin, PIN_UQ_SUMMARY, "UQ summary moved: {pin:#018x}");
    for width in [2usize, 3, 4, 8] {
        let par = run_uq(width);
        assert_bits_identical(&seq, &par, width);
    }
}

#[test]
fn panic_in_worker_propagates_to_caller() {
    let runner = EnsembleRunner::new(0).threads(4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        runner.run_draws(32, |ctx| {
            if ctx.index == 13 {
                panic!("scenario 13 failed");
            }
            ctx.index
        })
    }));
    let payload = result.expect_err("a panicking scenario must fail the batch");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "scenario 13 failed");
}

#[test]
fn pool_is_reusable_after_a_panicked_batch() {
    let runner = EnsembleRunner::new(0).threads(4);
    let _ = catch_unwind(AssertUnwindSafe(|| {
        runner.run_draws(8, |_| -> usize { panic!("poison attempt") })
    }));
    // The pool must come back clean: full batch, right values, right order.
    let after = runner.run_draws(100, |ctx| ctx.index * 2);
    assert_eq!(after, (0..100).map(|i| i * 2).collect::<Vec<_>>());
}
