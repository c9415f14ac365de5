//! Observability is simulation-inert: attaching metrics, leaving them
//! detached, or hammering the shared counters from contender threads
//! while the twin runs must leave every simulated `f64` bit-identical.
//!
//! This is the hard constraint behind the whole `exadigit_obs` layer —
//! counters are diagnostics, never state. A twin that drifts by one ULP
//! when someone scrapes `/metrics` is a broken scientific instrument.

use exadigit_core::online::OnlineSurrogateConfig;
use exadigit_core::{CoolingBackend, DigitalTwin, TwinConfig};
use exadigit_raps::metrics::KernelMetrics;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::stats::RunReport;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How the metrics handles are wired for one run.
enum Wiring {
    /// Fresh twin, no `set_kernel_metrics` call at all.
    Detached,
    /// Counters attached before the run.
    Attached,
    /// Counters attached, plus contender threads incrementing and
    /// reading the *same* shared atomics for the whole run.
    Contended,
}

fn run_recorded(
    cfg: TwinConfig,
    seed: u64,
    horizon: u64,
    wiring: Wiring,
) -> (RunReport, Vec<f64>, Option<f64>, KernelMetrics) {
    let mut twin = DigitalTwin::new(cfg).unwrap();
    let metrics = KernelMetrics::new();
    match wiring {
        Wiring::Detached => {}
        Wiring::Attached | Wiring::Contended => twin.set_kernel_metrics(metrics.clone()),
    }
    let mut generator = WorkloadGenerator::new(WorkloadParams::default(), seed);
    twin.submit(generator.generate_day(0));

    contend(&metrics, &wiring, || twin.run(horizon).unwrap());

    let pue = twin.cooling_output("pue");
    (twin.report(), twin.outputs().system_power_w.to_vec(), pue, metrics)
}

/// Run `work`; under [`Wiring::Contended`], with contender threads
/// incrementing and reading the shared atomics the whole time.
fn contend<R>(metrics: &KernelMetrics, wiring: &Wiring, work: impl FnOnce() -> R) -> R {
    let stop = Arc::new(AtomicBool::new(false));
    let contenders: Vec<_> = if matches!(wiring, Wiring::Contended) {
        (0..3)
            .map(|_| {
                let shared = metrics.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // Do-while: at least one hammer pass even if the run
                    // finishes before this thread is first scheduled
                    // (single-core CI).
                    let mut checksum = 0u64;
                    loop {
                        shared.job_arrivals.inc();
                        shared.gaps_batched.inc();
                        shared.samples_backfilled.add(7);
                        shared.power_lanes.inc();
                        checksum = checksum
                            .wrapping_add(shared.job_arrivals.get())
                            .wrapping_add(shared.cooling_quanta.get());
                        if stop.load(Ordering::Relaxed) {
                            break checksum;
                        }
                    }
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    let out = work();
    stop.store(true, Ordering::Relaxed);
    for handle in contenders {
        assert!(handle.join().unwrap() > 0, "contenders really ran");
    }
    out
}

fn assert_bit_identical(label: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{label}: series lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: sample {i}: {x} vs {y}");
    }
}

fn assert_pue_bit_identical(label: &str, a: Option<f64>, b: Option<f64>) {
    match (a, b) {
        (Some(x), Some(y)) => assert_eq!(x.to_bits(), y.to_bits(), "{label}: pue {x} vs {y}"),
        (x, y) => assert_eq!(x, y, "{label}: pue presence differs"),
    }
}

/// Power-only twin: detached, attached, and contended runs agree to the
/// bit, and the attached run's counters prove the instruments engaged.
#[test]
fn power_only_twin_is_bit_identical_across_metric_wirings() {
    let cfg = || TwinConfig::frontier_power_only();
    let (r_off, p_off, pue_off, _) = run_recorded(cfg(), 91, 7_200, Wiring::Detached);
    let (r_on, p_on, pue_on, metrics) = run_recorded(cfg(), 91, 7_200, Wiring::Attached);
    let (r_hot, p_hot, pue_hot, _) = run_recorded(cfg(), 91, 7_200, Wiring::Contended);

    assert_eq!(r_off, r_on);
    assert_eq!(r_off, r_hot);
    assert_bit_identical("attached", &p_off, &p_on);
    assert_bit_identical("contended", &p_off, &p_hot);
    assert_pue_bit_identical("attached", pue_off, pue_on);
    assert_pue_bit_identical("contended", pue_off, pue_hot);

    // The inert run still counted: the lazy kernel engaged.
    assert!(metrics.job_arrivals.get() > 0, "arrivals counted");
    assert!(metrics.samples_backfilled.get() > 0, "backfill counted");
}

/// The online cooling backend exercises the deepest instrumented paths
/// (cooled quanta batching, surrogate promotion, fallback counters); it
/// too must be bit-for-bit indifferent to metric wiring.
#[test]
fn online_cooling_twin_is_bit_identical_across_metric_wirings() {
    let cfg = || {
        TwinConfig::frontier()
            .with_backend(CoolingBackend::Online(OnlineSurrogateConfig::default()))
    };
    let (r_off, p_off, pue_off, _) = run_recorded(cfg(), 17, 3_600, Wiring::Detached);
    let (r_on, p_on, pue_on, metrics) = run_recorded(cfg(), 17, 3_600, Wiring::Attached);
    let (r_hot, p_hot, pue_hot, _) = run_recorded(cfg(), 17, 3_600, Wiring::Contended);

    assert_eq!(r_off, r_on);
    assert_eq!(r_off, r_hot);
    assert_bit_identical("attached", &p_off, &p_on);
    assert_bit_identical("contended", &p_off, &p_hot);
    assert_pue_bit_identical("attached", pue_off, pue_on);
    assert_pue_bit_identical("contended", pue_off, pue_hot);

    assert!(metrics.cooling_quanta.get() + metrics.cooled_quanta_batched.get() > 0);
}

/// Power lanes are diagnostics-inert too: a lane run under every wiring
/// returns the same kernel and lane reports and the same series, and the
/// attached counters count each lane once.
#[test]
fn lane_runs_are_bit_identical_across_metric_wirings() {
    let run = |wiring: Wiring| {
        let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        let metrics = KernelMetrics::new();
        if !matches!(wiring, Wiring::Detached) {
            twin.set_kernel_metrics(metrics.clone());
        }
        twin.submit(WorkloadGenerator::new(WorkloadParams::default(), 23).generate_day(0));
        let system = twin.config.system.clone();
        let lanes = vec![
            (system.clone(), PowerDelivery::SmartRectifiers),
            (system, PowerDelivery::Direct380Vdc),
        ];
        let lane_reports =
            contend(&metrics, &wiring, || twin.raps_mut().run_until_with_lanes(5_400, lanes));
        let lane_reports = lane_reports.unwrap();
        (twin.report(), lane_reports, twin.outputs().system_power_w.to_vec(), metrics)
    };
    let (r_off, lanes_off, p_off, _) = run(Wiring::Detached);
    let (r_on, lanes_on, p_on, metrics) = run(Wiring::Attached);
    let (r_hot, lanes_hot, p_hot, _) = run(Wiring::Contended);
    assert_eq!(r_off, r_on);
    assert_eq!(r_off, r_hot);
    assert_eq!(lanes_off, lanes_on);
    assert_eq!(lanes_off, lanes_hot);
    assert_bit_identical("attached", &p_off, &p_on);
    assert_bit_identical("contended", &p_off, &p_hot);
    assert_eq!(metrics.power_lanes.get(), 2, "one count per lane per run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property form: any seed and horizon, same verdict. Power-only
    /// keeps the case budget affordable; the fixed tests above cover
    /// the coupled online backend.
    #[test]
    fn metric_wiring_never_perturbs_the_series(
        seed in 0u64..1_000,
        horizon in 600u64..5_400,
    ) {
        let cfg = || TwinConfig::frontier_power_only();
        let (r_off, p_off, pue_off, _) = run_recorded(cfg(), seed, horizon, Wiring::Detached);
        let (r_hot, p_hot, pue_hot, _) = run_recorded(cfg(), seed, horizon, Wiring::Contended);
        prop_assert_eq!(r_off, r_hot);
        prop_assert_eq!(p_off.len(), p_hot.len());
        for (a, b) in p_off.iter().zip(&p_hot) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        match (pue_off, pue_hot) {
            (Some(a), Some(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
            (a, b) => prop_assert_eq!(a, b),
        }
    }
}
