//! Fidelity-backend guarantees.
//!
//! 1. **Golden equivalence**: routing the L4 plant through the
//!    `CoolingBackend` layer must be a pure refactor — bit-identical
//!    (`f64::to_bits`) to the pre-refactor direct coupling on a pinned
//!    short Frontier run. The fixture below was captured from the seed
//!    code path (`with_cooling: true`) immediately before the backend
//!    layer was introduced; if it ever drifts, the refactor has changed
//!    the physics, not just the plumbing.
//! 2. **L3/L4 agreement**: inside the surrogate's training envelope the
//!    L3 backend must track the L4 plant's PUE; outside it,
//!    extrapolation must be detected and counted, never fatal.

use exadigit_core::whatif::{whatif_grid, Fidelity, WhatIfGrid};
use exadigit_core::{CoolingBackend, DigitalTwin, SurrogateSource, TwinConfig};
use exadigit_raps::job::Job;
use exadigit_telemetry::replay::CoolingTrace;

/// FNV-1a-64 pins (see `fnv_bits`) of the training samples and the L3/L4
/// grids of `l3_tracks_l4_inside_envelope_and_detects_extrapolation_outside`,
/// and of the offline-settled reference of the online-trainer test.
const PIN_SAMPLES_AND_GRIDS: u64 = 0xa603_cd3e_44bf_bd7b;
const PIN_SETTLED_REFERENCE: u64 = 0x9fb1_2792_27b4_56b4;

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

/// Every number of a what-if grid, extrapolation flags included.
fn grid_numbers(grid: &WhatIfGrid) -> Vec<f64> {
    let mut v: Vec<f64> = grid
        .points
        .iter()
        .flat_map(|p| {
            [p.load_fraction, p.wet_bulb_c, p.pue, p.cooling_power_w, p.extrapolated as u8 as f64]
        })
        .collect();
    v.push(grid.extrapolations as f64);
    v
}

/// PUE every 15 s over the golden run, as `f64::to_bits`, captured from
/// the pre-refactor `with_cooling: true` path.
const GOLDEN_PUE_BITS: [u64; 40] = [
    0x3ff069dc11df6015,
    0x3ff0695b8296fd59,
    0x3ff068a29587ef06,
    0x3ff0680dd50063a1,
    0x3ff06780948417a3,
    0x3ff0670123d19274,
    0x3ff06684230babfd,
    0x3ff0660f54983451,
    0x3ff065a058e69fc5,
    0x3ff06537e8a2cf42,
    0x3ff064d60e27e40f,
    0x3ff0647acc7123ca,
    0x3ff06425cb4ed295,
    0x3ff063d6d0ae2394,
    0x3ff0638dc185eec7,
    0x3ff0634a84581b6f,
    0x3ff0630d01e5d0f5,
    0x3ff062d514f26408,
    0x3ff062a28bedb8c7,
    0x3ff062752cf1c438,
    0x3ff0624cb24a9282,
    0x3ff06228d200bb8b,
    0x3ff0620934527f1b,
    0x3ff061ed8110ffab,
    0x3ff061d55bdacbe4,
    0x3ff061c0676ca5dd,
    0x3ff061ae45a047b5,
    0x3ff0619e994848af,
    0x3ff0619106f82958,
    0x3ff06185365844cd,
    0x3ff09701266a1e54,
    0x3ff0962529e0193a,
    0x3ff0958152dfe318,
    0x3ff095149e6341bf,
    0x3ff094b15be04c75,
    0x3ff09184d4025c9b,
    0x3ff090307548dd87,
    0x3ff0901ebe003967,
    0x3ff08fc32a85f36f,
    0x3ff08f78d2eac933,
];

/// System power every 15 s over the golden run (`f64::to_bits`). The
/// workload holds one plateau while the job runs, then drops to idle —
/// the bits must match exactly, including the transition sample.
const GOLDEN_POWER_BITS: [u64; 2] = [
    0x416561ed7623a5f5, // loaded plateau (samples 0..30)
    0x415b9b4dac7f6c1e, // idle tail (samples 30..40)
];

const GOLDEN_SUPPLY_TEMP_BITS: u64 = 0x403f227af42bf6fa;
const GOLDEN_COOLING_POWER_BITS: u64 = 0x411a4d23751b3691;

/// The golden run: Frontier L4 twin, one 450 s / 2048-node job, 600 s.
fn golden_run(cooling: CoolingBackend) -> DigitalTwin {
    let cfg = TwinConfig::frontier().with_backend(cooling);
    let mut twin = DigitalTwin::new(cfg).unwrap();
    twin.submit(vec![Job::new(1, "golden", 2048, 450, 5, 0.7, 0.9)]);
    twin.run(600).unwrap();
    twin
}

#[test]
fn l4_backend_bit_identical_to_pre_refactor_coupling() {
    let twin = golden_run(CoolingBackend::Plant);
    let out = twin.outputs();

    assert_eq!(out.pue.len(), GOLDEN_PUE_BITS.len());
    for (i, (v, pinned)) in out.pue.samples().zip(&GOLDEN_PUE_BITS).enumerate() {
        assert_eq!(
            v.to_bits(),
            *pinned,
            "pue sample {i}: {v} != pinned {}",
            f64::from_bits(*pinned)
        );
    }
    assert_eq!(out.system_power_w.len(), 40);
    for (i, v) in out.system_power_w.samples().enumerate() {
        let pinned = if i < 30 { GOLDEN_POWER_BITS[0] } else { GOLDEN_POWER_BITS[1] };
        assert_eq!(v.to_bits(), pinned, "power sample {i}: {v}");
    }
    let t = twin.cooling_output("cdu[1].secondary_supply_temp").unwrap();
    assert_eq!(t.to_bits(), GOLDEN_SUPPLY_TEMP_BITS, "supply temp {t}");
    let cp = twin.cooling_output("cooling_power").unwrap();
    assert_eq!(cp.to_bits(), GOLDEN_COOLING_POWER_BITS, "cooling power {cp}");
}

#[test]
fn golden_workload_unchanged_without_cooling() {
    // The power side of the golden run must not depend on the backend at
    // all (cooling is one-way coupled: heat flows in, nothing back).
    let twin = golden_run(CoolingBackend::None);
    for (i, v) in twin.outputs().system_power_w.samples().enumerate() {
        let pinned = if i < 30 { GOLDEN_POWER_BITS[0] } else { GOLDEN_POWER_BITS[1] };
        assert_eq!(v.to_bits(), pinned, "power sample {i}: {v}");
    }
    assert!(twin.cooling_output("pue").is_none());
}

#[test]
fn replay_backend_rides_the_same_coupling() {
    // An L2 trace through the same golden run: power identical, PUE from
    // the trace instead of the plant.
    let trace = CoolingTrace::constant(1.08, 4.2e5);
    let twin = golden_run(CoolingBackend::Replay(trace));
    for (i, v) in twin.outputs().system_power_w.samples().enumerate() {
        let pinned = if i < 30 { GOLDEN_POWER_BITS[0] } else { GOLDEN_POWER_BITS[1] };
        assert_eq!(v.to_bits(), pinned, "power sample {i}: {v}");
    }
    assert_eq!(twin.cooling_output("pue"), Some(1.08));
    assert_eq!(twin.report().avg_pue, Some(1.08));
}

#[test]
fn l3_tracks_l4_inside_envelope_and_detects_extrapolation_outside() {
    use exadigit_core::surrogate::{generate_training_data, Surrogate};
    // Small plant for speed; train with the same settle protocol the L4
    // grid uses, inside one tower-staging regime (docs/FIDELITY.md).
    let spec = exadigit_cooling::PlantSpec::marconi100_like();
    let samples =
        generate_training_data(&spec, &[0.3, 0.6, 0.9], &[10.0, 14.0, 18.0], 400).unwrap();
    let sur = Surrogate::fit(&samples).unwrap();

    // Inside the envelope: L3 PUE within 0.01 of the L4 plant.
    let loads = [0.4, 0.75];
    let wbs = [11.0, 17.0];
    let l3 = whatif_grid(&spec, &Fidelity::Surrogate(sur.clone()), &loads, &wbs).unwrap();
    let l4 = whatif_grid(&spec, &Fidelity::Plant, &loads, &wbs).unwrap();
    assert_eq!(l3.extrapolations, 0);
    for (a, b) in l3.points.iter().zip(&l4.points) {
        assert!(
            (a.pue - b.pue).abs() < 0.01,
            "({}, {}): L3 {} vs L4 {}",
            a.load_fraction,
            a.wet_bulb_c,
            a.pue,
            b.pue
        );
    }

    // Outside it: answered, but flagged — never a panic.
    let outside =
        whatif_grid(&spec, &Fidelity::Surrogate(sur), &[0.6, 1.3], &[14.0, 30.0]).unwrap();
    assert_eq!(outside.extrapolations, 3, "three of four points lie outside the envelope");
    let pin = fnv_bits(
        samples
            .iter()
            .flat_map(|s| [s.load_fraction, s.wet_bulb_c, s.pue, s.cooling_power_w])
            .chain(grid_numbers(&l3))
            .chain(grid_numbers(&l4))
            .chain(grid_numbers(&outside)),
    );
    assert_eq!(pin, PIN_SAMPLES_AND_GRIDS, "training samples or grids moved: {pin:#018x}");
    assert!(outside.points.iter().all(|p| p.pue.is_finite()));
}

#[test]
fn surrogate_twin_counts_extrapolation_across_the_boundary() {
    use exadigit_core::surrogate::{Sample, Surrogate};
    // A surrogate trained only up to 40 % load; the golden workload
    // pushes past it, so every loaded cooling step is an extrapolation
    // and the counter must say so through the FMI boundary.
    let mut samples = Vec::new();
    for li in 0..4 {
        for wi in 0..4 {
            let l = 0.05 + 0.1 * li as f64; // envelope tops out at 0.35
            let w = 5.0 + 7.0 * wi as f64;
            samples.push(Sample {
                load_fraction: l,
                wet_bulb_c: w,
                pue: 1.04 + 0.02 * l,
                cooling_power_w: 3.0e5,
            });
        }
    }
    let sur = Surrogate::fit(&samples).unwrap();
    let twin = golden_run(CoolingBackend::Surrogate(SurrogateSource::Fitted(sur)));
    let count = twin.cooling_output("surrogate.extrapolation_count").unwrap();
    assert!(count > 0.0, "loaded run outside a 0.35-load envelope must be counted");
    // And the run still completed with finite outputs.
    assert!(twin.report().avg_pue.unwrap().is_finite());
}

#[test]
fn fitted_surrogate_config_round_trips_as_json() {
    use exadigit_core::surrogate::{Sample, Surrogate};
    let samples: Vec<Sample> = (0..9)
        .map(|i| Sample {
            load_fraction: 0.2 + 0.08 * i as f64,
            wet_bulb_c: 6.0 + 2.0 * i as f64,
            pue: 1.05 + 0.01 * i as f64,
            cooling_power_w: 1e5 + 1e4 * i as f64,
        })
        .collect();
    let sur = Surrogate::fit(&samples).unwrap();
    let cfg = TwinConfig::frontier()
        .with_backend(CoolingBackend::Surrogate(SurrogateSource::Fitted(sur)));
    let back = TwinConfig::from_json(&cfg.to_json()).unwrap();
    assert_eq!(cfg, back);
}

/// Online-trained L3 vs the L4 plant, golden-style: after watching a
/// steady operating point, the trainer's trusted fit must agree with
/// the offline settle protocol's steady-state PUE to < 0.01; a
/// wet-bulb excursion across the tower-staging cliff leaves the trusted
/// envelope and must fall back to the L4 plant — the fallback answer
/// *is* the plant's, bit for bit, never an extrapolated polynomial.
#[test]
fn online_trained_l3_agrees_with_l4_and_falls_back_across_the_staging_cliff() {
    use exadigit_core::online::{OnlineCoolingModel, OnlineSurrogateConfig};
    use exadigit_core::surrogate::generate_training_data;
    use exadigit_sim::fmi::{CoSimModel, VarRef};

    let spec = exadigit_cooling::PlantSpec::marconi100_like();
    let config = OnlineSurrogateConfig {
        min_samples: 10,
        steady_steps: 4,
        sample_stride: 1,
        refit_every: 10,
        fallback_settle_steps: 20,
        ..OnlineSurrogateConfig::default()
    };
    let mut online = OnlineCoolingModel::new(&spec, config).unwrap();
    online.setup(0.0);

    let n = spec.num_cdus;
    let drive = |m: &mut OnlineCoolingModel, load: f64, wb: f64, quanta: usize| {
        let heat = spec.heat_per_cdu_w() * load;
        for i in 0..n {
            m.set_real(VarRef(i as u32), heat).unwrap();
        }
        m.set_real(VarRef(n as u32), wb).unwrap();
        m.set_real(VarRef((n + 1) as u32), heat * n as f64 / 0.945).unwrap();
        for k in 0..quanta {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
    };

    // Hold one operating point until the regime earns trust.
    drive(&mut online, 0.6, 15.0, 150);
    assert!(online.trusted_regimes() >= 1, "steady plateau must earn trust");
    assert!(online.l3_steps() > 0, "trusted regime must serve L3");

    // Golden reference: the offline settle protocol at the same point.
    let reference =
        generate_training_data(&spec, &[0.6], &[15.0], 400).unwrap()[0].pue;
    let pin = fnv_bits([reference]);
    assert_eq!(pin, PIN_SETTLED_REFERENCE, "settled reference moved: {pin:#018x}");
    let pue_vr = online.var_by_name("pue").unwrap().vr;
    let online_pue = online.get_real(pue_vr).unwrap();
    assert!(
        (online_pue - reference).abs() < 0.01,
        "online L3 {online_pue} vs offline-settled L4 {reference}"
    );

    // Cross the staging cliff: a hot excursion leaves the trusted
    // envelope, so the trainer must pay L4 rather than extrapolate.
    let (l4_before, fb_before) = (online.l4_steps(), online.fallback_steps());
    drive(&mut online, 0.6, 26.0, 6);
    assert!(
        online.l4_steps() > l4_before,
        "a query outside the trained wet-bulb envelope must step the plant"
    );
    assert!(
        online.fallback_steps() > fb_before,
        "the excursion must be counted as a fallback"
    );
    // The fallback answer is the embedded plant's own output, verbatim.
    let plant_pue = online.plant().output_by_name("pue").unwrap();
    assert_eq!(online.get_real(pue_vr).unwrap().to_bits(), plant_pue.to_bits());
    assert!(plant_pue.is_finite() && plant_pue > 1.0);
}

/// The event kernel may collapse a steady gap's cooling quanta into one
/// `repeat_step` when the online backend is serving a trusted fit
/// (`CoSimModel::quasi_static`). That batching must be invisible: a
/// cooled replay through `run_until` must match the per-second loop
/// bit-for-bit — same PUE trace, same power series, same L3/L4 split —
/// across the whole train-then-serve arc.
#[test]
fn online_backend_event_kernel_matches_per_second_bit_for_bit() {
    use exadigit_core::online::{OnlineCoolingModel, OnlineSurrogateConfig};
    use exadigit_raps::config::SystemConfig;
    use exadigit_raps::power::PowerDelivery;
    use exadigit_raps::scheduler::Policy;
    use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation};
    use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};

    const HORIZON_S: u64 = 4 * 3_600;
    let spec = exadigit_cooling::PlantSpec::frontier();
    // Test-speed knobs: earn trust inside the horizon so the run covers
    // L4 training, the L3 switchover, and batched trusted gaps.
    let config = OnlineSurrogateConfig {
        min_samples: 10,
        steady_steps: 4,
        sample_stride: 1,
        refit_every: 10,
        fallback_settle_steps: 10,
        ..OnlineSurrogateConfig::default()
    };
    let jobs = WorkloadGenerator::new(
        WorkloadParams {
            runtime_mean_s: 2.0 * 3600.0,
            runtime_std_s: 0.5 * 3600.0,
            ..WorkloadParams::default()
        },
        41,
    )
    .generate_day(0);

    let run = |event_mode: bool| {
        let mut sim = RapsSimulation::new(
            SystemConfig::frontier(),
            PowerDelivery::StandardAC,
            Policy::FirstFit,
            15,
        );
        let model = OnlineCoolingModel::new(&spec, config.clone()).unwrap();
        let coupling =
            CoolingCoupling::attach(Box::new(model), spec.num_cdus).unwrap();
        sim.attach_cooling(coupling);
        sim.submit_jobs(jobs.clone());
        if event_mode {
            sim.run_until(HORIZON_S).unwrap();
        } else {
            sim.run_until_per_second(HORIZON_S).unwrap();
        }
        sim
    };
    let event = run(true);
    let tick = run(false);

    let read = |sim: &RapsSimulation, name: &str| {
        let model = sim.cooling_model().expect("cooling attached");
        let vr = model.var_by_name(name).expect("online local").vr;
        model.get_real(vr).unwrap()
    };
    // The arc actually exercised both fidelities and the batched path
    // has trusted gaps to collapse.
    assert!(read(&event, "online.l3_steps") > 0.0, "no trusted serving in the horizon");
    assert!(read(&event, "online.l4_steps") > 0.0, "no training in the horizon");
    for counter in ["online.l3_steps", "online.l4_steps", "online.fallback_steps"] {
        assert_eq!(
            read(&event, counter),
            read(&tick, counter),
            "kernels disagree on {counter}"
        );
    }
    let (oe, ot) = (event.outputs(), tick.outputs());
    assert_eq!(oe.pue.len(), ot.pue.len(), "pue sample counts differ");
    for (i, (a, b)) in oe.pue.samples().zip(ot.pue.samples()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pue sample {i} differs");
    }
    for (name, a, b) in [
        ("system_power_w", &oe.system_power_w, &ot.system_power_w),
        ("utilization", &oe.utilization, &ot.utilization),
    ] {
        assert_eq!(a.len(), b.len(), "{name} sample counts differ");
        for (i, (x, y)) in a.samples().zip(b.samples()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{name} sample {i} differs");
        }
    }
    assert_eq!(event.report().jobs_completed, tick.report().jobs_completed);
}
