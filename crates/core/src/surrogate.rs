//! Machine-learned surrogate of the L4 simulation — the paper's L3 path.
//!
//! §III of the paper: "An alternative approach is to use the simulations
//! to generate data to train a machine-learned surrogate model, which has
//! the advantage of being able to run in real-time, but can also be used
//! to model virtual prototypes." This module implements exactly that
//! loop: sweep the coupled plant over (load fraction, wet-bulb) with the
//! comprehensive (L4) model, fit a ridge-regression polynomial surrogate,
//! and serve millisecond-scale predictions of PUE and cooling power.
//!
//! The paper also warns that L3 models "are fundamentally interpolative
//! and thus often do not extrapolate well" — [`Surrogate::in_domain`]
//! exposes the training envelope so callers can detect extrapolation.

use crate::whatif::settle_plant;
use exadigit_cooling::PlantSpec;
use exadigit_network::linalg::Matrix;
use exadigit_sim::fmi::{
    Causality, CoSimModel, FmiError, VarRef, VariableDescriptor, VariableRegistry,
};
use serde::{Deserialize, Serialize};

/// One training sample generated by the L4 simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Load fraction of plant design heat, 0..1.
    pub load_fraction: f64,
    /// Wet-bulb temperature, °C.
    pub wet_bulb_c: f64,
    /// Steady PUE from the simulation.
    pub pue: f64,
    /// Steady cooling auxiliary power, W.
    pub cooling_power_w: f64,
}

/// Quadratic feature map over (load, wet-bulb): [1, L, W, L², W², LW].
fn phi(load: f64, wb: f64) -> [f64; 6] {
    [1.0, load, wb, load * load, wb * wb, load * wb]
}

/// A ridge-regression surrogate for PUE and cooling power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Surrogate {
    pue_coeffs: [f64; 6],
    power_coeffs: [f64; 6],
    /// Training envelope: (min, max) of load fraction.
    pub load_range: (f64, f64),
    /// Training envelope: (min, max) of wet-bulb.
    pub wet_bulb_range: (f64, f64),
    /// Training RMSE of the PUE channel (cross-check for callers).
    pub pue_train_rmse: f64,
}

impl Surrogate {
    /// Fit a surrogate from samples (ridge λ keeps the normal equations
    /// well-posed for small sweeps).
    pub fn fit(samples: &[Sample]) -> Result<Self, String> {
        if samples.len() < 8 {
            return Err(format!("need at least 8 samples, got {}", samples.len()));
        }
        let lambda = 1e-8;
        let solve_channel = |targets: Vec<f64>| -> Result<[f64; 6], String> {
            // Normal equations: (ΦᵀΦ + λI) w = Φᵀ y.
            let mut ata = Matrix::zeros(6, 6);
            let mut aty = vec![0.0; 6];
            for (s, &y) in samples.iter().zip(&targets) {
                let f = phi(s.load_fraction, s.wet_bulb_c);
                for i in 0..6 {
                    for j in 0..6 {
                        ata[(i, j)] += f[i] * f[j];
                    }
                    aty[i] += f[i] * y;
                }
            }
            for i in 0..6 {
                ata[(i, i)] += lambda;
            }
            let w = ata.solve(&aty).ok_or("singular normal equations")?;
            Ok([w[0], w[1], w[2], w[3], w[4], w[5]])
        };
        let pue_coeffs = solve_channel(samples.iter().map(|s| s.pue).collect())?;
        let power_coeffs = solve_channel(samples.iter().map(|s| s.cooling_power_w).collect())?;

        let loads: Vec<f64> = samples.iter().map(|s| s.load_fraction).collect();
        let wbs: Vec<f64> = samples.iter().map(|s| s.wet_bulb_c).collect();
        let range = |v: &[f64]| {
            (
                v.iter().cloned().fold(f64::INFINITY, f64::min),
                v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        let mut this = Surrogate {
            pue_coeffs,
            power_coeffs,
            load_range: range(&loads),
            wet_bulb_range: range(&wbs),
            pue_train_rmse: 0.0,
        };
        let sq: f64 = samples
            .iter()
            .map(|s| (this.predict_pue(s.load_fraction, s.wet_bulb_c) - s.pue).powi(2))
            .sum();
        this.pue_train_rmse = (sq / samples.len() as f64).sqrt();
        Ok(this)
    }

    /// Predicted PUE at (load fraction, wet-bulb).
    pub fn predict_pue(&self, load: f64, wb: f64) -> f64 {
        let f = phi(load, wb);
        f.iter().zip(&self.pue_coeffs).map(|(a, b)| a * b).sum()
    }

    /// Predicted cooling auxiliary power (W).
    pub fn predict_cooling_power(&self, load: f64, wb: f64) -> f64 {
        let f = phi(load, wb);
        f.iter().zip(&self.power_coeffs).map(|(a, b)| a * b).sum()
    }

    /// True when the query lies inside the training envelope — outside it
    /// the L3 model extrapolates, which the paper warns against.
    pub fn in_domain(&self, load: f64, wb: f64) -> bool {
        (self.load_range.0..=self.load_range.1).contains(&load)
            && (self.wet_bulb_range.0..=self.wet_bulb_range.1).contains(&wb)
    }

    /// Check a fitted surrogate that may have come off the wire before it
    /// serves: its coefficients, training RMSE and envelope must be finite
    /// (a JSON `null` decodes to NaN), and each envelope range ordered.
    pub fn validate(&self) -> Result<(), String> {
        let (load, wb) = (self.load_range, self.wet_bulb_range);
        for (name, values) in [
            ("pue_coeffs", &self.pue_coeffs[..]),
            ("power_coeffs", &self.power_coeffs[..]),
            ("pue_train_rmse", &[self.pue_train_rmse][..]),
            ("load_range", &[load.0, load.1][..]),
            ("wet_bulb_range", &[wb.0, wb.1][..]),
        ] {
            if let Some(v) = values.iter().find(|v| !v.is_finite()) {
                return Err(format!("surrogate {name} must be finite, got {v}"));
            }
        }
        for (name, (min, max)) in [("load_range", load), ("wet_bulb_range", wb)] {
            if min > max {
                return Err(format!("surrogate {name} has min {min} above max {max}"));
            }
        }
        Ok(())
    }
}

/// Generate training samples by settling the L4 plant on a (load ×
/// wet-bulb) grid through the what-if studies' settle protocol,
/// `settle_steps` of 15 s each per point.
pub fn generate_training_data(
    spec: &PlantSpec,
    loads: &[f64],
    wet_bulbs: &[f64],
    settle_steps: usize,
) -> Result<Vec<Sample>, String> {
    let mut out = Vec::with_capacity(loads.len() * wet_bulbs.len());
    for &load in loads {
        for &wb in wet_bulbs {
            let c = settle_plant(spec, spec.heat_per_cdu_w() * load, wb, settle_steps)?;
            out.push(Sample {
                load_fraction: load,
                wet_bulb_c: wb,
                pue: c.pue,
                cooling_power_w: c.cooling_power_w,
            });
        }
    }
    Ok(out)
}

/// Train a PUE/cooling-power surrogate for a plant over the standard
/// operating envelope (4×4 grid by default).
pub fn train_default(spec: &PlantSpec) -> Result<Surrogate, String> {
    let loads = [0.2, 0.45, 0.7, 0.95];
    let wbs = [5.0, 12.0, 19.0, 26.0];
    let samples = generate_training_data(spec, &loads, &wbs, 300)?;
    Surrogate::fit(&samples)
}

/// The L3 cooling backend: a fitted [`Surrogate`] behind the same FMI
/// boundary as the L4 plant.
///
/// The registry exposes exactly the names
/// [`CoolingCoupling::attach`] resolves — `cdu_heat[i]`, `wet_bulb` and
/// `it_power` inputs, `pue` and `cooling_power` outputs — so
/// `RapsSimulation` needs no knowledge of the fidelity behind the
/// boundary. Each `do_step` converts the summed CDU heat into a load
/// fraction of plant design heat and serves the polynomial prediction.
///
/// The paper warns that L3 models "are fundamentally interpolative and
/// thus often do not extrapolate well": queries outside the training
/// envelope are still answered (extrapolated), but each one increments
/// the `surrogate.extrapolation_count` local variable — a counted
/// warning readable across the boundary, never a panic.
///
/// [`CoolingCoupling::attach`]: exadigit_raps::simulation::CoolingCoupling::attach
#[derive(Clone, Serialize, Deserialize)]
pub struct SurrogateCoolingModel {
    surrogate: Surrogate,
    /// Immutable after construction; forks share it by refcount.
    vars: std::sync::Arc<Vec<VariableDescriptor>>,
    values: Vec<f64>,
    /// Design heat of one CDU at load fraction 1, W.
    design_heat_per_cdu_w: f64,
    cdu_heat_w: Vec<f64>,
    wet_bulb_c: f64,
    extrapolations: u64,
}

impl SurrogateCoolingModel {
    /// Wrap a fitted surrogate for a system with `num_cdus` CDUs whose
    /// plant design heat is `design_heat_per_cdu_w` per CDU (the load
    /// normalisation the surrogate was trained against).
    pub fn new(surrogate: Surrogate, num_cdus: usize, design_heat_per_cdu_w: f64) -> Self {
        let mut reg = VariableRegistry::new();
        for i in 1..=num_cdus {
            reg.register(
                format!("cdu_heat[{i}]"),
                "W",
                Causality::Input,
                format!("Heat extracted into CDU {i}'s liquid loop"),
            );
        }
        reg.register("wet_bulb", "degC", Causality::Input, "Outdoor wet-bulb temperature");
        reg.register("it_power", "W", Causality::Input, "Total IT power (accepted, unused: the surrogate predicts PUE directly)");
        reg.register("pue", "1", Causality::Output, "Surrogate-predicted PUE");
        reg.register("cooling_power", "W", Causality::Output, "Surrogate-predicted cooling auxiliary power");
        reg.register(
            "surrogate.extrapolation_count",
            "1",
            Causality::Local,
            "Steps answered outside the training envelope (counted warning)",
        );
        reg.register(
            "surrogate.load_fraction",
            "1",
            Causality::Local,
            "Load fraction of plant design heat at the last step",
        );
        let mut values = vec![0.0; reg.len()];
        values[num_cdus] = 15.0; // mirror the default wet-bulb state
        let mut model = SurrogateCoolingModel {
            surrogate,
            vars: std::sync::Arc::new(reg.into_vec()),
            values,
            design_heat_per_cdu_w,
            cdu_heat_w: vec![0.0; num_cdus],
            wet_bulb_c: 15.0,
            extrapolations: 0,
        };
        model.refresh_outputs();
        model
    }

    /// Surrogate model for a plant spec: `num_cdus` heat inputs (the
    /// *system's* CDU count, which the coupling resolves) normalised
    /// against the *plant's* total design heat. The two counts may
    /// legitimately differ for non-plant backends, so the per-input
    /// design share is `design_heat_w / num_cdus`, not the plant's own
    /// per-CDU heat — at full design load the load fraction is 1 either
    /// way.
    pub fn for_plant(surrogate: Surrogate, spec: &PlantSpec, num_cdus: usize) -> Self {
        let per_input_w = spec.design_heat_w / num_cdus.max(1) as f64;
        SurrogateCoolingModel::new(surrogate, num_cdus, per_input_w)
    }

    /// The fitted surrogate being served.
    pub fn surrogate(&self) -> &Surrogate {
        &self.surrogate
    }

    /// Steps answered outside the training envelope so far — the
    /// paper-mandated extrapolation warning, as a counter.
    pub fn extrapolation_count(&self) -> u64 {
        self.extrapolations
    }

    fn load_fraction(&self) -> f64 {
        let total: f64 = self.cdu_heat_w.iter().sum();
        total / (self.design_heat_per_cdu_w * self.cdu_heat_w.len() as f64)
    }

    fn refresh_outputs(&mut self) {
        let load = self.load_fraction();
        let n = self.cdu_heat_w.len();
        self.values[n + 2] = self.surrogate.predict_pue(load, self.wet_bulb_c);
        self.values[n + 3] = self.surrogate.predict_cooling_power(load, self.wet_bulb_c);
        self.values[n + 4] = self.extrapolations as f64;
        self.values[n + 5] = load;
    }
}

impl CoSimModel for SurrogateCoolingModel {
    fn instance_name(&self) -> &str {
        "surrogate"
    }

    fn variables(&self) -> &[VariableDescriptor] {
        &self.vars
    }

    fn setup(&mut self, _start_time: f64) {
        self.extrapolations = 0;
        self.refresh_outputs();
    }

    fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError> {
        let idx = vr.0 as usize;
        match self.vars.get(idx) {
            None => Err(FmiError::UnknownVariable(vr)),
            Some(v) if v.causality == Causality::Input => {
                let n = self.cdu_heat_w.len();
                // Store exactly the state that drives predictions, so
                // reads across the boundary always explain the outputs.
                let stored = if idx < n {
                    self.cdu_heat_w[idx] = value.max(0.0);
                    self.cdu_heat_w[idx]
                } else if idx == n {
                    self.wet_bulb_c = value;
                    value
                } else {
                    value // it_power: accepted and recorded only
                };
                self.values[idx] = stored;
                Ok(())
            }
            Some(_) => Err(FmiError::WrongCausality { vr, expected: Causality::Input }),
        }
    }

    fn get_real(&self, vr: VarRef) -> Result<f64, FmiError> {
        self.values.get(vr.0 as usize).copied().ok_or(FmiError::UnknownVariable(vr))
    }

    fn do_step(&mut self, _current_time: f64, step_size: f64) -> Result<(), FmiError> {
        if step_size <= 0.0 {
            return Err(FmiError::InvalidStep(format!("non-positive step {step_size}")));
        }
        if !self.surrogate.in_domain(self.load_fraction(), self.wet_bulb_c) {
            self.extrapolations += 1;
        }
        self.refresh_outputs();
        Ok(())
    }

    fn reset(&mut self) {
        self.cdu_heat_w.iter_mut().for_each(|v| *v = 0.0);
        self.wet_bulb_c = 15.0;
        self.extrapolations = 0;
        self.values.iter_mut().for_each(|v| *v = 0.0);
        self.values[self.cdu_heat_w.len()] = self.wet_bulb_c;
        self.refresh_outputs();
    }

    fn fork(&self) -> Option<Box<dyn CoSimModel>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self) -> Option<serde::Value> {
        Some(serde::Serialize::to_value(self))
    }

    fn quasi_static(&self) -> bool {
        // Outputs are a pure function of the held inputs; the only state
        // a step changes is the extrapolation counter, which
        // `repeat_step` accounts in bulk.
        true
    }

    fn repeat_step(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        if !self.surrogate.in_domain(self.load_fraction(), self.wet_bulb_c) {
            self.extrapolations += n;
        }
        self.refresh_outputs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_rejects_tiny_datasets() {
        let s = Sample { load_fraction: 0.5, wet_bulb_c: 15.0, pue: 1.03, cooling_power_w: 5e5 };
        assert!(Surrogate::fit(&[s; 4]).is_err());
    }

    #[test]
    fn surrogate_recovers_a_known_quadratic() {
        // Synthetic ground truth: pue = 1 + 0.02 L + 0.001 W + 0.005 LW.
        let truth = |l: f64, w: f64| 1.0 + 0.02 * l + 0.001 * w + 0.005 * l * w;
        let mut samples = Vec::new();
        for li in 0..5 {
            for wi in 0..5 {
                let l = 0.2 + 0.15 * li as f64;
                let w = 5.0 + 5.0 * wi as f64;
                samples.push(Sample {
                    load_fraction: l,
                    wet_bulb_c: w,
                    pue: truth(l, w),
                    cooling_power_w: 1e5 * (1.0 + l + 0.02 * w),
                });
            }
        }
        let sur = Surrogate::fit(&samples).unwrap();
        assert!(sur.pue_train_rmse < 1e-6, "rmse={}", sur.pue_train_rmse);
        // Interpolation point.
        let p = sur.predict_pue(0.5, 12.0);
        assert!((p - truth(0.5, 12.0)).abs() < 1e-8);
        assert!(sur.in_domain(0.5, 12.0));
        assert!(!sur.in_domain(2.0, 12.0));
    }

    #[test]
    fn validate_refuses_non_finite_or_inverted_fits() {
        let sur = Surrogate {
            pue_coeffs: [1.0, 0.02, 0.001, 0.0, 0.0, 0.005],
            power_coeffs: [1e5, 1e5, 2e3, 0.0, 0.0, 0.0],
            load_range: (0.2, 0.8),
            wet_bulb_range: (5.0, 25.0),
            pue_train_rmse: 1e-9,
        };
        sur.validate().unwrap();
        let broken = [
            ("pue_coeffs", Surrogate { pue_coeffs: [f64::NAN; 6], ..sur.clone() }),
            ("power_coeffs", Surrogate { power_coeffs: [f64::INFINITY; 6], ..sur.clone() }),
            ("pue_train_rmse", Surrogate { pue_train_rmse: f64::NAN, ..sur.clone() }),
            ("load_range", Surrogate { load_range: (0.2, f64::INFINITY), ..sur.clone() }),
            ("wet_bulb_range", Surrogate { wet_bulb_range: (25.0, 5.0), ..sur.clone() }),
        ];
        for (field, fit) in broken {
            let err = fit.validate().expect_err(field);
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn surrogate_tracks_the_l4_plant() {
        // Train on a coarse grid of the Marconi100-like plant (small →
        // fast) and verify at an interior point against the simulator.
        let spec = PlantSpec::marconi100_like();
        let loads = [0.3, 0.6, 0.9];
        let wbs = [10.0, 18.0, 26.0];
        let samples = generate_training_data(&spec, &loads, &wbs, 200).unwrap();
        assert_eq!(samples.len(), 9);
        let sur = Surrogate::fit(&samples).unwrap();

        let probe = generate_training_data(&spec, &[0.45], &[14.0], 200).unwrap()[0];
        let predicted = sur.predict_pue(0.45, 14.0);
        // The PUE surface has staging steps, so a quadratic fit cannot be
        // exact; 0.02 absolute PUE is the useful-surrogate bar.
        assert!(
            (predicted - probe.pue).abs() < 0.02,
            "surrogate {predicted} vs sim {}",
            probe.pue
        );
        // Surrogate inference must be effectively free compared to the
        // simulation (sanity: a million evaluations in well under a second).
        let t0 = std::time::Instant::now();
        let mut acc = 0.0;
        for i in 0..1_000_000 {
            acc += sur.predict_pue(0.4 + (i % 10) as f64 * 0.01, 15.0);
        }
        assert!(acc > 0.0);
        assert!(t0.elapsed().as_secs_f64() < 1.0, "inference too slow");
    }

    fn synthetic_surrogate() -> Surrogate {
        let truth = |l: f64, w: f64| 1.0 + 0.02 * l + 0.001 * w + 0.005 * l * w;
        let mut samples = Vec::new();
        for li in 0..5 {
            for wi in 0..5 {
                let l = 0.2 + 0.15 * li as f64;
                let w = 5.0 + 5.0 * wi as f64;
                samples.push(Sample {
                    load_fraction: l,
                    wet_bulb_c: w,
                    pue: truth(l, w),
                    cooling_power_w: 1e5 * (1.0 + l + 0.02 * w),
                });
            }
        }
        Surrogate::fit(&samples).unwrap()
    }

    #[test]
    fn surrogate_model_exposes_the_coupling_contract() {
        let m = SurrogateCoolingModel::new(synthetic_surrogate(), 25, 1.08e6);
        for i in 1..=25 {
            assert!(m.var_by_name(&format!("cdu_heat[{i}]")).is_some());
        }
        for name in ["wet_bulb", "it_power", "pue", "cooling_power"] {
            assert!(m.var_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn surrogate_model_predicts_through_the_boundary() {
        let sur = synthetic_surrogate();
        let expected = sur.predict_pue(0.5, 12.0);
        let mut m = SurrogateCoolingModel::new(sur, 4, 1.0e6);
        m.setup(0.0);
        for i in 0..4 {
            m.set_real(VarRef(i), 0.5e6).unwrap(); // 4 × 0.5 MW / 4 MW design = 0.5
        }
        m.set_real(m.var_by_name("wet_bulb").unwrap().vr, 12.0).unwrap();
        m.do_step(0.0, 15.0).unwrap();
        let pue = m.get_real(m.var_by_name("pue").unwrap().vr).unwrap();
        assert_eq!(pue.to_bits(), expected.to_bits(), "served prediction must be the raw fit");
        assert_eq!(m.extrapolation_count(), 0);
    }

    #[test]
    fn surrogate_model_counts_extrapolations_without_panicking() {
        let mut m = SurrogateCoolingModel::new(synthetic_surrogate(), 2, 1.0e6);
        m.setup(0.0);
        // Load fraction 1.5 — far outside the [0.2, 0.8] training range.
        m.set_real(VarRef(0), 1.5e6).unwrap();
        m.set_real(VarRef(1), 1.5e6).unwrap();
        for k in 0..3 {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        assert_eq!(m.extrapolation_count(), 3);
        let count_vr = m.var_by_name("surrogate.extrapolation_count").unwrap().vr;
        assert_eq!(m.get_real(count_vr).unwrap(), 3.0);
        // Back inside the envelope the counter stops advancing.
        m.set_real(VarRef(0), 0.5e6).unwrap();
        m.set_real(VarRef(1), 0.5e6).unwrap();
        m.do_step(45.0, 15.0).unwrap();
        assert_eq!(m.extrapolation_count(), 3);
    }

    #[test]
    fn for_plant_load_normalisation_survives_cdu_count_mismatch() {
        // validate() permits system/plant CDU-count mismatch for the
        // surrogate backend, so the load normalisation must not depend
        // on the plant's own CDU count: full design heat spread over
        // however many inputs the system asks for is load fraction 1.
        let spec = PlantSpec::frontier(); // 25 plant CDUs, 27 MW design
        for num_inputs in [7usize, 25] {
            let mut m =
                SurrogateCoolingModel::for_plant(synthetic_surrogate(), &spec, num_inputs);
            m.setup(0.0);
            let per_input = spec.design_heat_w / num_inputs as f64;
            for i in 0..num_inputs {
                m.set_real(VarRef(i as u32), per_input).unwrap();
            }
            m.do_step(0.0, 15.0).unwrap();
            let load_vr = m.var_by_name("surrogate.load_fraction").unwrap().vr;
            let load = m.get_real(load_vr).unwrap();
            assert!((load - 1.0).abs() < 1e-12, "{num_inputs} inputs: load {load}");
        }
    }

    #[test]
    fn surrogate_model_rejects_bad_boundary_use() {
        let mut m = SurrogateCoolingModel::new(synthetic_surrogate(), 2, 1.0e6);
        m.setup(0.0);
        let pue_vr = m.var_by_name("pue").unwrap().vr;
        assert!(matches!(
            m.set_real(pue_vr, 1.0),
            Err(FmiError::WrongCausality { .. })
        ));
        assert!(matches!(m.get_real(VarRef(99)), Err(FmiError::UnknownVariable(_))));
        assert!(m.do_step(0.0, -1.0).is_err());
        m.reset();
        assert_eq!(m.extrapolation_count(), 0);
    }

    #[test]
    fn pue_rises_with_wet_bulb_in_surrogate() {
        // Physical sanity carried over from the L4 model: hotter wet-bulb
        // means more fan/pump effort, higher PUE.
        let spec = PlantSpec::marconi100_like();
        let samples =
            generate_training_data(&spec, &[0.3, 0.6, 0.9], &[8.0, 17.0, 26.0], 200).unwrap();
        let sur = Surrogate::fit(&samples).unwrap();
        let cool = sur.predict_pue(0.6, 9.0);
        let hot = sur.predict_pue(0.6, 25.0);
        assert!(hot >= cool - 1e-6, "hot {hot} vs cool {cool}");
    }
}
