//! Online surrogate training with L4 fallback — adaptive cooling fidelity.
//!
//! The L4 transient plant is the honest answer and the reason
//! cooling-attached replays were ~80× slower than power-only ones: it
//! grinds a differential solve every 15 s quantum. The pre-trained L3
//! surrogate is ~1e5× faster but needs an offline training sweep, and its
//! single global quadratic "cannot track staging cliffs" (the PR 3
//! caveat): staging a cooling-tower cell steps fan power discontinuously,
//! so one polynomial over the whole operating plane smears the cliff.
//!
//! [`OnlineCoolingModel`] removes both compromises with a
//! train-while-you-serve loop behind the same FMI boundary:
//!
//! 1. **Watch.** Every step that runs the L4 plant also observes it: at
//!    quasi-steady operating points (same staging regime, near-constant
//!    load and wet-bulb for several consecutive quanta) the observed
//!    `(load, wet_bulb) → (PUE, cooling power)` tuple is recorded under
//!    the plant's current *staging regime* key
//!    ([`CoolingModel::staging_key`]).
//! 2. **Fit per regime.** Each regime periodically refits its own
//!    [`Surrogate`] over its own samples. Within one regime the PUE
//!    surface is smooth, so the quadratic fits tightly; the cliffs fall
//!    *between* regimes and are never interpolated across.
//! 3. **Serve L3 inside the trusted envelope.** Once a regime's fit
//!    error is inside tolerance, queries landing inside the envelope of
//!    the regime the plant is *currently staged in* are answered by the
//!    polynomial — the plant is not stepped at all. Staging is
//!    hysteretic, so overlapping envelopes are disambiguated by the
//!    plant's own staging key, never guessed. Anything else — untrained
//!    territory, an excursion past the envelope edge, a staging
//!    cliff — falls back to the L4 plant automatically. Answers
//!    therefore never extrapolate: they are either a trusted
//!    interpolation or the comprehensive model itself.
//!
//! Because the plant freezes while L3 serves, a fallback first re-settles
//! it at the current operating point ([`CoolingModel::settle`]) so the
//! transient solve resumes from auto-operation rather than a stale state.
//!
//! The practical effect: a long-lived `TwinService` with the
//! [`crate::CoolingBackend::Online`] backend *gets faster as it
//! ingests* — early advances pay L4 to learn the day's operating
//! regimes, later advances coast on the per-regime fits, and an
//! excursion into new weather transparently pays L4 again while the
//! trainer extends its envelope. Operators can watch the split through
//! the `online.*` local variables (surfaced in the service `Status`).

use crate::surrogate::{Sample, Surrogate};
use exadigit_cooling::model::check_wet_bulb;
use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_sim::fmi::{
    Causality, CoSimModel, FmiError, VarRef, VariableDescriptor, VariableRegistry,
};
use serde::{Deserialize, Serialize};

/// Tuning knobs of the online trainer. The defaults are deliberately
/// conservative: trust is earned slowly and withdrawn implicitly (a
/// query outside the observed envelope always pays L4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineSurrogateConfig {
    /// Trust a regime's fit once its training RMSE on the PUE channel is
    /// at or below this (absolute PUE units).
    pub pue_tolerance: f64,
    /// Observations a regime needs before its first fit attempt.
    pub min_samples: usize,
    /// Per-regime sample cap; once full, only envelope-extending
    /// observations are kept (overwriting round-robin).
    pub max_samples: usize,
    /// Consecutive same-regime, near-constant-input quanta before an
    /// operating point counts as quasi-steady and gets recorded.
    pub steady_steps: u32,
    /// Record every k-th quasi-steady quantum (1 = all of them); thins
    /// long steady plateaus so the sample cap buys envelope coverage.
    pub sample_stride: u32,
    /// Plant settle steps (15 s each) on a fallback after the plant went
    /// stale serving L3, so the transient solve resumes from
    /// auto-operation at the current operating point.
    pub fallback_settle_steps: usize,
    /// Refit a regime after this many new samples since its last fit.
    pub refit_every: usize,
}

impl Default for OnlineSurrogateConfig {
    fn default() -> Self {
        OnlineSurrogateConfig {
            pue_tolerance: 0.002,
            min_samples: 12,
            max_samples: 2_048,
            steady_steps: 8,
            sample_stride: 4,
            fallback_settle_steps: 40,
            refit_every: 16,
        }
    }
}

impl OnlineSurrogateConfig {
    /// Check a config that may have come off the wire before a trainer
    /// runs on it: every count must be at least 1 (a zero `max_samples`
    /// divides by zero once a regime fills) and `pue_tolerance` finite
    /// and positive.
    pub fn validate(&self) -> Result<(), String> {
        let tol = self.pue_tolerance;
        if !(tol.is_finite() && tol > 0.0) {
            return Err(format!("online pue_tolerance must be finite and positive, got {tol}"));
        }
        let counts = [
            ("min_samples", self.min_samples),
            ("max_samples", self.max_samples),
            ("steady_steps", self.steady_steps as usize),
            ("sample_stride", self.sample_stride as usize),
            ("fallback_settle_steps", self.fallback_settle_steps),
            ("refit_every", self.refit_every),
        ];
        match counts.into_iter().find(|&(_, n)| n == 0) {
            Some((name, _)) => Err(format!("online {name} must be at least 1, got 0")),
            None => Ok(()),
        }
    }
}

/// A discrete staging regime: the (tower cells, HTW pumps, EHXs) staged
/// triple [`CoolingModel::staging_key`] reports. Serialized as a struct
/// (not a map key) so the vendored serde round-trips it verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct RegimeKey {
    cells: u32,
    pumps: u32,
    ehx: u32,
}

impl RegimeKey {
    fn of(key: (u32, u32, u32)) -> Self {
        RegimeKey { cells: key.0, pumps: key.1, ehx: key.2 }
    }
}

/// One staging regime's training state: its observations, its current
/// fit (when trusted), and the bookkeeping deciding when to refit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RegimeFit {
    key: RegimeKey,
    samples: Vec<Sample>,
    /// Present only while the last fit's RMSE is inside tolerance.
    surrogate: Option<Surrogate>,
    /// Samples recorded since the last fit attempt.
    since_fit: usize,
    /// Round-robin overwrite cursor once `samples` is at capacity.
    overwrite_at: usize,
}

impl RegimeFit {
    fn new(key: RegimeKey) -> Self {
        RegimeFit { key, samples: Vec::new(), surrogate: None, since_fit: 0, overwrite_at: 0 }
    }

    /// True when `sample` widens this regime's observed envelope.
    fn extends_envelope(&self, sample: &Sample) -> bool {
        self.samples.iter().all(|s| s.load_fraction < sample.load_fraction)
            || self.samples.iter().all(|s| s.load_fraction > sample.load_fraction)
            || self.samples.iter().all(|s| s.wet_bulb_c < sample.wet_bulb_c)
            || self.samples.iter().all(|s| s.wet_bulb_c > sample.wet_bulb_c)
    }

    fn record(&mut self, sample: Sample, cfg: &OnlineSurrogateConfig) {
        if self.samples.len() < cfg.max_samples {
            self.samples.push(sample);
        } else if self.extends_envelope(&sample) {
            // At capacity only envelope growth is worth keeping; plateau
            // repeats are overwritten round-robin, deterministically.
            self.overwrite_at = (self.overwrite_at + 1) % self.samples.len();
            self.samples[self.overwrite_at] = sample;
        } else {
            return;
        }
        self.since_fit += 1;
        if self.samples.len() >= cfg.min_samples && self.since_fit >= cfg.refit_every {
            self.since_fit = 0;
            self.surrogate = Surrogate::fit(&self.samples)
                .ok()
                .filter(|fit| fit.pue_train_rmse <= cfg.pue_tolerance);
        }
    }
}

/// Adaptive L3/L4 cooling backend: an embedded L4 [`CoolingModel`] plus
/// the per-regime surrogates trained from watching it. Exposes the same
/// `cooling_vars` contract as every other backend, so the simulation
/// loop cannot tell (and does not care) which fidelity answered a step.
///
/// Local variables readable across the boundary:
/// `online.l3_steps` (quanta served by a trusted fit),
/// `online.l4_steps` (quanta that stepped the plant),
/// `online.fallback_steps` (L4 quanta taken *after* trust existed — the
/// envelope-miss count), `online.trusted_regimes`, and
/// `online.load_fraction`.
#[derive(Clone, Serialize, Deserialize)]
pub struct OnlineCoolingModel {
    plant: CoolingModel,
    config: OnlineSurrogateConfig,
    /// Immutable after construction; forks share it by refcount.
    vars: std::sync::Arc<Vec<VariableDescriptor>>,
    values: Vec<f64>,
    /// Design heat of one input at load fraction 1, W.
    design_heat_per_cdu_w: f64,
    cdu_heat_w: Vec<f64>,
    wet_bulb_c: f64,
    it_power_w: f64,
    regimes: Vec<RegimeFit>,
    /// The plant was frozen by L3 serving and must re-settle before its
    /// next transient step.
    plant_stale: bool,
    /// Quasi-steady detector: the previous L4 step's regime and inputs.
    /// `last_load`/`last_wb` are only meaningful while `last_key` is
    /// `Some` (kept finite so snapshots survive the lossy NaN→null JSON
    /// mapping).
    last_key: Option<RegimeKey>,
    last_load: f64,
    last_wb: f64,
    steady_run: u32,
    l3_steps: u64,
    l4_steps: u64,
    fallback_steps: u64,
}

/// Load-fraction change per quantum below which an operating point still
/// counts as steady (job events break steadiness by far more).
const STEADY_LOAD_EPS: f64 = 0.02;
/// Wet-bulb change per quantum below which weather counts as steady
/// (telemetry ramps move ~0.01 °C per 15 s).
const STEADY_WB_EPS: f64 = 0.25;

impl OnlineCoolingModel {
    /// Build the trainer around a freshly constructed L4 plant for
    /// `spec`. The heat inputs map 1:1 onto the plant's CDUs (the
    /// backend attaches the plant, so the system/plant CDU counts are
    /// validated to agree).
    pub fn new(spec: &PlantSpec, config: OnlineSurrogateConfig) -> Result<Self, String> {
        let plant = CoolingModel::new(spec.clone())?;
        let num_cdus = spec.num_cdus;
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
        reg.register("it_power", "W", Causality::Input, "Total IT power for the PUE sub-module");
        reg.register("pue", "1", Causality::Output, "PUE (trusted fit or L4 plant)");
        reg.register("cooling_power", "W", Causality::Output, "Cooling auxiliary power (trusted fit or L4 plant)");
        reg.register("online.l3_steps", "1", Causality::Local, "Quanta served by a trusted per-regime fit");
        reg.register("online.l4_steps", "1", Causality::Local, "Quanta that stepped the L4 plant");
        reg.register(
            "online.fallback_steps",
            "1",
            Causality::Local,
            "L4 quanta taken after trust existed — queries outside every trusted envelope",
        );
        reg.register("online.trusted_regimes", "1", Causality::Local, "Staging regimes whose fit is currently trusted");
        reg.register("online.load_fraction", "1", Causality::Local, "Load fraction of plant design heat at the last step");
        let mut values = vec![0.0; reg.len()];
        values[num_cdus] = 15.0; // mirror the default wet-bulb state
        Ok(OnlineCoolingModel {
            plant,
            config,
            vars: std::sync::Arc::new(reg.into_vec()),
            values,
            design_heat_per_cdu_w: spec.heat_per_cdu_w(),
            cdu_heat_w: vec![0.0; num_cdus],
            wet_bulb_c: 15.0,
            it_power_w: 0.0,
            regimes: Vec::new(),
            plant_stale: false,
            last_key: None,
            last_load: 0.0,
            last_wb: 0.0,
            steady_run: 0,
            l3_steps: 0,
            l4_steps: 0,
            fallback_steps: 0,
        })
    }

    /// Check the payload a loaded save carries: the trainer's config and
    /// every trusted fit, each by its own type's check.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.config.validate()?;
        self.regimes.iter().filter_map(|r| r.surrogate.as_ref()).try_for_each(Surrogate::validate)
    }

    /// Quanta answered by a trusted per-regime fit so far.
    pub fn l3_steps(&self) -> u64 {
        self.l3_steps
    }

    /// Quanta that stepped the embedded L4 plant so far.
    pub fn l4_steps(&self) -> u64 {
        self.l4_steps
    }

    /// L4 quanta taken after at least one regime was trusted — the count
    /// of queries that left every trusted envelope.
    pub fn fallback_steps(&self) -> u64 {
        self.fallback_steps
    }

    /// Staging regimes whose current fit is inside tolerance.
    pub fn trusted_regimes(&self) -> usize {
        self.regimes.iter().filter(|r| r.surrogate.is_some()).count()
    }

    /// The embedded L4 plant (tests/diagnostics).
    pub fn plant(&self) -> &CoolingModel {
        &self.plant
    }

    fn load_fraction(&self) -> f64 {
        let total: f64 = self.cdu_heat_w.iter().sum();
        total / (self.design_heat_per_cdu_w * self.cdu_heat_w.len() as f64)
    }

    /// The trusted fit for the regime the plant is *currently staged
    /// in*, if its envelope contains the query. Staging is hysteretic,
    /// so two regimes' envelopes overlap wherever the plant can hold
    /// either staging at the same operating point — the plant's own
    /// staging key (frozen while fits serve, updated by every L4 step)
    /// is the only correct disambiguator. A query outside the current
    /// regime's envelope falls back to L4 even if some *other* regime
    /// has seen the point: reaching it from here may restage the plant,
    /// and only the transient model knows.
    fn trusted_match(&self, load: f64, wb: f64) -> Option<&Surrogate> {
        let key = RegimeKey::of(self.plant.staging_key());
        self.regimes
            .iter()
            .find(|r| r.key == key)
            .and_then(|r| r.surrogate.as_ref())
            .filter(|sur| sur.in_domain(load, wb))
    }

    fn refresh_counters(&mut self, load: f64) {
        let n = self.cdu_heat_w.len();
        self.values[n + 4] = self.l3_steps as f64;
        self.values[n + 5] = self.l4_steps as f64;
        self.values[n + 6] = self.fallback_steps as f64;
        self.values[n + 7] = self.trusted_regimes() as f64;
        self.values[n + 8] = load;
    }

    /// Step the L4 plant with the staged inputs and observe the result.
    fn step_l4(&mut self, current_time: f64, step_size: f64) -> Result<(), FmiError> {
        if self.plant_stale {
            // The plant froze while L3 served; re-settle it at the
            // current operating point before trusting its transients.
            // Settle in small chunks and stop once PUE has converged —
            // a fallback just past the envelope edge starts from a
            // near-steady state and needs a fraction of the cap.
            let load = self.load_fraction();
            let mut remaining = self.config.fallback_settle_steps;
            let mut last_pue = self.plant.output_by_name("pue").unwrap_or(f64::NAN);
            while remaining > 0 {
                let chunk = remaining.min(5);
                self.plant.settle(load, self.wet_bulb_c, chunk);
                remaining -= chunk;
                let pue = self.plant.output_by_name("pue").unwrap_or(f64::NAN);
                if (pue - last_pue).abs() <= 1e-6 {
                    break;
                }
                last_pue = pue;
            }
            self.plant_stale = false;
            self.last_key = None;
            self.steady_run = 0;
        }
        for (i, &heat) in self.cdu_heat_w.iter().enumerate() {
            self.plant.set_real(VarRef(i as u32), heat)?;
        }
        let n = self.cdu_heat_w.len();
        self.plant.set_real(VarRef(n as u32), self.wet_bulb_c)?;
        self.plant.set_real(VarRef((n + 1) as u32), self.it_power_w)?;
        self.plant.do_step(current_time, step_size)?;
        self.l4_steps += 1;

        let pue = self.plant.output_by_name("pue").unwrap_or(f64::NAN);
        let cooling_power = self.plant.output_by_name("cooling_power").unwrap_or(f64::NAN);
        self.values[n + 2] = pue;
        self.values[n + 3] = cooling_power;

        // Quasi-steady detection: same staging regime and near-constant
        // inputs for `steady_steps` consecutive quanta. Only then is the
        // observation close enough to steady state to train on — the
        // settle protocol the offline sweep uses, discovered online.
        let load = self.load_fraction();
        let key = RegimeKey::of(self.plant.staging_key());
        let steady = self.last_key == Some(key)
            && (load - self.last_load).abs() <= STEADY_LOAD_EPS
            && (self.wet_bulb_c - self.last_wb).abs() <= STEADY_WB_EPS;
        self.steady_run = if steady { self.steady_run + 1 } else { 1 };
        self.last_key = Some(key);
        self.last_load = load;
        self.last_wb = self.wet_bulb_c;
        if self.steady_run >= self.config.steady_steps
            && (self.steady_run - self.config.steady_steps)
                .is_multiple_of(self.config.sample_stride.max(1))
            && pue.is_finite()
        {
            let sample = Sample {
                load_fraction: load,
                wet_bulb_c: self.wet_bulb_c,
                pue,
                cooling_power_w: cooling_power,
            };
            let config = self.config.clone();
            match self.regimes.iter_mut().find(|r| r.key == key) {
                Some(r) => r.record(sample, &config),
                None => {
                    let mut r = RegimeFit::new(key);
                    r.record(sample, &config);
                    self.regimes.push(r);
                }
            }
        }
        Ok(())
    }
}

impl CoSimModel for OnlineCoolingModel {
    fn instance_name(&self) -> &str {
        "online_surrogate"
    }

    fn variables(&self) -> &[VariableDescriptor] {
        &self.vars
    }

    fn setup(&mut self, start_time: f64) {
        self.plant.setup(start_time);
        self.regimes.clear();
        self.plant_stale = false;
        self.last_key = None;
        self.steady_run = 0;
        self.l3_steps = 0;
        self.l4_steps = 0;
        self.fallback_steps = 0;
        self.refresh_counters(self.load_fraction());
    }

    fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError> {
        let idx = vr.0 as usize;
        match self.vars.get(idx) {
            None => Err(FmiError::UnknownVariable(vr)),
            Some(v) if v.causality == Causality::Input => {
                let n = self.cdu_heat_w.len();
                let stored = if idx < n {
                    self.cdu_heat_w[idx] = value.max(0.0);
                    self.cdu_heat_w[idx]
                } else if idx == n {
                    // Checked here, not only by the plant: a re-settle
                    // steps the plant with the stored value first.
                    check_wet_bulb(vr, value)?;
                    self.wet_bulb_c = value;
                    value
                } else {
                    self.it_power_w = value.max(0.0);
                    self.it_power_w
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

    fn do_step(&mut self, current_time: f64, step_size: f64) -> Result<(), FmiError> {
        if step_size <= 0.0 {
            return Err(FmiError::InvalidStep(format!("non-positive step {step_size}")));
        }
        let load = self.load_fraction();
        let n = self.cdu_heat_w.len();
        if let Some((pue, cooling_power)) = self
            .trusted_match(load, self.wet_bulb_c)
            .map(|s| (s.predict_pue(load, self.wet_bulb_c), s.predict_cooling_power(load, self.wet_bulb_c)))
        {
            // Inside the current regime's trusted envelope: serve the
            // fit, leave the plant untouched (it is now stale until the
            // next L4 step re-settles it).
            self.values[n + 2] = pue;
            self.values[n + 3] = cooling_power;
            self.l3_steps += 1;
            self.plant_stale = true;
        } else {
            let trusted_before = self.regimes.iter().any(|r| r.surrogate.is_some());
            self.step_l4(current_time, step_size)?;
            if trusted_before {
                self.fallback_steps += 1;
            }
        }
        self.refresh_counters(load);
        Ok(())
    }

    fn reset(&mut self) {
        self.plant.reset();
        self.cdu_heat_w.iter_mut().for_each(|v| *v = 0.0);
        self.wet_bulb_c = 15.0;
        self.it_power_w = 0.0;
        self.regimes.clear();
        self.plant_stale = false;
        self.last_key = None;
        self.last_load = 0.0;
        self.last_wb = 0.0;
        self.steady_run = 0;
        self.l3_steps = 0;
        self.l4_steps = 0;
        self.fallback_steps = 0;
        self.values.iter_mut().for_each(|v| *v = 0.0);
        self.values[self.cdu_heat_w.len()] = self.wet_bulb_c;
        self.refresh_counters(0.0);
    }

    fn fork(&self) -> Option<Box<dyn CoSimModel>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self) -> Option<serde::Value> {
        Some(serde::Serialize::to_value(self))
    }

    fn quasi_static(&self) -> bool {
        // While a trusted fit would serve the held inputs, repeated
        // steps change nothing but the L3 counter: the plant is frozen,
        // the regimes only learn from L4 steps, and the fit is a pure
        // function of (load, wet_bulb).
        self.trusted_match(self.load_fraction(), self.wet_bulb_c).is_some()
    }

    fn repeat_step(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let load = self.load_fraction();
        // Re-serve rather than re-use `values`: if the previous step was
        // the L4 step that earned trust, the outputs currently hold the
        // plant's answer and the next `do_step` would switch to the
        // fit's — `repeat_step` must land on exactly that.
        if let Some((pue, cooling_power)) = self
            .trusted_match(load, self.wet_bulb_c)
            .map(|s| (s.predict_pue(load, self.wet_bulb_c), s.predict_cooling_power(load, self.wet_bulb_c)))
        {
            let v = self.cdu_heat_w.len();
            self.values[v + 2] = pue;
            self.values[v + 3] = cooling_power;
            self.l3_steps += n;
            self.plant_stale = true;
            self.refresh_counters(load);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> OnlineSurrogateConfig {
        // Test-speed knobs: trust quickly, settle briefly.
        OnlineSurrogateConfig {
            min_samples: 10,
            steady_steps: 4,
            sample_stride: 1,
            refit_every: 10,
            fallback_settle_steps: 10,
            ..OnlineSurrogateConfig::default()
        }
    }

    #[test]
    fn wet_bulb_outside_the_tower_range_is_refused_before_any_settle() {
        let mut m = OnlineCoolingModel::new(&PlantSpec::marconi100_like(), fast_config()).unwrap();
        let wb = VarRef(m.cdu_heat_w.len() as u32);
        assert!(matches!(m.set_real(wb, 61.0), Err(FmiError::OutOfRange { .. })));
        assert_eq!(m.wet_bulb_c, 15.0, "a refused value is not stored");
        m.set_real(wb, 30.0).unwrap();
        assert_eq!(m.wet_bulb_c, 30.0);
    }

    #[test]
    fn validate_refuses_zero_counts_and_a_bad_tolerance() {
        let ok = OnlineSurrogateConfig::default();
        ok.validate().unwrap();
        fast_config().validate().unwrap();
        let broken = [
            ("pue_tolerance", OnlineSurrogateConfig { pue_tolerance: f64::NAN, ..ok.clone() }),
            ("pue_tolerance", OnlineSurrogateConfig { pue_tolerance: 0.0, ..ok.clone() }),
            ("pue_tolerance", OnlineSurrogateConfig { pue_tolerance: -1.0, ..ok.clone() }),
            ("min_samples", OnlineSurrogateConfig { min_samples: 0, ..ok.clone() }),
            ("max_samples", OnlineSurrogateConfig { max_samples: 0, ..ok.clone() }),
            ("steady_steps", OnlineSurrogateConfig { steady_steps: 0, ..ok.clone() }),
            ("sample_stride", OnlineSurrogateConfig { sample_stride: 0, ..ok.clone() }),
            (
                "fallback_settle_steps",
                OnlineSurrogateConfig { fallback_settle_steps: 0, ..ok.clone() },
            ),
            ("refit_every", OnlineSurrogateConfig { refit_every: 0, ..ok.clone() }),
        ];
        for (field, config) in broken {
            let err = config.validate().expect_err(field);
            assert!(err.contains(field), "{err}");
        }
    }

    fn drive(m: &mut OnlineCoolingModel, load: f64, wb: f64, quanta: usize) {
        let n = m.cdu_heat_w.len();
        let heat = m.design_heat_per_cdu_w * load;
        for i in 0..n {
            m.set_real(VarRef(i as u32), heat).unwrap();
        }
        m.set_real(VarRef(n as u32), wb).unwrap();
        m.set_real(VarRef((n + 1) as u32), heat * n as f64 / 0.945).unwrap();
        for k in 0..quanta {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
    }

    #[test]
    fn exposes_the_coupling_contract() {
        let spec = PlantSpec::marconi100_like();
        let m = OnlineCoolingModel::new(&spec, OnlineSurrogateConfig::default()).unwrap();
        for i in 1..=spec.num_cdus {
            assert!(m.var_by_name(&format!("cdu_heat[{i}]")).is_some());
        }
        for name in ["wet_bulb", "it_power", "pue", "cooling_power"] {
            assert!(m.var_by_name(name).is_some(), "missing {name}");
        }
        for name in [
            "online.l3_steps",
            "online.l4_steps",
            "online.fallback_steps",
            "online.trusted_regimes",
        ] {
            assert!(m.var_by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn trains_then_serves_l3_at_a_steady_point() {
        let spec = PlantSpec::marconi100_like();
        let mut m = OnlineCoolingModel::new(&spec, fast_config()).unwrap();
        m.setup(0.0);
        // A steady plateau: the trainer must collect samples, earn trust,
        // and switch to serving the fit.
        drive(&mut m, 0.6, 15.0, 120);
        assert!(m.trusted_regimes() >= 1, "no regime earned trust");
        assert!(m.l3_steps() > 0, "never served L3");
        // Once trusted, repeat queries at the same point are pure fits:
        // the plant step count stops advancing.
        let l4_before = m.l4_steps();
        drive(&mut m, 0.6, 15.0, 20);
        assert_eq!(m.l4_steps(), l4_before, "L4 stepped inside the trusted envelope");
    }

    #[test]
    fn untrained_territory_falls_back_to_l4() {
        let spec = PlantSpec::marconi100_like();
        let mut m = OnlineCoolingModel::new(&spec, fast_config()).unwrap();
        m.setup(0.0);
        drive(&mut m, 0.6, 15.0, 120);
        assert!(m.l3_steps() > 0);
        // A far-away operating point: outside every trusted envelope,
        // every quantum must pay L4 and count as a fallback.
        let (l4_before, fb_before) = (m.l4_steps(), m.fallback_steps());
        drive(&mut m, 0.25, 15.0, 5);
        assert_eq!(m.l4_steps() - l4_before, 5, "untrained queries must step the plant");
        assert_eq!(m.fallback_steps() - fb_before, 5);
        // The fallback answers are the plant's own outputs.
        let pue = m.get_real(m.var_by_name("pue").unwrap().vr).unwrap();
        assert_eq!(pue, m.plant.output_by_name("pue").unwrap());
    }

    #[test]
    fn state_round_trips_through_serde() {
        let spec = PlantSpec::marconi100_like();
        let mut m = OnlineCoolingModel::new(&spec, fast_config()).unwrap();
        m.setup(0.0);
        drive(&mut m, 0.6, 15.0, 80);
        let state = m.save_state().unwrap();
        let back = <OnlineCoolingModel as serde::Deserialize>::from_value(&state).unwrap();
        assert_eq!(back.l3_steps(), m.l3_steps());
        assert_eq!(back.l4_steps(), m.l4_steps());
        assert_eq!(back.trusted_regimes(), m.trusted_regimes());
        assert_eq!(back.regimes, m.regimes);
        // The restored model answers the next step identically.
        let mut a = m.clone();
        let mut b = back;
        a.do_step(2000.0 * 15.0, 15.0).unwrap();
        b.do_step(2000.0 * 15.0, 15.0).unwrap();
        let vr = a.var_by_name("pue").unwrap().vr;
        assert_eq!(
            a.get_real(vr).unwrap().to_bits(),
            b.get_real(vr).unwrap().to_bits()
        );
    }

    #[test]
    fn rejects_bad_boundary_use() {
        let spec = PlantSpec::marconi100_like();
        let mut m = OnlineCoolingModel::new(&spec, OnlineSurrogateConfig::default()).unwrap();
        m.setup(0.0);
        let pue_vr = m.var_by_name("pue").unwrap().vr;
        assert!(matches!(m.set_real(pue_vr, 1.0), Err(FmiError::WrongCausality { .. })));
        assert!(matches!(m.get_real(VarRef(9999)), Err(FmiError::UnknownVariable(_))));
        assert!(m.do_step(0.0, -1.0).is_err());
        m.reset();
        assert_eq!(m.l3_steps(), 0);
        assert_eq!(m.l4_steps(), 0);
    }
}
