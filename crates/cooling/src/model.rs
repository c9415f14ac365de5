//! The cooling model behind the FMI boundary.
//!
//! §III-C4 of the paper: "The model takes as inputs wet-bulb (outdoor)
//! temperature and heat extracted in watts for each of the 25 CDUs. The
//! model produces a total of 317 outputs for each timestep of simulation
//! (currently 15 s)". This wrapper exposes exactly that interface through
//! [`exadigit_sim::fmi::CoSimModel`], reproducing the FMU export of
//! §III-C6: per-CDU pump work, flows, temperatures and pressures (11 × 25),
//! primary-loop staging and HTWP power/speed, tower-loop staging, CTWP
//! power and CT fan power, facility flows/temperatures/pressures, and the
//! PUE sub-module.

use crate::controls::PlantControls;
use crate::plant::Plant;
use crate::spec::PlantSpec;
use exadigit_sim::fmi::{Causality, CoSimModel, FmiError, VarRef, VariableDescriptor, VariableRegistry};
use exadigit_thermo::psychro;

/// The cooling model: plant + controls + variable registry.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct CoolingModel {
    plant: Plant,
    controls: PlantControls,
    /// Immutable after construction; forks share it by refcount.
    vars: std::sync::Arc<Vec<VariableDescriptor>>,
    /// Current values, indexed by value reference.
    values: Vec<f64>,
    num_inputs: usize,
    /// Registry index of the first `cdu_blockage[..]` parameter.
    blockage_base: usize,
    /// Input staging area: cdu heats (W) then wet bulb (°C) then IT power.
    cdu_heat_w: Vec<f64>,
    wet_bulb_c: f64,
    it_power_w: f64,
    /// Steps taken since setup.
    steps: u64,
}

/// Indices of the named inputs within the registry.
const VR_WET_BULB_OFFSET: usize = 0; // after the cdu heat block
const VR_IT_POWER_OFFSET: usize = 1;

/// Refuse a wet-bulb input `value` for `vr` outside
/// [`psychro::VALID_RANGE_C`], NaN included: past it the tower model's
/// ε-NTU algebra leaves its domain. Every backend that steps the plant
/// checks its wet-bulb input here before storing it.
pub fn check_wet_bulb(vr: VarRef, value: f64) -> Result<(), FmiError> {
    if psychro::VALID_RANGE_C.contains(&value) {
        return Ok(());
    }
    Err(FmiError::OutOfRange { vr, name: "wet_bulb".into(), value, range: psychro::VALID_RANGE_C })
}

impl CoolingModel {
    /// Generate a model from a plant specification (the AutoCSM path).
    pub fn new(spec: PlantSpec) -> Result<Self, String> {
        let controls = PlantControls::new(&spec);
        let plant = Plant::new(spec.clone())?;
        let mut reg = VariableRegistry::new();

        // ---- Inputs ----
        for i in 1..=spec.num_cdus {
            reg.register(
                format!("cdu_heat[{i}]"),
                "W",
                Causality::Input,
                format!("Heat extracted into CDU {i}'s liquid loop"),
            );
        }
        reg.register("wet_bulb", "degC", Causality::Input, "Outdoor wet-bulb temperature");
        reg.register("it_power", "W", Causality::Input, "Total IT power for the PUE sub-module");
        let num_inputs = reg.len();

        // ---- Outputs: 11 per CDU ----
        for i in 1..=spec.num_cdus {
            reg.output(format!("cdu[{i}].pump_power"), "W");
            reg.output(format!("cdu[{i}].primary_flow"), "m3/s");
            reg.output(format!("cdu[{i}].secondary_flow"), "m3/s");
            reg.output(format!("cdu[{i}].primary_supply_temp"), "degC");
            reg.output(format!("cdu[{i}].primary_return_temp"), "degC");
            reg.output(format!("cdu[{i}].secondary_supply_temp"), "degC");
            reg.output(format!("cdu[{i}].secondary_return_temp"), "degC");
            reg.output(format!("cdu[{i}].primary_supply_pressure"), "Pa");
            reg.output(format!("cdu[{i}].primary_return_pressure"), "Pa");
            reg.output(format!("cdu[{i}].secondary_supply_pressure"), "Pa");
            reg.output(format!("cdu[{i}].secondary_return_pressure"), "Pa");
        }
        // ---- Primary loop ----
        reg.output("primary.num_pumps_staged", "1");
        reg.output("primary.num_ehx_staged", "1");
        for i in 1..=spec.primary_pumps.count {
            reg.output(format!("htwp[{i}].power"), "W");
        }
        for i in 1..=spec.primary_pumps.count {
            reg.output(format!("htwp[{i}].speed"), "1");
        }
        // ---- Cooling tower loop ----
        reg.output("ct.num_cells_staged", "1");
        for i in 1..=spec.tower_pumps.count {
            reg.output(format!("ctwp[{i}].power"), "W");
        }
        for i in 1..=spec.tower_pumps.count {
            reg.output(format!("ctwp[{i}].speed"), "1");
        }
        for i in 1..=spec.towers.fan_outputs {
            reg.output(format!("ct_fan[{i}].power"), "W");
        }
        // ---- Facility ----
        reg.output("facility.htw_flow", "m3/s");
        reg.output("facility.ctw_flow", "m3/s");
        reg.output("facility.htw_supply_temp", "degC");
        reg.output("facility.htw_return_temp", "degC");
        reg.output("facility.htw_supply_pressure", "Pa");
        reg.output("facility.htw_return_pressure", "Pa");
        // ---- PUE sub-module (the 317th output) + auxiliary diagnostic ----
        reg.output("pue", "1");
        reg.register(
            "cooling_power",
            "W",
            Causality::Local,
            "Total cooling auxiliary power incl. CDU pumps (diagnostic)",
        );
        // ---- Tunable parameters: per-CDU blockage injection (§III-A
        // water-quality use case) ----
        let blockage_base = reg.len();
        for i in 1..=spec.num_cdus {
            reg.register(
                format!("cdu_blockage[{i}]"),
                "1",
                Causality::Parameter,
                format!("Secondary-loop hydraulic blockage factor of CDU {i} (1 = clean)"),
            );
        }

        let mut values = vec![0.0; reg.len()];
        // Parameters default to 1 (clean loops).
        for v in values.iter_mut().skip(blockage_base) {
            *v = 1.0;
        }
        let num_cdus = spec.num_cdus;
        Ok(CoolingModel {
            plant,
            controls,
            vars: std::sync::Arc::new(reg.into_vec()),
            values,
            num_inputs,
            blockage_base,
            cdu_heat_w: vec![0.0; num_cdus],
            wet_bulb_c: 15.0,
            it_power_w: 0.0,
            steps: 0,
        })
    }

    /// The Frontier cooling model of Fig. 5.
    pub fn frontier() -> Self {
        CoolingModel::new(PlantSpec::frontier()).expect("frontier spec is valid")
    }

    /// The generating specification.
    pub fn spec(&self) -> &PlantSpec {
        &self.plant.spec
    }

    /// Number of output variables (the paper's 317 for Frontier).
    pub fn output_count(&self) -> usize {
        self.vars.iter().filter(|v| v.causality == Causality::Output).count()
    }

    /// Immutable view of the plant (tests/diagnostics).
    pub fn plant(&self) -> &Plant {
        &self.plant
    }

    /// Convenience: current value of a named output.
    pub fn output_by_name(&self, name: &str) -> Option<f64> {
        self.var_by_name(name).map(|v| self.values[v.vr.0 as usize])
    }

    /// The discrete staging regime the plant currently operates in:
    /// `(CT cells, HTW pumps, EHXs)` staged. The PUE surface is smooth
    /// *within* one regime and steps *across* regime boundaries (staging
    /// a tower cell jumps fan power discontinuously), which is why
    /// surrogate trainers fit piecewise per regime instead of one global
    /// polynomial — the PR 3 caveat that quadratics can't track staging
    /// cliffs.
    pub fn staging_key(&self) -> (u32, u32, u32) {
        let s = &self.plant.state;
        (s.cells_staged, s.htwp_staged, s.ehx_staged)
    }

    /// Pre-condition the plant: run `n` settle steps at the given uniform
    /// load fraction so validation replays start from auto-operation, as
    /// the paper's model "activates once the physical cooling system
    /// begins auto-operation, after the start-up sequence is complete".
    pub fn settle(&mut self, load_fraction: f64, wet_bulb_c: f64, n: usize) {
        let heat = self.plant.spec.heat_per_cdu_w() * load_fraction.clamp(0.0, 1.2);
        let heats = vec![heat; self.plant.spec.num_cdus];
        for _ in 0..n {
            let cmd = self.controls.update(&self.plant.state, &self.plant.spec, 15.0);
            self.plant.apply_commands(&cmd);
            // Settling failures are ignored; the first real step will
            // surface persistent solver trouble.
            let _ = self.plant.step(&heats, wet_bulb_c, 15.0);
        }
        self.refresh_outputs();
    }

    fn refresh_outputs(&mut self) {
        let spec = &self.plant.spec;
        let s = &self.plant.state;
        let mut v = self.num_inputs;
        let put = |values: &mut Vec<f64>, idx: &mut usize, val: f64| {
            values[*idx] = val;
            *idx += 1;
        };
        let values = &mut self.values;
        for cdu in &s.cdus {
            put(values, &mut v, cdu.pump_power_w);
            put(values, &mut v, cdu.primary_flow_m3s);
            put(values, &mut v, cdu.secondary_flow_m3s);
            put(values, &mut v, cdu.primary_supply_temp_c);
            put(values, &mut v, cdu.primary_return_temp_c);
            put(values, &mut v, cdu.secondary_supply_temp_c);
            put(values, &mut v, cdu.secondary_return_temp_c);
            put(values, &mut v, cdu.primary_supply_pressure_pa);
            put(values, &mut v, cdu.primary_return_pressure_pa);
            put(values, &mut v, cdu.secondary_supply_pressure_pa);
            put(values, &mut v, cdu.secondary_return_pressure_pa);
        }
        put(values, &mut v, s.htwp_staged as f64);
        put(values, &mut v, s.ehx_staged as f64);
        for i in 0..spec.primary_pumps.count {
            put(values, &mut v, s.htwp_power_w[i]);
        }
        for i in 0..spec.primary_pumps.count {
            let speed = if (i as u32) < s.htwp_staged { s.htwp_speed } else { 0.0 };
            put(values, &mut v, speed);
        }
        put(values, &mut v, s.cells_staged as f64);
        for i in 0..spec.tower_pumps.count {
            put(values, &mut v, s.ctwp_power_w[i]);
        }
        for i in 0..spec.tower_pumps.count {
            let speed = if (i as u32) < s.ctwp_staged { s.ctwp_speed } else { 0.0 };
            put(values, &mut v, speed);
        }
        for i in 0..spec.towers.fan_outputs {
            put(values, &mut v, s.fan_power_w[i]);
        }
        put(values, &mut v, s.primary_flow_m3s);
        put(values, &mut v, s.tower_flow_m3s);
        put(values, &mut v, s.htws_temp_c);
        put(values, &mut v, s.htwr_temp_c);
        put(values, &mut v, s.primary_supply_pressure_pa);
        put(values, &mut v, s.primary_return_pressure_pa);

        // PUE sub-module: facility power over IT power. CDU pumps are part
        // of the IT-side measurement in the paper's Psystem, so the
        // auxiliary term is HTWPs + CTWPs + fans.
        let it = if self.it_power_w > 0.0 {
            self.it_power_w
        } else {
            // Fallback when RAPS does not provide it_power: reconstruct
            // from the heat inputs and the cooling-efficiency factor.
            let heat: f64 = self.cdu_heat_w.iter().sum();
            (heat / 0.945).max(1.0) + s.cdu_pump_power_w
        };
        let pue = (it + s.aux_power_w) / it.max(1.0);
        put(values, &mut v, pue);
        put(values, &mut v, s.aux_power_w + s.cdu_pump_power_w);
        debug_assert_eq!(v, self.blockage_base);
    }
}

impl CoSimModel for CoolingModel {
    fn instance_name(&self) -> &str {
        &self.plant.spec.name
    }

    fn variables(&self) -> &[VariableDescriptor] {
        &self.vars
    }

    fn setup(&mut self, _start_time: f64) {
        self.steps = 0;
        // Begin from a moderately loaded auto-operation state.
        self.settle(0.5, self.wet_bulb_c, 40);
    }

    fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError> {
        let idx = vr.0 as usize;
        if idx >= self.vars.len() {
            return Err(FmiError::UnknownVariable(vr));
        }
        match self.vars[idx].causality {
            Causality::Input => {
                let n = self.cdu_heat_w.len();
                if idx < n {
                    self.cdu_heat_w[idx] = value.max(0.0);
                } else if idx == n + VR_WET_BULB_OFFSET {
                    check_wet_bulb(vr, value)?;
                    self.wet_bulb_c = value;
                } else if idx == n + VR_IT_POWER_OFFSET {
                    self.it_power_w = value.max(0.0);
                }
            }
            Causality::Parameter => {
                // Blockage parameters.
                let cdu = idx - self.blockage_base;
                self.plant.set_blockage(cdu, value);
            }
            _ => {
                return Err(FmiError::WrongCausality { vr, expected: Causality::Input });
            }
        }
        self.values[idx] = value;
        Ok(())
    }

    fn get_real(&self, vr: VarRef) -> Result<f64, FmiError> {
        self.values
            .get(vr.0 as usize)
            .copied()
            .ok_or(FmiError::UnknownVariable(vr))
    }

    fn do_step(&mut self, _current_time: f64, step_size: f64) -> Result<(), FmiError> {
        if step_size <= 0.0 {
            return Err(FmiError::InvalidStep(format!("non-positive step {step_size}")));
        }
        let cmd = self.controls.update(&self.plant.state, &self.plant.spec, step_size);
        self.plant.apply_commands(&cmd);
        self.plant
            .step(&self.cdu_heat_w, self.wet_bulb_c, step_size)
            .map_err(|e| FmiError::SolverFailure(e.to_string()))?;
        self.refresh_outputs();
        self.steps += 1;
        Ok(())
    }

    fn reset(&mut self) {
        let spec = self.plant.spec.clone();
        self.controls = PlantControls::new(&spec);
        self.plant = Plant::new(spec).expect("spec validated at construction");
        self.values.iter_mut().for_each(|v| *v = 0.0);
        for v in self.values.iter_mut().skip(self.blockage_base) {
            *v = 1.0; // parameters return to clean loops
        }
        self.cdu_heat_w.iter_mut().for_each(|v| *v = 0.0);
        self.it_power_w = 0.0;
        self.steps = 0;
    }

    fn fork(&self) -> Option<Box<dyn CoSimModel>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self) -> Option<serde::Value> {
        Some(serde::Serialize::to_value(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_model_has_317_outputs() {
        // §III-C4: "The model produces a total of 317 outputs for each
        // timestep of simulation".
        let m = CoolingModel::frontier();
        assert_eq!(m.output_count(), 317);
        // Plus 25 + 2 inputs, one local diagnostic, and 25 blockage
        // parameters.
        assert_eq!(m.vars.len() - m.output_count(), 28 + 25);
    }

    #[test]
    fn output_breakdown_matches_paper() {
        let m = CoolingModel::frontier();
        // 11 outputs per CDU.
        let cdu_outputs = m
            .variables()
            .iter()
            .filter(|v| v.name.starts_with("cdu[") && v.causality == Causality::Output)
            .count();
        assert_eq!(cdu_outputs, 25 * 11);
        // 16 CT fan channels (the paper's "16 CT fans").
        let fans = m.variables().iter().filter(|v| v.name.starts_with("ct_fan[")).count();
        assert_eq!(fans, 16);
    }

    #[test]
    fn step_produces_physical_outputs() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        let heat = m.spec().heat_per_cdu_w() * 0.8;
        for i in 0..25 {
            m.set_real(VarRef(i), heat).unwrap();
        }
        m.set_real(VarRef(25), 16.0).unwrap(); // wet bulb
        m.set_real(VarRef(26), 21.0e6).unwrap(); // it power
        for k in 0..400 {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        let pue = m.output_by_name("pue").unwrap();
        assert!((1.0..1.2).contains(&pue), "pue={pue}");
        let t_sup = m.output_by_name("cdu[1].secondary_supply_temp").unwrap();
        assert!((25.0..40.0).contains(&t_sup), "supply={t_sup}");
        let q = m.output_by_name("facility.htw_flow").unwrap();
        assert!(q > 0.05, "flow={q}");
    }

    #[test]
    fn inputs_reject_wrong_causality() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        // First output vr is right after the inputs.
        let out_vr = VarRef(27);
        assert!(matches!(
            m.set_real(out_vr, 1.0),
            Err(FmiError::WrongCausality { .. })
        ));
    }

    #[test]
    fn wet_bulb_outside_the_tower_range_is_refused() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        let wb = VarRef(25);
        for bad in [60.5, -40.5, f64::NAN, 1e6] {
            assert!(matches!(m.set_real(wb, bad), Err(FmiError::OutOfRange { .. })), "{bad}");
        }
        assert_eq!(m.get_real(wb).unwrap(), 0.0, "a refused value is not stored");
        m.set_real(wb, 60.0).unwrap();
        assert_eq!(m.get_real(wb).unwrap(), 60.0);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        for i in 0..25 {
            m.set_real(VarRef(i), 1.0e6).unwrap();
        }
        for k in 0..50 {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        m.reset();
        assert_eq!(m.steps, 0);
        assert_eq!(m.output_by_name("pue").unwrap(), 0.0);
    }

    #[test]
    fn invalid_step_rejected() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        assert!(m.do_step(0.0, -1.0).is_err());
    }

    #[test]
    fn autocsm_generates_other_plants() {
        // §V: the same generator handles other architectures.
        let setonix = CoolingModel::new(PlantSpec::setonix_like()).unwrap();
        assert_eq!(
            setonix.output_count(),
            8 * 11 + 2 + 4 + 4 + 1 + 4 + 4 + 8 + 6 + 1
        );
        let m100 = CoolingModel::new(PlantSpec::marconi100_like()).unwrap();
        assert!(m100.output_count() > 0);
    }

    #[test]
    fn blockage_parameter_reduces_flow() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        let heat = m.spec().heat_per_cdu_w() * 0.6;
        for i in 0..25 {
            m.set_real(VarRef(i), heat).unwrap();
        }
        for k in 0..100 {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        let q_before = m.output_by_name("cdu[3].secondary_flow").unwrap();
        // Inject a 4x blockage into CDU 3 through the FMI parameter.
        let vr = m.var_by_name("cdu_blockage[3]").unwrap().vr;
        m.set_real(vr, 4.0).unwrap();
        for k in 100..200 {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        let q_after = m.output_by_name("cdu[3].secondary_flow").unwrap();
        let q_clean = m.output_by_name("cdu[7].secondary_flow").unwrap();
        assert!(q_after < 0.75 * q_before, "blocked {q_after} vs before {q_before}");
        assert!(q_after < 0.75 * q_clean, "blocked {q_after} vs clean {q_clean}");
        // And the blocked loop runs hotter.
        let t_blocked = m.output_by_name("cdu[3].secondary_return_temp").unwrap();
        let t_clean = m.output_by_name("cdu[7].secondary_return_temp").unwrap();
        assert!(t_blocked > t_clean, "blocked {t_blocked} clean {t_clean}");
    }

    #[test]
    fn pue_falls_back_without_it_power() {
        let mut m = CoolingModel::frontier();
        m.setup(0.0);
        let heat = m.spec().heat_per_cdu_w() * 0.7;
        for i in 0..25 {
            m.set_real(VarRef(i), heat).unwrap();
        }
        for k in 0..200 {
            m.do_step(k as f64 * 15.0, 15.0).unwrap();
        }
        let pue = m.output_by_name("pue").unwrap();
        assert!((1.0..1.25).contains(&pue), "pue={pue}");
    }
}
