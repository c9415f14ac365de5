//! Evaporative cooling-tower cells.
//!
//! Frontier's cooling-tower loop circulates through five towers of four
//! cells each — 20 independent cells (§III-C1). The paper uses the
//! variable-fan-speed tower from the Modelica Buildings Library; we
//! implement the equivalent Braun ε-NTU formulation: the tower is treated
//! as a counterflow exchanger between the water stream and an air stream
//! whose effective specific heat is the local slope of the saturated-air
//! enthalpy curve. Fan speed scales air mass flow linearly and fan power
//! cubically.

use crate::hx::effectiveness_counterflow;
use crate::psychro;
use serde::{Deserialize, Serialize};

/// Result of evaluating one tower cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TowerResult {
    /// Water outlet temperature, °C.
    pub t_water_out: f64,
    /// Heat rejected to ambient, W.
    pub heat_rejected_w: f64,
    /// Fan electrical power, W.
    pub fan_power_w: f64,
    /// Approach to wet-bulb (T_water_out − T_wb), K.
    pub approach_k: f64,
}

/// One cooling-tower cell with a variable-speed fan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingTowerCell {
    /// Identifier, e.g. `CT3.cell2`.
    pub name: String,
    /// Design water mass flow per cell, kg/s.
    pub mdot_water_design: f64,
    /// Design air mass flow at full fan speed, kg/s.
    pub mdot_air_design: f64,
    /// NTU at design flows (mass-transfer units).
    pub ntu_design: f64,
    /// Fan motor power at full speed, W.
    pub fan_power_rated: f64,
    /// Minimum fan speed when running (VFD floor).
    pub min_fan_speed: f64,
}

impl CoolingTowerCell {
    /// A cell sized for the given design water flow. Air flow is set for a
    /// typical liquid-to-gas ratio of ~1.2 and NTU for a ~2-3 K approach.
    pub fn from_design(name: impl Into<String>, mdot_water_design: f64, fan_power_rated: f64) -> Self {
        CoolingTowerCell {
            name: name.into(),
            mdot_water_design,
            mdot_air_design: mdot_water_design / 1.2,
            ntu_design: 3.0,
            fan_power_rated,
            min_fan_speed: 0.2,
        }
    }

    /// Air mass flow at a relative fan speed (clamped to `[0, 1]`): the
    /// fan-driven flow plus a natural-draft floor of 10 % of design.
    fn air_flow(&self, fan_speed: f64) -> f64 {
        let air_frac = (0.1 + 0.9 * fan_speed.clamp(0.0, 1.0)).min(1.0);
        self.mdot_air_design * air_frac
    }

    /// NTU at a water mass flow (kg/s) and relative fan speed, scaling
    /// with flows as `NTU ∝ (mdot_air / design)^0.6 ·
    /// (mdot_water/design)^-0.4` (Braun's exponent pair). Depends on flows
    /// only, so a caller evaluating many inlet temperatures at one flow
    /// computes it once and passes it to [`Self::evaluate_at_ntu`].
    pub fn ntu(&self, mdot_water: f64, fan_speed: f64) -> f64 {
        let mdot_air = self.air_flow(fan_speed);
        if mdot_water <= 0.0 || mdot_air <= 0.0 {
            return 0.0;
        }
        self.ntu_design
            * (mdot_air / self.mdot_air_design).powf(0.6)
            * (mdot_water / self.mdot_water_design).powf(-0.4)
    }

    /// Evaluate the cell.
    ///
    /// * `t_water_in` — entering water temperature, °C;
    /// * `mdot_water` — water mass flow through the cell, kg/s;
    /// * `t_wet_bulb` — ambient wet-bulb, °C;
    /// * `fan_speed` — relative fan speed in `[0, 1]` (0 = fan off;
    ///   natural-draft effect is approximated as 10 % of design air flow).
    pub fn evaluate(
        &self,
        t_water_in: f64,
        mdot_water: f64,
        t_wet_bulb: f64,
        fan_speed: f64,
    ) -> TowerResult {
        let ntu = self.ntu(mdot_water, fan_speed);
        self.evaluate_at_ntu(ntu, t_water_in, mdot_water, t_wet_bulb, fan_speed)
    }

    /// [`Self::evaluate`] with the NTU at this water flow and fan speed
    /// given (from [`Self::ntu`]).
    pub fn evaluate_at_ntu(
        &self,
        ntu: f64,
        t_water_in: f64,
        mdot_water: f64,
        t_wet_bulb: f64,
        fan_speed: f64,
    ) -> TowerResult {
        let fan_speed = fan_speed.clamp(0.0, 1.0);
        if mdot_water <= 1e-9 {
            return TowerResult {
                t_water_out: t_water_in,
                heat_rejected_w: 0.0,
                fan_power_w: 0.0,
                approach_k: t_water_in - t_wet_bulb,
            };
        }
        let mdot_air = self.air_flow(fan_speed);

        // Braun's effective saturation specific heat over the span between
        // wet-bulb and entering water temperature.
        let cs = psychro::saturation_specific_heat(t_wet_bulb, t_water_in.max(t_wet_bulb + 0.5));
        let cp_w = crate::fluid::Fluid::Water.specific_heat(t_water_in);

        let c_water = mdot_water * cp_w;
        let c_air = mdot_air * cs;
        let (c_min, c_max) = if c_water < c_air { (c_water, c_air) } else { (c_air, c_water) };
        let cr = c_min / c_max;
        let eff = effectiveness_counterflow(ntu, cr);

        let q = (eff * c_min * (t_water_in - t_wet_bulb)).max(0.0);
        let t_out = t_water_in - q / c_water;
        let fan_power = if fan_speed > 0.0 {
            let s = fan_speed.max(self.min_fan_speed);
            self.fan_power_rated * s * s * s
        } else {
            0.0
        };
        TowerResult {
            t_water_out: t_out,
            heat_rejected_w: q,
            fan_power_w: fan_power,
            approach_k: t_out - t_wet_bulb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CoolingTowerCell {
        // Frontier-scale: ~30 MW over 20 cells -> ~1.5 MW/cell at ~5 K range,
        // water flow ~ 1.5e6/(4186*5) ≈ 72 kg/s per cell... the real plant
        // runs ~9500 gpm total ≈ 600 kg/s over 20 cells = 30 kg/s/cell at
        // larger range. Use 30 kg/s design.
        CoolingTowerCell::from_design("CT1.cell1", 30.0, 11_000.0)
    }

    #[test]
    fn cools_toward_wet_bulb() {
        let c = cell();
        let r = c.evaluate(30.0, 30.0, 18.0, 1.0);
        assert!(r.t_water_out < 30.0);
        assert!(r.t_water_out > 18.0, "cannot cool below wet-bulb");
        assert!(r.approach_k > 0.0);
    }

    #[test]
    fn full_fan_small_approach() {
        let c = cell();
        let r = c.evaluate(28.0, 30.0, 16.0, 1.0);
        // A well-sized cell at design flow should approach within ~2-5 K.
        assert!(r.approach_k < 5.0, "approach={}", r.approach_k);
    }

    #[test]
    fn fan_off_still_cools_a_little() {
        let c = cell();
        let on = c.evaluate(30.0, 30.0, 18.0, 1.0);
        let off = c.evaluate(30.0, 30.0, 18.0, 0.0);
        assert!(off.heat_rejected_w > 0.0);
        assert!(off.heat_rejected_w < on.heat_rejected_w);
        assert_eq!(off.fan_power_w, 0.0);
    }

    #[test]
    fn fan_power_cubic() {
        let c = cell();
        let full = c.evaluate(30.0, 30.0, 18.0, 1.0).fan_power_w;
        let half = c.evaluate(30.0, 30.0, 18.0, 0.5).fan_power_w;
        assert!((half / full - 0.125).abs() < 1e-9);
    }

    #[test]
    fn heat_balance_consistent_with_temperature_drop() {
        let c = cell();
        let r = c.evaluate(32.0, 25.0, 20.0, 0.8);
        let cp = crate::fluid::Fluid::Water.specific_heat(32.0);
        let q_from_dt = 25.0 * cp * (32.0 - r.t_water_out);
        assert!((q_from_dt - r.heat_rejected_w).abs() / r.heat_rejected_w < 1e-9);
    }

    #[test]
    fn no_water_flow_passthrough() {
        let c = cell();
        let r = c.evaluate(30.0, 0.0, 18.0, 1.0);
        assert_eq!(r.heat_rejected_w, 0.0);
        assert_eq!(r.t_water_out, 30.0);
    }

    #[test]
    fn hotter_wet_bulb_less_rejection() {
        let c = cell();
        let cool_day = c.evaluate(30.0, 30.0, 12.0, 1.0);
        let hot_day = c.evaluate(30.0, 30.0, 24.0, 1.0);
        assert!(hot_day.heat_rejected_w < cool_day.heat_rejected_w);
    }
}
