//! Centrifugal pump model.
//!
//! Frontier's plant has three pump families (Fig. 5 of the paper): four
//! cooling-tower water pumps (CTWP1-4, ~9000-10000 gpm), four high-
//! temperature water pumps (HTWP1-4, ~5000-6000 gpm) and one pump per CDU.
//! Each is modelled with a quadratic head curve scaled by the affinity
//! laws, a quadratic efficiency curve peaking at the best-efficiency point,
//! and a motor/VFD efficiency — enough to reproduce the pump power and
//! speed outputs the cooling model reports per step (§III-C4).

use crate::fluid::Fluid;
use serde::{Deserialize, Serialize};

/// Standard gravity, m/s².
const G: f64 = 9.806_65;

/// A variable-speed centrifugal pump.
///
/// Head curve at rated speed: `H(Q) = h_shutoff − k_h · Q²` (metres of
/// fluid column). Affinity laws under relative speed `s ∈ [0, 1]`:
/// `H(Q, s) = s² · h_shutoff − k_h · Q²`, BEP flow scales with `s`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pump {
    /// Identifier used in output registries, e.g. `HTWP2`.
    pub name: String,
    /// Shutoff head at rated speed, m.
    pub shutoff_head_m: f64,
    /// Head-curve quadratic coefficient, m/(m³/s)².
    pub head_coeff: f64,
    /// Best-efficiency-point flow at rated speed, m³/s.
    pub bep_flow_m3s: f64,
    /// Peak hydraulic efficiency at the BEP (0..1).
    pub peak_efficiency: f64,
    /// Combined motor + VFD efficiency (0..1).
    pub motor_efficiency: f64,
    /// Pumped fluid.
    pub fluid: Fluid,
}

impl Pump {
    /// Construct a pump from a design point: it delivers `design_flow_m3s`
    /// at `design_head_m` when running at rated speed, with the shutoff
    /// head 30 % above design head (a typical centrifugal characteristic).
    pub fn from_design_point(
        name: impl Into<String>,
        design_flow_m3s: f64,
        design_head_m: f64,
        peak_efficiency: f64,
    ) -> Self {
        assert!(design_flow_m3s > 0.0 && design_head_m > 0.0);
        let shutoff = 1.3 * design_head_m;
        let k = (shutoff - design_head_m) / (design_flow_m3s * design_flow_m3s);
        Pump {
            name: name.into(),
            shutoff_head_m: shutoff,
            head_coeff: k,
            bep_flow_m3s: design_flow_m3s,
            peak_efficiency,
            motor_efficiency: 0.93,
            fluid: Fluid::Water,
        }
    }

    /// Head (m) produced at flow `q` (m³/s) and relative speed `s`.
    /// Clamped at zero (no negative head; check valves prevent reverse flow).
    pub fn head(&self, q: f64, s: f64) -> f64 {
        if s <= 0.0 {
            return 0.0;
        }
        (s * s * self.shutoff_head_m - self.head_coeff * q * q).max(0.0)
    }

    /// Weight density `ρ(t)·g` of the pumped fluid, Pa per metre of head.
    /// Fixed for a whole hydraulic solve, so the solver evaluates it once
    /// and passes it to [`Self::pressure_rise_at`] and
    /// [`Self::dpressure_dflow_at`].
    pub fn rho_g(&self, t: f64) -> f64 {
        self.fluid.density(t) * G
    }

    /// Pressure rise (Pa) at flow `q` (m³/s) and speed `s`, for the
    /// weight density `rho_g` ([`Self::rho_g`]) of the pumped fluid.
    pub fn pressure_rise_at(&self, rho_g: f64, q: f64, s: f64) -> f64 {
        rho_g * self.head(q, s)
    }

    /// Derivative of pressure rise with respect to flow, Pa/(m³/s) — used
    /// by the Newton hydraulic solver.
    pub fn dpressure_dflow(&self, q: f64, s: f64, t: f64) -> f64 {
        self.dpressure_dflow_at(self.rho_g(t), q, s)
    }

    /// [`Self::dpressure_dflow`] with the weight density `rho_g` given.
    pub fn dpressure_dflow_at(&self, rho_g: f64, q: f64, s: f64) -> f64 {
        if s <= 0.0 || self.head(q, s) <= 0.0 {
            return 0.0;
        }
        -2.0 * rho_g * self.head_coeff * q
    }

    /// Hydraulic efficiency at flow `q` and speed `s`: quadratic in the
    /// speed-normalised flow, peaking at the BEP.
    pub fn efficiency(&self, q: f64, s: f64) -> f64 {
        if s <= 0.0 {
            return 0.0;
        }
        let qn = q / (self.bep_flow_m3s * s);
        // η(qn) = η_peak · (2·qn − qn²) peaks at qn = 1 with value η_peak.
        (self.peak_efficiency * (2.0 * qn - qn * qn)).clamp(0.01, self.peak_efficiency)
    }

    /// Electrical power drawn (W) at flow `q` (m³/s), speed `s`, temp `t`
    /// °C, for this pump's [`Self::rated_power`] `rated_w`. Includes a
    /// small standby term so an idling, spinning pump is not free. The
    /// rated power depends on the pump's constants only, so a caller
    /// evaluating many pumps of one family computes it once.
    pub fn electrical_power_at(&self, rated_w: f64, q: f64, s: f64, t: f64) -> f64 {
        if s <= 0.0 {
            return 0.0;
        }
        let hydraulic = self.fluid.density(t) * G * self.head(q, s) * q.max(0.0);
        let shaft = hydraulic / self.efficiency(q, s);
        // Windage/bearing losses scale with the cube of speed.
        let standby = 0.02 * rated_w * s * s * s;
        shaft / self.motor_efficiency + standby
    }

    /// Nominal electrical power at the design point (W).
    pub fn rated_power(&self) -> f64 {
        let t = 25.0;
        let q = self.bep_flow_m3s;
        let h = self.head(q, 1.0);
        self.fluid.density(t) * G * h * q / (self.peak_efficiency * self.motor_efficiency)
    }

    /// Flow at which the pump curve intersects a system curve
    /// `ΔP_sys = k_sys · Q²` (Pa), at speed `s` and temperature `t`.
    /// Closed form for the quadratic/quadratic intersection.
    pub fn operating_flow(&self, k_sys: f64, s: f64, t: f64) -> f64 {
        if s <= 0.0 {
            return 0.0;
        }
        let rho_g = self.fluid.density(t) * G;
        // rho_g (s² h0 - k_h q²) = k_sys q²
        let num = rho_g * s * s * self.shutoff_head_m;
        let den = k_sys + rho_g * self.head_coeff;
        (num / den).max(0.0).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gallons per minute, the unit the paper quotes pump flows in, to m³/s.
    fn gpm_to_m3s(gpm: f64) -> f64 {
        gpm * 3.785_411_784e-3 / 60.0
    }

    fn htwp() -> Pump {
        // HTWP design: ~5500 gpm at ~30 m head (paper: 5000-6000 gpm).
        Pump::from_design_point("HTWP1", gpm_to_m3s(5500.0), 30.0, 0.82)
    }

    #[test]
    fn head_at_design_point() {
        let p = htwp();
        let q = gpm_to_m3s(5500.0);
        assert!((p.head(q, 1.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn shutoff_head_higher_than_design() {
        let p = htwp();
        assert!((p.head(0.0, 1.0) - 39.0).abs() < 1e-9);
    }

    #[test]
    fn affinity_scaling_halves_head_at_half_speed_zero_flow() {
        let p = htwp();
        assert!((p.head(0.0, 0.5) - 39.0 * 0.25).abs() < 1e-9);
    }

    #[test]
    fn efficiency_peaks_at_bep() {
        let p = htwp();
        let q_bep = p.bep_flow_m3s;
        let at_bep = p.efficiency(q_bep, 1.0);
        assert!((at_bep - 0.82).abs() < 1e-9);
        assert!(p.efficiency(q_bep * 0.5, 1.0) < at_bep);
        assert!(p.efficiency(q_bep * 1.4, 1.0) < at_bep);
    }

    #[test]
    fn power_is_positive_and_plausible() {
        let p = htwp();
        let q = p.bep_flow_m3s;
        let w = p.electrical_power_at(p.rated_power(), q, 1.0, 25.0);
        // ρgQH/η ≈ 1000*9.81*0.347*30/0.82/0.93 ≈ 134 kW
        assert!(w > 100_000.0 && w < 200_000.0, "w={w}");
    }

    #[test]
    fn zero_speed_draws_nothing() {
        let p = htwp();
        assert_eq!(p.electrical_power_at(p.rated_power(), 0.1, 0.0, 25.0), 0.0);
        assert_eq!(p.head(0.1, 0.0), 0.0);
    }

    #[test]
    fn operating_flow_balances_system_curve() {
        let p = htwp();
        let k_sys = 1.0e6; // Pa/(m³/s)²
        let q = p.operating_flow(k_sys, 1.0, 25.0);
        let dp_pump = p.pressure_rise_at(p.rho_g(25.0), q, 1.0);
        let dp_sys = k_sys * q * q;
        assert!((dp_pump - dp_sys).abs() / dp_sys < 1e-9, "q={q}");
    }

    #[test]
    fn operating_flow_drops_with_speed() {
        let p = htwp();
        let k_sys = 1.0e6;
        let q_full = p.operating_flow(k_sys, 1.0, 25.0);
        let q_half = p.operating_flow(k_sys, 0.5, 25.0);
        assert!((q_half - 0.5 * q_full).abs() / q_full < 1e-9);
    }

    #[test]
    fn rated_power_close_to_bep_power() {
        let p = htwp();
        let rated = p.rated_power();
        let actual = p.electrical_power_at(rated, p.bep_flow_m3s, 1.0, 25.0);
        assert!((actual - rated).abs() / rated < 0.05);
    }
}
