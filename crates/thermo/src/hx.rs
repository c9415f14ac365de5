//! ε-NTU counterflow heat exchangers.
//!
//! Two heat-exchanger families appear in Fig. 5 of the paper: the five
//! intermediate heat exchangers (EHX1-5) joining the cooling-tower loop to
//! the primary loop, and the HEX-1600 inside each of the 25 CDUs joining
//! the primary loop to the rack secondary loop. Both are liquid-liquid
//! plate exchangers, well captured by the counterflow effectiveness-NTU
//! method with a flow-dependent UA.

use crate::fluid::Fluid;
use serde::{Deserialize, Serialize};

/// Counterflow effectiveness for capacity ratio `cr = Cmin/Cmax` and `ntu`.
pub fn effectiveness_counterflow(ntu: f64, cr: f64) -> f64 {
    debug_assert!(ntu >= 0.0 && (0.0..=1.0).contains(&cr));
    if ntu == 0.0 {
        return 0.0;
    }
    if (1.0 - cr).abs() < 1e-9 {
        ntu / (1.0 + ntu)
    } else {
        let e = (-ntu * (1.0 - cr)).exp();
        (1.0 - e) / (1.0 - cr * e)
    }
}

/// Inverse of [`effectiveness_counterflow`]: NTU required for a target
/// effectiveness at capacity ratio `cr`. Used to size UA from design data.
pub fn ntu_counterflow(effectiveness: f64, cr: f64) -> f64 {
    assert!((0.0..1.0).contains(&effectiveness));
    if (1.0 - cr).abs() < 1e-9 {
        effectiveness / (1.0 - effectiveness)
    } else {
        (1.0 / (cr - 1.0)) * ((effectiveness - 1.0) / (effectiveness * cr - 1.0)).ln()
    }
}

/// Result of one heat-exchanger evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HxResult {
    /// Heat transferred hot→cold, W (non-negative in normal operation).
    pub heat_w: f64,
    /// Hot-side outlet temperature, °C.
    pub t_hot_out: f64,
    /// Cold-side outlet temperature, °C.
    pub t_cold_out: f64,
    /// Effectiveness achieved (0..1).
    pub effectiveness: f64,
}

/// A counterflow liquid-liquid heat exchanger sized from a design point.
///
/// UA varies with flow as `UA = UA_design · (m_avg / m_design)^0.7`, a
/// standard plate-HX scaling that keeps part-load behaviour realistic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeatExchanger {
    /// Identifier, e.g. `EHX3` or `CDU17.HEX-1600`.
    pub name: String,
    /// Design-point UA, W/K.
    pub ua_design: f64,
    /// Design mean mass flow (average of both sides), kg/s.
    pub mdot_design: f64,
    /// Hot-side fluid.
    pub hot_fluid: Fluid,
    /// Cold-side fluid.
    pub cold_fluid: Fluid,
}

impl HeatExchanger {
    /// Size an exchanger that achieves `design_effectiveness` with equal
    /// design mass flows `mdot_design` (kg/s) on both sides.
    pub fn from_design(
        name: impl Into<String>,
        design_effectiveness: f64,
        mdot_design: f64,
        hot_fluid: Fluid,
        cold_fluid: Fluid,
    ) -> Self {
        // With equal capacity rates cr = 1: NTU = ε/(1-ε); UA = NTU·Cmin.
        let cp = hot_fluid.specific_heat(30.0).min(cold_fluid.specific_heat(30.0));
        let ntu = ntu_counterflow(design_effectiveness, 1.0);
        HeatExchanger {
            name: name.into(),
            ua_design: ntu * mdot_design * cp,
            mdot_design,
            hot_fluid,
            cold_fluid,
        }
    }

    /// UA at the given side mass flows (kg/s).
    pub fn ua(&self, mdot_hot: f64, mdot_cold: f64) -> f64 {
        self.ua_scaled(1.0, mdot_hot, mdot_cold)
    }

    /// UA of `share` of the design area (the staged part of a bank) at the
    /// given side mass flows (kg/s). Depends on flows only, so a caller
    /// evaluating many inlet temperatures at one flow computes it once and
    /// passes it to [`Self::evaluate_at_ua`].
    pub fn ua_scaled(&self, share: f64, mdot_hot: f64, mdot_cold: f64) -> f64 {
        let m_avg = 0.5 * (mdot_hot + mdot_cold);
        if m_avg <= 0.0 {
            return 0.0;
        }
        self.ua_design * share * (m_avg / self.mdot_design).powf(0.7)
    }

    /// Evaluate the exchanger for the given inlet conditions.
    ///
    /// `mdot_*` are mass flows in kg/s; temperatures in °C. Zero flow on
    /// either side transfers no heat.
    pub fn evaluate(
        &self,
        t_hot_in: f64,
        mdot_hot: f64,
        t_cold_in: f64,
        mdot_cold: f64,
    ) -> HxResult {
        self.evaluate_at_ua(self.ua(mdot_hot, mdot_cold), t_hot_in, mdot_hot, t_cold_in, mdot_cold)
    }

    /// [`Self::evaluate`] with the UA at these flows given (from
    /// [`Self::ua`] or [`Self::ua_scaled`]).
    pub fn evaluate_at_ua(
        &self,
        ua: f64,
        t_hot_in: f64,
        mdot_hot: f64,
        t_cold_in: f64,
        mdot_cold: f64,
    ) -> HxResult {
        if mdot_hot <= 1e-9 || mdot_cold <= 1e-9 {
            return HxResult {
                heat_w: 0.0,
                t_hot_out: t_hot_in,
                t_cold_out: t_cold_in,
                effectiveness: 0.0,
            };
        }
        let t_mean = 0.5 * (t_hot_in + t_cold_in);
        let cp_hot = self.hot_fluid.specific_heat(t_mean);
        let cp_cold = if self.cold_fluid == self.hot_fluid {
            cp_hot
        } else {
            self.cold_fluid.specific_heat(t_mean)
        };
        let (c_hot, c_cold) = (mdot_hot * cp_hot, mdot_cold * cp_cold);
        let (c_min, c_max) = if c_hot < c_cold { (c_hot, c_cold) } else { (c_cold, c_hot) };
        let cr = c_min / c_max;
        let ntu = ua / c_min;
        let eff = effectiveness_counterflow(ntu, cr);
        let q = eff * c_min * (t_hot_in - t_cold_in);
        HxResult {
            heat_w: q,
            t_hot_out: t_hot_in - q / c_hot,
            t_cold_out: t_cold_in + q / c_cold,
            effectiveness: eff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effectiveness_limits() {
        assert_eq!(effectiveness_counterflow(0.0, 0.5), 0.0);
        // NTU -> inf, cr < 1 -> ε -> 1.
        assert!((effectiveness_counterflow(50.0, 0.5) - 1.0).abs() < 1e-9);
        // cr = 1: ε = NTU/(1+NTU).
        assert!((effectiveness_counterflow(3.0, 1.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ntu_inverts_effectiveness() {
        for &cr in &[0.0, 0.3, 0.7, 1.0] {
            for &eps in &[0.1, 0.5, 0.8, 0.95] {
                let ntu = ntu_counterflow(eps, cr);
                let back = effectiveness_counterflow(ntu, cr);
                assert!((back - eps).abs() < 1e-9, "cr={cr} eps={eps} back={back}");
            }
        }
    }

    #[test]
    fn design_point_recovers_effectiveness() {
        let hx = HeatExchanger::from_design("EHX1", 0.85, 300.0, Fluid::Water, Fluid::Water);
        let r = hx.evaluate(30.0, 300.0, 20.0, 300.0);
        assert!((r.effectiveness - 0.85).abs() < 0.01, "eff={}", r.effectiveness);
    }

    #[test]
    fn energy_balance_holds() {
        let hx = HeatExchanger::from_design("EHX1", 0.8, 200.0, Fluid::Water, Fluid::Water);
        let r = hx.evaluate(35.0, 180.0, 22.0, 210.0);
        let t_mean = 0.5 * (35.0 + 22.0);
        let q_hot = 180.0 * Fluid::Water.specific_heat(t_mean) * (35.0 - r.t_hot_out);
        let q_cold = 210.0 * Fluid::Water.specific_heat(t_mean) * (r.t_cold_out - 22.0);
        assert!((q_hot - r.heat_w).abs() / r.heat_w < 1e-9);
        assert!((q_cold - r.heat_w).abs() / r.heat_w < 1e-9);
    }

    #[test]
    fn no_flow_no_heat() {
        let hx = HeatExchanger::from_design("EHX1", 0.8, 200.0, Fluid::Water, Fluid::Water);
        let r = hx.evaluate(35.0, 0.0, 22.0, 210.0);
        assert_eq!(r.heat_w, 0.0);
        assert_eq!(r.t_hot_out, 35.0);
        assert_eq!(r.t_cold_out, 22.0);
    }

    #[test]
    fn outlet_temps_bracketed_by_inlets() {
        let hx = HeatExchanger::from_design("X", 0.9, 100.0, Fluid::Water, Fluid::Water);
        let r = hx.evaluate(40.0, 80.0, 18.0, 120.0);
        assert!(r.t_hot_out > 18.0 && r.t_hot_out < 40.0);
        assert!(r.t_cold_out > 18.0 && r.t_cold_out < 40.0);
    }

    #[test]
    fn part_load_ua_reduces_effectiveness_gently() {
        let hx = HeatExchanger::from_design("X", 0.85, 200.0, Fluid::Water, Fluid::Water);
        let full = hx.evaluate(35.0, 200.0, 20.0, 200.0);
        let part = hx.evaluate(35.0, 50.0, 20.0, 50.0);
        // At part flow NTU rises (UA falls slower than mdot) so ε improves.
        assert!(part.effectiveness > full.effectiveness);
    }

    #[test]
    fn reversed_gradient_transfers_negative_heat() {
        // Cold side hotter than hot side: heat flows the other way, the
        // ε-NTU algebra handles it with a sign change.
        let hx = HeatExchanger::from_design("X", 0.8, 100.0, Fluid::Water, Fluid::Water);
        let r = hx.evaluate(20.0, 100.0, 30.0, 100.0);
        assert!(r.heat_w < 0.0);
        assert!(r.t_hot_out > 20.0);
        assert!(r.t_cold_out < 30.0);
    }
}
