//! Fluid property correlations.
//!
//! The cooling model needs the density and specific heat of the coolant
//! as functions of temperature. Frontier's facility loops run treated
//! water; the blade-level loop runs a water/propylene-glycol mixture. The
//! correlations below are polynomial fits to standard reference data
//! (IAPWS-97 region for liquid water at atmospheric pressure, ASHRAE for
//! the glycol mixture), accurate to well under 1 % over the 5–60 °C
//! operating band of the plant — far below the model-form error of a
//! system-level twin (Finding 6 of the paper argues against chasing
//! fidelity beyond this).

use serde::{Deserialize, Serialize};

/// Coolant selection for a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Fluid {
    /// Treated facility water (cooling-tower, primary, CDU primary side).
    #[default]
    Water,
    /// 25 % propylene glycol / water by mass (blade-level secondary loop).
    PropyleneGlycol25,
}

impl Fluid {
    /// Density in kg/m³ at temperature `t` (°C).
    pub fn density(&self, t: f64) -> f64 {
        match self {
            Fluid::Water => {
                // Kell-style fit, liquid water 0-100 °C, max error < 0.05 kg/m³.
                999.84 + 0.0673 * t - 0.00894 * t * t + 8.78e-5 * t * t * t - 6.62e-7 * t.powi(4)
            }
            Fluid::PropyleneGlycol25 => {
                // ASHRAE: ~2 % denser than water, slightly steeper slope.
                1023.0 - 0.28 * t - 0.0022 * t * t
            }
        }
    }

    /// Isobaric specific heat in J/(kg·K) at temperature `t` (°C).
    pub fn specific_heat(&self, t: f64) -> f64 {
        match self {
            Fluid::Water => {
                // Liquid water: minimum near 35 °C, ~4178-4186 over band.
                4217.4 - 3.720 * t + 0.1412 * t * t - 2.654e-3 * t * t * t + 2.093e-5 * t.powi(4)
            }
            Fluid::PropyleneGlycol25 => 3974.0 + 2.9 * t,
        }
    }

    /// Volumetric heat capacity ρ·cp in J/(m³·K) — the factor in eq. (7) of
    /// the paper, `H = ρ · Q · ΔT · c`.
    pub fn volumetric_heat_capacity(&self, t: f64) -> f64 {
        self.density(t) * self.specific_heat(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_density_reference_points() {
        // Reference: 998.2 kg/m³ @ 20 °C, 992.2 @ 40 °C.
        assert!((Fluid::Water.density(20.0) - 998.2).abs() < 0.5);
        assert!((Fluid::Water.density(40.0) - 992.2).abs() < 0.8);
    }

    #[test]
    fn water_cp_reference_points() {
        // Reference: ~4181.8 J/kg-K @ 25 °C.
        let cp = Fluid::Water.specific_heat(25.0);
        assert!((cp - 4181.8).abs() < 10.0, "cp={cp}");
    }

    #[test]
    fn glycol_denser_than_water_with_a_lower_cp() {
        let t = 30.0;
        assert!(Fluid::PropyleneGlycol25.density(t) > Fluid::Water.density(t));
        assert!(Fluid::PropyleneGlycol25.specific_heat(t) < Fluid::Water.specific_heat(t));
    }

    #[test]
    fn stream_heat_matches_eq7() {
        // Eq. (7), H = ρ · Q · ΔT · c: 1 m³/s of water with a 10 K rise
        // at 30 °C carries ~41.6 MW.
        let h = Fluid::Water.volumetric_heat_capacity(30.0) * 1.0 * 10.0;
        assert!((h - 41.6e6).abs() / 41.6e6 < 0.01, "h={h}");
    }

    #[test]
    fn properties_are_smooth_over_operating_band() {
        for fluid in [Fluid::Water, Fluid::PropyleneGlycol25] {
            let mut prev = fluid.density(5.0);
            for i in 1..=55 {
                let t = 5.0 + i as f64;
                let d = fluid.density(t);
                assert!(d > 900.0 && d < 1100.0);
                assert!((d - prev).abs() < 1.0, "density jump at {t}");
                prev = d;
            }
        }
    }
}
