//! Control valves.
//!
//! Each CDU regulates its primary coolant intake with a control valve to
//! hold the secondary supply temperature at setpoint (§III-C5 of the
//! paper). The valve contributes a variable hydraulic resistance
//! `ΔP = k(x) · Q²` where the opening-dependent coefficient follows either
//! a linear or equal-percentage inherent characteristic.

use crate::pipe::HydraulicResistance;
use serde::{Deserialize, Serialize};

/// Inherent flow characteristic of the valve trim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ValveCharacteristic {
    /// Flow coefficient proportional to opening.
    Linear,
    /// Flow coefficient `R^(x-1)` with rangeability `R` — the industry
    /// default for temperature control loops.
    #[default]
    EqualPercentage,
}

/// A modulating two-way control valve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlValve {
    /// Identifier, e.g. `CDU7.primary_valve`.
    pub name: String,
    /// Hydraulic resistance fully open, Pa/(m³/s)².
    pub k_open: f64,
    /// Trim characteristic.
    pub characteristic: ValveCharacteristic,
    /// Rangeability (ratio of max to min controllable flow coefficient).
    pub rangeability: f64,
    /// Minimum opening (leakage floor) to keep the hydraulics regular.
    pub min_opening: f64,
    /// Current commanded opening in `[0, 1]`.
    opening: f64,
}

impl ControlValve {
    /// Valve sized so that fully open it drops `dp_design` Pa at
    /// `q_design` m³/s.
    pub fn from_design(name: impl Into<String>, q_design: f64, dp_design: f64) -> Self {
        assert!(q_design > 0.0 && dp_design > 0.0);
        ControlValve {
            name: name.into(),
            k_open: dp_design / (q_design * q_design),
            characteristic: ValveCharacteristic::EqualPercentage,
            rangeability: 50.0,
            min_opening: 0.02,
            opening: 1.0,
        }
    }

    /// Set the commanded opening, clamped to `[min_opening, 1]`.
    pub fn set_opening(&mut self, x: f64) {
        self.opening = x.clamp(self.min_opening, 1.0);
    }

    /// Current opening.
    pub fn opening(&self) -> f64 {
        self.opening
    }

    /// Relative flow coefficient `phi(x) ∈ (0, 1]` for the current opening.
    pub fn relative_flow_coefficient(&self) -> f64 {
        let x = self.opening;
        match self.characteristic {
            ValveCharacteristic::Linear => x.max(1.0 / self.rangeability),
            ValveCharacteristic::EqualPercentage => self.rangeability.powf(x - 1.0),
        }
    }

    /// Hydraulic resistance at the current opening, Pa/(m³/s)².
    /// `ΔP = k(x)·Q²` with `k(x) = k_open / phi(x)²`.
    pub fn resistance(&self) -> f64 {
        let phi = self.relative_flow_coefficient();
        self.k_open / (phi * phi)
    }

    /// The valve at its current opening as a fixed quadratic resistance —
    /// what a hydraulic solve sees while the opening does not change.
    pub fn as_resistance(&self) -> HydraulicResistance {
        HydraulicResistance { k: self.resistance() }
    }

    /// Pressure drop (Pa) at volumetric flow `q` (m³/s).
    pub fn pressure_drop(&self, q: f64) -> f64 {
        self.as_resistance().pressure_drop(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_point_drop() {
        let v = ControlValve::from_design("V", 0.02, 50_000.0);
        assert!((v.pressure_drop(0.02) - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn closing_raises_resistance_monotonically() {
        let mut v = ControlValve::from_design("V", 0.02, 50_000.0);
        let mut prev = 0.0;
        for i in (1..=10).rev() {
            v.set_opening(i as f64 / 10.0);
            let r = v.resistance();
            assert!(r > prev, "resistance must rise as valve closes");
            prev = r;
        }
    }

    #[test]
    fn equal_percentage_characteristic() {
        let mut v = ControlValve::from_design("V", 0.02, 50_000.0);
        v.characteristic = ValveCharacteristic::EqualPercentage;
        v.set_opening(1.0);
        assert!((v.relative_flow_coefficient() - 1.0).abs() < 1e-12);
        v.set_opening(0.5);
        let phi_half = v.relative_flow_coefficient();
        assert!((phi_half - 50.0f64.powf(-0.5)).abs() < 1e-12);
    }

    #[test]
    fn linear_characteristic() {
        let mut v = ControlValve::from_design("V", 0.02, 50_000.0);
        v.characteristic = ValveCharacteristic::Linear;
        v.set_opening(0.5);
        assert!((v.relative_flow_coefficient() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn opening_clamped() {
        let mut v = ControlValve::from_design("V", 0.02, 50_000.0);
        v.set_opening(2.0);
        assert_eq!(v.opening(), 1.0);
        v.set_opening(-1.0);
        assert_eq!(v.opening(), v.min_opening);
    }

    #[test]
    fn negative_flow_gives_negative_drop() {
        let v = ControlValve::from_design("V", 0.02, 50_000.0);
        assert!(v.pressure_drop(-0.01) < 0.0);
    }
}
