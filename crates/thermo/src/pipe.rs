//! Hydraulic resistances, transport delay, and thermal volumes.
//!
//! These are the "volumes (reservoirs) for mass sources, resistances for
//! pressure drops ... and sensors" the paper assembles its sub-models from
//! (§III-C4, citing the templated layout of Greenwood et al.). The
//! hydraulic side is quadratic (`ΔP = k·Q·|Q|`, turbulent regime — plant
//! piping Reynolds numbers are ≫ 10⁴); the thermal side combines plug-flow
//! transport delay with well-mixed lumped capacitance.

use crate::fluid::Fluid;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A fixed quadratic hydraulic resistance: `ΔP = k · Q · |Q|`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HydraulicResistance {
    /// Resistance coefficient, Pa/(m³/s)².
    pub k: f64,
}

impl HydraulicResistance {
    /// Resistance from a design point (`dp_design` Pa at `q_design` m³/s).
    pub fn from_design(q_design: f64, dp_design: f64) -> Self {
        assert!(q_design > 0.0 && dp_design >= 0.0);
        HydraulicResistance { k: dp_design / (q_design * q_design) }
    }

    /// Pressure drop at flow `q` (signed).
    #[inline]
    pub fn pressure_drop(&self, q: f64) -> f64 {
        self.k * q * q.abs()
    }

    /// d(ΔP)/dQ — for the Newton hydraulic solver. Regularised near zero
    /// flow so the Jacobian never becomes singular.
    #[inline]
    pub fn dpressure_dflow(&self, q: f64) -> f64 {
        const Q_EPS: f64 = 1e-6;
        2.0 * self.k * q.abs().max(Q_EPS)
    }
}

/// Plug-flow transport delay: what goes in comes out `volume/flow` seconds
/// later. Models the long site piping between the CEP and the data hall —
/// the source of the staging lag the control model must handle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransportDelay {
    /// Pipe internal volume, m³.
    pub volume_m3: f64,
    /// Buffered (temperature, fluid-volume) slugs, oldest at the front.
    slugs: VecDeque<(f64, f64)>,
    /// Total fluid volume currently buffered.
    buffered_m3: f64,
    /// Outlet temperature when the buffer has never been filled.
    initial_temp: f64,
}

impl TransportDelay {
    /// New delay line initially filled with fluid at `initial_temp` °C.
    pub fn new(volume_m3: f64, initial_temp: f64) -> Self {
        assert!(volume_m3 > 0.0);
        let mut slugs = VecDeque::new();
        slugs.push_back((initial_temp, volume_m3));
        TransportDelay { volume_m3, slugs, buffered_m3: volume_m3, initial_temp }
    }

    /// Push fluid at `t_in` °C flowing at `q` m³/s for `dt` s; returns the
    /// flow-weighted outlet temperature over the interval.
    pub fn step(&mut self, t_in: f64, q: f64, dt: f64) -> f64 {
        let vol_in = (q * dt).max(0.0);
        if vol_in <= 0.0 {
            // No flow: outlet holds the oldest temperature.
            return self.slugs.front().map_or(self.initial_temp, |s| s.0);
        }
        self.slugs.push_back((t_in, vol_in));
        self.buffered_m3 += vol_in;
        // Drain the same volume from the oldest slugs.
        let mut to_drain = vol_in;
        let mut t_weighted = 0.0;
        while to_drain > 0.0 {
            let Some(front) = self.slugs.front_mut() else { break };
            if front.1 <= to_drain {
                t_weighted += front.0 * front.1;
                to_drain -= front.1;
                self.buffered_m3 -= front.1;
                self.slugs.pop_front();
            } else {
                t_weighted += front.0 * to_drain;
                front.1 -= to_drain;
                self.buffered_m3 -= to_drain;
                to_drain = 0.0;
            }
        }
        t_weighted / vol_in
    }
}

/// A well-mixed thermal volume (lumped capacitance) with no heat source of
/// its own: `M·dT/dt = ṁ·(T_in − T)`. Heat enters and leaves only with the
/// flow, so the update needs no fluid property.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalVolume {
    /// Fluid mass in the volume, kg.
    pub mass_kg: f64,
    /// Fluid held. The update reads no property of it; it stays part of
    /// the saved state.
    pub fluid: Fluid,
    /// Current temperature, °C.
    pub temperature: f64,
}

impl ThermalVolume {
    /// New volume at `initial_temp` °C holding `mass_kg` of `fluid`.
    pub fn new(mass_kg: f64, fluid: Fluid, initial_temp: f64) -> Self {
        assert!(mass_kg > 0.0);
        ThermalVolume { mass_kg, fluid, temperature: initial_temp }
    }

    /// Advance by `dt` seconds with inlet `t_in` °C at `mdot` kg/s. Uses
    /// the exact exponential update for the linear ODE so arbitrarily long
    /// steps remain stable (important: the cooling model steps at 15 s but
    /// CDU volumes have time constants of the same order).
    pub fn step(&mut self, t_in: f64, mdot: f64, dt: f64) {
        self.step_decayed(t_in, mdot, self.decay(mdot, dt));
    }

    /// The factor `exp(−ṁ/M · dt)` by which a step of `dt` seconds at
    /// `mdot` kg/s shrinks the distance to the inlet temperature. It
    /// depends on flow only, so a caller taking many steps at one flow
    /// computes it once and passes it to [`Self::step_decayed`].
    pub fn decay(&self, mdot: f64, dt: f64) -> f64 {
        // dT/dt = a(T_in - T) with a = mdot/M.
        let a = mdot / self.mass_kg;
        (-a * dt).exp()
    }

    /// [`Self::step`] with the decay factor for this `mdot` and step given.
    pub fn step_decayed(&mut self, t_in: f64, mdot: f64, decay: f64) {
        if mdot <= 1e-12 {
            // No flow: a stagnant volume holds its temperature.
            return;
        }
        self.temperature = t_in + (self.temperature - t_in) * decay;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resistance_design_point() {
        let r = HydraulicResistance::from_design(0.3, 90_000.0);
        assert!((r.pressure_drop(0.3) - 90_000.0).abs() < 1e-9);
    }

    #[test]
    fn resistance_sign_convention() {
        let r = HydraulicResistance::from_design(0.3, 90_000.0);
        assert!(r.pressure_drop(-0.3) < 0.0);
        assert_eq!(r.pressure_drop(-0.3), -r.pressure_drop(0.3));
    }

    #[test]
    fn jacobian_never_zero() {
        let r = HydraulicResistance::from_design(0.3, 90_000.0);
        assert!(r.dpressure_dflow(0.0) > 0.0);
    }

    #[test]
    fn transport_delay_delays() {
        // 1 m³ pipe at 20 °C, 0.1 m³/s -> 10 s residence time.
        let mut d = TransportDelay::new(1.0, 20.0);
        // For the first ~10 s the outlet must still show 20 °C fluid.
        let early = d.step(50.0, 0.1, 5.0);
        assert!((early - 20.0).abs() < 1e-9);
        // After a further 10 s the hot front has arrived.
        d.step(50.0, 0.1, 5.0);
        let late = d.step(50.0, 0.1, 5.0);
        assert!(late > 45.0, "late={late}");
    }

    #[test]
    fn transport_delay_conserves_volume() {
        let mut d = TransportDelay::new(2.0, 15.0);
        for i in 0..100 {
            d.step(15.0 + i as f64 * 0.1, 0.05, 3.0);
        }
        assert!((d.buffered_m3 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_flow_holds_outlet() {
        let mut d = TransportDelay::new(1.0, 22.0);
        assert_eq!(d.step(80.0, 0.0, 15.0), 22.0);
    }

    #[test]
    fn thermal_volume_approaches_inlet() {
        let mut v = ThermalVolume::new(500.0, Fluid::Water, 20.0);
        for _ in 0..1000 {
            v.step(35.0, 10.0, 1.0);
        }
        assert!((v.temperature - 35.0).abs() < 0.01);
    }

    #[test]
    fn thermal_volume_stable_at_long_steps() {
        // Exponential update must not overshoot even when dt >> tau.
        let mut v = ThermalVolume::new(10.0, Fluid::Water, 20.0);
        v.step(40.0, 100.0, 3600.0);
        assert!((v.temperature - 40.0).abs() < 1e-6);
        assert!(v.temperature <= 40.0 + 1e-9);
    }

    #[test]
    fn thermal_volume_no_flow_holds_temperature() {
        // A stagnant volume keeps its temperature bit for bit, whatever
        // the (not arriving) inlet and however long the step.
        let mut v = ThermalVolume::new(100.0, Fluid::Water, 20.3);
        v.step(99.0, 0.0, 60.0);
        v.step(-5.0, 1e-13, 3600.0);
        assert_eq!(v.temperature.to_bits(), 20.3f64.to_bits());
    }
}
