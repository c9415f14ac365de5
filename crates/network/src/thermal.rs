//! Thermal stream helpers.
//!
//! Once the hydraulic solve fixes the flow field, temperatures propagate
//! along the flow direction: streams mix at junctions (flow-weighted),
//! pick up heat in loads, and shed it in exchangers/towers. The cooling
//! crate sequences its components explicitly; these helpers keep the
//! junction algebra in one tested place.

use exadigit_thermo::fluid::Fluid;

/// Flow-weighted mixing temperature of streams `(mdot_kg_s, t_c)` added
/// one at a time, so a caller producing them in a loop need not collect
/// them. Streams with non-positive flow are ignored; with no positive flow
/// the result is the plain average of the given temperatures (a harmless
/// convention for a stagnant junction), and with no stream at all NaN.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamMixer {
    mdot_sum: f64,
    weighted: f64,
    /// Plain sum of every temperature, for the stagnant-junction average.
    t_sum: f64,
    count: usize,
}

impl StreamMixer {
    /// Add a stream of `mdot` kg/s at `t` °C.
    pub fn add(&mut self, mdot: f64, t: f64) {
        if mdot > 0.0 {
            self.mdot_sum += mdot;
            self.weighted += mdot * t;
        }
        self.t_sum += t;
        self.count += 1;
    }

    /// Mixed temperature of the streams added so far.
    pub fn temperature(&self) -> f64 {
        if self.mdot_sum > 0.0 {
            self.weighted / self.mdot_sum
        } else if self.count == 0 {
            f64::NAN
        } else {
            self.t_sum / self.count as f64
        }
    }
}

/// Temperature rise of a stream absorbing `heat_w` at `mdot` kg/s:
/// `ΔT = H / (ṁ·cp)` — the inverse of eq. (7) in the paper.
pub fn temperature_rise(fluid: Fluid, t_in: f64, mdot: f64, heat_w: f64) -> f64 {
    if mdot <= 1e-12 {
        return t_in; // no flow: rise is undefined; hold the inlet
    }
    t_in + heat_w / (mdot * fluid.specific_heat(t_in))
}

/// Convert volumetric flow (m³/s) to mass flow (kg/s) at temperature `t`.
pub fn mass_flow(fluid: Fluid, q_m3s: f64, t: f64) -> f64 {
    q_m3s * fluid.density(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_streams(streams: &[(f64, f64)]) -> f64 {
        let mut mixer = StreamMixer::default();
        for &(mdot, t) in streams {
            mixer.add(mdot, t);
        }
        mixer.temperature()
    }

    #[test]
    fn mixing_two_equal_streams_averages() {
        let t = mix_streams(&[(5.0, 20.0), (5.0, 40.0)]);
        assert!((t - 30.0).abs() < 1e-12);
    }

    #[test]
    fn mixing_weighted_by_flow() {
        let t = mix_streams(&[(9.0, 20.0), (1.0, 40.0)]);
        assert!((t - 22.0).abs() < 1e-12);
    }

    #[test]
    fn negative_flows_ignored() {
        let t = mix_streams(&[(5.0, 20.0), (-5.0, 99.0)]);
        assert!((t - 20.0).abs() < 1e-12);
    }

    #[test]
    fn stagnant_junction_plain_average() {
        let t = mix_streams(&[(0.0, 10.0), (0.0, 30.0)]);
        assert!((t - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_nan() {
        assert!(mix_streams(&[]).is_nan());
    }

    #[test]
    fn temperature_rise_matches_eq7_inverse() {
        // 100 kW into 5 kg/s of water: ΔT ≈ 4.78 K.
        let t_out = temperature_rise(Fluid::Water, 25.0, 5.0, 100_000.0);
        let cp = Fluid::Water.specific_heat(25.0);
        assert!((t_out - (25.0 + 100_000.0 / (5.0 * cp))).abs() < 1e-12);
    }

    #[test]
    fn zero_flow_holds_inlet() {
        assert_eq!(temperature_rise(Fluid::Water, 25.0, 0.0, 1e6), 25.0);
    }

    #[test]
    fn mass_flow_uses_density() {
        let m = mass_flow(Fluid::Water, 0.1, 20.0);
        assert!((m - 99.82).abs() < 0.1, "m={m}");
    }
}
