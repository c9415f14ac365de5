//! Psychrometrics for the cooling towers.
//!
//! The only weather input of the paper's cooling model is the outdoor
//! wet-bulb temperature (§III-C4). The tower model needs the enthalpy of
//! saturated moist air along the water operating line, plus the effective
//! "saturation specific heat" used by Braun's ε-NTU tower formulation.
//! Correlations follow ASHRAE Fundamentals (Magnus-type saturation
//! pressure); all temperatures are °C, pressure is Pa, enthalpy is J/kg of
//! dry air.

/// Standard atmospheric pressure, Pa.
pub const P_ATM: f64 = 101_325.0;

/// Temperatures (°C) over which [`saturation_pressure`] is valid, and so
/// the wet-bulb inputs the tower model accepts: outside it the ε-NTU
/// algebra leaves its domain and answers nothing physical.
pub const VALID_RANGE_C: std::ops::RangeInclusive<f64> = -40.0..=60.0;

/// Saturation vapour pressure over liquid water (Pa) at temperature `t`
/// (°C), Magnus–Tetens form. Valid over [`VALID_RANGE_C`]; error < 0.3 %
/// over 0–50 °C.
pub fn saturation_pressure(t: f64) -> f64 {
    610.94 * ((17.625 * t) / (t + 243.04)).exp()
}

/// Humidity ratio (kg water vapour / kg dry air) of saturated air at
/// temperature `t` (°C) and pressure `p` (Pa).
pub fn saturation_humidity_ratio(t: f64, p: f64) -> f64 {
    let pws = saturation_pressure(t);
    0.621_945 * pws / (p - pws)
}

/// Specific enthalpy of saturated moist air (J/kg dry air) at `t` (°C).
pub fn saturated_air_enthalpy(t: f64) -> f64 {
    let w = saturation_humidity_ratio(t, P_ATM);
    moist_air_enthalpy(t, w)
}

/// Specific enthalpy of moist air (J/kg dry air) at dry-bulb `t` (°C) and
/// humidity ratio `w`.
pub fn moist_air_enthalpy(t: f64, w: f64) -> f64 {
    1006.0 * t + w * (2_501_000.0 + 1860.0 * t)
}

/// Effective "saturation specific heat" (J/kg·K): slope of the saturated
/// air enthalpy curve between two temperatures. Braun's ε-NTU tower model
/// treats the air stream as a fictitious fluid with this specific heat.
pub fn saturation_specific_heat(t_low: f64, t_high: f64) -> f64 {
    let (lo, hi) = if t_high > t_low { (t_low, t_high) } else { (t_high, t_low) };
    let dt = (hi - lo).max(0.1);
    (saturated_air_enthalpy(hi) - saturated_air_enthalpy(lo)) / dt
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_pressure_reference_points() {
        // Reference: 2339 Pa @ 20 °C, 7384 Pa @ 40 °C (steam tables).
        assert!((saturation_pressure(20.0) - 2339.0).abs() < 15.0);
        assert!((saturation_pressure(40.0) - 7384.0).abs() < 40.0);
    }

    #[test]
    fn humidity_ratio_reference() {
        // Saturated air at 25 °C, 1 atm: w ≈ 0.0202.
        let w = saturation_humidity_ratio(25.0, P_ATM);
        assert!((w - 0.0202).abs() < 0.0005, "w={w}");
    }

    #[test]
    fn enthalpy_reference() {
        // Saturated air at 20 °C: h ≈ 57.5 kJ/kg dry air.
        let h = saturated_air_enthalpy(20.0);
        assert!((h - 57_500.0).abs() < 1_500.0, "h={h}");
    }

    #[test]
    fn saturation_cs_increases_with_temperature() {
        let cs_low = saturation_specific_heat(10.0, 20.0);
        let cs_high = saturation_specific_heat(25.0, 35.0);
        assert!(cs_high > cs_low);
        // Typical magnitude: 3-7 kJ/kg-K over tower operating range.
        assert!(cs_low > 2_000.0 && cs_high < 9_000.0);
    }
}
