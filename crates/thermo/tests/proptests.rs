//! Property-based tests for the thermo-fluid component library: physical
//! invariants that must hold for *any* operating condition, not just the
//! design point.

use exadigit_thermo::fluid::Fluid;
use exadigit_thermo::hx::{effectiveness_counterflow, HeatExchanger};
use exadigit_thermo::pid::Pid;
use exadigit_thermo::pump::Pump;
use exadigit_thermo::staging::{FirstOrderLag, HysteresisStager};
use exadigit_thermo::tower::CoolingTowerCell;
use exadigit_thermo::valve::ControlValve;
use proptest::prelude::*;

proptest! {
    /// ε ∈ [0, 1] for any NTU and capacity ratio.
    #[test]
    fn effectiveness_bounded(ntu in 0.0f64..100.0, cr in 0.0f64..1.0) {
        let e = effectiveness_counterflow(ntu, cr);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&e), "eps={e}");
    }

    /// ε is monotone increasing in NTU.
    #[test]
    fn effectiveness_monotone_in_ntu(ntu in 0.1f64..20.0, d in 0.01f64..5.0, cr in 0.0f64..1.0) {
        prop_assert!(
            effectiveness_counterflow(ntu + d, cr) >= effectiveness_counterflow(ntu, cr) - 1e-12
        );
    }

    /// Heat-exchanger outlets never cross: second law in every state.
    #[test]
    fn hx_respects_second_law(
        t_hot in 10.0f64..80.0,
        dt in 0.1f64..40.0,
        m_hot in 0.1f64..500.0,
        m_cold in 0.1f64..500.0,
        eff in 0.05f64..0.97,
    ) {
        let t_cold = t_hot - dt;
        let hx = HeatExchanger::from_design("p", eff, 100.0, Fluid::Water, Fluid::Water);
        let r = hx.evaluate(t_hot, m_hot, t_cold, m_cold);
        // Heat flows hot → cold, outlets bracketed by inlets.
        prop_assert!(r.heat_w >= 0.0);
        prop_assert!(r.t_hot_out <= t_hot + 1e-9 && r.t_hot_out >= t_cold - 1e-9);
        prop_assert!(r.t_cold_out >= t_cold - 1e-9 && r.t_cold_out <= t_hot + 1e-9);
        // Energy balance: both sides agree.
        let t_mean = 0.5 * (t_hot + t_cold);
        let q_hot = m_hot * Fluid::Water.specific_heat(t_mean) * (t_hot - r.t_hot_out);
        prop_assert!((q_hot - r.heat_w).abs() <= 1e-6 * (1.0 + r.heat_w.abs()));
    }

    /// Tower water never cools below wet-bulb and fan power is bounded.
    #[test]
    fn tower_never_beats_wet_bulb(
        t_in in 15.0f64..60.0,
        wb in -5.0f64..30.0,
        mdot in 0.5f64..300.0,
        fan in 0.0f64..1.0,
    ) {
        let cell = CoolingTowerCell::from_design("c", 120.0, 11_000.0);
        let r = cell.evaluate(t_in, mdot, wb, fan);
        prop_assert!(r.t_water_out <= t_in + 1e-9);
        prop_assert!(r.t_water_out >= wb.min(t_in) - 1e-9, "out {} wb {wb}", r.t_water_out);
        prop_assert!(r.heat_rejected_w >= 0.0);
        prop_assert!(r.fan_power_w >= 0.0 && r.fan_power_w <= 11_000.0 + 1e-9);
    }

    /// Pump head and power are non-negative everywhere; head is monotone
    /// decreasing in flow.
    #[test]
    fn pump_head_monotone(
        q_design in 0.01f64..2.0,
        head in 5.0f64..60.0,
        q in 0.0f64..2.0,
        dq in 0.001f64..0.5,
        s in 0.1f64..1.0,
    ) {
        let p = Pump::from_design_point("p", q_design, head, 0.8);
        prop_assert!(p.head(q, s) >= 0.0);
        prop_assert!(p.head(q + dq, s) <= p.head(q, s) + 1e-12);
        prop_assert!(p.electrical_power_at(p.rated_power(), q, s, 25.0) >= 0.0);
    }

    /// Pump operating point always balances the system curve.
    #[test]
    fn pump_operating_point_balances(
        q_design in 0.01f64..2.0,
        head in 5.0f64..60.0,
        k_sys in 1e3f64..1e8,
        s in 0.2f64..1.0,
    ) {
        let p = Pump::from_design_point("p", q_design, head, 0.8);
        let q = p.operating_flow(k_sys, s, 25.0);
        let rise = p.pressure_rise_at(p.rho_g(25.0), q, s);
        let drop = k_sys * q * q;
        prop_assert!((rise - drop).abs() <= 1e-6 * (1.0 + drop), "rise {rise} drop {drop}");
    }

    /// Valve resistance is monotone decreasing in opening.
    #[test]
    fn valve_resistance_monotone(
        q_design in 0.001f64..1.0,
        dp in 1e3f64..1e6,
        x in 0.05f64..0.95,
        dx in 0.01f64..0.05,
    ) {
        let mut v = ControlValve::from_design("v", q_design, dp);
        v.set_opening(x);
        let r1 = v.resistance();
        v.set_opening(x + dx);
        let r2 = v.resistance();
        prop_assert!(r2 <= r1 + 1e-9);
    }

    /// PID output always respects its limits, whatever the gains.
    #[test]
    fn pid_output_clamped(
        kp in 0.0f64..100.0,
        ki in 0.0f64..10.0,
        kd in 0.0f64..10.0,
        sp in -100.0f64..100.0,
        measurements in prop::collection::vec(-1e3f64..1e3, 1..50),
    ) {
        let mut pid = Pid::new(kp, ki, kd, -1.0, 1.0).with_setpoint(sp);
        for &m in &measurements {
            let u = pid.update(m, 1.0);
            prop_assert!((-1.0..=1.0).contains(&u), "u={u}");
        }
    }

    /// Stager count stays within bounds and changes by at most one per
    /// update, for any signal sequence.
    #[test]
    fn stager_bounded_and_gradual(
        signals in prop::collection::vec(0.0f64..2.0, 1..200),
        init in 0u32..6,
    ) {
        let mut s = HysteresisStager::new(0.9, 0.4, 3.0, 3.0, 1, 6, init);
        let mut prev = s.count();
        for &sig in &signals {
            let c = s.update(sig, 1.0);
            prop_assert!((1..=6).contains(&c));
            prop_assert!(c.abs_diff(prev) <= 1);
            prev = c;
        }
    }

    /// First-order lag never overshoots a constant input.
    #[test]
    fn lag_never_overshoots(
        tau in 0.1f64..1e3,
        y0 in -100.0f64..100.0,
        u in -100.0f64..100.0,
        steps in 1usize..100,
        dt in 0.1f64..100.0,
    ) {
        let mut lag = FirstOrderLag::new(tau, y0);
        let (lo, hi) = if y0 < u { (y0, u) } else { (u, y0) };
        for _ in 0..steps {
            let y = lag.update(u, dt);
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9, "y={y} outside [{lo}, {hi}]");
        }
    }

    /// Fluid properties stay physical over the operating band.
    #[test]
    fn fluid_properties_physical(t in 1.0f64..80.0) {
        for fluid in [Fluid::Water, Fluid::PropyleneGlycol25] {
            prop_assert!(fluid.density(t) > 900.0 && fluid.density(t) < 1_100.0);
            prop_assert!(fluid.specific_heat(t) > 3_000.0 && fluid.specific_heat(t) < 4_400.0);
        }
    }
}
