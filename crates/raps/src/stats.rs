//! End-of-run output statistics.
//!
//! §III-B5 of the paper: "At the end of the run, a report is provided that
//! outputs statistics on: (1) the number of jobs completed, (2) the
//! throughput (jobs/hour), (3) average power consumed in MW, (4) total
//! energy consumed in MW-hr, (5) rectification and conversion losses in MW
//! (6) CO2 emissions in metric tons, and (7) total energy costs in USD."
//! CO₂ uses eq. (6): `Ef = EI × 1 t / 2204.6 lbs × 1/η_system`.

use crate::config::CostConfig;
use serde::{Deserialize, Serialize};

/// The RAPS run report (the seven §III-B5 statistics plus diagnostics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Simulated span, seconds.
    pub sim_seconds: u64,
    /// (1) Jobs completed.
    pub jobs_completed: u64,
    /// Jobs still running / pending at the end.
    pub jobs_unfinished: u64,
    /// (2) Throughput, jobs per hour.
    pub throughput_jobs_per_hour: f64,
    /// (3) Average system power, MW.
    pub avg_power_mw: f64,
    /// Peak system power observed, MW.
    pub max_power_mw: f64,
    /// (4) Total energy, MWh.
    pub total_energy_mwh: f64,
    /// (5) Average conversion loss, MW.
    pub avg_loss_mw: f64,
    /// Maximum conversion loss, MW.
    pub max_loss_mw: f64,
    /// Loss as percent of average power.
    pub loss_percent: f64,
    /// Mean conversion efficiency η_system (eq. 1).
    pub efficiency: f64,
    /// (6) CO₂ emissions, metric tons (eq. 6).
    pub co2_tons: f64,
    /// (7) Energy cost, USD.
    pub cost_usd: f64,
    /// Mean node-allocation utilization (active / total nodes).
    pub avg_utilization: f64,
    /// Mean PUE when a cooling model was attached.
    pub avg_pue: Option<f64>,
    /// Mean job queue wait, seconds.
    pub avg_wait_s: f64,
}

impl RunReport {
    /// Eq. (6) emission factor, metric tons CO₂ per MWh of consumed energy.
    pub fn emission_factor(costs: &CostConfig, efficiency: f64) -> f64 {
        costs.emission_lbs_per_mwh / 2_204.6 / efficiency.max(1e-6)
    }

    /// CO₂ emissions (t) for `energy_mwh` at conversion efficiency `eta`.
    pub fn co2_for(costs: &CostConfig, energy_mwh: f64, eta: f64) -> f64 {
        energy_mwh * Self::emission_factor(costs, eta)
    }

    /// Energy cost in USD.
    pub fn cost_for(costs: &CostConfig, energy_mwh: f64) -> f64 {
        energy_mwh * costs.usd_per_mwh
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "┌─ RAPS run report ────────────────────────────────")?;
        writeln!(f, "│ simulated span        {:>12.2} h", self.sim_seconds as f64 / 3600.0)?;
        writeln!(f, "│ jobs completed        {:>12}", self.jobs_completed)?;
        writeln!(f, "│ jobs unfinished       {:>12}", self.jobs_unfinished)?;
        writeln!(f, "│ throughput            {:>12.1} jobs/hr", self.throughput_jobs_per_hour)?;
        writeln!(f, "│ avg power             {:>12.2} MW", self.avg_power_mw)?;
        writeln!(f, "│ max power             {:>12.2} MW", self.max_power_mw)?;
        writeln!(f, "│ total energy          {:>12.1} MWh", self.total_energy_mwh)?;
        writeln!(f, "│ conversion loss (avg) {:>12.2} MW ({:.2} %)", self.avg_loss_mw, self.loss_percent)?;
        writeln!(f, "│ conversion loss (max) {:>12.2} MW", self.max_loss_mw)?;
        writeln!(f, "│ efficiency η_system   {:>12.3}", self.efficiency)?;
        writeln!(f, "│ CO₂ emissions         {:>12.1} t", self.co2_tons)?;
        writeln!(f, "│ energy cost           {:>12.0} USD", self.cost_usd)?;
        writeln!(f, "│ avg utilization       {:>12.1} %", 100.0 * self.avg_utilization)?;
        if let Some(pue) = self.avg_pue {
            writeln!(f, "│ avg PUE               {:>12.3}", pue)?;
        }
        writeln!(f, "│ avg queue wait        {:>12.1} s", self.avg_wait_s)?;
        write!(f, "└──────────────────────────────────────────────────")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emission_factor_matches_eq6() {
        // Paper: EI = 852.3 lbs/MWh; at η = 0.933 the factor is
        // 852.3 / 2204.6 / 0.933 ≈ 0.4144 t/MWh.
        let costs = CostConfig::default();
        let ef = RunReport::emission_factor(&costs, 0.933);
        assert!((ef - 0.4144).abs() < 0.001, "ef={ef}");
    }

    #[test]
    fn table4_co2_consistency() {
        // Table IV: 405 MWh/day average -> ≈168 t CO₂/day.
        let costs = CostConfig::default();
        let co2 = RunReport::co2_for(&costs, 405.0, 0.933);
        assert!((co2 - 168.0).abs() < 2.0, "co2={co2}");
    }

    #[test]
    fn loss_cost_consistency_with_900k_claim() {
        // Finding 9: 1.14 MW average loss ≈ $900k/yr at our tariff.
        let costs = CostConfig::default();
        let yearly_mwh = 1.14 * 8_766.0;
        let cost = RunReport::cost_for(&costs, yearly_mwh);
        assert!((cost - 900_000.0).abs() < 20_000.0, "cost={cost}");
    }

    #[test]
    fn display_contains_all_seven_statistics() {
        let r = dummy_report();
        let s = format!("{r}");
        for needle in
            ["jobs completed", "throughput", "avg power", "total energy", "loss", "CO₂", "cost"]
        {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    fn dummy_report() -> RunReport {
        RunReport {
            sim_seconds: 86_400,
            jobs_completed: 1_575,
            jobs_unfinished: 12,
            throughput_jobs_per_hour: 65.6,
            avg_power_mw: 16.9,
            max_power_mw: 23.0,
            total_energy_mwh: 405.0,
            avg_loss_mw: 1.14,
            max_loss_mw: 1.84,
            loss_percent: 6.74,
            efficiency: 0.933,
            co2_tons: 168.0,
            cost_usd: 36_450.0,
            avg_utilization: 0.61,
            avg_pue: Some(1.05),
            avg_wait_s: 412.0,
        }
    }
}
