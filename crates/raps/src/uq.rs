//! Monte-Carlo uncertainty quantification.
//!
//! §IV of the paper: "we prioritized extensive V&V of our power and cooling
//! models ... and also have implemented UQ into our RAPS module", following
//! the NASEM recommendation to embed VVUQ in digital twins. The dominant
//! parametric uncertainties of the power model are the conversion-chain
//! efficiencies and the component power ratings of Table I; this module
//! perturbs them over an ensemble, replays the same workload, and reports
//! confidence bands on the headline outputs.
//!
//! A perturbation changes only the conversion chain and the component
//! ratings, and the scheduler never reads power, so every member shares
//! one schedule. [`run_ensemble`] therefore replays from t = 0 once per
//! chunk of members on the runner it is given (seed and pool width), the
//! chunk's other members riding along as power lanes
//! ([`RapsSimulation::run_until_with_lanes`]). The twin service's UQ
//! draws start from a snapshot instead and share only [`perturb_config`]
//! with this module.

use crate::config::SystemConfig;
use crate::job::Job;
use crate::power::PowerDelivery;
use crate::scheduler::Policy;
use crate::simulation::RapsSimulation;
use exadigit_sim::ensemble::EnsembleRunner;
use exadigit_sim::stats::percentile;
use exadigit_sim::Rng;
use serde::{Deserialize, Serialize};

/// Relative 1-σ uncertainties applied to the power-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UqPerturbations {
    /// Rectifier peak efficiency, absolute σ (e.g. 0.004 ⇒ ±0.4 %-pts).
    pub rectifier_eff_abs: f64,
    /// SIVOC full-load efficiency, absolute σ.
    pub sivoc_eff_abs: f64,
    /// Component power ratings (CPU/GPU idle+max, RAM...), relative σ.
    pub component_power_rel: f64,
}

impl Default for UqPerturbations {
    fn default() -> Self {
        UqPerturbations {
            rectifier_eff_abs: 0.004,
            sivoc_eff_abs: 0.004,
            component_power_rel: 0.03,
        }
    }
}

/// Result of one ensemble member.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnsembleMember {
    /// Average system power, MW.
    pub avg_power_mw: f64,
    /// Average conversion loss, MW.
    pub avg_loss_mw: f64,
    /// Total energy, MWh.
    pub energy_mwh: f64,
}

/// Ensemble summary: mean, std, and a central confidence interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UqSummary {
    /// Ensemble size.
    pub members: usize,
    /// Mean of average power, MW.
    pub power_mean_mw: f64,
    /// Std of average power, MW.
    pub power_std_mw: f64,
    /// Central 90 % interval of average power, MW.
    pub power_ci90_mw: (f64, f64),
    /// Mean of average loss, MW.
    pub loss_mean_mw: f64,
    /// Std of average loss, MW.
    pub loss_std_mw: f64,
    /// Central 90 % interval of average loss, MW.
    pub loss_ci90_mw: (f64, f64),
    /// Raw members for downstream plotting.
    pub raw: Vec<EnsembleMember>,
}

/// Apply one random perturbation draw to a configuration.
pub fn perturb_config(cfg: &SystemConfig, pert: &UqPerturbations, rng: &mut Rng) -> SystemConfig {
    let mut c = cfg.clone();
    let conv = &mut c.conversion;
    conv.rectifier_peak_efficiency =
        (conv.rectifier_peak_efficiency + rng.normal(0.0, pert.rectifier_eff_abs)).clamp(0.9, 0.995);
    conv.sivoc_full_load_efficiency =
        (conv.sivoc_full_load_efficiency + rng.normal(0.0, pert.sivoc_eff_abs)).clamp(0.9, 0.999);
    let rel = |rng: &mut Rng, v: f64| v * (1.0 + rng.normal(0.0, pert.component_power_rel));
    let np = &mut c.node_power;
    np.cpu_idle_w = rel(rng, np.cpu_idle_w);
    np.cpu_max_w = rel(rng, np.cpu_max_w).max(np.cpu_idle_w + 1.0);
    np.gpu_idle_w = rel(rng, np.gpu_idle_w);
    np.gpu_max_w = rel(rng, np.gpu_max_w).max(np.gpu_idle_w + 1.0);
    np.ram_w = rel(rng, np.ram_w);
    np.nvme_each_w = rel(rng, np.nvme_each_w);
    np.nic_each_w = rel(rng, np.nic_each_w);
    c
}

/// Run a Monte-Carlo ensemble: `members` perturbed replicas replay the same
/// `jobs` for `horizon_s` seconds, in `min(members, width)` chunks batched
/// across the thread-pool executor (mirroring the paper's parallel replay
/// on a Frontier node). Each chunk schedules once: its first member is the
/// simulation's own power model and the rest are power lanes, each
/// bit-identical to a replay of its own. The runner supplies the seed and
/// the pool width: member `i` draws its perturbation from the runner's
/// stream `i`, so output is bit-identical for every width (the percentile
/// reductions fold members in index order).
pub fn run_ensemble(
    runner: &EnsembleRunner,
    cfg: &SystemConfig,
    jobs: &[Job],
    horizon_s: u64,
    members: usize,
    pert: &UqPerturbations,
) -> UqSummary {
    assert!(members >= 2, "an ensemble needs at least two members");
    let chunks = runner.run_chunks(members, |ctxs| {
        let mut models = ctxs
            .iter_mut()
            .map(|ctx| (perturb_config(cfg, pert, &mut ctx.rng), PowerDelivery::StandardAC));
        let (first, delivery) = models.next().expect("a chunk holds at least one member");
        let mut sim = RapsSimulation::new(first, delivery, Policy::FirstFit, 60);
        sim.submit_jobs(jobs.to_vec());
        let lanes = sim
            .run_until_with_lanes(horizon_s, models.collect())
            .expect("no cooling attached, and perturbations keep the machine");
        std::iter::once(sim.report())
            .chain(lanes)
            .map(|r| EnsembleMember {
                avg_power_mw: r.avg_power_mw,
                avg_loss_mw: r.avg_loss_mw,
                energy_mwh: r.total_energy_mwh,
            })
            .collect::<Vec<_>>()
    });
    let raw: Vec<EnsembleMember> = chunks.into_iter().flatten().collect();

    let powers: Vec<f64> = raw.iter().map(|m| m.avg_power_mw).collect();
    let losses: Vec<f64> = raw.iter().map(|m| m.avg_loss_mw).collect();
    let summary = |v: &[f64]| {
        let s = exadigit_sim::stats::Summary::of(v);
        (s.mean, s.std)
    };
    let (pm, ps) = summary(&powers);
    let (lm, ls) = summary(&losses);
    UqSummary {
        members,
        power_mean_mw: pm,
        power_std_mw: ps,
        power_ci90_mw: (percentile(&powers, 5.0), percentile(&powers, 95.0)),
        loss_mean_mw: lm,
        loss_std_mw: ls,
        loss_ci90_mw: (percentile(&losses, 5.0), percentile(&losses, 95.0)),
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::frontier();
        cfg.partitions[0].nodes = 256;
        cfg.cooling.num_cdus = 1;
        cfg.cooling.racks_per_cdu = 2;
        cfg
    }

    #[test]
    fn perturbation_changes_config_but_stays_physical() {
        let cfg = tiny_cfg();
        let mut rng = Rng::new(5);
        let p = perturb_config(&cfg, &UqPerturbations::default(), &mut rng);
        assert_ne!(p.conversion.rectifier_peak_efficiency, cfg.conversion.rectifier_peak_efficiency);
        assert!(p.conversion.rectifier_peak_efficiency > 0.9);
        assert!(p.node_power.cpu_max_w > p.node_power.cpu_idle_w);
        assert!(p.node_power.gpu_max_w > p.node_power.gpu_idle_w);
    }

    #[test]
    fn ensemble_spreads_around_baseline() {
        let cfg = tiny_cfg();
        let jobs =
            vec![Job::new(1, "load", 128, 1800, 1, 0.8, 0.8)];
        let runner = EnsembleRunner::new(42);
        let s = run_ensemble(&runner, &cfg, &jobs, 1800, 8, &UqPerturbations::default());
        assert_eq!(s.members, 8);
        assert!(s.power_std_mw > 0.0, "perturbations must spread the ensemble");
        assert!(s.power_ci90_mw.0 < s.power_mean_mw);
        assert!(s.power_ci90_mw.1 > s.power_mean_mw);
        // Loss is a small fraction of power.
        assert!(s.loss_mean_mw < s.power_mean_mw);
    }

    #[test]
    fn ensemble_deterministic_for_seed() {
        let cfg = tiny_cfg();
        let jobs = vec![Job::new(1, "load", 64, 600, 1, 0.5, 0.5)];
        let runner = EnsembleRunner::new(7);
        let a = run_ensemble(&runner, &cfg, &jobs, 600, 4, &UqPerturbations::default());
        let b = run_ensemble(&runner, &cfg, &jobs, 600, 4, &UqPerturbations::default());
        assert_eq!(a, b);
    }
}
