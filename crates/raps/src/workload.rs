//! Synthetic workload generation.
//!
//! §III-B3 of the paper: "we simply analyze system telemetry data to obtain
//! average and standard deviations for quantities such as average job
//! arrival time, number of nodes required, and wall time. Then it simply
//! generates randomly distributed values for average CPU/GPU utilizations."
//!
//! The generator is calibrated against the Table IV daily statistics. The
//! key structural fact encoded here is the *anti-correlation* between job
//! count and job size visible in Table IV (days with 5157 completed jobs
//! average 39 nodes/job; days averaging 5441 nodes/job complete 32 jobs):
//! each day draws an arrival rate, and the day's job-size scale is set so
//! the offered load stays near a target fraction of the machine. Fig. 9's
//! workload shape (1238 jobs, 400 single-node, four back-to-back 9216-node
//! HPL runs) is reproduced by [`benchmark_day`].

use crate::arrivals::PoissonArrivals;
use crate::job::{Job, UtilTrace};
use exadigit_sim::clock::SECONDS_PER_DAY;
use exadigit_sim::Rng;
use serde::{Deserialize, Serialize};

/// Tunable parameters of the synthetic workload (telemetry-derived moments
/// in the paper; Table IV bands here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Median of the day-level mean-arrival-interval distribution, s.
    pub tavg_median_s: f64,
    /// Log-space sigma of the day-level arrival interval.
    pub tavg_sigma: f64,
    /// Clamp for day-level `t_avg`, s (Table IV: min 17, max 2988).
    pub tavg_range_s: (f64, f64),
    /// Target offered load as a fraction of machine node-seconds.
    pub offered_load: f64,
    /// Day-to-day standard deviation of the offered load (Table IV shows
    /// daily average power ranging 10.2–23.0 MW — light and heavy days).
    pub offered_load_std: f64,
    /// Mean job runtime, s (Table IV: 39 min average).
    pub runtime_mean_s: f64,
    /// Runtime std across days, s (Table IV std 14 min).
    pub runtime_std_s: f64,
    /// Per-day runtime clamp, s (Table IV: 17..101 min).
    pub runtime_range_s: (f64, f64),
    /// Fraction of single-node jobs (Fig. 9: 400 of 1238).
    pub single_node_fraction: f64,
    /// Mean CPU utilization of synthetic jobs.
    pub cpu_util_mean: f64,
    /// Std of CPU utilization.
    pub cpu_util_std: f64,
    /// Mean GPU utilization of synthetic jobs.
    pub gpu_util_mean: f64,
    /// Std of GPU utilization.
    pub gpu_util_std: f64,
    /// Total nodes of the target machine (for load normalisation).
    pub machine_nodes: usize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            tavg_median_s: 87.0,
            tavg_sigma: 0.96,
            tavg_range_s: (17.0, 2_988.0),
            offered_load: 0.82,
            offered_load_std: 0.16,
            runtime_mean_s: 39.0 * 60.0,
            runtime_std_s: 14.0 * 60.0,
            runtime_range_s: (17.0 * 60.0, 101.0 * 60.0),
            single_node_fraction: 0.32,
            cpu_util_mean: 0.35,
            cpu_util_std: 0.18,
            gpu_util_mean: 0.62,
            gpu_util_std: 0.22,
            machine_nodes: 9_472,
        }
    }
}

/// Day-level statistics the generator chose (exposed for validation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DayProfile {
    /// Mean arrival interval for the day, s.
    pub t_avg_s: f64,
    /// Mean runtime for the day, s.
    pub runtime_mean_s: f64,
    /// Day job-size scale (mean nodes of the non-single-node mixture).
    pub nodes_scale: f64,
}

/// The synthetic workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    /// Generation parameters.
    pub params: WorkloadParams,
    rng: Rng,
    next_id: u64,
}

impl WorkloadGenerator {
    /// New generator with the given parameters and seed.
    pub fn new(params: WorkloadParams, seed: u64) -> Self {
        WorkloadGenerator { params, rng: Rng::new(seed), next_id: 1 }
    }

    /// Draw the day profile for `day_index` (deterministic per seed+day).
    pub fn day_profile(&self, day_index: u64) -> DayProfile {
        let mut rng = self.rng.split(0x5AD0 + day_index);
        let p = &self.params;
        let t_avg = (p.tavg_median_s * (p.tavg_sigma * rng.standard_normal()).exp())
            .clamp(p.tavg_range_s.0, p.tavg_range_s.1);
        let runtime = rng
            .normal(p.runtime_mean_s, p.runtime_std_s)
            .clamp(p.runtime_range_s.0, p.runtime_range_s.1);
        // Offered load: jobs/day × mean_nodes × runtime = load × capacity,
        // with the load itself varying day to day (light weekend days vs
        // saturated campaign days).
        let day_load =
            rng.normal(p.offered_load, p.offered_load_std).clamp(0.30, 0.97);
        let jobs_per_day = SECONDS_PER_DAY as f64 / t_avg;
        let capacity = p.machine_nodes as f64 * SECONDS_PER_DAY as f64;
        let mean_nodes = (day_load * capacity / (jobs_per_day * runtime))
            .clamp(1.0, p.machine_nodes as f64 * 0.6);
        DayProfile { t_avg_s: t_avg, runtime_mean_s: runtime, nodes_scale: mean_nodes }
    }

    /// Generate one day of jobs with submit times in
    /// `[day_index·86400, (day_index+1)·86400)`.
    pub fn generate_day(&mut self, day_index: u64) -> Vec<Job> {
        let profile = self.day_profile(day_index);
        let mut rng = self.rng.split(0xDA11 + day_index);
        let p = self.params.clone();
        let arrivals = PoissonArrivals::new(profile.t_avg_s)
            .arrivals_within(&mut rng, SECONDS_PER_DAY as f64);
        let day_start = day_index * SECONDS_PER_DAY;
        let mut jobs = Vec::with_capacity(arrivals.len());
        for t in arrivals {
            let id = self.next_id;
            self.next_id += 1;
            jobs.push(self.synth_job(&mut rng, id, day_start + t as u64, &profile, &p));
        }
        jobs
    }

    /// Generate `days` consecutive days of jobs.
    pub fn generate_span(&mut self, days: u64) -> Vec<Job> {
        let mut all = Vec::new();
        for d in 0..days {
            all.extend(self.generate_day(d));
        }
        all
    }

    fn synth_job(
        &mut self,
        rng: &mut Rng,
        id: u64,
        submit: u64,
        profile: &DayProfile,
        p: &WorkloadParams,
    ) -> Job {
        // Node count: single-node mass plus a lognormal body whose mean is
        // chosen so the day's total mass matches the profile scale.
        let nodes = if rng.chance(p.single_node_fraction) {
            1
        } else {
            let body_mean = (profile.nodes_scale - p.single_node_fraction)
                .max(1.0)
                / (1.0 - p.single_node_fraction);
            let n = rng.lognormal_from_moments(body_mean, body_mean * 2.2);
            (n.round() as usize).clamp(1, p.machine_nodes)
        };
        let wall = rng
            .lognormal_from_moments(profile.runtime_mean_s, profile.runtime_mean_s * 0.6)
            .clamp(60.0, 24.0 * 3600.0) as u64;
        let cpu = rng.normal_clamped(p.cpu_util_mean, p.cpu_util_std, 0.02, 1.0) as f32;
        let gpu = rng.normal_clamped(p.gpu_util_mean, p.gpu_util_std, 0.0, 1.0) as f32;
        Job::new(id, format!("synthetic-{id}"), nodes, wall, submit, cpu, gpu)
    }
}

/// The High-Performance Linpack verification job (§IV-2 of the paper):
/// 9216 nodes with GPUs at 79 % and CPUs at 33 % during the core phase,
/// with a ramp-up and a tapering endgame encoded as a 15 s-quantum trace.
pub fn hpl_job(id: u64, submit_s: u64) -> Job {
    const QUANTUM: u32 = 15;
    const WALL_S: u64 = 2 * 3600;
    let steps = (WALL_S / QUANTUM as u64) as usize;
    let mut gpu = Vec::with_capacity(steps);
    let mut cpu = Vec::with_capacity(steps);
    for i in 0..steps {
        let frac = i as f64 / steps as f64;
        let (g, c) = if frac < 0.04 {
            // Startup: panel distribution warm-up.
            (0.15 + 8.0 * frac, 0.25)
        } else if frac < 0.85 {
            // Core phase: the Table III verification point.
            (0.79, 0.33)
        } else {
            // Endgame: trailing panels shrink, utilization tapers.
            let t = (frac - 0.85) / 0.15;
            (0.79 * (1.0 - 0.8 * t), 0.33 * (1.0 - 0.5 * t))
        };
        gpu.push(g as f32);
        cpu.push(c as f32);
    }
    let mut job = Job::new(id, "hpl-9216", 9216, WALL_S, submit_s, 0.0, 0.0);
    job.cpu_util = UtilTrace::Series { quantum_s: QUANTUM, values: cpu };
    job.gpu_util = UtilTrace::Series { quantum_s: QUANTUM, values: gpu };
    job
}

/// The OpenMxP mixed-precision benchmark (Fig. 8 of the paper): similar
/// scale to HPL but a hotter GPU profile and a shorter run.
pub fn openmxp_job(id: u64, submit_s: u64) -> Job {
    const QUANTUM: u32 = 15;
    const WALL_S: u64 = 45 * 60;
    let steps = (WALL_S / QUANTUM as u64) as usize;
    let mut gpu = Vec::with_capacity(steps);
    let mut cpu = Vec::with_capacity(steps);
    for i in 0..steps {
        let frac = i as f64 / steps as f64;
        let (g, c) = if frac < 0.05 {
            (0.2 + 14.0 * frac, 0.2)
        } else if frac < 0.9 {
            // Mixed-precision tensor kernels push GPUs harder than HPL.
            (0.90, 0.22)
        } else {
            (0.4, 0.15)
        };
        gpu.push(g as f32);
        cpu.push(c as f32);
    }
    let mut job = Job::new(id, "openmxp-9216", 9216, WALL_S, submit_s, 0.0, 0.0);
    job.cpu_util = UtilTrace::Series { quantum_s: QUANTUM, values: cpu };
    job.gpu_util = UtilTrace::Series { quantum_s: QUANTUM, values: gpu };
    job
}

/// The Fig. 9 replay day: ~1238 jobs of which ~400 are single-node, plus
/// four back-to-back 9216-node HPL runs.
pub fn benchmark_day(seed: u64) -> Vec<Job> {
    let params = WorkloadParams {
        tavg_median_s: 70.0,
        tavg_sigma: 0.05, // pin the day near the Fig. 9 job count
        single_node_fraction: 0.33,
        offered_load: 0.55, // leave room for the HPL block
        ..WorkloadParams::default()
    };
    let mut generator = WorkloadGenerator::new(params, seed);
    let mut jobs = generator.generate_day(0);
    // Four back-to-back HPL runs in the early morning (Fig. 9 shows them
    // as consecutive plateaus).
    let mut t = 3600;
    for k in 0..4 {
        jobs.push(hpl_job(900_000 + k, t));
        t += 2 * 3600 + 300; // 5 min gap between runs
    }
    jobs.sort_by_key(|j| j.submit_time_s);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_profile_is_deterministic() {
        let g1 = WorkloadGenerator::new(WorkloadParams::default(), 42);
        let g2 = WorkloadGenerator::new(WorkloadParams::default(), 42);
        for d in 0..5 {
            assert_eq!(g1.day_profile(d), g2.day_profile(d));
        }
    }

    #[test]
    fn day_profiles_differ_across_days() {
        let g = WorkloadGenerator::new(WorkloadParams::default(), 42);
        let p0 = g.day_profile(0);
        let p1 = g.day_profile(1);
        assert_ne!(p0, p1);
    }

    #[test]
    fn tavg_respects_table4_range() {
        let g = WorkloadGenerator::new(WorkloadParams::default(), 7);
        for d in 0..183 {
            let p = g.day_profile(d);
            assert!((17.0..=2988.0).contains(&p.t_avg_s), "day {d}: {}", p.t_avg_s);
            assert!((17.0 * 60.0..=101.0 * 60.0).contains(&p.runtime_mean_s));
        }
    }

    #[test]
    fn offered_load_roughly_constant() {
        // jobs/day × nodes × runtime ≈ offered_load × capacity for every day.
        let g = WorkloadGenerator::new(WorkloadParams::default(), 3);
        for d in 0..50 {
            let p = g.day_profile(d);
            let jobs = 86_400.0 / p.t_avg_s;
            let load = jobs * p.nodes_scale * p.runtime_mean_s / (9_472.0 * 86_400.0);
            // Clamps distort extreme days; most must sit near the target.
            assert!(load < 1.0 + 1e-9, "day {d} load {load}");
        }
    }

    #[test]
    fn generated_jobs_valid() {
        let mut g = WorkloadGenerator::new(WorkloadParams::default(), 11);
        let jobs = g.generate_day(0);
        assert!(!jobs.is_empty());
        for j in &jobs {
            assert!(j.nodes >= 1 && j.nodes <= 9_472);
            assert!(j.wall_time_s >= 60);
            assert!(j.submit_time_s < 86_400);
            assert!(j.cpu_util.mean() >= 0.0 && j.cpu_util.mean() <= 1.0);
        }
    }

    #[test]
    fn span_submit_times_monotone_per_day() {
        let mut g = WorkloadGenerator::new(WorkloadParams::default(), 13);
        let jobs = g.generate_span(3);
        // Day boundaries respected.
        for j in &jobs {
            assert!(j.submit_time_s < 3 * 86_400);
        }
    }

    #[test]
    fn single_node_fraction_near_target() {
        let mut g = WorkloadGenerator::new(
            WorkloadParams { tavg_median_s: 30.0, tavg_sigma: 0.01, ..Default::default() },
            17,
        );
        let jobs = g.generate_day(0);
        let singles = jobs.iter().filter(|j| j.nodes == 1).count();
        let frac = singles as f64 / jobs.len() as f64;
        assert!((frac - 0.32).abs() < 0.08, "frac={frac} of {}", jobs.len());
    }

    #[test]
    fn hpl_core_phase_matches_table3_point() {
        let j = hpl_job(1, 0);
        assert_eq!(j.nodes, 9216);
        // Mid-run sample must be exactly the verification utilizations.
        let mid = j.wall_time_s / 2;
        assert!((j.gpu_util.at(mid) - 0.79).abs() < 1e-6);
        assert!((j.cpu_util.at(mid) - 0.33).abs() < 1e-6);
        // Ramp-up starts low.
        assert!(j.gpu_util.at(0) < 0.3);
    }

    #[test]
    fn openmxp_hotter_than_hpl() {
        let h = hpl_job(1, 0);
        let o = openmxp_job(2, 0);
        let h_mid = h.gpu_util.at(h.wall_time_s / 2);
        let o_mid = o.gpu_util.at(o.wall_time_s / 2);
        assert!(o_mid > h_mid);
        assert!(o.wall_time_s < h.wall_time_s);
    }

    #[test]
    fn benchmark_day_contains_four_hpl_runs() {
        let jobs = benchmark_day(42);
        let hpl: Vec<&Job> = jobs.iter().filter(|j| j.name.starts_with("hpl")).collect();
        assert_eq!(hpl.len(), 4);
        // Back-to-back: each next run submits after the previous.
        for w in hpl.windows(2) {
            assert!(w[1].submit_time_s > w[0].submit_time_s);
        }
        // Total job count in the Fig. 9 ballpark (1238 jobs).
        assert!((800..1800).contains(&jobs.len()), "n={}", jobs.len());
        // Single-node share ≈ 400/1238.
        let singles = jobs.iter().filter(|j| j.nodes == 1).count();
        assert!(singles > jobs.len() / 5, "singles={singles}");
    }
}
