//! Jobs and utilization traces.
//!
//! §III-B of the paper: "each job is characterized by: (1) the number of
//! nodes required, (2) the wall time, and (3) CPU/GPU utilization traces
//! for a given trace quanta" (set to 15 s to match telemetry).

use crate::config::SystemConfig;
use serde::{Deserialize, Serialize};

/// Unique job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Lifecycle of a job in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, waiting for nodes.
    Pending,
    /// Allocated and consuming power.
    Running,
    /// Finished; nodes released.
    Completed,
}

/// A CPU or GPU utilization trace sampled at a fixed trace quantum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UtilTrace {
    /// Constant utilization for the whole job (synthetic jobs).
    Constant(f32),
    /// Time-indexed samples at `quantum_s` resolution (telemetry replay).
    Series {
        /// Sample period, seconds (paper: 15).
        quantum_s: u32,
        /// Utilization samples in `[0, 1]`.
        values: Vec<f32>,
    },
}

impl UtilTrace {
    /// Utilization at `elapsed_s` seconds into the job, clamped to `[0,1]`.
    /// Series traces hold their last value beyond the end (jobs can run
    /// slightly past the recorded trace).
    pub fn at(&self, elapsed_s: u64) -> f64 {
        let v = match self {
            UtilTrace::Constant(u) => *u,
            UtilTrace::Series { quantum_s, values } => {
                if values.is_empty() {
                    0.0
                } else {
                    let idx = (elapsed_s / *quantum_s as u64) as usize;
                    values[idx.min(values.len() - 1)]
                }
            }
        };
        (v as f64).clamp(0.0, 1.0)
    }

    /// Mean utilization across the trace.
    pub fn mean(&self) -> f64 {
        match self {
            UtilTrace::Constant(u) => (*u as f64).clamp(0.0, 1.0),
            UtilTrace::Series { values, .. } => {
                if values.is_empty() {
                    0.0
                } else {
                    values.iter().map(|&v| (v as f64).clamp(0.0, 1.0)).sum::<f64>()
                        / values.len() as f64
                }
            }
        }
    }
}

/// One job: the unit RAPS schedules and accounts power for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Display name (e.g. `hpl-9216` or `synthetic-1042`).
    pub name: String,
    /// Nodes required.
    pub nodes: usize,
    /// Requested wall time, seconds.
    pub wall_time_s: u64,
    /// Submission time, seconds from simulation start.
    pub submit_time_s: u64,
    /// Target partition (index into `SystemConfig::partitions`).
    pub partition: usize,
    /// CPU utilization trace.
    pub cpu_util: UtilTrace,
    /// GPU utilization trace.
    pub gpu_util: UtilTrace,
    /// Current state.
    pub state: JobState,
    /// Start time once running, seconds.
    pub start_time_s: Option<u64>,
    /// End time once completed, seconds.
    pub end_time_s: Option<u64>,
}

impl Job {
    /// A new pending job with constant utilizations.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u64,
        name: impl Into<String>,
        nodes: usize,
        wall_time_s: u64,
        submit_time_s: u64,
        cpu_util: f32,
        gpu_util: f32,
    ) -> Self {
        Job {
            id: JobId(id),
            name: name.into(),
            nodes,
            wall_time_s,
            submit_time_s,
            partition: 0,
            cpu_util: UtilTrace::Constant(cpu_util),
            gpu_util: UtilTrace::Constant(gpu_util),
            state: JobState::Pending,
            start_time_s: None,
            end_time_s: None,
        }
    }

    /// Check a job that arrived from outside the process against the
    /// machine it will run on, before any kernel sees it: the partition
    /// exists, 1 ≤ nodes ≤ its size, every utilization of the constant or
    /// series traces is finite and in `[0, 1]`, a series quantum is at
    /// least 1 s, and submit and wall times stay far enough below
    /// `u64::MAX` that no time arithmetic on them can overflow.
    pub fn validate(&self, cfg: &SystemConfig) -> Result<(), String> {
        // 1,000 years: past any horizon, yet the kernel can add any two
        // such times to its clock without overflow.
        const MAX_TIME_S: u64 = 1_000 * 366 * 86_400;
        let id = self.id.0;
        let Some(partition) = cfg.partitions.get(self.partition) else {
            return Err(format!(
                "job {id}: partition {} does not exist (the machine has {})",
                self.partition,
                cfg.partitions.len()
            ));
        };
        if self.nodes == 0 || self.nodes > partition.nodes {
            return Err(format!(
                "job {id}: {} nodes is outside 1..={} of partition {}",
                self.nodes, partition.nodes, self.partition
            ));
        }
        if self.submit_time_s > MAX_TIME_S || self.wall_time_s > MAX_TIME_S {
            return Err(format!(
                "job {id}: submit_time_s {} and wall_time_s {} must not exceed {MAX_TIME_S} s",
                self.submit_time_s, self.wall_time_s
            ));
        }
        for (name, trace) in [("cpu_util", &self.cpu_util), ("gpu_util", &self.gpu_util)] {
            let values = match trace {
                UtilTrace::Constant(u) => std::slice::from_ref(u),
                UtilTrace::Series { quantum_s: 0, .. } => {
                    return Err(format!("job {id}: {name} series quantum_s must be at least 1"));
                }
                UtilTrace::Series { values, .. } => values.as_slice(),
            };
            if let Some(u) = values.iter().find(|u| !(0.0..=1.0).contains(*u)) {
                return Err(format!("job {id}: {name} utilization {u} is not in [0, 1]"));
            }
        }
        Ok(())
    }

    /// Seconds the job has been running at absolute time `now_s`
    /// (zero when not yet started).
    pub fn elapsed_at(&self, now_s: u64) -> u64 {
        match self.start_time_s {
            Some(start) => now_s.saturating_sub(start),
            None => 0,
        }
    }

    /// True when the job should complete at or before `now_s`.
    pub fn is_due(&self, now_s: u64) -> bool {
        match self.start_time_s {
            Some(start) => now_s >= start + self.wall_time_s,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_checks_every_field_a_wire_job_sets() {
        let cfg = SystemConfig::frontier();
        let size = cfg.partitions[0].nodes;
        let ok = Job::new(1, "ok", size, 3_600, 0, 0.5, 1.0);
        assert_eq!(ok.validate(&cfg), Ok(()));
        let series = |quantum_s, values| UtilTrace::Series { quantum_s, values };
        let spoiled = [
            ("partition", Job { partition: 99, ..ok.clone() }),
            ("nodes", Job { nodes: 0, ..ok.clone() }),
            ("nodes", Job { nodes: size + 1, ..ok.clone() }),
            ("wall_time_s", Job { wall_time_s: u64::MAX, ..ok.clone() }),
            ("submit_time_s", Job { submit_time_s: u64::MAX, ..ok.clone() }),
            ("cpu_util", Job { cpu_util: UtilTrace::Constant(f32::NAN), ..ok.clone() }),
            ("gpu_util", Job { gpu_util: series(15, vec![0.5, 1.5]), ..ok.clone() }),
            ("quantum_s", Job { gpu_util: series(0, vec![0.5]), ..ok.clone() }),
        ];
        for (field, job) in spoiled {
            let err = job.validate(&cfg).expect_err(field);
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn constant_trace_clamps() {
        assert_eq!(UtilTrace::Constant(1.5).at(0), 1.0);
        assert_eq!(UtilTrace::Constant(-0.5).at(100), 0.0);
        assert_eq!(UtilTrace::Constant(0.79).at(42), 0.79f32 as f64);
    }

    #[test]
    fn series_trace_indexes_by_quantum() {
        let t = UtilTrace::Series { quantum_s: 15, values: vec![0.1, 0.5, 0.9] };
        assert_eq!(t.at(0), 0.1f32 as f64);
        assert_eq!(t.at(14), 0.1f32 as f64);
        assert_eq!(t.at(15), 0.5f32 as f64);
        assert_eq!(t.at(44), 0.9f32 as f64);
        // Holds the last value beyond the end.
        assert_eq!(t.at(10_000), 0.9f32 as f64);
    }

    #[test]
    fn empty_series_is_zero() {
        let t = UtilTrace::Series { quantum_s: 15, values: vec![] };
        assert_eq!(t.at(0), 0.0);
        assert_eq!(t.mean(), 0.0);
    }

    #[test]
    fn mean_of_series() {
        let t = UtilTrace::Series { quantum_s: 15, values: vec![0.0, 1.0] };
        assert!((t.mean() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn job_lifecycle_accessors() {
        let mut j = Job::new(1, "test", 16, 3600, 100, 0.3, 0.8);
        assert_eq!(j.state, JobState::Pending);
        assert!(!j.is_due(1_000_000));
        j.start_time_s = Some(200);
        j.state = JobState::Running;
        assert_eq!(j.elapsed_at(500), 300);
        assert!(!j.is_due(200 + 3599));
        assert!(j.is_due(200 + 3600));
    }
}
