//! L2 cooling backend: answer the FMI boundary from a recorded trace.
//!
//! The paper's L2 ("informative") twin incorporates telemetry for
//! real-time insight rather than simulating physics. This module makes
//! that fidelity level reachable from the coupled twin: a
//! [`ReplayCoolingModel`] implements [`CoSimModel`] with exactly the
//! variable names RAPS resolves at attach time (`cdu_heat[i]`,
//! `wet_bulb`, `it_power`, `pue`, `cooling_power`), but instead of
//! stepping a plant it samples a [`CoolingTrace`] at the current
//! simulation time. Heat and weather inputs are accepted and recorded
//! (the coupling contract) and simply do not influence the outputs —
//! the trace already *is* the measured answer.
//!
//! Traces come from two places: [`CoolingTrace::from_telemetry`] lifts a
//! recorded [`TelemetryDay`] into a trace (the telemetry-replay path of
//! Fig. 9), and [`CoolingTrace::constant`] builds the trivial
//! steady-state trace used by tests and quick studies.

use crate::generator::{SyntheticTwin, TelemetryDay};
use exadigit_raps::config::{NodePowerConfig, SystemConfig};
use exadigit_raps::job::Job;
use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
use exadigit_sim::clock::SECONDS_PER_DAY;
use exadigit_sim::fmi::{
    Causality, CoSimModel, FmiError, VarRef, VariableDescriptor, VariableRegistry,
};
use exadigit_sim::TimeSeries;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One auxiliary recorded channel served by a [`ReplayCoolingModel`]
/// (e.g. a CDU supply temperature), exposed as a read-only local
/// variable under its recorded name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceChannel {
    /// Variable name the channel is registered under (FMI dotted style,
    /// e.g. `cdu[1].secondary_supply_temp`).
    pub name: String,
    /// Recorded values over simulated time.
    pub series: TimeSeries,
}

/// A recorded cooling trace: the measured answers a [`ReplayCoolingModel`]
/// serves across the FMI boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoolingTrace {
    /// Measured PUE over simulated time.
    pub pue: TimeSeries,
    /// Measured cooling auxiliary power, W, over simulated time.
    pub cooling_power_w: TimeSeries,
    /// Additional recorded channels, served verbatim by name.
    pub channels: Vec<TraceChannel>,
}

impl CoolingTrace {
    /// Trace from explicit PUE and cooling-power series.
    pub fn new(pue: TimeSeries, cooling_power_w: TimeSeries) -> Self {
        CoolingTrace { pue, cooling_power_w, channels: Vec::new() }
    }

    /// Trivial steady trace: constant PUE and cooling power over any
    /// horizon (two samples an hour apart; [`TimeSeries::sample_at`]
    /// holds the last value beyond the end).
    pub fn constant(pue: f64, cooling_power_w: f64) -> Self {
        CoolingTrace::new(
            TimeSeries::from_values(0.0, 3600.0, vec![pue, pue]),
            TimeSeries::from_values(0.0, 3600.0, vec![cooling_power_w, cooling_power_w]),
        )
    }

    /// Attach an auxiliary channel (builder style).
    pub fn with_channel(mut self, name: impl Into<String>, series: TimeSeries) -> Self {
        self.channels.push(TraceChannel { name: name.into(), series });
        self
    }

    /// Check a trace that may have come off the wire before a replay
    /// samples it: every series, the channels' included, needs samples
    /// (an empty one panics when sampled) and only finite ones (a JSON
    /// `null` decodes to NaN, which the replay would serve as its answer).
    pub fn validate(&self) -> Result<(), String> {
        let named = self.channels.iter().map(|c| (c.name.as_str(), &c.series));
        for (name, series) in [("pue", &self.pue), ("cooling_power_w", &self.cooling_power_w)]
            .into_iter()
            .chain(named)
        {
            if series.is_empty() {
                return Err(format!("replay trace series {name} has no samples"));
            }
            if let Some(v) = series.samples().find(|v| !v.is_finite()) {
                return Err(format!("replay trace series {name} holds a non-finite sample {v}"));
            }
        }
        Ok(())
    }

    /// Lift a recorded telemetry day into a replay trace.
    ///
    /// The PUE channel is taken verbatim (Table II records it at 15 s).
    /// Cooling power is not a Table II channel, so it is reconstructed
    /// from the PUE definition: `aux = (PUE − 1) × P_IT`, sampling the
    /// measured 1 s system power at each PUE timestamp. Per-CDU return
    /// temperatures ride along as auxiliary channels.
    pub fn from_telemetry(day: &TelemetryDay) -> Self {
        let pue = day.cooling.pue.clone();
        let mut cooling_power = TimeSeries::with_capacity(pue.t0, pue.dt, pue.len());
        for (i, p) in pue.samples().enumerate() {
            let t = pue.t0 + i as f64 * pue.dt;
            let it_w = day.measured_power_w.sample_at(t);
            cooling_power.push((p - 1.0).max(0.0) * it_w);
        }
        let mut trace = CoolingTrace::new(pue, cooling_power);
        for (i, series) in day.cooling.cdu_return_temp.iter().enumerate() {
            trace = trace
                .with_channel(format!("cdu[{}].primary_return_temp", i + 1), series.clone());
        }
        trace
    }
}

/// The L2 cooling backend: a [`CoSimModel`] that plays back a
/// [`CoolingTrace`] instead of simulating a plant.
///
/// Trace-quantum alignment holds under both advancement kernels: the
/// event-driven `run_until` treats every 15 s trace quantum as an
/// event, so `do_step` sees exactly the same `(current_time, 15 s)`
/// sequence as the per-second loop and the replayed outputs are
/// bit-identical (pinned by the `event_kernel` integration test).
///
/// The registry exposes `num_cdus` heat inputs plus `wet_bulb` and
/// `it_power` (so [`CoolingCoupling::attach`] resolves the same names it
/// would against the L4 plant), the `pue` and `cooling_power` outputs
/// served from the trace, and one local variable per auxiliary channel.
///
/// [`CoolingCoupling::attach`]: exadigit_raps::simulation::CoolingCoupling::attach
#[derive(Clone, Serialize, Deserialize)]
pub struct ReplayCoolingModel {
    /// The recorded answers; read-only during replay, so forks share it
    /// by refcount (its series already share their sealed chunks).
    trace: std::sync::Arc<CoolingTrace>,
    /// Immutable after construction; forks share it by refcount.
    vars: std::sync::Arc<Vec<VariableDescriptor>>,
    values: Vec<f64>,
    num_cdus: usize,
    /// Current simulation time the outputs are sampled at, seconds.
    time_s: f64,
}

impl ReplayCoolingModel {
    /// Replay model exposing `num_cdus` heat inputs over the given trace.
    pub fn new(trace: CoolingTrace, num_cdus: usize) -> Self {
        let mut reg = VariableRegistry::new();
        for i in 1..=num_cdus {
            reg.register(
                format!("cdu_heat[{i}]"),
                "W",
                Causality::Input,
                format!("Heat extracted into CDU {i}'s liquid loop (recorded, not simulated)"),
            );
        }
        reg.register("wet_bulb", "degC", Causality::Input, "Outdoor wet-bulb temperature");
        reg.register("it_power", "W", Causality::Input, "Total IT power (recorded, not used)");
        reg.register("pue", "1", Causality::Output, "Measured PUE from the trace");
        reg.register(
            "cooling_power",
            "W",
            Causality::Output,
            "Measured cooling auxiliary power from the trace",
        );
        for ch in &trace.channels {
            reg.register(
                ch.name.clone(),
                "1",
                Causality::Local,
                "Auxiliary recorded channel served verbatim",
            );
        }
        let values = vec![0.0; reg.len()];
        let mut model = ReplayCoolingModel {
            trace: std::sync::Arc::new(trace),
            vars: std::sync::Arc::new(reg.into_vec()),
            values,
            num_cdus,
            time_s: 0.0,
        };
        model.refresh_outputs();
        model
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &CoolingTrace {
        &self.trace
    }

    fn refresh_outputs(&mut self) {
        let t = self.time_s;
        let pue_idx = self.num_cdus + 2;
        self.values[pue_idx] = self.trace.pue.sample_at(t);
        self.values[pue_idx + 1] = self.trace.cooling_power_w.sample_at(t);
        for (k, ch) in self.trace.channels.iter().enumerate() {
            self.values[pue_idx + 2 + k] = ch.series.sample_at(t);
        }
    }
}

impl CoSimModel for ReplayCoolingModel {
    fn instance_name(&self) -> &str {
        "telemetry-replay"
    }

    fn variables(&self) -> &[VariableDescriptor] {
        &self.vars
    }

    fn setup(&mut self, start_time: f64) {
        self.time_s = start_time;
        self.refresh_outputs();
    }

    fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError> {
        let idx = vr.0 as usize;
        match self.vars.get(idx) {
            None => Err(FmiError::UnknownVariable(vr)),
            Some(v) if v.causality == Causality::Input => {
                self.values[idx] = value;
                Ok(())
            }
            Some(_) => Err(FmiError::WrongCausality { vr, expected: Causality::Input }),
        }
    }

    fn get_real(&self, vr: VarRef) -> Result<f64, FmiError> {
        self.values.get(vr.0 as usize).copied().ok_or(FmiError::UnknownVariable(vr))
    }

    fn do_step(&mut self, current_time: f64, step_size: f64) -> Result<(), FmiError> {
        if step_size <= 0.0 {
            return Err(FmiError::InvalidStep(format!("non-positive step {step_size}")));
        }
        self.time_s = current_time + step_size;
        self.refresh_outputs();
        Ok(())
    }

    fn reset(&mut self) {
        self.time_s = 0.0;
        self.values.iter_mut().for_each(|v| *v = 0.0);
        self.refresh_outputs();
    }

    fn fork(&self) -> Option<Box<dyn CoSimModel>> {
        Some(Box::new(self.clone()))
    }

    fn save_state(&self) -> Option<serde::Value> {
        Some(serde::Serialize::to_value(self))
    }
}

/// A replayable telemetry feed: the stand-in for the live stream a
/// persistent twin ingests (`docs/SERVICE.md`).
///
/// A real deployment would subscribe to the paper's §III-B streaming
/// pipeline; here the same interface is served from recorded or synthetic
/// telemetry so the service layer can be driven deterministically. The
/// feed hands out job submissions in timed batches ([`TelemetryFeed::poll`]
/// — everything submitted up to the requested second, exactly once) and
/// carries the wet-bulb forcing plus, when lifted from a recorded day, the
/// measured cooling trace for an L2 replay backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryFeed {
    /// Not-yet-delivered jobs, ascending submit time.
    jobs: VecDeque<Job>,
    /// Wet-bulb forcing over the feed's span, °C.
    wet_bulb: TimeSeries,
    /// Measured cooling channels, when the feed wraps recorded telemetry.
    cooling: Option<CoolingTrace>,
    /// Feed time: everything at or before this second has been delivered.
    delivered_through_s: u64,
    /// Total seconds of telemetry the feed carries.
    span_s: u64,
}

impl TelemetryFeed {
    /// Feed from an explicit job list and wet-bulb forcing covering
    /// `span_s` seconds. Jobs are delivered in submit order.
    pub fn new(mut jobs: Vec<Job>, wet_bulb: TimeSeries, span_s: u64) -> Self {
        jobs.sort_by_key(|j| j.submit_time_s);
        TelemetryFeed {
            jobs: jobs.into(),
            wet_bulb,
            cooling: None,
            delivered_through_s: 0,
            span_s,
        }
    }

    /// Attach a recorded cooling trace (builder style) so consumers can
    /// run an L2 replay backend against the same feed.
    pub fn with_cooling_trace(mut self, trace: CoolingTrace) -> Self {
        self.cooling = Some(trace);
        self
    }

    /// Lift one recorded telemetry day into a feed: job records become
    /// replayable jobs (trace-level utilization via `power` inversion),
    /// the measured wet-bulb rides along as forcing, and the measured
    /// cooling channels become the feed's [`CoolingTrace`]. The span is
    /// whatever the recording covered (the 1 s measured-power channel's
    /// length), so `record_span` slices shorter than a day are honest.
    pub fn from_day(day: &TelemetryDay, power: &NodePowerConfig) -> Self {
        let jobs: Vec<Job> = day.jobs.iter().map(|rec| rec.to_job(power)).collect();
        let span_s = day.measured_power_w.len() as u64;
        TelemetryFeed::new(jobs, day.wet_bulb.clone(), span_s)
            .with_cooling_trace(CoolingTrace::from_telemetry(day))
    }

    /// A synthetic multi-day feed for `system`: the default workload
    /// model's job stream over `days` days, with job sizes and offered
    /// load scaled to the system's first partition (where the generated
    /// jobs run, so every job fits it), plus the synthetic twin's diurnal
    /// wet-bulb profile, all derived deterministically from `seed`. This
    /// is the cheap stand-in `examples/twin_service.rs` and the service
    /// tests ingest — no physical-twin recording pass required. A
    /// Frontier feed is the default workload model's stream unchanged.
    pub fn synthetic(system: &SystemConfig, seed: u64, days: u64) -> Self {
        let params = WorkloadParams {
            machine_nodes: system.partitions[0].nodes,
            ..WorkloadParams::default()
        };
        let mut gen = WorkloadGenerator::new(params, seed);
        let jobs = gen.generate_span(days.max(1));
        let twin = SyntheticTwin::frontier();
        // Concatenate per-day wet-bulb profiles (60 s cadence) into one
        // span-long forcing; drop each day's duplicated midnight sample.
        let mut wet_bulb = TimeSeries::with_capacity(0.0, 60.0, (days.max(1) * 1440 + 1) as usize);
        for day in 0..days.max(1) {
            let profile = twin.wet_bulb_day(day);
            let take = if day + 1 == days.max(1) { profile.len() } else { 1440 };
            for v in profile.samples().take(take) {
                wet_bulb.push(v);
            }
        }
        TelemetryFeed::new(jobs, wet_bulb, days.max(1) * SECONDS_PER_DAY)
    }

    /// Deliver every job submitted at or before `until_s` that has not
    /// been delivered yet. Monotone: the feed never rewinds, and each job
    /// is handed out exactly once.
    pub fn poll(&mut self, until_s: u64) -> Vec<Job> {
        let mut out = Vec::new();
        while let Some(front) = self.jobs.front() {
            if front.submit_time_s <= until_s {
                out.push(self.jobs.pop_front().expect("peeked"));
            } else {
                break;
            }
        }
        self.delivered_through_s = self.delivered_through_s.max(until_s);
        out
    }

    /// The wet-bulb forcing over the feed's span.
    pub fn wet_bulb(&self) -> &TimeSeries {
        &self.wet_bulb
    }

    /// The measured cooling trace, when the feed wraps recorded telemetry.
    pub fn cooling_trace(&self) -> Option<&CoolingTrace> {
        self.cooling.as_ref()
    }

    /// Jobs not yet delivered.
    pub fn pending_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Feed time: everything at or before this second has been delivered.
    pub fn delivered_through_s(&self) -> u64 {
        self.delivered_through_s
    }

    /// Total seconds of telemetry the feed carries.
    pub fn span_s(&self) -> u64 {
        self.span_s
    }

    /// True once every job has been delivered and the feed time has
    /// reached the end of the span.
    pub fn exhausted(&self) -> bool {
        self.jobs.is_empty() && self.delivered_through_s >= self.span_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> CoolingTrace {
        // PUE ramps 1.05 → 1.15 over four 15 s samples.
        CoolingTrace::new(
            TimeSeries::from_values(0.0, 15.0, vec![1.05, 1.08, 1.12, 1.15]),
            TimeSeries::from_values(0.0, 15.0, vec![4.0e5, 4.5e5, 5.0e5, 5.5e5]),
        )
    }

    #[test]
    fn validate_refuses_empty_or_non_finite_series_channels_included() {
        ramp_trace().validate().unwrap();
        let empty = || TimeSeries::from_values(0.0, 15.0, Vec::new());
        let nan = || TimeSeries::from_values(0.0, 15.0, vec![1.1, f64::NAN]);
        let broken = [
            ("pue", CoolingTrace { pue: empty(), ..ramp_trace() }),
            ("cooling_power_w", CoolingTrace { cooling_power_w: nan(), ..ramp_trace() }),
            ("cdu[1].supply", ramp_trace().with_channel("cdu[1].supply", empty())),
            ("cdu[2].supply", ramp_trace().with_channel("cdu[2].supply", nan())),
        ];
        for (series, trace) in broken {
            let err = trace.validate().expect_err(series);
            assert!(err.contains(series), "{err}");
        }
    }

    #[test]
    fn exposes_the_coupling_contract_names() {
        let m = ReplayCoolingModel::new(ramp_trace(), 25);
        for i in 1..=25 {
            assert!(m.var_by_name(&format!("cdu_heat[{i}]")).is_some());
        }
        assert!(m.var_by_name("wet_bulb").is_some());
        assert!(m.var_by_name("it_power").is_some());
        assert!(m.var_by_name("pue").is_some());
        assert!(m.var_by_name("cooling_power").is_some());
    }

    #[test]
    fn outputs_track_the_trace_over_time() {
        let mut m = ReplayCoolingModel::new(ramp_trace(), 2);
        m.setup(0.0);
        let pue_vr = m.var_by_name("pue").unwrap().vr;
        assert_eq!(m.get_real(pue_vr).unwrap(), 1.05);
        m.do_step(0.0, 15.0).unwrap();
        assert_eq!(m.get_real(pue_vr).unwrap(), 1.08);
        m.do_step(15.0, 15.0).unwrap();
        assert_eq!(m.get_real(pue_vr).unwrap(), 1.12);
        // Beyond the end of the trace the last sample holds.
        m.do_step(30.0, 3600.0).unwrap();
        assert_eq!(m.get_real(pue_vr).unwrap(), 1.15);
    }

    #[test]
    fn inputs_accepted_but_do_not_change_outputs() {
        let mut m = ReplayCoolingModel::new(ramp_trace(), 2);
        m.setup(0.0);
        m.set_real(VarRef(0), 1.0e6).unwrap();
        m.set_real(m.var_by_name("wet_bulb").unwrap().vr, 30.0).unwrap();
        m.do_step(0.0, 15.0).unwrap();
        let pue = m.get_real(m.var_by_name("pue").unwrap().vr).unwrap();
        assert_eq!(pue, 1.08, "replay outputs come from the trace alone");
    }

    #[test]
    fn auxiliary_channels_served_by_name() {
        let trace = ramp_trace()
            .with_channel("cdu[1].primary_return_temp", TimeSeries::from_values(0.0, 15.0, vec![30.0, 31.0]));
        let mut m = ReplayCoolingModel::new(trace, 1);
        m.setup(0.0);
        let vr = m.var_by_name("cdu[1].primary_return_temp").unwrap().vr;
        assert_eq!(m.get_real(vr).unwrap(), 30.0);
        m.do_step(0.0, 15.0).unwrap();
        assert_eq!(m.get_real(vr).unwrap(), 31.0);
    }

    #[test]
    fn wrong_causality_and_unknown_vr_rejected() {
        let mut m = ReplayCoolingModel::new(ramp_trace(), 1);
        let pue_vr = m.var_by_name("pue").unwrap().vr;
        assert!(matches!(
            m.set_real(pue_vr, 1.0),
            Err(FmiError::WrongCausality { .. })
        ));
        assert!(matches!(m.get_real(VarRef(999)), Err(FmiError::UnknownVariable(_))));
        assert!(m.do_step(0.0, 0.0).is_err());
    }

    #[test]
    fn constant_trace_holds_forever() {
        let mut m = ReplayCoolingModel::new(CoolingTrace::constant(1.07, 6.0e5), 3);
        m.setup(0.0);
        for k in 0..10 {
            m.do_step(k as f64 * 900.0, 900.0).unwrap();
        }
        assert_eq!(m.get_real(m.var_by_name("pue").unwrap().vr).unwrap(), 1.07);
        assert_eq!(m.get_real(m.var_by_name("cooling_power").unwrap().vr).unwrap(), 6.0e5);
    }

    #[test]
    fn trace_serialises_round_trip() {
        let trace = ramp_trace().with_channel("x", TimeSeries::from_values(0.0, 1.0, vec![2.0]));
        let json = serde_json::to_string(&trace).unwrap();
        let back: CoolingTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn feed_delivers_jobs_once_in_submit_order() {
        let jobs = vec![
            Job::new(3, "c", 8, 60, 300, 0.5, 0.5),
            Job::new(1, "a", 8, 60, 10, 0.5, 0.5),
            Job::new(2, "b", 8, 60, 120, 0.5, 0.5),
        ];
        let wb = TimeSeries::from_values(0.0, 3600.0, vec![15.0, 15.0]);
        let mut feed = TelemetryFeed::new(jobs, wb, 3600);
        assert_eq!(feed.pending_jobs(), 3);
        let first = feed.poll(120);
        assert_eq!(first.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![1, 2]);
        assert!(feed.poll(120).is_empty(), "polling the same window re-delivers nothing");
        let rest = feed.poll(3600);
        assert_eq!(rest.len(), 1);
        assert!(feed.exhausted());
    }

    #[test]
    fn synthetic_feed_is_deterministic_and_spans_days() {
        let frontier = SystemConfig::frontier();
        let a = TelemetryFeed::synthetic(&frontier, 42, 2);
        let b = TelemetryFeed::synthetic(&frontier, 42, 2);
        assert_eq!(a.pending_jobs(), b.pending_jobs());
        assert_eq!(a.wet_bulb().to_vec(), b.wet_bulb().to_vec());
        assert_eq!(a.span_s(), 2 * SECONDS_PER_DAY);
        // The forcing covers the whole span at 60 s cadence.
        assert!(a.wet_bulb().end_time().unwrap() >= (2 * SECONDS_PER_DAY) as f64 - 60.0);
        assert!(a.pending_jobs() > 100, "a synthetic day has hundreds of jobs");
        // Jobs fall inside the span.
        let mut feed = a.clone();
        let jobs = feed.poll(2 * SECONDS_PER_DAY);
        assert!(jobs.iter().all(|j| j.submit_time_s < 2 * SECONDS_PER_DAY));
        assert!(feed.exhausted());
    }

    /// A synthetic feed sizes its jobs to the system: on the
    /// Marconi100-like machine every job of seed 5's day fits the
    /// partition it runs in (Frontier-sized, 116 of them never could),
    /// while a Frontier feed is the default workload stream job for job.
    #[test]
    fn synthetic_feed_sizes_jobs_to_the_system() {
        let marconi = SystemConfig::marconi100_like();
        let jobs = TelemetryFeed::synthetic(&marconi, 5, 1).poll(SECONDS_PER_DAY);
        assert!(jobs.len() > 100, "{} jobs", jobs.len());
        for job in &jobs {
            assert_eq!(job.validate(&marconi), Ok(()));
        }
        let frontier = SystemConfig::frontier();
        let default_day = WorkloadGenerator::new(WorkloadParams::default(), 5).generate_span(1);
        assert_eq!(TelemetryFeed::synthetic(&frontier, 5, 1).poll(SECONDS_PER_DAY), default_day);
    }

    #[test]
    fn feed_from_day_carries_cooling_trace() {
        use exadigit_raps::job::Job;
        let twin = crate::generator::SyntheticTwin::frontier();
        let day = twin.record_span(vec![Job::new(1, "j", 64, 120, 5, 0.5, 0.5)], 120, 0);
        let feed = TelemetryFeed::from_day(&day, &twin.nominal_system.node_power);
        assert!(feed.cooling_trace().is_some());
        assert_eq!(feed.pending_jobs(), day.jobs.len());
        // The span is what the recording covered, not a hardcoded day.
        assert_eq!(feed.span_s(), 120);
        let mut feed = feed;
        feed.poll(120);
        assert!(feed.exhausted());
    }

    #[test]
    fn from_telemetry_reconstructs_cooling_power() {
        use exadigit_raps::job::Job;
        let twin = crate::generator::SyntheticTwin::frontier();
        let day = twin.record_span(vec![Job::new(1, "j", 64, 120, 5, 0.5, 0.5)], 120, 0);
        let trace = CoolingTrace::from_telemetry(&day);
        assert_eq!(trace.pue, day.cooling.pue);
        assert_eq!(trace.cooling_power_w.len(), trace.pue.len());
        // aux = (PUE − 1) × P_IT must be positive for a loaded plant.
        assert!(trace.cooling_power_w.samples().all(|w| w >= 0.0));
        // Per-CDU return temps ride along.
        assert!(trace.channels.iter().any(|c| c.name == "cdu[1].primary_return_temp"));
    }
}
