//! The digital twin façade.
//!
//! [`DigitalTwin`] assembles the three modules of Fig. 1: RAPS advances
//! 1 s-resolution time through its discrete-event kernel ([`run`] jumps
//! the clock event-to-event; [`tick`] still single-steps the literal
//! Algorithm 1 second), the selected cooling backend (L4 plant, L3
//! surrogate, or L2 telemetry replay — see
//! [`crate::config::CoolingBackend`] and `docs/FIDELITY.md`) is attached
//! across the FMI-lite boundary at the 15 s cadence, and the scene graph
//! provides the L1 representation. This is the type examples and what-if
//! studies interact with.
//!
//! [`run`]: DigitalTwin::run
//! [`tick`]: DigitalTwin::tick

use crate::config::{CoolingBackend, TwinConfig};
use crate::levels::TwinLevel;
use crate::online::OnlineCoolingModel;
use crate::surrogate::SurrogateCoolingModel;
use exadigit_cooling::CoolingModel;
use exadigit_raps::job::Job;
use exadigit_raps::power::PowerSnapshot;
use exadigit_raps::simulation::{CoolingCoupling, RapsSimulation, SimOutputs};
use exadigit_raps::stats::RunReport;
use exadigit_sim::fmi::{CoSimModel, FmiError};
use exadigit_sim::TimeSeries;
use exadigit_telemetry::replay::ReplayCoolingModel;
use exadigit_viz::SceneGraph;

/// Version stamp written into every serialized twin state. Bump it when
/// the layout of any state reachable from [`DigitalTwin`] changes shape;
/// [`DigitalTwin::from_state`] refuses other versions with an explicit
/// error instead of deserializing garbage physics (policy in
/// `docs/SERVICE.md` § "Durability and recovery").
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// A fully assembled digital twin.
pub struct DigitalTwin {
    /// The generating configuration.
    pub config: TwinConfig,
    sim: RapsSimulation,
}

impl DigitalTwin {
    /// Build the twin from a configuration (validates first). The
    /// cooling backend is materialised here — every variant yields a
    /// `Box<dyn CoSimModel>` exposing the same `cooling_vars` names, so
    /// the coupling below is fidelity-agnostic.
    pub fn new(config: TwinConfig) -> Result<Self, String> {
        config.validate()?;
        let mut sim = RapsSimulation::new(
            config.system.clone(),
            config.delivery,
            config.policy,
            config.record_every_s,
        );
        let num_cdus = config.system.cooling.num_cdus;
        if let Some(model) = config.cooling.build(&config.plant, num_cdus)? {
            let coupling = CoolingCoupling::attach(model, num_cdus)
                .map_err(|e| format!("cooling coupling failed: {e}"))?;
            sim.attach_cooling(coupling);
        }
        Ok(DigitalTwin { config, sim })
    }

    /// The Fig. 2 maturity level of the attached cooling backend
    /// (`None` when running power-only).
    pub fn cooling_level(&self) -> Option<TwinLevel> {
        self.config.cooling.level()
    }

    /// Submit jobs (synthetic, benchmark, or telemetry-derived).
    pub fn submit(&mut self, jobs: Vec<Job>) {
        self.sim.submit_jobs(jobs);
    }

    /// Provide the wet-bulb forcing for the cooling model.
    pub fn set_wet_bulb(&mut self, series: TimeSeries) {
        self.sim.set_wet_bulb(series);
    }

    /// Advance the twin by `seconds` of simulated time through the
    /// discrete-event kernel (O(events), not O(seconds) — see
    /// `DESIGN.md` § "Discrete-event kernel").
    pub fn run(&mut self, seconds: u64) -> Result<(), FmiError> {
        let target = self.sim.now() + seconds;
        self.sim.run_until(target)
    }

    /// Advance a single second (Algorithm 1 `TICK`).
    pub fn tick(&mut self) -> Result<(), FmiError> {
        self.sim.tick()
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> u64 {
        self.sim.now()
    }

    /// Latest power snapshot.
    pub fn snapshot(&self) -> &PowerSnapshot {
        self.sim.snapshot()
    }

    /// Recorded output series.
    pub fn outputs(&self) -> &SimOutputs {
        self.sim.outputs()
    }

    /// Node-allocation utilization.
    pub fn utilization(&self) -> f64 {
        self.sim.utilization()
    }

    /// Jobs currently running / waiting.
    pub fn queue_state(&self) -> (usize, usize) {
        (self.sim.running_count(), self.sim.pending_count())
    }

    /// Read a cooling-model output by name (None without cooling or for
    /// unknown names).
    pub fn cooling_output(&self, name: &str) -> Option<f64> {
        let model = self.sim.cooling_model()?;
        let vr = model.var_by_name(name)?.vr;
        model.get_real(vr).ok()
    }

    /// The §III-B5 run report.
    pub fn report(&self) -> RunReport {
        self.sim.report()
    }

    /// The event kernel's observability counters (shared atomic
    /// handles; see `exadigit_raps::metrics::KernelMetrics`).
    pub fn kernel_metrics(&self) -> &exadigit_raps::metrics::KernelMetrics {
        self.sim.metrics()
    }

    /// Route the event kernel's counts through caller-owned handles
    /// (how the service feeds its metrics registry). Counters are
    /// diagnostics, not state: they are never serialized, and forks of
    /// this twin share the attached handles.
    pub fn set_kernel_metrics(&mut self, metrics: exadigit_raps::metrics::KernelMetrics) {
        self.sim.set_metrics(metrics);
    }

    /// The L1 scene graph for this system (Frontier layout; generated
    /// scenes for other systems are future work, as in the paper).
    pub fn scene(&self) -> SceneGraph {
        SceneGraph::frontier()
    }

    /// Fork the twin mid-run: a full, independent copy of the simulation
    /// state (clock, queues, event calendar, outputs, cooling-model
    /// internals) that can be advanced without disturbing the original.
    ///
    /// This is the what-if primitive of the service layer
    /// (`docs/SERVICE.md`): a query branched from a snapshot at time `t`
    /// costs O(horizon) instead of O(t + horizon), and
    /// `fork().run(h)` is bit-identical to running the original `h`
    /// seconds (the `service_fork` golden + property tests). Fails only
    /// for a cooling backend whose model cannot capture its state — all
    /// built-in backends can.
    pub fn fork(&self) -> Result<DigitalTwin, String> {
        Ok(DigitalTwin { config: self.config.clone(), sim: self.sim.fork()? })
    }

    /// Serialize the complete twin state — configuration, clock, queues,
    /// event calendar, recorded outputs, and the cooling backend's
    /// internals — as a versioned value: [`DigitalTwin::fork`] across a
    /// process boundary.
    ///
    /// A twin rebuilt by [`DigitalTwin::from_state`] and advanced is
    /// bit-identical to this one advanced the same way (the
    /// `snapshot_roundtrip` battery). Fails only for a cooling backend
    /// whose model cannot capture its state — all built-in backends can.
    pub fn save_state(&self) -> Result<serde::Value, String> {
        Ok(serde::Value::Object(vec![
            (
                "snapshot_format_version".to_string(),
                serde::Value::Number(serde::Number::U(SNAPSHOT_FORMAT_VERSION as u64)),
            ),
            ("config".to_string(), serde::Serialize::to_value(&self.config)),
            ("sim".to_string(), self.sim.save_state()?),
        ]))
    }

    /// Rebuild a twin from a [`DigitalTwin::save_state`] value.
    ///
    /// The `snapshot_format_version` stamp is checked first: a value
    /// written by an incompatible build fails here with an explicit
    /// version message (the golden-fixture test pins this), never with
    /// garbage physics. The cooling model is reconstructed from its
    /// captured internals *without* re-running `setup`, so an L4 plant
    /// resumes mid-transient rather than from a fresh settle.
    pub fn from_state(value: &serde::Value) -> Result<Self, String> {
        let version = value
            .get("snapshot_format_version")
            .and_then(serde::Value::as_u64)
            .ok_or_else(|| {
                "snapshot has no snapshot_format_version field; refusing to load".to_string()
            })?;
        if version != SNAPSHOT_FORMAT_VERSION as u64 {
            return Err(format!(
                "unsupported snapshot format version {version}: this build reads \
                 snapshot format version {SNAPSHOT_FORMAT_VERSION}"
            ));
        }
        let config_value =
            value.get("config").ok_or_else(|| "snapshot has no config field".to_string())?;
        let config = <TwinConfig as serde::Deserialize>::from_value(config_value)
            .map_err(|e| format!("invalid twin config in snapshot: {e}"))?;
        config.validate()?;
        let sim_value =
            value.get("sim").ok_or_else(|| "snapshot has no sim field".to_string())?;
        let backend = config.cooling.clone();
        let sim = RapsSimulation::from_state(sim_value, |model_state| {
            rebuild_cooling_model(&backend, model_state)
        })?;
        Ok(DigitalTwin { config, sim })
    }

    /// [`DigitalTwin::save_state`] rendered as a JSON string.
    pub fn to_snapshot_json(&self) -> Result<String, String> {
        let value = self.save_state()?;
        serde_json::to_string(&value).map_err(|e| format!("snapshot serialization failed: {e}"))
    }

    /// Rebuild a twin from a [`DigitalTwin::to_snapshot_json`] string.
    pub fn from_snapshot_json(s: &str) -> Result<Self, String> {
        let value: serde::Value = serde_json::from_str(s)
            .map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
        DigitalTwin::from_state(&value)
    }

    /// Mutable access to the underlying RAPS simulation (advanced use).
    pub fn raps_mut(&mut self) -> &mut RapsSimulation {
        &mut self.sim
    }

    /// Immutable access to the underlying RAPS simulation.
    pub fn raps(&self) -> &RapsSimulation {
        &self.sim
    }
}

/// Deserialize a cooling model's captured state back into the concrete
/// backend type the configuration names. The state blob is the one the
/// model's [`CoSimModel::save_state`] produced, so each arm is a plain
/// `from_value` of the backend's own struct. The blob carries its own
/// copy of the backend's payload (the online trainer's config, a fitted
/// surrogate, a replay trace), which passes the same check as the
/// config's copy.
fn rebuild_cooling_model(
    backend: &CoolingBackend,
    state: &serde::Value,
) -> Result<Box<dyn CoSimModel>, String> {
    match backend {
        CoolingBackend::None => {
            Err("snapshot carries cooling state but the config's backend is None".to_string())
        }
        CoolingBackend::Plant => rebuild::<CoolingModel>(state, "L4 plant", |_| Ok(())),
        CoolingBackend::Surrogate(_) => {
            rebuild(state, "L3 surrogate", |m: &SurrogateCoolingModel| m.surrogate().validate())
        }
        CoolingBackend::Online(_) => rebuild(state, "online L3/L4", OnlineCoolingModel::validate),
        CoolingBackend::Replay(_) => {
            rebuild(state, "L2 replay", |m: &ReplayCoolingModel| m.trace().validate())
        }
    }
}

/// `state` as an `M`, refused unless `check` passes.
fn rebuild<M: CoSimModel + serde::Deserialize + 'static>(
    state: &serde::Value,
    what: &str,
    check: impl Fn(&M) -> Result<(), String>,
) -> Result<Box<dyn CoSimModel>, String> {
    let model =
        M::from_value(state).map_err(|e| format!("invalid {what} state in snapshot: {e}"))?;
    check(&model)?;
    Ok(Box::new(model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exadigit_raps::job::Job;

    #[test]
    fn twin_without_cooling_runs() {
        let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        twin.submit(vec![Job::new(1, "j", 256, 120, 5, 0.6, 0.8)]);
        twin.run(300).unwrap();
        let r = twin.report();
        assert_eq!(r.jobs_completed, 1);
        assert!(r.avg_power_mw > 7.0);
        assert!(twin.cooling_output("pue").is_none());
    }

    #[test]
    fn twin_with_cooling_reports_pue() {
        let mut twin = DigitalTwin::new(TwinConfig::frontier()).unwrap();
        twin.submit(vec![Job::new(1, "load", 4096, 1800, 1, 0.8, 0.9)]);
        twin.run(1800).unwrap();
        let pue = twin.cooling_output("pue").expect("cooling attached");
        assert!((1.0..1.3).contains(&pue), "pue={pue}");
        let r = twin.report();
        assert!(r.avg_pue.is_some());
        // Cooling outputs are live: supply temperature in a sane band.
        let t = twin.cooling_output("cdu[1].secondary_supply_temp").unwrap();
        assert!((20.0..45.0).contains(&t), "t={t}");
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = TwinConfig::frontier();
        cfg.system.cooling.num_cdus = 3;
        assert!(DigitalTwin::new(cfg).is_err());
    }

    #[test]
    fn twin_with_replay_backend_serves_trace_pue() {
        use crate::config::CoolingBackend;
        use exadigit_telemetry::replay::CoolingTrace;
        let cfg = TwinConfig::frontier()
            .with_backend(CoolingBackend::Replay(CoolingTrace::constant(1.0625, 5.0e5)));
        assert_eq!(cfg.cooling.level(), Some(crate::levels::TwinLevel::Informative));
        let mut twin = DigitalTwin::new(cfg).unwrap();
        twin.submit(vec![Job::new(1, "load", 1024, 600, 1, 0.8, 0.9)]);
        twin.run(900).unwrap();
        assert_eq!(twin.cooling_output("pue"), Some(1.0625));
        assert_eq!(twin.cooling_output("cooling_power"), Some(5.0e5));
        let r = twin.report();
        assert_eq!(r.avg_pue, Some(1.0625));
    }

    #[test]
    fn twin_with_fitted_surrogate_backend_reports_pue() {
        use crate::config::{CoolingBackend, SurrogateSource};
        use crate::surrogate::{Sample, Surrogate};
        // A synthetic fit standing in for a trained surrogate (training
        // the full Frontier envelope is exercised in the integration
        // tests; unit scope here is the twin wiring).
        let mut samples = Vec::new();
        for li in 0..4 {
            for wi in 0..4 {
                let l = 0.1 + 0.25 * li as f64;
                let w = 5.0 + 7.0 * wi as f64;
                samples.push(Sample {
                    load_fraction: l,
                    wet_bulb_c: w,
                    pue: 1.03 + 0.02 * l + 0.001 * w,
                    cooling_power_w: 4.0e5 * (1.0 + l),
                });
            }
        }
        let sur = Surrogate::fit(&samples).unwrap();
        let cfg = TwinConfig::frontier()
            .with_backend(CoolingBackend::Surrogate(SurrogateSource::Fitted(sur)));
        assert_eq!(cfg.cooling.level(), Some(crate::levels::TwinLevel::Predictive));
        let mut twin = DigitalTwin::new(cfg).unwrap();
        twin.submit(vec![Job::new(1, "load", 4096, 1800, 1, 0.8, 0.9)]);
        twin.run(1800).unwrap();
        let pue = twin.cooling_output("pue").expect("surrogate attached");
        assert!((1.0..1.3).contains(&pue), "pue={pue}");
        // The counted-warning channel is visible across the boundary.
        let count = twin.cooling_output("surrogate.extrapolation_count").unwrap();
        assert!(count >= 0.0);
    }

    #[test]
    fn forked_twin_with_plant_matches_continued_original() {
        // The hard case: the L4 plant's transient state (thermal volumes,
        // PID integrators, staging hysteresis) must survive the fork for
        // the continuation to stay bit-identical.
        let mut twin = DigitalTwin::new(TwinConfig::frontier()).unwrap();
        twin.submit(vec![Job::new(1, "load", 4096, 3600, 1, 0.8, 0.9)]);
        twin.run(600).unwrap();
        let mut forked = twin.fork().unwrap();
        twin.run(600).unwrap();
        forked.run(600).unwrap();
        let (a, b) = (twin.outputs(), forked.outputs());
        assert_eq!(a.pue.len(), b.pue.len());
        assert!(a
            .pue
            .samples()
            .zip(b.pue.samples())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(
            twin.cooling_output("cdu[1].secondary_supply_temp").map(f64::to_bits),
            forked.cooling_output("cdu[1].secondary_supply_temp").map(f64::to_bits),
        );
        assert_eq!(twin.report(), forked.report());
    }

    #[test]
    fn mid_run_cooling_attach_anchors_pue_series_at_the_attach_time() {
        use crate::config::CoolingBackend;
        use exadigit_telemetry::replay::CoolingTrace;
        let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        twin.run(5_000).unwrap();
        let backend = CoolingBackend::Replay(CoolingTrace::constant(1.05, 4.0e5));
        let model = backend.build(&twin.config.plant, 25).unwrap().unwrap();
        let coupling =
            exadigit_raps::simulation::CoolingCoupling::attach(model, 25).unwrap();
        twin.raps_mut().attach_cooling(coupling);
        twin.run(100).unwrap();
        let pue = &twin.outputs().pue;
        assert!(!pue.is_empty());
        // First sample belongs to the first quantum after t = 5,000.
        assert_eq!(pue.t0, 5_010.0);

        // Detach, coast, re-attach: the gap's missed quanta pad as NaN
        // so appended samples keep their physical times.
        let n_before = pue.len();
        twin.raps_mut().detach_cooling();
        twin.run(300).unwrap();
        let backend = CoolingBackend::Replay(CoolingTrace::constant(1.08, 4.0e5));
        let model = backend.build(&twin.config.plant, 25).unwrap().unwrap();
        let coupling =
            exadigit_raps::simulation::CoolingCoupling::attach(model, 25).unwrap();
        twin.raps_mut().attach_cooling(coupling);
        twin.run(45).unwrap();
        let pue = &twin.outputs().pue;
        assert!(pue[n_before].is_nan(), "gap quanta must read as no-measurement");
        let last_t = pue.t0 + (pue.len() as f64 - 1.0) * 15.0;
        assert!(pue.last().unwrap() - 1.08 == 0.0);
        assert!(last_t > 5_400.0, "appended samples carry physical times, got {last_t}");
    }

    #[test]
    fn save_load_run_matches_uninterrupted_run_with_plant() {
        // The L4 hard case: thermal volumes, PID integrators, staging
        // hysteresis, and the hydraulic warm start must all survive the
        // JSON round trip for the continuation to stay bit-identical.
        let mut twin = DigitalTwin::new(TwinConfig::frontier()).unwrap();
        twin.submit(vec![Job::new(1, "load", 4096, 3600, 1, 0.8, 0.9)]);
        twin.run(600).unwrap();
        let json = twin.to_snapshot_json().unwrap();
        let mut loaded = DigitalTwin::from_snapshot_json(&json).unwrap();
        assert_eq!(loaded.now(), twin.now());
        twin.run(600).unwrap();
        loaded.run(600).unwrap();
        let (a, b) = (twin.outputs(), loaded.outputs());
        assert_eq!(a.pue.len(), b.pue.len());
        assert!(a
            .pue
            .samples()
            .zip(b.pue.samples())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(
            twin.cooling_output("cdu[1].secondary_supply_temp").map(f64::to_bits),
            loaded.cooling_output("cdu[1].secondary_supply_temp").map(f64::to_bits),
        );
        assert_eq!(twin.report(), loaded.report());
    }

    #[test]
    fn snapshot_version_mismatch_is_refused_loudly() {
        let twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        let json = twin.to_snapshot_json().unwrap();
        // The next version, and version 1, whose saves carried the
        // derived node pool, occupancy counts and power snapshot.
        for other in [SNAPSHOT_FORMAT_VERSION + 1, 1] {
            let bumped = json.replacen(
                &format!("\"snapshot_format_version\":{SNAPSHOT_FORMAT_VERSION}"),
                &format!("\"snapshot_format_version\":{other}"),
                1,
            );
            assert_ne!(json, bumped, "version stamp must appear in the JSON");
            let err = match DigitalTwin::from_snapshot_json(&bumped) {
                Err(e) => e,
                Ok(_) => panic!("a version {other} snapshot must not load"),
            };
            assert!(err.contains("snapshot format version"), "err={err}");
        }
    }

    #[test]
    fn from_state_refuses_a_save_whose_online_config_has_zero_max_samples() {
        let online = |max_samples| {
            let config = crate::online::OnlineSurrogateConfig {
                max_samples,
                ..Default::default()
            };
            TwinConfig::marconi100_like().with_backend(CoolingBackend::Online(config))
        };
        let mut state = DigitalTwin::new(online(2_048)).unwrap().save_state().unwrap();
        let serde::Value::Object(fields) = &mut state else { panic!("a save is an object") };
        let config = fields.iter_mut().find(|(k, _)| k == "config").expect("a config field");
        config.1 = serde::Serialize::to_value(&online(0));
        let err = match DigitalTwin::from_state(&state) {
            Err(e) => e,
            Ok(_) => panic!("a save with max_samples 0 must not load"),
        };
        assert!(err.contains("max_samples"), "err={err}");
    }

    #[test]
    fn scene_available() {
        let twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        assert!(twin.scene().node_count() > 100);
    }

    #[test]
    fn queue_state_reflects_submission() {
        let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        twin.submit(vec![
            Job::new(1, "all", 9472, 600, 1, 0.5, 0.5),
            Job::new(2, "wait", 128, 60, 2, 0.5, 0.5),
        ]);
        twin.run(30).unwrap();
        assert_eq!(twin.queue_state(), (1, 1));
    }
}
