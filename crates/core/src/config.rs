//! Whole-twin configuration.
//!
//! §V of the paper: "the generalized version of RAPS inputs configuration
//! files describing the system architecture, the cooling system, the
//! scheduler, and the power system" — [`TwinConfig`] is that file: the
//! RAPS [`SystemConfig`], the AutoCSM [`PlantSpec`], the scheduling
//! policy, the power-delivery variant and the cooling-fidelity backend,
//! all JSON-serialisable.
//!
//! The [`CoolingBackend`] enum is the fidelity selector of the paper's
//! Fig. 2 taxonomy: the same FMI boundary can be served by the L4
//! comprehensive plant, the L3 machine-learned surrogate, or an L2
//! telemetry-trace replay — or left unattached for power-only runs. See
//! `docs/FIDELITY.md` for the level → module mapping.

use crate::levels::TwinLevel;
use crate::online::{OnlineCoolingModel, OnlineSurrogateConfig};
use crate::surrogate::{self, Surrogate, SurrogateCoolingModel};
use exadigit_cooling::{CoolingModel, PlantSpec};
use exadigit_raps::config::SystemConfig;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::scheduler::Policy;
use exadigit_sim::fmi::CoSimModel;
use exadigit_telemetry::replay::{CoolingTrace, ReplayCoolingModel};
use serde::{Deserialize, Serialize};

/// Where an L3 surrogate backend gets its fitted model from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SurrogateSource {
    /// Train [`surrogate::train_default`] from the config's plant spec
    /// when the twin is built (slow once, then millisecond serving).
    TrainDefault,
    /// Serve a pre-fitted surrogate as-is — the path for sharing one
    /// training run across a whole ensemble.
    Fitted(Surrogate),
}

/// The cooling-fidelity backend attached across the FMI boundary.
///
/// Every variant materialises as a `Box<dyn CoSimModel>` exposing the
/// same `cooling_vars` names, so `RapsSimulation`/`CoolingCoupling`
/// need no per-backend knowledge; heterogeneous ensembles can mix
/// fidelities in one pool pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoolingBackend {
    /// No cooling model (the paper's fast power-only replays: "about
    /// nine minutes ... with cooling, or just three without").
    None,
    /// L4 comprehensive simulation: the AutoCSM-generated transient
    /// plant from [`TwinConfig::plant`].
    Plant,
    /// L3 predictive surrogate serving PUE/cooling power from a fitted
    /// polynomial.
    Surrogate(SurrogateSource),
    /// Adaptive L3/L4: the embedded transient plant serves every query
    /// while per-staging-regime surrogates train online from its
    /// answers; trusted regimes are then served at L3 speed with
    /// automatic L4 fallback outside their observed envelopes
    /// ([`crate::online::OnlineCoolingModel`]).
    Online(OnlineSurrogateConfig),
    /// L2 informative replay answering from a recorded telemetry trace.
    Replay(CoolingTrace),
}

impl CoolingBackend {
    /// The Fig. 2 maturity level this backend realises (`None` for no
    /// cooling attached).
    pub fn level(&self) -> Option<TwinLevel> {
        match self {
            CoolingBackend::None => None,
            CoolingBackend::Replay(_) => Some(TwinLevel::Informative),
            CoolingBackend::Surrogate(_) => Some(TwinLevel::Predictive),
            // Online answers are either the comprehensive plant itself
            // or a fit validated against it, with guaranteed fallback —
            // fidelity is bounded below by L4, not by the surrogate.
            CoolingBackend::Online(_) => Some(TwinLevel::Comprehensive),
            CoolingBackend::Plant => Some(TwinLevel::Comprehensive),
        }
    }

    /// Check a backend that may have come off the wire (a what-if spec or
    /// a loaded save) before anything builds it, each payload by its own
    /// type's check.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            CoolingBackend::None
            | CoolingBackend::Plant
            | CoolingBackend::Surrogate(SurrogateSource::TrainDefault) => Ok(()),
            CoolingBackend::Surrogate(SurrogateSource::Fitted(surrogate)) => surrogate.validate(),
            CoolingBackend::Online(config) => config.validate(),
            CoolingBackend::Replay(trace) => trace.validate(),
        }
    }

    /// Whether building this backend instantiates the transient plant
    /// model from [`TwinConfig::plant`] (and therefore requires the
    /// system/plant CDU counts to agree).
    pub fn attaches_plant(&self) -> bool {
        matches!(self, CoolingBackend::Plant | CoolingBackend::Online(_))
    }

    /// Materialise the backend as a co-simulation model exposing the
    /// `cooling_vars` contract, or `Ok(None)` for [`CoolingBackend::None`].
    ///
    /// `plant` supplies the L4 model (and the training sweep for
    /// [`SurrogateSource::TrainDefault`]); `num_cdus` is the number of
    /// heat inputs the coupling will resolve.
    pub fn build(
        &self,
        plant: &PlantSpec,
        num_cdus: usize,
    ) -> Result<Option<Box<dyn CoSimModel>>, String> {
        match self {
            CoolingBackend::None => Ok(None),
            CoolingBackend::Plant => {
                let model = CoolingModel::new(plant.clone())?;
                Ok(Some(Box::new(model)))
            }
            CoolingBackend::Surrogate(source) => {
                let fitted = match source {
                    SurrogateSource::TrainDefault => surrogate::train_default(plant)?,
                    SurrogateSource::Fitted(s) => s.clone(),
                };
                Ok(Some(Box::new(SurrogateCoolingModel::for_plant(fitted, plant, num_cdus))))
            }
            CoolingBackend::Online(config) => {
                let model = OnlineCoolingModel::new(plant, config.clone())?;
                Ok(Some(Box::new(model)))
            }
            CoolingBackend::Replay(trace) => {
                Ok(Some(Box::new(ReplayCoolingModel::new(trace.clone(), num_cdus))))
            }
        }
    }
}

/// Configuration of a complete digital twin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwinConfig {
    /// System architecture + power system (Table I schema).
    pub system: SystemConfig,
    /// Cooling-plant specification (AutoCSM schema, Fig. 5 for Frontier).
    pub plant: PlantSpec,
    /// Scheduling policy.
    pub policy: Policy,
    /// Power-delivery variant.
    pub delivery: PowerDelivery,
    /// Cooling-fidelity backend attached across the FMI boundary.
    pub cooling: CoolingBackend,
    /// Output recording cadence, seconds.
    pub record_every_s: u64,
}

impl TwinConfig {
    /// The Frontier twin of the paper (L4 plant backend).
    pub fn frontier() -> Self {
        TwinConfig {
            system: SystemConfig::frontier(),
            plant: PlantSpec::frontier(),
            policy: Policy::FirstFit,
            delivery: PowerDelivery::StandardAC,
            cooling: CoolingBackend::Plant,
            record_every_s: 15,
        }
    }

    /// Frontier without the cooling model (fast replays).
    pub fn frontier_power_only() -> Self {
        TwinConfig { cooling: CoolingBackend::None, ..TwinConfig::frontier() }
    }

    /// Swap in a different cooling backend (builder style).
    pub fn with_backend(mut self, cooling: CoolingBackend) -> Self {
        self.cooling = cooling;
        self
    }

    /// Set the output recording cadence (builder style). 15 s matches
    /// the paper's telemetry quantum. Record boundaries are *not*
    /// events: the kernel backfills the samples a quiet gap spanned in
    /// closed form, so even 1 s recording costs O(events), not
    /// O(samples) (see `DESIGN.md` § "Discrete-event kernel"). The
    /// cadence therefore trades only memory — samples retained — not
    /// speed. Validated by [`TwinConfig::validate`]: must be positive
    /// and at most 7 days.
    pub fn with_record_every_s(mut self, record_every_s: u64) -> Self {
        self.record_every_s = record_every_s;
        self
    }

    /// A Setonix-like multi-partition twin (§V).
    pub fn setonix_like() -> Self {
        TwinConfig {
            system: SystemConfig::setonix_like(),
            plant: PlantSpec::setonix_like(),
            policy: Policy::FirstFit,
            delivery: PowerDelivery::StandardAC,
            cooling: CoolingBackend::Plant,
            record_every_s: 15,
        }
    }

    /// A Marconi100-like twin (§V / PM100).
    pub fn marconi100_like() -> Self {
        TwinConfig {
            system: SystemConfig::marconi100_like(),
            plant: PlantSpec::marconi100_like(),
            policy: Policy::FirstFit,
            delivery: PowerDelivery::StandardAC,
            cooling: CoolingBackend::Plant,
            record_every_s: 15,
        }
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serialises")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Cross-validate the pieces, the cooling backend's payload included
    /// ([`CoolingBackend::validate`]). The system/plant CDU-count match is
    /// only enforced when the selected backend actually instantiates the
    /// plant: a surrogate or replay backend exposes whatever number of
    /// heat inputs the system asks for, so a mismatched (or vestigial)
    /// plant spec is not an error there.
    pub fn validate(&self) -> Result<(), String> {
        self.plant.validate()?;
        self.cooling.validate()?;
        if self.cooling.attaches_plant() && self.system.cooling.num_cdus != self.plant.num_cdus {
            return Err(format!(
                "system has {} CDUs but the plant models {}",
                self.system.cooling.num_cdus, self.plant.num_cdus
            ));
        }
        if self.record_every_s == 0 {
            return Err("record_every_s must be positive".into());
        }
        // Catch unit mistakes (milliseconds, epoch stamps): one sample a
        // week is already coarser than any supported study.
        const MAX_RECORD_EVERY_S: u64 = 7 * 86_400;
        if self.record_every_s > MAX_RECORD_EVERY_S {
            return Err(format!(
                "record_every_s = {} exceeds 7 days ({MAX_RECORD_EVERY_S} s) — wrong unit?",
                self.record_every_s
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TwinConfig::frontier().validate().unwrap();
        TwinConfig::frontier_power_only().validate().unwrap();
        TwinConfig::setonix_like().validate().unwrap();
        TwinConfig::marconi100_like().validate().unwrap();
    }

    #[test]
    fn json_round_trip() {
        let cfg = TwinConfig::frontier();
        let back = TwinConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn cdu_mismatch_detected() {
        let mut cfg = TwinConfig::frontier();
        cfg.system.cooling.num_cdus = 7;
        assert!(cfg.validate().is_err());
        // Without cooling the mismatch is irrelevant.
        cfg.cooling = CoolingBackend::None;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn cdu_mismatch_irrelevant_for_non_plant_backends() {
        // Surrogate and replay backends expose as many heat inputs as the
        // system asks for — the plant CDU count does not constrain them.
        let mut cfg = TwinConfig::frontier();
        cfg.system.cooling.num_cdus = 7;
        cfg.cooling = CoolingBackend::Replay(CoolingTrace::constant(1.06, 5.0e5));
        cfg.validate().expect("replay backend must not require the plant match");
        cfg.cooling = CoolingBackend::Surrogate(SurrogateSource::TrainDefault);
        cfg.validate().expect("surrogate backend must not require the plant match");
    }

    #[test]
    fn backend_levels_follow_fig2() {
        assert_eq!(CoolingBackend::None.level(), None);
        assert_eq!(
            CoolingBackend::Replay(CoolingTrace::constant(1.0, 0.0)).level(),
            Some(TwinLevel::Informative)
        );
        assert_eq!(
            CoolingBackend::Surrogate(SurrogateSource::TrainDefault).level(),
            Some(TwinLevel::Predictive)
        );
        assert_eq!(CoolingBackend::Plant.level(), Some(TwinLevel::Comprehensive));
        // Online embeds the plant and never extrapolates past it, so its
        // fidelity floor — and its level — is comprehensive.
        assert_eq!(
            CoolingBackend::Online(OnlineSurrogateConfig::default()).level(),
            Some(TwinLevel::Comprehensive)
        );
        assert!(CoolingBackend::Plant.attaches_plant());
        assert!(CoolingBackend::Online(OnlineSurrogateConfig::default()).attaches_plant());
        assert!(!CoolingBackend::Surrogate(SurrogateSource::TrainDefault).attaches_plant());
    }

    #[test]
    fn backend_configs_json_round_trip() {
        for cooling in [
            CoolingBackend::None,
            CoolingBackend::Plant,
            CoolingBackend::Online(OnlineSurrogateConfig::default()),
            CoolingBackend::Replay(CoolingTrace::constant(1.07, 4.0e5)),
        ] {
            let cfg = TwinConfig::frontier().with_backend(cooling);
            let back = TwinConfig::from_json(&cfg.to_json()).unwrap();
            assert_eq!(cfg, back);
        }
    }

    #[test]
    fn zero_cadence_rejected() {
        let mut cfg = TwinConfig::frontier();
        cfg.record_every_s = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn record_cadence_builder_validates_bounds() {
        // Hourly recording keeps multi-week studies' output vectors
        // small (the lazy backfill already makes the cadence free in
        // time; memory is what the knob still buys).
        let cfg = TwinConfig::frontier().with_record_every_s(3_600);
        cfg.validate().unwrap();
        assert_eq!(cfg.record_every_s, 3_600);
        // Off-grid cadences (not multiples of the 15 s quantum) are
        // valid — the kernel schedules a separate recurrence for them.
        TwinConfig::frontier().with_record_every_s(7).validate().unwrap();
        // Unit mistakes are caught.
        let err = TwinConfig::frontier().with_record_every_s(8 * 86_400).validate();
        assert!(err.is_err());
        assert!(TwinConfig::frontier().with_record_every_s(0).validate().is_err());
    }

    #[test]
    fn off_grid_record_cadence_runs_and_records() {
        let cfg = TwinConfig::frontier_power_only().with_record_every_s(60);
        let mut twin = crate::twin::DigitalTwin::new(cfg).unwrap();
        twin.run(600).unwrap();
        // 60 s cadence over 600 s: 10 samples.
        assert_eq!(twin.outputs().system_power_w.len(), 10);
    }
}
