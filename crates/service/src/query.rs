//! What-if queries answered by forking a snapshot.
//!
//! A [`WhatIfSpec`] names every scenario family the service answers from
//! a frozen state: plain continuations ("what happens next?"), weather
//! variants (wet-bulb offset or override), power-delivery variants
//! ("what if we switched the conversion chain now?"), extra-load
//! injections, fidelity swaps (any [`CoolingBackend`], so an expensive
//! L4 snapshot can answer cheap L3-surrogate queries), and Monte-Carlo
//! UQ ensembles over the power-model parameters (`draws > 1`, one
//! configured base fork, per-draw RNG streams split from the snapshot
//! seed). A perturbation cannot change the schedule, so on a power-only
//! fork the draws share it: each chunk of draws runs one fork with the
//! other draws as power lanes. Draws under a cooling model still fork
//! one by one, because the plant's response depends on power.
//!
//! Every query costs O(horizon): the fork resumes from the snapshot
//! second instead of replaying from t = 0. Outcomes report *marginal*
//! quantities over the queried horizon (energy, completions, average
//! power from the fork point on), which is what a "from now" decision
//! needs — the shared history before the fork point would only dilute
//! the comparison between variants.

use crate::snapshot::TwinSnapshot;
use exadigit_core::config::CoolingBackend;
use exadigit_core::thermo::psychro;
use exadigit_core::twin::DigitalTwin;
use exadigit_raps::job::Job;
use exadigit_raps::power::PowerDelivery;
use exadigit_raps::simulation::CoolingCoupling;
use exadigit_raps::stats::RunReport;
use exadigit_raps::uq::{self, UqPerturbations};
use exadigit_sim::ensemble::{EnsembleRunner, ScenarioCtx};
use exadigit_sim::{Rng, TimeSeries};
use serde::{Deserialize, Serialize};

/// One what-if scenario to branch from a snapshot.
///
/// The default spec is the plain continuation: run one hour forward with
/// nothing changed. Every field composes with every other (e.g. a warmer
/// afternoon *and* a delivery swap *and* 32 UQ draws is one spec).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfSpec {
    /// Scenario label echoed in the outcome (also part of the cache key).
    pub label: String,
    /// Seconds to advance the fork past the snapshot second.
    pub horizon_s: u64,
    /// Added to the wet-bulb forcing, °C (weather variant).
    pub wet_bulb_offset_c: f64,
    /// Replace the forcing with a constant, °C (applied before the
    /// offset).
    pub wet_bulb_c: Option<f64>,
    /// Swap the power-delivery variant from the fork point on.
    pub delivery: Option<PowerDelivery>,
    /// Extra jobs injected at the fork point (submit times at or before
    /// the snapshot second arrive immediately).
    pub extra_jobs: Vec<Job>,
    /// Swap the cooling backend (fidelity selection). The replacement
    /// model starts from its own `setup` state — physical plant state
    /// does not transfer across fidelities. `Some(CoolingBackend::None)`
    /// detaches cooling entirely.
    pub backend: Option<CoolingBackend>,
    /// Monte-Carlo ensemble size: `> 1` runs that many forks, each with
    /// power-model parameters perturbed from its own RNG stream, and
    /// reports mean/std. `0` or `1` is a single deterministic fork.
    pub draws: u64,
    /// 1-σ magnitudes for the UQ perturbation (used when `draws > 1`).
    pub perturbations: UqPerturbations,
}

impl Default for WhatIfSpec {
    fn default() -> Self {
        WhatIfSpec {
            label: String::new(),
            horizon_s: 3_600,
            wet_bulb_offset_c: 0.0,
            wet_bulb_c: None,
            delivery: None,
            extra_jobs: Vec::new(),
            backend: None,
            draws: 1,
            perturbations: UqPerturbations::default(),
        }
    }
}

impl WhatIfSpec {
    /// Bound a spec that arrived over the wire before it reaches a fork:
    /// the horizon and draw caps keep a handler thread from wedging, and
    /// the float knobs must be finite (a JSON `null` decodes to NaN, which
    /// every comparison ignores, and `1e999` to infinity). The UQ σs must
    /// also be non-negative and within caps that keep every draw
    /// physical: at `component_power_rel` = 0.25 a negative rating is
    /// already a 4-σ draw, and `perturb_config` clamps each efficiency to
    /// a band about 0.1 wide, so an efficiency σ above 0.05 only piles
    /// draws onto the band's edges. A constant wet-bulb must lie in the
    /// tower model's [`psychro::VALID_RANGE_C`]; an offset is checked
    /// where it meets the forcing, by the plant backends' `set_real`, so
    /// no query scans the series. A backend swap is checked by
    /// [`CoolingBackend::validate`].
    pub fn validate(&self) -> Result<(), String> {
        const MAX_HORIZON_S: u64 = 366 * 86_400;
        const MAX_DRAWS: u64 = 4_096;
        if self.horizon_s > MAX_HORIZON_S {
            return Err(format!(
                "horizon of {} s exceeds the {MAX_HORIZON_S} s (1 year) per-query cap",
                self.horizon_s
            ));
        }
        if self.draws > MAX_DRAWS {
            return Err(format!("{} draws exceed the {MAX_DRAWS} per-query cap", self.draws));
        }
        let finite = |name: &str, v: f64| {
            if v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be finite, got {v}"))
            }
        };
        finite("wet_bulb_offset_c", self.wet_bulb_offset_c)?;
        if let Some(c) = self.wet_bulb_c {
            let range = psychro::VALID_RANGE_C;
            if !range.contains(&c) {
                return Err(format!(
                    "wet_bulb_c must lie within the tower model's {}..={} °C, got {c}",
                    range.start(),
                    range.end()
                ));
            }
        }
        let p = &self.perturbations;
        for (name, sigma, cap) in [
            ("perturbations.rectifier_eff_abs", p.rectifier_eff_abs, 0.05),
            ("perturbations.sivoc_eff_abs", p.sivoc_eff_abs, 0.05),
            ("perturbations.component_power_rel", p.component_power_rel, 0.25),
        ] {
            finite(name, sigma)?;
            if sigma < 0.0 {
                return Err(format!("{name} is a σ and must not be negative, got {sigma}"));
            }
            if sigma > cap {
                return Err(format!("{name} is {sigma}, above its cap of {cap}"));
            }
        }
        match &self.backend {
            Some(backend) => backend.validate(),
            None => Ok(()),
        }
    }
}

/// What one what-if produced, marginal over the queried horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfOutcome {
    /// The spec's label, echoed.
    pub label: String,
    /// Fork point (snapshot second).
    pub from_s: u64,
    /// End of the queried horizon.
    pub to_s: u64,
    /// Jobs completed within the horizon.
    pub jobs_completed: u64,
    /// Average system power over the horizon, MW (ensemble mean when
    /// `draws > 1`).
    pub avg_power_mw: f64,
    /// Std of average power across draws, MW (0 for a single fork).
    pub power_std_mw: f64,
    /// Energy consumed over the horizon, MWh (ensemble mean).
    pub energy_mwh: f64,
    /// Std of horizon energy across draws, MWh (0 for a single fork).
    pub energy_std_mwh: f64,
    /// PUE at the end of the horizon (`None` without cooling), ensemble
    /// mean.
    pub final_pue: Option<f64>,
    /// Node-allocation utilization at the end of the horizon.
    pub final_utilization: f64,
    /// Per-draw average power, MW, in draw-index order — the raw
    /// ensemble behind `avg_power_mw`/`power_std_mw` (empty for a
    /// single fork, where the summary fields carry everything).
    pub draw_avg_power_mw: Vec<f64>,
    /// Per-draw horizon energy, MWh, in draw-index order (empty for a
    /// single fork).
    pub draw_energy_mwh: Vec<f64>,
    /// Ensemble size this outcome aggregates (1 for a single fork).
    pub draws: u64,
}

impl WhatIfOutcome {
    /// The outcome itself when every number in it is finite, else an
    /// error naming the first field that is not. A valid spec can still
    /// drive a model out of range (a fitted surrogate at a wet-bulb of
    /// 1e200 predicts an infinite PUE), and an answer is cached, so this
    /// is the one check every answer passes on its way out.
    fn finite(self) -> Result<Self, String> {
        let scalars = [
            ("avg_power_mw", self.avg_power_mw),
            ("power_std_mw", self.power_std_mw),
            ("energy_mwh", self.energy_mwh),
            ("energy_std_mwh", self.energy_std_mwh),
            ("final_utilization", self.final_utilization),
        ];
        let pue = self.final_pue.map(|v| ("final_pue", v));
        let draws = self.draw_avg_power_mw.iter().map(|&v| ("draw_avg_power_mw", v));
        let draws = draws.chain(self.draw_energy_mwh.iter().map(|&v| ("draw_energy_mwh", v)));
        match scalars.into_iter().chain(pue).chain(draws).find(|(_, v)| !v.is_finite()) {
            Some((name, v)) => Err(format!("the answer's {name} is not finite ({v})")),
            None => Ok(self),
        }
    }
}

/// Marginal numbers from one fork run.
struct ForkRun {
    jobs_completed: u64,
    avg_power_mw: f64,
    energy_mwh: f64,
    final_pue: Option<f64>,
    final_utilization: f64,
}

/// Apply the spec's deterministic overrides to a fresh fork.
fn apply_overrides(twin: &mut DigitalTwin, spec: &WhatIfSpec) -> Result<(), String> {
    if let Some(backend) = &spec.backend {
        let num_cdus = twin.config.system.cooling.num_cdus;
        match backend.build(&twin.config.plant, num_cdus)? {
            Some(model) => {
                let coupling = CoolingCoupling::attach(model, num_cdus)?;
                twin.raps_mut().attach_cooling(coupling);
            }
            None => {
                twin.raps_mut().detach_cooling();
            }
        }
        twin.config.cooling = backend.clone();
    }
    if let Some(delivery) = spec.delivery {
        let cfg = twin.config.system.clone();
        twin.raps_mut().set_power_model(cfg, delivery)?;
        twin.config.delivery = delivery;
    }
    if let Some(constant) = spec.wet_bulb_c {
        twin.set_wet_bulb(TimeSeries::from_values(0.0, 3_600.0, vec![constant, constant]));
    }
    if spec.wet_bulb_offset_c != 0.0 {
        let off = spec.wet_bulb_offset_c;
        let shifted = twin.raps().wet_bulb().map(|v| v + off);
        twin.set_wet_bulb(shifted);
    }
    if !spec.extra_jobs.is_empty() {
        twin.submit(spec.extra_jobs.clone());
    }
    Ok(())
}

/// Fork the snapshot once and apply the spec's deterministic overrides.
///
/// This is the *shared prefix* of a UQ ensemble: every chunk of draws
/// (or, under cooling, every draw) forks from the configured twin this
/// returns, so the override work (backend rebuild, wet-bulb remap,
/// extra-job submission) is paid once per scenario and the recorded
/// history stays refcount-shared instead of being copied per fork.
fn configured_fork(snapshot: &TwinSnapshot, spec: &WhatIfSpec) -> Result<DigitalTwin, String> {
    let mut twin = snapshot.fork()?;
    apply_overrides(&mut twin, spec)?;
    Ok(twin)
}

/// Run one fork to the horizon and read off the marginal numbers.
fn run_fork(
    mut twin: DigitalTwin,
    spec: &WhatIfSpec,
    perturb_rng: Option<&mut Rng>,
) -> Result<ForkRun, String> {
    if let Some(rng) = perturb_rng {
        let perturbed = uq::perturb_config(&twin.config.system, &spec.perturbations, rng);
        let delivery = twin.config.delivery;
        twin.raps_mut().set_power_model(perturbed, delivery)?;
    }
    let r0 = twin.report();
    twin.run(spec.horizon_s).map_err(|e| format!("fork run failed: {e}"))?;
    Ok(marginal(&twin, spec, &r0, &twin.report()))
}

/// Run a chunk of power-only draws over one schedule: one fork of `base`
/// takes the first draw's perturbed model as its own and carries the
/// rest as power lanes. Each draw's numbers are bit-identical to
/// [`run_fork`] of a fork of its own with its own stream.
fn run_lanes(
    base: &DigitalTwin,
    spec: &WhatIfSpec,
    draws: &mut [ScenarioCtx],
) -> Result<Vec<ForkRun>, String> {
    let delivery = base.config.delivery;
    let perturb = |d: &mut ScenarioCtx| {
        (uq::perturb_config(&base.config.system, &spec.perturbations, &mut d.rng), delivery)
    };
    let mut lanes: Vec<_> = draws.iter_mut().map(perturb).collect();
    let (own, _) = lanes.remove(0);
    let mut twin = base.fork()?;
    twin.raps_mut().set_power_model(own, delivery)?;
    let r0 = twin.report();
    let horizon = twin.now() + spec.horizon_s;
    let lanes = twin
        .raps_mut()
        .run_until_with_lanes(horizon, lanes)
        .map_err(|e| format!("fork run failed: {e}"))?;
    let own = twin.report();
    Ok(std::iter::once(&own).chain(&lanes).map(|r1| marginal(&twin, spec, &r0, r1)).collect())
}

/// The marginal numbers of a run over `spec`'s horizon that went from
/// report `r0` to `r1` and ended on `twin`.
fn marginal(twin: &DigitalTwin, spec: &WhatIfSpec, r0: &RunReport, r1: &RunReport) -> ForkRun {
    let hours = spec.horizon_s as f64 / 3_600.0;
    let energy_mwh = r1.total_energy_mwh - r0.total_energy_mwh;
    ForkRun {
        jobs_completed: r1.jobs_completed - r0.jobs_completed,
        avg_power_mw: if hours > 0.0 { energy_mwh / hours } else { 0.0 },
        energy_mwh,
        final_pue: twin.cooling_output("pue"),
        final_utilization: twin.utilization(),
    }
}

/// Answer a what-if from a snapshot: fork, apply the overrides, advance
/// the horizon, and report marginal outcomes. `draws > 1` perturbs the
/// power model once per draw, with per-draw RNG streams split from the
/// snapshot seed, across the pool (`threads`, `None` = process default):
/// power-only draws run as `min(draws, width)` chunks of one fork each,
/// the chunk's other draws riding along as power lanes, and cooled draws
/// fork one by one. Either way the answer is bit-identical to one fork
/// per draw, at any pool width, which is what makes it cacheable. An
/// answer holding a non-finite number is an error instead, naming the
/// field, so no such answer reaches a cache.
pub fn run_whatif(
    snapshot: &TwinSnapshot,
    spec: &WhatIfSpec,
    threads: Option<usize>,
) -> Result<WhatIfOutcome, String> {
    // Specs arrive over the wire: bound them before any work.
    spec.validate()?;
    for job in &spec.extra_jobs {
        job.validate(&snapshot.twin().config.system)?;
    }
    let (from_s, to_s) = (snapshot.taken_at_s, snapshot.taken_at_s + spec.horizon_s);
    let base = configured_fork(snapshot, spec)?;
    if spec.draws <= 1 {
        let run = run_fork(base, spec, None)?;
        return WhatIfOutcome {
            label: spec.label.clone(),
            from_s,
            to_s,
            jobs_completed: run.jobs_completed,
            avg_power_mw: run.avg_power_mw,
            power_std_mw: 0.0,
            energy_mwh: run.energy_mwh,
            energy_std_mwh: 0.0,
            final_pue: run.final_pue,
            final_utilization: run.final_utilization,
            draw_avg_power_mw: Vec::new(),
            draw_energy_mwh: Vec::new(),
            draws: 1,
        }
        .finite();
    }

    // UQ ensemble: per-draw streams derive from the snapshot seed and the
    // scenario fingerprint, so the same question always draws the same
    // perturbations (cache coherence) while distinct scenarios and
    // snapshots stay independent. The scenario overrides are applied to
    // ONE base fork, which every chunk (or cooled draw) forks in turn.
    let seed = snapshot.seed ^ crate::cache::scenario_fingerprint(spec);
    let mut runner = EnsembleRunner::new(seed);
    if let Some(n) = threads {
        runner = runner.threads(n);
    }
    let draws = spec.draws as usize;
    let runs: Vec<ForkRun> = if base.raps().cooling_model().is_some() {
        let runs = runner.run_draws(draws, |ctx| run_fork(base.fork()?, spec, Some(&mut ctx.rng)));
        runs.into_iter().collect::<Result<_, _>>()?
    } else {
        let chunks = runner.run_chunks(draws, |chunk| run_lanes(&base, spec, chunk));
        let chunks: Vec<Vec<ForkRun>> = chunks.into_iter().collect::<Result<_, _>>()?;
        chunks.into_iter().flatten().collect()
    };

    // Sample std via the workspace accumulator, so `power_std_mw` means
    // the same thing here as in `exadigit_raps::uq::UqSummary`.
    let mean_std = |values: &[f64]| {
        let s = exadigit_sim::stats::Summary::of(values);
        (s.mean, s.std)
    };
    let draw_avg_power_mw: Vec<f64> = runs.iter().map(|r| r.avg_power_mw).collect();
    let draw_energy_mwh: Vec<f64> = runs.iter().map(|r| r.energy_mwh).collect();
    let (power_mean, power_std) = mean_std(&draw_avg_power_mw);
    let (energy_mean, energy_std) = mean_std(&draw_energy_mwh);
    let pues: Vec<f64> = runs.iter().filter_map(|r| r.final_pue).collect();
    WhatIfOutcome {
        label: spec.label.clone(),
        from_s,
        to_s,
        // Power perturbations do not alter scheduling, so completions are
        // identical across draws; report the first.
        jobs_completed: runs[0].jobs_completed,
        avg_power_mw: power_mean,
        power_std_mw: power_std,
        energy_mwh: energy_mean,
        energy_std_mwh: energy_std,
        final_pue: if pues.is_empty() {
            None
        } else {
            Some(pues.iter().sum::<f64>() / pues.len() as f64)
        },
        final_utilization: runs[0].final_utilization,
        draw_avg_power_mw,
        draw_energy_mwh,
        draws: spec.draws,
    }
    .finite()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotStore;
    use exadigit_core::config::TwinConfig;
    use exadigit_telemetry::replay::CoolingTrace;

    fn snapshot_at(seconds: u64) -> (SnapshotStore, std::sync::Arc<TwinSnapshot>) {
        let mut twin = DigitalTwin::new(TwinConfig::frontier_power_only()).unwrap();
        twin.submit(vec![
            Job::new(1, "base", 2048, 7_200, 10, 0.7, 0.8),
            Job::new(2, "tail", 512, 1_800, 30, 0.5, 0.5),
        ]);
        twin.run(seconds).unwrap();
        let mut store = SnapshotStore::new(4, 99);
        let snap = store.take(&twin, format!("t{seconds}")).unwrap();
        (store, snap)
    }

    #[test]
    fn continuation_query_reports_marginals() {
        let (_store, snap) = snapshot_at(600);
        let out = run_whatif(&snap, &WhatIfSpec::default(), Some(1)).unwrap();
        assert_eq!(out.from_s, 600);
        assert_eq!(out.to_s, 4_200);
        assert!(out.avg_power_mw > 7.0, "loaded Frontier ≥ idle power");
        assert!(out.energy_mwh > 0.0);
        assert_eq!(out.draws, 1);
        assert_eq!(out.power_std_mw, 0.0);
    }

    #[test]
    fn validate_rejects_non_finite_knobs_and_negative_sigmas() {
        assert!(WhatIfSpec::default().validate().is_ok());
        let bad = [
            WhatIfSpec { wet_bulb_offset_c: f64::NAN, ..WhatIfSpec::default() },
            WhatIfSpec { wet_bulb_offset_c: f64::INFINITY, ..WhatIfSpec::default() },
            WhatIfSpec { wet_bulb_c: Some(f64::NAN), ..WhatIfSpec::default() },
            WhatIfSpec { wet_bulb_c: Some(f64::NEG_INFINITY), ..WhatIfSpec::default() },
            WhatIfSpec {
                perturbations: UqPerturbations { sivoc_eff_abs: -0.01, ..UqPerturbations::default() },
                ..WhatIfSpec::default()
            },
            WhatIfSpec {
                perturbations: UqPerturbations {
                    component_power_rel: f64::NAN,
                    ..UqPerturbations::default()
                },
                ..WhatIfSpec::default()
            },
            WhatIfSpec {
                perturbations: UqPerturbations {
                    rectifier_eff_abs: f64::INFINITY,
                    ..UqPerturbations::default()
                },
                ..WhatIfSpec::default()
            },
        ];
        for spec in &bad {
            assert!(spec.validate().is_err(), "{spec:?} must be refused");
        }
        // Each σ is capped, and the refusal names the field and the cap.
        let at_caps = UqPerturbations {
            rectifier_eff_abs: 0.05,
            sivoc_eff_abs: 0.05,
            component_power_rel: 0.25,
        };
        let capped = |perturbations| WhatIfSpec { perturbations, ..WhatIfSpec::default() };
        assert!(capped(at_caps).validate().is_ok());
        let over = [
            ("rectifier_eff_abs", "0.05", UqPerturbations { rectifier_eff_abs: 0.0501, ..at_caps }),
            ("sivoc_eff_abs", "0.05", UqPerturbations { sivoc_eff_abs: 0.0501, ..at_caps }),
            (
                "component_power_rel",
                "0.25",
                UqPerturbations { component_power_rel: 0.2501, ..at_caps },
            ),
        ];
        for (field, cap, perturbations) in over {
            let e = capped(perturbations).validate().expect_err(field);
            assert!(e.contains(field) && e.contains(cap), "{e}");
        }
        // A zero σ is a valid (degenerate) ensemble; negative offsets and
        // sub-zero wet bulbs are valid weather.
        let fine = WhatIfSpec {
            wet_bulb_offset_c: -4.0,
            wet_bulb_c: Some(-10.0),
            perturbations: UqPerturbations {
                rectifier_eff_abs: 0.0,
                sivoc_eff_abs: 0.0,
                component_power_rel: 0.0,
            },
            ..WhatIfSpec::default()
        };
        assert!(fine.validate().is_ok());
        // A constant wet-bulb must lie in the tower model's range, edges
        // included.
        let forced = |c| WhatIfSpec { wet_bulb_c: Some(c), ..WhatIfSpec::default() };
        assert!(forced(-40.0).validate().is_ok() && forced(60.0).validate().is_ok());
        for c in [-40.5, 60.5, 1e6] {
            let e = forced(c).validate().expect_err("outside the range");
            assert!(e.contains("wet_bulb_c"), "{e}");
        }
    }

    #[test]
    fn identical_queries_are_bit_identical() {
        let (_store, snap) = snapshot_at(300);
        let spec = WhatIfSpec { horizon_s: 1_800, ..WhatIfSpec::default() };
        let a = run_whatif(&snap, &spec, Some(1)).unwrap();
        let b = run_whatif(&snap, &spec, Some(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn delivery_variant_changes_power_not_completions() {
        let (_store, snap) = snapshot_at(300);
        let base = run_whatif(&snap, &WhatIfSpec::default(), Some(1)).unwrap();
        let dc = run_whatif(
            &snap,
            &WhatIfSpec {
                delivery: Some(PowerDelivery::Direct380Vdc),
                ..WhatIfSpec::default()
            },
            Some(1),
        )
        .unwrap();
        assert_eq!(base.jobs_completed, dc.jobs_completed);
        assert!(
            dc.avg_power_mw < base.avg_power_mw,
            "380 Vdc skips a conversion stage: {} !< {}",
            dc.avg_power_mw,
            base.avg_power_mw
        );
    }

    #[test]
    fn extra_jobs_raise_power() {
        let (_store, snap) = snapshot_at(300);
        let base = run_whatif(&snap, &WhatIfSpec::default(), Some(1)).unwrap();
        let loaded = run_whatif(
            &snap,
            &WhatIfSpec {
                extra_jobs: vec![Job::new(99, "surge", 4_096, 3_000, 0, 0.9, 0.95)],
                ..WhatIfSpec::default()
            },
            Some(1),
        )
        .unwrap();
        assert!(loaded.avg_power_mw > base.avg_power_mw + 1.0);
        assert_eq!(loaded.jobs_completed, base.jobs_completed + 1);
    }

    #[test]
    fn backend_swap_serves_l2_pue_from_a_power_only_snapshot() {
        let (_store, snap) = snapshot_at(300);
        assert!(snap.twin().cooling_output("pue").is_none());
        let out = run_whatif(
            &snap,
            &WhatIfSpec {
                backend: Some(CoolingBackend::Replay(CoolingTrace::constant(1.0625, 5.0e5))),
                ..WhatIfSpec::default()
            },
            Some(1),
        )
        .unwrap();
        assert_eq!(out.final_pue, Some(1.0625));
    }

    #[test]
    fn wire_scale_abuse_is_rejected_not_run() {
        let (_store, snap) = snapshot_at(60);
        let huge_horizon = WhatIfSpec { horizon_s: u64::MAX, ..WhatIfSpec::default() };
        assert!(run_whatif(&snap, &huge_horizon, Some(1)).is_err());
        let huge_draws = WhatIfSpec { draws: u64::MAX, horizon_s: 60, ..WhatIfSpec::default() };
        assert!(run_whatif(&snap, &huge_draws, Some(1)).is_err());
    }

    /// FNV-1a-64 over the little-endian bytes of every value's `to_bits`.
    fn fnv_bits(values: impl IntoIterator<Item = f64>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    /// Every number of an outcome, the integers as f64.
    fn outcome_numbers(o: &WhatIfOutcome) -> Vec<f64> {
        let mut v = vec![
            o.from_s as f64,
            o.to_s as f64,
            o.jobs_completed as f64,
            o.avg_power_mw,
            o.power_std_mw,
            o.energy_mwh,
            o.energy_std_mwh,
            o.final_pue.unwrap_or(f64::NAN),
            o.final_utilization,
            o.draws as f64,
        ];
        v.extend(&o.draw_avg_power_mw);
        v.extend(&o.draw_energy_mwh);
        v
    }

    /// UQ answers pinned to the bit, as the per-draw fork path answered
    /// them: 16 plain draws, 5 draws under a delivery swap with an extra
    /// job, and 2 draws under an L2 replay backend (which keep forking).
    #[test]
    fn uq_answers_hold_their_pins() {
        const PIN_UQ16: u64 = 0x2f35_f0b4_abb6_5075;
        const PIN_UQ5_DELIVERY_EXTRA: u64 = 0xffa0_d141_4e4d_e3a1;
        const PIN_UQ2_REPLAY: u64 = 0x2006_8703_9ac9_1ae9;
        let (_store, snap) = snapshot_at(300);
        let specs = [
            (WhatIfSpec { label: "uq16".into(), draws: 16, ..WhatIfSpec::default() }, PIN_UQ16),
            (
                WhatIfSpec {
                    label: "uq5".into(),
                    horizon_s: 2_400,
                    draws: 5,
                    delivery: Some(PowerDelivery::SmartRectifiers),
                    extra_jobs: vec![Job::new(99, "surge", 1_024, 1_200, 0, 0.9, 0.95)],
                    ..WhatIfSpec::default()
                },
                PIN_UQ5_DELIVERY_EXTRA,
            ),
            (
                WhatIfSpec {
                    label: "uq2".into(),
                    horizon_s: 900,
                    draws: 2,
                    backend: Some(CoolingBackend::Replay(CoolingTrace::constant(1.0625, 5.0e5))),
                    ..WhatIfSpec::default()
                },
                PIN_UQ2_REPLAY,
            ),
        ];
        let mut moved = Vec::new();
        for (spec, expected) in specs {
            for width in [1, 3] {
                let out = run_whatif(&snap, &spec, Some(width)).unwrap();
                let pin = fnv_bits(outcome_numbers(&out));
                if pin != expected {
                    moved.push(format!("{} at width {width}: {pin:#018x}", spec.label));
                }
            }
        }
        assert!(moved.is_empty(), "UQ answers moved: {moved:?}");
    }

    #[test]
    fn uq_draws_are_width_invariant_and_spread() {
        let (_store, snap) = snapshot_at(300);
        let spec = WhatIfSpec { draws: 8, horizon_s: 1_200, ..WhatIfSpec::default() };
        let w1 = run_whatif(&snap, &spec, Some(1)).unwrap();
        let w4 = run_whatif(&snap, &spec, Some(4)).unwrap();
        assert_eq!(w1, w4, "pool width must not change the ensemble");
        assert!(w1.power_std_mw > 0.0, "perturbations must spread the ensemble");
        assert_eq!(w1.draws, 8);
        assert_eq!(w1.draw_avg_power_mw.len(), 8, "per-draw payload rides along");
        assert_eq!(w1.draw_energy_mwh.len(), 8);
        let mean = w1.draw_avg_power_mw.iter().sum::<f64>() / 8.0;
        assert!((mean - w1.avg_power_mw).abs() < 1e-9, "summary is the mean of the payload");
    }
}
