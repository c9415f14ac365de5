//! FMI-lite: the co-simulation boundary between RAPS and the cooling model.
//!
//! The paper wraps its Modelica cooling model in the Functional Mock-up
//! Interface (FMI) standard and imports it into RAPS via FMPy (§III-C6).
//! The essential architectural property is that the power simulator and the
//! plant model only communicate through a typed variable registry and a
//! `do_step` call — any model implementing the interface can be swapped in.
//!
//! This module reproduces that boundary as a Rust trait. It is intentionally
//! a subset of FMI 2.0 co-simulation: real-valued variables, causality
//! metadata, setup / set / step / get. That subset is exactly what ExaDigiT
//! exercises.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a variable within a model's registry (FMI "value reference").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VarRef(pub u32);

/// Causality of a variable, mirroring FMI 2.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Causality {
    /// Set by the environment before each step.
    Input,
    /// Computed by the model, readable after each step.
    Output,
    /// Fixed at setup time.
    Parameter,
    /// Internal value exposed for inspection only.
    Local,
}

/// Static description of one model variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariableDescriptor {
    /// Value reference used in get/set calls.
    pub vr: VarRef,
    /// Dotted variable name, e.g. `cdu[3].secondary_supply_temperature`.
    pub name: String,
    /// Engineering unit, e.g. `degC`, `kg/s`, `W`, `1` for dimensionless.
    pub unit: String,
    /// Input/output/parameter/local.
    pub causality: Causality,
    /// Human-readable description.
    pub description: String,
}

/// Errors crossing the co-simulation boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum FmiError {
    /// Unknown value reference.
    UnknownVariable(VarRef),
    /// Attempted to set a non-input or get a value before stepping.
    WrongCausality {
        /// The variable whose causality did not match.
        vr: VarRef,
        /// The causality the operation required.
        expected: Causality,
    },
    /// The model's internal solver failed to converge.
    SolverFailure(String),
    /// Step arguments were invalid (negative step, time mismatch...).
    InvalidStep(String),
    /// An input value lies outside the range the model is valid over.
    OutOfRange {
        /// The input refused.
        vr: VarRef,
        /// Its registry name.
        name: String,
        /// The value refused.
        value: f64,
        /// The values the input accepts.
        range: std::ops::RangeInclusive<f64>,
    },
}

impl fmt::Display for FmiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmiError::UnknownVariable(vr) => write!(f, "unknown value reference {}", vr.0),
            FmiError::WrongCausality { vr, expected } => {
                write!(f, "variable {} does not have causality {:?}", vr.0, expected)
            }
            FmiError::SolverFailure(msg) => write!(f, "solver failure: {msg}"),
            FmiError::InvalidStep(msg) => write!(f, "invalid step: {msg}"),
            FmiError::OutOfRange { vr, name, value, range } => write!(
                f,
                "input {name} (value reference {}) = {value} is outside the model's range {}..={}",
                vr.0,
                range.start(),
                range.end()
            ),
        }
    }
}

impl std::error::Error for FmiError {}

/// A co-simulation model ("FMU-like"): the contract RAPS uses to talk to the
/// cooling plant through its `CoolingCoupling`.
///
/// `Send + Sync` is part of the contract: models are plain state machines
/// (no interior mutability across `&self`), which is what lets a snapshot
/// of a coupled simulation be shared between service threads and forked
/// onto the thread pool (`docs/SERVICE.md`).
pub trait CoSimModel: Send + Sync {
    /// Stable instance name for diagnostics.
    fn instance_name(&self) -> &str;

    /// The variable registry. Indices are stable for the model's lifetime.
    fn variables(&self) -> &[VariableDescriptor];

    /// Initialise internal state at `start_time` (seconds).
    fn setup(&mut self, start_time: f64);

    /// Set a real input (or tunable parameter before the first step).
    fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError>;

    /// Read any variable's current value.
    fn get_real(&self, vr: VarRef) -> Result<f64, FmiError>;

    /// Advance internal state from `current_time` by `step_size` seconds.
    /// Models may sub-step internally.
    fn do_step(&mut self, current_time: f64, step_size: f64) -> Result<(), FmiError>;

    /// Reset to the pre-`setup` state so the instance can be reused.
    fn reset(&mut self);

    /// Duplicate the model *mid-simulation*, internal state included — the
    /// snapshot/fork primitive behind twin-as-a-service what-if queries.
    ///
    /// A fork must be observationally identical to the original: stepping
    /// both with the same inputs from the fork point yields bit-identical
    /// outputs. Models that cannot capture their state return `None`
    /// (the default), in which case snapshotting a simulation coupled to
    /// them fails with an explicit error — such a twin can still run and
    /// be queried by cold-start replay, but not through the snapshot
    /// path. All built-in cooling backends (L4 plant, L3 surrogate,
    /// L2 replay) support forking.
    fn fork(&self) -> Option<Box<dyn CoSimModel>> {
        None
    }

    /// Capture the model's complete internal state as a serializable
    /// value — the durable-snapshot companion to [`CoSimModel::fork`].
    ///
    /// The contract mirrors forking, across a process boundary: a model
    /// rebuilt from this value (each backend deserializes its own state
    /// type) and stepped with the same inputs must produce bit-identical
    /// outputs to the original. Models that cannot serialize their state
    /// return `None` (the default); persisting a twin coupled to such a
    /// model fails with an explicit error rather than dropping the
    /// cooling state silently. All built-in cooling backends (L4 plant,
    /// L3 surrogate, L2 replay) support state capture.
    fn save_state(&self) -> Option<serde::Value> {
        None
    }

    /// True when, from the current state *with the current inputs held
    /// constant*, every further `do_step` would leave all outputs
    /// bit-identical and the internal state change is expressible by
    /// [`CoSimModel::repeat_step`]. A master may then collapse a run of
    /// identical-input steps into one `repeat_step(n)` call instead of
    /// `n` `do_step`s — the cooling-model analogue of closed-form gap
    /// accounting in an event-driven master.
    ///
    /// `false` (the default) is always safe: transient models (the L4
    /// plant) and time-dependent models (L2 trace replay) must keep it.
    /// Memoryless input→output maps (the L3 surrogate) and the online
    /// L3/L4 model *while a trusted fit is serving* can return `true`.
    fn quasi_static(&self) -> bool {
        false
    }

    /// Account `n` additional steps with unchanged inputs, in bulk.
    ///
    /// Contract: when [`CoSimModel::quasi_static`] returned `true` with
    /// the current inputs, `repeat_step(n)` must leave the model in
    /// exactly the state `n` consecutive `do_step` calls with those
    /// inputs would have — outputs, diagnostic counters, everything —
    /// so masters that batch steps stay bit-identical to masters that
    /// do not. No-op by default (paired with the `quasi_static`
    /// default of `false`, which makes batching unreachable).
    fn repeat_step(&mut self, _n: u64) {}

    /// Look up a variable by exact name.
    fn var_by_name(&self, name: &str) -> Option<&VariableDescriptor> {
        self.variables().iter().find(|v| v.name == name)
    }

    /// Convenience: all outputs in registry order.
    fn output_refs(&self) -> Vec<VarRef> {
        self.variables()
            .iter()
            .filter(|v| v.causality == Causality::Output)
            .map(|v| v.vr)
            .collect()
    }
}

/// Builder for variable registries; hands out sequential value references.
#[derive(Debug, Default, Clone)]
pub struct VariableRegistry {
    vars: Vec<VariableDescriptor>,
}

impl VariableRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a variable and return its value reference.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        unit: impl Into<String>,
        causality: Causality,
        description: impl Into<String>,
    ) -> VarRef {
        let vr = VarRef(self.vars.len() as u32);
        self.vars.push(VariableDescriptor {
            vr,
            name: name.into(),
            unit: unit.into(),
            causality,
            description: description.into(),
        });
        vr
    }

    /// Shorthand for inputs.
    pub fn input(&mut self, name: impl Into<String>, unit: impl Into<String>) -> VarRef {
        self.register(name, unit, Causality::Input, "")
    }

    /// Shorthand for outputs.
    pub fn output(&mut self, name: impl Into<String>, unit: impl Into<String>) -> VarRef {
        self.register(name, unit, Causality::Output, "")
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Count of variables with the given causality.
    pub fn count(&self, causality: Causality) -> usize {
        self.vars.iter().filter(|v| v.causality == causality).count()
    }

    /// Finish building and take the descriptor list.
    pub fn into_vec(self) -> Vec<VariableDescriptor> {
        self.vars
    }

    /// Borrow the descriptors.
    pub fn descriptors(&self) -> &[VariableDescriptor] {
        &self.vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial integrator model: output = ∫ input dt.
    struct Integrator {
        vars: Vec<VariableDescriptor>,
        input: f64,
        state: f64,
    }

    impl Integrator {
        fn new() -> Self {
            let mut reg = VariableRegistry::new();
            reg.input("u", "W");
            reg.output("y", "J");
            Integrator { vars: reg.into_vec(), input: 0.0, state: 0.0 }
        }
    }

    impl CoSimModel for Integrator {
        fn instance_name(&self) -> &str {
            "integrator"
        }
        fn variables(&self) -> &[VariableDescriptor] {
            &self.vars
        }
        fn setup(&mut self, _start: f64) {
            self.state = 0.0;
        }
        fn set_real(&mut self, vr: VarRef, value: f64) -> Result<(), FmiError> {
            match vr.0 {
                0 => {
                    self.input = value;
                    Ok(())
                }
                1 => Err(FmiError::WrongCausality { vr, expected: Causality::Input }),
                _ => Err(FmiError::UnknownVariable(vr)),
            }
        }
        fn get_real(&self, vr: VarRef) -> Result<f64, FmiError> {
            match vr.0 {
                0 => Ok(self.input),
                1 => Ok(self.state),
                _ => Err(FmiError::UnknownVariable(vr)),
            }
        }
        fn do_step(&mut self, _t: f64, dt: f64) -> Result<(), FmiError> {
            if dt <= 0.0 {
                return Err(FmiError::InvalidStep("non-positive dt".into()));
            }
            self.state += self.input * dt;
            Ok(())
        }
        fn reset(&mut self) {
            self.input = 0.0;
            self.state = 0.0;
        }
    }

    #[test]
    fn registry_assigns_sequential_refs() {
        let mut reg = VariableRegistry::new();
        let a = reg.input("a", "W");
        let b = reg.output("b", "degC");
        assert_eq!(a, VarRef(0));
        assert_eq!(b, VarRef(1));
        assert_eq!(reg.count(Causality::Input), 1);
        assert_eq!(reg.count(Causality::Output), 1);
    }

    #[test]
    fn integrator_steps() {
        let mut m = Integrator::new();
        m.setup(0.0);
        m.set_real(VarRef(0), 2.0).unwrap();
        m.do_step(0.0, 15.0).unwrap();
        assert_eq!(m.get_real(VarRef(1)).unwrap(), 30.0);
    }

    #[test]
    fn wrong_causality_rejected() {
        let mut m = Integrator::new();
        m.setup(0.0);
        let err = m.set_real(VarRef(1), 1.0).unwrap_err();
        assert!(matches!(err, FmiError::WrongCausality { .. }));
    }

    #[test]
    fn unknown_vr_rejected() {
        let m = Integrator::new();
        assert!(matches!(m.get_real(VarRef(99)), Err(FmiError::UnknownVariable(_))));
    }

    #[test]
    fn var_by_name_finds() {
        let m = Integrator::new();
        assert_eq!(m.var_by_name("y").unwrap().vr, VarRef(1));
        assert!(m.var_by_name("nope").is_none());
    }

    #[test]
    fn invalid_step_rejected() {
        let mut m = Integrator::new();
        m.setup(0.0);
        assert!(m.do_step(0.0, 0.0).is_err());
    }
}
