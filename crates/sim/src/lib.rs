//! Simulation substrate for ExaDigiT-rs.
//!
//! This crate provides the domain-independent machinery every other crate in
//! the workspace builds on:
//!
//! * [`clock`] — a discrete simulation clock with second resolution, matching
//!   the paper's Algorithm 1 (`TICK` is called every simulated second, the
//!   cooling model every 15 s).
//! * [`rng`] — a deterministic, seedable random number generator
//!   (xoshiro256\*\* seeded via splitmix64) plus the distributions the paper
//!   uses: the exponential inter-arrival law of eq. (5), normal / lognormal
//!   laws for workload synthesis, and uniform helpers.
//! * [`events`] — the discrete-event calendar: typed events (job arrival,
//!   job completion, cooling/trace quantum, record boundary, wet-bulb
//!   breakpoint) over the integral-second clock, with deterministic
//!   same-second ordering. This is what lets the RAPS kernel jump the
//!   clock straight to the next event instead of walking every second.
//! * [`series`] — fixed-step time series with resampling, used for both model
//!   outputs and synthetic telemetry.
//! * [`stats`] — online summary statistics (Welford), RMSE/MAE validation
//!   metrics (§IV of the paper), percentiles, and histograms.
//! * [`fmi`] — an "FMI-lite" co-simulation interface. The paper exports its
//!   Modelica cooling model as an FMU and couples it to RAPS through the FMI
//!   standard; we reproduce that architectural boundary with a Rust trait so
//!   models remain swappable.
//! * [`ensemble`] — the scenario-batch engine: [`ensemble::EnsembleRunner`]
//!   maps N independent inputs (UQ draws, what-if variants, sweep points)
//!   across the thread-pool executor with per-scenario RNG streams and
//!   order-deterministic gathering; every study batches through it (see
//!   `docs/ENSEMBLES.md`).
//!
//! Everything here is deliberately free of global state so that replays are
//! reproducible: the same seed and configuration always produce bit-identical
//! results (verified by the `determinism` integration test).

// Every public item must be documented; CI turns this (and all rustdoc
// warnings) into errors via `cargo doc` with RUSTDOCFLAGS=-Dwarnings.
#![warn(missing_docs)]

pub mod clock;
pub mod ensemble;
pub mod events;
pub mod fmi;
pub mod rng;
pub mod series;
pub mod stats;

pub use clock::SimClock;
pub use ensemble::{EnsembleRunner, ScenarioCtx};
pub use events::{Event, EventKind, EventQueue};
pub use fmi::{Causality, CoSimModel, FmiError, VarRef, VariableDescriptor, VariableRegistry};
pub use rng::Rng;
pub use series::TimeSeries;
pub use stats::{mae, rmse, Summary, Welford};
