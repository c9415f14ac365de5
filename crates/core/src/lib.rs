//! # ExaDigiT-rs
//!
//! A Rust reproduction of **ExaDigiT** — the open-source digital-twin
//! framework for liquid-cooled supercomputers presented in *"A Digital
//! Twin Framework for Liquid-cooled Supercomputers as Demonstrated at
//! Exascale"* (SC 2024) and demonstrated on Frontier.
//!
//! The framework couples three modules (Fig. 1 of the paper):
//!
//! 1. **RAPS** — the Resource Allocator and Power Simulator
//!    ([`exadigit_raps`]): job scheduling, per-node dynamic power from
//!    utilization traces, rectification and DC-DC conversion losses;
//! 2. a **transient thermo-fluidic cooling model**
//!    ([`exadigit_cooling`]): the central energy plant of Fig. 5 with its
//!    control system, stepped every 15 s across an FMI-style boundary
//!    ([`exadigit_sim::fmi`]);
//! 3. **visual analytics** ([`exadigit_viz`]): a scene graph with JSON
//!    export plus terminal dashboards (the AR/UE5 substitution — see
//!    DESIGN.md).
//!
//! This crate is the façade: [`DigitalTwin`] wires the modules together,
//! [`TwinConfig`] is the JSON-loadable description of a whole system
//! (§V generalisation) whose [`CoolingBackend`] selects the cooling
//! fidelity served across the FMI boundary — the L4 plant, the L3
//! surrogate, an L2 telemetry replay, or none (see `docs/FIDELITY.md`),
//! and [`whatif`] hosts the §IV-3 experiments (smart load-sharing
//! rectifiers, 380 V DC distribution, cooling-system extension, CDU
//! blockage injection, and the fidelity-selectable PUE grid over load
//! and wet-bulb); the batched studies give bit-identical results at any
//! pool width (see `docs/ENSEMBLES.md`).
//!
//! ## Quickstart
//!
//! ```no_run
//! use exadigit_core::{DigitalTwin, TwinConfig};
//! use exadigit_raps::workload::{WorkloadGenerator, WorkloadParams};
//!
//! let mut twin = DigitalTwin::new(TwinConfig::frontier()).unwrap();
//! let mut generator = WorkloadGenerator::new(WorkloadParams::default(), 42);
//! twin.submit(generator.generate_day(0));
//! twin.run(3_600).unwrap();
//! println!("{}", twin.report());
//! ```

// Every public item must be documented; CI turns this (and all rustdoc
// warnings) into errors via `cargo doc` with RUSTDOCFLAGS=-Dwarnings.
#![warn(missing_docs)]

pub mod config;
pub mod levels;
pub mod online;
pub mod surrogate;
pub mod twin;
pub mod whatif;

pub use config::{CoolingBackend, SurrogateSource, TwinConfig};
pub use online::{OnlineCoolingModel, OnlineSurrogateConfig};
pub use levels::TwinLevel;
pub use surrogate::Surrogate;
pub use twin::{DigitalTwin, SNAPSHOT_FORMAT_VERSION};

// Re-export the module crates under their paper names.
pub use exadigit_cooling as cooling;
pub use exadigit_network as network;
pub use exadigit_raps as raps;
pub use exadigit_sim as sim;
pub use exadigit_telemetry as telemetry;
pub use exadigit_thermo as thermo;
pub use exadigit_viz as viz;
