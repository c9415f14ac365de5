//! Thermo-fluid network solver for ExaDigiT-rs.
//!
//! This crate is the numerical heart of the Modelica substitution described
//! in DESIGN.md. The paper's cooling model is a Modelica system of
//! differential-algebraic equations solved by Dymola; the equivalent split
//! here is:
//!
//! * the **algebraic part** — steady hydraulic balance of each pumped loop
//!   per time step — is solved by [`hydraulic`], a damped Newton–Raphson
//!   method over branch flows and junction pressures (plant hydraulics
//!   settle in seconds, far below the 15 s cooling step, so a per-step
//!   steady solve is the right idealisation, and matches how the paper's
//!   model treats pressure states);
//! * the **differential part** — thermal storage in volumes and transport
//!   delays — is integrated by the components themselves (exact exponential
//!   updates) or by the general-purpose integrators in [`ode`];
//! * [`linalg`] provides the small dense LU factorisation: the Newton
//!   step factors its pressure block with it after eliminating the branch
//!   flows, and checks itself against it on the whole Jacobian;
//! * [`thermal`] provides stream-mixing helpers for junction temperatures.

#![warn(missing_docs)]

pub mod hydraulic;
pub mod linalg;
pub mod ode;
pub mod thermal;

pub use hydraulic::{Branch, BranchElement, BranchId, HydraulicNetwork, NodeId, Solution, SolverError};
pub use linalg::Matrix;
