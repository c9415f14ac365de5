//! Thermo-fluid component library for ExaDigiT-rs.
//!
//! The paper models Frontier's cooling plant in Modelica using components
//! from the Modelica Standard Library, TRANSFORM and the Modelica Buildings
//! Library (§III-C3): volumes, flow resistances, pumps, heat exchangers,
//! a variable-fan-speed cooling tower, and the plant control system. This
//! crate is the Rust equivalent of that component palette:
//!
//! * [`fluid`] — temperature-dependent water / propylene-glycol properties;
//! * [`psychro`] — the psychrometrics needed by the cooling towers
//!   (wet-bulb temperature is the only weather input of the cooling model);
//! * [`pump`] — quadratic head curves, affinity laws, efficiency and
//!   electrical power for the CTWPs, HTWPs and CDU pumps;
//! * [`hx`] — ε-NTU counterflow heat exchangers (EHX1-5 and the HEX-1600
//!   in each CDU);
//! * [`tower`] — an ε-NTU evaporative cooling-tower cell with fan-speed
//!   scaling (MBL's variable-speed tower, simplified);
//! * [`valve`] — control valves with linear / equal-percentage trim (the
//!   CDU primary-side valve regulating secondary supply temperature);
//! * [`pipe`] — hydraulic resistances, transport delay, and well-mixed
//!   thermal volumes;
//! * [`pid`] — PID controllers with anti-windup (§III-C5);
//! * [`staging`] — hysteresis staging state machines and the first-order
//!   delay element the paper uses between the primary and tower loops.

#![warn(missing_docs)]

pub mod fluid;
pub mod hx;
pub mod pid;
pub mod pipe;
pub mod psychro;
pub mod pump;
pub mod staging;
pub mod tower;
pub mod valve;

pub use fluid::Fluid;
pub use hx::HeatExchanger;
pub use pid::Pid;
pub use pipe::{HydraulicResistance, ThermalVolume, TransportDelay};
pub use pump::Pump;
pub use staging::{FirstOrderLag, HysteresisStager};
pub use tower::CoolingTowerCell;
pub use valve::{ControlValve, ValveCharacteristic};
