//! Digital-twin maturity levels (Fig. 2 of the paper).
//!
//! The paper classifies each module against the five-level taxonomy of
//! ref. \[36\] (Autodesk): descriptive, informative, predictive, comprehensive,
//! autonomous, and positions itself at L1 (visualization), L2 (telemetry
//! validation) and L4 (modeling & simulation), with L3/L5 as future work.
//! This reproduction additionally reaches L3: the surrogate cooling
//! backend ([`crate::config::CoolingBackend::Surrogate`]) serves a
//! machine-learned model across the same FMI boundary as the L4 plant
//! (see `docs/FIDELITY.md` for the level → module mapping).

use serde::{Deserialize, Serialize};

/// The five digital-twin levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TwinLevel {
    /// L1 — models the physical assets (CAD/game engines; here: the
    /// scene graph of `exadigit_viz::scene`).
    Descriptive,
    /// L2 — incorporates telemetry for real-time insight (here: the
    /// synthetic-twin replay of `exadigit_telemetry`).
    Informative,
    /// L3 — data-driven AI/ML predictive models. Future work in the
    /// paper; reachable here through the surrogate cooling backend
    /// (`CoolingBackend::Surrogate` serving
    /// [`crate::surrogate::Surrogate`] across the FMI boundary).
    Predictive,
    /// L4 — modeling & simulation for what-if scenarios (here: RAPS and
    /// the cooling plant).
    Comprehensive,
    /// L5 — autonomous control via e.g. reinforcement learning (paper:
    /// future work).
    Autonomous,
}

impl TwinLevel {
    /// Level index as used in the paper (L1..L5).
    pub fn index(&self) -> u8 {
        match self {
            TwinLevel::Descriptive => 1,
            TwinLevel::Informative => 2,
            TwinLevel::Predictive => 3,
            TwinLevel::Comprehensive => 4,
            TwinLevel::Autonomous => 5,
        }
    }
}

impl std::fmt::Display for TwinLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{} ({:?})", self.index(), self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_one_through_five() {
        let idx: Vec<u8> = [
            TwinLevel::Descriptive,
            TwinLevel::Informative,
            TwinLevel::Predictive,
            TwinLevel::Comprehensive,
            TwinLevel::Autonomous,
        ]
        .iter()
        .map(|l| l.index())
        .collect();
        assert_eq!(idx, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", TwinLevel::Comprehensive), "L4 (Comprehensive)");
    }

    #[test]
    fn levels_ordered_by_maturity() {
        assert!(TwinLevel::Descriptive < TwinLevel::Autonomous);
    }
}
