//! Crate error type.

use core::fmt;

/// Errors returned by AUM's fallible APIs (AUV-model persistence,
/// experiment-config and fault-plan validation, manager decisions,
/// attribution-ledger conservation).
#[derive(Debug)]
pub enum AumError {
    /// Filesystem error while reading or writing a model artifact.
    Io(std::io::Error),
    /// The model artifact could not be (de)serialized.
    Serde(serde_json::Error),
    /// A fault plan is malformed (bad parameters or timing) — experiments
    /// reject it cleanly instead of aborting the process.
    FaultPlan(String),
    /// A decoded input would hang or panic a run: an experiment config (a
    /// zero control interval, a duration shorter than one interval, a
    /// request rate that is not positive and finite), a cluster config, or
    /// an AUV model no controller can serve from. Rejected before any work.
    Config(String),
    /// A resource manager returned a processor division that does not
    /// cover the platform's cores.
    Division(String),
    /// The run's attribution ledger failed a conservation invariant
    /// (attributed time ≠ wall time or attributed joules ≠ modeled energy
    /// beyond [`aum_sim::attrib::EPSILON`]).
    Attribution(aum_sim::attrib::ConservationError),
}

impl fmt::Display for AumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AumError::Io(e) => write!(f, "model artifact io error: {e}"),
            AumError::Serde(e) => write!(f, "model artifact encoding error: {e}"),
            AumError::FaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            AumError::Config(msg) => write!(f, "invalid config: {msg}"),
            AumError::Division(msg) => write!(f, "invalid processor division: {msg}"),
            AumError::Attribution(e) => write!(f, "attribution ledger violation: {e}"),
        }
    }
}

impl std::error::Error for AumError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AumError::Io(e) => Some(e),
            AumError::Serde(e) => Some(e),
            AumError::FaultPlan(_) | AumError::Config(_) | AumError::Division(_) => None,
            AumError::Attribution(e) => Some(e),
        }
    }
}

impl From<aum_sim::attrib::ConservationError> for AumError {
    fn from(e: aum_sim::attrib::ConservationError) -> Self {
        AumError::Attribution(e)
    }
}

impl From<aum_platform::state::BandwidthDegradeError> for AumError {
    fn from(e: aum_platform::state::BandwidthDegradeError) -> Self {
        AumError::FaultPlan(e.to_string())
    }
}

impl From<std::io::Error> for AumError {
    fn from(e: std::io::Error) -> Self {
        AumError::Io(e)
    }
}

impl From<serde_json::Error> for AumError {
    fn from(e: serde_json::Error) -> Self {
        AumError::Serde(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AumError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(format!("{e}").contains("io error"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
