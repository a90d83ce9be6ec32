//! Execution statistics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Statistics of one algorithm execution, as counted by
/// [`crate::scheduler::Runner`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of asynchronous rounds until completion.
    pub rounds: u64,
    /// Total number of particle activations.
    pub activations: u64,
    /// Number of plain expansions performed.
    pub expansions: u64,
    /// Number of contractions performed.
    pub contractions: u64,
    /// Number of handovers performed.
    pub handovers: u64,
    /// Whether the occupied shape was ever observed disconnected at a round
    /// boundary (only meaningful when connectivity tracking is enabled).
    pub ever_disconnected: bool,
    /// Number of round boundaries at which the shape was disconnected (only
    /// meaningful when connectivity tracking is enabled).
    pub disconnected_rounds: u64,
    /// Whether the final configuration is connected (`None` before a run).
    pub final_connected: Option<bool>,
}

impl RunStats {
    /// Total number of movement operations.
    pub fn moves(&self) -> u64 {
        self.expansions + self.contractions + self.handovers
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} activations={} moves={} disconnected={}",
            self.rounds,
            self.activations,
            self.moves(),
            self.ever_disconnected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let s = RunStats {
            rounds: 2,
            ..RunStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("rounds=2"));
        assert!(text.contains("moves=0"));
    }
}
