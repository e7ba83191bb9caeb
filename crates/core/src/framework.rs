//! The speculation-for-simplicity framework (Section 2 and Table 1).
//!
//! The framework names the four features any application of "speculation for
//! simplicity" must provide:
//!
//! 1. **infrequency of mis-speculation**,
//! 2. **detection of all mis-speculations**,
//! 3. **recovery** (SafetyNet in all three designs), and
//! 4. **guaranteed forward progress**.
//!
//! This module keeps the qualitative Table 1 description of the three
//! concrete designs; the runtime machinery the framework implies lives with
//! the shared step loop in [`crate::engine`]: the forward-progress policy,
//! which [`crate::engine::SystemEngine`] applies as an
//! [`specsim_base::EngineMode`] after each recovery, and the per-run
//! [`crate::engine::MeasuredCharacterization`].

/// The three applications of speculation for simplicity the paper develops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeculativeDesign {
    /// Section 3.1: simplify the directory protocol by speculating on
    /// point-to-point ordering under adaptive routing.
    DirectoryOrdering,
    /// Section 3.2: simplify the snooping protocol by treating the
    /// writeback double-race corner case as a mis-speculation.
    SnoopingCornerCase,
    /// Section 4: simplify the interconnect by removing virtual-channel flow
    /// control and recovering from deadlock.
    InterconnectDeadlock,
}

impl SpeculativeDesign {
    /// All three designs, in paper order.
    pub const ALL: [SpeculativeDesign; 3] = [
        SpeculativeDesign::DirectoryOrdering,
        SpeculativeDesign::SnoopingCornerCase,
        SpeculativeDesign::InterconnectDeadlock,
    ];

    /// Column heading used by the Table 1 bench.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            SpeculativeDesign::DirectoryOrdering => {
                "Simplify directory protocol by speculating on point-to-point ordering (S3.1)"
            }
            SpeculativeDesign::SnoopingCornerCase => {
                "Simplify snooping protocol by treating corner case transition as error (S3.2)"
            }
            SpeculativeDesign::InterconnectDeadlock => {
                "Simplify interconnection network by removing virtual channel flow control (S4)"
            }
        }
    }

    /// Row (1) of Table 1: why mis-speculation is infrequent.
    #[must_use]
    pub fn infrequency_argument(self) -> &'static str {
        match self {
            SpeculativeDesign::DirectoryOrdering => {
                "re-orderings are rare and most re-orderings do not matter"
            }
            SpeculativeDesign::SnoopingCornerCase => {
                "writebacks do not often race with requests to write the block"
            }
            SpeculativeDesign::InterconnectDeadlock => {
                "worst-case buffering requirements are rarely needed in practice"
            }
        }
    }

    /// Row (2) of Table 1: how mis-speculation is detected.
    #[must_use]
    pub fn detection_mechanism(self) -> &'static str {
        match self {
            SpeculativeDesign::DirectoryOrdering | SpeculativeDesign::SnoopingCornerCase => {
                "one specific invalid transition in protocol controller"
            }
            SpeculativeDesign::InterconnectDeadlock => "timeout on cache coherence transaction",
        }
    }

    /// Row (3) of Table 1: the recovery mechanism (SafetyNet for all three).
    #[must_use]
    pub fn recovery_mechanism(self) -> &'static str {
        "SafetyNet"
    }

    /// Row (4) of Table 1: the forward-progress mechanism.
    #[must_use]
    pub fn forward_progress_mechanism(self) -> &'static str {
        match self {
            SpeculativeDesign::DirectoryOrdering => {
                "selectively disable adaptive routing during re-execution"
            }
            SpeculativeDesign::SnoopingCornerCase => "slow-start execution after recovery",
            SpeculativeDesign::InterconnectDeadlock => {
                "slow-start execution after recovery, with sufficient buffering during slow-start"
            }
        }
    }

    /// The "Result" row of Table 1.
    #[must_use]
    pub fn result_claim(self) -> &'static str {
        match self {
            SpeculativeDesign::DirectoryOrdering => "simpler protocol with rare mis-speculations",
            SpeculativeDesign::SnoopingCornerCase => {
                "protocol almost never exercises corner case in practice"
            }
            SpeculativeDesign::InterconnectDeadlock => {
                "simpler network incurs no deadlocks in practice"
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_designs_have_distinct_descriptions() {
        let titles: std::collections::HashSet<_> =
            SpeculativeDesign::ALL.iter().map(|d| d.title()).collect();
        assert_eq!(titles.len(), 3);
        for d in SpeculativeDesign::ALL {
            assert_eq!(d.recovery_mechanism(), "SafetyNet");
            assert!(!d.infrequency_argument().is_empty());
            assert!(!d.detection_mechanism().is_empty());
            assert!(!d.forward_progress_mechanism().is_empty());
            assert!(!d.result_claim().is_empty());
        }
    }

    #[test]
    fn detection_rows_match_table_1() {
        assert_eq!(
            SpeculativeDesign::DirectoryOrdering.detection_mechanism(),
            SpeculativeDesign::SnoopingCornerCase.detection_mechanism()
        );
        assert!(SpeculativeDesign::InterconnectDeadlock
            .detection_mechanism()
            .contains("timeout"));
    }
}
