//! # ba-unauth — the paper's unauthenticated protocols (§7) and phase king
//!
//! Faithful implementations of three algorithms from *Byzantine Agreement
//! with Predictions*, plus the phase-king substitute (S4) that shares
//! Algorithm 5's phase loop:
//!
//! | module | contents |
//! |---|---|
//! | [`gc_core_set`] | [`CoreSetGraded`] — **Algorithm 3**, graded consensus with a core set: quorum thresholds `2k+1` / `k+1` inside per-process listen sets `Lᵢ` of size `3k+1` |
//! | [`conciliation`] | [`Conciliation`] — **Algorithm 4**, the one-round leader-graph conciliation that converges honest proposals when the listen sets are honest and share a core |
//! | [`phases`] | [`Phases`] — the one 5-round phase loop (graded consensus, a one-round middle sub-protocol, graded consensus) that both protocols below instantiate through [`PhaseParts`] |
//! | [`ba_classification`] | [`UnauthBaWithClassification`] — **Algorithm 5**, the conditional Byzantine agreement that runs `2k+1` phases of (Algorithm 3, Algorithm 4, Algorithm 3) over the priority blocks of the classification ordering `π(cᵢ)` |
//! | [`phase_king`] | [`PhaseKing`] — early-stopping phase king (`t < n/3`), phases of (graded consensus, king broadcast, graded consensus); the S4 early-stopping substitute and the prediction-free baseline, re-exported by `ba-early` |
//!
//! The conditional contract (Theorem 5): if `k` upper-bounds the number of
//! misclassified processes and `(2k+1)(3k+1) ≤ n − t − k`, Algorithm 5
//! satisfies Agreement and Strong Unanimity, every honest process returns
//! within `5(2k+1)` rounds, sends at most `5n` messages, and the honest
//! total is `O(nk²)`. With a larger misclassification count the protocol
//! still terminates within `5(2k+1)` rounds but guarantees nothing about
//! the outputs — the guess-and-double wrapper in `ba-core` protects
//! safety in that case.
//!
//! Interestingly (§7), none of Algorithms 3–5 requires `t < n/3`; phase
//! king does.

pub mod ba_classification;
pub mod conciliation;
pub mod gc_core_set;
pub mod phase_king;
pub mod phases;

pub use ba_classification::{Alg5Msg, UnauthBaWithClassification};
pub use conciliation::{ConcMsg, Conciliation};
pub use gc_core_set::{CoreSetGcMsg, CoreSetGraded};
pub use phase_king::{PhaseKing, PhaseKingMsg, PhaseKingOutput};
pub use phases::{PhaseMsg, PhaseOutput, PhaseParts, Phases};

use ba_sim::ProcessId;

/// A listen set `Lᵢ`: the `3k+1` identifiers a process listens to in one
/// phase of Algorithm 5 (or one standalone run of Algorithms 3/4).
///
/// Stored sorted; membership queries are `O(log |L|)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ListenSet {
    ids: Vec<ProcessId>,
}

impl ListenSet {
    /// Builds a listen set from arbitrary identifiers (sorted,
    /// deduplicated).
    pub fn new(mut ids: Vec<ProcessId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        ListenSet { ids }
    }

    /// Number of identifiers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: ProcessId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Iterates in increasing identifier order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.ids.iter().copied()
    }

    /// The sorted identifiers.
    pub fn as_slice(&self) -> &[ProcessId] {
        &self.ids
    }
}

impl FromIterator<ProcessId> for ListenSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        ListenSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_set_sorts_and_dedups() {
        let l: ListenSet = [3u32, 1, 3, 2].into_iter().map(ProcessId).collect();
        assert_eq!(l.len(), 3);
        assert!(l.contains(ProcessId(2)));
        assert!(!l.contains(ProcessId(0)));
        let ids: Vec<u32> = l.iter().map(|p| p.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
