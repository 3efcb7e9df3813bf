//! The early-stopping dispatcher used by the guess-and-double wrapper.
//!
//! Algorithm 1 runs, in each phase, an early-stopping BA with a fault
//! budget `k = 2^{φ-1}`. This module picks the concrete protocol:
//!
//! * **Unauthenticated** ([`EsUnauth`]): when Theorem 5's condition
//!   `(2k+1)(3k+1) ≤ n − t − k` holds, reuse the paper's own Algorithm 5
//!   with the *trivial all-honest classification* (identity priority
//!   order). Every faulty process is then "misclassified", so `f ≤ k`
//!   implies the ≤ `k` misclassification precondition and Theorem 5
//!   applies verbatim — `5(2k+1)` rounds, `O(nk²)` messages. Otherwise,
//!   fall back to the truncated [`PhaseKing`] (`min(k,t)+2` phases).
//! * **Authenticated**: [`TruncatedDs`](crate::TruncatedDs) with budget
//!   `k` directly (it is self-conditional on `f ≤ k`).

use ba_sim::{step_sub, Envelope, Outbox, Process, ProcessId, Value, WireSize};
use ba_unauth::{Alg5Msg, PhaseKing, PhaseKingMsg, UnauthBaWithClassification};
use std::sync::Arc;

/// Messages of the unauthenticated early-stopping dispatcher.
#[derive(Clone, Debug)]
pub enum EsUnauthMsg {
    /// Algorithm-5-with-trivial-classification traffic.
    Alg5(Arc<Alg5Msg>),
    /// Phase-king traffic.
    King(Arc<PhaseKingMsg>),
}

/// A discriminant byte plus the inner payload.
impl WireSize for EsUnauthMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            EsUnauthMsg::Alg5(inner) => inner.wire_bytes(),
            EsUnauthMsg::King(inner) => inner.wire_bytes(),
        }
    }
}

/// Unauthenticated early-stopping Byzantine agreement with fault budget
/// `k` (substitution S4).
///
/// Contract: if `f ≤ k`, all honest processes output the same value
/// within [`EsUnauth::rounds`] rounds, and unanimous honest inputs are
/// preserved; otherwise the protocol still terminates on schedule but
/// guarantees nothing.
pub enum EsUnauth {
    /// The Algorithm-5 path (condition holds).
    Alg5(UnauthBaWithClassification),
    /// The phase-king fallback.
    King(PhaseKing),
}

impl std::fmt::Debug for EsUnauth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EsUnauth::Alg5(_) => write!(f, "EsUnauth::Alg5"),
            EsUnauth::King(_) => write!(f, "EsUnauth::King"),
        }
    }
}

impl EsUnauth {
    /// Whether the Algorithm-5 path is selected for these parameters.
    pub fn uses_alg5(n: usize, t: usize, k: usize) -> bool {
        UnauthBaWithClassification::condition_holds(n, t, k)
    }

    /// Phase budget of the phase-king fallback.
    fn king_phases(t: usize, k: usize) -> usize {
        PhaseKing::phases_for(k.min(t))
    }

    /// Communication rounds used for budget `k` (output is available at
    /// this step index).
    pub fn rounds(n: usize, t: usize, k: usize) -> u64 {
        if Self::uses_alg5(n, t, k) {
            UnauthBaWithClassification::rounds(k)
        } else {
            PhaseKing::rounds(Self::king_phases(t, k))
        }
    }

    /// Creates the dispatcher for process `me` with fault budget `k`.
    pub fn new(me: ProcessId, n: usize, t: usize, k: usize, input: Value) -> Self {
        if Self::uses_alg5(n, t, k) {
            let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
            EsUnauth::Alg5(UnauthBaWithClassification::new(me, n, k, input, order))
        } else {
            EsUnauth::King(PhaseKing::new(me, n, t, input, Self::king_phases(t, k)))
        }
    }
}

impl Process for EsUnauth {
    type Msg = EsUnauthMsg;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<EsUnauthMsg>], out: &mut Outbox<EsUnauthMsg>) {
        match self {
            EsUnauth::Alg5(inner) => {
                step_sub(inner, round, inbox, out, EsUnauthMsg::Alg5, |m| match m {
                    EsUnauthMsg::Alg5(x) => Some(Arc::clone(x)),
                    EsUnauthMsg::King(_) => None,
                })
            }
            EsUnauth::King(inner) => {
                step_sub(inner, round, inbox, out, EsUnauthMsg::King, |m| match m {
                    EsUnauthMsg::King(x) => Some(Arc::clone(x)),
                    EsUnauthMsg::Alg5(_) => None,
                })
            }
        }
    }

    fn output(&self) -> Option<Value> {
        match self {
            EsUnauth::Alg5(inner) => inner.output().map(|o| o.value),
            EsUnauth::King(inner) => inner.output().map(|o| o.value),
        }
    }

    fn halted(&self) -> bool {
        match self {
            EsUnauth::Alg5(inner) => inner.halted(),
            EsUnauth::King(inner) => inner.halted(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{Runner, SilentAdversary};

    fn system(n: usize, t: usize, k: usize, inputs: &[u64]) -> Vec<EsUnauth> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| EsUnauth::new(ProcessId(i as u32), n, t, k, Value(v)))
            .collect()
    }

    #[test]
    fn small_k_selects_alg5() {
        assert!(EsUnauth::uses_alg5(40, 2, 2));
        let es = EsUnauth::new(ProcessId(0), 40, 2, 2, Value(1));
        assert!(matches!(es, EsUnauth::Alg5(_)));
    }

    #[test]
    fn large_k_falls_back_to_phase_king() {
        assert!(!EsUnauth::uses_alg5(10, 3, 3));
        let es = EsUnauth::new(ProcessId(0), 10, 3, 3, Value(1));
        assert!(matches!(es, EsUnauth::King(_)));
    }

    #[test]
    fn alg5_path_agrees_with_f_at_most_k() {
        let (n, t, k) = (40, 2, 2);
        let inputs: Vec<u64> = (0..38).map(|i| i % 2).collect();
        let mut runner = Runner::new(n, system(n, t, k, &inputs), SilentAdversary);
        let report = runner.run(EsUnauth::rounds(n, t, k) + 2);
        assert!(report.agreement());
    }

    #[test]
    fn king_path_agrees_with_f_at_most_k() {
        let (n, t, k) = (10, 3, 3);
        let inputs: Vec<u64> = (0..8).map(|i| i % 2).collect();
        let mut runner = Runner::new(n, system(n, t, k, &inputs), SilentAdversary);
        let report = runner.run(EsUnauth::rounds(n, t, k) + 2);
        assert!(report.agreement());
    }

    #[test]
    fn rounds_formula_matches_paths() {
        assert_eq!(EsUnauth::rounds(40, 2, 2), 25, "Alg5: 5(2k+1)");
        assert_eq!(EsUnauth::rounds(10, 3, 3), 25, "king: 5(k+2)");
        assert_eq!(EsUnauth::rounds(10, 3, 100), 25, "king phases capped by t");
    }
}
