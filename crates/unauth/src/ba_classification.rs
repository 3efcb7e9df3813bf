//! Algorithm 5 — Unauthenticated Byzantine Agreement with Classification
//! (§7.3).
//!
//! The conditional agreement protocol: `2k + 1` phases, each using the
//! next block of `3k + 1` identifiers from the classification priority
//! order `π(cᵢ)` as the listen set, and running
//!
//! ```text
//! (vᵢ, gᵢ) ← graded-consensus-with-core-set(vᵢ, k, Lᵢ)    (Algorithm 3)
//! v'ᵢ      ← conciliate(vᵢ, k, Lᵢ)                        (Algorithm 4)
//! if gᵢ = 0 then vᵢ ← v'ᵢ
//! (vᵢ, gᵢ) ← graded-consensus-with-core-set(vᵢ, k, Lᵢ)
//! if decidedᵢ then return decisionᵢ
//! if gᵢ = 1 then { decisionᵢ ← vᵢ ; decidedᵢ ← true }
//! ```
//!
//! per phase (5 rounds: 2 + 1 + 2, with each sub-protocol's output round
//! overlapping the next one's first send, exactly as the paper counts).
//! It is the [phase loop](crate::phases) with [`CoreSetGraded`] as the
//! graded consensus and [`Conciliation`] in the middle, both over the
//! phase's listen block.
//!
//! **Theorem 5.** If `k` bounds the number of misclassified processes and
//! `(2k+1)(3k+1) ≤ n − t − k`, the protocol satisfies Agreement and
//! Strong Unanimity, sends `O(nk²)` messages in total and at most `5n`
//! per process, and every honest process returns within `5(2k+1)` rounds
//! — *even when the bound fails*, only the correctness guarantees are
//! lost, never the round/message bounds.

use crate::conciliation::{ConcMsg, Conciliation};
use crate::gc_core_set::{CoreSetGcMsg, CoreSetGraded};
use crate::phases::{PhaseMsg, PhaseParts, Phases};
use crate::ListenSet;
use ba_sim::{ProcessId, Value};
use std::sync::Arc;

/// Algorithm 5's parts: phase `p` listens to block `p` of `π(cᵢ)`.
#[derive(Clone, Debug)]
pub struct Alg5Parts {
    n: usize,
    k: usize,
    order: Arc<Vec<ProcessId>>,
}

impl Alg5Parts {
    fn listen(&self, phase: usize) -> ListenSet {
        let block = 3 * self.k + 1;
        self.order[block * phase..block * (phase + 1)]
            .iter()
            .copied()
            .collect()
    }
}

impl PhaseParts for Alg5Parts {
    type Gc = CoreSetGraded;
    type Middle = Conciliation;

    const NAME: &'static str = "UnauthBaWithClassification";

    fn phases(&self) -> usize {
        2 * self.k + 1
    }

    fn graded(&self, me: ProcessId, phase: usize, value: Value) -> CoreSetGraded {
        CoreSetGraded::new(me, self.n, self.k, value, self.listen(phase))
    }

    fn middle(&self, me: ProcessId, phase: usize, value: Value) -> Conciliation {
        Conciliation::new(me, self.n, self.k, value, self.listen(phase))
    }
}

/// Tagged messages of Algorithm 5: lines 6 (`First`), 7 (`Middle`) and
/// 9 (`Second`).
pub type Alg5Msg = PhaseMsg<CoreSetGcMsg, ConcMsg>;

/// One process's state machine for Algorithm 5. Its output's `value` is
/// the value returned (line 10 or 14 of the pseudocode) and its
/// `decision` is set if the grade-1 path (lines 11–13) fired.
pub type UnauthBaWithClassification = Phases<Alg5Parts>;

impl Phases<Alg5Parts> {
    /// Total number of communication rounds: `5(2k + 1)`.
    pub fn rounds(k: usize) -> u64 {
        Self::PHASE_ROUNDS * (2 * k as u64 + 1)
    }

    /// Whether the `2k+1` listen blocks of size `3k+1` fit into `n`
    /// identifiers — the *structural* requirement for running at all.
    /// (The stronger correctness condition is
    /// `(2k+1)(3k+1) ≤ n − t − k`, Theorem 5.)
    pub fn is_structurally_valid(n: usize, k: usize) -> bool {
        (2 * k + 1) * (3 * k + 1) <= n
    }

    /// Whether Theorem 5's correctness precondition
    /// `(2k+1)(3k+1) ≤ n − t − k` holds.
    pub fn condition_holds(n: usize, t: usize, k: usize) -> bool {
        n >= t + k && (2 * k + 1) * (3 * k + 1) <= n - t - k
    }

    /// Creates the state machine for process `me`.
    ///
    /// `order` is the priority ordering `π(cᵢ)` derived from this
    /// process's classification vector (see `ba-core`'s `ordering`
    /// module); `input` is the proposal `xᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the order does not list all `n` identifiers exactly
    /// once, or if the listen blocks do not fit
    /// ([`is_structurally_valid`](Self::is_structurally_valid)).
    pub fn new(
        me: ProcessId,
        n: usize,
        k: usize,
        input: Value,
        order: Arc<Vec<ProcessId>>,
    ) -> Self {
        assert_eq!(order.len(), n, "π(c) must order all n identifiers");
        assert!(
            Self::is_structurally_valid(n, k),
            "(2k+1)(3k+1) = {} exceeds n = {n}",
            (2 * k + 1) * (3 * k + 1)
        );
        debug_assert!(
            {
                let mut seen = vec![false; n];
                order.iter().all(|p| {
                    let i = p.index();
                    i < n && !std::mem::replace(&mut seen[i], true)
                })
            },
            "π(c) must be a permutation"
        );
        Self::with(Alg5Parts { n, k, order }, me, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner, SilentAdversary};
    use std::collections::BTreeMap;

    /// Identity ordering = the trivial all-honest classification π(1ⁿ).
    fn identity_order(n: usize) -> Arc<Vec<ProcessId>> {
        Arc::new(ProcessId::all(n).collect())
    }

    fn system(
        n: usize,
        k: usize,
        inputs: &[u64],
        order: &Arc<Vec<ProcessId>>,
    ) -> Vec<UnauthBaWithClassification> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                UnauthBaWithClassification::new(
                    ProcessId(i as u32),
                    n,
                    k,
                    Value(v),
                    Arc::clone(order),
                )
            })
            .collect()
    }

    #[test]
    fn theorem5_strong_unanimity_no_faults() {
        // k = 1: blocks of 4, 3 phases, n = 15 ≥ (2k+1)(3k+1) = 12.
        let n = 15;
        let order = identity_order(n);
        let mut runner = Runner::new(n, system(n, 1, &[6; 15], &order), SilentAdversary);
        let report = runner.run(40);
        assert!(report.all_decided());
        for o in report.outputs.values() {
            assert_eq!(o.value, Value(6));
            assert_eq!(o.decision, Some(Value(6)));
        }
    }

    #[test]
    fn theorem5_agreement_with_mixed_inputs() {
        let n = 15;
        let order = identity_order(n);
        let inputs: Vec<u64> = (0..n as u64).map(|i| i % 3).collect();
        let mut runner = Runner::new(n, system(n, 1, &inputs, &order), SilentAdversary);
        let report = runner.run(40);
        assert!(report.all_decided());
        let first = report.outputs.values().next().unwrap().value;
        assert!(report.outputs.values().all(|o| o.value == first));
    }

    #[test]
    fn theorem5_agreement_with_faults_in_first_block() {
        // Two faults sitting in the first listen block (worst placement
        // with the identity order), f = kA = 2 ≤ k = 2.
        // Need (2k+1)(3k+1) = 35 ≤ n - t - k: n = 40, t = 2: 35 ≤ 36 ✓.
        let n = 40;
        let k = 2;
        let order = identity_order(n);
        let honest_inputs: Vec<u64> = (0..n - 2).map(|i| (i % 2) as u64).collect();
        let honest: BTreeMap<ProcessId, UnauthBaWithClassification> = honest_inputs
            .iter()
            .enumerate()
            .map(|(slot, &v)| {
                let id = ProcessId(slot as u32 + 2); // p0, p1 faulty
                (
                    id,
                    UnauthBaWithClassification::new(id, n, k, Value(v), Arc::clone(&order)),
                )
            })
            .collect();
        // The faulty pair equivocates inside the first-phase GC votes.
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Alg5Msg>| {
            if ctx.round == 0 {
                for from in [0u32, 1] {
                    for to in 0..ctx.n as u32 {
                        let v = Value(u64::from(to % 2));
                        ctx.send(
                            ProcessId(from),
                            ProcessId(to),
                            Alg5Msg::First {
                                phase: 0,
                                inner: Arc::new(CoreSetGcMsg::Input(v)),
                            },
                        );
                    }
                }
            }
        });
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(UnauthBaWithClassification::rounds(k) + 2);
        assert!(report.all_decided(), "must return within 5(2k+1) rounds");
        let first = report.outputs.values().next().unwrap().value;
        assert!(
            report.outputs.values().all(|o| o.value == first),
            "agreement under kA ≤ k"
        );
    }

    #[test]
    fn round_bound_holds_even_when_condition_fails() {
        // k = 1 but 5 faults (kA > k): no correctness guarantee, but
        // everyone still returns within 5(2k+1) = 15 rounds.
        let n = 15;
        let k = 1;
        let order = identity_order(n);
        let mut runner = Runner::new(n, system(n, k, &[1; 10], &order), SilentAdversary);
        let report = runner.run(60);
        assert!(report.all_decided());
        assert!(report.last_decision_round.unwrap() <= UnauthBaWithClassification::rounds(k) + 1);
    }

    #[test]
    fn per_process_message_bound_5n() {
        let n = 15;
        let order = identity_order(n);
        let mut runner = Runner::new(n, system(n, 1, &[3; 15], &order), SilentAdversary);
        let report = runner.run(40);
        for (&id, &count) in &report.messages_per_process {
            assert!(count <= 5 * n as u64, "{id} sent {count} > 5n");
        }
    }

    #[test]
    fn only_listen_block_members_ever_send() {
        // Theorem 5's message total O(nk²) comes from at most
        // (2k+1)(3k+1) + k processes sending at all.
        let n = 20;
        let k = 1;
        let order = identity_order(n);
        let mut runner = Runner::new(n, system(n, k, &[9; 20], &order), SilentAdversary);
        let report = runner.run(40);
        let senders = report
            .messages_per_process
            .values()
            .filter(|&&c| c > 0)
            .count();
        assert!(
            senders <= (2 * k + 1) * (3 * k + 1) + k,
            "{senders} senders exceed the Theorem 5 bound"
        );
    }

    #[test]
    fn early_decision_returns_one_phase_later() {
        // Unanimous inputs: decision at the end of phase 1, return at the
        // end of phase 2 (paper Lemma 16) — i.e. around round 10.
        let n = 15;
        let order = identity_order(n);
        let mut runner = Runner::new(n, system(n, 1, &[2; 15], &order), SilentAdversary);
        let report = runner.run(40);
        let last = report.last_decision_round.unwrap();
        assert!(
            last <= 11,
            "unanimity should return by the end of phase 2, got round {last}"
        );
    }

    #[test]
    fn structural_validity_check() {
        assert!(UnauthBaWithClassification::is_structurally_valid(12, 1));
        assert!(!UnauthBaWithClassification::is_structurally_valid(11, 1));
        assert!(UnauthBaWithClassification::condition_holds(40, 2, 2));
        assert!(!UnauthBaWithClassification::condition_holds(20, 6, 2));
    }

    #[test]
    fn cross_phase_replay_is_ignored() {
        // A faulty process replays phase-0 GC traffic tagged for phase 1;
        // honest processes must not route it into live sub-protocols of
        // other phases — unanimity must be preserved.
        let n = 15;
        let order = identity_order(n);
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Alg5Msg>| {
            if ctx.round >= 5 && ctx.round <= 9 {
                ctx.broadcast(
                    ProcessId(14),
                    Alg5Msg::First {
                        phase: 0,
                        inner: Arc::new(CoreSetGcMsg::Input(Value(999))),
                    },
                );
            }
        });
        let mut runner = Runner::new(n, system(n, 1, &[4; 14], &order), adv);
        let report = runner.run(40);
        for o in report.outputs.values() {
            assert_eq!(o.value, Value(4));
        }
    }
}
