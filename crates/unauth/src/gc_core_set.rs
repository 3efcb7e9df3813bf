//! Algorithm 3 — Unauthenticated Graded Consensus with Core Set (§7.1).
//!
//! Each process `pᵢ` gets an input `vᵢ`, the error bound `k`, and a listen
//! set `Lᵢ` of `3k + 1` identifiers. Messages from processes outside `Lᵢ`
//! are ignored. Strong Unanimity and Coherence are guaranteed *under the
//! core-set condition*: there exists `G ⊆ H`, `|G| ≥ 2k + 1`, with
//! `G ⊆ Lᵢ` for every honest `pᵢ` (Lemmas 7–9 of the paper; the lemma
//! statements are re-verified in this module's tests and in the crate's
//! property suite).
//!
//! Pseudocode transcription:
//!
//! ```text
//! Round 1: if i ∈ Lᵢ then broadcast vᵢ
//!          Rᵢ ← values received from Lᵢ
//!          bᵢ ← v  if some v occurs ≥ 2k+1 times in Rᵢ, else ⊥
//! Round 2: if i ∈ Lᵢ and bᵢ ≠ ⊥ then broadcast bᵢ
//!          R'ᵢ ← values received from Lᵢ
//!          if bᵢ ≠ ⊥ : return (bᵢ, 1) if bᵢ occurs ≥ 2k+1 times in R'ᵢ
//!                      else (bᵢ, 0)
//!          else      : return (v', 0) if some v' occurs ≥ k+1 times in R'ᵢ
//!                      else (vᵢ, 0)
//! ```
//!
//! Output grades are the paper's two-level `{0, 1}` (exposed through
//! [`ba_graded::Graded`] with grade ∈ {0, 2} so the wrapper-facing
//! convention `paper_grade() = 1 ⇔ grade == 2` is uniform across all
//! graded primitives in this repository).

use crate::ListenSet;
use ba_graded::Graded;
use ba_sim::{distinct_values_by_sender, Envelope, Outbox, Process, Tally, Value, WireSize};

/// Messages of Algorithm 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreSetGcMsg {
    /// Round-1 input broadcast.
    Input(Value),
    /// Round-2 binding broadcast.
    Binding(Value),
}

/// A discriminant byte plus the carried value.
impl WireSize for CoreSetGcMsg {
    fn wire_bytes(&self) -> u64 {
        let (CoreSetGcMsg::Input(v) | CoreSetGcMsg::Binding(v)) = self;
        1 + v.wire_bytes()
    }
}

/// One process's state machine for Algorithm 3.
///
/// # Examples
///
/// ```
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use ba_unauth::{CoreSetGraded, ListenSet};
///
/// // n = 5, k = 1, everyone listens to {0,1,2,3} (3k+1 = 4 ids).
/// let listen: ListenSet = (0..4u32).map(ProcessId).collect();
/// let procs: Vec<_> = (0..5u32)
///     .map(|i| CoreSetGraded::new(ProcessId(i), 5, 1, Value(3), listen.clone()))
///     .collect();
/// let mut runner = Runner::new(5, procs, SilentAdversary);
/// let report = runner.run(4);
/// for g in report.outputs.values() {
///     assert_eq!(g.value, Value(3));
///     assert_eq!(g.paper_grade(), 1);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CoreSetGraded {
    me: ba_sim::ProcessId,
    k: usize,
    input: Value,
    listen: ListenSet,
    binding: Option<Value>,
    out: Option<Graded>,
}

impl CoreSetGraded {
    /// Number of communication rounds.
    pub const ROUNDS: u64 = 2;

    /// Creates the state machine.
    ///
    /// `listen` is this process's `Lᵢ`; the guarantees require
    /// `|Lᵢ| = 3k + 1` for every honest process, which is asserted here.
    pub fn new(me: ba_sim::ProcessId, n: usize, k: usize, input: Value, listen: ListenSet) -> Self {
        assert_eq!(listen.len(), 3 * k + 1, "Algorithm 3 requires |L| = 3k + 1");
        assert!(listen.iter().all(|p| p.index() < n));
        CoreSetGraded {
            me,
            k,
            input,
            listen,
            binding: None,
            out: None,
        }
    }

    /// The binding `bᵢ` after round 1 (for white-box tests).
    pub fn binding(&self) -> Option<Value> {
        self.binding
    }

    fn tally_from_listen(
        &self,
        inbox: &[Envelope<CoreSetGcMsg>],
        want_binding: bool,
    ) -> Tally<Value> {
        let values = distinct_values_by_sender(inbox, |m| match (m, want_binding) {
            (CoreSetGcMsg::Input(v), false) => Some(*v),
            (CoreSetGcMsg::Binding(v), true) => Some(*v),
            _ => None,
        });
        values
            .into_iter()
            .filter(|(from, _)| self.listen.contains(*from))
            .map(|(_, v)| v)
            .collect()
    }
}

impl Process for CoreSetGraded {
    type Msg = CoreSetGcMsg;
    type Output = Graded;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<CoreSetGcMsg>],
        out: &mut Outbox<CoreSetGcMsg>,
    ) {
        let k = self.k;
        match round {
            0 if self.listen.contains(self.me) => {
                out.broadcast(CoreSetGcMsg::Input(self.input));
            }
            1 => {
                let tally = self.tally_from_listen(inbox, false);
                self.binding = tally.first_reaching(2 * k + 1).copied();
                if self.listen.contains(self.me) {
                    if let Some(b) = self.binding {
                        out.broadcast(CoreSetGcMsg::Binding(b));
                    }
                }
            }
            2 => {
                let tally = self.tally_from_listen(inbox, true);
                let graded = match self.binding {
                    Some(b) => {
                        if tally.count(&b) > 2 * k {
                            Graded::new(b, 2)
                        } else {
                            Graded::new(b, 0)
                        }
                    }
                    None => match tally.first_reaching(k + 1) {
                        Some(&v) => Graded::new(v, 0),
                        None => Graded::new(self.input, 0),
                    },
                };
                self.out = Some(graded);
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Graded> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, SilentAdversary};

    fn listen(ids: &[u32]) -> ListenSet {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn system(n: usize, k: usize, inputs: &[u64], l: &ListenSet) -> Vec<CoreSetGraded> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| CoreSetGraded::new(ProcessId(i as u32), n, k, Value(v), l.clone()))
            .collect()
    }

    #[test]
    fn lemma8_strong_unanimity() {
        // k = 1, |L| = 4, core G = L (all honest): unanimous inputs return
        // (v, paper-grade 1).
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(6, system(6, 1, &[7; 6], &l), SilentAdversary);
        let report = runner.run(4);
        for g in report.outputs.values() {
            assert_eq!(g.value, Value(7));
            assert_eq!(g.paper_grade(), 1);
        }
    }

    #[test]
    fn lemma7_bindings_agree() {
        // Mixed inputs: at most one value can be bound across all honest
        // processes. Inputs: four 1s among the listen set of five... here
        // k=1, |L|=4. L = {0,1,2,3} inputs 1,1,1,9 → counts: 1×3 ≥ 2k+1=3
        // so binding must be 1 (or none), never 9.
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(5, system(5, 1, &[1, 1, 1, 9, 9], &l), SilentAdversary);
        let report = runner.run(4);
        for g in report.outputs.values() {
            assert_ne!(g.value, Value(9));
        }
    }

    #[test]
    fn lemma9_coherence_under_partial_faults() {
        // n = 6, k = 1, L = {0,1,2,3}; p3 is faulty and equivocates in
        // both rounds. If any honest process returns grade 1 on v, every
        // honest process must return value v.
        let l = listen(&[0, 1, 2, 3]);
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, CoreSetGcMsg>| match ctx.round {
            0 => {
                ctx.send(ProcessId(3), ProcessId(0), CoreSetGcMsg::Input(Value(4)));
                ctx.send(ProcessId(3), ProcessId(1), CoreSetGcMsg::Input(Value(4)));
                ctx.send(ProcessId(3), ProcessId(2), CoreSetGcMsg::Input(Value(8)));
            }
            1 => {
                ctx.send(ProcessId(3), ProcessId(2), CoreSetGcMsg::Binding(Value(8)));
            }
            _ => {}
        });
        let honest: Vec<CoreSetGraded> = [4u64, 4, 4, /* p3 faulty */ 0, 4, 4]
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(i, &v)| CoreSetGraded::new(ProcessId(i as u32), 6, 1, Value(v), l.clone()))
            .collect();
        let mut map = std::collections::BTreeMap::new();
        for (slot, p) in honest.into_iter().enumerate() {
            let id = if slot < 3 { slot } else { slot + 1 };
            map.insert(ProcessId(id as u32), p);
        }
        let mut runner = Runner::with_ids(6, map, adv);
        let report = runner.run(4);
        let outs: Vec<&Graded> = report.outputs.values().collect();
        if let Some(committed) = outs.iter().find(|g| g.paper_grade() == 1) {
            assert!(outs.iter().all(|g| g.value == committed.value));
        }
    }

    #[test]
    fn messages_only_from_listen_set_members() {
        // Processes outside L never broadcast; members broadcast at most
        // twice.
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(6, system(6, 1, &[5; 6], &l), SilentAdversary);
        let report = runner.run(4);
        for (id, &count) in &report.messages_per_process {
            if l.contains(*id) {
                assert!(count <= 2 * 5, "member {id} sent {count}");
                assert!(count > 0);
            } else {
                assert_eq!(count, 0, "non-member {id} must stay silent");
            }
        }
    }

    #[test]
    fn ignores_messages_from_outside_listen_set() {
        // A faulty process outside L floods value 9; it must not affect
        // outputs even at the k+1 = 2 adoption threshold.
        let l = listen(&[0, 1, 2, 3]);
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, CoreSetGcMsg>| {
            if ctx.round <= 1 {
                ctx.broadcast(ProcessId(4), CoreSetGcMsg::Input(Value(9)));
                ctx.broadcast(ProcessId(4), CoreSetGcMsg::Binding(Value(9)));
                ctx.broadcast(ProcessId(5), CoreSetGcMsg::Binding(Value(9)));
            }
        });
        let mut runner = Runner::new(6, system(6, 1, &[2, 2, 2, 2], &l), adv);
        let report = runner.run(4);
        for g in report.outputs.values() {
            assert_eq!((g.value, g.paper_grade()), (Value(2), 1));
        }
    }

    #[test]
    fn adoption_path_uses_k_plus_1_threshold() {
        // p4 (outside L, honest, input 0) has binding = None and must
        // adopt the value echoed by ≥ k+1 listen-set members.
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(5, system(5, 1, &[6, 6, 6, 6, 0], &l), SilentAdversary);
        let report = runner.run(4);
        let g4 = &report.outputs[&ProcessId(4)];
        assert_eq!(g4.value, Value(6));
    }

    #[test]
    #[should_panic(expected = "3k + 1")]
    fn wrong_listen_set_size_rejected() {
        let _ = CoreSetGraded::new(ProcessId(0), 5, 1, Value(0), listen(&[0, 1, 2]));
    }
}
