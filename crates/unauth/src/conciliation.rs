//! Algorithm 4 — Conciliation with Core Set (§7.2).
//!
//! A single round in which listen-set members broadcast `(vᵢ, Lᵢ)`; every
//! process then builds the *leader graph* on the senders it heard from —
//! an edge `(y, z)` whenever `y ∈ L_z` — and, for each `z ∈ Tᵢ ∩ Lᵢ`,
//! computes `mᵢ[z]`, the minimum input among processes `y` with `y ∈ L_y`
//! that reach `z` in the graph. The returned value is the one occurring
//! most often among `{mᵢ[z]}` (ties toward the smallest value; an empty
//! reachable set contributes nothing, and an empty multiset falls back to
//! the process's own input — both edge cases are deviations of this
//! reproduction).
//!
//! Guarantees (Lemmas 10–14), *under the conditions* that every honest
//! `Lᵢ` has size `3k+1`, contains only honest processes, and shares a
//! core `G` (`|G| ≥ 2k+1`, `G ⊆ Lᵢ` for all honest `i`):
//!
//! * **Agreement** — all honest processes return the same value;
//! * **Strong Unanimity** — if all honest inputs equal `v`, they return
//!   `v`.

use crate::ListenSet;
use ba_sim::{Envelope, Outbox, Process, ProcessId, Tally, Value, WireSize};
use std::collections::BTreeMap;

/// The single message of Algorithm 4: a member's input and claimed listen
/// set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcMsg {
    /// The sender's current proposal `v`.
    pub value: Value,
    /// The sender's claimed listen set `L` (sorted identifiers).
    pub listen: Vec<ProcessId>,
}

impl WireSize for ConcMsg {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.listen.wire_bytes()
    }
}

/// One process's state machine for Algorithm 4.
///
/// # Examples
///
/// ```
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use ba_unauth::{Conciliation, ListenSet};
///
/// let listen: ListenSet = (0..4u32).map(ProcessId).collect();
/// let procs: Vec<_> = (0..5u32)
///     .map(|i| Conciliation::new(ProcessId(i), 5, 1, Value(i as u64), listen.clone()))
///     .collect();
/// let mut runner = Runner::new(5, procs, SilentAdversary);
/// let report = runner.run(3);
/// // All listen sets honest and identical: agreement on the minimum
/// // reachable input.
/// assert!(report.agreement());
/// ```
#[derive(Clone, Debug)]
pub struct Conciliation {
    me: ProcessId,
    input: Value,
    listen: ListenSet,
    out: Option<Value>,
}

impl Conciliation {
    /// Number of communication rounds.
    pub const ROUNDS: u64 = 1;

    /// Creates the state machine (requires `|L| = 3k + 1`).
    pub fn new(me: ProcessId, n: usize, k: usize, input: Value, listen: ListenSet) -> Self {
        assert_eq!(listen.len(), 3 * k + 1, "Algorithm 4 requires |L| = 3k + 1");
        assert!(listen.iter().all(|p| p.index() < n));
        Conciliation {
            me,
            input,
            listen,
            out: None,
        }
    }

    /// Computes the conciliation value from the received `(v, L)` claims.
    ///
    /// Exposed for white-box tests of the leader-graph construction.
    pub fn evaluate(&self, claims: &BTreeMap<ProcessId, ConcMsg>) -> Value {
        // T_i: senders we heard from. E_i: (y, z) with y ∈ L_z.
        // Predecessor list per z (for reverse reachability).
        let preds: BTreeMap<ProcessId, Vec<ProcessId>> = claims
            .iter()
            .map(|(&z, msg)| {
                let ps = claims
                    .keys()
                    .copied()
                    .filter(|y| *y != z && msg.listen.binary_search(y).is_ok())
                    .collect();
                (z, ps)
            })
            .collect();

        let mut tally: Tally<Value> = Tally::new();
        for z in claims.keys().copied().filter(|z| self.listen.contains(*z)) {
            // Reverse BFS from z: everything that reaches z (reflexively).
            let mut visited: Vec<ProcessId> = vec![z];
            let mut frontier = vec![z];
            while let Some(cur) = frontier.pop() {
                for &y in preds.get(&cur).into_iter().flatten() {
                    if !visited.contains(&y) {
                        visited.push(y);
                        frontier.push(y);
                    }
                }
            }
            // m_i[z] = min input among reaching y with y ∈ L_y.
            let m = visited
                .iter()
                .filter_map(|y| {
                    let claim = &claims[y];
                    claim.listen.binary_search(y).is_ok().then_some(claim.value)
                })
                .min();
            if let Some(m) = m {
                tally.add(m);
            }
        }
        tally.plurality().copied().unwrap_or(self.input)
    }
}

impl Process for Conciliation {
    type Msg = ConcMsg;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<ConcMsg>], out: &mut Outbox<ConcMsg>) {
        match round {
            0 if self.listen.contains(self.me) => {
                out.broadcast(ConcMsg {
                    value: self.input,
                    listen: self.listen.as_slice().to_vec(),
                });
            }
            1 => {
                // First message per sender wins; listen claims must be
                // sorted for binary search (sort defensively — a faulty
                // sender may claim an unsorted set).
                let mut claims: BTreeMap<ProcessId, ConcMsg> = BTreeMap::new();
                for env in inbox {
                    claims.entry(env.from).or_insert_with(|| {
                        let mut msg = (*env.payload).clone();
                        msg.listen.sort_unstable();
                        msg.listen.dedup();
                        msg
                    });
                }
                self.out = Some(self.evaluate(&claims));
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Value> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_sim::{AdversaryCtx, FnAdversary, Runner, SilentAdversary};

    fn listen(ids: &[u32]) -> ListenSet {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn system(n: usize, k: usize, inputs: &[u64], l: &ListenSet) -> Vec<Conciliation> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| Conciliation::new(ProcessId(i as u32), n, k, Value(v), l.clone()))
            .collect()
    }

    #[test]
    fn lemma14_strong_unanimity() {
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(5, system(5, 1, &[4; 5], &l), SilentAdversary);
        let report = runner.run(3);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)));
    }

    #[test]
    fn lemma13_agreement_with_honest_listen_sets() {
        // Conditions hold (all of L honest, G = L): agreement even with
        // mixed inputs.
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(5, system(5, 1, &[9, 2, 7, 5, 1], &l), SilentAdversary);
        let report = runner.run(3);
        assert!(report.agreement());
        // The min over the strongly-connected core {0..3} is 2; p4's input
        // 1 is outside every listen set and must not win.
        assert_eq!(report.decision(), Some(&Value(2)));
    }

    #[test]
    fn faulty_claims_outside_core_do_not_break_agreement() {
        // p4 (faulty) is outside every honest L, broadcasts a bogus claim
        // listing itself; condition "L_i ⊆ H" still holds for honest sets,
        // so agreement must hold regardless.
        let l = listen(&[0, 1, 2, 3]);
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, ConcMsg>| {
            if ctx.round == 0 {
                ctx.broadcast(
                    ProcessId(4),
                    ConcMsg {
                        value: Value(0),
                        listen: vec![ProcessId(4), ProcessId(0)],
                    },
                );
            }
        });
        let mut runner = Runner::new(5, system(5, 1, &[6, 6, 3, 6], &l), adv);
        let report = runner.run(3);
        assert!(report.agreement());
        // p4's self-loop claim reaches no z ∈ L_i of honest processes...
        // it *can* reach z if z's claimed L contains 4 — it doesn't. The
        // bogus minimum 0 must therefore never be returned.
        assert_ne!(report.decision(), Some(&Value(0)));
    }

    #[test]
    fn lemma10_only_broadcasters_in_own_set_count() {
        // A sender y with y ∉ L_y contributes no m-value even if it
        // reaches z. Build claims manually.
        let me = ProcessId(0);
        let conc = Conciliation::new(me, 5, 1, Value(50), listen(&[0, 1, 2, 3]));
        let mut claims = BTreeMap::new();
        // y = 4 claims L = {0,1,2} (4 ∉ L_4): its value 1 must not count.
        claims.insert(
            ProcessId(4),
            ConcMsg {
                value: Value(1),
                listen: vec![ProcessId(0), ProcessId(1), ProcessId(2)],
            },
        );
        // z = 0 claims L containing 4, creating edge (4, 0).
        claims.insert(
            ProcessId(0),
            ConcMsg {
                value: Value(9),
                listen: vec![ProcessId(0), ProcessId(1), ProcessId(4)],
            },
        );
        let v = conc.evaluate(&claims);
        assert_eq!(v, Value(9), "only y ∈ L_y values feed the minimum");
    }

    #[test]
    fn empty_reachable_sets_fall_back_to_own_input() {
        let me = ProcessId(2);
        let conc = Conciliation::new(me, 5, 1, Value(42), listen(&[0, 1, 2, 3]));
        let claims = BTreeMap::new();
        assert_eq!(conc.evaluate(&claims), Value(42));
    }

    #[test]
    fn reachability_is_transitive() {
        // Chain: 3 → 1 → 0 (edges via listen claims); z = 0 must see the
        // input of 3.
        let me = ProcessId(0);
        let conc = Conciliation::new(me, 5, 1, Value(99), listen(&[0, 1, 2, 3]));
        let mut claims = BTreeMap::new();
        claims.insert(
            ProcessId(0),
            ConcMsg {
                value: Value(50),
                listen: vec![ProcessId(0), ProcessId(1)],
            },
        );
        claims.insert(
            ProcessId(1),
            ConcMsg {
                value: Value(60),
                listen: vec![ProcessId(1), ProcessId(3)],
            },
        );
        claims.insert(
            ProcessId(3),
            ConcMsg {
                value: Value(5),
                listen: vec![ProcessId(3)],
            },
        );
        // Reachable into z=0: {0, 1, 3}; all have y ∈ L_y; min = 5.
        // z=1: {1, 3} min 5; z=3: {3} min 5. Plurality = 5.
        assert_eq!(conc.evaluate(&claims), Value(5));
    }

    #[test]
    fn ties_break_toward_smallest_value() {
        let me = ProcessId(0);
        let conc = Conciliation::new(me, 1, 0, Value(7), listen(&[0]));
        // Single-member listen set: one z with min = its own value.
        let mut claims = BTreeMap::new();
        claims.insert(
            ProcessId(0),
            ConcMsg {
                value: Value(3),
                listen: vec![ProcessId(0)],
            },
        );
        assert_eq!(conc.evaluate(&claims), Value(3));
    }

    #[test]
    fn non_members_send_nothing() {
        let l = listen(&[0, 1, 2, 3]);
        let mut runner = Runner::new(6, system(6, 1, &[1; 6], &l), SilentAdversary);
        let report = runner.run(3);
        assert_eq!(report.messages_per_process[&ProcessId(4)], 0);
        assert_eq!(report.messages_per_process[&ProcessId(5)], 0);
    }
}
