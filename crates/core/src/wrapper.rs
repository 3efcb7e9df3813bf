//! Algorithm 1 — Byzantine Agreement with Predictions (§5, §9).
//!
//! `ba-with-predictions(xᵢ, aᵢ)`:
//!
//! ```text
//!  1: cᵢ ← classify(aᵢ)                                  (Algorithm 2)
//!  4: for φ ← 1 to ⌈log₂ t⌉ + 1:
//!  6:   (vᵢ, gᵢ) ← graded-consensus(vᵢ)
//!  7:   v'ᵢ ← ba-early-stopping(vᵢ, T)
//!  8:   if gᵢ = 0 then vᵢ ← v'ᵢ
//!  9:   (vᵢ, gᵢ) ← graded-consensus(vᵢ)
//! 10:   v'ᵢ ← ba-with-classification(vᵢ, cᵢ, 2^{φ−1}, T)
//! 11:   if gᵢ = 0 then vᵢ ← v'ᵢ
//! 12:   (vᵢ, gᵢ) ← graded-consensus(vᵢ)
//! 13:   if decidedᵢ then return decisionᵢ
//! 14:   if gᵢ = 1 then { decisionᵢ ← vᵢ; decidedᵢ ← true }
//! 17: return decisionᵢ
//! ```
//!
//! One state machine, [`Wrapper`], runs this loop over a
//! [`SubProtocols`] set. The paper instantiates it twice:
//!
//! | alias | set | resilience | graded consensus | early stopping | conditional BA |
//! |---|---|---|---|---|---|
//! | [`UnauthWrapper`] | [`Unauth`] (§7, Theorem 11) | `3t < n` | [`UnauthGraded`] (S2) | [`EsUnauth`] (S4) | Algorithm 5 |
//! | [`AuthWrapper`] | [`Auth`] (§8, Theorem 12) | `2t < n` | [`AuthGraded`] (S3) | [`TruncatedDs`] (S5) | Algorithm 7 |
//!
//! Safety rests *only* on the unconditional graded consensus: the
//! early-stopping and classification sub-protocols may return garbage in
//! phases whose preconditions fail, but a garbage value is adopted only
//! at grade 0, and grade-1 coherence pins every adopted decision
//! (Lemmas 28–31 of the paper). Performance comes from whichever
//! sub-protocol's condition fires first — `O(min{B/n + 1, f})` phases'
//! worth of doubling budgets (Theorems 11 and 12).
//!
//! Because Algorithm 7 only needs `2k + 1 ≤ n − t − k`, the §8 set keeps
//! paying off up to `B = Θ(n²)` — the paper's headline difference from
//! the §7 set, whose Algorithm 5 slots need `(2k + 1)(3k + 1) ≤ n`. Every
//! §8 signature is domain-separated by the slot index (the session
//! tag), so harvesting signatures from one sub-protocol and replaying
//! them into another is useless.

use crate::bitvec::BitVec;
use crate::classify::Classify;
use crate::ordering::pi_order;
use crate::schedule::{Schedule, Slot, SlotKind};
use ba_auth::AuthBaWithClassification;
use ba_crypto::{Pki, SigningKey};
use ba_early::{EsUnauth, TruncatedDs};
use ba_graded::{AuthGraded, Graded, UnauthGraded};
use ba_sim::{step_sub, Envelope, Outbox, Process, ProcessId, Value, WireSize};
use ba_unauth::UnauthBaWithClassification;
use std::fmt::Debug;
use std::sync::Arc;

/// Where one sub-protocol instance runs: the process, the system, the
/// slot (the session tag of signed sub-protocols) and the slot's input.
#[derive(Clone, Copy, Debug)]
pub struct SlotInput {
    /// The process the instance belongs to.
    pub me: ProcessId,
    /// System size.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Slot index in the [`Schedule`].
    pub slot: u16,
    /// The wrapper's current value `vᵢ`.
    pub value: Value,
}

/// The sub-protocols Algorithm 1 is instantiated with: their types,
/// their round counts (which fix the [`Schedule`]), and one constructor
/// per slot kind.
pub trait SubProtocols {
    /// Graded consensus (lines 6, 9, 12).
    type Gc: Process<Output = Graded, Msg: Debug>;
    /// Early-stopping BA with fault budget `k` (line 7).
    type Es: Process<Output = Value, Msg: Debug>;
    /// Conditional BA with classification and budget `k` (line 10).
    type Class: Process<Msg: Debug>;

    /// The instantiated wrapper's name, for `Debug` output.
    const NAME: &'static str;
    /// Rounds of one graded-consensus slot.
    const GC_ROUNDS: u64;

    /// Panics unless `(n, t)` is within the set's resilience.
    fn assert_resilience(n: usize, t: usize);
    /// Rounds of one early-stopping slot with budget `k`.
    fn es_rounds(n: usize, t: usize, k: usize) -> u64;
    /// Rounds of one conditional-BA slot with budget `k`, or `None`
    /// when budget `k` does not fit `n`.
    fn class_rounds(n: usize, k: usize) -> Option<u64>;

    /// A graded-consensus instance.
    fn graded(&self, at: SlotInput) -> Self::Gc;
    /// An early-stopping instance with budget `k`.
    fn early(&self, at: SlotInput, k: usize) -> Self::Es;
    /// A conditional-BA instance with budget `k` over the priority
    /// order `π(cᵢ)`.
    fn conditional(&self, at: SlotInput, k: usize, order: Arc<Vec<ProcessId>>) -> Self::Class;
    /// The value a conditional-BA output hands back to line 11.
    fn class_value(out: <Self::Class as Process>::Output) -> Value;
}

/// The unauthenticated sub-protocols of §7 (Theorem 11, `3t < n`).
#[derive(Clone, Copy, Debug)]
pub struct Unauth;

impl SubProtocols for Unauth {
    type Gc = UnauthGraded;
    type Es = EsUnauth;
    type Class = UnauthBaWithClassification;

    const NAME: &'static str = "UnauthWrapper";
    const GC_ROUNDS: u64 = UnauthGraded::ROUNDS;

    fn assert_resilience(n: usize, t: usize) {
        assert!(3 * t < n, "the unauthenticated pipeline needs 3t < n");
    }

    fn es_rounds(n: usize, t: usize, k: usize) -> u64 {
        EsUnauth::rounds(n, t, k)
    }

    fn class_rounds(n: usize, k: usize) -> Option<u64> {
        UnauthBaWithClassification::is_structurally_valid(n, k)
            .then(|| UnauthBaWithClassification::rounds(k))
    }

    fn graded(&self, at: SlotInput) -> UnauthGraded {
        UnauthGraded::new(at.me, at.n, at.t, at.value)
    }

    fn early(&self, at: SlotInput, k: usize) -> EsUnauth {
        EsUnauth::new(at.me, at.n, at.t, k, at.value)
    }

    fn conditional(
        &self,
        at: SlotInput,
        k: usize,
        order: Arc<Vec<ProcessId>>,
    ) -> UnauthBaWithClassification {
        UnauthBaWithClassification::new(at.me, at.n, k, at.value, order)
    }

    fn class_value(out: ba_unauth::PhaseOutput) -> Value {
        out.value
    }
}

/// The authenticated sub-protocols of §8 (Theorem 12, `2t < n`),
/// signing with one process's key; the slot index is every instance's
/// session tag.
#[derive(Clone, Debug)]
pub struct Auth {
    pki: Arc<Pki>,
    key: SigningKey,
}

impl SubProtocols for Auth {
    type Gc = AuthGraded;
    type Es = TruncatedDs;
    type Class = AuthBaWithClassification;

    const NAME: &'static str = "AuthWrapper";
    const GC_ROUNDS: u64 = AuthGraded::ROUNDS;

    fn assert_resilience(n: usize, t: usize) {
        assert!(2 * t < n, "the authenticated pipeline needs t < n/2");
    }

    fn es_rounds(_n: usize, t: usize, k: usize) -> u64 {
        TruncatedDs::rounds(k.min(t))
    }

    fn class_rounds(n: usize, k: usize) -> Option<u64> {
        (2 * k < n).then(|| AuthBaWithClassification::rounds(k))
    }

    fn graded(&self, at: SlotInput) -> AuthGraded {
        AuthGraded::new(
            at.me,
            at.n,
            at.t,
            u64::from(at.slot),
            at.value,
            Arc::clone(&self.pki),
            self.key.clone(),
        )
    }

    fn early(&self, at: SlotInput, k: usize) -> TruncatedDs {
        TruncatedDs::new(
            at.me,
            at.n,
            at.t,
            k.min(at.t),
            u64::from(at.slot),
            at.value,
            Arc::clone(&self.pki),
            self.key.clone(),
        )
    }

    fn conditional(
        &self,
        at: SlotInput,
        k: usize,
        order: Arc<Vec<ProcessId>>,
    ) -> AuthBaWithClassification {
        AuthBaWithClassification::new(
            at.me,
            at.n,
            at.t,
            k,
            u64::from(at.slot),
            at.value,
            order,
            Arc::clone(&self.pki),
            self.key.clone(),
        )
    }

    fn class_value(out: Value) -> Value {
        out
    }
}

/// Messages of a [`Wrapper`], tagged by slot.
pub enum WrapperMsg<C: SubProtocols> {
    /// Algorithm 2 traffic.
    Classify(Arc<BitVec>),
    /// Graded-consensus traffic of one slot.
    Gc {
        /// Slot index (the session tag of signed sub-protocols).
        slot: u16,
        /// Inner payload.
        inner: Arc<<C::Gc as Process>::Msg>,
    },
    /// Early-stopping traffic of one slot.
    Es {
        /// Slot index.
        slot: u16,
        /// Inner payload.
        inner: Arc<<C::Es as Process>::Msg>,
    },
    /// Conditional-BA traffic of one slot.
    Class {
        /// Slot index.
        slot: u16,
        /// Inner payload.
        inner: Arc<<C::Class as Process>::Msg>,
    },
}

/// Messages of the unauthenticated wrapper.
pub type UnauthWrapperMsg = WrapperMsg<Unauth>;
/// Messages of the authenticated wrapper.
pub type AuthWrapperMsg = WrapperMsg<Auth>;

// Written out because derives would demand `Clone`/`Debug` of the
// sub-protocol processes, not just of their messages.
impl<C: SubProtocols> Clone for WrapperMsg<C> {
    fn clone(&self) -> Self {
        match self {
            WrapperMsg::Classify(bits) => WrapperMsg::Classify(Arc::clone(bits)),
            WrapperMsg::Gc { slot, inner } => WrapperMsg::Gc {
                slot: *slot,
                inner: Arc::clone(inner),
            },
            WrapperMsg::Es { slot, inner } => WrapperMsg::Es {
                slot: *slot,
                inner: Arc::clone(inner),
            },
            WrapperMsg::Class { slot, inner } => WrapperMsg::Class {
                slot: *slot,
                inner: Arc::clone(inner),
            },
        }
    }
}

impl<C: SubProtocols> Debug for WrapperMsg<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slotted = |f: &mut std::fmt::Formatter<'_>, name, slot, inner: &dyn Debug| {
            f.debug_struct(name)
                .field("slot", slot)
                .field("inner", inner)
                .finish()
        };
        match self {
            WrapperMsg::Classify(bits) => f.debug_tuple("Classify").field(bits).finish(),
            WrapperMsg::Gc { slot, inner } => slotted(f, "Gc", slot, inner),
            WrapperMsg::Es { slot, inner } => slotted(f, "Es", slot, inner),
            WrapperMsg::Class { slot, inner } => slotted(f, "Class", slot, inner),
        }
    }
}

/// A discriminant byte, the slot tag where present, and the inner
/// payload.
impl<C: SubProtocols> WireSize for WrapperMsg<C> {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            WrapperMsg::Classify(bits) => bits.wire_bytes(),
            WrapperMsg::Gc { slot, inner } => slot.wire_bytes() + inner.wire_bytes(),
            WrapperMsg::Es { slot, inner } => slot.wire_bytes() + inner.wire_bytes(),
            WrapperMsg::Class { slot, inner } => slot.wire_bytes() + inner.wire_bytes(),
        }
    }
}

enum Active<C: SubProtocols> {
    Classify(Classify),
    Gc(C::Gc),
    Es(C::Es),
    Class(C::Class),
    /// Between slots.
    None,
}

/// One process's state machine for `ba-with-predictions` over the
/// sub-protocol set `C`.
///
/// The schedule (and therefore the exact number of rounds) is a pure
/// function of `(n, t)`: [`Wrapper::schedule`].
pub struct Wrapper<C: SubProtocols> {
    me: ProcessId,
    n: usize,
    t: usize,
    sub: C,
    schedule: Schedule,
    cursor: usize,
    value: Value,
    grade: u8,
    decision: Option<Value>,
    order: Option<Arc<Vec<ProcessId>>>,
    classification: Option<BitVec>,
    active: Active<C>,
    returned: bool,
}

/// Algorithm 1 over the §7 sub-protocols (Theorem 11, `3t < n`).
pub type UnauthWrapper = Wrapper<Unauth>;
/// Algorithm 1 over the §8 sub-protocols (Theorem 12, `2t < n`).
pub type AuthWrapper = Wrapper<Auth>;

impl<C: SubProtocols> Debug for Wrapper<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(C::NAME)
            .field("me", &self.me)
            .field("value", &self.value)
            .field("decision", &self.decision)
            .field("returned", &self.returned)
            .finish_non_exhaustive()
    }
}

impl Wrapper<Unauth> {
    /// Creates the state machine for process `me`.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` (Theorem 11's resilience) and the
    /// prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        Self::with(Unauth, me, n, t, input, prediction)
    }
}

impl Wrapper<Auth> {
    /// Creates the state machine for process `me`, signing with `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `2t < n`, the prediction has `n` bits, and `key`
    /// belongs to `me`.
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        assert_eq!(key.id(), me.0);
        Self::with(Auth { pki, key }, me, n, t, input, prediction)
    }
}

impl<C: SubProtocols> Wrapper<C> {
    /// The deterministic schedule for a system of `n` processes with
    /// fault bound `t`.
    pub fn schedule(n: usize, t: usize) -> Schedule {
        Schedule::build(
            t,
            C::GC_ROUNDS,
            |k| C::es_rounds(n, t, k),
            |k| C::class_rounds(n, k),
        )
    }

    fn with(sub: C, me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        C::assert_resilience(n, t);
        assert_eq!(prediction.len(), n);
        Wrapper {
            me,
            n,
            t,
            sub,
            schedule: Self::schedule(n, t),
            cursor: 0,
            value: input,
            grade: 0,
            decision: None,
            order: None,
            classification: None,
            active: Active::Classify(Classify::new(me, n, prediction)),
            returned: false,
        }
    }

    /// The classification vector `cᵢ` (available once Algorithm 2 has
    /// run).
    pub fn classification(&self) -> Option<&BitVec> {
        self.classification.as_ref()
    }

    fn drive(
        &mut self,
        local: u64,
        inbox: &[Envelope<WrapperMsg<C>>],
        out: &mut Outbox<WrapperMsg<C>>,
    ) {
        let idx = self.schedule.slots[self.cursor].idx;
        match &mut self.active {
            Active::Classify(sub) => {
                step_sub(sub, local, inbox, out, WrapperMsg::Classify, |m| match m {
                    WrapperMsg::Classify(x) => Some(Arc::clone(x)),
                    _ => None,
                })
            }
            Active::Gc(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |inner| WrapperMsg::Gc { slot: idx, inner },
                |m| match m {
                    WrapperMsg::Gc { slot, inner } if *slot == idx => Some(Arc::clone(inner)),
                    _ => None,
                },
            ),
            Active::Es(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |inner| WrapperMsg::Es { slot: idx, inner },
                |m| match m {
                    WrapperMsg::Es { slot, inner } if *slot == idx => Some(Arc::clone(inner)),
                    _ => None,
                },
            ),
            Active::Class(sub) => step_sub(
                sub,
                local,
                inbox,
                out,
                |inner| WrapperMsg::Class { slot: idx, inner },
                |m| match m {
                    WrapperMsg::Class { slot, inner } if *slot == idx => Some(Arc::clone(inner)),
                    _ => None,
                },
            ),
            Active::None => {}
        }
    }

    /// Applies the wrapper's per-slot transition (the numbered lines of
    /// Algorithm 1). Returns `true` if the process returned.
    fn finalize_slot(&mut self) -> bool {
        let slot: Slot = self.schedule.slots[self.cursor];
        let active = std::mem::replace(&mut self.active, Active::None);
        match (slot.kind, active) {
            (SlotKind::Classify, Active::Classify(sub)) => {
                let c = sub.output().expect("classification ready");
                self.order = Some(Arc::new(pi_order(&c)));
                self.classification = Some(c);
            }
            (SlotKind::GcA { .. } | SlotKind::GcB { .. }, Active::Gc(sub)) => {
                let g = sub.output().expect("graded consensus ready");
                self.value = g.value;
                self.grade = g.paper_grade();
            }
            (SlotKind::Es { .. }, Active::Es(sub)) => {
                let v = sub.output().expect("early stopping ready");
                if self.grade == 0 {
                    self.value = v;
                }
            }
            (SlotKind::Class { .. }, Active::Class(sub)) => {
                let o = sub.output().expect("conditional BA ready");
                if self.grade == 0 {
                    self.value = C::class_value(o);
                }
            }
            (SlotKind::GcC { .. }, Active::Gc(sub)) => {
                let g = sub.output().expect("graded consensus ready");
                self.value = g.value;
                if self.decision.is_some() {
                    self.returned = true; // line 13
                    return true;
                }
                if g.paper_grade() == 1 {
                    self.decision = Some(g.value); // lines 14–16
                }
            }
            (kind, _) => unreachable!("slot {kind:?} finalized with mismatched sub-protocol"),
        }
        false
    }

    fn start_slot(&mut self) {
        let slot = self.schedule.slots[self.cursor];
        let at = SlotInput {
            me: self.me,
            n: self.n,
            t: self.t,
            slot: slot.idx,
            value: self.value,
        };
        self.active = match slot.kind {
            SlotKind::Classify => unreachable!("classify is constructed up front"),
            SlotKind::GcA { .. } | SlotKind::GcB { .. } | SlotKind::GcC { .. } => {
                Active::Gc(self.sub.graded(at))
            }
            SlotKind::Es { k, .. } => Active::Es(self.sub.early(at, k)),
            SlotKind::Class { k, .. } => {
                let order = Arc::clone(self.order.as_ref().expect("classified before phase 1"));
                Active::Class(self.sub.conditional(at, k, order))
            }
        };
    }
}

impl<C: SubProtocols> Process for Wrapper<C> {
    type Msg = WrapperMsg<C>;
    type Output = Value;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<WrapperMsg<C>>],
        out: &mut Outbox<WrapperMsg<C>>,
    ) {
        if self.returned {
            return;
        }
        let slot = self.schedule.slots[self.cursor];
        if round == slot.end {
            // The slot's output step: feed it this step's inbox, read the
            // result, and (in the same step) start the next slot.
            self.drive(round - slot.start, inbox, out);
            if self.finalize_slot() {
                return;
            }
            if self.cursor + 1 == self.schedule.slots.len() {
                // Line 17: the schedule is exhausted.
                if self.decision.is_none() {
                    self.decision = Some(self.value);
                }
                self.returned = true;
                return;
            }
            self.cursor += 1;
            self.start_slot();
            self.drive(0, inbox, out);
        } else {
            debug_assert!(round >= slot.start && round < slot.end);
            self.drive(round - slot.start, inbox, out);
        }
    }

    fn output(&self) -> Option<Value> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.returned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prediction::PredictionMatrix;
    use ba_sim::{AdversaryCtx, FnAdversary, RunReport, Runner, SilentAdversary};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;

    fn ids(faulty: &[u32]) -> BTreeSet<ProcessId> {
        faulty.iter().copied().map(ProcessId).collect()
    }

    /// One wrapper per honest id, honest inputs taken from `inputs` in
    /// id order.
    fn honest<C: SubProtocols>(
        n: usize,
        faulty: &BTreeSet<ProcessId>,
        inputs: &[u64],
        mut make: impl FnMut(ProcessId, Value) -> Wrapper<C>,
    ) -> BTreeMap<ProcessId, Wrapper<C>> {
        let mut next_input = inputs.iter().copied();
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .map(|id| {
                (
                    id,
                    make(id, Value(next_input.next().expect("enough inputs"))),
                )
            })
            .collect()
    }

    fn run_unauth(
        n: usize,
        t: usize,
        faulty: &[u32],
        inputs: &[u64],
        matrix: &PredictionMatrix,
        max_rounds: u64,
    ) -> RunReport<Value> {
        let procs = honest(n, &ids(faulty), inputs, |id, v| {
            UnauthWrapper::new(id, n, t, v, matrix.row(id).clone())
        });
        Runner::with_ids(n, procs, SilentAdversary).run(max_rounds)
    }

    fn auth_honest(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        inputs: &[u64],
        matrix: &PredictionMatrix,
        pki: &Arc<Pki>,
    ) -> BTreeMap<ProcessId, AuthWrapper> {
        honest(n, faulty, inputs, |id, v| {
            let key = pki.signing_key(id.0);
            AuthWrapper::new(id, n, t, v, matrix.row(id).clone(), Arc::clone(pki), key)
        })
    }

    fn run_auth(
        n: usize,
        t: usize,
        faulty: &[u32],
        inputs: &[u64],
        matrix: &PredictionMatrix,
        max_rounds: u64,
    ) -> RunReport<Value> {
        let pki = Arc::new(Pki::new(n, 1234));
        let procs = auth_honest(n, t, &ids(faulty), inputs, matrix, &pki);
        Runner::with_ids(n, procs, SilentAdversary).run(max_rounds)
    }

    #[test]
    fn unanimity_with_perfect_predictions_decides_fast() {
        let (n, t) = (16, 5);
        let m = PredictionMatrix::perfect(n, &ids(&[14, 15]));
        let report = run_unauth(n, t, &[14, 15], &[7; 14], &m, 400);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(7)));
    }

    #[test]
    fn unauth_mixed_inputs_agree_with_perfect_predictions() {
        let (n, t) = (16, 5);
        let m = PredictionMatrix::perfect(n, &ids(&[13, 15]));
        let inputs: Vec<u64> = (0..14).map(|i| i % 2).collect();
        let report = run_unauth(n, t, &[13, 15], &inputs, &m, 400);
        assert!(report.agreement());
        let d = report.decision().unwrap();
        assert!(*d == Value(0) || *d == Value(1), "validity of domain");
    }

    #[test]
    fn garbage_predictions_still_terminate_and_agree() {
        // Predictions are pure noise (all-zeros: everyone suspected);
        // the early-stopping path must carry the day.
        let (n, t) = (16, 5);
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let inputs: Vec<u64> = (0..14).map(|i| i % 3).collect();
        let report = run_unauth(n, t, &[7, 11], &inputs, &m, 600);
        assert!(report.agreement(), "graceful degradation");
    }

    #[test]
    fn schedule_is_deterministic_and_finite() {
        let s1 = UnauthWrapper::schedule(16, 5);
        let s2 = UnauthWrapper::schedule(16, 5);
        assert_eq!(s1.total_steps, s2.total_steps);
        assert_eq!(s1.slots.len(), s2.slots.len());
        assert!(s1.total_steps < 1000);
    }

    #[test]
    fn decision_never_changes_after_set() {
        let n = 16;
        let m = PredictionMatrix::perfect(n, &BTreeSet::new());
        let report = run_unauth(n, 5, &[], &[4; 16], &m, 400);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)));
    }

    #[test]
    fn unanimity_beyond_one_third_faults() {
        // t = 4 of n = 10 — impossible for the unauthenticated pipeline.
        let (n, t) = (10, 4);
        let m = PredictionMatrix::perfect(n, &ids(&[6, 7, 8, 9]));
        let report = run_auth(n, t, &[6, 7, 8, 9], &[3; 6], &m, 600);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(3)));
    }

    #[test]
    fn auth_mixed_inputs_agree_with_perfect_predictions() {
        let (n, t) = (10, 3);
        let m = PredictionMatrix::perfect(n, &ids(&[4, 9]));
        let inputs: Vec<u64> = (0..8).map(|i| i % 2).collect();
        let report = run_auth(n, t, &[4, 9], &inputs, &m, 600);
        assert!(report.agreement());
    }

    #[test]
    fn garbage_predictions_still_agree() {
        let (n, t) = (10, 3);
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let inputs: Vec<u64> = (0..8).map(|i| i % 2).collect();
        let report = run_auth(n, t, &[0, 5], &inputs, &m, 600);
        assert!(report.agreement(), "graceful degradation");
    }

    #[test]
    fn schedule_class_slots_survive_to_larger_k_than_unauth() {
        // The headline asymmetry: Algorithm 7 slots exist while
        // 2k+1 ≤ n; Algorithm 5 slots need (2k+1)(3k+1) ≤ n.
        let n = 32;
        let max_k = |s: &Schedule| {
            s.slots
                .iter()
                .filter_map(|s| match s.kind {
                    SlotKind::Class { k, .. } => Some(k),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        assert!(max_k(&AuthWrapper::schedule(n, 10)) > max_k(&UnauthWrapper::schedule(n, 10)));
    }

    /// Runs `procs` with silent faults, checking every honest envelope
    /// against the wrapper byte model; returns the run's honest message
    /// and byte totals.
    fn byte_model_totals<C: SubProtocols + 'static>(
        n: usize,
        procs: BTreeMap<ProcessId, Wrapper<C>>,
    ) -> (u64, u64) {
        let seen = Rc::new(RefCell::new(BTreeSet::new()));
        let log = Rc::clone(&seen);
        let checker = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, WrapperMsg<C>>| {
            for env in ctx.honest_traffic {
                let (kind, expected) = match &*env.payload {
                    WrapperMsg::Classify(bits) => ("Classify", 1 + bits.wire_bytes()),
                    WrapperMsg::Gc { inner, .. } => ("Gc", 1 + 2 + inner.wire_bytes()),
                    WrapperMsg::Es { inner, .. } => ("Es", 1 + 2 + inner.wire_bytes()),
                    WrapperMsg::Class { inner, .. } => ("Class", 1 + 2 + inner.wire_bytes()),
                };
                assert_eq!(env.payload.wire_bytes(), expected, "{kind}");
                log.borrow_mut().insert(kind);
            }
        });
        let rounds = Wrapper::<C>::schedule(n, procs.values().next().unwrap().t).total_steps + 4;
        let report = Runner::with_ids(n, procs, checker).run(rounds);
        assert!(report.agreement());
        assert_eq!(
            *seen.borrow(),
            ["Class", "Classify", "Es", "Gc"].into_iter().collect(),
            "every message kind was sent and checked"
        );
        (report.honest_messages, report.honest_bytes)
    }

    #[test]
    fn wire_bytes_follow_the_byte_model_for_both_instantiations() {
        let inputs: Vec<u64> = (0..13).map(|i| i % 2).collect();

        let (n, t) = (13, 4);
        let faulty = ids(&[12]);
        let m = PredictionMatrix::perfect(n, &faulty);
        let unauth = honest(n, &faulty, &inputs, |id, v| {
            UnauthWrapper::new(id, n, t, v, m.row(id).clone())
        });
        assert_eq!(byte_model_totals(n, unauth), (4_416, 64_320));

        let (n, t) = (5, 2);
        let faulty = ids(&[4]);
        let m = PredictionMatrix::perfect(n, &faulty);
        let pki = Arc::new(Pki::new(n, 7));
        let auth = auth_honest(n, t, &faulty, &inputs, &m, &pki);
        assert_eq!(byte_model_totals(n, auth), (669, 206_436));
    }
}
