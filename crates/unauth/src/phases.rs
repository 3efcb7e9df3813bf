//! The phase loop shared by phase king and Algorithm 5.
//!
//! Both protocols run a fixed number of 5-round phases of
//!
//! ```text
//! (v, g)  ← graded-consensus_p(v)        // rounds 0–1, output at 2
//! v'      ← middle_p(v)                  // round 2, output at 3
//! if g = 0 then v ← v'
//! (v, g)  ← graded-consensus_p(v)        // rounds 3–4, output at 5
//! if decided then return decision
//! if g = 1 then { decision ← v ; decided ← true }
//! ```
//!
//! where each sub-protocol's output step overlaps the next one's first
//! send, exactly as the paper counts (so phase `p` occupies rounds
//! `5p … 5p + 4`, and its second graded consensus outputs in round
//! `5(p + 1)`). A process that has used up every phase returns its
//! current value and decision at round `5 · phases`.
//!
//! [`Phases`] is that loop, once. A [`PhaseParts`] instance supplies
//! what differs: the phase count, the graded consensus of each phase,
//! and the one-round middle sub-protocol —
//!
//! | alias | parts | graded consensus | middle |
//! |---|---|---|---|
//! | [`PhaseKing`](crate::PhaseKing) | [`KingParts`](crate::phase_king::KingParts) | [`UnauthGraded`](ba_graded::UnauthGraded) | [`KingRound`](crate::phase_king::KingRound): the phase's king broadcasts its value |
//! | [`UnauthBaWithClassification`](crate::UnauthBaWithClassification) | [`Alg5Parts`](crate::ba_classification::Alg5Parts) | [`CoreSetGraded`](crate::CoreSetGraded) over the phase's listen block | [`Conciliation`](crate::Conciliation) over the same block |
//!
//! `g` is the paper's two-level grade ([`Graded::paper_grade`], 1 iff
//! the reproduction's grade is 2), so "adopt the middle value below
//! grade 2" and "decide at grade 2" are one rule for both families.
//!
//! Messages carry the phase and which of the three sub-protocols they
//! belong to; an honest process routes a message into a sub-protocol
//! only if both match, so cross-phase and cross-slot replay is inert.

use ba_graded::Graded;
use ba_sim::{step_sub, Envelope, Outbox, Process, ProcessId, Value, WireSize};
use std::fmt::Debug;
use std::sync::Arc;

/// What one protocol family plugs into the phase loop.
pub trait PhaseParts {
    /// The graded consensus run twice per phase.
    type Gc: Process<Output = Graded>;
    /// The one-round sub-protocol between the two graded consensuses;
    /// its output is adopted below grade 2.
    type Middle: Process<Output = Value>;

    /// The instantiated protocol's name, for `Debug` output.
    const NAME: &'static str;

    /// The number of phases.
    fn phases(&self) -> usize;
    /// A graded-consensus instance for `phase` with input `value`.
    fn graded(&self, me: ProcessId, phase: usize, value: Value) -> Self::Gc;
    /// The middle sub-protocol of `phase` with input `value`.
    fn middle(&self, me: ProcessId, phase: usize, value: Value) -> Self::Middle;
}

/// Messages of the phase loop: one variant per sub-protocol slot, each
/// tagged with its phase.
#[derive(Clone, Debug)]
pub enum PhaseMsg<G, M> {
    /// The first graded consensus of a phase.
    First {
        /// Phase number (0-based).
        phase: u16,
        /// Inner graded-consensus payload.
        inner: Arc<G>,
    },
    /// The middle sub-protocol of a phase.
    Middle {
        /// Phase number (0-based).
        phase: u16,
        /// Inner middle payload.
        inner: Arc<M>,
    },
    /// The second graded consensus of a phase.
    Second {
        /// Phase number (0-based).
        phase: u16,
        /// Inner graded-consensus payload.
        inner: Arc<G>,
    },
}

impl<G, M> PhaseMsg<G, M> {
    /// Wraps a graded-consensus payload of `phase`'s first or second
    /// instance.
    fn graded(second: bool, phase: u16, inner: Arc<G>) -> Self {
        if second {
            PhaseMsg::Second { phase, inner }
        } else {
            PhaseMsg::First { phase, inner }
        }
    }

    /// The payload, if this is traffic of `phase`'s first or second
    /// graded consensus.
    fn graded_inner(&self, second: bool, phase: u16) -> Option<Arc<G>> {
        match (self, second) {
            (PhaseMsg::First { phase: p, inner }, false)
            | (PhaseMsg::Second { phase: p, inner }, true)
                if *p == phase =>
            {
                Some(Arc::clone(inner))
            }
            _ => None,
        }
    }

    /// The payload, if this is traffic of `phase`'s middle
    /// sub-protocol.
    fn middle_inner(&self, phase: u16) -> Option<Arc<M>> {
        match self {
            PhaseMsg::Middle { phase: p, inner } if *p == phase => Some(Arc::clone(inner)),
            _ => None,
        }
    }
}

/// A discriminant byte, the phase tag, and the inner payload.
impl<G: WireSize, M: WireSize> WireSize for PhaseMsg<G, M> {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            PhaseMsg::First { phase, inner } | PhaseMsg::Second { phase, inner } => {
                phase.wire_bytes() + inner.wire_bytes()
            }
            PhaseMsg::Middle { phase, inner } => phase.wire_bytes() + inner.wire_bytes(),
        }
    }
}

/// The result of a phase-loop run at one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseOutput {
    /// The value held when returning.
    pub value: Value,
    /// The decision, if some phase's second graded consensus reached
    /// grade 2.
    pub decision: Option<Value>,
}

/// One process's state machine for the phase loop over the parts `S`.
pub struct Phases<S: PhaseParts> {
    me: ProcessId,
    parts: S,
    value: Value,
    /// Paper grade of the current phase's first graded consensus.
    grade: u8,
    decision: Option<Value>,
    gc: Option<S::Gc>,
    middle: Option<S::Middle>,
    out: Option<PhaseOutput>,
}

impl<S: PhaseParts> Debug for Phases<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(S::NAME)
            .field("me", &self.me)
            .field("phases", &self.parts.phases())
            .field("value", &self.value)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

impl<S: PhaseParts> Phases<S> {
    /// Rounds of one phase.
    pub(crate) const PHASE_ROUNDS: u64 = 5;

    pub(crate) fn with(parts: S, me: ProcessId, input: Value) -> Self {
        Phases {
            me,
            parts,
            value: input,
            grade: 0,
            decision: None,
            gc: None,
            middle: None,
            out: None,
        }
    }

    /// Steps the live graded consensus (`phase`'s first or second) and
    /// returns its output once it has one.
    fn step_graded(
        &mut self,
        second: bool,
        phase: u16,
        local: u64,
        inbox: &[Envelope<<Self as Process>::Msg>],
        out: &mut Outbox<<Self as Process>::Msg>,
    ) -> Option<Graded> {
        let gc = self.gc.as_mut().expect("graded consensus live");
        step_sub(
            gc,
            local,
            inbox,
            out,
            |inner| PhaseMsg::graded(second, phase, inner),
            |m| m.graded_inner(second, phase),
        );
        gc.output()
    }

    /// Steps the live middle sub-protocol of `phase` and returns its
    /// output once it has one.
    fn step_middle(
        &mut self,
        phase: u16,
        local: u64,
        inbox: &[Envelope<<Self as Process>::Msg>],
        out: &mut Outbox<<Self as Process>::Msg>,
    ) -> Option<Value> {
        let middle = self.middle.as_mut().expect("middle live");
        step_sub(
            middle,
            local,
            inbox,
            out,
            |inner| PhaseMsg::Middle { phase, inner },
            |m| m.middle_inner(phase),
        );
        middle.output()
    }

    /// The output step of `phase`'s second graded consensus: takes its
    /// value, returns if an earlier phase decided, and decides at grade
    /// 2. Returns `true` if the process returned.
    fn complete_phase(
        &mut self,
        phase: u16,
        inbox: &[Envelope<<Self as Process>::Msg>],
        out: &mut Outbox<<Self as Process>::Msg>,
    ) -> bool {
        let graded = self
            .step_graded(true, phase, 2, inbox, out)
            .expect("graded consensus outputs at step 2");
        self.value = graded.value;
        if let Some(decided) = self.decision {
            self.out = Some(PhaseOutput {
                value: decided,
                decision: Some(decided),
            });
            return true;
        }
        if graded.paper_grade() == 1 {
            self.decision = Some(graded.value);
        }
        false
    }
}

impl<S: PhaseParts> Process for Phases<S> {
    type Msg = PhaseMsg<<S::Gc as Process>::Msg, <S::Middle as Process>::Msg>;
    type Output = PhaseOutput;

    fn step(&mut self, round: u64, inbox: &[Envelope<Self::Msg>], out: &mut Outbox<Self::Msg>) {
        if self.out.is_some() {
            return;
        }
        let phases = self.parts.phases();
        let phase = (round / Self::PHASE_ROUNDS) as usize;
        let off = round % Self::PHASE_ROUNDS;
        if phase > phases || (phase == phases && off > 0) {
            return;
        }
        let tag = phase as u16;
        match off {
            0 => {
                // The previous phase's second graded consensus outputs in
                // the round this phase's first one starts.
                if phase > 0 && self.complete_phase(tag - 1, inbox, out) {
                    return;
                }
                if phase == phases {
                    self.out = Some(PhaseOutput {
                        value: self.value,
                        decision: self.decision,
                    });
                    return;
                }
                self.gc = Some(self.parts.graded(self.me, phase, self.value));
                self.step_graded(false, tag, 0, inbox, out);
            }
            1 => {
                self.step_graded(false, tag, 1, inbox, out);
            }
            2 => {
                let graded = self
                    .step_graded(false, tag, 2, inbox, out)
                    .expect("graded consensus outputs at step 2");
                self.value = graded.value;
                self.grade = graded.paper_grade();
                self.middle = Some(self.parts.middle(self.me, phase, self.value));
                self.step_middle(tag, 0, inbox, out);
            }
            3 => {
                let middle = self
                    .step_middle(tag, 1, inbox, out)
                    .expect("middle outputs at step 1");
                if self.grade == 0 {
                    self.value = middle;
                }
                self.gc = Some(self.parts.graded(self.me, phase, self.value));
                self.step_graded(true, tag, 0, inbox, out);
            }
            4 => {
                self.step_graded(true, tag, 1, inbox, out);
            }
            _ => unreachable!("off < 5"),
        }
    }

    fn output(&self) -> Option<PhaseOutput> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alg5Msg, ConcMsg, CoreSetGcMsg, PhaseKingMsg};
    use ba_graded::UnauthGcMsg;

    #[test]
    fn every_variant_pays_a_discriminant_a_phase_tag_and_its_payload() {
        // Phase king: a graded-consensus vote is 1 + 8 bytes, and the
        // king's value is 8 bytes, so `Middle` costs 1 + 2 + 8 = 11.
        let gc = Arc::new(UnauthGcMsg::Vote(Value(1)));
        let king: [(PhaseKingMsg, u64); 3] = [
            (
                PhaseMsg::First {
                    phase: 0,
                    inner: Arc::clone(&gc),
                },
                1 + 2 + 9,
            ),
            (
                PhaseMsg::Middle {
                    phase: 0,
                    inner: Arc::new(Value(1)),
                },
                1 + 2 + 8,
            ),
            (
                PhaseMsg::Second {
                    phase: 0,
                    inner: Arc::clone(&gc),
                },
                1 + 2 + 9,
            ),
        ];
        for (msg, bytes) in king {
            assert_eq!(msg.wire_bytes(), bytes, "{msg:?}");
        }

        // Algorithm 5: Algorithm 3 payloads are 1 + 8 bytes; a
        // conciliation claim is its value plus its length-prefixed
        // listen block, 8 + 4 + 4 · 4 = 28 bytes.
        let gc = Arc::new(CoreSetGcMsg::Input(Value(1)));
        let conc = Arc::new(ConcMsg {
            value: Value(1),
            listen: (0..4).map(ProcessId).collect(),
        });
        let alg5: [(Alg5Msg, u64); 3] = [
            (
                PhaseMsg::First {
                    phase: 3,
                    inner: Arc::clone(&gc),
                },
                1 + 2 + 9,
            ),
            (
                PhaseMsg::Middle {
                    phase: 3,
                    inner: Arc::clone(&conc),
                },
                1 + 2 + 28,
            ),
            (
                PhaseMsg::Second {
                    phase: 3,
                    inner: Arc::clone(&gc),
                },
                1 + 2 + 9,
            ),
        ];
        for (msg, bytes) in alg5 {
            assert_eq!(msg.wire_bytes(), bytes, "{msg:?}");
        }
    }

    #[test]
    fn routing_matches_slot_and_phase() {
        let first: PhaseKingMsg = PhaseMsg::First {
            phase: 2,
            inner: Arc::new(UnauthGcMsg::Vote(Value(0))),
        };
        assert!(first.graded_inner(false, 2).is_some());
        assert!(first.graded_inner(true, 2).is_none(), "wrong slot");
        assert!(first.graded_inner(false, 1).is_none(), "wrong phase");
        assert!(first.middle_inner(2).is_none());
        let middle: PhaseKingMsg = PhaseMsg::Middle {
            phase: 2,
            inner: Arc::new(Value(0)),
        };
        assert!(middle.middle_inner(2).is_some());
        assert!(middle.middle_inner(3).is_none());
        assert!(middle.graded_inner(false, 2).is_none());
    }
}
