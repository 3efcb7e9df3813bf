//! Early-stopping phase-king Byzantine agreement (`t < n/3`,
//! unauthenticated) — the generic half of substitution S4.
//!
//! The paper's wrapper needs an early-stopping BA (Theorem 9, citing
//! Lenzen–Sheikholeslami \[32\]) that, with `f` actual faults, completes in
//! `O(f)` rounds. This is a simplified protocol with the same structure
//! \[32\] itself builds on: per phase, a *validator* (graded consensus),
//! a king, and another validator to detect agreement:
//!
//! ```text
//! phase p (5 rounds), king = p_{p mod n}:
//!   (v, g)  ← graded-consensus(v)            // 2 rounds
//!   king broadcasts its value                 // 1 round
//!   if g < 2 then v ← king's value
//!   (v, g') ← graded-consensus(v)            // 2 rounds, detect
//!   if already decided in an earlier phase: return decision
//!   if g' = 2: decide v
//! ```
//!
//! *Safety.* Deciding requires detect-grade 2; grade-2 coherence of the
//! graded consensus then forces every honest process to carry the decided
//! value into the next phase, where strong unanimity makes everyone
//! decide it too. *Liveness.* In the first phase with an honest king,
//! either some honest process held main-grade 2 — in which case grade-2
//! coherence already put the same value (as the argmax) at every honest
//! process including the king — or nobody did and everyone adopts the
//! king; either way the phase ends unanimous and the detect consensus
//! fires grade 2 everywhere. With `f` faults an honest king appears
//! within `f + 1` phases, so all honest processes decide within `f + 2`
//! phases = `5(f + 2)` rounds — the early-stopping bound.
//!
//! Messages are `O(n²)` per phase, i.e. `O(fn²)` per run — the documented
//! deviation from \[32\]'s `O(n²)` total (substitution S4; see the
//! [crate docs](crate)).

use ba_graded::{UnauthGcMsg, UnauthGraded};
use ba_sim::{
    distinct_values_by_sender, forward_sub, sub_inbox, Envelope, Outbox, Process, ProcessId, Value,
    WireSize,
};
use std::sync::Arc;

/// Messages of the phase-king protocol.
#[derive(Clone, Debug)]
pub enum PhaseKingMsg {
    /// Main graded consensus of a phase.
    Main {
        /// Phase number (0-based).
        phase: u16,
        /// Inner graded-consensus payload.
        inner: Arc<UnauthGcMsg>,
    },
    /// The king's value broadcast.
    King {
        /// Phase number (0-based).
        phase: u16,
        /// The king's post-consensus value.
        value: Value,
    },
    /// Detection graded consensus of a phase.
    Detect {
        /// Phase number (0-based).
        phase: u16,
        /// Inner graded-consensus payload.
        inner: Arc<UnauthGcMsg>,
    },
}

/// A discriminant byte, the phase tag, and the variant's payload.
impl WireSize for PhaseKingMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            PhaseKingMsg::Main { phase, inner } | PhaseKingMsg::Detect { phase, inner } => {
                phase.wire_bytes() + inner.wire_bytes()
            }
            PhaseKingMsg::King { phase, value } => phase.wire_bytes() + value.wire_bytes(),
        }
    }
}

/// Result of a phase-king run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseKingOutput {
    /// The value held when returning.
    pub value: Value,
    /// The decision, if the detect consensus ever fired grade 2 (always
    /// the case when `f + 2 ≤` the configured phase budget).
    pub decision: Option<Value>,
}

/// One process's state machine for early-stopping phase-king agreement.
///
/// # Examples
///
/// ```
/// use ba_early::PhaseKing;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
///
/// let n = 4;
/// let procs: Vec<_> = (0..n as u32)
///     .map(|i| PhaseKing::full(ProcessId(i), n, 1, Value(3)))
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(40);
/// for o in report.outputs.values() {
///     assert_eq!(o.decision, Some(Value(3)));
/// }
/// ```
pub struct PhaseKing {
    me: ProcessId,
    n: usize,
    t: usize,
    phases: usize,
    /// Explicit king schedule (one entry per phase); `None` falls back
    /// to the classic identity rotation `p_{phase mod n}`.
    kings: Option<Arc<[ProcessId]>>,
    value: Value,
    decision: Option<Value>,
    main: Option<UnauthGraded>,
    main_grade: u8,
    detect: Option<UnauthGraded>,
    out: Option<PhaseKingOutput>,
}

impl std::fmt::Debug for PhaseKing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseKing")
            .field("me", &self.me)
            .field("phases", &self.phases)
            .field("value", &self.value)
            .field("decision", &self.decision)
            .finish_non_exhaustive()
    }
}

impl PhaseKing {
    /// Rounds used by a run with the given phase budget.
    pub fn rounds(phases: usize) -> u64 {
        5 * phases as u64
    }

    /// Phase budget sufficient to early-stop with `f ≤ k` faults.
    pub fn phases_for(k: usize) -> usize {
        k + 2
    }

    /// Creates a state machine with an explicit phase budget.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and `phases ≥ 1`.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, phases: usize) -> Self {
        assert!(3 * t < n, "phase king needs 3t < n");
        assert!(phases >= 1);
        PhaseKing {
            me,
            n,
            t,
            phases,
            kings: None,
            value: input,
            decision: None,
            main: None,
            main_grade: 0,
            detect: None,
            out: None,
        }
    }

    /// A full, unconditionally correct run: `t + 2` phases (the
    /// prediction-free baseline BA of the benchmark suite).
    pub fn full(me: ProcessId, n: usize, t: usize, input: Value) -> Self {
        Self::new(me, n, t, input, t + 2)
    }

    /// Creates a state machine with an explicit king schedule: the king
    /// of phase `p` is `kings[p]`, and the phase budget is
    /// `kings.len()`. This is the hook prediction-guided protocols (the
    /// resilient pipeline) use to put trusted identifiers on the throne
    /// first; safety never depends on the schedule, only liveness does
    /// (an honest king phase unifies only if every honest process
    /// agrees who the king is).
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n`, the schedule is non-empty, and every
    /// scheduled king is a valid identifier below `n`.
    pub fn with_kings(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        kings: Vec<ProcessId>,
    ) -> Self {
        assert!(!kings.is_empty(), "king schedule must cover ≥ 1 phase");
        assert!(
            kings.iter().all(|k| (k.0 as usize) < n),
            "king schedule names an identifier outside the system"
        );
        let mut pk = Self::new(me, n, t, input, kings.len());
        pk.kings = Some(kings.into());
        pk
    }

    fn king_of(&self, phase: usize) -> ProcessId {
        match &self.kings {
            Some(kings) => kings[phase],
            None => ProcessId((phase % self.n) as u32),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn drive_gc(
        gc: &mut UnauthGraded,
        local: u64,
        phase: u16,
        is_main: bool,
        inbox: &[Envelope<PhaseKingMsg>],
        out: &mut Outbox<PhaseKingMsg>,
        me: ProcessId,
        n: usize,
    ) {
        let sub = sub_inbox(inbox, |m| match (m, is_main) {
            (PhaseKingMsg::Main { phase: p, inner }, true) if *p == phase => {
                Some(Arc::clone(inner))
            }
            (PhaseKingMsg::Detect { phase: p, inner }, false) if *p == phase => {
                Some(Arc::clone(inner))
            }
            _ => None,
        });
        let mut sub_out = Outbox::new(me, n);
        gc.step(local, &sub, &mut sub_out);
        forward_sub(sub_out, out, |inner| {
            if is_main {
                PhaseKingMsg::Main { phase, inner }
            } else {
                PhaseKingMsg::Detect { phase, inner }
            }
        });
    }

    /// Completes a phase's detect consensus; returns `true` if the
    /// process returned.
    fn complete_phase(
        &mut self,
        inbox: &[Envelope<PhaseKingMsg>],
        out: &mut Outbox<PhaseKingMsg>,
        phase: usize,
    ) -> bool {
        let mut gc = self.detect.take().expect("detect live at completion");
        Self::drive_gc(&mut gc, 2, phase as u16, false, inbox, out, self.me, self.n);
        let graded = gc.output().expect("graded consensus outputs at step 2");
        self.value = graded.value;
        if let Some(decided) = self.decision {
            self.out = Some(PhaseKingOutput {
                value: decided,
                decision: self.decision,
            });
            return true;
        }
        if graded.grade == 2 {
            self.decision = Some(graded.value);
        }
        false
    }
}

impl Process for PhaseKing {
    type Msg = PhaseKingMsg;
    type Output = PhaseKingOutput;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<PhaseKingMsg>],
        out: &mut Outbox<PhaseKingMsg>,
    ) {
        if self.out.is_some() {
            return;
        }
        let phase = (round / 5) as usize;
        let off = round % 5;
        if phase > self.phases || (phase == self.phases && off > 0) {
            return;
        }
        match off {
            0 => {
                if phase > 0 && self.complete_phase(inbox, out, phase - 1) {
                    return;
                }
                if phase == self.phases {
                    self.out = Some(PhaseKingOutput {
                        value: self.value,
                        decision: self.decision,
                    });
                    return;
                }
                let mut gc = UnauthGraded::new(self.me, self.n, self.t, self.value);
                Self::drive_gc(&mut gc, 0, phase as u16, true, inbox, out, self.me, self.n);
                self.main = Some(gc);
            }
            1 => {
                let mut gc = self.main.take().expect("main live");
                Self::drive_gc(&mut gc, 1, phase as u16, true, inbox, out, self.me, self.n);
                self.main = Some(gc);
            }
            2 => {
                let mut gc = self.main.take().expect("main live");
                Self::drive_gc(&mut gc, 2, phase as u16, true, inbox, out, self.me, self.n);
                let graded = gc.output().expect("graded consensus outputs at step 2");
                self.value = graded.value;
                self.main_grade = graded.grade;
                if self.me == self.king_of(phase) {
                    out.broadcast(PhaseKingMsg::King {
                        phase: phase as u16,
                        value: self.value,
                    });
                }
            }
            3 => {
                // Receive the king's value; adopt it below grade 2.
                let king = self.king_of(phase);
                let king_values = distinct_values_by_sender(inbox, |m| match m {
                    PhaseKingMsg::King { phase: p, value } if *p as usize == phase => Some(*value),
                    _ => None,
                });
                if self.main_grade < 2 {
                    if let Some(v) = king_values.get(&king) {
                        self.value = *v;
                    }
                }
                let mut gc = UnauthGraded::new(self.me, self.n, self.t, self.value);
                Self::drive_gc(&mut gc, 0, phase as u16, false, inbox, out, self.me, self.n);
                self.detect = Some(gc);
            }
            4 => {
                let mut gc = self.detect.take().expect("detect live");
                Self::drive_gc(&mut gc, 1, phase as u16, false, inbox, out, self.me, self.n);
                self.detect = Some(gc);
            }
            _ => unreachable!(),
        }
    }

    fn output(&self) -> Option<PhaseKingOutput> {
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

    fn system(n: usize, t: usize, inputs: &[u64], phases: usize) -> Vec<PhaseKing> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| PhaseKing::new(ProcessId(i as u32), n, t, Value(v), phases))
            .collect()
    }

    #[test]
    fn strong_unanimity_decides_in_first_phases() {
        let n = 7;
        let mut runner = Runner::new(n, system(n, 2, &[5; 7], 4), SilentAdversary);
        let report = runner.run(60);
        assert!(report.all_decided());
        for o in report.outputs.values() {
            assert_eq!(o.decision, Some(Value(5)));
        }
        // Unanimity: decide in phase 1, return in phase 2.
        assert!(report.last_decision_round.unwrap() <= 11);
    }

    #[test]
    fn early_stopping_with_f_silent_faults() {
        // f = 1 < t = 2: decision within f + 2 = 3 phases.
        let n = 7;
        let mut runner = Runner::new(n, system(n, 2, &[1, 2, 1, 2, 1, 2], 4), SilentAdversary);
        let report = runner.run(60);
        assert!(report.agreement());
        assert!(
            report.last_decision_round.unwrap() <= PhaseKing::rounds(3) + 1,
            "f+2 phase early stop"
        );
    }

    #[test]
    fn agreement_under_equivocating_king() {
        // p0 is the phase-0 king and faulty: it sends different king
        // values to different processes. Later honest kings must repair.
        let n = 7;
        let t = 2;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
            // Participate in GCs pretending input 0 or 1 depending on
            // recipient parity, and send split king values in phase 0.
            match ctx.round {
                0 | 3 => {
                    for to in 0..ctx.n as u32 {
                        let v = Value(u64::from(to % 2));
                        ctx.send(
                            ProcessId(0),
                            ProcessId(to),
                            if ctx.round == 0 {
                                PhaseKingMsg::Main {
                                    phase: 0,
                                    inner: Arc::new(UnauthGcMsg::Vote(v)),
                                }
                            } else {
                                PhaseKingMsg::Detect {
                                    phase: 0,
                                    inner: Arc::new(UnauthGcMsg::Vote(v)),
                                }
                            },
                        );
                    }
                }
                2 => {
                    for to in 0..ctx.n as u32 {
                        ctx.send(
                            ProcessId(0),
                            ProcessId(to),
                            PhaseKingMsg::King {
                                phase: 0,
                                value: Value(u64::from(to % 2)),
                            },
                        );
                    }
                }
                _ => {}
            }
        });
        let honest: std::collections::BTreeMap<ProcessId, PhaseKing> = (1..n as u32)
            .map(|i| {
                (
                    ProcessId(i),
                    PhaseKing::new(ProcessId(i), n, t, Value(u64::from(i % 2)), t + 2),
                )
            })
            .collect();
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(60);
        assert!(
            report.agreement(),
            "honest kings p1/p2 must repair the split"
        );
    }

    #[test]
    fn non_king_cannot_impersonate_king() {
        // A faulty non-king broadcasts King messages; honest processes
        // only adopt from the phase's designated king.
        let n = 4;
        let t = 1;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
            if ctx.round % 5 == 2 {
                let phase = (ctx.round / 5) as u16;
                // p3 pretends to be king every phase (it is king only in
                // phase 3).
                if phase != 3 {
                    ctx.broadcast(
                        ProcessId(3),
                        PhaseKingMsg::King {
                            phase,
                            value: Value(999),
                        },
                    );
                }
            }
        });
        let mut runner = Runner::new(n, system(n, t, &[6, 6, 6], t + 2), adv);
        let report = runner.run(60);
        assert!(report.agreement());
        assert_eq!(
            report.outputs.values().next().unwrap().decision,
            Some(Value(6)),
            "fake king values never adopted"
        );
    }

    #[test]
    fn safety_never_violated_across_random_faulty_noise() {
        // Deterministic pseudo-random Byzantine noise across all message
        // kinds; agreement and validity must hold in every run.
        for seed in 0..10u64 {
            let n = 7;
            let t = 2;
            let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
                let phase = (ctx.round / 5) as u16;
                for (j, from) in [ProcessId(5), ProcessId(6)].into_iter().enumerate() {
                    let x = seed
                        .wrapping_mul(0x9e3779b97f4a7c15)
                        .wrapping_add(ctx.round * 31 + j as u64);
                    let v = Value(x % 3);
                    let msg = match x % 4 {
                        0 => PhaseKingMsg::Main {
                            phase,
                            inner: Arc::new(UnauthGcMsg::Vote(v)),
                        },
                        1 => PhaseKingMsg::Main {
                            phase,
                            inner: Arc::new(UnauthGcMsg::Echo(v)),
                        },
                        2 => PhaseKingMsg::King { phase, value: v },
                        _ => PhaseKingMsg::Detect {
                            phase,
                            inner: Arc::new(UnauthGcMsg::Vote(v)),
                        },
                    };
                    ctx.broadcast(from, msg);
                }
            });
            let mut runner = Runner::new(7, system(n, t, &[0, 1, 0, 1, 0], t + 2), adv);
            let report = runner.run(80);
            assert!(report.agreement(), "seed {seed} broke agreement");
            let d = report.outputs.values().next().unwrap().value;
            assert!(d == Value(0) || d == Value(1), "seed {seed} invented {d}");
        }
    }

    #[test]
    fn validity_all_same_input_under_noise() {
        let n = 7;
        let t = 2;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, PhaseKingMsg>| {
            let phase = (ctx.round / 5) as u16;
            ctx.broadcast(
                ProcessId(6),
                PhaseKingMsg::Main {
                    phase,
                    inner: Arc::new(UnauthGcMsg::Vote(Value(9))),
                },
            );
        });
        let mut runner = Runner::new(n, system(n, t, &[4; 6], t + 2), adv);
        let report = runner.run(80);
        assert!(report.agreement());
        assert_eq!(report.outputs.values().next().unwrap().value, Value(4));
    }

    #[test]
    fn explicit_king_schedule_changes_who_unifies_first() {
        // Split inputs, one silent fault (p3). Under the identity
        // rotation p0 (honest) is the phase-0 king and the run decides
        // immediately; with p3 scheduled first, phase 0 stalls and the
        // honest phase-1 king repairs — exactly one phase later.
        let n = 7;
        let t = 2;
        let run = |kings: Vec<ProcessId>| {
            let honest: std::collections::BTreeMap<ProcessId, PhaseKing> = (0..n as u32)
                .filter(|i| *i != 3)
                .map(|i| {
                    let id = ProcessId(i);
                    (
                        id,
                        PhaseKing::with_kings(id, n, t, Value(u64::from(i % 2)), kings.clone()),
                    )
                })
                .collect();
            let mut runner = Runner::with_ids(n, honest, SilentAdversary);
            let report = runner.run(60);
            assert!(report.agreement());
            report.last_decision_round.expect("decided")
        };
        let trusted_first = run(vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(4)]);
        let faulty_first = run(vec![ProcessId(3), ProcessId(0), ProcessId(1), ProcessId(2)]);
        assert_eq!(
            faulty_first,
            trusted_first + 5,
            "a scheduled faulty king costs exactly one phase"
        );
    }

    #[test]
    #[should_panic(expected = "≥ 1 phase")]
    fn empty_king_schedule_is_rejected() {
        let _ = PhaseKing::with_kings(ProcessId(0), 4, 1, Value(0), vec![]);
    }

    #[test]
    #[should_panic(expected = "outside the system")]
    fn out_of_range_king_is_rejected() {
        let _ = PhaseKing::with_kings(ProcessId(0), 4, 1, Value(0), vec![ProcessId(9)]);
    }

    #[test]
    fn phase_budget_bounds_rounds() {
        let n = 4;
        let mut runner = Runner::new(n, system(n, 1, &[1, 2, 1, 2], 3), SilentAdversary);
        let report = runner.run(100);
        assert!(report.all_decided());
        assert!(report.rounds_executed <= PhaseKing::rounds(3) + 2);
    }
}
