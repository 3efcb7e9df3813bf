//! # ba-resilient — resilient BA with predictions
//!
//! The source paper and the communication-efficient follow-up both treat
//! predictions as a *lane choice*: a fast path that assumes the hints
//! are good, plus a fallback that abandons them wholesale the moment an
//! inconsistency surfaces. The round cost is therefore a step function
//! of prediction quality — perfect hints are cheap, and one wrong bit
//! past the tolerance cliff costs the entire fallback. *Resilient
//! Byzantine Agreement with Predictions* (Dallot–Melnyk–Milentijevic–
//! Schmid–Welters, 2026) asks for the missing middle: a protocol whose
//! round complexity degrades **gracefully** — proportionally to the
//! realized prediction error — instead of cliff-switching.
//!
//! This crate reproduces that trade-off in the repository's execution
//! model (`t < n/3`) by making predictions steer *who leads*, not
//! *which protocol runs*. One state machine, [`Resilient`], runs it over
//! a classification [`Exchange`]:
//!
//! 1. **Classification exchange**: every process broadcasts its `n`-bit
//!    prediction string and aggregates the strings it accepts into a
//!    per-identifier *suspicion score* — the number of peers predicting
//!    that identifier faulty.
//! 2. **Trust-ordered phase king** (5 rounds per phase): a standard
//!    early-stopping phase-king agreement ([`ba_early::PhaseKing`])
//!    whose throne order is the suspicion order, most-trusted first.
//!    Accurate predictions put an honest king on the throne in phase 0;
//!    every faulty identifier the error budget `B` manages to promote
//!    above the first honest one costs exactly one extra (stalled)
//!    phase. The round count is thus a staircase in `B` with unit steps
//!    — no fast lane, no cliff.
//!
//! Safety never depends on the predictions: deciding requires a grade-2
//! detect consensus exactly as in the baseline, so arbitrarily wrong
//! (or arbitrarily adversarial) hints can only cost rounds. The two
//! exchanges differ only in how liveness survives Byzantine
//! classifications:
//!
//! | alias | exchange | rounds | throne order | phase budget |
//! |---|---|---|---|---|
//! | [`ResilientBa`] | [`PlainExchange`]: raw strings, first per sender | 1 | [`king_schedule`]: `t + 1` trust slots + `t + 2` rotation suffix | `2t + 3` |
//! | [`ResilientSigned`] | [`SignedExchange`]: signed strings, echoed, `≥ t + 1` carriers, equivocators convicted | 2 | [`signed_king_schedule`]: `t + 2` trust slots | `t + 2` |
//!
//! Unsigned strings can be equivocated per recipient, splitting the
//! honest suspicion views (pinned by
//! `equivocated_classifications_split_the_unsigned_schedules`), so the
//! plain schedule pays an unconditional identifier-rotation suffix that
//! eventually crowns a common honest king. The [`signed`] exchange makes
//! the views agree instead — equivocators are convicted by their own
//! signatures — and drops the suffix.

pub mod signed;

pub use signed::{
    signed_king_schedule, ResilientSigned, ResilientSignedMsg, SignedExchange,
    SignedResilientDisruptor,
};

use ba_core::BitVec;
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_graded::UnauthGcMsg;
use ba_sim::{
    step_sub, Adversary, AdversaryCtx, Envelope, Outbox, Process, ProcessId, Value, WireSize,
};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

/// The classification exchange a [`Resilient`] machine runs before its
/// king tail: everything the unsigned and the signed pipelines do
/// differently.
pub trait Exchange: Clone + Debug {
    /// The classification one process ships in round 0.
    type Payload: Clone + Debug + PartialEq + WireSize;
    /// What sealing a payload as one identity's own takes: the identity
    /// itself (unsigned) or its signing key (signed).
    type Seal;

    /// Rounds before the king tail starts. Round 0 classifies; each
    /// further exchange round echoes the classifications that opened.
    const ROUNDS: u64;

    /// Worst-case phase budget of the king tail.
    fn phases(t: usize) -> usize;
    /// The identity `seal` speaks for.
    fn sealer(seal: &Self::Seal) -> ProcessId;
    /// `bits` sealed as `seal`'s own classification.
    fn seal(seal: &Self::Seal, bits: BitVec) -> Self::Payload;
    /// The prediction string in `payload`, if it opens as `from`'s own.
    fn open<'a>(&self, from: ProcessId, payload: &'a Self::Payload) -> Option<&'a BitVec>;
    /// Aggregates the inbox of round [`Exchange::ROUNDS`] into the
    /// strings that count (one per voter) and one conviction flag per
    /// identifier.
    fn aggregate<'a>(
        &self,
        n: usize,
        t: usize,
        inbox: &'a [Envelope<Msg<Self>>],
    ) -> (Vec<&'a BitVec>, Vec<bool>);
    /// The throne order of an aggregated view.
    fn schedule(n: usize, t: usize, suspicion: &[usize], convicted: &[bool]) -> Vec<ProcessId>;
}

/// Messages of the resilient pipeline over exchange `X`. The exchange
/// is bound to its rounds and phase-king traffic carries its own phase
/// tags, so replayed messages are inert.
#[derive(Clone, Debug)]
pub enum Msg<X: Exchange> {
    /// Round 0 → all: the sender's sealed prediction string.
    Classify(Arc<X::Payload>),
    /// Later exchange rounds → all: every distinct classification the
    /// sender received that opened — the common pool behind agreeing
    /// views.
    Echo(Arc<Vec<X::Payload>>),
    /// The king tail: wrapped trust-ordered phase-king traffic.
    Phase(Arc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload.
impl<X: Exchange> WireSize for Msg<X> {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            Msg::Classify(payload) => payload.wire_bytes(),
            Msg::Echo(entries) => entries.wire_bytes(),
            Msg::Phase(inner) => inner.wire_bytes(),
        }
    }
}

/// The first classification each sender shipped in an envelope batch
/// that opens as its own. The plain exchange aggregates its round-1
/// inbox with it and [`Disruptor`] rebuilds the schedule from the
/// rushed honest round-0 traffic with it; both sides *must* go through
/// this function, because the disruptor's schedule reconstruction is
/// only exact while the two aggregations agree. Identical strings from
/// different senders each count.
fn classifications_by_sender<'a, X: Exchange>(
    exchange: &X,
    envelopes: &'a [Envelope<Msg<X>>],
) -> BTreeMap<ProcessId, &'a BitVec> {
    let mut per_sender: BTreeMap<ProcessId, &BitVec> = BTreeMap::new();
    for env in envelopes {
        if let Msg::Classify(payload) = &*env.payload {
            if let Some(bits) = exchange.open(env.from, payload) {
                per_sender.entry(env.from).or_insert(bits);
            }
        }
    }
    per_sender
}

/// Aggregates classification strings into per-identifier suspicion
/// scores: `scores[j]` counts the strings predicting `p_j` faulty.
/// Strings whose length is not `n` are ignored (Byzantine senders may
/// ship garbage).
pub fn suspicion_scores<'a>(
    n: usize,
    classifications: impl IntoIterator<Item = &'a BitVec>,
) -> Vec<usize> {
    let mut scores = vec![0usize; n];
    for c in classifications {
        if c.len() != n {
            continue;
        }
        for (j, s) in scores.iter_mut().enumerate() {
            if !c.get(j) {
                *s += 1;
            }
        }
    }
    scores
}

/// The throne order a suspicion vector induces: the `t + 1` least
/// suspected identifiers (ties toward the smaller id) followed by the
/// unconditional `t + 2`-phase identifier-rotation suffix `p_0 … p_{t+1}`.
///
/// The prefix is where predictions pay: with accurate hints it starts
/// with honest identifiers and the phase-0 king already unifies. The
/// prefix always contains an honest identifier (only `f ≤ t` faulty ones
/// exist, and the prefix has `t + 1` slots), so under a consistent
/// suspicion view the run decides inside the prefix; the suffix is the
/// liveness net for *inconsistent* views seeded by equivocated
/// classifications.
pub fn king_schedule(n: usize, t: usize, suspicion: &[usize]) -> Vec<ProcessId> {
    assert_eq!(suspicion.len(), n, "one suspicion score per identifier");
    assert!(t + 2 <= n, "suffix rotation needs t + 2 identifiers");
    let mut by_trust: Vec<usize> = (0..n).collect();
    by_trust.sort_by_key(|&j| (suspicion[j], j));
    by_trust
        .into_iter()
        .take(t + 1)
        .chain(0..=t + 1)
        .map(|j| ProcessId(j as u32))
        .collect()
}

/// The unsigned exchange: one round of raw prediction strings, the
/// first string per sender counts, and the throne order is
/// [`king_schedule`] — whose rotation suffix is the insurance against
/// per-recipient equivocation.
#[derive(Clone, Copy, Debug)]
pub struct PlainExchange;

impl Exchange for PlainExchange {
    type Payload = BitVec;
    type Seal = ProcessId;

    const ROUNDS: u64 = 1;

    /// The `t + 1` suspicion-ordered slots plus the unconditional
    /// `t + 2`-phase rotation suffix.
    fn phases(t: usize) -> usize {
        2 * t + 3
    }

    fn sealer(seal: &ProcessId) -> ProcessId {
        *seal
    }

    fn seal(_: &ProcessId, bits: BitVec) -> BitVec {
        bits
    }

    fn open<'a>(&self, _: ProcessId, payload: &'a BitVec) -> Option<&'a BitVec> {
        Some(payload)
    }

    fn aggregate<'a>(
        &self,
        n: usize,
        _: usize,
        inbox: &'a [Envelope<ResilientMsg>],
    ) -> (Vec<&'a BitVec>, Vec<bool>) {
        let strings = classifications_by_sender(self, inbox).into_values();
        (strings.collect(), vec![false; n])
    }

    fn schedule(n: usize, t: usize, suspicion: &[usize], _: &[bool]) -> Vec<ProcessId> {
        king_schedule(n, t, suspicion)
    }
}

/// What a process learned from the exchange.
#[derive(Debug)]
struct View {
    suspicion: Vec<usize>,
    convicted: Vec<bool>,
    classification: BitVec,
}

/// One process's state machine for the resilient pipeline over the
/// classification exchange `X`: the exchange rounds, then phase king in
/// the throne order the aggregated view induces.
pub struct Resilient<X: Exchange> {
    me: ProcessId,
    n: usize,
    t: usize,
    input: Value,
    prediction: BitVec,
    exchange: X,
    seal: X::Seal,
    view: Option<View>,
    inner: Option<PhaseKing>,
    out: Option<Value>,
}

/// The unsigned resilient pipeline.
///
/// # Examples
///
/// ```
/// use ba_core::{PredictionMatrix, BitVec};
/// use ba_resilient::ResilientBa;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use std::collections::BTreeSet;
///
/// // n = 7, one silent fault (p6), perfect predictions.
/// let n = 7;
/// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
/// let matrix = PredictionMatrix::perfect(n, &faulty);
/// let procs: Vec<ResilientBa> = (0..6u32)
///     .map(|i| {
///         let id = ProcessId(i);
///         ResilientBa::new(id, n, 2, Value(9), matrix.row(id).clone())
///     })
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(ResilientBa::rounds(2));
/// assert_eq!(report.decision(), Some(&Value(9)));
/// ```
pub type ResilientBa = Resilient<PlainExchange>;
/// Messages of the unsigned resilient pipeline.
pub type ResilientMsg = Msg<PlainExchange>;

impl<X: Exchange> Debug for Resilient<X> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilient")
            .field("me", &self.me)
            .field("view", &self.view)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl Resilient<PlainExchange> {
    /// Creates the state machine for process `me`.
    ///
    /// `prediction` is `me`'s n-bit prediction string (bit `j` set ⇔
    /// `p_j` predicted honest), exactly as handed to the paper's
    /// Algorithm 2.
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(me: ProcessId, n: usize, t: usize, input: Value, prediction: BitVec) -> Self {
        Self::with(PlainExchange, me, me, n, t, input, prediction)
    }
}

impl<X: Exchange> Resilient<X> {
    /// Worst-case phase budget of the king tail.
    pub fn phases(t: usize) -> usize {
        X::phases(t)
    }

    /// Total round budget: the exchange rounds plus the phase-king
    /// rounds of the full schedule.
    pub fn rounds(t: usize) -> u64 {
        X::ROUNDS + PhaseKing::rounds(X::phases(t))
    }

    fn with(
        exchange: X,
        seal: X::Seal,
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
    ) -> Self {
        assert!(3 * t < n, "resilient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        Resilient {
            me,
            n,
            t,
            input,
            prediction,
            exchange,
            seal,
            view: None,
            inner: None,
            out: None,
        }
    }

    /// The raw prediction string this process started from.
    pub fn prediction(&self) -> &BitVec {
        &self.prediction
    }

    /// The aggregated classification — bit `j` set ⇔ a majority of the
    /// counted prediction strings trusts `p_j` and `p_j` is not
    /// convicted. This is the pipeline's probe surface: its realized
    /// `k_A` measures prediction quality *after* the exchange has washed
    /// out minority noise, which is the resilience mechanism in one
    /// number. `None` until the king tail starts.
    pub fn classification(&self) -> Option<&BitVec> {
        self.view.as_ref().map(|v| &v.classification)
    }

    /// The per-identifier suspicion scores (`None` until the king tail
    /// starts).
    pub fn suspicion(&self) -> Option<&[usize]> {
        self.view.as_ref().map(|v| &v.suspicion[..])
    }

    /// The king schedule this process derived (`None` until the king
    /// tail starts).
    pub fn schedule(&self) -> Option<Vec<ProcessId>> {
        let v = self.view.as_ref()?;
        Some(X::schedule(self.n, self.t, &v.suspicion, &v.convicted))
    }

    /// Aggregates the exchange and seats the inner trust-ordered phase
    /// king.
    fn seat(&mut self, inbox: &[Envelope<Msg<X>>]) {
        let (strings, convicted) = self.exchange.aggregate(self.n, self.t, inbox);
        let voters = strings.iter().filter(|c| c.len() == self.n).count().max(1);
        let suspicion = suspicion_scores(self.n, strings);
        let mut classification = BitVec::zeros(self.n);
        for (j, &s) in suspicion.iter().enumerate() {
            classification.set(j, 2 * s < voters && !convicted[j]);
        }
        let schedule = X::schedule(self.n, self.t, &suspicion, &convicted);
        self.inner = Some(PhaseKing::with_kings(
            self.me, self.n, self.t, self.input, schedule,
        ));
        self.view = Some(View {
            suspicion,
            convicted,
            classification,
        });
    }
}

impl<X: Exchange> Process for Resilient<X> {
    type Msg = Msg<X>;
    type Output = Value;

    fn step(&mut self, round: u64, inbox: &[Envelope<Msg<X>>], out: &mut Outbox<Msg<X>>) {
        if round == 0 {
            let own = X::seal(&self.seal, self.prediction.clone());
            out.broadcast(Msg::Classify(Arc::new(own)));
            return;
        }
        if round < X::ROUNDS {
            let mut opened: Vec<X::Payload> = Vec::new();
            for env in inbox {
                if let Msg::Classify(payload) = &*env.payload {
                    let valid = self.exchange.open(env.from, payload).is_some();
                    if valid && !opened.contains(payload) {
                        opened.push((**payload).clone());
                    }
                }
            }
            out.broadcast(Msg::Echo(Arc::new(opened)));
            return;
        }
        if round == X::ROUNDS {
            self.seat(inbox);
        }
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        step_sub(
            inner,
            round - X::ROUNDS,
            inbox,
            out,
            Msg::Phase,
            |m| match m {
                Msg::Phase(x) => Some(Arc::clone(x)),
                _ => None,
            },
        );
        if let Some(o) = inner.output() {
            self.out = Some(o.decision.unwrap_or(o.value));
        }
    }

    fn output(&self) -> Option<Value> {
        self.out
    }

    fn halted(&self) -> bool {
        self.out.is_some()
    }
}

/// The worst-case coalition against the resilient pipeline over
/// exchange `X` — the adversary the bench sweeps use to realize the
/// graceful-degradation round curve (every faulty king the error budget
/// promotes stalls its phase):
///
/// * **classification round** — every member seals the vote "everyone
///   is honest", shielding the coalition so that missed-detection
///   budget spent on its members keeps them at the head of the throne
///   order (signed, the shields are properly signed: equivocating would
///   get the coalition convicted and demoted);
/// * **echo rounds** — silence (honest echoes already spread the
///   shields);
/// * **every graded-consensus round** — equivocates value 0 to
///   even-numbered recipients and silence to the odd ones, keeping
///   honest values split below every quorum while no honest king reigns;
/// * **faulty king phases** — splits the crown broadcast (0 to evens,
///   1 to odds).
///
/// The coalition derives the throne order as the honest processes do:
/// rushing visibility over the round-0 classifications, opened per
/// sender (plus its own shield votes, which add no suspicion, and no
/// convictions, because neither side equivocates), reproduces the
/// suspicion scores, so it always knows which phases are its own to
/// waste. Deterministic: no randomness anywhere.
pub struct Disruptor<X: Exchange> {
    n: usize,
    t: usize,
    exchange: X,
    members: Vec<X::Seal>,
    schedule: Vec<ProcessId>,
}

/// The worst-case coalition against the unsigned resilient pipeline.
pub type ResilientDisruptor = Disruptor<PlainExchange>;

impl Disruptor<PlainExchange> {
    /// Creates the disruptor for the given system parameters.
    pub fn new(n: usize, t: usize, faulty: Vec<ProcessId>) -> Self {
        Self::with(n, t, PlainExchange, faulty)
    }
}

impl<X: Exchange> Disruptor<X> {
    fn with(n: usize, t: usize, exchange: X, members: Vec<X::Seal>) -> Self {
        Disruptor {
            n,
            t,
            exchange,
            members,
            schedule: Vec::new(),
        }
    }

    /// The schedule the rushed honest round-0 classification traffic
    /// induces.
    fn reconstruct_schedule(&self, traffic: &[Envelope<Msg<X>>]) -> Vec<ProcessId> {
        let per_sender = classifications_by_sender(&self.exchange, traffic);
        let suspicion = suspicion_scores(self.n, per_sender.into_values());
        X::schedule(self.n, self.t, &suspicion, &vec![false; self.n])
    }

    /// One phase-slot's worth of coalition disruption: equivocate every
    /// graded-consensus round (the message to even recipients, silence
    /// to the odd ones — the selective half-cast that keeps
    /// minimum/plurality-style honest aggregation split) and split the
    /// crown broadcast whenever the scheduled king is a coalition
    /// member.
    fn disrupt_phase(&self, ctx: &mut AdversaryCtx<'_, Msg<X>>, phase: usize, slot: u64) {
        let king = self.schedule[phase];
        let tag = phase as u16;
        let gc = |inner: UnauthGcMsg, first: bool| {
            let inner = Arc::new(inner);
            Msg::Phase(Arc::new(if first {
                PhaseKingMsg::First { phase: tag, inner }
            } else {
                PhaseKingMsg::Second { phase: tag, inner }
            }))
        };
        let split_cast = |ctx: &mut AdversaryCtx<'_, Msg<X>>, msg: Msg<X>| {
            for from in self.members.iter().map(X::sealer) {
                for to in ProcessId::all(self.n).filter(|p| p.0.is_multiple_of(2)) {
                    ctx.send(from, to, msg.clone());
                }
            }
        };
        match slot {
            0 => split_cast(ctx, gc(UnauthGcMsg::Vote(Value(0)), true)),
            1 => split_cast(ctx, gc(UnauthGcMsg::Echo(Value(0)), true)),
            2 => {
                if self.members.iter().any(|m| X::sealer(m) == king) {
                    for to in ProcessId::all(self.n) {
                        let inner = Arc::new(Value(u64::from(to.0 % 2)));
                        let msg = Msg::Phase(Arc::new(PhaseKingMsg::Middle { phase: tag, inner }));
                        ctx.send(king, to, msg);
                    }
                }
            }
            3 => split_cast(ctx, gc(UnauthGcMsg::Vote(Value(0)), false)),
            4 => split_cast(ctx, gc(UnauthGcMsg::Echo(Value(0)), false)),
            _ => unreachable!(),
        }
    }
}

impl<X: Exchange> Adversary<Msg<X>> for Disruptor<X> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, Msg<X>>) {
        if ctx.round == 0 {
            self.schedule = self.reconstruct_schedule(ctx.honest_traffic);
            for seal in &self.members {
                let shield = X::seal(seal, BitVec::ones(self.n));
                ctx.broadcast(X::sealer(seal), Msg::Classify(Arc::new(shield)));
            }
            return;
        }
        if ctx.round < X::ROUNDS {
            return;
        }
        let local = ctx.round - X::ROUNDS;
        let phase = (local / 5) as usize;
        if phase < self.schedule.len() {
            self.disrupt_phase(ctx, phase, local % 5);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_sim::{ReplayAdversary, Runner, SilentAdversary};
    use std::collections::BTreeSet;

    fn faults(ids: &[u32]) -> BTreeSet<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn system(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, ResilientBa> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    ResilientBa::new(id, n, t, Value(input(slot)), matrix.row(id).clone()),
                )
            })
            .collect()
    }

    #[test]
    fn perfect_predictions_decide_in_the_first_phase() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), SilentAdversary);
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        // Classify + phase 0 decides + phase 1 returns: well inside two
        // phases' worth of rounds.
        assert!(report.last_decision_round.expect("decided") <= 1 + 2 * 5 + 1);
    }

    #[test]
    fn rounds_grow_one_phase_per_promoted_faulty_king() {
        // Split inputs never self-unify in the graded consensus (no
        // quorum), so each phase whose scheduled king is silent-faulty
        // stalls. Fully trusting k faulty identifiers (zero suspicion,
        // lowest ids) must cost exactly k extra phases.
        let n = 13;
        let t = 4;
        let f = faults(&[0, 1]);
        let decide_round = |promoted: usize| {
            let mut m = PredictionMatrix::perfect(n, &f);
            for target in 0..promoted {
                for row in ProcessId::all(n).filter(|p| !f.contains(p)) {
                    m.row_mut(row).set(target, true);
                }
            }
            let mut runner = Runner::with_ids(
                n,
                system(n, t, &f, &m, |slot| 1 + (slot % 2) as u64),
                SilentAdversary,
            );
            let report = runner.run(ResilientBa::rounds(t));
            assert!(report.agreement(), "promoted = {promoted}");
            report.last_decision_round.expect("decided")
        };
        let base = decide_round(0);
        assert_eq!(decide_round(1), base + 5, "one faulty king, one phase");
        assert_eq!(decide_round(2), base + 10, "two faulty kings, two phases");
    }

    #[test]
    fn garbage_predictions_still_decide_within_the_budget() {
        // All-zero predictions: everyone suspects everyone, the schedule
        // degenerates to identifier order — the baseline — and the run
        // must still agree on split inputs.
        let n = 10;
        let f = faults(&[0, 4]);
        let m = PredictionMatrix::from_rows(vec![BitVec::zeros(n); n]);
        let mut runner = Runner::with_ids(
            n,
            system(n, 3, &f, &m, |slot| 1 + (slot % 2) as u64),
            SilentAdversary,
        );
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert!(report.all_decided());
    }

    #[test]
    fn unanimity_validity_holds_regardless_of_prediction_quality() {
        let n = 10;
        let f = faults(&[2, 5]);
        let m = PredictionMatrix::all_honest(n);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 4), SilentAdversary);
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)), "unanimity survives");
    }

    #[test]
    fn equivocated_classifications_cannot_break_agreement_or_liveness() {
        // A Byzantine classifier sends a different prediction string to
        // every recipient: honest suspicion views (and therefore throne
        // prefixes) diverge. The identifier-rotation suffix must still
        // crown a common honest king inside the budget.
        use ba_sim::FnAdversary;
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    // Suspect a different singleton per recipient.
                    let mut bits = BitVec::ones(7);
                    bits.set((to.0 as usize) % 7, false);
                    ctx.send(ProcessId(6), to, ResilientMsg::Classify(Arc::new(bits)));
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |slot| (slot % 2) as u64), adv);
        let report = runner.run(ResilientBa::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided(), "suffix rotation guarantees liveness");
    }

    #[test]
    fn equivocated_classifications_split_the_unsigned_schedules() {
        // Pins the *documented conditional* behaviour the rotation
        // suffix exists for: a per-recipient classification equivocator
        // splits the honest suspicion views so thoroughly that no two
        // honest processes share a throne prefix, every prefix phase
        // stalls (nobody believes itself king), and the decision only
        // lands in the common identifier-rotation suffix. The signed
        // variant convicts the equivocator instead — see
        // `signed::tests::equivocated_classifications_are_convicted_and_schedules_agree`.
        use ba_sim::FnAdversary;
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    let mut bits = BitVec::ones(7);
                    bits.set((to.0 as usize) % 7, false);
                    ctx.send(ProcessId(6), to, ResilientMsg::Classify(Arc::new(bits)));
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, |slot| (slot % 2) as u64), adv);
        let report = runner.run(ResilientBa::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided());
        let schedules: Vec<Vec<ProcessId>> = ProcessId::all(n)
            .filter(|p| !f.contains(p))
            .map(|id| {
                runner
                    .process(id)
                    .expect("honest")
                    .schedule()
                    .expect("seated")
            })
            .collect();
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "unsigned equivocation must split the schedules (got \
             {schedules:?}) — if this starts failing, the documented \
             conditionality has changed and the signed variant's \
             contrast tests need revisiting"
        );
        assert!(
            report.last_decision_round.expect("decided") > 1 + 5 * (t as u64 + 1),
            "with fully split prefixes, only the rotation suffix decides"
        );
    }

    #[test]
    fn disruptor_realizes_the_promoted_king_staircase() {
        // Against the worst-case coalition, promoting both faulty
        // identifiers to full trust costs two stalled phases even though
        // the coalition also equivocates every quorum protocol.
        let n = 13;
        let t = 4;
        let f = faults(&[0, 1]);
        let run = |promoted: usize| {
            let mut m = PredictionMatrix::perfect(n, &f);
            for target in 0..promoted {
                for row in ProcessId::all(n).filter(|p| !f.contains(p)) {
                    m.row_mut(row).set(target, true);
                }
            }
            let mut runner = Runner::with_ids(
                n,
                system(n, t, &f, &m, |slot| 1 + (slot % 2) as u64),
                ResilientDisruptor::new(n, t, vec![ProcessId(0), ProcessId(1)]),
            );
            let report = runner.run(ResilientBa::rounds(t));
            assert!(report.agreement(), "promoted = {promoted}");
            report.last_decision_round.expect("decided")
        };
        let base = run(0);
        assert!(run(1) > base, "a promoted faulty king must cost rounds");
        assert!(run(2) > run(1), "and the cost must grow with the count");
    }

    #[test]
    fn replayed_traffic_is_inert() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), ReplayAdversary::new(1));
        let report = runner.run(ResilientBa::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
    }

    #[test]
    fn aggregated_classification_washes_out_minority_noise() {
        // Two honest rows falsely accuse p1 and miss p3: the majority
        // verdict still classifies everyone correctly.
        let n = 10;
        let f = faults(&[3, 7]);
        let mut m = PredictionMatrix::perfect(n, &f);
        m.row_mut(ProcessId(0)).set(1, false);
        m.row_mut(ProcessId(2)).set(1, false);
        m.row_mut(ProcessId(0)).set(3, true);
        m.row_mut(ProcessId(2)).set(3, true);
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, |_| 6), SilentAdversary);
        let _ = runner.run(ResilientBa::rounds(3));
        let p = runner.process(ProcessId(1)).expect("honest");
        let c = p.classification().expect("aggregated");
        for j in 0..n {
            assert_eq!(
                c.get(j),
                !f.contains(&ProcessId(j as u32)),
                "majority verdict wrong about p{j}"
            );
        }
    }

    #[test]
    fn suspicion_scores_count_accusers_and_ignore_garbage_lengths() {
        let a = BitVec::from_bools(&[true, false, true]);
        let b = BitVec::from_bools(&[false, false, true]);
        let junk = BitVec::from_bools(&[false; 7]);
        let s = suspicion_scores(3, [&a, &b, &junk]);
        assert_eq!(s, vec![1, 2, 0]);
    }

    #[test]
    fn king_schedule_puts_trust_first_and_ends_in_rotation() {
        // n = 7, t = 2: 3-slot trust prefix plus rotation p0..p3.
        let suspicion = vec![5, 0, 4, 0, 1, 6, 6];
        let ks = king_schedule(7, 2, &suspicion);
        assert_eq!(ks.len(), ResilientBa::phases(2));
        assert_eq!(&ks[..3], &[ProcessId(1), ProcessId(3), ProcessId(4)]);
        assert_eq!(
            &ks[3..],
            &[ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    #[test]
    fn message_sizes_follow_the_wire_model() {
        let classify = ResilientMsg::Classify(Arc::new(BitVec::ones(16)));
        // 1 discriminant + 4 length prefix + 2 packed bytes.
        assert_eq!(classify.wire_bytes(), 7);
        let king = ResilientMsg::Phase(Arc::new(PhaseKingMsg::Middle {
            phase: 0,
            inner: Arc::new(Value(1)),
        }));
        // 1 + (1 discriminant + 2 phase + 8 value).
        assert_eq!(king.wire_bytes(), 12);
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn rejects_too_many_faults() {
        let _ = ResilientBa::new(ProcessId(0), 9, 3, Value(0), BitVec::ones(9));
    }
}
