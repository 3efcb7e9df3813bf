//! The signed fast path: equivocation-proof certify for the
//! communication-efficient pipeline.
//!
//! The unsigned fast lane ([`crate::CommEff`]) is *conditional*: its
//! certify step trusts that every honest process observes the same
//! report and certificate sets, so a Byzantine aggregator that shows a
//! certificate to one honest half and nothing (or a conflicting one) to
//! the other splits the fast/fallback decision — see the pinned
//! `full_equivocation_can_split_the_unsigned_lane_choice` test. This
//! module removes that conditionality with the [`ba_crypto::Signed`]
//! envelope, following the signed certify step of Dzulfikar–Gilbert's
//! *Communication Efficient Byzantine Agreement with Predictions*:
//!
//! 1. **Signed traffic, verify-on-receive** — submit, report, and
//!    acknowledgement bodies are signed; anything whose signature does
//!    not verify for the envelope sender (forged tags, honest
//!    signatures replayed from corrupted identities) is dropped as if
//!    never sent.
//! 2. **Transferable certificates** — an aggregator certifies by
//!    broadcasting the *proof* itself: `n − t` signed happy
//!    acknowledgements of one value ([`Certificate`]). Since honest
//!    processes sign at most one acknowledgement per execution and two
//!    `n − t` quorums intersect in an honest process (`3t < n`), valid
//!    certificates for two different values cannot both exist — a
//!    Byzantine aggregator can at most *withhold* a certificate, never
//!    fabricate a conflicting one.
//! 3. **Certificate echo** — one extra round: every process holding a
//!    valid certificate re-broadcasts it before anyone decides. A
//!    certificate delivered to even a single honest process *by the
//!    certify round* therefore reaches all of them by the decision
//!    round, so the lane decision is uniform: either every honest
//!    process decides in the (now 6-round) fast lane, or every honest
//!    process enters the fallback.
//!
//! The price is bandwidth, not rounds: a certificate carries `n − t`
//! signatures, so the commit/echo rounds cost `O(n³)` signed bytes —
//! the signed variant trades the unsigned lane's subquadratic
//! communication *under attack* for an unconditional lane choice. With
//! accurate predictions and no equivocation the totals still separate
//! from the `Ω(n²)`-per-round baselines per message count.
//!
//! Receivers additionally accept reports only from their own sampled
//! committee: with accurate predictions a non-member's (necessarily
//! faulty) signed-but-conflicting reports cannot sour acknowledgements,
//! so a signature equivocator cannot force the fallback from outside
//! the committee either.
//!
//! *Scope.* What the signatures buy is the **lane choice** for every
//! certificate first delivered during the certify round — the
//! conditionality the unsigned variant documents and the split pin
//! test demonstrates, including the withheld-certificate attack. Two
//! boundaries remain, both deliberate. First, a genuine certificate a
//! Byzantine holder *first* injects during the echo round itself
//! arrives only at the decision step, too late to be re-echoed; exact
//! last-round agreement is the classic simultaneity bound — closing it
//! costs `Θ(t)` echo rounds, the fallback's whole budget — and
//! reaching this window at all requires a committee with no active
//! honest aggregator (otherwise honest certificates already flooded
//! the echo round). Second, the *value* a certificate certifies is
//! backed by `≥ t + 1` honest signed acknowledgements, i.e. by honest
//! processes that adopted it from their committee-filtered report
//! view; like every committee-sampled fast path, that view is only as
//! honest as the committee, so thoroughly garbage predictions (again,
//! a committee with no active honest aggregator) remain the
//! fallback's, not the fast lane's, responsibility.

use crate::FALLBACK_START as UNSIGNED_FALLBACK_START;
use ba_core::BitVec;
use ba_crypto::{Encodable, Encoder, Pki, Signed, SigningKey};
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_sim::{plurality_smallest, step_sub, Envelope, Outbox, Process, ProcessId, Value, WireSize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// First fallback round: the signed fast lane occupies steps `0..=5`
/// (one certificate-echo round more than the unsigned lane).
const FALLBACK_START: u64 = UNSIGNED_FALLBACK_START + 1;

/// Signed body of a step-0 submission. The leading tag byte
/// domain-separates the fast-lane body kinds, so a signature on one
/// kind can never be replayed as another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitBody {
    /// The sender's input value.
    pub value: Value,
}

impl Encodable for SubmitBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(1);
        enc.u64(self.value.0);
    }
}

impl WireSize for SubmitBody {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes()
    }
}

/// Signed body of a step-1 aggregator report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportBody {
    /// The aggregator's plurality over the submissions it collected.
    pub value: Value,
}

impl Encodable for ReportBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(2);
        enc.u64(self.value.0);
    }
}

impl WireSize for ReportBody {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes()
    }
}

/// Signed body of a step-2 acknowledgement — the unit certificates are
/// made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckBody {
    /// The tentative value adopted from the reports (or own input).
    pub value: Value,
    /// Whether every received report carried the same value.
    pub happy: bool,
}

impl Encodable for AckBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(3);
        enc.u64(self.value.0);
        enc.u8(u8::from(self.happy));
    }
}

impl WireSize for AckBody {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.happy.wire_bytes()
    }
}

/// A transferable certify proof: `n − t` distinct-signer signed happy
/// acknowledgements of one value. Self-certifying — validity depends
/// only on the signatures it carries, never on who relayed it — which
/// is what makes the echo round close the unsigned variant's
/// split-view loophole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// The certified value.
    pub value: Value,
    /// The quorum of signed happy acknowledgements backing it.
    pub acks: Vec<Signed<AckBody>>,
}

impl Certificate {
    /// Verifies the proof: at least `n − t` *distinct* in-range signers,
    /// every acknowledgement happy, for this value, validly signed.
    pub fn verify(&self, pki: &Pki, n: usize, t: usize) -> bool {
        let mut signers = BTreeSet::new();
        for ack in &self.acks {
            let signer = ack.signer();
            if (signer as usize) >= n {
                return false;
            }
            let Some(body) = ack.verified_from(pki, signer) else {
                return false;
            };
            if !body.happy || body.value != self.value {
                return false;
            }
            signers.insert(signer);
        }
        signers.len() >= n - t
    }
}

impl WireSize for Certificate {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.acks.wire_bytes()
    }
}

/// Messages of the signed communication-efficient pipeline. Fast-lane
/// bodies are signed and verified on receive; certificates are
/// self-certifying, so their variants carry no outer signature.
#[derive(Clone, Debug)]
pub enum CommEffSignedMsg {
    /// Step 0 → committee: the sender's signed input value.
    Submit(Signed<SubmitBody>),
    /// Step 1 → all: an active aggregator's signed report.
    Report(Signed<ReportBody>),
    /// Step 2 → committee: the sender's signed acknowledgement.
    Ack(Signed<AckBody>),
    /// Step 3 → all: an aggregator's certify proof.
    Commit(Arc<Certificate>),
    /// Step 4 → all: a certificate re-broadcast by any process that
    /// holds one, making the lane decision uniform.
    Echo(Arc<Certificate>),
    /// Steps 6+: wrapped phase-king fallback traffic.
    Fallback(Arc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload; each signed body
/// costs its unsigned counterpart plus exactly the 20-byte signature.
impl WireSize for CommEffSignedMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            CommEffSignedMsg::Submit(s) => s.wire_bytes(),
            CommEffSignedMsg::Report(s) => s.wire_bytes(),
            CommEffSignedMsg::Ack(s) => s.wire_bytes(),
            CommEffSignedMsg::Commit(c) | CommEffSignedMsg::Echo(c) => c.wire_bytes(),
            CommEffSignedMsg::Fallback(inner) => inner.wire_bytes(),
        }
    }
}

/// One process's state machine for the signed communication-efficient
/// pipeline.
///
/// # Examples
///
/// ```
/// use ba_commeff::CommEffSigned;
/// use ba_core::PredictionMatrix;
/// use ba_crypto::Pki;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use std::collections::BTreeSet;
/// use std::sync::Arc;
///
/// // n = 7, one silent fault (p6), perfect predictions.
/// let n = 7;
/// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
/// let matrix = PredictionMatrix::perfect(n, &faulty);
/// let pki = Arc::new(Pki::new(n, 1));
/// let procs: Vec<CommEffSigned> = (0..6u32)
///     .map(|i| {
///         let id = ProcessId(i);
///         let key = pki.signing_key(i);
///         CommEffSigned::new(id, n, 2, Value(9), matrix.row(id).clone(), Arc::clone(&pki), key)
///     })
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(CommEffSigned::rounds(2));
/// assert_eq!(report.decision(), Some(&Value(9)));
/// assert_eq!(report.last_decision_round, Some(5), "6-round signed fast lane");
/// ```
pub struct CommEffSigned {
    me: ProcessId,
    n: usize,
    t: usize,
    input: Value,
    prediction: BitVec,
    committee: Vec<ProcessId>,
    degenerate: bool,
    pki: Arc<Pki>,
    key: SigningKey,
    /// Set at step 1 when this process received `n − t` valid
    /// submissions.
    active: bool,
    tentative: Value,
    /// The first valid certificate observed (held across the echo
    /// round).
    cert: Option<Arc<Certificate>>,
    fallback: Option<PhaseKing>,
    out: Option<Value>,
}

impl std::fmt::Debug for CommEffSigned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommEffSigned")
            .field("me", &self.me)
            .field("committee", &self.committee)
            .field("active", &self.active)
            .field("cert", &self.cert.is_some())
            .field("fallback", &self.fallback.is_some())
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl CommEffSigned {
    /// Total round budget: the 6-round signed fast lane plus the full
    /// phase-king fallback.
    pub fn rounds(t: usize) -> u64 {
        FALLBACK_START + PhaseKing::rounds(PhaseKing::phases_for(t))
    }

    /// Creates the state machine for process `me`.
    ///
    /// The committee sampling (and the degenerate-prediction divert)
    /// is shared with the unsigned variant: see
    /// [`crate::CommEff::committee_of`].
    ///
    /// # Panics
    ///
    /// Panics unless `3t < n` and the prediction has `n` bits.
    pub fn new(
        me: ProcessId,
        n: usize,
        t: usize,
        input: Value,
        prediction: BitVec,
        pki: Arc<Pki>,
        key: SigningKey,
    ) -> Self {
        assert!(3 * t < n, "communication-efficient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        let (committee, degenerate) = match crate::CommEff::committee_of(&prediction) {
            Some(c) => (c, false),
            None => (Vec::new(), true),
        };
        CommEffSigned {
            me,
            n,
            t,
            input,
            prediction,
            committee,
            degenerate,
            pki,
            key,
            active: false,
            tentative: input,
            cert: None,
            fallback: None,
            out: None,
        }
    }

    /// This process's sampled committee (empty when degenerate).
    pub fn committee(&self) -> &[ProcessId] {
        &self.committee
    }

    /// The raw prediction string this process acts on (the probe
    /// surface, as in the unsigned variant).
    pub fn prediction(&self) -> &BitVec {
        &self.prediction
    }

    /// Whether the fallback lane was engaged.
    pub fn fell_back(&self) -> bool {
        self.fallback.is_some()
    }

    /// Whether the prediction was degenerate (no fillable committee).
    pub fn degenerate(&self) -> bool {
        self.degenerate
    }

    /// Collects the first *valid* signed body per sender from the
    /// inbox: signature verified for the envelope sender, everything
    /// else dropped as never sent.
    fn valid_by_sender<B: Encodable + Clone>(
        &self,
        inbox: &[Envelope<CommEffSignedMsg>],
        extract: impl Fn(&CommEffSignedMsg) -> Option<&Signed<B>>,
    ) -> BTreeMap<ProcessId, B> {
        let mut per_sender = BTreeMap::new();
        for env in inbox {
            if let Some(signed) = extract(&env.payload) {
                if let Some(body) = signed.verified_from(&self.pki, env.from.0) {
                    per_sender.entry(env.from).or_insert_with(|| body.clone());
                }
            }
        }
        per_sender
    }

    /// The first valid certificate in the inbox, if any.
    fn valid_cert(&self, inbox: &[Envelope<CommEffSignedMsg>]) -> Option<Arc<Certificate>> {
        inbox.iter().find_map(|env| match &*env.payload {
            CommEffSignedMsg::Commit(c) | CommEffSignedMsg::Echo(c)
                if c.verify(&self.pki, self.n, self.t) =>
            {
                Some(Arc::clone(c))
            }
            _ => None,
        })
    }

    fn step_fallback(
        &mut self,
        round: u64,
        inbox: &[Envelope<CommEffSignedMsg>],
        out: &mut Outbox<CommEffSignedMsg>,
    ) {
        let Some(inner) = self.fallback.as_mut() else {
            return;
        };
        step_sub(
            inner,
            round - FALLBACK_START,
            inbox,
            out,
            CommEffSignedMsg::Fallback,
            |m| match m {
                CommEffSignedMsg::Fallback(x) => Some(Arc::clone(x)),
                _ => None,
            },
        );
        if let Some(o) = inner.output() {
            self.out = Some(o.decision.unwrap_or(o.value));
        }
    }
}

impl Process for CommEffSigned {
    type Msg = CommEffSignedMsg;
    type Output = Value;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<CommEffSignedMsg>],
        out: &mut Outbox<CommEffSignedMsg>,
    ) {
        if self.out.is_some() && self.fallback.is_none() {
            return; // fast-lane decision reached; nothing left to send
        }
        match round {
            // Step 0: route the signed input to the sampled committee.
            0 => {
                if !self.degenerate {
                    out.multicast(
                        self.committee.iter().copied(),
                        CommEffSignedMsg::Submit(Signed::new(
                            SubmitBody { value: self.input },
                            &self.key,
                        )),
                    );
                }
            }
            // Step 1: processes trusted by n − t peers aggregate over
            // the *verified* submissions.
            1 => {
                if self.degenerate {
                    return;
                }
                let submits = self.valid_by_sender(inbox, |m| match m {
                    CommEffSignedMsg::Submit(s) => Some(s),
                    _ => None,
                });
                if submits.len() >= self.n - self.t {
                    self.active = true;
                    let v = plurality_smallest(submits.values().map(|b| b.value))
                        .expect("n − t ≥ 1 submissions");
                    out.broadcast(CommEffSignedMsg::Report(Signed::new(
                        ReportBody { value: v },
                        &self.key,
                    )));
                }
            }
            // Step 2: adopt the verified report plurality — counting
            // only reports from this process's own committee, so a
            // signature equivocator outside it cannot sour the
            // acknowledgements — and acknowledge happiness.
            2 => {
                let committee: BTreeSet<ProcessId> = self.committee.iter().copied().collect();
                let mut reports = self.valid_by_sender(inbox, |m| match m {
                    CommEffSignedMsg::Report(s) => Some(s),
                    _ => None,
                });
                reports.retain(|sender, _| committee.contains(sender));
                let happy = !reports.is_empty()
                    && reports
                        .values()
                        .all(|b| b.value == reports.values().next().expect("non-empty").value);
                self.tentative =
                    plurality_smallest(reports.values().map(|b| b.value)).unwrap_or(self.input);
                if !self.degenerate {
                    out.multicast(
                        self.committee.iter().copied(),
                        CommEffSignedMsg::Ack(Signed::new(
                            AckBody {
                                value: self.tentative,
                                happy,
                            },
                            &self.key,
                        )),
                    );
                }
            }
            // Step 3: aggregators assemble a certificate — n − t
            // verified happy acknowledgements of one value — and
            // broadcast the proof itself. No valid certificates for two
            // different values can exist (quorum intersection), so
            // retreat claims are unnecessary: absence of proof is the
            // fallback signal.
            3 => {
                if !self.active {
                    return;
                }
                let mut by_value: BTreeMap<Value, Vec<Signed<AckBody>>> = BTreeMap::new();
                let mut seen: BTreeSet<ProcessId> = BTreeSet::new();
                for env in inbox {
                    let CommEffSignedMsg::Ack(signed) = &*env.payload else {
                        continue;
                    };
                    let Some(body) = signed.verified_from(&self.pki, env.from.0) else {
                        continue;
                    };
                    if body.happy && seen.insert(env.from) {
                        by_value.entry(body.value).or_default().push(signed.clone());
                    }
                }
                if let Some((value, acks)) = by_value
                    .into_iter()
                    .find(|(_, acks)| acks.len() >= self.n - self.t)
                {
                    out.broadcast(CommEffSignedMsg::Commit(Arc::new(Certificate {
                        value,
                        acks,
                    })));
                }
            }
            // Step 4: certificate echo — any process holding a valid
            // proof re-broadcasts it, so one honest recipient suffices
            // to make the whole honest population decide.
            4 => {
                if let Some(cert) = self.valid_cert(inbox) {
                    out.broadcast(CommEffSignedMsg::Echo(Arc::clone(&cert)));
                    self.cert = Some(cert);
                }
            }
            // Step 5: the uniform lane decision — a valid certificate
            // (held from step 4 or echoed to us) decides; no proof
            // anywhere means no honest process saw one either, so
            // everyone enters the fallback together.
            5 => {
                let cert = self.cert.take().or_else(|| self.valid_cert(inbox));
                match cert {
                    Some(c) => self.out = Some(c.value),
                    None => {
                        self.fallback = Some(PhaseKing::new(
                            self.me,
                            self.n,
                            self.t,
                            self.tentative,
                            PhaseKing::phases_for(self.t),
                        ));
                    }
                }
            }
            _ => self.step_fallback(round, inbox, out),
        }
    }

    fn output(&self) -> Option<Value> {
        self.out
    }

    fn halted(&self) -> bool {
        match &self.fallback {
            Some(inner) => inner.halted(),
            None => self.out.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_sim::{AdversaryCtx, FnAdversary, ReplayAdversary, Runner, SilentAdversary};
    use std::collections::BTreeSet;

    fn faults(ids: &[u32]) -> BTreeSet<ProcessId> {
        ids.iter().copied().map(ProcessId).collect()
    }

    fn system(
        n: usize,
        t: usize,
        faulty: &BTreeSet<ProcessId>,
        matrix: &PredictionMatrix,
        pki: &Arc<Pki>,
        input: impl Fn(usize) -> u64,
    ) -> BTreeMap<ProcessId, CommEffSigned> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    CommEffSigned::new(
                        id,
                        n,
                        t,
                        Value(input(slot)),
                        matrix.row(id).clone(),
                        Arc::clone(pki),
                        pki.signing_key(id.0),
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn fast_lane_decides_in_six_rounds_with_perfect_predictions() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, &pki, |_| 6), SilentAdversary);
        let report = runner.run(CommEffSigned::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(report.last_decision_round, Some(5), "signed fast lane");
    }

    #[test]
    fn fast_lane_agrees_on_split_inputs() {
        let n = 13;
        let f = faults(&[1, 6]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let mut runner = Runner::with_ids(
            n,
            system(n, 4, &f, &m, &pki, |slot| 1 + (slot % 2) as u64),
            SilentAdversary,
        );
        let report = runner.run(CommEffSigned::rounds(4));
        assert!(report.agreement());
        assert_eq!(report.last_decision_round, Some(5), "still the fast lane");
    }

    #[test]
    fn garbage_predictions_divert_into_the_fallback_and_still_agree() {
        let n = 7;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let pki = Arc::new(Pki::new(n, 5));
        let mut runner = Runner::with_ids(n, system(n, 2, &f, &m, &pki, |_| 9), SilentAdversary);
        let report = runner.run(CommEffSigned::rounds(2));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(9)), "unanimity survives");
        assert!(
            report.last_decision_round.expect("decided") > 5,
            "fallback lane"
        );
    }

    /// The signed mirror of the unsigned split pin
    /// (`full_equivocation_can_split_the_unsigned_lane_choice`): same
    /// topology, same equivocating aggregator — but its report
    /// equivocation leaves no value with an `n − t` happy-ack quorum,
    /// so no valid certificate exists and its conflicting certify
    /// claims are unverifiable noise. Every honest process makes the
    /// *same* lane choice and the full-quorum fallback decides.
    #[test]
    fn report_equivocation_cannot_split_the_signed_lane() {
        let n = 7;
        let t = 2;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let pki = Arc::new(Pki::new(n, 5));
        let adv_pki = Arc::clone(&pki);
        let key0 = pki.signing_key(0);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| {
            match ctx.round {
                1 => {
                    for to in ProcessId::all(7) {
                        let v = if to.0.is_multiple_of(2) {
                            Value(7)
                        } else {
                            Value(9)
                        };
                        let msg =
                            CommEffSignedMsg::Report(Signed::new(ReportBody { value: v }, &key0));
                        ctx.send(ProcessId(0), to, msg);
                    }
                }
                3 => {
                    // A certificate forged from self-signed acks
                    // claiming honest signers: must not verify.
                    let forged: Vec<Signed<AckBody>> = (1..6u32)
                        .map(|claimed| {
                            let body = AckBody {
                                value: Value(7),
                                happy: true,
                            };
                            let mut sig = *Signed::new(body, &key0).signature();
                            sig.signer = claimed;
                            Signed::from_parts(body, sig)
                        })
                        .collect();
                    let cert = Arc::new(Certificate {
                        value: Value(7),
                        acks: forged,
                    });
                    assert!(!cert.verify(&adv_pki, 7, 2), "forgery must not verify");
                    for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                        ctx.send(
                            ProcessId(0),
                            to,
                            CommEffSignedMsg::Commit(Arc::clone(&cert)),
                        );
                    }
                }
                _ => {}
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 7), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement(), "signed lane choice must not split");
        assert!(report.all_decided(), "full-quorum fallback must decide");
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                runner.process(id).expect("honest").fell_back(),
                "{id} must make the same (fallback) lane choice"
            );
        }
    }

    /// The other half of the contrast: when a genuine certificate *can*
    /// be assembled (consistent reports, happy honest acks) but the
    /// Byzantine aggregator withholds it from half the processes, the
    /// echo round forwards the transferable proof and everyone decides
    /// in the fast lane — where the unsigned variant strands the other
    /// half in an under-quorum fallback.
    #[test]
    fn withheld_certificates_cannot_split_the_signed_lane() {
        let n = 7;
        let t = 2;
        let f = faults(&[0]);
        let m = PredictionMatrix::all_honest(n);
        let pki = Arc::new(Pki::new(n, 5));
        let key0 = pki.signing_key(0);
        let acks = Arc::new(std::sync::Mutex::new(Vec::<Signed<AckBody>>::new()));
        let acks_in = Arc::clone(&acks);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| {
            match ctx.round {
                // A consistent report: every honest ack will be happy.
                1 => {
                    let msg = CommEffSignedMsg::Report(Signed::new(
                        ReportBody { value: Value(7) },
                        &key0,
                    ));
                    ctx.broadcast(ProcessId(0), msg);
                }
                // Rushing visibility: harvest the signed happy acks.
                2 => {
                    let mut store = acks_in.lock().expect("poisoned");
                    for env in ctx.honest_traffic {
                        if let CommEffSignedMsg::Ack(signed) = &*env.payload {
                            store.push(signed.clone());
                        }
                    }
                }
                // Deliver the genuine certificate to the evens only.
                3 => {
                    let store = acks_in.lock().expect("poisoned");
                    let cert = Arc::new(Certificate {
                        value: Value(7),
                        acks: store.clone(),
                    });
                    for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                        ctx.send(
                            ProcessId(0),
                            to,
                            CommEffSignedMsg::Commit(Arc::clone(&cert)),
                        );
                    }
                }
                _ => {}
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 7), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement(), "withholding must not split the halves");
        assert!(report.all_decided());
        assert_eq!(report.decision(), Some(&Value(7)));
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            assert!(
                !runner.process(id).expect("honest").fell_back(),
                "{id} must ride the echoed certificate into the fast lane"
            );
        }
        assert_eq!(
            report.last_decision_round,
            Some(5),
            "uniform fast-lane decision at the echo checkpoint"
        );
    }

    #[test]
    fn forged_and_replayed_signatures_are_inert() {
        // Forged tags claiming honest signers and honest signed bodies
        // replayed from a corrupted identity must all be dropped by
        // verify-on-receive: the fast lane proceeds as under silence.
        let n = 10;
        let t = 3;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, CommEffSignedMsg>| {
            // Replay every observed honest signed body from p3.
            let observed: Vec<Arc<CommEffSignedMsg>> = ctx
                .honest_traffic
                .iter()
                .map(|e| Arc::clone(&e.payload))
                .collect();
            for payload in observed {
                for to in ProcessId::all(10) {
                    ctx.replay(ProcessId(3), to, Arc::clone(&payload));
                }
            }
            // Forge a submission claiming an honest signer.
            let body = SubmitBody { value: Value(99) };
            let mut sig = *Signed::new(body, &key3).signature();
            sig.signer = 1;
            let forged = CommEffSignedMsg::Submit(Signed::from_parts(body, sig));
            ctx.broadcast(ProcessId(3), forged);
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 6), adv);
        let report = runner.run(CommEffSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(
            report.last_decision_round,
            Some(5),
            "forgeries and replays cannot divert the fast lane"
        );
    }

    #[test]
    fn replayed_traffic_is_inert() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let mut runner = Runner::with_ids(
            n,
            system(n, 3, &f, &m, &pki, |_| 6),
            ReplayAdversary::new(1),
        );
        let report = runner.run(CommEffSigned::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert_eq!(report.last_decision_round, Some(5), "replay cannot stall");
    }

    #[test]
    fn signed_messages_cost_exactly_the_signature_model_more() {
        // The conformance contract: each signed fast-lane message costs
        // its unsigned counterpart plus exactly the 20-byte signature.
        let pki = Pki::new(4, 1);
        let key = pki.signing_key(0);
        let submit = CommEffSignedMsg::Submit(Signed::new(SubmitBody { value: Value(1) }, &key));
        assert_eq!(
            submit.wire_bytes(),
            crate::CommEffMsg::Submit(Value(1)).wire_bytes() + 20
        );
        let report = CommEffSignedMsg::Report(Signed::new(ReportBody { value: Value(1) }, &key));
        assert_eq!(
            report.wire_bytes(),
            crate::CommEffMsg::Report(Value(1)).wire_bytes() + 20
        );
        let ack = CommEffSignedMsg::Ack(Signed::new(
            AckBody {
                value: Value(1),
                happy: true,
            },
            &key,
        ));
        assert_eq!(
            ack.wire_bytes(),
            crate::CommEffMsg::Ack {
                value: Value(1),
                happy: true
            }
            .wire_bytes()
                + 20
        );
    }

    #[test]
    fn certificates_for_two_values_cannot_coexist() {
        // Quorum intersection, exercised: with n = 7, t = 2 any two
        // n − t = 5 ack quorums share ≥ 3 signers, so building valid
        // certificates for two values requires some signer to happily
        // ack both — which the verifier accepts (signatures bind bodies,
        // not executions) but honest processes never produce. Assemble
        // the adversarial best case — all t faulty signers double-ack —
        // and check a second-value quorum still cannot be reached
        // without honest double-acks.
        let n = 7;
        let t = 2;
        let pki = Pki::new(n, 3);
        let happy = |signer: u32, value: u64| {
            Signed::new(
                AckBody {
                    value: Value(value),
                    happy: true,
                },
                &pki.signing_key(signer),
            )
        };
        // 5 honest signers ack value 4; the 2 faulty ack both values.
        let cert_a = Certificate {
            value: Value(4),
            acks: (0..5u32).map(|s| happy(s, 4)).collect(),
        };
        assert!(cert_a.verify(&pki, n, t));
        let cert_b = Certificate {
            value: Value(9),
            acks: (5..7u32).map(|s| happy(s, 9)).collect(),
        };
        assert!(
            !cert_b.verify(&pki, n, t),
            "t double-ackers alone are below every n − t quorum"
        );
    }

    #[test]
    fn certificate_verification_rejects_duplicates_and_unhappy_acks() {
        let n = 7;
        let t = 2;
        let pki = Pki::new(n, 3);
        let ack = |signer: u32, happy: bool| {
            Signed::new(
                AckBody {
                    value: Value(4),
                    happy,
                },
                &pki.signing_key(signer),
            )
        };
        let duplicated = Certificate {
            value: Value(4),
            acks: vec![ack(0, true); 5],
        };
        assert!(
            !duplicated.verify(&pki, n, t),
            "one signer repeated is one signer"
        );
        let unhappy = Certificate {
            value: Value(4),
            acks: (0..5u32).map(|s| ack(s, s != 2)).collect(),
        };
        assert!(!unhappy.verify(&pki, n, t), "unhappy acks prove nothing");
        let out_of_range = Certificate {
            value: Value(4),
            acks: (0..5u32)
                .map(|s| {
                    Signed::new(
                        AckBody {
                            value: Value(4),
                            happy: true,
                        },
                        &Pki::new(20, 3).signing_key(s + 10),
                    )
                })
                .collect(),
        };
        assert!(!out_of_range.verify(&pki, n, t), "unknown signers rejected");
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn rejects_too_many_faults() {
        let pki = Arc::new(Pki::new(9, 1));
        let key = pki.signing_key(0);
        let _ = CommEffSigned::new(ProcessId(0), 9, 3, Value(0), BitVec::ones(9), pki, key);
    }
}
