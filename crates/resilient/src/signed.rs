//! The signed classification exchange: agreeing suspicion views, a
//! `t + 2`-phase budget, and no rotation suffix.
//!
//! The unsigned resilient pipeline ([`crate::ResilientBa`]) broadcasts
//! prediction strings unauthenticated, so a Byzantine classifier can
//! send a *different* string to every recipient and split the honest
//! suspicion views — which is exactly why the unsigned
//! [`crate::king_schedule`] pays an unconditional `t + 2`-phase
//! identifier-rotation suffix (worst case `2t + 3` phases; the split is
//! pinned by `equivocated_classifications_split_the_unsigned_schedules`).
//! Following Dallot et al.'s signed exchange, this module removes the
//! suffix:
//!
//! 1. **Signed classifications, verify-on-receive** — round 0
//!    broadcasts each process's prediction string in a
//!    [`ba_crypto::Signed`] envelope; forged tags and replayed honest
//!    signatures are dropped.
//! 2. **Echo round with carrier attestation** — round 1 re-broadcasts
//!    every *valid* signed classification received, and round 2
//!    aggregates only strings carried by **`≥ t + 1` distinct
//!    echoers**. Honest echoes are broadcast, so the honest carrier
//!    count of every string is identical at every honest process: a
//!    string broadcast in round 0 clears the threshold everywhere
//!    (`n − f ≥ t + 1` honest echo it), while a string *injected*
//!    selectively into echo-round inboxes — never broadcast — can
//!    muster at most `f ≤ t` faulty carriers and is ignored
//!    everywhere. Without the threshold, one such injection would
//!    split the suspicion views with zero equivocation.
//! 3. **Equivocation conviction** — two distinct attested strings from
//!    one signer are transferable *proof* of equivocation: the signer
//!    is convicted and demoted below every unconvicted identifier
//!    ([`signed_king_schedule`]), its strings ignored. Honest
//!    processes sign exactly one string, so they can never be
//!    convicted. Finer-grained equivocation (each string shown to
//!    `≤ t` processes) stays below the attestation threshold and is
//!    ignored wholesale — either way the equivocator contributes
//!    nothing, and the aggregated views agree.
//!
//! With agreeing schedules the suffix is dead weight: the schedule is
//! just the `t + 2` least-suspected identifiers, which always include
//! at least two honest ones (`f ≤ t`), so a common honest king reigns
//! by phase `t + 1` and the run decides within `t + 2` phases — down
//! from the unsigned variant's `2t + 3`. Every faulty identifier the
//! error budget promotes still costs exactly one stalled phase, so the
//! graceful staircase is preserved; only the equivocation insurance
//! premium is gone. The price is the echo round's `O(n³)` signed-string
//! bytes, charged faithfully by the wire model.
//!
//! *Scope.* One window remains: a string delivered in round 0 to
//! `k ∈ [t + 1 − f, t]` honest processes sits at the attestation
//! boundary, where selective faulty echoes can tip inclusion for some
//! honest processes and not others. Closing it needs interactive
//! consistency on the classification set — `Θ(t)` more rounds — which
//! would cost more than the `t + 1` phases the suffix-free schedule
//! saves; the conformance suite pins the behaviour the threshold does
//! guarantee (pure injection and per-recipient equivocation defeated
//! at n ∈ {16, 32, 64}).

use crate::{suspicion_scores, ResilientDisruptor};
use ba_core::BitVec;
use ba_crypto::{Encodable, Encoder, Pki, Signed, SigningKey};
use ba_early::{PhaseKing, PhaseKingMsg};
use ba_sim::{
    step_sub, Adversary, AdversaryCtx, Envelope, Outbox, Process, ProcessId, Value, WireSize,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// First phase-king round: classification occupies round 0, the echo
/// round 1.
const PHASE_START: u64 = 2;

/// Signed body of a classification broadcast: the sender's `n`-bit
/// prediction string. The leading tag byte domain-separates it from
/// every other signed body kind in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifyBody {
    /// The prediction string (bit `j` set ⇔ `p_j` predicted honest).
    pub bits: BitVec,
}

impl Encodable for ClassifyBody {
    fn encode(&self, enc: &mut Encoder) {
        enc.u8(16);
        enc.u64(self.bits.len() as u64);
        let mut packed = vec![0u8; self.bits.len().div_ceil(8)];
        for j in 0..self.bits.len() {
            if self.bits.get(j) {
                packed[j / 8] |= 1 << (j % 8);
            }
        }
        enc.bytes(&packed);
    }
}

impl WireSize for ClassifyBody {
    fn wire_bytes(&self) -> u64 {
        self.bits.wire_bytes()
    }
}

/// Messages of the signed resilient pipeline.
#[derive(Clone, Debug)]
pub enum ResilientSignedMsg {
    /// Round 0 → all: the sender's signed prediction string.
    Classify(Arc<Signed<ClassifyBody>>),
    /// Round 1 → all: every valid signed classification the sender
    /// received — the common-pool mechanism behind agreeing views.
    Echo(Arc<Vec<Signed<ClassifyBody>>>),
    /// Rounds 2+: wrapped trust-ordered phase-king traffic.
    Phase(Arc<PhaseKingMsg>),
}

/// A discriminant byte plus the variant's payload; a signed
/// classification costs its unsigned counterpart plus exactly the
/// 20-byte signature.
impl WireSize for ResilientSignedMsg {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            ResilientSignedMsg::Classify(s) => s.wire_bytes(),
            ResilientSignedMsg::Echo(entries) => entries.wire_bytes(),
            ResilientSignedMsg::Phase(inner) => inner.wire_bytes(),
        }
    }
}

/// The throne order of the signed pipeline: the `t + 2` least-suspected
/// identifiers (ties toward the smaller id), with convicted
/// equivocators demoted below every unconvicted identifier — and **no**
/// rotation suffix, because the signed exchange makes the honest
/// suspicion views (and therefore the schedules) agree.
///
/// The schedule always contains at least two honest identifiers (at
/// most `f ≤ t` faulty ones exist), so under an agreeing view a common
/// honest king reigns by phase `t + 1` and the early-stopping phase
/// king decides within `t + 2` phases.
///
/// # Panics
///
/// Panics unless `suspicion` and `convicted` have one entry per
/// identifier and `t + 2 ≤ n`.
pub fn signed_king_schedule(
    n: usize,
    t: usize,
    suspicion: &[usize],
    convicted: &[bool],
) -> Vec<ProcessId> {
    assert_eq!(suspicion.len(), n, "one suspicion score per identifier");
    assert_eq!(convicted.len(), n, "one conviction flag per identifier");
    assert!(t + 2 <= n, "the schedule needs t + 2 identifiers");
    let mut by_trust: Vec<usize> = (0..n).collect();
    by_trust.sort_by_key(|&j| (convicted[j], suspicion[j], j));
    by_trust
        .into_iter()
        .take(t + 2)
        .map(|j| ProcessId(j as u32))
        .collect()
}

/// One process's state machine for the signed resilient pipeline.
///
/// # Examples
///
/// ```
/// use ba_core::PredictionMatrix;
/// use ba_crypto::Pki;
/// use ba_resilient::ResilientSigned;
/// use ba_sim::{ProcessId, Runner, SilentAdversary, Value};
/// use std::collections::BTreeSet;
/// use std::sync::Arc;
///
/// // n = 7, one silent fault (p6), perfect predictions.
/// let n = 7;
/// let faulty: BTreeSet<ProcessId> = [ProcessId(6)].into_iter().collect();
/// let matrix = PredictionMatrix::perfect(n, &faulty);
/// let pki = Arc::new(Pki::new(n, 1));
/// let procs: Vec<ResilientSigned> = (0..6u32)
///     .map(|i| {
///         let id = ProcessId(i);
///         let key = pki.signing_key(i);
///         ResilientSigned::new(id, n, 2, Value(9), matrix.row(id).clone(), Arc::clone(&pki), key)
///     })
///     .collect();
/// let mut runner = Runner::new(n, procs, SilentAdversary);
/// let report = runner.run(ResilientSigned::rounds(2));
/// assert_eq!(report.decision(), Some(&Value(9)));
/// ```
pub struct ResilientSigned {
    me: ProcessId,
    n: usize,
    t: usize,
    input: Value,
    prediction: BitVec,
    pki: Arc<Pki>,
    key: SigningKey,
    /// Valid signed classifications received directly in round 0
    /// (possibly several distinct ones per equivocating sender).
    /// Consumed by the round-1 echo; the round-2 aggregation reads
    /// echoes only (its own echo included, via self-delivery).
    received: Vec<Signed<ClassifyBody>>,
    suspicion: Option<Vec<usize>>,
    convicted: Option<Vec<bool>>,
    classification: Option<BitVec>,
    inner: Option<PhaseKing>,
    out: Option<Value>,
}

impl std::fmt::Debug for ResilientSigned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientSigned")
            .field("me", &self.me)
            .field("suspicion", &self.suspicion)
            .field("convicted", &self.convicted)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl ResilientSigned {
    /// Phase budget: `t + 2` suspicion-ordered slots — no rotation
    /// suffix (compare [`crate::ResilientBa::phases`]'s `2t + 3`).
    pub fn phases(t: usize) -> usize {
        t + 2
    }

    /// Total round budget: classification + echo + the phase-king
    /// rounds of the suffix-free schedule.
    pub fn rounds(t: usize) -> u64 {
        PHASE_START + PhaseKing::rounds(Self::phases(t))
    }

    /// Creates the state machine for process `me`.
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
        assert!(3 * t < n, "resilient BA needs 3t < n");
        assert_eq!(prediction.len(), n, "prediction must have n bits");
        ResilientSigned {
            me,
            n,
            t,
            input,
            prediction,
            pki,
            key,
            received: Vec::new(),
            suspicion: None,
            convicted: None,
            classification: None,
            inner: None,
            out: None,
        }
    }

    /// The raw prediction string this process started from.
    pub fn prediction(&self) -> &BitVec {
        &self.prediction
    }

    /// The aggregated majority classification (the probe surface, as in
    /// the unsigned variant); convicted equivocators are classified
    /// faulty. `None` until round 2.
    pub fn classification(&self) -> Option<&BitVec> {
        self.classification.as_ref()
    }

    /// The per-identifier suspicion scores aggregated at round 2.
    pub fn suspicion(&self) -> Option<&[usize]> {
        self.suspicion.as_deref()
    }

    /// Which identifiers were convicted of classification equivocation
    /// (`None` until round 2).
    pub fn convicted(&self) -> Option<&[bool]> {
        self.convicted.as_deref()
    }

    /// The suffix-free king schedule this process derived (`None` until
    /// round 2).
    pub fn schedule(&self) -> Option<Vec<ProcessId>> {
        match (&self.suspicion, &self.convicted) {
            (Some(s), Some(c)) => Some(signed_king_schedule(self.n, self.t, s, c)),
            _ => None,
        }
    }

    /// Collects the valid signed classifications of an inbox: signature
    /// verified for the envelope sender, duplicates dropped, *distinct*
    /// equivocated strings kept (they are conviction evidence).
    fn valid_classifications(
        &self,
        inbox: &[Envelope<ResilientSignedMsg>],
    ) -> Vec<Signed<ClassifyBody>> {
        let mut valid: Vec<Signed<ClassifyBody>> = Vec::new();
        for env in inbox {
            let ResilientSignedMsg::Classify(signed) = &*env.payload else {
                continue;
            };
            if signed.verified_from(&self.pki, env.from.0).is_none() {
                continue;
            }
            if !valid.iter().any(|s| *s == **signed) {
                valid.push((**signed).clone());
            }
        }
        valid
    }

    /// Aggregates the echoed common pool into suspicion scores,
    /// convictions, and the seated phase king.
    ///
    /// Only strings carried by **at least `t + 1` distinct echoers**
    /// count (for scoring *and* conviction). Honest echoes are
    /// broadcast, so the honest carrier count of every string is the
    /// same at every honest process; a string broadcast in round 0
    /// reaches `n − f ≥ t + 1` honest echoers and is counted
    /// everywhere, while a string *injected* directly into echo-round
    /// inboxes (never broadcast in round 0) can muster at most `f ≤ t`
    /// faulty carriers and is ignored everywhere — so the coalition
    /// cannot split the aggregated views without committing a string
    /// to `≥ t + 1 − f` honest processes in round 0 first. Own direct
    /// receptions need no special case: a process's round-1 echo is
    /// broadcast, so it reaches its own round-2 inbox too.
    fn ingest_pool(&mut self, inbox: &[Envelope<ResilientSignedMsg>]) {
        // Per signer: each distinct validly-signed string with its set
        // of distinct echo carriers. Echoed entries verify on their own
        // signatures — the echoer needs no trust for *validity*, only
        // the carrier count gates *inclusion*. Each distinct
        // (signer, string) pair is verified once, on first sight.
        let mut per_signer: BTreeMap<u32, Vec<(BitVec, BTreeSet<ProcessId>)>> = BTreeMap::new();
        for env in inbox {
            let ResilientSignedMsg::Echo(entries) = &*env.payload else {
                continue;
            };
            for signed in entries.iter() {
                if (signed.signer() as usize) >= self.n {
                    continue;
                }
                let strings = per_signer.entry(signed.signer()).or_default();
                match strings
                    .iter_mut()
                    .find(|(bits, _)| *bits == signed.body().bits)
                {
                    Some((_, carriers)) => {
                        carriers.insert(env.from);
                    }
                    None if signed.verify(&self.pki) => {
                        strings.push((signed.body().bits.clone(), BTreeSet::from([env.from])));
                    }
                    None => {}
                }
            }
        }
        let mut convicted = vec![false; self.n];
        let mut singles: Vec<&BitVec> = Vec::new();
        for (&signer, strings) in &per_signer {
            let attested: Vec<&BitVec> = strings
                .iter()
                .filter(|(_, carriers)| carriers.len() > self.t)
                .map(|(bits, _)| bits)
                .collect();
            match attested[..] {
                [] => {}
                [one] => singles.push(one),
                _ => convicted[signer as usize] = true,
            }
        }
        let voters = singles.iter().filter(|c| c.len() == self.n).count().max(1);
        let suspicion = suspicion_scores(self.n, singles);
        let mut classification = BitVec::zeros(self.n);
        for (j, &s) in suspicion.iter().enumerate() {
            classification.set(j, 2 * s < voters && !convicted[j]);
        }
        let schedule = signed_king_schedule(self.n, self.t, &suspicion, &convicted);
        self.inner = Some(PhaseKing::with_kings(
            self.me, self.n, self.t, self.input, schedule,
        ));
        self.suspicion = Some(suspicion);
        self.convicted = Some(convicted);
        self.classification = Some(classification);
    }
}

impl Process for ResilientSigned {
    type Msg = ResilientSignedMsg;
    type Output = Value;

    fn step(
        &mut self,
        round: u64,
        inbox: &[Envelope<ResilientSignedMsg>],
        out: &mut Outbox<ResilientSignedMsg>,
    ) {
        match round {
            0 => {
                out.broadcast(ResilientSignedMsg::Classify(Arc::new(Signed::new(
                    ClassifyBody {
                        bits: self.prediction.clone(),
                    },
                    &self.key,
                ))));
                return;
            }
            1 => {
                self.received = self.valid_classifications(inbox);
                out.broadcast(ResilientSignedMsg::Echo(Arc::new(self.received.clone())));
                return;
            }
            2 => self.ingest_pool(inbox),
            _ => {}
        }
        let Some(inner) = self.inner.as_mut() else {
            return;
        };
        step_sub(
            inner,
            round - PHASE_START,
            inbox,
            out,
            ResilientSignedMsg::Phase,
            |m| match m {
                ResilientSignedMsg::Phase(x) => Some(Arc::clone(x)),
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

/// The worst-case coalition against the signed resilient pipeline —
/// [`ResilientDisruptor`]'s strategy adapted to the signed exchange:
/// properly signed all-ones shield votes in the classification round
/// (equivocating there would get the coalition convicted and demoted),
/// silence in the echo round (honest echoes already spread the
/// shields), then the same quorum-splitting equivocation and
/// crown-splitting during every phase whose king it owns. Used by the
/// bench sweeps to realize the signed family's (suffix-free) graceful
/// degradation staircase.
pub struct SignedResilientDisruptor {
    n: usize,
    t: usize,
    faulty: Vec<ProcessId>,
    keys: Vec<SigningKey>,
    pki: Arc<Pki>,
    schedule: Vec<ProcessId>,
}

impl SignedResilientDisruptor {
    /// Creates the disruptor for the given system parameters; `keys`
    /// are the corrupted identifiers' signing keys (the harness hands
    /// the adversary exactly those, never honest ones).
    pub fn new(n: usize, t: usize, keys: Vec<SigningKey>, pki: Arc<Pki>) -> Self {
        let faulty = keys.iter().map(|k| ProcessId(k.id())).collect();
        SignedResilientDisruptor {
            n,
            t,
            faulty,
            keys,
            pki,
            schedule: Vec::new(),
        }
    }

    /// The suffix-free schedule the rushed honest round-0
    /// classification traffic induces. Aggregation is one string *per
    /// sender* — identical strings from different senders each count,
    /// exactly as in the honest [`ResilientSigned`] aggregation (and
    /// the unsigned disruptor's `classifications_by_sender` path); a
    /// content-deduplicated count would rank identifiers differently
    /// and desynchronize the coalition from the throne order it means
    /// to disrupt.
    fn reconstruct_schedule(
        n: usize,
        t: usize,
        pki: &Pki,
        traffic: &[Envelope<ResilientSignedMsg>],
    ) -> Vec<ProcessId> {
        let mut per_sender: BTreeMap<ProcessId, &BitVec> = BTreeMap::new();
        for env in traffic {
            let ResilientSignedMsg::Classify(signed) = &*env.payload else {
                continue;
            };
            if signed.verified_from(pki, env.from.0).is_none() {
                continue;
            }
            per_sender.entry(env.from).or_insert(&signed.body().bits);
        }
        let suspicion = suspicion_scores(n, per_sender.into_values());
        signed_king_schedule(n, t, &suspicion, &vec![false; n])
    }
}

impl Adversary<ResilientSignedMsg> for SignedResilientDisruptor {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>) {
        if ctx.round == 0 {
            // Reconstruct the schedule the honest processes will derive
            // at round 2: their signed classifications (rushed), no
            // convictions (honest processes never equivocate and the
            // coalition will not either), plus the coalition's all-ones
            // shields — which add no suspicion.
            self.schedule =
                Self::reconstruct_schedule(self.n, self.t, &self.pki, ctx.honest_traffic);
            for key in &self.keys {
                let shield = ResilientSignedMsg::Classify(Arc::new(Signed::new(
                    ClassifyBody {
                        bits: BitVec::ones(self.n),
                    },
                    key,
                )));
                ctx.broadcast(ProcessId(key.id()), shield);
            }
            return;
        }
        if ctx.round == 1 {
            return; // honest echoes already spread the shields
        }
        let local = ctx.round - PHASE_START;
        let phase = (local / 5) as usize;
        if phase >= self.schedule.len() {
            return;
        }
        ResilientDisruptor::disrupt_phase(
            ctx,
            &self.faulty,
            self.n,
            self.schedule[phase],
            phase as u16,
            local % 5,
            ResilientSignedMsg::Phase,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ba_core::PredictionMatrix;
    use ba_sim::{FnAdversary, ReplayAdversary, Runner, SilentAdversary};
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
    ) -> BTreeMap<ProcessId, ResilientSigned> {
        ProcessId::all(n)
            .filter(|id| !faulty.contains(id))
            .enumerate()
            .map(|(slot, id)| {
                (
                    id,
                    ResilientSigned::new(
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
    fn perfect_predictions_decide_in_the_first_phase() {
        let n = 10;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let mut runner = Runner::with_ids(n, system(n, 3, &f, &m, &pki, |_| 6), SilentAdversary);
        let report = runner.run(ResilientSigned::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        assert!(report.last_decision_round.expect("decided") <= 2 + 2 * 5 + 1);
    }

    /// Extracts every honest schedule and asserts they are identical —
    /// the invariant the suffix removal rests on.
    fn assert_schedules_agree(
        runner: &Runner<ResilientSigned, impl ba_sim::Adversary<ResilientSignedMsg>>,
        n: usize,
        f: &BTreeSet<ProcessId>,
    ) -> Vec<ProcessId> {
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
            schedules.windows(2).all(|w| w[0] == w[1]),
            "signed exchange must produce agreeing schedules, got {schedules:?}"
        );
        schedules.into_iter().next().expect("honest population")
    }

    /// The signed mirror of the unsigned schedule-split pin
    /// (`equivocated_classifications_split_the_unsigned_schedules` in
    /// the crate root): the same per-recipient classification
    /// equivocation leaves each of its strings with a single carrier —
    /// below the `t + 1` attestation threshold — so every honest
    /// process ignores the equivocator wholesale, derives the *same*
    /// suffix-free schedule (the honest strings' suspicion already
    /// demotes it), and decides within the first phases instead of
    /// crawling to the rotation suffix.
    #[test]
    fn per_recipient_equivocation_is_ignored_and_schedules_agree() {
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key6 = pki.signing_key(6);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    // Suspect a different singleton per recipient —
                    // each string validly signed with p6's own key.
                    let mut bits = BitVec::ones(7);
                    bits.set((to.0 as usize) % 7, false);
                    let msg = ResilientSignedMsg::Classify(Arc::new(Signed::new(
                        ClassifyBody { bits },
                        &key6,
                    )));
                    ctx.send(ProcessId(6), to, msg);
                }
            }
        });
        let mut runner =
            Runner::with_ids(n, system(n, t, &f, &m, &pki, |slot| (slot % 2) as u64), adv);
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided());
        let schedule = assert_schedules_agree(&runner, n, &f);
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            assert_eq!(
                p.convicted().expect("aggregated"),
                vec![false; n].as_slice(),
                "single-carrier strings stay below the attestation \
                 threshold: ignored, not convicted"
            );
            assert_eq!(
                p.suspicion().expect("aggregated")[..6],
                [0, 0, 0, 0, 0, 0],
                "{id}: sub-threshold strings must not add suspicion"
            );
            assert!(
                !p.classification().expect("aggregated").get(6),
                "the honest majority still classifies p6 faulty"
            );
        }
        assert!(
            !schedule.contains(&ProcessId(6)),
            "honest suspicion keeps the equivocator off the throne"
        );
        assert!(
            report.last_decision_round.expect("decided") <= 2 + 2 * 5 + 1,
            "an honest phase-0 king decides immediately — no suffix crawl"
        );
    }

    /// Coarse equivocation — each conflicting string broadcast widely
    /// enough to clear the `t + 1` attestation threshold — is the case
    /// conviction exists for: both strings enter the common pool
    /// everywhere, the signer is convicted uniformly and demoted below
    /// every unconvicted identifier.
    #[test]
    fn coarse_equivocation_is_convicted_uniformly() {
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::all_honest(n); // nobody suspects p6 a priori
        let pki = Arc::new(Pki::new(n, 5));
        let key6 = pki.signing_key(6);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(7) {
                    // Half the population sees "all honest", the other
                    // half "suspect everyone": each string reaches ≥
                    // t + 1 honest echoers.
                    let bits = if to.0.is_multiple_of(2) {
                        BitVec::ones(7)
                    } else {
                        BitVec::zeros(7)
                    };
                    let msg = ResilientSignedMsg::Classify(Arc::new(Signed::new(
                        ClassifyBody { bits },
                        &key6,
                    )));
                    ctx.send(ProcessId(6), to, msg);
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 4), adv);
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(4)), "unanimity survives");
        let schedule = assert_schedules_agree(&runner, n, &f);
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            let convicted = p.convicted().expect("aggregated");
            assert!(convicted[6], "{id} must convict the coarse equivocator");
            assert_eq!(convicted.iter().filter(|c| **c).count(), 1);
            assert!(
                !p.classification().expect("aggregated").get(6),
                "convicted ⇒ classified faulty"
            );
        }
        assert!(
            !schedule.contains(&ProcessId(6)),
            "a convicted equivocator never reaches the throne"
        );
    }

    /// The echo-injection attack the attestation threshold exists for:
    /// a string that was *never broadcast in round 0* is wrapped in an
    /// `Echo` and delivered to half the honest processes only, during
    /// the echo round itself. Its carrier count is at most `f ≤ t`
    /// everywhere, so every honest process ignores it — without the
    /// threshold this zero-equivocation injection would split the
    /// suspicion views (and, suffix-free, the schedules).
    #[test]
    fn echo_injected_strings_cannot_split_the_schedules() {
        let n = 7;
        let t = 2;
        let f = faults(&[6]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key6 = pki.signing_key(6);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round == 1 {
                // Validly signed, never committed in round 0: frame the
                // low identifiers to half the population.
                let mut bits = BitVec::ones(7);
                for j in 0..4 {
                    bits.set(j, false);
                }
                let smear = Signed::new(ClassifyBody { bits }, &key6);
                for to in ProcessId::all(7).filter(|p| p.0.is_multiple_of(2)) {
                    ctx.send(
                        ProcessId(6),
                        to,
                        ResilientSignedMsg::Echo(Arc::new(vec![smear.clone()])),
                    );
                }
            }
        });
        let mut runner =
            Runner::with_ids(n, system(n, t, &f, &m, &pki, |slot| (slot % 2) as u64), adv);
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert!(report.all_decided());
        let schedule = assert_schedules_agree(&runner, n, &f);
        assert_eq!(
            schedule,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)],
            "the injected smear must not reorder the throne"
        );
        for id in ProcessId::all(n).filter(|p| !f.contains(p)) {
            let p = runner.process(id).expect("honest");
            assert_eq!(
                p.suspicion().expect("aggregated")[..4],
                [0, 0, 0, 0],
                "{id}: an injected (sub-threshold) string adds no suspicion"
            );
        }
        assert!(
            report.last_decision_round.expect("decided") <= 2 + 2 * 5 + 1,
            "agreeing schedules decide in the first phases"
        );
    }

    #[test]
    fn forged_and_replayed_classification_signatures_are_inert() {
        let n = 10;
        let t = 3;
        let f = faults(&[3, 7]);
        let m = PredictionMatrix::perfect(n, &f);
        let pki = Arc::new(Pki::new(n, 5));
        let key3 = pki.signing_key(3);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ResilientSignedMsg>| {
            if ctx.round != 0 {
                return;
            }
            // Forge an all-zeros classification claiming an honest
            // signer: the tag cannot verify.
            let body = ClassifyBody {
                bits: BitVec::zeros(10),
            };
            let mut sig = *Signed::new(body.clone(), &key3).signature();
            sig.signer = 0;
            ctx.broadcast(
                ProcessId(3),
                ResilientSignedMsg::Classify(Arc::new(Signed::from_parts(body, sig))),
            );
            // Replay honest signed strings from the corrupted identity:
            // the signer no longer matches the envelope sender.
            let observed: Vec<Arc<ResilientSignedMsg>> = ctx
                .honest_traffic
                .iter()
                .map(|e| Arc::clone(&e.payload))
                .collect();
            for payload in observed {
                for to in ProcessId::all(10) {
                    ctx.replay(ProcessId(7), to, Arc::clone(&payload));
                }
            }
        });
        let mut runner = Runner::with_ids(n, system(n, t, &f, &m, &pki, |_| 6), adv);
        let report = runner.run(ResilientSigned::rounds(t));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
        let p = runner.process(ProcessId(0)).expect("honest");
        assert_eq!(
            p.convicted().expect("aggregated"),
            vec![false; n].as_slice(),
            "forgeries and replays must convict nobody"
        );
        assert_eq!(
            p.suspicion().expect("aggregated")[0],
            0,
            "the forged all-zeros string must not add suspicion"
        );
    }

    #[test]
    fn disruptor_reconstruction_counts_strings_per_sender() {
        // Regression: the reconstruction used to deduplicate strings by
        // *content*, so three senders sharing one string counted once —
        // here that would seat p3 (dedup score 1) in the last slot
        // instead of p5, desynchronizing the coalition from the honest
        // throne order it means to disrupt.
        let n = 7;
        let t = 2;
        let pki = Pki::new(n, 3);
        let classify = |sender: u32, suspects: &[usize]| {
            let mut bits = BitVec::ones(7);
            for &j in suspects {
                bits.set(j, false);
            }
            Envelope::new(
                ProcessId(sender),
                ProcessId(6),
                ResilientSignedMsg::Classify(Arc::new(Signed::new(
                    ClassifyBody { bits },
                    &pki.signing_key(sender),
                ))),
            )
        };
        // p0/p1/p2 share one string suspecting p3; p3 and p4 hold
        // distinct strings both suspecting p4.
        let traffic = vec![
            classify(0, &[3]),
            classify(1, &[3]),
            classify(2, &[3]),
            classify(3, &[4, 5]),
            classify(4, &[4, 6]),
        ];
        let schedule = SignedResilientDisruptor::reconstruct_schedule(n, t, &pki, &traffic);
        // Per-sender scores: p3 ← 3, p4 ← 2, p5 ← 1, p6 ← 1; the last
        // slot goes to p5 (tie with p6 broken by id).
        assert_eq!(
            schedule,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(5)]
        );
        // And it matches the honest-side aggregation of the same pool.
        let strings: Vec<BitVec> = traffic
            .iter()
            .map(|env| match &*env.payload {
                ResilientSignedMsg::Classify(s) => s.body().bits.clone(),
                _ => unreachable!(),
            })
            .collect();
        let honest =
            signed_king_schedule(n, t, &suspicion_scores(n, strings.iter()), &vec![false; n]);
        assert_eq!(schedule, honest);
    }

    #[test]
    fn signed_disruptor_realizes_the_suffix_free_staircase() {
        let n = 13;
        let t = 4;
        let f = faults(&[0, 1]);
        let pki = Arc::new(Pki::new(n, 5));
        let run = |promoted: usize| {
            let mut m = PredictionMatrix::perfect(n, &f);
            for target in 0..promoted {
                for row in ProcessId::all(n).filter(|p| !f.contains(p)) {
                    m.row_mut(row).set(target, true);
                }
            }
            let keys = vec![pki.signing_key(0), pki.signing_key(1)];
            let mut runner = Runner::with_ids(
                n,
                system(n, t, &f, &m, &pki, |slot| 1 + (slot % 2) as u64),
                SignedResilientDisruptor::new(n, t, keys, Arc::clone(&pki)),
            );
            let report = runner.run(ResilientSigned::rounds(t));
            assert!(report.agreement(), "promoted = {promoted}");
            report.last_decision_round.expect("decided")
        };
        let base = run(0);
        assert!(run(1) > base, "a promoted faulty king must cost rounds");
        assert!(run(2) > run(1), "and the cost must grow with the count");
        assert!(
            run(2) <= ResilientSigned::rounds(t),
            "even fully promoted, the suffix-free budget suffices"
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
        let report = runner.run(ResilientSigned::rounds(3));
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(6)));
    }

    #[test]
    fn signed_schedule_is_suffix_free_distinct_and_in_range() {
        let suspicion = vec![5, 0, 4, 0, 1, 6, 6];
        let convicted = vec![false, false, true, false, false, false, false];
        let ks = signed_king_schedule(7, 2, &suspicion, &convicted);
        assert_eq!(ks.len(), ResilientSigned::phases(2));
        // p2 (score 4) would beat p0 (score 5) on suspicion alone, but
        // its conviction demotes it below every unconvicted identifier.
        assert_eq!(
            ks,
            vec![ProcessId(1), ProcessId(3), ProcessId(4), ProcessId(0)]
        );
        let mut distinct = ks.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), ks.len(), "no identifier reigns twice");
    }

    #[test]
    fn signed_budget_is_smaller_than_unsigned() {
        for t in 1..12 {
            assert!(ResilientSigned::phases(t) < crate::ResilientBa::phases(t));
            assert!(ResilientSigned::rounds(t) < crate::ResilientBa::rounds(t));
        }
    }

    #[test]
    fn message_sizes_follow_the_signature_model() {
        let pki = Pki::new(16, 1);
        let bits = BitVec::ones(16);
        let unsigned = crate::ResilientMsg::Classify(Arc::new(bits.clone()));
        let signed = ResilientSignedMsg::Classify(Arc::new(Signed::new(
            ClassifyBody { bits },
            &pki.signing_key(0),
        )));
        assert_eq!(
            signed.wire_bytes(),
            unsigned.wire_bytes() + 20,
            "signed classify = unsigned + the 20-byte signature"
        );
    }

    #[test]
    #[should_panic(expected = "3t < n")]
    fn rejects_too_many_faults() {
        let pki = Arc::new(Pki::new(9, 1));
        let key = pki.signing_key(0);
        let _ = ResilientSigned::new(ProcessId(0), 9, 3, Value(0), BitVec::ones(9), pki, key);
    }
}
