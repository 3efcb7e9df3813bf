//! Schedule-driven worst-case adversaries.
//!
//! The paper's upper bounds are worst-case: against weak adversaries
//! (silence, crashes) the wrapper usually converges in its very first
//! phase no matter how bad the predictions are, and the
//! `O(min{B/n + 1, f})` shape never shows. These adversaries are built to
//! *realize* the bound: they reconstruct the wrapper's deterministic
//! schedule, know exactly which sub-protocol runs in every round, and
//! play the strongest generic strategy in each:
//!
//! * **classification round** — vote "everyone is honest", shielding the
//!   coalition (so a `B_F` budget spent on them keeps them trusted);
//! * **every graded-consensus round** — equivocate: value 0 to
//!   even-numbered recipients, value 1 to odd ones, keeping honest
//!   processes split below every quorum;
//! * **conciliation** — equivocate `(value, listen-set)` claims so the
//!   leader-graph minima diverge;
//! * **king rounds** — a faulty king splits its broadcast;
//! * **truncated Dolev–Strong** — the classic last-round release: a
//!   chain signed by `k + 1` coalition members delivered to half the
//!   processes in the final round (possible exactly while `f > k`);
//! * **committee rounds (Algorithm 7)** — harvest a genuine committee
//!   certificate from received votes, then split plurality reports.
//!
//! A disruption phase ends, as the paper proves it must, once the phase
//! budget `k` reaches either the misclassification count (the
//! classification machinery locks the coalition out of every listen
//! block / committee) or the fault count (the early-stopping protocol
//! overpowers the coalition). The measured round curves in benches E1/E2
//! follow `min{B/n + 1, f}` because of exactly these two exits.

use ba_auth::chains::{committee_bytes, CommitteeCert, MessageChain};
use ba_core::schedule::{Slot, SlotKind};
use ba_core::{AuthWrapper, AuthWrapperMsg, BitVec, UnauthWrapper, UnauthWrapperMsg};
use ba_crypto::{Pki, Signature, SigningKey};
use ba_early::{EsUnauth, EsUnauthMsg, PhaseKingMsg};
use ba_graded::gradecast::value_bytes;
use ba_graded::{AuthGcMsg, UnauthGcMsg};
use ba_sim::{Adversary, AdversaryCtx, ProcessId, Value};
use ba_unauth::{Alg5Msg, ConcMsg, CoreSetGcMsg};
use std::sync::Arc;

/// The disruptor's per-recipient value: `Some(0)` — strictly below every
/// honest proposal in the bench workloads — for even identifiers,
/// *silence* for odd ones. Selective low values split Algorithm 4's
/// minima (an all-recipients value would just unify everyone on it), and
/// the silence half keeps quorums starved on the other side.
fn split_value(to: ProcessId) -> Option<Value> {
    to.0.is_multiple_of(2).then_some(Value(0))
}

/// Locates the slot covering `round` plus the local round within it.
fn locate(slots: &[Slot], round: u64) -> Option<(&Slot, u64)> {
    slots
        .iter()
        .find(|s| s.start <= round && round < s.end)
        .map(|s| (s, round - s.start))
}

/// Worst-case adversary against the unauthenticated wrapper.
pub struct UnauthDisruptor {
    n: usize,
    t: usize,
    faulty: Vec<ProcessId>,
    slots: Vec<Slot>,
}

impl UnauthDisruptor {
    /// Creates the disruptor for the given system parameters.
    pub fn new(n: usize, t: usize, faulty: Vec<ProcessId>) -> Self {
        let schedule = UnauthWrapper::schedule(n, t);
        UnauthDisruptor {
            n,
            t,
            faulty,
            slots: schedule.slots,
        }
    }

    /// The sustained-split strategy against Algorithm 5 (see the module
    /// docs): forge the quorum thresholds of Algorithm 3 toward a high
    /// value at *odd* recipients (a pair of in-block colluders plus one
    /// honest binding-holder reaches `2k + 1` there), so odd processes
    /// exit with grade 1 and ignore conciliation (line 8), while *even*
    /// recipients are fed a bottom value through conciliation. Odd and
    /// even halves then disagree for as long as the coalition keeps a
    /// pair inside every phase's listen block.
    fn alg5_msg(&self, k: usize, local: u64, to: ProcessId) -> Option<Alg5Msg> {
        let phase = (local / 5) as u16;
        if local >= 5 * (2 * k as u64 + 1) {
            return None;
        }
        let block = 3 * k + 1;
        let listen: Vec<ProcessId> = (0..block as u32).map(ProcessId).collect();
        let high = Value(2);
        let odd = to.0 % 2 == 1;
        Some(match local % 5 {
            0 if odd => Alg5Msg::First {
                phase,
                inner: Arc::new(CoreSetGcMsg::Input(high)),
            },
            1 if odd => Alg5Msg::First {
                phase,
                inner: Arc::new(CoreSetGcMsg::Binding(high)),
            },
            2 if !odd => Alg5Msg::Middle {
                phase,
                inner: Arc::new(ConcMsg {
                    value: split_value(to)?,
                    listen,
                }),
            },
            3 if odd => Alg5Msg::Second {
                phase,
                inner: Arc::new(CoreSetGcMsg::Input(high)),
            },
            4 if odd => Alg5Msg::Second {
                phase,
                inner: Arc::new(CoreSetGcMsg::Binding(high)),
            },
            _ => return None,
        })
    }

    fn king_msg(&self, local: u64, to: ProcessId) -> Option<PhaseKingMsg> {
        let phase = (local / 5) as u16;
        let v = split_value(to)?;
        Some(match local % 5 {
            0 => PhaseKingMsg::First {
                phase,
                inner: Arc::new(UnauthGcMsg::Vote(v)),
            },
            1 => PhaseKingMsg::First {
                phase,
                inner: Arc::new(UnauthGcMsg::Echo(v)),
            },
            2 => PhaseKingMsg::Middle {
                phase,
                inner: Arc::new(v),
            },
            3 => PhaseKingMsg::Second {
                phase,
                inner: Arc::new(UnauthGcMsg::Vote(v)),
            },
            _ => PhaseKingMsg::Second {
                phase,
                inner: Arc::new(UnauthGcMsg::Echo(v)),
            },
        })
    }
}

impl Adversary<UnauthWrapperMsg> for UnauthDisruptor {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, UnauthWrapperMsg>) {
        let Some((slot, local)) = locate(&self.slots, ctx.round) else {
            return;
        };
        let faulty = self.faulty.clone();
        for from in faulty {
            for to in ProcessId::all(self.n) {
                let msg = match slot.kind {
                    SlotKind::Classify => (local == 0)
                        .then(|| UnauthWrapperMsg::Classify(Arc::new(BitVec::ones(self.n)))),
                    SlotKind::GcA { .. } | SlotKind::GcB { .. } | SlotKind::GcC { .. } => {
                        split_value(to).and_then(|v| match local {
                            0 => Some(UnauthWrapperMsg::Gc {
                                slot: slot.idx,
                                inner: Arc::new(UnauthGcMsg::Vote(v)),
                            }),
                            1 => Some(UnauthWrapperMsg::Gc {
                                slot: slot.idx,
                                inner: Arc::new(UnauthGcMsg::Echo(v)),
                            }),
                            _ => None,
                        })
                    }
                    SlotKind::Es { k, .. } => {
                        let inner = if EsUnauth::uses_alg5(self.n, self.t, k) {
                            self.alg5_msg(k, local, to)
                                .map(|m| EsUnauthMsg::Alg5(Arc::new(m)))
                        } else {
                            self.king_msg(local, to)
                                .map(|m| EsUnauthMsg::King(Arc::new(m)))
                        };
                        inner.map(|inner| UnauthWrapperMsg::Es {
                            slot: slot.idx,
                            inner: Arc::new(inner),
                        })
                    }
                    SlotKind::Class { k, .. } => {
                        self.alg5_msg(k, local, to)
                            .map(|m| UnauthWrapperMsg::Class {
                                slot: slot.idx,
                                inner: Arc::new(m),
                            })
                    }
                };
                if let Some(msg) = msg {
                    ctx.send(from, to, msg);
                }
            }
        }
    }
}

/// Worst-case adversary against the authenticated wrapper.
pub struct AuthDisruptor {
    n: usize,
    faulty: Vec<ProcessId>,
    keys: Vec<SigningKey>,
    slots: Vec<Slot>,
    harvested_certs: Vec<Option<CommitteeCert>>,
}

impl AuthDisruptor {
    /// Creates the disruptor; it holds the signing keys of every
    /// corrupted process (handed over at corruption time, exactly as the
    /// model allows).
    pub fn new(n: usize, t: usize, faulty: Vec<ProcessId>, pki: &Pki) -> Self {
        let keys = faulty.iter().map(|p| pki.signing_key(p.0)).collect();
        let schedule = AuthWrapper::schedule(n, t);
        AuthDisruptor {
            n,
            faulty: faulty.clone(),
            keys,
            slots: schedule.slots,
            harvested_certs: vec![None; faulty.len()],
        }
    }

    /// The classic withheld-chain attack: a length-`k+1` chain signed by
    /// `k + 1` coalition members, deliverable in the last round.
    fn withheld_chain(
        &self,
        session: u64,
        starter_idx: usize,
        k: usize,
        value: Value,
    ) -> Option<MessageChain> {
        if self.keys.len() < k + 1 {
            return None;
        }
        let starter = &self.keys[starter_idx];
        let mut chain = MessageChain::start(session, starter.id(), value, starter, None);
        for key in self
            .keys
            .iter()
            .filter(|key| key.id() != starter.id())
            .take(k)
        {
            chain = chain.extend(session, starter.id(), key, None);
        }
        (chain.len() == k + 1).then_some(chain)
    }
}

impl Adversary<AuthWrapperMsg> for AuthDisruptor {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, AuthWrapperMsg>) {
        let Some((slot, local)) = locate(&self.slots, ctx.round) else {
            return;
        };
        let slot = *slot;
        let session = u64::from(slot.idx);
        match slot.kind {
            SlotKind::Classify => {
                if local == 0 {
                    for from in self.faulty.clone() {
                        ctx.broadcast(
                            from,
                            AuthWrapperMsg::Classify(Arc::new(BitVec::ones(self.n))),
                        );
                    }
                }
            }
            SlotKind::GcA { .. } | SlotKind::GcB { .. } | SlotKind::GcC { .. } => {
                // Equivocate the own gradecast instance's input between
                // the two halves; the certified gradecast collapses those
                // instances to ⊥, denying the graded consensus any
                // quorum the honest split did not already deny.
                if local == 0 {
                    for (i, from) in self.faulty.clone().into_iter().enumerate() {
                        let key = &self.keys[i];
                        for to in ProcessId::all(self.n) {
                            let Some(v) = split_value(to) else { continue };
                            let sig = key.sign(&value_bytes(session, from.0, v));
                            let item = ba_graded::gradecast::GcastItem::Input { value: v, sig };
                            ctx.send(
                                from,
                                to,
                                AuthWrapperMsg::Gc {
                                    slot: slot.idx,
                                    inner: Arc::new(AuthGcMsg {
                                        items: vec![(from.0, item)],
                                    }),
                                },
                            );
                        }
                    }
                }
            }
            SlotKind::Es { k, .. } => {
                // Last-round release: valid length-(k+1) chains to odd
                // recipients only. Requires k+1 coalition signers, i.e.
                // exactly the f > k regime the slot-declared budget k
                // cannot yet cover.
                if local == k as u64 {
                    // Value 2 tips the odd half's plurality away from the
                    // even half's smallest-tie-break winner.
                    for (i, from) in self.faulty.clone().into_iter().enumerate() {
                        if let Some(chain) = self.withheld_chain(session, i, k, Value(2)) {
                            for to in ProcessId::all(self.n).filter(|p| p.0 % 2 == 1) {
                                ctx.send(
                                    from,
                                    to,
                                    AuthWrapperMsg::Es {
                                        slot: slot.idx,
                                        inner: Arc::new(vec![(from.0, chain.clone())]),
                                    },
                                );
                            }
                        }
                    }
                }
            }
            SlotKind::Class { k, .. } => {
                if local == 0 {
                    // Vote for the coalition's own committee membership
                    // (and the honest prefix, to look normal).
                    for (i, from) in self.faulty.clone().into_iter().enumerate() {
                        let key = self.keys[i].clone();
                        for cand in ProcessId::all(self.n).take(2 * k + 1) {
                            let sig = key.sign(&committee_bytes(session, cand.0));
                            ctx.send(
                                from,
                                cand,
                                AuthWrapperMsg::Class {
                                    slot: slot.idx,
                                    inner: Arc::new(ba_auth::Alg7Msg::CommitteeVote(sig)),
                                },
                            );
                        }
                    }
                }
                if local == 1 {
                    // Harvest genuine certificates from the votes that
                    // just arrived.
                    for (i, from) in self.faulty.clone().into_iter().enumerate() {
                        let votes: Vec<Signature> = ctx
                            .faulty_inboxes
                            .get(&from)
                            .into_iter()
                            .flatten()
                            .filter_map(|env| match &*env.payload {
                                AuthWrapperMsg::Class { slot: s, inner } if *s == slot.idx => {
                                    match &**inner {
                                        ba_auth::Alg7Msg::CommitteeVote(sig) => Some(*sig),
                                        _ => None,
                                    }
                                }
                                _ => None,
                            })
                            .collect();
                        // t is recoverable from the schedule context: the
                        // certificate threshold is t + 1; assemble with
                        // the largest t' the votes allow.
                        let t_assumed = votes.len().saturating_sub(1);
                        self.harvested_certs[i] =
                            CommitteeCert::assemble(from.0, &votes, t_assumed.min(self.n / 2));
                    }
                }
                if local == k as u64 + 2 {
                    // Split plurality reports under genuine certificates.
                    for (i, from) in self.faulty.clone().into_iter().enumerate() {
                        if let Some(cert) = self.harvested_certs[i].clone() {
                            for to in ProcessId::all(self.n) {
                                let Some(value) = split_value(to) else {
                                    continue;
                                };
                                ctx.send(
                                    from,
                                    to,
                                    AuthWrapperMsg::Class {
                                        slot: slot.idx,
                                        inner: Arc::new(ba_auth::Alg7Msg::Plurality {
                                            value,
                                            cert: cert.clone(),
                                        }),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unauth_disruptor_crafts_slot_consistent_messages() {
        let d = UnauthDisruptor::new(16, 5, vec![ProcessId(0)]);
        // Slot 0 is classify; slot 1 is GcA with 2 rounds.
        assert!(matches!(d.slots[0].kind, SlotKind::Classify));
        assert!(matches!(d.slots[1].kind, SlotKind::GcA { .. }));
        let (slot, local) = locate(&d.slots, 1).unwrap();
        assert_eq!(slot.idx, 1);
        assert_eq!(local, 0);
    }

    #[test]
    fn withheld_chain_needs_enough_signers() {
        let pki = Pki::new(8, 3);
        let d = AuthDisruptor::new(8, 3, vec![ProcessId(5), ProcessId(6), ProcessId(7)], &pki);
        assert!(d.withheld_chain(9, 0, 2, Value(0)).is_some(), "k+1 = 3 = f");
        assert!(d.withheld_chain(9, 0, 3, Value(0)).is_none(), "k+1 = 4 > f");
        let chain = d.withheld_chain(9, 0, 2, Value(0)).unwrap();
        assert!(chain.verify(9, 5, 3, false, &pki));
    }
}
