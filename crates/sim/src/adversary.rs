//! The Byzantine adversary interface and generic attack strategies.
//!
//! One adversary object controls *all* faulty processes, reflecting the
//! standard worst-case model: corruptions coordinate perfectly. The
//! adversary is **rushing** — each round it sees every honest message of
//! that round before emitting its own — and it may send any payload from
//! any corrupted identity to any recipient (sender identities are
//! unforgeable; see [`crate::Envelope`]).
//!
//! Protocol-specific attacks (equivocators, chain withholders, vote liars,
//! …) live in `ba-workloads`; this module provides the trait plus the
//! protocol-agnostic strategies used across the test suites.

use crate::envelope::Envelope;
use crate::id::ProcessId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Everything the adversary can see and do in one round.
pub struct AdversaryCtx<'a, M> {
    /// Current round number.
    pub round: u64,
    /// Total number of processes.
    pub n: usize,
    /// Identifiers controlled by the adversary.
    pub corrupted: &'a BTreeSet<ProcessId>,
    /// All messages emitted by honest processes *this* round
    /// (rushing visibility).
    pub honest_traffic: &'a [Envelope<M>],
    /// Messages delivered to each corrupted process at the start of this
    /// round (i.e. sent during the previous round).
    pub faulty_inboxes: &'a BTreeMap<ProcessId, Vec<Envelope<M>>>,
    /// This round's faulty traffic, one buffer per sender identifier
    /// (`0..n`), each in emission order.
    pub(crate) outgoing: Vec<Vec<Envelope<M>>>,
}

impl<'a, M> AdversaryCtx<'a, M> {
    /// The outgoing buffer of `from`, after the spoof check.
    fn outbox(&mut self, from: ProcessId) -> &mut Vec<Envelope<M>> {
        assert!(
            self.corrupted.contains(&from),
            "adversary attempted to spoof honest sender {from}"
        );
        &mut self.outgoing[from.index()]
    }

    /// Sends `msg` from corrupted process `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted: the simulator enforces that the
    /// adversary cannot spoof honest senders.
    pub fn send(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.outbox(from).push(Envelope::new(from, to, msg));
    }

    /// Sends `msg` from corrupted `from` to every process.
    pub fn broadcast(&mut self, from: ProcessId, msg: M)
    where
        M: Clone,
    {
        self.replay_to_all(from, Arc::new(msg));
    }

    /// Re-sends an observed payload (e.g. an honest message body) from a
    /// corrupted identity — the strongest replay the model permits.
    pub fn replay(&mut self, from: ProcessId, to: ProcessId, payload: Arc<M>) {
        self.outbox(from).push(Envelope { from, to, payload });
    }

    /// Re-sends an observed payload from corrupted `from` to every
    /// process, in identifier order: [`replay`](Self::replay) to each
    /// recipient, with the spoof check made once.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted.
    pub fn replay_to_all(&mut self, from: ProcessId, payload: Arc<M>) {
        let n = self.n;
        self.outbox(from)
            .extend(ProcessId::all(n).map(|to| Envelope {
                from,
                to,
                payload: Arc::clone(&payload),
            }));
    }
}

/// A coordinated Byzantine strategy for all corrupted processes.
pub trait Adversary<M> {
    /// Produces this round's faulty traffic given full rushing visibility.
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>);
}

impl<M, A: Adversary<M> + ?Sized> Adversary<M> for Box<A> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        (**self).act(ctx)
    }
}

/// Faulty processes send nothing at all (equivalently: they crashed before
/// the execution started). The weakest adversary; also the baseline for
/// message-count comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentAdversary;

impl<M> Adversary<M> for SilentAdversary {
    fn act(&mut self, _ctx: &mut AdversaryCtx<'_, M>) {}
}

/// Faulty processes behave honestly until `crash_round`, then go silent —
/// optionally mid-broadcast: in the crash round each faulty process
/// delivers its pending honest messages only to recipients with identifier
/// below `partial_cutoff`.
///
/// This adversary needs an "honest template" to imitate; callers supply a
/// closure producing the honest traffic each round via [`FnAdversary`] in
/// protocol crates. At the `ba-sim` layer, `CrashAdversary` simply drops
/// everything from `crash_round` onward and is combined with replaying
/// strategies in higher-level crates.
#[derive(Clone, Debug)]
pub struct CrashAdversary<A> {
    inner: A,
    crash_round: u64,
    partial_cutoff: u32,
}

impl<A> CrashAdversary<A> {
    /// Wraps `inner`, suppressing all its traffic from `crash_round`
    /// onward; in the crash round itself, messages to identifiers
    /// `>= partial_cutoff` are dropped (a mid-broadcast crash).
    pub fn new(inner: A, crash_round: u64, partial_cutoff: u32) -> Self {
        CrashAdversary {
            inner,
            crash_round,
            partial_cutoff,
        }
    }
}

impl<M, A: Adversary<M>> Adversary<M> for CrashAdversary<A> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        if ctx.round > self.crash_round {
            return;
        }
        self.inner.act(ctx);
        if ctx.round == self.crash_round {
            let cutoff = self.partial_cutoff;
            for sent in &mut ctx.outgoing {
                sent.retain(|e| e.to.0 < cutoff);
            }
        }
    }
}

/// An adversary defined by a closure — the workhorse for targeted,
/// protocol-specific attacks in tests.
pub struct FnAdversary<F> {
    f: F,
}

impl<F> FnAdversary<F> {
    /// Wraps `f` as an adversary.
    pub fn new(f: F) -> Self {
        FnAdversary { f }
    }
}

impl<M, F> Adversary<M> for FnAdversary<F>
where
    F: FnMut(&mut AdversaryCtx<'_, M>),
{
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        (self.f)(ctx)
    }
}

/// Replays honest payloads observed in earlier rounds from corrupted
/// identities, to every process, shifted by `delay` rounds. Exercises
/// protocols' session/round tagging: correctly-tagged protocols must treat
/// replayed traffic as noise.
///
/// The `k`-th payload observed in round `r` is replayed in round
/// `r + delay` from the `k mod f`-th corrupted identity. Only the last
/// `delay + 1` rounds of observations are ever held.
#[derive(Debug)]
pub struct ReplayAdversary<M> {
    delay: usize,
    history: VecDeque<Vec<Arc<M>>>,
}

impl<M> ReplayAdversary<M> {
    /// Creates a replayer with the given round delay (≥ 1).
    pub fn new(delay: usize) -> Self {
        assert!(delay >= 1, "replay delay must be at least one round");
        ReplayAdversary {
            delay,
            history: VecDeque::new(),
        }
    }
}

impl<M: Clone> Adversary<M> for ReplayAdversary<M> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        let observed: Vec<Arc<M>> = ctx
            .honest_traffic
            .iter()
            .map(|e| Arc::clone(&e.payload))
            .collect();
        self.history.push_back(observed);
        if self.history.len() <= self.delay {
            return;
        }
        let stale = self
            .history
            .pop_front()
            .expect("history holds delay + 1 rounds");
        let faulty: Vec<ProcessId> = ctx.corrupted.iter().copied().collect();
        if faulty.is_empty() {
            return;
        }
        let f = faulty.len();
        for (j, from) in faulty.iter().enumerate() {
            // Payloads `k ≡ j (mod f)` go out from `from`.
            let payloads = stale.len().saturating_sub(j).div_ceil(f);
            ctx.outgoing[from.index()].reserve(payloads * ctx.n);
        }
        for (k, payload) in stale.into_iter().enumerate() {
            ctx.replay_to_all(faulty[k % f], payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_fixture<'a>(
        corrupted: &'a BTreeSet<ProcessId>,
        honest: &'a [Envelope<u32>],
        inboxes: &'a BTreeMap<ProcessId, Vec<Envelope<u32>>>,
    ) -> AdversaryCtx<'a, u32> {
        AdversaryCtx {
            round: 3,
            n: 4,
            corrupted,
            honest_traffic: honest,
            faulty_inboxes: inboxes,
            outgoing: (0..4).map(|_| Vec::new()).collect(),
        }
    }

    /// The context's faulty traffic, sender by sender.
    fn sent<'c>(ctx: &'c AdversaryCtx<'_, u32>) -> Vec<&'c Envelope<u32>> {
        ctx.outgoing.iter().flatten().collect()
    }

    #[test]
    fn adversary_can_send_only_from_corrupted_ids() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        ctx.send(ProcessId(3), ProcessId(0), 99);
        assert_eq!(sent(&ctx).len(), 1);
    }

    #[test]
    #[should_panic(expected = "spoof")]
    fn spoofing_honest_sender_panics() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        ctx.send(ProcessId(0), ProcessId(1), 1);
    }

    #[test]
    fn crash_adversary_truncates_mid_broadcast() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let inner = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, u32>| {
            ctx.broadcast(ProcessId(3), 5);
        });
        let mut crash = CrashAdversary::new(inner, 3, 2);
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        crash.act(&mut ctx);
        // Broadcast to n=4, truncated to recipients {0, 1}.
        assert_eq!(sent(&ctx).len(), 2);
        assert!(sent(&ctx).iter().all(|e| e.to.0 < 2));
    }

    #[test]
    fn crash_adversary_is_silent_after_crash() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let inner = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, u32>| {
            ctx.broadcast(ProcessId(3), 5);
        });
        let mut crash = CrashAdversary::new(inner, 2, 4);
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        ctx.round = 3;
        crash.act(&mut ctx);
        assert!(sent(&ctx).is_empty());
    }

    #[test]
    fn replay_adversary_resends_old_honest_payloads() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut replayer: ReplayAdversary<u32> = ReplayAdversary::new(1);

        let honest_r0 = vec![Envelope::new(ProcessId(0), ProcessId(1), 77u32)];
        let mut ctx0 = ctx_fixture(&corrupted, &honest_r0, &inboxes);
        ctx0.round = 0;
        replayer.act(&mut ctx0);
        assert!(sent(&ctx0).is_empty(), "nothing old to replay yet");

        let mut ctx1 = ctx_fixture(&corrupted, &[], &inboxes);
        ctx1.round = 1;
        replayer.act(&mut ctx1);
        assert_eq!(sent(&ctx1).len(), 4, "payload replayed to all n = 4");
        assert!(sent(&ctx1).iter().all(|e| *e.payload == 77));
        assert!(sent(&ctx1).iter().all(|e| e.from == ProcessId(3)));
    }

    #[test]
    fn replay_to_all_sends_one_envelope_per_recipient() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        let payload = Arc::new(8u32);
        ctx.replay_to_all(ProcessId(3), Arc::clone(&payload));
        let to: Vec<u32> = sent(&ctx).iter().map(|e| e.to.0).collect();
        assert_eq!(to, vec![0, 1, 2, 3]);
        assert!(sent(&ctx).iter().all(|e| e.from == ProcessId(3)));
        assert!(sent(&ctx).iter().all(|e| Arc::ptr_eq(&e.payload, &payload)));
    }

    #[test]
    #[should_panic(expected = "spoof")]
    fn replay_to_all_from_an_honest_sender_panics() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        ctx.replay_to_all(ProcessId(0), Arc::new(1));
    }

    #[test]
    fn replay_with_delay_two_resends_the_right_round_and_forgets_older_ones() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(2), ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut replayer: ReplayAdversary<u32> = ReplayAdversary::new(2);
        for round in 0..8u32 {
            // Round r's honest traffic carries payloads 10r, 10r + 1 and
            // 10r + 2.
            let honest: Vec<Envelope<u32>> = (0..3)
                .map(|k| Envelope::new(ProcessId(k), ProcessId(1), 10 * round + k))
                .collect();
            let mut ctx = ctx_fixture(&corrupted, &honest, &inboxes);
            ctx.round = u64::from(round);
            replayer.act(&mut ctx);
            assert_eq!(replayer.history.len(), (round as usize + 1).min(2));
            let replayed: Vec<(u32, u32, u32)> = sent(&ctx)
                .iter()
                .map(|e| (e.from.0, e.to.0, *e.payload))
                .collect();
            if round < 2 {
                assert!(replayed.is_empty(), "nothing two rounds old yet");
                continue;
            }
            // Payload k of round r − 2 goes from corrupted id k mod 2 (p2
            // sends payloads 0 and 2, in that order; p3 payload 1) to all
            // n = 4 processes.
            let old = 10 * (round - 2);
            let expected: Vec<(u32, u32, u32)> = [(2, 0), (2, 2), (3, 1)]
                .into_iter()
                .flat_map(|(from, k)| (0..4).map(move |to| (from, to, old + k)))
                .collect();
            assert_eq!(replayed, expected, "round {round}");
        }
    }
}
