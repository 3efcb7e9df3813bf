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
use std::collections::{BTreeMap, BTreeSet};
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
    pub(crate) outgoing: Vec<Envelope<M>>,
}

impl<'a, M> AdversaryCtx<'a, M> {
    /// Sends `msg` from corrupted process `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not corrupted: the simulator enforces that the
    /// adversary cannot spoof honest senders.
    pub fn send(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        assert!(
            self.corrupted.contains(&from),
            "adversary attempted to spoof honest sender {from}"
        );
        self.outgoing.push(Envelope::new(from, to, msg));
    }

    /// Sends `msg` from corrupted `from` to every process.
    pub fn broadcast(&mut self, from: ProcessId, msg: M)
    where
        M: Clone,
    {
        assert!(
            self.corrupted.contains(&from),
            "adversary attempted to spoof honest sender {from}"
        );
        let payload = Arc::new(msg);
        for to in ProcessId::all(self.n) {
            self.outgoing.push(Envelope {
                from,
                to,
                payload: Arc::clone(&payload),
            });
        }
    }

    /// Re-sends an observed payload (e.g. an honest message body) from a
    /// corrupted identity — the strongest replay the model permits.
    pub fn replay(&mut self, from: ProcessId, to: ProcessId, payload: Arc<M>) {
        assert!(
            self.corrupted.contains(&from),
            "adversary attempted to spoof honest sender {from}"
        );
        self.outgoing.push(Envelope { from, to, payload });
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
            ctx.outgoing.retain(|e| e.to.0 < cutoff);
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
#[derive(Debug)]
pub struct ReplayAdversary<M> {
    delay: usize,
    history: Vec<Vec<Arc<M>>>,
}

impl<M> ReplayAdversary<M> {
    /// Creates a replayer with the given round delay (≥ 1).
    pub fn new(delay: usize) -> Self {
        assert!(delay >= 1, "replay delay must be at least one round");
        ReplayAdversary {
            delay,
            history: Vec::new(),
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
        self.history.push(observed);
        let idx = match self.history.len().checked_sub(self.delay + 1) {
            Some(i) => i,
            None => return,
        };
        let stale: Vec<Arc<M>> = self.history[idx].clone();
        let faulty: Vec<ProcessId> = ctx.corrupted.iter().copied().collect();
        if faulty.is_empty() {
            return;
        }
        for (k, payload) in stale.into_iter().enumerate() {
            let from = faulty[k % faulty.len()];
            for to in ProcessId::all(ctx.n) {
                ctx.replay(from, to, Arc::clone(&payload));
            }
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
            outgoing: Vec::new(),
        }
    }

    #[test]
    fn adversary_can_send_only_from_corrupted_ids() {
        let corrupted: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        let inboxes = BTreeMap::new();
        let mut ctx = ctx_fixture(&corrupted, &[], &inboxes);
        ctx.send(ProcessId(3), ProcessId(0), 99);
        assert_eq!(ctx.outgoing.len(), 1);
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
        assert_eq!(ctx.outgoing.len(), 2);
        assert!(ctx.outgoing.iter().all(|e| e.to.0 < 2));
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
        assert!(ctx.outgoing.is_empty());
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
        assert!(ctx0.outgoing.is_empty(), "nothing old to replay yet");

        let mut ctx1 = ctx_fixture(&corrupted, &[], &inboxes);
        ctx1.round = 1;
        replayer.act(&mut ctx1);
        assert_eq!(ctx1.outgoing.len(), 4, "payload replayed to all n = 4");
        assert!(ctx1.outgoing.iter().all(|e| *e.payload == 77));
        assert!(ctx1.outgoing.iter().all(|e| e.from == ProcessId(3)));
    }
}
