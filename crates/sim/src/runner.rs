//! Lockstep execution engine with complexity instrumentation.

use crate::adversary::{Adversary, AdversaryCtx};
use crate::envelope::{Envelope, Outbox};
use crate::id::ProcessId;
use crate::process::Process;
use crate::wire::WireSize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-round accounting, retained for the whole run.
#[derive(Clone, Debug, Default)]
pub struct RoundTrace {
    /// Messages sent by honest processes this round (self-copies excluded).
    pub honest_messages: u64,
    /// Messages sent by faulty processes this round (self-copies excluded).
    pub faulty_messages: u64,
    /// Bytes sent by honest processes this round ([`WireSize`] of every
    /// remote envelope's payload).
    pub honest_bytes: u64,
    /// Bytes sent by faulty processes this round.
    pub faulty_bytes: u64,
}

/// Sums the remote envelopes of one sender's traffic as `(messages,
/// bytes)`. A broadcast shares one payload across consecutive envelopes,
/// so the size of the last payload measured is reused while the next
/// envelope points at the same allocation: a broadcast's body is
/// measured once rather than once per recipient.
fn remote_cost<M: WireSize>(envs: &[Envelope<M>]) -> (u64, u64) {
    let mut messages = 0;
    let mut bytes = 0;
    let mut last: Option<(*const M, u64)> = None;
    for env in envs {
        if env.to == env.from {
            continue;
        }
        messages += 1;
        let key = Arc::as_ptr(&env.payload);
        let size = match last {
            Some((k, s)) if k == key => s,
            _ => {
                let s = env.payload.wire_bytes();
                last = Some((key, s));
                s
            }
        };
        bytes += size;
    }
    (messages, bytes)
}

/// Routes one round's traffic into the next step's inboxes, one per
/// identifier `0..n`, in sender order and stable within a sender.
///
/// This is a counting sort whose buckets already exist: `honest` is in
/// step order, hence sorted by sender, and `faulty` holds one buffer per
/// sender in emission order. One pass counts envelopes per recipient so
/// every inbox is reserved to its exact size, and a second drains each
/// sender's honest run, then its faulty buffer, into the inboxes. All
/// buffers keep their allocations for later rounds. Envelopes
/// addressed to an identifier `≥ n` are dropped.
fn deliver<M>(
    inboxes: &mut [Vec<Envelope<M>>],
    honest: &mut Vec<Envelope<M>>,
    faulty: &mut [Vec<Envelope<M>>],
) {
    debug_assert!(honest.is_sorted_by_key(|e| e.from));
    let mut per_recipient = vec![0usize; inboxes.len()];
    for env in honest.iter().chain(faulty.iter().flatten()) {
        if let Some(count) = per_recipient.get_mut(env.to.index()) {
            *count += 1;
        }
    }
    for (inbox, count) in inboxes.iter_mut().zip(per_recipient) {
        inbox.clear();
        inbox.reserve_exact(count);
    }
    let mut honest = honest.drain(..).peekable();
    for (sender, sent) in faulty.iter_mut().enumerate() {
        let honest_run = std::iter::from_fn(|| honest.next_if(|e| e.from.index() == sender));
        for env in honest_run.chain(sent.drain(..)) {
            if let Some(inbox) = inboxes.get_mut(env.to.index()) {
                inbox.push(env);
            }
        }
    }
}

/// The outcome and cost profile of one synchronous execution.
#[derive(Clone, Debug)]
pub struct RunReport<O> {
    /// Number of honest processes.
    pub honest_count: usize,
    /// Decision of each honest process that produced one.
    pub outputs: BTreeMap<ProcessId, O>,
    /// Round at which each honest process first reported an output.
    pub decision_round: BTreeMap<ProcessId, u64>,
    /// Round at which the *last* honest process decided — the paper's time
    /// complexity measure — if all of them did.
    pub last_decision_round: Option<u64>,
    /// Total messages sent by honest processes over the run (self-copies
    /// excluded) — the paper's message complexity measure.
    pub honest_messages: u64,
    /// Messages sent by honest processes up to and including the round in
    /// which the last honest process decided (the paper counts messages
    /// "up until they decide").
    pub honest_messages_until_decision: u64,
    /// Total bytes sent by honest processes over the run (self-copies
    /// excluded) — the communication complexity measure of the
    /// communication-efficient follow-up work.
    pub honest_bytes: u64,
    /// Bytes sent by honest processes up to and including the round of
    /// the last honest decision (mirrors
    /// [`honest_messages_until_decision`](Self::honest_messages_until_decision)).
    pub honest_bytes_until_decision: u64,
    /// Per-process message counts (self-copies excluded).
    pub messages_per_process: BTreeMap<ProcessId, u64>,
    /// Per-round traces.
    pub rounds: Vec<RoundTrace>,
    /// Rounds actually executed.
    pub rounds_executed: u64,
}

impl<O: Clone + Eq> RunReport<O> {
    /// Whether every honest process produced an output.
    pub fn all_decided(&self) -> bool {
        self.outputs.len() == self.honest_count
    }

    /// Whether every honest process decided, and on the same value
    /// (the paper's Agreement property).
    pub fn agreement(&self) -> bool {
        if !self.all_decided() {
            return false;
        }
        let mut it = self.outputs.values();
        match it.next() {
            None => true,
            Some(first) => it.all(|o| o == first),
        }
    }

    /// The common decision, if agreement holds.
    pub fn decision(&self) -> Option<&O> {
        if self.agreement() {
            self.outputs.values().next()
        } else {
            None
        }
    }
}

/// Drives honest processes and one adversary in lockstep rounds.
///
/// Honest processes are stepped in identifier order; the adversary then
/// acts with full visibility of the round's honest traffic (rushing).
///
/// All round-`r` traffic is delivered as the step-`r+1` inboxes, and
/// every inbox obeys one order contract: it is sorted by sender, and
/// within one sender the envelopes keep the order they were sent in
/// (an honest process's outbox order, or the adversary's emission
/// order). Mail left undelivered to a halted process is discarded at
/// the end of the round, never carried into a later one. An adversary
/// envelope addressed to an identifier `≥ n` is charged to the round's
/// faulty messages and bytes and then dropped: it reaches nobody.
pub struct Runner<P: Process, A> {
    n: usize,
    honest: BTreeMap<ProcessId, P>,
    adversary: A,
    corrupted: BTreeSet<ProcessId>,
    /// Next step's inbox of every identifier, indexed by
    /// [`ProcessId::index`].
    inboxes: Vec<Vec<Envelope<P::Msg>>>,
    /// This round's honest traffic, in step order.
    honest_traffic: Vec<Envelope<P::Msg>>,
    /// This round's faulty traffic, one buffer per sender identifier.
    /// Like the inboxes, these buffers are emptied by delivery and keep
    /// their allocations for later rounds.
    faulty_traffic: Vec<Vec<Envelope<P::Msg>>>,
    round: u64,
    report: RunReport<P::Output>,
}

impl<P, A> Runner<P, A>
where
    P: Process,
    A: Adversary<P::Msg>,
{
    /// Creates a runner for a fully honest system: `honest` are assigned
    /// identifiers `0 ..` in order; the adversary controls the remaining
    /// identifiers `honest.len() .. n`.
    ///
    /// For arbitrary corruption patterns use [`Runner::with_ids`].
    pub fn new<I>(n: usize, honest: I, adversary: A) -> Self
    where
        I: IntoIterator<Item = P>,
    {
        let honest: BTreeMap<ProcessId, P> = honest
            .into_iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i as u32), p))
            .collect();
        let corrupted: BTreeSet<ProcessId> = ProcessId::all(n)
            .filter(|id| !honest.contains_key(id))
            .collect();
        Self::with_parts(n, honest, corrupted, adversary)
    }

    /// Creates a runner with an explicit honest-process map; every
    /// identifier in `0..n` absent from the map is corrupted.
    pub fn with_ids(n: usize, honest: BTreeMap<ProcessId, P>, adversary: A) -> Self {
        let corrupted: BTreeSet<ProcessId> = ProcessId::all(n)
            .filter(|id| !honest.contains_key(id))
            .collect();
        Self::with_parts(n, honest, corrupted, adversary)
    }

    fn with_parts(
        n: usize,
        honest: BTreeMap<ProcessId, P>,
        corrupted: BTreeSet<ProcessId>,
        adversary: A,
    ) -> Self {
        assert!(n >= 1, "a system needs at least one process");
        assert!(
            honest.keys().all(|id| id.index() < n),
            "honest identifier out of range"
        );
        let honest_count = honest.len();
        Runner {
            n,
            honest,
            adversary,
            corrupted,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            honest_traffic: Vec::new(),
            faulty_traffic: (0..n).map(|_| Vec::new()).collect(),
            round: 0,
            report: RunReport {
                honest_count,
                outputs: BTreeMap::new(),
                decision_round: BTreeMap::new(),
                last_decision_round: None,
                honest_messages: 0,
                honest_messages_until_decision: 0,
                honest_bytes: 0,
                honest_bytes_until_decision: 0,
                messages_per_process: BTreeMap::new(),
                rounds: Vec::new(),
                rounds_executed: 0,
            },
        }
    }

    /// Identifiers the adversary controls.
    pub fn corrupted(&self) -> &BTreeSet<ProcessId> {
        &self.corrupted
    }

    /// Executes one synchronous round. Returns `true` while any honest
    /// process is still participating.
    pub fn step(&mut self) -> bool {
        let round = self.round;
        let mut trace = RoundTrace::default();

        for (&id, proc) in self.honest.iter_mut() {
            if proc.halted() {
                continue;
            }
            let inbox = &mut self.inboxes[id.index()];
            let mut out = Outbox::new(id, self.n);
            proc.step(round, inbox, &mut out);
            inbox.clear();
            let envs = out.into_envelopes();
            let (remote, bytes) = remote_cost(&envs);
            trace.honest_messages += remote;
            trace.honest_bytes += bytes;
            *self.report.messages_per_process.entry(id).or_insert(0) += remote;
            self.honest_traffic.extend(envs);

            if let Some(o) = proc.output() {
                self.report.outputs.entry(id).or_insert(o);
                self.report.decision_round.entry(id).or_insert(round);
            }
        }

        // Rushing adversary: acts after seeing this round's honest traffic.
        let faulty_inboxes: BTreeMap<ProcessId, Vec<Envelope<P::Msg>>> = self
            .corrupted
            .iter()
            .map(|&id| (id, std::mem::take(&mut self.inboxes[id.index()])))
            .collect();
        let mut ctx = AdversaryCtx {
            round,
            n: self.n,
            corrupted: &self.corrupted,
            honest_traffic: &self.honest_traffic,
            faulty_inboxes: &faulty_inboxes,
            outgoing: std::mem::take(&mut self.faulty_traffic),
        };
        self.adversary.act(&mut ctx);
        self.faulty_traffic = ctx.outgoing;
        // Hand the buffers back: delivery clears and refills them.
        for (id, inbox) in faulty_inboxes {
            self.inboxes[id.index()] = inbox;
        }
        for sent in &self.faulty_traffic {
            let (messages, bytes) = remote_cost(sent);
            trace.faulty_messages += messages;
            trace.faulty_bytes += bytes;
        }

        self.report.honest_messages += trace.honest_messages;
        self.report.honest_bytes += trace.honest_bytes;
        if self.report.outputs.len() < self.report.honest_count {
            self.report.honest_messages_until_decision = self.report.honest_messages;
            self.report.honest_bytes_until_decision = self.report.honest_bytes;
        }

        deliver(
            &mut self.inboxes,
            &mut self.honest_traffic,
            &mut self.faulty_traffic,
        );

        self.report.rounds.push(trace);
        self.round += 1;
        self.report.rounds_executed = self.round;

        if self.report.outputs.len() == self.report.honest_count
            && self.report.last_decision_round.is_none()
        {
            self.report.last_decision_round = self.report.decision_round.values().copied().max();
        }

        self.honest.values().any(|p| !p.halted())
    }

    /// Runs until every honest process halts or `max_rounds` is reached,
    /// returning the report.
    pub fn run(&mut self, max_rounds: u64) -> RunReport<P::Output>
    where
        P::Output: Clone,
    {
        for _ in 0..max_rounds {
            if !self.step() {
                break;
            }
        }
        self.report.clone()
    }

    /// Read access to an honest process (for white-box assertions in
    /// tests).
    pub fn process(&self, id: ProcessId) -> Option<&P> {
        self.honest.get(&id)
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &RunReport<P::Output> {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{FnAdversary, SilentAdversary};
    use crate::id::Value;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// Echo-min protocol used across runner tests: broadcast once, then
    /// output the minimum value heard.
    struct MinEcho {
        mine: Value,
        out: Option<Value>,
    }

    impl Process for MinEcho {
        type Msg = Value;
        type Output = Value;
        fn step(&mut self, round: u64, inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
            match round {
                0 => out.broadcast(self.mine),
                1 => {
                    let min = inbox.iter().map(|e| *e.payload).min().unwrap_or(self.mine);
                    self.out = Some(min.min(self.mine));
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

    fn min_echo_system(_n: usize, honest: usize) -> Vec<MinEcho> {
        (0..honest)
            .map(|i| MinEcho {
                mine: Value(100 + i as u64),
                out: None,
            })
            .collect()
    }

    #[test]
    fn all_honest_reach_min_in_two_rounds() {
        let n = 5;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        assert!(report.agreement());
        assert_eq!(report.decision(), Some(&Value(100)));
        assert_eq!(report.last_decision_round, Some(1));
    }

    #[test]
    fn honest_message_count_excludes_self_copies() {
        let n = 4;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        // Each of 4 processes broadcasts once: 3 remote copies each.
        assert_eq!(report.honest_messages, 12);
        assert!(report.messages_per_process.values().all(|&c| c == 3));
    }

    #[test]
    fn honest_byte_count_charges_payload_sizes() {
        let n = 4;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        // 12 remote Value envelopes at 8 bytes each.
        assert_eq!(report.honest_bytes, 96);
        assert_eq!(report.rounds[0].honest_bytes, 96);
        assert!(report.rounds.iter().skip(1).all(|t| t.honest_bytes == 0));
    }

    #[test]
    fn bytes_until_decision_freeze_with_messages() {
        let n = 5;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        assert_eq!(
            report.honest_bytes_until_decision,
            report.honest_messages_until_decision * 8,
            "every MinEcho payload is one 8-byte Value"
        );
        assert!(report.honest_bytes_until_decision <= report.honest_bytes);
    }

    #[test]
    fn faulty_traffic_counted_separately() {
        let n = 4;
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Value>| {
            if ctx.round == 0 {
                ctx.broadcast(ProcessId(3), Value(1));
            }
        });
        let mut runner = Runner::new(n, min_echo_system(n, 3), adv);
        let report = runner.run(10);
        assert_eq!(report.rounds[0].faulty_messages, 3);
        // The faulty minimum wins: honest processes adopt Value(1).
        assert_eq!(report.decision(), Some(&Value(1)));
    }

    #[test]
    fn adversary_sees_honest_traffic_before_acting() {
        let n = 3;
        // The adversary echoes (min honest value - 1) in the same round it
        // observes the broadcasts — only a rushing adversary can do this.
        let adv = FnAdversary::new(|ctx: &mut AdversaryCtx<'_, Value>| {
            if ctx.round == 0 {
                let min = ctx
                    .honest_traffic
                    .iter()
                    .map(|e| *e.payload)
                    .min()
                    .expect("rushing adversary must see round-0 honest traffic");
                ctx.broadcast(ProcessId(2), Value(min.0 - 50));
            }
        });
        let mut runner = Runner::new(n, min_echo_system(n, 2), adv);
        let report = runner.run(10);
        assert_eq!(report.decision(), Some(&Value(50)));
    }

    #[test]
    fn runner_stops_at_max_rounds_without_outputs() {
        struct Forever;
        impl Process for Forever {
            type Msg = ();
            type Output = ();
            fn step(&mut self, _r: u64, _i: &[Envelope<()>], _o: &mut Outbox<()>) {}
            fn output(&self) -> Option<()> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut runner = Runner::new(2, vec![Forever, Forever], SilentAdversary);
        let report = runner.run(7);
        assert_eq!(report.rounds_executed, 7);
        assert!(!report.all_decided());
        assert!(report.last_decision_round.is_none());
    }

    #[test]
    fn corrupted_set_is_the_complement_of_honest_ids() {
        let runner: Runner<MinEcho, SilentAdversary> =
            Runner::new(5, min_echo_system(5, 3), SilentAdversary);
        let corrupted: Vec<u32> = runner.corrupted().iter().map(|p| p.0).collect();
        assert_eq!(corrupted, vec![3, 4]);
    }

    #[test]
    fn with_ids_supports_arbitrary_corruption_patterns() {
        let mut honest = BTreeMap::new();
        honest.insert(
            ProcessId(0),
            MinEcho {
                mine: Value(5),
                out: None,
            },
        );
        honest.insert(
            ProcessId(2),
            MinEcho {
                mine: Value(6),
                out: None,
            },
        );
        let runner: Runner<MinEcho, SilentAdversary> = Runner::with_ids(4, honest, SilentAdversary);
        let corrupted: Vec<u32> = runner.corrupted().iter().map(|p| p.0).collect();
        assert_eq!(corrupted, vec![1, 3]);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let run = || {
            let mut runner = Runner::new(6, min_echo_system(6, 4), SilentAdversary);
            let r = runner.run(10);
            (r.honest_messages, r.last_decision_round, r.rounds_executed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn decision_round_recorded_per_process() {
        let n = 3;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        assert_eq!(report.decision_round.len(), 3);
        assert!(report.decision_round.values().all(|&r| r == 1));
    }

    #[test]
    fn remote_cost_charges_each_envelope_its_own_payload() {
        // Interleaved shared payloads A, B, A, A and a self-copy of C:
        // a size memo keyed on the previous envelope must re-measure A
        // after B, and the self-copy is neither a message nor bytes.
        let a = Arc::new("aaaaaaaa".to_string());
        let b = Arc::new("b".to_string());
        let c = Arc::new("c".repeat(100));
        let env = |to: u32, payload: &Arc<String>| Envelope {
            from: ProcessId(0),
            to: ProcessId(to),
            payload: Arc::clone(payload),
        };
        let envs = [env(1, &a), env(2, &b), env(3, &a), env(0, &c), env(4, &a)];
        assert_eq!((a.wire_bytes(), b.wire_bytes()), (12, 5));
        assert_eq!(remote_cost(&envs), (4, 3 * 12 + 5));
        assert_eq!(remote_cost(&envs[3..4]), (0, 0));
    }

    /// One inbox as `(sender, payload)` pairs.
    type Mail = Vec<(u32, u64)>;

    /// Records every inbox as `(sender, payload)` pairs and broadcasts
    /// two tagged values per round. A sleeper reports itself halted at
    /// the start of rounds 2 and 3 (the shared clock holds the previous
    /// round's number).
    struct Recorder {
        me: ProcessId,
        clock: Rc<Cell<u64>>,
        sleeper: bool,
        log: Vec<(u64, Mail)>,
    }

    impl Process for Recorder {
        type Msg = Value;
        type Output = Value;
        fn step(&mut self, round: u64, inbox: &[Envelope<Value>], out: &mut Outbox<Value>) {
            let seen = inbox.iter().map(|e| (e.from.0, e.payload.0)).collect();
            self.log.push((round, seen));
            let tag = 1000 * round + 10 * u64::from(self.me.0);
            out.broadcast(Value(tag));
            out.broadcast(Value(tag + 1));
        }
        fn output(&self) -> Option<Value> {
            None
        }
        fn halted(&self) -> bool {
            self.sleeper && (1..=2).contains(&self.clock.get())
        }
    }

    #[test]
    fn inboxes_are_sorted_by_sender_and_stable_within_a_sender() {
        let n = 6;
        let clock = Rc::new(Cell::new(0));
        let honest: BTreeMap<ProcessId, Recorder> = [0, 2, 5]
            .into_iter()
            .map(|i| {
                let recorder = Recorder {
                    me: ProcessId(i),
                    clock: Rc::clone(&clock),
                    sleeper: i == 2,
                    log: Vec::new(),
                };
                (ProcessId(i), recorder)
            })
            .collect();
        let faulty_seen: Rc<RefCell<Vec<Mail>>> = Rc::default();
        let seen = Rc::clone(&faulty_seen);
        let ticks = Rc::clone(&clock);
        // The coalition {1, 3, 4} emits out of sender order, plus one
        // envelope to an identifier beyond the system.
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, Value>| {
            let inbox = &ctx.faulty_inboxes[&ProcessId(3)];
            seen.borrow_mut()
                .push(inbox.iter().map(|e| (e.from.0, e.payload.0)).collect());
            let tag = 1000 * ctx.round;
            ctx.broadcast(ProcessId(4), Value(tag + 40));
            ctx.broadcast(ProcessId(3), Value(tag + 30));
            ctx.broadcast(ProcessId(4), Value(tag + 41));
            ctx.broadcast(ProcessId(1), Value(tag + 10));
            ctx.send(ProcessId(3), ProcessId(n as u32 + 5), Value(tag + 99));
            ticks.set(ctx.round);
        });
        let mut runner = Runner::with_ids(n, honest, adv);
        for _ in 0..6 {
            assert!(runner.step());
        }

        // Everything sent in `round`, in the order of the contract.
        let sent_in = |round: u64| -> Mail {
            let tag = 1000 * round;
            let asleep = (2..=3).contains(&round);
            let mut mail = vec![(0, tag), (0, tag + 1), (1, tag + 10)];
            if !asleep {
                mail.extend([(2, tag + 20), (2, tag + 21)]);
            }
            mail.extend([(3, tag + 30), (4, tag + 40), (4, tag + 41)]);
            mail.extend([(5, tag + 50), (5, tag + 51)]);
            mail
        };
        for id in [0, 5] {
            let log = &runner.process(ProcessId(id)).expect("honest").log;
            assert_eq!(log.len(), 6);
            assert!(log[0].1.is_empty());
            for (round, inbox) in &log[1..] {
                assert_eq!(inbox, &sent_in(round - 1), "p{id}'s round-{round} inbox");
            }
        }
        // The sleeper steps in rounds 0, 1, 4 and 5 only; what was sent
        // to it while it slept never reaches it.
        let log = &runner.process(ProcessId(2)).expect("honest").log;
        let rounds: Vec<u64> = log.iter().map(|(r, _)| *r).collect();
        assert_eq!(rounds, vec![0, 1, 4, 5]);
        assert_eq!(log[2].1, sent_in(3));
        assert_eq!(log[3].1, sent_in(4));
        // Corrupted processes' inboxes follow the same contract.
        let faulty_seen = faulty_seen.borrow();
        assert!(faulty_seen[0].is_empty());
        for (round, inbox) in faulty_seen.iter().enumerate().skip(1) {
            assert_eq!(inbox, &sent_in(round as u64 - 1));
        }
        // Four broadcasts with 5 remote copies each, plus the envelope
        // to p11: charged as faulty traffic, delivered to nobody.
        for trace in &runner.report().rounds {
            assert_eq!((trace.faulty_messages, trace.faulty_bytes), (21, 21 * 8));
        }
    }

    #[test]
    fn halted_processes_stop_consuming_and_sending() {
        let n = 3;
        let mut runner = Runner::new(n, min_echo_system(n, n), SilentAdversary);
        let report = runner.run(10);
        // Protocol halts after round 1; no honest messages afterwards.
        assert!(report.rounds.iter().skip(1).all(|t| t.honest_messages == 0));
        assert!(report.rounds_executed <= 3);
    }
}
