//! The traced run: the same sessions, rebuilt from the public
//! constructors with timing shims around every honest `Process::step`
//! and the `Adversary::act`, and timed call by call.
//!
//! Nothing inside the program is instrumented. [`replica`] rebuilds the
//! session each `ProtocolDriver::build` would build (same constructors,
//! same PKI and session-tag derivations, same `Disruptor` mappings),
//! with each honest process wrapped in [`Timed`] and the adversary in
//! [`TimedAdversary`]. [`traced_session`] then repeats
//! `ExperimentConfig::run_with` step by step — generators, build, run,
//! `k_A` measurement — timing each call. A replica is only trusted
//! after its outcome equals the driver path's; the caller checks that
//! before reporting any split.

use ba_commeff::{CommEff, CommEffSigned};
use ba_core::{AuthWrapper, BitVec, Schedule, SlotKind, UnauthWrapper};
use ba_crypto::{Pki, SigningKey};
use ba_early::{PhaseKing, PhaseKingOutput, TruncatedDs};
use ba_resilient::{ResilientBa, ResilientDisruptor, ResilientSigned, SignedResilientDisruptor};
use ba_sim::{
    erase, Adversary, AdversaryCtx, Envelope, ErasedSession, MapOutput, Outbox, Process, ProcessId,
    ReplayAdversary, SilentAdversary, Value,
};
use ba_workloads::{
    generators, k_a_from_probes, AdversaryKind, AuthDisruptor, ExperimentConfig, ExperimentOutcome,
    InputPattern, Pipeline, SessionSpec, SignedCertEquivocator, UnauthDisruptor,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wrapper schedule buckets: classification, graded consensus
/// (GcA + GcB + GcC), early-stopping BA, conditional BA with
/// classification.
pub const SLOTS: [&str; 4] = ["classify", "graded", "es", "class"];

fn slot_bucket(kind: SlotKind) -> usize {
    match kind {
        SlotKind::Classify => 0,
        SlotKind::GcA { .. } | SlotKind::GcB { .. } | SlotKind::GcC { .. } => 1,
        SlotKind::Es { .. } => 2,
        SlotKind::Class { .. } => 3,
    }
}

/// Time accumulated by the shims of one session.
#[derive(Debug, Default)]
pub struct Ledger {
    step: Cell<Duration>,
    act: Cell<Duration>,
    slots: [Cell<Duration>; 4],
}

fn add(cell: &Cell<Duration>, dt: Duration) {
    cell.set(cell.get() + dt);
}

/// A [`Process`] that times every `step` of the process it wraps and,
/// for the wrappers, files the time under the schedule slot of the
/// round.
pub struct Timed<P> {
    inner: P,
    ledger: Rc<Ledger>,
    schedule: Option<Rc<Schedule>>,
}

impl<P: Process> Process for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, round: u64, inbox: &[Envelope<Self::Msg>], out: &mut Outbox<Self::Msg>) {
        let start = Instant::now();
        self.inner.step(round, inbox, out);
        let dt = start.elapsed();
        add(&self.ledger.step, dt);
        if let Some(slot) = self.schedule.as_ref().and_then(|s| s.slot_at(round)) {
            add(&self.ledger.slots[slot_bucket(slot.kind)], dt);
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.inner.output()
    }

    fn halted(&self) -> bool {
        self.inner.halted()
    }
}

/// An [`Adversary`] that times every `act` of the adversary it wraps.
pub struct TimedAdversary<A> {
    inner: A,
    ledger: Rc<Ledger>,
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn act(&mut self, ctx: &mut AdversaryCtx<'_, M>) {
        let start = Instant::now();
        self.inner.act(ctx);
        add(&self.ledger.act, start.elapsed());
    }
}

/// Wraps every honest process and the adversary in their shims and
/// erases the session.
fn shimmed<P, F>(
    n: usize,
    honest: BTreeMap<ProcessId, P>,
    adversary: Box<dyn Adversary<P::Msg>>,
    schedule: Option<Schedule>,
    ledger: &Rc<Ledger>,
    probe: F,
) -> Box<dyn ErasedSession>
where
    P: Process<Output = Value> + 'static,
    F: Fn(&P) -> Option<Vec<bool>> + 'static,
{
    let schedule = schedule.map(Rc::new);
    let honest: BTreeMap<ProcessId, Timed<P>> = honest
        .into_iter()
        .map(|(id, inner)| {
            let timed = Timed {
                inner,
                ledger: Rc::clone(ledger),
                schedule: schedule.clone(),
            };
            (id, timed)
        })
        .collect();
    let adversary = TimedAdversary {
        inner: adversary,
        ledger: Rc::clone(ledger),
    };
    erase(n, honest, adversary, move |p: &Timed<P>| probe(&p.inner))
}

fn bits_of(c: &BitVec) -> Vec<bool> {
    (0..c.len()).map(|i| c.get(i)).collect()
}

/// The same PKI `ProtocolDriver::build` derives for signed families.
fn pki_of(spec: &SessionSpec<'_>) -> Arc<Pki> {
    Arc::new(Pki::new(spec.n, spec.seed ^ 0x91c1))
}

fn corrupted_keys(pki: &Pki, spec: &SessionSpec<'_>) -> Vec<SigningKey> {
    spec.faulty.iter().map(|p| pki.signing_key(p.0)).collect()
}

/// Builds one honest process per honest id.
fn honest_map<P>(
    spec: &SessionSpec<'_>,
    mut make: impl FnMut(ProcessId, Value) -> P,
) -> BTreeMap<ProcessId, P> {
    spec.honest_slots()
        .map(|(slot, id)| (id, make(id, spec.input_for(slot))))
        .collect()
}

/// The adversary of a family whose `Disruptor` is `disruptor`.
fn adversary<M: Clone + 'static>(
    kind: AdversaryKind,
    disruptor: impl FnOnce() -> Box<dyn Adversary<M>>,
) -> Box<dyn Adversary<M>> {
    match kind {
        AdversaryKind::Silent => Box::new(SilentAdversary),
        AdversaryKind::Disruptor => disruptor(),
        other => panic!("the traced run replicates Silent and Disruptor sessions, not {other:?}"),
    }
}

/// The 1-round replay coalition the baselines and the unsigned
/// committee pipeline map `Disruptor` to.
fn replay<M: Clone + 'static>() -> Box<dyn Adversary<M>> {
    Box::new(ReplayAdversary::new(1))
}

/// Rebuilds the session `pipeline`'s driver builds for `spec`, with
/// timing shims charging `ledger`.
///
/// # Panics
///
/// Panics on adversaries other than `Silent` and `Disruptor` (the only
/// ones the workloads use).
pub fn replica(
    pipeline: Pipeline,
    spec: &SessionSpec<'_>,
    ledger: &Rc<Ledger>,
) -> Box<dyn ErasedSession> {
    let (n, t) = (spec.n, spec.t);
    let row = |id: ProcessId| spec.matrix.row(id).clone();
    match pipeline {
        Pipeline::Unauth => shimmed(
            n,
            honest_map(spec, |id, v| UnauthWrapper::new(id, n, t, v, row(id))),
            adversary(spec.adversary, || {
                Box::new(UnauthDisruptor::new(n, t, spec.faulty_vec()))
            }),
            Some(UnauthWrapper::schedule(n, t)),
            ledger,
            |w: &UnauthWrapper| w.classification().map(bits_of),
        ),
        Pipeline::Auth => {
            let pki = pki_of(spec);
            shimmed(
                n,
                honest_map(spec, |id, v| {
                    AuthWrapper::new(
                        id,
                        n,
                        t,
                        v,
                        row(id),
                        Arc::clone(&pki),
                        pki.signing_key(id.0),
                    )
                }),
                adversary(spec.adversary, || {
                    Box::new(AuthDisruptor::new(n, t, spec.faulty_vec(), &pki))
                }),
                Some(AuthWrapper::schedule(n, t)),
                ledger,
                |w: &AuthWrapper| w.classification().map(bits_of),
            )
        }
        Pipeline::PhaseKing => {
            type P = MapOutput<PhaseKing, fn(&PhaseKingOutput) -> Value>;
            fn decided(o: &PhaseKingOutput) -> Value {
                o.decision.unwrap_or(o.value)
            }
            shimmed(
                n,
                honest_map(spec, |id, v| {
                    MapOutput::new(
                        PhaseKing::full(id, n, t, v),
                        decided as fn(&PhaseKingOutput) -> Value,
                    )
                }),
                adversary(spec.adversary, replay),
                None,
                ledger,
                |_: &P| None,
            )
        }
        Pipeline::TruncatedDolevStrong => {
            let pki = pki_of(spec);
            let session = spec.seed ^ 0x7d5;
            shimmed(
                n,
                honest_map(spec, |id, v| {
                    TruncatedDs::full(
                        id,
                        n,
                        t,
                        session,
                        v,
                        Arc::clone(&pki),
                        pki.signing_key(id.0),
                    )
                }),
                adversary(spec.adversary, replay),
                None,
                ledger,
                |_: &TruncatedDs| None,
            )
        }
        Pipeline::CommEff => shimmed(
            n,
            honest_map(spec, |id, v| CommEff::new(id, n, t, v, row(id))),
            adversary(spec.adversary, replay),
            None,
            ledger,
            |p: &CommEff| Some(bits_of(p.prediction())),
        ),
        Pipeline::Resilient => shimmed(
            n,
            honest_map(spec, |id, v| ResilientBa::new(id, n, t, v, row(id))),
            adversary(spec.adversary, || {
                Box::new(ResilientDisruptor::new(n, t, spec.faulty_vec()))
            }),
            None,
            ledger,
            |p: &ResilientBa| p.classification().map(bits_of),
        ),
        Pipeline::CommEffSigned => {
            let pki = pki_of(spec);
            shimmed(
                n,
                honest_map(spec, |id, v| {
                    CommEffSigned::new(
                        id,
                        n,
                        t,
                        v,
                        row(id),
                        Arc::clone(&pki),
                        pki.signing_key(id.0),
                    )
                }),
                adversary(spec.adversary, || {
                    Box::new(SignedCertEquivocator::new(
                        n,
                        t,
                        corrupted_keys(&pki, spec),
                        Arc::clone(&pki),
                    ))
                }),
                None,
                ledger,
                |p: &CommEffSigned| Some(bits_of(p.prediction())),
            )
        }
        Pipeline::ResilientSigned => {
            let pki = pki_of(spec);
            shimmed(
                n,
                honest_map(spec, |id, v| {
                    ResilientSigned::new(
                        id,
                        n,
                        t,
                        v,
                        row(id),
                        Arc::clone(&pki),
                        pki.signing_key(id.0),
                    )
                }),
                adversary(spec.adversary, || {
                    Box::new(SignedResilientDisruptor::new(
                        n,
                        t,
                        corrupted_keys(&pki, spec),
                        Arc::clone(&pki),
                    ))
                }),
                None,
                ledger,
                |p: &ResilientSigned| p.classification().map(bits_of),
            )
        }
        other => panic!("no replica for {other:?}"),
    }
}

/// Per-layer time and counts of one or more traced sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layers {
    /// Whole traced session, first call to last.
    pub wall: Duration,
    /// `generators::faults` + `generators::predictions_with_budget`.
    pub generators: Duration,
    /// Building the session (the replica of `ProtocolDriver::build`).
    pub build: Duration,
    /// `ErasedSession::run`.
    pub run: Duration,
    /// Honest `Process::step`, summed over processes and rounds.
    pub step: Duration,
    /// `Adversary::act`.
    pub act: Duration,
    /// `ErasedSession::probes` + `k_a_from_probes`.
    pub k_a: Duration,
    /// Wrapper step time per schedule bucket ([`SLOTS`]).
    pub slots: [Duration; 4],
    /// Rounds the runner executed.
    pub rounds_executed: u64,
    /// Honest messages over the whole run.
    pub honest_envelopes: u64,
    /// Faulty messages over the whole run.
    pub faulty_envelopes: u64,
}

impl Layers {
    /// The runner's own time: run minus honest steps minus the
    /// adversary (accounting, sorting and routing of delivery).
    pub fn runner(&self) -> Duration {
        self.run.saturating_sub(self.step + self.act)
    }

    /// The parts the traced run splits a session into, summed.
    pub fn accounted(&self) -> Duration {
        self.generators + self.build + self.step + self.act + self.runner() + self.k_a
    }

    /// Adds another session's layers.
    pub fn add(&mut self, o: &Layers) {
        self.wall += o.wall;
        self.generators += o.generators;
        self.build += o.build;
        self.run += o.run;
        self.step += o.step;
        self.act += o.act;
        self.k_a += o.k_a;
        for (a, b) in self.slots.iter_mut().zip(o.slots) {
            *a += b;
        }
        self.rounds_executed += o.rounds_executed;
        self.honest_envelopes += o.honest_envelopes;
        self.faulty_envelopes += o.faulty_envelopes;
    }
}

/// Runs `cfg` the way `ExperimentConfig::run_with` does, through the
/// replica, timing every layer call.
pub fn traced_session(cfg: &ExperimentConfig) -> (ExperimentOutcome, Layers) {
    let driver = cfg.pipeline.driver();
    let start = Instant::now();
    let faulty = generators::faults(cfg.n, cfg.f, cfg.fault_placement);
    let matrix =
        generators::predictions_with_budget(cfg.n, &faulty, cfg.budget, cfg.placement, cfg.seed);
    let b_actual = matrix.total_errors(&faulty);
    let spec = SessionSpec {
        n: cfg.n,
        t: cfg.t,
        faulty: &faulty,
        matrix: &matrix,
        inputs: cfg.inputs,
        adversary: cfg.adversary,
        seed: cfg.seed,
    };
    let built = Instant::now();
    let ledger = Rc::new(Ledger::default());
    let mut session = replica(cfg.pipeline, &spec, &ledger);
    let run = Instant::now();
    let report = session.run(driver.max_rounds(cfg.n, cfg.t));
    let measured = Instant::now();
    let k_a = if driver.uses_predictions() {
        k_a_from_probes(cfg.n, &faulty, &session.probes())
    } else {
        0
    };
    let end = Instant::now();
    let outcome = ExperimentOutcome {
        rounds: report.last_decision_round,
        messages: report.honest_messages_until_decision,
        messages_total: report.honest_messages,
        bytes: report.honest_bytes_until_decision,
        bytes_total: report.honest_bytes,
        agreement: report.agreement(),
        validity_ok: match cfg.inputs {
            InputPattern::Unanimous(v) => report.decision() == Some(&Value(v)),
            _ => report.agreement(),
        },
        b_actual,
        k_a,
    };
    let layers = Layers {
        wall: end - start,
        generators: built - start,
        build: run - built,
        run: measured - run,
        step: ledger.step.get(),
        act: ledger.act.get(),
        k_a: end - measured,
        slots: std::array::from_fn(|i| ledger.slots[i].get()),
        rounds_executed: report.rounds_executed,
        honest_envelopes: report.honest_messages,
        faulty_envelopes: report.rounds.iter().map(|r| r.faulty_messages).sum(),
    };
    (outcome, layers)
}
