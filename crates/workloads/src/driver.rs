//! Protocol families as data: one [`Family`] row per
//! [`Pipeline`](crate::experiment::Pipeline).
//!
//! The paper's headline claim — `O(min{B/n + 1, f})` rounds, never
//! worse than a prediction-free early-stopping baseline — is a
//! comparison *across protocol families*, so the harness runs all of
//! them through one code path. A family row holds everything that path
//! needs: the display name, the resilience bound, whether the family
//! consumes predictions, its round budget, the shapes
//! [`driver_table`](crate::tables::driver_table) prints, and a `build`
//! fn that turns a [`SessionSpec`] (system size, fault set, prediction
//! matrix, inputs, adversary, seed) into a type-erased
//! [`ErasedSession`]. [`ExperimentConfig::run`] then runs and measures
//! it identically for every family — rounds, messages and
//! [`ba_sim::WireSize`] bytes. A new family is a new `Pipeline` variant
//! plus one row in `FAMILIES`.
//!
//! ## Adversary mapping for families without a classification round
//!
//! [`AdversaryKind`] names behaviours of the *wrapper* execution model.
//! The baselines and the communication-efficient pipelines have no
//! classification round to lie in, so for them `ClassifyLiar` degrades
//! to silence (its lies have no audience). `Disruptor` maps to the
//! strongest behaviour each family admits: the schedule-aware
//! coalitions for the wrappers ([`crate::disruptor`]) and the resilient
//! pair (one [`ba_resilient::Disruptor`] over either exchange:
//! [`ba_resilient::ResilientDisruptor`] /
//! [`ba_resilient::SignedResilientDisruptor`]), the full
//! signature-equivocation menu for the signed committee pipeline
//! ([`crate::adversaries::SignedCertEquivocator`]), and a 1-round
//! replay coalition for the baselines and the unsigned committee
//! pipeline — documented deviations, chosen over panicking so that
//! sweeps can hold the adversary column fixed across pipelines.
//!
//! [`ExperimentConfig::run`]: crate::experiment::ExperimentConfig::run

use crate::adversaries::{ClassifyLiar, SignedCertEquivocator};
use crate::disruptor::{AuthDisruptor, UnauthDisruptor};
use crate::experiment::{AdversaryKind, InputPattern};
use ba_commeff::{CommEff, CommEffSigned};
use ba_core::{AuthWrapper, BitVec, MisclassificationReport, PredictionMatrix, UnauthWrapper};
use ba_crypto::{Pki, SigningKey};
use ba_early::{PhaseKing, PhaseKingOutput, TruncatedDs};
use ba_resilient::{ResilientBa, ResilientDisruptor, ResilientSigned, SignedResilientDisruptor};
use ba_sim::{
    erase, Adversary, ErasedSession, MapOutput, Process, ProcessId, ReplayAdversary,
    SilentAdversary, Value,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything a family needs to build one session. Produced by the
/// experiment engine from an
/// [`ExperimentConfig`](crate::experiment::ExperimentConfig); shared by
/// all families so that the same workload is presented to every
/// protocol.
#[derive(Clone, Debug)]
pub struct SessionSpec<'a> {
    /// System size.
    pub n: usize,
    /// Fault tolerance bound.
    pub t: usize,
    /// The corrupted identifiers (`|faulty| = f ≤ t`).
    pub faulty: &'a BTreeSet<ProcessId>,
    /// Prediction matrix (budgeted wrong bits already injected).
    /// Prediction-free families ignore it.
    pub matrix: &'a PredictionMatrix,
    /// Honest input pattern.
    pub inputs: InputPattern,
    /// Byzantine behaviour.
    pub adversary: AdversaryKind,
    /// Seed for PKI and adversary randomness.
    pub seed: u64,
}

impl SessionSpec<'_> {
    /// The input of the honest process in enumeration slot `slot`.
    pub fn input_for(&self, slot: usize) -> Value {
        match self.inputs {
            InputPattern::Unanimous(v) => Value(v),
            // Split inputs start at 1: the worst-case disruptor injects
            // strictly smaller values (0) selectively to split the
            // minimum-based conciliation (Algorithm 4 line 4).
            InputPattern::Split => Value(1 + (slot % 2) as u64),
            InputPattern::Distinct => Value(slot as u64 + 100),
        }
    }

    /// Honest identifiers with their enumeration slots, in id order.
    pub fn honest_slots(&self) -> impl Iterator<Item = (usize, ProcessId)> + '_ {
        ProcessId::all(self.n)
            .filter(|p| !self.faulty.contains(p))
            .enumerate()
    }

    /// The corrupted identifiers as a vector (adversary constructors).
    pub fn faulty_vec(&self) -> Vec<ProcessId> {
        self.faulty.iter().copied().collect()
    }

    /// The simulated PKI of the signed families.
    fn pki(&self) -> Arc<Pki> {
        Arc::new(Pki::new(self.n, self.seed ^ 0x91c1))
    }

    /// The signing keys of the corrupted identifiers — the only keys
    /// the harness ever hands an adversary (simulated-PKI
    /// unforgeability is exactly this discipline; see
    /// [`ba_crypto::Pki::signing_key`]).
    fn corrupted_keys(&self, pki: &Pki) -> Vec<SigningKey> {
        self.faulty.iter().map(|p| pki.signing_key(p.0)).collect()
    }
}

/// A family's resilience bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resilience {
    /// `3t < n`: unauthenticated quorums (and the signed variants that
    /// keep their round structure).
    Third,
    /// `2t < n`: authenticated agreement.
    Half,
}

impl Resilience {
    /// The largest fault bound `t` tolerated at size `n`.
    pub const fn max_faults(self, n: usize) -> usize {
        match self {
            Resilience::Third => n.saturating_sub(1) / 3,
            Resilience::Half => n.saturating_sub(1) / 2,
        }
    }

    /// The bound as printed in [`driver_table`](crate::tables::driver_table).
    pub const fn shape(self) -> &'static str {
        match self {
            Resilience::Third => "3t < n",
            Resilience::Half => "2t < n",
        }
    }
}

/// One protocol family: what the experiment engine needs to build, run
/// and describe its sessions.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    name: &'static str,
    resilience: Resilience,
    predictions: bool,
    max_rounds: fn(usize, usize) -> u64,
    round_shape: &'static str,
    comm_shape: &'static str,
    build: fn(&SessionSpec<'_>) -> Box<dyn ErasedSession>,
}

impl Family {
    /// Stable display name (bench tables, JSON output).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The family's resilience bound.
    pub fn resilience(&self) -> Resilience {
        self.resilience
    }

    /// The largest fault bound `t` this family tolerates at size `n`.
    pub fn max_faults(&self, n: usize) -> usize {
        self.resilience.max_faults(n)
    }

    /// Whether the family consumes the prediction matrix. The
    /// prediction-free baselines return `false`, and the engine skips
    /// their (vacuous) misclassification measurement.
    pub fn uses_predictions(&self) -> bool {
        self.predictions
    }

    /// Round budget sufficient for termination at `(n, t)`.
    pub fn max_rounds(&self, n: usize, t: usize) -> u64 {
        (self.max_rounds)(n, t)
    }

    /// The round-complexity shape printed by
    /// [`driver_table`](crate::tables::driver_table).
    pub fn round_shape(&self) -> &'static str {
        self.round_shape
    }

    /// The communication shape printed by
    /// [`driver_table`](crate::tables::driver_table).
    pub fn comm_shape(&self) -> &'static str {
        self.comm_shape
    }

    /// Builds the full session — honest processes and adversary — for
    /// one experiment.
    pub fn build(&self, spec: &SessionSpec<'_>) -> Box<dyn ErasedSession> {
        (self.build)(spec)
    }
}

/// One row per [`Pipeline`](crate::experiment::Pipeline), in
/// [`Pipeline::ALL`](crate::experiment::Pipeline::ALL) order.
pub(crate) static FAMILIES: [Family; 8] = [
    Family {
        name: "unauth-wrapper",
        resilience: Resilience::Third,
        predictions: true,
        max_rounds: |n, t| UnauthWrapper::schedule(n, t).total_steps + 4,
        round_shape: "O(min{B/n + 1, f})",
        comm_shape: "O(f·n²)",
        build: |spec| {
            let (n, t) = (spec.n, spec.t);
            session(
                spec,
                |id, v| UnauthWrapper::new(id, n, t, v, spec.matrix.row(id).clone()),
                adversary(spec, ClassifyLiar::wrapper, || {
                    Box::new(UnauthDisruptor::new(n, t, spec.faulty_vec()))
                }),
                |w| w.classification().map(bits_of),
            )
        },
    },
    Family {
        name: "auth-wrapper",
        resilience: Resilience::Half,
        predictions: true,
        max_rounds: |n, t| AuthWrapper::schedule(n, t).total_steps + 4,
        round_shape: "O(min{B/n + 1, f})",
        comm_shape: "O(n²) chain batches",
        build: |spec| {
            let (n, t) = (spec.n, spec.t);
            let pki = spec.pki();
            session(
                spec,
                |id, v| {
                    let row = spec.matrix.row(id).clone();
                    AuthWrapper::new(id, n, t, v, row, Arc::clone(&pki), pki.signing_key(id.0))
                },
                adversary(spec, ClassifyLiar::wrapper, || {
                    Box::new(AuthDisruptor::new(n, t, spec.faulty_vec(), &pki))
                }),
                |w| w.classification().map(bits_of),
            )
        },
    },
    Family {
        name: "phase-king",
        resilience: Resilience::Third,
        predictions: false,
        max_rounds: |_, t| PhaseKing::rounds(PhaseKing::phases_for(t)) + 2,
        round_shape: "O(f)",
        comm_shape: "O(f·n²)",
        build: |spec| {
            session(
                spec,
                |id, v| {
                    let king = PhaseKing::full(id, spec.n, spec.t, v);
                    MapOutput::new(king, |o: &PhaseKingOutput| o.decision.unwrap_or(o.value))
                },
                baseline_adversary(spec),
                |_| None,
            )
        },
    },
    Family {
        name: "truncated-dolev-strong",
        resilience: Resilience::Half,
        predictions: false,
        max_rounds: |_, t| TruncatedDs::rounds(t) + 2,
        round_shape: "t + 1",
        comm_shape: "Ω(n²) chain batches",
        build: |spec| {
            let pki = spec.pki();
            let tag = spec.seed ^ 0x7d5;
            session(
                spec,
                |id, v| {
                    let key = pki.signing_key(id.0);
                    TruncatedDs::full(id, spec.n, spec.t, tag, v, Arc::clone(&pki), key)
                },
                baseline_adversary(spec),
                |_| None,
            )
        },
    },
    // Dzulfikar–Gilbert: committee-sampled dissemination in a 5-round
    // fast lane, phase-king fallback. It consumes the prediction matrix
    // raw (no Algorithm 2), so the prediction string is its probe.
    Family {
        name: "comm-eff",
        resilience: Resilience::Third,
        predictions: true,
        max_rounds: |_, t| CommEff::rounds(t) + 2,
        round_shape: "5 fast / O(t) fallback",
        comm_shape: "Θ(n·f̂) fast lane",
        build: |spec| {
            let (n, t) = (spec.n, spec.t);
            session(
                spec,
                |id, v| CommEff::new(id, n, t, v, spec.matrix.row(id).clone()),
                baseline_adversary(spec),
                |p| Some(bits_of(p.prediction())),
            )
        },
    },
    // Dallot et al.: a classification exchange, then phase king in
    // aggregated-suspicion throne order — one stalled phase per faulty
    // identifier the budget promotes, never a lane cliff.
    Family {
        name: "resilient",
        resilience: Resilience::Third,
        predictions: true,
        max_rounds: |_, t| ResilientBa::rounds(t) + 2,
        round_shape: "O(promoted(B) + 1), ≤ 2t + 3 phases",
        comm_shape: "O((promoted(B) + 1)·n²)",
        build: |spec| {
            let (n, t) = (spec.n, spec.t);
            session(
                spec,
                |id, v| ResilientBa::new(id, n, t, v, spec.matrix.row(id).clone()),
                adversary(spec, ClassifyLiar::resilient, || {
                    Box::new(ResilientDisruptor::new(n, t, spec.faulty_vec()))
                }),
                |p| p.classification().map(bits_of),
            )
        },
    },
    // The committee fast lane with signed submit/report/ack traffic and
    // a transferable, echoed certify certificate, so an equivocating
    // aggregator can no longer split the fast/fallback decision.
    Family {
        name: "comm-eff-signed",
        resilience: Resilience::Third,
        predictions: true,
        max_rounds: |_, t| CommEffSigned::rounds(t) + 2,
        round_shape: "6 fast / O(t) fallback, uniform lane",
        comm_shape: "O(n³) certificate echo",
        build: |spec| {
            let (n, t) = (spec.n, spec.t);
            let pki = spec.pki();
            session(
                spec,
                |id, v| {
                    let row = spec.matrix.row(id).clone();
                    CommEffSigned::new(id, n, t, v, row, Arc::clone(&pki), pki.signing_key(id.0))
                },
                adversary(spec, silent, || {
                    let keys = spec.corrupted_keys(&pki);
                    Box::new(SignedCertEquivocator::new(n, t, keys, Arc::clone(&pki)))
                }),
                |p| Some(bits_of(p.prediction())),
            )
        },
    },
    // The resilient throne schedule over a signed, echoed
    // classification exchange: equivocators are convicted by their own
    // signatures, honest suspicion views agree, and the budget shrinks
    // from 2t + 3 phases to a suffix-free t + 2.
    Family {
        name: "resilient-signed",
        resilience: Resilience::Third,
        predictions: true,
        max_rounds: |_, t| ResilientSigned::rounds(t) + 2,
        round_shape: "O(promoted(B) + 1), ≤ t + 2 phases",
        comm_shape: "O(n³) signed exchange",
        build: |spec| {
            let (n, t) = (spec.n, spec.t);
            let pki = spec.pki();
            let keys = || spec.corrupted_keys(&pki);
            session(
                spec,
                |id, v| {
                    let row = spec.matrix.row(id).clone();
                    ResilientSigned::new(id, n, t, v, row, Arc::clone(&pki), pki.signing_key(id.0))
                },
                adversary(
                    spec,
                    |liar| Box::new(liar.resilient_signed(keys())),
                    || {
                        Box::new(SignedResilientDisruptor::new(
                            n,
                            t,
                            keys(),
                            Arc::clone(&pki),
                        ))
                    },
                ),
                |p| p.classification().map(bits_of),
            )
        },
    },
];

/// Builds one honest process per honest id with `make(id, input)` and
/// erases the session; `probe` exposes a process's classification bits
/// (`None` for families without any).
fn session<P>(
    spec: &SessionSpec<'_>,
    mut make: impl FnMut(ProcessId, Value) -> P,
    adversary: Box<dyn Adversary<P::Msg>>,
    probe: fn(&P) -> Option<Vec<bool>>,
) -> Box<dyn ErasedSession>
where
    P: Process<Output = Value> + 'static,
{
    let honest = spec
        .honest_slots()
        .map(|(slot, id)| (id, make(id, spec.input_for(slot))))
        .collect();
    erase(spec.n, honest, adversary, probe)
}

/// Maps the spec's [`AdversaryKind`] onto one family: `liar` answers
/// `ClassifyLiar`, `disruptor` answers `Disruptor`.
fn adversary<M: Clone + 'static>(
    spec: &SessionSpec<'_>,
    liar: impl FnOnce(ClassifyLiar) -> Box<dyn Adversary<M>>,
    disruptor: impl FnOnce() -> Box<dyn Adversary<M>>,
) -> Box<dyn Adversary<M>> {
    match spec.adversary {
        AdversaryKind::Silent => Box::new(SilentAdversary),
        AdversaryKind::ClassifyLiar(style) => liar(ClassifyLiar::new(
            spec.n,
            spec.faulty_vec(),
            style,
            spec.seed,
        )),
        AdversaryKind::Replay => Box::new(ReplayAdversary::new(1)),
        AdversaryKind::Disruptor => disruptor(),
    }
}

/// A liar with no classification round to lie in stays silent.
fn silent<M: Clone + 'static>(_: ClassifyLiar) -> Box<dyn Adversary<M>> {
    Box::new(SilentAdversary)
}

/// The baselines' and the unsigned committee pipeline's mapping:
/// silent liars, a 1-round replay coalition as `Disruptor`.
fn baseline_adversary<M: Clone + 'static>(spec: &SessionSpec<'_>) -> Box<dyn Adversary<M>> {
    adversary(spec, silent, || Box::new(ReplayAdversary::new(1)))
}

/// Converts a classification bit vector into the erased probe format.
fn bits_of(c: &BitVec) -> Vec<bool> {
    (0..c.len()).map(|i| c.get(i)).collect()
}

/// Computes the realized misclassification count `k_A` from erased
/// probes — the one measurement path shared by every
/// prediction-consuming family.
pub fn k_a_from_probes(
    n: usize,
    faulty: &BTreeSet<ProcessId>,
    probes: &[(ProcessId, Vec<bool>)],
) -> usize {
    let owned: Vec<(ProcessId, BitVec)> = probes
        .iter()
        .map(|(id, bits)| (*id, BitVec::from_bools(bits)))
        .collect();
    let refs: Vec<(ProcessId, &BitVec)> = owned.iter().map(|(id, c)| (*id, c)).collect();
    MisclassificationReport::compute(n, faulty, &refs).k_a()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Pipeline;
    use crate::generators;

    fn spec_parts(n: usize, f: usize) -> (BTreeSet<ProcessId>, PredictionMatrix) {
        let faulty = generators::faults(n, f, generators::FaultIds::Spread);
        let matrix = PredictionMatrix::perfect(n, &faulty);
        (faulty, matrix)
    }

    fn spec<'a>(
        n: usize,
        t: usize,
        faulty: &'a BTreeSet<ProcessId>,
        matrix: &'a PredictionMatrix,
    ) -> SessionSpec<'a> {
        SessionSpec {
            n,
            t,
            faulty,
            matrix,
            inputs: InputPattern::Unanimous(6),
            adversary: AdversaryKind::Silent,
            seed: 0,
        }
    }

    #[test]
    fn every_driver_reaches_unanimous_agreement() {
        let n = 10;
        let (faulty, matrix) = spec_parts(n, 2);
        for d in &FAMILIES {
            let t = d.max_faults(n).min(3);
            let s = spec(n, t, &faulty, &matrix);
            let mut session = d.build(&s);
            let report = session.run(d.max_rounds(n, t));
            assert!(report.agreement(), "{} broke agreement", d.name());
            assert_eq!(
                report.decision(),
                Some(&Value(6)),
                "{} broke unanimity",
                d.name()
            );
        }
    }

    #[test]
    fn resilience_bounds_match_protocol_families() {
        let bound = |p: Pipeline| p.driver().max_faults(10);
        for p in [
            Pipeline::Unauth,
            Pipeline::PhaseKing,
            Pipeline::CommEff,
            Pipeline::Resilient,
            Pipeline::CommEffSigned,
            Pipeline::ResilientSigned,
        ] {
            assert_eq!(bound(p), 3, "{p:?}");
        }
        assert_eq!(bound(Pipeline::Auth), 4);
        assert_eq!(bound(Pipeline::TruncatedDolevStrong), 4);
        assert_eq!(Pipeline::Unauth.driver().max_faults(0), 0);
    }

    #[test]
    fn wrapper_probes_expose_classifications_baselines_do_not() {
        let n = 10;
        let (faulty, matrix) = spec_parts(n, 2);
        let s = spec(n, 3, &faulty, &matrix);

        let unauth = Pipeline::Unauth.driver();
        let mut wrapper = unauth.build(&s);
        let _ = wrapper.run(unauth.max_rounds(n, 3));
        let probes = wrapper.probes();
        assert_eq!(probes.len(), n - 2, "every honest wrapper classifies");
        assert_eq!(k_a_from_probes(n, &faulty, &probes), 0, "perfect matrix");

        let king = Pipeline::PhaseKing.driver();
        let mut baseline = king.build(&s);
        let _ = baseline.run(king.max_rounds(n, 3));
        assert!(
            baseline.probes().is_empty(),
            "baselines have no classification"
        );
    }

    #[test]
    fn k_a_helper_counts_misclassified_processes_once() {
        let n = 4;
        let faulty: BTreeSet<ProcessId> = [ProcessId(3)].into_iter().collect();
        // Two honest processes misclassify the same faulty id (counted
        // once) and one honest process accuses an honest id.
        let probes = vec![
            (ProcessId(0), vec![true, true, true, true]),
            (ProcessId(1), vec![true, false, true, true]),
            (ProcessId(2), vec![true, true, true, false]),
        ];
        assert_eq!(k_a_from_probes(n, &faulty, &probes), 2);
    }
}
