//! Conformance suite for the `Pipeline` execution API (one `Family`
//! row per pipeline, run by `ExperimentConfig::run`): every
//! `Pipeline` variant must reach agreement — and unanimity-validity —
//! under both the weakest (`Silent`) and strongest (`Disruptor`)
//! execution-scale adversaries, across multiple seeds; the parallel
//! grid sweep must be indistinguishable from serial execution; and the
//! resilient family must show its defining graceful round degradation
//! (a staircase in `B`, never a lane cliff) with quadratic-shaped
//! communication above the Civit et al. floor.

use ba_predictions::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..5;

fn conformance_config(pipeline: Pipeline, adversary: AdversaryKind, seed: u64) -> ExperimentConfig {
    let n = 13;
    ExperimentConfig::builder()
        .n(n)
        .faults(2, FaultPlacement::Spread)
        .budget(6, ErrorPlacement::Uniform)
        .pipeline(pipeline)
        .inputs(InputPattern::Unanimous(7))
        .adversary(adversary)
        .seed(seed)
        .build()
}

#[test]
fn every_pipeline_agrees_under_silent_and_disruptor() {
    for pipeline in Pipeline::ALL {
        for adversary in [AdversaryKind::Silent, AdversaryKind::Disruptor] {
            for seed in SEEDS {
                let out = conformance_config(pipeline, adversary, seed).run();
                assert!(
                    out.agreement,
                    "{pipeline:?} broke agreement under {adversary:?} (seed {seed})"
                );
                assert!(
                    out.validity_ok,
                    "{pipeline:?} broke unanimity-validity under {adversary:?} (seed {seed})"
                );
                assert!(
                    out.rounds.is_some(),
                    "{pipeline:?} lost liveness under {adversary:?} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn every_pipeline_agrees_on_split_inputs() {
    for pipeline in Pipeline::ALL {
        for seed in SEEDS {
            let out = conformance_config(pipeline, AdversaryKind::Silent, seed)
                .with_inputs(InputPattern::Split)
                .run();
            assert!(out.agreement, "{pipeline:?} split inputs (seed {seed})");
        }
    }
}

#[test]
fn pipelines_are_deterministic_per_seed() {
    for pipeline in Pipeline::ALL {
        let cfg = conformance_config(pipeline, AdversaryKind::Disruptor, 3);
        assert_eq!(cfg.run(), cfg.run(), "{pipeline:?} must be deterministic");
    }
}

#[test]
fn unauth_wrapper_beats_its_baseline_once_faults_dominate() {
    // The headline claim is asymptotic — `O(min{B/n + 1, f})` vs the
    // baseline's `Θ(f)` — so the crossover appears once `f` is large
    // enough to outweigh the wrapper's constant: at n = 40 with f = 10
    // silent faults and perfect predictions, the wrapper must decide
    // strictly earlier than phase-king's `f + 2` early-stopping phases.
    let make = |pipeline| {
        ExperimentConfig::builder()
            .n(40)
            .t(12)
            .faults(10, FaultPlacement::Head)
            .pipeline(pipeline)
            .build()
            .run()
    };
    let wrapper = make(Pipeline::Unauth);
    let baseline = make(Pipeline::PhaseKing);
    assert!(wrapper.agreement && baseline.agreement);
    assert!(
        wrapper.rounds.unwrap() < baseline.rounds.unwrap(),
        "wrapper ({:?} rounds) must beat phase-king ({:?} rounds) at B = 0, f = 10",
        wrapper.rounds,
        baseline.rounds
    );
}

#[test]
fn dolev_strong_baseline_runs_in_exactly_t_plus_one_rounds() {
    // The authenticated baseline has no early stopping: its round count
    // is the `t + 1` chain length regardless of the actual fault count,
    // which is the curve the auth wrapper's constant is traded against.
    for (n, t) in [(13usize, 4usize), (40, 13)] {
        let out = ExperimentConfig::builder()
            .n(n)
            .t(t)
            .faults(2, FaultPlacement::Spread)
            .pipeline(Pipeline::TruncatedDolevStrong)
            .build()
            .run();
        assert!(out.agreement);
        assert_eq!(
            out.rounds,
            Some(t as u64 + 1),
            "full Dolev–Strong at n = {n}"
        );
    }
}

#[test]
fn comm_eff_fast_lane_is_asymptotically_cheaper_than_dolev_strong() {
    // The Dzulfikar–Gilbert claim, measured: with accurate predictions
    // and a fixed fault count, the committee fast lane spends
    // Θ(n · f) constant-size messages while the Dolev–Strong baseline
    // spends Ω(n²) chain batches — so the totals must separate at
    // every n and the advantage must *grow* with n.
    let totals = |pipeline: Pipeline, n: usize| {
        let out = ExperimentConfig::builder()
            .n(n)
            .faults(2, FaultPlacement::Spread)
            .pipeline(pipeline)
            .inputs(InputPattern::Unanimous(3))
            .build()
            .run();
        assert!(out.agreement, "{pipeline:?} broke agreement at n = {n}");
        (out.messages_total, out.bytes_total)
    };
    let mut ratios = Vec::new();
    for n in [16, 32, 64] {
        let (ce_msgs, ce_bytes) = totals(Pipeline::CommEff, n);
        let (ds_msgs, ds_bytes) = totals(Pipeline::TruncatedDolevStrong, n);
        assert!(
            ce_msgs < ds_msgs,
            "n = {n}: comm-eff sent {ce_msgs} messages vs dolev-strong {ds_msgs}"
        );
        assert!(
            ce_bytes < ds_bytes,
            "n = {n}: comm-eff sent {ce_bytes} bytes vs dolev-strong {ds_bytes}"
        );
        ratios.push(ds_msgs as f64 / ce_msgs as f64);
    }
    assert!(
        ratios.windows(2).all(|w| w[0] < w[1]),
        "the message advantage must grow with n (got ratios {ratios:?})"
    );
}

#[test]
fn resilient_agrees_at_scale_under_silent_and_disruptor() {
    // The sixth family must hold agreement, unanimity-validity, and
    // liveness at n ∈ {16, 32, 64} under both the weakest and the
    // strongest execution-scale adversary, through the same generic
    // driver path as everyone else.
    for n in [16usize, 32, 64] {
        for adversary in [AdversaryKind::Silent, AdversaryKind::Disruptor] {
            for seed in 0..3 {
                let out = ExperimentConfig::builder()
                    .n(n)
                    .faults(4, FaultPlacement::Spread)
                    .budget(n, ErrorPlacement::Uniform)
                    .pipeline(Pipeline::Resilient)
                    .inputs(InputPattern::Unanimous(7))
                    .adversary(adversary)
                    .seed(seed)
                    .build()
                    .run();
                assert!(
                    out.agreement,
                    "resilient broke agreement at n = {n} under {adversary:?} (seed {seed})"
                );
                assert!(
                    out.validity_ok,
                    "resilient broke unanimity at n = {n} under {adversary:?} (seed {seed})"
                );
                assert!(
                    out.rounds.is_some(),
                    "resilient lost liveness at n = {n} under {adversary:?} (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn resilient_rounds_degrade_gracefully_with_the_error_budget() {
    // The family's defining property: as the error budget B promotes
    // faulty identifiers up the throne order, rounds climb a staircase
    // — monotone-ish, several intermediate levels, unit-phase-scale
    // steps — instead of the fast-lane/fallback cliff (CommEff jumps
    // from 5 rounds straight to the full fallback budget; here no
    // adjacent step may exceed three phases). Split inputs + the
    // worst-case disruptor realize the curve: every phase whose king
    // the budget corrupted is a stalled phase.
    let n = 16;
    let f = 5;
    let cap = n * (n - f);
    let budgets: Vec<usize> = (0..=8).map(|i| i * cap / 8).collect();
    let curve: Vec<f64> = budgets
        .iter()
        .map(|&b| {
            let cfg = ExperimentConfig::builder()
                .n(n)
                .faults(f, FaultPlacement::Spread)
                .budget(b, ErrorPlacement::Concentrated)
                .pipeline(Pipeline::Resilient)
                .inputs(InputPattern::Split)
                .adversary(AdversaryKind::Disruptor)
                .build();
            let summary = sweep_seeds(&cfg, 0..4);
            assert!(summary.always_agreed, "agreement must survive B = {b}");
            summary
                .rounds_mean
                .expect("liveness must survive every budget")
        })
        .collect();
    assert!(
        curve.windows(2).all(|w| w[1] >= w[0]),
        "mean rounds must be monotone in B, got {curve:?}"
    );
    let spread = curve.last().unwrap() - curve.first().unwrap();
    assert!(
        spread >= 10.0,
        "the budget must actually cost phases (spread {spread}, curve {curve:?})"
    );
    let max_step = curve.windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
    assert!(
        max_step <= 15.0,
        "degradation must be gradual, not a lane cliff (step {max_step}, curve {curve:?})"
    );
    let mut levels: Vec<u64> = curve.iter().map(|r| (r * 4.0) as u64).collect();
    levels.dedup();
    assert!(
        levels.len() >= 4,
        "a graceful curve passes through intermediate levels, got {curve:?}"
    );
}

#[test]
fn resilient_communication_is_quadratic_shaped_above_the_floor() {
    // Civit–Gilbert–Guerraoui: all Byzantine agreement problems are
    // expensive — quadratic communication is unavoidable, predictions
    // or not. The resilient pipeline's classification exchange alone is
    // all-to-all, so its totals must sit above the Theorem 14 floor and
    // fit a ~n² power law; sanity both ways (no silent undercount, no
    // runaway blowup).
    let mut samples = Vec::new();
    for n in [16usize, 32, 64] {
        let cfg = ExperimentConfig::builder()
            .n(n)
            .faults(2, FaultPlacement::Spread)
            .pipeline(Pipeline::Resilient)
            .inputs(InputPattern::Unanimous(3))
            .build();
        let t = cfg.t;
        let out = cfg.run();
        assert!(out.agreement);
        assert!(
            out.messages_total >= message_lower_bound(n, t),
            "n = {n}: below the Theorem 14 floor"
        );
        assert!(
            out.messages_total >= ((n - 2) * (n - 1)) as u64,
            "n = {n}: the classification exchange alone is all-to-all"
        );
        samples.push((n as f64, out.bytes_total as f64));
    }
    let p = ba_workloads::fit_power_law(&samples).expect("three sizes");
    assert!(
        (1.5..=2.6).contains(&p),
        "byte totals should scale ~quadratically, fit exponent {p}"
    );
}

#[test]
fn signed_comm_eff_keeps_a_uniform_lane_choice_under_full_equivocation() {
    // The signed certify contract at scale: under the full
    // signature-equivocation menu (forged tags, replayed honest
    // signatures, conflicting own-key reports, withheld genuine
    // certificates — the `Disruptor` mapping), every honest process
    // must make the *same* lane choice. A split would strand the
    // fallback half below quorum and show up as lost liveness — which
    // is exactly how the unsigned variant's pinned split manifests —
    // so agreement + liveness here prove uniformity. With accurate
    // predictions the committee is honest and the equivocator is fully
    // neutralized: the fast lane must conclude on schedule.
    for n in [16usize, 32, 64] {
        for (budget, seed) in [(0usize, 0u64), (0, 1), (n, 0), (n, 1)] {
            let out = ExperimentConfig::builder()
                .n(n)
                .faults(2, FaultPlacement::Spread)
                .budget(budget, ErrorPlacement::Uniform)
                .pipeline(Pipeline::CommEffSigned)
                .inputs(InputPattern::Unanimous(7))
                .adversary(AdversaryKind::Disruptor)
                .seed(seed)
                .build()
                .run();
            assert!(
                out.agreement,
                "signed comm-eff broke agreement at n = {n}, B = {budget} (seed {seed})"
            );
            assert!(
                out.validity_ok,
                "signed comm-eff broke unanimity at n = {n}, B = {budget} (seed {seed})"
            );
            assert!(
                out.rounds.is_some(),
                "a split lane choice loses liveness; none allowed at n = {n}, B = {budget}"
            );
            if budget == 0 {
                assert_eq!(
                    out.rounds,
                    Some(5),
                    "accurate predictions neutralize the equivocator: uniform *fast* lane at n = {n}"
                );
            }
        }
    }
}

#[test]
fn signed_resilient_agrees_within_t_plus_two_phases_with_no_suffix() {
    // The signed classification-exchange contract at scale: under the
    // per-recipient signature equivocator and the signed schedule-aware
    // disruptor alike, the suffix-free `t + 2`-phase budget must
    // suffice — the unsigned variant needs up to `2t + 3` phases for
    // the same liveness. The driver's round budget *is* the suffix-free
    // schedule, so deciding at all proves the claim; the explicit bound
    // is asserted on top for clarity.
    for n in [16usize, 32, 64] {
        let t = (n - 1) / 3;
        let signed_budget = 2 + 5 * (t as u64 + 2) + 2;
        for adversary in [
            AdversaryKind::ClassifyLiar(LiarStyle::RandomPerRecipient),
            AdversaryKind::Disruptor,
        ] {
            for seed in 0..2 {
                let out = ExperimentConfig::builder()
                    .n(n)
                    .faults(4, FaultPlacement::Spread)
                    .budget(n, ErrorPlacement::Uniform)
                    .pipeline(Pipeline::ResilientSigned)
                    .inputs(InputPattern::Unanimous(7))
                    .adversary(adversary)
                    .seed(seed)
                    .build()
                    .run();
                assert!(
                    out.agreement,
                    "signed resilient broke agreement at n = {n} under {adversary:?} (seed {seed})"
                );
                assert!(
                    out.validity_ok,
                    "signed resilient broke unanimity at n = {n} under {adversary:?} (seed {seed})"
                );
                let rounds = out.rounds.unwrap_or_else(|| {
                    panic!("signed resilient lost liveness at n = {n} under {adversary:?}")
                });
                assert!(
                    rounds <= signed_budget,
                    "n = {n}: decided at round {rounds}, beyond the suffix-free \
                     t + 2 = {} phase budget ({signed_budget} rounds)",
                    t + 2
                );
            }
        }
    }
}

#[test]
fn signed_pipelines_pay_exactly_the_per_message_signature_model() {
    // Per message kind, signed = unsigned + the 20-byte signature — no
    // hidden framing anywhere in the signed envelope.
    use ba_predictions::ba_commeff::signed::{AckBody, ReportBody, SubmitBody};
    use ba_predictions::ba_commeff::{CommEffMsg, CommEffSignedMsg};
    use ba_predictions::ba_crypto::{Pki, Signed};
    use ba_predictions::ba_resilient::signed::ClassifyBody;
    use ba_predictions::ba_resilient::{ResilientMsg, ResilientSignedMsg};
    use ba_predictions::prelude::WireSize;
    use std::sync::Arc;

    let pki = Pki::new(16, 1);
    let key = pki.signing_key(0);
    let sig = 20u64;
    let pairs: Vec<(u64, u64)> = vec![
        (
            CommEffSignedMsg::Submit(Signed::new(SubmitBody { value: Value(3) }, &key))
                .wire_bytes(),
            CommEffMsg::Submit(Value(3)).wire_bytes(),
        ),
        (
            CommEffSignedMsg::Report(Signed::new(ReportBody { value: Value(3) }, &key))
                .wire_bytes(),
            CommEffMsg::Report(Value(3)).wire_bytes(),
        ),
        (
            CommEffSignedMsg::Ack(Signed::new(
                AckBody {
                    value: Value(3),
                    happy: true,
                },
                &key,
            ))
            .wire_bytes(),
            CommEffMsg::Ack {
                value: Value(3),
                happy: true,
            }
            .wire_bytes(),
        ),
        (
            ResilientSignedMsg::Classify(Arc::new(Signed::new(
                ClassifyBody {
                    bits: BitVec::ones(16),
                },
                &key,
            )))
            .wire_bytes(),
            ResilientMsg::Classify(Arc::new(BitVec::ones(16))).wire_bytes(),
        ),
    ];
    for (signed_bytes, unsigned_bytes) in pairs {
        assert_eq!(
            signed_bytes,
            unsigned_bytes + sig,
            "signed message kinds must cost exactly the signature more"
        );
    }
    // And at run level: the signed pipelines' totals strictly exceed
    // their unsigned counterparts' on the same workload (signatures on
    // every fast-lane/classify message, plus the echo rounds).
    for (signed, unsigned) in [
        (Pipeline::CommEffSigned, Pipeline::CommEff),
        (Pipeline::ResilientSigned, Pipeline::Resilient),
    ] {
        let run = |p| conformance_config(p, AdversaryKind::Silent, 0).run();
        let s = run(signed);
        let u = run(unsigned);
        assert!(s.agreement && u.agreement);
        assert!(
            s.bytes_total > u.bytes_total,
            "{signed:?} must out-spend {unsigned:?} in bytes ({} vs {})",
            s.bytes_total,
            u.bytes_total
        );
    }
}

#[test]
fn silent_adversary_never_increases_honest_message_totals() {
    // Silence is the least disruptive execution-scale behaviour: for
    // every pipeline, honest processes must spend at least as many
    // messages (and bytes) against the worst-case disruptor as against
    // silence on the otherwise-identical workload.
    //
    // One documented exception: `CommEffSigned`'s *byte* totals. Its
    // certify certificates carry every happy acknowledgement an
    // aggregator verified, so an equivocator that sours some
    // acknowledgements shrinks the certificates (and the echo round)
    // without changing the round count or the lane choice — honest
    // bytes can legitimately drop under attack. Message counts still
    // obey the rule for every family.
    for pipeline in Pipeline::ALL {
        for seed in SEEDS {
            let silent = conformance_config(pipeline, AdversaryKind::Silent, seed).run();
            let disrupted = conformance_config(pipeline, AdversaryKind::Disruptor, seed).run();
            assert!(
                silent.messages_total <= disrupted.messages_total,
                "{pipeline:?} (seed {seed}): silent cost {} messages, disruptor {}",
                silent.messages_total,
                disrupted.messages_total
            );
            if pipeline != Pipeline::CommEffSigned {
                assert!(
                    silent.bytes_total <= disrupted.bytes_total,
                    "{pipeline:?} (seed {seed}): silent cost {} bytes, disruptor {}",
                    silent.bytes_total,
                    disrupted.bytes_total
                );
            }
        }
    }
}

#[test]
fn every_pipeline_matches_its_pinned_disruptor_costs() {
    // The bench grid runs only `Silent`, so this pins what it cannot
    // see: the exact cost of every family against its `Disruptor`
    // coalition at n = 13 (three head faults, 16 trusted-fault bits,
    // split inputs, seed 0). The unauthenticated wrapper runs both
    // Algorithm 5 (its class slots) and phase king (its early-stopping
    // slots) here, so a drift in either phase engine or in a disruptor
    // changes a number below.
    let pinned: [(Pipeline, u64, u64, u64, usize); 8] = [
        (Pipeline::Unauth, 63, 3216, 47796, 3),
        (Pipeline::Auth, 45, 4350, 5800392, 3),
        (Pipeline::PhaseKing, 25, 1584, 18984, 0),
        (Pipeline::TruncatedDolevStrong, 7, 240, 68040, 0),
        (Pipeline::CommEff, 30, 1670, 21385, 3),
        (Pipeline::Resilient, 11, 984, 12048, 3),
        (Pipeline::CommEffSigned, 31, 1670, 23105, 3),
        (Pipeline::ResilientSigned, 12, 1104, 55608, 3),
    ];
    assert_eq!(pinned.map(|row| row.0), Pipeline::ALL);
    for (pipeline, rounds, messages, bytes, k_a) in pinned {
        let out = ExperimentConfig::builder()
            .n(13)
            .faults(3, FaultPlacement::Head)
            .budget(16, ErrorPlacement::TrustedFaults)
            .pipeline(pipeline)
            .inputs(InputPattern::Split)
            .adversary(AdversaryKind::Disruptor)
            .seed(0)
            .build()
            .run();
        assert!(out.agreement, "{pipeline:?} broke agreement");
        assert_eq!(
            (out.rounds, out.messages, out.bytes, out.k_a),
            (Some(rounds), messages, bytes, k_a),
            "{pipeline:?}: (rounds, messages, bytes, k_A)"
        );
    }
}

#[test]
fn every_pipeline_reports_nonzero_communication() {
    for pipeline in Pipeline::ALL {
        let out = conformance_config(pipeline, AdversaryKind::Silent, 0).run();
        assert!(out.messages_total > 0, "{pipeline:?} sent no messages");
        assert!(out.bytes_total > 0, "{pipeline:?} sent no bytes");
        assert!(
            out.bytes_total >= out.messages_total,
            "{pipeline:?}: every message costs at least one byte"
        );
    }
}

#[test]
fn parallel_sweep_counts_messages_and_bytes_identically_to_serial() {
    let grid = SweepGrid::new(
        ExperimentConfig::builder()
            .n(13)
            .faults(2, FaultPlacement::Spread)
            .build(),
    )
    .ns([10, 13])
    .budgets([0, 8])
    .pipelines(Pipeline::ALL)
    .seeds(0..3);
    let parallel = sweep_grid(&grid);
    let serial = ba_workloads::sweep_grid_serial(&grid);
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.summary.messages_max, s.summary.messages_max);
        assert_eq!(p.summary.messages_mean, s.summary.messages_mean);
        assert_eq!(p.summary.bytes_max, s.summary.bytes_max);
        assert_eq!(p.summary.bytes_mean, s.summary.bytes_mean);
    }
}

#[test]
fn parallel_sweep_grid_is_byte_identical_to_serial() {
    let grid = SweepGrid::new(
        ExperimentConfig::builder()
            .n(13)
            .faults(2, FaultPlacement::Spread)
            .build(),
    )
    .ns([10, 13])
    .budgets([0, 8])
    .fs([0, 2])
    .pipelines(Pipeline::ALL)
    .seeds(0..3);

    let parallel = sweep_grid(&grid);
    let serial = ba_workloads::sweep_grid_serial(&grid);
    assert!(!parallel.is_empty());
    assert_eq!(
        format!("{parallel:?}"),
        format!("{serial:?}"),
        "parallel and serial sweeps must produce identical results"
    );
    assert_eq!(grid_to_json(&parallel), grid_to_json(&serial));
}

#[test]
fn grid_json_is_stable_across_runs() {
    let grid = SweepGrid::new(ExperimentConfig::builder().n(10).build())
        .pipelines(Pipeline::ALL)
        .seeds(0..2);
    assert_eq!(
        grid_to_json(&sweep_grid(&grid)),
        grid_to_json(&sweep_grid(&grid)),
        "grid output must be reproducible"
    );
}
