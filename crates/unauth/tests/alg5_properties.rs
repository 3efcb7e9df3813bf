//! Property-based verification of Theorem 5 (Algorithm 5) and of the
//! sub-protocol contracts of Algorithms 3 and 4 under randomized
//! Byzantine behaviour.

use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, Value};
use ba_unauth::{
    Alg5Msg, ConcMsg, CoreSetGcMsg, CoreSetGraded, ListenSet, UnauthBaWithClassification,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Random per-recipient chaos over Algorithm 5's message space.
fn alg5_chaos(seed: u64, n: usize, k: usize) -> impl FnMut(&mut AdversaryCtx<'_, Alg5Msg>) {
    move |ctx| {
        let faulty: Vec<ProcessId> = ctx.corrupted.iter().copied().collect();
        for (j, from) in faulty.into_iter().enumerate() {
            for to in ProcessId::all(n) {
                let x = seed
                    .wrapping_mul(0x2545f4914f6cdd1d)
                    .wrapping_add(ctx.round * 131 + j as u64 * 17 + u64::from(to.0));
                let phase = ((ctx.round / 5) as u16).min(2 * k as u16);
                let v = Value(x % 3);
                let msg = match x % 5 {
                    0 => Alg5Msg::First {
                        phase,
                        inner: Arc::new(CoreSetGcMsg::Input(v)),
                    },
                    1 => Alg5Msg::First {
                        phase,
                        inner: Arc::new(CoreSetGcMsg::Binding(v)),
                    },
                    2 => Alg5Msg::Middle {
                        phase,
                        inner: Arc::new(ConcMsg {
                            value: v,
                            listen: vec![from, ProcessId((x % n as u64) as u32)],
                        }),
                    },
                    3 => Alg5Msg::Second {
                        phase,
                        inner: Arc::new(CoreSetGcMsg::Input(v)),
                    },
                    _ => Alg5Msg::Second {
                        phase,
                        inner: Arc::new(CoreSetGcMsg::Binding(v)),
                    },
                };
                if !x.is_multiple_of(7) {
                    ctx.send(from, to, msg);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Theorem 5 under chaos: with f ≤ k faults placed anywhere and the
    /// condition (2k+1)(3k+1) ≤ n − t − k, Algorithm 5 satisfies
    /// Agreement, Strong Unanimity, and the 5(2k+1) round bound.
    #[test]
    fn theorem5_agreement_under_randomized_byzantine(
        seed in 0u64..5_000,
        fault_slots in proptest::collection::btree_set(0u32..16, 0..=1),
        unanimous in proptest::bool::ANY,
    ) {
        let (n, t, k) = (16usize, 1usize, 1usize);
        prop_assume!(fault_slots.len() <= t);
        prop_assert!(UnauthBaWithClassification::condition_holds(n, t, k));
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
        let honest: BTreeMap<ProcessId, UnauthBaWithClassification> = ProcessId::all(n)
            .filter(|p| !fault_slots.contains(&p.0))
            .enumerate()
            .map(|(slot, id)| {
                let v = if unanimous { Value(6) } else { Value(1 + (slot % 2) as u64) };
                (id, UnauthBaWithClassification::new(id, n, k, v, Arc::clone(&order)))
            })
            .collect();
        let adv = FnAdversary::new(alg5_chaos(seed, n, k));
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(UnauthBaWithClassification::rounds(k) + 2);
        prop_assert!(report.all_decided(), "round bound violated");
        let values: Vec<Value> = report.outputs.values().map(|o| o.value).collect();
        prop_assert!(values.windows(2).all(|w| w[0] == w[1]), "agreement violated: {values:?}");
        if unanimous {
            prop_assert_eq!(values[0], Value(6), "strong unanimity violated");
        }
    }

    /// Algorithm 3's coherence under per-recipient equivocation inside
    /// the listen set: if any honest process returns paper-grade 1 on v,
    /// every honest process returns value v.
    #[test]
    fn alg3_coherence_under_equivocation(
        seed in 0u64..5_000,
        inputs in proptest::collection::vec(1u64..3, 5),
    ) {
        let n = 6usize;
        let k = 1usize;
        let listen: ListenSet = (0..4u32).map(ProcessId).collect();
        // p3 (inside L) is faulty.
        let honest: BTreeMap<ProcessId, CoreSetGraded> = [0u32, 1, 2, 4, 5]
            .into_iter()
            .enumerate()
            .map(|(slot, id)| {
                (
                    ProcessId(id),
                    CoreSetGraded::new(ProcessId(id), n, k, Value(inputs[slot]), listen.clone()),
                )
            })
            .collect();
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ba_unauth::CoreSetGcMsg>| {
            for to in ProcessId::all(n) {
                let x = seed.wrapping_add(ctx.round * 7 + u64::from(to.0));
                let v = Value(1 + x % 2);
                let msg = if ctx.round == 0 {
                    CoreSetGcMsg::Input(v)
                } else {
                    CoreSetGcMsg::Binding(v)
                };
                ctx.send(ProcessId(3), to, msg);
            }
        });
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(4);
        prop_assert!(report.all_decided());
        let outs: Vec<_> = report.outputs.values().collect();
        if let Some(committed) = outs.iter().find(|g| g.paper_grade() == 1) {
            for g in &outs {
                prop_assert_eq!(g.value, committed.value, "coherence violated");
            }
        }
    }

    /// Unconditional bounds of Theorem 5: whatever the fault pattern
    /// (even f > k), every honest process returns within 5(2k+1) rounds
    /// having sent at most 5n messages.
    #[test]
    fn alg5_unconditional_round_and_message_bounds(
        seed in 0u64..2_000,
        f in 0usize..6,
    ) {
        let (n, k) = (16usize, 1usize);
        let order: Arc<Vec<ProcessId>> = Arc::new(ProcessId::all(n).collect());
        let honest: BTreeMap<ProcessId, UnauthBaWithClassification> = ProcessId::all(n)
            .skip(f)
            .enumerate()
            .map(|(slot, id)| {
                (id, UnauthBaWithClassification::new(id, n, k, Value(slot as u64), Arc::clone(&order)))
            })
            .collect();
        let adv = FnAdversary::new(alg5_chaos(seed, n, k));
        let mut runner = Runner::with_ids(n, honest, adv);
        let report = runner.run(UnauthBaWithClassification::rounds(k) + 2);
        prop_assert!(report.all_decided(), "must return within 5(2k+1) rounds even when k is wrong");
        for (&id, &count) in &report.messages_per_process {
            prop_assert!(count <= 5 * n as u64, "{id} sent {count} > 5n");
        }
    }
}
