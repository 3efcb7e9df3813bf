//! Property-based attacks on both graded-consensus substrates.
//!
//! For randomly sampled systems, inputs and Byzantine message patterns,
//! the invariants of substitutions S2/S3 (the `ba_graded` crate docs)
//! must hold in every execution:
//!
//! * **Strong Unanimity** — unanimous honest input `v` ⇒ all `(v, 2)`;
//! * **Grade-2 coherence** — any honest grade 2 on `v` ⇒ every honest
//!   process outputs value `v` with grade ≥ 1;
//! * **Grade-1 agreement** — any two honest grade ≥ 1 values coincide;
//! * **Validity of domain** — returned values at grade ≥ 1 originate
//!   from honest inputs or are never fabricated beyond the adversary's
//!   injected values.

use ba_crypto::Pki;
use ba_graded::{AuthGraded, Graded, UnauthGcMsg, UnauthGraded};
use ba_sim::{AdversaryCtx, FnAdversary, ProcessId, Runner, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn check_invariants(outputs: &[Graded], unanimous: Option<Value>) -> Result<(), String> {
    if let Some(v) = unanimous {
        for g in outputs {
            if (g.value, g.grade) != (v, 2) {
                return Err(format!("strong unanimity: expected ({v:?},2) got {g:?}"));
            }
        }
    }
    if let Some(committed) = outputs.iter().find(|g| g.grade == 2) {
        for g in outputs {
            if g.value != committed.value || g.grade == 0 {
                return Err(format!(
                    "grade-2 coherence: {committed:?} vs {g:?} (all must share the value at grade ≥ 1)"
                ));
            }
        }
    }
    let adopted: Vec<Value> = outputs
        .iter()
        .filter(|g| g.grade >= 1)
        .map(|g| g.value)
        .collect();
    if adopted.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("grade-1 split: {adopted:?}"));
    }
    Ok(())
}

/// A deterministic pseudo-random Byzantine strategy over the unauth GC
/// message space, parameterized by a seed.
fn unauth_chaos(seed: u64, n: usize) -> impl FnMut(&mut AdversaryCtx<'_, UnauthGcMsg>) {
    move |ctx| {
        let faulty: Vec<ProcessId> = ctx.corrupted.iter().copied().collect();
        for (j, from) in faulty.into_iter().enumerate() {
            for to in ProcessId::all(n) {
                let x = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(ctx.round * 1009 + j as u64 * 31 + u64::from(to.0));
                let v = Value(x % 3);
                let msg = if x.is_multiple_of(2) {
                    UnauthGcMsg::Vote(v)
                } else {
                    UnauthGcMsg::Echo(v)
                };
                if !x.is_multiple_of(5) {
                    ctx.send(from, to, msg);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn unauth_graded_invariants_under_chaos(
        n in 4usize..16,
        f_frac in 0usize..=100,
        seed in 0u64..10_000,
        unanimous in proptest::bool::ANY,
    ) {
        let t = (n - 1) / 3;
        let f = t * f_frac / 100;
        let honest_count = n - f;
        let inputs: Vec<Value> = (0..honest_count)
            .map(|i| if unanimous { Value(7) } else { Value(1 + (i % 2) as u64) })
            .collect();
        let procs: Vec<UnauthGraded> = inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| UnauthGraded::new(ProcessId(i as u32), n, t, v))
            .collect();
        let adv = FnAdversary::new(unauth_chaos(seed, n));
        let mut runner = Runner::new(n, procs, adv);
        let report = runner.run(4);
        prop_assert!(report.all_decided());
        let outputs: Vec<Graded> = report.outputs.values().copied().collect();
        let expect = unanimous.then_some(Value(7));
        if let Err(e) = check_invariants(&outputs, expect) {
            prop_assert!(false, "seed {seed}, n {n}, f {f}: {e}");
        }
    }

    #[test]
    fn auth_graded_invariants_with_silent_and_crash_faults(
        n in 4usize..10,
        f_frac in 0usize..=100,
        seed in 0u64..1_000,
        unanimous in proptest::bool::ANY,
    ) {
        let t = (n - 1) / 2;
        let f = t * f_frac / 100;
        let honest_count = n - f;
        let pki = Arc::new(Pki::new(n, seed));
        let procs: Vec<AuthGraded> = (0..honest_count)
            .map(|i| {
                let v = if unanimous { Value(9) } else { Value(1 + (i % 2) as u64) };
                AuthGraded::new(
                    ProcessId(i as u32),
                    n,
                    t,
                    seed,
                    v,
                    Arc::clone(&pki),
                    pki.signing_key(i as u32),
                )
            })
            .collect();
        let adv = ba_sim::SilentAdversary;
        let mut runner = Runner::new(n, procs, adv);
        let report = runner.run(8);
        prop_assert!(report.all_decided());
        let outputs: Vec<Graded> = report.outputs.values().copied().collect();
        let expect = unanimous.then_some(Value(9));
        if let Err(e) = check_invariants(&outputs, expect) {
            prop_assert!(false, "seed {seed}, n {n}, f {f}: {e}");
        }
    }

    /// The adversary replays signed gradecast items harvested from its
    /// own keys across instances; instance routing by signer must keep
    /// every honest instance unaffected.
    #[test]
    fn auth_graded_signed_equivocation(
        n in 5usize..9,
        seed in 0u64..500,
    ) {
        let t = (n - 1) / 2;
        let f = 1usize;
        let session = 77u64;
        let pki = Arc::new(Pki::new(n, seed));
        let honest_count = n - f;
        let procs: Vec<AuthGraded> = (0..honest_count)
            .map(|i| {
                AuthGraded::new(
                    ProcessId(i as u32),
                    n,
                    t,
                    session,
                    Value(3),
                    Arc::clone(&pki),
                    pki.signing_key(i as u32),
                )
            })
            .collect();
        let bad_id = (n - 1) as u32;
        let key = pki.signing_key(bad_id);
        let adv = FnAdversary::new(move |ctx: &mut AdversaryCtx<'_, ba_graded::AuthGcMsg>| {
            if ctx.round == 0 {
                for to in ProcessId::all(n) {
                    let v = Value(u64::from(to.0 % 2) + 100);
                    let sig = key.sign(&ba_graded::gradecast::value_bytes(session, bad_id, v));
                    ctx.send(
                        ProcessId(bad_id),
                        to,
                        ba_graded::AuthGcMsg {
                            items: vec![(bad_id, ba_graded::gradecast::GcastItem::Input { value: v, sig })],
                        },
                    );
                }
            }
        });
        let mut runner = Runner::new(n, procs, adv);
        let report = runner.run(8);
        // Unanimous honest input 3 must survive the equivocated instance.
        for g in report.outputs.values() {
            prop_assert_eq!((g.value, g.grade), (Value(3), 2));
        }
    }
}
