//! Engine microbenchmarks: the substrates' wall-clock costs.
//!
//! The offline container has no `criterion`, so this is a plain timing
//! harness: each benchmark is warmed up, then run for a fixed number of
//! iterations, reporting the per-iteration mean and the fastest
//! observed batch (a serviceable noise floor for a deterministic
//! workload).

use ba_auth::chains::{committee_bytes, CommitteeCert, MessageChain};
use ba_crypto::{hmac_sha256, sha256, Pki};
use ba_graded::{AuthGraded, UnauthGraded};
use ba_sim::{ProcessId, ReplayAdversary, Runner, SilentAdversary, Value};
use ba_workloads::Table;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over `batches × per_batch` iterations, returning
/// (mean ns/iter, best batch ns/iter).
fn measure<R>(batches: u32, per_batch: u32, mut f: impl FnMut() -> R) -> (f64, f64) {
    for _ in 0..per_batch.min(16) {
        black_box(f());
    }
    let mut total_ns = 0u128;
    let mut best_ns_per_iter = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            black_box(f());
        }
        let ns = start.elapsed().as_nanos();
        total_ns += ns;
        best_ns_per_iter = best_ns_per_iter.min(ns as f64 / f64::from(per_batch));
    }
    let mean = total_ns as f64 / (f64::from(batches) * f64::from(per_batch));
    (mean, best_ns_per_iter)
}

fn main() {
    let mut table = Table::new(
        "engine microbenchmarks (ns/iter)",
        &["benchmark", "mean", "best batch"],
    );

    let data = vec![0xa5u8; 1024];
    let (mean, best) = measure(20, 200, || sha256(black_box(&data)));
    table.row([
        "sha256_1kib".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    let key = [7u8; 32];
    let msg = vec![1u8; 128];
    let (mean, best) = measure(20, 500, || hmac_sha256(black_box(&key), black_box(&msg)));
    table.row([
        "hmac_sha256_128b".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // `Pki::verify` remembers valid signatures, so the cold row checks a
    // distinct signed message on every call (warm-up included) and the
    // memo-hit row repeats one.
    let pki = Pki::new(64, 1);
    let signing_key = pki.signing_key(3);
    let (batches, per_batch) = (20, 500);
    let signed: Vec<_> = (0..16 + batches * per_batch)
        .map(|i| {
            let msg = format!("benchmark message {i}").into_bytes();
            let sig = signing_key.sign(&msg);
            (msg, sig)
        })
        .collect();
    let mut cold = signed.iter();
    let (mean, best) = measure(batches, per_batch, || {
        let (msg, sig) = cold.next().expect("one fresh message per call");
        pki.verify(black_box(msg), black_box(sig))
    });
    table.row([
        "pki_verify_cold".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    let (msg, sig) = &signed[0];
    let (mean, best) = measure(batches, per_batch, || {
        pki.verify(black_box(msg), black_box(sig))
    });
    table.row([
        "pki_verify_memo_hit".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    let (mean, best) = measure(10, 20, || {
        let n = 32;
        let procs: Vec<_> = (0..n as u32)
            .map(|i| UnauthGraded::new(ProcessId(i), n, 10, Value(u64::from(i % 2))))
            .collect();
        let mut runner = Runner::new(n, procs, SilentAdversary);
        black_box(runner.run(4))
    });
    table.row([
        "unauth_graded_consensus_n32".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // The certified-gradecast path of Algorithm 1's authenticated
    // pipeline: 24 parallel gradecasts, each with 24² echo and confirm
    // items. A fresh `Pki` per run keeps the verify-once memo cold.
    let (mean, best) = measure(10, 10, || {
        let (n, t) = (24, 11);
        let pki = Arc::new(Pki::new(n, 5));
        let procs: Vec<_> = (0..n as u32)
            .map(|i| {
                let input = Value(u64::from(i % 2));
                AuthGraded::new(
                    ProcessId(i),
                    n,
                    t,
                    1,
                    input,
                    Arc::clone(&pki),
                    pki.signing_key(i),
                )
            })
            .collect();
        let mut runner = Runner::new(n, procs, SilentAdversary);
        black_box(runner.run(6))
    });
    table.row([
        "auth_graded_consensus_n24".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // A certified chain of eight links, each signer carrying a committee
    // certificate of t + 1 = 4 votes, verified on a cold `Pki` per call:
    // 40 distinct signatures, each HMACed once.
    let (n, t, session) = (16, 3, 9);
    let signer_pki = Pki::new(n, 3);
    let cert = |member: u32| {
        let votes: Vec<_> = (12..16)
            .map(|voter| {
                signer_pki
                    .signing_key(voter)
                    .sign(&committee_bytes(session, member))
            })
            .collect();
        CommitteeCert::assemble(member, &votes, t)
    };
    let mut chain = MessageChain::start(session, 0, Value(1), &signer_pki.signing_key(0), cert(0));
    for member in 1..8 {
        chain = chain.extend(session, 0, &signer_pki.signing_key(member), cert(member));
    }
    let (batches, per_batch) = (10, 100);
    let cold_pkis: Vec<Pki> = (0..16 + batches * per_batch)
        .map(|_| Pki::new(n, 3))
        .collect();
    let mut cold = cold_pkis.iter();
    let (mean, best) = measure(batches, per_batch, || {
        let pki = cold.next().expect("one cold Pki per call");
        assert!(black_box(&chain).verify(session, 0, t, true, pki));
    });
    table.row([
        "chain_verify_certified_len8".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    // Ten of the 32 ids replay every honest envelope's payload of the
    // previous round to all 32 processes. From round 1 on, faulty
    // traffic is 32 times the honest traffic, so the row mostly times
    // the runner's delivery.
    let (mean, best) = measure(10, 20, || {
        let (n, f) = (32, 10);
        let procs: Vec<_> = (0..(n - f) as u32)
            .map(|i| UnauthGraded::new(ProcessId(i), n, f, Value(u64::from(i % 2))))
            .collect();
        let mut runner = Runner::new(n, procs, ReplayAdversary::new(1));
        black_box(runner.run(4))
    });
    table.row([
        "runner_replay_n32".to_string(),
        format!("{mean:.0}"),
        format!("{best:.0}"),
    ]);

    table.print();
}
