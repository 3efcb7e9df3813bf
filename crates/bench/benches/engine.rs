//! Engine microbenchmarks: the substrates' wall-clock costs.
//!
//! The offline container has no `criterion`, so this is a plain timing
//! harness: each benchmark is warmed up, then run for a fixed number of
//! iterations, reporting the per-iteration mean and the fastest
//! observed batch (a serviceable noise floor for a deterministic
//! workload).

use ba_crypto::{hmac_sha256, sha256, Pki};
use ba_graded::UnauthGraded;
use ba_sim::{ProcessId, ReplayAdversary, Runner, SilentAdversary, Value};
use ba_workloads::Table;
use std::hint::black_box;
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
