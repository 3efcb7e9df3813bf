//! `ba_crypto` microbenchmarks at the sizes the workloads use.
//!
//! Part of the benchmark itself (not the `engine` bench), so these
//! numbers and the end-to-end ones come from one build and one run.

use ba_crypto::{hmac_sha256, sha256, Pki, Signed};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call of `f` over `batches` timed batches of
/// `per_batch` calls, after one untimed warm-up batch.
fn ns_per_call<R>(batches: usize, per_batch: u32, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..per_batch {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / f64::from(per_batch)
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Runs every microbenchmark (about a quarter of a second), returning
/// `(metric name, unit, median cost per call)`.
///
/// Sizes: a 1 KiB SHA-256 input; a 128-byte HMAC message (a
/// classification or chain-link encoding at `n = 64`); `Pki` sign and
/// verify over 64-byte messages; `Signed<Vec<u8>>::verified_from` over
/// a 64-byte body; and PKI generation for `n = 64`.
pub fn run(seed: u64) -> Vec<(&'static str, &'static str, f64)> {
    let data = vec![0xa5u8; 1024];
    let key = [7u8; 32];
    let msg128 = vec![1u8; 128];
    let msg64 = vec![2u8; 64];
    let pki = Pki::new(64, seed);
    let signer = pki.signing_key(3);
    let sig = signer.sign(&msg64);
    let signed = Signed::new(msg64.clone(), &signer);
    assert!(pki.verify(&msg64, &sig) && signed.verified_from(&pki, 3).is_some());

    let sha = ns_per_call(25, 400, || sha256(black_box(&data)));
    let hmac = ns_per_call(25, 2000, || {
        hmac_sha256(black_box(&key), black_box(&msg128))
    });
    let verify = ns_per_call(25, 2000, || pki.verify(black_box(&msg64), black_box(&sig)));
    let sign = ns_per_call(25, 2000, || signer.sign(black_box(&msg64)));
    let signed_verify = ns_per_call(25, 2000, || {
        black_box(&signed).verified_from(&pki, 3).is_some()
    });
    let pki_new = ns_per_call(25, 20, || Pki::new(64, black_box(seed)));
    vec![
        ("crypto.sha256_1k_ns", "ns", sha),
        ("crypto.hmac_128b_ns", "ns", hmac),
        ("crypto.verify_ns", "ns", verify),
        ("crypto.sign_ns", "ns", sign),
        ("crypto.signed_verify_ns", "ns", signed_verify),
        ("crypto.pki_new_64_us", "us", pki_new / 1e3),
    ]
}
