//! Property-based tests of the cryptographic substrate: streaming/one-shot
//! equivalence for SHA-256, the precomputed HMAC key states against
//! RFC 4231, signature binding under random inputs, the verify-once memo
//! against a fresh PKI, and encoder injectivity on structured inputs.

use ba_crypto::hmac::HmacKey;
use ba_crypto::{sha256, Encoder, Pki, Sha256, Signature};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// RFC 4231 test cases 1–4, 6 and 7 through a reused [`HmacKey`]
/// (case 5 tests output truncation, which is not part of HMAC itself).
#[test]
fn hmac_key_matches_rfc4231() {
    let case4_key: Vec<u8> = (1..=25).collect();
    let cases: [(&[u8], &[u8], &str); 6] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &case4_key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (key, data, expected) in cases {
        let hk = HmacKey::new(key);
        // Twice: a MAC must leave the precomputed states untouched.
        assert_eq!(hex(&hk.mac(data)), expected);
        assert_eq!(hex(&hk.mac(data)), expected);
    }
}

/// Once a genuine `(m, sig)` is in the memo, every tampered variant of it
/// is still recomputed and rejected, and the genuine pair still passes.
#[test]
fn memoized_signature_does_not_whitelist_tampered_variants() {
    let pki = Pki::new(8, 21);
    let m = b"genuine message";
    let sig = pki.signing_key(3).sign(m);
    assert!(pki.verify(m, &sig));
    assert!(pki.verify(m, &sig), "memo hit");

    assert!(
        !pki.verify(b"genuine messagf", &sig),
        "tag moved to m' != m"
    );
    assert!(
        !pki.verify(b"genuine message ", &sig),
        "tag moved to m' != m"
    );
    let mut reattributed = sig;
    reattributed.signer = 4;
    assert!(
        !pki.verify(m, &reattributed),
        "tag attributed to another signer"
    );
    for bit in 0..128 {
        let mut tag = sig.tag();
        tag[bit / 8] ^= 1 << (bit % 8);
        let flipped = Signature::from_parts(sig.signer, tag);
        assert!(!pki.verify(m, &flipped), "bit {bit} flipped");
    }
    let other_seed = Pki::new(8, 22).signing_key(3).sign(m);
    assert!(!pki.verify(m, &other_seed), "signature from another seed");

    assert!(pki.verify(m, &sig));
    // One HMAC for the genuine pair, one per rejected call.
    assert_eq!(pki.verify_counts(), (135, 133));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Chunked hashing equals one-shot hashing for arbitrary data and
    /// arbitrary chunk boundaries.
    #[test]
    fn sha256_streaming_equals_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        splits in proptest::collection::vec(0usize..600, 0..6),
    ) {
        let whole = sha256(&data);
        let mut cuts: Vec<usize> = splits.into_iter().map(|s| s % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &c in &cuts {
            h.update(&data[prev..c]);
            prev = c;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), whole);
    }

    /// Distinct (signer, message) pairs never cross-verify.
    #[test]
    fn signatures_bind_signer_and_message(
        msg_a in proptest::collection::vec(any::<u8>(), 1..64),
        msg_b in proptest::collection::vec(any::<u8>(), 1..64),
        ids in (0u32..8, 0u32..8),
        seed in 0u64..1000,
    ) {
        let pki = Pki::new(8, seed);
        let (ia, ib) = ids;
        let sig = pki.signing_key(ia).sign(&msg_a);
        prop_assert!(pki.verify(&msg_a, &sig));
        if msg_a != msg_b {
            prop_assert!(!pki.verify(&msg_b, &sig), "message substitution accepted");
        }
        if ia != ib {
            let other = pki.signing_key(ib).sign(&msg_a);
            prop_assert_ne!(sig, other, "two signers produced the same tag");
        }
    }

    /// Over random sign / verify / tamper sequences, a long-lived `Pki`
    /// (whose memo fills up along the way) answers every call exactly as
    /// a fresh `Pki` from the same seed does.
    #[test]
    fn memo_answers_like_a_fresh_pki(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u32..8, 0usize..3, 0u8..6, 0usize..128), 1..40),
    ) {
        const N: usize = 8;
        // The third message spans two SHA-256 blocks.
        let messages: [&[u8]; 3] = [b"alpha", b"", &[0x5a; 100]];
        let pki = Pki::new(N, seed);
        for &(signer, m, tamper, bit) in &ops {
            let mut msg = messages[m];
            let mut sig = pki.signing_key(signer).sign(msg);
            match tamper {
                0 => {}
                1 => msg = messages[(m + 1) % messages.len()],
                2 => sig.signer = (signer + 1) % N as u32,
                3 => {
                    let mut tag = sig.tag();
                    tag[bit / 8] ^= 1 << (bit % 8);
                    sig = Signature::from_parts(signer, tag);
                }
                4 => sig.signer = N as u32,
                _ => sig = Pki::new(N, seed + 1).signing_key(signer).sign(msg),
            }
            let fresh = Pki::new(N, seed).verify(msg, &sig);
            prop_assert_eq!(pki.verify(msg, &sig), fresh);
            prop_assert_eq!(fresh, tamper == 0);
        }
        let (logical, physical) = pki.verify_counts();
        prop_assert_eq!(logical, ops.len() as u64);
        prop_assert!(physical <= logical);
    }

    /// Length-prefixed encodings are injective over (bytes, bytes) pairs:
    /// no two distinct pairs share a canonical encoding — the property
    /// that makes signatures over encoded compounds unambiguous.
    #[test]
    fn encoder_pairs_are_injective(
        a1 in proptest::collection::vec(any::<u8>(), 0..24),
        a2 in proptest::collection::vec(any::<u8>(), 0..24),
        b1 in proptest::collection::vec(any::<u8>(), 0..24),
        b2 in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let enc = |x: &[u8], y: &[u8]| {
            let mut e = Encoder::new("pair");
            e.bytes(x).bytes(y);
            e.finish()
        };
        if (a1.clone(), a2.clone()) != (b1.clone(), b2.clone()) {
            prop_assert_ne!(enc(&a1, &a2), enc(&b1, &b2));
        } else {
            prop_assert_eq!(enc(&a1, &a2), enc(&b1, &b2));
        }
    }

    /// Cross-seed PKIs never validate each other's signatures (fresh
    /// executions cannot replay old-execution credentials).
    #[test]
    fn cross_execution_signatures_invalid(
        msg in proptest::collection::vec(any::<u8>(), 1..32),
        seed_a in 0u64..500,
        seed_b in 501u64..1000,
    ) {
        let pki_a = Pki::new(4, seed_a);
        let pki_b = Pki::new(4, seed_b);
        let sig = pki_a.signing_key(2).sign(&msg);
        prop_assert!(!pki_b.verify(&msg, &sig));
    }
}
