//! Simulated PKI: per-process signing keys and a verification oracle.
//!
//! Substitution **S1** (see the [crate docs](crate)): signatures are
//! HMAC-SHA256 tags under per-process secret keys held privately by the
//! [`Pki`] oracle. Honest code paths sign with their own [`SigningKey`];
//! anyone verifies via [`Pki::verify`]. The Byzantine adversary is handed
//! the signing keys of corrupted identifiers only (via
//! [`Pki::signing_key`], called by the experiment harness at corruption
//! time), so within the simulation a signature by an honest process is
//! unforgeable — exactly the assumption of §8.1 of the paper.

use crate::encode::Encoder;
use crate::hmac::{tags_equal, HmacKey};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Identifier type mirrored from `ba-sim` (kept as a raw `u32` here so the
/// crypto substrate has no simulator dependency; protocol crates convert
/// from `ProcessId` at the boundary).
pub type SignerId = u32;

/// A signature: a MAC tag binding `(signer, message)`.
///
/// The tag is truncated to 16 bytes; at simulation scale this preserves a
/// 2⁻¹²⁸ forgery bound while halving envelope sizes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature {
    /// Claimed signer.
    pub signer: SignerId,
    tag: [u8; 16],
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sig(p{}, {:02x}{:02x}…)",
            self.signer, self.tag[0], self.tag[1]
        )
    }
}

impl Signature {
    /// Assembles a signature from a claimed signer and raw tag bytes
    /// without signing: the adversary and test surface for forgery
    /// attempts. It verifies only if `tag` really is the signer's tag.
    pub fn from_parts(signer: SignerId, tag: [u8; 16]) -> Self {
        Signature { signer, tag }
    }

    /// The raw tag bytes.
    pub fn tag(&self) -> [u8; 16] {
        self.tag
    }
}

/// Signer id plus the 16-byte authentication tag.
impl ba_sim::WireSize for Signature {
    fn wire_bytes(&self) -> u64 {
        4 + 16
    }
}

impl crate::encode::Encodable for Signature {
    /// Canonical encoding of a signature (signer then tag), used when a
    /// signature is itself part of signed material — e.g. the paper's
    /// message chains (Definition 2), where each link signs the previous
    /// link's signature.
    fn encode(&self, enc: &mut crate::encode::Encoder) {
        enc.u32(self.signer);
        enc.bytes(&self.tag);
    }
}

/// The capability to sign as one process.
///
/// Obtained from [`Pki::signing_key`]. Cloning is allowed (a process may
/// hand its key to sub-protocol state machines); what matters is that
/// *honest* keys never reach adversary code, which the experiment harness
/// guarantees by construction.
#[derive(Clone)]
pub struct SigningKey {
    id: SignerId,
    key: HmacKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the secret.
        write!(f, "SigningKey(p{})", self.id)
    }
}

impl SigningKey {
    /// The identifier this key signs for.
    pub fn id(&self) -> SignerId {
        self.id
    }

    /// Signs canonical message bytes.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let full = self.key.mac(message);
        let mut tag = [0u8; 16];
        tag.copy_from_slice(&full[..16]);
        Signature {
            signer: self.id,
            tag,
        }
    }
}

/// The verification oracle, holding every per-process secret.
///
/// Constructed once per execution from a seed; shared (`Arc<Pki>`) by all
/// processes. Secrets are private fields: protocol and adversary code can
/// only `verify`.
///
/// # Verify-once memo
///
/// A `Pki` remembers every signature it has found valid, together with
/// the exact message bytes it was valid for:
///
/// * only successful verifications are stored, so a forged tag, a tag
///   moved to another message or a tag attributed to another signer is
///   recomputed and rejected on every call;
/// * [`Pki::verify`] answers from the memo only when the stored message
///   is byte-for-byte equal to the one being checked;
/// * the memo lives as long as the `Pki`, which the experiment harness
///   builds once per session.
///
/// The answer of every call is therefore the one a fresh `Pki` would
/// give; [`Pki::verify_counts`] shows how much HMAC work the memo saved.
pub struct Pki {
    keys: Vec<HmacKey>,
    memo: Mutex<Memo>,
}

/// Successful verifications of one [`Pki`], and its verify counts.
///
/// The map keeps std's SipHash hasher because the adversary chooses tags.
#[derive(Default)]
struct Memo {
    /// The message each valid `(signer, tag)` was verified over.
    valid: HashMap<(SignerId, [u8; 16]), Box<[u8]>>,
    /// Calls to [`Pki::verify`].
    logical: u64,
    /// HMACs those calls computed.
    physical: u64,
}

// Sessions move to worker threads inside an `Arc<Pki>`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Pki>();
};

impl std::fmt::Debug for Pki {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pki({} identities)", self.keys.len())
    }
}

impl Pki {
    /// Derives a PKI for `n` processes from `seed`.
    ///
    /// Key derivation is deterministic (`HMAC(seed, id)`), making whole
    /// executions reproducible.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut root = Encoder::new("pki-root");
        root.u64(seed);
        let root = HmacKey::new(&root.finish());
        let keys = (0..n as u32)
            .map(|id| {
                let mut e = Encoder::new("pki-key");
                e.u32(id);
                HmacKey::new(&root.mac(&e.finish()))
            })
            .collect();
        Pki {
            keys,
            memo: Mutex::default(),
        }
    }

    /// Number of identities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the PKI is empty (never true for real systems; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Issues the signing key of `id`.
    ///
    /// The experiment harness calls this once per process at setup and once
    /// per corrupted id for the adversary. Protocol code never calls it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn signing_key(&self, id: SignerId) -> SigningKey {
        SigningKey {
            id,
            key: self.keys[id as usize].clone(),
        }
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over
    /// `message`.
    ///
    /// A signature this `Pki` already found valid over exactly these
    /// bytes is accepted without recomputing its HMAC; every other call
    /// computes it (see the [verify-once memo](Pki#verify-once-memo)).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let mut memo = self.memo();
        memo.logical += 1;
        let memo_key = (sig.signer, sig.tag);
        if memo.valid.get(&memo_key).is_some_and(|m| **m == *message) {
            return true;
        }
        let Some(key) = self.keys.get(sig.signer as usize) else {
            return false;
        };
        memo.physical += 1;
        let valid = tags_equal(&key.mac(message)[..16], &sig.tag);
        if valid {
            memo.valid.insert(memo_key, message.into());
        }
        valid
    }

    /// `(logical, physical)`: the number of [`Pki::verify`] calls so far,
    /// and the number of HMACs they computed. The difference is the work
    /// the verify-once memo saved.
    pub fn verify_counts(&self) -> (u64, u64) {
        let memo = self.memo();
        (memo.logical, memo.physical)
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        // The memo only ever holds verified entries, so it stays
        // consistent even if a holder panicked.
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_then_verify_roundtrip() {
        let pki = Pki::new(4, 7);
        let key = pki.signing_key(2);
        let sig = key.sign(b"hello");
        assert!(pki.verify(b"hello", &sig));
    }

    #[test]
    fn verification_binds_the_message() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"msg-a");
        assert!(!pki.verify(b"msg-b", &sig));
    }

    #[test]
    fn verification_binds_the_signer() {
        let pki = Pki::new(4, 7);
        let sig = pki.signing_key(1).sign(b"m");
        let forged = Signature { signer: 2, ..sig };
        assert!(!pki.verify(b"m", &forged), "re-attributing a tag must fail");
    }

    #[test]
    fn unknown_signer_rejected() {
        let pki = Pki::new(2, 7);
        let other = Pki::new(5, 7);
        let sig = other.signing_key(4).sign(b"m");
        assert!(!pki.verify(b"m", &sig));
    }

    #[test]
    fn keys_differ_across_processes_and_seeds() {
        let pki_a = Pki::new(3, 1);
        let pki_b = Pki::new(3, 2);
        let s0 = pki_a.signing_key(0).sign(b"m");
        let s1 = pki_a.signing_key(1).sign(b"m");
        assert_ne!(s0, s1);
        let s0b = pki_b.signing_key(0).sign(b"m");
        assert!(!pki_b.verify(b"m", &s0), "cross-seed signatures invalid");
        assert!(pki_b.verify(b"m", &s0b));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = Pki::new(3, 42).signing_key(1).sign(b"x");
        let b = Pki::new(3, 42).signing_key(1).sign(b"x");
        assert_eq!(a, b);
    }

    #[test]
    fn guessing_tags_fails() {
        // A computationally-bounded adversary without the key cannot do
        // better than guessing; spot-check a handful of guesses.
        let pki = Pki::new(2, 9);
        for guess in 0u8..32 {
            let fake = Signature {
                signer: 0,
                tag: [guess; 16],
            };
            assert!(!pki.verify(b"target", &fake));
        }
    }

    #[test]
    fn debug_output_never_leaks_secrets() {
        let pki = Pki::new(2, 3);
        let key = pki.signing_key(0);
        assert!(pki.verify(b"m", &key.sign(b"m")), "fill the memo too");
        let shown = format!("{key:?}{pki:?}{:?}", pki.keys[1]);
        assert_eq!(shown, "SigningKey(p0)Pki(2 identities)HmacKey(..)");
        // The keyed SHA-256 states stand in for the secrets: no word of
        // them may appear, in decimal or hex.
        for word in pki.keys.iter().flat_map(HmacKey::state_words) {
            assert!(!shown.contains(&word.to_string()));
            assert!(!shown.contains(&format!("{word:x}")));
        }
    }

    #[test]
    fn memo_skips_repeat_hmacs_but_never_failures() {
        let pki = Pki::new(4, 5);
        let sig = pki.signing_key(1).sign(b"m");
        let forged = Signature { signer: 2, ..sig };
        for _ in 0..3 {
            assert!(pki.verify(b"m", &sig));
            assert!(!pki.verify(b"other", &sig));
            assert!(!pki.verify(b"m", &forged));
        }
        // One HMAC for the valid signature, one per failed call.
        assert_eq!(pki.verify_counts(), (9, 7));
        let unknown = Signature { signer: 9, ..sig };
        assert!(!pki.verify(b"m", &unknown));
        assert_eq!(pki.verify_counts(), (10, 7), "no key, no HMAC");
    }
}
