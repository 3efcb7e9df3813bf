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
use crate::hmac::{hmac_sha256, tags_equal};

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
    secret: [u8; 32],
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
        let full = hmac_sha256(&self.secret, message);
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
/// Constructed once per execution from a seed; shared read-only
/// (`Arc<Pki>`) by all processes. Secrets are private fields: protocol and
/// adversary code can only `verify`.
pub struct Pki {
    secrets: Vec<[u8; 32]>,
}

impl std::fmt::Debug for Pki {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Pki({} identities)", self.secrets.len())
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
        let root = root.finish();
        let secrets = (0..n as u32)
            .map(|id| {
                let mut e = Encoder::new("pki-key");
                e.u32(id);
                hmac_sha256(&root, &e.finish())
            })
            .collect();
        Pki { secrets }
    }

    /// Number of identities.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Whether the PKI is empty (never true for real systems; provided for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
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
            secret: self.secrets[id as usize],
        }
    }

    /// Verifies that `sig` is a valid signature by `sig.signer` over
    /// `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let Some(secret) = self.secrets.get(sig.signer as usize) else {
            return false;
        };
        let full = hmac_sha256(secret, message);
        tags_equal(&full[..16], &sig.tag)
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
        let shown = format!("{key:?}{pki:?}");
        // The secret is 32 raw bytes; its hex should never appear.
        assert!(shown.contains("SigningKey(p0)"));
        assert!(shown.contains("Pki(2 identities)"));
        assert!(!shown.contains("secret"));
    }
}
