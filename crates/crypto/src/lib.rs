//! # ba-crypto — cryptographic substrate for the authenticated protocols
//!
//! The paper's authenticated algorithms (§8) assume a public-key
//! infrastructure with unforgeable signatures: committee certificates
//! (Definition 1) and message chains (Definition 2) are built from them.
//!
//! Real asymmetric signatures are outside the sanctioned offline dependency
//! set, so this crate implements the closest synthetic equivalent
//! (substitution **S1** of this reproduction):
//!
//! * [`mod@sha256`] — SHA-256 implemented from scratch and validated
//!   against the NIST FIPS 180-4 test vectors;
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), validated against RFC 4231; an
//!   [`hmac::HmacKey`] absorbs a key's padded blocks once, so every MAC
//!   under it skips two SHA-256 compressions;
//! * [`sign`] — a *simulated PKI*: a [`sign::Pki`] oracle privately
//!   holds one MAC key per process; a process signs with its own
//!   [`sign::SigningKey`] and anyone verifies through the
//!   oracle. Unforgeability holds by construction inside the simulation:
//!   the Byzantine adversary receives keys only for corrupted identifiers,
//!   and Rust privacy prevents key extraction from the oracle.
//! * [`encode`] — a small deterministic, domain-separated byte encoder so
//!   that every signed protocol message has a canonical serialization.
//! * [`signed`] — the reusable [`signed::Signed`] envelope (canonical
//!   encoding + signature + verify-on-receive), the building block of
//!   the signed protocol variants (`CommEffSigned`, `ResilientSigned`).
//!
//! ## Verify-once memo
//!
//! Certificates and message chains make every receiver re-check the same
//! signatures, so a [`Pki`] computes each HMAC once and remembers the
//! result. Verification is a pure function, and the memo keeps it one:
//!
//! * only valid results are cached: a forged, moved or re-attributed tag
//!   is recomputed and rejected every time;
//! * a hit needs the exact message bytes the signature was found valid
//!   for;
//! * the memo lasts as long as one `Pki`, and the experiment harness
//!   builds one per session.
//!
//! [`Pki::verify_counts`] reports the logical checks and the HMACs they
//! actually cost.
//!
//! Everything the protocols need from signatures — authentication,
//! transferability along message chains, and equivocation evidence — is
//! preserved. The test suites include active forgery attempts that must
//! fail.

pub mod encode;
pub mod hmac;
pub mod sha256;
pub mod sign;
pub mod signed;

pub use encode::{Encodable, Encoder};
pub use hmac::hmac_sha256;
pub use sha256::{sha256, Sha256};
pub use sign::{Pki, Signature, SignerId, SigningKey};
pub use signed::Signed;
