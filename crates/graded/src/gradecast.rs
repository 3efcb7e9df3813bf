//! Certified gradecast: the single-sender authenticated primitive behind
//! [`crate::auth::AuthGraded`] (substitution S3; see the [crate docs](crate)).
//!
//! A *gradecast* lets a designated sender `s` distribute a value such that
//! (for `t < n/2`, with signatures):
//!
//! * **(c) Honest sender.** If `s` is honest, every honest process outputs
//!   `(v_s, 2)`.
//! * **(a) Grade-2 consistency.** No two honest processes output grade 2
//!   with different values.
//! * **(b) Grade-2 transfer.** If some honest process outputs `(v, 2)`,
//!   every honest process outputs `v` with grade ≥ 1.
//! * **(d) No grade-1 splits.** Any two honest processes with grade ≥ 1
//!   output the same value.
//!
//! ## Protocol (5 rounds)
//!
//! Quorum `q = n − t`. All signed material binds `(session, instance)` so
//! signatures cannot be replayed across wrapper phases or instances.
//!
//! 1. **value** — `s` signs and broadcasts its value.
//! 2. **echo** — each process echoes the *unique* `s`-signed value it saw
//!    (two distinct `s`-signed values ⇒ echo nothing).
//! 3. **certify** — `q` echo signatures on one value form an *echo
//!    certificate* `EC(v)`; processes broadcast the certificates they
//!    formed (at most two distinct values matter).
//! 4. **confirm** — a process that knows certificates for *exactly one*
//!    value `v` signs and broadcasts a confirmation, attaching `EC(v)`;
//!    otherwise it broadcasts its (conflicting) certificates.
//! 5. **commit/spread** — `q` direct confirm signatures form a *commit
//!    certificate* `CC(v)`; processes broadcast any `CC` they formed plus
//!    every certificate value they know.
//!
//! Output: grade 2 iff the process formed `CC(v)` from direct confirms
//! *and* knows certificates for no value other than `v` even after round
//! 5; grade 1 iff exactly one commit-certificate value is known *and*
//! exactly one certificate value was known by the end of round 4.
//!
//! ## Proof sketch
//!
//! *(c)*: only `v_s` can be `s`-signed, so only `EC(v_s)` can exist; all
//! honest processes confirm and commit it.
//!
//! *(a)*: grade 2 at `pᵢ` needs `q` direct confirms, hence an honest
//! confirmer of `v`, who attached `EC(v)` to its round-4 broadcast. If
//! `pⱼ` also had grade 2 on `w ≠ v`, an honest confirmer of `w` broadcast
//! `EC(w)` in round 4, which reaches `pᵢ` before its end-of-round-5 purity
//! check — contradiction.
//!
//! *(b)*: `pᵢ` (grade 2 on `v`) broadcast `CC(v)` in round 5, so every
//! `pⱼ` knows it. If `pⱼ` knew a certificate for `w ≠ v` by end of round
//! 4 it would have spread it in round 5, destroying `pᵢ`'s grade 2; so
//! `pⱼ`'s round-4 certificate set is exactly `{v}`. If `pⱼ` knew `CC(w)`,
//! an honest confirmer of `w` would again have spread `EC(w)` in round 4
//! to `pᵢ` — contradiction. Hence `pⱼ` outputs `(v, ≥1)`.
//!
//! *(d)*: any known `CC(w)` implies an honest confirmer of `w` whose
//! attached `EC(w)` reached **every** process in round 4; two grade-1
//! holders on different values would each violate the other's
//! "exactly one certificate value by end of round 4" condition.

use ba_crypto::{Encoder, Pki, Signature, SigningKey};
use ba_sim::{Value, WireSize};
use std::collections::{BTreeMap, BTreeSet};

/// Static parameters of one gradecast instance.
#[derive(Clone, Copy, Debug)]
pub struct GcastConfig {
    /// System size.
    pub n: usize,
    /// Fault tolerance (requires `2t < n`).
    pub t: usize,
    /// Session tag binding all signatures of this protocol run.
    pub session: u64,
    /// The designated sender's identifier (= instance id).
    pub inst: u32,
}

impl GcastConfig {
    fn quorum(&self) -> usize {
        self.n - self.t
    }
}

/// Canonical bytes of the sender's value message.
pub fn value_bytes(session: u64, inst: u32, value: Value) -> Vec<u8> {
    let mut e = Encoder::new("gcast-val");
    e.u64(session).u32(inst).u64(value.0);
    e.finish()
}

/// Canonical bytes of an echo.
pub fn echo_bytes(session: u64, inst: u32, value: Value) -> Vec<u8> {
    let mut e = Encoder::new("gcast-echo");
    e.u64(session).u32(inst).u64(value.0);
    e.finish()
}

/// Canonical bytes of a confirmation.
pub fn confirm_bytes(session: u64, inst: u32, value: Value) -> Vec<u8> {
    let mut e = Encoder::new("gcast-confirm");
    e.u64(session).u32(inst).u64(value.0);
    e.finish()
}

/// An echo certificate: `q` distinct echo signatures over one `s`-signed
/// value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EchoCert {
    /// The certified value.
    pub value: Value,
    /// The sender's signature over the value (proof the value originated
    /// from the instance's sender).
    pub sender_sig: Signature,
    /// Echo signatures by distinct processes.
    pub echo_sigs: Vec<Signature>,
}

impl WireSize for EchoCert {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.sender_sig.wire_bytes() + self.echo_sigs.wire_bytes()
    }
}

impl EchoCert {
    /// Verifies structure and signatures against `cfg`.
    pub fn verify(&self, cfg: &GcastConfig, pki: &Pki) -> bool {
        if self.sender_sig.signer != cfg.inst {
            return false;
        }
        if !pki.verify(
            &value_bytes(cfg.session, cfg.inst, self.value),
            &self.sender_sig,
        ) {
            return false;
        }
        let mut signers = BTreeSet::new();
        for sig in &self.echo_sigs {
            if !signers.insert(sig.signer) {
                return false; // duplicate signer
            }
            if !pki.verify(&echo_bytes(cfg.session, cfg.inst, self.value), sig) {
                return false;
            }
        }
        signers.len() >= cfg.quorum()
    }
}

/// A commit certificate: `q` distinct confirm signatures on one value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitCert {
    /// The committed value.
    pub value: Value,
    /// Confirm signatures by distinct processes.
    pub confirm_sigs: Vec<Signature>,
}

impl WireSize for CommitCert {
    fn wire_bytes(&self) -> u64 {
        self.value.wire_bytes() + self.confirm_sigs.wire_bytes()
    }
}

impl CommitCert {
    /// Verifies structure and signatures against `cfg`.
    pub fn verify(&self, cfg: &GcastConfig, pki: &Pki) -> bool {
        let mut signers = BTreeSet::new();
        for sig in &self.confirm_sigs {
            if !signers.insert(sig.signer) {
                return false;
            }
            if !pki.verify(&confirm_bytes(cfg.session, cfg.inst, self.value), sig) {
                return false;
            }
        }
        signers.len() >= cfg.quorum()
    }
}

/// Per-round payloads of one gradecast instance (batched across instances
/// by [`crate::auth::AuthGraded`]).
#[derive(Clone, Debug)]
pub enum GcastItem {
    /// Round 1: the sender's signed value.
    Input {
        /// Proposed value.
        value: Value,
        /// Sender signature over [`value_bytes`].
        sig: Signature,
    },
    /// Round 2: an echo of the unique `s`-signed value.
    Echo {
        /// Echoed value.
        value: Value,
        /// The sender's signature being echoed.
        sender_sig: Signature,
        /// The echoer's signature over [`echo_bytes`].
        sig: Signature,
    },
    /// Rounds 3–5: an echo certificate (fresh, conflict report, or
    /// spread).
    Cert(EchoCert),
    /// Round 4: a confirmation with its supporting certificate.
    Confirm {
        /// Confirmed value.
        value: Value,
        /// Confirmer's signature over [`confirm_bytes`].
        sig: Signature,
        /// Certificate justifying the confirmation.
        cert: EchoCert,
    },
    /// Round 5: a commit certificate.
    Commit(CommitCert),
}

/// A discriminant byte plus the variant's payload.
impl WireSize for GcastItem {
    fn wire_bytes(&self) -> u64 {
        1 + match self {
            GcastItem::Input { value, sig } => value.wire_bytes() + sig.wire_bytes(),
            GcastItem::Echo {
                value,
                sender_sig,
                sig,
            } => value.wire_bytes() + sender_sig.wire_bytes() + sig.wire_bytes(),
            GcastItem::Cert(cert) => cert.wire_bytes(),
            GcastItem::Confirm { value, sig, cert } => {
                value.wire_bytes() + sig.wire_bytes() + cert.wire_bytes()
            }
            GcastItem::Commit(cert) => cert.wire_bytes(),
        }
    }
}

/// Output of one gradecast instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcastOutput {
    /// The delivered value (`None` at grade 0).
    pub value: Option<Value>,
    /// Grade in `{0, 1, 2}`.
    pub grade: u8,
}

/// State machine for one gradecast instance at one process.
///
/// Driven by an external scheduler ([`crate::auth::AuthGraded`]) that
/// routes payloads and collects outgoing items; it is not a standalone
/// [`ba_sim::Process`].
#[derive(Debug)]
pub struct GcastInstance {
    cfg: GcastConfig,
    /// Distinct sender-signed values seen (capped at 2: enough to prove
    /// equivocation).
    inputs_seen: Vec<(Value, Signature)>,
    /// Verified echo signatures per value (values capped at 2).
    echo_sigs: BTreeMap<Value, BTreeMap<u32, Signature>>,
    /// First valid certificate per value (values capped at 2).
    known_certs: BTreeMap<Value, EchoCert>,
    /// Certificate values known when the confirm decision was taken
    /// (end of round 3).
    certs_at_confirm: BTreeSet<Value>,
    /// Certificate values known by the end of round 4.
    certs_at_r4: BTreeSet<Value>,
    /// Verified direct confirm signatures per value (round 4; values
    /// capped at 2).
    confirm_sigs: BTreeMap<Value, BTreeMap<u32, Signature>>,
    /// Commit certificate this process formed from direct confirms.
    self_commit: Option<CommitCert>,
    /// Values with a known valid commit certificate (capped at 2).
    known_commit_values: BTreeSet<Value>,
}

impl GcastInstance {
    /// Creates the instance state.
    pub fn new(cfg: GcastConfig) -> Self {
        assert!(2 * cfg.t < cfg.n, "gradecast needs 2t < n");
        GcastInstance {
            cfg,
            inputs_seen: Vec::new(),
            echo_sigs: BTreeMap::new(),
            known_certs: BTreeMap::new(),
            certs_at_confirm: BTreeSet::new(),
            certs_at_r4: BTreeSet::new(),
            confirm_sigs: BTreeMap::new(),
            self_commit: None,
            known_commit_values: BTreeSet::new(),
        }
    }

    /// The instance configuration.
    pub fn config(&self) -> &GcastConfig {
        &self.cfg
    }

    /// Round-1 send: the designated sender signs its value.
    pub fn make_input(cfg: &GcastConfig, key: &SigningKey, value: Value) -> GcastItem {
        debug_assert_eq!(key.id(), cfg.inst, "only the sender starts an instance");
        let sig = key.sign(&value_bytes(cfg.session, cfg.inst, value));
        GcastItem::Input { value, sig }
    }

    /// Ingests a round-1 `Input` item.
    pub fn recv_input(&mut self, pki: &Pki, value: Value, sig: &Signature) {
        if self.inputs_seen.iter().any(|(v, _)| *v == value) {
            return;
        }
        if self.inputs_seen.len() >= 2 {
            return; // equivocation already proven; more values add nothing
        }
        if sig.signer != self.cfg.inst {
            return;
        }
        if pki.verify(&value_bytes(self.cfg.session, self.cfg.inst, value), sig) {
            self.inputs_seen.push((value, *sig));
        }
    }

    /// Round-2 send: echo the unique sender-signed value, if any.
    pub fn make_echo(&self, key: &SigningKey) -> Option<GcastItem> {
        match self.inputs_seen.as_slice() {
            [(value, sender_sig)] => {
                let sig = key.sign(&echo_bytes(self.cfg.session, self.cfg.inst, *value));
                Some(GcastItem::Echo {
                    value: *value,
                    sender_sig: *sender_sig,
                    sig,
                })
            }
            _ => None,
        }
    }

    /// Ingests a round-2 `Echo` item.
    pub fn recv_echo(&mut self, pki: &Pki, value: Value, sender_sig: &Signature, sig: &Signature) {
        // The embedded sender signature proves the value originated from
        // the sender; verify it once per value.
        let sender_ok = self.inputs_seen.iter().any(|(v, _)| *v == value)
            || (sender_sig.signer == self.cfg.inst
                && pki.verify(
                    &value_bytes(self.cfg.session, self.cfg.inst, value),
                    sender_sig,
                ));
        if !sender_ok {
            return;
        }
        if self.inputs_seen.len() < 2 && !self.inputs_seen.iter().any(|(v, _)| *v == value) {
            self.inputs_seen.push((value, *sender_sig));
        }
        if !self.inputs_seen.iter().any(|(v, _)| *v == value) {
            // A third sender-signed value: the sender has already proven
            // itself faulty twice over; certificates for it are not needed
            // for any output this instance can still produce.
            return;
        }
        if !self.echo_sigs.contains_key(&value) && self.echo_sigs.len() >= 2 {
            return; // two echo-able values already tracked
        }
        let per_value = self.echo_sigs.entry(value).or_default();
        if per_value.contains_key(&sig.signer) || per_value.len() >= self.cfg.quorum() {
            return; // duplicate or already at quorum: skip re-verification
        }
        if pki.verify(&echo_bytes(self.cfg.session, self.cfg.inst, value), sig) {
            per_value.insert(sig.signer, *sig);
        }
    }

    /// Round-3 send: certificates this process can assemble from echoes.
    pub fn make_certs(&mut self) -> Vec<GcastItem> {
        let q = self.cfg.quorum();
        let formed: Vec<EchoCert> = self
            .echo_sigs
            .iter()
            .filter(|(_, sigs)| sigs.len() >= q)
            .take(2)
            .map(|(value, sigs)| EchoCert {
                value: *value,
                sender_sig: self
                    .inputs_seen
                    .iter()
                    .find(|(v, _)| v == value)
                    .map(|(_, s)| *s)
                    .expect("echoed value always has a recorded sender signature"),
                echo_sigs: sigs.values().copied().collect(),
            })
            .collect();
        for cert in &formed {
            self.note_cert_unchecked(cert.clone());
        }
        formed.into_iter().map(GcastItem::Cert).collect()
    }

    /// Records a locally-formed (already valid) certificate.
    fn note_cert_unchecked(&mut self, cert: EchoCert) {
        if self.known_certs.len() >= 2 && !self.known_certs.contains_key(&cert.value) {
            return;
        }
        self.known_certs.entry(cert.value).or_insert(cert);
    }

    /// Ingests a received certificate (any round).
    pub fn recv_cert(&mut self, pki: &Pki, cert: &EchoCert) {
        if self.known_certs.contains_key(&cert.value) {
            return; // one valid certificate per value suffices
        }
        if self.known_certs.len() >= 2 {
            return; // conflict already established
        }
        if cert.verify(&self.cfg, pki) {
            self.known_certs.insert(cert.value, cert.clone());
        }
    }

    /// Round-4 send: confirm the unique certified value, or report the
    /// conflict by spreading certificates.
    ///
    /// Call after all round-3 receives; snapshots the end-of-round-3
    /// certificate set.
    pub fn make_confirm(&mut self, key: &SigningKey) -> Vec<GcastItem> {
        self.certs_at_confirm = self.known_certs.keys().copied().collect();
        let mut values = self.known_certs.keys();
        if self.known_certs.len() == 1 {
            let value = *values.next().expect("len checked");
            let cert = self.known_certs[&value].clone();
            let sig = key.sign(&confirm_bytes(self.cfg.session, self.cfg.inst, value));
            vec![GcastItem::Confirm { value, sig, cert }]
        } else {
            self.known_certs
                .values()
                .take(2)
                .cloned()
                .map(GcastItem::Cert)
                .collect()
        }
    }

    /// Ingests a round-4 `Confirm` item (records the attached certificate
    /// first, then the confirm signature).
    pub fn recv_confirm(&mut self, pki: &Pki, value: Value, sig: &Signature, cert: &EchoCert) {
        if cert.value == value {
            self.recv_cert(pki, cert);
        }
        // Count only confirms whose certificate checks out (a confirm for
        // an uncertifiable value is noise).
        if !self.known_certs.contains_key(&value) {
            return;
        }
        if !self.confirm_sigs.contains_key(&value) && self.confirm_sigs.len() >= 2 {
            return;
        }
        let per_value = self.confirm_sigs.entry(value).or_default();
        if per_value.contains_key(&sig.signer) || per_value.len() >= self.cfg.quorum() {
            return;
        }
        if pki.verify(&confirm_bytes(self.cfg.session, self.cfg.inst, value), sig) {
            per_value.insert(sig.signer, *sig);
        }
    }

    /// Round-5 send: spread any commit certificate formed from direct
    /// confirms, plus every certificate value known at the end of round 4.
    pub fn make_spread(&mut self) -> Vec<GcastItem> {
        self.certs_at_r4 = self.known_certs.keys().copied().collect();
        let q = self.cfg.quorum();
        let mut items = Vec::new();
        if let Some((value, sigs)) = self.confirm_sigs.iter().find(|(_, sigs)| sigs.len() >= q) {
            let cc = CommitCert {
                value: *value,
                confirm_sigs: sigs.values().copied().collect(),
            };
            self.self_commit = Some(cc.clone());
            self.known_commit_values.insert(*value);
            items.push(GcastItem::Commit(cc));
        }
        items.extend(
            self.known_certs
                .values()
                .take(2)
                .cloned()
                .map(GcastItem::Cert),
        );
        items
    }

    /// Ingests a round-5 `Commit` item.
    pub fn recv_commit(&mut self, pki: &Pki, cc: &CommitCert) {
        if self.known_commit_values.contains(&cc.value) {
            return;
        }
        if self.known_commit_values.len() >= 2 {
            return;
        }
        if cc.verify(&self.cfg, pki) {
            self.known_commit_values.insert(cc.value);
        }
    }

    /// Final output after all round-5 receives.
    pub fn finish(&self) -> GcastOutput {
        if let Some(cc) = &self.self_commit {
            let pure = self.known_certs.len() == 1 && self.known_certs.contains_key(&cc.value);
            if pure {
                return GcastOutput {
                    value: Some(cc.value),
                    grade: 2,
                };
            }
        }
        if self.known_commit_values.len() == 1 && self.certs_at_r4.len() == 1 {
            let cc_val = *self.known_commit_values.iter().next().expect("len checked");
            let cert_val = *self.certs_at_r4.iter().next().expect("len checked");
            if cc_val == cert_val {
                return GcastOutput {
                    value: Some(cc_val),
                    grade: 1,
                };
            }
        }
        GcastOutput {
            value: None,
            grade: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GcastConfig {
        GcastConfig {
            n: 5,
            t: 2,
            session: 9,
            inst: 0,
        }
    }

    fn pki() -> Pki {
        Pki::new(5, 1234)
    }

    fn valid_cert(pki: &Pki, cfg: &GcastConfig, value: Value, echoers: &[u32]) -> EchoCert {
        let sender_sig = pki
            .signing_key(cfg.inst)
            .sign(&value_bytes(cfg.session, cfg.inst, value));
        let echo_sigs = echoers
            .iter()
            .map(|&i| {
                pki.signing_key(i)
                    .sign(&echo_bytes(cfg.session, cfg.inst, value))
            })
            .collect();
        EchoCert {
            value,
            sender_sig,
            echo_sigs,
        }
    }

    #[test]
    fn echo_cert_verifies_with_quorum() {
        let (pki, cfg) = (pki(), cfg());
        let cert = valid_cert(&pki, &cfg, Value(7), &[0, 1, 2]);
        assert!(cert.verify(&cfg, &pki));
    }

    #[test]
    fn echo_cert_rejects_below_quorum() {
        let (pki, cfg) = (pki(), cfg());
        let cert = valid_cert(&pki, &cfg, Value(7), &[0, 1]);
        assert!(!cert.verify(&cfg, &pki), "q = n - t = 3 signatures needed");
    }

    #[test]
    fn echo_cert_rejects_duplicate_signers() {
        let (pki, cfg) = (pki(), cfg());
        let mut cert = valid_cert(&pki, &cfg, Value(7), &[0, 1, 2]);
        cert.echo_sigs[2] = cert.echo_sigs[0];
        assert!(
            !cert.verify(&cfg, &pki),
            "padding with duplicates must fail"
        );
    }

    #[test]
    fn echo_cert_rejects_wrong_session() {
        let (pki, cfg) = (pki(), cfg());
        let other = GcastConfig { session: 10, ..cfg };
        let cert = valid_cert(&pki, &other, Value(7), &[0, 1, 2]);
        assert!(
            !cert.verify(&cfg, &pki),
            "signatures are bound to the session tag"
        );
    }

    #[test]
    fn echo_cert_rejects_forged_sender_signature() {
        let (pki, cfg) = (pki(), cfg());
        let mut cert = valid_cert(&pki, &cfg, Value(7), &[0, 1, 2]);
        // Replace the sender signature by one from a different process.
        cert.sender_sig = pki
            .signing_key(3)
            .sign(&value_bytes(cfg.session, cfg.inst, Value(7)));
        assert!(!cert.verify(&cfg, &pki));
    }

    #[test]
    fn commit_cert_verification() {
        let (pki, cfg) = (pki(), cfg());
        let sigs: Vec<Signature> = [1u32, 2, 3]
            .iter()
            .map(|&i| {
                pki.signing_key(i)
                    .sign(&confirm_bytes(cfg.session, cfg.inst, Value(4)))
            })
            .collect();
        let cc = CommitCert {
            value: Value(4),
            confirm_sigs: sigs,
        };
        assert!(cc.verify(&cfg, &pki));
        let wrong = CommitCert {
            value: Value(5),
            ..cc
        };
        assert!(!wrong.verify(&cfg, &pki), "signatures bind the value");
    }

    #[test]
    fn instance_ignores_input_not_signed_by_sender() {
        let (pki, cfg) = (pki(), cfg());
        let mut inst = GcastInstance::new(cfg);
        let bad_sig = pki
            .signing_key(2)
            .sign(&value_bytes(cfg.session, cfg.inst, Value(3)));
        inst.recv_input(&pki, Value(3), &bad_sig);
        assert!(inst.make_echo(&pki.signing_key(1)).is_none());
    }

    #[test]
    fn instance_echoes_unique_value_and_refuses_on_equivocation() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut inst = GcastInstance::new(cfg);
        let s1 = sender.sign(&value_bytes(cfg.session, 0, Value(1)));
        inst.recv_input(&pki, Value(1), &s1);
        assert!(inst.make_echo(&pki.signing_key(1)).is_some());
        // A second sender-signed value arrives: equivocation, echo nothing.
        let s2 = sender.sign(&value_bytes(cfg.session, 0, Value(2)));
        inst.recv_input(&pki, Value(2), &s2);
        assert!(inst.make_echo(&pki.signing_key(1)).is_none());
    }

    #[test]
    fn cert_formation_from_quorum_of_echoes() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut inst = GcastInstance::new(cfg);
        let ssig = sender.sign(&value_bytes(cfg.session, 0, Value(6)));
        inst.recv_input(&pki, Value(6), &ssig);
        for i in [0u32, 1, 2] {
            let esig = pki
                .signing_key(i)
                .sign(&echo_bytes(cfg.session, 0, Value(6)));
            inst.recv_echo(&pki, Value(6), &ssig, &esig);
        }
        let certs = inst.make_certs();
        assert_eq!(certs.len(), 1);
        match &certs[0] {
            GcastItem::Cert(c) => {
                assert_eq!(c.value, Value(6));
                assert!(c.verify(&cfg, &pki));
            }
            other => panic!("expected Cert, got {other:?}"),
        }
    }

    #[test]
    fn no_cert_without_echo_quorum() {
        let (pki, cfg) = (pki(), cfg());
        let sender = pki.signing_key(0);
        let mut inst = GcastInstance::new(cfg);
        let ssig = sender.sign(&value_bytes(cfg.session, 0, Value(6)));
        inst.recv_input(&pki, Value(6), &ssig);
        for i in [1u32, 2] {
            let esig = pki
                .signing_key(i)
                .sign(&echo_bytes(cfg.session, 0, Value(6)));
            inst.recv_echo(&pki, Value(6), &ssig, &esig);
        }
        assert!(inst.make_certs().is_empty());
    }

    #[test]
    fn confirm_only_with_unique_certified_value() {
        let (pki, cfg) = (pki(), cfg());
        let mut inst = GcastInstance::new(cfg);
        inst.recv_cert(&pki, &valid_cert(&pki, &cfg, Value(1), &[0, 1, 2]));
        let items = inst.make_confirm(&pki.signing_key(3));
        assert!(
            matches!(items.as_slice(), [GcastItem::Confirm { value, .. }] if *value == Value(1))
        );

        // Conflicting certificates: report instead of confirming.
        let mut inst2 = GcastInstance::new(cfg);
        inst2.recv_cert(&pki, &valid_cert(&pki, &cfg, Value(1), &[0, 1, 2]));
        inst2.recv_cert(&pki, &valid_cert(&pki, &cfg, Value(2), &[0, 3, 4]));
        let items2 = inst2.make_confirm(&pki.signing_key(3));
        assert_eq!(items2.len(), 2);
        assert!(items2.iter().all(|i| matches!(i, GcastItem::Cert(_))));
    }

    #[test]
    fn grade0_when_nothing_happens() {
        let (_pki, cfg) = (pki(), cfg());
        let mut inst = GcastInstance::new(cfg);
        let _ = inst.make_confirm(&pki().signing_key(1));
        let _ = inst.make_spread();
        assert_eq!(
            inst.finish(),
            GcastOutput {
                value: None,
                grade: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "2t < n")]
    fn rejects_majority_corruption() {
        let _ = GcastInstance::new(GcastConfig {
            n: 4,
            t: 2,
            session: 0,
            inst: 0,
        });
    }
}
