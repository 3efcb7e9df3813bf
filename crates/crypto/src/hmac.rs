//! HMAC-SHA256 (RFC 2104), validated against the RFC 4231 test vectors.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// HMAC-SHA256 under one fixed key, with the key's ipad and opad blocks
/// absorbed into two SHA-256 states once.
///
/// Every [`HmacKey::mac`] call then resumes from those states, so a
/// message shorter than 56 bytes costs two SHA-256 compressions instead
/// of four. The states are as secret as the key itself, so the `Debug`
/// output shows neither.
///
/// # Examples
///
/// ```
/// use ba_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the states: they stand in for the key.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Precomputes the keyed states for `key`.
    ///
    /// Keys longer than the 64-byte block are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut block = [pad; BLOCK];
            for (b, k) in block.iter_mut().zip(k) {
                *b ^= k;
            }
            let mut state = Sha256::new();
            state.update(&block);
            state
        };
        HmacKey {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// The sixteen words of the two keyed states, for tests that check no
    /// `Debug` output leaks them.
    #[cfg(test)]
    pub(crate) fn state_words(&self) -> impl Iterator<Item = u32> {
        let (inner, outer) = (self.inner.state_words(), self.outer.state_words());
        inner.into_iter().chain(outer)
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the 64-byte block are hashed first, per RFC 2104.
/// To MAC many messages under one key, build an [`HmacKey`] once.
///
/// # Examples
///
/// ```
/// let tag = ba_crypto::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(message)
}

/// Constant-time equality of two MAC tags.
///
/// Timing is irrelevant inside the simulator, but tag comparison is a
/// security-sensitive operation and the habit costs nothing.
pub fn tags_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_produce_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn different_messages_produce_different_tags() {
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn tags_equal_is_exact() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[31] ^= 1;
        assert!(!tags_equal(&a, &b));
        assert!(!tags_equal(&a[..16], &a));
    }
}
