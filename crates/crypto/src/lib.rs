//! # twine-crypto
//!
//! From-scratch cryptographic primitives used by the Twine reproduction.
//!
//! The Intel Protected File System (`twine-pfs`) encrypts every 4 KiB node
//! with AES-GCM (and, in the optimised §V-F mode of the paper, AES-CCM so
//! that authentication is computed MAC-then-encrypt over data already inside
//! the enclave). The SGX simulator (`twine-sgx`) derives sealing keys and
//! MACs attestation reports. None of the sanctioned external crates provide
//! cryptography, so everything here is implemented from first principles:
//!
//! * [`aes`] — AES-128/AES-256 block cipher (FIPS-197), bitsliced: four
//!   blocks per pass, the S-box a Boolean circuit.
//! * [`gcm`] — Galois/Counter Mode authenticated encryption (SP 800-38D),
//!   GHASH by carry-less multiplication out of integer multiplies.
//! * [`ccm`] — Counter with CBC-MAC mode (SP 800-38C).
//! * [`sha256`] — SHA-256 (FIPS-180-4).
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`cmac`] — AES-CMAC (SP 800-38B), used by real SGX key derivation.
//! * [`kdf`] — the sealing/report key-derivation scheme of the simulator.
//!
//! The encryption cost measured by the benchmark harness is a *real* cost,
//! not a modelled constant: every sealed node, park image and manifest goes
//! through one AES core (the only one in the crate; a byte-wise table
//! implementation survives as the `#[cfg(test)]` oracle it is compared
//! against).
//!
//! **Timing.** What is constant-time by construction: the AES core (no
//! table, no branch or memory index that depends on key, state or
//! plaintext — key schedule included), GHASH, and therefore AES-GCM,
//! AES-CCM and AES-CMAC on top of them; tag comparison ([`ct_eq`]).
//! SHA-256 and HMAC have no secret-dependent branches or indices either.
//! What is *not* claimed: that integer multiplication takes
//! operand-independent time on every CPU (GHASH relies on it; it holds on
//! the x86-64 and AArch64 cores this runs on); that the compiler keeps it so
//! (nothing here is checked at the instruction level); that keys are wiped
//! from memory; or anything about other channels. The paper scopes
//! side-channel attacks out of its threat model (§IV-A) — on its hardware
//! the cipher is AES-NI, which is what a table-free core stands in for.
//!
//! **Dependency graph**: leaf crate (no `twine-*` dependencies). Consumed
//! by `twine-sgx` (sealing-key derivation), `twine-pfs` (per-node AEAD) and
//! `twine-core` (application provisioning). Paper anchor: §IV-D/E.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ccm;
pub mod cmac;
pub mod gcm;
pub mod hmac;
pub mod kdf;
#[cfg(test)]
mod oracle;
pub mod sha256;

pub use aes::Aes;
pub use ccm::AesCcm;
pub use cmac::Cmac;
pub use gcm::AesGcm;
pub use hmac::HmacSha256;
pub use sha256::Sha256;

/// Error produced when an authenticated decryption fails its tag check.
///
/// The protected file system treats this as evidence of tampering with the
/// untrusted storage and aborts the read (paper §IV-D: "content is verified
/// for integrity by the trusted enclave during reading operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthError;

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "authenticated decryption failed: tag mismatch")
    }
}

impl std::error::Error for AuthError {}

/// Comparison of two byte slices in time that depends on their lengths
/// only.
///
/// Used for tag verification; avoids early-exit on the first differing byte.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// `dst[i] ^= src[i]` over the shorter of the two.
#[inline]
pub(crate) fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Convert a hex string (used throughout the test suites) into bytes.
///
/// Panics on malformed input; intended for tests and fixtures only.
#[must_use]
pub fn hex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "hex string must have even length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("invalid hex"))
        .collect()
}

/// Render bytes as a lowercase hex string.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use core::fmt::Write;
        let _ = write!(out, "{b:02x}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let v = hex("00ff10ab");
        assert_eq!(v, vec![0x00, 0xff, 0x10, 0xab]);
        assert_eq!(to_hex(&v), "00ff10ab");
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
