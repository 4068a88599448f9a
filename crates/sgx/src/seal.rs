//! Sealed storage: encrypt data so only the same enclave on the same
//! processor can recover it (the `sgx_seal_data` analogue).
//!
//! The functions here take a prepared [`AesGcm`] and expand no key: an
//! [`Enclave`](crate::Enclave) derives its sealing key and expands it once,
//! when it is built, and seals and unseals every blob of that incarnation
//! with it; the attestation service's key wrapping builds its own context
//! per call. A blob is `nonce (12) || tag (16) || ciphertext`, the nonce
//! being a 64-bit counter (bytes 0..8, little-endian) and a 32-bit tag
//! (bytes 8..12) — see [`counter_nonce`].

use twine_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};

use crate::SgxError;

/// The nonce `counter ‖ tag`: `counter` little-endian in bytes 0..8, `tag`
/// little-endian in bytes 8..12. An enclave draws a random tag and a
/// random counter start per incarnation and counts up from there; with a
/// zero tag this is the nonce every blob had before incarnations drew one.
#[must_use]
pub fn counter_nonce(counter: u64, tag: u32) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..8].copy_from_slice(&counter.to_le_bytes());
    nonce[8..].copy_from_slice(&tag.to_le_bytes());
    nonce
}

/// Seal `plaintext` with `gcm` under `nonce`, binding `aad` (typically the
/// enclave measurement). Blob layout: `nonce (12) || tag (16) ||
/// ciphertext`. The caller never repeats a nonce under one key.
#[must_use]
pub fn seal(gcm: &AesGcm, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut blob = Vec::with_capacity(NONCE_LEN + TAG_LEN + plaintext.len());
    blob.extend_from_slice(nonce);
    blob.extend_from_slice(&[0u8; TAG_LEN]);
    blob.extend_from_slice(plaintext);
    let tag = gcm.encrypt_in_place(nonce, aad, &mut blob[NONCE_LEN + TAG_LEN..]);
    blob[NONCE_LEN..NONCE_LEN + TAG_LEN].copy_from_slice(&tag);
    blob
}

/// Unseal a blob produced by [`seal`] under the same key.
pub fn unseal(gcm: &AesGcm, aad: &[u8], blob: &[u8]) -> Result<Vec<u8>, SgxError> {
    if blob.len() < NONCE_LEN + TAG_LEN {
        return Err(SgxError::UnsealFailed);
    }
    let nonce: [u8; NONCE_LEN] = blob[..NONCE_LEN].try_into().expect("len checked");
    let tag: [u8; TAG_LEN] = blob[NONCE_LEN..NONCE_LEN + TAG_LEN]
        .try_into()
        .expect("len checked");
    gcm.decrypt(&nonce, aad, &blob[NONCE_LEN + TAG_LEN..], &tag)
        .map_err(|_| SgxError::UnsealFailed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gcm(byte: u8) -> AesGcm {
        AesGcm::new_128(&[byte; 16])
    }

    #[test]
    fn roundtrip() {
        let g = gcm(9);
        let plain = b"database master key";
        let blob = seal(&g, &counter_nonce(1, 0), b"mrenclave", plain);
        assert_eq!(unseal(&g, b"mrenclave", &blob).unwrap(), plain);
    }

    #[test]
    fn wrong_key_fails() {
        let blob = seal(&gcm(1), &counter_nonce(1, 0), b"", b"secret");
        assert_eq!(unseal(&gcm(2), b"", &blob), Err(SgxError::UnsealFailed));
    }

    #[test]
    fn wrong_aad_fails() {
        let g = gcm(1);
        let blob = seal(&g, &counter_nonce(1, 0), b"enclave-a", b"secret");
        assert_eq!(unseal(&g, b"enclave-b", &blob), Err(SgxError::UnsealFailed));
    }

    #[test]
    fn tampered_blob_fails() {
        let g = gcm(1);
        let mut blob = seal(&g, &counter_nonce(1, 0), b"", b"secret");
        let last = blob.len() - 1;
        blob[last] ^= 1;
        assert_eq!(unseal(&g, b"", &blob), Err(SgxError::UnsealFailed));
    }

    #[test]
    fn short_blob_fails() {
        let short = unseal(&gcm(0), b"", &[1, 2, 3]);
        assert_eq!(short, Err(SgxError::UnsealFailed));
    }

    #[test]
    fn distinct_nonces_distinct_blobs() {
        let g = gcm(1);
        let b1 = seal(&g, &counter_nonce(1, 0), b"", b"same");
        let b2 = seal(&g, &counter_nonce(2, 0), b"", b"same");
        let b3 = seal(&g, &counter_nonce(1, 1), b"", b"same");
        assert_ne!(b1, b2);
        assert_ne!(b1, b3);
        assert_eq!(b3[8..12], 1u32.to_le_bytes());
    }

    /// The blob is the GCM encryption laid out `nonce || tag || ct`.
    #[test]
    fn blob_layout() {
        let g = gcm(4);
        let nonce = counter_nonce(0x0102_0304_0506_0708, 0xa1b2_c3d4);
        let blob = seal(&g, &nonce, b"aad", b"payload bytes");
        let (ct, tag) = g.encrypt(&nonce, b"aad", b"payload bytes");
        assert_eq!(blob[..NONCE_LEN], nonce);
        assert_eq!(blob[NONCE_LEN..NONCE_LEN + TAG_LEN], tag);
        assert_eq!(blob[NONCE_LEN + TAG_LEN..], ct[..]);
        assert_eq!(nonce, [8, 7, 6, 5, 4, 3, 2, 1, 0xd4, 0xc3, 0xb2, 0xa1]);
    }
}
