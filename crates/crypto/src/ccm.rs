//! AES-CCM authenticated encryption (NIST SP 800-38C).
//!
//! The paper's §V-F optimisation removes the ciphertext copy across the
//! enclave boundary; because AES-GCM is encrypt-then-MAC, decrypting straight
//! out of *untrusted* memory would allow a time-of-check/time-of-use swap
//! between authentication and decryption. The authors therefore suggest
//! AES-CCM, which authenticates the *plaintext* (MAC-then-encrypt): the MAC
//! check happens over data already decrypted into enclave memory. The
//! optimised protected file system (`twine-pfs`, `PfsMode::Optimised`) uses
//! this implementation for exactly that reason.

use crate::aes::Aes;
use crate::{xor_in_place, AuthError};

/// Tag length used by the protected file system (full 16 bytes).
pub const TAG_LEN: usize = 16;
/// Nonce length: 12 bytes (implying a 2-byte length field, messages < 64 KiB
/// would be too small for 4 KiB nodes with headroom — we use L=3, 11-byte
/// nonce internally padded from the 12-byte API nonce).
pub const NONCE_LEN: usize = 12;

/// Which way a pass over the message runs.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    Seal,
    Open,
}

/// AES-CCM context bound to one AES-128 key.
pub struct AesCcm {
    aes: Aes,
}

impl AesCcm {
    /// Build a CCM context from an AES-128 key.
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self {
            aes: Aes::new_128(key),
        }
    }

    /// Encrypt-and-authenticate. Returns ciphertext and tag.
    #[must_use]
    pub fn encrypt(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut buf = plaintext.to_vec();
        let tag = self.encrypt_in_place(nonce, aad, &mut buf);
        (buf, tag)
    }

    /// Encrypt a buffer in place, returning the tag (computed over the
    /// plaintext: MAC-then-encrypt).
    pub fn encrypt_in_place(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        self.pass(Pass::Seal, nonce, aad, data)
    }

    /// Decrypt-and-verify.
    pub fn decrypt(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<Vec<u8>, AuthError> {
        let mut buf = ciphertext.to_vec();
        self.decrypt_in_place(nonce, aad, &mut buf, tag)?;
        Ok(buf)
    }

    /// Decrypt a buffer in place and verify the tag computed over the
    /// *plaintext* — i.e. over data that is already inside the enclave.
    pub fn decrypt_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        let expect = self.pass(Pass::Open, nonce, aad, data);
        if !crate::ct_eq(&expect, tag) {
            // Scrub the speculatively-decrypted plaintext before reporting.
            self.aes.ctr_xor(&a_block(nonce, 0), 1, data);
            return Err(AuthError);
        }
        Ok(())
    }

    /// CBC-MAC and CTR in one pass, sharing AES calls. The MAC chain is
    /// sequential — one block per call, 258 calls for a 4 KiB node — and a
    /// call computes four blocks whether it is given them or not, so the
    /// counter block whose keystream the *next* message block needs rides
    /// in lane 1 of the call that chains the current one. On `Open` that
    /// keeps decryption one block ahead of the MAC, which authenticates
    /// plaintext; on `Seal` the MAC reads a block before it is encrypted.
    fn pass(&self, pass: Pass, nonce: &[u8; NONCE_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        // B0 opens the chain; A0 (the tag mask) and A1 ride with it.
        let mut lanes = [b0(nonce, data.len()), a_block(nonce, 0), a_block(nonce, 1), [0; 16]];
        self.aes.encrypt_blocks(&mut lanes);
        let [mut x, tag_mask, mut keystream, _] = lanes;

        // AAD: 2-byte length prefix, then data. The 12th nonce byte is
        // always its first byte (see `b0`), so there is always a header.
        let total_aad = aad.len() + 1;
        assert!(total_aad < 0xFF00, "AAD too large for CCM encoding");
        let (first, rest) = aad.split_at(aad.len().min(13));
        let mut header = [0u8; 16];
        header[..2].copy_from_slice(&(total_aad as u16).to_be_bytes());
        header[2] = nonce[11];
        header[3..3 + first.len()].copy_from_slice(first);
        xor_in_place(&mut x, &header);
        self.aes.encrypt_block(&mut x);
        for chunk in rest.chunks(16) {
            xor_in_place(&mut x, chunk);
            self.aes.encrypt_block(&mut x);
        }

        let mut counter = 2u32;
        for chunk in data.chunks_mut(16) {
            if pass == Pass::Open {
                xor_in_place(chunk, &keystream);
            }
            xor_in_place(&mut x, chunk);
            if pass == Pass::Seal {
                xor_in_place(chunk, &keystream);
            }
            let mut lanes = [x, a_block(nonce, counter), [0; 16], [0; 16]];
            self.aes.encrypt_blocks(&mut lanes);
            [x, keystream, ..] = lanes;
            counter = counter.wrapping_add(1);
        }

        xor_in_place(&mut x, &tag_mask);
        x
    }
}

/// B0 block layout with L=3 (3-byte message-length field, 11-byte
/// effective nonce). The 12-byte API nonce is truncated to 11 bytes; the
/// dropped byte is folded into the AAD header so it still participates
/// in authentication — which also means Adata is always set.
fn b0(nonce: &[u8; NONCE_LEN], msg_len: usize) -> [u8; 16] {
    let mut b0 = [0u8; 16];
    // Flags: Adata | M'=(taglen-2)/2 <<3 | L'=L-1, with L=3, tag=16.
    b0[0] = (1 << 6) | ((TAG_LEN as u8 - 2) / 2) << 3 | 2;
    b0[1..12].copy_from_slice(&nonce[..11]);
    // Byte 12 stays 0: messages are < 2^24 bytes.
    b0[13..16].copy_from_slice(&(msg_len as u32).to_be_bytes()[1..4]);
    b0
}

/// A_i counter block for CTR mode.
fn a_block(nonce: &[u8; NONCE_LEN], i: u32) -> [u8; 16] {
    let mut a = [0u8; 16];
    a[0] = 2; // L' = L-1 = 2
    a[1..12].copy_from_slice(&nonce[..11]);
    a[12..16].copy_from_slice(&i.to_be_bytes());
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_lengths() {
        let ccm = AesCcm::new_128(&[0x11u8; 16]);
        let n = [9u8; 12];
        for len in [0usize, 1, 15, 16, 17, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let (ct, tag) = ccm.encrypt(&n, b"merkle-node", &pt);
            if len > 0 {
                assert_ne!(ct, pt);
            }
            let back = ccm.decrypt(&n, b"merkle-node", &ct, &tag).unwrap();
            assert_eq!(back, pt, "len={len}");
        }
    }

    #[test]
    fn tamper_detected_and_plaintext_scrubbed() {
        let ccm = AesCcm::new_128(&[0x11u8; 16]);
        let n = [9u8; 12];
        let pt = b"page of sensitive rows".to_vec();
        let (mut ct, tag) = ccm.encrypt(&n, b"", &pt);
        ct[0] ^= 0x80;
        let mut buf = ct.clone();
        assert_eq!(ccm.decrypt_in_place(&n, b"", &mut buf, &tag), Err(AuthError));
        // The buffer must not contain the (partially correct) plaintext.
        assert_eq!(buf, ct, "failed decryption must restore ciphertext");
    }

    /// Ciphertext and tag are bit-identical to the previous two-pass,
    /// block-at-a-time implementation (CBC-MAC pass, then CTR pass), and
    /// opening restores the plaintext — at lengths around every block
    /// boundary and AAD lengths that end inside and across header blocks.
    #[test]
    fn fused_pass_is_bit_identical_to_the_two_pass_oracle() {
        use crate::oracle::{self, SplitMix64};
        const LENS: [usize; 12] = [0, 1, 15, 16, 17, 31, 32, 33, 64, 1000, 4096, 5000];
        let mut rng = SplitMix64::new(0xCC);
        for round in 0..200 {
            let mut key = [0u8; 16];
            rng.fill(&mut key);
            let mut n = [0u8; 12];
            rng.fill(&mut n);
            let mut aad = vec![0u8; [0, 4, 13, 14, 20, 33][round % 6]];
            rng.fill(&mut aad);
            let mut data = vec![0u8; LENS[round % 12]];
            rng.fill(&mut data);
            let plain = data.clone();
            let mut expect = data.clone();
            let expect_tag = oracle::ccm_seal(&oracle::Aes::new_128(&key), &n, &aad, &mut expect);
            let ccm = AesCcm::new_128(&key);
            let tag = ccm.encrypt_in_place(&n, &aad, &mut data);
            assert_eq!(data, expect, "round {round}");
            assert_eq!(tag, expect_tag, "round {round}");
            ccm.decrypt_in_place(&n, &aad, &mut data, &tag).unwrap();
            assert_eq!(data, plain, "round {round}");
        }
    }

    /// Any single flipped bit of ciphertext or tag is rejected and the
    /// buffer handed back as it came in.
    #[test]
    fn flipped_bit_rejects_and_restores_ciphertext() {
        let ccm = AesCcm::new_128(&[0x11u8; 16]);
        let n = [9u8; 12];
        let pt: Vec<u8> = (0..100u8).collect();
        let (ct, tag) = ccm.encrypt(&n, b"header", &pt);
        for bit in (0..ct.len() * 8).step_by(37) {
            let mut bad = ct.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let before = bad.clone();
            assert_eq!(ccm.decrypt_in_place(&n, b"header", &mut bad, &tag), Err(AuthError));
            assert_eq!(bad, before);
        }
        for bit in 0..128 {
            let mut bad = tag;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(ccm.decrypt(&n, b"header", &ct, &bad), Err(AuthError));
        }
    }

    #[test]
    fn nonce_uniqueness_changes_ciphertext() {
        let ccm = AesCcm::new_128(&[0x11u8; 16]);
        let (c1, _) = ccm.encrypt(&[1u8; 12], b"", b"same plaintext");
        let (c2, _) = ccm.encrypt(&[2u8; 12], b"", b"same plaintext");
        assert_ne!(c1, c2);
    }

    #[test]
    fn twelfth_nonce_byte_participates() {
        // The API nonce is 12 bytes but CCM (L=3) only uses 11 in the counter
        // blocks; the 12th must still affect the tag via the AAD header.
        let ccm = AesCcm::new_128(&[0x22u8; 16]);
        let mut n1 = [0u8; 12];
        let mut n2 = [0u8; 12];
        n1[11] = 1;
        n2[11] = 2;
        let (ct, tag) = ccm.encrypt(&n1, b"", b"data");
        assert!(ccm.decrypt(&n2, b"", &ct, &tag).is_err());
    }

    #[test]
    fn aad_mismatch_detected() {
        let ccm = AesCcm::new_128(&[0x33u8; 16]);
        let n = [5u8; 12];
        let (ct, tag) = ccm.encrypt(&n, b"a", b"data");
        assert!(ccm.decrypt(&n, b"b", &ct, &tag).is_err());
    }

    #[test]
    fn differs_from_gcm_output() {
        // Sanity: CCM and GCM with the same key/nonce produce different
        // ciphertexts (different counter layouts).
        let key = [0x44u8; 16];
        let n = [6u8; 12];
        let ccm = AesCcm::new_128(&key);
        let gcm = crate::AesGcm::new_128(&key);
        let (c1, _) = ccm.encrypt(&n, b"", b"0123456789abcdef");
        let (c2, _) = gcm.encrypt(&n, b"", b"0123456789abcdef");
        assert_ne!(c1, c2);
    }
}
