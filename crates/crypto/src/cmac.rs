//! AES-CMAC (NIST SP 800-38B, RFC 4493).
//!
//! Real Intel SGX derives its key hierarchy with AES-128 CMAC (`EGETKEY`
//! uses a CMAC-based KDF); the simulator mirrors that in [`crate::kdf`].

use crate::aes::Aes;
use crate::xor_in_place;

/// AES-128 CMAC context.
pub struct Cmac {
    aes: Aes,
    k1: [u8; 16],
    k2: [u8; 16],
}

/// Double a 128-bit big-endian value in GF(2¹²⁸) (SP 800-38B subkey
/// generation): shift left by one bit and, if a bit fell off the top, fold
/// it back in as `0x87` — by mask, not by branch: the value is secret.
fn dbl(b: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (b[i] << 1) | carry;
        carry = b[i] >> 7;
    }
    out[15] ^= 0x87 & carry.wrapping_neg();
    out
}

impl Cmac {
    /// Build a CMAC context from an AES-128 key.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let aes = Aes::new_128(key);
        let k1 = dbl(&aes.encrypt_block_copy(&[0u8; 16]));
        let k2 = dbl(&k1);
        Self { aes, k1, k2 }
    }

    /// Compute the CMAC of `msg`.
    #[must_use]
    pub fn mac(&self, msg: &[u8]) -> [u8; 16] {
        let n_blocks = msg.len().div_ceil(16).max(1);
        let complete = msg.len() == n_blocks * 16 && !msg.is_empty();
        let mut x = [0u8; 16];
        // All blocks but the last.
        for block in msg[..(n_blocks - 1) * 16].chunks_exact(16) {
            xor_in_place(&mut x, block);
            self.aes.encrypt_block(&mut x);
        }
        // Last block, masked with K1 (complete) or padded and masked with K2.
        let mut last = [0u8; 16];
        let tail = &msg[(n_blocks - 1) * 16..];
        if complete {
            last.copy_from_slice(tail);
            xor_in_place(&mut last, &self.k1);
        } else {
            last[..tail.len()].copy_from_slice(tail);
            last[tail.len()] = 0x80;
            xor_in_place(&mut last, &self.k2);
        }
        xor_in_place(&mut x, &last);
        self.aes.encrypt_block(&mut x);
        x
    }

    /// One-shot CMAC with a fresh key schedule.
    #[must_use]
    pub fn mac_with_key(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
        Self::new(key).mac(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, to_hex};

    fn rfc_key() -> [u8; 16] {
        hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap()
    }

    /// RFC 4493 example 1: empty message.
    #[test]
    fn rfc4493_empty() {
        let mac = Cmac::mac_with_key(&rfc_key(), b"");
        assert_eq!(to_hex(&mac), "bb1d6929e95937287fa37d129b756746");
    }

    /// RFC 4493 example 2: 16-byte message.
    #[test]
    fn rfc4493_one_block() {
        let msg = hex("6bc1bee22e409f96e93d7e117393172a");
        let mac = Cmac::mac_with_key(&rfc_key(), &msg);
        assert_eq!(to_hex(&mac), "070a16b46b4d4144f79bdd9dd04a287c");
    }

    /// RFC 4493 example 3: 40-byte message (partial final block).
    #[test]
    fn rfc4493_forty_bytes() {
        let msg = hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411",
        );
        let mac = Cmac::mac_with_key(&rfc_key(), &msg);
        assert_eq!(to_hex(&mac), "dfa66747de9ae63030ca32611497c827");
    }

    /// RFC 4493 example 4: 64-byte message (all complete blocks).
    #[test]
    fn rfc4493_four_blocks() {
        let msg = hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let mac = Cmac::mac_with_key(&rfc_key(), &msg);
        assert_eq!(to_hex(&mac), "51f0bebf7e3b9d92fc49741779363cfe");
    }

    #[test]
    fn message_sensitivity() {
        let c = Cmac::new(&[5u8; 16]);
        assert_ne!(c.mac(b"a"), c.mac(b"b"));
        assert_ne!(c.mac(b""), c.mac(b"\0"));
        // A message of 15 zero bytes differs from 16 zero bytes.
        assert_ne!(c.mac(&[0u8; 15]), c.mac(&[0u8; 16]));
    }
}
