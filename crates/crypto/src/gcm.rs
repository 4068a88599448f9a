//! AES-GCM authenticated encryption (NIST SP 800-38D), in constant time.
//!
//! This is the cipher used by the Intel Protected File System: each 4 KiB
//! node of a protected file is sealed with AES-GCM-128, and the resulting
//! authentication tag is stored in the parent Merkle-tree node (paper §IV-D).
//!
//! GHASH multiplies in GF(2¹²⁸) without tables: a carry-less 64×64 product
//! is assembled from ordinary integer multiplications of operands masked
//! to every fourth bit, so carries die in the holes (BearSSL's
//! `ghash_ctmul64`). With the bitsliced [`Aes`] underneath, nothing in a
//! seal or an open indexes memory or branches by key, plaintext or hash
//! state; the tag comparison is [`crate::ct_eq`].

use crate::aes::Aes;
use crate::{xor_in_place, AuthError};

/// Size of the GCM authentication tag in bytes (full 128-bit tags).
pub const TAG_LEN: usize = 16;
/// Size of the recommended GCM nonce in bytes.
pub const NONCE_LEN: usize = 12;

/// A 64-bit polynomial split into four words that each keep every fourth
/// coefficient (`word[i]` has bits `i, i+4, i+8, …`).
type Strided = [u64; 4];

const STRIDE_MASK: u64 = 0x1111_1111_1111_1111;

#[inline(always)]
fn strided(x: u64) -> Strided {
    [0, 1, 2, 3].map(|i| x & (STRIDE_MASK << i))
}

/// Carry-less product of two 64-bit polynomials, low 64 bits.
///
/// In an integer product of two strided words at most 16 terms meet in
/// one bit position, so a column's carries stay inside the three-bit hole
/// above it (16 itself is only reached in the top column, where it falls
/// off the end) and masking the holes away leaves the XOR of the terms.
#[inline(always)]
fn clmul_lo(x: &Strided, y: &Strided) -> u64 {
    let column = |k: usize| {
        (x[0].wrapping_mul(y[k % 4])
            ^ x[1].wrapping_mul(y[(k + 3) % 4])
            ^ x[2].wrapping_mul(y[(k + 2) % 4])
            ^ x[3].wrapping_mul(y[(k + 1) % 4]))
            & (STRIDE_MASK << k)
    };
    column(0) | column(1) | column(2) | column(3)
}

/// The hash key `H`, prepared for [`GhashKey::mul`]: its two halves and
/// their sum (Karatsuba's middle operand), each also bit-reversed, all
/// already strided.
struct GhashKey {
    h: [Strided; 3],
    h_rev: [Strided; 3],
}

impl GhashKey {
    fn new(h: &[u8; 16]) -> Self {
        let h1 = u64::from_be_bytes(h[..8].try_into().expect("8 bytes"));
        let h0 = u64::from_be_bytes(h[8..].try_into().expect("8 bytes"));
        let h = [h0, h1, h0 ^ h1];
        Self {
            h: h.map(strided),
            h_rev: h.map(|x| strided(x.reverse_bits())),
        }
    }

    /// Multiply `y` (`[low, high]` halves of the big-endian block) by `H`
    /// in GF(2¹²⁸) with the GCM polynomial.
    #[inline(always)]
    fn mul(&self, y: [u64; 2]) -> [u64; 2] {
        // Three 64×64 → 128 carry-less products (Karatsuba). The high half
        // of each is the low half of the product of the bit-reversed
        // operands, reversed and shifted down by one.
        let y_rev = y.map(u64::reverse_bits);
        let y = [y[0], y[1], y[0] ^ y[1]].map(strided);
        let y_rev = [y_rev[0], y_rev[1], y_rev[0] ^ y_rev[1]].map(strided);
        let h = &self.h;
        let h_rev = &self.h_rev;
        let mut lo = [clmul_lo(&y[0], &h[0]), clmul_lo(&y[1], &h[1]), clmul_lo(&y[2], &h[2])];
        let mut hi = [
            clmul_lo(&y_rev[0], &h_rev[0]),
            clmul_lo(&y_rev[1], &h_rev[1]),
            clmul_lo(&y_rev[2], &h_rev[2]),
        ];
        lo[2] ^= lo[0] ^ lo[1];
        hi[2] ^= hi[0] ^ hi[1];
        let hi = hi.map(|z| z.reverse_bits() >> 1);
        // The 255-bit product, then one position up: GCM's bit order is
        // reflected, which a plain product is off from by one bit.
        let (v0, v1, v2, v3) = (lo[0], hi[0] ^ lo[2], lo[1] ^ hi[2], hi[1]);
        let v3 = (v3 << 1) | (v2 >> 63);
        let mut v2 = (v2 << 1) | (v1 >> 63);
        let mut v1 = (v1 << 1) | (v0 >> 63);
        let v0 = v0 << 1;
        // Fold the low 128 bits into the high 128 bits modulo
        // x¹²⁸ + x⁷ + x² + x + 1 (reflected).
        v2 ^= v0 ^ (v0 >> 1) ^ (v0 >> 2) ^ (v0 >> 7);
        v1 ^= (v0 << 63) ^ (v0 << 62) ^ (v0 << 57);
        let v3 = v3 ^ v1 ^ (v1 >> 1) ^ (v1 >> 2) ^ (v1 >> 7);
        v2 ^= (v1 << 63) ^ (v1 << 62) ^ (v1 << 57);
        [v2, v3]
    }

    /// Absorb `data`, zero-padded to a whole number of blocks.
    fn update(&self, y: &mut [u64; 2], data: &[u8]) {
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            self.absorb(y, block.try_into().expect("16-byte chunk"));
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 16];
            block[..tail.len()].copy_from_slice(tail);
            self.absorb(y, &block);
        }
    }

    #[inline(always)]
    fn absorb(&self, y: &mut [u64; 2], block: &[u8; 16]) {
        y[1] ^= u64::from_be_bytes(block[..8].try_into().expect("8 bytes"));
        y[0] ^= u64::from_be_bytes(block[8..].try_into().expect("8 bytes"));
        *y = self.mul(*y);
    }

    /// `GHASH_H(aad ‖ pad ‖ ciphertext ‖ pad ‖ len(aad) ‖ len(ciphertext))`.
    fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut y = [0u64; 2];
        self.update(&mut y, aad);
        self.update(&mut y, ciphertext);
        y[1] ^= (aad.len() as u64) * 8;
        y[0] ^= (ciphertext.len() as u64) * 8;
        let y = self.mul(y);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&y[1].to_be_bytes());
        out[8..].copy_from_slice(&y[0].to_be_bytes());
        out
    }
}

/// What the first AES call of a seal or an open yields. `E(0¹²⁸)` (the hash
/// key) and `E(J0)` (the tag mask) share one four-lane call with the first
/// two keystream blocks, so neither costs a call of its own.
struct Head {
    ghash: GhashKey,
    j0: [u8; 16],
    tag_mask: [u8; 16],
    /// `E(inc32(J0))`, `E(inc32²(J0))`: keystream for the first 32 bytes.
    keystream: [u8; 32],
}

/// AES-GCM context bound to one key.
pub struct AesGcm {
    aes: Aes,
}

impl AesGcm {
    /// Build a GCM context from an AES-128 key.
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self {
            aes: Aes::new_128(key),
        }
    }

    /// Build a GCM context from an AES-256 key.
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self {
            aes: Aes::new_256(key),
        }
    }

    /// Encrypt `plaintext` with `nonce` and additional authenticated data
    /// `aad`, producing ciphertext and a 16-byte tag.
    #[must_use]
    pub fn encrypt(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut ciphertext = plaintext.to_vec();
        let tag = self.encrypt_in_place(nonce, aad, &mut ciphertext);
        (ciphertext, tag)
    }

    /// Encrypt a buffer in place, returning the tag. This is the hot path of
    /// the protected file system (node flush).
    pub fn encrypt_in_place(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], data: &mut [u8]) -> [u8; TAG_LEN] {
        let head = self.head(nonce);
        self.ctr(&head, data);
        head.tag(aad, data)
    }

    /// Decrypt and verify. Returns `AuthError` on tag mismatch without
    /// revealing the (bogus) plaintext.
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

    /// Decrypt a buffer in place (verify-then-decrypt). On failure the buffer
    /// contents are left as the (unusable) ciphertext and an error returned.
    pub fn decrypt_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; TAG_LEN],
    ) -> Result<(), AuthError> {
        let head = self.head(nonce);
        if !crate::ct_eq(&head.tag(aad, data), tag) {
            return Err(AuthError);
        }
        self.ctr(&head, data);
        Ok(())
    }

    fn head(&self, nonce: &[u8; NONCE_LEN]) -> Head {
        let mut j0 = [0u8; 16];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[15] = 1;
        let mut lanes = [[0u8; 16], j0, j0, j0];
        lanes[2][15] = 2;
        lanes[3][15] = 3;
        self.aes.encrypt_blocks(&mut lanes);
        let mut keystream = [0u8; 32];
        keystream.copy_from_slice(lanes[2..].as_flattened());
        Head {
            ghash: GhashKey::new(&lanes[0]),
            j0,
            tag_mask: lanes[1],
            keystream,
        }
    }

    /// CTR-mode keystream XOR from counter value 2 (`inc32(J0)`) on.
    fn ctr(&self, head: &Head, data: &mut [u8]) {
        let (first, rest) = data.split_at_mut(data.len().min(head.keystream.len()));
        xor_in_place(first, &head.keystream);
        self.aes.ctr_xor(&head.j0, 4, rest);
    }
}

impl Head {
    /// GHASH over `aad ‖ ciphertext` with the length block, masked with `E(J0)`.
    fn tag(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut tag = self.ghash.ghash(aad, ciphertext);
        xor_in_place(&mut tag, &self.tag_mask);
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, to_hex};

    fn key128(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }
    fn nonce(s: &str) -> [u8; 12] {
        hex(s).try_into().unwrap()
    }

    /// NIST GCM test case 1: empty everything.
    #[test]
    fn nist_case_1() {
        let gcm = AesGcm::new_128(&key128("00000000000000000000000000000000"));
        let (ct, tag) = gcm.encrypt(&nonce("000000000000000000000000"), b"", b"");
        assert!(ct.is_empty());
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    /// NIST GCM test case 2: 16 zero bytes of plaintext.
    #[test]
    fn nist_case_2() {
        let gcm = AesGcm::new_128(&key128("00000000000000000000000000000000"));
        let pt = [0u8; 16];
        let (ct, tag) = gcm.encrypt(&nonce("000000000000000000000000"), b"", &pt);
        assert_eq!(to_hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
    }

    /// NIST GCM test case 3: 64-byte plaintext, no AAD.
    #[test]
    fn nist_case_3() {
        let gcm = AesGcm::new_128(&key128("feffe9928665731c6d6a8f9467308308"));
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let (ct, tag) = gcm.encrypt(&nonce("cafebabefacedbaddecaf888"), b"", &pt);
        assert_eq!(
            to_hex(&ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(to_hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
    }

    /// NIST GCM test case 4: 60-byte plaintext with AAD.
    #[test]
    fn nist_case_4() {
        let gcm = AesGcm::new_128(&key128("feffe9928665731c6d6a8f9467308308"));
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let (ct, tag) = gcm.encrypt(&nonce("cafebabefacedbaddecaf888"), &aad, &pt);
        assert_eq!(
            to_hex(&ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
    }

    #[test]
    fn roundtrip_various_lengths() {
        let gcm = AesGcm::new_128(&[7u8; 16]);
        let n = [3u8; 12];
        for len in [0usize, 1, 15, 16, 17, 100, 4096, 5000] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let aad = b"node-header";
            let (ct, tag) = gcm.encrypt(&n, aad, &pt);
            let back = gcm.decrypt(&n, aad, &ct, &tag).expect("auth ok");
            assert_eq!(back, pt, "len={len}");
        }
    }

    #[test]
    fn tamper_detected() {
        let gcm = AesGcm::new_128(&[7u8; 16]);
        let n = [3u8; 12];
        let (mut ct, tag) = gcm.encrypt(&n, b"", b"sensitive database page");
        ct[4] ^= 0x01;
        assert_eq!(gcm.decrypt(&n, b"", &ct, &tag), Err(AuthError));
    }

    #[test]
    fn wrong_aad_detected() {
        let gcm = AesGcm::new_128(&[7u8; 16]);
        let n = [3u8; 12];
        let (ct, tag) = gcm.encrypt(&n, b"aad-1", b"payload");
        assert_eq!(gcm.decrypt(&n, b"aad-2", &ct, &tag), Err(AuthError));
    }

    #[test]
    fn wrong_tag_detected() {
        let gcm = AesGcm::new_128(&[7u8; 16]);
        let n = [3u8; 12];
        let (ct, mut tag) = gcm.encrypt(&n, b"", b"payload");
        tag[0] ^= 0xff;
        assert_eq!(gcm.decrypt(&n, b"", &ct, &tag), Err(AuthError));
    }

    /// The multiplication-based GHASH against Shoup's tables: random hash
    /// keys, the AAD lengths a ragged header produces, ciphertexts that end
    /// inside a block.
    #[test]
    fn ghash_matches_shoup_oracle() {
        use crate::oracle::{Ghash, SplitMix64};
        let mut rng = SplitMix64::new(0x6A);
        for round in 0..200 {
            let mut h = [0u8; 16];
            rng.fill(&mut h);
            if round == 0 {
                h = [0xff; 16]; // every column of every product full
            }
            let new = GhashKey::new(&h);
            let old = Ghash::new(h);
            for aad_len in [0usize, 4, 16, 20, 33] {
                let mut aad = vec![0u8; aad_len];
                rng.fill(&mut aad);
                let ct_len = [0, 1, 15, 16, 17, 31, 32, 33, 100, 257][rng.below(10)];
                let mut ct = vec![0u8; ct_len];
                rng.fill(&mut ct);
                if round == 0 {
                    ct.fill(0xff);
                }
                assert_eq!(
                    new.ghash(&aad, &ct),
                    old.ghash(&aad, &ct),
                    "round {round} aad {aad_len} ct {ct_len}"
                );
            }
        }
    }

    /// Ciphertext and tag are bit-identical to what the previous
    /// (table-driven, block-at-a-time) implementation produced, for both
    /// key sizes, on random keys, nonces, AAD and lengths.
    #[test]
    fn seal_is_bit_identical_to_the_bytewise_oracle() {
        use crate::oracle::{self, SplitMix64};
        const LENS: [usize; 14] = [0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1000, 4096, 5000];
        let mut rng = SplitMix64::new(0x6C);
        for round in 0..200 {
            let mut key = [0u8; 32];
            rng.fill(&mut key);
            let (new, old) = if round % 2 == 0 {
                let k: &[u8; 16] = key[..16].try_into().unwrap();
                (AesGcm::new_128(k), oracle::Aes::new_128(k))
            } else {
                (AesGcm::new_256(&key), oracle::Aes::new_256(&key))
            };
            let mut n = [0u8; 12];
            rng.fill(&mut n);
            let mut aad = vec![0u8; [0, 4, 16, 20, 33][round % 5]];
            rng.fill(&mut aad);
            let mut data = vec![0u8; LENS[round % 14]];
            rng.fill(&mut data);
            let mut expect = data.clone();
            let expect_tag = oracle::gcm_seal(&old, &n, &aad, &mut expect);
            let tag = new.encrypt_in_place(&n, &aad, &mut data);
            assert_eq!(data, expect, "round {round}");
            assert_eq!(tag, expect_tag, "round {round}");
        }
    }

    /// Seal, open, and reject any single flipped bit of ciphertext, tag or
    /// AAD — for both key sizes, leaving the buffer as it was handed in.
    #[test]
    fn seal_open_and_flipped_bit_rejects_both_key_sizes() {
        let pt: Vec<u8> = (0..100u8).collect();
        let n = [5u8; 12];
        for gcm in [AesGcm::new_128(&[7u8; 16]), AesGcm::new_256(&[8u8; 32])] {
            let (ct, tag) = gcm.encrypt(&n, b"header", &pt);
            assert_eq!(gcm.decrypt(&n, b"header", &ct, &tag).unwrap(), pt);
            for bit in (0..ct.len() * 8).step_by(37) {
                let mut bad = ct.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let before = bad.clone();
                assert_eq!(gcm.decrypt_in_place(&n, b"header", &mut bad, &tag), Err(AuthError));
                assert_eq!(bad, before, "rejected ciphertext is left untouched");
            }
            for bit in 0..128 {
                let mut bad = tag;
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(gcm.decrypt(&n, b"header", &ct, &bad), Err(AuthError));
            }
            assert_eq!(gcm.decrypt(&n, b"heades", &ct, &tag), Err(AuthError));
        }
    }

    #[test]
    fn in_place_matches_alloc() {
        let gcm = AesGcm::new_128(&[9u8; 16]);
        let n = [1u8; 12];
        let pt = vec![0xabu8; 4096];
        let (ct, tag) = gcm.encrypt(&n, b"x", &pt);
        let mut buf = pt.clone();
        let tag2 = gcm.encrypt_in_place(&n, b"x", &mut buf);
        assert_eq!(buf, ct);
        assert_eq!(tag, tag2);
        gcm.decrypt_in_place(&n, b"x", &mut buf, &tag2).unwrap();
        assert_eq!(buf, pt);
    }
}
