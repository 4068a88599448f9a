//! Test oracles: the table-driven cipher core this crate shipped before the
//! constant-time one, kept as an independent second implementation.
//!
//! * [`Aes`] — byte-wise FIPS-197 with a 256-entry S-box, forward *and*
//!   inverse cipher (nothing in production decrypts a block: GCM, CCM and
//!   CMAC only use the forward direction, so the inverse lives here).
//! * [`Ghash`] — Shoup's 4-bit-table GHASH.
//! * [`gcm_seal`] / [`ccm_seal`] — the modes composed block by block from
//!   the two, exactly as the previous `AesGcm` / `AesCcm` did, so a
//!   ciphertext or tag that differs from the one a parent commit would
//!   have stored fails a test.
//!
//! Secret-indexed tables are fine here: this module is `#[cfg(test)]`.

use crate::aes::KeySize;

/// Forward S-box (FIPS-197 Figure 7).
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, derived from [`SBOX`] at first use.
fn inv_sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

/// Round constants for the key schedule.
const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

#[inline]
fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let mut r = b << 1;
    if hi != 0 {
        r ^= 0x1b;
    }
    r
}

/// Multiply two elements of GF(2^8) with the AES polynomial.
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES key: the byte-wise reference, both directions.
pub(crate) struct Aes {
    round_keys: Vec<[u8; 16]>,
    rounds: usize,
}

impl Aes {
    /// Expand a 16-byte key (AES-128).
    pub(crate) fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, KeySize::Aes128)
    }

    /// Expand a 32-byte key (AES-256).
    pub(crate) fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, KeySize::Aes256)
    }

    /// Expand a key of either supported size.
    ///
    /// # Panics
    /// Panics if `key.len()` does not match `size`.
    pub(crate) fn expand(key: &[u8], size: KeySize) -> Self {
        let (nk, rounds) = match size {
            KeySize::Aes128 => (4usize, 10usize),
            KeySize::Aes256 => (8usize, 14usize),
        };
        assert_eq!(key.len(), nk * 4, "AES key length mismatch");
        let total_words = 4 * (rounds + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for t in &mut temp {
                    *t = SBOX[*t as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let mut round_keys = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            round_keys.push(rk);
        }
        Self { round_keys, rounds }
    }

    /// Encrypt a single 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Decrypt a single 16-byte block in place.
    pub(crate) fn decrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[self.rounds]);
        for r in (1..self.rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_keys[0]);
    }

    /// Encrypt a copy of the block and return it (convenience for CTR/GCM).
    pub(crate) fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for b in state.iter_mut() {
        *b = inv[*b as usize];
    }
}

/// State layout: state[4*c + r] is row r, column c (column-major, FIPS-197).
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (= right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = state[13];
    state[13] = state[9];
    state[9] = state[5];
    state[5] = state[1];
    state[1] = t;
    // Row 2: shift right by 2 (same as left by 2).
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = state[3];
    state[3] = state[7];
    state[7] = state[11];
    state[11] = state[15];
    state[15] = t;
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a0 = col[0];
        let a1 = col[1];
        let a2 = col[2];
        let a3 = col[3];
        col[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        col[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        col[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        col[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = &mut state[4 * c..4 * c + 4];
        let a0 = col[0];
        let a1 = col[1];
        let a2 = col[2];
        let a3 = col[3];
        col[0] = gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^ gmul(a3, 0x09);
        col[1] = gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^ gmul(a3, 0x0d);
        col[2] = gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^ gmul(a3, 0x0b);
        col[3] = gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^ gmul(a3, 0x0e);
    }
}

/// Block-at-a-time CTR with the same counter convention as
/// [`crate::Aes::ctr_xor`] (last four bytes big-endian, wrapping).
pub(crate) fn ctr_xor(aes: &Aes, counter_block: &[u8; 16], start: u32, data: &mut [u8]) {
    let mut counter = *counter_block;
    let mut ctr_val = start;
    for chunk in data.chunks_mut(16) {
        counter[12..16].copy_from_slice(&ctr_val.to_be_bytes());
        let ks = aes.encrypt_block_copy(&counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr_val = ctr_val.wrapping_add(1);
    }
}

/// GHASH key table (Shoup's 4-bit method): 32 secret-indexed table lookups
/// per block.
pub(crate) struct Ghash {
    /// table[i] = (i as 4-bit poly) * H in GF(2^128).
    table: [[u64; 2]; 16],
}

impl Ghash {
    pub(crate) fn new(h: [u8; 16]) -> Self {
        let h_hi = u64::from_be_bytes(h[..8].try_into().unwrap());
        let h_lo = u64::from_be_bytes(h[8..].try_into().unwrap());
        let mut table = [[0u64; 2]; 16];
        // table[8] = H (bit 0 of the nibble is the MSB-first convention).
        table[8] = [h_hi, h_lo];
        // table[4] = H * x, table[2] = H * x^2, table[1] = H * x^3.
        let mut i = 4;
        while i >= 1 {
            let [prev_hi, prev_lo] = table[i * 2];
            let carry = prev_lo & 1;
            let mut hi = prev_hi >> 1;
            let lo = (prev_lo >> 1) | (prev_hi << 63);
            if carry != 0 {
                hi ^= 0xe100_0000_0000_0000;
            }
            table[i] = [hi, lo];
            i /= 2;
        }
        // Remaining entries by XOR combination.
        let mut i = 2;
        while i < 16 {
            for j in 1..i {
                table[i + j] = [table[i][0] ^ table[j][0], table[i][1] ^ table[j][1]];
            }
            i *= 2;
        }
        Self { table }
    }

    /// Multiply `x` by H in GF(2^128) (the GCM polynomial, MSB-first).
    fn mul(&self, x: [u8; 16]) -> [u8; 16] {
        // Reduction table for the low 4 bits shifted out on each nibble step:
        // R[i] = i * 0xE1 << 56, per Shoup's method with 4-bit windows.
        const R: [u64; 16] = [
            0x0000_0000_0000_0000,
            0x1c20_0000_0000_0000,
            0x3840_0000_0000_0000,
            0x2460_0000_0000_0000,
            0x7080_0000_0000_0000,
            0x6ca0_0000_0000_0000,
            0x48c0_0000_0000_0000,
            0x54e0_0000_0000_0000,
            0xe100_0000_0000_0000,
            0xfd20_0000_0000_0000,
            0xd940_0000_0000_0000,
            0xc560_0000_0000_0000,
            0x9180_0000_0000_0000,
            0x8da0_0000_0000_0000,
            0xa9c0_0000_0000_0000,
            0xb5e0_0000_0000_0000,
        ];
        let mut z_hi = 0u64;
        let mut z_lo = 0u64;
        // Process nibbles from the last byte's low nibble to the first
        // byte's high nibble; no shift precedes the very first nibble.
        let mut first = true;
        for i in (0..16).rev() {
            for &nib in &[x[i] & 0x0f, x[i] >> 4] {
                if !first {
                    // z = z * x^4 with reduction of the 4 bits shifted out.
                    let rem = (z_lo & 0x0f) as usize;
                    z_lo = (z_lo >> 4) | (z_hi << 60);
                    z_hi >>= 4;
                    z_hi ^= R[rem];
                }
                first = false;
                let [t_hi, t_lo] = self.table[nib as usize];
                z_hi ^= t_hi;
                z_lo ^= t_lo;
            }
        }
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&z_hi.to_be_bytes());
        out[8..].copy_from_slice(&z_lo.to_be_bytes());
        out
    }

    fn update(&self, y: &mut [u8; 16], data: &[u8]) {
        for chunk in data.chunks(16) {
            for (i, b) in chunk.iter().enumerate() {
                y[i] ^= b;
            }
            *y = self.mul(*y);
        }
    }

    /// `GHASH_H(aad ‖ pad ‖ ciphertext ‖ pad ‖ len(aad) ‖ len(ciphertext))`.
    pub(crate) fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut y = [0u8; 16];
        self.update(&mut y, aad);
        self.update(&mut y, ciphertext);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
        self.update(&mut y, &len_block);
        y
    }
}

/// AES-GCM seal, one block at a time: `data` becomes ciphertext, the tag
/// is returned.
pub(crate) fn gcm_seal(aes: &Aes, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
    let ghash = Ghash::new(aes.encrypt_block_copy(&[0u8; 16]));
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(nonce);
    j0[15] = 1;
    ctr_xor(aes, &j0, 2, data);
    let mut tag = ghash.ghash(aad, data);
    for (t, e) in tag.iter_mut().zip(aes.encrypt_block_copy(&j0)) {
        *t ^= e;
    }
    tag
}

/// AES-CCM seal in this crate's profile (L = 3, 16-byte tag, the 12th nonce
/// byte folded into the AAD header), CBC-MAC pass then CTR pass.
pub(crate) fn ccm_seal(aes: &Aes, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
    let mut x = [0u8; 16];
    x[0] = (1 << 6) | (7 << 3) | 2;
    x[1..12].copy_from_slice(&nonce[..11]);
    x[13..16].copy_from_slice(&(data.len() as u32).to_be_bytes()[1..4]);
    aes.encrypt_block(&mut x);
    let mut header = ((aad.len() + 1) as u16).to_be_bytes().to_vec();
    header.push(nonce[11]);
    header.extend_from_slice(aad);
    for chunk in header.chunks(16).chain(data.chunks(16)) {
        for (i, b) in chunk.iter().enumerate() {
            x[i] ^= b;
        }
        aes.encrypt_block(&mut x);
    }
    let mut a0 = [0u8; 16];
    a0[0] = 2;
    a0[1..12].copy_from_slice(&nonce[..11]);
    ctr_xor(aes, &a0, 1, data);
    for (t, e) in x.iter_mut().zip(aes.encrypt_block_copy(&a0)) {
        *t ^= e;
    }
    x
}

/// Deterministic byte source for the differential tests (SplitMix64).
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub(crate) fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
    }

    /// Uniform-enough value in `0..n`.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, to_hex};

    /// FIPS-197 Appendix C.1 and C.3, both directions: the oracle has to be
    /// right on its own before anything is compared against it.
    #[test]
    fn fips197_vectors_both_directions() {
        let key = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let plain = "00112233445566778899aabbccddeeff";
        for (aes, cipher) in [
            (
                Aes::expand(&key[..16], KeySize::Aes128),
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
            (
                Aes::expand(&key, KeySize::Aes256),
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ] {
            let mut block: [u8; 16] = hex(plain).try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(to_hex(&block), cipher);
            aes.decrypt_block(&mut block);
            assert_eq!(to_hex(&block), plain);
        }
    }

    /// NIST GCM test case 4 (60-byte plaintext, 20-byte AAD) on the oracle.
    #[test]
    fn gcm_seal_nist_case_4() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let mut data = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let tag = gcm_seal(&Aes::new_128(&key), &nonce, &aad, &mut data);
        assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
        assert!(to_hex(&data).starts_with("42831ec2217774244b7221b784d0d49c"));
    }
}
