//! AES block cipher (FIPS-197), 128- and 256-bit keys, in constant time.
//!
//! The protected file system seals every 4 KiB node through this code, so
//! its real CPU cost is most of what the benchmark harness measures below
//! the VFS (the paper's §V-C/§V-F observation; on the paper's hardware the
//! cipher is AES-NI). The core is *bitsliced* in the layout of BearSSL's
//! `aes_ct64`: the state is eight `u64` bit planes — plane `b` holds bit
//! `b` of all 64 state bytes of **four** blocks — so one pass through the
//! round function encrypts four blocks at once using only XOR/AND/NOT,
//! shifts and rotations:
//!
//! * `SubBytes` is the Boyar–Peralta 113-gate circuit evaluated on the
//!   planes (`sbox`); there is no S-box table, so no load address ever
//!   depends on key, plaintext or state;
//! * `ShiftRows`, the dearest step on bit planes, is never applied: the
//!   rounds are *fixsliced* (see `Aes::encrypt_planes`), `MixColumns` —
//!   rotations of the planes — comes in the four variants that takes;
//! * the key schedule's `SubWord` runs through the same circuit.
//!
//! A lone block costs a whole four-lane call, so the modes feed it four
//! blocks whenever the mode allows: `Aes::ctr_xor` is the CTR path shared
//! by GCM and CCM, `Aes::encrypt_blocks` lets a mode put a chained MAC
//! block and counter blocks in one call. Only the forward cipher exists:
//! GCM, CCM and CMAC never decrypt a block.

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Bitsliced state: plane `b` holds bit `b` of every state byte of four
/// blocks (see [`interleave_in`] for the bit order inside a plane).
type Planes = [u64; 8];

/// AES key size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// AES-128 (10 rounds). Used by the protected file system, matching the
    /// Intel SGX SDK's `sgx_aes_gcm_128bit_key_t`.
    Aes128,
    /// AES-256 (14 rounds). Used for sealing keys.
    Aes256,
}

/// An expanded AES key, usable for block encryption.
#[derive(Clone)]
pub struct Aes {
    /// Round keys in bitsliced form, each replicated into all four lanes;
    /// entries past `rounds` are unused.
    round_keys: [Planes; 15],
    rounds: usize,
}

impl Aes {
    /// Expand a 16-byte key (AES-128).
    #[must_use]
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, KeySize::Aes128)
    }

    /// Expand a 32-byte key (AES-256).
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, KeySize::Aes256)
    }

    /// Expand a key of either supported size.
    ///
    /// # Panics
    /// Panics if `key.len()` does not match `size`.
    #[must_use]
    pub fn expand(key: &[u8], size: KeySize) -> Self {
        let (nk, rounds) = match size {
            KeySize::Aes128 => (4usize, 10usize),
            KeySize::Aes256 => (8usize, 14usize),
        };
        assert_eq!(key.len(), nk * 4, "AES key length mismatch");
        // FIPS-197 §5.2 on little-endian words: byte 0 of a word is its low
        // byte, so RotWord is a rotate right by 8 and Rcon lands in the
        // low byte.
        let total_words = 4 * (rounds + 1);
        let mut w = [0u32; 60];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / nk - 1]);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u64; 8]; 15];
        for (j, (rk, words)) in round_keys
            .iter_mut()
            .zip(w[..total_words].chunks_exact(4))
            .enumerate()
        {
            // Round j < rounds works on a state with j ShiftRows left out
            // (see `encrypt_planes`), so its key has them undone: row r —
            // byte r of every word — comes from j·r columns to the left.
            // The last round key meets the state after it has been put
            // right.
            let undo = if j < rounds { j } else { 0 };
            let unshifted: [u32; 4] = core::array::from_fn(|c| {
                (0..4).fold(0, |word, r| {
                    word | (words[(c + 4 * undo - undo * r) % 4] & (0xFF << (8 * r)))
                })
            });
            let (lo, hi) = interleave_in(&unshifted);
            *rk = [lo, lo, lo, lo, hi, hi, hi, hi];
            ortho(rk);
        }
        Self { round_keys, rounds }
    }

    /// Encrypt a single 16-byte block in place. Costs as much as four
    /// blocks; chained modes (CMAC, CBC-MAC) have nothing else to offer it.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut lanes = [*block, [0; 16], [0; 16], [0; 16]];
        self.encrypt_blocks(&mut lanes);
        *block = lanes[0];
    }

    /// Encrypt a copy of the block and return it.
    #[must_use]
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }

    /// Encrypt four independent blocks in place with one pass through the
    /// round function.
    pub(crate) fn encrypt_blocks(&self, blocks: &mut [[u8; 16]; 4]) {
        let mut q = [0u64; 8];
        for (i, block) in blocks.iter().enumerate() {
            (q[i], q[i + 4]) = interleave_in(&le_words(block));
        }
        ortho(&mut q);
        self.encrypt_planes(&mut q);
        ortho(&mut q);
        for (i, block) in blocks.iter_mut().enumerate() {
            let w = interleave_out(q[i], q[i + 4]);
            for (dst, word) in block.chunks_exact_mut(4).zip(w) {
                dst.copy_from_slice(&word.to_le_bytes());
            }
        }
    }

    /// XOR `data` with the CTR keystream `E(block₀), E(block₁), …` where
    /// `blockᵢ` is `counter_block` with its last four bytes replaced by the
    /// big-endian `start + i` (wrapping: the `inc32` of SP 800-38D, which
    /// is also CCM's counter field for messages below 2³² blocks). Four
    /// keystream blocks per AES call.
    pub(crate) fn ctr_xor(&self, counter_block: &[u8; 16], start: u32, data: &mut [u8]) {
        let mut counter = start;
        for chunk in data.chunks_mut(64) {
            let mut keystream = [*counter_block; 4];
            for block in &mut keystream {
                block[12..].copy_from_slice(&counter.to_be_bytes());
                counter = counter.wrapping_add(1);
            }
            self.encrypt_blocks(&mut keystream);
            crate::xor_in_place(chunk, keystream.as_flattened());
        }
    }

    /// The rounds, *fixsliced* (Adomnicai and Peyrin, "Fixslicing AES-like
    /// ciphers", 2020): `ShiftRows` is the dearest step on bit planes and is
    /// never applied. Leaving it out `j` times leaves row `r` of the state
    /// `j·r` columns to the right of where it belongs; `SubBytes` does not
    /// care, `AddRoundKey` takes a key shifted the same way, and
    /// `MixColumns` reaches for the rows where they are (`mix_columns::<J>`
    /// with `J = j mod 4`, as four ShiftRows are the identity). Both key
    /// sizes stop two short of a multiple of four, which one double
    /// ShiftRows before the last key puts right.
    fn encrypt_planes(&self, q: &mut Planes) {
        let rk = &self.round_keys[..=self.rounds];
        add_round_key(q, &rk[0]);
        // Rounds 1 ..= rounds-1 in groups of four, ending on a round ≡ 1.
        let mut round = 1;
        loop {
            sbox(q);
            mix_columns::<1>(q);
            add_round_key(q, &rk[round]);
            if round + 1 == self.rounds {
                break;
            }
            sbox(q);
            mix_columns::<2>(q);
            add_round_key(q, &rk[round + 1]);
            sbox(q);
            mix_columns::<3>(q);
            add_round_key(q, &rk[round + 2]);
            sbox(q);
            mix_columns::<0>(q);
            add_round_key(q, &rk[round + 3]);
            round += 4;
        }
        sbox(q);
        shift_rows_twice(q);
        add_round_key(q, &rk[self.rounds]);
    }
}

fn le_words(block: &[u8; 16]) -> [u32; 4] {
    let mut w = [0u32; 4];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    w
}

/// `SubWord` of the key schedule, through the same circuit as `SubBytes`.
/// The circuit works on any bit position alike, so the planes need no
/// transposition here: plane `b` holds bit `b` of each byte where it
/// stands, at the bottom of its byte.
fn sub_word(x: u32) -> u32 {
    const BYTE_BOTTOMS: u64 = 0x0101_0101;
    let mut q: Planes = core::array::from_fn(|b| u64::from(x >> b) & BYTE_BOTTOMS);
    sbox(&mut q);
    (0..8).fold(0, |word, b| word | ((q[b] & BYTE_BOTTOMS) << b)) as u32
}

/// Spread the four little-endian words of one block over two `u64`s so
/// that, after [`ortho`], each plane holds the block's bytes in the order
/// `mix_columns` expects: byte `4c + r` (row `r`, column `c`) of lane `l`
/// ends up at bit `16r + 4c + l` of every plane.
#[inline(always)]
fn interleave_in(w: &[u32; 4]) -> (u64, u64) {
    let spread = |w: u32| {
        let mut x = u64::from(w);
        x |= x << 16;
        x &= 0x0000_FFFF_0000_FFFF;
        x |= x << 8;
        x & 0x00FF_00FF_00FF_00FF
    };
    (
        spread(w[0]) | (spread(w[2]) << 8),
        spread(w[1]) | (spread(w[3]) << 8),
    )
}

/// Inverse of [`interleave_in`].
#[inline(always)]
fn interleave_out(q0: u64, q1: u64) -> [u32; 4] {
    let squeeze = |q: u64| {
        let mut x = q & 0x00FF_00FF_00FF_00FF;
        x |= x >> 8;
        x &= 0x0000_FFFF_0000_FFFF;
        (x | (x >> 16)) as u32
    };
    [squeeze(q0), squeeze(q1), squeeze(q0 >> 8), squeeze(q1 >> 8)]
}

/// Bit-matrix transposition between "eight words of interleaved bytes" and
/// "eight bit planes". An involution: the same call converts back.
#[inline(always)]
fn ortho(q: &mut Planes) {
    #[inline]
    fn swap(q: &mut Planes, i: usize, j: usize, low: u64, shift: u32) {
        let (a, b) = (q[i], q[j]);
        q[i] = (a & low) | ((b & low) << shift);
        q[j] = ((a & !low) >> shift) | (b & !low);
    }
    for i in [0, 2, 4, 6] {
        swap(q, i, i + 1, 0x5555_5555_5555_5555, 1);
    }
    for i in [0, 1, 4, 5] {
        swap(q, i, i + 2, 0x3333_3333_3333_3333, 2);
    }
    for i in [0, 1, 2, 3] {
        swap(q, i, i + 4, 0x0F0F_0F0F_0F0F_0F0F, 4);
    }
}

#[inline(always)]
fn add_round_key(q: &mut Planes, rk: &Planes) {
    for (plane, k) in q.iter_mut().zip(rk) {
        *plane ^= k;
    }
}

/// `ShiftRows` applied twice: rows 1 and 3 move two columns (row 2 moves
/// four, which is none). Row `r` occupies bits `16r..16r+16` of a plane,
/// column `c` the nibble at `4c` inside it, one bit per lane.
#[inline(always)]
fn shift_rows_twice(q: &mut Planes) {
    for plane in q.iter_mut() {
        let x = *plane;
        *plane = (x & 0x0000_FFFF_0000_FFFF)
            | ((x & 0xFF00_0000_FF00_0000) >> 8)
            | ((x & 0x00FF_0000_00FF_0000) << 8);
    }
}

/// Rotate every row (16-bit field) of a plane right by `bits`, after
/// rotating the plane itself by `rows` rows: the bits that stay inside
/// their field and the bits that wrap around it are two rotations of the
/// whole plane under complementary masks.
#[inline(always)]
fn rotate_rows_and_columns<const ROWS: u32, const BITS: u32>(x: u64) -> u64 {
    if BITS == 0 {
        return x.rotate_right(16 * ROWS);
    }
    let stay = (0xFFFF >> BITS) * 0x0001_0001_0001_0001u64;
    (x.rotate_right(16 * ROWS + BITS) & stay) | (x.rotate_right(16 * ROWS + BITS - 16) & !stay)
}

/// `MixColumns` on a state with `J` ShiftRows left out: the byte that
/// belongs under row `r` in the next row sits `J` columns further right,
/// the one two rows down `2J` columns (`J = 0` is the textbook case).
#[inline(always)]
fn mix_columns<const J: u32>(q: &mut Planes) {
    // r[b] brings the next row under each row, t[b] the two after that
    // (of s = q ^ r, so one rotation fetches both); doubling in GF(2⁸)
    // moves plane b to b+1 and folds plane 7 into planes 0, 1, 3, 4 (the
    // AES polynomial 0x11b). Out = 2·(a₀ ^ a₁) ^ a₁ ^ a₂ ^ a₃.
    let r = match J {
        0 => q.map(rotate_rows_and_columns::<1, 0>),
        1 => q.map(rotate_rows_and_columns::<1, 4>),
        2 => q.map(rotate_rows_and_columns::<1, 8>),
        _ => q.map(rotate_rows_and_columns::<1, 12>),
    };
    let s: Planes = core::array::from_fn(|b| q[b] ^ r[b]);
    let t = match J {
        0 | 2 => s.map(rotate_rows_and_columns::<2, 0>),
        _ => s.map(rotate_rows_and_columns::<2, 8>),
    };
    *q = [
        s[7] ^ r[0] ^ t[0],
        s[0] ^ s[7] ^ r[1] ^ t[1],
        s[1] ^ r[2] ^ t[2],
        s[2] ^ s[7] ^ r[3] ^ t[3],
        s[3] ^ s[7] ^ r[4] ^ t[4],
        s[4] ^ r[5] ^ t[5],
        s[5] ^ r[6] ^ t[6],
        s[6] ^ r[7] ^ t[7],
    ];
}

/// The AES S-box on all 64 bytes of the state at once: the 113-gate
/// circuit of Boyar and Peralta, "A new combinational logic minimization
/// technique with applications to cryptology" (2009). The paper numbers
/// bits from the top: `x0` is bit 7 of the byte, `s0` bit 7 of the result.
#[allow(clippy::many_single_char_names, clippy::similar_names)]
#[inline(always)]
fn sbox(q: &mut Planes) {
    let [x7, x6, x5, x4, x3, x2, x1, x0] = *q;

    // Top linear transformation.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Non-linear section: inversion in GF(2⁸) via GF(2⁴) and GF(2²).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;

    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;

    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transformation.
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    *q = [s7, s6, s5, s4, s3, s2, s1, s0];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, SplitMix64};
    use crate::{hex, to_hex};

    /// The circuit against the table, every input: plane `b` of the input
    /// carries bit `b` of the byte at each of the 64 positions.
    #[test]
    fn sbox_circuit_matches_table_for_all_256_inputs() {
        for chunk in 0..4usize {
            let mut q = [0u64; 8];
            for pos in 0..64usize {
                let byte = chunk * 64 + pos;
                for (b, plane) in q.iter_mut().enumerate() {
                    *plane |= ((byte as u64 >> b) & 1) << pos;
                }
            }
            sbox(&mut q);
            for pos in 0..64usize {
                let got = (0..8).fold(0u8, |acc, b| acc | ((((q[b] >> pos) & 1) as u8) << b));
                assert_eq!(
                    got,
                    oracle::SBOX[chunk * 64 + pos],
                    "S({:#04x})",
                    chunk * 64 + pos
                );
            }
        }
    }

    #[test]
    fn ortho_and_interleave_are_invertible() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..64 {
            let q: Planes = core::array::from_fn(|_| rng.next_u64());
            let mut t = q;
            ortho(&mut t);
            assert_ne!(t, q);
            ortho(&mut t);
            assert_eq!(t, q);
            let w: [u32; 4] = core::array::from_fn(|_| rng.next_u64() as u32);
            let (lo, hi) = interleave_in(&w);
            assert_eq!(interleave_out(lo, hi), w);
        }
    }

    /// FIPS-197 Appendix C.1 example vector for AES-128; the way back is
    /// the oracle's inverse cipher (production has none).
    #[test]
    fn fips197_aes128_vector() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
        oracle::Aes::new_128(&key).decrypt_block(&mut block);
        assert_eq!(to_hex(&block), "00112233445566778899aabbccddeeff");
    }

    /// FIPS-197 Appendix C.3 example vector for AES-256.
    #[test]
    fn fips197_aes256_vector() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let aes = Aes::new_256(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "8ea2b7ca516745bfeafc49904b496089");
        oracle::Aes::new_256(&key).decrypt_block(&mut block);
        assert_eq!(to_hex(&block), "00112233445566778899aabbccddeeff");
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let key = [0x42u8; 16];
        let aes = Aes::new_128(&key);
        let inverse = oracle::Aes::new_128(&key);
        for i in 0..64u8 {
            let mut block = [i; 16];
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig, "ciphertext must differ from plaintext");
            inverse.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    /// The same random key in the core under test and in the oracle,
    /// AES-128 on even rounds and AES-256 on odd ones.
    fn random_key_pair(rng: &mut SplitMix64, round: usize) -> (Aes, oracle::Aes) {
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        let (key, size) = if round.is_multiple_of(2) {
            (&key[..16], KeySize::Aes128)
        } else {
            (&key[..], KeySize::Aes256)
        };
        (Aes::expand(key, size), oracle::Aes::expand(key, size))
    }

    /// Every lane of the four-block call, and the single-block call, agree
    /// with the byte-wise cipher on random keys of both sizes.
    #[test]
    fn blocks_match_bytewise_oracle_on_random_keys() {
        let mut rng = SplitMix64::new(0xAE5);
        for round in 0..256 {
            let (new, old) = random_key_pair(&mut rng, round);
            let mut lanes = [[0u8; 16]; 4];
            for lane in &mut lanes {
                rng.fill(lane);
            }
            let expect = lanes.map(|b| old.encrypt_block_copy(&b));
            assert_eq!(
                new.encrypt_block_copy(&lanes[0]),
                expect[0],
                "round {round}"
            );
            new.encrypt_blocks(&mut lanes);
            assert_eq!(lanes, expect, "round {round}");
        }
    }

    /// The shared CTR path against block-at-a-time CTR on the oracle, at
    /// lengths around every batch boundary, starting 16 blocks below the
    /// 32-bit counter wrap.
    #[test]
    fn ctr_xor_matches_bytewise_oracle_across_the_counter_wrap() {
        const LENS: [usize; 14] = [
            0, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 1000, 4096, 5000,
        ];
        let mut rng = SplitMix64::new(0xC7);
        for round in 0..200 {
            let (new, old) = random_key_pair(&mut rng, round);
            let mut counter_block = [0u8; 16];
            rng.fill(&mut counter_block);
            // Every length on the first few keys, then a rotating one.
            let lens: &[usize] = if round < 4 {
                &LENS
            } else {
                &LENS[round % 14..][..1]
            };
            for &len in lens {
                let mut data = vec![0u8; len];
                rng.fill(&mut data);
                let mut expect = data.clone();
                oracle::ctr_xor(&old, &counter_block, 0xffff_fff0, &mut expect);
                new.ctr_xor(&counter_block, 0xffff_fff0, &mut data);
                assert_eq!(data, expect, "round {round} len {len}");
            }
        }
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let a = Aes::new_128(&[1u8; 16]);
        let b = Aes::new_128(&[2u8; 16]);
        let block = [0u8; 16];
        assert_ne!(a.encrypt_block_copy(&block), b.encrypt_block_copy(&block));
    }

    #[test]
    #[should_panic(expected = "AES key length mismatch")]
    fn wrong_key_length_panics() {
        let _ = Aes::expand(&[0u8; 8], KeySize::Aes128);
    }
}
