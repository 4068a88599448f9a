//! Known-answer tests pinning the hand-rolled primitives to published
//! NIST/RFC vectors — not just to their own round-trips.
//!
//! Sources:
//! * SHA-256 — FIPS 180-4 examples (NIST CSRC "SHA256.pdf") + SHAVS.
//! * HMAC-SHA-256 — RFC 4231 test cases 1–4, 6, 7.
//! * AES-128/256 ECB — FIPS 197 appendix C; SP 800-38A F.1.1/F.1.2.
//! * AES-CMAC — SP 800-38B appendix D / RFC 4493.
//! * AES-GCM — the McGrew & Viega GCM validation vectors (test cases
//!   1–4, 13, 14), as used by SP 800-38D validation suites.
//! * AES-CCM — the crate's CCM uses a fixed N=11+fold layout no published
//!   vector covers; see the `ccm` module below for how it is pinned.

use twine_crypto::{hex, to_hex};

mod sha256 {
    use super::*;
    use twine_crypto::Sha256;

    #[test]
    fn fips180_empty_message() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips180_abc() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips180_two_block_message() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips180_896_bit_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                    ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            to_hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn shavs_million_a_streamed() {
        // Streamed in uneven chunks so the buffering path is exercised too.
        let mut h = Sha256::new();
        let chunk = [b'a'; 997];
        let mut fed = 0usize;
        while fed < 1_000_000 {
            let n = chunk.len().min(1_000_000 - fed);
            h.update(&chunk[..n]);
            fed += n;
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}

mod hmac_sha256 {
    use super::*;
    use twine_crypto::HmacSha256;

    #[test]
    fn rfc4231_case_1() {
        let mac = HmacSha256::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let mac = HmacSha256::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key = hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
        let mac = HmacSha256::mac(&key, &[0xcd; 50]);
        assert_eq!(
            to_hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_key_longer_than_block() {
        let mac = HmacSha256::mac(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_key_and_data_longer_than_block() {
        let mac = HmacSha256::mac(
            &[0xaa; 131],
            &b"This is a test using a larger than block-size key and a larger \
               than block-size data. The key needs to be hashed before being \
               used by the HMAC algorithm."[..],
        );
        assert_eq!(
            to_hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = HmacSha256::new(b"Jefe");
        h.update(b"what do ya want ");
        h.update(b"for nothing?");
        assert_eq!(
            to_hex(&h.finalize()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }
}

mod aes_ecb {
    use super::*;
    use twine_crypto::Aes;

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let aes = Aes::new_256(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(to_hex(&block), "8ea2b7ca516745bfeafc49904b496089");
    }

    #[test]
    fn sp800_38a_f11_ecb_aes128_all_four_blocks() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let aes = Aes::new_128(&key);
        let vectors = [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ];
        for (pt, ct) in vectors {
            let block: [u8; 16] = hex(pt).try_into().unwrap();
            assert_eq!(to_hex(&aes.encrypt_block_copy(&block)), ct, "pt={pt}");
        }
    }
}

mod cmac {
    use super::*;
    use twine_crypto::Cmac;

    fn nist_key() -> [u8; 16] {
        hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap()
    }

    #[test]
    fn sp800_38b_d1_empty() {
        assert_eq!(
            to_hex(&Cmac::mac_with_key(&nist_key(), b"")),
            "bb1d6929e95937287fa37d129b756746"
        );
    }

    #[test]
    fn sp800_38b_d1_one_block() {
        let msg = hex("6bc1bee22e409f96e93d7e117393172a");
        assert_eq!(
            to_hex(&Cmac::mac_with_key(&nist_key(), &msg)),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
    }

    #[test]
    fn sp800_38b_d1_forty_bytes() {
        let msg = hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411",
        );
        assert_eq!(
            to_hex(&Cmac::mac_with_key(&nist_key(), &msg)),
            "dfa66747de9ae63030ca32611497c827"
        );
    }

    #[test]
    fn sp800_38b_d1_four_blocks() {
        let msg = hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        assert_eq!(
            to_hex(&Cmac::mac_with_key(&nist_key(), &msg)),
            "51f0bebf7e3b9d92fc49741779363cfe"
        );
    }

    #[test]
    fn context_reuse_matches_static() {
        let cmac = Cmac::new(&nist_key());
        let msg = hex("6bc1bee22e409f96e93d7e117393172a");
        assert_eq!(cmac.mac(&msg), Cmac::mac_with_key(&nist_key(), &msg));
    }
}

mod gcm {
    use super::*;
    use twine_crypto::AesGcm;

    #[test]
    fn mcgrew_viega_case_1_empty() {
        let gcm = AesGcm::new_128(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(to_hex(&tag), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn mcgrew_viega_case_2_one_zero_block() {
        let gcm = AesGcm::new_128(&[0u8; 16]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(to_hex(&ct), "0388dace60b6a392f328c2b971b2fe78");
        assert_eq!(to_hex(&tag), "ab6e47d42cec13bdf53a67b21257bddf");
        // And the decrypt direction against the same published vector.
        let pt = gcm
            .decrypt(&[0u8; 12], b"", &ct, &tag)
            .expect("valid tag must verify");
        assert_eq!(pt, vec![0u8; 16]);
    }

    #[test]
    fn mcgrew_viega_case_3_four_blocks_no_aad() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm::new_128(&key);
        let (ct, tag) = gcm.encrypt(&nonce, b"", &pt);
        assert_eq!(
            to_hex(&ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
        );
        assert_eq!(to_hex(&tag), "4d5c2af327cd64a62cf35abd2ba6fab4");
    }

    #[test]
    fn mcgrew_viega_case_4_with_aad() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let gcm = AesGcm::new_128(&key);
        let (ct, tag) = gcm.encrypt(&nonce, &aad, &pt);
        assert_eq!(
            to_hex(&ct),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        );
        assert_eq!(to_hex(&tag), "5bc94fbc3221a5db94fae95ae7121a47");
        // Tampering with the AAD must invalidate the published tag.
        let mut bad_aad = aad.clone();
        bad_aad[0] ^= 1;
        assert!(gcm.decrypt(&nonce, &bad_aad, &ct, &tag).is_err());
    }

    #[test]
    fn mcgrew_viega_case_13_and_14_aes256() {
        let gcm = AesGcm::new_256(&[0u8; 32]);
        let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(to_hex(&tag), "530f8afbc74536b9a963b4f1c4cb738b");

        let (ct, tag) = gcm.encrypt(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(to_hex(&ct), "cea7403d4d606b6e074ec5d3baf39d18");
        assert_eq!(to_hex(&tag), "d0d1c8a799996bf0265b98b5d48ab919");
    }
}

mod ccm {
    //! `AesCcm` fixes its parameters for 4 KiB protected-FS nodes: Tlen=16,
    //! q=3, and an effective nonce of `api_nonce[..11] || 0x00` with the
    //! 12th API-nonce byte folded into the AAD. No published CCM vector
    //! uses that exact shape, so it cannot be pinned to an RFC table the
    //! way the other primitives are. Instead this module pins it twice:
    //!
    //! 1. against an *independent straight-line SP 800-38C derivation*
    //!    built here from the crate's `Aes` — which the `aes_ecb` module
    //!    above pins to FIPS 197 / SP 800-38A published vectors; and
    //! 2. against a fixed regression vector so any future change to the
    //!    construction is caught even if both sides changed together.

    use super::*;
    use twine_crypto::{Aes, AesCcm};

    /// Independent SP 800-38C generation-encryption with n=12, q=3, t=16.
    /// Written from the spec text (B0/counter formatting, CBC-MAC over
    /// B0 ‖ encoded-AAD ‖ padded payload, CTR encryption, tag = T ⊕ S0).
    fn ccm_reference(key: &[u8; 16], n12: &[u8; 12], aad: &[u8], pt: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let aes = Aes::new_128(key);
        // B0: flags ‖ N ‖ Q.  flags = Adata<<6 | ((t-2)/2)<<3 | (q-1).
        let mut b0 = [0u8; 16];
        b0[0] = (u8::from(!aad.is_empty()) << 6) | (((16 - 2) / 2) << 3) | (3 - 1);
        b0[1..13].copy_from_slice(n12);
        b0[13..16].copy_from_slice(&(pt.len() as u32).to_be_bytes()[1..4]);

        // CBC-MAC over B0, the 2-byte-length-prefixed AAD (zero padded),
        // then the zero-padded payload.
        let mut x = [0u8; 16];
        let absorb = |x: &mut [u8; 16], block: &[u8]| {
            for (i, b) in block.iter().enumerate() {
                x[i] ^= b;
            }
            aes.encrypt_block(x);
        };
        absorb(&mut x, &b0);
        if !aad.is_empty() {
            let mut a = Vec::with_capacity(2 + aad.len());
            a.extend_from_slice(&(aad.len() as u16).to_be_bytes());
            a.extend_from_slice(aad);
            while a.len() % 16 != 0 {
                a.push(0);
            }
            for block in a.chunks(16) {
                absorb(&mut x, block);
            }
        }
        let mut p = pt.to_vec();
        while !p.len().is_multiple_of(16) {
            p.push(0);
        }
        for block in p.chunks(16) {
            absorb(&mut x, block);
        }
        let t = x;

        // CTR blocks: flags = q-1 ‖ N ‖ counter.
        let ctr = |i: u32| {
            let mut a = [0u8; 16];
            a[0] = 3 - 1;
            a[1..13].copy_from_slice(n12);
            a[13..16].copy_from_slice(&i.to_be_bytes()[1..4]);
            aes.encrypt_block_copy(&a)
        };
        let mut ct = pt.to_vec();
        for (bi, chunk) in ct.chunks_mut(16).enumerate() {
            let ks = ctr(bi as u32 + 1);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        let s0 = ctr(0);
        let mut tag = [0u8; 16];
        for i in 0..16 {
            tag[i] = t[i] ^ s0[i];
        }
        (ct, tag)
    }

    /// Map an API call onto the reference: effective N = nonce[..11]‖0x00,
    /// effective AAD = nonce[11] ‖ aad.
    fn api_as_reference(key: &[u8; 16], nonce: &[u8; 12], aad: &[u8], pt: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let mut n12 = [0u8; 12];
        n12[..11].copy_from_slice(&nonce[..11]);
        let mut folded = Vec::with_capacity(1 + aad.len());
        folded.push(nonce[11]);
        folded.extend_from_slice(aad);
        ccm_reference(key, &n12, &folded, pt)
    }

    #[test]
    fn matches_independent_sp800_38c_derivation() {
        let key: [u8; 16] = hex("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf").try_into().unwrap();
        let ccm = AesCcm::new_128(&key);
        let cases: [(&[u8], usize); 5] = [
            (b"", 0),
            (b"", 23),
            (b"node-aad", 16),
            (b"merkle-node-header", 4096),
            (b"a", 31),
        ];
        for (aad, len) in cases {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let nonce: [u8; 12] = std::array::from_fn(|i| (7 * i + 3) as u8);
            let (ct, tag) = ccm.encrypt(&nonce, aad, &pt);
            let (rct, rtag) = api_as_reference(&key, &nonce, aad, &pt);
            assert_eq!(to_hex(&ct), to_hex(&rct), "aad={aad:?} len={len}");
            assert_eq!(to_hex(&tag), to_hex(&rtag), "aad={aad:?} len={len}");
            assert_eq!(ccm.decrypt(&nonce, aad, &ct, &tag).unwrap(), pt);
        }
    }

    #[test]
    fn regression_pin() {
        // Fixed vector produced by the (spec-derived, AES-KAT-anchored)
        // reference above; guards the construction against silent change.
        let key: [u8; 16] = hex("c0c1c2c3c4c5c6c7c8c9cacbcccdcecf").try_into().unwrap();
        let nonce: [u8; 12] = hex("00000003020100a0a1a2a3a4a5").as_slice()[..12]
            .try_into()
            .unwrap();
        let pt = hex("08090a0b0c0d0e0f101112131415161718191a1b1c1d1e");
        let ccm = AesCcm::new_128(&key);
        let (ct, tag) = ccm.encrypt(&nonce, b"0001020304050607", &pt);
        let (rct, rtag) = api_as_reference(&key, &nonce, b"0001020304050607", &pt);
        assert_eq!(to_hex(&ct), to_hex(&rct));
        assert_eq!(to_hex(&tag), to_hex(&rtag));
        assert_eq!(to_hex(&ct), "d77be8e043c6518a2dad05a94ea6c76d9ef1e653353e72");
        assert_eq!(to_hex(&tag), "9b37692371d369e1fa08518fa459f361");
    }
}
