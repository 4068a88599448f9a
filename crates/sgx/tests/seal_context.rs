//! What an enclave's seal is, pinned from outside the crate: AES-128-GCM
//! under the sealing key that `EGETKEY` derives for (`Seal`, the enclave's
//! measurement, `b"seal-v1"`), with the measurement as associated data,
//! laid out `nonce (12) || tag (16) || ciphertext`. And what it costs on
//! the virtual clock: one `EGETKEY` per seal and per unseal, as the Intel
//! SDK's `sgx_seal_data` / `sgx_unseal_data` issue one per blob.

use twine_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use twine_crypto::kdf::KeyName;
use twine_sgx::costs::EGETKEY_CYCLES;
use twine_sgx::{EnclaveBuilder, Processor};

#[test]
fn enclave_seal_is_gcm_under_a_freshly_derived_seal_key() {
    let processor = Processor::new(3);
    let enclave = EnclaveBuilder::new(b"seal context fixture").build(&processor);
    let m = enclave.measurement();
    let key = processor.derive_key_128(KeyName::Seal, &m, b"seal-v1");
    let gcm = AesGcm::new_128(&key);
    for len in [0usize, 1, 16, 234, 5000] {
        let plain: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        let blob = enclave.seal(&plain);
        assert_eq!(blob.len(), NONCE_LEN + TAG_LEN + len);
        let nonce: [u8; NONCE_LEN] = blob[..NONCE_LEN].try_into().unwrap();
        let (ct, tag) = gcm.encrypt(&nonce, &m, &plain);
        assert_eq!(
            blob[NONCE_LEN..NONCE_LEN + TAG_LEN],
            tag,
            "tag of a {len}-byte seal"
        );
        assert_eq!(
            blob[NONCE_LEN + TAG_LEN..],
            ct[..],
            "ciphertext of a {len}-byte seal"
        );
        assert_eq!(enclave.unseal(&blob).unwrap(), plain);
    }
}

#[test]
fn seal_and_unseal_each_charge_one_egetkey() {
    let enclave = EnclaveBuilder::new(b"seal clock fixture").build(&Processor::new(1));
    let clock = enclave.clock();
    let before = clock.cycles();
    let blob = enclave.seal(b"parked session image");
    assert_eq!(clock.cycles() - before, EGETKEY_CYCLES, "one seal");
    let before = clock.cycles();
    enclave.unseal(&blob).unwrap();
    assert_eq!(clock.cycles() - before, EGETKEY_CYCLES, "one unseal");
    let before = clock.cycles();
    let mut bad = blob.clone();
    bad[NONCE_LEN] ^= 1;
    assert!(enclave.unseal(&bad).is_err());
    assert_eq!(clock.cycles() - before, EGETKEY_CYCLES, "a refused unseal");
}

/// Two incarnations of one enclave on one processor — two services built
/// from one image, or a service and its restart — derive one sealing key,
/// so they must never seal under one nonce (GCM nonce reuse gives away the
/// XOR of the plaintexts and the authentication key). Each still unseals
/// the other's blobs: recovery reads a previous incarnation's records.
#[test]
fn incarnations_of_one_enclave_never_share_a_nonce() {
    use std::collections::HashSet;
    let processor = Processor::new(1);
    let a = EnclaveBuilder::new(b"one runtime image").build(&processor);
    let b = EnclaveBuilder::new(b"one runtime image").build(&processor);
    assert_eq!(a.measurement(), b.measurement());
    let plain = |i: usize| format!("parked session {i}").into_bytes();
    let blobs_a: Vec<Vec<u8>> = (0..1000).map(|i| a.seal(&plain(i))).collect();
    let blobs_b: Vec<Vec<u8>> = (0..1000).map(|i| b.seal(&plain(i))).collect();
    let nonces = |blobs: &[Vec<u8>]| {
        blobs
            .iter()
            .map(|blob| blob[..NONCE_LEN].to_vec())
            .collect::<HashSet<_>>()
    };
    let (na, nb) = (nonces(&blobs_a), nonces(&blobs_b));
    assert_eq!(
        (na.len(), nb.len()),
        (1000, 1000),
        "a nonce repeats within an incarnation"
    );
    assert_eq!(
        na.intersection(&nb).count(),
        0,
        "two incarnations sealed under one nonce"
    );
    for (i, (blob_a, blob_b)) in blobs_a.iter().zip(&blobs_b).enumerate() {
        assert_eq!(b.unseal(blob_a).unwrap(), plain(i));
        assert_eq!(a.unseal(blob_b).unwrap(), plain(i));
    }
}
