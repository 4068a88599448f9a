//! Stored formats are pinned to what the commit before the constant-time
//! cipher core wrote (byte-wise table AES, Shoup GHASH, two-pass CCM, a
//! CMAC context rebuilt per node): a sealed node, a sealed park image and
//! a whole protected file produced by that code must still open, and the
//! same inputs must still produce the same bytes — except a sealed park
//! image, whose nonce each enclave incarnation now draws at random, so a
//! fresh seal keeps only its length and layout. The constants and the
//! files under `fixtures/` were generated by running that commit.

use twine_crypto::cmac::Cmac;
use twine_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use twine_crypto::kdf::KeyName;
use twine_crypto::sha256::Sha256;
use twine_crypto::{hex, to_hex};
use twine_pfs::{node, MemStorage, PfsMode, PfsOptions, SgxFile, UntrustedStorage, NODE_SIZE};
use twine_sgx::{EnclaveBuilder, Processor};

const NODE_KEY: [u8; 16] = [0x5a; 16];

fn node_plaintext() -> [u8; NODE_SIZE] {
    let mut plain = [0u8; NODE_SIZE];
    for (i, b) in plain.iter_mut().enumerate() {
        *b = (i * 31 % 251) as u8;
    }
    plain
}

#[test]
fn gcm_node_sealed_by_the_parent_commit_opens_and_reseals_identically() {
    let sealed: [u8; NODE_SIZE] = *include_bytes!("fixtures/parent_gcm_node.bin");
    let tag: [u8; 16] = hex("593f3ed5379a328caaa2c3f1387328f4").try_into().unwrap();

    let mut buf = sealed;
    node::decrypt_node(PfsMode::Intel, &NODE_KEY, &tag, &mut buf).expect("parent's node opens");
    assert_eq!(buf, node_plaintext());

    let new_tag = node::encrypt_node(PfsMode::Intel, &NODE_KEY, &mut buf);
    assert_eq!(new_tag, tag);
    assert_eq!(buf, sealed);
}

#[test]
fn ccm_node_and_node_key_derivation_match_the_parent_commit() {
    let mut buf = node_plaintext();
    let tag = node::encrypt_node(PfsMode::Optimised, &NODE_KEY, &mut buf);
    assert_eq!(to_hex(&tag), "42efd6f8695f48667d15837fa7efe588");
    assert_eq!(
        to_hex(&Sha256::digest(&buf)),
        "5df83e49185610193cb94296001e854a7fe9f7f8ff078194c3e16c4ba611c31c"
    );
    assert_eq!(
        to_hex(&node::derive_node_key(&Cmac::new(&[3u8; 16]), 42, 7)),
        "0cb602e5f51b41756fb1408e2d06e449"
    );
}

#[test]
fn enclave_seal_blob_of_the_parent_commit_unseals_and_reseals_under_a_fresh_nonce() {
    const BLOB: &str = "00000000000000000000000027e75649bd8088bb87d204b3134363bc5eb17aae\
                        b96afea4d2b716baae2afcb953c063c2ea9c9c2c037598143ce56ca614123df3\
                        3dcf91f1619dcc635114871aa5";
    let plain = b"parked session image, sealed by the parent commit";
    let enclave = EnclaveBuilder::new(b"fixture enclave").build(&Processor::new(7));
    assert_eq!(
        enclave.unseal(&hex(BLOB)).expect("parent's blob unseals"),
        plain
    );
    // A fresh enclave seals the same plaintext into a blob of the same
    // length and layout (nonce || tag || ciphertext, GCM under the sealing
    // key with the measurement as AAD), but under a nonce of its own: an
    // incarnation draws its nonce base at random, so it never repeats the
    // first nonce (all zero) of the incarnation that sealed `BLOB`.
    let parent = hex(BLOB);
    let fresh = enclave.seal(plain);
    assert_eq!(enclave.unseal(&fresh).expect("fresh blob unseals"), plain);
    assert_eq!(fresh.len(), parent.len());
    let m = enclave.measurement();
    let key = Processor::new(7).derive_key_128(KeyName::Seal, &m, b"seal-v1");
    let (nonce, rest) = fresh.split_at(NONCE_LEN);
    let (tag, ct) = rest.split_at(TAG_LEN);
    let opened = AesGcm::new_128(&key)
        .decrypt(nonce.try_into().unwrap(), &m, ct, tag.try_into().unwrap())
        .expect("fresh blob is GCM laid out nonce || tag || ciphertext");
    assert_eq!(opened, plain);
    assert_ne!(
        nonce,
        &parent[..NONCE_LEN],
        "a fresh enclave reused the parent's nonce"
    );
}

/// A whole protected file as the parent commit left it on untrusted
/// storage (meta node, L1, L2 and one data node; 300 bytes written, then
/// 17 rewritten): opening it walks the meta node's GCM with AAD, the CMAC
/// node-key derivation and the Merkle entries.
#[test]
fn protected_file_written_by_the_parent_commit_opens() {
    let image = include_bytes!("fixtures/parent_pfs_file.bin");
    let mut store = MemStorage::new();
    for (phys, bytes) in image.chunks_exact(NODE_SIZE).enumerate() {
        store
            .write_node(phys as u64, bytes.try_into().unwrap())
            .unwrap();
    }
    let mut expect: Vec<u8> = (0..300u32).map(|i| (i * 7 % 253) as u8).collect();
    expect[100..117].copy_from_slice(b"second generation");

    let opts = PfsOptions {
        cache_nodes: 4,
        ..PfsOptions::default()
    };
    let mut f = SgxFile::open(store, [0x21u8; 16], opts).expect("parent's file opens");
    assert_eq!(f.size(), 300);
    let mut back = vec![0u8; 300];
    assert_eq!(f.read(&mut back).unwrap(), 300);
    assert_eq!(back, expect);
}
