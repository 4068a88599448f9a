//! Key derivation for the SGX simulator.
//!
//! Real SGX processors hold a fused root key and derive the whole key
//! hierarchy (sealing keys, report keys, provisioning keys) via `EGETKEY`,
//! an AES-CMAC based derivation over a key-request structure containing the
//! enclave measurement (`MRENCLAVE`), the signer (`MRSIGNER`), the CPU
//! security version and a key-name selector. The paper relies on this for
//! the protected file system's automatic key generation (§IV-E): "keys for
//! encrypting files \[are\] derived from the enclave signature and the
//! processor's (secret) keys", and notes the consequence that a key derived
//! on one processor cannot be regenerated elsewhere.
//!
//! The simulator reproduces that contract: derivation is deterministic in
//! (root key, key name, measurement, extra), and two simulated "processors"
//! with different root keys derive unrelated keys. A processor keeps its
//! root prepared in a [`KeyDeriver`] (folded and CMAC-expanded once), so
//! each `EGETKEY` after that is one CMAC over the request block;
//! [`derive_key_128`] is the one-shot form and derives the same keys.

use crate::cmac::Cmac;
use crate::hmac::HmacSha256;

/// Selector mirroring SGX's `KEYNAME` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyName {
    /// Sealing key: binds data to (enclave, processor).
    Seal = 0x01,
    /// Report key: MACs local attestation reports.
    Report = 0x02,
    /// Provisioning key: anchors remote attestation.
    Provision = 0x03,
    /// Protected-FS automatic file key (paper §IV-E).
    ProtectedFs = 0x04,
}

/// The processor's half of `EGETKEY`, prepared once: the 256-bit root key
/// folded into a 128-bit CMAC key (via SHA-256 — real hardware keeps
/// several independent 128-bit keys; a one-way fold is an adequate
/// stand-in and never collapses for structured root keys), and that
/// CMAC's key schedule and subkeys. A derivation is then one CMAC over the
/// request block.
#[derive(Clone)]
pub struct KeyDeriver {
    cmac: Cmac,
}

impl KeyDeriver {
    /// Fold `root_key` and expand the CMAC keyed with it.
    #[must_use]
    pub fn new(root_key: &[u8; 32]) -> Self {
        let digest = crate::sha256::Sha256::digest(root_key);
        let mut folded = [0u8; 16];
        folded.copy_from_slice(&digest[..16]);
        Self {
            cmac: Cmac::new(&folded),
        }
    }

    /// Derive a 128-bit key: AES-CMAC over the request block
    /// `name || measurement || extra`.
    #[must_use]
    pub fn derive_128(&self, name: KeyName, measurement: &[u8; 32], extra: &[u8]) -> [u8; 16] {
        let mut req = Vec::with_capacity(1 + 32 + extra.len());
        req.push(name as u8);
        req.extend_from_slice(measurement);
        req.extend_from_slice(extra);
        self.cmac.mac(&req)
    }
}

/// Derive a 128-bit key the way `EGETKEY` does: AES-CMAC over a fixed-layout
/// request block keyed with (a key folded from) the processor root key.
/// One-shot: a [`KeyDeriver`] kept for `root_key` derives the same keys
/// without folding and expanding the root again.
#[must_use]
pub fn derive_key_128(
    root_key: &[u8; 32],
    name: KeyName,
    measurement: &[u8; 32],
    extra: &[u8],
) -> [u8; 16] {
    KeyDeriver::new(root_key).derive_128(name, measurement, extra)
}

/// Derive a 256-bit key (sealing) using HMAC-SHA-256 in an HKDF-expand-like
/// single step.
#[must_use]
pub fn derive_key_256(
    root_key: &[u8; 32],
    name: KeyName,
    measurement: &[u8; 32],
    extra: &[u8],
) -> [u8; 32] {
    let mut h = HmacSha256::new(root_key);
    h.update(&[name as u8]);
    h.update(measurement);
    h.update(extra);
    h.update(&[0x01]);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT_A: [u8; 32] = [0xA5; 32];
    const ROOT_B: [u8; 32] = [0x3C; 32];
    const MEAS: [u8; 32] = [7; 32];

    #[test]
    fn deterministic() {
        let k1 = derive_key_128(&ROOT_A, KeyName::Seal, &MEAS, b"svn=1");
        let k2 = derive_key_128(&ROOT_A, KeyName::Seal, &MEAS, b"svn=1");
        assert_eq!(k1, k2);
        let s1 = derive_key_256(&ROOT_A, KeyName::Seal, &MEAS, b"");
        let s2 = derive_key_256(&ROOT_A, KeyName::Seal, &MEAS, b"");
        assert_eq!(s1, s2);
    }

    #[test]
    fn processor_bound() {
        // Paper §IV-E: a key generated by an enclave on one processor cannot
        // be regenerated elsewhere.
        let ka = derive_key_128(&ROOT_A, KeyName::ProtectedFs, &MEAS, b"");
        let kb = derive_key_128(&ROOT_B, KeyName::ProtectedFs, &MEAS, b"");
        assert_ne!(ka, kb);
    }

    #[test]
    fn enclave_bound() {
        let m2 = [8u8; 32];
        let k1 = derive_key_128(&ROOT_A, KeyName::Seal, &MEAS, b"");
        let k2 = derive_key_128(&ROOT_A, KeyName::Seal, &m2, b"");
        assert_ne!(k1, k2);
    }

    #[test]
    fn name_separation() {
        let seal = derive_key_128(&ROOT_A, KeyName::Seal, &MEAS, b"");
        let report = derive_key_128(&ROOT_A, KeyName::Report, &MEAS, b"");
        let pfs = derive_key_128(&ROOT_A, KeyName::ProtectedFs, &MEAS, b"");
        assert_ne!(seal, report);
        assert_ne!(seal, pfs);
        assert_ne!(report, pfs);
    }

    /// The derivation's outputs, pinned: every key the simulator has ever
    /// derived (sealed blobs, protected files, durable records) depends on
    /// them. Four key names × extras of 0, 7, 41 and 200 bytes.
    #[test]
    fn derive_key_128_outputs_are_pinned() {
        let mut all = Vec::new();
        for name in [
            KeyName::Seal,
            KeyName::Report,
            KeyName::Provision,
            KeyName::ProtectedFs,
        ] {
            for len in [0usize, 7, 41, 200] {
                let extra: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
                all.extend(derive_key_128(&ROOT_A, name, &MEAS, &extra));
            }
        }
        assert_eq!(
            crate::to_hex(&crate::sha256::Sha256::digest(&all)),
            "2066e7ab5227ebad77bc97282a628e2f166f4e695f842d224695645a86fc6368"
        );
        assert_eq!(
            crate::to_hex(&derive_key_128(&ROOT_B, KeyName::Seal, &MEAS, b"seal-v1")),
            "17aab18823d3d35f7a76cc1a18273a33"
        );
        assert_eq!(
            crate::to_hex(&derive_key_256(
                &ROOT_A,
                KeyName::Provision,
                &MEAS,
                b"platform"
            )),
            "11b2c18d935717e6b4fff0d8bde15f16ce82d771e8c53db1b10dcb56623c24dc"
        );
    }

    #[test]
    fn extra_separation() {
        let k1 = derive_key_128(&ROOT_A, KeyName::ProtectedFs, &MEAS, b"file-1");
        let k2 = derive_key_128(&ROOT_A, KeyName::ProtectedFs, &MEAS, b"file-2");
        assert_ne!(k1, k2);
    }
}
