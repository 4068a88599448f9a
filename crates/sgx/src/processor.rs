//! A simulated SGX-capable processor.
//!
//! Each physical processor has a secret key fused in its die from which the
//! whole SGX key hierarchy is derived (§III-A). The simulator models a
//! processor as an identifier plus a deterministic 256-bit root key, so two
//! distinct simulated machines derive unrelated sealing keys — reproducing
//! the paper's observation that an IPFS file key "generated by a specific
//! enclave in a given processor cannot be regenerated elsewhere" (§IV-E).
//!
//! The root key is folded and its CMAC expanded once, in
//! [`Processor::new`] (a [`KeyDeriver`]): each 128-bit derivation after
//! that — a protected file's key at every database-session connect, a
//! durable record's key, an enclave's sealing key at build — is one CMAC
//! over the request, with the outputs of
//! [`derive_key_128`](twine_crypto::kdf::derive_key_128).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use twine_crypto::kdf::{derive_key_256, KeyDeriver, KeyName};
use twine_crypto::sha256::Sha256;

/// A simulated processor with a fused root key.
#[derive(Clone)]
pub struct Processor {
    id: u64,
    root_key: [u8; 32],
    /// `root_key`, prepared for 128-bit derivations.
    deriver: KeyDeriver,
}

impl Processor {
    /// Create processor `id` with a deterministic root key (reproducible
    /// benchmarks; a real fuse would be random).
    #[must_use]
    pub fn new(id: u64) -> Self {
        let mut h = Sha256::new();
        h.update(b"twine-sgx-sim processor root key v1");
        h.update(&id.to_le_bytes());
        let root_key = h.finalize();
        Self {
            id,
            root_key,
            deriver: KeyDeriver::new(&root_key),
        }
    }

    /// Processor identity (the simulator's stand-in for the EPID/DCAP
    /// platform identity).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Derive a 128-bit key for an enclave on this processor (`EGETKEY`).
    #[must_use]
    pub fn derive_key_128(&self, name: KeyName, measurement: &[u8; 32], extra: &[u8]) -> [u8; 16] {
        self.deriver.derive_128(name, measurement, extra)
    }

    /// Derive a 256-bit key for an enclave on this processor.
    #[must_use]
    pub fn derive_key_256(&self, name: KeyName, measurement: &[u8; 32], extra: &[u8]) -> [u8; 32] {
        derive_key_256(&self.root_key, name, measurement, extra)
    }

    /// The provisioning key anchoring remote attestation. Shared with the
    /// attestation service at manufacturing time (EPID analogue).
    #[must_use]
    pub fn provisioning_key(&self) -> [u8; 32] {
        self.derive_key_256(KeyName::Provision, &[0u8; 32], b"platform")
    }
}

/// Platform monotonic counters (the SGX `sgx_create_monotonic_counter`
/// family): non-volatile, trusted counters that survive enclave restarts.
///
/// The simulator models them as a shared map living *outside* any enclave
/// instance — clone the handle into each incarnation of a service and the
/// counters persist across a simulated crash/restart, which is exactly the
/// property anti-rollback freshness tags need: a replayed (stale) sealed
/// park image carries an old counter value and is rejected by
/// `TwineService::recover()`.
#[derive(Clone, Default)]
pub struct MonotonicCounters {
    inner: Arc<Mutex<HashMap<[u8; 32], u64>>>,
}

impl MonotonicCounters {
    /// A fresh, empty counter bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `id` and return the new value (first bump → 1).
    pub fn bump(&self, id: &[u8; 32]) -> u64 {
        let mut map = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let v = map.entry(*id).or_insert(0);
        *v += 1;
        *v
    }

    /// Read counter `id` without incrementing (0 if never bumped).
    #[must_use]
    pub fn peek(&self, id: &[u8; 32]) -> u64 {
        let map = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.get(id).copied().unwrap_or(0)
    }

    /// Drop counter `id` (the session it protected is gone).
    pub fn remove(&self, id: &[u8; 32]) {
        let mut map = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.remove(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twine_crypto::kdf::derive_key_128;

    #[test]
    fn monotonic_counters_survive_cloning() {
        let bank = MonotonicCounters::new();
        let id = [7u8; 32];
        assert_eq!(bank.peek(&id), 0);
        assert_eq!(bank.bump(&id), 1);
        assert_eq!(bank.bump(&id), 2);
        // A clone (the "restarted enclave") sees the same values.
        let restarted = bank.clone();
        assert_eq!(restarted.peek(&id), 2);
        assert_eq!(restarted.bump(&id), 3);
        assert_eq!(bank.peek(&id), 3);
        bank.remove(&id);
        assert_eq!(restarted.peek(&id), 0);
    }

    #[test]
    fn deterministic_per_id() {
        let a1 = Processor::new(1);
        let a2 = Processor::new(1);
        let b = Processor::new(2);
        let m = [3u8; 32];
        assert_eq!(
            a1.derive_key_128(KeyName::Seal, &m, b""),
            a2.derive_key_128(KeyName::Seal, &m, b"")
        );
        assert_ne!(
            a1.derive_key_128(KeyName::Seal, &m, b""),
            b.derive_key_128(KeyName::Seal, &m, b"")
        );
    }

    /// `EGETKEY` derives what the key derivation function derives from the
    /// processor's root key, whatever the processor keeps prepared: every
    /// key name, with extras of several lengths (none, under a block,
    /// across blocks, many blocks).
    #[test]
    fn derive_key_128_is_the_kdf_over_the_root_key() {
        for id in [1, 7] {
            let p = Processor::new(id);
            let m = [id as u8 ^ 0x5a; 32];
            for name in [
                KeyName::Seal,
                KeyName::Report,
                KeyName::Provision,
                KeyName::ProtectedFs,
            ] {
                for len in [0usize, 7, 41, 200] {
                    let extra: Vec<u8> = (0..len).map(|i| (i * 13 + 1) as u8).collect();
                    let root = &p.root_key;
                    assert_eq!(
                        p.derive_key_128(name, &m, &extra),
                        derive_key_128(root, name, &m, &extra)
                    );
                    assert_eq!(
                        p.derive_key_256(name, &m, &extra),
                        derive_key_256(root, name, &m, &extra)
                    );
                }
            }
        }
    }

    #[test]
    fn provisioning_key_differs_from_seal() {
        let p = Processor::new(7);
        let m = [0u8; 32];
        assert_ne!(p.provisioning_key(), p.derive_key_256(KeyName::Seal, &m, b"platform"));
    }
}
