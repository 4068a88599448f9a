//! Local and remote attestation (§III-A).
//!
//! Local attestation: an enclave produces a `REPORT` for a target enclave on
//! the same processor; the report is MAC'd with a key only the target (and
//! the processor) can derive.
//!
//! Remote attestation: a quoting-enclave analogue signs the report with the
//! processor's provisioning key; an [`AttestationService`] that learned the
//! provisioning keys at "manufacturing" time verifies quotes for remote
//! parties. This is the mechanism Twine's deployment model relies on to let
//! application providers ship Wasm code to a trusted enclave (§IV-C).

use std::collections::HashMap;

use twine_crypto::gcm::AesGcm;
use twine_crypto::hmac::HmacSha256;
use twine_crypto::kdf::KeyName;

use crate::processor::Processor;
use crate::seal;
use crate::SgxError;

/// Size of the user-data field in a report (matches SGX's 64 bytes).
pub const REPORT_DATA_LEN: usize = 64;

/// A local attestation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Measurement of the *reporting* enclave.
    pub measurement: [u8; 32],
    /// Measurement of the enclave the report is addressed to.
    pub target: [u8; 32],
    /// Free-form user data (e.g. a key-exchange public value).
    pub data: [u8; REPORT_DATA_LEN],
    mac: [u8; 32],
}

impl Report {
    /// Create a report (the `EREPORT` instruction analogue).
    #[must_use]
    pub fn create(
        processor: &Processor,
        own_measurement: &[u8; 32],
        target_measurement: &[u8; 32],
        user_data: &[u8],
    ) -> Self {
        let mut data = [0u8; REPORT_DATA_LEN];
        let n = user_data.len().min(REPORT_DATA_LEN);
        data[..n].copy_from_slice(&user_data[..n]);
        let mac = Self::mac(processor, own_measurement, target_measurement, &data);
        Self {
            measurement: *own_measurement,
            target: *target_measurement,
            data,
            mac,
        }
    }

    fn mac(
        processor: &Processor,
        measurement: &[u8; 32],
        target: &[u8; 32],
        data: &[u8; REPORT_DATA_LEN],
    ) -> [u8; 32] {
        // Report key: only derivable by the target enclave on this CPU.
        let key = processor.derive_key_128(KeyName::Report, target, b"report");
        let mut h = HmacSha256::new(&key);
        h.update(measurement);
        h.update(target);
        h.update(data);
        h.finalize()
    }

    /// Verify the report as the target enclave (`verifier_measurement`).
    pub fn verify(
        &self,
        processor: &Processor,
        verifier_measurement: &[u8; 32],
    ) -> Result<(), SgxError> {
        if &self.target != verifier_measurement {
            return Err(SgxError::AttestationFailed(
                "report addressed to a different enclave".into(),
            ));
        }
        let expect = Self::mac(processor, &self.measurement, &self.target, &self.data);
        if !twine_crypto::ct_eq(&expect, &self.mac) {
            return Err(SgxError::AttestationFailed("report MAC mismatch".into()));
        }
        Ok(())
    }

    /// Serialise for signing.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32 + 32 + REPORT_DATA_LEN + 32);
        v.extend_from_slice(&self.measurement);
        v.extend_from_slice(&self.target);
        v.extend_from_slice(&self.data);
        v.extend_from_slice(&self.mac);
        v
    }
}

/// A remotely-verifiable quote (quoting-enclave output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The embedded report.
    pub report: Report,
    /// Identity of the processor that produced the quote.
    pub processor_id: u64,
    signature: [u8; 32],
}

/// The remote attestation service (IAS/DCAP analogue). Knows the
/// provisioning key of every registered processor.
#[derive(Default)]
pub struct AttestationService {
    provisioning_keys: HashMap<u64, [u8; 32]>,
}

impl AttestationService {
    /// Empty service.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a processor (models key escrow at manufacturing).
    pub fn register_processor(&mut self, processor: &Processor) {
        self.provisioning_keys
            .insert(processor.id(), processor.provisioning_key());
    }

    /// Produce a quote for a report (the quoting enclave runs on
    /// `processor`; in real SGX the report would first be locally verified
    /// by the quoting enclave, which we mirror by re-MAC-ing).
    #[must_use]
    pub fn quote(processor: &Processor, report: Report) -> Quote {
        let key = processor.provisioning_key();
        let sig = HmacSha256::mac(&key, &report.to_bytes());
        Quote {
            report,
            processor_id: processor.id(),
            signature: sig,
        }
    }

    /// Wrap a secret for delivery to (any enclave on) `processor_id`,
    /// binding `aad`. This is the simulator's stand-in for the ECDH channel
    /// of the paper's Figure 1: the attestation service, having verified the
    /// quote, acts as the key-distribution anchor (see DESIGN.md).
    pub fn wrap_secret(
        &self,
        processor_id: u64,
        nonce: u64,
        aad: &[u8],
        secret: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let pk = self.provisioning_keys.get(&processor_id).ok_or_else(|| {
            SgxError::AttestationFailed(format!("unknown processor {processor_id}"))
        })?;
        let mut key = [0u8; 16];
        key.copy_from_slice(&pk[..16]);
        let nonce = seal::counter_nonce(nonce, 0);
        Ok(seal::seal(&AesGcm::new_128(&key), &nonce, aad, secret))
    }

    /// Enclave-side unwrap of a secret wrapped with [`Self::wrap_secret`].
    pub fn unwrap_secret(
        processor: &crate::processor::Processor,
        aad: &[u8],
        blob: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let pk = processor.provisioning_key();
        let mut key = [0u8; 16];
        key.copy_from_slice(&pk[..16]);
        seal::unseal(&AesGcm::new_128(&key), aad, blob)
    }

    /// Verify a quote and (optionally) the expected enclave measurement.
    pub fn verify_quote(
        &self,
        quote: &Quote,
        expected_measurement: Option<&[u8; 32]>,
    ) -> Result<(), SgxError> {
        let key = self.provisioning_keys.get(&quote.processor_id).ok_or_else(|| {
            SgxError::AttestationFailed(format!(
                "unknown processor {} (not genuine SGX)",
                quote.processor_id
            ))
        })?;
        let expect = HmacSha256::mac(key, &quote.report.to_bytes());
        if !twine_crypto::ct_eq(&expect, &quote.signature) {
            return Err(SgxError::AttestationFailed("quote signature mismatch".into()));
        }
        if let Some(m) = expected_measurement {
            if &quote.report.measurement != m {
                return Err(SgxError::AttestationFailed(
                    "enclave measurement does not match expected code".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_attestation_happy_path() {
        let p = Processor::new(1);
        let mut service = AttestationService::new();
        service.register_processor(&p);
        let enclave_meas = [7u8; 32];
        let report = Report::create(&p, &enclave_meas, &[0u8; 32], b"pubkey-bytes");
        let quote = AttestationService::quote(&p, report);
        service.verify_quote(&quote, Some(&enclave_meas)).unwrap();
        service.verify_quote(&quote, None).unwrap();
    }

    #[test]
    fn unknown_processor_rejected() {
        let p = Processor::new(99);
        let service = AttestationService::new();
        let report = Report::create(&p, &[1u8; 32], &[0u8; 32], b"");
        let quote = AttestationService::quote(&p, report);
        assert!(service.verify_quote(&quote, None).is_err());
    }

    #[test]
    fn wrong_measurement_rejected() {
        let p = Processor::new(1);
        let mut service = AttestationService::new();
        service.register_processor(&p);
        let report = Report::create(&p, &[7u8; 32], &[0u8; 32], b"");
        let quote = AttestationService::quote(&p, report);
        assert!(service.verify_quote(&quote, Some(&[8u8; 32])).is_err());
    }

    #[test]
    fn tampered_quote_rejected() {
        let p = Processor::new(1);
        let mut service = AttestationService::new();
        service.register_processor(&p);
        let report = Report::create(&p, &[7u8; 32], &[0u8; 32], b"data");
        let mut quote = AttestationService::quote(&p, report);
        quote.report.data[0] ^= 1;
        assert!(service.verify_quote(&quote, None).is_err());
    }

    #[test]
    fn report_data_truncated_to_64() {
        let p = Processor::new(1);
        let big = vec![0xAB; 200];
        let report = Report::create(&p, &[1u8; 32], &[2u8; 32], &big);
        assert_eq!(report.data, [0xAB; 64]);
    }
}
