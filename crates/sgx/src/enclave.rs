//! Enclave lifecycle, boundary crossings, and the per-enclave key facade.
//!
//! Each enclave incarnation has one sealing context, set up by
//! [`EnclaveBuilder::build`]: the sealing key (`EGETKEY` for `Seal`, the
//! measurement, `b"seal-v1"`), expanded once into an [`AesGcm`], and a
//! nonce base drawn at random (the simulator's `RDRAND`): a 32-bit tag in
//! nonce bytes 8..12 and a start for the 64-bit counter in bytes 0..8. The
//! n-th seal of the incarnation uses the base with n added to its counter,
//! so no two seals under one key share a nonce — not within an
//! incarnation, nor across incarnations of one measurement on one
//! processor (two services, or a service and its restart), which derive
//! the same key. [`Enclave::seal`] and [`Enclave::unseal`] still charge
//! one `EGETKEY` each on the virtual clock, as the Intel SDK's
//! `sgx_seal_data` issues one per blob; only the host-side emulation of
//! the derivation and the key expansion are not repeated.

use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use twine_crypto::gcm::AesGcm;
use twine_crypto::kdf::KeyName;
use twine_crypto::sha256::Sha256;

use crate::attest::Report;
use crate::clock::SimClock;
use crate::costs;
use crate::epc::{Epc, EpcHandle};
use crate::fault::{FaultKind, FaultPlan};
use crate::processor::Processor;
use crate::seal;
use crate::stripe::StripedU64;
use crate::SgxError;

/// Execution mode, mirroring the Intel SDK's hardware vs simulation builds
/// used for Figure 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SgxMode {
    /// Full protection: expensive transitions, EPC paging charges.
    Hardware,
    /// SGX "software mode": protection emulated, costs near-native.
    Simulation,
}

/// Boundary-crossing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnclaveStats {
    /// Number of ECALLs (host → enclave).
    pub ecalls: u64,
    /// Number of OCALLs (enclave → host).
    pub ocalls: u64,
    /// Bytes copied across the boundary by edge routines.
    pub boundary_bytes: u64,
}

/// Shared interior of the boundary counters: [`StripedU64`]s, so any
/// thread (any shard of a multi-threaded service) can cross the boundary
/// without locking **and without bouncing one shared cache line between
/// cores** — the PR 5 relaxed-`AtomicU64` trio sat on one line hammered
/// from every shard on every ecall/ocall, one of the serialisers behind
/// the flat wall scaling of ROADMAP open item 1. Counts are exact,
/// interleaving is not observable.
#[derive(Default)]
struct BoundaryCounters {
    ecalls: StripedU64,
    ocalls: StripedU64,
    boundary_bytes: StripedU64,
}

/// Builder for [`Enclave`].
pub struct EnclaveBuilder {
    code: Vec<u8>,
    heap_bytes: u64,
    mode: SgxMode,
    epc_limit_pages: usize,
    clock: SimClock,
    faults: Option<Arc<FaultPlan>>,
}

impl EnclaveBuilder {
    /// Start building an enclave whose binary contents are `code` (the
    /// measured pages — for Twine this is the runtime, not the Wasm app,
    /// which arrives later over a secure channel, §IV-B).
    #[must_use]
    pub fn new(code: &[u8]) -> Self {
        Self {
            code: code.to_vec(),
            heap_bytes: 16 * 1024 * 1024,
            mode: SgxMode::Hardware,
            epc_limit_pages: costs::epc_usable_pages() as usize,
            clock: SimClock::new(),
            faults: None,
        }
    }

    /// Configure the enclave heap size (drives launch cost, Table IIIa).
    #[must_use]
    pub fn heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// Select hardware or simulation mode.
    #[must_use]
    pub fn mode(mut self, mode: SgxMode) -> Self {
        self.mode = mode;
        self
    }

    /// Override the usable EPC size in pages.
    #[must_use]
    pub fn epc_limit_pages(mut self, pages: usize) -> Self {
        self.epc_limit_pages = pages;
        self
    }

    /// Use an existing clock (to share virtual time with the embedder).
    #[must_use]
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = clock;
        self
    }

    /// Install a fault-injection plan on the enclave's boundary crossings
    /// and its EPC pool (chaos testing; see [`crate::fault`]).
    #[must_use]
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Build (ECREATE + EADD/EEXTEND per page + EINIT), charging launch
    /// cycles proportional to the enclave size.
    #[must_use]
    pub fn build(self, processor: &Processor) -> Enclave {
        let mut h = Sha256::new();
        h.update(b"twine-sgx-sim MRENCLAVE v1");
        h.update(&self.code);
        h.update(&self.heap_bytes.to_le_bytes());
        let measurement = h.finalize();

        let total_bytes = self.code.len() as u64 + self.heap_bytes;
        let pages = total_bytes.div_ceil(costs::EPC_PAGE_BYTES);
        if self.mode == SgxMode::Hardware {
            self.clock
                .add_cycles(costs::ENCLAVE_INIT_CYCLES + pages * costs::PAGE_ADD_CYCLES);
        } else {
            self.clock.add_cycles(costs::ENCLAVE_INIT_CYCLES / 100);
        }

        let mut epc = Epc::new(self.epc_limit_pages, self.clock.clone());
        epc.enabled = self.mode == SgxMode::Hardware;
        let epc = EpcHandle::new(epc);
        if let Some(plan) = &self.faults {
            epc.install_faults(plan.clone());
        }
        let key = processor.derive_key_128(KeyName::Seal, &measurement, b"seal-v1");
        let sealer = Sealer {
            gcm: AesGcm::new_128(&key),
            tag: random_u64() as u32,
            next: AtomicU64::new(random_u64()),
        };
        Enclave {
            measurement,
            mode: self.mode,
            size_bytes: total_bytes,
            clock: self.clock,
            epc,
            stats: Arc::new(BoundaryCounters::default()),
            sealer,
            processor: processor.clone(),
            faults: self.faults,
        }
    }
}

/// A random 64-bit draw, the simulator's stand-in for `RDRAND`: each
/// `RandomState` hashes under fresh SipHash keys (seeded from the OS once
/// per thread, then stepped on every call).
fn random_u64() -> u64 {
    RandomState::new().hash_one(0u8)
}

/// An incarnation's sealing context (see the module docs).
struct Sealer {
    /// The sealing key, expanded.
    gcm: AesGcm,
    /// Nonce bytes 8..12, random per incarnation.
    tag: u32,
    /// The next seal's nonce counter (bytes 0..8): a random start, then
    /// one up per seal.
    next: AtomicU64,
}

/// A simulated enclave instance.
///
/// `Send + Sync`: every piece of shared mutable state (the virtual clock,
/// EPC residency, boundary counters, seal nonce counter) is atomic or
/// lock-protected, so one enclave can host sessions served from many
/// threads — the foundation of `twine-core`'s sharded service.
pub struct Enclave {
    measurement: [u8; 32],
    mode: SgxMode,
    size_bytes: u64,
    clock: SimClock,
    epc: EpcHandle,
    stats: Arc<BoundaryCounters>,
    sealer: Sealer,
    processor: Processor,
    faults: Option<Arc<FaultPlan>>,
}

impl Enclave {
    /// The enclave measurement (`MRENCLAVE`).
    #[must_use]
    pub fn measurement(&self) -> [u8; 32] {
        self.measurement
    }

    /// Execution mode.
    #[must_use]
    pub fn mode(&self) -> SgxMode {
        self.mode
    }

    /// Committed enclave size (code + heap).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// The shared virtual clock.
    #[must_use]
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The EPC handle (attach as a page sink to workloads).
    #[must_use]
    pub fn epc(&self) -> EpcHandle {
        self.epc.clone()
    }

    /// Boundary statistics.
    #[must_use]
    pub fn stats(&self) -> EnclaveStats {
        EnclaveStats {
            ecalls: self.stats.ecalls.get(),
            ocalls: self.stats.ocalls.get(),
            boundary_bytes: self.stats.boundary_bytes.get(),
        }
    }

    /// The processor hosting this enclave.
    #[must_use]
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    fn transition_cycles(&self) -> u64 {
        match self.mode {
            SgxMode::Hardware => costs::TRANSITION_CYCLES,
            SgxMode::Simulation => costs::SIM_TRANSITION_CYCLES,
        }
    }

    /// Enter the enclave, run `f`, and leave (one ECALL round trip).
    pub fn ecall<R>(&self, f: impl FnOnce() -> R) -> R {
        self.clock.add_cycles(self.transition_cycles());
        self.stats.ecalls.add(1);
        let r = f();
        self.clock.add_cycles(self.transition_cycles());
        r
    }

    /// The installed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn fire(&self, kind: FaultKind, attempt: u32) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|plan| plan.should_fire(kind, attempt))
    }

    /// Like [`ecall`](Self::ecall), but subject to an injected transient
    /// `EENTER` failure: the entry is charged (the processor got as far as
    /// the failed transition) and the trusted body **never runs**, so
    /// retrying the whole ECALL is always safe. `attempt` is the caller's
    /// retry index; see [`FaultPlan::should_fire`] for the bound.
    pub fn try_ecall<R>(&self, attempt: u32, f: impl FnOnce() -> R) -> Result<R, SgxError> {
        if self.fire(FaultKind::EcallTransient, attempt) {
            self.clock.add_cycles(2 * self.transition_cycles());
            return Err(SgxError::Fault(FaultKind::EcallTransient));
        }
        Ok(self.ecall(f))
    }

    /// Like [`ocall`](Self::ocall), but subject to an injected transient
    /// transfer failure before the untrusted body runs. Only use for
    /// idempotent transfers (the park/restore write-through paths) — never
    /// for guest-servicing OCALLs, whose results are guest-visible.
    pub fn try_ocall<R>(
        &self,
        attempt: u32,
        copied_bytes: u64,
        f: impl FnOnce() -> R,
    ) -> Result<R, SgxError> {
        if self.fire(FaultKind::OcallTransient, attempt) {
            self.clock.add_cycles(2 * self.transition_cycles());
            return Err(SgxError::Fault(FaultKind::OcallTransient));
        }
        Ok(self.ocall(copied_bytes, f))
    }

    /// Like [`seal`](Self::seal), but subject to an injected transient
    /// seal failure (no nonce is consumed on the failed attempt).
    pub fn try_seal(&self, attempt: u32, plaintext: &[u8]) -> Result<Vec<u8>, SgxError> {
        if self.fire(FaultKind::SealFail, attempt) {
            return Err(SgxError::Fault(FaultKind::SealFail));
        }
        Ok(self.seal(plaintext))
    }

    /// Like [`unseal`](Self::unseal), but subject to an injected transient
    /// read corruption: the blob fetched from untrusted memory arrives
    /// damaged and the MAC check fails. A retry re-reads the intact blob.
    pub fn try_unseal(&self, attempt: u32, blob: &[u8]) -> Result<Vec<u8>, SgxError> {
        if self.fire(FaultKind::UnsealCorrupt, attempt) {
            return Err(SgxError::Fault(FaultKind::UnsealCorrupt));
        }
        self.unseal(blob)
    }

    /// Total cycles an OCALL with `copied_bytes` of edge-routine copying
    /// will charge (for attribution by profilers).
    #[must_use]
    pub fn ocall_cost(&self, copied_bytes: u64) -> u64 {
        let copy = if self.mode == SgxMode::Hardware {
            copied_bytes / 4
        } else {
            0
        };
        2 * self.transition_cycles() + copy
    }

    /// Leave the enclave to run `f` on the untrusted side, then re-enter
    /// (one OCALL round trip). `copied_bytes` models the edge-routine copy
    /// the paper profiles in §V-F (75.9% of read time before optimisation).
    pub fn ocall<R>(&self, copied_bytes: u64, f: impl FnOnce() -> R) -> R {
        self.clock.add_cycles(self.transition_cycles());
        self.stats.ocalls.add(1);
        self.stats.boundary_bytes.add(copied_bytes);
        // Edge routine copy: ~0.12 cycles/byte amortised (rep movsb-ish) plus
        // the checking the edger8r code performs.
        if self.mode == SgxMode::Hardware {
            self.clock.add_cycles(copied_bytes / 4);
        }
        let r = f();
        self.clock.add_cycles(self.transition_cycles());
        r
    }

    /// Derive a 128-bit enclave key (`EGETKEY`).
    #[must_use]
    pub fn get_key(&self, name: KeyName, extra: &[u8]) -> [u8; 16] {
        self.clock.add_cycles(costs::EGETKEY_CYCLES);
        self.processor.derive_key_128(name, &self.measurement, extra)
    }

    /// Seal data to this enclave identity, under the incarnation's
    /// sealing context; charges one `EGETKEY`.
    #[must_use]
    pub fn seal(&self, plaintext: &[u8]) -> Vec<u8> {
        self.clock.add_cycles(costs::EGETKEY_CYCLES);
        // fetch_add hands every concurrent sealer its own counter; it wraps
        // past u64::MAX, and 2^64 seals do not come round to a used one.
        let n = self.sealer.next.fetch_add(1, Ordering::Relaxed);
        let nonce = seal::counter_nonce(n, self.sealer.tag);
        seal::seal(&self.sealer.gcm, &nonce, &self.measurement, plaintext)
    }

    /// Unseal data sealed by (this enclave, this processor) — by this
    /// incarnation or any earlier one; charges one `EGETKEY`.
    pub fn unseal(&self, blob: &[u8]) -> Result<Vec<u8>, SgxError> {
        self.clock.add_cycles(costs::EGETKEY_CYCLES);
        seal::unseal(&self.sealer.gcm, &self.measurement, blob)
    }

    /// Produce a local attestation report carrying `user_data`, MAC'd with
    /// the report key of `target_measurement` on this processor (`EREPORT`).
    #[must_use]
    pub fn report_for(&self, target_measurement: &[u8; 32], user_data: &[u8]) -> Report {
        self.clock.add_cycles(costs::EREPORT_CYCLES);
        Report::create(&self.processor, &self.measurement, target_measurement, user_data)
    }

    /// Verify a report addressed to *this* enclave (local attestation).
    pub fn verify_report(&self, report: &Report) -> Result<(), SgxError> {
        report.verify(&self.processor, &self.measurement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enclave() -> Enclave {
        EnclaveBuilder::new(b"twine runtime image").build(&Processor::new(1))
    }

    #[test]
    fn measurement_depends_on_code_and_heap() {
        let p = Processor::new(1);
        let a = EnclaveBuilder::new(b"code-a").build(&p);
        let b = EnclaveBuilder::new(b"code-b").build(&p);
        let c = EnclaveBuilder::new(b"code-a").heap_bytes(1024).build(&p);
        assert_ne!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
        let a2 = EnclaveBuilder::new(b"code-a").build(&p);
        assert_eq!(a.measurement(), a2.measurement());
    }

    #[test]
    fn launch_cost_scales_with_size() {
        let p = Processor::new(1);
        let small_clock = SimClock::new();
        let big_clock = SimClock::new();
        let _small = EnclaveBuilder::new(b"x")
            .heap_bytes(1 << 20)
            .clock(small_clock.clone())
            .build(&p);
        let _big = EnclaveBuilder::new(b"x")
            .heap_bytes(256 << 20)
            .clock(big_clock.clone())
            .build(&p);
        assert!(big_clock.cycles() > 10 * small_clock.cycles() / 2);
        assert!(big_clock.cycles() > small_clock.cycles());
    }

    #[test]
    fn ecall_round_trip_cost() {
        let e = enclave();
        let before = e.clock().cycles();
        let r = e.ecall(|| 42);
        assert_eq!(r, 42);
        assert_eq!(e.clock().cycles() - before, 13_100);
        assert_eq!(e.stats().ecalls, 1);
    }

    #[test]
    fn simulation_mode_is_cheap() {
        let p = Processor::new(1);
        let hw = EnclaveBuilder::new(b"x").build(&p);
        let sw = EnclaveBuilder::new(b"x").mode(SgxMode::Simulation).build(&p);
        let hw0 = hw.clock().cycles();
        let sw0 = sw.clock().cycles();
        hw.ecall(|| ());
        sw.ecall(|| ());
        let hw_cost = hw.clock().cycles() - hw0;
        let sw_cost = sw.clock().cycles() - sw0;
        assert!(sw_cost * 10 < hw_cost, "sw {sw_cost} vs hw {hw_cost}");
    }

    #[test]
    fn ocall_charges_copy_bytes() {
        let e = enclave();
        let before = e.clock().cycles();
        e.ocall(4096, || ());
        let cost = e.clock().cycles() - before;
        assert!(cost > 13_100, "copy adds to transition cost: {cost}");
        assert_eq!(e.stats().ocalls, 1);
        assert_eq!(e.stats().boundary_bytes, 4096);
    }

    #[test]
    fn seal_unseal_same_enclave() {
        let e = enclave();
        let blob = e.seal(b"top secret");
        assert_eq!(e.unseal(&blob).unwrap(), b"top secret");
    }

    #[test]
    fn seal_other_enclave_fails() {
        let p = Processor::new(1);
        let a = EnclaveBuilder::new(b"enclave-a").build(&p);
        let b = EnclaveBuilder::new(b"enclave-b").build(&p);
        let blob = a.seal(b"secret");
        assert!(b.unseal(&blob).is_err());
    }

    #[test]
    fn seal_other_processor_fails() {
        let a = EnclaveBuilder::new(b"same").build(&Processor::new(1));
        let b = EnclaveBuilder::new(b"same").build(&Processor::new(2));
        let blob = a.seal(b"secret");
        assert!(b.unseal(&blob).is_err());
    }

    #[test]
    fn local_attestation_between_enclaves() {
        let p = Processor::new(1);
        let app = EnclaveBuilder::new(b"app").build(&p);
        let verifier = EnclaveBuilder::new(b"verifier").build(&p);
        let report = app.report_for(&verifier.measurement(), b"hello");
        verifier.verify_report(&report).unwrap();
        // A report addressed to someone else fails verification.
        let other = EnclaveBuilder::new(b"other").build(&p);
        assert!(other.verify_report(&report).is_err());
    }

    #[test]
    fn try_paths_without_plan_never_fault() {
        let e = enclave();
        assert_eq!(e.try_ecall(0, || 7).unwrap(), 7);
        let blob = e.try_seal(0, b"x").unwrap();
        assert_eq!(e.try_unseal(0, &blob).unwrap(), b"x");
        assert_eq!(e.try_ocall(0, 16, || 9).unwrap(), 9);
        assert!(e.fault_plan().is_none());
    }

    #[test]
    fn injected_faults_fire_and_bound() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::new(11)
                .rate(FaultKind::EcallTransient, 1024)
                .rate(FaultKind::SealFail, 1024)
                .rate(FaultKind::UnsealCorrupt, 1024),
        ));
        let e = EnclaveBuilder::new(b"chaos")
            .faults(plan.clone())
            .build(&Processor::new(1));
        // Attempts below the bound fault; the body never runs.
        let mut ran = false;
        let err = e.try_ecall(0, || ran = true).unwrap_err();
        assert_eq!(err, SgxError::Fault(FaultKind::EcallTransient));
        assert!(err.is_transient());
        assert!(!ran);
        // At the bound the call goes through.
        assert_eq!(e.try_ecall(2, || 42).unwrap(), 42);
        assert!(e.try_seal(0, b"s").is_err());
        let blob = e.try_seal(2, b"s").unwrap();
        assert!(e.try_unseal(0, &blob).is_err());
        assert_eq!(e.try_unseal(2, &blob).unwrap(), b"s");
        assert!(plan.total_injected() >= 3);
    }

    #[test]
    fn failed_ecall_charges_round_trip() {
        use crate::fault::{FaultConfig, FaultKind, FaultPlan};
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::new(1).rate(FaultKind::EcallTransient, 1024),
        ));
        let e = EnclaveBuilder::new(b"chaos")
            .faults(plan)
            .build(&Processor::new(1));
        let before = e.clock().cycles();
        assert!(e.try_ecall(0, || ()).is_err());
        assert_eq!(e.clock().cycles() - before, 13_100);
    }

    #[test]
    fn epc_attached_to_clock() {
        let e = enclave();
        let before = e.clock().cycles();
        let epc = e.epc();
        for page in 0..100 {
            epc.touch(page);
        }
        assert!(e.clock().cycles() > before, "faults charge the clock");
    }
}
