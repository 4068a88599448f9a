//! The four database execution stacks of Figures 4–6, with virtual-time
//! accounting.
//!
//! Methodology (DESIGN.md §4): a workload runs for real on the Rust engine
//! through the variant's *actual* storage stack (protected FS encryption,
//! enclave boundary costs, EPC pressure are all real or modelled events on
//! the variant's clock). The pure-compute portion of the measured wall time
//! is then scaled by the variant's Wasm factor. Virtual time =
//! `compute_real × factor + clock_cycles / CPU_HZ`.

use std::sync::Arc;
use std::time::Instant;

use twine_core::PfsBackend;
use twine_pfs::{PfsCategory, PfsMode, PfsProfiler};
use twine_sgx::clock::CPU_HZ;
use twine_sgx::{Enclave, EnclaveBuilder, Processor, SgxMode, SimClock};
use twine_sqldb::backend_vfs::BackendVfs;
use twine_sqldb::vfs::MemVfs;
use twine_sqldb::{Connection, DbResult};

use crate::model::{db_compute_factor, ExecMode};
use crate::pfs_vfs::LklVfs;

/// Which stack runs the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbVariant {
    /// Plain native process (the paper's baseline, = 1).
    Native,
    /// Wasm runtime outside any enclave.
    Wamr,
    /// Twine: Wasm inside SGX; file I/O through the protected FS.
    Twine,
    /// SGX-LKL-style library OS: native code inside SGX over a disk image.
    SgxLkl,
}

impl DbVariant {
    /// All four, in the paper's plotting order.
    #[must_use]
    pub fn all() -> [DbVariant; 4] {
        [DbVariant::Native, DbVariant::SgxLkl, DbVariant::Wamr, DbVariant::Twine]
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DbVariant::Native => "native",
            DbVariant::Wamr => "wamr",
            DbVariant::Twine => "twine",
            DbVariant::SgxLkl => "sgx-lkl",
        }
    }

    fn exec_mode(self) -> ExecMode {
        match self {
            DbVariant::Native | DbVariant::SgxLkl => ExecMode::Native,
            DbVariant::Wamr => ExecMode::WamrAot,
            DbVariant::Twine => ExecMode::TwineAot,
        }
    }
}

/// In-memory vs persisted database (the paper's "mem." vs "file" series).
///
/// Both are the same pager — page cache and rollback journal — over a
/// different file stack. `Memory` is a fresh `MemVfs`, which charges
/// nothing for I/O, and so is the Native and WAMR `File` stack: their
/// "mem." and "file" series run the same code and differ only by noise.
/// Twine's and SGX-LKL's `File` stacks add the protected FS or the disk
/// image. The page hook charges EPC touches the same way for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbStorage {
    /// Records live in (enclave) memory only, on a fresh `MemVfs`.
    Memory,
    /// Records persisted through the variant's file stack.
    File,
}

/// Per-measurement report.
#[derive(Debug, Clone, Copy)]
pub struct VariantReport {
    /// Virtual seconds (the number the figures plot).
    pub virtual_seconds: f64,
    /// Real wall seconds of the run (diagnostics).
    pub real_seconds: f64,
    /// Modelled + real cycles charged to the variant clock.
    pub clock_cycles: u64,
    /// EPC faults during the run (Figure 5 cliffs).
    pub epc_faults: u64,
}

/// A database connection wired into one variant's stack.
pub struct VariantDb {
    /// The connection (run any workload through it).
    pub conn: Connection,
    variant: DbVariant,
    clock: SimClock,
    enclave: Option<Arc<Enclave>>,
    profiler: Option<PfsProfiler>,
    compute_factor: f64,
}

impl VariantDb {
    /// Build the stack. `sgx_mode` selects HW vs SW mode (Figure 6);
    /// `pfs_mode` selects stock vs optimised protected FS (Figure 7 and the
    /// §V-D "enhanced IPFS" results).
    #[must_use]
    pub fn open(
        variant: DbVariant,
        storage: DbStorage,
        sgx_mode: SgxMode,
        pfs_mode: PfsMode,
    ) -> Self {
        Self::open_with_epc(variant, storage, sgx_mode, pfs_mode, None)
    }

    /// Like [`Self::open`], with an explicit usable-EPC limit in pages
    /// (the Figure 5 harness shrinks the EPC so the paging cliff appears at
    /// laptop-scale database sizes; see EXPERIMENTS.md).
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn open_with_epc(
        variant: DbVariant,
        storage: DbStorage,
        sgx_mode: SgxMode,
        pfs_mode: PfsMode,
        epc_limit_pages: Option<usize>,
    ) -> Self {
        let processor = Processor::new(1);
        let (enclave, clock) = match variant {
            DbVariant::Twine => {
                let mut b = EnclaveBuilder::new(twine_core::runtime::TWINE_RUNTIME_IMAGE)
                    .mode(sgx_mode)
                    .heap_bytes(200 << 20);
                if let Some(p) = epc_limit_pages {
                    b = b.epc_limit_pages(p);
                }
                let e = Arc::new(b.build(&processor));
                let c = e.clock().clone();
                c.reset(); // launch cost reported separately (Table III)
                (Some(e), c)
            }
            DbVariant::SgxLkl => {
                // SGX-LKL's enclave is much heavier (libOS + disk image in
                // RAM, Table IIIb) and its guest OS consumes EPC headroom.
                let mut b = EnclaveBuilder::new(&vec![0x4Cu8; 79 * 1024 * 1024 / 100])
                    .mode(sgx_mode)
                    .heap_bytes(255 << 20);
                if let Some(p) = epc_limit_pages {
                    b = b.epc_limit_pages(p);
                }
                let e = Arc::new(b.build(&processor));
                let c = e.clock().clone();
                c.reset();
                // The libOS working set occupies part of the EPC before the
                // database sees any of it.
                let epc = e.epc();
                for p in 0..6_000u64 {
                    epc.touch((1 << 50) + p);
                }
                c.reset();
                (Some(e), c)
            }
            DbVariant::Native | DbVariant::Wamr => (None, SimClock::new()),
        };

        let profiler = match (&enclave, variant) {
            (Some(_), DbVariant::Twine) => Some(PfsProfiler::with_weights(
                clock.clone(),
                PfsProfiler::sgx_hardware_weights(),
            )),
            _ => None,
        };

        let mut conn = match (variant, storage) {
            (_, DbStorage::Memory) => Connection::open_memory(),
            (DbVariant::Native | DbVariant::Wamr, DbStorage::File) => {
                Connection::open(Box::new(MemVfs::new()), "bench.db").expect("open mem vfs")
            }
            (DbVariant::Twine, DbStorage::File) => {
                // The adapter the serving plane's DB sessions use.
                let backend = PfsBackend::new(enclave.clone(), pfs_mode, 48, profiler.clone());
                let vfs = BackendVfs::new(Box::new(backend));
                Connection::open(Box::new(vfs), "bench.db").expect("open pfs vfs")
            }
            (DbVariant::SgxLkl, DbStorage::File) => {
                let vfs = LklVfs::new(enclave.clone().expect("lkl enclave"));
                Connection::open(Box::new(vfs), "bench.db").expect("open lkl vfs")
            }
        };

        // Inside an enclave the database's page cache (and for in-memory
        // databases, the records themselves) consume EPC pages.
        if let Some(e) = &enclave {
            let epc = e.epc();
            conn.set_page_hook(Some(Box::new(move |page, _write| {
                epc.touch(u64::from(page));
            })));
        }

        Self {
            conn,
            variant,
            clock,
            enclave,
            profiler,
            compute_factor: db_compute_factor(variant.exec_mode()),
        }
    }

    /// The variant.
    #[must_use]
    pub fn variant(&self) -> DbVariant {
        self.variant
    }

    /// The PFS profiler, when the stack has one (Twine file).
    #[must_use]
    pub fn profiler(&self) -> Option<&PfsProfiler> {
        self.profiler.as_ref()
    }

    /// Run a workload and account its virtual time.
    pub fn run<R>(
        &mut self,
        f: impl FnOnce(&mut Connection) -> DbResult<R>,
    ) -> DbResult<(R, VariantReport)> {
        let cycles_before = self.clock.cycles();
        let pfs_real_before = self.pfs_real_cycles();
        let epc_before = self
            .enclave
            .as_ref()
            .map_or(0, |e| e.epc().stats().faults);
        let wall = Instant::now();
        let out = f(&mut self.conn)?;
        let real_seconds = wall.elapsed().as_secs_f64();
        let clock_cycles = self.clock.cycles() - cycles_before;
        // Separate the real time already charged to the clock by the PFS
        // (crypto/memset/copies) from pure database compute.
        let pfs_real_cycles = self.pfs_real_cycles() - pfs_real_before;
        let pfs_real_seconds = pfs_real_cycles as f64 / CPU_HZ as f64;
        let compute_real = (real_seconds - pfs_real_seconds).max(0.0);
        let virtual_seconds =
            compute_real * self.compute_factor + clock_cycles as f64 / CPU_HZ as f64;
        let epc_faults = self
            .enclave
            .as_ref()
            .map_or(0, |e| e.epc().stats().faults)
            - epc_before;
        Ok((
            out,
            VariantReport {
                virtual_seconds,
                real_seconds,
                clock_cycles,
                epc_faults,
            },
        ))
    }

    fn pfs_real_cycles(&self) -> u64 {
        // Raw (unweighted) measurements: this is the share of *wall time*
        // the PFS consumed, subtracted from the compute-scaling base.
        self.profiler.as_ref().map_or(0, |p| {
            let s = p.raw_snapshot();
            s.get(PfsCategory::Memset) + s.get(PfsCategory::Crypto) + s.get(PfsCategory::ReadOps)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twine_sqldb::speedtest;

    fn workload(db: &mut Connection, rows: u32) -> DbResult<()> {
        speedtest::micro_setup(db)?;
        speedtest::micro_insert(db, rows, 256)?;
        speedtest::micro_sequential_read(db)?;
        Ok(())
    }

    #[test]
    fn all_variants_run_the_same_workload() {
        for variant in DbVariant::all() {
            for storage in [DbStorage::Memory, DbStorage::File] {
                let mut v = VariantDb::open(variant, storage, SgxMode::Hardware, PfsMode::Intel);
                let (_, report) = v.run(|db| workload(db, 100)).unwrap();
                assert!(
                    report.virtual_seconds > 0.0,
                    "{:?}/{storage:?}",
                    variant
                );
            }
        }
    }

    #[test]
    fn variant_ordering_holds_for_file_storage() {
        // A workload large enough that virtual-time differences dominate
        // wall-clock measurement noise between the separate runs.
        let mut results = Vec::new();
        for variant in [DbVariant::Native, DbVariant::Wamr, DbVariant::Twine] {
            let mut v =
                VariantDb::open(variant, DbStorage::File, SgxMode::Hardware, PfsMode::Intel);
            let (_, report) = v.run(|db| workload(db, 1_500)).unwrap();
            results.push((variant, report.virtual_seconds));
        }
        // Wall-clock noise under parallel test execution can be large, so
        // only the coarse (multi-×-factor) orderings are asserted here; the
        // tight wamr-vs-twine comparison is exercised by the figure
        // harnesses at benchmark scale.
        assert!(
            results[1].1 > results[0].1 * 1.5,
            "expected wamr well above native, got {results:?}"
        );
        assert!(
            results[2].1 > results[0].1 * 1.5,
            "expected twine well above native, got {results:?}"
        );
    }

    #[test]
    fn twine_file_charges_enclave_costs() {
        let mut v = VariantDb::open(
            DbVariant::Twine,
            DbStorage::File,
            SgxMode::Hardware,
            PfsMode::Intel,
        );
        let (_, report) = v.run(|db| workload(db, 200)).unwrap();
        assert!(report.clock_cycles > 0, "ocall/crypto cycles charged");
    }

    #[test]
    fn sw_mode_disables_sgx_memory_protection_costs() {
        // Deterministic comparison: a tiny EPC forces paging in hardware
        // mode; simulation mode charges none (Figure 6's contrast). Real-
        // time crypto measurements are excluded (they are noisy in debug).
        let mut hw = VariantDb::open_with_epc(
            DbVariant::Twine,
            DbStorage::File,
            SgxMode::Hardware,
            PfsMode::Intel,
            Some(64),
        );
        let (_, hw_report) = hw.run(|db| workload(db, 300)).unwrap();
        let mut sw = VariantDb::open_with_epc(
            DbVariant::Twine,
            DbStorage::File,
            SgxMode::Simulation,
            PfsMode::Intel,
            Some(64),
        );
        let (_, sw_report) = sw.run(|db| workload(db, 300)).unwrap();
        assert!(hw_report.epc_faults > 0, "hw must page against a 256 KiB EPC");
        assert_eq!(sw_report.epc_faults, 0, "sw mode never charges paging");
    }
}
