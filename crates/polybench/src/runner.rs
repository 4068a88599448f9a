//! Compile + execute a kernel on the Wasm engine, collecting the metered
//! instruction stream that the Figure 3 cost models consume.
//!
//! Compilation ([`compile_kernel`]) and execution ([`run_compiled`]) are
//! exposed separately so benchmarks can amortise the MiniC → Wasm → AoT
//! pipeline and time the dispatch loop alone, per execution tier.

use std::sync::Arc;

use twine_wasm::compile::CompiledModule;
use twine_wasm::lower::ExecTier;
use twine_wasm::types::{FuncType, ValType, Value};
use twine_wasm::{Instance, Linker, Meter, Trap};

use crate::kernels::Kernel;

/// A kernel compiled end-to-end (MiniC → Wasm → AoT) for one tier.
pub struct CompiledKernel {
    /// Kernel name.
    pub name: &'static str,
    /// AoT-compiled module, ready to instantiate.
    pub code: Arc<CompiledModule>,
    /// Size of the encoded `.wasm` binary.
    pub wasm_bytes: usize,
}

/// Result of one metered kernel run.
pub struct KernelRun {
    /// Kernel name.
    pub name: &'static str,
    /// Output checksum (validation).
    pub checksum: f64,
    /// Metered instruction stream of `init` + `kernel` + `checksum`.
    pub meter: Meter,
    /// Distinct 4 KiB page transitions observed (locality proxy).
    pub page_transitions: u64,
    /// Wasm linear-memory footprint in bytes.
    pub memory_bytes: usize,
    /// Size of the encoded `.wasm` binary.
    pub wasm_bytes: usize,
}

fn libm_linker() -> Linker {
    let mut linker = Linker::new();
    for (name, arity) in [("exp", 1usize), ("log", 1), ("sin", 1), ("cos", 1), ("pow", 2)] {
        let ty = FuncType::new(vec![ValType::F64; arity], vec![ValType::F64]);
        linker.func("env", name, ty, move |_ctx, args: &[Value]| {
            let xs: Vec<f64> = args.iter().map(|a| a.as_f64().unwrap_or(0.0)).collect();
            let r = match (name, xs.as_slice()) {
                ("exp", [x]) => x.exp(),
                ("log", [x]) => x.ln(),
                ("sin", [x]) => x.sin(),
                ("cos", [x]) => x.cos(),
                ("pow", [x, y]) => x.powf(*y),
                _ => return Err(Trap::Host("bad libm call".into())),
            };
            Ok(vec![Value::F64(r)])
        });
    }
    linker
}

/// Compile one kernel (MiniC → Wasm → AoT) for the given execution tier.
pub fn compile_kernel(kernel: &Kernel, tier: ExecTier) -> Result<CompiledKernel, String> {
    let wasm = twine_minicc::compile_to_bytes(&kernel.source)
        .map_err(|e| format!("{}: minicc: {e}", kernel.name))?;
    let code = CompiledModule::from_bytes_with_tier(&wasm, tier)
        .map_err(|e| format!("{}: wasm: {e}", kernel.name))?;
    Ok(CompiledKernel {
        name: kernel.name,
        code: Arc::new(code),
        wasm_bytes: wasm.len(),
    })
}

/// Instantiate and execute an already-compiled kernel (`init` + `kernel` +
/// `checksum`), collecting the metered run.
pub fn run_compiled(ck: &CompiledKernel) -> Result<KernelRun, String> {
    let mut inst = Instance::instantiate(Arc::clone(&ck.code), libm_linker(), Box::new(()))
        .map_err(|e| format!("{}: instantiate: {e}", ck.name))?;
    inst.invoke("init", &[])
        .map_err(|e| format!("{}: init: {e}", ck.name))?;
    inst.invoke("kernel", &[])
        .map_err(|e| format!("{}: kernel: {e}", ck.name))?;
    let out = inst
        .invoke("checksum", &[])
        .map_err(|e| format!("{}: checksum: {e}", ck.name))?;
    let checksum = out[0].as_f64().ok_or("checksum not f64")?;
    Ok(KernelRun {
        name: ck.name,
        checksum,
        page_transitions: inst.meter.page_transitions,
        memory_bytes: inst.memory().map_or(0, twine_wasm::Memory::size_bytes),
        meter: inst.meter.clone(),
        wasm_bytes: ck.wasm_bytes,
    })
}

/// Compile and execute one kernel end to end on the given tier.
pub fn run_kernel_tier(kernel: &Kernel, tier: ExecTier) -> Result<KernelRun, String> {
    run_compiled(&compile_kernel(kernel, tier)?)
}

/// Compile and execute one kernel end to end (default tier).
pub fn run_kernel(kernel: &Kernel) -> Result<KernelRun, String> {
    run_kernel_tier(kernel, ExecTier::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{all_kernels, Scale};

    #[test]
    fn every_kernel_runs_and_produces_finite_checksum() {
        for k in all_kernels(Scale::Mini) {
            let run = run_kernel(&k).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                run.checksum.is_finite(),
                "{}: checksum {}",
                run.name,
                run.checksum
            );
            assert!(run.meter.total() > 1000, "{}: too few instrs", run.name);
        }
    }

    #[test]
    fn checksum_deterministic() {
        let k = &all_kernels(Scale::Mini)[0];
        let a = run_kernel(k).unwrap();
        let b = run_kernel(k).unwrap();
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
        assert_eq!(a.meter.total(), b.meter.total());
    }

    #[test]
    fn tiers_agree_on_checksum_and_meter() {
        use twine_wasm::meter::InstrClass;
        // The Figure 3 methodology requires the register tier's metered
        // stream to be bit-identical to the reference interpreter's.
        for k in &all_kernels(Scale::Mini)[..4] {
            let [base, reg] =
                [ExecTier::Baseline, ExecTier::Reg].map(|tier| run_kernel_tier(k, tier).unwrap());
            assert_eq!(
                base.checksum.to_bits(),
                reg.checksum.to_bits(),
                "{}",
                k.name
            );
            for c in InstrClass::all() {
                assert_eq!(
                    base.meter.count(c),
                    reg.meter.count(c),
                    "{}: class {c:?} diverged",
                    k.name
                );
            }
            assert_eq!(base.meter.bytes_accessed, reg.meter.bytes_accessed);
            assert_eq!(base.meter.page_transitions, reg.meter.page_transitions);
        }
    }

    #[test]
    fn reg_tier_dispatches_fewer_ops() {
        let k = &all_kernels(Scale::Mini)[0];
        let base = compile_kernel(k, ExecTier::Baseline).unwrap();
        let reg = compile_kernel(k, ExecTier::Reg).unwrap();
        assert!(
            reg.code.code_size_lowered_ops() < base.code.code_size_lowered_ops(),
            "fusion should shrink the dispatched stream"
        );
    }
}
