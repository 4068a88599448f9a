//! Hostile module bytes at the serving gate (DESIGN.md §12's "harder to
//! break" aim, applied to the Wasm front end).
//!
//! A tenant's `.wasm` bytes are the least trusted input Twine takes: the
//! shard that opens a session decodes, validates and compiles them inside
//! the enclave. This battery takes the 30 PolyBench kernel binaries,
//! damages them with seeded bit flips, byte splices and truncations, and
//! serves every mutant on a one-shard service beside a healthy co-tenant:
//! open the session, then call its exports under a small fuel budget.
//! Each case must end in `Ok` or a typed `TwineError` — never a panic —
//! and the co-tenant must keep answering with its exact running state.
//!
//! The outcome is pinned too: one FNV-1a digest folds in every case's
//! verdict (opened, `ModuleError::Decode`, `ModuleError::Validate`, or
//! another typed error) and the stack code and register code
//! (`CompiledModule::funcs` and `reg`) of every mutant that compiles, so a
//! front-end refactor that changes what is refused or what is emitted —
//! dead code included — fails here.
//!
//! Resource bound of the harness: the seed binaries declare a memory
//! maximum (`min + SEED_GROWTH_PAGES`), and a mutant that no longer bounds
//! its memory to `MEM_CAP_PAGES` (or declares a table above
//! `TABLE_CAP`) is still decoded, validated and compiled under the same
//! no-panic check, but not instantiated: Wasm lets a module grow to 4 GiB,
//! and the service would commit that memory for real.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use twine_core::{ShardedService, TwineBuilder, TwineError};
use twine_polybench::{all_kernels, Scale};
use twine_wasm::module::ImportDesc;
use twine_wasm::types::{Limits, Value};
use twine_wasm::{CompiledModule, ModuleError};

/// Mutated modules served.
const CASES: u64 = 6000;
/// Fuel per invocation: enough to get into every kernel's loops, small
/// enough that a mutant spinning forever stops quickly.
const FUEL: u64 = 20_000;
/// Memory growth the seed binaries allow beyond their initial size.
const SEED_GROWTH_PAGES: u32 = 16;
/// Largest memory (64 KiB pages) a mutant may declare and still be served.
const MEM_CAP_PAGES: u32 = 256;
/// Largest table a mutant may declare and still be served.
const TABLE_CAP: u32 = 4096;
/// FNV-1a digest of every case's verdict and emitted code (module docs).
const GOLDEN_DIGEST: u64 = 0xf45d_8844_cece_f26f;

const CO_TENANT_SRC: &str = "
    int acc;
    int step(int x) {
        acc = acc * 31 + x;
        return acc;
    }
";

/// SplitMix64: a seeded, dependency-free mutation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The 30 kernels at `Scale::Mini`, each with its memory given a maximum.
fn seeds() -> Vec<Vec<u8>> {
    all_kernels(Scale::Mini)
        .iter()
        .map(|k| {
            let wasm = twine_minicc::compile_to_bytes(&k.source).expect("kernel compiles");
            let mut m = twine_wasm::decode::decode(&wasm).expect("kernel decodes");
            if let Some(mem) = m.memory.as_mut() {
                mem.max = Some(mem.min + SEED_GROWTH_PAGES);
            }
            twine_wasm::encode::encode(&m)
        })
        .collect()
}

/// One seeded mutation of `seeds[case % 30]`: bit flips, a splice of bytes
/// from another seed (in place or changing the length), or a truncation.
fn mutate(seeds: &[Vec<u8>], case: u64, rng: &mut Rng) -> (Vec<u8>, String) {
    let mut b = seeds[case as usize % seeds.len()].clone();
    match rng.below(8) {
        0..=4 => {
            let flips = 1 + rng.below(2) * rng.below(4);
            for _ in 0..flips {
                let at = rng.below(b.len());
                b[at] ^= 1 << rng.below(8);
            }
            (b, format!("{flips} bit flips"))
        }
        5 | 6 => {
            let src = &seeds[rng.below(seeds.len())];
            let from = rng.below(src.len());
            let len = (1 + rng.below(16)).min(src.len() - from);
            let at = rng.below(b.len());
            let cut = if rng.below(2) == 0 { len } else { rng.below(16) }.min(b.len() - at);
            b.splice(at..at + cut, src[from..from + len].iter().copied());
            (b, format!("splice {len} bytes over {cut} at {at}"))
        }
        _ => {
            let keep = rng.below(b.len());
            b.truncate(keep);
            (b, format!("truncate to {keep}"))
        }
    }
}

/// A 64-bit FNV-1a hasher that `write!` can feed without building the
/// rendered string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// The verdict class of a failed open or compile.
fn verdict(e: &ModuleError) -> &'static str {
    match e {
        ModuleError::Decode(_) => "decode",
        ModuleError::Validate(_) => "validate",
        ModuleError::Instantiate(_) => "instantiate",
    }
}

/// Whether the service may instantiate this mutant within the harness's
/// memory bound (see the module docs).
fn within_resource_bound(wasm: &[u8]) -> bool {
    let Ok(m) = twine_wasm::decode::decode(wasm) else {
        return true; // the gate rejects it before allocating anything
    };
    let mut mems: Vec<Limits> = m.memory.into_iter().collect();
    let mut tables: Vec<Limits> = m.table.into_iter().collect();
    for i in &m.imports {
        match i.desc {
            ImportDesc::Memory(l) => mems.push(l),
            ImportDesc::Table(l) => tables.push(l),
            _ => {}
        }
    }
    mems.iter().all(|l| l.max.is_some_and(|max| max <= MEM_CAP_PAGES))
        && tables.iter().all(|l| l.min <= TABLE_CAP)
}

/// Serve one mutant: open it, call its exports, close it. Returns the
/// open's error if it did not open. Every error on the way is a typed
/// [`TwineError`] by construction; only a panic fails the case.
fn serve(svc: &ShardedService, name: &str, wasm: &[u8]) -> Result<(), TwineError> {
    svc.open_session(name, wasm)?;
    for export in ["init", "kernel", "checksum"] {
        let _ = svc.invoke(name, export, &[]);
    }
    svc.close_session(name).expect("an open session closes");
    Ok(())
}

/// A module of one `[] -> []` function whose body is `code`.
fn one_func_module(code: &[u8]) -> Vec<u8> {
    fn leb(out: &mut Vec<u8>, mut v: usize) {
        while v >= 0x80 {
            out.push((v & 0x7F) as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut body = vec![0]; // no locals
    body.extend_from_slice(code);
    body.push(0x0B);
    let mut section = vec![1];
    leb(&mut section, body.len());
    section.extend_from_slice(&body);
    let mut bytes = b"\0asm\x01\0\0\0".to_vec();
    bytes.extend_from_slice(&[1, 4, 1, 0x60, 0, 0, 3, 2, 1, 0, 10]);
    leb(&mut bytes, section.len());
    bytes.extend_from_slice(&section);
    bytes
}

/// Modules whose declared sizes would have the decoder reserve gigabytes or
/// recurse once per nesting level are refused with a decode error, and the
/// co-tenant keeps its state.
#[test]
fn forged_sizes_and_nesting_are_decode_errors_at_the_serving_gate() {
    let svc = TwineBuilder::new().fuel(FUEL).build_sharded(1);
    let co = twine_minicc::compile_to_bytes(CO_TENANT_SRC).expect("co-tenant compiles");
    svc.open_session("co-tenant", &co).expect("co-tenant opens");
    assert_eq!(svc.invoke("co-tenant", "step", &[Value::I32(5)]).unwrap(), [Value::I32(5)]);

    // A br_table declaring u32::MAX targets.
    let table = one_func_module(&[0x41, 0, 0x0E, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    // An element segment declaring u32::MAX function indices.
    let mut elems = b"\0asm\x01\0\0\0".to_vec();
    elems.extend_from_slice(&[9, 10, 1, 0, 0x41, 0, 0x0B, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    // 10 000 nested blocks in a 30 KB module.
    let mut code = [0x02, 0x40].repeat(10_000);
    code.extend([0x0B; 10_000]);
    let nested = one_func_module(&code);
    for (name, wasm) in [("br-table-count", table), ("elem-count", elems), ("nested", nested)] {
        match svc.open_session(name, &wasm) {
            Err(TwineError::Module(ModuleError::Decode(_))) => {}
            other => panic!("{name}: {other:?}"),
        }
    }
    assert_eq!(svc.invoke("co-tenant", "step", &[Value::I32(1)]).unwrap(), [Value::I32(5 * 31 + 1)]);
}

#[test]
fn mutated_kernels_never_panic_the_serving_gate() {
    let seeds = seeds();
    let svc = TwineBuilder::new().fuel(FUEL).build_sharded(1);
    let co = twine_minicc::compile_to_bytes(CO_TENANT_SRC).expect("co-tenant compiles");
    svc.open_session("co-tenant", &co).expect("co-tenant opens");
    let mut acc: i32 = 0;
    let mut co_tenant_failures: Vec<String> = Vec::new();
    let mut check_co_tenant = |x: i32| {
        acc = acc.wrapping_mul(31).wrapping_add(x);
        match svc.invoke("co-tenant", "step", &[Value::I32(x)]) {
            Ok(v) if v == [Value::I32(acc)] => {}
            other => co_tenant_failures.push(format!("step({x}) = {other:?}, want {acc}")),
        }
    };

    let mut rng = Rng(0x7477_696e_6521);
    let mut panics: Vec<String> = Vec::new();
    let (mut opened, mut capped) = (0u64, 0u64);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    for case in 0..CASES {
        let (wasm, what) = mutate(&seeds, case, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let compiled = CompiledModule::from_bytes(&wasm);
            if let Ok(cm) = &compiled {
                write!(digest, "{:?}{:?}", cm.funcs, cm.reg).unwrap();
            }
            let v = if within_resource_bound(&wasm) {
                match serve(&svc, &format!("mutant-{case}"), &wasm) {
                    Ok(()) => {
                        opened += 1;
                        "opened"
                    }
                    Err(TwineError::Module(e)) => verdict(&e),
                    Err(_) => "other",
                }
            } else {
                capped += 1;
                compiled.as_ref().map_or_else(verdict, |_| "capped")
            };
            write!(digest, "{case}:{v};").unwrap();
        }));
        if let Err(p) = outcome {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            panics.push(format!("case {case} ({what}): {msg}"));
        }
        if case % 100 == 0 {
            check_co_tenant(case as i32);
        }
    }
    check_co_tenant(-1);
    eprintln!("{CASES} mutants: {opened} opened, {capped} over the resource bound");
    assert!(
        panics.is_empty(),
        "{} of {CASES} mutants panicked; first: {:#?}",
        panics.len(),
        &panics[..panics.len().min(5)]
    );
    assert!(co_tenant_failures.is_empty(), "co-tenant stopped answering: {co_tenant_failures:#?}");
    assert!(opened >= CASES / 10, "too few mutants got past the gate to exercise execution");
    assert_eq!(digest.0, GOLDEN_DIGEST, "verdicts or emitted code changed: digest now {:#018x}", digest.0);
}
