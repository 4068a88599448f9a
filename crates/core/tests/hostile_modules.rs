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
//! Resource bound of the harness: the seed binaries declare a memory
//! maximum (`min + SEED_GROWTH_PAGES`), and a mutant that no longer bounds
//! its memory to `MEM_CAP_PAGES` (or declares a table above
//! `TABLE_CAP`) is still decoded, validated and compiled under the same
//! no-panic check, but not instantiated: Wasm lets a module grow to 4 GiB,
//! and the service would commit that memory for real.

use std::panic::{catch_unwind, AssertUnwindSafe};

use twine_core::{ShardedService, TwineBuilder};
use twine_polybench::{all_kernels, Scale};
use twine_wasm::module::ImportDesc;
use twine_wasm::types::{Limits, Value};
use twine_wasm::CompiledModule;

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

/// Serve one mutant: open it, call its exports, close it. Returns whether
/// it opened. Every error on the way is a typed [`TwineError`] by
/// construction; only a panic fails the case.
fn serve(svc: &ShardedService, name: &str, wasm: &[u8]) -> bool {
    if svc.open_session(name, wasm).is_err() {
        return false;
    }
    for export in ["init", "kernel", "checksum"] {
        let _ = svc.invoke(name, export, &[]);
    }
    svc.close_session(name).expect("an open session closes");
    true
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
    for case in 0..CASES {
        let (wasm, what) = mutate(&seeds, case, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if within_resource_bound(&wasm) {
                opened += u64::from(serve(&svc, &format!("mutant-{case}"), &wasm));
            } else {
                capped += 1;
                let _ = CompiledModule::from_bytes(&wasm);
            }
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
}
