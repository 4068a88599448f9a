//! Differential property tests for the memory-image fast path (DESIGN.md
//! §11): on random modules with random write patterns, across both
//! execution tiers,
//!
//! 1. `reset_to_image` (O(dirty pages)) must leave the instance
//!    bit-identical to a full `reset_to` — memory bytes, globals, table —
//!    and replaying the program afterwards must reproduce the original
//!    run exactly (results, traps, meter classes, fuel).
//! 2. `snapshot_delta` → serialize → `from_bytes` → `apply_delta` onto a
//!    fresh base-state instance must reproduce the full post-run
//!    `snapshot()` exactly, including after mid-run out-of-fuel traps (the
//!    preemption-park case) and after `memory.grow`; a `full_delta` must
//!    do the same onto an instance in any state.
//! 3. The delta parser, the one sealed Wasm image format, refuses mutated
//!    images (truncation, bit flips, a forged memory length, forged runs)
//!    or yields a delta `apply_delta` either refuses or applies within the
//!    module's declared limits — never a panic, never an allocation the
//!    image's own length does not pay for.
//! 4. A delta carries runs of changed words, not whole pages: exact run
//!    layouts for single stores, stores of the old value, page-straddling
//!    stores, writes into grown pages and nearby writes that merge.
//!
//! The generator family follows `tier_differential.rs` but adds mutable
//! globals, a function table and a two-page memory so deltas carry every
//! state component, plus a `memory.grow` arm so the resize path of
//! `apply_delta` is exercised.

use std::sync::Arc;

use proptest::prelude::*;

use twine_wasm::instr::{IBinOp, Instr, IntWidth, LoadKind, MemArg, StoreKind};
use twine_wasm::lower::ExecTier;
use twine_wasm::meter::InstrClass;
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{Instance, InstanceSnapshot, Linker, ModuleBuilder, SnapshotDelta, Trap};

const N_LOCALS: u32 = 4;
const N_GLOBALS: u32 = 2;
const ALL_TIERS: [ExecTier; 2] = [ExecTier::Baseline, ExecTier::Reg];

/// Stack-safe straight-line body over locals, globals and a two-page
/// memory. Loads and stores are masked to the initial 128 KiB so they
/// stay in bounds whether or not the grow arm fired.
fn straightline_from(choices: &[(u8, i32)]) -> Vec<Instr> {
    let mut body = Vec::new();
    let mut depth = 0usize;
    for &(sel, v) in choices {
        match sel % 16 {
            0 | 1 => {
                body.push(Instr::Const(Value::I32(v)));
                depth += 1;
            }
            2 => {
                body.push(Instr::LocalGet(v as u32 % N_LOCALS));
                depth += 1;
            }
            3 if depth >= 1 => {
                body.push(Instr::LocalSet(v as u32 % N_LOCALS));
                depth -= 1;
            }
            4 => {
                body.push(Instr::GlobalGet(v as u32 % N_GLOBALS));
                depth += 1;
            }
            5 if depth >= 1 => {
                body.push(Instr::GlobalSet(v as u32 % N_GLOBALS));
                depth -= 1;
            }
            6..=9 if depth >= 2 => {
                let ops = [
                    IBinOp::Add,
                    IBinOp::Sub,
                    IBinOp::Mul,
                    IBinOp::And,
                    IBinOp::Or,
                    IBinOp::Xor,
                ];
                body.push(Instr::IBinop(
                    IntWidth::W32,
                    ops[v as u32 as usize % ops.len()],
                ));
                depth -= 1;
            }
            10 if depth >= 1 => {
                // Masked in-bounds load from the initial two pages.
                body.push(Instr::Const(Value::I32(0x1FFF0)));
                body.push(Instr::IBinop(IntWidth::W32, IBinOp::And));
                body.push(Instr::Load(LoadKind::I32, MemArg::offset(v as u32 % 8)));
            }
            11 | 12 if depth >= 1 => {
                // Store the top of stack at a masked address — the write
                // pattern the dirty bitmap must capture exactly.
                body.push(Instr::LocalSet(3));
                body.push(Instr::Const(Value::I32(v & 0x1FFF0)));
                body.push(Instr::LocalGet(3));
                body.push(Instr::Store(StoreKind::I32, MemArg::offset(0)));
                depth -= 1;
            }
            13 if depth >= 1 => {
                body.push(Instr::ITestEqz(IntWidth::W32));
            }
            14 if depth >= 3 => {
                body.push(Instr::Select);
                depth -= 2;
            }
            15 => {
                // Grow by one Wasm page; the old size lands on the stack.
                body.push(Instr::Const(Value::I32(1)));
                body.push(Instr::MemoryGrow);
                depth += 1;
            }
            _ => {}
        }
    }
    for _ in 0..depth {
        body.push(Instr::Drop);
    }
    body
}

/// Two-page memory, two mutable globals, a table with one live element —
/// every component a `SnapshotDelta` carries is present and non-trivial.
fn build_module(body: Vec<Instr>) -> twine_wasm::Module {
    build_module_with(Limits::at_least(2), body)
}

fn build_module_with(memory: Limits, body: Vec<Instr>) -> twine_wasm::Module {
    let mut b = ModuleBuilder::new();
    b.memory(memory);
    b.table(Limits::at_least(2));
    b.add_global(ValType::I32, true, Value::I32(7));
    b.add_global(ValType::I32, true, Value::I32(-3));
    let mut full = body;
    full.push(Instr::LocalGet(1));
    let f = b.add_func(
        FuncType::new(vec![], vec![ValType::I32]),
        vec![ValType::I32; N_LOCALS as usize],
        full,
    );
    b.add_elem(0, vec![f]);
    b.export_func("f", f);
    b.build()
}

struct Run {
    result: Result<Vec<Value>, Trap>,
    counts: Vec<u64>,
    bytes_accessed: u64,
    page_transitions: u64,
    fuel_left: Option<u64>,
}

/// Invoke `f` and collect everything the virtual-time methodology can see.
fn observe(inst: &mut Instance, fuel: Option<u64>) -> Run {
    inst.meter.reset();
    inst.fuel = fuel;
    let result = inst.invoke("f", &[]);
    Run {
        result,
        counts: InstrClass::all().iter().map(|&c| inst.meter.count(c)).collect(),
        bytes_accessed: inst.meter.bytes_accessed,
        page_transitions: inst.meter.page_transitions,
        fuel_left: inst.fuel,
    }
}

fn assert_runs_identical(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.result, b.result, "{what}: results/traps diverged");
    assert_eq!(a.counts, b.counts, "{what}: meter class counts diverged");
    assert_eq!(a.bytes_accessed, b.bytes_accessed, "{what}: bytes_accessed");
    assert_eq!(
        a.page_transitions, b.page_transitions,
        "{what}: page_transitions"
    );
    assert_eq!(a.fuel_left, b.fuel_left, "{what}: fuel accounting");
}

/// Instantiate, capture the base image and re-base the dirty bitmap —
/// exactly what the service layer does when pooling a session.
fn fresh_based(code: &Arc<twine_wasm::CompiledModule>) -> (Instance, InstanceSnapshot) {
    let mut inst = Instance::instantiate(Arc::clone(code), Linker::new(), Box::new(()))
        .expect("instantiate");
    let base = inst.snapshot();
    inst.clear_dirty();
    inst.meter.reset();
    (inst, base)
}

/// The core differential, for one module × tier × fuel budget.
fn check_image_paths(module: &twine_wasm::Module, tier: ExecTier, fuel: Option<u64>) {
    let code = Arc::new(
        module
            .clone()
            .into_compiled_tier(tier)
            .expect("validated module"),
    );

    // Instantiation is deterministic for start-less modules — the
    // poolability condition that lets one base image serve every session.
    assert!(code.poolable(), "generated modules have no start function");
    let (mut live, base) = fresh_based(&code);
    let (fresh, base2) = fresh_based(&code);
    assert_eq!(base, base2, "base image must be a pure function of the module");
    drop(fresh);

    let first = observe(&mut live, fuel);

    // --- Delta capture, serialization round-trip, apply onto a fresh base.
    let full = live.snapshot();
    let delta = live.snapshot_delta(&base);
    assert!(
        delta.page_count() as u64 <= live.dirty_page_count(),
        "false-positive dirty pages must be compared away, never added"
    );
    let rt = SnapshotDelta::from_bytes(&delta.to_bytes()).expect("serialization round-trip");
    assert_eq!(rt.page_count(), delta.page_count());

    let (mut restored, _) = fresh_based(&code);
    assert!(restored.apply_delta(&rt), "delta fits its own module");
    assert_eq!(
        restored.snapshot(),
        full,
        "delta restore must reproduce the full post-run snapshot exactly"
    );
    let whole = live.full_delta();
    assert_eq!(
        SnapshotDelta::from_bytes(&whole.to_bytes()).map(|d| d.to_bytes()),
        Some(whole.to_bytes()),
        "full delta serialization round-trip"
    );

    // Observational equivalence: replaying from the delta-restored state
    // matches replaying on the instance that never parked.
    let replay_live = observe(&mut live, fuel);
    let replay_restored = observe(&mut restored, fuel);
    assert_runs_identical(&replay_live, &replay_restored, "delta-restored replay");

    // A second park/restore from the replayed state (the bitmap now holds
    // re-marked pages from apply_delta plus the replay's writes).
    let full2 = restored.snapshot();
    let delta2 = restored.snapshot_delta(&base);
    let (mut restored2, _) = fresh_based(&code);
    assert!(restored2.apply_delta(&delta2));
    assert_eq!(restored2.snapshot(), full2, "second-generation delta restore diverged");

    // A full delta needs no particular base: applied onto an instance two
    // generations past it, it lands exactly on the state it was taken of.
    assert!(restored2.apply_delta(&whole));
    assert_eq!(restored2.snapshot(), full, "full delta restore diverged");

    // --- O(dirty) reset vs full reset vs pristine base.
    live.reset_to_image(&base);
    restored.reset_to(&base);
    assert_eq!(live.snapshot(), base, "reset_to_image must land exactly on the base image");
    assert_eq!(live.snapshot(), restored.snapshot());
    assert_eq!(live.dirty_page_count(), 0, "reset re-bases the bitmap");

    // Replaying after the O(dirty) reset reproduces the original run.
    let after_reset = observe(&mut live, fuel);
    assert_runs_identical(&first, &after_reset, "post-reset_to_image replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random write patterns, no fuel: delta restore ≡ full restore ≡
    /// fresh instantiation, bit-identically, on every tier.
    #[test]
    fn image_paths_agree(
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..60)
    ) {
        let module = build_module(straightline_from(&choices));
        for tier in ALL_TIERS {
            check_image_paths(&module, tier, None);
        }
    }

    /// The same programs preempted by a tight fuel budget: the delta of a
    /// half-finished run (the eviction-park case) must restore exactly,
    /// and the replay must hit the identical out-of-fuel point.
    #[test]
    fn image_paths_agree_under_fuel(
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..60),
        fuel in 0u64..150
    ) {
        let module = build_module(straightline_from(&choices));
        for tier in ALL_TIERS {
            check_image_paths(&module, tier, Some(fuel));
        }
    }
}

/// Deterministic regression: grow two pages past the base image, write
/// into the grown region and park. The delta must carry the grown length,
/// restore must resize first, and never-written grown pages must come
/// back zeroed.
#[test]
fn grown_memory_delta_restores_exactly() {
    let body = vec![
        // grow by 2 pages (old size -> local 2, unused)
        Instr::Const(Value::I32(2)),
        Instr::MemoryGrow,
        Instr::LocalSet(2),
        // write a marker into the second grown page (offset 3*64Ki + 16)
        Instr::Const(Value::I32(3 * 65536 + 16)),
        Instr::Const(Value::I32(0x5eed_cafe_u32 as i32)),
        Instr::Store(StoreKind::I32, MemArg::offset(0)),
        // and one into the base region
        Instr::Const(Value::I32(64)),
        Instr::Const(Value::I32(41)),
        Instr::Store(StoreKind::I32, MemArg::offset(0)),
        Instr::Const(Value::I32(1)),
        Instr::LocalSet(1),
    ];
    let module = build_module(body);
    for tier in ALL_TIERS {
        let code = Arc::new(module.clone().into_compiled_tier(tier).expect("compiles"));
        let (mut live, base) = fresh_based(&code);
        observe(&mut live, None).result.expect("runs clean");

        let full = live.snapshot();
        assert_eq!(full.memory_bytes(), 4 * 65536, "{tier}: grew to 4 pages");
        let delta = live.snapshot_delta(&base);
        // Two 4 KiB pages were written; the clean grown pages travel as a
        // length, not as bytes — that is the whole point of the format.
        assert_eq!(delta.page_count(), 2, "{tier}");

        let (mut restored, _) = fresh_based(&code);
        assert!(restored.apply_delta(&delta), "{tier}");
        assert_eq!(restored.snapshot(), full, "{tier}: grown-memory delta restore diverged");
    }
}

/// Park a fresh base-state instance of `body` after one run, check that
/// `apply_delta ∘ from_bytes ∘ to_bytes` reproduces the live snapshot,
/// and return the delta with the number of pages the run dirtied.
fn park_once(body: Vec<Instr>, tier: ExecTier) -> (SnapshotDelta, u64) {
    let code = Arc::new(build_module(body).into_compiled_tier(tier).expect("compiles"));
    let (mut live, base) = fresh_based(&code);
    observe(&mut live, None).result.expect("runs clean");
    let delta = live.snapshot_delta(&base);
    let parsed = SnapshotDelta::from_bytes(&delta.to_bytes()).expect("round-trips");
    let (mut restored, _) = fresh_based(&code);
    assert!(restored.apply_delta(&parsed), "{tier}");
    assert_eq!(restored.snapshot(), live.snapshot(), "{tier}: delta restore diverged");
    (delta, live.dirty_page_count())
}

/// Store the 32-bit `value` at byte address `addr`.
fn store_i32(addr: i32, value: i32) -> [Instr; 3] {
    [
        Instr::Const(Value::I32(addr)),
        Instr::Const(Value::I32(value)),
        Instr::Store(StoreKind::I32, MemArg::offset(0)),
    ]
}

/// A delta carries the changed 8-byte words of each dirty page, not the
/// page: `(page, offset, len)` runs, merged across gaps shorter than a run
/// header, compared against zeros past the base image's length.
#[test]
fn sub_page_deltas_carry_only_changed_words() {
    for tier in ALL_TIERS {
        // One `i32.store` changes one word: one 8-byte run.
        let (d, _) = park_once(store_i32(100, 0x1234).to_vec(), tier);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(0, 96, 8)], "{tier}");
        assert_eq!(d.page_count(), 1, "{tier}");

        // Storing the old value back leaves the page dirty, but nothing
        // differs from the base: no run, no page.
        let body = [store_i32(100, 7), store_i32(100, 0)].concat();
        let (d, dirty) = park_once(body, tier);
        assert_eq!(dirty, 1, "{tier}: the page stays dirty");
        assert_eq!(d.runs().count(), 0, "{tier}");
        assert_eq!(d.page_count(), 0, "{tier}");

        // A store straddling two 4 KiB pages: one run in each.
        let body = vec![
            Instr::Const(Value::I32(4092)),
            Instr::Const(Value::I64(-1)),
            Instr::Store(StoreKind::I64, MemArg::offset(0)),
        ];
        let (d, _) = park_once(body, tier);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(0, 4088, 8), (1, 0, 8)], "{tier}");
        assert_eq!(d.page_count(), 2, "{tier}");

        // One write into a `memory.grow`n page is compared against the
        // zeros the grow left there: one run, in 4 KiB page 32 (the first
        // page of the third Wasm page).
        let mut body = vec![
            Instr::Const(Value::I32(1)),
            Instr::MemoryGrow,
            Instr::Drop,
        ];
        body.extend(store_i32(2 * 65536 + 40, -5));
        let (d, _) = park_once(body, tier);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(32, 40, 8)], "{tier}");

        // Words 8 bytes apart (one unchanged word between them) merge:
        // carrying the gap is cheaper than a second 12-byte run header.
        let body = [store_i32(0, 1), store_i32(16, 2)].concat();
        let (d, _) = park_once(body, tier);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(0, 0, 24)], "{tier}");
        // A 16-byte gap costs more than a header: two runs.
        let body = [store_i32(0, 1), store_i32(24, 2)].concat();
        let (d, _) = park_once(body, tier);
        assert_eq!(d.runs().collect::<Vec<_>>(), [(0, 0, 8), (0, 24, 8)], "{tier}");
    }
}

/// Corrupt delta images must be rejected structurally, never applied.
#[test]
fn corrupt_delta_images_are_rejected() {
    let module = build_module(vec![
        Instr::Const(Value::I32(16)),
        Instr::Const(Value::I32(99)),
        Instr::Store(StoreKind::I32, MemArg::offset(0)),
    ]);
    let code = Arc::new(
        module
            .into_compiled_tier(ExecTier::Baseline)
            .expect("compiles"),
    );
    let (mut live, base) = fresh_based(&code);
    observe(&mut live, None).result.expect("runs clean");
    let good = live.snapshot_delta(&base).to_bytes();
    assert!(SnapshotDelta::from_bytes(&good).is_some());

    // Wrong format byte.
    let mut bad = good.clone();
    bad[0] = 1;
    assert!(SnapshotDelta::from_bytes(&bad).is_none());
    // Truncation anywhere must fail, not mis-parse.
    for cut in 1..good.len() {
        assert!(SnapshotDelta::from_bytes(&good[..cut]).is_none());
    }
    // Trailing garbage is corruption too.
    let mut padded = good.clone();
    padded.push(0);
    assert!(SnapshotDelta::from_bytes(&padded).is_none());
}

/// Byte offset of the little-endian `mem_len` in a delta image of a module
/// with memory: after the format byte and the has-memory flag.
const MEM_LEN_AT: usize = 2;

/// Byte offset of the run count in a delta image of a module with memory.
const RUNS_AT: usize = MEM_LEN_AT + 8;

/// A run header as written in an image: `(page, offset, len)`.
type RunHeader = (u64, u16, u16);

/// `image` with its runs replaced by `runs`, each carrying `len` bytes of
/// `0xA5`, keeping its memory length, globals and table.
fn with_runs(image: &[u8], runs: &[RunHeader]) -> Vec<u8> {
    let read = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&image[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    // Skip the image's own runs: a 12-byte header, then `len` bytes.
    let mut tail = RUNS_AT + 8;
    for _ in 0..read(RUNS_AT, 8) {
        tail += 12 + read(tail + 10, 2);
    }
    let mut out = image[..RUNS_AT].to_vec();
    out.extend_from_slice(&(runs.len() as u64).to_le_bytes());
    for &(page, offset, len) in runs {
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend(std::iter::repeat_n(0xA5, usize::from(len)));
    }
    out.extend_from_slice(&image[tail..]);
    out
}

/// A mutated image must be refused by the parser, or parse to a delta
/// that re-encodes to exactly those bytes (the encoding is canonical) and
/// that `apply_delta` either refuses or applies within the module's
/// declared memory limits.
fn assert_refused_or_fits(code: &Arc<twine_wasm::CompiledModule>, image: &[u8], what: &str) {
    let Some(delta) = SnapshotDelta::from_bytes(image) else {
        return;
    };
    assert_eq!(delta.to_bytes(), image, "{what}: accepted a non-canonical image");
    let (mut inst, _) = fresh_based(code);
    if inst.apply_delta(&delta) {
        let pages = inst.memory().expect("module has memory").size_pages();
        assert!((2..=4).contains(&pages), "{what}: applied {pages} pages");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation, bit flips, a forged memory length and forged runs
    /// applied to a real delta image of a module whose memory may grow
    /// from 2 to 4 pages.
    #[test]
    fn mutated_delta_images_are_refused_or_fit(
        choices in proptest::collection::vec((any::<u8>(), any::<i32>()), 0..40),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
        forged in any::<u64>(),
        page_aligned in any::<bool>(),
        run_page in 0u64..31,
        run_offset in 0u16..4096,
        run_len in 1u16..=4096,
        past in any::<u64>(),
    ) {
        let module = build_module_with(Limits::bounded(2, 4), straightline_from(&choices));
        let code = Arc::new(module.into_compiled_tier(ExecTier::Reg).expect("compiles"));
        let (mut live, base) = fresh_based(&code);
        let _ = observe(&mut live, Some(2_000));
        for good in [live.snapshot_delta(&base).to_bytes(), live.full_delta().to_bytes()] {
            // Every proper prefix is missing a field the header promised.
            prop_assert!(SnapshotDelta::from_bytes(&good[..cut % good.len()]).is_none());

            let mut flipped = good.clone();
            for &(at, bit) in &flips {
                let at = at % flipped.len();
                flipped[at] ^= 1 << bit;
            }
            assert_refused_or_fits(&code, &flipped, "bit flips");

            // A forged length, page-aligned half the time so it reaches
            // the limit checks: up to 2^17 Wasm pages, twice the 4 GiB cap.
            let len = if page_aligned { (forged % (1 << 17)) << 16 } else { forged };
            let mut forged_img = good.clone();
            forged_img[MEM_LEN_AT..MEM_LEN_AT + 8].copy_from_slice(&len.to_le_bytes());
            if len > 1 << 32 {
                prop_assert!(SnapshotDelta::from_bytes(&forged_img).is_none());
            }
            assert_refused_or_fits(&code, &forged_img, "forged mem_len");

            // Forged runs. Memory is at least two Wasm pages (32 4 KiB
            // pages), so `run_page + 1` is in bounds and a run that stays
            // in its page is accepted: each refusal below is the rule its
            // forgery breaks, not a bad splice.
            let fits = run_len.min(4096 - run_offset);
            let ok = with_runs(&good, &[(run_page, run_offset, fits)]);
            prop_assert!(SnapshotDelta::from_bytes(&ok).is_some(), "well-formed run refused");
            assert_refused_or_fits(&code, &ok, "well-formed run");
            let mem_len = u64::from_le_bytes(good[MEM_LEN_AT..RUNS_AT].try_into().unwrap());
            let pages = mem_len / 4096;
            let forgeries: [(&str, Vec<RunHeader>); 6] = [
                ("zero length", vec![(run_page, run_offset, 0)]),
                ("page-crossing", vec![(run_page, run_offset, 4096 - run_offset + run_len)]),
                (
                    "overlapping",
                    vec![(run_page, 0, run_len), (run_page, run_len - 1, 1)],
                ),
                (
                    "descending",
                    vec![(run_page + 1, 0, 8), (run_page, run_offset, fits)],
                ),
                ("past mem_len", vec![(pages + past % 64, 0, 8)]),
                ("far past mem_len", vec![(pages.saturating_add(past), 0, 8)]),
            ];
            for (what, runs) in forgeries {
                prop_assert!(
                    SnapshotDelta::from_bytes(&with_runs(&good, &runs)).is_none(),
                    "{} run accepted", what
                );
            }
        }
    }
}
