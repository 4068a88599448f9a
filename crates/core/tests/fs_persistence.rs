//! File-system backend persistence across guest runs (paper §IV-C/E): a
//! protected file written in run 1 must be readable in run 2 — including
//! when run 1 traps, and when an intervening run fails *instantiation*
//! (the error path that used to drop the `WasiCtx` and silently lose the
//! backend, leaving the next run an empty protected FS).

use twine_core::{FsChoice, TwineBuilder, TwineError};
use twine_pfs::PfsMode;
use twine_wasm::encode::encode;
use twine_wasm::instr::{Instr, LoadKind, MemArg};
use twine_wasm::types::{FuncType, Limits, ValType, Value};
use twine_wasm::{ModuleBuilder, Trap};
use twine_wasi::WASI_MODULE;

// Guest memory layout shared by the generated modules:
//   0..    path bytes
//   256..  payload bytes (writer) / read-back buffer target (reader: 768)
//   512    iovec {256, N}   (writer: file write source)
//   528    iovec {768, N}   (reader: file read target)
//   536    iovec {768, N}   (reader: stdout echo source)
//   640    path_open out-fd
//   644    nwritten / nread scratch
const PATH_ADDR: i32 = 0;
const PAYLOAD_ADDR: i32 = 256;
const READBUF_ADDR: i32 = 768;
const IOV_WRITE: i32 = 512;
const IOV_READ: i32 = 528;
const IOV_ECHO: i32 = 536;
const OUT_FD: i32 = 640;
const SCRATCH: i32 = 644;

fn iovec(base: i32, len: usize) -> Vec<u8> {
    let mut v = (base as u32).to_le_bytes().to_vec();
    v.extend_from_slice(&(len as u32).to_le_bytes());
    v
}

fn import_wasi(b: &mut ModuleBuilder) -> (u32, u32, u32) {
    use ValType::{I32, I64};
    let path_open = b.import_func(
        WASI_MODULE,
        "path_open",
        FuncType::new(vec![I32, I32, I32, I32, I32, I64, I64, I32, I32], vec![I32]),
    );
    let fd_write = b.import_func(
        WASI_MODULE,
        "fd_write",
        FuncType::new(vec![I32, I32, I32, I32], vec![I32]),
    );
    let fd_read = b.import_func(
        WASI_MODULE,
        "fd_read",
        FuncType::new(vec![I32, I32, I32, I32], vec![I32]),
    );
    (path_open, fd_write, fd_read)
}

fn call_path_open(path_len: usize, oflags: i32, func: u32) -> Vec<Instr> {
    vec![
        Instr::Const(Value::I32(3)), // dirfd: the preopen
        Instr::Const(Value::I32(0)), // dirflags
        Instr::Const(Value::I32(PATH_ADDR)),
        Instr::Const(Value::I32(path_len as i32)),
        Instr::Const(Value::I32(oflags)),
        Instr::Const(Value::I64(-1)), // rights base: everything
        Instr::Const(Value::I64(0)),  // rights inheriting
        Instr::Const(Value::I32(0)),  // fdflags
        Instr::Const(Value::I32(OUT_FD)),
        Instr::Call(func),
        Instr::Drop,
    ]
}

fn load_fd() -> Vec<Instr> {
    vec![
        Instr::Const(Value::I32(OUT_FD)),
        Instr::Load(LoadKind::I32, MemArg { offset: 0, align: 2 }),
    ]
}

/// A guest whose `go()` opens (create|trunc) `path` and writes `payload`
/// into it, returning the `fd_write` errno. With `trap_after`, the guest
/// then executes `unreachable`.
fn writer_wasm(path: &str, payload: &[u8], trap_after: bool) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let (path_open, fd_write, _) = import_wasi(&mut b);
    b.memory(Limits::at_least(1));
    b.add_data(PATH_ADDR, path.as_bytes().to_vec());
    b.add_data(PAYLOAD_ADDR, payload.to_vec());
    b.add_data(IOV_WRITE, iovec(PAYLOAD_ADDR, payload.len()));
    let mut body = call_path_open(path.len(), 0x1 | 0x8, path_open); // create|trunc
    body.extend(load_fd());
    body.extend([
        Instr::Const(Value::I32(IOV_WRITE)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
    ]);
    if trap_after {
        body.push(Instr::Unreachable);
    }
    let f = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], body);
    b.export_func("go", f);
    encode(&b.build())
}

/// A guest whose `go()` opens `path`, reads `len` bytes and echoes them to
/// stdout, returning the echo's errno — so the host can check the payload
/// through the captured stdout of the run report.
fn reader_wasm(path: &str, len: usize) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let (path_open, fd_write, fd_read) = import_wasi(&mut b);
    b.memory(Limits::at_least(1));
    b.add_data(PATH_ADDR, path.as_bytes().to_vec());
    b.add_data(IOV_READ, iovec(READBUF_ADDR, len));
    b.add_data(IOV_ECHO, iovec(READBUF_ADDR, len));
    let mut body = call_path_open(path.len(), 0, path_open);
    body.extend(load_fd());
    body.extend([
        Instr::Const(Value::I32(IOV_READ)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_read),
        Instr::Drop,
        Instr::Const(Value::I32(1)), // stdout
        Instr::Const(Value::I32(IOV_ECHO)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
    ]);
    let f = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], body);
    b.export_func("go", f);
    encode(&b.build())
}

/// A module that decodes and validates but cannot be instantiated (its
/// import resolves to nothing any Twine linker provides).
fn uninstantiable_wasm() -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let imp = b.import_func("env", "no_such_host_fn", FuncType::new(vec![], vec![]));
    let f = b.add_func(FuncType::new(vec![], vec![]), vec![], vec![Instr::Call(imp)]);
    b.export_func("go", f);
    encode(&b.build())
}

const PAYLOAD: &[u8] = b"protected state, run 1";

#[test]
fn files_written_in_run1_readable_in_run2() {
    let mut twine = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build();
    let writer = twine.load_wasm(&writer_wasm("state.bin", PAYLOAD, false)).unwrap();
    let reader = twine.load_wasm(&reader_wasm("state.bin", PAYLOAD.len())).unwrap();

    let errno = twine.invoke(&writer, "go", &[]).unwrap();
    assert_eq!(errno[0], Value::I32(0), "writer errno");

    let (report, values) = twine.invoke_with_report(&reader, "go", &[]).unwrap();
    assert_eq!(values[0], Value::I32(0), "reader errno");
    assert_eq!(report.stdout, PAYLOAD, "payload survives across runs");
}

/// §V-F: the stock Intel protected FS and the optimised one are two
/// implementations of one contract. The write → close → reopen → read guest
/// sees the same bytes under both; what differs is what the paper optimised
/// — the optimised mode decrypts straight from the untrusted buffer, so
/// reading the file back copies fewer bytes across the enclave boundary.
/// (That the untrusted side holds only ciphertext in both modes is checked
/// where the storage can be reached: `backend_pfs`'s unit tests.)
#[test]
fn both_pfs_modes_persist_the_same_bytes() {
    let read_back = |mode: PfsMode| {
        let mut twine = TwineBuilder::new()
            .fs(FsChoice::ProtectedInMemory)
            .pfs_mode(mode)
            .build();
        let writer = twine.load_wasm(&writer_wasm("state.bin", PAYLOAD, false)).unwrap();
        let reader = twine.load_wasm(&reader_wasm("state.bin", PAYLOAD.len())).unwrap();
        assert_eq!(twine.invoke(&writer, "go", &[]).unwrap()[0], Value::I32(0));

        let copied_before = twine.enclave().stats().boundary_bytes;
        let (report, values) = twine.invoke_with_report(&reader, "go", &[]).unwrap();
        assert_eq!(values[0], Value::I32(0), "reader errno under {mode:?}");
        let copied = twine.enclave().stats().boundary_bytes - copied_before;
        (report.stdout, copied)
    };
    let (intel_bytes, intel_copied) = read_back(PfsMode::Intel);
    let (optimised_bytes, optimised_copied) = read_back(PfsMode::Optimised);
    assert_eq!(intel_bytes, PAYLOAD);
    assert_eq!(optimised_bytes, PAYLOAD);
    assert!(
        optimised_copied < intel_copied,
        "optimised read-back copied {optimised_copied} B, Intel {intel_copied} B"
    );
}

#[test]
fn files_survive_a_guest_trap() {
    let mut twine = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build();
    let writer = twine.load_wasm(&writer_wasm("state.bin", PAYLOAD, true)).unwrap();
    let reader = twine.load_wasm(&reader_wasm("state.bin", PAYLOAD.len())).unwrap();

    match twine.invoke(&writer, "go", &[]) {
        Err(TwineError::Trap(Trap::Unreachable)) => {}
        other => panic!("expected unreachable trap, got {other:?}"),
    }

    let (report, values) = twine.invoke_with_report(&reader, "go", &[]).unwrap();
    assert_eq!(values[0], Value::I32(0));
    assert_eq!(report.stdout, PAYLOAD, "payload survives the trap");
}

#[test]
fn files_survive_a_failed_instantiation() {
    let mut twine = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build();
    let writer = twine.load_wasm(&writer_wasm("state.bin", PAYLOAD, false)).unwrap();
    let broken = twine.load_wasm(&uninstantiable_wasm()).unwrap();
    let reader = twine.load_wasm(&reader_wasm("state.bin", PAYLOAD.len())).unwrap();

    assert_eq!(twine.invoke(&writer, "go", &[]).unwrap()[0], Value::I32(0));

    // The run between write and read fails *instantiation*: the WasiCtx
    // (owner of the taken-out backend) must be recovered, not dropped.
    match twine.invoke(&broken, "go", &[]) {
        Err(TwineError::Module(_)) => {}
        other => panic!("expected instantiation failure, got {other:?}"),
    }

    let (report, values) = twine.invoke_with_report(&reader, "go", &[]).unwrap();
    assert_eq!(values[0], Value::I32(0), "backend was lost on the error path");
    assert_eq!(report.stdout, PAYLOAD, "payload survives the failed run");
}

/// A guest exporting both halves: `put()` writes `payload` to `path`
/// (optionally trapping right after the write), `get()` reads it back and
/// echoes it to stdout.
fn rw_wasm(path: &str, payload: &[u8], trap_after_put: bool) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let (path_open, fd_write, fd_read) = import_wasi(&mut b);
    b.memory(Limits::at_least(1));
    b.add_data(PATH_ADDR, path.as_bytes().to_vec());
    b.add_data(PAYLOAD_ADDR, payload.to_vec());
    b.add_data(IOV_WRITE, iovec(PAYLOAD_ADDR, payload.len()));
    b.add_data(IOV_READ, iovec(READBUF_ADDR, payload.len()));
    b.add_data(IOV_ECHO, iovec(READBUF_ADDR, payload.len()));

    let mut put = call_path_open(path.len(), 0x1 | 0x8, path_open);
    put.extend(load_fd());
    put.extend([
        Instr::Const(Value::I32(IOV_WRITE)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
    ]);
    if trap_after_put {
        put.push(Instr::Unreachable);
    }
    let put = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], put);
    b.export_func("put", put);

    let mut get = call_path_open(path.len(), 0, path_open);
    get.extend(load_fd());
    get.extend([
        Instr::Const(Value::I32(IOV_READ)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_read),
        Instr::Drop,
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(IOV_ECHO)),
        Instr::Const(Value::I32(1)),
        Instr::Const(Value::I32(SCRATCH)),
        Instr::Call(fd_write),
    ]);
    let get = b.add_func(FuncType::new(vec![], vec![ValType::I32]), vec![], get);
    b.export_func("get", get);
    encode(&b.build())
}

#[test]
fn session_files_persist_across_warm_invocations() {
    // Same property one layer up: a persistent session's protected files
    // survive warm invocations — written in invocation 1, read in
    // invocation 2, with no re-instantiation in between.
    let mut svc = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build_service();
    svc.open_session("tenant", &rw_wasm("s.bin", PAYLOAD, false)).unwrap();

    assert_eq!(svc.invoke("tenant", "put", &[]).unwrap()[0], Value::I32(0));
    let (report, values) = svc.invoke_with_report("tenant", "get", &[]).unwrap();
    assert_eq!(values[0], Value::I32(0));
    assert_eq!(report.stdout, PAYLOAD, "payload survives warm invocations");
    assert_eq!(svc.session_stats("tenant").unwrap().invocations, 2);
}

#[test]
fn session_files_survive_a_trap_and_a_reset() {
    // A trapping invocation recycles the instance from its snapshot but
    // must not touch the tenant's protected files.
    let mut svc = TwineBuilder::new().fs(FsChoice::ProtectedInMemory).build_service();
    svc.open_session("tenant", &rw_wasm("s.bin", PAYLOAD, true)).unwrap();

    match svc.invoke("tenant", "put", &[]) {
        Err(TwineError::Trap(Trap::Unreachable)) => {}
        other => panic!("expected trap, got {other:?}"),
    }
    let (report, values) = svc.invoke_with_report("tenant", "get", &[]).unwrap();
    assert_eq!(values[0], Value::I32(0));
    assert_eq!(report.stdout, PAYLOAD, "payload survives the trap");

    // An explicit pool-recycle also keeps the files.
    svc.reset_session("tenant").unwrap();
    let (report, _) = svc.invoke_with_report("tenant", "get", &[]).unwrap();
    assert_eq!(report.stdout, PAYLOAD, "payload survives reset_session");
}
