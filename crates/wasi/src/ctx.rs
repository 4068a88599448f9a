//! The WASI context: file-descriptor table, capability sandbox, clocks and
//! randomness. Stored as the Wasm instance's host state.

use std::collections::HashMap;

use rand::{RngCore, SeedableRng};

use crate::errno::{Errno, WasiResult};
use crate::rights::Rights;

/// An open file as seen by WASI (implemented over the protected FS in
/// Twine's trusted layer, or over the host FS in the untrusted layer).
///
/// `Send` (like [`FsBackend`]) so a whole [`WasiCtx`] — and with it a
/// persistent session — is `Send`: sessions of the sharded service are run
/// by their callers' threads and handed back to the embedder on close.
pub trait WasiFile: Send {
    /// Read at the current position.
    fn read(&mut self, buf: &mut [u8]) -> WasiResult<usize>;
    /// Write at the current position (extending the file as needed).
    fn write(&mut self, buf: &[u8]) -> WasiResult<usize>;
    /// Seek to an absolute position (the ABI layer resolves whence).
    fn seek(&mut self, pos: u64) -> WasiResult<u64>;
    /// Current position.
    fn tell(&self) -> u64;
    /// File size.
    fn size(&self) -> WasiResult<u64>;
    /// Truncate or extend.
    fn set_size(&mut self, size: u64) -> WasiResult<()>;
    /// Durably persist.
    fn sync(&mut self) -> WasiResult<()>;
}

/// A file-system backend resolving sandboxed paths.
///
/// This is the paper's trusted/untrusted dispatch seam (§IV-C): the WASI
/// layer is backend-agnostic, and the embedder decides per runtime whether
/// fs calls are served by the *trusted* protected file system
/// (`twine-core`'s `PfsBackend` over `twine-pfs`, ciphertext leaves the
/// enclave), the *generic untrusted* POSIX layer (`HostBackend`, plaintext
/// OCALLs to the host), or nothing at all (the §IV-C compile-out flag).
/// Paths handed to a backend are already normalised and sandbox-checked by
/// [`WasiCtx`].
///
/// `Send` so per-session file state can move to (and between) the worker
/// threads of a multi-threaded service; backends needing shared interior
/// state use `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`.
pub trait FsBackend: Send {
    /// Open (optionally create/truncate) a file.
    fn open(
        &mut self,
        path: &str,
        create: bool,
        truncate: bool,
    ) -> WasiResult<Box<dyn WasiFile>>;
    /// Does the path exist?
    fn exists(&mut self, path: &str) -> bool;
    /// Size without opening.
    fn filesize(&mut self, path: &str) -> WasiResult<u64>;
    /// Delete a file.
    fn unlink(&mut self, path: &str) -> WasiResult<()>;
}

/// What an fd refers to.
pub enum FdKind {
    /// Guest stdin (always empty).
    Stdin,
    /// Guest stdout, captured into [`WasiCtx::stdout`].
    Stdout,
    /// Guest stderr, captured into [`WasiCtx::stderr`].
    Stderr,
    /// A preopened directory (the sandbox root(s)).
    Preopen {
        /// Guest-visible name, e.g. `/data`.
        name: String,
    },
    /// An open file.
    File {
        /// Backend handle.
        handle: Box<dyn WasiFile>,
    },
}

/// One fd-table entry.
pub struct FdEntry {
    /// Kind.
    pub kind: FdKind,
    /// Capability rights attached to this descriptor.
    pub rights: Rights,
}

/// Seed of the deterministic in-enclave RNG (fresh and reset contexts draw
/// the same stream, keeping warm invocations bit-identical to cold ones).
const RNG_SEED: u64 = 0x7717_e5a2;

/// Largest data-path scratch capacity retained across calls (see
/// [`WasiCtx::restore_scratch`]). 256 KiB covers every sane I/O size —
/// SQLite pages are 4 KiB — while bounding what a guest-chosen iovec
/// length can pin per session.
const SCRATCH_KEEP_MAX: usize = 256 * 1024;

/// The per-instance WASI state.
pub struct WasiCtx {
    /// Program arguments (`argv[0]` = program name).
    pub args: Vec<String>,
    /// Environment variables.
    pub env: Vec<(String, String)>,
    /// The fd table. `pub(crate)` so the ABI layer's data path can borrow
    /// one entry and another context field (e.g. the captured stdout)
    /// simultaneously — disjoint field borrows the [`fd`](Self::fd)
    /// accessor, which borrows the whole context, cannot express.
    pub(crate) fds: HashMap<u32, FdEntry>,
    next_fd: u32,
    backend: Box<dyn FsBackend>,
    /// Captured stdout bytes.
    pub stdout: Vec<u8>,
    /// Captured stderr bytes.
    pub stderr: Vec<u8>,
    clock: Box<dyn FnMut() -> u64 + Send>,
    rng: rand::rngs::StdRng,
    /// Set by `proc_exit`.
    pub exit_code: Option<u32>,
    /// Count of WASI calls served (per-function class), for the harness.
    pub call_count: u64,
    /// Grow-only scratch buffer reused by the data-path ABI calls
    /// (`fd_read`, `random_get`): the paper's SQLite analysis pins WASI
    /// I/O as the enclave hot path, so warm invocations must not pay a
    /// heap allocation per call. Borrow it with
    /// [`take_scratch`](Self::take_scratch) / put it back with
    /// [`restore_scratch`](Self::restore_scratch).
    pub(crate) scratch: Vec<u8>,
}

impl WasiCtx {
    /// Build a context over `backend` with one preopened directory `root`
    /// (mounted at fd 3) carrying `rights`.
    #[must_use]
    pub fn new(backend: Box<dyn FsBackend>, root: &str, rights: Rights) -> Self {
        let mut fds = HashMap::new();
        fds.insert(
            0,
            FdEntry {
                kind: FdKind::Stdin,
                rights: Rights::FD_READ,
            },
        );
        fds.insert(
            1,
            FdEntry {
                kind: FdKind::Stdout,
                rights: Rights::FD_WRITE,
            },
        );
        fds.insert(
            2,
            FdEntry {
                kind: FdKind::Stderr,
                rights: Rights::FD_WRITE,
            },
        );
        fds.insert(
            3,
            FdEntry {
                kind: FdKind::Preopen {
                    name: root.to_string(),
                },
                rights,
            },
        );
        let mut t = 1_600_000_000_000_000_000u64; // deterministic epoch
        Self {
            args: vec!["app.wasm".to_string()],
            env: Vec::new(),
            fds,
            next_fd: 4,
            backend,
            stdout: Vec::new(),
            stderr: Vec::new(),
            clock: Box::new(move || {
                t += 1_000_000; // 1 ms per observation, strictly monotonic
                t
            }),
            rng: rand::rngs::StdRng::seed_from_u64(RNG_SEED),
            exit_code: None,
            call_count: 0,
            scratch: Vec::new(),
        }
    }

    /// Take the per-context scratch buffer out (cleared), so an ABI call
    /// can use it alongside other mutable borrows of the context. Must be
    /// paired with [`restore_scratch`](Self::restore_scratch) so the
    /// grown capacity survives for the next call.
    pub(crate) fn take_scratch(&mut self) -> Vec<u8> {
        let mut s = std::mem::take(&mut self.scratch);
        s.clear();
        s
    }

    /// Return the scratch buffer taken by
    /// [`take_scratch`](Self::take_scratch), keeping its capacity for the
    /// next data-path call — up to [`SCRATCH_KEEP_MAX`]. A guest controls
    /// the iovec lengths that size this buffer, so an unbounded keep
    /// would let one hostile `fd_read` pin gigabytes of host memory for
    /// the whole session lifetime; oversized buffers are shrunk back so a
    /// spike costs only its own call (exactly like the old per-call
    /// allocation), while ordinary I/O (≤ the cap) stays allocation-free.
    pub(crate) fn restore_scratch(&mut self, mut scratch: Vec<u8>) {
        if scratch.capacity() > SCRATCH_KEEP_MAX {
            scratch = Vec::new();
        }
        self.scratch = scratch;
    }

    /// Replace the clock source (Twine's trusted layer installs an
    /// OCALL-backed clock with a monotonicity guard, §IV-C). `Send` so the
    /// context — session state — can be used by successive caller threads.
    pub fn set_clock(&mut self, clock: Box<dyn FnMut() -> u64 + Send>) {
        self.clock = clock;
    }

    /// Recycle this context for the next guest invocation of a persistent
    /// session: clear the per-run observables (captured stdout/stderr, exit
    /// code, call count), close every descriptor the previous run opened and
    /// rewind fd allocation, and reseed the deterministic RNG — while
    /// **preserving** the file-system backend (protected files survive), the
    /// preopens with their capability rights, args/env, and the installed
    /// clock source (so a trusted clock's monotonicity watermark carries
    /// across invocations instead of restarting).
    ///
    /// After this call the context is indistinguishable from a freshly
    /// constructed one except for the state that is *meant* to persist:
    /// backend file contents and the clock watermark.
    pub fn reset_for_invocation(&mut self) {
        // Every buffer here is recycled in place (`clear` keeps capacity):
        // a warm invocation of a persistent session performs no heap
        // allocation in this reset, and the data-path scratch buffer keeps
        // the high-water capacity of previous runs.
        self.stdout.clear();
        self.stderr.clear();
        self.scratch.clear();
        self.exit_code = None;
        self.call_count = 0;
        self.fds.retain(|&fd, _| fd <= 3);
        self.next_fd = 4;
        self.rng = rand::rngs::StdRng::seed_from_u64(RNG_SEED);
    }

    /// Consume the context and recover the backend (so the embedder can
    /// keep file state across guest runs).
    #[must_use]
    pub fn into_backend(self) -> Box<dyn FsBackend> {
        self.backend
    }

    /// Read the clock (nanoseconds).
    pub fn now(&mut self) -> u64 {
        (self.clock)()
    }

    /// Fill with random bytes.
    pub fn random_fill(&mut self, buf: &mut [u8]) {
        self.rng.fill_bytes(buf);
    }

    /// Look up an fd.
    pub fn fd(&mut self, fd: u32) -> WasiResult<&mut FdEntry> {
        self.fds.get_mut(&fd).ok_or(Errno::Badf)
    }

    fn require(&mut self, fd: u32, rights: Rights, missing: Errno) -> WasiResult<()> {
        let entry = self.fd(fd)?;
        if entry.rights.contains(rights) {
            Ok(())
        } else {
            Err(missing)
        }
    }

    /// Require `rights` on `fd`, returning `Notcapable` otherwise.
    pub fn check_rights(&mut self, fd: u32, rights: Rights) -> WasiResult<()> {
        self.require(fd, rights, Errno::Notcapable)
    }

    /// Require a *data-access* right (`FD_READ`/`FD_WRITE`) on an open fd.
    ///
    /// Distinct from [`check_rights`](Self::check_rights): a capability the
    /// descriptor never carried (path escapes, creating in a read-only
    /// preopen) is `Notcapable`, while attempting a data direction the open
    /// descriptor was not granted is an access-permission failure, `Acces`
    /// (paper §IV: per-program sandboxing of what Wasm may do with a file).
    /// A dead or never-allocated fd remains `Badf` in both.
    pub fn check_access(&mut self, fd: u32, rights: Rights) -> WasiResult<()> {
        self.require(fd, rights, Errno::Acces)
    }

    /// Normalise and sandbox-check a guest path relative to a preopen fd.
    ///
    /// Rejects absolute escapes and any use of `..` (capability model:
    /// nothing outside the preopened tree is reachable, like `chroot`).
    pub fn resolve_path(&mut self, dirfd: u32, path: &str) -> WasiResult<String> {
        let root = match &self.fd(dirfd)?.kind {
            FdKind::Preopen { name } => name.clone(),
            _ => return Err(Errno::Notdir),
        };
        let trimmed = path.trim_start_matches('/');
        if trimmed.split('/').any(|seg| seg == "..") {
            return Err(Errno::Notcapable);
        }
        if trimmed.is_empty() {
            return Err(Errno::Inval);
        }
        Ok(format!("{}/{}", root.trim_end_matches('/'), trimmed))
    }

    /// Open a file under a preopen, attenuating rights.
    pub fn open_file(
        &mut self,
        dirfd: u32,
        path: &str,
        create: bool,
        truncate: bool,
        requested: Rights,
    ) -> WasiResult<u32> {
        self.check_rights(dirfd, Rights::PATH_OPEN)?;
        if create {
            self.check_rights(dirfd, Rights::PATH_CREATE_FILE)?;
        }
        let resolved = self.resolve_path(dirfd, path)?;
        let granted = self.fd(dirfd)?.rights.intersect(requested);
        if !create && !self.backend.exists(&resolved) {
            return Err(Errno::Noent);
        }
        let handle = self.backend.open(&resolved, create, truncate)?;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(
            fd,
            FdEntry {
                kind: FdKind::File { handle },
                rights: granted,
            },
        );
        Ok(fd)
    }

    /// Close an fd.
    pub fn close(&mut self, fd: u32) -> WasiResult<()> {
        if fd <= 3 {
            return Err(Errno::Notcapable); // std streams and preopens stay
        }
        self.fds.remove(&fd).map(|_| ()).ok_or(Errno::Badf)
    }

    /// Delete a file under a preopen.
    pub fn unlink(&mut self, dirfd: u32, path: &str) -> WasiResult<()> {
        self.check_rights(dirfd, Rights::PATH_UNLINK)?;
        let resolved = self.resolve_path(dirfd, path)?;
        self.backend.unlink(&resolved)
    }

    /// Stat a path under a preopen.
    pub fn path_size(&mut self, dirfd: u32, path: &str) -> WasiResult<u64> {
        self.check_rights(dirfd, Rights::FILESTAT_GET)?;
        let resolved = self.resolve_path(dirfd, path)?;
        self.backend.filesize(&resolved)
    }
}

/// A trivial in-memory backend (testing and examples). File bodies are
/// `Arc<Mutex<…>>` so open handles stay valid while the backend (and the
/// session owning it) moves between threads.
#[derive(Default)]
pub struct MemBackend {
    files: HashMap<String, std::sync::Arc<std::sync::Mutex<Vec<u8>>>>,
}

impl MemBackend {
    /// Empty backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inspect a file's bytes (host side).
    #[must_use]
    pub fn contents(&self, path: &str) -> Option<Vec<u8>> {
        self.files.get(path).map(|f| f.lock().unwrap().clone())
    }
}

struct MemFile {
    data: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    pos: u64,
}

impl WasiFile for MemFile {
    fn read(&mut self, buf: &mut [u8]) -> WasiResult<usize> {
        let data = self.data.lock().unwrap();
        let start = (self.pos as usize).min(data.len());
        let n = buf.len().min(data.len() - start);
        buf[..n].copy_from_slice(&data[start..start + n]);
        self.pos += n as u64;
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> WasiResult<usize> {
        let mut data = self.data.lock().unwrap();
        let end = self.pos as usize + buf.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[self.pos as usize..end].copy_from_slice(buf);
        self.pos = end as u64;
        Ok(buf.len())
    }

    fn seek(&mut self, pos: u64) -> WasiResult<u64> {
        self.pos = pos;
        Ok(pos)
    }

    fn tell(&self) -> u64 {
        self.pos
    }

    fn size(&self) -> WasiResult<u64> {
        Ok(self.data.lock().unwrap().len() as u64)
    }

    fn set_size(&mut self, size: u64) -> WasiResult<()> {
        self.data.lock().unwrap().resize(size as usize, 0);
        Ok(())
    }

    fn sync(&mut self) -> WasiResult<()> {
        Ok(())
    }
}

impl FsBackend for MemBackend {
    fn open(&mut self, path: &str, create: bool, truncate: bool) -> WasiResult<Box<dyn WasiFile>> {
        let entry = self.files.entry(path.to_string());
        let data = match entry {
            std::collections::hash_map::Entry::Occupied(e) => {
                let d = e.get().clone();
                if truncate {
                    d.lock().unwrap().clear();
                }
                d
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if !create {
                    return Err(Errno::Noent);
                }
                v.insert(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())))
                    .clone()
            }
        };
        Ok(Box::new(MemFile { data, pos: 0 }))
    }

    fn exists(&mut self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn filesize(&mut self, path: &str) -> WasiResult<u64> {
        self.files
            .get(path)
            .map(|f| f.lock().unwrap().len() as u64)
            .ok_or(Errno::Noent)
    }

    fn unlink(&mut self, path: &str) -> WasiResult<()> {
        self.files.remove(path).map(|_| ()).ok_or(Errno::Noent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> WasiCtx {
        WasiCtx::new(Box::new(MemBackend::new()), "/data", Rights::all())
    }

    #[test]
    fn std_fds_present() {
        let mut c = ctx();
        assert!(c.fd(0).is_ok());
        assert!(c.fd(1).is_ok());
        assert!(c.fd(2).is_ok());
        assert!(c.fd(3).is_ok());
        assert_eq!(c.fd(4).err(), Some(Errno::Badf));
    }

    #[test]
    fn open_write_read() {
        let mut c = ctx();
        let fd = c.open_file(3, "db.bin", true, false, Rights::all()).unwrap();
        match &mut c.fd(fd).unwrap().kind {
            FdKind::File { handle } => {
                handle.write(b"hello").unwrap();
                handle.seek(0).unwrap();
                let mut buf = [0u8; 5];
                handle.read(&mut buf).unwrap();
                assert_eq!(&buf, b"hello");
            }
            _ => panic!("expected file"),
        }
        c.close(fd).unwrap();
        assert_eq!(c.fd(fd).err(), Some(Errno::Badf));
    }

    #[test]
    fn sandbox_rejects_escapes() {
        let mut c = ctx();
        assert_eq!(c.resolve_path(3, "../etc/passwd").err(), Some(Errno::Notcapable));
        assert_eq!(c.resolve_path(3, "a/../../b").err(), Some(Errno::Notcapable));
        assert_eq!(c.resolve_path(3, "").err(), Some(Errno::Inval));
        assert_eq!(c.resolve_path(3, "ok/file").unwrap(), "/data/ok/file");
        assert_eq!(c.resolve_path(3, "/abs").unwrap(), "/data/abs");
        // Non-preopen dirfd:
        assert_eq!(c.resolve_path(1, "x").err(), Some(Errno::Notdir));
    }

    #[test]
    fn rights_attenuation_on_open() {
        let mut c = WasiCtx::new(Box::new(MemBackend::new()), "/ro", Rights::read_only());
        // Cannot create without PATH_CREATE_FILE.
        assert_eq!(
            c.open_file(3, "new.txt", true, false, Rights::all()).err(),
            Some(Errno::Notcapable)
        );
        // Opening a missing file without create: NOENT.
        assert_eq!(
            c.open_file(3, "missing.txt", false, false, Rights::all()).err(),
            Some(Errno::Noent)
        );
    }

    #[test]
    fn unlink_requires_right() {
        let mut c = WasiCtx::new(Box::new(MemBackend::new()), "/ro", Rights::read_only());
        assert_eq!(c.unlink(3, "x").err(), Some(Errno::Notcapable));
        let mut c = ctx();
        assert_eq!(c.unlink(3, "x").err(), Some(Errno::Noent));
        c.open_file(3, "x", true, false, Rights::all()).unwrap();
        c.unlink(3, "x").unwrap();
    }

    #[test]
    fn clock_is_monotonic() {
        let mut c = ctx();
        let a = c.now();
        let b = c.now();
        let d = c.now();
        assert!(a < b && b < d);
    }

    #[test]
    fn cannot_close_std_or_preopen() {
        let mut c = ctx();
        assert!(c.close(0).is_err());
        assert!(c.close(3).is_err());
    }

    #[test]
    fn reset_for_invocation_preserves_backend_and_clock() {
        let mut backend = MemBackend::new();
        backend
            .open("/data/persisted.bin", true, false)
            .unwrap()
            .write(b"keep me")
            .unwrap();
        let mut c = WasiCtx::new(Box::new(backend), "/data", Rights::all());
        c.stdout.extend_from_slice(b"run 1 output");
        c.stderr.extend_from_slice(b"run 1 errors");
        c.exit_code = Some(3);
        c.call_count = 17;
        let fd = c.open_file(3, "scratch.txt", true, false, Rights::all()).unwrap();
        assert_eq!(fd, 4);
        let t1 = c.now();

        c.reset_for_invocation();

        // Per-run state cleared; opened fds gone, fd allocation rewound.
        assert!(c.stdout.is_empty() && c.stderr.is_empty());
        assert_eq!(c.exit_code, None);
        assert_eq!(c.call_count, 0);
        assert_eq!(c.fd(4).err(), Some(Errno::Badf));
        assert_eq!(
            c.open_file(3, "scratch.txt", false, false, Rights::all()).unwrap(),
            4,
            "fd numbering restarts like a fresh context"
        );
        // Preopens and std streams survive with their rights.
        assert!(c.fd(0).is_ok() && c.fd(3).is_ok());
        // Backend contents survive.
        assert_eq!(c.path_size(3, "persisted.bin").unwrap(), 7);
        // Clock keeps advancing monotonically rather than restarting.
        assert!(c.now() > t1);
        // RNG stream restarts: identical to a fresh context's stream.
        let mut fresh = WasiCtx::new(Box::new(MemBackend::new()), "/data", Rights::all());
        let (mut a, mut b) = ([0u8; 16], [0u8; 16]);
        c.random_fill(&mut a);
        fresh.random_fill(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_capacity_survives_reset_and_take_cycle() {
        let mut c = ctx();
        let mut s = c.take_scratch();
        s.resize(8 * 1024, 0xAA);
        c.restore_scratch(s);
        c.reset_for_invocation();
        // Reset clears contents but keeps the grown capacity (the warm
        // path must not re-allocate), and a fresh take hands it back empty.
        let s = c.take_scratch();
        assert!(s.is_empty());
        assert!(s.capacity() >= 8 * 1024, "capacity was dropped");
        c.restore_scratch(s);
    }

    #[test]
    fn oversized_scratch_is_not_pinned_for_the_session() {
        // A guest-controlled iovec length sizes the scratch buffer; a
        // hostile spike must cost only its own call, not stay resident.
        let mut c = ctx();
        let mut s = c.take_scratch();
        s.resize(SCRATCH_KEEP_MAX + 1, 0);
        c.restore_scratch(s);
        assert!(
            c.scratch.capacity() <= SCRATCH_KEEP_MAX,
            "oversized scratch was retained ({} bytes)",
            c.scratch.capacity()
        );
    }

    #[test]
    fn random_deterministic_per_seed() {
        let mut c1 = ctx();
        let mut c2 = ctx();
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        c1.random_fill(&mut a);
        c2.random_fill(&mut b);
        assert_eq!(a, b, "same seed, same stream");
        let mut c = [0u8; 16];
        c1.random_fill(&mut c);
        assert_ne!(a, c, "stream advances");
    }
}
