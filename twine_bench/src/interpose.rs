//! Benchmark-owned wrappers on the program's public traits: the places where
//! a layer boundary can be observed from outside. `TimedVfs` sits between the
//! SQL engine's pager and whatever file system is below it (`twine-sqldb` ↔
//! `twine-pfs`); `CountingStorage` sits below the protected file system
//! (`twine-pfs` ↔ untrusted storage).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use twine_pfs::{PfsError, UntrustedStorage, NODE_SIZE};
use twine_sqldb::{DbResult, Vfs, VfsFile};

use crate::spans::Recorder;

/// What crossed the VFS boundary. Relaxed atomics: statistics only, read
/// after the connection's thread is done.
#[derive(Default)]
pub struct VfsCounters {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub syncs: AtomicU64,
    pub bytes_written: AtomicU64,
    /// Wall time spent below the boundary.
    pub ns: AtomicU64,
}

/// A point-in-time copy of [`VfsCounters`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VfsSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub syncs: u64,
    pub bytes_written: u64,
    pub ns: u64,
}

impl VfsCounters {
    pub fn snapshot(&self) -> VfsSnapshot {
        VfsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }
}

impl VfsSnapshot {
    pub fn since(&self, earlier: &VfsSnapshot) -> VfsSnapshot {
        VfsSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            syncs: self.syncs - earlier.syncs,
            bytes_written: self.bytes_written - earlier.bytes_written,
            ns: self.ns - earlier.ns,
        }
    }
}

/// What a wrapper shares with the benchmark: counters always, a span
/// recorder when the replay is traced.
#[derive(Clone, Default)]
pub struct Probe {
    pub counters: Arc<VfsCounters>,
    pub recorder: Option<Recorder>,
}

impl Probe {
    /// Time one call below the boundary, as a child of whatever span the
    /// benchmark has open (the statement).
    fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.recorder.as_ref().map(|r| r.begin(name));
        let t = Instant::now();
        let out = f();
        self.counters
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if let (Some(r), Some(id)) = (&self.recorder, span) {
            r.end(id);
        }
        out
    }
}

/// A [`Vfs`] that times and counts every call into the one it wraps.
pub struct TimedVfs {
    inner: Box<dyn Vfs>,
    probe: Probe,
}

impl TimedVfs {
    pub fn new(inner: Box<dyn Vfs>, probe: Probe) -> Self {
        Self { inner, probe }
    }
}

impl Vfs for TimedVfs {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        let inner = self.probe.call("vfs.open", || self.inner.open(name))?;
        Ok(Box::new(TimedFile {
            inner,
            probe: self.probe.clone(),
        }))
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        self.probe.call("vfs.delete", || self.inner.delete(name))
    }

    fn exists(&mut self, name: &str) -> bool {
        self.probe.call("vfs.exists", || self.inner.exists(name))
    }
}

struct TimedFile {
    inner: Box<dyn VfsFile>,
    probe: Probe,
}

impl VfsFile for TimedFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        self.probe.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.probe
            .call("vfs.read", || self.inner.read_at(offset, buf))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()> {
        self.probe.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.probe
            .counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.probe
            .call("vfs.write", || self.inner.write_at(offset, data))
    }

    fn truncate(&mut self, size: u64) -> DbResult<()> {
        self.probe
            .call("vfs.truncate", || self.inner.truncate(size))
    }

    fn sync(&mut self) -> DbResult<()> {
        self.probe.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.probe.call("vfs.sync", || self.inner.sync())
    }

    fn size(&mut self) -> DbResult<u64> {
        self.probe.call("vfs.size", || self.inner.size())
    }
}

/// Node reads and writes that reached untrusted storage.
#[derive(Default)]
pub struct StorageCounters {
    pub node_reads: AtomicU64,
    pub node_writes: AtomicU64,
}

/// An [`UntrustedStorage`] that counts node I/O into the one it wraps.
pub struct CountingStorage<S> {
    inner: S,
    counters: Arc<StorageCounters>,
}

impl<S> CountingStorage<S> {
    pub fn new(inner: S, counters: Arc<StorageCounters>) -> Self {
        Self { inner, counters }
    }
}

impl<S: UntrustedStorage> UntrustedStorage for CountingStorage<S> {
    fn read_node(&mut self, idx: u64, buf: &mut [u8; NODE_SIZE]) -> Result<bool, PfsError> {
        self.counters.node_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_node(idx, buf)
    }

    fn write_node(&mut self, idx: u64, buf: &[u8; NODE_SIZE]) -> Result<(), PfsError> {
        self.counters.node_writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write_node(idx, buf)
    }

    fn node_count(&self) -> u64 {
        self.inner.node_count()
    }

    fn truncate(&mut self, nodes: u64) -> Result<(), PfsError> {
        self.inner.truncate(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twine_pfs::MemStorage;
    use twine_sqldb::{Connection, MemVfs};

    #[test]
    fn timed_vfs_counts_and_nests_under_the_statement_span() {
        let probe = Probe {
            counters: Arc::default(),
            recorder: Some(Recorder::new()),
        };
        let vfs = TimedVfs::new(Box::new(MemVfs::new()), probe.clone());
        let mut db = Connection::open(Box::new(vfs), "t.db").expect("open");
        let rec = probe.recorder.clone().expect("traced");
        // Opening the database already called into the VFS, outside any
        // statement.
        rec.take();
        let stmt = rec.begin_request("stmt");
        db.execute("CREATE TABLE t(a INTEGER PRIMARY KEY, b BLOB)")
            .expect("create");
        db.execute("INSERT INTO t VALUES (1, x'00ff')")
            .expect("insert");
        rec.end(stmt);
        let c = probe.counters.snapshot();
        assert!(
            c.writes > 0 && c.syncs > 0 && c.bytes_written >= 4096,
            "{c:?}"
        );
        let spans = rec.take();
        let vfs_spans: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("vfs."))
            .collect();
        assert!(!vfs_spans.is_empty());
        assert!(vfs_spans.iter().all(|s| s.parent == Some(stmt)));
        // The statement's self time excludes its VFS children.
        let self_ns = crate::spans::self_times_ns(&spans)[stmt as usize];
        let children: u64 = vfs_spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            self_ns + children,
            spans[stmt as usize].end_ns - spans[stmt as usize].start_ns
        );
    }

    #[test]
    fn counting_storage_counts_node_io() {
        let counters = Arc::new(StorageCounters::default());
        let mut store = CountingStorage::new(MemStorage::new(), Arc::clone(&counters));
        let node = [7u8; NODE_SIZE];
        store.write_node(3, &node).expect("write");
        let mut back = [0u8; NODE_SIZE];
        assert!(store.read_node(3, &mut back).expect("read"));
        assert_eq!(back, node);
        assert_eq!(counters.node_writes.load(Ordering::Relaxed), 1);
        assert_eq!(counters.node_reads.load(Ordering::Relaxed), 1);
        assert_eq!(store.node_count(), 4);
    }
}
