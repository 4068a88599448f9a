//! Tenant database sessions: secure DB-as-a-service on the serving plane
//! (DESIGN.md §13).
//!
//! The paper's flagship workload is SQLite over the protected file system
//! (§V-C/D); this module lifts it from a one-shot benchmark body onto the
//! session layer. Each DB session owns a **private protected backend**
//! (the same `make_backend` product a Wasm session gets — for the default
//! [`FsChoice::ProtectedInMemory`](crate::FsChoice) every database byte is
//! sealed by `twine-pfs` before it leaves the enclave), and the database
//! file lives in that backend, reached through [`BackendVfs`].
//!
//! The database's **rollback journal** does not: a [`SessionVfs`] serves
//! it from a [`MemVfs`] in enclave memory, owned by the connection. The
//! pager journals exactly as it does over any VFS (pre-images on first
//! touch, the count + `sync` commit point, replay on `ROLLBACK` or a
//! failed statement or commit, delete at commit); only the file's home
//! differs. Its plaintext never leaves the enclave. The journal guards
//! against no crash a session survives in the backend: every session
//! backend lives in process memory and dies with the enclave, after which
//! `recover()` rebuilds the database from its sealed park manifest, and a
//! crash inside the database file's own protected-FS flush leaves that
//! file failing authentication with or without a journal.
//!
//! For the same reason the **database file syncs when the session
//! settles**, not at every commit. The pager reaches the file through a
//! [`SettledFile`], whose `sync` does nothing, so a commit writes its
//! pages into the protected file's node cache and seals nothing. Dirty
//! nodes stay there; one the cache evicts is sealed and written as ever,
//! its fresh tag kept in its resident L2 node. [`DbSession::settle`] —
//! run by a park, before the manifest reads the file back through a
//! second handle, and by `db_close_session`, before the backend is handed
//! to the embedder — commits what the connection holds and flushes the
//! file: the dirty data nodes, their Merkle path and the meta node, once.
//! Between settles the host's copy of a live database is not
//! self-consistent (its meta node is older than some of its data nodes),
//! and nothing reads it: the connection reads through its own handle,
//! whose Merkle nodes in enclave memory verify every node it loads, so a
//! host that serves an older or a foreign node is still caught.
//!
//! A DB session is a session like any other: it lives in the service's one
//! session table and goes through the one park → seal → restore →
//! quarantine → recover pipeline of `service.rs` (DESIGN.md §10). This
//! module holds only what is particular to the kind:
//!
//! * the **live state** — a [`Connection`] with its per-session
//!   plan cache, so a statement whose shape (its text with the literals
//!   taken out) was seen before does zero parser work (counters surface in
//!   [`ControlStats::stmt_cache_hits`](crate::ControlStats));
//! * the **image** — a *manifest* of the backend's database file (format
//!   byte 4), taken after committing whatever the connection still holds;
//! * **rehydration** — reopening a connection over the retained backend,
//!   which is authoritative for the data (the unsealed manifest proves the
//!   park-time image, and with it any durable record, is intact);
//! * **recovery** — after a simulated enclave restart, rebuilding a fresh
//!   backend from the manifest's file images.

use std::sync::{Arc, Mutex, MutexGuard};

use twine_sgx::Enclave;
use twine_sqldb::backend_vfs::BackendVfs;
use twine_sqldb::db::StmtCacheStats;
use twine_sqldb::value::Row;
use twine_sqldb::vfs::{MemVfs, Vfs, VfsFile};
use twine_sqldb::{journal_path, Connection, DbError, DbResult, SharedBackend};
use twine_wasi::FsBackend;

use crate::runtime::TwineError;
use crate::service::{no_session, Live, Parked, ParkedBody, SessionSlot, SlotState, TwineService};

/// Park-image format byte for a DB-session manifest (told apart from the
/// other three by `service::decode_image`).
pub(crate) const DB_MANIFEST_FORMAT: u8 = 4;

/// File name of the tenant database inside its private backend namespace.
const DB_FILE: &str = "tenant.db";

/// What a database session keeps whether live or sealed out.
pub(crate) struct DbCommon {
    /// The session's private backend; the database file lives here,
    /// protected by the PFS layer like any session file. (The rollback
    /// journal of an open transaction lives in the live connection's
    /// [`SessionVfs`], and a settled session has none.)
    backend: SharedBackend,
    /// Path of the database file inside the backend namespace.
    db_path: String,
    /// Plan-cache counters folded from connections closed by earlier
    /// parks (each park closes the connection; its counters fold here so
    /// per-session totals survive eviction cycles).
    folded_stmt: StmtCacheStats,
}

/// One live tenant database: the connection, with its page cache and
/// prepared-statement cache, over the session's private backend.
pub(crate) struct DbSession {
    conn: Connection,
    /// The one handle on the database file, shared with the connection's
    /// [`SettledFile`]; [`settle`](Self::settle) syncs it.
    db_file: SharedFile,
    common: DbCommon,
}

fn db_err(e: DbError) -> TwineError {
    TwineError::Db(e.to_string())
}

/// An open file shared by the connection and its session.
type SharedFile = Arc<Mutex<Box<dyn VfsFile>>>;

/// The namespace a DB session's connection sees: the database file in the
/// session's protected backend, reached through one handle whose `sync`
/// waits for the session to settle, and its rollback journal in enclave
/// memory (module docs).
struct SessionVfs {
    backend: BackendVfs,
    db_path: String,
    db_file: SharedFile,
    journal_path: String,
    journal: MemVfs,
}

impl SessionVfs {
    fn home_of(&mut self, name: &str) -> &mut dyn Vfs {
        if name == self.journal_path {
            &mut self.journal
        } else {
            &mut self.backend
        }
    }
}

impl Vfs for SessionVfs {
    fn open(&mut self, name: &str) -> DbResult<Box<dyn VfsFile>> {
        if name == self.db_path {
            return Ok(Box::new(SettledFile(self.db_file.clone())));
        }
        self.home_of(name).open(name)
    }

    fn delete(&mut self, name: &str) -> DbResult<()> {
        self.home_of(name).delete(name)
    }

    fn exists(&mut self, name: &str) -> bool {
        self.home_of(name).exists(name)
    }
}

/// The database file as a session's pager sees it: every call goes to the
/// session's one handle, except `sync`, which does nothing. The pager's
/// commit point therefore seals no node; the protected file system keeps
/// dirty nodes in its cache (sealing one only to evict it) until
/// [`DbSession::settle`] flushes the file (module docs).
struct SettledFile(SharedFile);

/// The shared handle, locked. Only the session's own thread of control
/// ever holds it, for one call.
fn lock(file: &SharedFile) -> MutexGuard<'_, Box<dyn VfsFile>> {
    file.lock().expect("no panic while the database file is locked")
}

impl VfsFile for SettledFile {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> DbResult<()> {
        lock(&self.0).read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> DbResult<()> {
        lock(&self.0).write_at(offset, data)
    }

    fn truncate(&mut self, size: u64) -> DbResult<()> {
        lock(&self.0).truncate(size)
    }

    fn sync(&mut self) -> DbResult<()> {
        Ok(())
    }

    fn size(&mut self) -> DbResult<u64> {
        lock(&self.0).size()
    }
}

/// Sum two plan-cache counter snapshots fieldwise.
fn add_stmt(a: StmtCacheStats, b: StmtCacheStats) -> StmtCacheStats {
    StmtCacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        parses: a.parses + b.parses,
        evictions: a.evictions + b.evictions,
    }
}

impl DbSession {
    /// Open a connection over a session backend — its journal in enclave
    /// memory, through a [`SessionVfs`] — and wire its pager page hook into
    /// the session's private EPC range (a database page cached inside the
    /// enclave is EPC residency, exactly like guest memory). Hands the
    /// backend back on failure.
    pub(crate) fn connect(
        enclave: &Arc<Enclave>,
        common: DbCommon,
        epc_base_page: u64,
    ) -> Result<Self, (TwineError, DbCommon)> {
        let mut backend = BackendVfs::from_shared(common.backend.clone());
        let db_file: SharedFile = match backend.open(&common.db_path) {
            Ok(f) => Arc::new(Mutex::new(f)),
            Err(e) => return Err((db_err(e), common)),
        };
        let vfs = SessionVfs {
            backend,
            db_path: common.db_path.clone(),
            db_file: db_file.clone(),
            journal_path: journal_path(&common.db_path),
            journal: MemVfs::new(),
        };
        let mut conn = match Connection::open(Box::new(vfs), &common.db_path) {
            Ok(conn) => conn,
            Err(e) => return Err((db_err(e), common)),
        };
        let epc = enclave.epc();
        conn.set_page_hook(Some(Box::new(move |page, _write| {
            epc.touch(epc_base_page + u64::from(page));
        })));
        Ok(Self { conn, db_file, common })
    }

    /// Bring the database to rest: commit whatever the connection still
    /// holds — or roll it back if that commit fails — so that no journal
    /// exists, then flush the database file, so that the backend's copy
    /// alone is the database. The file is flushed whatever the commit did:
    /// a rollback writes pre-images back through it too. Also returns the
    /// EPC pages of the session's private range the pager's cache may hold
    /// resident (+1 for the header page the hook also touches via page id
    /// offsets).
    pub(crate) fn settle(&mut self) -> (u64, Result<(), TwineError>) {
        let pages = u64::from(self.conn.page_count()) + 1;
        let flushed = self.conn.flush();
        let synced = lock(&self.db_file).sync();
        (pages, flushed.and(synced).map_err(db_err))
    }

    /// The park image: the manifest of the backend's database file. The
    /// connection stays open — a park that fails later leaves the session
    /// serving from it.
    pub(crate) fn manifest(&self) -> Result<Vec<u8>, TwineError> {
        DbManifest::encode(&self.common.backend, &self.common.db_path)
    }

    /// Seal-out: drop the connection, folding its plan-cache counters into
    /// the session so per-tenant totals survive eviction.
    pub(crate) fn into_parked(self) -> DbCommon {
        DbCommon {
            folded_stmt: add_stmt(self.common.folded_stmt, self.conn.stmt_cache_stats()),
            ..self.common
        }
    }
}

/// The decoded park image of a DB session: files of its backend namespace
/// with their full contents. A park images the database file alone; the
/// format keeps a file list so that records written while the rollback
/// journal lived in the backend (listed when one existed) still decode and
/// rebuild.
pub(crate) struct DbManifest {
    db_path: String,
    files: Vec<(String, Vec<u8>)>,
}

impl DbManifest {
    /// Encode the manifest of `backend`: format byte 4, the database path,
    /// then a one-entry file list holding the database file read back
    /// through the backend.
    fn encode(backend: &SharedBackend, db_path: &str) -> Result<Vec<u8>, TwineError> {
        let mut f = BackendVfs::from_shared(backend.clone())
            .open(db_path)
            .map_err(db_err)?;
        let mut data = vec![0u8; f.size().map_err(db_err)? as usize];
        f.read_at(0, &mut data).map_err(db_err)?;
        let path = [&(db_path.len() as u32).to_le_bytes()[..], db_path.as_bytes()].concat();
        let mut out = vec![DB_MANIFEST_FORMAT];
        out.extend_from_slice(&path);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&path);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
        out.extend_from_slice(&data);
        Ok(out)
    }

    /// Decode what follows the format byte. `None` on any structural
    /// corruption.
    pub(crate) fn decode(mut rest: &[u8]) -> Option<Self> {
        /// Split the next `n` bytes off the front of `b`.
        fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            let (head, tail) = b.split_at_checked(n)?;
            *b = tail;
            Some(head)
        }
        fn take_u32(b: &mut &[u8]) -> Option<usize> {
            Some(u32::from_le_bytes(take(b, 4)?.try_into().ok()?) as usize)
        }
        fn take_str(b: &mut &[u8]) -> Option<String> {
            let len = take_u32(b)?;
            String::from_utf8(take(b, len)?.to_vec()).ok()
        }
        let db_path = take_str(&mut rest)?;
        let mut files = Vec::new();
        for _ in 0..take_u32(&mut rest)? {
            let path = take_str(&mut rest)?;
            let len = u64::from_le_bytes(take(&mut rest, 8)?.try_into().ok()?);
            files.push((path, take(&mut rest, usize::try_from(len).ok()?)?.to_vec()));
        }
        Some(Self { db_path, files })
    }

    /// Rebuild a sealed-out DB session from its durable image: write the
    /// manifest's files into a fresh protected `backend` — the session's
    /// first statement then reopens the database bit-identical to the
    /// durably parked state.
    pub(crate) fn rebuild(self, backend: Box<dyn FsBackend>) -> Result<DbCommon, TwineError> {
        let mut vfs = BackendVfs::new(backend);
        for (path, data) in &self.files {
            let mut f = vfs.open(path).map_err(db_err)?;
            f.write_at(0, data).map_err(db_err)?;
            f.sync().map_err(db_err)?;
        }
        Ok(DbCommon {
            backend: vfs.shared(),
            db_path: self.db_path,
            folded_stmt: StmtCacheStats::default(),
        })
    }
}

impl TwineService {
    /// Open a named database session: a private protected backend is
    /// created from the service's file-system template, a database file
    /// is initialised inside it, and a connection (with its
    /// prepared-statement cache) is kept live for warm statements.
    ///
    /// DB sessions share the Wasm sessions' name space, EPC-slot
    /// allocator and LRU eviction policy.
    ///
    /// # Errors
    /// [`TwineError::Session`] if the name is taken;
    /// [`TwineError::Db`] if the database cannot be initialised.
    pub fn db_open_session(&mut self, name: &str) -> Result<(), TwineError> {
        self.check_name_free(name)?;
        let common = DbCommon {
            backend: Arc::new(Mutex::new(self.new_backend())),
            db_path: format!("{}/{}", self.shared.tpl.preopen, DB_FILE),
            folded_stmt: StmtCacheStats::default(),
        };
        let epc_base_page = self.take_epc_range();
        let session =
            DbSession::connect(&self.shared.enclave, common, epc_base_page).map_err(|(e, _)| e)?;
        self.admit(name, epc_base_page, SlotState::Live(Live::Db(session)));
        // A fresh DB session counts against the same eviction budget.
        self.enforce_pressure(Some(name));
        Ok(())
    }

    /// Execute one SQL statement on a session's database (warm path: a
    /// statement of a shape seen before is served from the session's plan
    /// cache with zero parser work). Returns the number of affected rows.
    ///
    /// # Errors
    /// [`TwineError::Session`] for an unknown name,
    /// [`TwineError::Quarantined`] for a damaged parked session,
    /// [`TwineError::Db`] for a statement the database rejects.
    pub fn db_execute(&mut self, name: &str, sql: &str) -> Result<u64, TwineError> {
        self.db_run(name, |conn| conn.execute(sql).map(|r| r.affected))
    }

    /// Execute one SQL statement and return its result rows.
    ///
    /// # Errors
    /// As [`db_execute`](Self::db_execute).
    pub fn db_query(&mut self, name: &str, sql: &str) -> Result<Vec<Row>, TwineError> {
        self.db_run(name, |conn| conn.execute(sql).map(|r| r.rows))
    }

    /// Execute a batch of statements in order on a session's database,
    /// returning the total affected-row count. The first failing
    /// statement aborts the remainder (statements already executed keep
    /// their effects — batch entries are individually autocommitted, or
    /// grouped by explicit BEGIN/COMMIT entries inside the batch).
    ///
    /// # Errors
    /// As [`db_execute`](Self::db_execute).
    pub fn db_execute_batch(
        &mut self,
        name: &str,
        stmts: &[String],
    ) -> Result<u64, TwineError> {
        self.db_run(name, |conn| {
            let mut affected = 0u64;
            for sql in stmts {
                affected += conn.execute(sql)?.affected;
            }
            Ok(affected)
        })
    }

    /// Names of the tables in a session's database schema (sorted — the
    /// serving-plane analogue of reading `sqlite_master`).
    ///
    /// # Errors
    /// As [`db_execute`](Self::db_execute).
    pub fn db_table_names(&mut self, name: &str) -> Result<Vec<String>, TwineError> {
        self.db_run(name, |conn| {
            let mut tables: Vec<String> = conn.schema().tables.keys().cloned().collect();
            tables.sort();
            Ok(tables)
        })
    }

    /// Run `f` on the session's connection — restoring the session first
    /// if it is parked — and fold the plan-cache counter deltas into the
    /// control-plane stats.
    fn db_run<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Connection) -> twine_sqldb::DbResult<T>,
    ) -> Result<T, TwineError> {
        self.use_seq += 1;
        let slot = self
            .sessions
            .get_mut(name)
            .filter(|s| s.is_db())
            .ok_or_else(|| no_session(name))?;
        slot.last_use = self.use_seq;
        // A restore re-admits a live session (and its page cache): under
        // a live-session budget someone else may have to park.
        if self.ensure_live(name)? {
            self.enforce_pressure(Some(name));
        }
        let Some(SessionSlot {
            state: SlotState::Live(Live::Db(sess)),
            ..
        }) = self.sessions.get_mut(name)
        else {
            unreachable!("ensure_live leaves the session live");
        };
        let before = sess.conn.stmt_cache_stats();
        let out = f(&mut sess.conn);
        let after = sess.conn.stmt_cache_stats();
        self.control_stats.stmt_cache_hits += after.hits - before.hits;
        self.control_stats.stmt_cache_misses += after.misses - before.misses;
        self.control_stats.db_statements +=
            (after.hits + after.misses) - (before.hits + before.misses);
        out.map_err(db_err)
    }

    /// Park a DB session: [`park_session`](Self::park_session) under the
    /// name this API had when database sessions had a lifecycle of their
    /// own. It forwards, nothing else, and stays only because the
    /// `twine_bench` benchmark package calls it.
    ///
    /// # Errors
    /// As [`park_session`](Self::park_session).
    pub fn db_park_session(&mut self, name: &str) -> Result<(), TwineError> {
        self.park_session(name)
    }

    /// Close a DB session (live or parked), returning its backend so the
    /// embedder can persist or migrate the tenant's protected database.
    /// A live session settles first, so the backend holds every committed
    /// row and no journal. Retires any durable record (a replay is then
    /// rejected as stale).
    pub fn db_close_session(&mut self, name: &str) -> Option<SharedBackend> {
        match self.close(name, true)? {
            ParkedBody::Db(common) => Some(common.backend),
            ParkedBody::Wasm(..) => unreachable!("close checked the kind"),
        }
    }

    /// Cumulative plan-cache counters for one DB session, surviving
    /// park/restore cycles (counters of closed connections fold in).
    #[must_use]
    pub fn db_stmt_cache_stats(&self, name: &str) -> Option<StmtCacheStats> {
        match &self.sessions.get(name)?.state {
            SlotState::Live(Live::Db(sess)) => Some(add_stmt(
                sess.common.folded_stmt,
                sess.conn.stmt_cache_stats(),
            )),
            SlotState::Parked(Parked { body: ParkedBody::Db(common), .. })
            | SlotState::Quarantined(Parked { body: ParkedBody::Db(common), .. }, _) => {
                Some(common.folded_stmt)
            }
            _ => None,
        }
    }
}
