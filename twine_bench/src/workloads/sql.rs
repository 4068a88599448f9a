//! The three trusted-database workloads. All use one tenant database per
//! shard, `kv(a INTEGER PRIMARY KEY, b BLOB)` with 1 000-byte payloads, and
//! differ in table size and statement mix:
//!
//! * `sql_read_hot` — 2 000 rows (≈2 MB, far below the 8 MiB pager cache):
//!   parse/plan, B-tree and the shard round trip dominate; PFS and crypto
//!   are idle because every page is cached.
//! * `sql_read_cold` — 24 000 rows (≈27 MB, over three pager caches and far
//!   beyond the 48-node PFS cache): most reads miss the pager and pay the
//!   PFS Merkle walk and node decryption (the paper's Fig. 5c).
//! * `sql_write` — 2 000 rows, one transaction per op that updates a live
//!   row, inserts the next key and deletes the oldest (table size constant,
//!   freelist recycles): journal, page write-back and PFS flush.

use std::collections::VecDeque;
use std::sync::Arc;

use twine_core::{ShardedService, TwineBuilder};
use twine_sqldb::SqlValue;

use crate::harness::{drive, names_on_shard, Client, ClientLog, Config, Rep, Step, SHARDS};
use crate::rng::{hex_literal, SplitMix64};

pub const PAYLOAD_BYTES: usize = 1000;
/// Rows per INSERT statement while populating.
const POPULATE_BATCH: usize = 25;
/// Live rows sampled per tenant by the end-state check of `sql_write`.
const END_STATE_SAMPLES: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReadHot,
    ReadCold,
    Write,
}

impl Kind {
    fn rows_at_scale_1(self) -> usize {
        match self {
            Kind::ReadHot | Kind::Write => 2_000,
            Kind::ReadCold => 24_000,
        }
    }

    /// Ops per client per repetition at scale 1 (≈1 s each on the 2-core
    /// reference host); every repetition keeps ≥ 1 000 latency samples.
    fn ops_at_scale_1(self) -> usize {
        match self {
            Kind::ReadHot => 35_000,
            Kind::ReadCold => 7_000,
            Kind::Write => 600,
        }
    }

    fn lane(self) -> u64 {
        match self {
            Kind::ReadHot => 0x0068_6f74,
            Kind::ReadCold => 0x636f_6c64,
            Kind::Write => 0x7772_6974,
        }
    }
}

/// The payload of `key` at its `version`-th write, for `tenant`.
pub fn payload(seed: u64, tenant: usize, key: u64, version: u32) -> Vec<u8> {
    let mut buf = vec![0u8; PAYLOAD_BYTES];
    SplitMix64::derive(seed, &[0x7061_796c, tenant as u64, key, u64::from(version)]).fill(&mut buf);
    buf
}

/// One statement or transaction with what its reply must be.
pub enum SqlOp {
    /// Point read: the reply must be exactly one row `(key, payload)`.
    Read { sql: String, key: u64, version: u32 },
    /// Transaction: the reply must count three affected rows.
    Txn { stmts: Vec<String> },
}

/// The benchmark's model of one tenant's table: keys `lo..hi` are live, each
/// at a known version.
#[derive(Clone)]
pub struct Model {
    pub tenant: usize,
    pub lo: u64,
    pub versions: VecDeque<u32>,
}

impl Model {
    pub fn new(tenant: usize, rows: usize) -> Self {
        Self {
            tenant,
            lo: 0,
            versions: VecDeque::from(vec![0; rows]),
        }
    }

    fn hi(&self) -> u64 {
        self.lo + self.versions.len() as u64
    }
}

pub fn read_sql(key: u64) -> String {
    format!("SELECT a, b FROM kv WHERE a = {key}")
}

/// The seeded op list of one client for one repetition. Advances `model`
/// past the writes it generates.
pub fn ops(seed: u64, kind: Kind, model: &mut Model, rep: u64, n: usize) -> Vec<SqlOp> {
    let tenant = model.tenant;
    let mut rng = SplitMix64::derive(seed, &[kind.lane(), tenant as u64, rep]);
    (0..n)
        .map(|_| match kind {
            Kind::ReadHot | Kind::ReadCold => {
                let key = model.lo + rng.below(model.versions.len() as u64);
                SqlOp::Read {
                    sql: read_sql(key),
                    key,
                    version: model.versions[(key - model.lo) as usize],
                }
            }
            Kind::Write => {
                // Update any live row but the oldest (deleted below).
                let live = model.lo + 1 + rng.below(model.versions.len() as u64 - 1);
                let slot = (live - model.lo) as usize;
                model.versions[slot] += 1;
                let updated = payload(seed, tenant, live, model.versions[slot]);
                let next = model.hi();
                let inserted = payload(seed, tenant, next, 0);
                let oldest = model.lo;
                model.versions.push_back(0);
                model.versions.pop_front();
                model.lo += 1;
                SqlOp::Txn {
                    stmts: vec![
                        "BEGIN".to_string(),
                        format!(
                            "UPDATE kv SET b = {} WHERE a = {live}",
                            hex_literal(&updated)
                        ),
                        format!("INSERT INTO kv VALUES ({next}, {})", hex_literal(&inserted)),
                        format!("DELETE FROM kv WHERE a = {oldest}"),
                        "COMMIT".to_string(),
                    ],
                }
            }
        })
        .collect()
}

fn ops_per_client(cfg: &Config, kind: Kind, frac: f64) -> usize {
    ((cfg.scaled(kind.ops_at_scale_1(), 40) as f64) * frac).ceil() as usize
}

fn rows(cfg: &Config, kind: Kind) -> usize {
    cfg.scaled(kind.rows_at_scale_1(), 50)
}

#[cfg(test)]
/// Digest of repetition `rep`'s op stream over both tenants, starting from
/// the freshly populated table.
pub fn stream_digest(cfg: &Config, kind: Kind, rep: u64) -> u64 {
    let mut d = crate::rng::Digest::default();
    for tenant in 0..SHARDS {
        let mut model = Model::new(tenant, rows(cfg, kind));
        for op in ops(
            cfg.seed,
            kind,
            &mut model,
            rep,
            ops_per_client(cfg, kind, 1.0),
        ) {
            match op {
                SqlOp::Read { sql, .. } => d.bytes(sql.as_bytes()),
                SqlOp::Txn { stmts } => stmts.iter().for_each(|s| d.bytes(s.as_bytes())),
            }
        }
    }
    d.value()
}

/// Statements that create and fill one tenant's table, in batches that are
/// each one transaction.
pub fn populate_batches(seed: u64, tenant: usize, rows: usize) -> Vec<Vec<String>> {
    let mut batches = vec![vec![
        "CREATE TABLE kv(a INTEGER PRIMARY KEY, b BLOB)".to_string()
    ]];
    let keys: Vec<u64> = (0..rows as u64).collect();
    for chunk in keys.chunks(POPULATE_BATCH) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&k| format!("({k}, {})", hex_literal(&payload(seed, tenant, k, 0))))
            .collect();
        batches.push(vec![
            "BEGIN".to_string(),
            format!("INSERT INTO kv VALUES {}", values.join(", ")),
            "COMMIT".to_string(),
        ]);
    }
    batches
}

/// Is `rows` exactly the one row `(key, payload)`?
pub fn row_matches(
    rows: &[Vec<SqlValue>],
    seed: u64,
    tenant: usize,
    key: u64,
    version: u32,
) -> bool {
    match rows {
        [row] => match row.as_slice() {
            [SqlValue::Int(a), SqlValue::Blob(b)] => {
                *a == key as i64 && *b == payload(seed, tenant, key, version)
            }
            _ => false,
        },
        _ => false,
    }
}

/// Where a statement stream can be sent: the sharded service end to end,
/// and the ladder's deeper entry points. `None` = any error or refusal.
pub trait SqlTarget {
    fn query(&mut self, sql: &str) -> Option<Vec<Vec<SqlValue>>>;
    /// Execute `stmts` in order; the total affected-row count.
    fn batch(&mut self, stmts: Vec<String>) -> Option<u64>;
}

/// A tenant session of the sharded service.
pub struct Sharded<'a>(pub &'a ShardedService, pub &'a str);

impl SqlTarget for Sharded<'_> {
    fn query(&mut self, sql: &str) -> Option<Vec<Vec<SqlValue>>> {
        self.0.db_query(self.1, sql).ok()
    }

    fn batch(&mut self, stmts: Vec<String>) -> Option<u64> {
        self.0.db_execute_batch(self.1, stmts).ok()
    }
}

/// Run one client's op list against `target`, checking every reply.
pub fn run_ops(
    seed: u64,
    tenant: usize,
    list: Vec<SqlOp>,
    log: &mut ClientLog,
    target: &mut (impl SqlTarget + ?Sized),
) {
    for op in list {
        match op {
            SqlOp::Read { sql, key, version } => {
                // The payload comparison is outside the latency sample.
                let reply = log.timed(|| target.query(&sql));
                log.check(reply.is_some_and(|rows| row_matches(&rows, seed, tenant, key, version)));
            }
            SqlOp::Txn { stmts } => log.op(|| target.batch(stmts) == Some(3)),
        }
    }
}

pub struct Sql {
    cfg: Config,
    svc: Arc<ShardedService>,
    /// One tenant database, and one client, per shard.
    tenants: Vec<Tenant>,
}

struct Tenant {
    cfg: Config,
    kind: Kind,
    svc: Arc<ShardedService>,
    name: String,
    model: Model,
    list: Vec<SqlOp>,
}

impl Client for Tenant {
    fn prepare(&mut self, rep: u64, frac: f64) {
        let n = ops_per_client(&self.cfg, self.kind, frac);
        self.list = ops(self.cfg.seed, self.kind, &mut self.model, rep, n);
    }

    fn run(&mut self, log: &mut ClientLog) {
        run_ops(
            self.cfg.seed,
            self.model.tenant,
            std::mem::take(&mut self.list),
            log,
            &mut Sharded(&self.svc, &self.name),
        );
    }
}

/// Set-up's client: creates and fills one tenant's table.
struct Populate<'a>(&'a Tenant, Vec<Vec<String>>);

impl Client for Populate<'_> {
    fn prepare(&mut self, _rep: u64, _frac: f64) {}

    fn run(&mut self, log: &mut ClientLog) {
        let Tenant { svc, name, .. } = self.0;
        log.check(svc.db_open_session(name).is_ok());
        for batch in std::mem::take(&mut self.1) {
            log.check(svc.db_execute_batch(name, batch).is_ok());
        }
    }
}

impl Sql {
    pub fn setup(cfg: &Config, kind: Kind) -> Self {
        let svc = Arc::new(TwineBuilder::new().build_sharded(SHARDS));
        let mut counter = 0;
        let n_rows = rows(cfg, kind);
        let tenants: Vec<Tenant> = (0..SHARDS)
            .map(|shard| Tenant {
                cfg: cfg.clone(),
                kind,
                svc: Arc::clone(&svc),
                name: names_on_shard(&svc, "tenant-", shard, 1, &mut counter).remove(0),
                model: Model::new(shard, n_rows),
                list: Vec::new(),
            })
            .collect();
        // Both tenants populate at once, each from its own client thread.
        let mut populate: Vec<Populate> = tenants
            .iter()
            .map(|t| Populate(t, populate_batches(cfg.seed, t.model.tenant, n_rows)))
            .collect();
        let done = drive(&mut populate, svc.clock(), |done| {
            done.is_empty().then_some(Step {
                rep: 0,
                frac: 1.0,
                traced: false,
            })
        });
        assert_eq!(done[0].failed, 0, "populating the tenant databases failed");
        Self {
            cfg: cfg.clone(),
            svc,
            tenants,
        }
    }

    pub fn service(&self) -> Arc<ShardedService> {
        Arc::clone(&self.svc)
    }

    /// `(kind, rows per tenant, ops per client per repetition)`.
    pub fn shape(&self) -> (Kind, usize, usize) {
        let kind = self.tenants[0].kind;
        (
            kind,
            rows(&self.cfg, kind),
            ops_per_client(&self.cfg, kind, 1.0),
        )
    }

    pub fn drive(&mut self, next: impl FnMut(&[Rep]) -> Option<Step>) -> Vec<Rep> {
        drive(&mut self.tenants, self.svc.clock(), next)
    }

    /// After the last repetition the table must hold exactly the model's
    /// rows: `count(*)`, the key range, and a sample of full payloads.
    pub fn verify_end_state(&self) -> (u64, u64) {
        let (mut checked, mut failed) = (0, 0);
        for Tenant { name, model, .. } in &self.tenants {
            let mut check = |good: bool| {
                checked += 1;
                failed += u64::from(!good);
            };
            let shape = self
                .svc
                .db_query(name, "SELECT count(*), min(a), max(a) FROM kv")
                .ok();
            check(shape.is_some_and(|rows| {
                rows == [vec![
                    SqlValue::Int(model.versions.len() as i64),
                    SqlValue::Int(model.lo as i64),
                    SqlValue::Int(model.hi() as i64 - 1),
                ]]
            }));
            let mut rng = SplitMix64::derive(self.cfg.seed, &[0x0065_6e64, model.tenant as u64]);
            for _ in 0..END_STATE_SAMPLES {
                let key = model.lo + rng.below(model.versions.len() as u64);
                let version = model.versions[(key - model.lo) as usize];
                let rows = self.svc.db_query(name, &read_sql(key)).ok();
                check(
                    rows.is_some_and(|r| {
                        row_matches(&r, self.cfg.seed, model.tenant, key, version)
                    }),
                );
            }
        }
        (checked, failed)
    }
}
