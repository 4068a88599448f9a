//! `wasm_warm`: unbatched warm invocations of a small handler through the
//! sharded serving plane. The plane (channel hand-off, admission, ECALL,
//! context reset, EPC fold) is over half of a call, the interpreter about
//! 40 %; crypto and SQL do nothing.

use std::sync::Arc;

use twine_core::{ShardedService, TwineBuilder};
use twine_wasm::Value;

use crate::guests::{self, handler_oracle};
use crate::harness::{drive, names_on_shard, Client, ClientLog, Config, Rep, Step, SHARDS};
use crate::rng::SplitMix64;

/// Sessions per shard.
pub const SESSIONS_PER_SHARD: usize = 8;
/// Invocations per client per repetition at scale 1 (≈1 s on the 2-core
/// reference host).
const OPS_PER_CLIENT: usize = 70_000;
/// Requests are drawn from `0..REQ_RANGE`.
pub const REQ_RANGE: u64 = 1 << 20;

pub struct WasmWarm {
    svc: Arc<ShardedService>,
    clients: Vec<WarmClient>,
}

/// The client of one shard: owns that shard's sessions.
struct WarmClient {
    cfg: Config,
    svc: Arc<ShardedService>,
    index: usize,
    names: Vec<String>,
    list: Vec<Call>,
}

impl Client for WarmClient {
    fn prepare(&mut self, rep: u64, frac: f64) {
        self.list = calls(
            self.cfg.seed,
            self.index,
            rep,
            ops_per_client(&self.cfg, frac),
        );
    }

    fn run(&mut self, log: &mut ClientLog) {
        let svc = &self.svc;
        run_calls(&self.names, &self.list, log, |name, req| {
            invoke_handle(svc, name, req)
        });
    }
}

/// One pre-generated call: session index, request, expected reply.
pub struct Call {
    pub session: usize,
    pub req: i32,
    pub expect: i32,
}

/// The seeded call list of one client for one repetition.
pub fn calls(seed: u64, client: usize, rep: u64, n: usize) -> Vec<Call> {
    let mut rng = SplitMix64::derive(seed, &[0x7761_726d, client as u64, rep]);
    (0..n)
        .map(|_| {
            let session = rng.below(SESSIONS_PER_SHARD as u64) as usize;
            let req = rng.below(REQ_RANGE) as i32;
            Call {
                session,
                req,
                expect: handler_oracle(req),
            }
        })
        .collect()
}

fn ops_per_client(cfg: &Config, frac: f64) -> usize {
    ((cfg.scaled(OPS_PER_CLIENT, 400) as f64) * frac).ceil() as usize
}

/// Digest of the op stream of repetition `rep` (all clients).
#[cfg(test)]
pub fn stream_digest(cfg: &Config, rep: u64) -> u64 {
    let mut d = crate::rng::Digest::default();
    for c in 0..SHARDS {
        for call in calls(cfg.seed, c, rep, ops_per_client(cfg, 1.0)) {
            d.u64(call.session as u64);
            d.u64(call.req as u64);
        }
    }
    d.value()
}

/// Run one client's call list against `invoke`, checking every reply.
pub fn run_calls(
    names: &[String],
    list: &[Call],
    log: &mut ClientLog,
    mut invoke: impl FnMut(&str, i32) -> Option<i32>,
) {
    for call in list {
        let name = &names[call.session];
        log.op(|| invoke(name, call.req) == Some(call.expect));
    }
}

impl WasmWarm {
    pub fn setup(cfg: &Config) -> Self {
        let wasm = guests::compile(guests::HANDLER_SRC);
        let svc = Arc::new(TwineBuilder::new().build_sharded(SHARDS));
        let mut counter = 0;
        let clients: Vec<WarmClient> = (0..SHARDS)
            .map(|index| WarmClient {
                cfg: cfg.clone(),
                svc: Arc::clone(&svc),
                index,
                names: names_on_shard(&svc, "warm-", index, SESSIONS_PER_SHARD, &mut counter),
                list: Vec::new(),
            })
            .collect();
        for name in clients.iter().flat_map(|c| &c.names) {
            svc.open_session(name, &wasm).expect("open warm session");
        }
        Self { svc, clients }
    }

    pub fn service(&self) -> Arc<ShardedService> {
        Arc::clone(&self.svc)
    }

    pub fn drive(&mut self, next: impl FnMut(&[Rep]) -> Option<Step>) -> Vec<Rep> {
        drive(&mut self.clients, self.svc.clock(), next)
    }
}

/// `ShardedService::invoke("handle", req)` → the i32 reply, `None` on any
/// error or refusal.
pub fn invoke_handle(svc: &ShardedService, name: &str, req: i32) -> Option<i32> {
    match svc
        .invoke(name, "handle", &[Value::I32(req)])
        .ok()?
        .as_slice()
    {
        [Value::I32(v)] => Some(*v),
        _ => None,
    }
}
