//! `churn`: the session lifecycle under EPC pressure. Tenants arrive, are
//! served, revisited and expire against a per-shard budget of 16 live
//! sessions with a 48-session keep-alive window per client, so the control
//! plane parks (delta snapshot + seal) and restores (unseal + patch a pooled
//! slot) continuously. Sealing, crypto and the `twine-core` service do the
//! work; SQL none. The guest is stateful: a park/restore that loses state
//! produces a wrong reply.

use std::collections::VecDeque;
use std::sync::Arc;

use twine_core::{ControlPlane, ShardedService, TwineBuilder};

use crate::guests::{self, StatefulOracle};
use crate::harness::{self, drive, names_on_shard, Client, ClientLog, Config, Rep, SHARDS};
use crate::rng::SplitMix64;
use crate::workloads::wasm_warm::{invoke_handle, REQ_RANGE};

/// Live-session budget per shard, far below the keep-alive window.
pub const MAX_LIVE: usize = 16;
pub const POOL_SLOTS: usize = 32;
/// Sessions each client keeps open.
const WINDOW: usize = 48;
/// Invocations on arrival, and revisits of earlier tenants per arrival.
const ARRIVAL_CALLS: usize = 2;
const REVISITS: usize = 2;
/// Arrivals per client per repetition at scale 1: 4 invocations each, so
/// 2 × 1 000 arrivals = 8 000 ops (≈1 s on the 2-core reference host).
const ARRIVALS_PER_CLIENT: usize = 1_000;

pub enum Step {
    Open(usize),
    /// Invoke `handle(req)` on session `.0`; the reply must be `expect`.
    Invoke {
        session: usize,
        req: i32,
        expect: i32,
    },
    Close(usize),
}

/// One client's seeded plan for a repetition: `names[i]` is session `i`.
#[derive(Default)]
pub struct Plan {
    pub names: Vec<String>,
    pub steps: Vec<Step>,
}

/// Build one client's plan: every session opened is closed by the end.
pub fn plan(seed: u64, client: usize, rep: u64, names: Vec<String>) -> Plan {
    let mut rng = SplitMix64::derive(seed, &[0x6368_7572, client as u64, rep]);
    let mut oracles: Vec<StatefulOracle> = Vec::with_capacity(names.len());
    let mut open: VecDeque<usize> = VecDeque::new();
    let mut steps = Vec::new();
    let invoke = |session: usize, oracles: &mut Vec<StatefulOracle>, rng: &mut SplitMix64| {
        let req = rng.below(REQ_RANGE) as i32;
        Step::Invoke {
            session,
            req,
            expect: oracles[session].handle(req),
        }
    };
    for session in 0..names.len() {
        steps.push(Step::Open(session));
        oracles.push(StatefulOracle::default());
        for _ in 0..ARRIVAL_CALLS {
            steps.push(invoke(session, &mut oracles, &mut rng));
        }
        open.push_back(session);
        for _ in 0..REVISITS {
            let earlier = open[rng.below(open.len() as u64) as usize];
            steps.push(invoke(earlier, &mut oracles, &mut rng));
        }
        if open.len() > WINDOW {
            let gone = open.pop_front().expect("window is non-empty");
            steps.push(Step::Close(gone));
            // An expired tenant's model is never consulted again.
            oracles[gone] = StatefulOracle::empty();
        }
    }
    steps.extend(open.into_iter().map(Step::Close));
    Plan { names, steps }
}

pub fn arrivals(cfg: &Config, frac: f64) -> usize {
    ((cfg.scaled(ARRIVALS_PER_CLIENT, 60) as f64) * frac).ceil() as usize
}

pub fn control_plane() -> ControlPlane {
    ControlPlane {
        max_live_sessions: Some(MAX_LIVE),
        pool_slots_per_module: Some(POOL_SLOTS),
        ..ControlPlane::default()
    }
}

#[cfg(test)]
pub fn stream_digest(cfg: &Config, rep: u64) -> u64 {
    let svc = TwineBuilder::new().build_sharded(SHARDS);
    let mut d = crate::rng::Digest::default();
    for client in 0..SHARDS {
        let prefix = format!("churn{client}-");
        let names = names_on_shard(&svc, &prefix, client, arrivals(cfg, 1.0), &mut 0);
        names.iter().for_each(|n| d.bytes(n.as_bytes()));
        for step in plan(cfg.seed, client, rep, names).steps {
            match step {
                Step::Open(s) => d.u64(s as u64),
                Step::Invoke { session, req, .. } => {
                    d.u64(1 << 32 | session as u64);
                    d.u64(req as u64);
                }
                Step::Close(s) => d.u64(2 << 32 | s as u64),
            }
        }
    }
    d.value()
}

pub struct Churn {
    svc: Arc<ShardedService>,
    wasm: Arc<Vec<u8>>,
    clients: Vec<ChurnClient>,
}

struct ChurnClient {
    cfg: Config,
    svc: Arc<ShardedService>,
    wasm: Arc<Vec<u8>>,
    index: usize,
    /// Next session-name suffix: names never repeat across repetitions.
    counter: u64,
    plan: Plan,
}

impl Client for ChurnClient {
    fn prepare(&mut self, rep: u64, frac: f64) {
        let n = arrivals(&self.cfg, frac);
        let names = names_on_shard(&self.svc, &self.prefix(), self.index, n, &mut self.counter);
        self.plan = plan(self.cfg.seed, self.index, rep, names);
    }

    fn run(&mut self, log: &mut ClientLog) {
        run_plan(&self.plan, log, &mut Sharded(&self.svc, &self.wasm));
    }
}

impl ChurnClient {
    /// Each client draws names from its own sequence, so what one client
    /// opens does not depend on the other's progress.
    fn prefix(&self) -> String {
        format!("churn{}-", self.index)
    }
}

/// Where a session plan can be sent: the sharded service end to end, and
/// the ladder's deeper entry points.
pub trait SessionTarget {
    /// Open a session of the stateful guest; did it work?
    fn open(&mut self, name: &str) -> bool;
    /// `handle(req)` on a session; `None` = any error or refusal.
    fn invoke(&mut self, name: &str, req: i32) -> Option<i32>;
    /// Close a session; was there one?
    fn close(&mut self, name: &str) -> bool;
}

/// The sharded service, opening sessions of the given Wasm binary.
struct Sharded<'a>(&'a ShardedService, &'a [u8]);

impl SessionTarget for Sharded<'_> {
    fn open(&mut self, name: &str) -> bool {
        self.0.open_session(name, self.1).is_ok()
    }

    fn invoke(&mut self, name: &str, req: i32) -> Option<i32> {
        invoke_handle(self.0, name, req)
    }

    fn close(&mut self, name: &str) -> bool {
        matches!(self.0.close_session(name), Ok(Some(_)))
    }
}

/// Run one client's plan against `target`. Opens and closes cost time but
/// are not ops; a failed one is still a failure.
pub fn run_plan(plan: &Plan, log: &mut ClientLog, target: &mut impl SessionTarget) {
    for step in &plan.steps {
        match *step {
            Step::Open(s) => {
                if !target.open(&plan.names[s]) {
                    log.check(false);
                }
            }
            Step::Invoke {
                session,
                req,
                expect,
            } => log.op(|| target.invoke(&plan.names[session], req) == Some(expect)),
            Step::Close(s) => {
                if !target.close(&plan.names[s]) {
                    log.check(false);
                }
            }
        }
    }
}

impl Churn {
    pub fn setup(cfg: &Config) -> Self {
        let wasm = Arc::new(guests::compile(guests::STATEFUL_SRC));
        let svc = Arc::new(
            TwineBuilder::new()
                .control_plane(control_plane())
                .build_sharded(SHARDS),
        );
        let clients = (0..SHARDS)
            .map(|index| ChurnClient {
                cfg: cfg.clone(),
                svc: Arc::clone(&svc),
                wasm: Arc::clone(&wasm),
                index,
                counter: 0,
                plan: Plan::default(),
            })
            .collect();
        Self { svc, wasm, clients }
    }

    pub fn service(&self) -> Arc<ShardedService> {
        Arc::clone(&self.svc)
    }

    pub fn wasm(&self) -> &[u8] {
        &self.wasm
    }

    pub fn drive(&mut self, next: impl FnMut(&[Rep]) -> Option<harness::Step>) -> Vec<Rep> {
        drive(&mut self.clients, self.svc.clock(), next)
    }

    /// Every churned session expired.
    pub fn verify_end_state(&self) -> (u64, u64) {
        (1, u64::from(self.svc.session_count() != 0))
    }
}
