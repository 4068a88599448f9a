//! The Wasm guests the serving workloads run, in the MiniC dialect, each
//! with the Rust re-implementation the benchmark checks every reply
//! against. MiniC `int` is a Wasm i32: arithmetic wraps.

/// Stateless request handler: 64–127 loop iterations, one store into a
/// 1 KiB table. The reply depends only on the request. `nop` is the empty
/// invocation the shard hand-off is timed with.
pub const HANDLER_SRC: &str = r"
    int slots[256];
    int nop(int req) { return req; }
    int handle(int req) {
        int acc = 7;
        for (int i = 0; i < req % 64 + 64; i += 1) {
            if (i % 2 == 0) { acc = acc * 3 + i; } else { acc = acc - req; }
        }
        slots[req % 256] = acc;
        return acc;
    }
";

/// Oracle of [`HANDLER_SRC`] (`req >= 0`).
pub fn handler_oracle(req: i32) -> i32 {
    let mut acc = 7i32;
    for i in 0..req % 64 + 64 {
        acc = if i % 2 == 0 {
            acc.wrapping_mul(3).wrapping_add(i)
        } else {
            acc.wrapping_sub(req)
        };
    }
    acc
}

/// Words of per-session state in the stateful guest: 16 KiB, four 4 KiB
/// pages, so a park seals between one and four dirty pages.
pub const STATE_WORDS: usize = 4096;

/// Stateful handler for `churn`: every reply folds the whole history of the
/// session (a call counter and a table both updated by every request), so a
/// park/restore that loses or corrupts state yields a wrong answer.
pub const STATEFUL_SRC: &str = r"
    int st[4096];
    int n;
    int handle(int req) {
        int idx = (req * 7 + n) % 4096;
        int acc = st[idx] * 31 + req + n;
        for (int i = 0; i < 24; i += 1) { acc = acc * 3 + i; }
        st[idx] = acc;
        int j = (idx * 13 + 1) % 4096;
        st[j] = st[j] + acc;
        n += 1;
        return acc + st[(j + n) % 4096];
    }
";

/// Oracle of [`STATEFUL_SRC`]: one per session (`0 <= req < 2^20`).
#[derive(Clone)]
pub struct StatefulOracle {
    st: Vec<i32>,
    n: i32,
}

impl Default for StatefulOracle {
    fn default() -> Self {
        Self {
            st: vec![0; STATE_WORDS],
            n: 0,
        }
    }
}

impl StatefulOracle {
    /// The model of an expired session: holds no state.
    pub fn empty() -> Self {
        Self {
            st: Vec::new(),
            n: 0,
        }
    }

    pub fn handle(&mut self, req: i32) -> i32 {
        let words = STATE_WORDS as i32;
        let idx = ((req * 7 + self.n) % words) as usize;
        let mut acc = self.st[idx]
            .wrapping_mul(31)
            .wrapping_add(req)
            .wrapping_add(self.n);
        for i in 0..24 {
            acc = acc.wrapping_mul(3).wrapping_add(i);
        }
        self.st[idx] = acc;
        let j = (idx * 13 + 1) % STATE_WORDS;
        self.st[j] = self.st[j].wrapping_add(acc);
        self.n += 1;
        acc.wrapping_add(self.st[(j + self.n as usize) % STATE_WORDS])
    }
}

pub fn compile(src: &str) -> Vec<u8> {
    twine_minicc::compile_to_bytes(src).expect("benchmark guest compiles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twine_wasm::{CompiledModule, Instance, Linker, Value};

    fn instantiate(src: &str) -> Instance {
        let code = CompiledModule::from_bytes(&compile(src)).expect("valid module");
        Instance::instantiate(Arc::new(code), Linker::new(), Box::new(())).expect("instantiates")
    }

    fn call(inst: &mut Instance, req: i32) -> i32 {
        match inst.invoke("handle", &[Value::I32(req)]).expect("no trap")[0] {
            Value::I32(v) => v,
            ref other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn handler_oracle_matches_guest() {
        let mut inst = instantiate(HANDLER_SRC);
        for req in [0, 1, 63, 64, 255, 256, 1_000_003, (1 << 20) - 1] {
            assert_eq!(call(&mut inst, req), handler_oracle(req), "req {req}");
        }
    }

    #[test]
    fn stateful_oracle_matches_guest_and_depends_on_history() {
        let mut inst = instantiate(STATEFUL_SRC);
        let mut oracle = StatefulOracle::default();
        let mut rng = crate::rng::SplitMix64::new(5);
        for _ in 0..500 {
            let req = rng.below(1 << 20) as i32;
            assert_eq!(call(&mut inst, req), oracle.handle(req));
        }
        // Same request, different history → different reply.
        let mut fresh = StatefulOracle::default();
        assert_ne!(fresh.handle(9), oracle.handle(9));
    }
}
