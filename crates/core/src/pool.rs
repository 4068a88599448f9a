//! Pre-instantiated instance slots (DESIGN.md §11).
//!
//! The pool keeps instances of [poolable](twine_wasm::compile::CompiledModule::poolable)
//! modules parked **at their base-image state**: data segments applied,
//! globals and table initialized, dirty bitmap clear, meter reset, no page
//! sink, a placeholder `Box<()>` as host data. Checking a slot out is the
//! wasmtime-pooling-allocator move applied to this runtime: a session open
//! (or a delta restore of a parked session) swaps in the tenant's WASI
//! context and is done — no decode, no validate, no data-segment copies,
//! no fresh zeroed allocation.
//!
//! One pool is shared by every shard of a
//! [`ShardedService`](crate::ShardedService) (slots are `Send` and carry
//! no shard-local state), so a slot parked by one shard warms another's
//! cold open. Capacity is per module key, set by
//! [`ControlPlane::pool_slots_per_module`](crate::ControlPlane); the lock
//! is held only for the `Vec` push/pop, never across instantiation.

use std::collections::HashMap;
use std::sync::Mutex;

use twine_wasm::Instance;

/// A bounded pool of base-state instances, keyed by module content
/// address ([`ModuleCache::content_key`](crate::ModuleCache::content_key)).
pub(crate) struct InstancePool {
    slots: Mutex<HashMap<[u8; 32], Vec<Instance>>>,
    /// Max slots retained per module key; 0 = pooling disabled (every
    /// `put` drops the instance).
    per_module: usize,
}

impl InstancePool {
    pub(crate) fn new(per_module: usize) -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
            per_module,
        }
    }

    /// Check a base-state slot out for `key`, if one is available.
    pub(crate) fn take(&self, key: &[u8; 32]) -> Option<Instance> {
        self.slots.lock().unwrap().get_mut(key)?.pop()
    }

    /// Return a base-state instance to the pool. Returns `false` (and
    /// drops the instance) when the per-module capacity is already met.
    pub(crate) fn put(&self, key: [u8; 32], instance: Instance) -> bool {
        if self.per_module == 0 {
            return false;
        }
        let mut slots = self.slots.lock().unwrap();
        let v = slots.entry(key).or_default();
        if v.len() >= self.per_module {
            return false;
        }
        v.push(instance);
        true
    }

    /// Total slots currently parked in the pool.
    pub(crate) fn len(&self) -> usize {
        self.slots.lock().unwrap().values().map(Vec::len).sum()
    }
}
