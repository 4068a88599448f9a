//! Virtual time accounting.
//!
//! Every simulated cost (transition cycles, paging, modelled instruction
//! streams) accumulates into a [`SimClock`]. Benchmarks report
//! `clock.elapsed()`, i.e. cycles divided by the reference frequency of the
//! paper's testbed CPU (Xeon E3-1275 v6 @ 3.8 GHz, §V-A). Real measured
//! compute can be folded in with [`SimClock::add_duration`].

use std::sync::Arc;
use std::time::Duration;

use crate::stripe::StripedU64;

/// Reference CPU frequency (cycles per second) used to convert cycles into
/// virtual wall-clock time. Matches the paper's 3.8 GHz Xeon E3-1275 v6.
pub const CPU_HZ: u64 = 3_800_000_000;

/// A shareable virtual-cycle counter. The counter is a
/// [`StripedU64`] — one padded atomic stripe per writer thread — so clones
/// may be charged from any thread (the sharded service's workers all feed
/// one enclave clock) **without contending on a single cache line**: the
/// PR 5 single-`AtomicU64` implementation was one hot line hammered from
/// every shard on each ecall/ocall/paging charge, and profiled as a main
/// serialiser of wall-clock shard scaling (ROADMAP open item 1).
/// Single-threaded runs stay exactly as deterministic as before, and
/// multi-threaded totals are exact (addition commutes; charges are never
/// lost) even though the *interleaving* of charges is
/// scheduling-dependent.
///
/// `SimClock` is the spine of the virtual-time methodology (DESIGN.md §4,
/// paper §V-A): every simulated SGX event — enclave transitions, EPC
/// paging, sealed I/O — charges cycles here, and every figure reports
/// [`SimClock::elapsed`] rather than host wall-clock, which keeps runs
/// deterministic and hardware-independent. Wall-clock optimisations (e.g.
/// the register execution tier in `twine-wasm::regalloc`) are required to
/// leave these counts bit-identical.
#[derive(Clone, Default)]
pub struct SimClock {
    cycles: Arc<StripedU64>,
}

impl SimClock {
    /// New clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `n` cycles (on the calling thread's stripe).
    #[inline]
    pub fn add_cycles(&self, n: u64) {
        self.cycles.add(n);
    }

    /// Fold a real measured duration into the virtual clock (converted at
    /// the reference frequency), optionally scaled — the cost models scale
    /// real Rust compute into per-variant estimates this way.
    pub fn add_duration_scaled(&self, d: Duration, scale: f64) {
        let cycles = (d.as_secs_f64() * scale * CPU_HZ as f64) as u64;
        self.add_cycles(cycles);
    }

    /// Fold a real measured duration 1:1.
    pub fn add_duration(&self, d: Duration) {
        self.add_duration_scaled(d, 1.0);
    }

    /// Total cycles charged (sum over all writer stripes — exact).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles.get()
    }

    /// Virtual elapsed time.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_secs_f64(self.cycles() as f64 / CPU_HZ as f64)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.cycles.reset();
    }

    /// Cycles elapsed since a previous reading.
    #[must_use]
    pub fn cycles_since(&self, mark: u64) -> u64 {
        self.cycles().wrapping_sub(mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let c = SimClock::new();
        c.add_cycles(100);
        c.add_cycles(50);
        assert_eq!(c.cycles(), 150);
    }

    #[test]
    fn clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.add_cycles(10);
        b.add_cycles(5);
        assert_eq!(a.cycles(), 15);
        assert_eq!(b.cycles(), 15);
    }

    #[test]
    fn elapsed_at_reference_frequency() {
        let c = SimClock::new();
        c.add_cycles(CPU_HZ); // one second worth
        let e = c.elapsed();
        assert!((e.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duration_folding() {
        let c = SimClock::new();
        c.add_duration(Duration::from_millis(10));
        let expect = CPU_HZ / 100;
        let got = c.cycles();
        assert!((got as i64 - expect as i64).unsigned_abs() < CPU_HZ / 10_000);
        c.reset();
        c.add_duration_scaled(Duration::from_millis(10), 2.0);
        assert!(c.cycles() > expect);
    }

    #[test]
    fn cycles_since() {
        let c = SimClock::new();
        c.add_cycles(100);
        let mark = c.cycles();
        c.add_cycles(42);
        assert_eq!(c.cycles_since(mark), 42);
    }

    #[test]
    fn concurrent_charges_are_exact() {
        // The striped clock must lose no charge and over-count nothing
        // when hammered from many threads — the meter-exactness contract
        // the sharded service relies on.
        let c = SimClock::new();
        let threads = 8;
        let per = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        c.add_cycles(k % 7 + 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let per_thread: u64 = (0..per).map(|k| k % 7 + 1).sum();
        assert_eq!(c.cycles(), per_thread * threads);
    }
}
