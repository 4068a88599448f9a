//! What every workload shares: the run shape (set-up → warm-up → timed
//! repetitions of a fixed op count), the closed-loop client driver, and the
//! metric records the reports are built from.

use std::path::PathBuf;
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use twine_core::ShardedService;
use twine_sgx::SimClock;

use crate::spans::{Recorder, Span};
use crate::stats::{percentile, Summary};

/// Shards of the serving plane in every serving workload, each driven by
/// one client thread that owns only sessions routed to its shard.
pub const SHARDS: usize = 2;
/// Set-ups per run at least; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// A set-up of a few milliseconds is repeated until this much time has gone
/// into setting up (or [`MAX_SETUPS`] are done), so its median is not one
/// scheduler hiccup away from doubling.
pub const SETUP_BUDGET_S: f64 = 0.5;
pub const MAX_SETUPS: usize = 25;
/// Repetitions a run measures at least, however short `--seconds` is.
pub const MIN_REPS: usize = 3;
/// Size of the untimed warm-up repetition relative to a timed one.
pub const WARMUP_FRAC: f64 = 0.2;
/// Samples a slice of a repetition holds at least (when the repetition has
/// that many at all): ten lie beyond its p99.
pub const SLICE_SAMPLES: usize = 1000;
/// Slices a repetition is cut into at most.
pub const MAX_SLICES: usize = 64;

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Timed repetitions are run until this much time has been measured.
    pub seconds: f64,
    /// Multiplies every op count and table size. 1 for every reported
    /// number; the smoke test uses 0.01.
    pub scale: f64,
    /// Where span files and result JSON go.
    pub out_dir: PathBuf,
}

impl Config {
    /// `n` scaled, never below `floor`.
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, summary: Summary) -> Self {
        Self {
            name,
            unit,
            summary,
        }
    }
}

/// One latency sample: when the reply arrived and how long the call took.
#[derive(Clone, Copy)]
struct Sample {
    done: Instant,
    lat_ns: u64,
}

/// One repetition of a workload: a fixed number of ops per client.
#[derive(Default)]
pub struct Rep {
    /// Ops whose reply was checked and correct.
    pub ok: u64,
    /// Errors, `Overloaded` refusals and oracle mismatches.
    pub failed: u64,
    pub wall_s: f64,
    /// `SimClock` cycles charged during the repetition.
    pub vcycles: u64,
    /// The wall metrics, per slice of the repetition.
    pub slices: Vec<Slice>,
    /// Request spans, when the repetition was traced.
    pub spans: Vec<Span>,
}

/// A slice of a repetition: at least [`SLICE_SAMPLES`] consecutive
/// completions. The wall metrics are computed per slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slice {
    pub ops_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
}

impl Rep {
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed
    }

    fn from_logs(logs: Vec<ClientLog>, vcycles: u64) -> Self {
        let started = logs.iter().filter_map(|l| l.started).min();
        let finished = logs.iter().filter_map(|l| l.finished).max();
        let (Some(started), Some(finished)) = (started, finished) else {
            unreachable!("every client ran");
        };
        let mut rep = Rep {
            wall_s: finished.duration_since(started).as_secs_f64(),
            vcycles,
            ..Rep::default()
        };
        let mut samples = Vec::new();
        for log in logs {
            rep.ok += log.ok;
            rep.failed += log.failed;
            samples.extend(log.samples);
            if let Some(recorder) = log.recorder {
                rep.spans.extend(recorder.take());
            }
        }
        samples.sort_by_key(|s| s.done);
        rep.slices = slices(started, &samples);
        rep
    }
}

/// Cut a repetition's samples (in order of completion) into slices — as many
/// as leave each at least [`SLICE_SAMPLES`] samples (so at least ten lie
/// beyond its p99), at most [`MAX_SLICES`]. A slice's time runs from the
/// previous slice's last completion to its own. The samples themselves are
/// not kept: a run's memory must not grow with how long it measures.
fn slices(started: Instant, samples: &[Sample]) -> Vec<Slice> {
    let n = samples.len();
    let count = (n / SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let mut out = Vec::with_capacity(count);
    let mut from = started;
    for i in 0..count {
        let part = &samples[i * n / count..(i + 1) * n / count];
        let Some(last) = part.last() else {
            continue;
        };
        let mut lat: Vec<u64> = part.iter().map(|s| s.lat_ns).collect();
        lat.sort_unstable();
        out.push(Slice {
            ops_per_s: part.len() as f64 / last.done.duration_since(from).as_secs_f64(),
            lat_p50_us: percentile(&lat, 0.50) as f64 / 1e3,
            lat_p99_us: percentile(&lat, 0.99) as f64 / 1e3,
        });
        from = last.done;
    }
    out
}

/// One closed-loop client of a workload. It lives on its own thread for
/// the whole run (so the host scheduler's placement of client and shard
/// threads can settle) and owns whatever model its replies are checked
/// against.
pub trait Client: Send {
    /// Generate the op list of repetition `rep` at `frac` of the fixed op
    /// count — untimed, and touching nothing of the program under test.
    fn prepare(&mut self, rep: u64, frac: f64);

    /// Issue the prepared ops one after another, waiting for every reply.
    fn run(&mut self, log: &mut ClientLog);
}

/// Per-client bookkeeping of one repetition.
#[derive(Default)]
pub struct ClientLog {
    samples: Vec<Sample>,
    pub ok: u64,
    pub failed: u64,
    started: Option<Instant>,
    finished: Option<Instant>,
    /// Present in a traced repetition: every timed call is a request span.
    recorder: Option<Recorder>,
}

impl ClientLog {
    /// A log whose timed calls are request spans of `recorder` (for ladder
    /// rungs replayed outside [`drive`]).
    pub fn traced(recorder: Recorder) -> Self {
        Self {
            recorder: Some(recorder),
            ..Self::default()
        }
    }

    /// The latencies recorded so far, µs.
    pub fn latencies_us(&self) -> Summary {
        let us: Vec<f64> = self.samples.iter().map(|s| s.lat_ns as f64 / 1e3).collect();
        Summary::of(&us)
    }

    /// Time one public call: its latency becomes a sample.
    #[inline]
    pub fn timed<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let span = self.recorder.as_ref().map(|r| r.begin_request("request"));
        let t = Instant::now();
        let out = call();
        let done = Instant::now();
        if let (Some(r), Some(id)) = (&self.recorder, span) {
            r.end(id);
        }
        self.samples.push(Sample {
            done,
            lat_ns: done.duration_since(t).as_nanos() as u64,
        });
        out
    }

    /// Record the verdict on one op's reply.
    #[inline]
    pub fn check(&mut self, good: bool) {
        if good {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Time one public call whose closure also checks the reply.
    #[inline]
    pub fn op(&mut self, call: impl FnOnce() -> bool) {
        let good = self.timed(call);
        self.check(good);
    }
}

/// One repetition to run: which seeded op stream, at what share of the
/// fixed op count, and whether clients record a span per request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    pub rep: u64,
    pub frac: f64,
    pub traced: bool,
}

/// Drive the clients through the repetitions `next` asks for (it sees the
/// repetitions finished so far and returns `None` to stop).
///
/// Closed loop: one thread per client, each issuing its ops one after
/// another and waiting for every reply. The threads persist across
/// repetitions; a repetition's wall time runs from the first client's start
/// to the last client's finish, and its virtual cycles are the `clock`'s
/// advance over it (preparing op lists does not touch the program).
pub fn drive<C: Client>(
    clients: &mut [C],
    clock: &SimClock,
    mut next: impl FnMut(&[Rep]) -> Option<Step>,
) -> Vec<Rep> {
    let n = clients.len();
    let command: Mutex<Option<Step>> = Mutex::new(None);
    // `go`: controller + clients, after the command is set. `start`:
    // clients only, after every op list is prepared.
    let (go, start) = (Barrier::new(n + 1), Barrier::new(n));
    let (log_tx, log_rx) = std::sync::mpsc::channel::<ClientLog>();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (command, go, start, log_tx) = (&command, &go, &start, log_tx.clone());
            s.spawn(move || loop {
                go.wait();
                let step = *command.lock().expect("controller never panics holding it");
                let Some(step) = step else {
                    break;
                };
                client.prepare(step.rep, step.frac);
                let mut log = ClientLog {
                    recorder: step.traced.then(Recorder::new),
                    ..ClientLog::default()
                };
                start.wait();
                log.started = Some(Instant::now());
                client.run(&mut log);
                log.finished = Some(Instant::now());
                log_tx.send(log).expect("controller outlives clients");
            });
        }
        let mut reps = Vec::new();
        loop {
            let step = next(&reps);
            *command.lock().expect("clients never panic holding it") = step;
            let cycles0 = clock.cycles();
            go.wait();
            if step.is_none() {
                break reps;
            }
            let logs: Vec<ClientLog> = (0..n)
                .map(|_| log_rx.recv().expect("a client thread panicked"))
                .collect();
            reps.push(Rep::from_logs(logs, clock.cycles() - cycles0));
        }
    })
}

/// The schedule of an untraced run: one warm-up repetition (op stream 0),
/// then timed repetitions of the fixed op count until `seconds` have been
/// measured, at least [`MIN_REPS`].
pub fn timed_schedule(seconds: f64) -> impl FnMut(&[Rep]) -> Option<Step> {
    move |done| {
        let step = |rep, frac| {
            Some(Step {
                rep,
                frac,
                traced: false,
            })
        };
        let Some(timed) = done.get(1..) else {
            return step(0, WARMUP_FRAC);
        };
        let measured_s: f64 = timed.iter().map(|r| r.wall_s).sum();
        if timed.len() < MIN_REPS || measured_s < seconds {
            step(done.len() as u64, 1.0)
        } else {
            None
        }
    }
}

/// `count` session names that `svc` routes to `shard`, drawn in order from
/// `prefix{counter}` (the counter persists so names never repeat).
pub fn names_on_shard(
    svc: &ShardedService,
    prefix: &str,
    shard: usize,
    count: usize,
    counter: &mut u64,
) -> Vec<String> {
    let mut names = Vec::with_capacity(count);
    while names.len() < count {
        let name = format!("{prefix}{counter}");
        *counter += 1;
        if svc.shard_of(&name) == shard {
            names.push(name);
        }
    }
    names
}

/// The end-to-end metrics of a finished run. Each wall metric is the
/// median over every slice of every timed repetition: the host scheduler
/// moves the client and shard threads between placements that differ by
/// tens of percent and last 30–300 ms, and a median over slices shorter
/// than that reports the typical placement rather than their mix.
pub fn end_to_end_metrics(reps: &[Rep], setup_s: &[f64]) -> Vec<Metric> {
    let over_slices = |f: fn(&Slice) -> f64| over_slices(reps, f);
    vec![
        Metric::new("setup_s", "s", Summary::of(setup_s)),
        Metric::new("ops_per_s", "1/s", over_slices(|s| s.ops_per_s)),
        Metric::new("lat_p50_us", "us", over_slices(|s| s.lat_p50_us)),
        Metric::new("lat_p99_us", "us", over_slices(|s| s.lat_p99_us)),
        Metric::new(
            "peak_rss_mib",
            "MiB",
            Summary::exact(crate::host::peak_rss_mib(), 1),
        ),
    ]
}

/// One wall metric over every slice of `reps`.
pub fn over_slices<'a>(
    reps: impl IntoIterator<Item = &'a Rep>,
    metric: fn(&Slice) -> f64,
) -> Summary {
    let values: Vec<f64> = reps
        .into_iter()
        .flat_map(|r| r.slices.iter().map(metric))
        .collect();
    Summary::of(&values)
}

/// Virtual cycles per op over the timed repetitions (the deterministic
/// clock, reported beside wall time, never instead of it).
pub fn vcycles_per_op(reps: &[Rep]) -> Summary {
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| crate::stats::ratio(r.vcycles as f64, r.attempted() as f64))
        .collect();
    Summary::of(&per_rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        ops: u64,
        prepared: Vec<(u64, f64)>,
        clock: SimClock,
    }

    impl Client for Counting {
        fn prepare(&mut self, rep: u64, frac: f64) {
            self.prepared.push((rep, frac));
        }

        fn run(&mut self, log: &mut ClientLog) {
            for i in 0..self.ops {
                log.op(|| i % 2 == 0);
            }
            self.clock.add_cycles(self.ops);
        }
    }

    #[test]
    fn timed_schedule_warms_up_then_runs_min_reps_on_every_client() {
        let clock = SimClock::new();
        let mut clients: Vec<Counting> = [3, 5]
            .into_iter()
            .map(|ops| Counting {
                ops,
                prepared: Vec::new(),
                clock: clock.clone(),
            })
            .collect();
        let reps = drive(&mut clients, &clock, timed_schedule(0.0));
        assert_eq!(reps.len(), 1 + MIN_REPS);
        for rep in &reps {
            assert_eq!((rep.ok, rep.failed, rep.slices.len()), (5, 3, 1));
            assert_eq!((rep.attempted(), rep.vcycles), (8, 8));
            assert!(rep.spans.is_empty());
        }
        let expect: Vec<(u64, f64)> = [(0, WARMUP_FRAC), (1, 1.0), (2, 1.0), (3, 1.0)].to_vec();
        assert!(clients.iter().all(|c| c.prepared == expect));
    }

    #[test]
    fn traced_step_records_one_request_span_per_op() {
        let clock = SimClock::new();
        let mut clients = vec![Counting {
            ops: 4,
            prepared: Vec::new(),
            clock: clock.clone(),
        }];
        let reps = drive(&mut clients, &clock, |done| {
            done.is_empty().then_some(Step {
                rep: 7,
                frac: 1.0,
                traced: true,
            })
        });
        assert_eq!(reps[0].spans.len(), 4);
        assert!(reps[0]
            .spans
            .iter()
            .all(|s| s.name == "request" && s.parent.is_none()));
    }

    #[test]
    fn slices_partition_a_repetition_by_completion_order() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + std::time::Duration::from_micros(us);
        // 2 500 ops completing 10 µs apart: two slices of 1 250.
        let samples: Vec<Sample> = (1..=2500u64)
            .map(|i| Sample {
                done: at(i * 10),
                lat_ns: i,
            })
            .collect();
        let cut = slices(t0, &samples);
        assert_eq!(cut.len(), 2);
        for s in &cut {
            assert!((s.ops_per_s - 100_000.0).abs() < 1e-6, "{s:?}");
        }
        assert_eq!(cut[0].lat_p50_us, 0.625);
        assert_eq!(cut[1].lat_p99_us, 2.488);
        // Fewer samples than one slice's worth still make one slice.
        assert_eq!(slices(t0, &samples[..9]).len(), 1);
        assert!(slices(t0, &[]).is_empty());
    }

    #[test]
    fn scaled_respects_floor() {
        let cfg = Config {
            seed: 0,
            seconds: 0.0,
            scale: 0.01,
            out_dir: PathBuf::new(),
        };
        assert_eq!(cfg.scaled(70_000, 10), 700);
        assert_eq!(cfg.scaled(100, 10), 10);
    }
}
