//! Benchmark-side spans: recorded around the calls the benchmark makes into
//! each layer (and inside the wrappers it interposes on public traits),
//! kept in memory during the run and written out as Chrome-trace JSON when
//! it ends. Spans inside the program are a later issue.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request share an identifier.
    pub request_id: u64,
}

/// An in-memory span log for one thread of control. Shared (`Arc<Mutex>`)
/// because an interposed wrapper lives inside the program's own object (a
/// `Box<dyn Vfs>` owned by the `Connection`) while the benchmark opens the
/// enclosing statement span from outside.
#[derive(Clone)]
pub struct Recorder(Arc<Mutex<Inner>>);

struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new(Inner {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0
            .lock()
            .expect("no span holder panics while recording")
    }

    /// Open a root span for a new request.
    pub fn begin_request(&self, name: &'static str) -> u32 {
        self.lock().request_id += 1;
        self.begin(name)
    }

    /// Open a span whose parent is the innermost open span.
    pub fn begin(&self, name: &'static str) -> u32 {
        let mut r = self.lock();
        let now = r.epoch.elapsed().as_nanos() as u64;
        let id = r.spans.len() as u32;
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: r.open.last().copied(),
            request_id: r.request_id,
        };
        r.spans.push(span);
        r.open.push(id);
        id
    }

    pub fn end(&self, id: u32) {
        let mut r = self.lock();
        let now = r.epoch.elapsed().as_nanos() as u64;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        r.spans[id as usize].end_ns = now;
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children are clipped to the parent and merged
/// where they overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += self_ns;
        e.1 += 1;
    }
    by_name
}

/// Chrome-trace ("Trace Event Format") JSON: complete events, one per
/// span, `args` carrying the parent index and the request identifier.
/// Loadable in `chrome://tracing` / Perfetto.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request_id\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.request_id
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // request [0,100): stmt [10,90): vfs [20,30), vfs [50,70);
        // a second, overlapping pair of children under `request` checks the
        // merge: [85,95) overlaps stmt's tail inside request.
        let spans = vec![
            span("request", 0, 100, None),
            span("stmt", 10, 90, Some(0)),
            span("vfs", 20, 30, Some(1)),
            span("vfs", 50, 70, Some(1)),
            span("reply", 85, 95, Some(0)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st, vec![100 - 85, 80 - 30, 10, 20, 10]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["vfs"], (30, 2));
        assert_eq!(by["stmt"], (50, 1));
        // Self times of a tree add up to the root's duration when children
        // do not overlap; here the overlap [85,90) is counted once in the
        // root and once in each child, so the sum exceeds it by 5.
        assert_eq!(st.iter().sum::<u64>(), 105);
    }

    #[test]
    fn child_is_clipped_to_parent() {
        let spans = vec![span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn recorder_nests_and_numbers_requests() {
        let r = Recorder::new();
        let a = r.begin_request("a");
        let b = r.begin("b");
        r.end(b);
        r.end(a);
        let c = r.begin_request("c");
        r.end(c);
        let spans = r.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(
            (
                spans[0].request_id,
                spans[1].request_id,
                spans[2].request_id
            ),
            (1, 1, 2)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_trace_json(&spans);
        assert!(json.contains("\"name\":\"b\"") && json.contains("\"parent\":0"));
    }
}
