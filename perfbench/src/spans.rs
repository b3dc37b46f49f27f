//! In-memory spans recorded by the benchmark's own code around each call
//! into a campkit layer. Nothing here runs inside the program under test.
//!
//! Tracing is off unless [`enable`] was called; a disabled span costs one
//! thread-local flag read and takes no clock reading. The generator runs on
//! one thread, so one thread-local log holds every span of a run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: `[start_ns, end_ns)` since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Log {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log {
        enabled: false,
        origin: Instant::now(),
        open: Vec::new(),
        spans: Vec::new(),
    });
}

/// Turns span recording on for this thread.
pub fn enable() {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        log.enabled = true;
        log.origin = Instant::now();
    });
}

pub fn enabled() -> bool {
    LOG.with(|log| log.borrow().enabled)
}

/// Closes its span when dropped.
struct Guard(Option<usize>);

/// Opens a span; it closes when the returned guard is dropped.
fn enter(layer: &'static str, name: &'static str) -> Guard {
    LOG.with(|log| {
        let mut log = log.borrow_mut();
        if !log.enabled {
            return Guard(None);
        }
        let idx = log.spans.len();
        let start_ns = log.origin.elapsed().as_nanos() as u64;
        let parent = log.open.last().copied();
        log.spans.push(Span {
            layer,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        log.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            LOG.with(|log| {
                let mut log = log.borrow_mut();
                let end = log.origin.elapsed().as_nanos() as u64;
                log.spans[idx].end_ns = end;
                let popped = log.open.pop();
                debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
            });
        }
    }
}

/// Runs `f` inside a span.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = enter(layer, name);
    f()
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    LOG.with(|log| std::mem::take(&mut log.borrow_mut().spans))
}

/// Self time per layer: each span's duration minus the time its direct
/// children cover.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *out.entry(s.layer).or_insert(0) += s.duration_ns().saturating_sub(children);
    }
    out
}

/// Count and total duration of the closed spans named `name` so far.
pub fn total(name: &str) -> (u64, u64) {
    LOG.with(|log| {
        log.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(c, t), s| (c + 1, t + s.duration_ns()))
    })
}

/// The spans as a Chrome trace-event JSON document.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3
        );
    }
    out.push_str("]}\n");
    out
}
