//! The benchmark's own span recorder: spans stay in memory, nest by call
//! order on one thread, and are written out as Chrome-trace JSON at the end.

use std::cell::RefCell;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    /// Which input set the enclosing operation came from (see `layers`).
    pub source: u8,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when `on`; when off, a span costs one branch.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    source: std::cell::Cell<u8>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    recorder: &'a Recorder,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.recorder.now();
            self.recorder.spans.borrow_mut()[id].end = end;
            self.recorder.open.borrow_mut().pop();
        }
    }
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            source: std::cell::Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `source`.
    pub fn set_source(&self, source: u8) {
        self.source.set(source);
    }

    /// Opens a span that closes when the returned guard drops; its parent
    /// is the innermost span still open.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard {
                recorder: self,
                id: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let start = self.now();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            source: self.source.get(),
        });
        self.open.borrow_mut().push(id);
        Guard {
            recorder: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children of one span run one after another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration());
        }
    }
    out
}

/// The root span (operation) each span belongs to.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut out = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // Parents precede children, so the parent's root is known.
        out.push(s.parent.map_or(i, |p| out[p]));
    }
    out
}

/// Chrome trace-format JSON (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{parent},\"source\":{}}}}}",
            s.name,
            s.layer(),
            s.start as f64 / 1e3,
            s.duration() as f64 / 1e3,
            s.source
        ));
    }
    out.push_str("\n]}\n");
    out
}
