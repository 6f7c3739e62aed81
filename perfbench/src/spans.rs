//! In-memory span recording for the traced run.
//!
//! One [`Span`] (name, start, end, parent) per call into a layer, kept in
//! memory and written out once the run ends. A span's self time is its
//! duration minus the time its child spans cover; since the traced run is
//! single-threaded, children never overlap.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.engine`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Highest live heap during the span above the live heap at its start,
    /// when the tracer has a [`HeapProbe`].
    pub peak_heap: Option<u64>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Access to a counting allocator's live and high-water byte counts.
#[derive(Debug, Clone, Copy)]
pub struct HeapProbe {
    /// Bytes live now.
    pub live: fn() -> usize,
    /// Highest live bytes since the last reset.
    pub peak: fn() -> usize,
    /// Sets the high-water mark.
    pub set_peak: fn(usize),
}

/// Records spans around closures.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Option<usize>,
    heap: Option<HeapProbe>,
}

impl Tracer {
    /// A tracer; with a probe, every span also records its peak heap.
    pub fn new(heap: Option<HeapProbe>) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: None,
            heap,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the span that is
    /// open now. `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        // The outer high-water mark is parked while the span measures its
        // own, then restored as the larger of the two.
        let heap_at_start = self.heap.map(|h| {
            let (outer_peak, live) = ((h.peak)(), (h.live)());
            (h.set_peak)(live);
            (outer_peak, live)
        });
        let parent = self.open;
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.now(),
            end_ns: 0,
            peak_heap: None,
        });
        self.open = Some(id);
        let out = f(self);
        let end = self.now();
        self.open = parent;
        let span = &mut self.spans[id];
        span.end_ns = end;
        if let (Some(h), Some((outer_peak, live))) = (self.heap, heap_at_start) {
            let peak = (h.peak)();
            span.peak_heap = Some(peak.saturating_sub(live) as u64);
            (h.set_peak)(peak.max(outer_peak));
        }
        out
    }

    /// Every span recorded so far, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`spans`](Self::spans).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration_ns();
            }
        }
        own
    }

    /// Writes the spans as JSON Lines, one object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let heap = s.peak_heap.map_or("null".to_owned(), |b| b.to_string());
            writeln!(
                w,
                r#"{{"id":{id},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"peak_heap_bytes":{heap}}}"#,
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(None);
        t.span("root", |t| {
            t.span("a", |t| t.span("b", |_| std::hint::black_box(1)));
            t.span("c", |_| ());
        });
        let own = t.self_times();
        assert_eq!(own.iter().sum::<u64>(), t.spans()[0].duration_ns());
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
    }
}
