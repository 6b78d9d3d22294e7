//! The traced run's span recorder and the self-time arithmetic over it.
//!
//! Spans are recorded only by the benchmark, around its calls into a layer's
//! public functions; nothing inside the program is instrumented. Each thread
//! owns one [`SpanBuf`], preallocated before the traced phase starts so that
//! recording never allocates; when it is full, further spans are counted as
//! dropped and the traced loops stop.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval. `parent` indexes the same buffer; `req` groups the
/// spans caused by one request (one update, query or fix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// The layer a span name belongs to: the name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// A fixed-capacity, single-thread span buffer.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    enabled: bool,
}

impl SpanBuf {
    /// A buffer holding up to `capacity` spans, timed from `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanBuf { epoch, spans: Vec::with_capacity(capacity), dropped: 0, enabled: true }
    }

    /// A buffer that records nothing, for the untraced run: `open` does not
    /// read the clock and `has_room` is always true.
    pub fn disabled() -> Self {
        SpanBuf { epoch: Instant::now(), spans: Vec::new(), dropped: 0, enabled: false }
    }

    /// Nanoseconds since the buffer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether the buffer has room for `n` more spans.
    pub fn has_room(&self, n: usize) -> bool {
        !self.enabled || self.spans.len() + n <= self.spans.capacity()
    }

    /// Opens a span now; close it with [`SpanBuf::close`]. Returns [`ROOT`]
    /// (and counts a drop) when the buffer is full.
    pub fn open(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now();
        self.push(Span { name, start_ns, end_ns: start_ns, parent, req })
    }

    /// Closes a span opened by [`SpanBuf::open`].
    pub fn close(&mut self, id: u32) {
        if id != ROOT {
            let now = self.now();
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end_ns = now;
            }
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover. Children of one span come from the same thread, so they do
/// not overlap one another; each is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = spans.get(span.parent as usize) {
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[span.parent as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(c))
        .collect()
}

/// Per-name totals over one or more span buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration per span, nanoseconds (0 when no span was recorded).
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    /// Mean self time per span, nanoseconds (0 when no span was recorded).
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// Span totals by name, merged across threads.
#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameTotals>,
    pub spans: u64,
    pub dropped: u64,
}

impl Summary {
    pub fn add(&mut self, buf: &SpanBuf) {
        let selfs = self_times(buf.spans());
        for (span, self_ns) in buf.spans().iter().zip(selfs) {
            let t = self.by_name.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns.saturating_sub(span.start_ns);
            t.self_ns += self_ns;
        }
        self.spans += buf.spans().len() as u64;
        self.dropped += buf.dropped();
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per span of every span whose name starts with
    /// `layer.`, nanoseconds.
    pub fn layer_mean_self_ns(&self, layer: &str) -> f64 {
        let mut sum = NameTotals::default();
        for (name, t) in &self.by_name {
            if layer_of(name) == layer {
                sum.count += t.count;
                sum.self_ns += t.self_ns;
            }
        }
        sum.mean_self_ns()
    }
}

/// Writes every span of `bufs` as tab-separated lines
/// (`thread name start_ns end_ns parent req`).
pub fn write_tsv(path: &std::path::Path, bufs: &[&SpanBuf]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\treq")?;
    for (thread, buf) in bufs.iter().enumerate() {
        for s in buf.spans() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, req: 7 }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // root [0,100) has children a [10,40) and b [50,90); a has a grandchild
        // [15,25); b has a child that overruns its parent, clipped at 90.
        let spans = vec![
            span("bench.root", 0, 100, ROOT),
            span("net.a", 10, 40, 0),
            span("core.a1", 15, 25, 1),
            span("journal.b", 50, 90, 0),
            span("core.b1", 80, 95, 3),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 30, 15]);
        let mut buf = SpanBuf::new(Instant::now(), 0);
        buf.spans = spans;
        let mut off = SpanBuf::disabled();
        assert_eq!(off.time("core.x", ROOT, 1, || 5), 5);
        assert!(off.spans().is_empty() && off.has_room(usize::MAX / 2) && off.dropped() == 0);
        let mut summary = Summary::default();
        summary.add(&buf);
        assert_eq!(summary.get("net.a"), NameTotals { count: 1, total_ns: 30, self_ns: 20 });
        assert_eq!(summary.layer_mean_self_ns("core"), 12.5);
        assert_eq!(summary.layer_mean_self_ns("bench"), 30.0);
        assert_eq!(summary.layer_mean_self_ns("mapmatch"), 0.0);
    }

    #[test]
    fn a_full_buffer_counts_drops_instead_of_growing() {
        let mut buf = SpanBuf::new(Instant::now(), 2);
        let a = buf.open("core.x", ROOT, 1);
        buf.close(a);
        buf.time("core.y", a, 1, || ());
        assert!(!buf.has_room(1));
        assert_eq!(buf.open("core.z", ROOT, 2), ROOT);
        assert_eq!(buf.spans().len(), 2);
        assert_eq!(buf.dropped(), 1);
        assert_eq!(buf.spans()[1].parent, a);
        assert_eq!(layer_of(buf.spans()[0].name), "core");
    }
}
