//! Spans recorded by the benchmark around each public call into the
//! library. Kept in a preallocated vector while a phase runs and written to
//! `out/trace-<workload>.json` when the run ends; see README.md for how to
//! read the file.

use std::io::Write;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub parent: SpanId,
    /// Shared by every span of one operation.
    pub op_id: u32,
    /// Index into [`Tracer::names`].
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    names: Vec<&'static str>,
    capacity: usize,
    next_op: u32,
}

impl Tracer {
    /// A tracer that never allocates while recording: `capacity` spans are
    /// reserved now, and [`Tracer::is_full`] tells the phase to stop.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
            names: Vec::new(),
            capacity,
            next_op: 0,
        }
    }

    /// Room for another operation of up to `spans_per_op` spans?
    pub fn is_full(&self, spans_per_op: usize) -> bool {
        self.spans.len() + spans_per_op > self.capacity
    }

    /// An empty tracer on the same clock with an equal share of this one's
    /// remaining room, for one of `clients` threads to record into.
    pub fn share(&self, clients: usize) -> Tracer {
        Tracer::new(self.epoch, (self.capacity - self.spans.len()) / clients)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // A handful of names per workload: a linear scan beats hashing.
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: SpanId, op_id: u32) -> SpanId {
        let name = self.name_id(name);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Open the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        let op_id = self.next_op;
        self.next_op += 1;
        self.open(name, NO_PARENT, op_id)
    }

    /// Open a span caused by `parent`, inside the same operation.
    pub fn begin_child(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let op_id = self.spans[parent as usize].op_id;
        self.open(name, parent, op_id)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Append another thread's spans, keeping ids, parents and op ids unique.
    pub fn absorb(&mut self, other: Tracer) {
        let span_off = self.spans.len() as u32;
        let op_off = self.next_op;
        for mut s in other.spans {
            s.name = self.name_id(other.names[s.name as usize]);
            if s.parent != NO_PARENT {
                s.parent += span_off;
            }
            s.op_id += op_off;
            self.spans.push(s);
        }
        self.next_op += other.next_op;
    }

    /// Durations in µs of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == id)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Write the trace as JSON: a name table plus one
    /// `[id, parent, op_id, name, start_ns, end_ns]` row per span
    /// (`parent` is -1 for an operation's root span).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(
            w,
            "{{\"columns\": [\"id\", \"parent\", \"op_id\", \"name\", \"start_ns\", \"end_ns\"],"
        )?;
        writeln!(w, " \"names\": [{}],", names.join(", "))?;
        writeln!(w, " \"spans\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "[{id},{parent},{},{},{},{}]{sep}",
                s.op_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children of one span never overlap here: one
/// thread records them back to back).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share in percent of the time of operations made of several calls that
/// is the operation span's own: what the harness spends between the library
/// calls. 0 when no operation has child spans.
pub fn root_self_pct(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            has_child[s.parent as usize] = true;
        }
    }
    let (mut total, mut own_total) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT && has_child[i] {
            total += s.dur_ns();
            own_total += own[i];
        }
    }
    if total == 0 {
        0.0
    } else {
        100.0 * own_total as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            op_id: 0,
            name: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(NO_PARENT, 0, 100), // op
            span(0, 10, 40),         // first child
            span(0, 40, 90),         // adjacent second child
            span(2, 50, 70),         // grandchild, charged to span 2 only
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 30, 20]);
        assert_eq!(root_self_pct(&spans), 20.0);
        assert_eq!(
            root_self_pct(&spans[..1]),
            0.0,
            "a lone call has no harness share"
        );
    }

    #[test]
    fn children_inherit_the_op_id_and_absorb_keeps_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 8);
        let op = a.begin_op("op");
        let child = a.begin_child("call", op);
        a.end(child);
        a.end(op);
        let mut b = Tracer::new(epoch, 8);
        let op_b = b.begin_op("op");
        let child_b = b.begin_child("other", op_b);
        b.end(child_b);
        b.end(op_b);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].op_id), (0, 0));
        assert_eq!((s[2].parent, s[2].op_id), (NO_PARENT, 1));
        assert_eq!((s[3].parent, s[3].op_id), (2, 1));
        assert_eq!(a.names(), ["op", "call", "other"]);
        assert_eq!(a.durations_us("call").len(), 1);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(!a.is_full(4) && a.is_full(5));
    }
}
