//! In-memory span recording for the traced run.
//!
//! Spans are taken from the benchmark's own files, around calls into
//! each layer's public functions; no library file carries a span. A
//! span is `(name, start_ns, end_ns, parent, tx, n)`: `parent` is the
//! index of the enclosing span, `tx` the payment it belongs to and `n`
//! the work units it covers (parts in a batched send, paths in a
//! batched probe). They stay in memory until the pass ends and are
//! written out only when `--spans FILE` asks for them.

use pcn_proto::{wall_now, WallInstant};
use std::collections::BTreeMap;
use std::io::Write;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// `parent` of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name (`core.route.mice`, `backend.probe`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Enclosing span, or [`NO_PARENT`].
    pub parent: SpanId,
    /// The payment (`TxId`) this span belongs to.
    pub tx: u64,
    /// Work units covered (1 for a single call).
    pub n: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Count and total duration of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans recorded.
    pub spans: u64,
    /// Work units (`Σ n`).
    pub units: u64,
    /// Total duration.
    pub ns: u64,
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    wall_origin: WallInstant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    /// Payment whose spans are being recorded.
    tx: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        let wall_origin = wall_now();
        Tracer {
            wall_origin,
            spans: Vec::new(),
            stack: Vec::new(),
            tx: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        let wall_t = wall_now();
        u64::try_from(wall_t.duration_since(self.wall_origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the payment id stamped on spans opened from now on.
    pub fn set_tx(&mut self, tx: u64) {
        self.tx = tx;
    }

    /// Opens a span covering `n` work units under the innermost open
    /// span.
    pub fn open(&mut self, name: &'static str, n: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            tx: self.tx,
            n,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span, and returns
    /// its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.ns()
    }

    /// Renames a span: a call is named by its result once that is known.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name (sorted by name, so reports are stable).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.units += u64::from(s.n);
            t.ns += s.ns();
        }
        out
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"tx\":{},\"n\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.tx, s.n
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_tx(7);
        let outer = t.open("outer", 1);
        let inner = t.open("inner", 3);
        t.close(inner);
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, outer);
        assert_eq!(spans[1].tx, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].ns() - spans[1].ns());
        assert_eq!(own[1], spans[1].ns());
        let totals = t.totals();
        assert_eq!(totals["inner"].units, 3);
        assert_eq!(totals["outer"].spans, 1);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let a = t.open("a", 1);
        let _b = t.open("b", 1);
        t.close(a);
    }
}
