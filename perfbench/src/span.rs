//! The traced run's span recorder: fixed-size records pushed into a
//! preallocated vector, written out once at exit. Spans are recorded
//! only from the benchmark's own files, around its calls into each
//! layer — spans inside the program are a later change.

use std::collections::BTreeMap;
use std::io::Write;

use crate::sys::now_ns;

/// Index of a recorded span; `NO_PARENT` for a root.
pub type SpanId = u32;
/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    query_seq: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their children cover.
    pub self_ns: u64,
}

/// In-memory span store with a hard capacity: once full, further spans
/// are counted in [`Tracer::dropped`] instead of growing the vector (a
/// reallocation would land inside somebody's timed region).
#[derive(Debug)]
pub struct Tracer {
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records a finished span; returns its id (or `NO_PARENT` when the
    /// store is full, which makes late children roots rather than
    /// dangling).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        query_seq: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            query_seq,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span that [`Tracer::close`] finishes — for parents, which
    /// must have an id before their children are recorded.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = now_ns();
        self.push(name, now, now, parent, 0)
    }

    /// Stamps the end of a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let now = now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans refused because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Count, total and self time per span name. Self time is the span
    /// minus the part of its interval its children cover (children of
    /// one parent never overlap here: one thread records them all).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = child_ns.get_mut(s.parent as usize) {
                *slot += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON document: a table of names, then
    /// one `[name, start_ns, end_ns, parent, query_seq]` row per span
    /// (`name` indexes the table, `parent` the rows; -1 for a root).
    pub fn write_json(&self, w: &mut impl Write) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let index_of = |names: &mut Vec<&'static str>, name: &'static str| match names
            .iter()
            .position(|n| *n == name)
        {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let rows: Vec<(usize, &SpanRec)> = self
            .spans
            .iter()
            .map(|s| (index_of(&mut names, s.name), s))
            .collect();
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(
            w,
            "{{\"dropped\": {}, \"names\": [{}],",
            self.dropped,
            quoted.join(", ")
        )?;
        writeln!(w, "\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"query_seq\"], \"spans\": [")?;
        for (i, (name, s)) in rows.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 == rows.len() { "" } else { "," };
            writeln!(
                w,
                "[{name},{},{},{parent},{}]{comma}",
                s.start_ns, s.end_ns, s.query_seq
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_capacity(8);
        let root = t.push("root", 0, 100, NO_PARENT, 0);
        let a = t.push("layer", 10, 40, root, 1);
        t.push("layer", 50, 70, root, 2);
        t.push("leaf", 15, 25, a, 1);
        let totals = t.totals();
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            totals["layer"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            totals["leaf"],
            NameTotals {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
    }

    #[test]
    fn a_full_store_counts_drops_and_never_grows() {
        let mut t = Tracer::with_capacity(2);
        t.push("a", 0, 1, NO_PARENT, 0);
        t.push("a", 1, 2, NO_PARENT, 1);
        assert_eq!(t.push("a", 2, 3, NO_PARENT, 2), NO_PARENT);
        assert_eq!((t.len(), t.dropped()), (2, 1));
        let mut out = Vec::new();
        t.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let doc = crate::json::Json::parse(&text).expect("the trace file is valid JSON");
        assert_eq!(
            doc.get("dropped").and_then(crate::json::Json::num),
            Some(1.0)
        );
        let second = doc.get("spans").unwrap().items()[1]
            .items()
            .iter()
            .filter_map(crate::json::Json::num)
            .collect::<Vec<_>>();
        assert_eq!(second, [0.0, 1.0, 2.0, -1.0, 1.0]);
    }
}
