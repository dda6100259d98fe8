//! In-memory spans recorded from the benchmark's side of every public
//! call: `workload → batch → {derive, run, check, recycle | pool.run |
//! campaign}`. Spans are written out only when the run ends, so the
//! traced window pays a `Vec::push` per span and nothing else; with
//! tracing off `enter`/`exit` are one branch each.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::escape_into;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; 0 means "no span".
    pub id: u32,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; 0 when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Ids of the currently open spans, innermost last.
    open: Vec<u32>,
}

/// Per-name totals from [`self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == 0 {
            return;
        }
        let end = self.t0.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize - 1].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id`, `parent`, `name`, `start_ns`,
    /// `end_ns` (nanoseconds since the tracer was created).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            line.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": ",
                s.id, s.parent
            ));
            escape_into(s.name, &mut line);
            line.push_str(&format!(
                ", \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.start_ns, s.end_ns
            ));
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Totals per span name. A span's self time is its duration minus the
/// part its direct children cover (children never overlap each other:
/// there is one driver thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total.saturating_sub(child_ns[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, "workload", 0, 1000),
            span(2, 1, "batch", 10, 510),
            span(3, 2, "run", 20, 420),
            span(4, 2, "check", 420, 500),
            span(5, 1, "batch", 520, 990),
            span(6, 5, "run", 530, 980),
        ];
        let t = self_times(&spans);
        // workload: 1000 − (500 + 470) children.
        assert_eq!(
            t["workload"],
            SpanTotals {
                count: 1,
                total_ns: 1000,
                self_ns: 30
            }
        );
        // batches: (500 − 480) + (470 − 450).
        assert_eq!(
            t["batch"],
            SpanTotals {
                count: 2,
                total_ns: 970,
                self_ns: 40
            }
        );
        // leaves keep their whole duration; grandchildren are not
        // subtracted twice from `workload`.
        assert_eq!(
            t["run"],
            SpanTotals {
                count: 2,
                total_ns: 850,
                self_ns: 850
            }
        );
        assert_eq!(
            t["check"],
            SpanTotals {
                count: 1,
                total_ns: 80,
                self_ns: 80
            }
        );
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|v| v.self_ns).sum::<u64>(), 1000);
    }

    #[test]
    fn tracer_links_parents_and_is_inert_when_off() {
        let mut tr = Tracer::new(true);
        let a = tr.enter("workload");
        let b = tr.enter("batch");
        let c = tr.enter("run");
        tr.exit(c);
        tr.exit(b);
        let d = tr.enter("batch");
        tr.exit(d);
        tr.exit(a);
        let parents: Vec<(u32, u32)> = tr.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(parents, [(1, 0), (2, 1), (3, 2), (4, 1)]);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::new(false);
        let x = off.enter("workload");
        off.exit(x);
        assert!(off.spans().is_empty());
    }
}
