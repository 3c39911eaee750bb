//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into the simulator's public API from the
//! benchmark's own code. Each span has a name, a start, an end, the span
//! that contains it, and the id of the cell it belongs to. Nothing is
//! written until the run ends. With tracing off, [`Tracer::span`] only calls
//! its closure, so the untraced run pays one branch per boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cell: Option<u32>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time per span name over the spans nested in a span named
    /// `root` (the root included): each span's duration minus the time
    /// its direct children cover (children never overlap: one thread
    /// records).
    pub fn self_time_s(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_root = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            in_root[i] = s.name == root || s.parent.is_some_and(|p| in_root[p]);
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for ((s, c), _) in self
            .spans
            .iter()
            .zip(&child_ns)
            .zip(&in_root)
            .filter(|(_, &r)| r)
        {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns().saturating_sub(*c) as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span in record order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"cell\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                opt(s.cell.map(|c| c as usize)),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", None, |t| {
            t.span("inner", Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        t.span("elsewhere", None, |_| ());
        let selfs = t.self_time_s("outer");
        assert!(!selfs.contains_key("elsewhere"));
        let outer_total = t.total_s("outer");
        assert!(selfs["outer"] < outer_total);
        assert!((selfs["outer"] + selfs["inner"] - outer_total).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
