//! Outside-in spans: the benchmark's own calls into each layer, kept in
//! memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the cell the call belongs to.
    pub cell: u32,
}

/// Records spans when on; when off, [`Tracer::call`] is one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cells: Vec<String>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new cell labelled `label`; later spans carry its id.
    /// Drops any span a panicking cell left open.
    pub fn begin_cell(&mut self, label: String) {
        if self.on {
            self.stack.clear();
            self.cells.push(label);
        }
    }

    /// Opens a span named `name` under the innermost open one; returns
    /// its handle for [`Tracer::close`] (meaningless when off).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            cell: self.cells.len().saturating_sub(1) as u32,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, idx: usize) {
        if self.on {
            self.stack.retain(|&open| open != idx);
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// `(calls, total nanoseconds)` of the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Mean duration of a `name` call in nanoseconds (0 when never
    /// called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, ns) = self.totals(name);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// The recorded cells and spans as JSON lines: one `cell` object per
    /// cell, then one `span` object per call.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, label) in self.cells.iter().enumerate() {
            let _ = writeln!(out, r#"{{"cell":{id},"label":"{label}"}}"#);
        }
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"span":"{}","start_ns":{},"end_ns":{},"parent":{parent},"cell":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.cell
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.begin_cell("c".into());
        assert_eq!(tr.call("x", || 5), 5);
        assert_eq!(tr.totals("x"), (0, 0));
        assert!(tr.to_jsonl().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_their_cell() {
        let mut tr = Tracer::on();
        tr.begin_cell("a".into());
        tr.call("solo", || ());
        tr.begin_cell("b".into());
        let cell = tr.open("cell");
        tr.call("inner", || ());
        tr.close(cell);
        assert_eq!(tr.totals("inner").0, 1);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[0].cell, 0);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[2].cell, 1);
        let lines = tr.to_jsonl();
        assert!(lines.starts_with(r#"{"cell":0,"label":"a"}"#), "{lines}");
        assert!(lines.contains(r#""span":"inner""#), "{lines}");
    }
}
