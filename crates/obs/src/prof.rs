//! `prof` — a zero-cost-when-disabled hierarchical span profiler for the
//! simulator's *own* execution time.
//!
//! The trace layer ([`crate::event`]) observes *simulated* time; this
//! module observes the second axis: where the simulator's wall-clock
//! time goes — plan vs. generation vs. drain — so engine work is
//! designed against measured phase splits instead of estimates.
//!
//! ## Model
//!
//! * A process-wide enable flag ([`enable`]/[`disable`]). Every
//!   instrumentation site ([`span`], [`count`]) checks it first, so the
//!   disabled path costs one relaxed atomic load and one branch — no
//!   clock read, no thread-local access, no allocation.
//! * [`span`] returns an RAII guard over a monotonic clock
//!   (`std::time::Instant`); drop order gives well-nested intervals.
//!   Spans form a tree per thread: each guard attaches to (or creates) a
//!   child of the currently open span on a **thread-local** stack, so
//!   recording is lock-free.
//! * When a thread exits — including every scoped worker of
//!   `ladm_core::par::parallel_map` whose join happens-before the
//!   caller continues — its local tree is merged into a process-wide
//!   accumulator keyed by span *name*, which makes the merged shape a
//!   deterministic function of the code paths taken, not of the thread
//!   count or interleaving. Durations sum; only times vary run to run.
//! * Hot leaf observations that would be too frequent for spans
//!   (token-bucket stalls, cache probes, heap ops) are plain named
//!   [`count`]ers, merged the same way.
//!
//! [`take`] snapshots and resets the accumulator as a [`Profile`] with
//! three exporters: an aligned phase-attribution table
//! ([`Profile::render_table`]), collapsed-stack folded output for
//! flamegraph tooling ([`Profile::render_folded`]), and (via
//! [`crate::chrome::chrome_trace_with_profile`]) a "driver" lane in the
//! Chrome-trace export.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Merged> = Mutex::new(Merged::new());

/// Whether profiling is currently on. Instrumentation sites call this
/// (or [`span`]/[`count`], which call it first thing) and fall through
/// in one branch when it is off.
#[inline]
pub fn profiling() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns profiling on. Spans and counters recorded from now on are
/// visible to the next [`take`].
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns profiling off. Already-open span guards still record on drop
/// (they captured their start time at creation); new sites fall through.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Discards everything recorded so far (the process-wide accumulator
/// and the calling thread's local tree). Open spans on the calling
/// thread are abandoned.
pub fn reset() {
    LOCAL.with(|l| l.borrow_mut().clear());
    GLOBAL.lock().unwrap().clear();
}

/// One node of a thread-local span arena.
struct Node {
    name: &'static str,
    total_ns: u64,
    count: u64,
    /// Indices into the arena; children in creation order (merged into
    /// name order later).
    children: Vec<usize>,
}

/// Per-thread recording state: a span arena plus the open-span stack.
/// Merged into [`GLOBAL`] when the thread exits (TLS destructor) or
/// explicitly by [`take`] on the calling thread.
struct LocalProf {
    nodes: Vec<Node>,
    stack: Vec<usize>,
    counters: Vec<(&'static str, u64)>,
}

impl LocalProf {
    fn new() -> Self {
        LocalProf {
            nodes: vec![Node {
                name: "",
                total_ns: 0,
                count: 0,
                children: Vec::new(),
            }],
            stack: vec![0],
            counters: Vec::new(),
        }
    }

    /// Field-wise reset. Deliberately NOT `*self = LocalProf::new()`:
    /// that would drop the old value, and `Drop for LocalProf` locks
    /// [`GLOBAL`] — a self-deadlock when called from `flush_into` under
    /// [`take`]'s lock.
    fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].children.clear();
        self.nodes[0].total_ns = 0;
        self.nodes[0].count = 0;
        self.stack.clear();
        self.stack.push(0);
        self.counters.clear();
    }

    fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.counters.is_empty()
    }

    /// Finds or creates `name` as a child of the open span and makes it
    /// the open span.
    fn push(&mut self, name: &'static str) {
        let top = *self.stack.last().expect("root never pops");
        let found = self.nodes[top]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].name == name);
        let idx = match found {
            Some(i) => i,
            None => {
                self.nodes.push(Node {
                    name,
                    total_ns: 0,
                    count: 0,
                    children: Vec::new(),
                });
                let i = self.nodes.len() - 1;
                self.nodes[top].children.push(i);
                i
            }
        };
        self.stack.push(idx);
    }

    fn pop(&mut self, elapsed_ns: u64) {
        if self.stack.len() > 1 {
            let idx = self.stack.pop().expect("checked non-root");
            self.nodes[idx].total_ns += elapsed_ns;
            self.nodes[idx].count += 1;
        }
    }

    fn flush_into(&mut self, global: &mut Merged) {
        fn walk(nodes: &[Node], idx: usize, out: &mut BTreeMap<&'static str, MergedNode>) {
            let n = &nodes[idx];
            let m = out.entry(n.name).or_default();
            m.total_ns += n.total_ns;
            m.count += n.count;
            for &c in &n.children {
                walk(nodes, c, &mut m.children);
            }
        }
        for &c in &self.nodes[0].children.clone() {
            walk(&self.nodes, c, &mut global.roots);
        }
        for &(name, v) in &self.counters {
            *global.counters.entry(name.to_string()).or_insert(0) += v;
        }
        self.clear();
    }
}

impl Drop for LocalProf {
    fn drop(&mut self) {
        if !self.is_empty() {
            // A poisoned global (a panic mid-merge elsewhere) loses this
            // thread's slice rather than aborting the process from a
            // TLS destructor.
            if let Ok(mut g) = GLOBAL.lock() {
                self.flush_into(&mut g);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalProf> = RefCell::new(LocalProf::new());
}

#[derive(Default)]
struct MergedNode {
    total_ns: u64,
    count: u64,
    children: BTreeMap<&'static str, MergedNode>,
}

struct Merged {
    roots: BTreeMap<&'static str, MergedNode>,
    counters: BTreeMap<String, u64>,
}

impl Merged {
    const fn new() -> Self {
        Merged {
            roots: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn clear(&mut self) {
        self.roots.clear();
        self.counters.clear();
    }
}

/// RAII guard for one span interval. Created by [`span`]; records the
/// elapsed monotonic time into the thread-local tree on drop. Inert
/// (carries no clock) when profiling was off at creation.
#[derive(Debug)]
#[must_use = "a span measures the interval until the guard drops"]
pub struct SpanGuard {
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed().as_nanos() as u64;
            LOCAL.with(|l| l.borrow_mut().pop(elapsed));
        }
    }
}

/// Opens a span named `name` nested under the thread's currently open
/// span. When profiling is disabled this is one branch and returns an
/// inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !profiling() {
        return SpanGuard { start: None };
    }
    LOCAL.with(|l| l.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

/// Adds `delta` to the named profiler counter. One branch when
/// profiling is disabled. Counter keys are static so the hot path never
/// allocates.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !profiling() {
        return;
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(slot) = l.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += delta;
            return;
        }
        l.counters.push((name, delta));
    });
}

/// One merged span-tree node of a [`Profile`]: aggregate wall time and
/// call count for every interval recorded under this name at this
/// nesting, with children in name order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfNode {
    /// Span name as passed to [`span`].
    pub name: String,
    /// Total wall nanoseconds across all calls (sum over threads).
    pub total_ns: u64,
    /// Number of completed guard drops.
    pub count: u64,
    /// Child spans, sorted by name (merge order independent).
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    /// Wall time not attributed to any child span.
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(kids)
    }
}

/// A snapshot of everything recorded between [`reset`]/[`enable`] and
/// [`take`]: the merged span tree plus the profiler counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Top-level spans (no open parent at record time), sorted by name.
    pub roots: Vec<ProfNode>,
    /// Merged [`count`] values.
    pub counters: BTreeMap<String, u64>,
}

fn to_public(tree: &BTreeMap<&'static str, MergedNode>) -> Vec<ProfNode> {
    tree.iter()
        .map(|(name, n)| ProfNode {
            name: (*name).to_string(),
            total_ns: n.total_ns,
            count: n.count,
            children: to_public(&n.children),
        })
        .collect()
}

/// Merges the calling thread's local tree and snapshots the process-wide
/// accumulator, resetting it. Worker threads that already exited (every
/// `parallel_map` worker — its join happens-before the caller resumes)
/// are included; any *other* still-live thread's unflushed spans are
/// not.
pub fn take() -> Profile {
    let mut g = GLOBAL.lock().unwrap();
    LOCAL.with(|l| l.borrow_mut().flush_into(&mut g));
    let profile = Profile {
        roots: to_public(&g.roots),
        counters: g.counters.clone(),
    };
    g.clear();
    profile
}

impl Profile {
    /// Sum of wall time over the top-level spans.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.counters.is_empty()
    }

    /// Looks a node up by its `;`-separated path (e.g.
    /// `"kernel;execute;drain"`).
    pub fn find(&self, path: &str) -> Option<&ProfNode> {
        let mut parts = path.split(';');
        let first = parts.next()?;
        let mut node = self.roots.iter().find(|r| r.name == first)?;
        for part in parts {
            node = node.children.iter().find(|c| c.name == part)?;
        }
        Some(node)
    }

    /// Every node with its full `;`-separated path, depth-first in name
    /// order — the flattened form used by the BENCH.json `profile`
    /// section and the regression checker.
    pub fn flatten(&self) -> Vec<(String, &ProfNode)> {
        fn walk<'a>(prefix: &str, node: &'a ProfNode, out: &mut Vec<(String, &'a ProfNode)>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            for c in &node.children {
                walk(&path, c, out);
            }
            out.push((path, node));
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk("", r, &mut out);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The merged tree's shape — names and nesting only, no times — as
    /// one line per node. Equal shapes across thread counts is the
    /// profiler-determinism property `tests/prof_golden.rs` pins.
    pub fn shape(&self) -> String {
        fn walk(node: &ProfNode, depth: usize, out: &mut String) {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), node.name);
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for r in &self.roots {
            walk(r, 0, &mut out);
        }
        out
    }

    /// The aligned phase-attribution table: one row per span with total
    /// and self wall time, the share of the profile total, and the call
    /// count. Counters follow as a separate block.
    pub fn render_table(&self) -> String {
        let grand = self.total_ns().max(1) as f64;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>7} {:>12} {:>10}",
            "phase", "total ms", "%", "self ms", "calls"
        );
        fn walk(node: &ProfNode, depth: usize, grand: f64, out: &mut String) {
            let label = format!("{}{}", "  ".repeat(depth), node.name);
            let _ = writeln!(
                out,
                "{:<44} {:>12.3} {:>6.1}% {:>12.3} {:>10}",
                label,
                node.total_ns as f64 / 1e6,
                node.total_ns as f64 / grand * 100.0,
                node.self_ns() as f64 / 1e6,
                node.count
            );
            for c in &node.children {
                walk(c, depth + 1, grand, out);
            }
        }
        for r in &self.roots {
            walk(r, 0, grand, &mut out);
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "{:<44} {:>12}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<44} {v:>12}");
            }
        }
        out
    }

    /// Collapsed-stack folded output (`a;b;c <self_ns>` per line) for
    /// flamegraph tooling (`flamegraph.pl`, speedscope, inferno). Leaf
    /// weights are *self* nanoseconds; stack totals re-emerge when the
    /// tool sums descendants.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (path, node) in self.flatten() {
            let self_ns = node.self_ns();
            if self_ns > 0 || node.children.is_empty() {
                let _ = writeln!(out, "{path} {self_ns}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiler state is process-global; unit tests serialize on this
    /// so `cargo test`'s parallel threads don't interleave trees.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _t = locked();
        disable();
        reset();
        {
            let _a = span("never");
            count("nope", 3);
        }
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_and_merge_by_name() {
        let _t = locked();
        reset();
        enable();
        {
            let _root = span("root");
            for _ in 0..3 {
                let _child = span("child");
                std::hint::black_box(0);
            }
            {
                let _other = span("other");
            }
        }
        count("widgets", 2);
        count("widgets", 5);
        disable();
        let p = take();
        assert_eq!(p.roots.len(), 1);
        let root = &p.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.count, 1);
        // Children sorted by name.
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["child", "other"]);
        assert_eq!(root.children[0].count, 3);
        assert!(root.total_ns >= root.children.iter().map(|c| c.total_ns).sum());
        assert_eq!(p.counters["widgets"], 7);
        // find + flatten agree on paths.
        assert_eq!(p.find("root;child").unwrap().count, 3);
        assert!(p.find("root;missing").is_none());
        let paths: Vec<String> = p.flatten().into_iter().map(|(path, _)| path).collect();
        assert_eq!(paths, ["root", "root;child", "root;other"]);
    }

    #[test]
    fn worker_threads_merge_at_join() {
        let _t = locked();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span("worker");
                    count("jobs", 1);
                });
            }
        });
        disable();
        let p = take();
        let worker = p.find("worker").expect("worker spans merged");
        assert_eq!(worker.count, 4, "one drop per worker thread");
        assert_eq!(p.counters["jobs"], 4);
        // Shape is one merged root regardless of thread count.
        assert_eq!(p.shape(), "worker\n");
    }

    #[test]
    fn exporters_render_the_tree() {
        let _t = locked();
        reset();
        enable();
        {
            let _a = span("outer");
            let _b = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disable();
        let p = take();
        let table = p.render_table();
        assert!(table.contains("outer"), "{table}");
        assert!(table.contains("  inner"), "{table}");
        assert!(table.contains("calls"), "{table}");
        let folded = p.render_folded();
        assert!(
            folded.lines().any(|l| l.starts_with("outer;inner ")),
            "{folded}"
        );
        // Folded weights are self time: parse and cross-check the sum.
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, p.total_ns());
    }

    #[test]
    fn take_resets_the_accumulator() {
        let _t = locked();
        reset();
        enable();
        {
            let _a = span("once");
        }
        disable();
        assert!(!take().is_empty());
        assert!(take().is_empty(), "second take sees a clean slate");
    }

    #[test]
    fn disable_mid_span_still_closes_the_open_guard() {
        let _t = locked();
        reset();
        enable();
        let g = span("open");
        disable();
        drop(g);
        let p = take();
        assert_eq!(p.find("open").map(|n| n.count), Some(1));
    }
}
