//! Named monotonic counters and histograms with Prometheus-style text
//! exposition.
//!
//! The registry is deliberately simple — `BTreeMap`s keyed by metric
//! name and rendered label set — so exposition order is deterministic
//! and merging two registries (e.g. per-worker shards) is a plain
//! `+=`.

use crate::event::Event;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::AddAssign;

/// Renders a label set as the Prometheus `{k="v",...}` suffix.
///
/// Pairs are sorted by key so the same set always renders identically.
/// Returns the empty string for an empty set.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// A fixed-bound histogram in the Prometheus cumulative-bucket style.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, ascending. An implicit
    /// `+Inf` bucket always follows.
    bounds: Vec<f64>,
    /// Per-bound observation counts (*non*-cumulative; cumulated at
    /// exposition time). `buckets.len() == bounds.len() + 1`; the last
    /// slot is the `+Inf` overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// Creates an empty histogram with the given ascending bucket
    /// upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket
    /// counts, Prometheus `histogram_quantile` style: find the bucket
    /// holding the target rank, then interpolate linearly inside it
    /// (the first finite bucket interpolates from zero). Ranks landing
    /// in the `+Inf` overflow bucket clamp to the last finite bound —
    /// the bound structure carries no information beyond it. Returns
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            cum += bucket;
            if cum as f64 >= target {
                if i >= self.bounds.len() {
                    // +Inf bucket: clamp to the last finite bound (or
                    // 0.0 for a boundless histogram).
                    return Some(self.bounds.last().copied().unwrap_or(0.0));
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let below = cum - bucket;
                let frac = if *bucket == 0 {
                    1.0
                } else {
                    (target - below as f64) / *bucket as f64
                };
                return Some(lo + (hi - lo) * frac.clamp(0.0, 1.0));
            }
        }
        Some(self.bounds.last().copied().unwrap_or(0.0))
    }
}

impl AddAssign<&Histogram> for Histogram {
    /// Merges another histogram's observations into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket bounds.
    fn add_assign(&mut self, rhs: &Histogram) {
        assert_eq!(
            self.bounds, rhs.bounds,
            "cannot merge histograms with different bounds"
        );
        for (a, b) in self.buckets.iter_mut().zip(&rhs.buckets) {
            *a += b;
        }
        self.count += rhs.count;
        self.sum += rhs.sum;
    }
}

/// A registry of named monotonic counters and histograms.
///
/// Counter keys are `(metric name, rendered label set)`; everything is
/// stored in `BTreeMap`s so [`CounterRegistry::expose`] output is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterRegistry {
    counters: BTreeMap<String, BTreeMap<String, u64>>,
    histograms: BTreeMap<String, Histogram>,
}

impl CounterRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the unlabeled counter `name`, creating it at
    /// zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        self.add_labeled(name, &[], delta);
    }

    /// Increments the unlabeled counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to the counter `name` with the given label set,
    /// creating it at zero if absent.
    pub fn add_labeled(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        *self
            .counters
            .entry(name.to_string())
            .or_default()
            .entry(render_labels(labels))
            .or_insert(0) += delta;
    }

    /// Registers an empty histogram under `name` with the given bucket
    /// bounds. Replaces any existing histogram of that name.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly ascending.
    pub fn register_histogram(&mut self, name: &str, bounds: &[f64]) {
        self.histograms
            .insert(name.to_string(), Histogram::new(bounds));
    }

    /// Records one observation into the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if no histogram of that name has been registered.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram '{name}' not registered"))
            .observe(value);
    }

    /// The current value of counter `name` with the given label set
    /// (zero if never touched).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(name)
            .and_then(|series| series.get(&render_labels(labels)))
            .copied()
            .unwrap_or(0)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether the registry holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders every metric in Prometheus text-exposition style:
    /// `# TYPE` headers, `name{labels} value` samples, cumulative
    /// `_bucket`/`_sum`/`_count` series for histograms, and
    /// interpolated p50/p95/p99 summary quantiles
    /// (`name{quantile="0.5"} v`) for non-empty histograms.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, series) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            for (labels, value) in series {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (bound, bucket) in h.bounds.iter().zip(&h.buckets) {
                cum += bucket;
                let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
            for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                if let Some(v) = h.quantile(q) {
                    let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v}");
                }
            }
        }
        out
    }
}

impl AddAssign<&CounterRegistry> for CounterRegistry {
    /// Merges another registry into this one: counters add, histograms
    /// merge bucket-wise (absent metrics are adopted wholesale).
    ///
    /// # Panics
    ///
    /// Panics if a histogram exists in both registries with different
    /// bucket bounds.
    fn add_assign(&mut self, rhs: &CounterRegistry) {
        for (name, series) in &rhs.counters {
            let mine = self.counters.entry(name.clone()).or_default();
            for (labels, value) in series {
                *mine.entry(labels.clone()).or_insert(0) += value;
            }
        }
        for (name, h) in &rhs.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => *mine += h,
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }
}

/// Histogram bounds (in cycles) for threadblock lifetimes.
const TB_CYCLE_BOUNDS: [f64; 8] = [
    64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
];

/// Folds a recorded event stream into the standard metric set:
///
/// * `ladm_sectors_total{route=..}` — sector services by route
/// * `ladm_sector_bytes_total{route=..}` — payload bytes by route
/// * `ladm_link_bytes_total{level=..}` — fabric/DRAM bytes by level
/// * `ladm_tb_dispatch_total{node=..}` / `ladm_tb_retire_total{node=..}`
/// * `ladm_first_touch_total{node=..}` — first-touch page bindings
/// * `ladm_kernels_total` — kernels traced
/// * `ladm_tb_cycles` — histogram of threadblock lifetimes
pub fn registry_from_events(events: &[Event]) -> CounterRegistry {
    let mut reg = CounterRegistry::new();
    reg.register_histogram("ladm_tb_cycles", &TB_CYCLE_BOUNDS);
    // Dispatch times keyed by TB identity so retires can be paired even
    // when SM slots are recycled across kernels.
    let mut inflight: BTreeMap<(u32, u32, u32), Vec<f64>> = BTreeMap::new();
    for ev in events {
        match ev {
            Event::KernelBegin { .. } => reg.inc("ladm_kernels_total"),
            Event::ArgDecision { .. } => {}
            Event::TbDispatch {
                time,
                bx,
                by,
                node,
                sm,
                ..
            } => {
                reg.add_labeled("ladm_tb_dispatch_total", &[("node", &node.to_string())], 1);
                inflight.entry((*bx, *by, *sm)).or_default().push(*time);
            }
            Event::TbRetire {
                time,
                bx,
                by,
                node,
                sm,
                ..
            } => {
                reg.add_labeled("ladm_tb_retire_total", &[("node", &node.to_string())], 1);
                if let Some(t0) = inflight.get_mut(&(*bx, *by, *sm)).and_then(Vec::pop) {
                    reg.observe("ladm_tb_cycles", (time - t0).max(0.0));
                }
            }
            Event::Sector { route, bytes, .. } => {
                let labels = [("route", route.label())];
                reg.add_labeled("ladm_sectors_total", &labels, 1);
                reg.add_labeled("ladm_sector_bytes_total", &labels, u64::from(*bytes));
            }
            Event::LinkTransfer { level, bytes, .. } => {
                reg.add_labeled(
                    "ladm_link_bytes_total",
                    &[("level", level.label())],
                    u64::from(*bytes),
                );
            }
            Event::FirstTouch { node, .. } => {
                reg.add_labeled("ladm_first_touch_total", &[("node", &node.to_string())], 1);
            }
            Event::KernelEnd { .. } => {}
            Event::PlanAdopted { .. } => reg.inc("ladm_plan_adopted_total"),
            Event::PlanReplanned { .. } => reg.inc("ladm_plan_replanned_total"),
            Event::PlanInvalidated { .. } => reg.inc("ladm_plan_invalidated_total"),
        }
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SectorRoute;

    #[test]
    fn counters_register_and_accumulate() {
        let mut r = CounterRegistry::new();
        assert!(r.is_empty());
        r.inc("a");
        r.add("a", 4);
        r.add_labeled("b", &[("route", "l1_hit")], 2);
        assert_eq!(r.get("a", &[]), 5);
        assert_eq!(r.get("b", &[("route", "l1_hit")]), 2);
        assert_eq!(r.get("b", &[("route", "dram")]), 0);
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = CounterRegistry::new();
        r.add_labeled("m", &[("b", "2"), ("a", "1")], 3);
        r.add_labeled("m", &[("a", "1"), ("b", "2")], 4);
        assert_eq!(r.get("m", &[("b", "2"), ("a", "1")]), 7);
        assert!(r.expose().contains("m{a=\"1\",b=\"2\"} 7"));
    }

    #[test]
    fn add_assign_merges_counters_and_histograms() {
        let mut a = CounterRegistry::new();
        a.add("x", 1);
        a.register_histogram("h", &[1.0, 10.0]);
        a.observe("h", 0.5);
        let mut b = CounterRegistry::new();
        b.add("x", 2);
        b.add("y", 7);
        b.register_histogram("h", &[1.0, 10.0]);
        b.observe("h", 5.0);
        b.register_histogram("h2", &[2.0]);
        b.observe("h2", 99.0);
        a += &b;
        assert_eq!(a.get("x", &[]), 3);
        assert_eq!(a.get("y", &[]), 7);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h2").unwrap().count(), 1);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn add_assign_rejects_mismatched_bounds() {
        let mut a = CounterRegistry::new();
        a.register_histogram("h", &[1.0]);
        let mut b = CounterRegistry::new();
        b.register_histogram("h", &[2.0]);
        a += &b;
    }

    #[test]
    fn exposition_format_is_prometheus_style() {
        let mut r = CounterRegistry::new();
        r.add("requests_total", 3);
        r.add_labeled("requests_total", &[("code", "500")], 1);
        r.register_histogram("latency", &[1.0, 2.0]);
        r.observe("latency", 0.5);
        r.observe("latency", 1.5);
        r.observe("latency", 9.0);
        let text = r.expose();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# TYPE requests_total counter");
        assert_eq!(lines[1], "requests_total 3");
        assert_eq!(lines[2], "requests_total{code=\"500\"} 1");
        assert_eq!(lines[3], "# TYPE latency histogram");
        assert_eq!(lines[4], "latency_bucket{le=\"1\"} 1");
        assert_eq!(lines[5], "latency_bucket{le=\"2\"} 2");
        assert_eq!(lines[6], "latency_bucket{le=\"+Inf\"} 3");
        assert_eq!(lines[7], "latency_sum 11");
        assert_eq!(lines[8], "latency_count 3");
        assert_eq!(lines[9], "latency{quantile=\"0.5\"} 1.5");
        assert_eq!(lines[10], "latency{quantile=\"0.95\"} 2");
        assert_eq!(lines[11], "latency{quantile=\"0.99\"} 2");
        assert_eq!(lines.len(), 12);
    }

    #[test]
    fn quantiles_interpolate_known_distributions() {
        // Uniform: 100 observations spread one per unit over (0, 100]
        // with bounds every 10 — quantiles should land on q*100 exactly
        // (each rank sits at a bucket-interpolation point).
        let bounds: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let mut h = Histogram::new(&bounds);
        for i in 1..=100 {
            h.observe(i as f64);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.95), Some(95.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // q=0 resolves inside the first occupied bucket.
        assert!(h.quantile(0.0).unwrap() <= 10.0);

        // Point mass: everything in one bucket — every quantile
        // interpolates within (20, 30].
        let mut point = Histogram::new(&[10.0, 20.0, 30.0, 40.0]);
        for _ in 0..1000 {
            point.observe(25.0);
        }
        for q in [0.5, 0.95, 0.99] {
            let v = point.quantile(q).unwrap();
            assert!((20.0..=30.0).contains(&v), "q{q} -> {v}");
        }
        // Monotone in q.
        assert!(point.quantile(0.5) <= point.quantile(0.99));

        // Overflow mass: observations past the last bound clamp there.
        let mut over = Histogram::new(&[1.0, 2.0]);
        for _ in 0..10 {
            over.observe(1e9);
        }
        assert_eq!(over.quantile(0.5), Some(2.0));
        assert_eq!(over.quantile(0.99), Some(2.0));

        // Empty histogram has no quantiles.
        assert_eq!(Histogram::new(&[1.0]).quantile(0.5), None);
    }

    #[test]
    fn registry_from_events_folds_routes() {
        let ev = [
            Event::Sector {
                time: 1.0,
                node: 0,
                home: 1,
                route: SectorRoute::DramRemote,
                write: false,
                page: 0,
                bytes: 32,
            },
            Event::Sector {
                time: 2.0,
                node: 0,
                home: 0,
                route: SectorRoute::L1Hit,
                write: false,
                page: 0,
                bytes: 32,
            },
        ];
        let r = registry_from_events(&ev);
        assert_eq!(r.get("ladm_sectors_total", &[("route", "dram_remote")]), 1);
        assert_eq!(r.get("ladm_sector_bytes_total", &[("route", "l1_hit")]), 32);
    }
}
