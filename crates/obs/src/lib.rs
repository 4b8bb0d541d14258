//! `ladm-obs` — zero-dependency observability for the LADM pipeline.
//!
//! The simulator's headline numbers (Figures 9–11) are end-of-kernel
//! aggregates; this crate makes the *decision chain* visible: Table II
//! classification → LASP scheduler/placement pick → per-TB dispatch →
//! per-sector NUMA routing. It provides:
//!
//! * [`Event`] — the trace taxonomy, from launch-time policy decisions
//!   down to individual 32 B sector routes ([`SectorRoute`]) and fabric
//!   link claims ([`LinkLevel`]).
//! * [`TraceSink`] — the contract instrumented code records against;
//!   [`NullSink`] (reports itself disabled) and [`RecordingSink`]
//!   (in-memory buffer). Instrumentation sites check
//!   [`TraceSink::enabled`] before constructing an event, so the
//!   disabled path allocates nothing.
//! * [`chrome_trace`] — Chrome trace-event JSON export (one lane per
//!   chiplet, complete events for threadblock lifetimes, counter lanes
//!   for sector routes and link occupancy).
//! * [`TrafficMatrix`] — the requester→home byte heatmap, as aligned
//!   text and JSON.
//! * [`CounterRegistry`] — named monotonic counters + histograms with
//!   Prometheus-style text exposition and `+=` merge;
//!   [`registry_from_events`] folds a recorded stream into the
//!   standard metric set.
//! * [`prof`] — the second observation axis: a zero-cost-when-disabled
//!   hierarchical span profiler over the simulator's *own* wall-clock
//!   time (phase attribution, flamegraph export).
//! * [`json`] — a minimal parser used to validate emitted documents
//!   without external dependencies.

#![warn(missing_docs)]

pub mod chrome;
pub mod counters;
pub mod event;
pub mod heatmap;
pub mod json;
pub mod prof;
pub mod sink;

pub use chrome::{chrome_trace, chrome_trace_with_profile};
pub use counters::{registry_from_events, CounterRegistry, Histogram};
pub use event::{Event, LinkLevel, SectorRoute};
pub use heatmap::TrafficMatrix;
pub use json::Json;
pub use prof::{ProfNode, Profile, SpanGuard};
pub use sink::{NullSink, RecordingSink, TraceSink};
